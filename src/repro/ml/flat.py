"""The flattened-forest kernel, the one tree walker in the package: the
estimators in :mod:`repro.ml` and the portable runtime all score through
:class:`FlatForest`, which imports no estimator class (so the runtime
stays independent of the training code, as ONNX is of scikit-learn).
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np
from numpy.typing import ArrayLike, NDArray

__all__ = ["BLOCK_ROWS", "FlatForest"]

#: Rows per block: bounds the lanes (trees x rows) a batch holds at once.
BLOCK_ROWS = 128

Floats = NDArray[np.float64]
Indices = NDArray[np.intp]


class FlatForest:
    """The trees of an ensemble in one node table; predicts their mean.

    Args:
        trees: in ensemble order, each as parallel node arrays
            ``(feature, threshold, left, right, value)`` with one
            ``value`` row per node.  A leaf has a negative feature; every
            other node's children have higher ids than it.  A ``None``
            threshold reads as NaN.
        n_features: width of the rows the trees score.

    Child ids become global; a leaf splits on feature 0 at threshold NaN
    with both children itself, and ``x <= NaN`` is false, so a lane that
    reached its leaf stays there (a NaN feature goes right at every
    split).  Each (tree, row) lane of a :data:`BLOCK_ROWS` block takes
    exactly ``depth`` steps.  Leaf values are summed in tree order (a
    cumulative sum, not numpy's pairwise sum), then divided by the tree
    count: bit for bit the arithmetic of adding one tree at a time.
    """

    def __init__(self, trees: Sequence[Sequence[ArrayLike]], n_features: int) -> None:
        sizes = [np.shape(tree[0])[0] for tree in trees]
        self.roots: Indices = np.cumsum([0, *sizes[:-1]], dtype=np.intp)
        shift = np.repeat(self.roots, sizes)

        def column(i: int, dtype: type[np.generic]) -> np.ndarray:
            return np.concatenate([np.asarray(t[i], dtype=dtype) for t in trees])

        self.n_features = n_features
        self.feature: Indices = column(0, np.intp)
        leaves = np.flatnonzero(self.feature < 0)
        self.feature[leaves] = 0
        self.threshold: Floats = column(1, np.float64)
        self.threshold[leaves] = np.nan
        self.left: Indices = column(2, np.intp)
        self.right: Indices = column(3, np.intp)
        for child in (self.left, self.right):
            child += shift
            child[leaves] = leaves
        self.value: Floats = column(4, np.float64)
        self.depth = 0  # of the deepest tree; a lone leaf has depth 0
        frontier = self.roots
        while (inner := frontier[self.left[frontier] != frontier]).size:
            frontier = np.concatenate((self.left[inner], self.right[inner]))
            self.depth += 1

    def apply(self, X: ArrayLike) -> Indices:
        """Global leaf id per (tree, row), shape ``(n_trees, n_rows)``."""
        rows = self._rows(X)
        out = np.empty((self.roots.shape[0], rows.shape[0]), dtype=np.intp)
        for block, leaves in self._blocks(rows):
            out[:, block] = leaves
        return out

    def predict(self, X: ArrayLike) -> Floats:
        """Mean leaf value over the trees, shape ``(n_rows, n_outputs)``."""
        rows = self._rows(X)
        out = np.empty((rows.shape[0], self.value.shape[1]))
        for block, leaves in self._blocks(rows):
            out[block] = np.cumsum(self.value[leaves], axis=0)[-1]
        out /= self.roots.shape[0]
        return out

    def _rows(self, X: ArrayLike) -> Floats:
        rows = np.asarray(X, dtype=np.float64)
        if rows.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {rows.shape}")
        if rows.shape[1] != self.n_features:
            raise ValueError(f"X has {rows.shape[1]} features, not {self.n_features}")
        return rows

    def _blocks(self, rows: Floats) -> Iterator[tuple[slice, Indices]]:
        """Each block's rows and its ``(n_trees, block rows)`` leaf ids."""
        for start in range(0, rows.shape[0], BLOCK_ROWS):
            block = rows[start : start + BLOCK_ROWS]
            n = block.shape[0]
            x = block.ravel()  # C order: row i starts at i * n_features
            row_base = np.tile(np.arange(n) * self.n_features, self.roots.shape[0])
            idx = np.repeat(self.roots, n)
            for _ in range(self.depth):
                idx = _descend(self, x, row_base, idx)
            yield slice(start, start + n), idx.reshape(-1, n)


def _descend(flat: FlatForest, x: Floats, row_base: Indices, idx: Indices) -> Indices:
    """One traversal step: every lane moves to a child (a leaf to itself)."""
    go_left = x[row_base + flat.feature[idx]] <= flat.threshold[idx]
    return np.where(go_left, flat.left[idx], flat.right[idx])
