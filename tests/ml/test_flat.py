"""Exactness and structure of the flattened-forest kernel.

Every estimator and the portable runtime score through
:class:`repro.ml.flat.FlatForest`.  The reference below is the walk the
kernel replaced: one tree at a time, each row descending until its node
is a leaf, and the forest mean accumulated tree by tree.  The kernel
must reproduce it bit for bit (``np.array_equal``), not within a
tolerance: the arithmetic is the same, only the order of the gathers
changed.
"""

import ast
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.export.format import export_model, save_model_file
from repro.export.runtime import PortableModelRuntime
from repro.ml import flat
from repro.ml.flat import BLOCK_ROWS, FlatForest
from repro.ml.forest import RandomForestRegressor
from repro.ml.tree import DecisionTreeRegressor

BATCH_SIZES = (1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1)
SRC = Path(flat.__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# the reference: the per-tree walk
# ----------------------------------------------------------------------


def reference_arrays(tree: DecisionTreeRegressor):
    """A fitted tree's node list as arrays, read straight off ``nodes_``."""
    nodes = tree.nodes_
    return (
        np.array([n.feature for n in nodes]),
        np.array([n.threshold for n in nodes], dtype=float),
        np.array([n.left for n in nodes]),
        np.array([n.right for n in nodes]),
        np.stack([n.value for n in nodes]),
    )


def reference_leaves(features, thresholds, left, right, X):
    """Each row descends until it reaches a node with a negative feature."""
    idx = np.zeros(X.shape[0], dtype=int)
    rows = np.arange(X.shape[0])
    while True:
        feats = features[idx]
        active = feats >= 0
        if not active.any():
            return idx
        act_rows = rows[active]
        act_idx = idx[active]
        go_left = X[act_rows, feats[active]] <= thresholds[act_idx]
        idx[active] = np.where(go_left, left[act_idx], right[act_idx])


def reference_mean(trees, X):
    """Add one tree's leaf values at a time, then divide by the tree count."""
    acc = np.zeros((X.shape[0], trees[0][4].shape[1]))
    for features, thresholds, left, right, values in trees:
        acc += values[reference_leaves(features, thresholds, left, right, X)]
    acc /= len(trees)
    return acc


def reference_forest(forest: RandomForestRegressor, X):
    out = reference_mean([reference_arrays(t) for t in forest.estimators_], X)
    return out[:, 0] if forest._y_was_1d else out


def reference_document(document, X):
    """The runtime's former walk, over a portable document's lists."""
    trees = [
        (
            np.asarray(t["feature"]),
            np.array([np.nan if v is None else v for v in t["threshold"]]),
            np.asarray(t["left"]),
            np.asarray(t["right"]),
            np.asarray(t["value"], dtype=float),
        )
        for t in document["trees"]
    ]
    return reference_mean(trees, X)


# ----------------------------------------------------------------------
# generated forests and inputs
# ----------------------------------------------------------------------


@st.composite
def forests(draw):
    """A small fitted forest with the settings the kernel must cover."""
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 5))
    # A coarse grid gives ties, so split thresholds land between repeats.
    X = rng.integers(0, draw(st.integers(2, 12)), size=(n, d)) / 4.0
    target = draw(st.sampled_from(["1d", "multi", "constant"]))
    if target == "1d":
        y = rng.normal(size=n)
    elif target == "multi":
        y = rng.normal(size=(n, draw(st.integers(2, 3))))
    else:
        y = np.full(n, 1.25)
    forest = RandomForestRegressor(
        n_estimators=draw(st.integers(1, 16)),
        max_depth=draw(st.sampled_from([None, 1, 2, 4])),
        max_features=draw(st.sampled_from([None, 1, "sqrt", 0.5])),
        min_samples_leaf=draw(st.integers(1, 3)),
        random_state=seed,
    ).fit(X, y)
    return forest, X


def scoring_rows(forest, X, n_rows, seed):
    """Rows from around the training data, with every split threshold hit
    exactly and some NaN entries."""
    rng = np.random.default_rng(seed)
    lo, hi = X.min() - 0.5, X.max() + 0.5
    rows = rng.uniform(lo, hi, size=(n_rows, X.shape[1]))
    splits = [
        (node.feature, node.threshold)
        for tree in forest.estimators_
        for node in tree.nodes_
        if not node.is_leaf
    ]
    for i, (feature, threshold) in enumerate(splits[: n_rows // 2]):
        rows[i, feature] = threshold
    nan = rng.random(rows.shape) < 0.05
    rows[nan] = np.nan
    return rows


def runtime_for(forest, root):
    save_model_file(forest, Path(root) / "m.json")
    return PortableModelRuntime(root)


# ----------------------------------------------------------------------
# exactness properties
# ----------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    fitted=forests(),
    n_rows=st.sampled_from(BATCH_SIZES),
    seed=st.integers(0, 2**16),
)
def test_forest_is_bit_identical_to_per_tree_walk(fitted, n_rows, seed):
    forest, X = fitted
    rows = scoring_rows(forest, X, n_rows, seed)
    assert np.array_equal(forest.predict(rows), reference_forest(forest, rows))


@settings(max_examples=40, deadline=None)
@given(
    fitted=forests(),
    n_rows=st.sampled_from(BATCH_SIZES),
    seed=st.integers(0, 2**16),
)
def test_tree_is_bit_identical_to_per_tree_walk(fitted, n_rows, seed):
    forest, X = fitted
    rows = scoring_rows(forest, X, n_rows, seed)
    for tree in forest.estimators_:
        arrays = reference_arrays(tree)
        leaves = reference_leaves(*arrays[:4], rows)
        assert np.array_equal(tree.apply(rows), leaves)
        expected = arrays[4][leaves]
        if tree._y_was_1d:
            expected = expected[:, 0]
        assert np.array_equal(tree.predict(rows), expected)


@settings(max_examples=25, deadline=None)
@given(
    fitted=forests(),
    n_rows=st.sampled_from(BATCH_SIZES),
    seed=st.integers(0, 2**16),
)
def test_runtime_is_bit_identical_to_per_tree_walk(fitted, n_rows, seed):
    forest, X = fitted
    rows = scoring_rows(forest, X, n_rows, seed)
    document = json.loads(json.dumps(export_model(forest)))
    expected = reference_document(document, rows)
    with tempfile.TemporaryDirectory() as root:
        runtime = runtime_for(forest, root)
        assert np.array_equal(runtime.predict("m", rows), expected)
        # A 1-D row is one query, scored as a one-row batch.
        assert np.array_equal(runtime.predict("m", rows[0]), expected[0])
    # The training side agrees with the runtime on the same arrays.
    forest_out = forest.predict(rows)
    assert np.array_equal(np.atleast_2d(forest_out.T).T, expected)


class TestEdgeCases:
    def test_stumps(self, rng):
        X, y = rng.random((60, 3)), rng.random((60, 2))
        forest = RandomForestRegressor(
            n_estimators=20, max_depth=1, random_state=0
        ).fit(X, y)
        rows = scoring_rows(forest, X, 2 * BLOCK_ROWS + 1, 1)
        assert np.array_equal(forest.predict(rows), reference_forest(forest, rows))

    @pytest.mark.parametrize("n_outputs", [1, 3])
    def test_hundred_trees_one_row_at_a_time(self, rng, n_outputs):
        """The critical-path shape: 100 trees, one query per call, where
        a pairwise tree-axis sum would round differently."""
        X, y = rng.random((80, 6)), rng.random((80, n_outputs))
        forest = RandomForestRegressor(random_state=0).fit(X, y)
        for row in scoring_rows(forest, X, 24, 2):
            row = row[None, :]
            assert np.array_equal(forest.predict(row), reference_forest(forest, row))

    def test_single_leaf_trees(self, rng):
        X = rng.random((30, 4))
        forest = RandomForestRegressor(n_estimators=5, random_state=0).fit(
            X, np.full(30, 7.5)
        )
        assert all(t.n_leaves_ == 1 for t in forest.estimators_)
        rows = rng.random((BLOCK_ROWS + 1, 4))
        assert np.array_equal(forest.predict(rows), reference_forest(forest, rows))
        assert forest._flat.depth == 0

    def test_nan_goes_right(self):
        X = np.array([[0.0], [1.0]])
        tree = DecisionTreeRegressor().fit(X, np.array([0.0, 1.0]))
        assert tree.predict(np.array([[np.nan]]))[0] == 1.0

    def test_non_contiguous_rows(self, rng):
        X, y = rng.random((300, 5)), rng.random((300, 2))
        forest = RandomForestRegressor(n_estimators=10, random_state=0).fit(X, y)
        expected = reference_forest(forest, X)
        assert np.array_equal(forest.predict(np.asfortranarray(X)), expected)
        assert np.array_equal(forest.predict(X[::2]), expected[::2])

    def test_empty_batch(self, rng):
        forest = RandomForestRegressor(n_estimators=3, random_state=0).fit(
            rng.random((10, 2)), rng.random((10, 2))
        )
        assert forest.predict(np.empty((0, 2))).shape == (0, 2)

    def test_refit_rebuilds_the_table(self, rng):
        X = rng.random((40, 3))
        forest = RandomForestRegressor(n_estimators=4, random_state=0)
        forest.fit(X, X[:, 0])
        first = forest.predict(X)
        forest.fit(X, X[:, 1])
        assert not np.array_equal(forest.predict(X), first)
        assert np.array_equal(forest.predict(X), reference_forest(forest, X))


def test_wrong_width_rejected():
    table = FlatForest([([-1], [np.nan], [-1], [-1], [[1.0]])], n_features=2)
    with pytest.raises(ValueError, match="3 features, not 2"):
        table.predict(np.zeros((1, 3)))


# ----------------------------------------------------------------------
# structure: cost follows depth, not the number of trees
# ----------------------------------------------------------------------


def test_traversal_steps_per_block_follow_depth_not_tree_count(monkeypatch, rng):
    """A depth-4 forest takes exactly 4 steps per row block, at 10 trees
    and at 100: the trees are walked together, not one after another."""
    steps = []
    descend = flat._descend

    def counting(*args):
        steps.append(1)
        return descend(*args)

    monkeypatch.setattr(flat, "_descend", counting)
    X, y = rng.random((200, 5)), rng.random(200)
    rows = rng.random((2 * BLOCK_ROWS + 1, 5))  # three blocks
    for n_trees in (10, 100):
        forest = RandomForestRegressor(
            n_estimators=n_trees, max_depth=4, random_state=0
        ).fit(X, y)
        steps.clear()
        forest.predict(rows)
        assert forest._flat.depth == 4
        assert len(steps) == 4 * 3


def test_kernel_and_runtime_import_no_estimator():
    """The runtime's independence from the training classes: neither the
    kernel nor the runtime imports a module that defines an estimator."""
    estimators = {"repro.ml.forest", "repro.ml.tree", "repro.ml.linear"}
    for path in (SRC / "ml" / "flat.py", SRC / "export" / "runtime.py"):
        tree = ast.parse(path.read_text())
        imported = {
            node.module
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
        } | {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            for alias in node.names
        }
        assert not imported & estimators, (path.name, imported & estimators)
