"""The portable model file format.

A portable model is a JSON document:

    {
      "format_version": 1,
      "kind": "random_forest" | "linear",
      "n_features": int, "n_outputs": int,
      "metadata": {...},            # feature names, PPM family, ...
      "trees": [                    # for random forests
        {"feature": [...], "threshold": [...],
         "left": [...], "right": [...], "value": [[...], ...]},
        ...
      ],                            # node 0 is the root; a leaf has
                                    # feature -1, any other node children
                                    # with higher ids than its own
      "coef": [[...]], "intercept": [...]   # for linear models
    }

Like ONNX, the format captures only what inference needs — no training
state — and is independent of the library that produced it.  File sizes
land in the same ~1 MB ballpark the paper reports for its 103-query
TPC-DS models (Section 5.6), which the overhead bench verifies.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.ml.forest import RandomForestRegressor
from repro.ml.linear import LinearRegression
from repro.ml.tree import DecisionTreeRegressor

__all__ = ["FORMAT_VERSION", "export_model", "save_model_file", "load_model_file"]

FORMAT_VERSION = 1


def _export_tree(tree: DecisionTreeRegressor) -> dict:
    features, thresholds, left, right, values = tree.node_arrays()
    return {
        "feature": features.tolist(),
        "threshold": [
            None if not np.isfinite(t) else float(t) for t in thresholds
        ],
        "left": left.tolist(),
        "right": right.tolist(),
        "value": values.tolist(),
    }


def export_model(model, metadata: dict | None = None) -> dict:
    """Serialize a fitted estimator into the portable document.

    Supports the estimators the paper's pipeline uses: random forests,
    single trees, and linear models.  ``metadata`` is carried verbatim
    (put feature names and the PPM family there).
    """
    metadata = dict(metadata or {})
    if isinstance(model, RandomForestRegressor):
        if not model.estimators_:
            raise ValueError("cannot export an unfitted forest")
        return {
            "format_version": FORMAT_VERSION,
            "kind": "random_forest",
            "n_features": model.n_features_in_,
            "n_outputs": model.n_outputs_,
            "metadata": metadata,
            "trees": [_export_tree(t) for t in model.estimators_],
        }
    if isinstance(model, DecisionTreeRegressor):
        if not model.nodes_:
            raise ValueError("cannot export an unfitted tree")
        return {
            "format_version": FORMAT_VERSION,
            "kind": "random_forest",  # a forest with one tree
            "n_features": model.n_features_in_,
            "n_outputs": model.n_outputs_,
            "metadata": metadata,
            "trees": [_export_tree(model)],
        }
    if isinstance(model, LinearRegression):
        if model.coef_ is None:
            raise ValueError("cannot export an unfitted linear model")
        coef = np.atleast_2d(model.coef_)
        intercept = np.atleast_1d(model.intercept_)
        return {
            "format_version": FORMAT_VERSION,
            "kind": "linear",
            "n_features": model.n_features_in_,
            "n_outputs": coef.shape[0],
            "metadata": metadata,
            "coef": coef.tolist(),
            "intercept": [float(b) for b in intercept],
        }
    raise TypeError(f"cannot export models of type {type(model).__name__}")


def save_model_file(model, path: str | Path, metadata: dict | None = None) -> int:
    """Export and write a model; returns the file size in bytes."""
    document = export_model(model, metadata)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(document, f)
    return path.stat().st_size


def save_parameter_model(parameter_model, path: str | Path) -> int:
    """Export a fitted :class:`repro.core.parameter_model.ParameterModel`.

    Writes the underlying estimator together with the metadata a
    :class:`repro.export.runtime.PortablePPMScorer` needs (PPM family and
    log-space target mask).  Returns the file size in bytes.
    """
    return save_model_file(
        parameter_model.estimator, path, parameter_model.export_metadata()
    )


def load_model_file(path: str | Path) -> dict:
    """Read and validate a portable model document."""
    with open(path, encoding="utf-8") as f:
        document = json.load(f)
    validate_document(document)
    return document


def validate_document(document: dict) -> None:
    """Structural validation of a portable model document."""
    if document.get("format_version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported format version: {document.get('format_version')!r}"
        )
    kind = document.get("kind")
    if kind == "random_forest":
        trees = document.get("trees")
        if not trees:
            raise ValueError("forest document has no trees")
        for tree in trees:
            n = len(tree["feature"])
            if not n:
                raise ValueError("forest document has a tree with no nodes")
            for key in ("threshold", "left", "right", "value"):
                if len(tree[key]) != n:
                    raise ValueError(f"tree arrays disagree on length ({key})")
            # Children above their parent's id make every path finite;
            # one parent per child keeps the number of paths linear.
            feature = np.asarray(tree["feature"], dtype=int)
            inner = np.flatnonzero(feature >= 0)
            children = np.asarray([tree["left"], tree["right"]], dtype=int)[:, inner]
            if (
                np.any(feature[inner] >= document.get("n_features", 0))
                or np.any(children <= inner)
                or np.any(children >= n)
                or np.any(np.bincount(children.ravel()) > 1)
            ):
                raise ValueError("tree split feature or child link is invalid")
    elif kind == "linear":
        if "coef" not in document or "intercept" not in document:
            raise ValueError("linear document missing coefficients")
    else:
        raise ValueError(f"unknown model kind: {kind!r}")
