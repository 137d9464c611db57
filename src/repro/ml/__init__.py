"""Machine-learning substrate for the AutoExecutor reproduction.

The paper trains its parameter model with scikit-learn's
``RandomForestRegressor`` (100 estimators, default settings) and evaluates
feature relevance with permutation importance.  Scikit-learn is not available
in this environment, so this subpackage provides a from-scratch,
numpy-backed implementation of the pieces the paper uses:

- :class:`~repro.ml.tree.DecisionTreeRegressor` — CART regression trees with
  multi-output support (the PPM has 2–3 scalar targets per query).
- :class:`~repro.ml.forest.RandomForestRegressor` — bagged ensembles of the
  above, mirroring scikit-learn's regression defaults.
- :class:`~repro.ml.flat.FlatForest` — the flattened-forest kernel both
  estimators and the portable runtime score through: every tree walked
  together, one vectorized step per tree level.
- :class:`~repro.ml.linear.LinearRegression` — ordinary least squares, used
  to fit the PPM functional forms (Section 3.4 of the paper).
- :mod:`~repro.ml.model_selection` — KFold / RepeatedKFold splitters and
  ``train_test_split`` for the paper's 10-repeated 5-fold cross-validation.
- :mod:`~repro.ml.importance` — permutation feature importance (Section 5.7).
- :mod:`~repro.ml.metrics` — regression metrics, including the paper's
  normalized total-absolute-error ``E(n)`` building block.
"""

from repro.ml.forest import RandomForestRegressor
from repro.ml.importance import permutation_importance
from repro.ml.linear import LinearRegression
from repro.ml.metrics import (
    mean_absolute_error,
    mean_squared_error,
    r2_score,
    total_absolute_error_ratio,
)
from repro.ml.model_selection import KFold, RepeatedKFold, train_test_split
from repro.ml.tree import DecisionTreeRegressor

__all__ = [
    "DecisionTreeRegressor",
    "RandomForestRegressor",
    "LinearRegression",
    "KFold",
    "RepeatedKFold",
    "train_test_split",
    "permutation_importance",
    "mean_absolute_error",
    "mean_squared_error",
    "r2_score",
    "total_absolute_error_ratio",
]
