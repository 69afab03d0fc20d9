"""MART: least-squares gradient boosting of regression trees (paper §4.2).

With the (root) mean-square error as loss function, the negative gradient
at each boosting iteration is simply the residual ``y - F(x)``; each
iteration fits a 30-leaf regression tree to the residuals and adds it,
scaled by the shrinkage factor, to the ensemble — Friedman's gradient
boosting machine [10] with optional stochastic subsampling.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.learning.binning import QuantileBinner
from repro.learning.forest import PackedForest
from repro.learning.tree import RegressionTree, TreeParams, offset_matrix

#: the paper's training parameters (§6: "M = 200 boosting iterations; each
#: decision tree has 30 leaf nodes")
PAPER_BOOSTING_ITERATIONS = 200
PAPER_MAX_LEAVES = 30


@dataclass
class MARTParams:
    n_trees: int = PAPER_BOOSTING_ITERATIONS
    learning_rate: float = 0.1
    max_leaves: int = PAPER_MAX_LEAVES
    min_samples_leaf: int = 5
    subsample: float = 1.0       # stochastic gradient boosting fraction
    max_bins: int = 64
    random_state: int = 0

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise ValueError("n_trees must be positive")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if not 0.0 < self.subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")


@dataclass
class MARTRegressor:
    """Gradient-boosted regression-tree ensemble."""

    params: MARTParams = field(default_factory=MARTParams)
    binner: QuantileBinner | None = None
    trees: list[RegressionTree] = field(default_factory=list)
    init_: float = 0.0
    fit_seconds_: float = 0.0
    #: this model packed for :meth:`predict`, built on first use
    _forest: PackedForest | None = field(default=None, init=False,
                                         repr=False, compare=False)

    @property
    def is_fitted(self) -> bool:
        return self.binner is not None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "MARTRegressor":
        started = time.perf_counter()
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if len(X) != len(y):
            raise ValueError("X and y disagree on the number of samples")
        if len(y) == 0:
            raise ValueError("cannot fit on an empty training set")
        self._forest = None
        self.binner = QuantileBinner(self.params.max_bins)
        Xb = self.binner.fit_transform(X)
        n_bins = self.binner.total_bins
        Xb_off = offset_matrix(Xb, n_bins)
        rng = np.random.default_rng(self.params.random_state)
        self.init_ = float(y.mean())
        current = np.full(len(y), self.init_)
        self.trees = []
        tree_params = TreeParams(max_leaves=self.params.max_leaves,
                                 min_samples_leaf=self.params.min_samples_leaf)
        n = len(y)
        for _ in range(self.params.n_trees):
            residual = y - current
            if self.params.subsample < 1.0:
                take = max(int(round(n * self.params.subsample)),
                           2 * self.params.min_samples_leaf)
                take = min(take, n)
                sample = rng.choice(n, size=take, replace=False)
                tree = RegressionTree(tree_params).fit(
                    Xb[sample], residual[sample], n_bins,
                    Xb_off=Xb_off[sample])
            else:
                tree = RegressionTree(tree_params).fit(Xb, residual, n_bins,
                                                       Xb_off=Xb_off)
            current += self.params.learning_rate * tree.predict_binned(Xb)
            self.trees.append(tree)
        self.fit_seconds_ = time.perf_counter() - started
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predictions for the rows of ``X``: the one-model case of
        :class:`~repro.learning.forest.PackedForest`."""
        if self.binner is None:
            raise RuntimeError("model is not fitted")
        if self._forest is None:
            self._forest = PackedForest([self])
        return self._forest.predict(X)[:, 0]

    def staged_training_error(self, X: np.ndarray, y: np.ndarray,
                              every: int = 10) -> list[tuple[int, float]]:
        """RMSE after every ``every`` trees — used by convergence tests."""
        if self.binner is None:
            raise RuntimeError("model is not fitted")
        Xb = self.binner.transform(np.asarray(X, dtype=np.float64))
        out = np.full(len(Xb), self.init_)
        curve = []
        for m, tree in enumerate(self.trees, start=1):
            out += self.params.learning_rate * tree.predict_binned(Xb)
            if m % every == 0 or m == len(self.trees):
                rmse = float(np.sqrt(np.mean((y - out) ** 2)))
                curve.append((m, rmse))
        return curve
