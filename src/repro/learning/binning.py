"""Quantile pre-binning of feature matrices (the histogram trick)."""

from __future__ import annotations

import numpy as np

MAX_BINS_LIMIT = 255  # bins are stored as uint8


class QuantileBinner:
    """Maps each feature to at most ``max_bins`` integer bins.

    Bin boundaries are the unique quantiles of the training distribution;
    a value's bin is the number of cuts strictly below it, so bin *b* holds
    values in ``(edges[b-1], edges[b]]`` (``searchsorted(side="left")``,
    NaN landing in bin 0).  Unseen values clamp into the outermost bins,
    which is the right behaviour for test pipelines whose cardinalities
    exceed anything seen in training.
    """

    def __init__(self, max_bins: int = 64):
        if not 2 <= max_bins <= MAX_BINS_LIMIT:
            raise ValueError(f"max_bins must be in [2, {MAX_BINS_LIMIT}]")
        self.max_bins = max_bins
        self.edges_ = None

    @property
    def edges_(self) -> list[np.ndarray] | None:
        """Per-feature sorted cuts (``None`` until fitted)."""
        return self._edges

    @edges_.setter
    def edges_(self, edges: list[np.ndarray] | None) -> None:
        self._edges = edges
        # (max_cuts, features), padded with +inf: a padding cut is never
        # below any value, so it never adds to a bin
        self._cut_rows = None
        if edges is not None:
            width = max((len(cuts) for cuts in edges), default=0)
            rows = np.full((width, len(edges)), np.inf)
            for j, cuts in enumerate(edges):
                rows[:len(cuts), j] = cuts
            self._cut_rows = rows

    @property
    def is_fitted(self) -> bool:
        return self.edges_ is not None

    def fit(self, X: np.ndarray) -> "QuantileBinner":
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("X must be 2-dimensional")
        edges = []
        quantiles = np.linspace(0.0, 1.0, self.max_bins + 1)[1:-1]
        for j in range(X.shape[1]):
            column = X[:, j]
            finite = column[np.isfinite(column)]
            if len(finite) == 0:
                edges.append(np.array([0.0]))
                continue
            cuts = np.unique(np.quantile(finite, quantiles))
            edges.append(cuts)
        self.edges_ = edges
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        if self.edges_ is None:
            raise RuntimeError("binner is not fitted")
        X = np.asarray(X, dtype=np.float64)
        n, f = X.shape
        if f != len(self.edges_):
            raise ValueError(f"expected {len(self.edges_)} features, got {f}")
        # one comparison per cut column counts the cuts below each value;
        # NaN compares below nothing, so it bins like -inf
        out = np.zeros((n, f), dtype=np.uint8)
        for row in self._cut_rows:
            out += row < X
        return out

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)

    def n_bins(self, feature: int) -> int:
        """Number of distinct bins feature ``feature`` can take."""
        if self.edges_ is None:
            raise RuntimeError("binner is not fitted")
        return len(self.edges_[feature]) + 1

    @property
    def total_bins(self) -> int:
        """Uniform bin budget per feature (for histogram allocation)."""
        if self.edges_ is None:
            raise RuntimeError("binner is not fitted")
        return max(len(cuts) + 1 for cuts in self.edges_)
