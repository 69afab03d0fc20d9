"""Estimator selection by per-estimator error regression (paper §4.1).

The paper deliberately does *not* model selection as multi-class
classification: many estimators produce near-identical estimates, and what
matters is the magnitude of the error when the choice is wrong.  Instead,
one MART regressor per candidate estimator predicts that estimator's error
on a pipeline; selection takes the argmin of the predictions, minimizing
the expected impact of mistakes.  The candidates' models are scored
together as one :class:`~repro.learning.forest.PackedForest`, packed
whenever the models are set.
"""

from __future__ import annotations

import time

import numpy as np

from repro.learning.forest import PackedForest
from repro.learning.mart import BinnedFeatures, MARTParams, MARTRegressor


class EstimatorSelector:
    """One error-regression model per candidate estimator.

    Parameters
    ----------
    estimator_names:
        Names of the candidate estimators, in the column order of the
        error matrices used for training.
    mart_params:
        Hyper-parameters shared by all per-estimator models; defaults to
        the paper's (200 boosting iterations, 30-leaf trees).
    """

    def __init__(self, estimator_names: list[str],
                 mart_params: MARTParams | None = None):
        if not estimator_names:
            raise ValueError("need at least one candidate estimator")
        self.estimator_names = list(estimator_names)
        self.mart_params = mart_params or MARTParams()
        self.models = {}
        self.training_seconds_: float = 0.0
        #: number of scoring passes made (each pass is one packed-forest
        #: descent over every candidate, whatever the batch size) — the
        #: quantity the batched service amortizes across sessions; see
        #: ``benchmarks/bench_service_throughput.py``.
        self.predict_calls_: int = 0

    @property
    def models(self) -> dict[str, MARTRegressor]:
        """Per-candidate error models; assigning them packs the forest."""
        return self._models

    @models.setter
    def models(self, models: dict[str, MARTRegressor]) -> None:
        self._models = dict(models)
        self._forest = (
            PackedForest([self._models[name]
                          for name in self.estimator_names])
            if self.is_fitted else None)

    @property
    def n_estimators(self) -> int:
        return len(self.estimator_names)

    @property
    def is_fitted(self) -> bool:
        return len(self.models) == len(self.estimator_names)

    def fit(self, X: np.ndarray, errors: np.ndarray) -> "EstimatorSelector":
        """Train the per-estimator error models.

        ``errors`` is ``(n_pipelines, n_estimators)`` with columns in
        ``estimator_names`` order.
        """
        X = np.asarray(X, dtype=np.float64)
        errors = np.asarray(errors, dtype=np.float64)
        if errors.shape != (len(X), self.n_estimators):
            raise ValueError(
                f"errors must be (n, {self.n_estimators}), got {errors.shape}")
        # one binning of X serves every candidate; the first model's
        # fit_seconds_ carries its cost
        started = time.perf_counter()
        binned = BinnedFeatures.of(X, self.mart_params.max_bins)
        binning_seconds = time.perf_counter() - started
        models = {}
        self.training_seconds_ = 0.0
        for j, name in enumerate(self.estimator_names):
            model = MARTRegressor(self.mart_params)
            model.fit(X, errors[:, j], binned)
            if j == 0:
                model.fit_seconds_ += binning_seconds
            models[name] = model
            self.training_seconds_ += model.fit_seconds_
        self.models = models
        return self

    def predict_errors(self, X: np.ndarray) -> np.ndarray:
        """Predicted error of every candidate on every pipeline: one
        binning of ``X`` and one descent of every candidate's trees."""
        if not self.is_fitted:
            raise RuntimeError("selector is not fitted")
        self.predict_calls_ += 1
        return self._forest.predict(X)

    def select_indices(self, X: np.ndarray) -> np.ndarray:
        """Index (into ``estimator_names``) of the chosen estimator per row."""
        return np.argmin(self.predict_errors(X), axis=1)

    def select(self, X: np.ndarray) -> list[str]:
        """Chosen estimator name per pipeline."""
        return [self.estimator_names[i] for i in self.select_indices(X)]

    def select_one(self, x: np.ndarray) -> str:
        """Convenience: selection for a single feature vector."""
        return self.select(np.atleast_2d(x))[0]
