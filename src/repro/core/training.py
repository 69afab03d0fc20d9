"""Building training data from executed workloads.

One training example per scorable pipeline: the feature vector (static or
static+dynamic) and the observed L1/L2 error of every candidate estimator
against the pipeline's time-based true progress.  The paper stresses how
cheap this capture is (§6.4): all estimators share the same counters, so
tracking all of them costs no more than tracking one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.selection import EstimatorSelector
from repro.engine.run import PipelineRun, QueryRun
from repro.features.vector import FeatureExtractor
from repro.learning.mart import MARTParams
from repro.progress.base import ProgressEstimator
from repro.progress.metrics import l1_error, l2_error
from repro.progress.soa import FlushBatch

#: pipelines per ``extract`` call: rows do not depend on their batch, and a
#: kernel batch holds a few dozen arrays as large as all its observations
_EXTRACT_CHUNK = 128


@dataclass
class TrainingData:
    """Aligned features, errors and metadata for a set of pipelines."""

    X: np.ndarray                     # (n, n_features)
    errors_l1: np.ndarray             # (n, n_estimators)
    errors_l2: np.ndarray             # (n, n_estimators)
    feature_names: list[str]
    estimator_names: list[str]
    meta: list[dict] = field(default_factory=list)  # per-row provenance

    @property
    def n_examples(self) -> int:
        return len(self.X)

    def subset(self, mask: np.ndarray) -> "TrainingData":
        mask = np.asarray(mask)
        if mask.dtype == bool:
            idx = np.flatnonzero(mask)
        else:
            idx = mask
        return TrainingData(
            X=self.X[idx],
            errors_l1=self.errors_l1[idx],
            errors_l2=self.errors_l2[idx],
            feature_names=self.feature_names,
            estimator_names=self.estimator_names,
            meta=[self.meta[i] for i in idx],
        )

    @staticmethod
    def concat(parts: list["TrainingData"]) -> "TrainingData":
        parts = [p for p in parts if p.n_examples > 0]
        if not parts:
            raise ValueError("nothing to concatenate")
        first = parts[0]
        for p in parts[1:]:
            if p.feature_names != first.feature_names:
                raise ValueError("feature layouts disagree")
            if p.estimator_names != first.estimator_names:
                raise ValueError("estimator sets disagree")
        return TrainingData(
            X=np.vstack([p.X for p in parts]),
            errors_l1=np.vstack([p.errors_l1 for p in parts]),
            errors_l2=np.vstack([p.errors_l2 for p in parts]),
            feature_names=first.feature_names,
            estimator_names=first.estimator_names,
            meta=[m for p in parts for m in p.meta],
        )

    def restrict_estimators(self, names: list[str]) -> "TrainingData":
        """Keep only the error columns for ``names`` (e.g. DNE/TGN/LUO)."""
        cols = [self.estimator_names.index(n) for n in names]
        return TrainingData(
            X=self.X,
            errors_l1=self.errors_l1[:, cols],
            errors_l2=self.errors_l2[:, cols],
            feature_names=self.feature_names,
            estimator_names=list(names),
            meta=self.meta,
        )


def runs_to_pipelines(runs: list[QueryRun],
                      min_observations: int = 8) -> list[PipelineRun]:
    """All scorable pipelines across a list of executed queries."""
    out: list[PipelineRun] = []
    for run in runs:
        out.extend(run.pipeline_runs(min_observations=min_observations))
    return out


def collect_training_data(pipeline_runs: list[PipelineRun],
                          estimators: list[ProgressEstimator],
                          extractor: FeatureExtractor) -> TrainingData:
    """Score every estimator on every pipeline and extract features
    (:meth:`FeatureExtractor.extract` over chunks of pipelines)."""
    names = [est.name for est in estimators]
    rows_l1, rows_l2, meta = [], [], []
    for pr in pipeline_runs:
        truth = pr.true_progress()
        trajectories = [est.estimate(pr) for est in estimators]
        rows_l1.append([l1_error(t, truth) for t in trajectories])
        rows_l2.append([l2_error(t, truth) for t in trajectories])
        meta.append({
            "query": pr.query_name,
            "db": pr.db_name,
            "pid": pr.pid,
            "duration": pr.duration,
            "total_getnext": float(pr.N.sum()),
        })
    return TrainingData(
        X=np.vstack([extractor.extract(FlushBatch.of_pipeline_runs(
            pipeline_runs[i:i + _EXTRACT_CHUNK], extractor.speed_window))
            for i in range(0, max(len(pipeline_runs), 1), _EXTRACT_CHUNK)]),
        errors_l1=np.asarray(rows_l1).reshape(len(rows_l1), len(names)),
        errors_l2=np.asarray(rows_l2).reshape(len(rows_l2), len(names)),
        feature_names=extractor.feature_names,
        estimator_names=names,
        meta=meta,
    )


def train_selector(data: TrainingData,
                   mart_params: MARTParams | None = None,
                   metric: str = "l1") -> EstimatorSelector:
    """Fit an :class:`EstimatorSelector` on collected training data."""
    if metric not in ("l1", "l2"):
        raise ValueError(f"metric must be 'l1' or 'l2', got {metric!r}")
    errors = data.errors_l1 if metric == "l1" else data.errors_l2
    selector = EstimatorSelector(data.estimator_names, mart_params)
    selector.fit(data.X, errors)
    return selector
