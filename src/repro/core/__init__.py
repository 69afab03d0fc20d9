"""The paper's contribution: statistical estimator selection (§4).

* :mod:`repro.core.selection` — per-estimator MART error regressors; at
  selection time the estimator with the smallest *predicted* error wins.
* :mod:`repro.core.training` — turning executed workloads into training
  matrices (features × per-estimator errors) at pipeline granularity.
* :mod:`repro.core.evaluate` — the paper's §6 quality metrics: %-optimal
  under the tolerance rules, error-ratio tails, average L1/L2 including
  the "oracle" lower bound.
* :mod:`repro.core.monitor` — the deployable API: an online progress
  monitor that attaches to an executing query, selects estimators per
  pipeline (statically at pipeline start, revised from dynamic features at
  20% of the driver input) and reports overall query progress (eq. 5).
"""

from repro.core.evaluate import SelectionEvaluation, evaluate_selection
from repro.core.monitor import (
    MonitorState,
    ProgressMonitor,
    ProgressReport,
)
from repro.core.selection import EstimatorSelector
from repro.core.training import (
    TrainingData,
    collect_training_data,
    runs_to_pipelines,
    train_selector,
)

__all__ = [
    "EstimatorSelector",
    "TrainingData",
    "collect_training_data",
    "runs_to_pipelines",
    "train_selector",
    "SelectionEvaluation",
    "evaluate_selection",
    "ProgressMonitor",
    "ProgressReport",
    "MonitorState",
]
