"""The DriverNode estimator (DNE) of Chaudhuri et al. [6], eq. (4).

Progress of a pipeline is the fraction of the driver-node input consumed:
``DNE = Σ_{i∈DNodes} K_i / Σ_{i∈DNodes} E_i``.  Robust to cardinality
errors above the drivers (the denominator is usually known exactly), but
blind to variance in the per-tuple work the drivers trigger downstream —
the weakness that motivates estimator selection.
"""

from __future__ import annotations

import numpy as np

from repro.engine.run import PipelineRun
from repro.progress.base import ProgressEstimator


class DNEEstimator(ProgressEstimator):
    name = "dne"

    def estimate(self, pr: PipelineRun) -> np.ndarray:
        return pr.driver_fraction()
