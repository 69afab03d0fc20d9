"""TGNINT: TGN with cardinality interpolation (paper §5.2, eq. 8).

Adopts the refinement strategy of [13] inside the Total-GetNext estimator:

``TGNINT = ΣK_i / (ΣK_i + (1 - DNE) · ΣE_i)``

As the pipeline's dominant input is consumed (DNE -> 1), the denominator
collapses to the work already observed, letting the estimator recover from
cardinality errors late in the pipeline — the behaviour Figure 7 rewards.
"""

from __future__ import annotations

import numpy as np

from repro.engine.run import PipelineRun
from repro.progress.base import (
    ProgressEstimator,
    clip_progress,
    safe_divide,
)
from repro.progress.dne import DNEEstimator


class TGNIntEstimator(ProgressEstimator):
    name = "tgn_int"

    def __init__(self) -> None:
        self._dne = DNEEstimator()

    def estimate(self, pr: PipelineRun) -> np.ndarray:
        k_sum = pr.K.sum(axis=1)
        e_sum = float(pr.E0.sum())
        dne = self._dne.estimate(pr)
        denom = k_sum + (1.0 - dne) * e_sum
        return clip_progress(safe_divide(k_sum, np.maximum(denom, 1e-12)))
