"""DNESEEK: DNE with index seeks among the driver nodes (paper §5.1.1, eq. 7).

Skewed inner-side distributions make the per-outer-tuple work of nested
iterations vary wildly; adding the INDEX_SEEK nodes (whose totals are the
optimizer's join-size estimates) to the driver set lets the estimator see
that work directly — at the price of inheriting the seek cardinality
estimate in the denominator.
"""

from __future__ import annotations

import numpy as np

from repro.engine.run import PipelineRun
from repro.plan.nodes import Op
from repro.progress.base import (
    ProgressEstimator,
    clip_progress,
    driver_consumed,
    safe_divide,
)


class DNESeekEstimator(ProgressEstimator):
    name = "dne_seek"

    def estimate(self, pr: PipelineRun) -> np.ndarray:
        extra = pr.node_mask(Op.INDEX_SEEK)
        consumed, total = driver_consumed(pr, extra_mask=extra)
        return clip_progress(safe_divide(consumed, total))
