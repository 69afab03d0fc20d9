"""BATCHDNE: DNE with batch sorts among the driver nodes (paper §5.1, eq. 6).

Partial batch sorts below nested iterations block tuple flow: the true
driver nodes can finish long before the pipeline does, so DNE saturates at
100% early (Figure 6).  Including the BATCH_SORT nodes in the driver set —
whose GetNext counts lag the raw drivers by the batched amount — restores a
usable signal for those plans.
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


class BatchDNEEstimator(ProgressEstimator):
    name = "batch_dne"

    def estimate(self, pr: PipelineRun) -> np.ndarray:
        extra = pr.node_mask(Op.BATCH_SORT)
        consumed, total = driver_consumed(pr, extra_mask=extra)
        return clip_progress(safe_divide(consumed, total))
