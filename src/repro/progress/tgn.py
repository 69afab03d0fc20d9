"""The Total-GetNext estimator (TGN) of [6], eq. (3).

``TGN = Σ_i K_i / Σ_i E_i`` over all nodes of the pipeline, with the
``E_i`` refined online by the worst-case bounds of §3.3.  TGN accounts for
work at intermediate nodes but inherits every cardinality-estimation error
in the denominator — the paper's §4.4.1 derives its error as a weighted
function of ``N_i - E_i``.
"""

from __future__ import annotations

import numpy as np

from repro.engine.run import PipelineRun
from repro.progress.base import (
    ProgressEstimator,
    clip_progress,
    safe_divide,
)
from repro.progress.refine import bounded_estimates


class TGNEstimator(ProgressEstimator):
    name = "tgn"

    def estimate(self, pr: PipelineRun) -> np.ndarray:
        done = pr.K.sum(axis=1)
        totals = bounded_estimates(pr).sum(axis=1)
        return clip_progress(safe_divide(done, totals))
