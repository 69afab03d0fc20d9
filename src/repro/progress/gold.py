"""Idealized models with oracle knowledge (paper §6.7).

These are not deployable estimators — they use totals only known *after*
the query finishes — but they validate the two theoretical models of
progress: if the GetNext model with true ``N_i`` tracks time closely
(paper: L1 ≈ 0.062), the model is a sound basis; the Bytes-Processed model
with true byte totals is measurably worse (paper: L1 ≈ 0.12).
"""

from __future__ import annotations

import numpy as np

from repro.engine.run import PipelineRun
from repro.progress.base import (
    ProgressEstimator,
    clip_progress,
    safe_divide,
)
from repro.progress.luo import bytes_done


class GetNextOracle(ProgressEstimator):
    """TGN with the true totals ``N_i`` substituted for the estimates."""

    name = "getnext_oracle"

    def estimate(self, pr: PipelineRun) -> np.ndarray:
        total = float(pr.N.sum())
        return clip_progress(safe_divide(pr.K.sum(axis=1), max(total, 1e-12)))


class BytesProcessedOracle(ProgressEstimator):
    """Luo's bytes model with the true total bytes substituted.

    The denominator is only known once the run completes, so this model
    is offline validation only: it has no SoA kernel and
    :class:`~repro.core.monitor.ProgressMonitor` refuses it (as it does
    :class:`GetNextOracle`).
    """

    name = "bytes_oracle"

    def estimate(self, pr: PipelineRun) -> np.ndarray:
        done = bytes_done(pr)
        total = float(done[-1]) if len(done) else 0.0
        return clip_progress(safe_divide(done, max(total, 1e-12)))
