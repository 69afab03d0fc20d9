"""Extension estimator: TGN over per-node interpolated estimates (§7).

The paper's outlook singles out "the study of better online cardinality
refinement" as the most promising direction, given how close the
idealized GetNext model (§6.7) gets with perfect cardinalities.  This
estimator pushes the Luo-style interpolation of §3.3 *into every node's
estimate* (rather than TGNINT's aggregate shortcut, eq. 8):

``TGNREF = Σ K_i / Σ Ē_i(t)``  with  ``Ē_i(t) = α·(K_i/α) + (1-α)·E_i``
clamped into the online bounds ``[LB_i, UB_i]``.

It is registered as an *extension* (not part of the paper's §6 pools) and
evaluated in ``benchmarks/bench_refinement_study.py``.
"""

from __future__ import annotations

import numpy as np

from repro.engine.run import PipelineRun
from repro.progress.base import (
    ProgressEstimator,
    clip_progress,
    safe_divide,
)
from repro.progress.refine import interpolated_estimates


class RefinedTGNEstimator(ProgressEstimator):
    name = "tgn_ref"

    def estimate(self, pr: PipelineRun) -> np.ndarray:
        refined = np.clip(interpolated_estimates(pr), pr.LB, pr.UB)
        done = pr.K.sum(axis=1)
        totals = refined.sum(axis=1)
        return clip_progress(safe_divide(done, np.maximum(totals, 1e-12)))
