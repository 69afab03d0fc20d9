"""The worst-case estimators PMAX and SAFE of Chaudhuri et al. [5].

The paper evaluates both and rules them out for practice (§6.2: PMAX
L1 ≈ 0.50, SAFE L1 ≈ 0.40 — more than twice the worst conventional
estimator) while noting their theoretical guarantees on the *ratio* error.
[5] gives constructions rather than closed forms; we reconstruct them from
the stated guarantees (documented substitution, see DESIGN.md):

* **PMAX** is the maximally *pessimistic* estimator: it assumes every node
  may still produce work up to its online upper bound, i.e. progress =
  ΣK_i / ΣUB_i — the low end of the feasible progress interval.  Its ratio
  error is bounded by how loose the bounds are (the μ factor of [5]), and
  like the paper's PMAX it underestimates progress drastically in practice.
* **SAFE** is worst-case optimal with respect to the ratio error.  The
  minimax choice inside the feasible progress interval ``[lo, hi]`` (from
  the engine's bounds on ΣN_i) is the geometric mean ``sqrt(lo · hi)``,
  which equalizes the worst-case ratio toward both ends.
"""

from __future__ import annotations

import numpy as np

from repro.engine.run import PipelineRun
from repro.progress.base import (
    ProgressEstimator,
    clip_progress,
    safe_divide,
)


class PMaxEstimator(ProgressEstimator):
    name = "pmax"

    def estimate(self, pr: PipelineRun) -> np.ndarray:
        work = pr.K.sum(axis=1)
        max_work = pr.UB.sum(axis=1)
        return clip_progress(safe_divide(work, np.maximum(max_work, 1e-12)))


class SafeEstimator(ProgressEstimator):
    name = "safe"

    def estimate(self, pr: PipelineRun) -> np.ndarray:
        k_sum = pr.K.sum(axis=1)
        ub_sum = pr.UB.sum(axis=1)
        lb_sum = np.maximum(pr.LB.sum(axis=1), k_sum)
        lo = safe_divide(k_sum, np.maximum(ub_sum, 1e-12))
        hi = safe_divide(k_sum, np.maximum(lb_sum, 1e-12))
        return clip_progress(np.sqrt(np.maximum(lo, 0.0) * np.maximum(hi, 0.0)))
