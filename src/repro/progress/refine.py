"""Online cardinality refinement (paper §3.3).

Two refinement strategies from the literature:

* :func:`bounded_estimates` — [6]: clamp the optimizer estimate ``E_i`` into
  the worst-case bounds ``[LB_i, UB_i]`` maintained by the engine; if the
  estimate ever falls outside, it snaps to the nearest boundary.
* :func:`interpolated_estimates` — [13]: measure the fraction α of the
  dominant (driver) input consumed (eq. 1), extrapolate each node's total as
  ``K_l / α``, and blend ``E_l^new = α · (K_l/α) + (1-α) · E_l`` (eq. 2),
  reflecting growing confidence in the extrapolation as α -> 1.
"""

from __future__ import annotations

import numpy as np

from repro.engine.run import PipelineRun
from repro.progress.base import safe_divide


def bounded_estimates(pr: PipelineRun) -> np.ndarray:
    """``(T, m)`` estimates: ``E_i^0`` clamped into ``[LB_i^t, UB_i^t]``."""
    e0 = np.broadcast_to(pr.E0, pr.K.shape)
    return np.clip(e0, pr.LB, pr.UB)


def interpolated_estimates(pr: PipelineRun) -> np.ndarray:
    """``(T, m)`` estimates refined by Luo-style interpolation (eq. 2)."""
    alpha = pr.driver_fraction()[:, None]      # α of eq. (1), (T, 1)
    extrapolated = safe_divide(pr.K, np.maximum(alpha, 1e-9))
    e0 = np.broadcast_to(pr.E0, pr.K.shape)
    refined = alpha * extrapolated + (1.0 - alpha) * e0
    # Never below what has already been observed.
    return np.maximum(refined, pr.K)
