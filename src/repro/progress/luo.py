"""The Bytes-Processed / speed estimator of Luo et al. [13] (LUO).

Luo's model measures *bytes processed* per segment — bytes read at the
dominant (driver) inputs plus bytes written at the segment output (spills
included) — and converts the remainder into time by dividing through the
processing speed observed over the last ``T`` seconds (the paper uses
T = 10).  We report it as a progress fraction the way the paper compares
estimators:

``progress(t) = elapsed / (elapsed + remaining_bytes / speed(t))``

Remaining bytes use the interpolation refinement of §3.3 applied to the
byte totals (eq. 2 with α = fraction of driver input consumed).
"""

from __future__ import annotations

import numpy as np

from repro.engine.run import PipelineRun
from repro.progress.base import ProgressEstimator, clip_progress

#: trailing window (simulated seconds) over which speed is measured
DEFAULT_SPEED_WINDOW = 10.0


def bytes_done(pr: PipelineRun) -> np.ndarray:
    """Bytes processed so far: driver input bytes + bytes written."""
    driver_bytes = (pr.K[:, pr.driver_mask]
                    * pr.widths[pr.driver_mask]).sum(axis=1)
    written = pr.W.sum(axis=1)
    return driver_bytes + written


def bytes_total_estimate(pr: PipelineRun) -> np.ndarray:
    """Refined total-bytes estimate per observation (interpolated)."""
    totals = pr.known_totals()
    base = float((totals[pr.driver_mask] * pr.widths[pr.driver_mask]).sum()
                 + pr.materialized_bytes_est)
    done = bytes_done(pr)
    alpha = pr.driver_fraction()
    extrapolated = np.where(alpha > 1e-9, done / np.maximum(alpha, 1e-9), base)
    refined = alpha * extrapolated + (1.0 - alpha) * base
    return np.maximum(refined, done)


class LuoEstimator(ProgressEstimator):
    name = "luo"

    def __init__(self, speed_window: float = DEFAULT_SPEED_WINDOW):
        self.speed_window = speed_window

    def estimate(self, pr: PipelineRun) -> np.ndarray:
        done = bytes_done(pr)
        total = bytes_total_estimate(pr)
        elapsed = pr.times - pr.t_start
        out = np.zeros(pr.n_observations)
        window_start = 0
        for t in range(pr.n_observations):
            if elapsed[t] <= 0:
                continue
            # Advance the trailing window to cover the last `speed_window`
            # seconds (causal: only indices <= t are consulted).
            while (window_start < t
                   and elapsed[t] - elapsed[window_start] > self.speed_window):
                window_start += 1
            dt = elapsed[t] - elapsed[window_start]
            db = done[t] - done[window_start]
            if dt > 0 and db > 0:
                speed = db / dt
            elif elapsed[t] > 0 and done[t] > 0:
                speed = done[t] / elapsed[t]  # fall back to lifetime speed
            else:
                speed = 0.0
            remaining = max(total[t] - done[t], 0.0)
            if speed <= 0:
                out[t] = 0.0 if remaining > 0 else 1.0
                continue
            # Python floats: a near-zero speed overflows to inf without a
            # warning, and elapsed / inf is the defined 0.0
            remaining_time = float(remaining) / float(speed)
            out[t] = elapsed[t] / (elapsed[t] + remaining_time)
        return clip_progress(out)
