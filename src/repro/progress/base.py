"""Estimator interface and shared helpers."""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.engine.run import PipelineRun


class ProgressEstimator(ABC):
    """A progress estimator over one pipeline's counter trajectories.

    Subclasses implement :meth:`estimate`, returning the estimated progress
    (in ``[0, 1]``) at every observation of the pipeline.  Estimates must be
    causal — the value at index ``t`` may only use counters at indices
    ``<= t`` — so a prefix of the trajectory yields the online value.

    ``estimate`` is the definition: training errors, evaluation and every
    test reference score through it.  Online monitoring and the dynamic
    selection features run a structure-of-arrays kernel that reproduces
    it bit-for-bit (:mod:`repro.progress.soa`); only the estimator classes
    shipped with one can be monitored, and a
    :class:`~repro.core.monitor.ProgressMonitor` over any other pool
    member refuses construction.
    """

    #: short identifier used in reports, feature names and the registry
    name: str = "base"

    @abstractmethod
    def estimate(self, pr: PipelineRun) -> np.ndarray:
        """Estimated progress per observation, clipped to ``[0, 1]``."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name})"


def clip_progress(values: np.ndarray) -> np.ndarray:
    """Clamp raw estimates into the reportable progress range."""
    return np.clip(values, 0.0, 1.0)


def safe_divide(num: np.ndarray, denom: np.ndarray | float) -> np.ndarray:
    """Elementwise division that maps x/0 to 0 (pipelines yet to start)."""
    denom_arr = np.asarray(denom, dtype=np.float64)
    num_arr = np.asarray(num, dtype=np.float64)
    out = np.zeros(np.broadcast(num_arr, denom_arr).shape)
    np.divide(num_arr, denom_arr, out=out, where=denom_arr > 0)
    return out


def driver_consumed(pr: PipelineRun, extra_mask: np.ndarray | None = None
                    ) -> tuple[np.ndarray, float]:
    """Numerator/denominator of driver-style estimators.

    Returns ``(sum of K over driver nodes per observation, sum of totals)``.
    ``extra_mask`` widens the driver set (BATCHDNE / DNESEEK variants).
    """
    mask = pr.driver_mask.copy()
    if extra_mask is not None:
        mask |= extra_mask
    totals = pr.known_totals()
    denom = float(totals[mask].sum())
    consumed = pr.K[:, mask].sum(axis=1)
    return consumed, denom
