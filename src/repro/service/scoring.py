"""Batched estimator-selection scoring across sessions.

This is the service's key speed win over per-query monitoring: instead of
one :meth:`EstimatorSelector.predict_errors` pass per pipeline with an
open selection (what monitoring each query on its own would cost), the
scorer collects the
feature vectors of every pending selection across *all* live sessions and
issues a single scoring pass per selector kind per tick.  A pass scores
the selector's packed forest (:class:`~repro.learning.forest.PackedForest`):
the stacked feature matrix is binned once and every tree of every
candidate descends together, one vectorized gather step per depth level,
whatever the batch size — so with S sessions needing selection in the
same tick the service makes S× fewer scoring passes.

Batching is bit-transparent: MART scoring is row-independent (quantile
binning and tree descent are per-row), so the argmin choice for a feature
vector is identical whether it is scored alone or stacked with others.
The service's report-equivalence test locks this in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.monitor import DYNAMIC, STATIC
from repro.core.selection import EstimatorSelector


@dataclass
class ScoringStats:
    """Work accounting for one scorer (cumulative across ticks)."""

    batches: int = 0        # predict_errors passes issued
    rows: int = 0           # feature vectors scored

    @property
    def rows_per_batch(self) -> float:
        return self.rows / self.batches if self.batches else 0.0


class BatchedSelectorScorer:
    """Resolves pending selections for many sessions in one pass per kind."""

    def __init__(self, static_selector: EstimatorSelector | None,
                 dynamic_selector: EstimatorSelector | None):
        self.selectors = {STATIC: static_selector, DYNAMIC: dynamic_selector}
        self.stats = ScoringStats()

    def resolve(self, requests: list[tuple[str, np.ndarray]]) -> list[str]:
        """Chosen estimator name for each ``(kind, features)`` request.

        Requests of the same kind are stacked into one matrix and scored
        with a single :meth:`EstimatorSelector.select` call; results come
        back in request order.
        """
        results: list[str | None] = [None] * len(requests)
        for kind in (STATIC, DYNAMIC):
            idx = [i for i, (k, _) in enumerate(requests) if k == kind]
            if not idx:
                continue
            selector = self.selectors[kind]
            if selector is None:
                raise RuntimeError(
                    f"a session needs a {kind} selection but the service "
                    f"has no {kind} selector")
            X = np.vstack([requests[i][1] for i in idx])
            names = selector.select(X)
            for i, name in zip(idx, names):
                results[i] = name
            self.stats.batches += 1
            self.stats.rows += len(idx)
        return results  # type: ignore[return-value]
