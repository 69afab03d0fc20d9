"""Online progress monitoring: the deployable face of the paper's system.

A :class:`ProgressMonitor` attaches to a query execution and, at every
``refresh_every``-th observation, produces a :class:`ProgressReport`:

* per pipeline, a progress estimate from the estimator the selection model
  chose — chosen from *static* features when the pipeline starts, revised
  once from *dynamic* features when 20% of the driver input has been
  consumed (the paper's setting, §4.4);
* the overall query progress as the ΣE-weighted combination of pipeline
  estimates (eq. 5).

There is one report path, shared by the solo monitor, trace replay and the
pooled multi-query service (:mod:`repro.service`).  Sessions only note
*which* log rows are due a report; the service's flush
(:class:`~repro.service.batched.VectorizedFlush`) reads each due row's
pipeline status causally from the log, asks the monitor's selection
policy (:meth:`ProgressMonitor.selection_needs`,
:meth:`ProgressMonitor.chosen`) which selector applies and whether it
opens, lays out every opening's causal view from the log and extracts
its features in one
:meth:`~repro.features.vector.FeatureExtractor.extract` call per selector
kind, scores them in one batched pass, evaluates each chosen estimator's
structure-of-arrays kernel (:mod:`repro.progress.soa`) at the report rows
of every live pipeline and assembles each :class:`ProgressReport` from
those values.  A tick costs O(active nodes), independent of how long the
query has run.  :meth:`ProgressMonitor.run` is a one-session service over
a live execution; :func:`~repro.trace.replay.replay_monitor` the same over
a recording.  Either way the flush reads the plan from the context's
preorder :class:`~repro.engine.run.NodeInfo` list — the description a
recorded run carries and training's offline view is built from — so a
pipeline's static fields come from one function,
:func:`~repro.engine.run.pipeline_static`.

Each estimator's batch ``estimate`` on the causal prefix stays the
definition the reports must equal — the fuzz oracle's ``kernel`` layer
checks it report by report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.catalog.table import Database
from repro.core.selection import EstimatorSelector
from repro.engine.executor import ExecutorConfig
from repro.engine.run import QueryRun
from repro.features.vector import DYNAMIC_X_PERCENTS, FeatureExtractor
from repro.plan.nodes import PlanNode
from repro.progress.base import ProgressEstimator
from repro.progress.registry import all_estimators
from repro.progress.soa import kernel_class

#: engine steps (or replayed observations) per scheduler slice of the
#: one-session service behind :meth:`ProgressMonitor.run` and
#: :func:`~repro.trace.replay.replay_monitor`; reports are identical for
#: any slice size, this only sets how many rows one flush advances
SOLO_SLICE_STEPS = 64

#: the selector kinds
STATIC, DYNAMIC = "static", "dynamic"

#: driver fraction at which the dynamic selection opens (§4.4): the last
#: dynamic-feature marker, so every marker the features read is reached
DYNAMIC_FRACTION = DYNAMIC_X_PERCENTS[-1] / 100.0


@dataclass
class ProgressReport:
    """One snapshot of estimated query progress."""

    time: float
    progress: float
    active_pid: int
    active_estimator: str | None
    pipeline_progress: dict[int, float] = field(default_factory=dict)
    pipeline_estimator: dict[int, str] = field(default_factory=dict)


@dataclass
class MonitorState:
    """Per-query selection state: sticky selector choices."""

    static_choices: dict[int, str] = field(default_factory=dict)
    dynamic_choices: dict[int, str] = field(default_factory=dict)
    choices: dict[int, str] = field(default_factory=dict)


class ProgressMonitor:
    """Runs queries under online estimator selection.

    Parameters
    ----------
    static_selector / dynamic_selector:
        Trained :class:`EstimatorSelector` models over static and
        static+dynamic features.  Either may be ``None``: with no selector
        at all the monitor falls back to ``fallback`` (default DNE),
        reproducing a conventional progress bar.
    estimators:
        Candidate pool; must cover the names both selectors emit.  Every
        member needs a structure-of-arrays kernel (the estimator classes
        of :mod:`repro.progress`, matched by exact type); construction
        raises ``ValueError`` naming any member without one.  The pool
        does not shape the features: those are a fixed definition
        (:mod:`repro.features.vector`).
    refresh_every:
        Recompute selections/estimates every k-th observation (estimates
        between refreshes are cheap to interpolate but we simply skip);
        ``ValueError`` below 1.
    on_report:
        Called with each report of :meth:`run` / ``replay_monitor``, in
        order, as each slice of the execution is flushed.
    """

    def __init__(self,
                 static_selector: EstimatorSelector | None = None,
                 dynamic_selector: EstimatorSelector | None = None,
                 estimators: list[ProgressEstimator] | None = None,
                 fallback: str = "dne",
                 refresh_every: int = 5,
                 on_report: Callable[[ProgressReport], None] | None = None):
        self.static_selector = static_selector
        self.dynamic_selector = dynamic_selector
        pool = estimators if estimators is not None else all_estimators()
        for est in pool:
            kernel_class(est)  # online monitoring runs on the kernels only
        self.estimators = {est.name: est for est in pool}
        if fallback not in self.estimators:
            raise ValueError(f"fallback estimator {fallback!r} not in pool")
        self.fallback = fallback
        if refresh_every < 1:
            raise ValueError(f"refresh_every must be >= 1: {refresh_every}")
        self.refresh_every = refresh_every
        self.on_report = on_report
        #: selector kind -> the extractor of its features
        self.extractors = {kind: FeatureExtractor(kind)
                           for kind in (STATIC, DYNAMIC)}

    # -- public API -----------------------------------------------------------

    def run(self, db: Database, plan: PlanNode, query_name: str = "query",
            config: ExecutorConfig | None = None
            ) -> tuple[QueryRun, list[ProgressReport]]:
        """Execute ``plan`` and monitor it; returns the run and the reports."""
        service = self.solo_service()
        sid = service.submit(db, plan, query_name=query_name, config=config)
        return service.run_until_complete()[sid]

    def solo_service(self):
        """A one-session :class:`~repro.service.service.ProgressService`
        driving this monitor, with ``on_report`` wired through."""
        # lazy: the service layer imports this module
        from repro.service.service import ProgressService

        hook = self.on_report

        def on_block(block):
            for _, report in block:
                hook(report)

        return ProgressService(self, slice_steps=SOLO_SLICE_STEPS,
                               on_block=None if hook is None else on_block)

    # -- selection policy (called by the flush) ------------------------------

    def selection_needs(self, pid: int, state: MonitorState,
                        fractions: np.ndarray) -> tuple[int, bool, bool]:
        """How one running pipeline's due rows of a flush select.

        ``fractions`` is the driver fraction at each row, read off the
        flush's report batch.  Returns ``(split, static_opens,
        dynamic_opens)``: the rows before ``split`` report under the
        static selector kind and the rest under the dynamic one; the
        static selection opens at the first row, the dynamic one at row
        ``split``.  Static choice at pipeline start, revised once at the
        20% marker (§4.4): the dynamic kind takes over at the first row
        whose driver fraction reaches :data:`DYNAMIC_FRACTION`.  A kind
        opens at most once per pipeline: once its sticky choice is
        committed, later flushes report none.  Nothing is extracted here:
        the flush collects every opening of a round and extracts each
        selector kind's features in one call.
        """
        split = rows = len(fractions)
        if self.dynamic_selector is not None:
            if pid in state.dynamic_choices:
                return 0, False, False
            hit = np.flatnonzero(fractions >= DYNAMIC_FRACTION)
            if len(hit):
                split = int(hit[0])
        static_opens = (split > 0 and self.static_selector is not None
                        and pid not in state.static_choices)
        return split, static_opens, split < rows

    def chosen(self, pid: int, kind: str, state: MonitorState) -> str:
        """The estimator a running pipeline reports with under selector
        ``kind``; its selection is already resolved into ``state`` (or
        falls back)."""
        if kind == DYNAMIC:
            return state.dynamic_choices[pid]
        if self.static_selector is None:
            return self.fallback
        return state.static_choices[pid]
