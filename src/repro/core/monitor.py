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
(:class:`~repro.service.batched.VectorizedFlush`) rebuilds each due
report's causal :class:`ReportDraft` from those rows, extracts the
features of every selection opening in one
:meth:`~repro.features.vector.FeatureExtractor.extract` call per selector
kind, scores them in one batched pass, evaluates each chosen estimator's
structure-of-arrays kernel (:mod:`repro.progress.soa`) at the report rows
of every live pipeline, and hands the values to
:meth:`ProgressMonitor.finalize`, which commits selections and assembles
the report.  A tick costs O(active nodes), independent of how long the
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

#: selector kinds a draft may reference
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
    """Per-query selection state: sticky selector choices, the openings
    still queued and the ΣE weights."""

    static_choices: dict[int, str] = field(default_factory=dict)
    dynamic_choices: dict[int, str] = field(default_factory=dict)
    choices: dict[int, str] = field(default_factory=dict)
    #: (pid, kind) pairs whose selection already opened in a queued
    #: draft — suppresses a second opening until the choice commits
    requested: set[tuple[int, str]] = field(default_factory=set)
    #: per-pipeline ΣE weights (eq. 5), fixed once the plan is finalized
    weights: dict[int, float] | None = None


@dataclass
class PipeSnapshot:
    """Causal capture of one pipeline at one observation.

    Carries no counters: the flush evaluates the pipeline's kernel on
    the log rows themselves.
    """

    pid: int
    weight: float
    status: str  # "unstarted" | "done" | "short" | "running"
    kind: str | None = None  # selector kind applying at this tick


@dataclass
class ReportDraft:
    """Everything needed to produce one report, captured causally."""

    time: float
    pipes: list[PipeSnapshot]


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
        between refreshes are cheap to interpolate but we simply skip).
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
        self.refresh_every = max(1, refresh_every)
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
        return ProgressService(
            self, slice_steps=SOLO_SLICE_STEPS,
            on_report=None if hook is None
            else lambda _session, report: hook(report))

    # -- selection bookkeeping (called by the flush) --------------------------

    def _selection_needs(self, pid: int, state: MonitorState,
                         fraction) -> tuple[str, bool]:
        """Selector kind applying now, and whether its selection opens.

        Static choice at pipeline start, revised once at the 20% marker
        (§4.4).  ``fraction()`` (the current driver fraction) is only
        consulted while the dynamic revision is still ahead — the
        fraction is monotone on executed trajectories, so a pipeline past
        the marker stays past it.  A kind opens at most once per
        pipeline: once its sticky choice is committed (or its opening is
        already queued), later snapshots report none.  Nothing is
        extracted here: the flush collects every opening of a round and
        extracts each selector kind's features in one call.
        """
        if self.dynamic_selector is not None:
            if (pid in state.dynamic_choices
                    or (pid, DYNAMIC) in state.requested):
                return DYNAMIC, False
            if fraction() >= DYNAMIC_FRACTION:
                state.requested.add((pid, DYNAMIC))
                return DYNAMIC, True
        if (self.static_selector is None or pid in state.static_choices
                or (pid, STATIC) in state.requested):
            return STATIC, False
        state.requested.add((pid, STATIC))
        return STATIC, True

    # -- finalization ---------------------------------------------------------

    def finalize(self, draft: ReportDraft, state: MonitorState,
                 values: dict[int, float]) -> ProgressReport:
        """Turn a draft into a report, committing selections into ``state``.

        ``values`` maps each running pipeline to its chosen estimator's
        kernel value at the draft's row, advanced by the flush for all
        sessions at once; the flush also resolved every open selection
        into ``state`` in one batched scoring pass.  Drafts must be
        finalized in capture order.
        """
        overall = 0.0
        pipeline_progress: dict[int, float] = {}
        active_pid, active_name = -1, None
        for snap in draft.pipes:
            pid = snap.pid
            if snap.status in ("unstarted", "short"):
                pipeline_progress[pid] = 0.0
                continue
            if snap.status == "done":
                pipeline_progress[pid] = 1.0
                overall += snap.weight
                continue
            name = self._chosen(snap, state)
            state.choices[pid] = name
            value = values[pid]
            pipeline_progress[pid] = value
            overall += snap.weight * value
            if pid > active_pid:
                active_pid, active_name = pid, name
        return ProgressReport(
            time=draft.time,
            progress=float(min(overall, 1.0)),
            active_pid=active_pid,
            active_estimator=active_name,
            pipeline_progress=pipeline_progress,
            pipeline_estimator=dict(state.choices),
        )

    def _chosen(self, snap: PipeSnapshot, state: MonitorState) -> str:
        """The estimator a running snapshot reports with; its selection
        is already resolved into ``state`` (or falls back)."""
        if snap.kind == DYNAMIC:
            return state.dynamic_choices[snap.pid]
        if self.static_selector is None:
            return self.fallback
        return state.static_choices[snap.pid]

