"""The multi-query progress service.

:class:`ProgressService` is the serving layer the ROADMAP's north star
asks for: it admits many query sessions, interleaves their execution in
round-robin time slices over resumable
:class:`~repro.engine.executor.ExecutionHandle` objects, and produces the
same per-query :class:`~repro.core.monitor.ProgressReport` streams a solo
:class:`~repro.core.monitor.ProgressMonitor` would — bit-identical, which
the service test suite verifies — while scoring estimator selection for
*all* sessions in one batched pass per tick
(:mod:`repro.service.scoring`) and advancing *all* sessions' estimator
kernels in one NumPy pass per estimator kind per tick
(:mod:`repro.service.batched`).  The solo monitor is this service with
one session.

A tick is one scheduler round:

1. admission — pending sessions are started while live slots are free;
2. execution — every live session runs for ``slice_steps`` engine steps;
   observation callbacks fire inside the steps and queue the due report
   rows on their session;
3. flush — the due rows' causal drafts are rebuilt, pending estimator
   selections of this round's sessions are deduplicated (first
   observation wins) and scored in one batch per selector kind, the
   kernels advance over every new row, and the drafts are finalized into
   reports in capture order.

The service tracks sessions in three index structures so per-tick cost
scales with *live* sessions, not with every session ever submitted:
``sessions`` (all, for id lookup), ``_pending`` (submitted, not yet
admitted, FIFO) and ``_live`` (admitted and running, submission order).
Completed sessions leave ``_live`` the tick they finish and are never
scanned again.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.catalog.table import Database
from repro.core.monitor import ProgressMonitor, ProgressReport
from repro.engine.clock import CostModel
from repro.engine.executor import ExecutorConfig, QueryExecutor
from repro.engine.run import QueryRun
from repro.plan.nodes import PlanNode
from repro.service.batched import VectorizedFlush
from repro.service.scheduler import RoundRobinScheduler
from repro.service.scoring import BatchedSelectorScorer
from repro.service.session import QuerySession
from repro.trace.replay import ReplayExecutor


@dataclass
class ServiceStats:
    """Cumulative work accounting across ticks.

    Invariants (asserted by the test suite): once the service drains,
    ``sessions_completed == sessions_submitted``; ``ticks``, ``steps``
    and ``reports`` only ever grow; ``sessions_scanned`` grows by the
    number of *live* sessions per tick — flat as completed sessions
    accumulate, which is the regression guard for the session indices.
    """

    ticks: int = 0
    steps: int = 0
    reports: int = 0
    sessions_submitted: int = 0
    sessions_completed: int = 0
    #: sum over ticks of live sessions scanned that tick
    sessions_scanned: int = 0

    @property
    def reports_per_tick(self) -> float:
        # guard the zero-tick divide: a merged roll-up may legitimately
        # cover shards that never ticked (admitted nothing yet)
        return self.reports / self.ticks if self.ticks else 0.0

    @classmethod
    def merge(cls, parts: "Iterable[ServiceStats]") -> "ServiceStats":
        """Fleet roll-up: the component-wise sum of per-shard stats.

        Session-level counters (submitted / completed / steps / reports)
        are additive across disjoint session sets, so the merge of shard
        stats equals the stats of serving the concatenated set — the
        Hypothesis property in ``tests/test_service_stats.py``.  ``ticks``
        and ``sessions_scanned`` sum too, but count per-shard scheduler
        rounds: shards tick concurrently, so the merged ``ticks`` is
        total rounds *worked*, not wall-clock rounds.
        """
        total = cls()
        for part in parts:
            total.ticks += part.ticks
            total.steps += part.steps
            total.reports += part.reports
            total.sessions_submitted += part.sessions_submitted
            total.sessions_completed += part.sessions_completed
            total.sessions_scanned += part.sessions_scanned
        return total


class ProgressService:
    """Monitors many concurrently executing queries.

    Parameters
    ----------
    monitor:
        The (stateless-per-query) :class:`ProgressMonitor` providing the
        selection policy, estimator pool and report logic shared by all
        sessions.  Its ``on_report`` hook is ignored here — use the
        service-level ``on_report``.
    slice_steps:
        Engine steps each live session gets per tick.
    max_live:
        Admission-control bound on concurrently executing sessions;
        ``None`` means unbounded.
    on_report:
        Called as ``on_report(session, report)`` for every finalized
        report, in per-session capture order.
    on_complete:
        Called as ``on_complete(session)`` once per session, on the tick
        it finishes — strictly *after* its final reports flushed, so the
        hook may release the session (the sharded service frees its
        memory-budget share and drops heavy state here).
    """

    def __init__(self, monitor: ProgressMonitor, slice_steps: int = 8,
                 max_live: int | None = None,
                 on_report: Callable[[QuerySession, ProgressReport], None]
                 | None = None,
                 on_complete: Callable[[QuerySession], None] | None = None):
        self.monitor = monitor
        self.scheduler = RoundRobinScheduler(slice_steps)
        self.scorer = BatchedSelectorScorer(monitor.static_selector,
                                            monitor.dynamic_selector)
        if max_live is not None and max_live <= 0:
            raise ValueError("max_live must be positive (or None)")
        self.max_live = max_live
        self.on_report = on_report
        self.on_complete = on_complete
        self.sessions: list[QuerySession] = []
        self._pending: deque[QuerySession] = deque()
        self._live: list[QuerySession] = []
        self._live_set: set[int] = set()
        self._vector = VectorizedFlush(monitor)
        self.stats = ServiceStats()

    # -- submission ----------------------------------------------------------

    def submit(self, db: Database, plan: PlanNode, query_name: str = "query",
               config: ExecutorConfig | None = None,
               cost_model: CostModel | None = None) -> int:
        """Register a query for execution; returns its session id."""
        executor = QueryExecutor(db, config=config, cost_model=cost_model)
        session = QuerySession(len(self.sessions), executor, plan,
                               query_name, self.monitor)
        self.sessions.append(session)
        self._pending.append(session)
        self.stats.sessions_submitted += 1
        return session.session_id

    def submit_replay(self, run: QueryRun,
                      query_name: str | None = None) -> int:
        """Register a *recorded* query for replay; returns its session id.

        The session is scheduled, monitored and reported exactly like a
        live one — each step replays one recorded observation instead of
        one unit of engine work — so throughput experiments can run the
        full service stack against recorded workloads (e.g. traces loaded
        via :mod:`repro.trace`) without paying engine cost.  Report
        streams are bit-identical to monitoring the original execution.
        """
        executor = ReplayExecutor(run)
        session = QuerySession(len(self.sessions), executor, None,
                               query_name or run.query_name, self.monitor)
        self.sessions.append(session)
        self._pending.append(session)
        self.stats.sessions_submitted += 1
        return session.session_id

    def session(self, session_id: int) -> QuerySession:
        return self.sessions[session_id]

    # -- driving -------------------------------------------------------------

    @property
    def active(self) -> bool:
        """True while any session still has work to do."""
        return bool(self._pending or self._live)

    def tick(self) -> bool:
        """One scheduler round (admission, slices, batched flush).

        Returns True while work remains.
        """
        self._admit()
        round_sessions = self.scheduler.plan_round(self._live)
        self.stats.sessions_scanned += len(self._live)
        for session in round_sessions:
            used = self.scheduler.run_slice(session)
            self.stats.steps += used
            if session.done:
                self._retire(session)
        if round_sessions:
            self.stats.ticks += 1
        self._flush(round_sessions)
        # slots are freed only after the retiring sessions' final reports
        # have flushed through them
        for session in round_sessions:
            if session.done:
                self._vector.release_session(session)
        if self.on_complete is not None:
            # fires after the flush (and kernel slot release): the session's
            # final reports are already emitted, so the hook may drain it
            for session in round_sessions:
                if session.done:
                    self.on_complete(session)
        return self.active

    def run_until_complete(self, max_ticks: int | None = None
                           ) -> dict[int, tuple[QueryRun, list[ProgressReport]]]:
        """Drive all sessions to completion; per-session (run, reports)."""
        ticks = 0
        while self.tick():
            ticks += 1
            if max_ticks is not None and ticks >= max_ticks:
                raise RuntimeError(
                    f"service did not drain within {max_ticks} ticks")
        return {s.session_id: (s.result, s.reports)
                for s in self.sessions if s.done and not s.released}

    def release_session(self, session_id: int) -> None:
        """Drain hook: drop a completed session's heavy state.

        After its reports have been consumed (shipped over the wire by
        the sharded service, or simply read), the session keeps only a
        tombstone — status, id, counters — so a long-lived service's
        memory tracks *live* sessions, not every session ever served.
        Released sessions are excluded from :meth:`run_until_complete`
        results.  Idempotent; refuses sessions that are still running.
        """
        self.sessions[session_id].release()

    # -- internals -----------------------------------------------------------

    def _admit(self) -> None:
        while self._pending:
            if self.max_live is not None and len(self._live) >= self.max_live:
                break
            session = self._pending.popleft()
            session.start()
            self._live.append(session)
            self._live_set.add(session.session_id)

    def _retire(self, session: QuerySession) -> None:
        """Move a finished session out of the live index, exactly once."""
        if session.session_id in self._live_set:
            self._live_set.discard(session.session_id)
            self._live.remove(session)
            self.stats.sessions_completed += 1

    def _flush(self, round_sessions: list[QuerySession]) -> None:
        """Produce every report due in this round's sessions.

        Only this round's sessions can hold unflushed rows (every flush
        drains completely), so the scan is bounded by the round — not by
        the total ever submitted.  Sessions are flushed in submission
        order, undoing the scheduler's rotation, so report emission order
        does not depend on the rotation.
        """
        drafted = sorted((s for s in round_sessions if s.pending_reports),
                         key=lambda s: s.session_id)
        if drafted:
            self._vector.flush(drafted, self.scorer, self.stats,
                               self.on_report)
