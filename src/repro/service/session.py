"""One live query inside the progress service.

A :class:`QuerySession` bundles everything the service tracks per query:
the resumable :class:`~repro.engine.executor.ExecutionHandle`, the
per-query :class:`~repro.core.monitor.MonitorState` (sticky estimator
choices + tick counter), the observation rows due a report, and the
finalized :class:`~repro.core.monitor.ProgressReport` stream.

Sessions are passive: the :class:`~repro.service.service.ProgressService`
steps their handles and its flush turns their due rows into reports.
The observation callback only records which log row is due
(``pending_reports``), the same way for live executions and replayed
recordings; the flush rebuilds each report draft from the log as of that
row and the context's write-once ``pipe_first_row`` vector (a pipeline
has started at row ``R`` iff ``pipe_first_row[pid] <= R``).  Handles
that can skip ahead (replay) additionally support *bulk* stepping: a
whole time slice advances in one seek, with the due report rows derived
arithmetically, skipping per-observation callbacks entirely.
"""

from __future__ import annotations

import enum

from repro.core.monitor import MonitorState, ProgressMonitor, ProgressReport
from repro.engine.executor import ExecutionHandle, QueryExecutor
from repro.engine.run import QueryRun


class SessionStatus(enum.Enum):
    PENDING = "pending"    # submitted, waiting for a live slot
    RUNNING = "running"
    DONE = "done"


class QuerySession:
    """State of one monitored query managed by the service.

    ``executor`` is either a live :class:`QueryExecutor` or a
    :class:`~repro.trace.replay.ReplayExecutor` over a recorded run — the
    session only relies on the shared ``begin()`` / ``on_observation``
    surface, so live and replayed queries are scheduled identically.
    """

    def __init__(self, session_id: int, executor: "QueryExecutor | object",
                 plan, query_name: str, monitor: ProgressMonitor):
        self.session_id = session_id
        self.query_name = query_name
        self.status = SessionStatus.PENDING
        self.state = MonitorState()
        self.reports: list[ProgressReport] = []
        #: observation-log row index per due report
        self.pending_reports: list[int] = []
        self.steps = 0
        self.released = False
        self._monitor = monitor
        self._executor = executor
        self._plan = plan
        self._handle: ExecutionHandle | None = None

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Create the execution handle (runs the t=0 observation)."""
        assert self.status is SessionStatus.PENDING
        self.status = SessionStatus.RUNNING
        # Binding on_observation per-session: the executor instance is owned
        # by this session, so the callback can close over its state.
        self._executor.on_observation = self._observe
        self._handle = self._executor.begin(self._plan, self.query_name)

    def step(self) -> bool:
        """Advance by one unit of work; returns False when the query ends."""
        assert self._handle is not None
        self.steps += 1
        more = self._handle.step()
        if not more:
            self.status = SessionStatus.DONE
        return more

    @property
    def can_bulk(self) -> bool:
        """True when a slice can advance without per-observation callbacks
        (the handle can ``skip``, as a replay handle can)."""
        return hasattr(self._handle, "skip")

    def step_bulk(self, k: int) -> int:
        """Advance up to ``k`` replay steps in one seek; steps used.

        Mirrors ``k`` iterations of :meth:`step`:
        the tick counter advances per skipped observation and the due
        report rows (every ``refresh_every``-th tick) are derived from
        the tick arithmetic instead of callbacks.  Relies on the replay
        invariant ``ticks == len(log)`` (every observation, including the
        t=0 emit, bumps the counter exactly once).
        """
        assert self._handle is not None
        index = len(self._handle.ctx.log) - 1
        take = self._handle.skip(k)
        if take:
            self.steps += take
            ticks = self.state.ticks
            self.state.ticks = ticks + take
            refresh = self._monitor.refresh_every
            first = (ticks // refresh + 1) * refresh
            for t in range(first, ticks + take + 1, refresh):
                self.pending_reports.append(index + (t - ticks))
        used = take
        if take < k:
            self.step()  # the terminal transition past the last observation
            used += 1
        return used

    @property
    def done(self) -> bool:
        return self.status is SessionStatus.DONE

    def release(self) -> None:
        """Drop everything but the tombstone (id, status, step count).

        The sharded service's drain protocol calls this once a finished
        session's reports have been shipped: the execution handle (which
        pins the whole recorded run for replay sessions), the queued
        capture state and the report list all go, so shard memory scales
        with live sessions under churn.  Idempotent.
        """
        if not self.done:
            raise RuntimeError(
                f"session {self.session_id} is {self.status.value}; only "
                f"completed sessions can be released")
        self.released = True
        self.reports = []
        self.pending_reports = []
        self.state = MonitorState()
        self._executor = None
        self._plan = None
        self._handle = None

    @property
    def result(self) -> QueryRun:
        assert self._handle is not None
        return self._handle.result

    @property
    def handle_ctx(self):
        """The execution/replay context (flush-side accessor)."""
        assert self._handle is not None
        return self._handle.ctx

    # -- observation capture -------------------------------------------------

    def _observe(self, ctx) -> None:
        """Observation callback: record only *which* row is due a report.

        Mirrors the ``refresh_every`` cadence of solo monitoring; the
        service's flush builds, scores and finalizes the reports of all
        sessions at the end of the scheduler round.
        """
        self.state.ticks += 1
        if self.state.ticks % self._monitor.refresh_every:
            return
        self.pending_reports.append(len(ctx.log) - 1)
