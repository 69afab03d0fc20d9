"""One live query inside the progress service.

A :class:`QuerySession` bundles everything the service tracks per query:
the resumable :class:`~repro.engine.executor.ExecutionHandle`, the
per-query :class:`~repro.core.monitor.MonitorState` (sticky estimator
choices), the observation rows due a report, each started pipeline's
first causal-view row and the report stream.  The stream is kept as
columns (:class:`~repro.trace.format.ReportLog`, one block of rows per
flush, copied out of the round's block); its
:class:`~repro.core.monitor.ProgressReport` objects are built only when
:attr:`QuerySession.reports` is read.  A pipeline's kernel metadata
lives on its plan record (:class:`~repro.engine.run.PlanStatic`), not on
the session.

Sessions are passive: the :class:`~repro.service.service.ProgressService`
steps their handles and its flush turns their due rows into reports.  No
observation callback is bound: every observation appends exactly one
log row, for live executions and replayed recordings alike, so after
each slice the session reads the due rows off the log's length — row
``r`` is due when ``(r + 1) % refresh_every == 0``, the cadence of solo
monitoring.  The flush assembles each report from the log as of that
row and the context's write-once ``pipe_first_row`` vector (a pipeline
has started at row ``R`` iff ``pipe_first_row[pid] <= R``).
Handles that can skip ahead (replay) advance a whole slice in one seek.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.core.monitor import MonitorState, ProgressMonitor, ProgressReport
from repro.engine.executor import ExecutionHandle, QueryExecutor
from repro.engine.run import QueryRun
from repro.trace.format import ReportLog

#: a row index past every log: a pipeline slot not (yet) filled
NEVER = np.iinfo(np.int64).max


class SessionStatus(enum.Enum):
    PENDING = "pending"    # submitted, waiting for a live slot
    RUNNING = "running"
    DONE = "done"


class QuerySession:
    """State of one monitored query managed by the service.

    ``executor`` is either a live :class:`QueryExecutor` or a
    :class:`~repro.trace.replay.ReplayExecutor` over a recorded run — the
    session only relies on the shared ``begin()`` surface and the
    context's observation log, so live and replayed queries are
    scheduled identically.
    """

    __slots__ = ("session_id", "query_name", "status", "state",
                 "report_rows", "pending_reports", "view_first", "steps",
                 "released", "nbytes", "_reports", "_monitor", "_executor",
                 "_plan", "_handle", "_scanned")

    def __init__(self, session_id: int, executor: "QueryExecutor | object",
                 plan, query_name: str, monitor: ProgressMonitor):
        self.session_id = session_id
        self.query_name = query_name
        self.status = SessionStatus.PENDING
        self.state: MonitorState | None = MonitorState()
        #: the report rows not yet read as :attr:`reports`, as columns:
        #: a block per flush
        self.report_rows: ReportLog | None = ReportLog()
        #: the stream's reports built so far (:attr:`reports`)
        self._reports: list[ProgressReport] | None = []
        #: observation-log row index per due report
        self.pending_reports: list[int] = []
        #: per pipeline, the first row of its causal view: set by the
        #: first flush whose log holds a row that sees it started (fixed
        #: from then on), :data:`NEVER` before
        self.view_first: np.ndarray | None = None
        self.steps = 0
        self.released = False
        #: bytes charged against the service's memory budget while the
        #: session runs: its recording's ``nbytes`` for a replay, 0 live
        #: (kept after :meth:`release`, which drops the executor)
        self.nbytes = 0
        self._monitor = monitor
        self._executor = executor
        self._plan = plan
        self._handle: ExecutionHandle | None = None
        #: log rows already scanned for due reports
        self._scanned = 0

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Create the execution handle (runs the t=0 observation)."""
        assert self.status is SessionStatus.PENDING
        self.status = SessionStatus.RUNNING
        self._handle = self._executor.begin(self._plan, self.query_name)
        self.view_first = np.full(len(self._handle.ctx.pipelines), NEVER)

    def run_slice(self, k: int) -> int:
        """Advance up to ``k`` steps, then queue the rows due a report;
        returns the steps used.

        A replay handle skips ahead in one seek; a step past its last
        observation (or the live engine's last unit of work) ends the
        query.
        """
        handle = self._handle
        assert handle is not None
        used = handle.skip(k) if hasattr(handle, "skip") else 0
        while used < k:
            used += 1
            if not handle.step():
                self.status = SessionStatus.DONE
                break
        self.steps += used
        # observation r is the (r + 1)-th: due at every refresh_every-th
        rows = len(handle.ctx.log)
        every = self._monitor.refresh_every
        first = (self._scanned + every) // every * every - 1
        self.pending_reports.extend(range(first, rows, every))
        self._scanned = rows
        return used

    @property
    def done(self) -> bool:
        return self.status is SessionStatus.DONE

    @property
    def reports(self) -> list[ProgressReport]:
        """The report stream so far; ``[]`` once released.  Rows are built
        into reports when this is read and then leave
        :attr:`report_rows`, so a stream is never held twice."""
        if self.report_rows is None:
            return []
        if len(self.report_rows):
            self._reports += self.report_rows.block().reports()
            self.report_rows = ReportLog()
        return self._reports

    def release(self) -> None:
        """Drop everything but the tombstone (id, status, step count).

        The sharded service's drain protocol calls this once a finished
        session's reports have been shipped: the execution handle (which
        pins the whole recorded run for replay sessions), the selection
        state, the queued rows and the report stream all go, and nothing
        is allocated in their place, so shard memory scales with live
        sessions under churn.  Idempotent.
        """
        if not self.done:
            raise RuntimeError(
                f"session {self.session_id} is {self.status.value}; only "
                f"completed sessions can be released")
        self.released = True
        self.state = None
        self.report_rows = None
        self._reports = None
        self.pending_reports = None
        self.view_first = None
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
