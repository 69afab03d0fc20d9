"""One live query inside the progress service.

A :class:`QuerySession` bundles everything the service tracks per query:
the resumable :class:`~repro.engine.executor.ExecutionHandle`, the
per-query :class:`~repro.core.monitor.MonitorState` (sticky estimator
choices), the observation rows due a report, the flush's records of its
running pipelines and the :class:`~repro.core.monitor.ProgressReport`
stream.

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
    session only relies on the shared ``begin()`` surface and the
    context's observation log, so live and replayed queries are
    scheduled identically.
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
        #: pid -> the kernel metadata of a running pipeline
        #: (:class:`~repro.progress.soa.PipelineMeta`), from its first
        #: running report row until its done report or the session's last
        #: flush
        self.pipe_records: dict[int, object] = {}
        self.steps = 0
        self.released = False
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
