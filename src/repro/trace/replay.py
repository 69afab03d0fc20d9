"""Replaying recorded runs through the monitoring stack.

A recorded :class:`~repro.engine.run.QueryRun` holds everything an
observation ever saw: counter matrices per snapshot, done flags
(``D``), pipeline windows and plan metadata.  :class:`ReplayContext`
presents the same surface as :class:`~repro.engine.executor.ExecContext`
to the service's flush (:class:`~repro.service.batched.VectorizedFlush`)
and :func:`~repro.engine.run.live_pipeline_run`:

* the plan as a preorder :class:`~repro.engine.run.NodeInfo` list
  (``nodes``) and pipelines exposing ``pid`` / ``node_ids`` /
  ``driver_ids`` — the recording's own ``run.nodes`` / ``run.pipelines``,
  which the live context builds identically when its query begins, and
  the recording's :class:`~repro.engine.run.PlanStatic`
  (``plan_static``), shared by every replay of it;
* an observation log that grows one recorded row per step
  (:meth:`ReplayContext.seek` sets its row count);
* the write-once pipeline-start vectors ``pipe_first`` /
  ``pipe_first_row``.

So the *same* causal capture code runs against the recording, and a
replayed monitor produces bit-identical reports to the live one, without
touching the engine.

:class:`ReplayExecutor` mirrors :class:`QueryExecutor.begin`'s shape, so a
:class:`~repro.service.session.QuerySession` (and therefore the whole
:class:`~repro.service.service.ProgressService`) can be driven by
recordings: each :meth:`ReplayHandle.step` advances one recorded
observation, growing the log by one row exactly as a live engine step
that observes does, and :meth:`ReplayHandle.skip` advances many in one
seek.
"""

from __future__ import annotations

import numpy as np

from repro.engine.run import QueryRun


class _ReplayLog:
    """The recorded rows up to the current observation, shaped like the
    live :class:`~repro.engine.counters.ObservationLog`.

    It holds the run and its causal row count, which
    :meth:`ReplayContext.seek` sets, and no reference back to the
    context: a released replay session's run is freed by reference
    counting, without waiting for the cyclic collector.
    """

    def __init__(self, run: QueryRun):
        self._run = run
        #: causal length: rows up to (and including) the current observation
        self.rows = 1

    def __len__(self) -> int:
        return self.rows

    def as_arrays(self, stop: int | None = None) -> dict[str, np.ndarray]:
        """Prefix views of the recorded arrays (first ``stop`` rows)."""
        stop = self.rows if stop is None else min(stop, self.rows)
        run = self._run
        return {name: getattr(run, name)[:stop]
                for name in ("times", "K", "R", "W", "LB", "UB", "D")}


class ReplayContext:
    """Observation-indexed view of a recorded run, ExecContext-shaped.

    ``pipe_first`` holds the recorded pipeline start times and
    ``pipe_first_row`` the first row with ``t_start <= times[row]`` (the
    row count for pipelines that never started), so a pipeline has
    started at row ``R`` iff ``pipe_first_row[pid] <= R`` — the same rule
    the live context's write-once vector gives.
    """

    def __init__(self, run: QueryRun, query_name: str | None = None):
        if run.D is None:
            raise ValueError(
                "run lacks the done-flag matrix D and cannot be replayed; "
                "record it with the current engine (or a current trace)")
        if len(run.times) == 0:
            raise ValueError("run has no recorded observations")
        self.run = run
        self.query_name = query_name or run.query_name
        self.db_name = run.db_name
        # the recording's plan description is the live context's own
        self.nodes = run.nodes
        self.pipelines = run.pipelines
        #: the recording's plan record, shared by every replay of it
        self.plan_static = run.plan_static
        self.log = _ReplayLog(run)
        self.pipe_first = np.array([p.t_start for p in run.pipelines])
        # NaN (never started) sorts past every row
        self.pipe_first_row = np.searchsorted(run.times, self.pipe_first,
                                              side="left")
        self.observation_index = 0

    @property
    def n_observations(self) -> int:
        return len(self.run.times)

    def seek(self, index: int) -> None:
        """Position the context at recorded observation ``index``."""
        if not 0 <= index < self.n_observations:
            raise IndexError(f"observation index {index} out of range "
                             f"[0, {self.n_observations})")
        self.observation_index = index
        self.log.rows = index + 1


class ReplayHandle:
    """Drop-in for :class:`~repro.engine.executor.ExecutionHandle` over a
    recording: each step replays one observation instead of one unit of
    engine work."""

    def __init__(self, run: QueryRun, query_name: str | None = None):
        self.query_name = query_name or run.query_name
        # positioned at the t=0 snapshot, as ExecutionHandle.__init__ is
        self.ctx = ReplayContext(run, query_name=self.query_name)
        self._run: QueryRun | None = None

    @property
    def done(self) -> bool:
        return self._run is not None

    @property
    def result(self) -> QueryRun:
        if self._run is None:
            raise RuntimeError("replay has not finished; call step() "
                               "until it returns False (or run_to_completion)")
        return self._run

    def step(self) -> bool:
        """Replay the next observation; True while observations remain."""
        if self._run is not None:
            return False
        nxt = self.ctx.observation_index + 1
        if nxt < self.ctx.n_observations:
            self.ctx.seek(nxt)
            return True
        self._run = self.ctx.run
        return False

    def skip(self, k: int) -> int:
        """Advance up to ``k`` observations in one seek.

        The service's bulk-stepping primitive: its flush reads report
        rows from the recording directly.  Returns the number of
        observations actually advanced (the terminal transition past the
        last observation still requires :meth:`step`).
        """
        if self._run is not None or k <= 0:
            return 0
        take = min(k, self.ctx.n_observations - 1 - self.ctx.observation_index)
        if take > 0:
            self.ctx.seek(self.ctx.observation_index + take)
        return take

    def run_to_completion(self) -> QueryRun:
        while self.step():
            pass
        return self.result


class ReplayExecutor:
    """Mirror of :class:`~repro.engine.executor.QueryExecutor` that 'runs'
    a recorded :class:`QueryRun`.  ``begin`` ignores the plan argument —
    the recording *is* the plan plus its execution."""

    def __init__(self, run: QueryRun):
        if run.D is None:
            raise ValueError("run lacks the done-flag matrix D and cannot "
                             "be replayed")
        self.run = run

    def begin(self, plan=None, query_name: str | None = None) -> ReplayHandle:
        return ReplayHandle(self.run, query_name=query_name)

    def execute(self, plan=None, query_name: str | None = None) -> QueryRun:
        return self.begin(plan, query_name).run_to_completion()


def replay_monitor(monitor, run: QueryRun) -> list:
    """Solo equivalent of :meth:`ProgressMonitor.run` over a recording.

    Produces the bit-identical report list the live monitor produced (or
    would have produced) for this execution — same snapshot cadence
    (``refresh_every``), same feature vectors, same selections — without
    executing anything: a one-session service replaying ``run``.
    """
    service = monitor.solo_service()
    sid = service.submit_replay(run)
    return service.run_until_complete()[sid][1]
