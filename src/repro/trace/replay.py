"""Replaying recorded runs through the monitoring stack.

A recorded :class:`~repro.engine.run.QueryRun` holds everything the
observation callback ever saw: counter matrices per snapshot, done flags
(``D``), pipeline windows and plan metadata.  :class:`ReplayContext`
exposes the duck-typed surface of
:class:`~repro.engine.executor.ExecContext` that the service's flush
(:class:`~repro.service.batched.VectorizedFlush`) and
:func:`~repro.engine.run.live_pipeline_run` consume — an observation log
that grows one recorded row per step, plus the write-once pipeline-start
vectors ``pipe_first`` / ``pipe_first_row`` — so the *same* causal
capture code runs against the recording, and a replayed monitor produces
bit-identical reports to the live one, without touching the engine.

:class:`ReplayExecutor` mirrors :class:`QueryExecutor.begin`'s shape, so a
:class:`~repro.service.session.QuerySession` (and therefore the whole
:class:`~repro.service.service.ProgressService`) can be driven by
recordings: each :meth:`ReplayHandle.step` advances one recorded
observation and fires the ``on_observation`` callback, exactly as the live
engine fires it from inside ``charge``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.engine.run import QueryRun


class _ReplayNode:
    """Static plan-node stand-in rebuilt from recorded :class:`NodeInfo`."""

    __slots__ = ("node_id", "op", "table", "est_rows", "est_row_width",
                 "children")

    def __init__(self, info):
        self.node_id = info.node_id
        self.op = info.op
        self.table = info.table
        self.est_rows = info.est_rows
        self.est_row_width = info.est_row_width
        self.children: list["_ReplayNode"] = []


class _ReplayPlan:
    def __init__(self, nodes: list[_ReplayNode]):
        self._nodes = nodes
        self.n_nodes = len(nodes)

    def walk(self):
        # NodeInfo is recorded in plan preorder, so iteration order (and
        # with it every order-dependent float reduction downstream, e.g.
        # the monitor's ΣE weights) matches the live plan's walk().
        return iter(self._nodes)


class _ReplayPipe:
    """Stand-in for :class:`repro.plan.pipelines.Pipeline`."""

    __slots__ = ("pid", "nodes", "node_ids", "driver_ids")

    def __init__(self, info, node_by_id):
        self.pid = info.pid
        self.node_ids = list(info.node_ids)
        self.driver_ids = list(info.driver_ids)
        self.nodes = [node_by_id[i] for i in info.node_ids]

    @property
    def terminal(self):
        return self.nodes[0]


class _ReplayTable:
    __slots__ = ("n_rows",)

    def __init__(self, n_rows: float):
        self.n_rows = n_rows


class _ReplayDB:
    def __init__(self, name: str, table_rows: dict[str, float]):
        self.name = name
        self._tables = {t: _ReplayTable(r) for t, r in table_rows.items()}

    def table(self, name: str) -> _ReplayTable:
        return self._tables[name]


class _ReplayLog:
    """The recorded rows up to the current observation, shaped like the
    live :class:`~repro.engine.counters.ObservationLog`."""

    def __init__(self, ctx: "ReplayContext"):
        self._ctx = ctx

    def __len__(self) -> int:
        # causal length: rows up to (and including) the current observation
        return self._ctx.observation_index + 1

    def as_arrays(self, stop: int | None = None) -> dict[str, np.ndarray]:
        """Prefix views of the recorded arrays (first ``stop`` rows)."""
        stop = len(self) if stop is None else min(stop, len(self))
        run = self._ctx.run
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
        nodes = [_ReplayNode(info) for info in run.nodes]
        by_id = {n.node_id: n for n in nodes}
        self.parents: dict[int, int] = {}
        for info in run.nodes:
            if info.parent >= 0:
                self.parents[info.node_id] = info.parent
                by_id[info.parent].children.append(by_id[info.node_id])
        # parent pointers recover children in preorder (ids ascend within
        # each sibling list), matching the live plan's child order
        for node in nodes:
            node.children.sort(key=lambda n: n.node_id)
        self.plan = _ReplayPlan(nodes)
        self.pipelines = [_ReplayPipe(info, by_id) for info in run.pipelines]
        self.db = _ReplayDB(run.db_name, {
            info.table: info.table_rows
            for info in run.nodes if info.table is not None})
        self.log = _ReplayLog(self)
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


class ReplayHandle:
    """Drop-in for :class:`~repro.engine.executor.ExecutionHandle` over a
    recording: each step replays one observation instead of one unit of
    engine work."""

    def __init__(self, run: QueryRun,
                 on_observation: Callable[[ReplayContext], None] | None = None,
                 query_name: str | None = None):
        self.query_name = query_name or run.query_name
        self.ctx = ReplayContext(run, query_name=self.query_name)
        self._on_observation = on_observation
        self._run: QueryRun | None = None
        self._emit()  # the t=0 snapshot, as ExecutionHandle.__init__ does

    def _emit(self) -> None:
        if self._on_observation is not None:
            self._on_observation(self.ctx)

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
            self._emit()
            return True
        self._run = self.ctx.run
        return False

    def skip(self, k: int) -> int:
        """Advance up to ``k`` observations without firing callbacks.

        The service's bulk-stepping primitive: its flush reconstructs
        report rows from the recording directly, so per-observation
        emission is pure overhead.  Returns
        the number of observations actually advanced (the terminal
        transition past the last observation still requires :meth:`step`).
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
        self.on_observation: Callable[[ReplayContext], None] | None = None

    def begin(self, plan=None, query_name: str | None = None) -> ReplayHandle:
        return ReplayHandle(self.run, self.on_observation,
                            query_name=query_name)

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
