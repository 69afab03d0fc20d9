"""Replaying recorded runs through the monitoring stack.

A recorded :class:`~repro.engine.run.QueryRun` holds everything the
observation callback ever saw: counter matrices per snapshot, done flags
(``D``), pipeline windows and plan metadata.  :class:`ReplayContext`
re-materializes, observation by observation, the exact duck-typed surface
of :class:`~repro.engine.executor.ExecContext` that the service's flush
(:class:`~repro.service.batched.VectorizedFlush`) and
:func:`~repro.engine.run.live_pipeline_run` consume — so the *same*
causal capture code runs against the recording, and a replayed monitor
produces bit-identical reports to the live one, without touching the
engine.

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

from repro.engine.counters import LogRow
from repro.engine.run import QueryRun, live_pipeline_run


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


class _ReplayCounters:
    """Row views of the recorded K / D matrices at the current snapshot."""

    __slots__ = ("K", "done", "n_nodes")

    def __init__(self, n_nodes: int):
        self.n_nodes = n_nodes
        self.K: np.ndarray | None = None
        self.done: np.ndarray | None = None


class _ReplayLog:
    def __init__(self, ctx: "ReplayContext"):
        self._ctx = ctx

    def __len__(self) -> int:
        # causal length: rows up to (and including) the current observation
        return self._ctx.observation_index + 1

    def row(self, i: int) -> LogRow:
        """One recorded snapshot, shaped like the live log's rows."""
        run = self._ctx.run
        return LogRow(float(run.times[i]), run.K[i], run.R[i], run.W[i],
                      run.LB[i], run.UB[i], run.D[i])

    def start_index(self, t_start: float) -> int:
        run = self._ctx.run
        return int(np.searchsorted(run.times[:len(self)], t_start,
                                   side="left"))

    def as_arrays(self) -> dict[str, np.ndarray]:
        ctx = self._ctx
        stop = ctx.observation_index + 1
        return {"times": ctx.run.times[:stop], "K": ctx.run.K[:stop],
                "R": ctx.run.R[:stop], "W": ctx.run.W[:stop],
                "LB": ctx.run.LB[:stop], "UB": ctx.run.UB[:stop],
                "D": ctx.run.D[:stop]}


class _ReplayClock:
    __slots__ = ("now",)

    def __init__(self):
        self.now = 0.0


class ReplayContext:
    """Observation-indexed view of a recorded run, ExecContext-shaped."""

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
        self.counters = _ReplayCounters(len(nodes))
        self.log = _ReplayLog(self)
        self.clock = _ReplayClock()
        self._t_starts = np.array([p.t_start for p in run.pipelines])
        self.pipe_first = np.full(len(run.pipelines), np.nan)
        self.observation_index = -1
        self.seek(0)

    @property
    def n_observations(self) -> int:
        return len(self.run.times)

    def seek(self, index: int) -> None:
        """Position the context at recorded observation ``index``."""
        if not 0 <= index < self.n_observations:
            raise IndexError(f"observation index {index} out of range "
                             f"[0, {self.n_observations})")
        self.observation_index = index
        now = float(self.run.times[index])
        self.clock.now = now
        self.counters.K = self.run.K[index]
        self.counters.done = self.run.D[index]
        # a pipeline has started by now iff its first charge is in the past
        self.pipe_first = np.where(self._t_starts <= now,
                                   self._t_starts, np.nan)

    def live_pipeline_run(self, pipe, query_name: str = "(online)",
                          min_observations: int = 2):
        """Causal pipeline snapshot at the current observation (same code
        path as the live executor)."""
        return live_pipeline_run(self, pipe, query_name=query_name,
                                 min_observations=min_observations)


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
