"""The query executor: drives a plan, produces a :class:`QueryRun`.

The executor owns the execution context threaded through all operators: it
advances the simulated clock on every charge, maintains the counter store,
refreshes the online bounds ``LB_i``/``UB_i`` ([6]'s worst-case bounds based
on input sizes and tuples seen so far), and snapshots observations at
regular simulated-time ticks.

Execution is resumable: :meth:`QueryExecutor.begin` returns an
:class:`ExecutionHandle` whose :meth:`~ExecutionHandle.step` advances the
query by one unit of work, so a scheduler can interleave many queries in
time slices (see :mod:`repro.service`).  :meth:`QueryExecutor.execute` is
the synchronous convenience wrapper that steps one handle to completion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.catalog.table import Database
from repro.engine.clock import CostModel, SimClock
from repro.engine.counters import CounterStore, ObservationLog, UNBOUNDED
from repro.engine.iterators import build_iterator
from repro.engine.memory import MemoryManager
from repro.engine.run import NodeInfo, PipelineInfo, QueryRun
from repro.plan.nodes import Op, PlanNode
from repro.plan.pipelines import decompose_pipelines, node_to_pipeline


@dataclass
class ExecutorConfig:
    """Knobs of the simulated engine."""

    batch_size: int = 1024
    memory_budget_bytes: float = float(4 << 20)
    target_observations: int = 250
    max_observations: int = 1500
    seed: int = 0
    collect_output: bool = False  # keep result rows on the QueryRun

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.target_observations < 10:
            raise ValueError("need at least 10 observations per query")


class ExecContext:
    """Execution state shared by all operators of one query."""

    def __init__(self, db: Database, plan: PlanNode, config: ExecutorConfig,
                 cost_model: CostModel,
                 on_observation: Callable[["ExecContext"], None] | None = None):
        self.db = db
        self.plan = plan
        self.config = config
        self.cost = cost_model
        self.batch_size = config.batch_size
        self.rng = np.random.default_rng(config.seed)
        self.clock = SimClock(cost_model, self.rng)
        self.memory = MemoryManager(config.memory_budget_bytes)
        self.pipelines = decompose_pipelines(plan)
        self.node_pid = node_to_pipeline(self.pipelines)
        n = plan.n_nodes
        self.counters = CounterStore(n)
        self.log = ObservationLog(n)
        self.on_observation = on_observation
        n_pipes = len(self.pipelines)
        self.pipe_first = np.full(n_pipes, np.nan)
        #: index of the first observation whose callback sees the
        #: pipeline started (the log length when ``pipe_first`` was set);
        #: int64 max while it has not started
        self.pipe_first_row = np.full(n_pipes, np.iinfo(np.int64).max)
        self.pipe_last = np.full(n_pipes, np.nan)
        self._nodes = list(plan.walk())
        self._bottom_up = list(reversed(self._nodes))
        self.parents: dict[int, int] = {}
        for node in self._nodes:
            for child in node.children:
                self.parents[child.node_id] = node.node_id
        self._table_rows = np.full(n, np.nan)
        for node in self._nodes:
            if node.table is not None:
                self._table_rows[node.node_id] = db.table(node.table).n_rows
        # Probe-side nodes of nested-loop joins, bottom-up, paired with
        # their join's outer child: duplicate probe keys fan a seek out
        # past its table's cardinality, so these nodes get their own
        # bound rule in _compute_bounds.
        self._probe_side: list[tuple[PlanNode, int]] = []
        for node in self._nodes:
            if node.op is Op.NESTED_LOOP_JOIN:
                outer_id = node.children[0].node_id
                chain = list(node.children[1].walk())
                self._probe_side.extend(
                    (inner, outer_id) for inner in reversed(chain))
        self._tick = self._initial_tick()
        self._next_obs = 0.0

    # -- cost bookkeeping --------------------------------------------------

    def charge(self, node: PlanNode, rows: float, *, cpu_rows: float | None = None,
               r_bytes: float = 0.0, w_bytes: float = 0.0,
               extra_seconds: float = 0.0, pid: int | None = None,
               count: bool = True) -> None:
        """Account for a unit of work at ``node``.

        ``rows`` are GetNext calls produced (added to ``K``); ``cpu_rows``
        overrides the row count used for CPU costing (e.g. a filter pays for
        input rows but produces fewer).  ``pid`` attributes the work to a
        pipeline other than the node's own (used by blocking builds).
        """
        i = node.node_id
        cpu_basis = rows if cpu_rows is None else cpu_rows
        seconds = (self.cost.cpu_seconds(node.op, cpu_basis)
                   + r_bytes * self.cost.seconds_per_byte_read
                   + w_bytes * self.cost.seconds_per_byte_written
                   + extra_seconds)
        self.clock.advance(seconds)
        if count and rows:
            self.counters.K[i] += rows
        self.counters.R[i] += r_bytes
        self.counters.W[i] += w_bytes
        now = self.clock.now
        self.counters.record_activity(i, now)
        p = self.node_pid[i] if pid is None else pid
        if np.isnan(self.pipe_first[p]):
            self.pipe_first[p] = now
            self.pipe_first_row[p] = len(self.log)
        self.pipe_last[p] = now
        self.maybe_observe()

    def pipeline_of(self, node: PlanNode) -> int:
        return self.node_pid[node.node_id]

    def mark_done(self, node: PlanNode) -> None:
        self.counters.done[node.node_id] = True

    # -- observations -------------------------------------------------------

    def maybe_observe(self, force: bool = False) -> None:
        if not force and self.clock.now < self._next_obs:
            return
        if len(self.log) >= self.config.max_observations:
            self._tick *= 2.0
            if not force:
                self._next_obs = self.clock.now + self._tick
                return
        lb, ub = self._compute_bounds()
        self.log.snapshot(self.clock.now, self.counters, lb, ub)
        self._next_obs = self.clock.now + self._tick
        if self.on_observation is not None:
            self.on_observation(self)

    def _initial_tick(self) -> float:
        est = 0.0
        for node in self._nodes:
            rows = max(node.est_rows, 1.0)
            est += self.cost.cpu_seconds(node.op, rows)
            if node.op in (Op.TABLE_SCAN, Op.INDEX_SCAN, Op.INDEX_SEEK):
                est += rows * node.est_row_width * self.cost.seconds_per_byte_read
            if node.op == Op.SORT:
                est += self.cost.sort_cpu_seconds(rows, rows)
        est *= self.cost.time_scale
        return max(est / self.config.target_observations, 1e-9)

    def _compute_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Worst-case bounds on ``N_i`` based on input sizes ([6]).

        Upper bounds are derived from *total* input cardinalities (known
        for scans, bounded recursively elsewhere), never from "remaining"
        arithmetic — rows in flight between operators would otherwise make
        the bounds momentarily unsound.  A finished node's total is its
        counter.  Spill-induced GetNext calls are outside the bounds by
        design (they are unpredictable extra work; see the engine docs).
        """
        K = self.counters.K
        done = self.counters.done
        lb = K.copy()
        ub = np.full(self.plan.n_nodes, UNBOUNDED)
        for node in self._bottom_up:
            i = node.node_id
            if done[i]:
                ub[i] = K[i]
                continue
            op = node.op
            if op in (Op.TABLE_SCAN, Op.INDEX_SCAN, Op.INDEX_SEEK):
                ub[i] = self._table_rows[i]
            elif op in (Op.FILTER, Op.BATCH_SORT):
                ub[i] = ub[node.children[0].node_id]
            elif op in (Op.SORT, Op.HASH_AGG):
                # Blocking: once the input finished, the materialized row
                # count (and hence the output total) is known exactly.
                c = node.children[0].node_id
                ub[i] = max(K[i], K[c]) if done[c] else ub[c]
            elif op == Op.STREAM_AGG:
                c = node.children[0].node_id
                if node.params.get("group_cols"):
                    # at most one accumulated group is still pending
                    ub[i] = K[i] + 1.0 if done[c] else ub[c]
                else:
                    ub[i] = 1.0
            elif op == Op.TOP:
                ub[i] = min(float(node.params["k"]),
                            ub[node.children[0].node_id])
            elif op in (Op.HASH_JOIN, Op.MERGE_JOIN, Op.NESTED_LOOP_JOIN):
                outer = ub[node.children[0].node_id]
                if node.params.get("join_kind", "inner") in ("semi", "anti"):
                    # Each probe row is emitted at most once, so the
                    # outer-side bound alone is sound — and much tighter
                    # than the inner-join product.
                    ub[i] = outer
                else:
                    # Inner: at most outer × inner matches.  LEFT OUTER is
                    # covered by the same product: k matched outer rows
                    # yield ≤ k·inner rows and the outer−k unmatched rows
                    # one padded row each, which totals ≤ outer·inner for
                    # inner ≥ 1, and exactly `outer` (the max(·,1) floor)
                    # once an empty inner side is proven.
                    inner = ub[node.children[1].node_id]
                    ub[i] = min(max(outer, 1.0) * max(inner, 1.0), UNBOUNDED)
            else:  # pragma: no cover - defensive
                ub[i] = UNBOUNDED
        # Second pass: nested-loop probe sides.  An inner INDEX_SEEK is
        # driven once per outer row, so its total is bounded by
        # outer-bound × table rows, not by the table alone (duplicate
        # probe keys revisit rows); residual FILTERs inherit.  The outer
        # subtree precedes the inner in preorder, so its bound is final
        # by the time this pass runs.
        for node, outer_id in self._probe_side:
            i = node.node_id
            if done[i]:
                continue
            if node.op is Op.INDEX_SEEK:
                ub[i] = min(max(ub[outer_id], 1.0)
                            * max(self._table_rows[i], 1.0), UNBOUNDED)
            else:  # residual FILTER above the seek
                ub[i] = ub[node.children[0].node_id]
        np.minimum(ub, UNBOUNDED, out=ub)
        np.maximum(ub, lb, out=ub)
        return lb, ub


class ExecutionHandle:
    """Resumable, step-wise execution of one plan.

    Created by :meth:`QueryExecutor.begin`.  Each :meth:`step` performs one
    unit of work — opening the iterator tree (which runs any blocking
    builds) or pulling one output chunk from the root — and returns whether
    work remains.  Interleaving ``step()`` calls across several handles is
    how the multi-query progress service time-slices concurrent queries;
    ``begin()`` + a ``step()`` loop is byte-for-byte equivalent to
    :meth:`QueryExecutor.execute` (observation snapshots, counters and the
    final :class:`QueryRun` are identical).
    """

    def __init__(self, executor: "QueryExecutor", plan: PlanNode,
                 query_name: str):
        if plan.node_id < 0:
            plan.finalize()
        self.plan = plan
        self.query_name = query_name
        self._executor = executor
        self.ctx = ExecContext(executor.db, plan, executor.config,
                               executor.cost_model, executor.on_observation)
        self.ctx.maybe_observe(force=True)  # t=0 snapshot
        self._root = build_iterator(plan, self.ctx)
        self._opened = False
        self._output_rows = 0
        self._collected = [] if executor.config.collect_output else None
        self._run: QueryRun | None = None

    @property
    def done(self) -> bool:
        return self._run is not None

    @property
    def result(self) -> QueryRun:
        if self._run is None:
            raise RuntimeError("execution has not finished; call step() "
                               "until it returns False (or run_to_completion)")
        return self._run

    def step(self) -> bool:
        """Advance execution by one unit of work; True while work remains."""
        if self._run is not None:
            return False
        if not self._opened:
            self._root.open()
            self._opened = True
            return True
        chunk = self._root.next_chunk()
        if chunk is not None:
            self._output_rows += len(chunk)
            if self._collected is not None and len(chunk):
                self._collected.append(chunk)
            return True
        self.ctx.counters.done[:] = True
        self.ctx.maybe_observe(force=True)  # final snapshot
        run = self._executor._assemble(self.ctx, self.plan, self.query_name,
                                       self._output_rows)
        if self._collected is not None:
            from repro.engine.chunk import Chunk
            run.output = Chunk.concat(self._collected)
        self._run = run
        return False

    def run_to_completion(self) -> QueryRun:
        while self.step():
            pass
        return self.result


class QueryExecutor:
    """Executes physical plans over a database, recording trajectories.

    Example
    -------
    >>> executor = QueryExecutor(db)
    >>> run = executor.execute(plan, query_name="q1")
    >>> run.total_time, len(run.pipelines)
    """

    def __init__(self, db: Database, config: ExecutorConfig | None = None,
                 cost_model: CostModel | None = None,
                 on_observation: Callable[[ExecContext], None] | None = None):
        self.db = db
        self.config = config or ExecutorConfig()
        self.cost_model = cost_model or CostModel()
        self.on_observation = on_observation

    def begin(self, plan: PlanNode, query_name: str = "query") -> ExecutionHandle:
        """Start ``plan`` without driving it; the caller steps the handle."""
        return ExecutionHandle(self, plan, query_name)

    def execute(self, plan: PlanNode, query_name: str = "query") -> QueryRun:
        """Run ``plan`` to completion and return the recorded trajectories."""
        return self.begin(plan, query_name).run_to_completion()

    def _assemble(self, ctx: ExecContext, plan: PlanNode, query_name: str,
                  output_rows: int) -> QueryRun:
        parent = {}
        build_side_ids = set()
        for node in plan.walk():
            for child in node.children:
                parent[child.node_id] = node.node_id
            if node.op == Op.HASH_JOIN:
                build_side_ids.add(node.children[1].node_id)
        driver_ids = set()
        for pipe in ctx.pipelines:
            driver_ids.update(pipe.driver_ids)
        nodes = []
        for node in plan.walk():
            i = node.node_id
            nodes.append(NodeInfo(
                node_id=i,
                op=node.op,
                table=node.table,
                est_rows=float(node.est_rows),
                est_row_width=float(node.est_row_width),
                table_rows=float(ctx._table_rows[i]),
                pid=ctx.node_pid[i],
                parent=parent.get(i, -1),
                is_driver=i in driver_ids,
                is_build_side=i in build_side_ids,
                join_kind=node.params.get("join_kind", "inner"),
            ))
        pipeline_infos = []
        for pipe in ctx.pipelines:
            pipeline_infos.append(PipelineInfo(
                pid=pipe.pid,
                node_ids=list(pipe.node_ids),
                driver_ids=list(pipe.driver_ids),
                t_start=float(ctx.pipe_first[pipe.pid]),
                t_end=float(ctx.pipe_last[pipe.pid]),
            ))
        # own exactly sized copies, not views of the log's doubling buffers,
        # so ``run.nbytes`` is what the run actually pins
        arrays = {name: a.copy() for name, a in ctx.log.as_arrays().items()}
        return QueryRun(
            query_name=query_name,
            db_name=self.db.name,
            nodes=nodes,
            pipelines=pipeline_infos,
            times=arrays["times"],
            K=arrays["K"],
            R=arrays["R"],
            W=arrays["W"],
            LB=arrays["LB"],
            UB=arrays["UB"],
            N=ctx.counters.K.copy(),
            total_time=float(ctx.clock.now),
            output_rows=output_rows,
            spill_events=ctx.memory.spill_events,
            D=arrays["D"],
        )
