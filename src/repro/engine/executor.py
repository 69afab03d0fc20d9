"""The query executor: drives a plan, produces a :class:`QueryRun`.

The executor owns the execution context threaded through all operators: it
advances the simulated clock on every charge, maintains the counter store
and snapshots observations at regular simulated-time ticks.  The online
bounds ``LB_i``/``UB_i`` ([6]'s worst-case bounds based on input sizes and
tuples seen so far) are a function of each logged row, so the observation
log fills them in when it is read, from the plan's bound-rule table.
What depends on the plan alone is laid out once per plan and database
(:class:`PlanLayout`) and shared by every execution of the plan.

Execution is resumable: :meth:`QueryExecutor.begin` returns an
:class:`ExecutionHandle` whose :meth:`~ExecutionHandle.step` advances the
query by one unit of work, so a scheduler can interleave many queries in
time slices (see :mod:`repro.service`).  :meth:`QueryExecutor.execute` is
the synchronous convenience wrapper that steps one handle to completion.
"""

from __future__ import annotations

import copy
import weakref
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.catalog.table import Database
from repro.engine.clock import CostModel, SimClock
from repro.engine.counters import (
    BLOCKING,
    CONST,
    GROUPS,
    PASS,
    PROBE,
    PRODUCT,
    TOP,
    UNBOUNDED,
    CounterStore,
    ObservationLog,
)
from repro.engine.iterators import build_iterator, emitted_columns
from repro.engine.memory import MemoryManager
from repro.engine.run import NodeInfo, PipelineInfo, PlanStatic, QueryRun
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


class PlanLayout:
    """What every execution of one plan over one database shares.

    The plan's static layout for execution: its nodes in preorder, the
    pipelines and each node's pipeline, the recorded per-node metadata
    (:class:`NodeInfo`), the bound-rule table the observation log fills
    ``LB``/``UB`` from, the columns each source emits, and the
    :class:`PlanStatic` record the serving flush reads.  All of it
    depends on the plan and the database's tables alone, so
    :func:`plan_layout` builds it on a plan's first execution over a
    database and every later one reuses it; the plan's work estimate,
    which also depends on the cost model, is remembered for the last
    cost model it was asked for (:meth:`work_estimate`).  Nothing here
    belongs to one execution: the rng, clock, memory, counters, log and
    pipeline start and end times stay on the :class:`ExecContext`.
    """

    __slots__ = ("db", "plan_nodes", "pipelines", "node_pid", "nodes",
                 "plan_static", "bound_rules", "emitted_columns", "_work",
                 "__weakref__")

    def __init__(self, plan: PlanNode, db: Database):
        #: the database laid out for, held weakly: the plan may outlive it
        self.db = weakref.ref(db)
        self.plan_nodes = list(plan.walk())
        self.pipelines = decompose_pipelines(plan)
        self.node_pid = node_to_pipeline(self.pipelines)
        parent = {child.node_id: node.node_id
                  for node in self.plan_nodes for child in node.children}
        build_side = {node.children[1].node_id for node in self.plan_nodes
                      if node.op == Op.HASH_JOIN}
        drivers = {i for pipe in self.pipelines for i in pipe.driver_ids}
        #: the plan as the run records it: static per-node metadata in
        #: preorder, the shape replayed recordings present too
        self.nodes = [NodeInfo(
            node_id=node.node_id,
            op=node.op,
            table=node.table,
            est_rows=float(node.est_rows),
            est_row_width=float(node.est_row_width),
            table_rows=(np.nan if node.table is None
                        else float(db.table(node.table).n_rows)),
            pid=self.node_pid[node.node_id],
            parent=parent.get(node.node_id, -1),
            is_driver=node.node_id in drivers,
            is_build_side=node.node_id in build_side,
            join_kind=node.params.get("join_kind", "inner"),
        ) for node in self.plan_nodes]
        #: what every execution of the plan shares with the flush
        self.plan_static = PlanStatic(self.nodes, self.pipelines)
        self.bound_rules = _plan_bound_rules(self.plan_nodes, self.nodes)
        #: the columns each source emits (what some operator above reads)
        self.emitted_columns = emitted_columns(plan, db)
        #: (a copy of the cost model, the plan's work estimate under it)
        self._work: tuple[CostModel, float] | None = None

    def work_estimate(self, cost: CostModel) -> float:
        """The plan's estimated simulated seconds under ``cost``, from the
        optimizer's estimates: what the first observation tick is sized
        from.  Remembered for the last cost model value asked for
        (executors usually each hold an equal default one)."""
        if self._work is not None and self._work[0] == cost:
            return self._work[1]
        est = 0.0
        for node in self.plan_nodes:
            rows = max(node.est_rows, 1.0)
            est += cost.cpu_seconds(node.op, rows)
            if node.op in (Op.TABLE_SCAN, Op.INDEX_SCAN, Op.INDEX_SEEK):
                est += rows * node.est_row_width * cost.seconds_per_byte_read
            if node.op == Op.SORT:
                est += cost.sort_cpu_seconds(rows, rows)
        est *= cost.time_scale
        self._work = (copy.deepcopy(cost), est)
        return est


def plan_layout(plan: PlanNode, db: Database) -> PlanLayout:
    """The :class:`PlanLayout` of the finalized ``plan`` over ``db``.

    Kept on the plan root (``plan.layouts``, by database), so it lives and
    dies with the plan (the layout's pipelines refer back to the plan's
    nodes, so the collector frees the pair); a layout whose database is
    gone is replaced.  A plan is not modified once it has executed.
    """
    layouts = plan.layouts
    if layouts is None:
        layouts = plan.layouts = {}
    layout = layouts.get(id(db))
    if layout is None or layout.db() is not db:
        layout = layouts[id(db)] = PlanLayout(plan, db)
    return layout


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
        layout = plan_layout(plan, db)
        self.layout = layout
        self.pipelines = layout.pipelines
        self.node_pid = layout.node_pid
        self.nodes = layout.nodes
        self.plan_static = layout.plan_static
        self.emitted_columns = layout.emitted_columns
        n = len(layout.nodes)
        self.counters = CounterStore(n)
        # the log gets the rule table, never anything that refers back to
        # this context: a finished context must die by reference count
        self.log = ObservationLog(n, layout.bound_rules)
        self.on_observation = on_observation
        n_pipes = len(self.pipelines)
        self.pipe_first = np.full(n_pipes, np.nan)
        #: index of the first observation whose callback sees the
        #: pipeline started (the log length when ``pipe_first`` was set);
        #: int64 max while it has not started
        self.pipe_first_row = np.full(n_pipes, np.iinfo(np.int64).max)
        #: the hot per-charge pipeline state, as Python bools and floats
        self._pipe_started = [False] * n_pipes
        self.pipe_last = [np.nan] * n_pipes
        self._tick = self._initial_tick()
        self._next_obs = 0.0

    @property
    def db_name(self) -> str:
        return self.db.name

    # -- cost bookkeeping --------------------------------------------------

    def charge(self, node: PlanNode, rows: float, *, cpu_rows: float | None = None,
               r_bytes: float = 0.0, w_bytes: float = 0.0,
               extra_seconds: float = 0.0, pid: int | None = None) -> None:
        """Account for a unit of work at ``node``.

        ``rows`` are GetNext calls produced (added to ``K``); ``cpu_rows``
        overrides the row count used for CPU costing (e.g. a filter pays for
        input rows but produces fewer).  ``pid`` attributes the work to a
        pipeline other than the node's own (used by blocking builds).

        The counters and the pipeline-started flags are Python floats and
        bools (see :class:`~repro.engine.counters.CounterStore`): the same
        float operations in the same order as on float64 arrays, without a
        NumPy scalar round trip per charge.
        """
        i = node.node_id
        cost = self.cost
        cpu_basis = rows if cpu_rows is None else cpu_rows
        seconds = (cost.cpu_seconds(node.op, cpu_basis)
                   + r_bytes * cost.seconds_per_byte_read
                   + w_bytes * cost.seconds_per_byte_written
                   + extra_seconds)
        self.clock.advance(seconds)
        counters = self.counters
        if rows:
            counters.K[i] += rows
        counters.R[i] += r_bytes
        counters.W[i] += w_bytes
        now = self.clock.now
        p = self.node_pid[i] if pid is None else pid
        if not self._pipe_started[p]:
            self._pipe_started[p] = True
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
        self.log.snapshot(self.clock.now, self.counters)
        self._next_obs = self.clock.now + self._tick
        if self.on_observation is not None:
            self.on_observation(self)

    def _initial_tick(self) -> float:
        est = self.layout.work_estimate(self.cost)
        return max(est / self.config.target_observations, 1e-9)


def _plan_bound_rules(
        plan_nodes: list[PlanNode], nodes: list[NodeInfo]
) -> tuple[tuple[int, int, int, int, float], ...]:
    """The plan's bound rules ``(i, rule, a, b, c)`` in evaluation order.

    First every node bottom-up (reversed preorder: each child before its
    parent).  Then a second pass over nested-loop probe sides: an inner
    INDEX_SEEK is driven once per outer row, so its total is bounded by
    outer-bound × table rows, not by the table alone (duplicate probe keys
    revisit rows), and residual FILTERs above it inherit.  The join itself
    reads its inner side's first-pass bound; the outer subtree precedes
    the inner in preorder, so its bound is final by the second pass.
    ``plan_nodes`` and ``nodes`` are the plan's nodes and their
    :class:`NodeInfo` in preorder (index = node id).
    """
    rules = []
    for node in reversed(plan_nodes):
        i, op = node.node_id, node.op
        kids = [child.node_id for child in node.children]
        if op in (Op.TABLE_SCAN, Op.INDEX_SCAN, Op.INDEX_SEEK):
            rules.append((i, CONST, -1, -1, nodes[i].table_rows))
        elif op in (Op.FILTER, Op.BATCH_SORT):
            rules.append((i, PASS, kids[0], -1, 0.0))
        elif op in (Op.SORT, Op.HASH_AGG):
            # Blocking: once the input finished, the materialized row
            # count (and hence the output total) is known exactly.
            rules.append((i, BLOCKING, kids[0], -1, 0.0))
        elif op == Op.STREAM_AGG:
            if node.params.get("group_cols"):
                # at most one accumulated group is still pending
                rules.append((i, GROUPS, kids[0], -1, 0.0))
            else:
                rules.append((i, CONST, -1, -1, 1.0))
        elif op == Op.TOP:
            rules.append((i, TOP, kids[0], -1, float(node.params["k"])))
        elif op in (Op.HASH_JOIN, Op.MERGE_JOIN, Op.NESTED_LOOP_JOIN):
            if node.params.get("join_kind", "inner") in ("semi", "anti"):
                # Each probe row is emitted at most once, so the
                # outer-side bound alone is sound — and much tighter
                # than the inner-join product.
                rules.append((i, PASS, kids[0], -1, 0.0))
            else:
                # Inner: at most outer × inner matches.  LEFT OUTER is
                # covered by the same product: k matched outer rows
                # yield ≤ k·inner rows and the outer−k unmatched rows
                # one padded row each, which totals ≤ outer·inner for
                # inner ≥ 1, and exactly `outer` (the max(·,1) floor)
                # once an empty inner side is proven.
                rules.append((i, PRODUCT, kids[0], kids[1], 0.0))
        else:  # pragma: no cover - defensive
            rules.append((i, CONST, -1, -1, UNBOUNDED))
    for node in plan_nodes:
        if node.op is Op.NESTED_LOOP_JOIN:
            outer_id = node.children[0].node_id
            for inner in reversed(list(node.children[1].walk())):
                i = inner.node_id
                if inner.op is Op.INDEX_SEEK:
                    rules.append((i, PROBE, outer_id, -1,
                                  max(nodes[i].table_rows, 1.0)))
                else:  # residual FILTER above the seek
                    rules.append((i, PASS, inner.children[0].node_id,
                                  -1, 0.0))
    return tuple(rules)


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
        self.ctx.counters.finish()
        self.ctx.maybe_observe(force=True)  # final snapshot
        run = self._executor._assemble(self.ctx, self.query_name,
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

    def _assemble(self, ctx: ExecContext, query_name: str,
                  output_rows: int) -> QueryRun:
        pipeline_infos = [PipelineInfo(
            pid=pipe.pid,
            node_ids=list(pipe.node_ids),
            driver_ids=list(pipe.driver_ids),
            t_start=float(ctx.pipe_first[pipe.pid]),
            t_end=float(ctx.pipe_last[pipe.pid]),
        ) for pipe in ctx.pipelines]
        # own exactly sized copies, not views of the log's doubling buffers,
        # so ``run.nbytes`` is what the run actually pins
        arrays = {name: a.copy() for name, a in ctx.log.as_arrays().items()}
        return QueryRun(
            query_name=query_name,
            db_name=self.db.name,
            nodes=ctx.nodes,
            pipelines=pipeline_infos,
            times=arrays["times"],
            K=arrays["K"],
            R=arrays["R"],
            W=arrays["W"],
            LB=arrays["LB"],
            UB=arrays["UB"],
            N=np.array(ctx.counters.K),
            total_time=float(ctx.clock.now),
            output_rows=output_rows,
            spill_events=ctx.memory.spill_events,
            D=arrays["D"],
        )
