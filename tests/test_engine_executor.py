"""Invariant tests for executed query runs."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.monitor import ProgressMonitor
from repro.engine.counters import INITIAL_CAPACITY, UNBOUNDED
from repro.engine.executor import ExecutorConfig, QueryExecutor
from repro.plan.nodes import Op, PlanNode
from repro.query.logical import Aggregate
from repro.query.predicates import FilterSpec
from repro.service.service import ProgressService


class TestExecutorConfig:
    def test_rejects_bad_batch_size(self):
        with pytest.raises(ValueError):
            ExecutorConfig(batch_size=0)

    def test_rejects_too_few_observations(self):
        with pytest.raises(ValueError):
            ExecutorConfig(target_observations=3)


class TestRunInvariants:
    def test_final_counters_equal_true_totals(self, join_run):
        assert np.allclose(join_run.K[-1], join_run.N)

    def test_times_strictly_ordered(self, join_run):
        assert (np.diff(join_run.times) >= 0).all()
        assert join_run.times[-1] == pytest.approx(join_run.total_time)

    def test_counters_monotone(self, join_run):
        for matrix in (join_run.K, join_run.R, join_run.W):
            assert (np.diff(matrix, axis=0) >= -1e-9).all()

    def test_lower_bounds_below_true_totals(self, join_run):
        assert (join_run.LB <= join_run.N[None, :] + 1e-9).all()

    def test_upper_bounds_bracket_totals_without_spills(
            self, tpch_db, tpch_planner, join_query):
        """With ample memory (no spill GetNexts) the [6]-style bounds hold.

        Spill-induced GetNext calls are deliberately *outside* the bounds —
        they are unpredictable extra work (see engine docs) — so strict
        bracketing is only guaranteed for spill-free executions.
        """
        plan = tpch_planner.plan(join_query)
        config = ExecutorConfig(batch_size=256, seed=5,
                                memory_budget_bytes=float(1 << 28),
                                target_observations=80)
        run = QueryExecutor(tpch_db, config).execute(plan)
        assert run.spill_events == 0
        assert (run.LB <= run.N[None, :] + 1e-9).all()
        assert (run.N[None, :] <= run.UB + 1e-9).all()

    def test_bounds_sandwich_current_counters(self, join_run):
        assert (join_run.LB <= join_run.K + 1e-9).all()
        assert (join_run.K <= join_run.UB + 1e-9).all()

    def test_true_progress_normalized(self, join_run):
        progress = join_run.true_progress()
        assert progress[0] == pytest.approx(0.0, abs=1e-6)
        assert progress[-1] == pytest.approx(1.0)
        assert ((0 <= progress) & (progress <= 1)).all()

    def test_pipeline_windows_cover_execution(self, join_run):
        executed = [p for p in join_run.pipelines if p.executed]
        assert executed
        assert min(p.t_start for p in executed) >= 0.0
        assert max(p.t_end for p in executed) <= join_run.total_time + 1e-9

    def test_observation_counts_bounded(self, join_run, executor_config):
        assert len(join_run.times) <= executor_config.max_observations + 2

    def test_every_node_described(self, join_run):
        assert len(join_run.nodes) == join_run.K.shape[1]
        ids = [n.node_id for n in join_run.nodes]
        assert ids == sorted(ids)

    def test_driver_flags_match_pipelines(self, join_run):
        driver_ids = {i for p in join_run.pipelines for i in p.driver_ids}
        for node in join_run.nodes:
            assert node.is_driver == (node.node_id in driver_ids)

    def test_seeded_determinism(self, tpch_db, tpch_planner, join_query):
        plan_a = tpch_planner.plan(join_query)
        plan_b = tpch_planner.plan(join_query)
        config = ExecutorConfig(batch_size=256, seed=11,
                                target_observations=50)
        run_a = QueryExecutor(tpch_db, config).execute(plan_a)
        run_b = QueryExecutor(tpch_db, config).execute(plan_b)
        assert run_a.total_time == pytest.approx(run_b.total_time)
        assert np.allclose(run_a.N, run_b.N)

    @given(seed=st.integers(0, 30))
    @settings(max_examples=8, deadline=None)
    def test_different_seeds_same_counters(self, tpch_db, tpch_planner,
                                           join_query, seed):
        """Noise perturbs time but never the data-dependent counters."""
        plan = tpch_planner.plan(join_query)
        config = ExecutorConfig(batch_size=256, seed=seed,
                                target_observations=40)
        run = QueryExecutor(tpch_db, config).execute(plan)
        baseline = QueryExecutor(
            tpch_db, ExecutorConfig(batch_size=256, seed=0,
                                    target_observations=40)
        ).execute(tpch_planner.plan(join_query))
        assert np.allclose(run.N, baseline.N)


class TestPipelineStartRow:
    @pytest.mark.parametrize("seed", [5, 11])
    def test_live_start_row_is_causal(self, tpch_db, tpch_planner,
                                      join_query, seed):
        """``pipe_first_row[p] <= R`` iff observation ``R``'s callback saw
        pipeline ``p`` started — over a run with a blocking hash build and
        a spill."""
        seen = []
        config = ExecutorConfig(batch_size=256, seed=seed,
                                memory_budget_bytes=float(64 << 10),
                                target_observations=80)
        executor = QueryExecutor(
            tpch_db, config,
            on_observation=lambda ctx: seen.append(
                (len(ctx.log) - 1, ctx.pipe_first.copy())))
        handle = executor.begin(tpch_planner.plan(join_query))
        run = handle.run_to_completion()
        ctx = handle.ctx
        assert run.spill_events > 0
        assert any(n.op is Op.HASH_JOIN for n in run.nodes)  # blocking build
        assert [R for R, _ in seen] == list(range(len(run.times)))
        assert (ctx.pipe_first_row[1:] > 0).any(), "every pipeline at t=0"
        for R, recorded in seen:
            assert np.array_equal(np.isfinite(recorded),
                                  ctx.pipe_first_row <= R), R


# ---------------------------------------------------------------------------
# the online bounds, held to a walk of the plan
# ---------------------------------------------------------------------------

def reference_bounds(ctx, seen: set) -> tuple[np.ndarray, np.ndarray]:
    """[6]'s worst-case bounds of the live counters, by the per-node walk
    (:func:`walk_bounds`)."""
    return walk_bounds(ctx, np.array(ctx.counters.K),
                       list(ctx.counters.done), seen)


def walk_bounds(ctx, K: np.ndarray, done, seen: set
                ) -> tuple[np.ndarray, np.ndarray]:
    """[6]'s worst-case bounds of counters ``K`` and done flags ``done``
    by walking ``ctx``'s plan node by node.

    The executor lays each plan's rules out once and the log runs that
    table over blocks of rows; this is the per-node definition every row
    must equal bit for bit.  ``seen`` collects the rule cases the walk
    took.
    """
    table_rows = np.array([n.table_rows for n in ctx.nodes])
    nodes = list(ctx.plan.walk())
    lb = K.copy()
    ub = np.full(ctx.plan.n_nodes, UNBOUNDED)
    for node in reversed(nodes):
        i = node.node_id
        if done[i]:
            seen.add("finished")
            ub[i] = K[i]
            continue
        op = node.op
        seen.add(op.name)
        if op in (Op.TABLE_SCAN, Op.INDEX_SCAN, Op.INDEX_SEEK):
            ub[i] = table_rows[i]
        elif op in (Op.FILTER, Op.BATCH_SORT):
            ub[i] = ub[node.children[0].node_id]
        elif op in (Op.SORT, Op.HASH_AGG):
            c = node.children[0].node_id
            seen.add(f"{op.name} child done={bool(done[c])}")
            ub[i] = max(K[i], K[c]) if done[c] else ub[c]
        elif op == Op.STREAM_AGG:
            c = node.children[0].node_id
            if node.params.get("group_cols"):
                seen.add(f"grouped STREAM_AGG child done={bool(done[c])}")
                ub[i] = K[i] + 1.0 if done[c] else ub[c]
            else:
                seen.add("scalar STREAM_AGG")
                ub[i] = 1.0
        elif op == Op.TOP:
            ub[i] = min(float(node.params["k"]),
                        ub[node.children[0].node_id])
        elif op in (Op.HASH_JOIN, Op.MERGE_JOIN, Op.NESTED_LOOP_JOIN):
            kind = node.params.get("join_kind", "inner")
            seen.add(f"{kind} join")
            outer = ub[node.children[0].node_id]
            if kind in ("semi", "anti"):
                ub[i] = outer
            else:
                inner = ub[node.children[1].node_id]
                ub[i] = min(max(outer, 1.0) * max(inner, 1.0), UNBOUNDED)
        else:
            ub[i] = UNBOUNDED
    for node in nodes:
        if node.op is not Op.NESTED_LOOP_JOIN:
            continue
        outer_id = node.children[0].node_id
        for inner in reversed(list(node.children[1].walk())):
            i = inner.node_id
            if done[i]:
                continue
            seen.add(f"probe-side {inner.op.name}")
            if inner.op is Op.INDEX_SEEK:
                ub[i] = min(max(ub[outer_id], 1.0)
                            * max(table_rows[i], 1.0), UNBOUNDED)
            else:
                ub[i] = ub[inner.children[0].node_id]
    np.minimum(ub, UNBOUNDED, out=ub)
    np.maximum(ub, lb, out=ub)
    return lb, ub


def _scan(table):
    return PlanNode(Op.INDEX_SCAN, table=table)


def _low_dims():
    return PlanNode(Op.FILTER, [PlanNode(Op.TABLE_SCAN, table="dim")],
                    predicates=[FilterSpec("dim", "d_key", "<", 20)])


def _bound_plans():
    """(name, plan, memory budget): between them every bound rule, each
    blocking operator before and after its input finishes, and spills."""
    probe = PlanNode(Op.FILTER,
                     [PlanNode(Op.INDEX_SEEK, table="fact", column="f_dim")],
                     predicates=[FilterSpec("fact", "f_value", "<=", 60.0)])
    outer = PlanNode(Op.BATCH_SORT, [_low_dims()], keys=["d_key"],
                     initial_batch=4, growth=2.0)
    nlj = PlanNode(Op.NESTED_LOOP_JOIN, [outer, probe], outer_key="d_key")
    yield "top over a nested-loop probe chain", PlanNode(
        Op.TOP, [PlanNode(Op.FILTER, [nlj], predicates=[
            FilterSpec("fact", "f_value", ">=", 5.0)])], k=300), 1 << 22
    left = PlanNode(Op.HASH_JOIN, [_scan("fact"), _low_dims()],
                    probe_key="f_dim", build_key="d_key", join_kind="left")
    yield "hash aggregate over a left join, spilling", PlanNode(
        Op.HASH_AGG, [left], group_cols=["f_key"],
        aggs=[Aggregate("count")]), 2048
    semi = PlanNode(Op.HASH_JOIN, [_scan("fact"), _low_dims()],
                    probe_key="f_dim", build_key="d_key", join_kind="semi")
    yield "grouped stream aggregate over a sorted semi join", PlanNode(
        Op.STREAM_AGG, [PlanNode(Op.SORT, [semi], keys=["f_key"])],
        group_cols=["f_key"], aggs=[Aggregate("sum", "f_value")]), 1 << 22
    anti = PlanNode(Op.HASH_JOIN, [_scan("fact"), _low_dims()],
                    probe_key="f_dim", build_key="d_key", join_kind="anti")
    yield "scalar aggregate over an anti join", PlanNode(
        Op.STREAM_AGG, [anti], group_cols=[],
        aggs=[Aggregate("count")]), 1 << 22
    seek = PlanNode(Op.INDEX_SEEK, table="fact", column="f_dim",
                    low=5, high=30)
    yield "merge join over a range seek", PlanNode(
        Op.MERGE_JOIN, [_scan("dim"), seek],
        outer_key="d_key", inner_key="f_dim"), 1 << 22


def test_bounds_equal_per_node_walk_at_every_observation(unit_db):
    """At every observation of executions that cover every bound rule, the
    logged ``LB``/``UB`` are the bits of the per-node walk of the plan.
    A rule table out of bottom-up order reads a child's bound before it
    is set and fails here."""
    seen: set = set()
    spilled = 0

    def check(ctx):
        lb, ub = reference_bounds(ctx, seen)
        logged = ctx.log.as_arrays()
        assert logged["LB"][-1].tobytes() == lb.tobytes()
        assert logged["UB"][-1].tobytes() == ub.tobytes()

    for name, plan, budget in _bound_plans():
        config = ExecutorConfig(batch_size=64, seed=3,
                                memory_budget_bytes=float(budget),
                                target_observations=2000,
                                max_observations=4000)
        run = QueryExecutor(unit_db, config, on_observation=check).execute(
            plan.finalize(), query_name=name)
        spilled += run.spill_events
    assert spilled > 0
    assert seen >= {
        "finished", "TABLE_SCAN", "INDEX_SCAN", "INDEX_SEEK", "FILTER",
        "BATCH_SORT", "SORT child done=False", "SORT child done=True",
        "HASH_AGG child done=False", "HASH_AGG child done=True",
        "grouped STREAM_AGG child done=False",
        "grouped STREAM_AGG child done=True", "scalar STREAM_AGG", "TOP",
        "inner join", "left join", "semi join", "anti join",
        "probe-side INDEX_SEEK", "probe-side FILTER"}, seen


def test_bounds_filled_when_read_equal_per_node_walk(unit_db):
    """With no observation callback, the log fills bounds in only when it
    is read.  Reads at seeded random points, whole or as a prefix, fill
    blocks of rows that span buffer doublings and done-flag transitions;
    at every read every row's ``LB``/``UB`` are the bits of the per-node
    walk of that row's logged ``K``/``D``, and no view handed out earlier
    ever changes."""
    rng = np.random.default_rng(7)
    seen: set = set()
    spans = {"doubling": 0, "done flips": 0}
    for name, plan, budget in _bound_plans():
        config = ExecutorConfig(batch_size=64, seed=3,
                                memory_budget_bytes=float(budget),
                                target_observations=2000,
                                max_observations=4000)
        handle = QueryExecutor(unit_db, config).begin(plan.finalize(),
                                                      query_name=name)
        ctx = handle.ctx
        want_lb, want_ub = [], []  # the walk of each row, once
        views = []
        filled = 0
        working = True
        while working:
            working = handle.step()
            if working and rng.random() < 0.7:
                continue
            T = len(ctx.log)
            whole = not working or rng.random() < 0.5
            stop = None if whole else int(rng.integers(0, T + 3))
            arrays = ctx.log.as_arrays(stop)
            assert len(arrays["times"]) == (T if whole else min(stop, T))
            full = ctx.log.as_arrays()
            for r in range(len(want_ub), T):
                lb, ub = walk_bounds(ctx, full["K"][r], full["D"][r], seen)
                want_lb.append(lb)
                want_ub.append(ub)
            for view in (arrays, full):
                t = len(view["times"])
                assert view["LB"].tobytes() == np.array(
                    want_lb[:t]).reshape(t, -1).tobytes(), name
                assert view["UB"].tobytes() == np.array(
                    want_ub[:t]).reshape(t, -1).tobytes(), name
            # the block of rows this read filled in: written before and
            # after a doubling, or with a done flag changing inside it
            if any(filled < INITIAL_CAPACITY << j < T for j in range(8)):
                spans["doubling"] += 1
            block = full["D"][filled:T]
            if (block[1:] != block[:-1]).any():
                spans["done flips"] += 1
            filled = T
            views.append((arrays, {k: v.copy() for k, v in arrays.items()}))
        for view, frozen in views:
            for key, column in view.items():
                assert column.tobytes() == frozen[key].tobytes(), (name, key)
        run = handle.result
        assert run.UB.tobytes() == np.array(want_ub).tobytes(), name
        assert run.LB.tobytes() == np.array(want_lb).tobytes(), name
    assert spans["doubling"] > 0 and spans["done flips"] > 0, spans
    assert {"finished", "probe-side INDEX_SEEK", "TOP",
            "HASH_AGG child done=True"} <= seen, seen


def test_finished_live_execution_dies_by_reference_count(unit_db):
    """A live execution served to completion and released leaves no
    reference cycle through its context: with the cyclic collector off,
    its :class:`ExecContext` and :class:`ObservationLog` are freed as soon
    as the service drops the handle.  (A log holding anything that refers
    back to its context — a bound method, say — would keep both alive
    until the next collection.)"""
    _, plan, budget = next(_bound_plans())
    plan.finalize()
    config = ExecutorConfig(batch_size=64, seed=3,
                            memory_budget_bytes=float(budget),
                            target_observations=200)
    gc.collect()
    gc.disable()
    try:
        service = ProgressService(ProgressMonitor(fallback="dne",
                                                  refresh_every=3))
        sid = service.submit(unit_db, plan, "q", config)
        results = service.run_until_complete()
        assert results[sid][1], "the execution served no report"
        ctx = service.sessions[sid].handle_ctx
        ctx_ref, log_ref = weakref.ref(ctx), weakref.ref(ctx.log)
        assert len(ctx.log) > 10
        del ctx, results
        service.release_session(sid)
        assert ctx_ref() is None, "the execution context outlived its handle"
        assert log_ref() is None, "the observation log outlived its handle"
    finally:
        gc.enable()
