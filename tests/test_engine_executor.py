"""Invariant tests for executed query runs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.executor import ExecutorConfig, QueryExecutor
from repro.plan.nodes import Op


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
