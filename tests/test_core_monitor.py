"""Tests for the online progress monitor."""

import numpy as np
import pytest

from repro.core.monitor import ProgressMonitor
from repro.core.training import collect_training_data, train_selector
from repro.engine.executor import ExecutorConfig, QueryExecutor
from repro.features.vector import FeatureExtractor
from repro.fuzz.oracle import reference_progress
from repro.learning.mart import MARTParams
from repro.progress.dne import DNEEstimator
from repro.progress.registry import all_estimators
from repro.service import ProgressService
from repro.service.session import SessionStatus

FAST_MART = MARTParams(n_trees=8, max_leaves=4)


@pytest.fixture(scope="module")
def trained_selectors(pipeline_runs):
    estimators = all_estimators()
    static_data = collect_training_data(
        pipeline_runs, estimators, FeatureExtractor("static"))
    dynamic_data = collect_training_data(
        pipeline_runs, estimators,
        FeatureExtractor("dynamic", estimators=estimators))
    return (train_selector(static_data, FAST_MART),
            train_selector(dynamic_data, FAST_MART))


@pytest.fixture(scope="module")
def monitored(tpch_db, tpch_planner, join_query, trained_selectors):
    static_sel, dynamic_sel = trained_selectors
    monitor = ProgressMonitor(static_selector=static_sel,
                              dynamic_selector=dynamic_sel,
                              refresh_every=3)
    plan = tpch_planner.plan(join_query)
    config = ExecutorConfig(batch_size=256, target_observations=60, seed=2)
    return monitor.run(tpch_db, plan, config=config)


class TestProgressMonitor:
    def test_fallback_validation(self):
        with pytest.raises(ValueError):
            ProgressMonitor(fallback="nonexistent")

    def test_produces_reports(self, monitored):
        _, reports = monitored
        assert len(reports) >= 5

    def test_reports_causal_and_ordered(self, monitored):
        _, reports = monitored
        times = [r.time for r in reports]
        assert times == sorted(times)

    def test_progress_in_range(self, monitored):
        _, reports = monitored
        for report in reports:
            assert 0.0 <= report.progress <= 1.0
            for value in report.pipeline_progress.values():
                assert 0.0 <= value <= 1.0

    def test_progress_reaches_near_completion(self, monitored):
        _, reports = monitored
        assert reports[-1].progress >= 0.8

    def test_active_pipeline_advances(self, monitored):
        _, reports = monitored
        pids = [r.active_pid for r in reports if r.active_pid >= 0]
        assert pids == sorted(pids) or len(set(pids)) <= 2

    def test_estimator_choices_from_pool(self, monitored):
        _, reports = monitored
        pool = {e.name for e in all_estimators()}
        for report in reports:
            for name in report.pipeline_estimator.values():
                assert name in pool

    def test_without_selectors_uses_fallback(self, tpch_db, tpch_planner,
                                             join_query):
        monitor = ProgressMonitor(fallback="tgn", refresh_every=4)
        plan = tpch_planner.plan(join_query)
        config = ExecutorConfig(batch_size=256, target_observations=40, seed=3)
        run, reports = monitor.run(tpch_db, plan, config=config)
        assert reports
        names = {n for r in reports for n in r.pipeline_estimator.values()}
        assert names == {"tgn"}

    def test_on_report_hook_called(self, tpch_db, tpch_planner, join_query):
        seen = []
        monitor = ProgressMonitor(on_report=seen.append, refresh_every=5)
        plan = tpch_planner.plan(join_query)
        config = ExecutorConfig(batch_size=256, target_observations=40, seed=3)
        _, reports = monitor.run(tpch_db, plan, config=config)
        assert len(seen) == len(reports)

    def test_run_returns_standard_queryrun(self, monitored):
        run, _ = monitored
        assert np.allclose(run.K[-1], run.N)
        assert run.total_time > 0


class TestIncrementalMonitor:
    """Served reports against the batch definition: each running
    pipeline's value is its chosen estimator's ``estimate`` on the causal
    prefix of the report's row (the fuzz oracle's ``kernel`` reference)."""

    @pytest.mark.parametrize("refresh_every", [1, 3])
    def test_reports_bit_identical_to_batch_path(
            self, tpch_db, tpch_planner, join_query, trained_selectors,
            refresh_every):
        static_sel, dynamic_sel = trained_selectors
        monitor = ProgressMonitor(static_selector=static_sel,
                                  dynamic_selector=dynamic_sel,
                                  refresh_every=refresh_every)
        config = ExecutorConfig(batch_size=256, target_observations=60,
                                seed=2)
        run, reports = monitor.run(tpch_db, tpch_planner.plan(join_query),
                                   config=config)
        assert reports, "monitor produced no reports"
        assert len(reports) == len(run.times) // refresh_every
        assert ([r.pipeline_progress for r in reports]
                == reference_progress(run, reports, monitor))

    def test_fallback_only_pool_matches_batch(self, tpch_db, tpch_planner,
                                              join_query):
        monitor = ProgressMonitor(fallback="luo", refresh_every=2)
        config = ExecutorConfig(batch_size=256, target_observations=40,
                                seed=3)
        run, reports = monitor.run(tpch_db, tpch_planner.plan(join_query),
                                   config=config)
        assert reports
        assert ([r.pipeline_progress for r in reports]
                == reference_progress(run, reports, monitor))


class TestKernelLifecycle:
    """Kernel slots follow pipeline lifetimes; pools need kernels."""

    @pytest.fixture(scope="class")
    def recordings(self, tpch_db, tpch_planner, join_query):
        return [QueryExecutor(tpch_db, ExecutorConfig(
                    batch_size=256, target_observations=40, seed=seed)
                ).execute(tpch_planner.plan(join_query), f"seed{seed}")
                for seed in (5, 6, 7)]

    def test_slots_released_after_drain(self, tpch_db, tpch_planner,
                                        join_query, recordings):
        service = ProgressService(ProgressMonitor(fallback="luo",
                                                  refresh_every=1),
                                  slice_steps=4, max_live=2)
        for run in recordings:
            service.submit_replay(run)
        service.submit(tpch_db, tpch_planner.plan(join_query), "live",
                       ExecutorConfig(batch_size=256, target_observations=40,
                                      seed=8))
        service.run_until_complete(max_ticks=100_000)
        flush = service._vector
        assert flush.pool.n_live == 0
        assert all(meta is None for meta in flush.pool.metas)
        luo = flush.states["luo"]
        assert (luo.count == 0).all() and (luo.wpos == 0).all()
        for session in service.sessions:
            # the final observation reports every pipeline done and drops
            # its capture bookkeeping
            assert session.state.metas == {}
            assert session.state.cursors == {}

    def test_live_slots_bounded_by_running_pipelines(self, recordings):
        service = ProgressService(ProgressMonitor(refresh_every=1),
                                  slice_steps=3)
        for run in recordings:
            service.submit_replay(run)
        peak = 0
        while service.tick():
            # refresh_every=1: every replayed row was reported, so a slot
            # exists only for a pipeline running at its session's last row
            running = 0
            for session in service.sessions:
                if session.status is not SessionStatus.RUNNING:
                    continue
                ctx = session.handle_ctx
                R = len(ctx.log) - 1
                done = ctx.log.as_arrays()["D"][R]
                for pipe in ctx.pipelines:
                    if (ctx.pipe_first_row[pipe.pid] <= R
                            and not done[pipe.terminal.node_id]):
                        running += 1
            live = service._vector.pool.n_live
            assert live <= running
            peak = max(peak, live)
        assert peak >= 2, "the drain never held concurrent slots"

    def test_pool_without_kernel_rejected(self):
        class Tweaked(DNEEstimator):
            name = "tweaked"

        with pytest.raises(ValueError, match="Tweaked"):
            ProgressMonitor(estimators=all_estimators() + [Tweaked()])
        with pytest.raises(ValueError, match="no SoA kernel"):
            ProgressMonitor(estimators=[Tweaked()], fallback="tweaked")
