"""Tests for the online progress monitor."""

from pathlib import Path

import numpy as np
import pytest

from repro.core.monitor import ProgressMonitor
from repro.core.training import (
    collect_training_data,
    runs_to_pipelines,
    train_selector,
)
from repro.engine.executor import ExecutorConfig, QueryExecutor
from repro.features.vector import FeatureExtractor
from repro.fuzz.oracle import (
    OracleContext,
    check_kernel_parity,
    reference_progress,
)
from repro.learning.mart import MARTParams
from repro.progress.dne import DNEEstimator
from repro.progress.luo import LuoEstimator
from repro.progress.registry import all_estimators, original_estimators
from repro.service import ProgressService
from repro.service.batched import VectorizedFlush
from repro.service.session import SessionStatus
from repro.trace import read_trace
from repro.trace.replay import replay_monitor

FAST_MART = MARTParams(n_trees=8, max_leaves=4)


@pytest.fixture(scope="module")
def trained_selectors(pipeline_runs):
    estimators = all_estimators()
    static_data = collect_training_data(
        pipeline_runs, estimators, FeatureExtractor("static"))
    dynamic_data = collect_training_data(
        pipeline_runs, estimators,
        FeatureExtractor("dynamic"))
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
    """Pipeline records follow pipeline lifetimes; pools need kernels."""

    @pytest.fixture(scope="class")
    def recordings(self, tpch_db, tpch_planner, join_query):
        return [QueryExecutor(tpch_db, ExecutorConfig(
                    batch_size=256, target_observations=40, seed=seed)
                ).execute(tpch_planner.plan(join_query), f"seed{seed}")
                for seed in (5, 6, 7)]

    def test_no_records_after_drain(self, tpch_db, tpch_planner,
                                    join_query, recordings):
        # refresh_every=7: a session may end on a row no report is due at
        for refresh_every in (1, 7):
            service = ProgressService(
                ProgressMonitor(fallback="luo", refresh_every=refresh_every),
                slice_steps=4, max_live=2)
            for run in recordings:
                service.submit_replay(run)
            service.submit(tpch_db, tpch_planner.plan(join_query), "live",
                           ExecutorConfig(batch_size=256,
                                          target_observations=40, seed=8))
            service.run_until_complete(max_ticks=100_000)
            assert all(s.done for s in service.sessions)
            assert all(s.pipe_records == {} for s in service.sessions)
            # the flush keeps nothing of its own across rounds
            assert set(vars(service._vector)) == {"monitor", "states",
                                                  "_luo"}

    @pytest.mark.parametrize("fallback", ["luo", "dne"])
    def test_batch_holds_report_rows_and_luo_window_starts(
            self, recordings, fallback, monkeypatch):
        """A flush gathers exactly its report rows, plus one row per
        report row LUO serves: the first row of its speed window."""
        window = LuoEstimator().speed_window
        gather = VectorizedFlush._gather
        gathered = []

        def spy(flush, plan, segments):
            batch = gather(flush, plan, segments)
            timed = 0
            luo = np.zeros(len(plan.cell_pid), dtype=bool)
            for _, lo, hi in segments:
                luo[lo:hi] = True
            for run in plan.runs:
                meta, log = run.meta, plan.logs[run.s]
                first = plan.firsts[run.s, run.pid]
                m = meta.n_nodes
                for cell in range(run.c0, run.c0 + run.n):
                    # batch row ``cell`` is the cell's report row
                    row = plan.rows[plan.cell_report[cell]]
                    assert batch.metas[batch.owner[cell]] is meta
                    assert np.array_equal(batch.K[cell, :m],
                                          log["K"][row, meta.node_ids])
                    start = batch.window_row[cell]
                    if not luo[cell]:
                        assert start == cell
                        continue
                    timed += 1
                    elapsed = log["times"] - meta.t_start
                    want = first
                    while (want < row
                           and elapsed[row] - elapsed[want] > window):
                        want += 1
                    assert start != cell
                    assert batch.metas[batch.owner[start]] is meta
                    assert batch.times[start] == log["times"][want]
                    assert np.array_equal(batch.K[start, :m],
                                          log["K"][want, meta.node_ids])
            assert len(batch) == len(plan.cell_pid) + timed
            gathered.append(timed)
            return batch

        monkeypatch.setattr(VectorizedFlush, "_gather", spy)
        service = ProgressService(ProgressMonitor(fallback=fallback,
                                                  refresh_every=3),
                                  slice_steps=4)
        for run in recordings:
            service.submit_replay(run)
        service.run_until_complete(max_ticks=100_000)
        assert gathered
        assert (sum(gathered) > 0) == (fallback == "luo")

    def test_records_only_for_running_pipelines(self, recordings):
        service = ProgressService(ProgressMonitor(refresh_every=1),
                                  slice_steps=3)
        for run in recordings:
            service.submit_replay(run)
        peak = 0
        while service.tick():
            # refresh_every=1: every replayed row was reported, so a record
            # exists only for a pipeline running at its session's last row
            held = 0
            for session in service.sessions:
                if session.status is not SessionStatus.RUNNING:
                    assert session.pipe_records == {}
                    continue
                ctx = session.handle_ctx
                R = len(ctx.log) - 1
                done = ctx.log.as_arrays()["D"][R]
                running = {pipe.pid for pipe in ctx.pipelines
                           if ctx.pipe_first_row[pipe.pid] <= R
                           and not done[pipe.node_ids[0]]}
                assert set(session.pipe_records) <= running
                held += len(session.pipe_records)
            peak = max(peak, held)
        assert peak >= 2, "the drain never held concurrent records"

    def test_pool_without_kernel_rejected(self):
        class Tweaked(DNEEstimator):
            name = "tweaked"

        with pytest.raises(ValueError, match="Tweaked"):
            ProgressMonitor(estimators=all_estimators() + [Tweaked()])
        with pytest.raises(ValueError, match="no SoA kernel"):
            ProgressMonitor(estimators=[Tweaked()], fallback="tweaked")


class TestNarrowedPool:
    """The dynamic features are a fixed definition over six estimators,
    not over the candidate pool a monitor selects among."""

    def test_original_pool_serves_through_the_dynamic_revision(self):
        golden = Path(__file__).resolve().parent / "golden" / "tpch"
        runs, manifest = read_trace(golden)
        pipelines = runs_to_pipelines(
            runs, min_observations=manifest["meta"]["min_observations"])
        data = collect_training_data(pipelines, all_estimators(),
                                     FeatureExtractor("dynamic"))
        pool = ["dne", "tgn", "luo"]
        selector = train_selector(data.restrict_estimators(pool), FAST_MART)
        monitor = ProgressMonitor(dynamic_selector=selector,
                                  estimators=original_estimators())
        reports = replay_monitor(monitor, runs[0])
        assert reports
        chosen = {name for r in reports
                  for name in r.pipeline_estimator.values()}
        assert chosen <= set(pool)
        check_kernel_parity(runs[0], reports, monitor, OracleContext(
            seed=0, repro="python -m pytest tests/test_core_monitor.py",
            query=runs[0].query_name))
