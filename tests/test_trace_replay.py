"""Tests for replay-backed monitoring and replayed service sessions.

Replay transparency is the mirror image of the service's pooling
transparency: feeding a *recording* through the monitor/service stack must
produce the bit-identical ProgressReport streams the live execution
produced — same snapshot cadence, same feature vectors, same selections —
while never touching the engine.
"""

import dataclasses
import gc
import weakref
from pathlib import Path

import numpy as np
import pytest

from repro.core.monitor import ProgressMonitor
from repro.core.training import (
    collect_training_data,
    runs_to_pipelines,
    train_selector,
)
from repro.engine.executor import ExecutorConfig
from repro.features.vector import FeatureExtractor
from repro.learning.mart import MARTParams
from repro.progress.registry import all_estimators
from repro.runtime.transport import runs_from_payload, runs_to_payload
from repro.service import ProgressService
from repro.trace import ReplayExecutor, ReplayHandle, read_trace, replay_monitor
from repro.trace.replay import ReplayContext

FAST_MART = MARTParams(n_trees=8, max_leaves=4)
SEEDS = (2, 3, 4)


def _config(seed):
    return ExecutorConfig(batch_size=256, target_observations=60, seed=seed)


@pytest.fixture(scope="module")
def monitor(pipeline_runs):
    estimators = all_estimators()
    static = collect_training_data(
        pipeline_runs, estimators, FeatureExtractor("static"))
    dynamic = collect_training_data(
        pipeline_runs, estimators,
        FeatureExtractor("dynamic"))
    return ProgressMonitor(static_selector=train_selector(static, FAST_MART),
                           dynamic_selector=train_selector(dynamic, FAST_MART),
                           refresh_every=3)


@pytest.fixture(scope="module")
def live(tpch_db, tpch_planner, join_query, monitor):
    """Live monitored executions: seed -> (run, reports)."""
    out = {}
    for seed in SEEDS:
        run, reports = monitor.run(tpch_db, tpch_planner.plan(join_query),
                                   query_name=f"seed{seed}",
                                   config=_config(seed))
        out[seed] = (run, reports)
    return out


class TestReplayHandle:
    def test_steps_through_all_observations(self, live):
        run, _ = live[SEEDS[0]]
        handle = ReplayHandle(run)

        def last_time():
            return handle.ctx.log.as_arrays()["times"][-1]

        seen = [last_time()]  # the t=0 snapshot is there at __init__
        assert not handle.done
        steps = 0
        while handle.step():
            steps += 1
            seen.append(last_time())
        assert handle.done
        assert steps == len(run.times) - 1
        assert seen == list(run.times)
        assert handle.result is run

    def test_result_before_done_raises(self, live):
        run, _ = live[SEEDS[0]]
        with pytest.raises(RuntimeError):
            ReplayHandle(run).result

    def test_step_after_done_is_noop(self, live):
        run, _ = live[SEEDS[0]]
        handle = ReplayHandle(run)
        handle.run_to_completion()
        assert handle.step() is False

    def test_run_without_done_matrix_rejected(self, live):
        run, _ = live[SEEDS[0]]
        stripped = dataclasses.replace(run, D=None)
        with pytest.raises(ValueError, match="done-flag"):
            ReplayExecutor(stripped)

    def test_context_tracks_recorded_counters(self, live):
        run, _ = live[SEEDS[0]]
        ctx = ReplayContext(run)
        mid = len(run.times) // 2
        ctx.seek(mid)
        arrays = ctx.log.as_arrays()
        assert len(ctx.log) == mid + 1
        assert arrays["times"][-1] == run.times[mid]
        assert np.array_equal(arrays["K"][-1], run.K[mid])
        assert np.array_equal(arrays["D"][-1], run.D[mid])
        assert arrays["K"].shape == (mid + 1, run.n_nodes)
        with pytest.raises(IndexError):
            ctx.seek(len(run.times))


    def test_start_row_follows_recorded_start_times(self, live, join_run):
        """Replay's ``pipe_first_row`` keeps the recorded rule: started at
        row ``R`` iff ``t_start <= times[R]`` (never, for NaN starts)."""
        for run in [join_run] + [live[seed][0] for seed in SEEDS]:
            ctx = ReplayContext(run)
            t_start = np.array([p.t_start for p in run.pipelines])
            assert np.array_equal(ctx.pipe_first, t_start, equal_nan=True)
            for R, now in enumerate(run.times):
                assert np.array_equal(ctx.pipe_first_row <= R,
                                      t_start <= now), R


class TestReplayTransparency:
    def test_solo_replay_matches_live_reports(self, live, monitor):
        for seed in SEEDS:
            run, live_reports = live[seed]
            assert replay_monitor(monitor, run) == live_reports

    def test_replay_after_disk_round_trip(self, live, monitor, tmp_path):
        run, live_reports = live[SEEDS[0]]
        path = run.to_trace(tmp_path / "t")
        from repro.engine.run import QueryRun

        assert replay_monitor(monitor, QueryRun.from_trace(path)) \
            == live_reports

    def test_service_replay_sessions_match_live_reports(self, live, monitor):
        service = ProgressService(monitor, slice_steps=4)
        for seed in SEEDS:
            service.submit_replay(live[seed][0])
        results = service.run_until_complete(max_ticks=100_000)
        for sid, seed in enumerate(SEEDS):
            replayed_run, reports = results[sid]
            assert reports == live[seed][1]
            assert replayed_run is live[seed][0]

    def test_mixed_live_and_replayed_sessions(self, tpch_db, tpch_planner,
                                              join_query, live, monitor):
        service = ProgressService(monitor, slice_steps=4)
        live_sid = service.submit(tpch_db, tpch_planner.plan(join_query),
                                  query_name="live",
                                  config=_config(SEEDS[0]))
        replay_sid = service.submit_replay(live[SEEDS[1]][0])
        results = service.run_until_complete(max_ticks=100_000)
        assert results[live_sid][1] == live[SEEDS[0]][1]
        assert results[replay_sid][1] == live[SEEDS[1]][1]

    def test_replayed_selections_still_batched(self, live, monitor):
        service = ProgressService(monitor, slice_steps=4)
        for seed in SEEDS:
            service.submit_replay(live[seed][0])
        service.run_until_complete(max_ticks=100_000)
        stats = service.scorer.stats
        assert stats.rows >= len(SEEDS)
        assert stats.batches < stats.rows


def test_released_replay_session_frees_its_run_without_gc():
    """A replay session holds its recording in no reference cycle: once it
    has run to completion and been released, reference counting alone
    frees the run."""
    from golden.regenerate import MIN_OBSERVATIONS, report_monitors

    runs, _ = read_trace(Path(__file__).resolve().parent / "golden" / "tpch")
    monitor = report_monitors(
        runs_to_pipelines(runs, MIN_OBSERVATIONS))["trained"]
    run = runs_from_payload(runs_to_payload(runs[:1]))[0]
    ref = weakref.ref(run)
    gc.disable()
    try:
        service = ProgressService(monitor, slice_steps=4)
        sid = service.submit_replay(run)
        del run
        assert service.run_until_complete()[sid][1]
        assert ref() is not None  # still held by the finished session
        service.release_session(sid)
        assert ref() is None
    finally:
        gc.enable()
