"""Tests for the concurrent multi-query progress service.

The load-bearing property is *pooling transparency*: a query monitored
inside the pooled service — time-sliced against other queries, with its
estimator selections scored in cross-session batches — must produce the
bit-identical ProgressReport sequence a solo ProgressMonitor produces for
the same seed.  Batching may change when scoring happens, never what it
computes.
"""

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
from repro.query.logical import JoinEdge, QuerySpec
from repro.query.predicates import FilterSpec
from repro.service import (
    BatchedSelectorScorer,
    ProgressService,
    RoundRobinScheduler,
    SessionStatus,
    ShardedProgressService,
)
from repro.trace.format import ReportBlock
from repro.trace.replay import replay_monitor

from helpers import extract

pytestmark = pytest.mark.slow  # execution-backed: live multi-query runs

FAST_MART = MARTParams(n_trees=8, max_leaves=4)
SEEDS = (2, 3, 4, 5)


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
def monitor(trained_selectors):
    static_sel, dynamic_sel = trained_selectors
    return ProgressMonitor(static_selector=static_sel,
                           dynamic_selector=dynamic_sel,
                           refresh_every=3)


@pytest.fixture(scope="module")
def streaming_query():
    """A join whose root streams chunks (no blocking sort/agg at the top),
    so execution takes many resumable steps and sessions visibly
    interleave."""
    return QuerySpec(
        name="streaming_join",
        tables=["orders", "lineitem"],
        joins=[JoinEdge("orders", "o_orderkey", "lineitem", "l_orderkey")],
        filters=[FilterSpec("lineitem", "l_quantity", ">=", 2.0)],
    )


def _config(seed):
    return ExecutorConfig(batch_size=256, target_observations=60, seed=seed)


class TestExecutionHandle:
    def test_step_loop_equals_execute(self, tpch_db, tpch_planner, join_query):
        plan_a = tpch_planner.plan(join_query)
        plan_b = tpch_planner.plan(join_query)
        ex = QueryExecutor(tpch_db, _config(7))
        run_a = ex.execute(plan_a, query_name="a")
        handle = QueryExecutor(tpch_db, _config(7)).begin(plan_b, "b")
        steps = 0
        while handle.step():
            steps += 1
        run_b = handle.result
        assert steps >= 2  # open + at least one chunk pull
        assert run_a.total_time == run_b.total_time
        assert np.array_equal(run_a.times, run_b.times)
        assert np.array_equal(run_a.K, run_b.K)
        assert np.array_equal(run_a.N, run_b.N)

    def test_result_before_done_raises(self, tpch_db, tpch_planner,
                                       join_query):
        handle = QueryExecutor(tpch_db, _config(7)).begin(
            tpch_planner.plan(join_query))
        with pytest.raises(RuntimeError):
            handle.result

    def test_step_after_done_is_noop(self, tpch_db, tpch_planner, join_query):
        handle = QueryExecutor(tpch_db, _config(7)).begin(
            tpch_planner.plan(join_query))
        handle.run_to_completion()
        assert handle.done
        assert handle.step() is False


class TestPoolingTransparency:
    @pytest.fixture(scope="class")
    def solo_reports(self, tpch_db, tpch_planner, join_query, monitor):
        out = {}
        for seed in SEEDS:
            _, reports = monitor.run(tpch_db, tpch_planner.plan(join_query),
                                     config=_config(seed))
            out[seed] = reports
        return out

    @pytest.fixture(scope="class")
    def pooled(self, tpch_db, tpch_planner, join_query, monitor):
        service = ProgressService(monitor, slice_steps=4)
        for seed in SEEDS:
            service.submit(tpch_db, tpch_planner.plan(join_query),
                           query_name=f"seed{seed}", config=_config(seed))
        results = service.run_until_complete(max_ticks=10_000)
        return service, results

    def test_identical_report_sequences(self, solo_reports, pooled):
        _, results = pooled
        for sid, seed in enumerate(SEEDS):
            _, pooled_reports = results[sid]
            assert pooled_reports == solo_reports[seed]

    def test_identical_query_runs(self, tpch_db, tpch_planner, join_query,
                                  pooled):
        _, results = pooled
        solo = QueryExecutor(tpch_db, _config(SEEDS[0])).execute(
            tpch_planner.plan(join_query))
        pooled_run, _ = results[0]
        assert pooled_run.total_time == solo.total_time
        assert np.array_equal(pooled_run.K, solo.K)

    def test_selections_were_batched(self, pooled):
        service, results = pooled
        stats = service.scorer.stats
        n_selections = stats.rows
        assert n_selections >= len(SEEDS)  # at least one choice per query
        # Cross-session batching: far fewer scoring passes than selections.
        assert stats.batches < n_selections
        assert stats.rows_per_batch > 1.0

    def test_service_is_deterministic(self, tpch_db, tpch_planner, join_query,
                                      monitor, pooled):
        _, first = pooled
        service = ProgressService(monitor, slice_steps=4)
        for seed in SEEDS:
            service.submit(tpch_db, tpch_planner.plan(join_query),
                           query_name=f"seed{seed}", config=_config(seed))
        second = service.run_until_complete(max_ticks=10_000)
        for sid in range(len(SEEDS)):
            assert second[sid][1] == first[sid][1]


class TestScheduling:
    def test_sessions_interleave(self, tpch_db, tpch_planner, streaming_query,
                                 monitor):
        service = ProgressService(monitor, slice_steps=2)
        for seed in SEEDS:
            service.submit(tpch_db, tpch_planner.plan(streaming_query),
                           query_name=f"s{seed}", config=_config(seed))
        max_live_seen = 0
        ticks = 0
        while service.tick():
            ticks += 1
            live = sum(s.status is SessionStatus.RUNNING
                       for s in service.sessions)
            max_live_seen = max(max_live_seen, live)
            assert ticks < 10_000
        assert ticks >= 2  # work spans several rounds
        assert max_live_seen >= 2  # several queries genuinely in flight

    def test_admission_control(self, tpch_db, tpch_planner, streaming_query,
                               monitor):
        service = ProgressService(monitor, slice_steps=2, max_live=2)
        for seed in SEEDS:
            service.submit(tpch_db, tpch_planner.plan(streaming_query),
                           query_name=f"s{seed}", config=_config(seed))
        while service.tick():
            live = sum(s.status is SessionStatus.RUNNING
                       for s in service.sessions)
            assert live <= 2
        assert service.stats.sessions_completed == len(SEEDS)

    def test_round_robin_rotation(self, tpch_db, tpch_planner, join_query):
        """Every round runs the running sessions in submission order, so
        sessions that finish in one round complete in ascending id."""
        scheduler = RoundRobinScheduler(slice_steps=3)

        class Stub:
            status = SessionStatus.RUNNING

        class Finished:
            status = SessionStatus.DONE

        a, b, c = Stub(), Stub(), Stub()
        for _ in range(4):
            assert scheduler.plan_round([a, Finished(), b, c]) == [a, b, c]

        run = QueryExecutor(tpch_db, _config(2)).execute(
            tpch_planner.plan(join_query))
        completed = []
        service = ProgressService(
            ProgressMonitor(fallback="dne"), slice_steps=4,
            on_complete=lambda session: completed.append(
                (service.stats.ticks, session.session_id)))
        for _ in range(3):
            service.submit_replay(run)
        service.run_until_complete(max_ticks=10_000)
        tick = completed[0][0]
        # the three finish in one round that rotating each round's start
        # by its index would not leave in submission order
        assert (tick - 1) % 3 != 0
        assert completed == [(tick, 0), (tick, 1), (tick, 2)]

    def test_invalid_parameters(self, monitor):
        with pytest.raises(ValueError):
            RoundRobinScheduler(slice_steps=0)
        with pytest.raises(ValueError):
            ProgressService(monitor, max_live=0)


class TestServiceWithoutSelectors:
    def test_fallback_pool_matches_solo(self, tpch_db, tpch_planner,
                                        join_query):
        plain = ProgressMonitor(fallback="tgn", refresh_every=4)
        _, solo = plain.run(tpch_db, tpch_planner.plan(join_query),
                            config=_config(3))
        service = ProgressService(plain, slice_steps=4)
        service.submit(tpch_db, tpch_planner.plan(join_query),
                       config=_config(3))
        results = service.run_until_complete(max_ticks=10_000)
        _, pooled_reports = results[0]
        assert pooled_reports == solo
        names = {n for r in pooled_reports
                 for n in r.pipeline_estimator.values()}
        assert names == {"tgn"}
        assert service.scorer.stats.batches == 0  # nothing to score


class TestBatchedScorer:
    def test_batch_matches_single(self, trained_selectors, pipeline_runs):
        static_sel, _ = trained_selectors
        extractor = FeatureExtractor("static")
        X = list(extract(extractor, pipeline_runs))
        scorer = BatchedSelectorScorer(static_sel, None)
        batched = scorer.resolve([("static", x) for x in X])
        singles = [static_sel.select_one(x) for x in X]
        assert batched == singles
        assert scorer.stats.batches == 1
        assert scorer.stats.rows == len(X)

    def test_missing_selector_raises(self):
        scorer = BatchedSelectorScorer(None, None)
        with pytest.raises(RuntimeError):
            scorer.resolve([("static", np.zeros(4))])

    def test_on_block_hook(self, tpch_db, tpch_planner, join_query, monitor):
        """The hook gets one block per round that reported; its rows, in
        order, are the session's stream."""
        blocks = []
        service = ProgressService(monitor, slice_steps=4,
                                  on_block=blocks.append)
        service.submit(tpch_db, tpch_planner.plan(join_query),
                       config=_config(2))
        results = service.run_until_complete(max_ticks=10_000)
        _, reports = results[0]
        assert blocks and all(isinstance(block, ReportBlock)
                              for block in blocks)
        assert [pair for block in blocks for pair in block] == [
            (0, report) for report in reports]


@pytest.fixture(scope="module")
def replay_runs(tpch_db, tpch_planner, join_query):
    """Recorded executions of the join fixture (replay-service inputs)."""
    return [QueryExecutor(tpch_db, _config(seed)).execute(
                tpch_planner.plan(join_query), query_name=f"seed{seed}")
            for seed in SEEDS]


class TestVectorizedFlush:
    """The flush: one kernel per pool estimator, reports equal to the
    batch definition under pooling.

    The fuzz oracle's ``kernel`` and ``service`` layers sweep the same
    properties over randomized workloads; these are the deterministic
    fixture anchors.
    """

    def test_engages_only_for_native_incremental_pools(self, monitor):
        service = ProgressService(monitor)
        assert set(service._vector.states) == set(monitor.estimators)

        # a pool member without a native kernel never reaches a service
        class Tweaked(DNEEstimator):
            name = "tweaked"

        with pytest.raises(ValueError, match="Tweaked"):
            ProgressMonitor(estimators=all_estimators() + [Tweaked()])

    def test_replay_reports_match_estimate_reference(self, replay_runs,
                                                     monitor):
        service = ProgressService(monitor, slice_steps=5, max_live=3)
        for run in replay_runs:
            service.submit_replay(run)
        pooled = service.run_until_complete(max_ticks=100_000)
        for sid, run in enumerate(replay_runs):
            reports = pooled[sid][1]
            assert reports, "replay sessions must produce reports"
            assert reports == replay_monitor(monitor, run)
            assert ([r.pipeline_progress for r in reports]
                    == reference_progress(run, reports, monitor))

    def test_untrained_monitor_replay_parity(self, replay_runs):
        plain = ProgressMonitor(refresh_every=2)
        service = ProgressService(plain, slice_steps=3)
        for run in replay_runs:
            service.submit_replay(run)
        pooled = service.run_until_complete(max_ticks=100_000)
        for sid, run in enumerate(replay_runs):
            reports = pooled[sid][1]
            assert ([r.pipeline_progress for r in reports]
                    == reference_progress(run, reports, plain))


class TestServiceAccounting:
    """ServiceStats invariants and per-tick cost scaling (the session
    index regression guards)."""

    def test_drain_invariants(self, replay_runs, monitor):
        service = ProgressService(monitor, slice_steps=4, max_live=2)
        for run in replay_runs + replay_runs:
            service.submit_replay(run)
        prev = (0, 0, 0)
        calls = 0
        while True:
            more = service.tick()
            calls += 1
            s = service.stats
            now = (s.ticks, s.steps, s.reports)
            assert all(a >= b for a, b in zip(now, prev)), "non-monotone"
            prev = now
            assert s.sessions_completed <= s.sessions_submitted
            assert calls < 100_000
            if not more:
                break
        s = service.stats
        assert s.sessions_submitted == 2 * len(replay_runs)
        assert s.sessions_completed == s.sessions_submitted
        assert s.reports == sum(len(x.reports) for x in service.sessions)

    def test_tick_cost_flat_as_sessions_complete(self, replay_runs, monitor):
        """Completed sessions must drop out of the per-tick scan: with
        admission capped at 1, every tick scans at most one session no
        matter how many finished ones have accumulated."""
        service = ProgressService(monitor, slice_steps=6, max_live=1)
        for run in replay_runs + replay_runs:
            service.submit_replay(run)
        calls = 0
        while service.tick():
            calls += 1
            assert service.stats.sessions_scanned <= calls + 1
            assert calls < 100_000
        assert service.stats.sessions_completed == 2 * len(replay_runs)
        # a drained service ticks as a no-op
        scanned = service.stats.sessions_scanned
        assert service.tick() is False
        assert service.stats.sessions_scanned == scanned

    def test_resubmission_after_drain(self, replay_runs, monitor):
        service = ProgressService(monitor, slice_steps=4)
        service.submit_replay(replay_runs[0])
        service.run_until_complete(max_ticks=100_000)
        assert not service.active
        service.submit_replay(replay_runs[1])
        results = service.run_until_complete(max_ticks=100_000)
        assert service.stats.sessions_completed == 2
        assert results[1][1], "second wave produced reports"


class TestShardedChurn:
    """Admission-control churn on the sharded fleet, with the trained
    monitor over live-recorded runs (the heavyweight complement to the
    golden-trace anchors in ``test_service_sharded.py``)."""

    @pytest.fixture(scope="class")
    def solo_streams(self, replay_runs, monitor):
        service = ProgressService(monitor, slice_steps=4)
        for run in replay_runs:
            service.submit_replay(run)
        results = service.run_until_complete(max_ticks=100_000)
        return [results[sid][1] for sid in range(len(replay_runs))]

    @pytest.mark.parametrize("n_shards", [2, 3])
    def test_submissions_while_others_drain(self, replay_runs, monitor,
                                            solo_streams, n_shards):
        """A second wave submitted mid-drain (some first-wave sessions
        already retired) must neither disturb in-flight streams nor its
        own — placement stays by global submission index, and a shard's
        session ids map to global ones by arithmetic alone.  The budget
        fits the largest run, so it binds before ``max_live`` does and
        its deferral path is exercised."""
        budget = max(run.nbytes for run in replay_runs)
        service = ShardedProgressService(monitor, n_shards=n_shards,
                                        slice_steps=3, max_live=2,
                                        memory_budget_bytes=budget)
        first = [service.submit_replay(run) for run in replay_runs]
        streams: dict[int, list] = {}
        ticks = 0
        while service.stats.service.sessions_completed < 2:
            rows, _ = service.tick()
            assert service.active, "fleet drained before the churn point"
            for sid, report in rows:
                streams.setdefault(sid, []).append(report)
            ticks += 1
            assert ticks < 100_000
        second = [service.submit_replay(run) for run in replay_runs]
        results = service.run_until_complete(max_ticks=100_000)
        service.close()
        for sid, reports in results.items():
            streams.setdefault(sid, []).extend(reports)
        for wave in (first, second):
            for sid, solo in zip(wave, solo_streams):
                assert streams[sid] == solo
        assert service.stats.service.sessions_completed \
            == 2 * len(replay_runs)
        assert service.stats.service.bytes_live == 0
        assert service.stats.service.deferrals > 0

    def test_budget_deferred_admissions_retry_after_retirement(
            self, replay_runs, monitor, solo_streams):
        budget = max(run.nbytes for run in replay_runs)
        service = ShardedProgressService(monitor, n_shards=1, slice_steps=4,
                                        memory_budget_bytes=budget)
        sids = [service.submit_replay(run) for run in replay_runs]
        results = service.run_until_complete(max_ticks=100_000)
        service.close()
        shard = service.stats.shards[0].service
        assert shard.deferrals > 0, "budget never bound: no churn exercised"
        assert shard.bytes_peak <= budget
        assert shard.bytes_live == 0
        for sid, solo in zip(sids, solo_streams):
            assert results[sid] == solo

    def test_retire_idempotent_under_sharded_drain(self, replay_runs,
                                                   monitor):
        """The drain protocol retires, releases and ships each session
        exactly once: completions are not double-counted, and release
        stays idempotent on the tombstone."""
        service = ShardedProgressService(monitor, n_shards=2, slice_steps=4)
        for run in replay_runs:
            service.submit_replay(run)
        service.run_until_complete(max_ticks=100_000)
        completed = service.stats.service.sessions_completed
        assert completed == len(replay_runs)
        for conn in service._conns:
            inner = conn.worker.service
            for session in inner.sessions:
                assert session.done and session.released
                inner.release_session(session.session_id)  # idempotent
            assert inner._live == []
        assert service.stats.service.sessions_completed == completed
        service.close()

    def test_release_refuses_unfinished_sessions(self, replay_runs, monitor):
        service = ProgressService(monitor, slice_steps=4)
        sid = service.submit_replay(replay_runs[0])
        with pytest.raises(RuntimeError, match="pending"):
            service.release_session(sid)
        service.run_until_complete(max_ticks=100_000)
        service.release_session(sid)
        assert service.sessions[sid].released
        assert service.run_until_complete() == {}  # tombstones drop out
