"""Tests for the sharded multi-process progress service.

The load-bearing property extends pooling transparency across process
boundaries: a session served by a :class:`ShardedProgressService` — placed
on a shard, budget-gated, its reports shipped back through the trace-codec
wire format — must produce the bit-identical report stream the
single-process pooled service (and hence a solo monitor) produces.  These
tests replay the committed golden fuzz traces, so they run in the fast
suite; live-execution churn coverage lives in ``test_service.py`` and the
randomized sweep in the fuzz oracle's ``service`` layer.
"""

import pytest

from repro.core.monitor import ProgressMonitor
from repro.service import (
    MemoryBudgetExceeded,
    ProgressService,
    ShardedProgressService,
    ShardLost,
    place_session,
)
from repro.service.sharded import ShardWorker
from repro.trace.store import read_trace

from test_trace_golden import GOLDEN_DIR


def _monitor():
    return ProgressMonitor(refresh_every=2)


@pytest.fixture(scope="module")
def golden_runs():
    runs, _ = read_trace(GOLDEN_DIR / "fuzz")
    assert len(runs) >= 2
    # six sessions over the committed recordings: enough to spread across
    # every shard count under test
    return [runs[i % len(runs)] for i in range(6)]


@pytest.fixture(scope="module")
def solo_results(golden_runs):
    service = ProgressService(_monitor(), slice_steps=4)
    for run in golden_runs:
        service.submit_replay(run)
    return service.run_until_complete(max_ticks=100_000)


class TestPlacement:
    def test_round_robin_by_submission_index(self):
        assert [place_session(i, "q", 3) for i in range(7)] \
            == [0, 1, 2, 0, 1, 2, 0]

    def test_hash_is_stable_and_name_keyed(self):
        a = place_session(0, "query_a", 4, "hash")
        # independent of submission index, pure in the name
        assert all(place_session(i, "query_a", 4, "hash") == a
                   for i in range(5))
        spread = {place_session(0, f"q{i}", 4, "hash") for i in range(32)}
        assert len(spread) > 1, "hash placement must actually spread names"

    def test_hash_matches_crc32_not_salted_hash(self):
        # the placement contract: CRC32 of the utf-8 name, so the same
        # submission lands on the same shard in every process and run
        import zlib
        name = "tpch_q7"
        assert place_session(9, name, 5, "hash") \
            == zlib.crc32(name.encode()) % 5

    def test_unknown_placement_rejected(self):
        with pytest.raises(ValueError, match="unknown placement"):
            place_session(0, "q", 2, "sticky")
        with pytest.raises(ValueError, match="unknown placement"):
            ShardedProgressService(_monitor(), n_shards=2, placement="nope")

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError, match="n_shards"):
            ShardedProgressService(_monitor(), n_shards=0)


class TestInlineParity:
    @pytest.mark.parametrize("n_shards", [1, 2, 3])
    @pytest.mark.parametrize("placement", ["round_robin", "hash"])
    def test_streams_bit_identical_to_pooled(self, golden_runs, solo_results,
                                             n_shards, placement):
        service = ShardedProgressService(
            _monitor(), n_shards=n_shards, slice_steps=4,
            placement=placement)
        sids = [service.submit_replay(run) for run in golden_runs]
        results = service.run_until_complete(max_ticks=100_000)
        service.close()
        assert set(results) == set(sids)
        for sid in sids:
            assert results[sid][1] == solo_results[sid][1]

    def test_default_shard_count_is_cpu_count(self):
        from repro.runtime import available_cpus
        service = ShardedProgressService(_monitor())
        assert service.n_shards == available_cpus()
        service.close()

    def test_on_report_fires_in_merged_submission_order(self, golden_runs):
        seen = []
        service = ShardedProgressService(
            _monitor(), n_shards=3, slice_steps=4,
            on_report=lambda sid, report: seen.append((sid, report)))
        sids = [service.submit_replay(run) for run in golden_runs]
        results = service.run_until_complete(max_ticks=100_000)
        service.close()
        # per-session projection of the hook sequence = that session's stream
        for sid in sids:
            assert [r for s, r in seen if s == sid] == results[sid][1]
        # within the whole soak, ids within each round are merged in
        # ascending submission order: the global sequence is sorted within
        # every contiguous tick window, which per-round capture guarantees
        assert len(seen) == sum(len(v[1]) for v in results.values())

    def test_keep_reports_false_drops_results(self, golden_runs):
        service = ShardedProgressService(
            _monitor(), n_shards=2, slice_steps=4, keep_reports=False)
        for run in golden_runs:
            service.submit_replay(run)
        assert service.run_until_complete(max_ticks=100_000) == {}
        fleet = service.stats.service
        assert fleet.sessions_completed == len(golden_runs)
        assert fleet.reports > 0  # the work still happened
        service.close()

    def test_resubmission_after_drain(self, golden_runs, solo_results):
        service = ShardedProgressService(_monitor(), n_shards=2,
                                         slice_steps=4)
        first = service.submit_replay(golden_runs[0])
        service.run_until_complete(max_ticks=100_000)
        assert not service.active
        second = service.submit_replay(golden_runs[1])
        results = service.run_until_complete(max_ticks=100_000)
        service.close()
        assert results[second][1] == solo_results[1][1]
        assert service.stats.service.sessions_completed == 2
        assert first != second

    def test_empty_fleet_drains_immediately(self):
        service = ShardedProgressService(_monitor(), n_shards=2)
        assert not service.active
        assert service.run_until_complete(max_ticks=10) == {}
        service.close()

    def test_closed_service_refuses_ticks(self, golden_runs):
        service = ShardedProgressService(_monitor(), n_shards=2)
        service.close()
        service.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            service.tick()


class TestMemoryBudget:
    def test_oversized_run_rejected_at_submit(self, golden_runs):
        service = ShardedProgressService(_monitor(), n_shards=1,
                                         memory_budget_bytes=16)
        with pytest.raises(MemoryBudgetExceeded, match="budget"):
            service.submit_replay(golden_runs[0])
        service.close()

    def test_deferred_admissions_retry_after_retirement(self, golden_runs,
                                                        solo_results):
        # budget fits exactly one of the biggest runs: later submissions
        # must wait in FIFO and admit as earlier sessions retire — with
        # streams (and merge order) unchanged
        budget = max(run.nbytes for run in golden_runs)
        service = ShardedProgressService(_monitor(), n_shards=1,
                                         slice_steps=4,
                                         memory_budget_bytes=budget)
        sids = [service.submit_replay(run) for run in golden_runs]
        results = service.run_until_complete(max_ticks=100_000)
        service.close()
        stats = service.stats.shards[0]
        assert stats.deferrals > 0, "the budget never actually deferred"
        assert stats.bytes_peak <= budget
        assert stats.bytes_live == 0, "drained fleet still charges bytes"
        for sid in sids:
            assert results[sid][1] == solo_results[sid][1]

    def test_budget_charges_follow_admission_and_retirement(self,
                                                            golden_runs):
        run = golden_runs[0]
        worker = ShardWorker(0, _monitor(), slice_steps=4,
                             memory_budget_bytes=run.nbytes * 2)
        worker.enqueue(0, run)
        assert worker.stats.bytes_live == 0  # queued, not yet admitted
        worker.tick()
        assert worker.stats.bytes_live == run.nbytes
        while worker.active:
            worker.tick()
        assert worker.stats.bytes_live == 0
        assert worker.stats.bytes_peak == run.nbytes

    def test_worker_rejects_oversized_enqueue(self, golden_runs):
        worker = ShardWorker(0, _monitor(), memory_budget_bytes=8)
        with pytest.raises(MemoryBudgetExceeded):
            worker.enqueue(0, golden_runs[0])


class TestProcessMode:
    """One process-backed pass in the fast suite: the wire protocol end to
    end (submit/tick/stop frames, codec payloads, graceful drain)."""

    def test_streams_bit_identical_over_pipes(self, golden_runs,
                                              solo_results):
        with ShardedProgressService(
                _monitor, n_shards=2, slice_steps=4,
                processes=True) as service:
            sids = [service.submit_replay(run) for run in golden_runs]
            assert len(service.worker_pids) == 2
            results = service.run_until_complete(max_ticks=100_000)
            for sid in sids:
                assert results[sid][1] == solo_results[sid][1]
            fleet = service.stats.service
            assert fleet.sessions_completed == len(golden_runs)
            assert service.stats.tick_latency(99) >= 0.0

    def test_submissions_racing_a_ticking_thread_all_complete_once(
            self, golden_runs):
        """The network front end submits on its event loop while a
        process-mode tick runs in a worker thread; no submission may be
        lost or shipped twice, whatever the interleaving."""
        import sys
        import threading

        n_sessions = 90
        completed: list[int] = []
        errors: list[BaseException] = []
        submitted = threading.Event()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ShardedProgressService(
                    _monitor, n_shards=1, slice_steps=4, processes=True,
                    keep_reports=False,
                    on_complete=completed.append) as service:

                def submit():
                    try:
                        for i in range(n_sessions):
                            service.submit_replay(
                                golden_runs[i % len(golden_runs)])
                    finally:
                        submitted.set()

                def drive():
                    try:
                        while not submitted.is_set() or service.active:
                            service.tick()
                    except BaseException as exc:
                        errors.append(exc)

                threads = [threading.Thread(target=drive),
                           threading.Thread(target=submit)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                    assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert sorted(completed) == list(range(n_sessions))

    @pytest.mark.parametrize("victim", [0, 1])
    def test_killed_worker_raises_shard_lost(self, golden_runs, victim):
        """A worker SIGKILLed mid-drain surfaces from ``tick`` as
        :class:`ShardLost` naming its shard, within a bounded time —
        whether the dead pipe fails the tick frame's send or the reply's
        receive."""
        import os
        import signal
        import threading

        raised: list[BaseException] = []
        with ShardedProgressService(
                _monitor, n_shards=2, slice_steps=1,
                processes=True) as service:
            for run in golden_runs:
                service.submit_replay(run)
            assert service.tick()  # both shards admitted and mid-drain
            os.kill(service.worker_pids[victim], signal.SIGKILL)

            def drain():
                try:
                    while service.tick():
                        pass
                except BaseException as exc:
                    raised.append(exc)

            thread = threading.Thread(target=drain, daemon=True)
            thread.start()
            thread.join(timeout=60)
            assert not thread.is_alive(), "tick hung on a dead shard"
        assert len(raised) == 1
        assert isinstance(raised[0], ShardLost)
        assert raised[0].shard_id == victim
        assert f"shard {victim}" in str(raised[0])

    def test_monitor_instance_rejected_for_processes(self):
        with pytest.raises(ValueError, match="factory"):
            ShardedProgressService(_monitor(), n_shards=2, processes=True)

    def test_inline_mode_has_no_worker_pids(self):
        service = ShardedProgressService(_monitor(), n_shards=2)
        assert service.worker_pids == []
        service.close()
