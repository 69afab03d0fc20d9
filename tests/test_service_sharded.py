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

import copy
import gc
import multiprocessing
import weakref

import numpy as np
import pytest

from repro.core.monitor import ProgressMonitor
from repro.service import (
    MemoryBudgetExceeded,
    ProgressService,
    ShardedProgressService,
    ShardLost,
    place_session,
    sharded,
)
from repro.service.session import SessionStatus
from repro.trace.store import read_trace

from test_trace_golden import GOLDEN_DIR


def _monitor():
    return ProgressMonitor(refresh_every=2)


#: pipelines from this id up make :class:`_FailingMonitor` raise
_FAIL_PID = 3


class _FailingMonitor(ProgressMonitor):
    """Raises when asked to select for pipeline ``_FAIL_PID`` or later:
    a shard serving a run with that many pipelines fails mid-drain."""

    def selection_needs(self, pid, state, fractions):
        if pid >= _FAIL_PID:
            raise RuntimeError("injected shard failure")
        return super().selection_needs(pid, state, fractions)


def _failing_monitor():
    """Module-level factory, so worker processes build the same monitor."""
    return _FailingMonitor(refresh_every=2)


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
        assert [place_session(i, 3) for i in range(7)] \
            == [0, 1, 2, 0, 1, 2, 0]

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError, match="n_shards"):
            ShardedProgressService(_monitor(), n_shards=0)


class TestInlineParity:
    @pytest.mark.parametrize("n_shards", [1, 2, 3])
    def test_streams_bit_identical_to_pooled(self, golden_runs, solo_results,
                                             n_shards):
        service = ShardedProgressService(
            _monitor(), n_shards=n_shards, slice_steps=4)
        sids = [service.submit_replay(run) for run in golden_runs]
        results = service.run_until_complete(max_ticks=100_000)
        service.close()
        assert set(results) == set(sids)
        for sid in sids:
            assert results[sid] == solo_results[sid][1]

    def test_default_shard_count_is_cpu_count(self):
        from repro.runtime import available_cpus
        service = ShardedProgressService(_monitor())
        assert service.n_shards == available_cpus()
        service.close()

    def test_each_round_is_ordered(self, golden_runs, solo_results):
        """Every round's rows are in global submission order and its
        completions ascending; each session completes exactly once, and
        no row of it arrives after the round that completes it."""
        service = ShardedProgressService(_monitor(), n_shards=3,
                                         slice_steps=4)
        sids = [service.submit_replay(run) for run in golden_runs]
        streams: dict[int, list] = {sid: [] for sid in sids}
        finished: set[int] = set()
        widest = 0  # most sessions reporting in one round
        rounds = 0
        while service.active:
            rows, completed = service.tick()
            row_sids = [sid for sid, _ in rows]
            assert row_sids == sorted(row_sids)
            assert completed == sorted(completed)
            widest = max(widest, len(set(row_sids)))
            for sid, report in rows:
                assert sid not in finished, "row after completion"
                streams[sid].append(report)
            for sid in completed:
                assert sid not in finished, "completed twice"
                finished.add(sid)
            rounds += 1
            assert rounds < 100_000
        service.close()
        assert widest > 1, "no round merged rows of several sessions"
        assert sorted(finished) == sids
        for sid in sids:
            assert streams[sid] == solo_results[sid][1]

    def test_drained_fleet_retains_nothing(self, golden_runs):
        """Once a round has returned, the fleet holds none of its reports,
        and no run it was handed outlives the round that shipped it."""
        service = ShardedProgressService(_monitor(), n_shards=2,
                                         slice_steps=4)
        run = copy.deepcopy(golden_runs[0])
        refs = [weakref.ref(run)]
        service.submit_replay(run)
        for other in golden_runs[1:]:
            service.submit_replay(other)
        del run
        n_rows = 0
        while service.active:
            rows, _ = service.tick()
            refs += [weakref.ref(report) for _, report in rows]
            n_rows += len(rows)
        del rows
        gc.collect()
        assert n_rows > 0  # the work still happened
        assert service.stats.service.sessions_completed == len(golden_runs)
        assert [ref for ref in refs if ref() is not None] == []
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
        assert results[second] == solo_results[1][1]
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
        with pytest.raises(RuntimeError, match="closed"):
            service.submit_replay(golden_runs[0])
        assert service.sessions_submitted == 0
        assert service.sessions_inflight == 0
        assert not service.active


class TestLatencyWindow:
    """The fleet keeps the last ``LATENCY_WINDOW`` latency samples per
    list, so a stats read costs the same however long it has served."""

    def test_percentiles_cover_the_last_samples(self, golden_runs,
                                                monkeypatch):
        monkeypatch.setattr(sharded, "LATENCY_WINDOW", 5)
        service = ShardedProgressService(_monitor(), n_shards=1,
                                         slice_steps=4)
        for run in golden_runs:
            service.submit_replay(run)
        stats = service.stats
        rounds, ticks = [], []
        while service.active:  # one shard: one shard tick per round
            service.tick()
            rounds.append(stats.round_seconds[-1])
            ticks.append(stats.shards[0].tick_seconds[-1])
        service.close()
        assert len(rounds) > 5
        assert list(stats.round_seconds) == rounds[-5:]
        assert list(stats.shards[0].tick_seconds) == ticks[-5:]
        for q in (50, 99):
            assert stats.round_latency(q) == np.percentile(rounds[-5:], q)
            assert stats.tick_latency(q) == np.percentile(ticks[-5:], q)

    def test_every_shard_keeps_at_most_the_window(self, golden_runs,
                                                  monkeypatch):
        monkeypatch.setattr(sharded, "LATENCY_WINDOW", 3)
        service = ShardedProgressService(_monitor(), n_shards=2,
                                         slice_steps=4)
        for run in golden_runs:
            service.submit_replay(run)
        service.run_until_complete(max_ticks=100_000)
        service.close()
        stats = service.stats
        assert stats.service.ticks > 2 * 3
        assert len(stats.round_seconds) == 3
        assert [len(s.tick_seconds) for s in stats.shards] == [3, 3]


class TestMemoryBudget:
    """The memory budget is an admission rule of :class:`ProgressService`;
    a fleet's shards each enforce it on their own service."""

    def test_oversized_run_rejected_at_submit(self, golden_runs):
        service = ShardedProgressService(_monitor(), n_shards=1,
                                         memory_budget_bytes=16)
        with pytest.raises(MemoryBudgetExceeded, match="budget"):
            service.submit_replay(golden_runs[0])
        service.close()

    @pytest.mark.parametrize("processes", [False, True])
    def test_deferred_admissions_retry_after_retirement(self, golden_runs,
                                                        solo_results,
                                                        processes):
        # budget fits exactly one of the biggest runs: later submissions
        # must wait in FIFO and admit as earlier sessions retire — with
        # streams (and merge order) unchanged
        budget = max(run.nbytes for run in golden_runs)
        with ShardedProgressService(_monitor, n_shards=1, slice_steps=4,
                                    memory_budget_bytes=budget,
                                    processes=processes) as service:
            sids = [service.submit_replay(run) for run in golden_runs]
            results = service.run_until_complete(max_ticks=100_000)
        stats = service.stats.shards[0].service
        assert stats.deferrals > 0, "the budget never actually deferred"
        assert stats.bytes_peak <= budget
        assert stats.bytes_live == 0, "drained fleet still charges bytes"
        for sid in sids:
            assert results[sid] == solo_results[sid][1]
        # both transports report what the shard's service counted
        alone = ProgressService(_monitor(), slice_steps=4,
                                memory_budget_bytes=budget)
        for run in golden_runs:
            alone.submit_replay(run)
        alone.run_until_complete(max_ticks=100_000)
        assert (stats.deferrals, stats.bytes_peak, stats.bytes_live) == (
            alone.stats.deferrals, alone.stats.bytes_peak,
            alone.stats.bytes_live)

    def test_budget_charges_follow_admission_and_retirement(self,
                                                            golden_runs):
        run = golden_runs[0]
        service = ProgressService(_monitor(), slice_steps=4,
                                  memory_budget_bytes=run.nbytes * 2)
        sid = service.submit_replay(run)
        assert service.session(sid).nbytes == run.nbytes
        assert service.stats.bytes_live == 0  # pending, not yet started
        service.tick()
        assert service.stats.bytes_live == run.nbytes
        while service.tick():
            pass
        assert service.stats.bytes_live == 0
        assert service.stats.bytes_peak == run.nbytes
        service.release_session(sid)  # the charge outlives the executor
        assert service.session(sid).nbytes == run.nbytes

    def test_live_sessions_are_charged_nothing(self, tpch_db, tpch_planner,
                                               join_query, executor_config):
        service = ProgressService(_monitor(), memory_budget_bytes=1)
        sid = service.submit(tpch_db, tpch_planner.plan(join_query),
                             config=executor_config)
        service.run_until_complete(max_ticks=100_000)
        assert service.session(sid).done
        assert service.stats.bytes_peak == service.stats.deferrals == 0

    def test_service_rejects_oversized_submit(self, golden_runs):
        service = ProgressService(_monitor(), memory_budget_bytes=8)
        with pytest.raises(MemoryBudgetExceeded, match="budget"):
            service.submit_replay(golden_runs[0])
        assert service.sessions == []
        assert service.stats.sessions_submitted == 0

    def test_fifo_head_blocks_and_deferrals_count_its_ticks(self,
                                                            golden_runs):
        """The queue's head waits while it does not fit, and sessions
        behind it wait too, even one that would fit; every tick that
        holds the head counts one deferral."""
        big, small = sorted(golden_runs[:2], key=lambda r: r.nbytes,
                            reverse=True)
        budget = big.nbytes + small.nbytes
        service = ProgressService(_monitor(), slice_steps=2,
                                  memory_budget_bytes=budget)
        sids = [service.submit_replay(run) for run in (big, big, small)]
        started: dict[int, int] = {}
        held = bypassable = ticks = 0
        while service.active:
            pending = [sid for sid in sids if sid not in started]
            before = service.stats.bytes_live
            service.tick()
            ticks += 1
            for sid in pending:
                if service.session(sid).status is not SessionStatus.PENDING:
                    started[sid] = ticks
            if any(sid not in started for sid in pending):
                held += 1  # no max_live: only the budget holds a session
                bypassable += before + small.nbytes <= budget
            assert service.stats.bytes_live <= budget
        assert service.stats.deferrals == held > 0
        assert bypassable, "no tick where the small run alone would fit"
        assert started[sids[0]] <= started[sids[1]] <= started[sids[2]]
        assert service.stats.bytes_live == 0
        assert service.stats.bytes_peak <= budget

    @pytest.mark.parametrize("slice_steps", [1, 4])
    def test_streams_equal_the_unbudgeted_service(self, golden_runs,
                                                  slice_steps):
        budgets = [None, max(run.nbytes for run in golden_runs)]
        streams = []
        for budget in budgets:
            service = ProgressService(_monitor(), slice_steps=slice_steps,
                                      memory_budget_bytes=budget)
            for run in golden_runs:
                service.submit_replay(run)
            results = service.run_until_complete(max_ticks=100_000)
            streams.append([results[sid][1] for sid in sorted(results)])
            assert (service.stats.deferrals > 0) == (budget is not None)
        assert streams[0] == streams[1]


class TestShardLoss:
    """Shard failure has one path in both transports."""

    @pytest.mark.parametrize("processes", [False, True])
    @pytest.mark.parametrize("victim", [0, 1])
    def test_raising_shard_surfaces_as_shard_lost(self, golden_runs,
                                                  processes, victim, caplog):
        """A shard whose round raises mid-drain surfaces from ``tick`` as
        :class:`ShardLost` naming that shard and carrying the error."""
        small, big = sorted(golden_runs[:2], key=lambda r: len(r.pipelines))
        assert len(small.pipelines) <= _FAIL_PID < len(big.pipelines)
        with ShardedProgressService(
                _failing_monitor, n_shards=2, slice_steps=1,
                processes=processes) as service:
            for shard in range(2):
                service.submit_replay(big if shard == victim else small)
            service.tick()
            assert service.active  # both shards admitted and mid-drain
            with pytest.raises(ShardLost) as lost:
                while service.active:
                    service.tick()
        assert lost.value.shard_id == victim
        assert f"shard {victim} lost" in str(lost.value)
        assert "injected shard failure" in str(lost.value)
        if not processes:  # a worker process logs to its own stderr
            assert any(record.exc_info for record in caplog.records)


class TestProcessMode:
    """One process-backed pass in the fast suite: the wire protocol end to
    end (submit/tick/stop frames, codec payloads, graceful drain)."""

    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_streams_bit_identical_over_pipes(self, golden_runs,
                                              solo_results, n_shards):
        with ShardedProgressService(
                _monitor, n_shards=n_shards, slice_steps=4,
                processes=True) as service:
            sids = [service.submit_replay(run) for run in golden_runs]
            assert len(service.worker_pids) == n_shards
            results = service.run_until_complete(max_ticks=100_000)
            for sid in sids:
                assert results[sid] == solo_results[sid][1]
            stats = service.stats
            assert stats.service.sessions_completed == len(golden_runs)
            assert stats.tick_latency(99) >= 0.0
            if n_shards == 1:
                # one shard tick per lockstep round: each shipped
                # duration arrives exactly once
                assert (len(stats.shards[0].tick_seconds)
                        == len(stats.round_seconds))

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
                    _monitor, n_shards=1, slice_steps=4,
                    processes=True) as service:

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
                            completed.extend(service.tick()[1])
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
            service.tick()
            assert service.active  # both shards admitted and mid-drain
            os.kill(service.worker_pids[victim], signal.SIGKILL)

            def drain():
                try:
                    while service.active:
                        service.tick()
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

    @pytest.mark.parametrize("processes", [False, True])
    @pytest.mark.parametrize("option", [{"slice_steps": 0},
                                        {"slice_steps": -3},
                                        {"max_live": 0}])
    def test_bad_serving_options_rejected_before_spawning(self, processes,
                                                          option):
        before = len(multiprocessing.active_children())
        name, = option
        with pytest.raises(ValueError, match=name):
            ShardedProgressService(_monitor, n_shards=2,
                                   processes=processes, **option)
        assert len(multiprocessing.active_children()) == before

    def test_inline_mode_has_no_worker_pids(self):
        service = ShardedProgressService(_monitor(), n_shards=2)
        assert service.worker_pids == []
        service.close()
