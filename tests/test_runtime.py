"""Tests for the parallel execution runtime (`repro.runtime`).

The load-bearing claim is determinism: partition → execute → merge-in-
order must be *bit-identical* to the serial loop it replaces, whatever
the worker count or scheduling.  The transport tests pin the no-pickle
contract (engine results cross process boundaries through the trace
codec), and the harness tests lock the end-to-end guarantee:
``ExperimentHarness.runs()`` with ``jobs > 1`` equals serial execution
exactly — runs, TrainingData matrices and recorded traces alike.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.monitor import ProgressReport
from repro.engine.run import QueryRun
from repro.experiments.harness import NO_TRACE_STORE, ExperimentHarness
from repro.runtime import (
    available_cpus,
    partition_indices,
    reports_from_payload,
    reports_to_payload,
    resolve_jobs,
    run_tasks,
    runs_from_payload,
    runs_to_payload,
)
from repro.runtime import pool as pool_mod
from repro.trace.store import TraceStore, read_trace
from helpers import MALFORMED_RUNS
from test_trace_golden import GOLDEN_DIR
from test_trace_store import UNIT_SCALE, assert_runs_identical


# ---------------------------------------------------------------------------
# partitioning
# ---------------------------------------------------------------------------

class TestPartition:
    @pytest.mark.parametrize("n,parts", [(0, 1), (1, 1), (5, 2), (7, 3),
                                         (8, 4), (64, 5), (3, 8)])
    def test_concatenation_reproduces_range(self, n, parts):
        slices = partition_indices(n, parts)
        assert [i for part in slices for i in part] == list(range(n))

    def test_balanced_and_contiguous(self):
        slices = partition_indices(10, 3)
        assert slices == [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]]
        sizes = [len(s) for s in slices]
        assert max(sizes) - min(sizes) <= 1

    def test_more_parts_than_items_degrades_to_singletons(self):
        assert partition_indices(2, 8) == [[0], [1]]
        assert partition_indices(0, 4) == []

    def test_deterministic(self):
        assert partition_indices(17, 4) == partition_indices(17, 4)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="negative"):
            partition_indices(-1, 2)
        with pytest.raises(ValueError, match="at least one part"):
            partition_indices(5, 0)


# ---------------------------------------------------------------------------
# CPU accounting
# ---------------------------------------------------------------------------

class TestAvailableCpus:
    def test_respects_scheduler_affinity(self, monkeypatch):
        """A cgroup/taskset-restricted process must size pools and shard
        fleets by its affinity mask, not the machine's core count."""
        monkeypatch.setattr(pool_mod.os, "sched_getaffinity",
                            lambda pid: {0, 2, 5}, raising=False)
        assert available_cpus() == 3

    def test_empty_affinity_clamps_to_one(self, monkeypatch):
        monkeypatch.setattr(pool_mod.os, "sched_getaffinity",
                            lambda pid: set(), raising=False)
        assert available_cpus() == 1

    def test_fallback_without_affinity_support(self, monkeypatch):
        """Platforms without ``sched_getaffinity`` (e.g. macOS) fall back
        to ``os.cpu_count()``; a None cpu_count degrades to 1."""
        monkeypatch.delattr(pool_mod.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(pool_mod.os, "cpu_count", lambda: 6)
        assert available_cpus() == 6
        monkeypatch.setattr(pool_mod.os, "cpu_count", lambda: None)
        assert available_cpus() == 1


# ---------------------------------------------------------------------------
# job resolution
# ---------------------------------------------------------------------------

class TestResolveJobs:
    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3
        assert resolve_jobs(None) == 7

    def test_unset_env_means_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1

    def test_auto_and_zero_mean_cpu_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "auto")
        assert resolve_jobs() == available_cpus()
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert resolve_jobs() == available_cpus()
        assert resolve_jobs(0) == available_cpus()

    def test_invalid_values_raise(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            resolve_jobs()
        with pytest.raises(ValueError, match=">= 0"):
            resolve_jobs(-2)


# ---------------------------------------------------------------------------
# the order-preserving pool
# ---------------------------------------------------------------------------

def _square(task: int) -> int:
    """Module-level so worker processes can import it."""
    return task * task


def _fail_on_three(task: int) -> int:
    if task == 3:
        raise RuntimeError("task three exploded")
    return task


class TestRunTasks:
    def test_inline_path_preserves_order_and_streams(self):
        seen = []
        results = run_tasks(_square, [3, 1, 2], jobs=1,
                            on_result=lambda i, r: seen.append((i, r)))
        assert results == [9, 1, 4]
        assert seen == [(0, 9), (1, 1), (2, 4)]

    def test_pool_path_preserves_order_and_streams(self):
        seen = []
        results = run_tasks(_square, list(range(10)), jobs=2,
                            on_result=lambda i, r: seen.append((i, r)))
        assert results == [i * i for i in range(10)]
        assert seen == [(i, i * i) for i in range(10)]

    def test_single_task_runs_inline_even_with_jobs(self):
        assert run_tasks(_square, [6], jobs=4) == [36]

    def test_worker_exception_propagates(self):
        with pytest.raises(RuntimeError, match="task three exploded"):
            run_tasks(_fail_on_three, [1, 2, 3, 4], jobs=2)
        with pytest.raises(RuntimeError, match="task three exploded"):
            run_tasks(_fail_on_three, [1, 2, 3, 4], jobs=1)

    def test_on_result_exception_aborts(self):
        def abort(index, result):
            if index == 1:
                raise KeyboardInterrupt
        with pytest.raises(KeyboardInterrupt):
            run_tasks(_square, [1, 2, 3, 4], jobs=2, on_result=abort)

    def test_empty_task_list(self):
        assert run_tasks(_square, [], jobs=4) == []


# ---------------------------------------------------------------------------
# trace-format transport
# ---------------------------------------------------------------------------

def _split(payload):
    """A payload's JSON header and its member bytes."""
    header_len = int.from_bytes(payload[:8], "little")
    return json.loads(payload[8:8 + header_len]), payload[8 + header_len:]


def _join(header, body):
    head = json.dumps(header).encode()
    return len(head).to_bytes(8, "little") + head + body


def _retable(payload, edit, body_suffix=b""):
    """``payload`` with ``edit`` applied to its parsed JSON header."""
    header, body = _split(payload)
    edit(header)
    return _join(header, body + body_suffix)


class TestTransport:
    def test_round_trip_bit_identical(self, join_run, scan_run):
        payload = runs_to_payload([join_run, scan_run])
        assert isinstance(payload, bytes)
        clones = runs_from_payload(payload)
        assert len(clones) == 2
        assert_runs_identical(join_run, clones[0])
        assert_runs_identical(scan_run, clones[1])
        for clone in clones:
            assert isinstance(clone, QueryRun)

    def test_reencoding_a_decoded_payload_is_byte_identical(
            self, join_run, scan_run):
        runs, _ = read_trace(GOLDEN_DIR / "outer_semi")
        payload = runs_to_payload([join_run, scan_run, *runs])
        assert runs_to_payload(runs_from_payload(payload)) == payload

    def test_decoded_arrays_own_their_memory(self, join_run):
        clone, = runs_from_payload(runs_to_payload([join_run]))
        for array in (clone.times, clone.N, clone.D):
            assert array.flags.owndata and array.flags.writeable
        # the five counter matrices are rows of the one decoded C block
        block = clone.K.base
        assert block.flags.owndata and block.shape[0] == 5
        for array in (clone.K, clone.R, clone.W, clone.LB, clone.UB):
            assert array.base is block and array.flags.writeable
        assert clone.nbytes == join_run.nbytes

    def test_empty_payload_round_trips(self):
        assert runs_from_payload(runs_to_payload([])) == []

    def test_truncated_payload_rejected(self, join_run):
        payload = runs_to_payload([join_run])
        with pytest.raises(ValueError, match="missing header length"):
            runs_from_payload(payload[:4])
        with pytest.raises(ValueError, match="missing header"):
            runs_from_payload(payload[:12])
        with pytest.raises(ValueError, match="past the"):
            runs_from_payload(payload[:-1])

    def test_foreign_format_version_rejected(self, join_run):
        payload = _retable(runs_to_payload([join_run]),
                           lambda h: h.update(format_version=999))
        with pytest.raises(ValueError, match="unsupported trace format"):
            runs_from_payload(payload)

    @pytest.mark.parametrize("version", [None, 0, 2, "1"])
    def test_foreign_wire_version_rejected(self, join_run, version):
        def stamp(header):
            if version is None:
                del header["wire_format_version"]
            else:
                header["wire_format_version"] = version
        payload = _retable(runs_to_payload([join_run]), stamp)
        with pytest.raises(ValueError, match="wire format version"):
            runs_from_payload(payload)

    @pytest.mark.parametrize("case", sorted(MALFORMED_RUNS))
    def test_inconsistent_run_rejected(self, case):
        """A well-framed run whose parts do not fit together fails to
        decode, with ``ValueError``, instead of failing whoever serves
        it later."""
        run = read_trace(GOLDEN_DIR / "fuzz")[0][0]
        payload = runs_to_payload([run, MALFORMED_RUNS[case](run)])
        with pytest.raises(ValueError):
            runs_from_payload(payload)

    def test_npz_framed_payload_rejected(self):
        """The framing before the wire version: a trace-versioned header
        followed by a zip archive (here an empty one)."""
        empty_zip = b"PK\x05\x06" + bytes(18)
        payload = _join({"format_version": 3, "runs": []}, empty_zip)
        with pytest.raises(ValueError, match="wire format version None"):
            runs_from_payload(payload)


# ---------------------------------------------------------------------------
# report transport (the sharded service's return leg)
# ---------------------------------------------------------------------------

def _sample_reports():
    """Awkward values on purpose: non-round floats (bit-exactness), a
    None estimator, empty and multi-entry per-pipeline dicts."""
    return [
        (7, ProgressReport(time=0.1 + 0.2, progress=1 / 3, active_pid=0,
                           active_estimator="tgn",
                           pipeline_progress={0: 0.25, 2: 2 / 7},
                           pipeline_estimator={0: "tgn", 2: "dne"})),
        (3, ProgressReport(time=1e-9, progress=0.0, active_pid=-1,
                           active_estimator=None)),
        (7, ProgressReport(time=2.5, progress=1.0, active_pid=1,
                           active_estimator="dne",
                           pipeline_progress={1: 1.0},
                           pipeline_estimator={1: "dne"})),
    ]


class TestReportTransport:
    def test_round_trip_bit_identical(self):
        tagged = _sample_reports()
        payload = reports_to_payload(tagged)
        assert isinstance(payload, bytes)
        clones = reports_from_payload(payload)
        assert len(clones) == len(tagged)
        for (sid, report), (c_sid, clone) in zip(tagged, clones):
            assert c_sid == sid
            assert isinstance(clone, ProgressReport)
            # dataclass equality covers every field, dicts included; the
            # floats crossed as binary float64, so == means bit-identical
            assert clone == report
            assert type(c_sid) is int and type(clone.time) is float
            assert all(type(pid) is int for pid in clone.pipeline_progress)

    def test_reencoding_a_decoded_payload_is_byte_identical(self):
        payload = reports_to_payload(_sample_reports())
        assert reports_to_payload(reports_from_payload(payload)) == payload

    def test_empty_batch_round_trips(self):
        assert reports_from_payload(reports_to_payload([])) == []

    def test_truncated_payload_rejected(self):
        payload = reports_to_payload(_sample_reports())
        with pytest.raises(ValueError, match="missing header length"):
            reports_from_payload(payload[:4])
        with pytest.raises(ValueError, match="missing header"):
            reports_from_payload(payload[:12])

    def test_foreign_format_version_rejected(self):
        payload = _retable(reports_to_payload(_sample_reports()),
                           lambda h: h.update(format_version=999))
        with pytest.raises(ValueError, match="unsupported trace format"):
            reports_from_payload(payload)

    def test_foreign_wire_version_rejected(self):
        payload = _retable(reports_to_payload(_sample_reports()),
                           lambda h: h.update(wire_format_version=2))
        with pytest.raises(ValueError, match="wire format version 2"):
            reports_from_payload(payload)


def test_decoders_run_concurrently(join_run):
    """The decoders share no state: eight threads decoding both payload
    kinds at a short switch interval all get the single-thread result."""
    import sys
    import threading

    jobs = [(runs_from_payload, runs_to_payload([join_run])),
            (reports_from_payload, reports_to_payload(_sample_reports()))]
    expected = [runs_to_payload(runs_from_payload(jobs[0][1])),
                reports_from_payload(jobs[1][1])]
    results, errors = [], []

    def work(kind):
        decode, payload = jobs[kind]
        try:
            for _ in range(20):
                got = decode(payload)
                results.append((kind, runs_to_payload(got) if kind == 0
                                else got))
        except Exception as exc:  # reported below, not lost in the thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i % 2,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(results) == 8 * 20
    assert all(got == expected[kind] for kind, got in results)


# ---------------------------------------------------------------------------
# the member table: checked in full before any member is read
# ---------------------------------------------------------------------------

def _edit_row(index, slot, value):
    """A header edit setting one field of one member table row."""
    def edit(header):
        header["members"][index][slot] = value
    return edit


def _swap_rows(header):
    rows = header["members"]
    rows[0], rows[1] = rows[1], rows[0]


class TestMemberTable:
    """One case per rule; both decoders share the check, so each rule
    runs against a reports payload (first member ``time``, float64)."""

    @pytest.mark.parametrize("dtype", ["<f4", ">f8", "|O", "<U1", "<c16",
                                       "|V8", 8, None, ["<f8"]])
    def test_only_the_codecs_dtypes(self, dtype):
        payload = _retable(reports_to_payload(_sample_reports()),
                           _edit_row(0, 1, dtype))
        with pytest.raises(ValueError, match="the wire carries only"):
            reports_from_payload(payload)

    @pytest.mark.parametrize("shape", [[-3], [1.5], ["3"], [True], [None],
                                       3, None])
    def test_shapes_are_non_negative_integers(self, shape):
        payload = _retable(reports_to_payload(_sample_reports()),
                           _edit_row(0, 2, shape))
        with pytest.raises(ValueError, match="dimensions must be"):
            reports_from_payload(payload)

    @pytest.mark.parametrize("offset", [-8, 0.0, "0", None, False])
    def test_offsets_are_non_negative_integers(self, offset):
        payload = _retable(reports_to_payload(_sample_reports()),
                           _edit_row(0, 3, offset))
        with pytest.raises(ValueError, match="offsets must be"):
            reports_from_payload(payload)

    def test_gap_rejected(self):
        payload = _retable(reports_to_payload(_sample_reports()),
                           _edit_row(1, 3, 3 * 8 + 8), body_suffix=bytes(8))
        with pytest.raises(ValueError, match="no gap or overlap"):
            reports_from_payload(payload)

    def test_overlap_rejected(self):
        payload = _retable(reports_to_payload(_sample_reports()),
                           _edit_row(1, 3, 8))
        with pytest.raises(ValueError, match="no gap or overlap"):
            reports_from_payload(payload)

    def test_out_of_order_rejected(self):
        payload = _retable(reports_to_payload(_sample_reports()), _swap_rows)
        with pytest.raises(ValueError, match="no gap or overlap"):
            reports_from_payload(payload)

    def test_member_past_the_body_rejected(self):
        def grow_last(header):
            header["members"][-1][2] = [1000]
        payload = _retable(reports_to_payload(_sample_reports()), grow_last)
        with pytest.raises(ValueError, match="past the"):
            reports_from_payload(payload)

    def test_trailing_bytes_rejected(self):
        payload = reports_to_payload(_sample_reports()) + bytes(8)
        with pytest.raises(ValueError, match="8 trailing bytes"):
            reports_from_payload(payload)
        payload = runs_to_payload([]) + b"x"
        with pytest.raises(ValueError, match="1 trailing bytes"):
            runs_from_payload(payload)

    @pytest.mark.parametrize("table", [None, {}, [["time", "<f8", [3]]],
                                       [[1, "<f8", [0], 0]]])
    def test_malformed_table_rejected(self, table):
        payload = _retable(reports_to_payload([]),
                           lambda h: h.update(members=table))
        with pytest.raises(ValueError, match="member"):
            reports_from_payload(payload)

    def test_repeated_member_name_rejected(self):
        def repeat(header):
            header["members"][1][0] = header["members"][0][0]
        payload = _retable(reports_to_payload(_sample_reports()), repeat)
        with pytest.raises(ValueError, match="repeated"):
            reports_from_payload(payload)

    def test_missing_member_is_a_value_error(self):
        def drop_sids(header):
            header["members"].pop()
        header, body = _split(reports_to_payload(_sample_reports()))
        drop_sids(header)
        payload = _join(header, body[:-8 * 3])
        with pytest.raises(ValueError, match="malformed report payload"):
            reports_from_payload(payload)


# ---------------------------------------------------------------------------
# byte-level fuzz: a damaged payload decodes or raises ValueError
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def wire_payloads(join_run):
    return {"runs": (runs_from_payload, runs_to_payload([join_run])),
            "reports": (reports_from_payload,
                        reports_to_payload(_sample_reports()))}


def _damage(data, payload):
    """A truncation or a one-byte overwrite of ``payload``; half the
    overwrites land in the length prefix or the JSON header."""
    if data.draw(st.booleans(), label="truncate"):
        return payload[:data.draw(st.integers(0, len(payload) - 1),
                                  label="length")]
    header_end = 8 + int.from_bytes(payload[:8], "little")
    at = data.draw(st.one_of(st.integers(0, header_end - 1),
                             st.integers(0, len(payload) - 1)), label="at")
    byte = data.draw(st.integers(0, 255).filter(lambda b: b != payload[at]),
                     label="byte")
    return payload[:at] + bytes([byte]) + payload[at + 1:]


@pytest.mark.parametrize("kind", ["runs", "reports"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_damaged_payload_decodes_or_raises_value_error(wire_payloads, kind,
                                                       data):
    decode, payload = wire_payloads[kind]
    damaged = _damage(data, payload)
    try:
        decode(damaged)
    except ValueError:
        pass


# ---------------------------------------------------------------------------
# the harness fan-out: parallel == serial, bit for bit
# ---------------------------------------------------------------------------

class TestHarnessParallel:
    def test_parallel_runs_bit_identical_to_serial(self):
        serial = ExperimentHarness(UNIT_SCALE, seed=3, jobs=1,
                                   trace_store=NO_TRACE_STORE)
        parallel = ExperimentHarness(UNIT_SCALE, seed=3, jobs=2,
                                     trace_store=NO_TRACE_STORE)
        serial_runs = serial.runs("real1")
        parallel_runs = parallel.runs("real1")
        assert len(serial_runs) == len(parallel_runs)
        for a, b in zip(serial_runs, parallel_runs):
            assert_runs_identical(a, b)

    def test_parallel_training_data_bit_identical(self):
        serial = ExperimentHarness(UNIT_SCALE, seed=3, jobs=1,
                                   trace_store=NO_TRACE_STORE)
        parallel = ExperimentHarness(UNIT_SCALE, seed=3, jobs=3,
                                     trace_store=NO_TRACE_STORE)
        direct = serial.training_data("tpch_untuned", "dynamic")
        fanned = parallel.training_data("tpch_untuned", "dynamic")
        assert np.array_equal(direct.X, fanned.X)
        assert np.array_equal(direct.errors_l1, fanned.errors_l1)
        assert np.array_equal(direct.errors_l2, fanned.errors_l2)
        assert direct.meta == fanned.meta

    def test_parallel_recorded_trace_bit_identical(self, tmp_path):
        """The trace a parallel cold start records replays into exactly
        the runs a serial cold start records (the golden-trace analogue
        for the runtime layer)."""
        serial_store = TraceStore(tmp_path / "serial")
        parallel_store = TraceStore(tmp_path / "parallel")
        ExperimentHarness(UNIT_SCALE, seed=3, trace_store=serial_store,
                          jobs=1).runs("real2")
        ExperimentHarness(UNIT_SCALE, seed=3, trace_store=parallel_store,
                          jobs=2).runs("real2")
        key = ExperimentHarness(UNIT_SCALE, seed=3,
                                trace_store=NO_TRACE_STORE).trace_key("real2")
        for a, b in zip(serial_store.load(key), parallel_store.load(key)):
            assert_runs_identical(a, b)

    def test_repro_jobs_env_activates_fanout(self, monkeypatch):
        """jobs=None defers to REPRO_JOBS at *execution* time, so the env
        must be set while runs() executes (not just at construction)."""
        from repro.experiments import harness as harness_mod
        fanouts = []
        real_run_tasks = harness_mod.run_tasks

        def spying_run_tasks(worker, tasks, jobs=None, **kwargs):
            fanouts.append((len(tasks), jobs))
            return real_run_tasks(worker, tasks, jobs=jobs, **kwargs)

        monkeypatch.setattr(harness_mod, "run_tasks", spying_run_tasks)
        monkeypatch.setenv("REPRO_JOBS", "2")
        from_env = ExperimentHarness(UNIT_SCALE, seed=3,
                                     trace_store=NO_TRACE_STORE)
        env_runs = from_env.runs("real1")
        monkeypatch.delenv("REPRO_JOBS")
        serial = ExperimentHarness(UNIT_SCALE, seed=3,
                                   trace_store=NO_TRACE_STORE)
        serial_runs = serial.runs("real1")
        for a, b in zip(serial_runs, env_runs):
            assert_runs_identical(a, b)
        assert fanouts == [(2, 2)], \
            "REPRO_JOBS=2 must fan out (and jobs=1 must not touch the pool)"

    def test_jobs_capped_by_query_count(self):
        harness = ExperimentHarness(UNIT_SCALE, seed=3, jobs=64,
                                    trace_store=NO_TRACE_STORE)
        runs = harness.runs("real1")  # 2 queries -> at most 2 workers
        assert len(runs) == UNIT_SCALE.suite.real1_queries

    def test_query_count_matches_bundles(self):
        harness = ExperimentHarness(UNIT_SCALE, seed=3,
                                    trace_store=NO_TRACE_STORE)
        for name in harness.suite.names:
            assert harness.suite.query_count(name) == \
                len(harness.suite.bundle(name).queries), name
        with pytest.raises(KeyError, match="unknown workload"):
            harness.suite.query_count("nope")
