"""Tests of the benchmark itself: ``python -m pytest bench -q``.

Not part of the tier-1 suite (``testpaths`` is ``tests/``).  The smoke test
runs every workload end to end on shrunken inputs.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import run
import spans
from hostspeed import NOMINAL_S, HostSpeed
from layers import LAYERS
from spans import Recorder
from workloads import StreamCheck, latency_summary, served_l1, tail_percentile

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


# -- the percentile rule -------------------------------------------------------


@pytest.mark.parametrize("n, expected", [
    (1000, 90.0), (100, 90.0),   # 10 samples beyond p90
    (99, 75.0), (40, 75.0),      # p90 has < 10 beyond, p75 has >= 10
    (39, 50.0), (20, 50.0),
    (19, None), (2, None),       # not even p50 has 10 beyond
])
def test_tail_percentile_is_highest_with_ten_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_latency_summary_falls_back_to_max():
    p50, tail, label = latency_summary([0.001, 0.003, 0.002])
    assert (p50, tail, label) == (2.0, 3.0, "max of 3")
    samples = list(np.arange(1, 101) / 1e3)  # 1..100 ms
    p50, tail, label = latency_summary(samples)
    assert label == "p90 of 100"
    assert tail == pytest.approx(np.percentile(np.arange(1, 101), 90))


# -- span arithmetic -----------------------------------------------------------


class FakeClock:
    """A perf_counter_ns stand-in that only moves when told to."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def advance(self, ns):
        self.now += ns


def test_self_time_excludes_nested_spans(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(spans.time, "perf_counter_ns", clock)
    recorder = Recorder(["outer", "inner"])

    def inner():
        clock.advance(2)

    def outer():
        clock.advance(5)
        inner_span()
        inner_span()
        clock.advance(3)

    inner_span = recorder.wrap("inner", inner)
    outer_span = recorder.wrap("outer", outer)
    outer_span()
    layers = recorder.snapshot()["layers"]
    assert layers["outer"] == {"calls": 1, "total_ns": 12, "self_ns": 8,
                               "work": 0}
    assert layers["inner"] == {"calls": 2, "total_ns": 4, "self_ns": 4,
                               "work": 0}


def test_span_closes_on_exception_and_work_counts_success(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(spans.time, "perf_counter_ns", clock)
    recorder = Recorder(["layer"])

    def scored(rows, fail=False):
        clock.advance(len(rows))
        if fail:
            raise ValueError("boom")
        return rows

    span = recorder.wrap("layer", scored, work=lambda args, r: len(r))
    span([1, 2, 3])
    with pytest.raises(ValueError):
        span([1], fail=True)
    row = recorder.snapshot()["layers"]["layer"]
    assert row == {"calls": 2, "total_ns": 4, "self_ns": 4, "work": 3}


def test_threads_keep_separate_stacks():
    recorder = Recorder(["a"])
    span = recorder.wrap("a", lambda: time.sleep(0.01))
    threads = [threading.Thread(target=span) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    snap = recorder.snapshot()
    assert snap["layers"]["a"]["calls"] == 4
    # concurrent spans never become each other's children
    assert snap["layers"]["a"]["self_ns"] == snap["layers"]["a"]["total_ns"]


def test_patch_methods_covers_overrides():
    class Base:
        def step(self):
            return "base"

    class Override(Base):
        def step(self):
            return "override"

    class Inherits(Base):
        pass

    recorder = Recorder(["step"])
    recorder.patch_methods("step", Base, "step")
    assert [c().step() for c in (Base, Override, Inherits)] == [
        "base", "override", "base"]
    assert recorder.snapshot()["layers"]["step"]["calls"] == 3


def test_diff_and_merge():
    before = {"layers": {"a": {"calls": 1, "total_ns": 5, "self_ns": 5,
                               "work": 0}}}
    after = {"layers": {"a": {"calls": 3, "total_ns": 9, "self_ns": 7,
                              "work": 2}}}
    interval = spans.diff(before, after)
    assert interval == {"a": {"calls": 2, "total_ns": 4, "self_ns": 2,
                              "work": 2}}
    assert spans.merge([interval, interval])["a"]["calls"] == 4


# -- served accuracy -----------------------------------------------------------


def _hand_built_run(total_time):
    from repro.engine.run import QueryRun

    times = np.array([0.0, total_time])
    zeros = np.zeros((2, 1))
    return QueryRun(query_name="q", db_name="db", nodes=[], pipelines=[],
                    times=times, K=zeros, R=zeros, W=zeros, LB=zeros,
                    UB=zeros, N=np.zeros(1), total_time=total_time)


def _report(time_, progress):
    from repro.core.monitor import ProgressReport

    return ProgressReport(time=time_, progress=progress, active_pid=0,
                          active_estimator="dne")


def test_served_l1_on_a_hand_built_run():
    run_ = _hand_built_run(10.0)
    # truth clip(t / 10): 0, 0.5, 1, 1 (past the end clips to done)
    reports = [_report(0.0, 0.1), _report(5.0, 0.5), _report(10.0, 0.8),
               _report(12.0, 1.0)]
    assert served_l1(run_, reports) == pytest.approx(0.075)


def test_stream_check_counts_mismatches():
    expected = [[_report(5.0, 0.7)], [_report(2.0, 0.5)]]
    check = StreamCheck(expected)
    check.add(0, [_report(5.0, 0.7)])
    check.add(1, [_report(2.0, 0.5)])
    check.add(1, [_report(2.0, 0.6)])     # differs from the expected stream
    check.add(0, [])                      # a truncated stream
    assert (check.sessions, check.mismatches) == (4, 2)


# -- host-speed rescaling ------------------------------------------------------


def _speed(costs, start=0.0, step=1.0):
    speed = HostSpeed()
    speed.at = [start + i * step for i in range(len(costs))]
    speed.cost = list(costs)
    return speed


def test_scale_is_the_mean_of_the_probes_in_the_interval():
    # probes at t = 0..9; the interval [2, 8] holds seven of them
    speed = _speed([1, 1, 2, 4, 4, 4, 4, 9, 9, 1], step=1.0)
    mean = statistics.fmean([2, 4, 4, 4, 4, 9, 9])
    assert speed.scale(2.0, 8.0) == NOMINAL_S / mean
    assert speed.seconds(2.0, 8.0) == pytest.approx(6.0 * NOMINAL_S / mean)


def test_scale_widens_a_short_interval_to_the_nearest_probes():
    costs = [8, 8, 8, 2, 2, 2, 2, 2, 8, 8, 8]
    speed = _speed(costs, step=1.0)
    # no probe inside [5.2, 5.4]: the five nearest are t = 3..7
    assert speed.scale(5.2, 5.4) == NOMINAL_S / 2
    # at the start of the record the window can only grow to the right
    assert speed.scale(-3.0, -2.0) == NOMINAL_S / statistics.fmean(costs[:5])
    with pytest.raises(ValueError):
        HostSpeed().scale(0.0, 1.0)


def test_probes_run_in_the_background_until_exit():
    with HostSpeed() as speed:
        time.sleep(0.35)
    assert not speed._thread.is_alive()
    taken = len(speed.at)
    assert taken >= 4  # entry, three periods, exit
    assert speed.at == sorted(speed.at) and len(speed.cost) == taken
    time.sleep(0.15)
    assert len(speed.at) == taken


def test_a_slower_host_rescales_to_the_same_time():
    work = 0.5  # seconds of the same work on the nominal host
    for slowdown in (1.0, 1.3, 2.0):
        speed = _speed([NOMINAL_S * slowdown] * 5, step=0.25)
        assert speed.seconds(0.0, work * slowdown) == pytest.approx(work)


# -- the command ---------------------------------------------------------------


def _declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def test_benchmark_json_names_what_the_command_prints():
    end_to_end, per_layer = _declared_metrics()
    assert end_to_end == run.END_TO_END
    expected = {f"{name}_pct": "%" for name in LAYERS}
    expected.update({name: unit for name, (unit, *_) in run.COUNTS.items()})
    expected["net.loop_lag_p90_ms"] = "ms"
    assert per_layer == expected


def test_smoke_runs_every_workload_within_a_minute():
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all",
         "--seed", "0", "--seconds", "1", "--smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=120)
    elapsed = time.perf_counter() - started
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert elapsed < 60
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    end_to_end, _ = _declared_metrics()
    from workloads import WORKLOADS

    for workload in WORKLOADS:
        for name, unit in end_to_end.items():
            metric = result["metrics"][f"{workload}.{name}"]
            assert metric["unit"] == unit
            assert metric["value"] > 0


def test_traced_smoke_writes_spans():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "train_eval",
         "--seed", "0", "--seconds", "1", "--smoke", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    _, per_layer = _declared_metrics()
    assert set(result["metrics"]) == set(per_layer)
    written = json.loads(
        (ROOT / ".bench_out" / "train_eval" / "spans.json").read_text())
    assert written["layers"]["learning.fit"]["calls"] > 0


def test_fails_without_the_program():
    bare = ROOT / ".bench_out" / "bare"  # only BENCHMARK.json and bench/
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "replay_pooled",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=bare, timeout=60)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
