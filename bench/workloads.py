"""The benchmark's four workloads, their set-up and their output checks.

Serving workloads (``replay_pooled``, ``live_pooled``, ``net_fleet``) serve
selectors trained at set-up on TINY recordings of the five paper workloads
other than ``real2``, and they serve the 128 SMALL recordings or queries of
``real2`` + ``adhoc_fuzz``: the paper's held-out generalization case.  The
``train_eval`` workload runs the paper's pipeline itself.  Recordings,
selectors and queries come from fixed harness seeds, so accuracy metrics are
exact across benchmark seeds; the benchmark seed draws the order in which
sessions are submitted (for ``train_eval``, the order in which the six
workloads execute).

Load is a closed loop: a finished session is replaced by the next one drawn,
so concurrency stays fixed and a slow program receives less load.

Every time is rescaled to a host of fixed speed by the probes of
:mod:`hostspeed`; the raw times are printed beside the metrics.
"""

from __future__ import annotations

import asyncio
import json
import os
import queue
import random
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from hostspeed import NOMINAL_S, HostSpeed
from repro.core.evaluate import evaluate_fixed, evaluate_selection
from repro.core.monitor import ProgressMonitor
from repro.core.training import train_selector
from repro.engine.executor import QueryExecutor
from repro.experiments.harness import NO_TRACE_STORE, ExperimentHarness
from repro.experiments.scale import SMALL, TINY, ScaleProfile
from repro.learning.mart import MARTParams
from repro.learning.serialize import selector_to_dict
from repro.runtime.transport import reports_from_payload
from repro.service import ProgressService
from repro.service.net import ProgressClient, ServiceError
from repro.service.net.websocket import ProtocolError
from repro.workloads.suite import WorkloadSuite

BENCH_DIR = Path(__file__).resolve().parent
#: the held-out paper workload (selectors never train on it)
TEST_WORKLOAD = "real2"
#: the families whose SMALL recordings and queries are served
SERVED = ("real2", "adhoc_fuzz")
#: live_pooled executes every query under its harness executor seed and
#: under that seed plus this offset
SECOND_SEED = 1_000
#: set-up repeats until it has taken this long (so only train_eval's
#: 0.1 s set-up repeats); setup_s is the median
SETUP_MIN_S = 1.0
#: a run gives up on unfinished sessions this long after its window
DEADLINE_S = 30.0
#: train_eval runs at least this many pipelines, so the p75 of its model
#: fits (eight per pipeline) always has ten samples beyond it
MIN_PIPELINES = 5
#: the net generator's poll period; completion times are quantized by it
POLL_S = 0.020
TENANT = "bench"

WORKLOADS = ("replay_pooled", "live_pooled", "net_fleet", "train_eval")


@dataclass(frozen=True)
class Profile:
    """Input sizes: the benchmark's own, or the shrunken smoke test's."""

    #: MART of the served selectors
    serve_mart: MARTParams
    #: scale of the served recordings and queries
    serve_scale: ScaleProfile
    #: MART of the train_eval pipeline
    eval_mart: MARTParams
    warmup_s: float
    net_warmup_s: float


FULL = Profile(serve_mart=TINY.mart_params(), serve_scale=SMALL,
               eval_mart=TINY.mart_params(), warmup_s=1.5, net_warmup_s=3.0)
SMOKE = Profile(serve_mart=TINY.mart_params(n_trees=2), serve_scale=TINY,
                eval_mart=TINY.mart_params(n_trees=4), warmup_s=0.2,
                net_warmup_s=0.3)


@dataclass(frozen=True)
class Serving:
    """How one serving workload drives the service."""

    refresh_every: int
    #: sessions kept outstanding: the service's ``max_live`` in process,
    #: sessions in flight over the network
    concurrency: int
    #: the pooled service's slice; the server keeps its default (8)
    slice_steps: int = 8
    live: bool = False


SERVING = {
    "replay_pooled": Serving(refresh_every=1, concurrency=128),
    "live_pooled": Serving(refresh_every=5, concurrency=32, slice_steps=1,
                           live=True),
    "net_fleet": Serving(refresh_every=5, concurrency=64),
}


# -- helpers -------------------------------------------------------------------


def session_order(seed: int, n: int):
    """Endless order of base indices: a fresh seeded permutation per cycle."""
    rng = random.Random(seed)
    while True:
        cycle = list(range(n))
        rng.shuffle(cycle)
        yield from cycle


def served_l1(run, reports) -> float:
    """Mean |served progress - time-based true progress| of one stream."""
    progress = np.array([r.progress for r in reports])
    times = np.array([r.time for r in reports])
    truth = np.clip(times / run.total_time, 0.0, 1.0)
    return float(np.mean(np.abs(progress - truth)))


def tail_percentile(n: int, top: float = 90.0) -> float | None:
    """Highest of p90/p75/p50 (capped at ``top``) with at least ten of
    ``n`` samples above it; ``None`` when even p50 has fewer."""
    for q in (90.0, 75.0, 50.0):
        if q <= top and n * (100.0 - q) >= 1000.0:
            return q
    return None


def latency_summary(samples: list[float], top: float = 90.0
                    ) -> tuple[float, float, str]:
    """(p50 ms, tail ms, label) of latency samples given in seconds.

    The tail is the percentile ``top`` fixed by the workload, lowered by the
    ten-beyond rule of :func:`tail_percentile` only for a run with too few
    samples (the maximum when no percentile qualifies); the label says
    which percentile of how many samples was reported."""
    ms = np.asarray(samples) * 1e3
    if not len(ms):
        return 0.0, 0.0, "no samples"
    p50 = float(np.percentile(ms, 50))
    q = tail_percentile(len(ms), top)
    if q is None:
        return p50, float(ms.max()), f"max of {len(ms)}"
    return p50, float(np.percentile(ms, q)), f"p{q:g} of {len(ms)}"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class StreamCheck:
    """Compares each served stream with the expected stream of its base
    run."""

    def __init__(self, expected):
        self.expected = expected
        self.sessions = 0
        self.mismatches = 0

    def add(self, base: int, reports) -> None:
        self.sessions += 1
        if reports != self.expected[base]:
            self.mismatches += 1


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int
    failed: int
    setup_s: float
    runs_per_s: float
    latency: tuple[float, float, str]
    l1_error: float
    peak_rss_mb: float
    #: traced runs: per-layer accumulators over the traced section
    layers: dict | None = None
    section_s: float = 0.0
    runs: int = 0
    reports: int = 0
    #: traced net_fleet: p90 of the server's event-loop lag
    loop_lag_p90_ms: float = 0.0
    checks: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


def timed_setup(build, traced: bool, speed: HostSpeed):
    """Build a workload's inputs; (last result, median rescaled seconds).

    A traced run builds once; an untraced run builds until
    :data:`SETUP_MIN_S` has passed, releasing each earlier result first
    (its net server is stopped)."""
    seconds: list[float] = []
    result = None
    while not seconds or not traced and sum(seconds) < SETUP_MIN_S:
        if result is not None:
            release(result)
        started = time.perf_counter()
        result = build()
        ended = time.perf_counter()
        seconds.append(speed.seconds(started, ended))
    return result, statistics.median(seconds)


def release(result) -> None:
    server = getattr(result, "server", None)
    if server is not None:
        server.stop()


def host_note(speed: HostSpeed) -> str:
    return (f"host: reference kernel mean {speed.mean_cost() * 1e3:.3f}"
            f" ms over {len(speed.cost)} probes (nominal "
            f"{NOMINAL_S * 1e3:g} ms); times below are rescaled to nominal")


# -- serving set-up ------------------------------------------------------------


@dataclass
class Served:
    """Everything a serving workload needs, built at set-up."""

    monitor: ProgressMonitor
    #: the base runs; sessions cycle through them
    runs: list
    #: each base run's report stream as in-process pooled replay serves it
    expected: list
    #: served L1 over every base run's expected stream
    l1: float
    #: live queries: (db, plan, name, executor config) per base run
    plans: list | None = None
    server: "NetServer | None" = None


def live_bases(serve: ExperimentHarness):
    """(plans, runs) of every served query under two executor seeds, the
    harness's first; the second seed's runs are recorded here."""
    plans, runs, second_plans, second_runs = [], [], [], []
    for w in SERVED:
        runs += serve.runs(w)
        bundle = serve.suite.bundle(w)
        for i, query in enumerate(bundle.queries):
            plan = bundle.planner.plan(query)
            config = serve.executor_config(i)
            plans.append((bundle.db, plan, query.name, config))
            config = replace(config, seed=config.seed + SECOND_SEED)
            second_plans.append((bundle.db, plan, query.name, config))
            second_runs.append(QueryExecutor(bundle.db, config).execute(
                plan, query_name=query.name))
    return plans + second_plans, runs + second_runs


def setup_serving(workload: str, profile: Profile,
                  trace_dir: Path | None = None) -> Served:
    cfg = SERVING[workload]
    train = ExperimentHarness(TINY, seed=0, trace_store=NO_TRACE_STORE,
                              jobs=1)
    folds = [w for w in train.suite.names if w != TEST_WORKLOAD]
    static, dynamic = (
        train_selector(train.pooled_training_data(folds, mode),
                       profile.serve_mart)
        for mode in ("static", "dynamic"))
    monitor = ProgressMonitor(static, dynamic, estimators=train.estimators,
                              refresh_every=cfg.refresh_every)
    serve = ExperimentHarness(profile.serve_scale, seed=0,
                              trace_store=NO_TRACE_STORE, jobs=1)
    plans = None
    if cfg.live:
        plans, runs = live_bases(serve)
    else:
        runs = []
        for w in SERVED:
            runs += serve.runs(w)
    # the bit-identity invariant: every stream served by any path must
    # equal the in-process pooled replay of its recording
    replay = ProgressService(monitor)
    for run in runs:
        replay.submit_replay(run)
    done = replay.run_until_complete()
    expected = [done[sid][1] for sid in range(len(runs))]
    l1 = float(np.mean([served_l1(run, reports)
                        for run, reports in zip(runs, expected) if reports]))
    served = Served(monitor, runs, expected, l1, plans)
    if workload == "net_fleet":
        served.server = NetServer(static, dynamic, cfg, trace_dir)
    return served


def served_note(served: Served, check: StreamCheck, unfinished: int = 0,
                errors: int = 0) -> str:
    return (f"served: {check.sessions} sessions over {len(served.runs)} "
            f"base runs, {check.mismatches} mismatched, {errors} non-2xx or "
            f"broken streams, {unfinished} unfinished at the deadline")


# -- in-process pooled serving -------------------------------------------------


def drive_pooled(served: Served, cfg: Serving, seconds: float,
                 warmup_s: float, seed: int, recorder=None) -> dict:
    """Closed loop over one :class:`ProgressService`: keep ``concurrency``
    sessions live, replace each finished one, time every tick.  Sessions
    still live when the window ends are abandoned unchecked."""
    finished = []
    service = ProgressService(served.monitor, slice_steps=cfg.slice_steps,
                              max_live=cfg.concurrency,
                              on_complete=finished.append)
    draw = session_order(seed, len(served.runs))
    bases: dict[int, int] = {}  # session id -> base run index
    check = StreamCheck(served.expected)

    def submit() -> None:
        base = next(draw)
        if served.plans is not None:
            db, plan, name, config = served.plans[base]
            sid = service.submit(db, plan, query_name=name, config=config)
        else:
            sid = service.submit_replay(served.runs[base])
        bases[sid] = base

    for _ in range(cfg.concurrency):
        submit()
    window_start = time.perf_counter() + warmup_s
    window_end = window_start + seconds
    ticks: list[tuple[float, float]] = []
    completed = reports = 0
    before = None
    while True:
        t0 = time.perf_counter()
        if t0 >= window_end:
            break
        in_window = t0 >= window_start
        if recorder is not None and in_window and before is None:
            before = recorder.snapshot()
        service.tick()
        t1 = time.perf_counter()
        if in_window:
            ticks.append((t0, t1))
        for session in finished:
            check.add(bases.pop(session.session_id), session.reports)
            if in_window:
                completed += 1
                reports += len(session.reports)
            service.release_session(session.session_id)
            submit()
        finished.clear()
    after = recorder.snapshot() if recorder is not None else None
    return {"check": check, "ticks": ticks, "completed": completed,
            "reports": reports, "spans": (before, after)}


def run_pooled(workload: str, seed: int, seconds: float, profile: Profile,
               speed: HostSpeed, recorder=None) -> Outcome:
    cfg = SERVING[workload]
    served, setup_s = timed_setup(
        lambda: setup_serving(workload, profile), recorder is not None, speed)
    out = drive_pooled(served, cfg, seconds, profile.warmup_s, seed, recorder)
    check = out["check"]
    rounds = [speed.seconds(t0, t1) for t0, t1 in out["ticks"]]
    busy = sum(rounds)
    raw_busy = sum(t1 - t0 for t0, t1 in out["ticks"])
    outcome = Outcome(
        attempted=check.sessions, failed=check.mismatches, setup_s=setup_s,
        runs_per_s=out["completed"] / busy,
        # a window holds about a hundred rounds: p90 would have fewer than
        # ten beyond it in a slower run, so the tail is fixed at p75
        latency=latency_summary(rounds, top=75.0), l1_error=served.l1,
        peak_rss_mb=peak_rss_mb(),
        section_s=raw_busy, runs=out["completed"], reports=out["reports"])
    outcome.notes += [
        host_note(speed),
        f"window: {busy:.3f} s busy in ticks ({raw_busy:.3f} s raw), "
        f"{out['completed']} sessions, {out['reports']} reports "
        f"({out['reports'] / busy:.0f} reports/s, raw "
        f"{out['completed'] / raw_busy:.2f} sessions/s)",
        f"latency: one tick round, i.e. the interval between two reports of "
        f"a live session ({outcome.latency[2]})",
        served_note(served, check)]
    if recorder is not None:
        from spans import diff
        outcome.layers = diff(*out["spans"])
    return outcome


# -- network serving -----------------------------------------------------------


class NetServer:
    """The progress server in its own process (``netserver.py``)."""

    def __init__(self, static, dynamic, cfg: Serving,
                 trace_dir: Path | None):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "netserver.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            start_new_session=True)  # its shard worker joins this group
        self.stats: dict = {}
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        config = {"static": selector_to_dict(static),
                  "dynamic": selector_to_dict(dynamic),
                  "refresh_every": cfg.refresh_every,
                  "max_inflight": 16 * cfg.concurrency,
                  "trace_dir": None if trace_dir is None else str(trace_dir)}
        self.proc.stdin.write(json.dumps(config) + "\n")
        self.proc.stdin.flush()
        ready = self._line(timeout=60.0).split()
        if not ready or ready[0] != "READY":
            self.stop()
            raise RuntimeError(f"progress server did not start: {ready}")
        self.address = (ready[1], int(ready[2]))

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line.strip())
        self._lines.put("")

    def _line(self, timeout: float) -> str:
        try:
            return self._lines.get(timeout=timeout)
        except queue.Empty:
            return ""

    def stop(self, timeout: float = 60.0) -> dict:
        """Drain and stop the server; its final stats (empty if killed)."""
        if self.proc.poll() is None:
            self.proc.stdin.close()
            line = self._line(timeout)
            if line.startswith("{"):
                self.stats = json.loads(line)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()
        self._reader.join(timeout=5.0)
        return self.stats


async def drive_net(served: Served, cfg: Serving, seconds: float,
                    warmup_s: float, seed: int) -> dict:
    """Closed loop of ``concurrency`` sessions over at most two
    connections: a keep-alive control connection (POST, a 20 ms poll of the
    session list, DELETE) and one WebSocket stream connection at a time."""
    host, port = served.server.address
    control = ProgressClient(host, port)
    streamer = ProgressClient(host, port)
    draw = session_order(seed, len(served.runs))
    check = StreamCheck(served.expected)
    inflight: dict[int, tuple[int, float]] = {}
    ready: asyncio.Queue = asyncio.Queue()
    deletable: list[int] = []
    timing = {"submit": [], "poll": [], "fetch": []}
    #: (POST sent, completion seen) of each session completed in the window
    sessions_timed: list[tuple[float, float]] = []
    stats = {"errors": 0, "attempted": 0, "reports": 0, "unverified": 0}
    started = time.perf_counter()
    window_start = started + warmup_s
    window_end = window_start + seconds
    deadline = window_end + DEADLINE_S

    async def stream_loop() -> None:
        while True:
            item = await ready.get()
            if item is None:
                return
            sid, base = item
            t0 = time.perf_counter()
            try:
                frames, _ = await streamer.stream(TENANT, sid)
            except (ServiceError, ProtocolError, OSError,
                    asyncio.IncompleteReadError):
                stats["errors"] += 1
                continue
            timing["fetch"].append(time.perf_counter() - t0)
            reports = [r for frame in frames
                       for _, r in reports_from_payload(frame)]
            stats["reports"] += len(reports)
            check.add(base, reports)
            deletable.append(sid)

    async def control_loop() -> None:
        while inflight or time.perf_counter() < window_end:
            t0 = time.perf_counter()
            need = cfg.concurrency - len(inflight)
            if t0 < window_end and need > 0:
                bases = [next(draw) for _ in range(need)]
                try:
                    sids = await control.submit_runs(
                        TENANT, [served.runs[b] for b in bases])
                except ServiceError:
                    stats["errors"] += 1
                else:
                    for sid, base in zip(sids, bases):
                        inflight[sid] = (base, t0)
                    stats["attempted"] += len(sids)
                timing["submit"].append(time.perf_counter() - t0)
            t1 = time.perf_counter()
            try:
                sessions = await control.list_sessions(TENANT)
            except ServiceError:
                stats["errors"] += 1
                sessions = []
            seen = time.perf_counter()
            timing["poll"].append(seen - t1)
            for entry in sessions:
                sid = entry["session"]
                if entry["status"] == "done" and sid in inflight:
                    base, posted = inflight.pop(sid)
                    if window_start <= seen < window_end:
                        sessions_timed.append((posted, seen))
                    ready.put_nowait((sid, base))
            while deletable:
                try:
                    await control.delete_session(TENANT, deletable.pop())
                except ServiceError:
                    stats["errors"] += 1
            pause = POLL_S - (time.perf_counter() - t1)
            if pause > 0:
                await asyncio.sleep(pause)

    streaming = asyncio.create_task(stream_loop())
    try:
        async with asyncio.timeout(deadline - time.perf_counter()):
            await control_loop()
            ready.put_nowait(None)
            await streaming
            for sid in deletable:
                await control.delete_session(TENANT, sid)
    except TimeoutError:
        stats["unverified"] = ready.qsize()
    finally:
        streaming.cancel()
        await asyncio.gather(streaming, return_exceptions=True)
        await control.aclose()
        await streamer.aclose()
    return {"check": check, "sessions": sessions_timed, "timing": timing,
            "unfinished": len(inflight) + stats["unverified"],
            "load_s": time.perf_counter() - started,
            "window": (window_start, window_end), **stats}


def run_net(seed: int, seconds: float, profile: Profile, speed: HostSpeed,
            trace_dir: Path | None = None) -> Outcome:
    cfg = SERVING["net_fleet"]
    served, setup_s = timed_setup(
        lambda: setup_serving("net_fleet", profile, trace_dir),
        trace_dir is not None, speed)
    try:
        out = asyncio.run(drive_net(served, cfg, seconds,
                                    profile.net_warmup_s, seed))
    finally:
        server_stats = served.server.stop()
    check = out["check"]
    completed = len(out["sessions"])
    window = speed.seconds(*out["window"])
    latency = [speed.seconds(posted, seen) for posted, seen in out["sessions"]]
    rss = peak_rss_mb() + sum(server_stats.get("rss_mb", [0.0]))
    outcome = Outcome(
        attempted=out["attempted"],
        failed=out["errors"] + check.mismatches + out["unfinished"],
        setup_s=setup_s, runs_per_s=completed / window,
        latency=latency_summary(latency), l1_error=served.l1,
        peak_rss_mb=rss, section_s=out["load_s"], runs=check.sessions,
        reports=out["reports"])
    client_ms = {k: 1e3 * float(np.median(v)) if v else 0.0
                 for k, v in out["timing"].items()}
    outcome.notes += [
        host_note(speed),
        f"window: {seconds:g} s ({window:.3f} s rescaled), {completed} "
        f"sessions completed after a {profile.net_warmup_s:g} s warm-up "
        f"(raw {completed / seconds:.2f} sessions/s)",
        f"latency: POST sent -> completion seen by the {POLL_S * 1e3:g} ms "
        f"poll, so quantized by {POLL_S * 1e3:g} ms ({outcome.latency[2]})",
        "client medians (raw): "
        + ", ".join(f"{k} {v:.2f} ms" for k, v in client_ms.items()),
        served_note(served, check, out["unfinished"], out["errors"]),
        f"peak RSS: bench {peak_rss_mb():.1f} MB + server/worker "
        f"{server_stats.get('rss_mb', [])} MB"]
    if trace_dir is not None:
        from spans import merge
        parts = [json.loads(p.read_text())
                 for p in sorted(trace_dir.glob("spans-*.json"))]
        outcome.layers = merge([p["layers"] for p in parts])
        lags = [s for p in parts for s in p["samples"].get("loop_lag", [])]
        if lags:
            outcome.loop_lag_p90_ms = 1e3 * float(np.percentile(lags, 90))
        outcome.notes.append(
            f"span files: {len(parts)} processes; server event-loop lag "
            f"p90 {outcome.loop_lag_p90_ms:.2f} ms over {len(lags)} probes")
    return outcome


# -- the paper's pipeline ------------------------------------------------------


def setup_train_eval() -> WorkloadSuite:
    suite = WorkloadSuite(TINY.suite, seed=0)
    for name in suite.names:
        suite.bundle(name)
    return suite


def run_pipeline(suite: WorkloadSuite, order: list[str], mart: MARTParams
                 ) -> dict:
    """Execute the six workloads, collect static + dynamic training data,
    fit both selectors on five and evaluate them on the sixth.  Each call
    is timed; ``calls`` holds (stage, start, end)."""
    calls: list[tuple[str, float, float]] = []

    def call(stage: str, fn, *args):
        t0 = time.perf_counter()
        result = fn(*args)
        calls.append((stage, t0, time.perf_counter()))
        return result

    def new_harness():
        harness = ExperimentHarness(TINY, seed=0, trace_store=NO_TRACE_STORE,
                                    jobs=1)
        harness.suite = suite  # data generation happened at set-up
        return harness

    harness = call("execute", new_harness)
    n_runs = sum(len(call("execute", harness.runs, w)) for w in order)
    folds = [w for w in suite.names if w != TEST_WORKLOAD]
    static_data = call("collect", harness.pooled_training_data, folds,
                       "static")
    dynamic_data = call("collect", harness.pooled_training_data, folds,
                        "dynamic")
    static_test = call("collect", harness.training_data, TEST_WORKLOAD,
                       "static")
    dynamic_test = call("collect", harness.training_data, TEST_WORKLOAD,
                        "dynamic")
    static = call("fit", train_selector, static_data, mart)
    dynamic = call("fit", train_selector, dynamic_data, mart)
    _, started, _ = calls[-1]
    selected = call("evaluate", evaluate_selection, dynamic, dynamic_test)
    selected_static = call("evaluate", evaluate_selection, static,
                           static_test)
    naive = call("evaluate", evaluate_fixed, dynamic_test, "dne")
    # the latency samples are the dynamic selector's model fits only: a
    # static fit (67 features) takes a third of a dynamic one (202), and a
    # median over both kinds would fall in the gap between them.  The fits
    # run back to back, so each one's interval is placed after the ones
    # before it.
    fits = []
    for model in dynamic.models.values():
        fits.append((started, started + model.fit_seconds_))
        started += model.fit_seconds_
    return {"runs": n_runs, "calls": calls, "fits": fits,
            "selected": selected, "static": selected_static, "naive": naive,
            "n_estimators": dynamic.n_estimators}


def run_train_eval(seed: int, seconds: float, profile: Profile,
                   speed: HostSpeed, recorder=None) -> Outcome:
    suite, setup_s = timed_setup(setup_train_eval, recorder is not None,
                                 speed)
    order = list(suite.names)
    random.Random(seed).shuffle(order)
    before = recorder.snapshot() if recorder is not None else None
    results = []
    started = time.perf_counter()
    while (len(results) < MIN_PIPELINES
           or time.perf_counter() - started < seconds):
        results.append(run_pipeline(suite, order, profile.eval_mart))
    layers = None
    if recorder is not None:
        from spans import diff
        layers = diff(before, recorder.snapshot())
    stages: dict[str, list[float]] = {}
    times, raw_times = [], []
    for r in results:
        per_stage = dict.fromkeys(("execute", "collect", "fit", "evaluate"),
                                  0.0)
        for stage, t0, t1 in r["calls"]:
            per_stage[stage] += speed.seconds(t0, t1)
        for stage, value in per_stage.items():
            stages.setdefault(stage, []).append(value)
        times.append(sum(per_stage.values()))
        raw_times.append(sum(t1 - t0 for _, t0, t1 in r["calls"]))
    fits = [speed.seconds(*fit) for r in results for fit in r["fits"]]
    first = results[0]
    sel = first["selected"]
    checks = []
    if not sel.oracle_l1 <= sel.avg_l1:
        checks.append(f"oracle L1 {sel.oracle_l1} exceeds selected L1 "
                      f"{sel.avg_l1}")
    idx = sel.chosen_indices
    if len(idx) and not (idx.min() >= 0 and idx.max() < first["n_estimators"]):
        checks.append("chosen estimator index out of range")
    for r in results[1:]:
        if (r["selected"].avg_l1 != sel.avg_l1
                or r["selected"].optimal_rate != sel.optimal_rate):
            checks.append("pipeline result changed between iterations")
    median_s = statistics.median(times)
    outcome = Outcome(
        attempted=len(results), failed=1 if checks else 0,
        setup_s=setup_s, runs_per_s=first["runs"] / median_s,
        latency=latency_summary(fits, top=75.0), l1_error=sel.avg_l1,
        peak_rss_mb=peak_rss_mb(), layers=layers, section_s=sum(raw_times),
        runs=first["runs"] * len(results), checks=checks)
    outcome.notes += [
        host_note(speed),
        f"window: {len(results)} pipelines of {first['runs']} query runs, "
        f"median {median_s:.3f} s (raw {statistics.median(raw_times):.3f} s)"
        ", stages " + ", ".join(f"{k} {statistics.median(v):.3f} s"
                                for k, v in stages.items()),
        f"latency: one model fit of the dynamic selector, "
        f"{len(first['fits'])} per pipeline "
        f"({outcome.latency[2]})",
        f"selected_l1 {sel.avg_l1:.6f}  optimal_share {sel.optimal_rate:.4f}"
        f"  oracle_l1 {sel.oracle_l1:.6f}  (dynamic selector on "
        f"{TEST_WORKLOAD})",
        f"naive baseline dne: l1 {first['naive'].avg_l1:.6f}  optimal_share "
        f"{first['naive'].optimal_rate:.4f};  static selector: l1 "
        f"{first['static'].avg_l1:.6f}"]
    return outcome


def run(workload: str, seed: int, seconds: float, smoke: bool,
        recorder=None, trace_dir: Path | None = None) -> Outcome:
    profile = SMOKE if smoke else FULL
    with HostSpeed() as speed:
        if workload in ("replay_pooled", "live_pooled"):
            return run_pooled(workload, seed, seconds, profile, speed,
                              recorder)
        if workload == "net_fleet":
            return run_net(seed, seconds, profile, speed, trace_dir)
        if workload == "train_eval":
            return run_train_eval(seed, seconds, profile, speed, recorder)
    raise ValueError(f"unknown workload {workload!r}")
