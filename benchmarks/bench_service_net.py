"""Network soak: the asyncio front end under sustained session churn.

The acceptance benchmark for :mod:`repro.service.net`: a soak of
:data:`N_SESSIONS` replay sessions — the same mixed static + ``adhoc_fuzz``
workload the fleet soak uses — submitted in :data:`WAVE`-run POST batches
over real sockets against a bounded-admission server, every session's
report stream consumed by its own WebSocket subscriber, every finished
session DELETEd.  Admission control is part of the measured path: a wave
that does not fit under ``max_inflight`` gets 429, and the submitter
obeys the server's ``Retry-After`` backoff, so the soak exercises the
full admit/serve/stream/retire loop the API promises, not an
unconstrained firehose.

Contracts locked:

* **drain** — every submitted session completes, streams its full report
  count, and is deleted; the server ends the soak with zero inflight;
* **sustained throughput** — sessions/second over the whole wall-clock
  window (including the 429 backoff waits) must clear
  :data:`REQUIRED_SESSIONS_PER_SECOND`;
* **per-tick report latency** — the supervisor's lockstep round p99 (as
  observed by a client through the ``stats`` route) must stay within a
  small multiple of the median: subscriber fan-out must not turn tick
  rounds into stalls.

Results persist via ``save_result`` to ``results/service_net.{json,md}``.
"""

import asyncio
import time

import numpy as np

from repro.catalog.statistics import build_statistics
from repro.core.monitor import ProgressMonitor
from repro.datagen.tpch import generate_tpch
from repro.engine.executor import ExecutorConfig, QueryExecutor
from repro.experiments.results import format_table, save_result
from repro.fuzz.generate import generate_fuzz_database, generate_fuzz_queries
from repro.optimizer.planner import Planner
from repro.query.logical import Aggregate, JoinEdge, QuerySpec
from repro.runtime import available_cpus
from repro.runtime.transport import reports_from_payload
from repro.service.net import ProgressClient, ProgressServer, ServiceError

N_SESSIONS = 384
N_SHARDS = 2
#: small tick slices keep a wave inflight across several submit round
#: trips, so the next wave reliably trips ``max_inflight`` — the soak
#: hits (and recovers from) the 429 backoff path instead of racing an
#: instantly-draining fleet
SLICE_STEPS = 2
#: sessions per POST; two waves never fit under the cap together
WAVE = 8
MAX_INFLIGHT = 12
RETRY_AFTER = 0.02
REFRESH_EVERY = 3

#: sustained admitted-sessions/second floor, backoff waits included
REQUIRED_SESSIONS_PER_SECOND = 20.0
#: round p99 must stay within this multiple of the median (with an
#: absolute floor so a microsecond-median machine doesn't flake)
P99_MEDIAN_MULTIPLE = 25.0
P99_FLOOR_SECONDS = 0.075


def _monitor_factory():
    return ProgressMonitor(refresh_every=REFRESH_EVERY)


def _static_queries():
    """The fleet soak's TPC-H-shaped anchors: streaming join + rollup."""
    streaming = QuerySpec(
        name="net_stream",
        tables=["orders", "lineitem"],
        joins=[JoinEdge("orders", "o_orderkey", "lineitem", "l_orderkey")],
        filters=[],
    )
    grouped = QuerySpec(
        name="net_grouped",
        tables=["orders", "lineitem"],
        joins=[JoinEdge("orders", "o_orderkey", "lineitem", "l_orderkey")],
        group_by=["o_custkey"],
        aggregates=[Aggregate("sum", "l_extendedprice"), Aggregate("count")],
    )
    return [streaming, grouped]


def _base_runs():
    """Recorded runs the soak replays: 2 static + 4 adhoc_fuzz."""
    runs = []
    db = generate_tpch(lineitem_rows=2000, z=1.0, seed=42)
    planner = Planner(db, build_statistics(db))
    for query in _static_queries():
        runs.append(QueryExecutor(db, ExecutorConfig(
            batch_size=256, target_observations=48, seed=7,
        )).execute(planner.plan(query), query.name))
    for seed in (11, 12):
        fdb, info = generate_fuzz_database(seed, rows=600)
        fplanner = Planner(fdb, build_statistics(fdb))
        for query in generate_fuzz_queries(info, 2, seed * 7919 + 2):
            runs.append(QueryExecutor(fdb, ExecutorConfig(
                batch_size=128, target_observations=48, seed=seed,
            )).execute(fplanner.plan(query), query.name))
    return runs


async def _watch(address, sid, submitted_at, out):
    """One subscriber: consume the session's stream, then DELETE it."""
    client = ProgressClient(*address)
    try:
        frames, done = await client.stream("bench", sid)
        out["done_latency"].append(time.perf_counter() - submitted_at)
        rows = sum(len(reports_from_payload(frame)) for frame in frames)
        assert rows == done["reports"], (
            f"session {sid}: streamed {rows} rows, server counted "
            f"{done['reports']}")
        out["reports"] += rows
        await client.delete_session("bench", sid)
    finally:
        await client.aclose()


async def _soak(base_runs):
    """Drive the full admit/serve/stream/retire soak; result dict."""
    out = {"done_latency": [], "reports": 0, "backoffs": 0}
    async with ProgressServer(
            _monitor_factory, n_shards=N_SHARDS, slice_steps=SLICE_STEPS,
            max_inflight=MAX_INFLIGHT, retry_after=RETRY_AFTER) as server:
        submitter = ProgressClient(*server.address)
        watchers = []
        submitted = 0
        started = time.perf_counter()
        while submitted < N_SESSIONS:
            wave = [base_runs[(submitted + i) % len(base_runs)]
                    for i in range(min(WAVE, N_SESSIONS - submitted))]
            try:
                sids = await submitter.submit_runs("bench", wave)
            except ServiceError as exc:
                assert exc.status == 429, exc
                out["backoffs"] += 1
                await asyncio.sleep(exc.retry_after)
                continue
            now = time.perf_counter()
            for sid in sids:
                watchers.append(asyncio.create_task(_watch(
                    server.address, sid, now, out)))
            submitted += len(sids)
        await asyncio.gather(*watchers)
        wall = time.perf_counter() - started
        stats = await submitter.stats("bench")
        health = await submitter.healthz()
        await submitter.aclose()
    fleet = stats["fleet"]
    lat = np.asarray(out["done_latency"])
    return {
        "sessions": submitted,
        "completed": fleet["sessions_completed"],
        "inflight_at_end": health["sessions_inflight"],
        "reports": out["reports"],
        "backoffs": out["backoffs"],
        "deferrals": fleet["deferrals"],
        "wall_seconds": wall,
        "sessions_per_second": submitted / wall,
        "round_p50_ms": fleet["round_p50_ms"],
        "round_p99_ms": fleet["round_p99_ms"],
        "tick_p99_ms": fleet["tick_p99_ms"],
        "done_latency_p50_ms": 1e3 * float(np.percentile(lat, 50)),
        "done_latency_p99_ms": 1e3 * float(np.percentile(lat, 99)),
    }


def test_service_net_soak(benchmark):
    base_runs = _base_runs()
    results = {"base_runs": len(base_runs), "n_shards": N_SHARDS,
               "slice_steps": SLICE_STEPS, "max_inflight": MAX_INFLIGHT,
               "cpus": available_cpus()}

    def measure():
        results.update(asyncio.run(_soak(base_runs)))
        return results

    benchmark.pedantic(measure, rounds=1, iterations=1)

    table = format_table(
        ["sessions/sec", "round p50 ms", "round p99 ms", "done p99 ms",
         "backoffs", "wall s"],
        [[f"{results['sessions_per_second']:.0f}",
          f"{results['round_p50_ms']:.2f}",
          f"{results['round_p99_ms']:.2f}",
          f"{results['done_latency_p99_ms']:.0f}",
          str(results["backoffs"]),
          f"{results['wall_seconds']:.2f}"]],
        title=(f"Network soak — {N_SESSIONS} sessions over HTTP/WS, "
               f"{N_SHARDS} inline shard(s), max_inflight {MAX_INFLIGHT}, "
               f"one subscriber per session, {results['cpus']} CPU(s)"))
    print("\n" + table)
    save_result("service_net", table, results)

    # Acceptance 1: full drain — every session admitted, streamed, deleted.
    assert results["completed"] == results["sessions"] == N_SESSIONS
    assert results["inflight_at_end"] == 0
    assert results["reports"] > 0

    # Acceptance 1b: admission control actually engaged — at least one
    # wave was refused with 429 and retried after the server's backoff.
    assert results["backoffs"] > 0, (
        "soak never hit the 429 path; admission control went unexercised")

    # Acceptance 2: sustained sessions/sec over the soak, backoff included.
    assert results["sessions_per_second"] >= REQUIRED_SESSIONS_PER_SECOND, (
        f"sustained {results['sessions_per_second']:.1f} sessions/s over "
        f"the network soak (need >= {REQUIRED_SESSIONS_PER_SECOND})")

    # Acceptance 3: p99 lockstep round stays near the median — subscriber
    # fan-out and admission churn must not produce tick stalls.
    p50 = results["round_p50_ms"] / 1e3
    p99 = results["round_p99_ms"] / 1e3
    bound = max(P99_MEDIAN_MULTIPLE * p50, P99_FLOOR_SECONDS)
    assert p99 <= bound, (
        f"round p99 {p99 * 1e3:.2f}ms blew past {bound * 1e3:.2f}ms "
        f"(median {p50 * 1e3:.2f}ms)")
