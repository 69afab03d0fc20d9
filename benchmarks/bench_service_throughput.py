"""Service throughput: pooled monitoring vs per-query monitoring.

The acceptance benchmark for batched selector scoring in the multi-query
:class:`ProgressService` (``test_service_throughput``): at 16
live-executing sessions the pooled path must issue >=5x fewer selector
``predict_errors`` passes than per-query solo monitoring, with
bit-identical report streams.

It prints a result table and persists it via ``save_result``; the slow
CI job runs this module as an acceptance phase, so a broken gate fails
the build.
"""

import time

import pytest

from repro.catalog.statistics import build_statistics
from repro.core.monitor import ProgressMonitor
from repro.core.training import collect_training_data, train_selector
from repro.datagen.tpch import generate_tpch
from repro.engine.executor import ExecutorConfig, QueryExecutor
from repro.experiments.results import format_table, save_result
from repro.features.vector import FeatureExtractor
from repro.learning.mart import MARTParams
from repro.optimizer.planner import Planner
from repro.progress.registry import all_estimators
from repro.query.logical import Aggregate, JoinEdge, QuerySpec
from repro.query.predicates import FilterSpec
from repro.service import ProgressService

N_SESSIONS = 16
SLICE_STEPS = 4
FAST_MART = MARTParams(n_trees=8, max_leaves=4)


def _queries():
    """Two shapes: a streaming join (many resumable steps) and a grouped
    aggregation (blocking root)."""
    streaming = QuerySpec(
        name="svc_stream",
        tables=["orders", "lineitem"],
        joins=[JoinEdge("orders", "o_orderkey", "lineitem", "l_orderkey")],
        filters=[FilterSpec("lineitem", "l_quantity", ">=", 2.0)],
    )
    grouped = QuerySpec(
        name="svc_grouped",
        tables=["customer", "orders", "lineitem"],
        joins=[JoinEdge("customer", "c_custkey", "orders", "o_custkey"),
               JoinEdge("orders", "o_orderkey", "lineitem", "l_orderkey")],
        filters=[FilterSpec("orders", "o_orderdate", "<=", 1500)],
        group_by=["c_nationkey"],
        aggregates=[Aggregate("sum", "l_extendedprice"), Aggregate("count")],
        order_by=["c_nationkey"],
    )
    return [streaming, grouped]


@pytest.fixture(scope="module")
def svc_db():
    db = generate_tpch(lineitem_rows=4000, z=1.0, seed=42)
    return db, Planner(db, build_statistics(db))


def _sessions(planner):
    """(query, seed) pairs for the 16 concurrent sessions."""
    queries = _queries()
    return [(queries[i % len(queries)], 100 + i) for i in range(N_SESSIONS)]


def _selector_calls(static_sel, dynamic_sel):
    return static_sel.predict_calls_ + dynamic_sel.predict_calls_


def test_service_throughput(benchmark, svc_db):
    db, planner = svc_db

    # Train fast selectors on pipelines of the benchmark's own query shapes.
    estimators = all_estimators()
    training_runs = []
    for query in _queries():
        run = QueryExecutor(db, ExecutorConfig(batch_size=256, seed=1)).execute(
            planner.plan(query), query.name)
        training_runs.extend(run.pipeline_runs(min_observations=5))
    static_sel = train_selector(collect_training_data(
        training_runs, estimators, FeatureExtractor("static")), FAST_MART)
    dynamic_sel = train_selector(collect_training_data(
        training_runs, estimators,
        FeatureExtractor("dynamic")), FAST_MART)
    monitor = ProgressMonitor(static_selector=static_sel,
                              dynamic_selector=dynamic_sel, refresh_every=3)

    def config(seed):
        return ExecutorConfig(batch_size=256, target_observations=60,
                              seed=seed)

    results = {}

    def measure():
        # Per-query baseline: one solo monitor run per session.
        calls0 = _selector_calls(static_sel, dynamic_sel)
        started = time.perf_counter()
        solo = []
        for query, seed in _sessions(planner):
            _, reports = monitor.run(db, planner.plan(query),
                                     config=config(seed))
            solo.append(reports)
        solo_seconds = time.perf_counter() - started
        solo_calls = _selector_calls(static_sel, dynamic_sel) - calls0

        # Pooled service: same 16 sessions, interleaved + batch-scored.
        calls0 = _selector_calls(static_sel, dynamic_sel)
        service = ProgressService(monitor, slice_steps=SLICE_STEPS)
        for query, seed in _sessions(planner):
            service.submit(db, planner.plan(query), query_name=query.name,
                           config=config(seed))
        started = time.perf_counter()
        pooled = service.run_until_complete(max_ticks=100_000)
        pooled_seconds = time.perf_counter() - started
        pooled_calls = _selector_calls(static_sel, dynamic_sel) - calls0

        identical = all(
            pooled[sid][1] == solo[sid]
            for sid in range(N_SESSIONS))
        results.update(
            solo_seconds=solo_seconds, pooled_seconds=pooled_seconds,
            solo_calls=solo_calls, pooled_calls=pooled_calls,
            ticks=service.stats.ticks,
            rows_scored=service.scorer.stats.rows,
            batches=service.scorer.stats.batches,
            identical=identical)
        return results

    benchmark.pedantic(measure, rounds=1, iterations=1)

    ticks = max(results["ticks"], 1)
    ratio = results["solo_calls"] / max(results["pooled_calls"], 1)
    rows = [
        ["per-query solo", f"{N_SESSIONS / results['solo_seconds']:.2f}",
         results["solo_calls"], f"{results['solo_calls'] / ticks:.2f}", "—"],
        ["pooled service", f"{N_SESSIONS / results['pooled_seconds']:.2f}",
         results["pooled_calls"], f"{results['pooled_calls'] / ticks:.2f}",
         f"{ratio:.1f}x fewer"],
    ]
    table = format_table(
        ["path", "sessions/sec", "selector passes",
         "passes/tick", "reduction"],
        rows,
        title=(f"Service throughput — {N_SESSIONS} concurrent sessions, "
               f"{results['ticks']} ticks, "
               f"{results['rows_scored']} selections in "
               f"{results['batches']} batches"))
    print("\n" + table)
    save_result("service_throughput", table, results)

    # Acceptance: >=5x fewer selector predict calls per tick at 16 sessions,
    # and pooled reports bit-identical to the solo-monitor reports.
    assert results["identical"], "pooled reports diverged from solo monitor"
    assert ratio >= 5.0, (
        f"batched scoring reduced selector calls only {ratio:.1f}x")
    # The pooled path must actually interleave: work spans several rounds.
    assert results["ticks"] >= 2
