"""Incremental monitoring: O(1)-per-tick kernels vs. batch recompute.

The paper's monitor runs *online inside a DBMS*: per-tick overhead must
stay constant as a query ages.  Recomputing ``estimate(prefix)[-1]`` from
the full snapshot history at every report — the fuzz oracle's reference
(:func:`repro.fuzz.oracle.reference_progress`) — costs O(T²·m) over a
query's life; the monitor's structure-of-arrays kernels
(:mod:`repro.progress.soa`) fold each observation in O(m).

Measured here, at paper-scale snapshot counts (~1.5k observations) with
``refresh_every=1``:

* wall-clock of a full monitoring pass (replayed, so only monitor cost is
  timed) against the batch reference for the same reports — an untrained
  monitor, the conventional-progress-bar configuration; the acceptance
  gate is >=5x;
* the same ratio with trained static+dynamic MART selectors (reported;
  selector scoring is paid by the monitor only and dilutes the ratio);
* bit-identity of every report with the batch reference, and of the
  ProgressReport streams across every consumer of the flush: live
  execution, trace replay, and the pooled multi-query service.
"""

import time

from repro.catalog.statistics import build_statistics
from repro.core.monitor import ProgressMonitor
from repro.core.training import collect_training_data, train_selector
from repro.datagen.tpch import generate_tpch
from repro.engine.executor import ExecutorConfig, QueryExecutor
from repro.experiments.results import format_table, save_result
from repro.features.vector import FeatureExtractor
from repro.fuzz.oracle import reference_progress, report_streams_equal
from repro.learning.mart import MARTParams
from repro.optimizer.planner import Planner
from repro.progress.registry import all_estimators
from repro.query.logical import Aggregate, JoinEdge, QuerySpec
from repro.query.predicates import FilterSpec
from repro.service import ProgressService
from repro.trace.replay import replay_monitor

FAST_MART = MARTParams(n_trees=8, max_leaves=4)
MIN_SPEEDUP = 5.0

#: paper-scale snapshot counts (~1.5k observations): small batches make
#: the engine charge often enough for a dense observation log
MONITORED_CONFIG = dict(batch_size=16, target_observations=4000,
                        max_observations=2000, seed=7)


def _query():
    return QuerySpec(
        name="inc_join",
        tables=["customer", "orders", "lineitem"],
        joins=[JoinEdge("customer", "c_custkey", "orders", "o_custkey"),
               JoinEdge("orders", "o_orderkey", "lineitem", "l_orderkey")],
        filters=[FilterSpec("orders", "o_orderdate", "<=", 1500),
                 FilterSpec("lineitem", "l_quantity", ">=", 2.0)],
        group_by=["c_nationkey"],
        aggregates=[Aggregate("sum", "l_extendedprice"), Aggregate("count")],
        order_by=["c_nationkey"],
    )


def _selectors(db, planner):
    estimators = all_estimators()
    training = QueryExecutor(db, ExecutorConfig(
        batch_size=256, seed=1)).execute(planner.plan(_query()), "train")
    pipelines = training.pipeline_runs(min_observations=5)
    static_sel = train_selector(collect_training_data(
        pipelines, estimators, FeatureExtractor("static")), FAST_MART)
    dynamic_sel = train_selector(collect_training_data(
        pipelines, estimators,
        FeatureExtractor("dynamic")), FAST_MART)
    return static_sel, dynamic_sel


def _timed(fn, *args):
    started = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - started, out


def _matches_reference(reports, run, monitor):
    return ([r.pipeline_progress for r in reports]
            == reference_progress(run, reports, monitor))


def test_incremental_monitor(benchmark):
    db = generate_tpch(lineitem_rows=12000, z=1.0, seed=42)
    planner = Planner(db, build_statistics(db))
    static_sel, dynamic_sel = _selectors(db, planner)
    monitors = {
        # the estimation machinery alone (conventional progress bar)
        "untrained": ProgressMonitor(refresh_every=1),
        # + selector scoring, paid by the monitor only
        "trained": ProgressMonitor(static_selector=static_sel,
                                   dynamic_selector=dynamic_sel,
                                   refresh_every=1),
    }
    config = ExecutorConfig(**MONITORED_CONFIG)
    results = {}

    def measure():
        # one live monitored execution: the recording the timed replays
        # are driven from, itself checked against the batch reference
        trained = monitors["trained"]
        run, live = trained.run(db, planner.plan(_query()), config=config)
        results.update(observations=len(run.times), reports=len(live),
                       live_identical=_matches_reference(live, run, trained))

        # monitor-only cost: replay the recording, then recompute every
        # report's values from scratch through estimate()
        for label, monitor in monitors.items():
            kernel_seconds, replayed = _timed(replay_monitor, monitor, run)
            batch_seconds, reference = _timed(
                reference_progress, run, replayed, monitor)
            results[f"{label}_batch_seconds"] = batch_seconds
            results[f"{label}_inc_seconds"] = kernel_seconds
            results[f"{label}_speedup"] = \
                batch_seconds / max(kernel_seconds, 1e-9)
            results[f"{label}_identical"] = (
                [r.pipeline_progress for r in replayed] == reference)
        results["replay_identical"] = report_streams_equal(
            replay_monitor(trained, run), live)

        # pooled service over the same recording
        service = ProgressService(trained, slice_steps=4)
        sid = service.submit_replay(run)
        service.run_until_complete(max_ticks=1_000_000)
        results["service_identical"] = report_streams_equal(
            service.session(sid).reports, live)
        return results

    benchmark.pedantic(measure, rounds=1, iterations=1)

    ticks = max(results["reports"], 1)
    rows = []
    for label in ("untrained", "trained"):
        for path, key in (("batch recompute", "batch"),
                          ("kernels", "inc")):
            seconds = results[f"{label}_{key}_seconds"]
            rows.append([
                label, path, f"{seconds:.3f}",
                f"{1e6 * seconds / ticks:.0f}",
                f"{results[f'{label}_speedup']:.1f}x" if key == "inc"
                else "—"])
    table = format_table(
        ["selectors", "monitor path", "seconds", "us/tick", "speedup"],
        rows,
        title=(f"Incremental monitoring — {results['observations']} "
               f"observations, {results['reports']} reports, "
               f"refresh_every=1"))
    print("\n" + table)
    save_result("incremental_monitor", table, results)

    # Acceptance: >=5x cheaper monitor ticks than batch recompute at
    # paper-scale snapshot counts, every report equal to the batch
    # reference, and bit-identical streams on the live, replayed and
    # pooled service paths.
    assert results["observations"] >= 900, "not paper-scale"
    assert results["live_identical"], "live reports != batch reference"
    assert results["untrained_identical"], "replayed reports diverged"
    assert results["trained_identical"], "trained replay reports diverged"
    assert results["replay_identical"], "replay diverged from live stream"
    assert results["service_identical"], "service reports diverged"
    assert results["untrained_speedup"] >= MIN_SPEEDUP, (
        f"kernels only {results['untrained_speedup']:.1f}x faster "
        f"than batch recompute")
    assert results["trained_speedup"] >= 2.0, (
        f"trained-monitor ratio collapsed to "
        f"{results['trained_speedup']:.1f}x")
