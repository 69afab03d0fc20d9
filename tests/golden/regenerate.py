"""Regenerate the committed golden traces and their expectation files.

Run from the repo root after any *intentional* change to the engine, the
trace format or an estimator::

    PYTHONPATH=src python tests/golden/regenerate.py --all

or name the families to refresh selectively::

    PYTHONPATH=src python tests/golden/regenerate.py fuzz outer_semi

One tiny recorded trace per workload family (TPC-H, TPC-DS, skewed
"real", one fixed-seed ``adhoc_fuzz`` bundle, and the non-inner-join
``outer_semi`` bundle), each a real execution of two generated queries at
miniature scale, plus an ``expected_<family>.npz`` holding the replayed
estimator trajectories, TrainingData matrices and the served report bytes
(``reports_to_payload``) of every recording replayed through two online
monitors (see :func:`report_payloads`).
``tests/test_trace_golden.py`` asserts exact (bitwise) equality against
these files — so an accidental behaviour change in the engine, the trace
codec or any estimator fails the suite with a pointer here, while an
intentional one is a one-command regeneration whose diff code review can
see.  A ``TRACE_FORMAT_VERSION`` bump always implies ``--all``: partial
refreshes would leave sibling families unreadable.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from repro.core.monitor import ProgressMonitor
from repro.core.training import (
    collect_training_data,
    runs_to_pipelines,
    train_selector,
)
from repro.engine.executor import ExecutorConfig, QueryExecutor
from repro.features.vector import FeatureExtractor
from repro.learning.mart import MARTParams
from repro.progress.registry import all_estimators
from repro.runtime.transport import reports_to_payload
from repro.trace import TRACE_FORMAT_VERSION, write_trace
from repro.trace.replay import replay_monitor
from repro.workloads.suite import SuiteScale, WorkloadSuite

GOLDEN_DIR = Path(__file__).resolve().parent

#: family label -> suite workload recorded for it
FAMILIES = {"tpch": "tpch_untuned", "tpcds": "tpcds", "real": "real1",
            "fuzz": "adhoc_fuzz", "outer_semi": "outer_semi"}

#: miniature scale: two queries per family over ~1k-row databases keeps
#: each committed trace in the tens of kilobytes
SCALE = SuiteScale(
    tpch_rows=1_200, tpcds_rows=1_000, real1_rows=900, real2_rows=900,
    tpch_queries=2, tpcds_queries=2, real1_queries=2, real2_queries=2,
    fuzz_rows=900, fuzz_queries=2, outer_rows=900, outer_queries=3,
)
SEED = 17
EXECUTOR = dict(batch_size=256, memory_budget_bytes=float(64 << 10),
                target_observations=50)
MIN_OBSERVATIONS = 4
#: tiny MART selectors, as the fuzz harness trains per scenario; one-row
#: leaves let two or three training pipelines still split
SELECTOR_PARAMS = MARTParams(n_trees=6, max_leaves=4, min_samples_leaf=1)


def report_monitors(pipelines) -> dict[str, ProgressMonitor]:
    """The online monitors whose served report bytes are pinned.

    ``luo``: no selectors, LUO fallback at every observation — the
    stateful kernel on every report.  ``trained``: static and dynamic
    selectors fitted on the family's own pipelines — selection, the 20%
    revision, candidate pruning and LUO liveness.
    """
    estimators = all_estimators()
    static = collect_training_data(pipelines, estimators,
                                   FeatureExtractor("static"))
    dynamic = collect_training_data(
        pipelines, estimators,
        FeatureExtractor("dynamic", estimators=estimators))
    return {
        "luo": ProgressMonitor(fallback="luo", refresh_every=1),
        "trained": ProgressMonitor(
            static_selector=train_selector(static, SELECTOR_PARAMS),
            dynamic_selector=train_selector(dynamic, SELECTOR_PARAMS),
            refresh_every=2),
    }


def report_payloads(runs, pipelines) -> dict[str, bytes]:
    """Per monitor: ``reports_to_payload`` of every run's replayed reports,
    tagged with the run's index."""
    return {
        label: reports_to_payload([
            (i, report) for i, run in enumerate(runs)
            for report in replay_monitor(monitor, run)])
        for label, monitor in report_monitors(pipelines).items()}


def record_family(suite: WorkloadSuite, family: str, workload: str,
                  out_dir: Path = GOLDEN_DIR) -> None:
    bundle = suite.bundle(workload)
    runs = []
    for i, query in enumerate(bundle.queries):
        config = ExecutorConfig(**EXECUTOR, seed=SEED * 1_000 + i)
        executor = QueryExecutor(bundle.db, config)
        runs.append(executor.execute(bundle.planner.plan(query), query.name))
    write_trace(out_dir / family, runs, meta={
        "family": family,
        "workload": workload,
        "seed": SEED,
        "min_observations": MIN_OBSERVATIONS,
        "note": "golden regression trace — regenerate with "
                "tests/golden/regenerate.py",
    })

    estimators = all_estimators(include_worst_case=True)
    pipelines = runs_to_pipelines(runs, min_observations=MIN_OBSERVATIONS)
    if not pipelines:
        raise RuntimeError(f"family {family!r} produced no scorable "
                           f"pipelines; enlarge SCALE")
    expected: dict[str, np.ndarray] = {
        "n_pipelines": np.array(len(pipelines)),
        "format_version": np.array(TRACE_FORMAT_VERSION),
    }
    for i, pr in enumerate(pipelines):
        expected[f"p{i}_true"] = pr.true_progress()
        for est in estimators:
            expected[f"p{i}_{est.name}"] = est.estimate(pr)
    data = collect_training_data(
        pipelines, estimators,
        FeatureExtractor("dynamic", estimators=estimators))
    expected["X"] = data.X
    expected["errors_l1"] = data.errors_l1
    expected["errors_l2"] = data.errors_l2
    for label, payload in report_payloads(runs, pipelines).items():
        expected[f"reports_{label}"] = np.frombuffer(payload, dtype=np.uint8)
    np.savez_compressed(out_dir / f"expected_{family}.npz", **expected)
    print(f"{family:6s} <- {workload:13s}  runs={len(runs)}  "
          f"pipelines={len(pipelines)}  "
          f"observations={[len(r.times) for r in runs]}")


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(
        description="regenerate committed golden traces")
    parser.add_argument("families", nargs="*", metavar="family",
                        help=f"families to refresh, from {list(FAMILIES)} "
                             f"(default: all)")
    parser.add_argument("--all", action="store_true", dest="all_families",
                        help="regenerate every family (explicit form of "
                             "the no-argument default)")
    parser.add_argument("--out-dir", type=Path, default=GOLDEN_DIR,
                        help="write traces and expectation files here "
                             "instead of the committed golden directory "
                             "(used by the staleness check to regenerate "
                             "into a scratch dir and diff)")
    args = parser.parse_args(argv)
    unknown = [f for f in args.families if f not in FAMILIES]
    if unknown:
        parser.error(f"unknown families {unknown}; choose from "
                     f"{list(FAMILIES)}")
    wanted = list(FAMILIES) if (args.all_families or not args.families) \
        else list(dict.fromkeys(args.families))
    args.out_dir.mkdir(parents=True, exist_ok=True)
    suite = WorkloadSuite(SCALE, seed=SEED)
    for family in wanted:
        record_family(suite, family, FAMILIES[family], out_dir=args.out_dir)


if __name__ == "__main__":
    main()
