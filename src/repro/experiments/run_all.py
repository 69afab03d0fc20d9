"""Regenerate every reproduced table and figure in one pass.

Equivalent to ``pytest benchmarks/ --benchmark-only`` but as a plain
script with progress logging — convenient for full-size runs:

    python -m repro.experiments.run_all              # REPRO_SCALE=small
    REPRO_SCALE=paper python -m repro.experiments.run_all
    python -m repro.experiments.run_all --jobs 4     # parallel dispatch
    python -m repro.experiments.run_all --only table --skip table7

Artifacts land under ``results/`` (override with ``REPRO_RESULTS_DIR``).

With ``--jobs N`` the run splits into two phases.  Phase 1 *warm-starts*
a shared trace store: the evaluation workloads are executed once —
fanned out across the pool — and recorded under ``REPRO_TRACE_DIR`` (a
temporary store is created when the variable is unset).  Phase 2
dispatches the independent benchmark files concurrently; each child
replays the recorded workloads instead of re-executing them, and the
store's single-flight claims keep any cache miss from running twice.
Benchmarks that *measure wall-clock* (the speedup-asserting ones) run
serially after the parallel batch so pool contention cannot skew them.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.experiments.results import format_table
from repro.experiments.scale import active_scale
from repro.runtime import resolve_jobs, run_tasks
from repro.trace.store import TRACE_DIR_ENV, TraceStore
from repro.workloads.suite import ALL_WORKLOAD_NAMES

BENCH_DIR = Path(__file__).resolve().parents[3] / "benchmarks"

ORDER = [
    "bench_fig1_error_ratios.py",
    "bench_table1_operator_mix.py",
    "bench_table2_selectivity.py",
    "bench_table3_physical_design.py",
    "bench_table4_skew.py",
    "bench_table5_data_size.py",
    "bench_fig4_adhoc.py",
    "bench_table6_robustness.py",
    "bench_fig5_l1_l2.py",
    "bench_fig6_fig7_case_studies.py",
    "bench_refinement_study.py",
    "bench_table7_training_times.py",
    "bench_feature_importance.py",
    "bench_table8_estimator_necessity.py",
    "bench_model_validation.py",
    "bench_ablations.py",
    "bench_fuzz_generalization.py",
    "bench_service_throughput.py",
    "bench_service_soak.py",
    "bench_service_net.py",
    "bench_trace_warmstart.py",
    "bench_parallel_execution.py",
    "bench_incremental_monitor.py",
]

#: Benchmarks whose acceptance criteria are wall-clock ratios; they run
#: serially (after everything else) so concurrent siblings cannot steal
#: the CPU out from under a timed section.
TIMING_SENSITIVE = {
    "bench_service_throughput.py",
    "bench_service_soak.py",
    "bench_service_net.py",
    "bench_trace_warmstart.py",
    "bench_parallel_execution.py",
    "bench_incremental_monitor.py",
}

def select_benchmarks(names: list[str], only: list[str],
                      skip: list[str]) -> list[str]:
    """Apply ``--only`` / ``--skip`` substring filters in ORDER order."""
    selected = [n for n in names
                if not only or any(o in n for o in only)]
    return [n for n in selected if not any(s in n for s in skip)]


def _run_benchmark(name: str, capture: bool, env: dict) -> tuple[int, str]:
    """One benchmark file as a pytest subprocess; returns (rc, output)."""
    result = subprocess.run(
        [sys.executable, "-m", "pytest", str(BENCH_DIR / name),
         "--benchmark-only", "-q", "-s"],
        cwd=str(BENCH_DIR.parent), env=env,
        capture_output=capture, text=capture)
    output = (result.stdout + result.stderr) if capture else ""
    return result.returncode, output


def _warm_start_workload(task: dict) -> str:
    """Pool worker: record one workload into the shared trace store.

    Import deferred so spawned workers don't pay for it before needing
    it.  The harness's single-flight claim makes concurrent invocations
    of the same key (e.g. a benchmark racing the warm start) safe.
    """
    from repro.experiments.harness import ExperimentHarness

    # jobs=1: this worker IS the parallelism (one process per workload);
    # letting REPRO_JOBS nest another pool inside it would oversubscribe
    harness = ExperimentHarness(active_scale(), seed=0, jobs=1,
                                trace_store=TraceStore(task["trace_dir"]))
    harness.runs(task["workload"])
    return task["workload"]


def warm_start(trace_dir: str, jobs: int) -> None:
    """Phase 1: execute + record every evaluation workload once."""
    tasks = [{"workload": name, "trace_dir": trace_dir}
             for name in ALL_WORKLOAD_NAMES]
    run_tasks(_warm_start_workload, tasks, jobs=jobs,
              on_result=lambda i, name: print(f"  warm {name}", flush=True))


class Timings:
    """Per-benchmark wall-clock bookkeeping + the slowest-five table."""

    def __init__(self):
        self.elapsed: dict[str, float] = {}

    def record(self, name: str, seconds: float) -> None:
        self.elapsed[name] = seconds

    def slowest_table(self, top: int = 5) -> str:
        ranked = sorted(self.elapsed.items(), key=lambda kv: -kv[1])[:top]
        total = sum(self.elapsed.values())
        rows = [[name, f"{seconds:.1f}",
                 f"{100 * seconds / max(total, 1e-9):.0f}%"]
                for name, seconds in ranked]
        return format_table(
            ["benchmark", "seconds", "share of total"], rows,
            title=f"Slowest {len(ranked)} benchmarks "
                  f"(of {len(self.elapsed)}, {total:.1f}s summed)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.run_all",
        description="Regenerate every reproduced table/figure.")
    parser.add_argument("--only", action="append", default=[],
                        help="run only benchmarks whose name contains this "
                             "substring (repeatable)")
    parser.add_argument("--skip", action="append", default=[],
                        help="skip benchmarks whose name contains this "
                             "substring (repeatable)")
    parser.add_argument("--jobs", type=int, default=None,
                        help="concurrent benchmark processes (default "
                             "REPRO_JOBS, else 1; 0 = one per CPU)")
    args = parser.parse_args(argv)

    scale = active_scale()
    jobs = resolve_jobs(args.jobs)
    selected = select_benchmarks(ORDER, args.only, args.skip)
    missing = [n for n in selected if not (BENCH_DIR / n).exists()]
    print(f"Reproducing {len(selected)}/{len(ORDER)} tables/figures at "
          f"scale '{scale.name}' with {jobs} job(s) "
          f"(set REPRO_SCALE=tiny|small|paper to change).")

    started = time.perf_counter()
    timings = Timings()
    failures = list(missing)
    for name in missing:
        print(f"  !! missing benchmark {name}")
    selected = [n for n in selected if n not in missing]

    env = dict(os.environ)
    temp_store = None
    phase_seconds: dict[str, float] = {}
    concurrent = [n for n in selected if n not in TIMING_SENSITIVE]
    timed = [n for n in selected if n in TIMING_SENSITIVE]
    parallel_mode = jobs > 1 and len(concurrent) > 1
    if parallel_mode:
        trace_dir = env.get(TRACE_DIR_ENV)
        if not trace_dir:
            # a shared store is what lets concurrent benchmarks replay
            # instead of each re-executing every workload; a temporary
            # one (cleaned below) avoids leaving a stale cache behind
            temp_store = tempfile.TemporaryDirectory(prefix="repro-trace-")
            trace_dir = temp_store.name
            env[TRACE_DIR_ENV] = trace_dir
        if not args.only:
            # full runs touch every family, so front-loading the store
            # with controlled parallelism beats discovering it cold; an
            # --only selection may need only a few families — skip the
            # eager pass and let the store's single-flight claims dedupe
            # whatever the selected benchmarks actually ask for
            phase_start = time.perf_counter()
            print(f"== phase 1: warm-starting trace store at {trace_dir} ==",
                  flush=True)
            warm_start(trace_dir, jobs)
            phase_seconds["warm start"] = time.perf_counter() - phase_start

    def run_one(name: str, capture: bool) -> tuple[str, int, str]:
        bench_start = time.perf_counter()
        returncode, output = _run_benchmark(name, capture, env)
        seconds = time.perf_counter() - bench_start
        timings.record(name, seconds)
        if returncode != 0:
            failures.append(name)
        return name, returncode, output

    def report(name: str, returncode: int, output: str) -> None:
        status = "ok" if returncode == 0 else f"FAILED (rc={returncode})"
        print(f"== {name} == {status} in {timings.elapsed[name]:.1f}s",
              flush=True)
        if output:  # captured mode: replay the reproduced tables/figures
            print(output, flush=True)

    phase_start = time.perf_counter()
    if parallel_mode:
        print(f"== phase 2: {len(concurrent)} benchmarks across "
              f"{jobs} processes ==", flush=True)
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(run_one, name, True)
                       for name in concurrent]
            for future in futures:  # print in ORDER as results land
                report(*future.result())
        phase_seconds["parallel benchmarks"] = \
            time.perf_counter() - phase_start
        phase_start = time.perf_counter()
        if timed:
            print(f"== phase 3: {len(timed)} timing-sensitive benchmarks, "
                  f"serial ==", flush=True)
    else:
        timed = concurrent + timed
    for name in timed:
        print(f"== {name} ==", flush=True)
        report(*run_one(name, capture=False))
    phase_seconds["serial benchmarks"] = time.perf_counter() - phase_start

    if temp_store is not None:
        temp_store.cleanup()
    elapsed = time.perf_counter() - started
    succeeded = len(selected) - len([f for f in failures if f not in missing])
    print(f"\nfinished in {elapsed/60:.1f} minutes; "
          f"{succeeded}/{len(selected)} benchmarks succeeded")
    for phase, seconds in phase_seconds.items():
        print(f"  phase {phase}: {seconds:.1f}s")
    if timings.elapsed:
        print("\n" + timings.slowest_table() + "\n")
    if failures:
        print("failed:", ", ".join(failures))
        return 1
    print("results written under results/ — see EXPERIMENTS.md for the "
          "paper-vs-measured reading guide")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
