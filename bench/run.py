"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N [--seconds S] [--trace 0|1]
                         [--smoke]

NAME is one of ``replay_pooled``, ``live_pooled``, ``net_fleet``,
``train_eval`` (see ``bench/README.md``) or ``all``, which runs each in its
own process.  The program is imported from ``src/`` of the checkout this
file sits in; without it the command fails before printing a result.

Every metric is printed by name with its unit, then the last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  An untraced run (``--trace 0``) reports the end-to-end
metrics; a traced run (``--trace 1``) installs span wrappers, reports the
per-layer metrics, prints the per-layer table and writes
``.bench_out/<workload>/spans.json``.  The exit code is non-zero when any
output check fails.
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

#: end-to-end metrics (``--trace 0``): name -> unit
END_TO_END = {
    "setup_s": "s",
    "runs_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "l1_error": "1",
    "peak_rss_mb": "MB",
}

#: per-layer work counts (``--trace 1``): name -> (unit, layer, field, base)
COUNTS = {
    "learning.predict_rows_per_run": ("rows/run", "learning.predict",
                                      "work", "runs"),
    "features.extract_per_run": ("calls/run", "features.extract",
                                 "calls", "runs"),
    "engine.steps_per_run": ("steps/run", "engine.step", "calls", "runs"),
    "service.scoring.rows_per_batch": ("rows/batch", "service.scoring",
                                       "work", "calls"),
    "trace.codec.bytes_per_report": ("bytes/report", "trace.codec",
                                     "work", "reports"),
}


def use_source_tree() -> None:
    """Import the program from this checkout's ``src/`` or stop."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"bench: the program source is missing ({src})")
    sys.path.insert(0, str(src))


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` (``unknown`` outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_line(args) -> str:
    from repro.runtime import available_cpus

    return (f"bench: workload={args.workload} seed={args.seed} "
            f"seconds={args.seconds:g} trace={args.trace} "
            f"smoke={int(args.smoke)} cpus={available_cpus()} "
            f"python={platform.python_version()} sha={git_sha()}")


def layer_metrics(outcome) -> dict:
    """Per-layer metrics: each layer's self time as a share of the traced
    section's wall time, the work counts of :data:`COUNTS` and the server's
    event-loop lag (0 where a workload has no server)."""
    from layers import LAYERS

    layers, section_s = outcome.layers, outcome.section_s
    out = {}
    for name in LAYERS:
        share = 100.0 * layers[name]["self_ns"] / 1e9 / section_s
        out[f"{name}_pct"] = (share, "%")
    bases = {"runs": outcome.runs, "reports": outcome.reports}
    for metric, (unit, layer, key, base) in COUNTS.items():
        row = layers[layer]
        denominator = row["calls"] if base == "calls" else bases[base]
        out[metric] = (row[key] / denominator if denominator else 0.0, unit)
    out["net.loop_lag_p90_ms"] = (outcome.loop_lag_p90_ms, "ms")
    return out


def layer_table(layers: dict, section_s: float, runs: int) -> list[str]:
    """Calls, total and self time per layer.  Total % of the outermost
    span of a thread is the share of the section that thread spent in
    traced calls."""
    from layers import LAYERS

    lines = [f"{'layer':<22} {'calls':>9} {'total ms':>10} {'self ms':>10} "
             f"{'total %':>8} {'self %':>7} {'us/run':>9}"]
    covered = 0
    for name in LAYERS:
        row = layers[name]
        if not row["calls"]:
            continue
        covered += row["self_ns"]
        lines.append(
            f"{name:<22} {row['calls']:>9} {row['total_ns'] / 1e6:>10.1f} "
            f"{row['self_ns'] / 1e6:>10.1f} "
            f"{100 * row['total_ns'] / 1e9 / section_s:>8.2f} "
            f"{100 * row['self_ns'] / 1e9 / section_s:>7.2f} "
            f"{row['self_ns'] / 1e3 / max(runs, 1):>9.1f}")
    lines.append(f"traced section {section_s:.3f} s, {runs} runs; self times "
                 f"sum to {100 * covered / 1e9 / section_s:.1f}% of it")
    return lines


def run_one(args) -> int:
    use_source_tree()
    import workloads

    print(host_line(args), flush=True)
    recorder = trace_dir = None
    if args.trace:
        from layers import LAYERS, install
        from spans import Recorder

        trace_dir = OUT_DIR / args.workload
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
        if args.workload != "net_fleet":  # its server traces itself
            recorder = Recorder(LAYERS)
            install(recorder)
    outcome = workloads.run(args.workload, args.seed, args.seconds,
                            args.smoke, recorder, trace_dir)
    for line in outcome.notes:
        print(f"  {line}")
    e2e = {
        "setup_s": outcome.setup_s,
        "runs_per_s": outcome.runs_per_s,
        "latency_p50_ms": outcome.latency[0],
        "latency_tail_ms": outcome.latency[1],
        "l1_error": outcome.l1_error,
        "peak_rss_mb": outcome.peak_rss_mb,
    }
    for name, value in e2e.items():
        print(f"  {name:<16} {value:>14.6f} {END_TO_END[name]}")
    metrics = {name: {"value": value, "unit": END_TO_END[name]}
               for name, value in e2e.items()}
    if args.trace:
        for line in layer_table(outcome.layers, outcome.section_s,
                                outcome.runs):
            print(f"  {line}")
        per_layer = layer_metrics(outcome)
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in per_layer.items()}
        (trace_dir / "spans.json").write_text(json.dumps({
            "host": host_line(args), "section_s": outcome.section_s,
            "runs": outcome.runs, "reports": outcome.reports,
            "layers": outcome.layers, "end_to_end": e2e,
            "per_layer": per_layer}, indent=1))
    for problem in outcome.checks:
        print(f"  CHECK FAILED: {problem}")
    correct = outcome.failed == 0 and not outcome.checks
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}),
          flush=True)
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process (peak RSS stays per workload)."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1,
                      "metrics": {}}
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=(
        "Benchmark the progress-estimation service and training pipeline."))
    parser.add_argument("--workload", required=True, choices=(
        "replay_pooled", "live_pooled", "net_fleet", "train_eval", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="length of the timed window (default: 15)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: install span wrappers and report the "
                        "per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every input (a quick self-test)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        use_source_tree()
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
