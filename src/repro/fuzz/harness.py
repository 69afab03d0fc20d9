"""Driving fuzz scenarios end to end, and reproducing failures.

One *scenario* is fully determined by ``(preset, seed)``: a random schema
and skewed database, a batch of ad-hoc queries, a random physical design,
randomized engine knobs (batch size, a memory grant small enough to force
spills regularly, observation cadence), one monitored live execution per
query, and all six oracle layers of :mod:`repro.fuzz.oracle` — engine
output vs. the NumPy reference, per-snapshot progress invariants,
kernel-vs-``estimate`` parity, trace round-trip/replay parity,
pooled/sharded-service parity across the scenario's whole query batch,
and network parity (the same batch served over real sockets through
:class:`~repro.service.net.ProgressServer`, client-observed stream bytes
pinned to solo monitoring).

``python -m repro.fuzz --preset <name> --seed <seed>`` re-runs any
scenario; oracle failures embed exactly that command in their message, so
a red CI log line is a one-paste local reproduction.  Sweeps parallelize
with ``--jobs N`` (or ``REPRO_JOBS``): scenarios are independent by
construction, so :func:`run_fuzz` fans seeds out across worker processes
and still reports — and fails — in seed order.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from repro.catalog.statistics import build_statistics
from repro.core.monitor import ProgressMonitor
from repro.core.training import collect_training_data, train_selector
from repro.engine.executor import ExecutorConfig
from repro.engine.run import QueryRun
from repro.features.vector import FeatureExtractor
from repro.fuzz.generate import generate_fuzz_database, generate_fuzz_queries
from repro.fuzz.oracle import (
    OracleContext,
    OracleViolation,
    check_engine_output,
    check_kernel_parity,
    check_network_parity,
    check_progress_invariants,
    check_service_parity,
    check_trace_roundtrip,
)
from repro.fuzz.reference import evaluate_reference
from repro.learning.mart import MARTParams
from repro.optimizer.physical_design import (
    DesignLevel,
    apply_design,
    design_for_workload,
)
from repro.optimizer.planner import Planner
from repro.progress.registry import all_estimators
from repro.query.logical import JOIN_KINDS
from repro.runtime import resolve_jobs, run_tasks
from repro.trace.replay import replay_monitor

_DESIGN_LEVELS = (DesignLevel.UNTUNED, DesignLevel.PARTIAL, DesignLevel.FULL)


@dataclass(frozen=True)
class FuzzConfig:
    """Scenario-shaping knobs; ``name`` must stay CLI-addressable."""

    name: str = "default"
    rows_lo: int = 250
    rows_hi: int = 900
    queries_lo: int = 2
    queries_hi: int = 4
    target_observations: int = 60
    #: train tiny MART selectors on the scenario's own pipelines and
    #: re-check replay + service parity under batched selector scoring
    train_selectors: bool = False
    selector_trees: int = 6
    selector_leaves: int = 4
    #: the preset's default seed matrix: what ``python -m repro.fuzz``
    #: sweeps when invoked with no ``--seed`` (e.g. the full ci-fast CI
    #: gate is just ``python -m repro.fuzz --preset ci-fast --jobs 4``)
    seed_base: int = 0
    seed_count: int = 1


PRESETS: dict[str, FuzzConfig] = {
    "default": FuzzConfig(),
    # seed matrix matches tests/test_fuzz.py::FAST_SEEDS
    "ci-fast": FuzzConfig(name="ci-fast", rows_lo=200, rows_hi=600,
                          queries_lo=2, queries_hi=3,
                          target_observations=50,
                          seed_base=100, seed_count=25),
    # seed matrix matches the default FUZZ_SEED_BASE block of the slow job
    "ci-slow": FuzzConfig(name="ci-slow", rows_lo=400, rows_hi=1500,
                          queries_lo=3, queries_hi=5,
                          target_observations=90, train_selectors=True,
                          seed_base=2000, seed_count=12),
}

#: The six oracle layers a scenario must pass.
ORACLE_LAYERS = ("output", "invariants", "kernel", "trace", "service",
                 "network")


def repro_command(seed: int, config: FuzzConfig) -> str:
    """The shell command that re-runs one scenario."""
    return f"python -m repro.fuzz --preset {config.name} --seed {seed}"


@dataclass
class ScenarioReport:
    """Summary of one passed scenario (raises before existing otherwise)."""

    seed: int
    preset: str
    rows: int
    n_queries: int
    n_pipelines: int
    n_reports: int
    spill_events: int
    design: str
    checks: dict[str, int] = field(default_factory=dict)
    #: per-scenario histogram of drawn join-edge kinds (inner/left/semi/anti)
    join_kinds: dict[str, int] = field(default_factory=dict)

    def describe(self) -> str:
        kinds = ",".join(f"{k}:{self.join_kinds.get(k, 0)}"
                         for k in JOIN_KINDS)
        return (f"seed={self.seed:<6} rows={self.rows:<5} "
                f"queries={self.n_queries} pipelines={self.n_pipelines:<3} "
                f"reports={self.n_reports:<4} spills={self.spill_events:<3} "
                f"design={self.design} joins=[{kinds}]")


@dataclass
class FuzzReport:
    """Aggregate over a batch of scenarios."""

    scenarios: list[ScenarioReport] = field(default_factory=list)

    @property
    def n_scenarios(self) -> int:
        return len(self.scenarios)

    def layer_checks(self) -> dict[str, int]:
        totals = {layer: 0 for layer in ORACLE_LAYERS}
        for s in self.scenarios:
            for layer, n in s.checks.items():
                totals[layer] += n
        return totals

    def kind_totals(self) -> dict[str, int]:
        """Batch-wide histogram of exercised join-edge kinds."""
        totals = {kind: 0 for kind in JOIN_KINDS}
        for s in self.scenarios:
            for kind, n in s.join_kinds.items():
                totals[kind] += n
        return totals

    def describe(self) -> str:
        checks = "  ".join(f"{k}:{v}" for k, v in self.layer_checks().items())
        kinds = "  ".join(f"{k}:{v}" for k, v in self.kind_totals().items())
        return (f"{self.n_scenarios} scenarios, 0 violations "
                f"(oracle checks — {checks}; join kinds — {kinds})")

    def check_hard_regimes(self) -> None:
        """Raise unless the batch exercised the regimes the CI seed
        matrices are chosen for — every oracle layer on every scenario,
        at least one spill-forcing memory grant, and all three physical-
        design levels.  This is what keeps a green sweep meaningful: a
        generator change that quietly stops producing the hard cases
        fails here instead of passing vacuously (the CLI's
        ``--require-hard-regimes`` gates CI on it)."""
        checks = self.layer_checks()
        for layer in ORACLE_LAYERS:
            if checks[layer] < self.n_scenarios:
                raise AssertionError(
                    f"oracle layer {layer!r} ran {checks[layer]} checks "
                    f"over {self.n_scenarios} scenarios; every scenario "
                    f"must pass every layer")
        if not any(s.spill_events for s in self.scenarios):
            raise AssertionError(
                "no scenario forced a spill; shrink the memory grants")
        designs = {s.design for s in self.scenarios}
        if designs != {"untuned", "partial", "full"}:
            raise AssertionError(
                f"scenarios only exercised designs {sorted(designs)}; "
                f"the matrix must cover untuned, partial and full")
        kinds = self.kind_totals()
        missing = [kind for kind in JOIN_KINDS if not kinds.get(kind)]
        if missing:
            raise AssertionError(
                f"join kind(s) {missing} never drawn across "
                f"{self.n_scenarios} scenarios (histogram: {kinds}); the "
                f"generator must keep exercising every join semantics")


def _train_scenario_monitor(runs: list[QueryRun], config: FuzzConfig,
                            refresh_every: int) -> ProgressMonitor | None:
    """Tiny MART selectors trained on the scenario's own pipelines."""
    pipelines = [pr for run in runs
                 for pr in run.pipeline_runs(min_observations=4)]
    if len(pipelines) < 4:
        return None
    estimators = all_estimators()
    params = MARTParams(n_trees=config.selector_trees,
                        max_leaves=config.selector_leaves)
    static_data = collect_training_data(pipelines, estimators,
                                        FeatureExtractor("static"))
    dynamic_data = collect_training_data(
        pipelines, estimators,
        FeatureExtractor("dynamic", estimators=estimators))
    return ProgressMonitor(
        static_selector=train_selector(static_data, params),
        dynamic_selector=train_selector(dynamic_data, params),
        refresh_every=refresh_every)


def run_scenario(seed: int, config: FuzzConfig | None = None
                 ) -> ScenarioReport:
    """Build, execute and oracle-check one scenario; raises
    :class:`~repro.fuzz.oracle.OracleViolation` on any failure."""
    config = config or PRESETS["default"]
    repro = repro_command(seed, config)
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(config.rows_lo, config.rows_hi + 1))
    n_queries = int(rng.integers(config.queries_lo, config.queries_hi + 1))
    db, info = generate_fuzz_database(seed * 7919 + 1, rows)
    queries = generate_fuzz_queries(info, n_queries, seed * 7919 + 2)
    level = _DESIGN_LEVELS[int(rng.integers(0, len(_DESIGN_LEVELS)))]
    design = design_for_workload(db, queries, level)
    apply_design(db, design)
    planner = Planner(db, build_statistics(db))

    # engine knobs: memory grants small enough to force spills regularly
    memory_budget = float(int(rng.integers(8, 49)) << 10)
    batch_size = int(rng.choice([64, 128, 256]))
    refresh_every = int(rng.integers(1, 4))
    monitor = ProgressMonitor(refresh_every=refresh_every)

    checks = {layer: 0 for layer in ORACLE_LAYERS}
    join_kinds = {kind: 0 for kind in JOIN_KINDS}
    for query in queries:
        for edge in query.joins:
            join_kinds[edge.kind] += 1
    runs: list[QueryRun] = []
    streams: list[list] = []
    for i, query in enumerate(queries):
        ctx = OracleContext(seed=seed, repro=repro, query=query.name)
        plan = planner.plan(query)
        exec_config = ExecutorConfig(
            batch_size=batch_size,
            memory_budget_bytes=memory_budget,
            target_observations=config.target_observations,
            seed=seed * 1_000 + i,
            collect_output=True)
        # one live execution serves layer 1's output check too
        run, reports = monitor.run(db, plan, query.name, exec_config)
        check_engine_output(run, evaluate_reference(db, query), query, ctx)
        checks["output"] += 1
        check_progress_invariants(run, ctx)
        checks["invariants"] += 1
        check_kernel_parity(run, reports, monitor, ctx)
        checks["kernel"] += 1
        check_trace_roundtrip(run, reports, monitor, ctx)
        checks["trace"] += 1
        runs.append(run)
        streams.append(reports)

    ctx = OracleContext(seed=seed, repro=repro)
    slice_steps = int(rng.integers(1, 9))
    max_live = int(rng.integers(1, len(runs) + 1))
    shards = int(rng.integers(2, 5))
    check_service_parity(runs, streams, monitor, ctx,
                         slice_steps=slice_steps, max_live=max_live,
                         shards=shards)
    checks["service"] += 1
    check_network_parity(runs, streams, monitor, ctx,
                         slice_steps=slice_steps, max_live=max_live,
                         shards=shards)
    checks["network"] += 1

    if config.train_selectors:
        trained = _train_scenario_monitor(runs, config, refresh_every)
        if trained is not None:
            solo = [replay_monitor(trained, run) for run in runs]
            for run, reports in zip(runs, solo):
                query_ctx = OracleContext(seed=seed, repro=repro,
                                          query=run.query_name)
                check_kernel_parity(run, reports, trained, query_ctx)
                checks["kernel"] += 1
                check_trace_roundtrip(run, reports, trained, query_ctx)
                checks["trace"] += 1
            check_service_parity(runs, solo, trained, ctx,
                                 slice_steps=slice_steps, max_live=max_live,
                                 shards=shards)
            checks["service"] += 1

    return ScenarioReport(
        seed=seed,
        preset=config.name,
        rows=rows,
        n_queries=len(runs),
        n_pipelines=sum(len(r.pipeline_runs(min_observations=3))
                        for r in runs),
        n_reports=sum(len(s) for s in streams),
        spill_events=sum(r.spill_events for r in runs),
        design=design.name,
        checks=checks,
        join_kinds=join_kinds,
    )


def _scenario_task(task: dict) -> dict:
    """Pool worker: one scenario per task, violations returned as data.

    Module-level for the runtime pool.  An
    :class:`~repro.fuzz.oracle.OracleViolation` is demoted to a payload
    (its message already embeds the per-seed repro command) so it crosses
    the process boundary verbatim instead of as a pickled traceback.
    """
    config = FuzzConfig(**task["config"])
    try:
        scenario = run_scenario(task["seed"], config)
    except OracleViolation as violation:
        return {"violation": violation.to_payload()}
    return {"scenario": asdict(scenario)}


def run_fuzz(seeds, config: FuzzConfig | None = None,
             on_scenario=None, jobs: int | None = None) -> FuzzReport:
    """Run a batch of scenarios; the first oracle violation propagates.

    ``jobs`` > 1 sweeps the seeds across worker processes.  Results are
    merged (and ``on_scenario`` streamed) in seed order, and the raised
    violation is always the earliest seed's — so a parallel sweep fails
    identically to the serial one, per-seed repro command included.
    ``jobs=None`` defers to ``REPRO_JOBS`` (default serial).
    """
    config = config or PRESETS["default"]
    seeds = [int(seed) for seed in seeds]
    report = FuzzReport()
    jobs = min(resolve_jobs(jobs), max(len(seeds), 1))
    if jobs <= 1:
        for seed in seeds:
            scenario = run_scenario(seed, config)
            report.scenarios.append(scenario)
            if on_scenario is not None:
                on_scenario(scenario)
        return report

    tasks = [{"seed": seed, "config": asdict(config)} for seed in seeds]

    def collect(index: int, result: dict) -> None:
        if "violation" in result:  # aborts the remaining futures
            raise OracleViolation.from_payload(result["violation"])
        scenario = ScenarioReport(**result["scenario"])
        report.scenarios.append(scenario)
        if on_scenario is not None:
            on_scenario(scenario)

    run_tasks(_scenario_task, tasks, jobs=jobs, on_result=collect)
    return report


def preset(name: str, **overrides) -> FuzzConfig:
    """A named preset, optionally tweaked (keeps the CLI-addressable name)."""
    if name not in PRESETS:
        raise KeyError(f"unknown fuzz preset {name!r}; "
                       f"choose from {sorted(PRESETS)}")
    base = PRESETS[name]
    return replace(base, **overrides) if overrides else base
