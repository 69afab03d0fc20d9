"""Tests for the ad-hoc workload fuzzer and its differential oracle.

The fast part *is* the CI fuzz gate: a fixed 25-seed matrix runs through
all six oracle layers on every push (engine output vs. the NumPy
reference, progress invariants, kernel-vs-``estimate`` estimation parity,
trace round-trip/replay parity, pooled service parity).  The slow part
widens the matrix, trains per-scenario selectors, and is additionally
sharded across seeds by the dedicated CI fuzz job (``FUZZ_SEED_BASE``).
"""

import multiprocessing
import os

import numpy as np
import pytest

from repro.experiments.harness import ExperimentHarness
from repro.experiments.scale import ScaleProfile
from repro.fuzz import (
    ORACLE_LAYERS,
    OracleContext,
    OracleViolation,
    check_engine_output,
    check_progress_invariants,
    compare_output,
    evaluate_reference,
    generate_fuzz_database,
    generate_fuzz_queries,
    preset,
    repro_command,
    run_fuzz,
    run_scenario,
)
from repro.fuzz.__main__ import main as fuzz_main
from repro.catalog.statistics import build_statistics
from repro.engine.executor import ExecutorConfig, QueryExecutor
from repro.optimizer.planner import Planner
from repro.trace.store import TraceStore
from repro.workloads.suite import (
    ALL_WORKLOAD_NAMES,
    WORKLOAD_NAMES,
    SuiteScale,
    WorkloadSuite,
)

#: the fast CI gate: 25 fixed seeds through all six oracle layers
FAST_SEEDS = range(100, 125)


# ---------------------------------------------------------------------------
# the CI seed matrices
# ---------------------------------------------------------------------------

def test_fast_ci_seed_matrix():
    report = run_fuzz(FAST_SEEDS, preset("ci-fast"))
    assert report.n_scenarios == len(FAST_SEEDS) >= 25
    assert set(report.layer_checks()) == set(ORACLE_LAYERS)
    # every layer on every scenario + spills + all three design levels
    # (the same gate `python -m repro.fuzz --require-hard-regimes` applies
    # when CI runs this matrix as an in-process parallel sweep)
    report.check_hard_regimes()


@pytest.mark.slow
def test_slow_fuzz_seed_matrix():
    """Wider scenarios + per-scenario trained selectors (CI shards this
    across seed blocks via ``FUZZ_SEED_BASE``)."""
    base = int(os.environ.get("FUZZ_SEED_BASE", "2000"))
    report = run_fuzz(range(base, base + 12), preset("ci-slow"))
    assert report.n_scenarios == 12
    # the trained-selector re-checks double up trace/service coverage
    checks = report.layer_checks()
    assert checks["service"] > report.n_scenarios
    assert checks["trace"] > checks["output"]


# ---------------------------------------------------------------------------
# determinism and the repro contract
# ---------------------------------------------------------------------------

def test_scenario_deterministic():
    a = run_scenario(77, preset("ci-fast"))
    b = run_scenario(77, preset("ci-fast"))
    assert a == b
    assert a.preset == "ci-fast"


def test_database_and_queries_deterministic():
    db_a, info_a = generate_fuzz_database(41, rows=300)
    db_b, info_b = generate_fuzz_database(41, rows=300)
    assert sorted(db_a.tables) == sorted(db_b.tables)
    for name, table in db_a.tables.items():
        for col, values in table.data.items():
            assert np.array_equal(values, db_b.table(name).column(col)), col
    qa = generate_fuzz_queries(info_a, 8, seed=42)
    qb = generate_fuzz_queries(info_b, 8, seed=42)
    assert [q.describe() for q in qa] == [q.describe() for q in qb]


def test_generated_queries_plan_and_execute():
    db, info = generate_fuzz_database(13, rows=250)
    queries = generate_fuzz_queries(info, 12, seed=14)
    planner = Planner(db, build_statistics(db))
    shapes = set()
    for query in queries:
        plan = planner.plan(query)
        run = QueryExecutor(db, ExecutorConfig(
            batch_size=128, target_observations=30,
            seed=1)).execute(plan, query.name)
        assert len(run.times) >= 2
        shapes.add((len(query.tables), query.is_aggregate,
                    query.top is not None))
    assert len(shapes) >= 4, "query generator lost its shape diversity"


def test_violation_message_carries_repro_command():
    db, info = generate_fuzz_database(21, rows=200)
    query = generate_fuzz_queries(info, 1, seed=22)[0]
    planner = Planner(db, build_statistics(db))
    run = QueryExecutor(db, ExecutorConfig(
        batch_size=128, target_observations=30, seed=2,
        collect_output=True)).execute(planner.plan(query), query.name)
    ctx = OracleContext(seed=21, repro=repro_command(21, preset("ci-fast")),
                        query=query.name)
    run.K = run.K.copy()
    run.K[-1, 0] += 1.0  # diverge the counters from the recorded bounds
    with pytest.raises(OracleViolation) as exc:
        check_progress_invariants(run, ctx)
    message = str(exc.value)
    assert "python -m repro.fuzz --preset ci-fast --seed 21" in message
    assert "seed=21" in message and "reproduce with" in message


def test_output_oracle_catches_wrong_results():
    db, info = generate_fuzz_database(33, rows=200)
    query = generate_fuzz_queries(info, 1, seed=34)[0]
    planner = Planner(db, build_statistics(db))
    run = QueryExecutor(db, ExecutorConfig(
        batch_size=128, target_observations=30, seed=3,
        collect_output=True)).execute(planner.plan(query), query.name)
    ref = evaluate_reference(db, query)
    assert compare_output(run.output, ref, query) is None
    if ref.expected_rows == 0:  # keep the tampering meaningful
        pytest.skip("scenario produced an empty result")
    tampered = run.output.slice(0, ref.expected_rows - 1)
    assert compare_output(tampered, ref, query) is not None
    run.output = tampered
    run.output_rows -= 1
    ctx = OracleContext(seed=33, repro=repro_command(33, preset("default")))
    with pytest.raises(OracleViolation, match="reproduce with"):
        check_engine_output(run, ref, query, ctx)


def test_cli_runs_and_reports(capsys):
    assert fuzz_main(["--seed", "7", "--scenarios", "2",
                      "--preset", "ci-fast"]) == 0
    out = capsys.readouterr().out
    assert "2 scenarios, 0 violations" in out
    assert out.count("ok ") == 2


def test_preset_lookup():
    assert preset("ci-fast").name == "ci-fast"
    tweaked = preset("ci-fast", rows_hi=300)
    assert tweaked.rows_hi == 300 and tweaked.name == "ci-fast"
    with pytest.raises(KeyError):
        preset("nope")


# ---------------------------------------------------------------------------
# the parallel sweep (--jobs)
# ---------------------------------------------------------------------------

def test_parallel_sweep_matches_serial():
    """A --jobs sweep must report the same scenarios in the same order
    as the serial loop — the fuzz analogue of the harness determinism."""
    seeds = range(300, 306)
    serial_seen, parallel_seen = [], []
    serial = run_fuzz(seeds, preset("ci-fast"), jobs=1,
                      on_scenario=lambda s: serial_seen.append(s.seed))
    parallel = run_fuzz(seeds, preset("ci-fast"), jobs=3,
                        on_scenario=lambda s: parallel_seen.append(s.seed))
    assert serial.scenarios == parallel.scenarios
    assert serial_seen == parallel_seen == list(seeds)
    assert serial.layer_checks() == parallel.layer_checks()


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="patched run_scenario reaches workers by fork inheritance")
def test_parallel_sweep_raises_earliest_seed_violation(monkeypatch):
    """A violation surfaces identically from a parallel sweep: same
    exception type, same message (repro command included), and always
    the *earliest* failing seed — later workers may fail too, but the
    sweep reports exactly what the serial loop would."""
    import repro.fuzz.harness as harness_mod

    real_run_scenario = harness_mod.run_scenario

    def sabotaged(seed, config=None):
        if seed >= 402:
            ctx = OracleContext(seed=seed,
                                repro=repro_command(seed, preset("ci-fast")))
            raise OracleViolation("output", ctx, "sabotaged for the test")
        return real_run_scenario(seed, config)

    monkeypatch.setattr(harness_mod, "run_scenario", sabotaged)
    with pytest.raises(OracleViolation, match="seed=402") as serial_exc:
        harness_mod.run_fuzz(range(400, 406), preset("ci-fast"), jobs=1)
    with pytest.raises(OracleViolation, match="seed=402") as parallel_exc:
        harness_mod.run_fuzz(range(400, 406), preset("ci-fast"), jobs=2)
    assert str(serial_exc.value) == str(parallel_exc.value)
    assert serial_exc.value.seed == parallel_exc.value.seed == 402
    assert "reproduce with" in str(parallel_exc.value)


def test_cli_parallel_sweep(capsys):
    assert fuzz_main(["--seed", "210", "--scenarios", "4",
                      "--preset", "ci-fast", "--jobs", "2"]) == 0
    out = capsys.readouterr().out
    assert "4 scenarios, 0 violations" in out
    assert out.count("ok ") == 4
    assert "2 worker(s)" in out


def test_cli_defaults_to_preset_seed_matrix(capsys):
    """`python -m repro.fuzz --preset P` with no --seed sweeps the
    preset's own matrix (what the CI gate invokes with --jobs 4)."""
    config = preset("ci-fast")
    assert (config.seed_base, config.seed_count) == (100, 25)
    assert (FAST_SEEDS.start, len(FAST_SEEDS)) == (100, 25), \
        "preset matrix must track FAST_SEEDS"
    # a tiny preset-style sweep through the same code path
    assert fuzz_main(["--preset", "default", "--jobs", "2"]) == 0
    out = capsys.readouterr().out
    assert "1 scenarios, 0 violations" in out
    assert "seeds 0..0" in out


def test_check_hard_regimes_catches_soft_matrices():
    """A sweep that quietly loses the hard cases must fail the gate."""
    from repro.fuzz.harness import FuzzReport, ScenarioReport
    from repro.query.logical import JOIN_KINDS

    def scenario(seed, design, spills, checks=None, join_kinds=None):
        return ScenarioReport(
            seed=seed, preset="ci-fast", rows=300, n_queries=2,
            n_pipelines=3, n_reports=10, spill_events=spills, design=design,
            checks=checks or {layer: 1 for layer in ORACLE_LAYERS},
            join_kinds=(join_kinds if join_kinds is not None
                        else {kind: 1 for kind in JOIN_KINDS}))

    good = FuzzReport(scenarios=[scenario(1, "untuned", 2),
                                 scenario(2, "partial", 0),
                                 scenario(3, "full", 1)])
    good.check_hard_regimes()  # spills + designs + layers + kinds: passes

    no_spills = FuzzReport(scenarios=[scenario(1, "untuned", 0),
                                      scenario(2, "partial", 0),
                                      scenario(3, "full", 0)])
    with pytest.raises(AssertionError, match="spill"):
        no_spills.check_hard_regimes()

    one_design = FuzzReport(scenarios=[scenario(1, "full", 2),
                                       scenario(2, "full", 1)])
    with pytest.raises(AssertionError, match="designs"):
        one_design.check_hard_regimes()

    missing_layer = FuzzReport(scenarios=[
        scenario(1, "untuned", 2, {"output": 1}),
        scenario(2, "partial", 1), scenario(3, "full", 1)])
    with pytest.raises(AssertionError, match="every layer"):
        missing_layer.check_hard_regimes()

    # a generator regression that stops drawing some join kind must fail
    inner_only = {"inner": 4, "left": 0, "semi": 0, "anti": 0}
    no_kinds = FuzzReport(scenarios=[
        scenario(1, "untuned", 2, join_kinds=inner_only),
        scenario(2, "partial", 1, join_kinds=inner_only),
        scenario(3, "full", 1, join_kinds=inner_only)])
    with pytest.raises(AssertionError, match="join kind"):
        no_kinds.check_hard_regimes()


def test_scenario_reports_join_kind_histogram():
    """Every scenario reports its drawn join kinds, and the aggregate
    histogram surfaces in the batch description."""
    from repro.query.logical import JOIN_KINDS

    report = run_fuzz(range(100, 104), preset("ci-fast"), jobs=1)
    for s in report.scenarios:
        assert set(s.join_kinds) == set(JOIN_KINDS)
        assert "joins=[" in s.describe()
    totals = report.kind_totals()
    assert sum(totals.values()) > 0
    assert "join kinds" in report.describe()


def test_cli_require_hard_regimes(capsys):
    """The CLI gate mirrors FuzzReport.check_hard_regimes exactly (seeds
    are deterministic, so the library verdict predicts the exit code)."""
    seeds, config = range(210, 216), preset("ci-fast")
    expected = 0
    try:
        run_fuzz(seeds, config).check_hard_regimes()
    except AssertionError:
        expected = 1
    returncode = fuzz_main(["--seed", str(seeds.start),
                            "--scenarios", str(len(seeds)), "--jobs", "2",
                            "--preset", "ci-fast", "--require-hard-regimes"])
    assert returncode == expected
    if expected:
        assert "matrix went soft" in capsys.readouterr().err


def test_violation_payload_round_trip():
    ctx = OracleContext(seed=9, repro=repro_command(9, preset("ci-fast")),
                        query="q")
    original = OracleViolation("invariants", ctx, "k exceeded its bound")
    clone = OracleViolation.from_payload(original.to_payload())
    assert str(clone) == str(original)
    assert clone.layer == "invariants" and clone.seed == 9
    assert isinstance(clone, OracleViolation)


# ---------------------------------------------------------------------------
# the adhoc_fuzz workload family
# ---------------------------------------------------------------------------

_FUZZ_TEST_SCALE = ScaleProfile(
    name="fuzz-test",
    suite=SuiteScale(
        tpch_rows=1_000, tpcds_rows=1_000, real1_rows=900, real2_rows=900,
        tpch_queries=2, tpcds_queries=2, real1_queries=2, real2_queries=2,
        fuzz_rows=500, fuzz_queries=4, outer_rows=500, outer_queries=4,
    ),
    memory_budget_bytes=float(64 << 10),
    batch_size=256,
    target_observations=40,
    mart_trees=8,
    mart_leaves=4,
    min_pipeline_observations=4,
)


def test_suite_exposes_adhoc_fuzz():
    suite = WorkloadSuite(_FUZZ_TEST_SCALE.suite, seed=0)
    assert "adhoc_fuzz" in suite.all_names
    assert "adhoc_fuzz" not in suite.names  # not a §6.2 fold
    assert suite.all_names == ALL_WORKLOAD_NAMES
    assert suite.names == WORKLOAD_NAMES
    bundle = suite.bundle("adhoc_fuzz")
    assert bundle.db.name == "adhoc_fuzz"
    assert len(bundle.queries) == 4
    assert bundle.db.table("t0").n_rows == 500
    for query in bundle.queries:  # plannable with the bundle's own planner
        bundle.planner.plan(query)
    with pytest.raises(KeyError, match="adhoc_fuzz"):
        suite.bundle("not_a_workload")


def test_suite_exposes_outer_semi():
    """The non-inner-heavy family builds, plans, and actually leans on
    LEFT OUTER / SEMI / ANTI joins (that is its reason to exist)."""
    suite = WorkloadSuite(_FUZZ_TEST_SCALE.suite, seed=0)
    assert "outer_semi" in suite.all_names
    assert "outer_semi" not in suite.names  # not a §6.2 fold
    assert suite.query_count("outer_semi") == 4
    bundle = suite.bundle("outer_semi")
    assert bundle.db.name == "outer_semi"
    assert len(bundle.queries) == 4
    kinds = [edge.kind for query in bundle.queries for edge in query.joins]
    assert any(k != "inner" for k in kinds), kinds
    for query in bundle.queries:
        bundle.planner.plan(query)


def test_adhoc_fuzz_warm_starts_from_trace_store(tmp_path):
    store = TraceStore(tmp_path)
    cold = ExperimentHarness(_FUZZ_TEST_SCALE, seed=3, trace_store=store)
    runs = cold.runs("adhoc_fuzz")
    key = cold.trace_key("adhoc_fuzz")
    assert store.exists(key)
    warm = ExperimentHarness(_FUZZ_TEST_SCALE, seed=3, trace_store=store)
    replayed = warm.runs("adhoc_fuzz")
    assert len(replayed) == len(runs) == 4
    for a, b in zip(runs, replayed):
        assert a.query_name == b.query_name
        for member in ("times", "K", "R", "W", "LB", "UB", "N", "D"):
            assert np.array_equal(getattr(a, member), getattr(b, member))
    # and the training path consumes the fuzz bundle like any static family
    data = warm.training_data("adhoc_fuzz", "dynamic")
    assert data.n_examples > 0
    assert data.X.shape[0] == data.n_examples
