"""Golden-trace regression suite.

One tiny committed trace per workload family (TPC-H, TPC-DS, skewed
"real" — see ``tests/golden/regenerate.py``).  Replaying them must
reproduce the committed estimator trajectories and TrainingData matrices
*exactly*: these tests pin down the engine's recorded semantics, the trace
codec and every estimator's arithmetic at once.  If one fails after an
intentional change, regenerate with::

    PYTHONPATH=src python tests/golden/regenerate.py
"""

from pathlib import Path

import numpy as np
import pytest

from repro.core.monitor import ProgressMonitor
from repro.core.training import collect_training_data, runs_to_pipelines
from repro.engine import run as engine_run
from repro.engine.executor import ExecutorConfig
from repro.features.vector import FeatureExtractor
from repro.fuzz.oracle import (
    OracleContext,
    check_kernel_parity,
    check_service_parity,
    check_trace_roundtrip,
)
from repro.progress.registry import all_estimators
from repro.progress.soa import FlushBatch, PipelineMeta
from repro.runtime.transport import reports_to_payload
from repro.service import ProgressService
from repro.trace import TRACE_FORMAT_VERSION, read_trace
from repro.trace.format import run_to_manifest, run_to_members
from repro.trace.replay import replay_monitor
from repro.workloads.suite import WorkloadSuite

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
FAMILIES = ("tpch", "tpcds", "real", "fuzz", "outer_semi")

ESTIMATORS = all_estimators(include_worst_case=True)


def _load(family):
    runs, manifest = read_trace(GOLDEN_DIR / family)
    expected = np.load(GOLDEN_DIR / f"expected_{family}.npz")
    pipelines = runs_to_pipelines(
        runs, min_observations=manifest["meta"]["min_observations"])
    return runs, manifest, pipelines, expected


def test_all_families_present():
    for family in FAMILIES:
        assert (GOLDEN_DIR / family / "manifest.json").is_file(), family
        assert (GOLDEN_DIR / f"expected_{family}.npz").is_file(), family


@pytest.mark.parametrize("family", FAMILIES)
class TestGoldenTrace:
    def test_trace_loads_and_is_scorable(self, family):
        runs, manifest, pipelines, expected = _load(family)
        assert manifest["format_version"] == TRACE_FORMAT_VERSION
        assert int(expected["format_version"]) == TRACE_FORMAT_VERSION
        assert len(runs) >= 2
        assert len(pipelines) == int(expected["n_pipelines"]) > 0
        for run in runs:
            assert run.D is not None
            assert len(run.times) >= 10

    def test_estimator_trajectories_match_exactly(self, family):
        _, _, pipelines, expected = _load(family)
        for i, pr in enumerate(pipelines):
            assert np.array_equal(pr.true_progress(),
                                  expected[f"p{i}_true"]), (family, i)
            for est in ESTIMATORS:
                got = est.estimate(pr)
                want = expected[f"p{i}_{est.name}"]
                assert np.array_equal(got, want), (
                    f"{family} pipeline {i}: estimator {est.name!r} "
                    f"diverged from the golden trajectory; if intentional, "
                    f"regenerate via tests/golden/regenerate.py")

    def test_training_data_matches_exactly(self, family):
        _, _, pipelines, expected = _load(family)
        data = collect_training_data(
            pipelines, ESTIMATORS,
            FeatureExtractor("dynamic"))
        assert np.array_equal(data.X, expected["X"]), family
        assert np.array_equal(data.errors_l1, expected["errors_l1"]), family
        assert np.array_equal(data.errors_l2, expected["errors_l2"]), family

    def test_served_report_bytes_match_exactly(self, family):
        from golden.regenerate import report_payloads

        runs, _, pipelines, expected = _load(family)
        for label, payload in report_payloads(runs, pipelines).items():
            assert payload == expected[f"reports_{label}"].tobytes(), (
                f"{family}: report bytes of the {label!r} monitor diverged "
                f"from the golden stream; if intentional, regenerate via "
                f"tests/golden/regenerate.py")

    def test_served_report_bytes_need_no_offline_view(self, family,
                                                      monkeypatch):
        """Serving builds no :class:`PipelineRun` view and no second
        :class:`PipelineMeta`: with ``live_pipeline_run``,
        ``PipelineMeta.from_pipeline_run`` and
        ``FlushBatch.of_pipeline_runs`` patched to raise once the
        selectors are trained, every monitor still serves the golden
        report bytes."""
        from golden.regenerate import report_monitors

        runs, _, pipelines, expected = _load(family)
        monitors = report_monitors(pipelines)

        def refuse(*args, **kwargs):
            raise AssertionError("the serving path built an offline view")

        monkeypatch.setattr(engine_run, "live_pipeline_run", refuse)
        monkeypatch.setattr(PipelineMeta, "from_pipeline_run", refuse)
        monkeypatch.setattr(FlushBatch, "of_pipeline_runs", refuse)
        for label, monitor in monitors.items():
            payload = reports_to_payload([
                (i, report) for i, run in enumerate(runs)
                for report in replay_monitor(monitor, run)])
            assert payload == expected[f"reports_{label}"].tobytes(), (
                family, label)

    def test_expectations_cover_every_estimator(self, family):
        _, _, pipelines, expected = _load(family)
        names = set(expected.files)
        for i in range(len(pipelines)):
            for est in ESTIMATORS:
                assert f"p{i}_{est.name}" in names, (family, i, est.name)


def test_committed_goldens_are_fresh(tmp_path):
    """Regenerate the cheapest family into a scratch dir and diff it
    against the committed files.

    This is the staleness guard: an engine/estimator change that slipped
    in without ``regenerate.py`` being re-run fails here even when every
    replay-based assertion above still passes (e.g. a change that only
    affects *recording*, not replay).  Byte-equality of ``manifest.json``
    plus array-equality of the trace members and expectations pin the
    whole regeneration pipeline.
    """
    import json

    from golden.regenerate import main as regenerate

    family = "fuzz"  # smallest scale, ~seconds to re-record
    regenerate([family, "--out-dir", str(tmp_path)])

    committed = json.loads(
        (GOLDEN_DIR / family / "manifest.json").read_text())
    fresh = json.loads((tmp_path / family / "manifest.json").read_text())
    assert fresh == committed, (
        f"regenerating the {family!r} golden family no longer reproduces "
        f"the committed manifest; if the change is intentional, run "
        f"PYTHONPATH=src python tests/golden/regenerate.py --all")
    with np.load(GOLDEN_DIR / family / "runs.npz") as want, \
            np.load(tmp_path / family / "runs.npz") as got:
        assert set(got.files) == set(want.files)
        for key in want.files:
            assert np.array_equal(got[key], want[key]), (family, key)
    with np.load(GOLDEN_DIR / f"expected_{family}.npz") as want, \
            np.load(tmp_path / f"expected_{family}.npz") as got:
        assert set(got.files) == set(want.files)
        for key in want.files:
            assert np.array_equal(got[key], want[key]), (family, key)


@pytest.fixture(scope="module")
def outer_semi_live():
    """Re-execute the committed ``outer_semi`` bundle live, monitored.

    Deterministic: the suite scale, seed and executor knobs come straight
    from ``tests/golden/regenerate.py``, so the runs must be bit-identical
    to the committed trace.
    """
    from golden.regenerate import EXECUTOR, SCALE, SEED

    suite = WorkloadSuite(SCALE, seed=SEED)
    bundle = suite.bundle("outer_semi")
    monitor = ProgressMonitor(refresh_every=2)
    runs, streams = [], []
    for i, query in enumerate(bundle.queries):
        config = ExecutorConfig(**EXECUTOR, seed=SEED * 1_000 + i)
        run, reports = monitor.run(bundle.db, bundle.planner.plan(query),
                                   query.name, config)
        runs.append(run)
        streams.append(reports)
    return monitor, runs, streams


class TestOuterSemiAcceptance:
    """The ``outer_semi`` family end to end: the committed golden trace
    must replay bit-identically through all four consumption paths —
    live re-execution, batch (kernels vs. ``estimate``),
    trace round-trip/replay, and the pooled progress service."""

    def test_committed_trace_exercises_non_inner_joins(self):
        runs, _ = read_trace(GOLDEN_DIR / "outer_semi")
        kinds = {n.join_kind for run in runs for n in run.nodes}
        assert kinds - {"inner"}, (
            f"outer_semi golden trace only contains join kinds {kinds}; "
            f"it exists to pin non-inner semantics")

    def test_live_execution_matches_committed_trace(self, outer_semi_live):
        _, live_runs, _ = outer_semi_live
        committed, _ = read_trace(GOLDEN_DIR / "outer_semi")
        assert len(live_runs) == len(committed)
        for live, gold in zip(live_runs, committed):
            assert run_to_manifest(live) == run_to_manifest(gold)
            live_m = run_to_members(live)
            gold_m = run_to_members(gold)
            for key in live_m:
                assert np.array_equal(live_m[key], gold_m[key]), (
                    live.query_name, key)

    def test_batch_replay_and_service_parity(self, outer_semi_live):
        monitor, runs, streams = outer_semi_live
        repro = "PYTHONPATH=src python tests/golden/regenerate.py outer_semi"
        for run, reports in zip(runs, streams):
            ctx = OracleContext(seed=17, repro=repro, query=run.query_name)
            check_kernel_parity(run, reports, monitor, ctx)
            check_trace_roundtrip(run, reports, monitor, ctx)
        check_service_parity(runs, streams, monitor,
                             OracleContext(seed=17, repro=repro),
                             slice_steps=3, max_live=2)


@pytest.fixture(scope="module")
def golden_report_monitors():
    """Per family, the golden report monitors (LUO fallback, trained)."""
    from golden.regenerate import report_monitors

    out = {}
    for family in FAMILIES:
        runs, _, pipelines, _ = _load(family)
        out[family] = runs, report_monitors(pipelines)
    return out


@pytest.mark.parametrize("refresh_every", [1, 2, 3, 5, 13])
@pytest.mark.parametrize("family", FAMILIES)
def test_sparse_refresh_pooled_replay_parity(family, refresh_every,
                                             golden_report_monitors):
    """Pooled replay at sparse refresh rates serves ``estimate`` on the
    causal prefix: LUO's speed window spans rows that are never
    reported, and every report must still equal the batch definition."""
    runs, monitors = golden_report_monitors[family]
    for label, monitor in monitors.items():
        monitor.refresh_every = refresh_every
        service = ProgressService(monitor, slice_steps=3)
        ids = [service.submit_replay(run) for run in runs]
        results = service.run_until_complete()
        for sid, run in zip(ids, runs):
            _, reports = results[sid]
            check_kernel_parity(run, reports, monitor, OracleContext(
                seed=17, repro=f"python -m pytest tests/test_trace_golden.py"
                               f" -k sparse_refresh ({label})",
                query=run.query_name))
