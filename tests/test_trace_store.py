"""Tests for the trace format and the content-keyed trace store.

The load-bearing guarantee is *bit-identical replay*: record → write →
read yields a QueryRun whose every array, node and pipeline equals the
executed original, so downstream pipelines, features and TrainingData
matrices are indistinguishable from direct execution.
"""

import json
import math
from dataclasses import asdict, fields

import numpy as np
import pytest

from repro.core.training import collect_training_data, runs_to_pipelines
from repro.engine.run import PipelineRun, QueryRun
from repro.experiments.harness import ExperimentHarness
from repro.experiments.scale import ScaleProfile
from repro.features.vector import FeatureExtractor
from repro.progress.registry import all_estimators
from repro.trace import (
    TRACE_FORMAT_VERSION,
    TraceStore,
    content_key,
    read_trace,
    write_trace,
)
from repro.trace.store import MANIFEST_NAME
from repro.workloads.suite import SuiteScale

#: a deliberately tiny profile so harness-integration tests execute in ms
UNIT_SCALE = ScaleProfile(
    name="unit",
    suite=SuiteScale(tpch_rows=1_500, tpcds_rows=1_200, real1_rows=1_000,
                     real2_rows=1_000, tpch_queries=3, tpcds_queries=3,
                     real1_queries=2, real2_queries=2),
    memory_budget_bytes=float(64 << 10),
    batch_size=256,
    target_observations=40,
    mart_trees=8,
    mart_leaves=4,
    min_pipeline_observations=4,
)


def _scalar_equal(a, b):
    if isinstance(a, float) and isinstance(b, float):
        return (math.isnan(a) and math.isnan(b)) or a == b
    return a == b


def assert_runs_identical(a: QueryRun, b: QueryRun) -> None:
    """Field-by-field bit-identity (NaN-aware, ``output`` excluded)."""
    for key in ("times", "K", "R", "W", "LB", "UB", "N", "D"):
        assert np.array_equal(getattr(a, key), getattr(b, key)), key
    assert a.query_name == b.query_name
    assert a.db_name == b.db_name
    assert a.total_time == b.total_time
    assert a.output_rows == b.output_rows
    assert a.spill_events == b.spill_events
    assert len(a.nodes) == len(b.nodes)
    for na, nb in zip(a.nodes, b.nodes):
        for f, value in asdict(na).items():
            assert _scalar_equal(value, getattr(nb, f)), (na.node_id, f)
    assert len(a.pipelines) == len(b.pipelines)
    for pa, pb in zip(a.pipelines, b.pipelines):
        for f, value in asdict(pa).items():
            assert _scalar_equal(value, getattr(pb, f)), (pa.pid, f)


def assert_pipeline_runs_identical(a: PipelineRun, b: PipelineRun) -> None:
    for f in fields(PipelineRun):
        if f.name.startswith("_"):
            continue
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if isinstance(va, np.ndarray):
            assert np.array_equal(va, vb, equal_nan=va.dtype.kind == "f"), f.name
        else:
            assert _scalar_equal(va, vb), f.name


class TestRoundTrip:
    def test_query_run_round_trip_bit_identical(self, join_run, tmp_path):
        join_run.to_trace(tmp_path / "t")
        assert_runs_identical(join_run, QueryRun.from_trace(tmp_path / "t"))

    def test_pipeline_runs_round_trip_bit_identical(self, join_run, scan_run,
                                                    tmp_path):
        write_trace(tmp_path / "t", [join_run, scan_run])
        replayed, _ = read_trace(tmp_path / "t")
        originals = runs_to_pipelines([join_run, scan_run],
                                      min_observations=5)
        clones = runs_to_pipelines(replayed, min_observations=5)
        assert len(originals) == len(clones) > 0
        for pa, pb in zip(originals, clones):
            assert_pipeline_runs_identical(pa, pb)

    def test_training_data_bit_identical_to_direct_execution(
            self, join_run, scan_run, tmp_path):
        """The acceptance criterion: replayed traces produce bit-identical
        TrainingData (X, errors_l1, errors_l2) to direct execution."""
        write_trace(tmp_path / "t", [join_run, scan_run])
        replayed, _ = read_trace(tmp_path / "t")
        estimators = all_estimators(include_worst_case=True)
        extractor = FeatureExtractor("dynamic")
        direct = collect_training_data(
            runs_to_pipelines([join_run, scan_run], 5), estimators, extractor)
        from_trace = collect_training_data(
            runs_to_pipelines(replayed, 5), estimators, extractor)
        assert np.array_equal(direct.X, from_trace.X)
        assert np.array_equal(direct.errors_l1, from_trace.errors_l1)
        assert np.array_equal(direct.errors_l2, from_trace.errors_l2)
        assert direct.meta == from_trace.meta

    def test_manifest_is_standard_json(self, join_run, tmp_path):
        path = join_run.to_trace(tmp_path / "t")
        text = (path / MANIFEST_NAME).read_text()
        payload = json.loads(text)  # NaN would raise with a strict parser
        assert "NaN" not in text
        assert payload["format_version"] == TRACE_FORMAT_VERSION

    def test_output_chunk_not_recorded(self, join_run, tmp_path):
        join_run.to_trace(tmp_path / "t")
        assert QueryRun.from_trace(tmp_path / "t").output is None


class TestFormatErrors:
    def test_unknown_format_version_raises(self, join_run, tmp_path):
        path = join_run.to_trace(tmp_path / "t")
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        manifest["format_version"] = 999
        (path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="unsupported trace format"):
            read_trace(path)

    def test_missing_format_version_raises(self, join_run, tmp_path):
        path = join_run.to_trace(tmp_path / "t")
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        del manifest["format_version"]
        (path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="unsupported trace format"):
            read_trace(path)

    def test_run_without_done_matrix_rejected(self, join_run, tmp_path):
        import dataclasses
        stripped = dataclasses.replace(join_run, D=None)
        with pytest.raises(ValueError, match="done-flag"):
            stripped.to_trace(tmp_path / "t")

    def test_empty_trace_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty trace"):
            write_trace(tmp_path / "t", [])


class TestTraceStore:
    def test_save_load_exists_keys(self, join_run, tmp_path):
        store = TraceStore(tmp_path / "traces")
        assert not store.exists("k1")
        assert store.keys() == []
        store.save("k1", [join_run], meta={"origin": "unit"})
        assert store.exists("k1")
        assert store.keys() == ["k1"]
        assert store.manifest("k1")["meta"] == {"origin": "unit"}
        assert_runs_identical(join_run, store.load("k1")[0])

    def test_save_replaces_existing(self, join_run, scan_run, tmp_path):
        store = TraceStore(tmp_path)
        store.save("k", [join_run, scan_run])
        store.save("k", [scan_run])
        runs = store.load("k")
        assert len(runs) == 1
        assert runs[0].query_name == scan_run.query_name

    def test_from_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_DIR", raising=False)
        assert TraceStore.from_env() is None
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        store = TraceStore.from_env()
        assert store is not None and store.root == tmp_path

    def test_content_key_stable_and_sensitive(self):
        a = content_key({"workload": "tpch", "seed": 0})
        b = content_key({"seed": 0, "workload": "tpch"})  # order-insensitive
        c = content_key({"workload": "tpch", "seed": 1})
        assert a == b
        assert a != c
        assert len(a) == 16


class TestHarnessTraceCache:
    def test_miss_records_then_hit_replays(self, tmp_path):
        store = TraceStore(tmp_path / "cache")
        cold = ExperimentHarness(UNIT_SCALE, seed=3, trace_store=store)
        cold_runs = cold.runs("real1")
        assert store.exists(cold.trace_key("real1"))

        warm = ExperimentHarness(UNIT_SCALE, seed=3, trace_store=store)
        warm_runs = warm.runs("real1")
        # the warm harness replayed from disk: no database was ever built
        assert warm.suite._bundles == {}
        assert len(warm_runs) == len(cold_runs)
        for a, b in zip(cold_runs, warm_runs):
            assert_runs_identical(a, b)

    def test_training_data_identical_across_processes(self, tmp_path):
        """Simulates the cross-process benchmark warm start: a second
        harness with only the trace directory reproduces the exact
        training matrices of the executing one."""
        store = TraceStore(tmp_path / "cache")
        cold = ExperimentHarness(UNIT_SCALE, seed=3, trace_store=store)
        direct = cold.training_data("real1", "dynamic")
        warm = ExperimentHarness(UNIT_SCALE, seed=3, trace_store=store)
        replayed = warm.training_data("real1", "dynamic")
        assert np.array_equal(direct.X, replayed.X)
        assert np.array_equal(direct.errors_l1, replayed.errors_l1)
        assert np.array_equal(direct.errors_l2, replayed.errors_l2)

    def test_key_distinguishes_seed_scale_workload(self):
        h1 = ExperimentHarness(UNIT_SCALE, seed=3, trace_store=None)
        h2 = ExperimentHarness(UNIT_SCALE, seed=4, trace_store=None)
        assert h1.trace_key("real1") != h2.trace_key("real1")
        assert h1.trace_key("real1") != h1.trace_key("real2")
        assert h1.trace_key("real1").startswith("real1-")

    def test_env_var_activates_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "envcache"))
        harness = ExperimentHarness(UNIT_SCALE, seed=5)
        harness.runs("real2")
        assert TraceStore(tmp_path / "envcache").exists(
            harness.trace_key("real2"))
