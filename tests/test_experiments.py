"""Tests for scale profiles, the experiment harness and result formatting."""

import json
import numpy as np
import pytest

from repro.experiments.harness import ExperimentHarness
from repro.experiments.results import ascii_series, format_table, save_result
from repro.experiments.scale import PAPER, SMALL, TINY, active_scale

pytestmark = pytest.mark.slow  # execution-backed: tiny-scale workload runs


class TestScaleProfiles:
    def test_sizes_ordered(self):
        assert TINY.suite.tpch_rows < SMALL.suite.tpch_rows < PAPER.suite.tpch_rows
        assert TINY.mart_trees <= SMALL.mart_trees <= PAPER.mart_trees

    def test_paper_profile_uses_paper_hyperparams(self):
        assert PAPER.mart_trees == 200
        assert PAPER.mart_leaves == 30

    def test_mart_params_overrides(self):
        params = TINY.mart_params(n_trees=3)
        assert params.n_trees == 3
        assert params.max_leaves == TINY.mart_leaves

    def test_active_scale_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        assert active_scale().name == "tiny"
        monkeypatch.setenv("REPRO_SCALE", "bogus")
        with pytest.raises(ValueError):
            active_scale()

    def test_active_scale_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert active_scale().name == "small"


@pytest.fixture(scope="module")
def harness():
    return ExperimentHarness(TINY, seed=1)


class TestHarness:
    def test_runs_cached(self, harness):
        runs_a = harness.runs("tpcds")
        runs_b = harness.runs("tpcds")
        assert runs_a is runs_b
        assert len(runs_a) == TINY.suite.tpcds_queries

    def test_pipelines_nonempty(self, harness):
        assert len(harness.pipelines("tpcds")) > 0

    def test_training_data_shapes(self, harness):
        data = harness.training_data("tpcds", "static")
        assert data.n_examples == len(harness.pipelines("tpcds"))
        assert data.errors_l1.shape[1] == len(harness.estimators)

    def test_leave_one_out_disjoint(self, harness):
        train, test = harness.leave_one_out("tpcds", "static")
        train_dbs = {m["db"] for m in train.meta}
        test_dbs = {m["db"] for m in test.meta}
        assert "tpcds" in test_dbs
        assert "tpcds" not in train_dbs

    def test_volume_buckets_balanced(self, harness):
        data = harness.training_data("tpcds", "static")
        buckets = harness.volume_buckets(data, n_buckets=3)
        counts = np.bincount(buckets, minlength=3)
        assert counts.max() - counts.min() <= 1

    def test_volume_buckets_ordered(self, harness):
        data = harness.training_data("tpcds", "static")
        buckets = harness.volume_buckets(data, n_buckets=3)
        volumes = np.array([m["total_getnext"] for m in data.meta])
        assert volumes[buckets == 0].max() <= volumes[buckets == 2].min() + 1e-9


class TestResults:
    def test_format_table(self):
        text = format_table(["name", "value"], [["a", 1.5], ["bb", 2]],
                            title="T")
        assert "### T" in text
        assert "| a " in text and "1.5000" in text

    def test_save_result_writes_files(self, tmp_path, monkeypatch):
        import repro.experiments.results as results_mod
        monkeypatch.setattr(results_mod, "RESULTS_DIR", tmp_path)
        path = save_result("unit", "# hello", data={"x": np.float64(1.5)})
        text = path.read_text()
        assert text.startswith("# hello")
        payload = json.loads((tmp_path / "unit.json").read_text())
        assert payload["data"] == {"x": 1.5}
        host = payload["host"]
        assert set(host) == {"cpus", "python", "numpy", "git_sha"}
        assert host["cpus"] >= 1 and host["numpy"] == np.__version__
        assert text.splitlines()[-1] == (
            f"_host: cpus={host['cpus']} python={host['python']} "
            f"numpy={host['numpy']} git_sha={host['git_sha']}_")

    def test_git_sha_outside_git_is_unknown(self, tmp_path):
        from repro.experiments.results import git_sha

        assert git_sha(tmp_path / "file.py") == "unknown"

    def test_ascii_series_renders(self):
        xs = np.linspace(0, 1, 50)
        art = ascii_series(xs, xs, label="diag")
        assert "diag" in art
        assert "*" in art
