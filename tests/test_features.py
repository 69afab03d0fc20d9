"""Tests for static (§4.3) and dynamic (§4.4) features."""

from pathlib import Path

import numpy as np
import pytest

from repro.core.training import runs_to_pipelines

from repro.engine.run import live_pipeline_run
from repro.features.vector import (
    CORRELATED,
    MISSING,
    OPS_UNIVERSE,
    FeatureExtractor,
    _ancestor_matrix,
    _dynamic_block,
    _static_block,
    dynamic_feature_names,
    marker_rows,
    static_feature_names,
)
from repro.plan.nodes import Op
from repro.progress.registry import all_estimators
from repro.progress.soa import FlushBatch
from repro.trace import read_trace
from repro.trace.replay import ReplayContext

from helpers import extract, make_pipeline_run


@pytest.fixture(scope="module")
def nlj_pipeline():
    """filter(0) <- nlj(1) <- [scan(2), seek(3)] with known estimates."""
    ramp = np.linspace(0, 1, 21)
    K = np.column_stack([ramp * 50, ramp * 100, ramp * 100, ramp * 200])
    return make_pipeline_run(
        [Op.FILTER, Op.NESTED_LOOP_JOIN, Op.INDEX_SCAN, Op.INDEX_SEEK], K,
        parents=[-1, 0, 1, 1],
        drivers=[2],
        E0=np.array([50.0, 100.0, 100.0, 200.0]),
        table_rows=np.array([np.nan, np.nan, 100.0, 1000.0]),
    )


GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
FAMILIES = ("tpch", "tpcds", "real", "fuzz", "outer_semi")


def family_pipelines(family):
    """A golden family's recorded runs and scorable offline pipelines."""
    runs, manifest = read_trace(GOLDEN_DIR / family)
    return runs, runs_to_pipelines(
        runs, min_observations=manifest["meta"]["min_observations"])


@pytest.fixture(scope="module")
def golden_pipelines():
    """Every scorable pipeline of every committed golden family."""
    return [pr for family in FAMILIES for pr in family_pipelines(family)[1]]


def static_features(pr):
    """One pipeline's static row, by feature name."""
    extractor = FeatureExtractor("static")
    return dict(zip(extractor.feature_names, extract(extractor, [pr])[0]))


def dynamic_features(pr):
    """One pipeline's §4.4 features (the columns after the static ones),
    by feature name."""
    extractor = FeatureExtractor("dynamic")
    row = extract(extractor, [pr])[0]
    tail = len(static_feature_names())
    return dict(zip(extractor.feature_names[tail:], row[tail:]))


class TestAncestorMatrix:
    def test_chain(self):
        anc = _ancestor_matrix(np.array([-1, 0, 1]))
        assert anc[0, 1] and anc[0, 2] and anc[1, 2]
        assert not anc[1, 0] and not anc[2, 2]

    def test_branching(self):
        anc = _ancestor_matrix(np.array([-1, 0, 0]))
        assert anc[0, 1] and anc[0, 2]
        assert not anc[1, 2]


def reference_static_features(pr):
    """The per-pipeline loop the batched static features must equal bit
    for bit: every masked sum is ``np.sum`` over the compacted selection."""
    e0, m = pr.E0, pr.n_nodes
    anc = np.zeros((m, m), dtype=bool)
    for j in range(m):
        p = pr.parent_local[j]
        while p >= 0:
            anc[p, j] = True
            p = pr.parent_local[p]
    total_e = float(e0.sum())
    denom = max(total_e, 1e-9)
    out = {}
    for op in OPS_UNIVERSE:
        at = np.array([o == op for o in pr.ops])
        above = anc[:, at].any(axis=1)
        below = anc[at, :].any(axis=0)
        out[f"count_{op.value}"] = float(at.sum())
        out[f"card_{op.value}"] = float(e0[at].sum())
        out[f"sel_at_{op.value}"] = float(e0[at].sum()) / denom
        out[f"sel_above_{op.value}"] = float(e0[above].sum()) / denom
        out[f"sel_below_{op.value}"] = float(e0[below].sum()) / denom
    driver_e = float(e0[pr.driver_mask].sum())
    out.update(
        sel_at_dn=driver_e / denom, n_nodes=float(m),
        n_drivers=float(pr.driver_mask.sum()),
        log_total_e=float(np.log1p(total_e)),
        log_driver_e=float(np.log1p(max(driver_e, 0.0))),
        expansion=total_e / max(driver_e, 1e-9),
        driver_width=float(pr.widths[pr.driver_mask].mean())
        if pr.driver_mask.any() else 0.0)
    return out


class TestStaticFeatures:
    def test_names_match_values(self, nlj_pipeline):
        values = static_features(nlj_pipeline)
        assert set(values) == set(static_feature_names())

    def test_counts(self, nlj_pipeline):
        values = static_features(nlj_pipeline)
        assert values["count_nested_loop_join"] == 1.0
        assert values["count_index_seek"] == 1.0
        assert values["count_sort"] == 0.0

    def test_sel_at_is_relative_cardinality(self, nlj_pipeline):
        values = static_features(nlj_pipeline)
        total = 50 + 100 + 100 + 200
        assert values["sel_at_index_seek"] == pytest.approx(200 / total)

    def test_sel_above_below_nlj(self, nlj_pipeline):
        values = static_features(nlj_pipeline)
        total = 450.0
        # Nodes above an NLJ node: the filter (50).
        assert values["sel_above_nested_loop_join"] == pytest.approx(50 / total)
        # Nodes below: scan + seek (300).
        assert values["sel_below_nested_loop_join"] == pytest.approx(300 / total)

    def test_sel_at_dn(self, nlj_pipeline):
        values = static_features(nlj_pipeline)
        assert values["sel_at_dn"] == pytest.approx(100 / 450.0)

    def test_expansion(self, nlj_pipeline):
        values = static_features(nlj_pipeline)
        assert values["expansion"] == pytest.approx(450.0 / 100.0)

    def test_wide_selections_match_the_compacted_sums(self, rng):
        """Selections of 8+ nodes leave NumPy's sequential summation; the
        batch must still reproduce the compacted ``np.sum`` exactly."""
        m = 13
        ops = [Op.FILTER] * 10 + [Op.HASH_JOIN, Op.TABLE_SCAN, Op.TABLE_SCAN]
        parents = [-1] + list(range(10)) + [10, 10]
        # at 2**53 sequential addition drops what a pairwise tree keeps
        E0 = np.r_[2.0 ** 53, 1.0 + rng.random(m - 1)]
        widths = np.r_[2.0 ** 53, rng.random(m - 1)]
        assert E0[:10].sum() != np.add.accumulate(E0[:10])[-1]
        drivers = list(range(m))  # every node a driver: a 13-node mask
        K = np.outer(np.linspace(0, 1, 6), E0)
        wide = make_pipeline_run(ops, K, parents=parents, drivers=drivers,
                                 E0=E0, widths=widths)
        narrow = make_pipeline_run(ops[-3:], K[:, -3:], parents=[-1, 0, 0],
                                   drivers=[1], E0=E0[-3:])
        extractor = FeatureExtractor("static")
        for pr in (wide, narrow):
            want = reference_static_features(pr)
            for batch, i in (([pr], 0), ([narrow, pr, wide], 1)):
                row = extract(extractor, batch)[i]
                assert dict(zip(extractor.feature_names, row)) == want

    def test_all_ops_in_universe_have_features(self):
        names = static_feature_names()
        for op in OPS_UNIVERSE:
            assert f"count_{op.value}" in names
            assert f"sel_below_{op.value}" in names


class TestDynamicFeatures:
    @pytest.fixture(scope="class")
    def estimators(self):
        return {e.name: e for e in all_estimators()}

    def test_names_match_values(self, nlj_pipeline):
        values = dynamic_features(nlj_pipeline)
        assert set(values) == set(dynamic_feature_names())

    def test_pairwise_disagreement_definition(self, nlj_pipeline, estimators):
        values = dynamic_features(nlj_pipeline)
        (t,) = marker_rows(estimators["dne"].estimate(nlj_pipeline), [10.0])
        dne = estimators["dne"].estimate(nlj_pipeline)[t]
        tgn = estimators["tgn"].estimate(nlj_pipeline)[t]
        assert values["dne_vs_tgn_at_10"] == pytest.approx(abs(dne - tgn))

    def test_missing_markers_are_sentinels(self):
        # Driver never reaches 1%: all dynamic features are MISSING.
        K = np.zeros((5, 1))
        pr = make_pipeline_run([Op.INDEX_SCAN], K, drivers=[0],
                               E0=np.array([100.0]), N=np.array([100.0]),
                               table_rows=np.array([100.0]))
        values = dynamic_features(pr)
        assert all(v == MISSING for v in values.values())

    @pytest.mark.parametrize("family", FAMILIES)
    def test_features_equal_their_estimate_definition(self, family,
                                                      estimators):
        """``extract`` reads its trajectories off the SoA kernels; its
        rows are bit-equal to the feature blocks fed each pipeline's
        ``estimate`` trajectories.  Checked on a golden family's offline
        views (``N`` the truth) and on live views of its replayed runs
        at a spread of rows (``N`` the totals known at the row), batched
        together."""
        runs, offline = family_pipelines(family)
        views = list(offline)
        for run in runs:
            ctx = ReplayContext(run)
            ctx.seek(len(run.times) - 1)
            for pipe in ctx.pipelines:
                first = ctx.pipe_first_row[pipe.pid]
                if first >= len(run.times):
                    continue
                rows = np.linspace(first, len(run.times) - 1, 5).astype(int)
                views += [view for view in (live_pipeline_run(ctx, pipe, R)
                                            for R in sorted(set(rows)))
                          if view is not None]
        assert len(views) > len(offline), family
        trajectories = np.hstack([
            np.array([estimators[name].estimate(pr) for name in CORRELATED])
            for pr in views])
        want = np.hstack([_static_block(views), _dynamic_block(
            FlushBatch.of_pipeline_runs(views), trajectories)])
        got = extract(FeatureExtractor("dynamic"), views)
        for i, (row, expected) in enumerate(zip(got, want)):
            assert row.tobytes() == expected.tobytes(), (family, i)


class TestFeatureExtractor:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            FeatureExtractor("hybrid")

    def test_static_vector_length(self, nlj_pipeline):
        extractor = FeatureExtractor("static")
        vec = extract(extractor, [nlj_pipeline])
        assert vec.shape == (1, extractor.n_features)
        assert extractor.n_features == len(static_feature_names())

    def test_dynamic_extends_static(self, nlj_pipeline):
        static = FeatureExtractor("static")
        dynamic = FeatureExtractor("dynamic")
        assert dynamic.n_features > static.n_features
        assert dynamic.feature_names[:static.n_features] == static.feature_names

    def test_paper_scale_feature_count(self):
        """The paper stores ~200 doubles per training record."""
        n = FeatureExtractor("dynamic").n_features
        assert 150 <= n <= 260

    def test_matrix_stacking(self, pipeline_runs):
        extractor = FeatureExtractor("static")
        matrix = extract(extractor, pipeline_runs)
        assert matrix.shape == (len(pipeline_runs), extractor.n_features)

    def test_empty_matrix(self):
        for mode in ("static", "dynamic"):
            extractor = FeatureExtractor(mode)
            assert extract(extractor, []).shape == (0, extractor.n_features)

    @pytest.mark.parametrize("mode", ["static", "dynamic"])
    def test_batch_invariance(self, golden_pipelines, mode):
        """A pipeline's row does not depend on what shares its batch."""
        extractor = FeatureExtractor(mode)
        matrix = extract(extractor, golden_pipelines)
        assert matrix.shape == (len(golden_pipelines), extractor.n_features)
        for i, pr in enumerate(golden_pipelines):
            alone = extract(extractor, [pr])[0]
            assert matrix[i].tobytes() == alone.tobytes(), i
