"""Unit tests for QueryRun / PipelineRun slicing and derived quantities."""

import numpy as np
import pytest

from repro.features.vector import marker_rows
from repro.plan.nodes import Op
from repro.progress.dne import DNEEstimator


class TestPipelineSlicing:
    def test_pipeline_runs_scorable(self, join_run):
        runs = join_run.pipeline_runs(min_observations=5)
        assert runs
        for pr in runs:
            assert pr.n_observations >= 5
            assert pr.duration > 0

    def test_min_observations_filtering(self, join_run):
        lax = join_run.pipeline_runs(min_observations=2)
        strict = join_run.pipeline_runs(min_observations=50)
        assert len(lax) >= len(strict)

    def test_columns_match_members(self, join_run):
        for pr in join_run.pipeline_runs(min_observations=5):
            assert pr.K.shape == (pr.n_observations, pr.n_nodes)
            assert len(pr.ops) == pr.n_nodes
            assert len(pr.E0) == pr.n_nodes

    def test_observations_inside_window(self, join_run):
        for pr in join_run.pipeline_runs(min_observations=5):
            assert (pr.times >= pr.t_start - 1e-9).all()
            assert (pr.times <= pr.t_end + 1e-9).all()

    def test_unexecuted_pipeline_returns_none(self, join_run):
        # Ask for an absurd number of observations: always None.
        for info in join_run.pipelines:
            assert join_run.pipeline_run(info.pid, min_observations=10**6) is None


class TestPipelineWeights:
    """``PlanStatic.weights``: each pipeline's ΣE share (paper eq. 5)."""

    def test_weights_sum_to_one(self, join_run):
        weights = join_run.plan_static.weights
        assert weights.sum() == pytest.approx(1.0)
        assert (weights >= 0).all()

    def test_every_pipeline_weighted(self, join_run):
        weights = join_run.plan_static.weights
        assert len(weights) == len(join_run.pipelines)


class TestDerivedQuantities:
    def test_true_progress_monotone_in_window(self, pipeline_runs):
        for pr in pipeline_runs:
            progress = pr.true_progress()
            assert ((0 <= progress) & (progress <= 1)).all()
            assert (np.diff(progress) >= -1e-12).all()

    def test_driver_fraction_monotone_bounded(self, pipeline_runs):
        for pr in pipeline_runs:
            fraction = pr.driver_fraction()
            assert ((0 <= fraction) & (fraction <= 1)).all()
            assert (np.diff(fraction) >= -1e-12).all()

    def test_driver_fraction_completes(self, pipeline_runs):
        # by the end of a completed pipeline the driver input is consumed
        for pr in pipeline_runs:
            assert pr.driver_fraction()[-1] >= 0.95

    def test_known_totals_exact_for_scans(self, pipeline_runs):
        for pr in pipeline_runs:
            totals = pr.known_totals()
            for j, op in enumerate(pr.ops):
                if op in (Op.TABLE_SCAN, Op.INDEX_SCAN):
                    assert totals[j] == pr.table_rows[j]
                if op in (Op.SORT, Op.HASH_AGG):
                    assert totals[j] == pr.N[j]

    def test_marker_observation_lookup(self, pipeline_runs):
        # markers t{x} are read off the DNE trajectory
        for pr in pipeline_runs:
            t5, t20 = marker_rows(DNEEstimator().estimate(pr), [5.0, 20.0])
            assert t5 >= 0 and t20 >= 0
            assert t5 <= t20
            assert pr.driver_fraction()[t20] >= 0.2 - 1e-9

    def test_marker_never_reached(self, pipeline_runs):
        pr = pipeline_runs[0]
        assert marker_rows(DNEEstimator().estimate(pr), [1000.0])[0] == -1

    def test_node_mask(self, pipeline_runs):
        for pr in pipeline_runs:
            mask = pr.node_mask(Op.FILTER, Op.INDEX_SCAN)
            expected = [op in (Op.FILTER, Op.INDEX_SCAN) for op in pr.ops]
            assert mask.tolist() == expected
