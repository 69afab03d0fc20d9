"""Tests for all candidate progress estimators (paper §3.4 / §5)."""

import numpy as np
import pytest

from repro.plan.nodes import Op
from repro.progress import all_estimators
from repro.progress.base import clip_progress, driver_consumed, safe_divide
from repro.progress.batchdne import BatchDNEEstimator
from repro.progress.dne import DNEEstimator
from repro.progress.dneseek import DNESeekEstimator
from repro.progress.gold import BytesProcessedOracle, GetNextOracle
from repro.progress.luo import LuoEstimator
from repro.progress.refined_tgn import RefinedTGNEstimator
from repro.progress.registry import estimator_by_name, extension_estimators
from repro.progress.safe_pmax import PMaxEstimator, SafeEstimator
from repro.progress.tgn import TGNEstimator
from repro.progress.tgnint import TGNIntEstimator

from helpers import linear_two_node_run, make_pipeline_run, truncate_run

ALL = all_estimators(include_worst_case=True)


class TestUniversalProperties:
    @pytest.mark.parametrize("estimator", ALL, ids=lambda e: e.name)
    def test_range_and_shape(self, estimator, pipeline_runs):
        for pr in pipeline_runs:
            est = estimator.estimate(pr)
            assert est.shape == (pr.n_observations,)
            assert ((0.0 <= est) & (est <= 1.0)).all(), estimator.name

    @pytest.mark.parametrize("estimator", ALL, ids=lambda e: e.name)
    def test_causality(self, estimator, pipeline_runs):
        """Estimate at observation t must not change when the future is cut."""
        pr = pipeline_runs[0]
        full = estimator.estimate(pr)
        cut = pr.n_observations // 2
        prefix = estimator.estimate(truncate_run(pr, cut))
        assert np.allclose(prefix, full[:cut + 1], atol=1e-9), estimator.name

    @pytest.mark.parametrize("estimator", ALL, ids=lambda e: e.name)
    def test_names_unique_and_stable(self, estimator):
        names = [e.name for e in ALL]
        assert names.count(estimator.name) == 1


class TestDNE:
    def test_linear_pipeline_tracks_driver(self):
        pr = linear_two_node_run()
        est = DNEEstimator().estimate(pr)
        assert np.allclose(est, np.linspace(0, 1, pr.n_observations))

    def test_exactly_driver_fraction(self, pipeline_runs):
        """DNE serves ``PipelineRun.driver_fraction``, which must be the
        bits of the family's ``driver_consumed`` ratio (BATCHDNE and
        DNESEEK widen its mask)."""
        for pr in pipeline_runs:
            want = clip_progress(safe_divide(*driver_consumed(pr)))
            assert (DNEEstimator().estimate(pr).tobytes()
                    == pr.driver_fraction().tobytes() == want.tobytes())

    def test_zero_driver_totals_give_zero(self):
        pr = make_pipeline_run([Op.INDEX_SCAN], np.zeros((3, 1)),
                               drivers=[0], E0=np.array([0.0]),
                               N=np.array([0.0]))
        assert (DNEEstimator().estimate(pr) == 0).all()


class TestTGN:
    def test_exact_estimates_yield_exact_progress(self):
        # E0 == N and uniform K growth -> TGN == true work fraction
        K = np.outer(np.linspace(0, 1, 6), np.array([50.0, 100.0]))
        pr = make_pipeline_run([Op.FILTER, Op.INDEX_SCAN], K,
                               parents=[-1, 1], drivers=[1])
        est = TGNEstimator().estimate(pr)
        assert np.allclose(est, np.linspace(0, 1, 6))

    def test_underestimated_cardinality_inflates_early_progress(self):
        # N = 100 at node 0 but optimizer thought 10 -> TGN runs ahead.
        K = np.outer(np.linspace(0, 1, 6), np.array([100.0, 100.0]))
        pr = make_pipeline_run(
            [Op.FILTER, Op.INDEX_SCAN], K, parents=[-1, 1], drivers=[1],
            E0=np.array([10.0, 100.0]),
            UB=np.full((6, 2), 1e9),
        )
        est = TGNEstimator().estimate(pr)
        truth = np.linspace(0, 1, 6)
        assert (est[1:-1] > truth[1:-1]).all()

    def test_bound_clamping_repairs_estimate(self):
        # Same, but the LB forces E up to the observed K.
        K = np.outer(np.linspace(0, 1, 6), np.array([100.0, 100.0]))
        pr = make_pipeline_run(
            [Op.FILTER, Op.INDEX_SCAN], K, parents=[-1, 1], drivers=[1],
            E0=np.array([10.0, 100.0]),
        )  # default LB = K
        clamped = TGNEstimator().estimate(pr)
        pr_loose = make_pipeline_run(
            [Op.FILTER, Op.INDEX_SCAN], K, parents=[-1, 1], drivers=[1],
            E0=np.array([10.0, 100.0]),
            LB=np.zeros((6, 2)), UB=np.full((6, 2), 1e9),
        )
        unclamped = TGNEstimator().estimate(pr_loose)
        assert (clamped <= unclamped + 1e-12).all()


class TestVariants:
    def test_batchdne_equals_dne_without_batch_sorts(self, pipeline_runs):
        for pr in pipeline_runs:
            if not any(op == Op.BATCH_SORT for op in pr.ops):
                assert np.allclose(BatchDNEEstimator().estimate(pr),
                                   DNEEstimator().estimate(pr))

    def test_dneseek_equals_dne_without_seeks(self, pipeline_runs):
        for pr in pipeline_runs:
            if not any(op == Op.INDEX_SEEK for op in pr.ops):
                assert np.allclose(DNESeekEstimator().estimate(pr),
                                   DNEEstimator().estimate(pr))

    def test_batchdne_lags_dne_when_batch_sort_buffers(self):
        # scan done, batch sort half-emitted: BATCHDNE < DNE
        K = np.array([[0.0, 0.0], [20.0, 80.0], [50.0, 100.0],
                      [100.0, 100.0]])
        pr = make_pipeline_run([Op.BATCH_SORT, Op.INDEX_SCAN], K,
                               parents=[-1, 0], drivers=[1],
                               table_rows=np.array([np.nan, 100.0]))
        batch = BatchDNEEstimator().estimate(pr)
        dne = DNEEstimator().estimate(pr)
        assert (batch <= dne + 1e-12).all()
        assert batch[1] < dne[1]

    def test_tgnint_matches_formula(self, pipeline_runs):
        pr = pipeline_runs[0]
        est = TGNIntEstimator().estimate(pr)
        k_sum = pr.K.sum(axis=1)
        dne = DNEEstimator().estimate(pr)
        expected = np.clip(
            k_sum / np.maximum(k_sum + (1 - dne) * pr.E0.sum(), 1e-12), 0, 1)
        assert np.allclose(est, expected)

    def test_tgnint_converges_to_one(self, pipeline_runs):
        for pr in pipeline_runs:
            est = TGNIntEstimator().estimate(pr)
            assert est[-1] >= 0.99  # DNE -> 1 collapses the denominator


class TestLuo:
    def test_linear_bytes_reach_high_progress(self):
        pr = linear_two_node_run(n_obs=21)
        est = LuoEstimator().estimate(pr)
        assert est[-1] >= 0.9
        assert (np.diff(est) >= -0.2).all()  # roughly increasing

    def test_window_parameter_respected(self, pipeline_runs):
        pr = pipeline_runs[0]
        short = LuoEstimator(speed_window=1e-3).estimate(pr)
        long = LuoEstimator(speed_window=1e9).estimate(pr)
        assert short.shape == long.shape


class TestWorstCase:
    def test_pmax_is_most_pessimistic(self, pipeline_runs):
        """PMAX sits at (or below) the low end of the feasible interval."""
        for pr in pipeline_runs:
            pmax = PMaxEstimator().estimate(pr)
            safe = SafeEstimator().estimate(pr)
            assert (pmax <= safe + 1e-9).all()

    def test_pmax_matches_bound_formula(self, pipeline_runs):
        for pr in pipeline_runs:
            pmax = PMaxEstimator().estimate(pr)
            expected = np.clip(
                pr.K.sum(axis=1) / np.maximum(pr.UB.sum(axis=1), 1e-12), 0, 1)
            assert np.allclose(pmax, expected)

    def test_safe_between_bound_ratios(self, pipeline_runs):
        for pr in pipeline_runs:
            safe = SafeEstimator().estimate(pr)
            k_sum = pr.K.sum(axis=1)
            hi = np.clip(k_sum / np.maximum(pr.LB.sum(axis=1), 1e-12), 0, 1)
            assert (safe <= hi + 1e-9).all()


class TestOracles:
    def test_getnext_oracle_exact_on_uniform_cost(self):
        pr = linear_two_node_run()
        est = GetNextOracle().estimate(pr)
        assert np.allclose(est, np.linspace(0, 1, pr.n_observations))

    def test_getnext_oracle_close_to_truth_on_real_runs(self, pipeline_runs):
        for pr in pipeline_runs:
            err = np.abs(GetNextOracle().estimate(pr) - pr.true_progress())
            assert err.mean() < 0.25

    def test_bytes_oracle_ends_at_one(self, pipeline_runs):
        for pr in pipeline_runs:
            assert BytesProcessedOracle().estimate(pr)[-1] == pytest.approx(1.0)


class TestRefinedTGN:
    def test_registered_as_extension(self):
        assert any(e.name == "tgn_ref" for e in extension_estimators())
        assert estimator_by_name("tgn_ref").name == "tgn_ref"

    def test_bounded_and_causal(self, pipeline_runs):
        est = RefinedTGNEstimator()
        for pr in pipeline_runs:
            values = est.estimate(pr)
            assert ((0 <= values) & (values <= 1)).all()
        pr = pipeline_runs[0]
        cut = pr.n_observations // 2
        assert np.allclose(est.estimate(truncate_run(pr, cut)),
                           est.estimate(pr)[:cut + 1])

    def test_converges_to_completion(self, pipeline_runs):
        est = RefinedTGNEstimator()
        for pr in pipeline_runs:
            assert est.estimate(pr)[-1] >= 0.95
