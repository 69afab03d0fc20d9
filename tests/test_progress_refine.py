"""Tests for the online cardinality-refinement strategies (§3.3)."""

import numpy as np

from repro.plan.nodes import Op
from repro.progress.refine import (
    bounded_estimates,
    interpolated_estimates,
)

from helpers import make_pipeline_run


def staircase_run():
    """Driver consumes linearly; node 0 produces twice the estimate."""
    ramp = np.linspace(0, 100, 11)
    K = np.column_stack([2 * ramp, ramp])  # N0=200 vs E0=100
    return make_pipeline_run(
        [Op.FILTER, Op.INDEX_SCAN], K, parents=[-1, 1], drivers=[1],
        E0=np.array([100.0, 100.0]),
        N=np.array([200.0, 100.0]),
        table_rows=np.array([np.nan, 100.0]),
        LB=K.copy(),
        UB=np.full((11, 2), 1e9),
    )


class TestBoundedEstimates:
    def test_within_bounds(self, pipeline_runs):
        for pr in pipeline_runs:
            est = bounded_estimates(pr)
            assert (est >= pr.LB - 1e-9).all()
            assert (est <= pr.UB + 1e-9).all()

    def test_clamps_to_lower_bound(self):
        pr = staircase_run()
        est = bounded_estimates(pr)
        # Once K0 exceeds E0=100, the estimate must follow LB=K upward.
        late = pr.K[:, 0] > 100
        assert np.allclose(est[late, 0], pr.K[late, 0])

    def test_keeps_estimate_when_inside(self):
        pr = staircase_run()
        est = bounded_estimates(pr)
        early = pr.K[:, 0] < 100
        assert np.allclose(est[early, 0], 100.0)


class TestInterpolatedEstimates:
    def test_converges_to_true_totals(self):
        pr = staircase_run()
        est = interpolated_estimates(pr)
        # At alpha=1 the extrapolation equals the observed totals.
        assert est[-1, 0] == 200.0
        assert est[-1, 1] == 100.0

    def test_starts_at_optimizer_estimate(self):
        pr = staircase_run()
        est = interpolated_estimates(pr)
        assert est[0, 0] == 100.0

    def test_interpolation_moves_monotonically(self):
        pr = staircase_run()
        est = interpolated_estimates(pr)
        # For a constant 2x extrapolation, refined estimate rises toward 200.
        assert (np.diff(est[:, 0]) >= -1e-9).all()

    def test_never_below_observed(self, pipeline_runs):
        for pr in pipeline_runs:
            est = interpolated_estimates(pr)
            assert (est >= pr.K - 1e-9).all()
