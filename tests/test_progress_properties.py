"""Property-based tests: estimators on randomized synthetic trajectories.

Hypothesis generates arbitrary monotone counter trajectories for a small
operator zoo (shared strategies in ``tests/strategies.py``); every
estimator must stay within [0, 1], never produce NaN/inf, and remain
causal.  A second family of properties reads the trajectories as a log's
dense arrays (shaped like :meth:`ObservationLog.as_arrays`) into a
:class:`PipelineRun`, and GetNext-model estimators must be monotone
whenever the counters are.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.plan.nodes import Op
from repro.progress.registry import all_estimators
from repro.query.logical import JOIN_KINDS

from helpers import make_pipeline_run, truncate_run
from strategies import (
    executed_join_run,
    random_observation_log,
    random_pipeline,
)

ESTIMATORS = all_estimators(include_worst_case=True)

#: Estimators whose value is a ratio of monotone GetNext/bound aggregates
#: (the paper's GNM family plus [5]'s bound-interval estimators).  With
#: fixed totals and monotone counters these must be monotone; LUO is
#: excluded by design — it extrapolates from observed *speed*, which can
#: legitimately revise progress downward.
MONOTONE_NAMES = ("dne", "tgn", "batch_dne", "dne_seek", "tgn_int",
                  "pmax", "safe")
MONOTONE_ESTIMATORS = [e for e in ESTIMATORS if e.name in MONOTONE_NAMES]


@given(random_pipeline())
@settings(max_examples=40, deadline=None)
def test_all_estimators_bounded_and_finite(pr):
    for estimator in ESTIMATORS:
        values = estimator.estimate(pr)
        assert values.shape == (pr.n_observations,), estimator.name
        assert np.isfinite(values).all(), estimator.name
        assert ((0.0 <= values) & (values <= 1.0)).all(), estimator.name


@given(random_pipeline(), st.integers(1, 10))
@settings(max_examples=25, deadline=None)
def test_all_estimators_causal(pr, cut_offset):
    cut = min(cut_offset, pr.n_observations - 1)
    prefix_run = truncate_run(pr, cut)
    for estimator in ESTIMATORS:
        full = estimator.estimate(pr)
        prefix = estimator.estimate(prefix_run)
        assert np.allclose(prefix, full[:cut + 1], atol=1e-9), estimator.name


@given(random_pipeline())
@settings(max_examples=25, deadline=None)
def test_driver_fraction_properties(pr):
    fraction = pr.driver_fraction()
    assert ((0.0 <= fraction) & (fraction <= 1.0)).all()
    assert (np.diff(fraction) >= -1e-12).all()


@given(random_pipeline())
@settings(max_examples=40, deadline=None)
def test_getnext_estimators_monotone_under_monotone_counters(pr):
    assert MONOTONE_ESTIMATORS, "estimator registry lost the GNM family"
    for estimator in MONOTONE_ESTIMATORS:
        values = estimator.estimate(pr)
        assert (np.diff(values) >= -1e-9).all(), estimator.name


@given(random_observation_log())
@settings(max_examples=25, deadline=None)
def test_estimators_defined_at_every_log_snapshot(log_and_totals):
    """Every estimator yields a finite [0, 1] value at every snapshot of
    a log's arrays, however ragged the counters and bounds."""
    arrays, totals = log_and_totals
    T = len(arrays["times"])
    for name in ("K", "R", "W", "LB", "UB", "D"):
        assert arrays[name].shape == (T, 2), name
    assert arrays["D"].dtype == bool
    pr = make_pipeline_run([Op.FILTER, Op.INDEX_SCAN], arrays["K"],
                           parents=[-1, 0], drivers=[1],
                           N=np.maximum(totals, arrays["K"][-1]),
                           times=arrays["times"],
                           LB=arrays["LB"], UB=arrays["UB"])
    for estimator in ESTIMATORS:
        values = estimator.estimate(pr)
        assert values.shape == (pr.n_observations,), estimator.name
        assert np.isfinite(values).all(), estimator.name
        assert ((0.0 <= values) & (values <= 1.0)).all(), estimator.name


# -- per-join-kind properties on *real* executions ---------------------------
#
# The strategies above fabricate trajectories; these draw a tiny random
# hash join of each kind (inner / left outer / semi / anti), execute it
# through the real engine and assert the invariants the progress layer
# leans on: the recorded worst-case bounds bracket the true totals at
# every snapshot, every estimator stays defined, the GNM family stays
# monotone, and SAFE stays inside the feasible interval whose low end is
# PMAX.  Real executions are slower than synthetic trajectories, so the
# example budgets are small — the fuzz sweep covers volume.


@pytest.mark.parametrize("kind", JOIN_KINDS)
@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_join_kind_bounds_bracket_true_totals(kind, data):
    run = data.draw(executed_join_run(kind))
    assert run.output_rows >= 0
    assert (run.LB <= run.N[None, :] + 1e-9).all(), kind
    assert (run.UB >= run.N[None, :] - 1e-9).all(), kind


@pytest.mark.parametrize("kind", JOIN_KINDS)
@given(data=st.data())
@settings(max_examples=6, deadline=None)
def test_join_kind_estimators_defined_and_monotone(kind, data):
    run = data.draw(executed_join_run(kind))
    for pr in run.pipeline_runs(min_observations=3):
        for estimator in ESTIMATORS:
            values = estimator.estimate(pr)
            assert np.isfinite(values).all(), (kind, estimator.name)
            assert ((0.0 <= values) & (values <= 1.0)).all(), (
                kind, estimator.name)
        for estimator in MONOTONE_ESTIMATORS:
            values = estimator.estimate(pr)
            assert (np.diff(values) >= -1e-9).all(), (kind, estimator.name)


@pytest.mark.parametrize("kind", JOIN_KINDS)
@given(data=st.data())
@settings(max_examples=6, deadline=None)
def test_join_kind_safe_within_feasible_interval(kind, data):
    """PMAX is the low end of the feasible progress interval and SAFE its
    minimax point: PMAX <= SAFE <= the interval's high end, per snapshot."""
    run = data.draw(executed_join_run(kind))
    pmax = next(e for e in ESTIMATORS if e.name == "pmax")
    safe = next(e for e in ESTIMATORS if e.name == "safe")
    for pr in run.pipeline_runs(min_observations=3):
        lo = pmax.estimate(pr)
        mid = safe.estimate(pr)
        k_sum = pr.K.sum(axis=1)
        lb_sum = np.maximum(pr.LB.sum(axis=1), k_sum)
        hi = np.clip(k_sum / np.maximum(lb_sum, 1e-12), 0.0, 1.0)
        assert (lo <= mid + 1e-9).all(), kind
        assert (mid <= hi + 1e-9).all(), kind
