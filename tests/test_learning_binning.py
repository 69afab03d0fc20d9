"""Tests for quantile pre-binning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.learning.binning import QuantileBinner


class TestQuantileBinner:
    def test_requires_fit(self):
        with pytest.raises(RuntimeError):
            QuantileBinner().transform(np.zeros((2, 2)))

    def test_rejects_bad_bin_count(self):
        with pytest.raises(ValueError):
            QuantileBinner(max_bins=1)
        with pytest.raises(ValueError):
            QuantileBinner(max_bins=300)

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            QuantileBinner().fit(np.zeros(5))

    def test_feature_count_checked(self, rng):
        binner = QuantileBinner().fit(rng.normal(size=(50, 3)))
        with pytest.raises(ValueError):
            binner.transform(rng.normal(size=(5, 4)))

    def test_bins_in_range(self, rng):
        X = rng.normal(size=(500, 4))
        binner = QuantileBinner(max_bins=16)
        Xb = binner.fit_transform(X)
        assert Xb.dtype == np.uint8
        assert Xb.max() < 16

    def test_constant_feature_single_bin(self, rng):
        X = np.column_stack([np.full(100, 3.0), rng.normal(size=100)])
        Xb = QuantileBinner(max_bins=8).fit_transform(X)
        assert len(np.unique(Xb[:, 0])) == 1

    def test_monotone_mapping(self, rng):
        X = rng.normal(size=(300, 1))
        binner = QuantileBinner(max_bins=32).fit(X)
        Xb = binner.transform(X)[:, 0]
        order = np.argsort(X[:, 0])
        assert (np.diff(Xb[order].astype(int)) >= 0).all()

    def test_unseen_values_clamp(self, rng):
        X = rng.uniform(0, 1, size=(100, 1))
        binner = QuantileBinner(max_bins=8).fit(X)
        out = binner.transform(np.array([[-100.0], [100.0]]))
        assert out[0, 0] == 0
        assert out[1, 0] == binner.transform(X).max()

    def test_nan_maps_to_lowest_bin(self, rng):
        X = rng.uniform(0, 1, size=(100, 1))
        binner = QuantileBinner(max_bins=8).fit(X)
        assert binner.transform(np.array([[np.nan]]))[0, 0] == 0

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=200))
    @settings(max_examples=40)
    def test_roundtrip_never_crashes(self, values):
        X = np.asarray(values).reshape(-1, 1)
        binner = QuantileBinner(max_bins=8).fit(X)
        out = binner.transform(X)
        assert out.shape == X.shape
        assert out.max() < binner.total_bins


def searchsorted_reference(binner: QuantileBinner, X: np.ndarray):
    """The per-feature binning ``transform`` replaced: NaN -> -inf, then
    ``searchsorted(side="left")`` against each feature's cuts."""
    out = np.empty(X.shape, dtype=np.uint8)
    for j, cuts in enumerate(binner.edges_):
        column = np.nan_to_num(X[:, j], nan=-np.inf)
        out[:, j] = np.searchsorted(cuts, column, side="left")
    return out


SPECIAL = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1e300, -1e300]


@given(train=st.lists(st.lists(st.one_of(st.floats(-50, 50),
                                         st.sampled_from(SPECIAL)),
                               min_size=3, max_size=3),
                      min_size=1, max_size=80),
       query=st.lists(st.one_of(st.floats(allow_nan=True),
                                st.sampled_from(SPECIAL)),
                      min_size=0, max_size=30),
       max_bins=st.integers(2, 40))
@settings(max_examples=80, deadline=None)
def test_cut_counting_equals_searchsorted(train, query, max_bins):
    X = np.asarray(train, dtype=np.float64)
    binner = QuantileBinner(max_bins).fit(X)
    n = len(query) // 3
    Q = np.vstack([X, np.asarray(query[:3 * n]).reshape(n, 3)])
    got = binner.transform(Q)
    assert got.dtype == np.uint8
    assert np.array_equal(got, searchsorted_reference(binner, Q))


def test_refit_and_assigned_edges_rebuild_the_cut_matrix(rng):
    binner = QuantileBinner(max_bins=8).fit(rng.normal(size=(50, 2)))
    X = rng.normal(scale=3, size=(40, 2))
    binner.fit(rng.uniform(size=(50, 2)))
    assert np.array_equal(binner.transform(X),
                          searchsorted_reference(binner, X))
    binner.edges_ = [np.array([-1.0, 0.5]), np.array([0.0])]
    assert np.array_equal(binner.transform(X),
                          searchsorted_reference(binner, X))
