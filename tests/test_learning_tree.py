"""Tests for the best-first regression tree."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.learning.tree as tree_module
from repro.core.training import (
    collect_training_data,
    runs_to_pipelines,
    train_selector,
)
from repro.features.vector import FeatureExtractor
from repro.learning.binning import QuantileBinner
from repro.learning.mart import MARTParams, MARTRegressor
from repro.learning.serialize import mart_to_dict, selector_to_dict
from repro.learning.tree import (
    RegressionTree,
    TreeParams,
    _best_split,
    _histograms,
    offset_matrix,
)
from repro.progress.registry import all_estimators
from repro.trace import read_trace

from golden.regenerate import FAMILIES, GOLDEN_DIR, SELECTOR_PARAMS


def binned(X, max_bins=32):
    binner = QuantileBinner(max_bins).fit(X)
    return binner.transform(X), binner.total_bins


class TestTreeParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            TreeParams(max_leaves=1)
        with pytest.raises(ValueError):
            TreeParams(min_samples_leaf=0)


class TestRegressionTree:
    def test_predict_requires_fit(self):
        with pytest.raises(RuntimeError):
            RegressionTree().predict_binned(np.zeros((2, 2), dtype=np.uint8))

    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError):
            RegressionTree().fit(np.zeros((0, 2), dtype=np.uint8),
                                 np.zeros(0), 8)

    def test_constant_target_single_leaf(self, rng):
        X = rng.normal(size=(100, 3))
        Xb, n_bins = binned(X)
        tree = RegressionTree().fit(Xb, np.full(100, 5.0), n_bins)
        assert tree.n_leaves == 1
        assert np.allclose(tree.predict_binned(Xb), 5.0)

    def test_perfect_binary_split(self, rng):
        X = rng.normal(size=(200, 2))
        y = np.where(X[:, 0] > 0, 10.0, -10.0)
        Xb, n_bins = binned(X)
        tree = RegressionTree(TreeParams(max_leaves=2, min_samples_leaf=1))
        tree.fit(Xb, y, n_bins)
        pred = tree.predict_binned(Xb)
        assert np.abs(pred - y).mean() < 1.0

    def test_leaf_budget_respected(self, rng):
        X = rng.normal(size=(500, 5))
        y = rng.normal(size=500)
        Xb, n_bins = binned(X)
        for budget in (2, 5, 30):
            tree = RegressionTree(TreeParams(max_leaves=budget,
                                             min_samples_leaf=1))
            tree.fit(Xb, y, n_bins)
            assert 1 <= tree.n_leaves <= budget

    def test_min_samples_leaf_respected(self, rng):
        X = rng.normal(size=(100, 2))
        y = rng.normal(size=100)
        Xb, n_bins = binned(X)
        tree = RegressionTree(TreeParams(max_leaves=30, min_samples_leaf=20))
        tree.fit(Xb, y, n_bins)
        # Count samples per leaf via prediction grouping.
        pred = tree.predict_binned(Xb)
        _, counts = np.unique(pred, return_counts=True)
        assert counts.min() >= 20

    def test_more_leaves_never_hurt_training_error(self, rng):
        X = rng.normal(size=(400, 4))
        y = np.sin(X[:, 0] * 2) + 0.5 * X[:, 1]
        Xb, n_bins = binned(X)
        errors = []
        for leaves in (2, 8, 30):
            tree = RegressionTree(TreeParams(max_leaves=leaves,
                                             min_samples_leaf=2))
            tree.fit(Xb, y, n_bins)
            errors.append(np.mean((tree.predict_binned(Xb) - y) ** 2))
        assert errors[0] >= errors[1] >= errors[2]

    def test_prediction_is_leaf_mean(self, rng):
        X = rng.normal(size=(200, 2))
        y = rng.normal(size=200)
        Xb, n_bins = binned(X)
        tree = RegressionTree(TreeParams(max_leaves=4, min_samples_leaf=5))
        tree.fit(Xb, y, n_bins)
        pred = tree.predict_binned(Xb)
        for value in np.unique(pred):
            group = pred == value
            assert y[group].mean() == pytest.approx(value)

    def test_unseen_bins_route_somewhere(self, rng):
        X = rng.uniform(0, 1, size=(100, 2))
        y = X[:, 0]
        Xb, n_bins = binned(X)
        tree = RegressionTree().fit(Xb, y, n_bins)
        extreme = np.full((3, 2), n_bins - 1, dtype=np.uint8)
        assert tree.predict_binned(extreme).shape == (3,)


def dense_best_split(counts, sums, min_leaf):
    """The whole-grid split search the valid-threshold one replaced: the
    oracle its (gain, feature, bin) must equal bit for bit."""
    total_cnt = counts[0].sum()
    total_sum = sums[0].sum()
    cum_cnt = np.cumsum(counts, axis=1)[:, :-1]
    cum_sum = np.cumsum(sums, axis=1)[:, :-1]
    right_cnt = total_cnt - cum_cnt
    right_sum = total_sum - cum_sum
    valid = (cum_cnt >= min_leaf) & (right_cnt >= min_leaf)
    if not valid.any():
        return -1.0, -1, -1
    eps = tree_module._EPS
    base = total_sum * total_sum / max(total_cnt, eps)
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = (cum_sum ** 2 / np.maximum(cum_cnt, eps)
                + right_sum ** 2 / np.maximum(right_cnt, eps) - base)
    gain = np.where(valid, gain, -np.inf)
    flat_best = int(np.argmax(gain))
    feature, bin_idx = divmod(flat_best, gain.shape[1])
    return float(gain[feature, bin_idx]), feature, bin_idx


def node_histograms(seed, n_rows, n_features, n_bins, spread, duplicates,
                    target, sibling):
    """A node's histograms as the tree builds them.

    Each feature's bins fill a random band of at most ``spread`` bins
    (one bin: a constant feature), ``duplicates`` features copy another
    one (exact gain ties), and ``sibling`` rows are split off and
    subtracted, as the larger child's histograms are derived.
    """
    rng = np.random.default_rng(seed)
    low = rng.integers(0, n_bins, n_features)
    width = rng.integers(1, spread + 1, n_features)
    high = np.minimum(low + width, n_bins)
    Xb = (low + rng.random((n_rows + sibling, n_features))
          * (high - low)).astype(np.uint8)
    for j in rng.choice(n_features, min(duplicates, n_features),
                        replace=False):
        Xb[:, j] = Xb[:, rng.integers(n_features)]
    if target == "normal":
        y = rng.normal(scale=10.0 ** rng.integers(-3, 4),
                       size=len(Xb))
    elif target == "levels":
        y = rng.integers(-2, 3, len(Xb)).astype(np.float64)
    else:
        y = np.full(len(Xb), 0.25)
    Xb_off = offset_matrix(Xb, n_bins)
    counts, sums = _histograms(Xb_off, y, np.arange(len(Xb)), n_bins)
    if sibling:
        sib_counts, sib_sums = _histograms(
            Xb_off, y, np.arange(n_rows, len(Xb)), n_bins)
        counts, sums = counts - sib_counts, sums - sib_sums
    return counts, sums


@given(seed=st.integers(0, 2 ** 32 - 1), n_rows=st.integers(1, 160),
       n_features=st.integers(1, 210), n_bins=st.integers(2, 64),
       spread=st.integers(1, 64), duplicates=st.integers(0, 40),
       target=st.sampled_from(["normal", "normal", "levels", "constant"]),
       sibling=st.sampled_from([0, 0, 1, 7, 60]),
       min_leaf=st.integers(1, 20))
# a node smaller than 2 * min_leaf
@example(seed=1, n_rows=9, n_features=30, n_bins=16, spread=16,
         duplicates=0, target="normal", sibling=0, min_leaf=5)
# every feature constant: no valid threshold at all
@example(seed=2, n_rows=120, n_features=50, n_bins=32, spread=1,
         duplicates=0, target="normal", sibling=60, min_leaf=1)
# every feature overwritten by a copy of another: exact gain ties
@example(seed=3, n_rows=100, n_features=12, n_bins=20, spread=20,
         duplicates=12, target="levels", sibling=7, min_leaf=2)
@settings(max_examples=400, deadline=None)
def test_split_search_equals_dense_oracle(seed, n_rows, n_features, n_bins,
                                          spread, duplicates, target,
                                          sibling, min_leaf):
    counts, sums = node_histograms(seed, n_rows, n_features, n_bins,
                                   min(spread, n_bins), duplicates, target,
                                   sibling)
    gain, feature, bin_idx = _best_split(counts, sums, min_leaf)
    want_gain, want_feature, want_bin = dense_best_split(counts, sums,
                                                         min_leaf)
    assert (feature, bin_idx) == (want_feature, want_bin)
    assert float.hex(gain) == float.hex(want_gain)


def golden_training_data(mode):
    """Per golden family, its pipelines' training data for ``mode``."""
    out = {}
    for family in FAMILIES:
        runs, manifest = read_trace(GOLDEN_DIR / family)
        pipelines = runs_to_pipelines(
            runs, min_observations=manifest["meta"]["min_observations"])
        out[family] = collect_training_data(pipelines, all_estimators(),
                                            FeatureExtractor(mode))
    return out


def fitted_with_oracle(monkeypatch, fit):
    """``fit()`` as JSON bytes, with the tree module's split search and
    then with the dense oracle in its place."""
    fitted = json.dumps(fit())
    with monkeypatch.context() as patched:
        patched.setattr(tree_module, "_best_split", dense_best_split)
        oracle = json.dumps(fit())
    return fitted, oracle


class TestFitParity:
    """Whole fits with the valid-threshold split search serialize to the
    bytes the dense search gives."""

    @pytest.mark.parametrize("mode", ["static", "dynamic"])
    def test_golden_selectors(self, mode, monkeypatch):
        for family, data in golden_training_data(mode).items():
            fitted, oracle = fitted_with_oracle(
                monkeypatch,
                lambda: selector_to_dict(train_selector(data,
                                                        SELECTOR_PARAMS)))
            assert fitted == oracle, family

    @pytest.mark.parametrize("n_rows,n_features,spread", [
        (3_000, 200, 64),   # dense: nearly every threshold is valid
        (121, 202, 6),      # serving-shaped: few rows, narrow features
    ])
    def test_mart_regressor(self, n_rows, n_features, spread, monkeypatch,
                            rng_factory):
        rng = rng_factory(n_rows)
        X = np.floor(rng.random((n_rows, n_features))
                     * rng.integers(1, spread + 1, n_features))
        y = np.sin(X[:, 0]) + X[:, 1] * X[:, 2] + rng.normal(size=n_rows)
        params = MARTParams(n_trees=3)
        fitted, oracle = fitted_with_oracle(
            monkeypatch,
            lambda: mart_to_dict(MARTRegressor(params).fit(X, y)))
        assert fitted == oracle
