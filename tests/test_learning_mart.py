"""Tests for the MART gradient-boosting ensemble."""

import numpy as np
import pytest

from repro.learning.mart import BinnedFeatures, MARTParams, MARTRegressor


def toy_problem(rng, n=400, f=8):
    X = rng.normal(size=(n, f))
    y = np.sin(X[:, 0]) + 0.5 * (X[:, 1] > 0) + 0.1 * rng.normal(size=n)
    return X, y


class TestMARTParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            MARTParams(n_trees=0)
        with pytest.raises(ValueError):
            MARTParams(learning_rate=0.0)
        with pytest.raises(ValueError):
            MARTParams(subsample=1.5)

    def test_paper_defaults(self):
        params = MARTParams()
        assert params.n_trees == 200
        assert params.max_leaves == 30


class TestMARTRegressor:
    def test_predict_requires_fit(self, rng):
        with pytest.raises(RuntimeError):
            MARTRegressor().predict(rng.normal(size=(3, 2)))

    def test_empty_training_rejected(self):
        with pytest.raises(ValueError):
            MARTRegressor().fit(np.zeros((0, 2)), np.zeros(0))

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            MARTRegressor().fit(rng.normal(size=(10, 2)), np.zeros(9))

    def test_beats_mean_baseline(self, rng):
        X, y = toy_problem(rng)
        model = MARTRegressor(MARTParams(n_trees=40, max_leaves=8)).fit(X, y)
        rmse = np.sqrt(np.mean((model.predict(X) - y) ** 2))
        baseline = y.std()
        assert rmse < 0.5 * baseline

    def test_training_error_decreases_with_boosting(self, rng):
        X, y = toy_problem(rng)
        model = MARTRegressor(MARTParams(n_trees=60, max_leaves=8)).fit(X, y)
        curve = model.staged_training_error(X, y, every=10)
        rmses = [r for _, r in curve]
        assert rmses[-1] < rmses[0]
        # mostly decreasing
        assert sum(b <= a + 1e-9 for a, b in zip(rmses, rmses[1:])) >= len(rmses) - 2

    def test_deterministic_given_seed(self, rng):
        X, y = toy_problem(rng)
        params = MARTParams(n_trees=15, max_leaves=6, subsample=0.7,
                            random_state=3)
        a = MARTRegressor(params).fit(X, y).predict(X)
        b = MARTRegressor(params).fit(X, y).predict(X)
        assert np.allclose(a, b)

    def test_subsample_still_learns(self, rng):
        X, y = toy_problem(rng)
        model = MARTRegressor(MARTParams(n_trees=60, max_leaves=8,
                                         subsample=0.5)).fit(X, y)
        rmse = np.sqrt(np.mean((model.predict(X) - y) ** 2))
        assert rmse < 0.7 * y.std()

    def test_binned_features_must_match(self, rng):
        X, y = toy_problem(rng, n=60)
        binned = BinnedFeatures.of(X, max_bins=32)
        with pytest.raises(ValueError):
            MARTRegressor(MARTParams(n_trees=2)).fit(X, y, binned)
        with pytest.raises(ValueError):
            MARTRegressor(MARTParams(n_trees=2, max_bins=32)).fit(
                X[:, :4], y, binned)

    def test_fit_seconds_recorded(self, rng):
        X, y = toy_problem(rng, n=100)
        model = MARTRegressor(MARTParams(n_trees=5, max_leaves=4)).fit(X, y)
        assert model.fit_seconds_ > 0

    def test_generalizes_to_holdout(self, rng):
        X, y = toy_problem(rng, n=800)
        Xt, yt = toy_problem(rng, n=200)
        model = MARTRegressor(MARTParams(n_trees=80, max_leaves=10)).fit(X, y)
        rmse = np.sqrt(np.mean((model.predict(Xt) - yt) ** 2))
        assert rmse < 0.7 * yt.std()

    def test_single_feature(self, rng):
        X = rng.uniform(-2, 2, size=(300, 1))
        y = X[:, 0] ** 2
        model = MARTRegressor(MARTParams(n_trees=50, max_leaves=8)).fit(X, y)
        assert np.mean(np.abs(model.predict(X) - y)) < 0.3
