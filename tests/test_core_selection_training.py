"""Tests for the estimator-selection core: selector, training data."""

import json

import numpy as np
import pytest

from repro.core.selection import EstimatorSelector
from repro.core.training import (
    TrainingData,
    collect_training_data,
    runs_to_pipelines,
    train_selector,
)
from repro.features.vector import FeatureExtractor
from repro.learning.mart import MARTParams, MARTRegressor
from repro.learning.serialize import mart_to_dict
from repro.progress.registry import all_estimators

FAST_MART = MARTParams(n_trees=10, max_leaves=4)


def synthetic_training_data(rng, n=200):
    """Errors are a learnable function of the features."""
    X = rng.uniform(0, 1, size=(n, 5))
    errors = np.column_stack([
        0.05 + 0.4 * X[:, 0],          # estimator A bad when x0 high
        0.05 + 0.4 * (1 - X[:, 0]),    # estimator B bad when x0 low
        np.full(n, 0.30),              # estimator C mediocre always
    ])
    return TrainingData(
        X=X, errors_l1=errors, errors_l2=errors * 1.2,
        feature_names=[f"f{i}" for i in range(5)],
        estimator_names=["a", "b", "c"],
        meta=[{"query": f"q{i}", "db": "syn", "pid": 0,
               "duration": 1.0, "total_getnext": float(i)} for i in range(n)],
    )


class TestEstimatorSelector:
    def test_requires_estimators(self):
        with pytest.raises(ValueError):
            EstimatorSelector([])

    def test_fit_validates_shapes(self, rng):
        selector = EstimatorSelector(["a", "b"], FAST_MART)
        with pytest.raises(ValueError):
            selector.fit(rng.normal(size=(10, 3)), rng.normal(size=(10, 3)))

    def test_predict_requires_fit(self, rng):
        with pytest.raises(RuntimeError):
            EstimatorSelector(["a"], FAST_MART).predict_errors(
                rng.normal(size=(2, 3)))

    def test_learns_feature_dependent_choice(self, rng):
        data = synthetic_training_data(rng)
        selector = EstimatorSelector(data.estimator_names, FAST_MART)
        selector.fit(data.X, data.errors_l1)
        X_low = np.array([[0.05, 0.5, 0.5, 0.5, 0.5]])
        X_high = np.array([[0.95, 0.5, 0.5, 0.5, 0.5]])
        assert selector.select(X_low) == ["a"]
        assert selector.select(X_high) == ["b"]

    def test_select_one(self, rng):
        data = synthetic_training_data(rng)
        selector = EstimatorSelector(data.estimator_names, FAST_MART)
        selector.fit(data.X, data.errors_l1)
        assert selector.select_one(np.array([0.0, 0, 0, 0, 0])) == "a"

    def test_training_time_recorded(self, rng):
        data = synthetic_training_data(rng, n=60)
        selector = EstimatorSelector(data.estimator_names, FAST_MART)
        selector.fit(data.X, data.errors_l1)
        assert selector.training_seconds_ > 0
        assert selector.training_seconds_ == sum(
            model.fit_seconds_ for model in selector.models.values())

    def test_candidates_share_one_binning(self, rng):
        """One binning serves every candidate, and each model's bytes are
        those of fitting it alone."""
        data = synthetic_training_data(rng, n=80)
        selector = EstimatorSelector(data.estimator_names, FAST_MART)
        selector.fit(data.X, data.errors_l1)
        binners = {id(model.binner) for model in selector.models.values()}
        assert len(binners) == 1
        for j, name in enumerate(data.estimator_names):
            alone = MARTRegressor(FAST_MART).fit(data.X, data.errors_l1[:, j])
            assert (json.dumps(mart_to_dict(selector.models[name]))
                    == json.dumps(mart_to_dict(alone)))


class TestTrainingData:
    def test_subset_by_mask(self, rng):
        data = synthetic_training_data(rng, n=50)
        mask = np.zeros(50, dtype=bool)
        mask[:10] = True
        sub = data.subset(mask)
        assert sub.n_examples == 10
        assert len(sub.meta) == 10

    def test_subset_by_indices(self, rng):
        data = synthetic_training_data(rng, n=50)
        sub = data.subset(np.array([1, 3, 5]))
        assert sub.n_examples == 3
        assert sub.meta[0]["query"] == "q1"

    def test_concat(self, rng):
        a = synthetic_training_data(rng, n=20)
        b = synthetic_training_data(rng, n=30)
        merged = TrainingData.concat([a, b])
        assert merged.n_examples == 50

    def test_concat_rejects_mismatched_layouts(self, rng):
        a = synthetic_training_data(rng, n=10)
        b = synthetic_training_data(rng, n=10)
        b.estimator_names = ["x", "y", "z"]
        with pytest.raises(ValueError):
            TrainingData.concat([a, b])

    def test_concat_empty_rejected(self):
        with pytest.raises(ValueError):
            TrainingData.concat([])

    def test_restrict_estimators(self, rng):
        data = synthetic_training_data(rng, n=10)
        sub = data.restrict_estimators(["c", "a"])
        assert sub.estimator_names == ["c", "a"]
        assert np.allclose(sub.errors_l1[:, 1], data.errors_l1[:, 0])


class TestCollection:
    def test_collect_training_data(self, pipeline_runs):
        estimators = all_estimators()
        extractor = FeatureExtractor("dynamic")
        data = collect_training_data(pipeline_runs, estimators, extractor)
        assert data.n_examples == len(pipeline_runs)
        assert data.X.shape[1] == extractor.n_features
        assert data.errors_l1.shape == (len(pipeline_runs), len(estimators))
        assert (data.errors_l1 >= 0).all()
        assert (data.errors_l2 >= data.errors_l1 - 1e-9).all()

    def test_meta_provenance(self, pipeline_runs):
        estimators = all_estimators()
        extractor = FeatureExtractor("static")
        data = collect_training_data(pipeline_runs, estimators, extractor)
        for row in data.meta:
            assert row["db"] and row["query"]
            assert row["total_getnext"] > 0

    def test_runs_to_pipelines(self, join_run, scan_run):
        pipelines = runs_to_pipelines([join_run, scan_run],
                                      min_observations=5)
        assert len(pipelines) >= 2

    def test_train_selector_round_trip(self, pipeline_runs):
        estimators = all_estimators()
        extractor = FeatureExtractor("static")
        data = collect_training_data(pipeline_runs, estimators, extractor)
        selector = train_selector(data, FAST_MART)
        chosen = selector.select(data.X)
        assert len(chosen) == data.n_examples
        assert set(chosen) <= set(data.estimator_names)

    def test_train_selector_metric_validation(self, rng):
        data = synthetic_training_data(rng, n=20)
        with pytest.raises(ValueError):
            train_selector(data, FAST_MART, metric="l7")
