"""The packed forest against the per-tree loop it replaces.

``EstimatorSelector.predict_errors`` and ``MARTRegressor.predict`` score
through :class:`repro.learning.forest.PackedForest`.  The reference here
is the loop they used to run: each model's binner, then
``init_ + sum(learning_rate * tree.predict_binned(Xb))`` in tree order.
Every comparison is bit for bit.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.selection import EstimatorSelector
from repro.learning.forest import PackedForest
from repro.learning.mart import MARTParams, MARTRegressor
from repro.learning.serialize import (
    mart_to_dict,
    selector_from_dict,
    selector_to_dict,
)

NAMES = ["a", "b", "c"]
SPECIAL = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1e300, -1e300]


def reference_predict(model: MARTRegressor, X: np.ndarray) -> np.ndarray:
    Xb = model.binner.transform(np.asarray(X, dtype=np.float64))
    out = np.full(len(Xb), model.init_)
    for tree in model.trees:
        out += model.params.learning_rate * tree.predict_binned(Xb)
    return out


def reference_errors(selector: EstimatorSelector, X: np.ndarray):
    X = np.asarray(X, dtype=np.float64)
    return np.column_stack([reference_predict(selector.models[name], X)
                            for name in selector.estimator_names]
                           ).reshape(len(X), selector.n_estimators)


def assert_bit_identical(got: np.ndarray, expected: np.ndarray) -> None:
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)
    assert got.tobytes() == expected.tobytes()


def fit_selector(seed: int, n_rows: int, n_features: int,
                 params: MARTParams) -> tuple[EstimatorSelector, np.ndarray]:
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_rows, n_features))
    X[rng.random(X.shape) < 0.05] = np.nan
    seen = np.nan_to_num(X)
    errors = np.column_stack([
        np.abs(seen[:, 0]) + rng.normal(scale=0.1, size=n_rows),
        (seen[:, -1] > 0).astype(float),
        np.full(n_rows, 0.25),  # constant: every tree is a single leaf
    ])
    return EstimatorSelector(NAMES, params).fit(X, errors), X


@st.composite
def fitted_selectors(draw):
    params = MARTParams(
        n_trees=draw(st.integers(1, 6)),
        learning_rate=draw(st.sampled_from([0.1, 0.3, 1.0])),
        max_leaves=draw(st.integers(2, 8)),
        min_samples_leaf=draw(st.integers(1, 40)),  # big: single leaves
        subsample=draw(st.sampled_from([0.5, 0.8, 1.0])),
        max_bins=draw(st.integers(2, 16)),
        random_state=draw(st.integers(0, 3)))
    return fit_selector(draw(st.integers(0, 2**16)),
                        draw(st.integers(12, 60)),
                        draw(st.integers(1, 3)), params)


@st.composite
def query_rows(draw, train: np.ndarray):
    """0-5 rows mixing NaN, +-inf, values beyond the outermost cuts and
    the training values themselves (which sit on the cuts)."""
    n_rows = draw(st.integers(0, 5))
    values = st.one_of(st.floats(-1e3, 1e3),
                       st.sampled_from(SPECIAL),
                       st.sampled_from(train.ravel().tolist()))
    cells = draw(st.lists(values, min_size=n_rows * train.shape[1],
                          max_size=n_rows * train.shape[1]))
    return np.asarray(cells, dtype=np.float64).reshape(n_rows,
                                                       train.shape[1])


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_packed_forest_matches_the_per_tree_loop(data):
    selector, train = data.draw(fitted_selectors())
    X = data.draw(query_rows(train))
    expected = reference_errors(selector, X)
    assert_bit_identical(selector.predict_errors(X), expected)
    for j, name in enumerate(NAMES):
        assert_bit_identical(selector.models[name].predict(X), expected[:, j])
    clone = selector_from_dict(json.loads(json.dumps(
        selector_to_dict(selector))))
    assert_bit_identical(clone.predict_errors(X), expected)


def test_training_rows_and_batches_match():
    params = MARTParams(n_trees=40, max_leaves=30, subsample=0.8)
    selector, X = fit_selector(7, 400, 6, params)
    assert_bit_identical(selector.predict_errors(X),
                         reference_errors(selector, X))
    for rows in (0, 1, 60):
        assert_bit_identical(selector.predict_errors(X[:rows]),
                             reference_errors(selector, X[:rows]))


def test_large_batches_are_scored_in_blocks_without_changing_a_bit():
    params = MARTParams(n_trees=30, max_leaves=12)
    selector, X = fit_selector(3, 300, 4, params)
    rows = np.vstack([X] * 20)  # 6000 rows: several descent blocks
    assert_bit_identical(selector.predict_errors(rows),
                         reference_errors(selector, rows))


def test_models_with_different_edges_and_tree_counts():
    """A hand-edited selector whose models were fitted on different data
    (so their bin edges differ) and with different tree counts."""
    first, X1 = fit_selector(1, 80, 3, MARTParams(n_trees=5, max_leaves=6))
    second, X2 = fit_selector(2, 50, 3, MARTParams(n_trees=9, max_leaves=3,
                                                   max_bins=8))
    payload = selector_to_dict(first)
    payload["models"]["b"] = mart_to_dict(second.models["b"])
    mixed = selector_from_dict(json.loads(json.dumps(payload)))
    forest = PackedForest([mixed.models[name] for name in NAMES])
    assert len(forest._binners) == 2  # binned once per distinct edge set
    X = np.vstack([X1[:10], X2[:10], [[np.nan, np.inf, -np.inf]]])
    expected = reference_errors(mixed, X)
    assert_bit_identical(mixed.predict_errors(X), expected)
    assert_bit_identical(forest.predict(X), expected)


def test_reassigning_models_repacks():
    selector, X = fit_selector(5, 60, 2, MARTParams(n_trees=3, max_leaves=4))
    other, _ = fit_selector(6, 60, 2, MARTParams(n_trees=4, max_leaves=5))
    before = selector.predict_errors(X)
    selector.models = other.models
    assert_bit_identical(selector.predict_errors(X),
                         reference_errors(other, X))
    assert not np.array_equal(selector.predict_errors(X), before)


def test_unfitted_selector_and_empty_forest_rejected():
    with pytest.raises(RuntimeError):
        EstimatorSelector(NAMES).predict_errors(np.zeros((1, 2)))
    with pytest.raises(ValueError):
        PackedForest([])
    with pytest.raises(RuntimeError):
        PackedForest([MARTRegressor()])
