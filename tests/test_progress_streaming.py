"""Kernel-vs-batch estimator parity (the online estimation contract).

The contract of :mod:`repro.progress.soa`: for every estimator, its
structure-of-arrays kernel advanced over a completed run's observations
(one slot, ``N`` at the truth) equals the batch ``estimate(pr)``
trajectory *bit-for-bit* — on Hypothesis-generated monotone trajectories
(with and without ``UNBOUNDED`` upper bounds), on executed fixture
pipelines, and on fuzz-seeded ad-hoc workloads (the same property the
fuzz oracle's ``kernel`` layer sweeps at scale).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.counters import UNBOUNDED
from repro.progress.luo import LuoEstimator
from repro.progress.registry import all_estimators
from repro.progress.soa import (
    BatchedLuoState,
    FlushBatch,
    PipelineMeta,
    kernel_estimates,
    window_starts,
)

from helpers import linear_two_node_run
from strategies import random_pipeline

REGISTRY_ESTIMATORS = all_estimators(include_worst_case=True,
                                     include_extensions=True)


def assert_kernels_match_batch(pr, estimators=None):
    for est in estimators or REGISTRY_ESTIMATORS:
        batch = est.estimate(pr)
        kernel = kernel_estimates(est, pr)
        assert kernel.shape == batch.shape, est.name
        assert np.array_equal(batch, kernel), (
            f"{est.name}: max |delta| = "
            f"{np.abs(batch - kernel).max():.3e}")


@st.composite
def pipelines_with_unbounded(draw):
    """Random pipelines whose upper bounds are partly ``UNBOUNDED``."""
    pr = draw(random_pipeline())
    capped = np.array(draw(st.lists(st.booleans(), min_size=pr.n_nodes,
                                    max_size=pr.n_nodes)))
    pr.UB = np.where(capped[None, :], UNBOUNDED, pr.UB)
    return pr


@given(random_pipeline())
@settings(max_examples=50, deadline=None)
def test_streaming_parity_on_random_pipelines(pr):
    """Bit-for-bit parity for every registry estimator on arbitrary
    monotone trajectories."""
    assert_kernels_match_batch(pr)


@given(pipelines_with_unbounded())
@settings(max_examples=30, deadline=None)
def test_streaming_parity_with_unbounded_bounds(pr):
    assert_kernels_match_batch(pr)


def test_streaming_parity_on_executed_pipelines(join_run, scan_run):
    prs = (join_run.pipeline_runs(min_observations=5)
           + scan_run.pipeline_runs(min_observations=5))
    assert prs
    for pr in prs:
        assert_kernels_match_batch(pr)


@pytest.mark.parametrize("seed", [11, 47, 203])
def test_streaming_parity_on_fuzzed_workloads(seed):
    """Fuzz-seeded ad-hoc pipelines (spill-prone knobs included) advance
    to the bit-identical trajectories."""
    from repro.catalog.statistics import build_statistics
    from repro.engine.executor import ExecutorConfig, QueryExecutor
    from repro.fuzz.generate import generate_fuzz_database, generate_fuzz_queries
    from repro.optimizer.planner import Planner

    db, info = generate_fuzz_database(seed, rows=300)
    queries = generate_fuzz_queries(info, 2, seed + 1)
    planner = Planner(db, build_statistics(db))
    scored = 0
    for i, query in enumerate(queries):
        run = QueryExecutor(db, ExecutorConfig(
            batch_size=128, memory_budget_bytes=float(16 << 10),
            target_observations=40, seed=seed * 100 + i,
        )).execute(planner.plan(query), query.name)
        for pr in run.pipeline_runs(min_observations=3):
            assert_kernels_match_batch(pr)
            scored += 1
    assert scored, "fuzz seeds produced no scorable pipelines"


def test_tick_known_totals_matches_batch():
    pr = linear_two_node_run()
    batch = FlushBatch.of_pipeline_runs([pr])
    for row in batch.totals:
        assert np.array_equal(row[:pr.n_nodes], pr.known_totals())


def test_meta_from_pipeline_run_leaves_t_start_to_the_batch():
    pr = linear_two_node_run()
    meta = PipelineMeta.from_pipeline_run(pr)
    assert meta.n_nodes == pr.n_nodes
    # the start time is the execution's, laid out beside the metadata
    assert not hasattr(meta, "t_start")
    batch = FlushBatch.of_pipeline_runs([pr])
    assert (batch.meta_rows("t_start") == pr.t_start).all()


def test_luo_window_starts_stay_within_the_window():
    """Every row's window start is the earliest row within the trailing
    speed window (the row before it lies outside), so a window holds at
    most ``speed_window / spacing + 1`` rows however long the run."""
    window = 5.0
    pr = linear_two_node_run(n_obs=51)  # 2s tick spacing over 100s
    rows = np.arange(pr.n_observations)
    starts = window_starts(pr.times, pr.t_start, 0, rows, window)
    elapsed = pr.times - pr.t_start
    assert (elapsed - elapsed[starts] <= window).all()
    inside = starts > 0
    assert (elapsed[inside] - elapsed[starts[inside] - 1] > window).all()
    assert (rows - starts <= int(window / 2.0)).all()
    est = LuoEstimator(speed_window=window)
    assert np.array_equal(kernel_estimates(est, pr), est.estimate(pr))


@st.composite
def pipelines_with_tied_times(draw):
    """Random pipelines whose times repeat, with a small speed window."""
    pr = draw(random_pipeline())
    # non-dyadic steps and offsets, so elapsed differences round
    gaps = draw(st.lists(st.sampled_from([0.0, 0.0, 0.1, 0.25, 0.3, 1.0]),
                         min_size=pr.n_observations,
                         max_size=pr.n_observations))
    pr.times = pr.t_start + draw(st.sampled_from([0.0, 0.1, 1 / 3])) \
        + np.cumsum(gaps)
    window = draw(st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.6, 1.0, 10.0]))
    return pr, window


@given(pipelines_with_tied_times(), st.data())
@settings(max_examples=80, deadline=None)
def test_luo_kernel_on_row_subsets_matches_estimate(case, data):
    """The LUO kernel over any subset of a pipeline's rows, each paired
    with its window start, equals ``estimate`` at those rows — tied
    times and windows as short as the tick spacing included."""
    pr, window = case
    est = LuoEstimator(speed_window=window)
    n = pr.n_observations
    picked = np.array(sorted(data.draw(st.sets(
        st.integers(0, n - 1), min_size=1, max_size=n))))
    starts = window_starts(pr.times, pr.t_start, 0, picked, window)
    full = FlushBatch.of_pipeline_runs([pr])
    keep = np.r_[picked, starts]
    k = len(picked)
    batch = FlushBatch(
        full.metas, [(0, 2 * k)], full.times[keep], full.K[keep],
        full.W[keep], full.LB[keep], full.UB[keep], full.D[keep],
        full.CK[keep], full.CD[keep],
        np.r_[np.arange(k, 2 * k), np.arange(k, 2 * k)], t_start=[pr.t_start])
    batch._cache["N"] = full.N[keep]
    values = BatchedLuoState(est).advance(batch)[:k]
    assert np.array_equal(values, est.estimate(pr)[picked])


def test_rebuilt_pipeline_run_roundtrips_fields():
    """The one-pipeline reference batch mirrors the run it was built
    from, at the pipeline's own width."""
    pr = linear_two_node_run(n_obs=7)
    batch = FlushBatch.of_pipeline_runs([pr])
    assert batch.width == pr.n_nodes
    assert np.array_equal(batch.times, pr.times)
    for name in ("K", "W", "LB", "UB"):
        assert np.array_equal(getattr(batch, name), getattr(pr, name)), name
    assert np.array_equal(batch.N, np.broadcast_to(pr.N, pr.K.shape))
    meta, = batch.metas
    assert meta.ops == pr.ops
    assert np.array_equal(batch.meta_rows("t_start"),
                          np.full(pr.n_observations, pr.t_start))
    assert np.array_equal(batch.meta_rows("E0"),
                          np.broadcast_to(pr.E0, pr.K.shape))
    assert batch.ranges == [(0, pr.n_observations)]
    rows = np.arange(pr.n_observations)
    assert np.array_equal(batch.window_row, rows)  # no window: themselves
    windowed = FlushBatch.of_pipeline_runs([pr], speed_window=20.0)
    assert np.array_equal(windowed.window_row, window_starts(
        pr.times, pr.t_start, 0, rows, 20.0))


def test_streaming_handles_unbounded_sentinels():
    """Bound-interval estimators advance exactly through UNBOUNDED caps."""
    pr = linear_two_node_run(n_obs=11)
    pr.UB = np.full_like(pr.UB, UNBOUNDED)
    assert_kernels_match_batch(pr)
