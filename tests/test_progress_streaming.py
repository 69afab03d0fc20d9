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
from repro.progress.gold import BytesProcessedOracle, GetNextOracle
from repro.progress.luo import LuoEstimator, bytes_done
from repro.progress.registry import all_estimators
from repro.progress.soa import (
    BatchedLuoState,
    FlushBatch,
    PipelineMeta,
    batched_states,
    kernel_estimates,
)

from helpers import linear_two_node_run, truncate_run
from strategies import random_pipeline

REGISTRY_ESTIMATORS = all_estimators(include_worst_case=True,
                                     include_extensions=True)
GOLD_ESTIMATORS = [GetNextOracle(), BytesProcessedOracle()]


def assert_kernels_match_batch(pr, estimators=None):
    for est in estimators or REGISTRY_ESTIMATORS + GOLD_ESTIMATORS:
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
    """Bit-for-bit parity for every registry estimator (plus the §6.7
    oracles) on arbitrary monotone trajectories."""
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
    batch = FlushBatch.of_pipeline_run(pr)
    for row in batch.totals:
        assert np.array_equal(row[:pr.n_nodes], pr.known_totals())


def test_meta_from_pipeline_run_carries_oracle_bytes():
    pr = linear_two_node_run()
    meta = PipelineMeta.from_pipeline_run(pr)
    assert meta.oracle_bytes_total == float(bytes_done(pr)[-1])
    assert meta.n_nodes == pr.n_nodes
    assert meta.t_start == pr.t_start


def test_bytes_oracle_without_recorded_total_is_causal():
    """Monitored live (no oracle total) the bytes model equals its batch
    value on each causal prefix: bytes so far over bytes so far."""
    pr = linear_two_node_run()
    est = BytesProcessedOracle()
    batch = FlushBatch.of_pipeline_run(pr)
    batch.pool.has_oracle[:] = False
    values = batched_states({est.name: est}, batch.pool)[est.name].advance(
        batch)
    for t, value in enumerate(values):
        assert value == est.estimate(truncate_run(pr, t))[-1]
        assert value == (1.0 if t > 0 else 0.0)


def test_luo_window_state_is_bounded_and_stateful():
    est = LuoEstimator(speed_window=5.0)
    pr = linear_two_node_run(n_obs=51)  # 2s tick spacing over 100s
    batch = FlushBatch.of_pipeline_run(pr)
    state = BatchedLuoState(est, batch.pool)
    assert state.stateful
    state.pack(0)
    assert np.array_equal(state.advance(batch), est.estimate(pr))
    # entries stay within the trailing speed window (+1 boundary row), and
    # compaction keeps the ring far narrower than the run
    assert state.count[0] <= int(5.0 / 2.0) + 2
    assert state.ew.shape[1] < pr.n_observations


def test_rebuilt_pipeline_run_roundtrips_fields():
    """The one-slot reference batch mirrors the run it was built from."""
    pr = linear_two_node_run(n_obs=7)
    batch = FlushBatch.of_pipeline_run(pr)
    m = pr.n_nodes
    assert np.array_equal(batch.times, pr.times)
    for name in ("K", "W", "LB", "UB"):
        assert np.array_equal(getattr(batch, name)[:, :m],
                              getattr(pr, name)), name
        assert not getattr(batch, name)[:, m:].any(), name
    assert np.array_equal(batch.N[:, :m], np.broadcast_to(pr.N, pr.K.shape))
    meta = batch.pool.metas[0]
    assert meta.ops == pr.ops and meta.t_start == pr.t_start
    assert np.array_equal(batch.meta_rows("E0")[:, :m],
                          np.broadcast_to(pr.E0, pr.K.shape))
    assert batch.slot_rows == {0: (0, pr.n_observations)}
    assert [list(o) for o in batch.ordinals] == [
        [t] for t in range(pr.n_observations)]


def test_streaming_handles_unbounded_sentinels():
    """Bound-interval estimators advance exactly through UNBOUNDED caps."""
    pr = linear_two_node_run(n_obs=11)
    pr.UB = np.full_like(pr.UB, UNBOUNDED)
    assert_kernels_match_batch(pr)
