"""SoA batch kernels vs the batch ``estimate`` (bit parity).

:mod:`repro.progress.soa` lays the online estimator state of many
pipelines out as structure-of-arrays batches; the contract is that
``advance`` over a multi-slot :class:`FlushBatch` reproduces each
pipeline's ``estimator.estimate(pr)`` trajectory *bit-for-bit* —
including zero-padded mixed-width flushes, rows long enough to hit
numpy's pairwise-sum unrolling, the stateful LUO ring (pops, compaction)
and the pool's slot recycling.  The end-to-end report-stream parity of
the service built on these kernels is gated separately by
tests/test_service.py and the fuzz oracle's ``kernel`` and ``service``
layers; this module pins the kernels in isolation.
"""

import numpy as np
from hypothesis import given, settings

import pytest

from repro.engine.run import PipelineRun
from repro.plan.nodes import Op
from repro.progress.base import clip_progress, driver_consumed, safe_divide
from repro.progress.batchdne import BatchDNEEstimator
from repro.progress.dne import DNEEstimator
from repro.progress.dneseek import DNESeekEstimator
from repro.progress.gold import BytesProcessedOracle, GetNextOracle
from repro.progress.luo import LuoEstimator, bytes_done
from repro.progress.refined_tgn import RefinedTGNEstimator
from repro.progress.safe_pmax import PMaxEstimator, SafeEstimator
from repro.progress.soa import (
    _PAIRWISE_UNROLL,
    BatchedLuoState,
    FlushBatch,
    PipelineMeta,
    SoAPool,
    batched_states,
)
from repro.progress.tgn import TGNEstimator
from repro.progress.tgnint import TGNIntEstimator

from helpers import linear_two_node_run, make_pipeline_run
from strategies import random_pipeline

NATIVE_ESTIMATORS = [
    DNEEstimator(), BatchDNEEstimator(), DNESeekEstimator(),
    TGNEstimator(), TGNIntEstimator(), RefinedTGNEstimator(),
    PMaxEstimator(), SafeEstimator(),
    GetNextOracle(), BytesProcessedOracle(), LuoEstimator(),
]


def batch_from_runs(pool, prs, metas=None, true_n=True):
    """Pack completed pipeline runs and lay their ticks out as one flush.

    Mirrors the service's ``_gather``: rows grouped per slot in tick
    order, zero-padded to the pool width, per-node done flags raised
    where the counter has reached the (known) final value.  ``true_n``
    fixes every row's ``N`` at the run's true totals, the view
    ``estimate(pr)`` has of a completed run; otherwise ``N`` follows the
    live rule from the done flags.
    """
    metas = metas or [PipelineMeta.from_pipeline_run(pr) for pr in prs]
    slots = [pool.pack(meta) for meta in metas]
    total = sum(pr.n_observations for pr in prs)
    w = pool.width
    times = np.zeros(total)
    arrays = {n: np.zeros((total, w)) for n in ("K", "W", "LB", "UB")}
    D = np.zeros((total, w), dtype=bool)
    CK = np.zeros((total, w))
    CD = np.zeros((total, w), dtype=bool)
    slot_rows, lo = {}, 0
    for pr, slot in zip(prs, slots):
        T, m = pr.K.shape
        hi = lo + T
        times[lo:hi] = pr.times
        for name in arrays:
            arrays[name][lo:hi, :m] = getattr(pr, name)
        D[lo:hi, :m] = pr.K >= pr.N[None, :]
        slot_rows[slot] = (lo, hi)
        lo = hi
    depth = max(pr.n_observations for pr in prs)
    ordinals = [np.array([slot_rows[s][0] + t for pr, s in zip(prs, slots)
                          if t < pr.n_observations], dtype=np.int64)
                for t in range(depth)]
    batch = FlushBatch(pool, np.repeat(slots, [pr.n_observations
                                               for pr in prs]),
                       times, arrays["K"], arrays["W"], arrays["LB"],
                       arrays["UB"], D, CK, CD, slot_rows, ordinals)
    if true_n:
        N = np.zeros((total, w))
        for pr, slot in zip(prs, slots):
            lo, hi = slot_rows[slot]
            N[lo:hi, :pr.n_nodes] = pr.N
        batch._cache["N"] = N
    return batch, slots, metas


def assert_kernels_match(prs, estimators=None):
    pool = SoAPool()
    batch, slots, _ = batch_from_runs(pool, prs)
    for est in estimators or NATIVE_ESTIMATORS:
        st = batched_states({est.name: est}, pool)[est.name]
        for slot in slots:
            st.pack(slot)
        vector = st.advance(batch)
        for pr, slot in zip(prs, slots):
            lo, hi = batch.slot_rows[slot]
            want = est.estimate(pr)
            assert np.array_equal(vector[lo:hi], want), (
                f"{est.name}: max |delta| = "
                f"{np.abs(vector[lo:hi] - want).max():.3e}")


def log_row(pr, t):
    """Observation ``t`` of ``pr`` as full-width log-row ``(K, D)``
    vectors (node ids are the local columns), done flags by the live
    rule."""
    return pr.K[t], pr.K[t] >= pr.N


def test_kernels_match_scalar_on_executed_pipelines(join_run, scan_run):
    prs = (join_run.pipeline_runs(min_observations=5)
           + scan_run.pipeline_runs(min_observations=5))
    assert prs
    assert_kernels_match(prs)


def test_kernels_match_scalar_on_synthetic_chain():
    assert_kernels_match([linear_two_node_run(n_obs=21)])


def test_kernels_match_scalar_past_pairwise_unroll():
    """Rows whose selection reaches numpy's pairwise-sum threshold go
    through the compacted-re-sum fixup and still match bitwise."""
    m = _PAIRWISE_UNROLL + 3
    T = 13
    rng = np.random.default_rng(7)
    K = np.cumsum(rng.uniform(0.0, 9.0, size=(T, m)), axis=0)
    K += rng.uniform(0.1, 0.9, size=m)[None, :]  # irrational-ish sums
    pr = make_pipeline_run([Op.FILTER] * (m - 1) + [Op.INDEX_SCAN], K,
                           drivers=[m - 1, m - 2],
                           table_rows=np.r_[np.full(m - 1, np.nan),
                                            K[-1, -1]])
    pool = SoAPool()
    batch, (slot,), _ = batch_from_runs(pool, [pr])
    assert slot in pool.big["valid"], "fixture must exercise the fixup"
    assert_kernels_match([pr])


def test_mixed_width_flush_matches_scalar():
    """One flush over pipelines of different widths (zero-padded rows)."""
    wide = _PAIRWISE_UNROLL + 1
    K = np.cumsum(np.ones((9, wide)), axis=0) * np.arange(1, wide + 1)
    prs = [linear_two_node_run(n_obs=7),
           make_pipeline_run([Op.FILTER] * (wide - 1) + [Op.TABLE_SCAN], K,
                             table_rows=np.r_[np.full(wide - 1, np.nan),
                                              K[-1, -1]]),
           linear_two_node_run(n_obs=12, total=40.0)]
    assert_kernels_match(prs)


def test_batch_n_applies_mat_child_override():
    """A blocked source whose out-of-pipeline build finished reports the
    build child's counter as its total (the live ``n_partial`` rule)."""
    pr = linear_two_node_run(n_obs=5)
    meta = PipelineMeta.from_pipeline_run(pr)
    meta.mat_idx = np.array([1], dtype=np.int64)
    meta.mat_child_ids = np.array([9], dtype=np.int64)
    pool = SoAPool()
    batch, (slot,), _ = batch_from_runs(pool, [pr], metas=[meta],
                                        true_n=False)
    lo, hi = batch.slot_rows[slot]
    batch.D[:, :] = False
    batch.CD[lo + 2:hi, 1] = True
    batch.CK[lo + 2:hi, 1] = 37.0
    N = batch.N
    assert np.array_equal(N[lo:lo + 2, 1], meta.E0[[1, 1]])
    assert np.array_equal(N[lo + 2:hi, 1], np.full(hi - lo - 2, 37.0))
    assert np.array_equal(N[lo:hi, 0], np.full(hi - lo, meta.E0[0]))


def test_luo_ring_matches_batch_estimate():
    """The LUO ring (pops + compaction) reproduces the batch loop, and
    ends holding exactly its trailing speed window."""
    window = 5.0
    est = LuoEstimator(speed_window=window)
    prs = [linear_two_node_run(n_obs=51),      # 2s spacing: many pops
           linear_two_node_run(n_obs=26, total=60.0)]
    pool = SoAPool()
    batch, slots, _ = batch_from_runs(pool, prs)
    st = BatchedLuoState(est, pool)
    for slot in slots:
        st.pack(slot)
    vector = st.advance(batch)
    for pr, slot in zip(prs, slots):
        lo, hi = batch.slot_rows[slot]
        assert np.array_equal(vector[lo:hi], est.estimate(pr))
        elapsed = pr.times - pr.t_start
        start = int(np.argmax(elapsed[-1] - elapsed <= window))
        ring = slice(st.head[slot], st.wpos[slot])
        assert np.array_equal(st.ew[slot, ring], elapsed[start:])
        assert np.array_equal(st.dw[slot, ring], bytes_done(pr)[start:])
    # 51 appends through a ring of 8 columns: compaction must have run
    # (the write cursor is monotone between compactions)
    assert st.wpos[slots[0]] < prs[0].n_observations


def test_luo_row_mask_freezes_masked_slots():
    est = LuoEstimator(speed_window=5.0)
    prs = [linear_two_node_run(n_obs=9), linear_two_node_run(n_obs=9)]
    pool = SoAPool()
    batch, slots, metas = batch_from_runs(pool, prs)
    st = BatchedLuoState(est, pool)
    for slot in slots:
        st.pack(slot)
    mask = np.zeros(len(batch), dtype=bool)
    lo, hi = batch.slot_rows[slots[0]]
    mask[lo:hi] = True
    vector = st.advance(batch, row_mask=mask)
    assert np.array_equal(vector[lo:hi], est.estimate(prs[0]))
    # the masked slot's ring never advanced and its rows stayed zero
    assert st.wpos[slots[1]] == 0
    mlo, mhi = batch.slot_rows[slots[1]]
    assert not vector[mlo:mhi].any()


def test_pool_pack_release_grow_and_widen():
    pool = SoAPool(capacity=2, width=2)
    pr = linear_two_node_run(n_obs=5)
    meta = PipelineMeta.from_pipeline_run(pr)
    a, b = pool.pack(meta), pool.pack(meta)
    assert pool.n_live == 2
    c = pool.pack(meta)  # forces capacity doubling
    assert pool.capacity == 4 and pool.n_live == 3
    pool.release(b)
    assert pool.n_live == 2 and pool.metas[b] is None
    assert pool.pack(meta) == b  # freed slots are recycled
    m = 5
    wide = make_pipeline_run([Op.FILTER] * (m - 1) + [Op.TABLE_SCAN],
                             np.cumsum(np.ones((4, m)), axis=0),
                             table_rows=np.r_[np.full(m - 1, np.nan), 4.0])
    d = pool.pack(PipelineMeta.from_pipeline_run(wide))
    assert pool.width >= m
    assert np.array_equal(pool.E0[a, :2], meta.E0)  # survivors intact
    assert not pool.sel["valid"][a, 2:].any()       # padding stays off
    assert pool.sel["valid"][d, :m].all()
    assert a != b != c != d


# -- per-row helper mirrors (properties + edge cases) ------------------------


def _empty_run():
    """A pipeline that never produced an observation row."""
    base = linear_two_node_run(n_obs=3)
    z = np.zeros((0, base.n_nodes))
    return PipelineRun(
        pid=0, query_name="empty", db_name="synthetic",
        times=np.zeros(0), t_start=0.0, t_end=0.0,
        K=z, R=z.copy(), W=z.copy(), LB=z.copy(), UB=z.copy(),
        E0=base.E0, N=base.N, widths=base.widths,
        table_rows=base.table_rows, ops=base.ops,
        driver_mask=base.driver_mask, parent_local=base.parent_local,
        node_ids=base.node_ids, materialized_bytes_est=0.0)


@given(random_pipeline())
@settings(max_examples=60, deadline=None)
def test_tick_helpers_match_batch_mirrors(pr):
    """`FlushBatch` derived rows are the batch helpers, row for row:
    ``totals`` mirrors :meth:`PipelineRun.known_totals`, the driver sums
    mirror :func:`driver_consumed` (plain and widened masks), and
    ``driver_value`` mirrors :meth:`PipelineRun.driver_fraction` — as
    does :meth:`PipelineMeta.driver_fraction` on one live log row."""
    meta = PipelineMeta.from_pipeline_run(pr)
    pool = SoAPool()
    batch, (slot,), _ = batch_from_runs(pool, [pr], metas=[meta])
    lo, hi = batch.slot_rows[slot]
    m = meta.n_nodes
    c, d = driver_consumed(pr)
    cw, dw = driver_consumed(pr, extra_mask=pr.node_mask(Op.BATCH_SORT))
    assert np.array_equal(batch.totals[lo:hi, :m],
                          np.broadcast_to(pr.known_totals(), pr.K.shape))
    assert np.array_equal(batch.sums("driver", "K")[lo:hi], c)
    assert (batch.sums("driver", "totals")[lo:hi] == d).all()
    assert np.array_equal(batch.sums("bdrv", "K")[lo:hi], cw)
    assert (batch.sums("bdrv", "totals")[lo:hi] == dw).all()
    assert np.array_equal(batch.driver_value("driver")[lo:hi],
                          pr.driver_fraction())
    live, _, _ = batch_from_runs(SoAPool(), [pr], metas=[meta],
                                 true_n=False)
    fraction = live.driver_value("driver")
    for t in range(pr.n_observations):
        assert meta.driver_fraction(*log_row(pr, t)) == fraction[t]


def test_empty_pipeline_batches_to_zero_rows():
    """A never-observed pipeline packs fine, records the 0.0 oracle-bytes
    no-observation path, and every kernel advances an empty flush."""
    pr = _empty_run()
    meta = PipelineMeta.from_pipeline_run(pr)
    assert meta.oracle_bytes_total == 0.0
    pool = SoAPool()
    batch, (slot,), _ = batch_from_runs(pool, [pr], metas=[meta])
    assert len(batch) == 0
    assert batch.slot_rows[slot] == (0, 0)
    for est in NATIVE_ESTIMATORS:
        st = batched_states({est.name: est}, pool)[est.name]
        st.pack(slot)
        out = st.advance(batch)
        assert out.shape == (0,)


def test_zero_denominator_pipeline_parity():
    """All totals zero: fractions degrade to 0.0, no NaN/inf anywhere,
    and batch == scalar on every kernel."""
    K = np.zeros((6, 2))
    pr = make_pipeline_run([Op.FILTER, Op.INDEX_SCAN], K,
                           N=np.zeros(2), E0=np.zeros(2),
                           LB=np.zeros((6, 2)), UB=np.zeros((6, 2)),
                           table_rows=np.array([np.nan, 0.0]))
    meta = PipelineMeta.from_pipeline_run(pr)
    pool = SoAPool()
    batch, (slot,), _ = batch_from_runs(pool, [pr], metas=[meta])
    assert not batch.driver_value("driver").any()
    for t in range(pr.n_observations):
        assert meta.driver_fraction(*log_row(pr, t)) == 0.0
    assert_kernels_match([pr])


def test_all_materialized_source_pipeline_parity():
    """Every member is a blocking materialization: known totals follow
    the per-tick N everywhere, and kernels stay bit-exact."""
    ramp = np.linspace(0.0, 80.0, 9)
    K = np.column_stack([ramp * 0.25, ramp])
    pr = make_pipeline_run([Op.HASH_AGG, Op.SORT], K, drivers=[1])
    meta = PipelineMeta.from_pipeline_run(pr)
    assert len(meta.materialized_idx) == meta.n_nodes
    pool = SoAPool()
    batch, (slot,), _ = batch_from_runs(pool, [pr], metas=[meta])
    assert np.array_equal(batch.totals[:, :2], batch.N[:, :2])
    assert_kernels_match([pr])


def test_bytes_oracle_zero_total_matches_scalar():
    """A recorded-but-empty oracle total (0.0) is still 'has oracle':
    the kernel must not fall back to the causal bytes-done total, but
    apply the batch formula with a 0.0 denominator."""
    pr = linear_two_node_run(n_obs=7)
    meta = PipelineMeta.from_pipeline_run(pr)
    meta.oracle_bytes_total = 0.0
    est = BytesProcessedOracle()
    pool = SoAPool()
    batch, (slot,), _ = batch_from_runs(pool, [pr], metas=[meta])
    st = batched_states({est.name: est}, pool)[est.name]
    vector = st.advance(batch)
    lo, hi = batch.slot_rows[slot]
    want = clip_progress(safe_divide(bytes_done(pr), 1e-12))
    assert np.array_equal(vector[lo:hi], want)


def test_batched_states_requires_native_kernels():
    class Tweaked(DNEEstimator):
        name = "tweaked"

    pool = SoAPool()
    assert set(batched_states({"dne": DNEEstimator()}, pool)) == {"dne"}
    # a subclass may override behaviour the kernels cannot mirror
    with pytest.raises(ValueError, match="Tweaked"):
        batched_states({"dne": DNEEstimator(), "tweaked": Tweaked()}, pool)
