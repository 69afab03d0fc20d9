"""SoA batch kernels vs the batch ``estimate`` (bit parity).

:mod:`repro.progress.soa` lays the online estimator state of many
pipelines out as structure-of-arrays batches; the contract is that
``advance`` over a multi-pipeline :class:`FlushBatch` reproduces each
pipeline's ``estimator.estimate(pr)`` trajectory *bit-for-bit* —
including zero-padded mixed-width flushes (whatever width a flush pads
to), rows long enough to hit numpy's pairwise-sum unrolling and LUO's
speed window read from the row it opens at (a batch need not hold the
rows between).  The end-to-end report-stream parity of
the service built on these kernels is gated separately by
tests/test_service.py and the fuzz oracle's ``kernel`` and ``service``
layers; this module pins the kernels in isolation.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import pytest

from repro.engine.run import PipelineRun
from repro.plan.nodes import Op
from repro.progress.base import driver_consumed
from repro.progress.batchdne import BatchDNEEstimator
from repro.progress.dne import DNEEstimator
from repro.progress.dneseek import DNESeekEstimator
from repro.progress.luo import DEFAULT_SPEED_WINDOW, LuoEstimator
from repro.progress.refined_tgn import RefinedTGNEstimator
from repro.progress.safe_pmax import PMaxEstimator, SafeEstimator
from repro.features.vector import _masked_sums
from repro.progress.soa import (
    _PAIRWISE_BLOCK,
    _PAIRWISE_UNROLL,
    BatchedLuoState,
    FlushBatch,
    PipelineMeta,
    batched_states,
    pairwise_rowsums,
    window_starts,
)
from repro.progress.tgn import TGNEstimator
from repro.progress.tgnint import TGNIntEstimator

from helpers import linear_two_node_run, make_pipeline_run, meta_of
from strategies import random_pipeline

NATIVE_ESTIMATORS = [
    DNEEstimator(), BatchDNEEstimator(), DNESeekEstimator(),
    TGNEstimator(), TGNIntEstimator(), RefinedTGNEstimator(),
    PMaxEstimator(), SafeEstimator(), LuoEstimator(),
]


def batch_from_runs(prs, metas=None, true_n=True):
    """Lay completed pipeline runs' ticks out as one flush with hand-made
    ``metas`` or the live ``N`` rule (everything else builds through
    :meth:`FlushBatch.of_pipeline_runs`).

    Mirrors the service's ``_gather``: rows grouped per pipeline in tick
    order, zero-padded to the widest pipeline, per-node done flags raised
    where the counter has reached the (known) final value.  ``true_n``
    fixes every row's ``N`` at the run's true totals, the view
    ``estimate(pr)`` has of a completed run; otherwise ``N`` follows the
    live rule from the done flags.
    """
    metas = metas or [PipelineMeta.from_pipeline_run(pr) for pr in prs]
    total = sum(pr.n_observations for pr in prs)
    w = max(meta.n_nodes for meta in metas)
    times = np.zeros(total)
    arrays = {n: np.zeros((total, w)) for n in ("K", "W", "LB", "UB")}
    D = np.zeros((total, w), dtype=bool)
    CK = np.zeros((total, w))
    CD = np.zeros((total, w), dtype=bool)
    ranges, lo = [], 0
    for pr in prs:
        T, m = pr.K.shape
        hi = lo + T
        times[lo:hi] = pr.times
        for name in arrays:
            arrays[name][lo:hi, :m] = getattr(pr, name)
        D[lo:hi, :m] = pr.K >= pr.N[None, :]
        ranges.append((lo, hi))
        lo = hi
    batch = FlushBatch(metas, ranges, times, arrays["K"], arrays["W"],
                       arrays["LB"], arrays["UB"], D, CK, CD,
                       np.arange(total), t_start=[pr.t_start for pr in prs])
    if true_n:
        N = np.zeros((total, w))
        for pr, (lo, hi) in zip(prs, ranges):
            N[lo:hi, :pr.n_nodes] = pr.N
        batch._cache["N"] = N
    return batch


def advance(est, batch):
    return batched_states({est.name: est})[est.name].advance(batch)


def assert_kernels_match(prs, estimators=None):
    batch = FlushBatch.of_pipeline_runs(prs, DEFAULT_SPEED_WINDOW)
    for est in estimators or NATIVE_ESTIMATORS:
        vector = advance(est, batch)
        for pr, (lo, hi) in zip(prs, batch.ranges):
            want = est.estimate(pr)
            assert np.array_equal(vector[lo:hi], want), (
                f"{est.name}: max |delta| = "
                f"{np.abs(vector[lo:hi] - want).max():.3e}")


def live_fractions(pr, live):
    """Per row ``t``, :meth:`PipelineRun.driver_fraction` at ``t`` of
    ``pr`` with ``N`` set to the live rule's totals at ``t``: row ``t`` of
    ``live``, ``pr`` laid out alone under that rule."""
    m = pr.n_nodes
    return np.array([
        replace(pr, N=live.N[t, :m], _known=None).driver_fraction()[t]
        for t in range(pr.n_observations)])


def test_kernels_match_scalar_on_executed_pipelines(join_run, scan_run):
    prs = (join_run.pipeline_runs(min_observations=5)
           + scan_run.pipeline_runs(min_observations=5))
    assert prs
    assert_kernels_match(prs)


def test_kernels_match_scalar_on_synthetic_chain():
    assert_kernels_match([linear_two_node_run(n_obs=21)])


def test_kernels_match_scalar_past_pairwise_unroll():
    """Rows whose selection reaches numpy's pairwise-sum threshold go
    through the compacted pairwise sums and still match bitwise."""
    m = _PAIRWISE_UNROLL + 3
    T = 13
    rng = np.random.default_rng(7)
    K = np.cumsum(rng.uniform(0.0, 9.0, size=(T, m)), axis=0)
    K += rng.uniform(0.1, 0.9, size=m)[None, :]  # irrational-ish sums
    pr = make_pipeline_run([Op.FILTER] * (m - 1) + [Op.INDEX_SCAN], K,
                           drivers=[m - 1, m - 2],
                           table_rows=np.r_[np.full(m - 1, np.nan),
                                            K[-1, -1]])
    batch = FlushBatch.of_pipeline_runs([pr])
    assert batch.wide("valid"), "fixture must exercise the compacted sums"
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
    meta = meta_of(pr, mat_idx=np.array([1], dtype=np.int64),
                   mat_child_ids=np.array([9], dtype=np.int64))
    batch = batch_from_runs([pr], metas=[meta], true_n=False)
    (lo, hi), = batch.ranges
    batch.D[:, :] = False
    batch.CD[lo + 2:hi, 1] = True
    batch.CK[lo + 2:hi, 1] = 37.0
    N = batch.N
    assert np.array_equal(N[lo:lo + 2, 1], meta.E0[[1, 1]])
    assert np.array_equal(N[lo + 2:hi, 1], np.full(hi - lo - 2, 37.0))
    assert np.array_equal(N[lo:hi, 0], np.full(hi - lo, meta.E0[0]))


def _reference_window_starts(times, t_start, window):
    """The window pointer of :meth:`LuoEstimator.estimate`'s loop over a
    pipeline's ``times``."""
    elapsed = times - t_start
    out, start = [], 0
    for t in range(len(times)):
        while start < t and elapsed[t] - elapsed[start] > window:
            start += 1
        out.append(start)
    return np.array(out)


def test_luo_window_rows_match_batch_estimate():
    """Over a multi-pipeline flush whose windows span many rows, each row's
    window start is the batch loop's pointer and LUO equals
    ``estimate``."""
    window = 5.0
    est = LuoEstimator(speed_window=window)
    prs = [linear_two_node_run(n_obs=51),      # 2s spacing: 2-row windows
           linear_two_node_run(n_obs=26, total=60.0)]
    batch = FlushBatch.of_pipeline_runs(prs, speed_window=window)
    vector = BatchedLuoState(est).advance(batch)
    for pr, (lo, hi) in zip(prs, batch.ranges):
        assert np.array_equal(batch.window_row[lo:hi] - lo,
                              _reference_window_starts(
                                  pr.times, pr.t_start, window))
        assert np.array_equal(vector[lo:hi], est.estimate(pr))


@st.composite
def logs_with_tied_times(draw):
    """One to three logs laid end to end, each with nondecreasing times in
    blocks of ties, and one to four pipelines on them: each a log, its
    first row (past the log's first), its start time and rows from its
    first on in any order, repeats included."""
    offsets, chunks = [0], []
    for _ in range(draw(st.integers(1, 3))):
        # non-dyadic steps and offsets, so elapsed differences round
        gaps = draw(st.lists(st.sampled_from([0.0, 0.0, 0.0, 0.1, 0.25,
                                              0.3, 1.0]),
                             min_size=2, max_size=40))
        chunks.append(draw(st.sampled_from([0.0, 0.1, 1 / 3]))
                      + np.cumsum(gaps))
        offsets.append(offsets[-1] + len(gaps))
    pipelines = []
    for _ in range(draw(st.integers(1, 4))):
        log = draw(st.integers(0, len(chunks) - 1))
        n = len(chunks[log])
        first = draw(st.integers(1, n - 1))
        t_start = chunks[log][first] - draw(st.sampled_from(
            [0.0, 0.05, 1 / 3, 0.7]))
        rows = draw(st.lists(st.integers(first, n - 1), min_size=1,
                             max_size=12))
        pipelines.append((offsets[log], n, first, t_start, np.array(rows)))
    window = draw(st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.6, 1.0, 10.0]))
    return np.concatenate(chunks), pipelines, window


@given(logs_with_tied_times())
@settings(max_examples=120, deadline=None)
def test_window_starts_match_luo_loop_over_many_pipelines(case):
    """One search over the rows of several pipelines, each with its own
    first row and start time, on logs laid end to end with tied times,
    gives every row the pointer of ``estimate``'s window loop over that
    pipeline's times from its first row."""
    times, pipelines, window = case
    counts = [len(rows) for *_, rows in pipelines]
    got = window_starts(
        times, np.repeat([t_start for *_, t_start, _ in pipelines], counts),
        np.repeat([offset + first for offset, _, first, *_ in pipelines],
                  counts),
        np.concatenate([offset + rows for offset, *_, rows in pipelines]),
        window)
    want = np.concatenate([
        first + _reference_window_starts(
            times[offset + first:offset + n], t_start, window)[rows - first]
        for offset, n, first, t_start, rows in pipelines])
    offsets = np.repeat([offset for offset, *_ in pipelines], counts)
    assert np.array_equal(got - offsets, want)


def test_luo_reads_only_its_row_and_window_row():
    """A pipeline holding only some of its rows, each with its window
    start, gets ``estimate`` at those rows next to a pipeline holding all
    of its rows: no kernel needs the rows in between."""
    window = 5.0
    est = LuoEstimator(speed_window=window)
    full, sparse = linear_two_node_run(n_obs=31), linear_two_node_run(n_obs=41)
    batch = FlushBatch.of_pipeline_runs([full, sparse], speed_window=window)
    picked = np.array([3, 17, 40])
    starts = window_starts(sparse.times, sparse.t_start, 0, picked, window)
    assert (starts < picked).all() and (starts > 0).all()
    lo, _ = batch.ranges[1]
    keep = np.r_[np.arange(*batch.ranges[0]), lo + picked, lo + starts]
    n_full = full.n_observations
    window_row = np.r_[batch.window_row[:n_full],
                       n_full + len(picked) + np.arange(len(picked)),
                       n_full + len(picked) + np.arange(len(picked))]
    sub = FlushBatch(batch.metas, [(0, n_full), (n_full, len(keep))],
                     batch.times[keep], batch.K[keep], batch.W[keep],
                     batch.LB[keep], batch.UB[keep], batch.D[keep],
                     batch.CK[keep], batch.CD[keep], window_row,
                     t_start=[full.t_start, sparse.t_start])
    sub._cache["N"] = batch.N[keep]
    vector = BatchedLuoState(est).advance(sub)
    assert np.array_equal(vector[:n_full], est.estimate(full))
    assert np.array_equal(vector[n_full:n_full + len(picked)],
                          est.estimate(sparse)[picked])


def test_width_is_set_per_flush():
    """A pipeline's kernel values are bit-identical whether it is flushed
    alone, at its own width, or beside a pipeline wide enough (past the
    unroll) to pad it: zero-padding to any width is exact."""
    narrow = linear_two_node_run(n_obs=9)
    m = _PAIRWISE_UNROLL + 2
    K = np.cumsum(np.linspace(0.5, 3.0, m)[None, :] * np.ones((11, 1)),
                  axis=0)
    wide = make_pipeline_run([Op.FILTER] * (m - 1) + [Op.TABLE_SCAN], K,
                             table_rows=np.r_[np.full(m - 1, np.nan),
                                              K[-1, -1]])
    alone = FlushBatch.of_pipeline_runs([narrow], DEFAULT_SPEED_WINDOW)
    beside = FlushBatch.of_pipeline_runs([wide, narrow], DEFAULT_SPEED_WINDOW)
    assert alone.width == narrow.n_nodes and beside.width == m
    (rows, cols), = beside.wide("valid")
    lo, hi = beside.ranges[0]
    assert np.array_equal(rows, np.arange(lo, hi)), \
        "the wide pipeline's rows, and only they, take the compacted sums"
    assert cols.shape == (hi - lo, m)
    lo, hi = beside.ranges[1]
    for est in NATIVE_ESTIMATORS:
        assert np.array_equal(advance(est, beside)[lo:hi],
                              advance(est, alone)), est.name


# -- numpy's summation order, replayed ---------------------------------------

@st.composite
def _summands(draw, shape):
    """Nonnegative summands of ``shape``: magnitudes from 1e-8 to 1e8
    (wide enough that the order of additions shows), a drawn share of
    zeros and of repeats of one value."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    C = rng.uniform(1.0, 10.0, shape) * 10.0 ** rng.integers(-8, 9, shape)
    C[rng.uniform(size=shape) < draw(st.floats(0.0, 1.0))] = 0.0
    C[rng.uniform(size=shape) < draw(st.floats(0.0, 0.5))] = draw(
        st.sampled_from([1.0, 0.1, 3.0e7, 7.0e-8]))
    return C


def _hexes(values):
    return [float.hex(float(v)) for v in values]


@given(st.tuples(st.integers(1, 12), st.integers(1, _PAIRWISE_BLOCK - 1))
       .flatmap(_summands))
@settings(max_examples=300, deadline=None)
def test_pairwise_rowsums_replay_ndarray_sum(C):
    """Below 128 columns the replayed order (sequential below 8 columns,
    eight accumulators from 8 on) equals ``ndarray.sum`` of each row, bit
    for bit.  A numpy that changes its summation order fails here."""
    assert _hexes(pairwise_rowsums(C)) == _hexes(row.sum() for row in C)


def test_pairwise_rowsums_wide_rows_fall_back_to_np_sum():
    """From 128 columns numpy recurses; such rows are summed one by one."""
    rng = np.random.default_rng(3)
    for width in (_PAIRWISE_BLOCK, 300):
        C = rng.uniform(0.0, 1.0, (5, width)) * 10.0 ** rng.integers(
            -8, 9, (5, width))
        assert _hexes(pairwise_rowsums(C)) == _hexes(row.sum() for row in C)


@given(st.integers(1, 40).flatmap(lambda width: st.tuples(
    _summands((4, width)), arrays(bool, (4, 3, width)))))
@settings(max_examples=200, deadline=None)
def test_masked_sums_equal_compacted_sums(case):
    """``_masked_sums`` (the static features' sums) equals
    ``values[b][masks[b, s]].sum()``, selections past the unroll
    threshold included."""
    values, masks = case
    got = _masked_sums(values, masks)
    for b, s in np.ndindex(*masks.shape[:2]):
        assert float.hex(float(got[b, s])) == float.hex(
            float(values[b][masks[b, s]].sum())), (b, s)


# -- per-row helper mirrors (properties + edge cases) ------------------------


def _empty_run():
    """A pipeline that never produced an observation row."""
    base = linear_two_node_run(n_obs=3)
    z = np.zeros((0, base.n_nodes))
    return PipelineRun(
        pid=0, query_name="empty", db_name="synthetic",
        times=np.zeros(0), t_start=0.0, t_end=0.0,
        K=z, W=z.copy(), LB=z.copy(), UB=z.copy(),
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
    ``driver_value`` mirrors :meth:`PipelineRun.driver_fraction`, under
    the true totals and under the live ``N`` rule row by row."""
    meta = PipelineMeta.from_pipeline_run(pr)
    batch = batch_from_runs([pr], metas=[meta])
    (lo, hi), = batch.ranges
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
    live = batch_from_runs([pr], metas=[meta], true_n=False)
    assert np.array_equal(live.driver_value("driver"),
                          live_fractions(pr, live))


def test_empty_pipeline_batches_to_zero_rows():
    """A never-observed pipeline batches fine, and every kernel advances
    an empty flush."""
    pr = _empty_run()
    meta = PipelineMeta.from_pipeline_run(pr)
    batch = batch_from_runs([pr], metas=[meta])
    assert len(batch) == 0
    assert batch.ranges == [(0, 0)]
    for est in NATIVE_ESTIMATORS:
        assert advance(est, batch).shape == (0,)


def test_zero_denominator_pipeline_parity():
    """All totals zero: fractions degrade to 0.0, no NaN/inf anywhere,
    and batch == scalar on every kernel."""
    K = np.zeros((6, 2))
    pr = make_pipeline_run([Op.FILTER, Op.INDEX_SCAN], K,
                           N=np.zeros(2), E0=np.zeros(2),
                           LB=np.zeros((6, 2)), UB=np.zeros((6, 2)),
                           table_rows=np.array([np.nan, 0.0]))
    meta = PipelineMeta.from_pipeline_run(pr)
    for true_n in (True, False):
        batch = batch_from_runs([pr], metas=[meta], true_n=true_n)
        assert not batch.driver_value("driver").any()
    assert_kernels_match([pr])


def test_all_materialized_source_pipeline_parity():
    """Every member is a blocking materialization: known totals follow
    the per-tick N everywhere, and kernels stay bit-exact."""
    ramp = np.linspace(0.0, 80.0, 9)
    K = np.column_stack([ramp * 0.25, ramp])
    pr = make_pipeline_run([Op.HASH_AGG, Op.SORT], K, drivers=[1])
    meta = PipelineMeta.from_pipeline_run(pr)
    assert meta.matpos.all()
    batch = batch_from_runs([pr], metas=[meta])
    assert np.array_equal(batch.totals[:, :2], batch.N[:, :2])
    live = batch_from_runs([pr], metas=[meta], true_n=False)
    assert np.array_equal(live.totals[:, :2], live.N[:, :2])
    assert np.array_equal(live.driver_value("driver"),
                          live_fractions(pr, live))
    assert_kernels_match([pr])


def test_batched_states_requires_native_kernels():
    class Tweaked(DNEEstimator):
        name = "tweaked"

    assert set(batched_states({"dne": DNEEstimator()})) == {"dne"}
    # a subclass may override behaviour the kernels cannot mirror
    with pytest.raises(ValueError, match="Tweaked"):
        batched_states({"dne": DNEEstimator(), "tweaked": Tweaked()})
