"""Structure-of-arrays estimator kernels: the one online estimation path.

Every online consumer — the solo :class:`~repro.core.monitor.ProgressMonitor`,
trace replay, the pooled service and the dynamic features — advances the
estimators through the kernels here; the batch ``estimate(pr)`` of each
estimator stays the definition they must reproduce bit-for-bit.  One
flush's rows of every live pipeline are laid out as *structure-of-arrays*
batches and evaluated per estimator kind:

* a :class:`PipelineMeta` captures everything about a pipeline that is
  immutable once it starts — operator kinds, optimizer estimates, row
  widths, table cardinalities, the driver mask — and derives its kernel
  metadata once, at its own width: known-source totals, the per-family
  selection masks and materialized positions;
* a :class:`FlushBatch` carries one flush's observation rows for a set of
  pipelines as flat ``(rows, width)`` arrays, zero-padded to the widest
  pipeline it holds, lays out each row's metadata next to them on demand
  and caches the derived quantities (``n_partial`` totals, masked row
  sums) every kernel shares;
* a :class:`BatchedStreamState` per estimator kind advances *all* rows in
  one NumPy pass — ``advance(batch)`` returns, per row, the value the
  estimator's ``estimate`` yields at that observation of its causal
  trajectory.

Kernels keep no state of their own: each is a function of the rows it is
handed and of their pipelines' metadata.  LUO's speed over its trailing
window reads one more row, the row the window opens at
(:func:`window_starts`), which the batch carries as ``window_row``.  Only
the exact estimator classes in ``_NATIVE`` have a kernel; the monitor
refuses any other pool member at construction (:func:`kernel_class`).
:meth:`FlushBatch.of_pipeline_runs` lays whole pipeline views out: the
feature extractor's batch, and :func:`kernel_estimates`' check against
``estimate``.

Why bit-parity holds
--------------------

NumPy's ``sum`` adds sequentially below its 8-way pairwise-unroll
threshold (starting from ``0.0``), and every quantity summed here is
nonnegative, so summing a zero-padded row column-by-column is a bitwise
no-op relative to summing the compacted selection — each padded position
contributes an exact ``x + 0.0 == x``, whatever the batch's width.  A
selection of 8 to 127 columns takes NumPy's unrolled path instead: eight
accumulators take every eighth column, are combined as
``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, and the leftover columns are
added in order.  :func:`masked_rowsums` finds such rows from the
selection masks, gathers the rows of each width into one compacted
``(rows, width)`` array and replays that order column by column
(:func:`pairwise_rowsums`).  Wider
selections, which NumPy splits recursively, are summed per row with
``np.sum`` itself.  So every row sum is produced by exactly the
reduction ``estimate`` applies to that observation's row.  All remaining
kernel arithmetic is elementwise and mirrors the batch formulas
operation-for-operation; the fuzz oracle's ``kernel`` layer gates both
the per-estimator trajectories and the served report streams against
``estimate``, and ``tests/test_progress_soa.py`` pins the emulated order
against ``ndarray.sum``.
"""

from __future__ import annotations

import numpy as np

from repro.engine.run import (
    _KNOWN_SOURCE_OPS,
    _MATERIALIZED_OPS,
    PipelineRun,
    partial_totals,
)
from repro.plan.nodes import Op
from repro.progress.batchdne import BatchDNEEstimator
from repro.progress.dne import DNEEstimator
from repro.progress.dneseek import DNESeekEstimator
from repro.progress.gold import BytesProcessedOracle, GetNextOracle
from repro.progress.luo import LuoEstimator
from repro.progress.refined_tgn import RefinedTGNEstimator
from repro.progress.safe_pmax import PMaxEstimator, SafeEstimator
from repro.progress.tgn import TGNEstimator
from repro.progress.tgnint import TGNIntEstimator

#: numpy's pairwise-sum unroll threshold: selections shorter than this
#: are summed sequentially, where zero-padding cannot change a bit
_PAIRWISE_UNROLL = 8

#: selections this wide are summed per row with ``np.sum`` (numpy's
#: pairwise sum recurses past 128 columns, beyond the one 8-accumulator
#: block :func:`pairwise_rowsums` replays)
_PAIRWISE_BLOCK = 128


class PipelineMeta:
    """Immutable per-pipeline metadata, captured once when it starts.

    Mirrors the time-invariant fields of :class:`PipelineRun` and derives
    the kernels' per-node metadata from them once, at the pipeline's own
    width: ``known_base`` (the totals of :meth:`PipelineRun.known_totals`
    that never change), one selection mask per row-sum family
    (``valid``, ``driver``, ``bdrv``, ``sdrv``), the ``matpos`` /
    ``childpos`` positions of the per-row ``N`` rule.
    """

    __slots__ = (
        "pid", "query_name", "db_name", "t_start", "node_ids", "ops",
        "E0", "widths", "table_rows", "driver_mask", "parent_local",
        "materialized_bytes_est", "oracle_bytes_total", "materialized_idx",
        "mat_idx", "mat_child_ids",
        "known_base", "valid", "driver", "bdrv", "sdrv", "matpos",
        "childpos", "e0_sum", "oracle_total", "has_oracle",
    )

    def __init__(self, pid: int, query_name: str, db_name: str,
                 t_start: float, node_ids: np.ndarray, ops: list[Op],
                 E0: np.ndarray, widths: np.ndarray, table_rows: np.ndarray,
                 driver_mask: np.ndarray, parent_local: np.ndarray,
                 materialized_bytes_est: float = 0.0,
                 oracle_bytes_total: float | None = None,
                 mat_idx: np.ndarray | None = None,
                 mat_child_ids: np.ndarray | None = None):
        self.pid = pid
        self.query_name = query_name
        self.db_name = db_name
        self.t_start = t_start
        self.node_ids = node_ids
        self.ops = ops
        self.E0 = E0
        self.widths = widths
        self.table_rows = table_rows
        self.driver_mask = driver_mask
        self.parent_local = parent_local
        self.materialized_bytes_est = materialized_bytes_est
        #: true total bytes of the pipeline, only known for *completed*
        #: runs — lets the §6.7 Bytes-Processed oracle's kernel match its
        #: ``estimate`` (see :class:`~repro.progress.gold.BytesProcessedOracle`)
        self.oracle_bytes_total = oracle_bytes_total
        self.matpos = np.array([op in _MATERIALIZED_OPS for op in ops],
                               dtype=bool)
        self.materialized_idx = np.flatnonzero(self.matpos)
        # blocking sources (local index) whose totals become exact once the
        # *out-of-pipeline* build child (global node id) finishes —
        # consumed by the per-row N rule
        none = np.zeros(0, dtype=np.int64)
        self.mat_idx = none if mat_idx is None else mat_idx
        self.mat_child_ids = none if mat_child_ids is None else mat_child_ids

        # -- kernel metadata ---------------------------------------------
        m = len(ops)
        known = np.array([op in _KNOWN_SOURCE_OPS for op in ops],
                         dtype=bool) & np.isfinite(table_rows)
        self.known_base = np.where(known, table_rows, E0)
        self.valid = np.ones(m, dtype=bool)
        self.driver = np.asarray(driver_mask, dtype=bool)
        # the widened families mirror BATCHDNE's / DNESEEK's node_mask
        self.bdrv = self.driver | np.array([op == Op.BATCH_SORT for op in ops],
                                           dtype=bool)
        self.sdrv = self.driver | np.array([op == Op.INDEX_SEEK for op in ops],
                                           dtype=bool)
        self.childpos = np.zeros(m, dtype=bool)
        self.childpos[self.mat_idx] = True
        # TGNINT's estimate sums E0 once per trajectory; the sum is
        # tick-invariant, so one np.sum here is bit-identical
        self.e0_sum = float(E0.sum())
        self.has_oracle = oracle_bytes_total is not None
        self.oracle_total = 0.0 if oracle_bytes_total is None \
            else oracle_bytes_total

    @property
    def n_nodes(self) -> int:
        return len(self.ops)

    @classmethod
    def from_pipeline_run(cls, pr: PipelineRun) -> "PipelineMeta":
        """Metadata of a *completed* pipeline run.

        Includes the oracle byte total, so even the non-causal §6.7
        Bytes-Processed model's kernel reproduces its batch ``estimate``
        on this run.
        """
        if pr.n_observations:
            mask = pr.driver_mask
            oracle_bytes = float(
                (pr.K[-1, mask] * pr.widths[mask]).sum() + pr.W[-1].sum())
        else:
            oracle_bytes = 0.0
        return cls(
            pid=pr.pid, query_name=pr.query_name, db_name=pr.db_name,
            t_start=pr.t_start, node_ids=pr.node_ids, ops=pr.ops,
            E0=pr.E0, widths=pr.widths, table_rows=pr.table_rows,
            driver_mask=pr.driver_mask, parent_local=pr.parent_local,
            materialized_bytes_est=pr.materialized_bytes_est,
            oracle_bytes_total=oracle_bytes,
            mat_idx=pr.mat_idx, mat_child_ids=pr.mat_child_ids,
        )

    def driver_fraction(self, K: np.ndarray, D: np.ndarray) -> np.ndarray:
        """Fraction of driver input consumed at each of some log rows.

        ``K`` and ``D`` are the rows' ``(rows, width)`` full-width counter
        and done-flag arrays.  The dynamic-selection marker (§4.4),
        evaluated without a flush: :meth:`PipelineRun.driver_fraction`
        under the live ``n_partial`` rule
        (:func:`~repro.engine.run.partial_totals`).
        """
        cols = self.node_ids
        k = K[:, cols]
        totals = np.repeat(self.known_base[None, :], len(K), axis=0)
        idx = self.materialized_idx
        if len(idx):
            totals[:, idx] = partial_totals(K, D, cols, self.E0, self.mat_idx,
                                            self.mat_child_ids)[:, idx]
        mask = self.driver_mask
        return _clipped_ratio(pairwise_rowsums(k[:, mask]),
                              pairwise_rowsums(totals[:, mask]))


class FlushBatch:
    """One flush's observation rows for a set of pipelines, flattened.

    Range ``i`` holds flat rows ``ranges[i] = (lo, hi)`` of the pipeline
    ``metas[i]``; the ranges tile the batch in order, within one range
    rows come in any order, and a pipeline may own several ranges (its
    metadata listed once per range).  Row arrays are ``(rows, width)``,
    zero-padded to the widest pipeline.  ``window_row[r]`` is the flat index of the row
    LUO's speed window opens at for row ``r`` (:func:`window_starts`); a
    row whose LUO value is never read points at itself.  ``CK``/``CD``
    overlay the out-of-pipeline build child's counter/done columns at the
    blocking-source positions (``PipelineMeta.childpos``).
    """

    def __init__(self, metas: list[PipelineMeta],
                 ranges: list[tuple[int, int]], times: np.ndarray,
                 K: np.ndarray, W: np.ndarray, LB: np.ndarray,
                 UB: np.ndarray, D: np.ndarray, CK: np.ndarray,
                 CD: np.ndarray, window_row: np.ndarray):
        self.metas = metas
        self.ranges = ranges
        self.times = times
        self.K = K
        self.W = W
        self.LB = LB
        self.UB = UB
        self.D = D
        self.CK = CK
        self.CD = CD
        self.window_row = window_row
        #: per row, the index of its pipeline in ``metas``
        self.owner = np.repeat(np.arange(len(metas)),
                               [hi - lo for lo, hi in ranges])
        self._cache: dict[str, np.ndarray] = {}
        self._wide: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {}

    @classmethod
    def of_pipeline_runs(cls, prs: list[PipelineRun],
                         speed_window: float | None = None) -> "FlushBatch":
        """Range ``i`` holds every observation of ``prs[i]``, zero-padded
        to the widest, with ``N`` fixed at ``prs[i].N`` (the truth
        offline, the totals known at its row for a ``live_pipeline_run``
        view): the layout in which each kernel reproduces ``estimate``.
        With ``speed_window``, ``window_row`` holds LUO's window starts.
        """
        bounds = np.cumsum([0] + [pr.n_observations for pr in prs])
        ranges = list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))
        shape = (int(bounds[-1]), max((pr.n_nodes for pr in prs), default=0))
        times = np.concatenate([np.zeros(0)] + [pr.times for pr in prs])
        window_row = np.arange(shape[0])
        rows = {name: np.zeros(shape) for name in ("K", "W", "LB", "UB", "N")}
        for pr, (lo, hi) in zip(prs, ranges):
            for name, out in rows.items():
                out[lo:hi, :pr.n_nodes] = getattr(pr, name)
            if speed_window is not None:
                window_row[lo:hi] = lo + window_starts(
                    pr.times, pr.t_start, 0, np.arange(hi - lo),
                    speed_window)
        unset = np.zeros(shape, dtype=bool)
        batch = cls([PipelineMeta.from_pipeline_run(pr) for pr in prs],
                    ranges, times, rows["K"], rows["W"], rows["LB"],
                    rows["UB"], D=unset, CK=np.zeros(shape), CD=unset,
                    window_row=window_row)
        batch._cache["N"] = rows["N"]
        return batch

    def __len__(self) -> int:
        return len(self.times)

    @property
    def width(self) -> int:
        return self.K.shape[1]

    # -- shared derived rows -------------------------------------------------

    def meta_rows(self, name: str) -> np.ndarray:
        """Per-row layout of one :class:`PipelineMeta` kernel field: a
        scalar per row, or the pipeline's node array zero-padded to
        ``width`` (cached)."""
        key = "meta:" + name
        out = self._cache.get(key)
        if out is None:
            values = [getattr(meta, name) for meta in self.metas]
            if np.ndim(values[0]):
                dtype = bool if values[0].dtype == bool else float
                table = padded(values, self.width, 0, dtype)
            else:
                table = np.array(values)
            out = table[self.owner]
            self._cache[key] = out
        return out

    @property
    def N(self) -> np.ndarray:
        """Per-row ``n_partial``: a finished node's counter; a blocking
        source whose build child finished, the child's counter; else E0
        (the rule :func:`~repro.engine.run.live_pipeline_run` applies)."""
        out = self._cache.get("N")
        if out is None:
            out = np.where(self.D, self.K, self.meta_rows("E0"))
            override = self.meta_rows("childpos") & self.CD & ~self.D
            if override.any():
                out = np.where(override, self.CK, out)
            self._cache["N"] = out
        return out

    @property
    def totals(self) -> np.ndarray:
        """Per-row mirror of :meth:`PipelineRun.known_totals`."""
        out = self._cache.get("totals")
        if out is None:
            out = np.where(self.meta_rows("matpos"), self.N,
                           self.meta_rows("known_base"))
            self._cache["totals"] = out
        return out

    @property
    def bytes_done(self) -> np.ndarray:
        """Per-row LUO/bytes-oracle numerator."""
        out = self._cache.get("bytes_done")
        if out is None:
            out = (self.rowsum("driver", self.K * self.meta_rows("widths"))
                   + self.rowsum("valid", self.W))
            self._cache["bytes_done"] = out
        return out

    def wide(self, family: str) -> list[tuple[np.ndarray, np.ndarray]]:
        """:func:`wide_selections` of the ``family`` masks (cached)."""
        out = self._wide.get(family)
        if out is None:
            out = self._wide[family] = wide_selections(self.meta_rows(family))
        return out

    def rowsum(self, family: str, Z: np.ndarray) -> np.ndarray:
        """Per-row ``Z[r, sel].sum()`` over the ``family`` selection,
        bit-identical to the batch sums (:func:`masked_rowsums`)."""
        return masked_rowsums(Z, self.meta_rows(family), self.wide(family))

    def sums(self, family: str, source: str) -> np.ndarray:
        """Cached :meth:`rowsum` of a named source array family."""
        key = f"{family}:{source}"
        out = self._cache.get(key)
        if out is None:
            Z = self.totals if source == "totals" else getattr(self, source)
            out = self.rowsum(family, Z)
            self._cache[key] = out
        return out

    def driver_value(self, family: str) -> np.ndarray:
        """Per-row mirror of the DNE-family estimate (consumed/known)."""
        key = "dnev:" + family
        out = self._cache.get(key)
        if out is None:
            out = _clipped_ratio(self.sums(family, "K"),
                                 self.sums(family, "totals"))
            self._cache[key] = out
        return out


def padded(values: list[np.ndarray], width: int, fill, dtype) -> np.ndarray:
    """``(len(values), width)`` table whose row ``i`` starts with
    ``values[i]`` and holds ``fill`` after it."""
    filled = np.arange(width) < np.array([len(v) for v in values])[:, None]
    table = np.full(filled.shape, fill, dtype=dtype)
    table[filled] = np.concatenate(values)
    return table


def masked_rowsums(Z: np.ndarray, mask: np.ndarray,
                   wide: list | None = None) -> np.ndarray:
    """Per row ``r`` of the nonnegative ``(rows, width)`` array ``Z``,
    ``Z[r][mask[r]].sum()`` bit for bit.

    The zero-masked columns are accumulated in order, which is numpy's
    own order below :data:`_PAIRWISE_UNROLL` selected columns (see "Why
    bit-parity holds"); the rows of wider selections (``wide``, by
    default :func:`wide_selections` of ``mask``) are summed compacted by
    :func:`pairwise_rowsums`.
    """
    masked = np.where(mask, Z, 0.0)
    out = np.zeros(len(mask))
    for j in range(mask.shape[1]):
        out += masked[:, j]
    for rows, cols in wide_selections(mask) if wide is None else wide:
        out[rows] = pairwise_rowsums(Z[rows[:, None], cols])
    return out


def wide_selections(mask: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per selection width of :data:`_PAIRWISE_UNROLL` or more columns in
    the boolean ``(rows, width)`` ``mask``: the rows selecting that many
    columns and, row by row, their selected columns in order."""
    counts = mask.sum(axis=1)
    out = []
    for width in np.unique(counts[counts >= _PAIRWISE_UNROLL]).tolist():
        rows = np.flatnonzero(counts == width)
        out.append((rows, np.nonzero(mask[rows])[1].reshape(len(rows),
                                                             width)))
    return out


def pairwise_rowsums(C: np.ndarray) -> np.ndarray:
    """Per row of the compacted ``(rows, width)`` array ``C``, that row's
    ``ndarray.sum`` bit for bit (see "Why bit-parity holds").

    Below :data:`_PAIRWISE_UNROLL` columns the columns are added in order
    from ``0.0``; up to :data:`_PAIRWISE_BLOCK`, eight accumulators take
    every eighth column and combine pairwise before the leftover columns
    are added in order; wider rows are summed one by one.  Exact for the
    nonnegative values every kernel sums.
    """
    rows, width = C.shape
    if width >= _PAIRWISE_BLOCK:
        return np.array([row.sum() for row in C])
    if width < _PAIRWISE_UNROLL:
        out = np.zeros(rows)
        for j in range(width):
            out += C[:, j]
        return out
    acc = C[:, :_PAIRWISE_UNROLL].copy()
    end = width - width % _PAIRWISE_UNROLL
    for j in range(_PAIRWISE_UNROLL, end, _PAIRWISE_UNROLL):
        acc += C[:, j:j + _PAIRWISE_UNROLL]
    r = acc.T
    out = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for j in range(end, width):
        out += C[:, j]
    return out


def _safe_div(num: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """Vector mirror of :func:`repro.progress.base.safe_divide`."""
    out = np.zeros(np.broadcast(num, denom).shape)
    np.divide(num, denom, out=out, where=denom > 0)
    return out


def _clipped_ratio(num: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """:func:`_safe_div` clipped to ``[0, 1]`` (the DNE-family value)."""
    out = _safe_div(num, denom)
    return np.clip(out, 0.0, 1.0, out=out)


# -- per-kind batched states --------------------------------------------------


class BatchedStreamState:
    """The kernel of ONE estimator kind over every pipeline of a batch.

    Kernels are memoryless: they read the rows of the batch they are
    handed and their pipelines' metadata, and :meth:`advance` evaluates
    every row of a flush in one pass.
    """

    def __init__(self, estimator):
        self.estimator = estimator

    def advance(self, batch: FlushBatch) -> np.ndarray:
        raise NotImplementedError


class _BatchedDNE(BatchedStreamState):
    family = "driver"

    def advance(self, batch: FlushBatch) -> np.ndarray:
        return batch.driver_value(self.family)


class _BatchedBatchDNE(_BatchedDNE):
    family = "bdrv"


class _BatchedDNESeek(_BatchedDNE):
    family = "sdrv"


class _BatchedTGN(BatchedStreamState):
    def advance(self, batch: FlushBatch) -> np.ndarray:
        done = batch.sums("valid", "K")
        clipped = np.clip(batch.meta_rows("E0"), batch.LB, batch.UB)
        totals = batch.rowsum("valid", clipped)
        out = _safe_div(done, totals)
        return np.clip(out, 0.0, 1.0, out=out)


class _BatchedTGNInt(BatchedStreamState):
    def advance(self, batch: FlushBatch) -> np.ndarray:
        k_sum = batch.sums("valid", "K")
        dne = batch.driver_value("driver")
        denom = k_sum + (1.0 - dne) * batch.meta_rows("e0_sum")
        out = _safe_div(k_sum, np.maximum(denom, 1e-12))
        return np.clip(out, 0.0, 1.0, out=out)


class _BatchedRefinedTGN(BatchedStreamState):
    def advance(self, batch: FlushBatch) -> np.ndarray:
        alpha = batch.driver_value("driver")
        col = alpha[:, None]
        extrapolated = batch.K / np.maximum(col, 1e-9)
        refined = col * extrapolated + (1.0 - col) * batch.meta_rows("E0")
        refined = np.clip(np.maximum(refined, batch.K), batch.LB, batch.UB)
        done = batch.sums("valid", "K")
        totals = batch.rowsum("valid", refined)
        out = _safe_div(done, np.maximum(totals, 1e-12))
        return np.clip(out, 0.0, 1.0, out=out)


class _BatchedPMax(BatchedStreamState):
    def advance(self, batch: FlushBatch) -> np.ndarray:
        work = batch.sums("valid", "K")
        max_work = batch.sums("valid", "UB")
        out = _safe_div(work, np.maximum(max_work, 1e-12))
        return np.clip(out, 0.0, 1.0, out=out)


class _BatchedSafe(BatchedStreamState):
    def advance(self, batch: FlushBatch) -> np.ndarray:
        k_sum = batch.sums("valid", "K")
        ub_sum = batch.sums("valid", "UB")
        lb_sum = np.maximum(batch.sums("valid", "LB"), k_sum)
        lo = _safe_div(k_sum, np.maximum(ub_sum, 1e-12))
        hi = _safe_div(k_sum, np.maximum(lb_sum, 1e-12))
        out = np.sqrt(np.maximum(lo, 0.0) * np.maximum(hi, 0.0))
        return np.clip(out, 0.0, 1.0, out=out)


class _BatchedGetNext(BatchedStreamState):
    def advance(self, batch: FlushBatch) -> np.ndarray:
        total = batch.sums("valid", "N")
        out = _safe_div(batch.sums("valid", "K"), np.maximum(total, 1e-12))
        return np.clip(out, 0.0, 1.0, out=out)


class _BatchedBytesOracle(BatchedStreamState):
    def advance(self, batch: FlushBatch) -> np.ndarray:
        done = batch.bytes_done
        total = np.where(batch.meta_rows("has_oracle"),
                         batch.meta_rows("oracle_total"), done)
        out = _safe_div(done, np.maximum(total, 1e-12))
        return np.clip(out, 0.0, 1.0, out=out)


class BatchedLuoState(BatchedStreamState):
    """LUO: remaining bytes over the speed of its trailing window.

    Row ``r``'s window opens at row ``batch.window_row[r]`` (see
    :func:`window_starts`), so its value reads two rows of the batch:
    itself and that window start.
    """

    def __init__(self, estimator: LuoEstimator):
        super().__init__(estimator)
        self.speed_window = estimator.speed_window

    def advance(self, batch: FlushBatch) -> np.ndarray:
        done = batch.bytes_done
        el = batch.times - batch.meta_rows("t_start")
        base = (batch.rowsum("driver", batch.totals * batch.meta_rows("widths"))
                + batch.meta_rows("materialized_bytes_est"))
        alpha = batch.driver_value("driver")
        extrapolated = base.copy()
        np.divide(done, alpha, out=extrapolated, where=alpha > 1e-9)
        total = np.maximum(alpha * extrapolated + (1.0 - alpha) * base, done)
        start = batch.window_row
        dt = el - el[start]
        db = done - done[start]
        speed = np.zeros(len(batch))
        fast = (dt > 0) & (db > 0)
        np.divide(db, dt, out=speed, where=fast)
        active = el > 0  # the batch loop leaves these rows at 0
        lifetime = ~fast & (done > 0) & active
        np.divide(done, el, out=speed, where=lifetime)
        remaining = np.maximum(total - done, 0.0)
        moving = speed > 0
        rt = np.zeros(len(batch))
        # a near-zero speed overflows to inf: elapsed / inf is the
        # defined 0.0 (as in LuoEstimator.estimate)
        with np.errstate(over="ignore"):
            np.divide(remaining, speed, out=rt, where=moving)
        est = np.zeros(len(batch))
        np.divide(el, el + rt, out=est, where=moving & active)
        np.clip(est, 0.0, 1.0, out=est)
        value = np.where(moving, est, np.where(remaining > 0, 0.0, 1.0))
        return np.where(active, value, 0.0)


def window_starts(times: np.ndarray, t_start: float, first: int,
                  rows: np.ndarray, speed_window: float) -> np.ndarray:
    """Per row ``t`` of ``rows``, the row LUO's speed window opens at.

    That is the first row ``j`` in ``[first, t]`` with ``elapsed[t] -
    elapsed[j] <= speed_window`` (``elapsed = times - t_start``), the
    comparison :meth:`LuoEstimator.estimate`'s window loop makes, or
    ``t`` when no row qualifies.  ``times`` is a pipeline's logged times
    (nondecreasing, ``first`` its first row), so the comparison is
    monotone in ``j``: a ``searchsorted`` lands next to the boundary and
    the exact comparison settles it, one block of tied times per step.
    The cost is logarithmic in the log's length, never a scan of it.
    """
    rows = np.asarray(rows, dtype=np.int64)
    end = times[rows]
    el = end - t_start
    j = np.minimum(np.maximum(np.searchsorted(times, end - speed_window),
                              first), rows)
    while True:
        prev = np.maximum(j - 1, first)
        # the batch loop moves past row j while elapsed[t] - elapsed[j]
        # exceeds the window
        back = (j > first) & (el - (times[prev] - t_start) <= speed_window)
        ahead = (j < rows) & (el - (times[j] - t_start) > speed_window)
        if not (back.any() or ahead.any()):
            return j
        j = np.where(back, np.searchsorted(times, times[prev]), j)
        j = np.where(ahead, np.searchsorted(times, times[j], side="right"),
                     j)
        j = np.minimum(np.maximum(j, first), rows)


#: exact estimator classes each kernel mirrors; subclasses have none (their
#: overridden behaviour cannot be assumed to match the kernel)
_NATIVE = {
    DNEEstimator: _BatchedDNE,
    BatchDNEEstimator: _BatchedBatchDNE,
    DNESeekEstimator: _BatchedDNESeek,
    TGNEstimator: _BatchedTGN,
    TGNIntEstimator: _BatchedTGNInt,
    RefinedTGNEstimator: _BatchedRefinedTGN,
    PMaxEstimator: _BatchedPMax,
    SafeEstimator: _BatchedSafe,
    GetNextOracle: _BatchedGetNext,
    BytesProcessedOracle: _BatchedBytesOracle,
    LuoEstimator: BatchedLuoState,
}


def kernel_class(estimator) -> type[BatchedStreamState]:
    """The kernel of ``estimator``; ``ValueError`` if it has none."""
    cls = _NATIVE.get(type(estimator))
    if cls is None:
        raise ValueError(
            f"estimator {estimator!r} has no SoA kernel, so it cannot be "
            f"monitored online (kernels match exact classes only: "
            f"{sorted(c.__name__ for c in _NATIVE)}); score it offline "
            f"through estimate()")
    return cls


def batched_states(estimators: dict[str, object]
                   ) -> dict[str, BatchedStreamState]:
    """Batched state per estimator kind."""
    return {name: kernel_class(est)(est)
            for name, est in estimators.items()}


def kernel_estimates(estimator, pr: PipelineRun) -> np.ndarray:
    """The kernel of ``estimator`` over every observation of the pipeline
    view ``pr`` — equal to ``estimator.estimate(pr)`` bit-for-bit."""
    cls = kernel_class(estimator)
    window = estimator.speed_window if cls is BatchedLuoState else None
    batch = FlushBatch.of_pipeline_runs([pr], window)
    return cls(estimator).advance(batch)
