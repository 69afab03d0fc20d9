"""Structure-of-arrays estimator kernels: the one online estimation path.

Every online consumer — the solo :class:`~repro.core.monitor.ProgressMonitor`,
trace replay, the pooled service and the dynamic features — advances the
estimators through the kernels here; the batch ``estimate(pr)`` of each
estimator stays the definition they must reproduce bit-for-bit.  One
flush's rows of every live pipeline are laid out as *structure-of-arrays*
batches and evaluated per estimator kind:

* a :class:`PipelineMeta` captures everything about a pipeline that its
  plan fixes — operator kinds, optimizer estimates, row widths, table
  cardinalities, the driver mask — and derives its kernel metadata once,
  at its own width: known-source totals, the per-family selection masks
  and materialized positions.  It holds nothing of one execution, so the
  flush builds it once per plan (:class:`~repro.engine.run.PlanStatic`)
  and every session over that plan shares it;
* a :class:`MetaTable` lays each :class:`PipelineMeta` kernel field out
  once over a list of pipelines — the flush's running pipelines, shared
  by every batch of the flush — plus the one per-execution column,
  ``t_start``, each pipeline's start time in the execution whose rows
  the batches hold;
* a :class:`FlushBatch` carries one flush's observation rows for a set of
  pipelines as flat ``(rows, width)`` arrays, zero-padded to the widest
  pipeline it holds, reads each row's metadata off a :class:`MetaTable`
  on demand and caches the derived quantities (``n_partial`` totals,
  masked row sums) every kernel shares;
* a :class:`BatchedStreamState` per estimator kind advances *all* rows in
  one NumPy pass — ``advance(batch)`` returns, per row, the value the
  estimator's ``estimate`` yields at that observation of its causal
  trajectory.

Kernels keep no state of their own: each is a function of the rows it is
handed and of their pipelines' metadata.  LUO's speed over its trailing
window reads one more row, the row the window opens at
(:func:`window_starts`): row ``window_row[r]`` of the batch's
``window``, the flush's window-start rows, or of the batch itself.  Only
the exact estimator classes in ``_NATIVE`` have a kernel; the monitor
refuses any other pool member at construction (:func:`kernel_class`),
the §6.7 oracles of :mod:`repro.progress.gold` included: they read the
finished run, so they are scored offline through ``estimate``.
:meth:`FlushBatch.of_pipeline_runs` lays whole pipeline views out:
training's feature batch, and :func:`kernel_estimates`' check against
``estimate``; the flush indexes its openings' views out of its own row
table (:meth:`FlushBatch.as_views`).

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

from repro.engine.run import _KNOWN_SOURCE_OPS, _MATERIALIZED_OPS, PipelineRun
from repro.plan.nodes import Op
from repro.progress.batchdne import BatchDNEEstimator
from repro.progress.dne import DNEEstimator
from repro.progress.dneseek import DNESeekEstimator
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
    """Immutable per-pipeline metadata: what the plan fixes.

    Mirrors the plan-static fields of :class:`PipelineRun` and derives
    the kernels' per-node metadata from them once, at the pipeline's own
    width: ``known_base`` (the totals of :meth:`PipelineRun.known_totals`
    that never change), one selection mask per row-sum family
    (``valid``, ``driver``, ``bdrv``, ``sdrv``), the ``matpos`` /
    ``childpos`` positions of the per-row ``N`` rule.  Nothing here
    belongs to one execution — no total of a finished run, and the start
    time ``t_start`` is a :class:`MetaTable` column — so the flush
    builds one per pipeline of a
    plan record (:class:`~repro.engine.run.PlanStatic`) and every session
    over that plan reads it.  ``static_features`` is the pipeline's §4.3
    feature row, filled the first time a selector extracts it
    (:func:`repro.features.vector.static_rows`).
    """

    __slots__ = (
        "pid", "node_ids", "ops",
        "E0", "widths", "table_rows", "driver_mask", "parent_local",
        "materialized_bytes_est", "mat_idx", "mat_child_ids",
        "known_base", "valid", "driver", "bdrv", "sdrv", "matpos",
        "childpos", "e0_sum", "static_features",
    )

    def __init__(self, pid: int, node_ids: np.ndarray,
                 ops: list[Op], E0: np.ndarray, widths: np.ndarray,
                 table_rows: np.ndarray, driver_mask: np.ndarray,
                 parent_local: np.ndarray,
                 materialized_bytes_est: float = 0.0,
                 mat_idx: np.ndarray | None = None,
                 mat_child_ids: np.ndarray | None = None):
        self.pid = pid
        self.node_ids = node_ids
        self.ops = ops
        self.E0 = E0
        self.widths = widths
        self.table_rows = table_rows
        self.driver_mask = driver_mask
        self.parent_local = parent_local
        self.materialized_bytes_est = materialized_bytes_est
        self.matpos = np.array([op in _MATERIALIZED_OPS for op in ops],
                               dtype=bool)
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
        self.static_features: np.ndarray | None = None

    @property
    def n_nodes(self) -> int:
        return len(self.ops)

    @classmethod
    def from_pipeline_run(cls, pr: PipelineRun) -> "PipelineMeta":
        """The metadata of a pipeline view (a recorded pipeline, or a
        ``live_pipeline_run`` view): its plan-static fields only."""
        return cls(
            pid=pr.pid, node_ids=pr.node_ids, ops=pr.ops,
            E0=pr.E0, widths=pr.widths, table_rows=pr.table_rows,
            driver_mask=pr.driver_mask, parent_local=pr.parent_local,
            materialized_bytes_est=pr.materialized_bytes_est,
            mat_idx=pr.mat_idx, mat_child_ids=pr.mat_child_ids,
        )


class MetaTable:
    """Each :class:`PipelineMeta` kernel field laid out once over a list
    of pipelines: a scalar per pipeline, or the node arrays zero-padded
    to ``width`` (at least the widest pipeline).  The flush lays one out
    over its running pipelines and every batch of the flush indexes it
    (:meth:`FlushBatch.meta_rows`).

    ``t_start`` is the one per-execution column: per pipeline, its start
    time in the execution whose rows the batches hold (the flush's
    ``ctx.pipe_first``, a pipeline view's ``PipelineRun.t_start``).  The
    metas are plan-static and may be shared by executions that started
    them at different times.
    """

    def __init__(self, metas: list[PipelineMeta], width: int, t_start):
        self.metas = metas
        self.width = width
        self._fields: dict[str, np.ndarray] = {
            "t_start": np.asarray(t_start, dtype=float)}

    def field(self, name: str) -> np.ndarray:
        """The ``(pipelines,)`` or ``(pipelines, width)`` table of one
        field (cached)."""
        out = self._fields.get(name)
        if out is None:
            values = [getattr(meta, name) for meta in self.metas]
            if np.ndim(values[0]):
                dtype = bool if values[0].dtype == bool else float
                out = padded(values, self.width, 0, dtype)
            else:
                out = np.array(values)
            self._fields[name] = out
        return out


class FlushBatch:
    """One flush's observation rows for a set of pipelines, flattened.

    Range ``i`` holds flat rows ``ranges[i] = (lo, hi)`` of the pipeline
    ``metas[i]``; the ranges tile the batch in order and within one range
    rows come in any order.  Row arrays are ``(rows, width)``, zero-padded
    to the widest pipeline.  LUO's speed window for row ``r`` opens at
    row ``window_row[r]`` of ``window``, or of the batch itself while
    ``window`` is ``None`` (no self-reference cycle); only the flush's
    report batch, holding report rows only, gets its window-start rows
    as a batch of their own.  Row metadata comes from ``meta_table``
    (range ``i`` is its entry ``meta_index[i]``), by default ``metas``
    laid out with ``t_start``, one start time per range.  ``CK``/``CD``
    overlay the out-of-pipeline build child's counter/done columns at the
    blocking-source positions (``PipelineMeta.childpos``).
    """

    def __init__(self, metas: list[PipelineMeta],
                 ranges: list[tuple[int, int]], times: np.ndarray,
                 K: np.ndarray, W: np.ndarray, LB: np.ndarray,
                 UB: np.ndarray, D: np.ndarray, CK: np.ndarray,
                 CD: np.ndarray, window_row: np.ndarray,
                 t_start=None, meta_table: MetaTable | None = None,
                 meta_index: np.ndarray | None = None):
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
        self.window = None
        #: per row, the index of its pipeline in ``metas``
        self.owner = np.repeat(np.arange(len(metas)),
                               [hi - lo for lo, hi in ranges])
        #: the metadata table ``meta_rows`` reads (by default laid out
        #: over ``metas`` and ``t_start`` on first use) and, per range,
        #: its entry there
        self.meta_table = meta_table
        self.meta_index = meta_index
        self._t_start = t_start
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
        counts = [pr.n_observations for pr in prs]
        bounds = np.cumsum([0] + counts)
        ranges = list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))
        shape = (int(bounds[-1]), max((pr.n_nodes for pr in prs), default=0))
        times = np.concatenate([np.zeros(0)] + [pr.times for pr in prs])
        window_row = np.arange(shape[0])
        if speed_window is not None and prs:
            window_row = window_starts(
                times, np.repeat([pr.t_start for pr in prs], counts),
                np.repeat(bounds[:-1], counts), window_row, speed_window)
        rows = {name: np.zeros(shape) for name in ("K", "W", "LB", "UB", "N")}
        for pr, (lo, hi) in zip(prs, ranges):
            for name, out in rows.items():
                out[lo:hi, :pr.n_nodes] = getattr(pr, name)
        unset = np.zeros(shape, dtype=bool)
        batch = cls([PipelineMeta.from_pipeline_run(pr) for pr in prs],
                    ranges, times, rows["K"], rows["W"], rows["LB"],
                    rows["UB"], D=unset, CK=np.zeros(shape), CD=unset,
                    window_row=window_row,
                    t_start=[pr.t_start for pr in prs])
        batch._cache["N"] = rows["N"]
        return batch

    def __len__(self) -> int:
        return len(self.times)

    @property
    def width(self) -> int:
        return self.K.shape[1]

    # -- shared derived rows -------------------------------------------------

    def meta_rows(self, name: str) -> np.ndarray:
        """Per-row layout of one :class:`MetaTable` field (a
        :class:`PipelineMeta` kernel field or ``t_start``): a scalar per
        row, or the pipeline's node array zero-padded to ``width``
        (cached): row ``meta_index[owner]`` of the metadata table, sliced
        to the batch's width."""
        key = "meta:" + name
        out = self._cache.get(key)
        if out is None:
            if self.meta_table is None:
                self.meta_table = MetaTable(self.metas, self.width,
                                            self._t_start)
            field = self.meta_table.field(name)
            if field.ndim > 1:
                field = field[:, :self.width]
            at = (self.owner if self.meta_index is None
                  else self.meta_index[self.owner])
            out = self._cache[key] = field[at]
        return out

    def as_views(self) -> "FlushBatch":
        """Fix each range's ``N`` at its last row: a range of a
        pipeline's consecutive rows becomes its causal view as of that
        row (what ``FeatureExtractor.extract`` reads).  Returns self."""
        last = np.array([hi - 1 for _, hi in self.ranges], dtype=np.int64)
        self._cache["N"] = self.N[last[self.owner]]
        return self

    @property
    def N(self) -> np.ndarray:
        """Per-row ``n_partial``: a finished node's counter; a blocking
        source whose build child finished, the child's counter; else E0
        (:func:`~repro.engine.run.partial_totals` at each row)."""
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
        """Per-row LUO numerator."""
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


class BatchedLuoState(BatchedStreamState):
    """LUO: remaining bytes over the speed of its trailing window.

    Row ``r``'s window opens at row ``batch.window_row[r]`` of
    ``batch.window`` (the batch itself if ``None``; :func:`window_starts`),
    so its value reads two rows: itself and that window start.
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
        window = batch if batch.window is None else batch.window
        dt = el - (window.times - window.meta_rows("t_start"))[start]
        db = done - window.bytes_done[start]
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


def window_starts(times: np.ndarray, t_start, first, rows: np.ndarray,
                  speed_window: float) -> np.ndarray:
    """Per row ``t`` of ``rows``, the row LUO's speed window opens at.

    That is the first row ``j`` in ``[first, t]`` with ``elapsed[t] -
    elapsed[j] <= speed_window`` (``elapsed = times - t_start``), the
    comparison :meth:`LuoEstimator.estimate`'s window loop makes, or
    ``t`` when no row qualifies.  ``t_start`` and ``first`` are scalars
    or one per row, so one call serves rows of many pipelines, of one
    log or of several logs laid end to end in ``times``.  Each row's
    ``times[first:t + 1]`` is nondecreasing, so ``times[j] - t_start``
    is too (rounding is monotone) and the comparison holds from some
    ``j`` on: one vectorized bisection over every row's ``[first, t]``
    finds that ``j`` exactly, tied times included, in as many steps as
    the longest range has bits, never a scan of the log.
    """
    rows = np.asarray(rows, dtype=np.int64)
    el = times[rows] - t_start
    lo, hi = np.minimum(first, rows), rows
    while (lo < hi).any():
        mid = (lo + hi) // 2
        # the batch loop moves past row mid while elapsed[t] -
        # elapsed[mid] exceeds the window
        inside = el - (times[mid] - t_start) <= speed_window
        hi = np.where(inside, mid, hi)
        lo = np.where(inside, lo, np.minimum(mid + 1, hi))
    return lo


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
