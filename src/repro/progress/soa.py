"""Structure-of-arrays estimator kernels: the one online estimation path.

Every online consumer — the solo :class:`~repro.core.monitor.ProgressMonitor`,
trace replay and the pooled service — advances the candidate estimators
through the kernels here; the batch ``estimate(pr)`` of each estimator
stays the definition they must reproduce bit-for-bit.  The state of all
live pipelines is laid out as *structure-of-arrays* batches keyed by
estimator kind:

* a :class:`PipelineMeta` captures everything about a pipeline that is
  immutable once it starts — operator kinds, optimizer estimates, row
  widths, table cardinalities, the driver mask;
* a :class:`SoAPool` holds the metadata of every packed pipeline as
  zero-padded ``(slots, width)`` arrays — optimizer estimates,
  driver/widened masks, known-source totals, materialized positions — one
  row per (session, pipeline) slot;
* a :class:`FlushBatch` carries one service flush's observation rows for
  all slots as flat ``(rows, width)`` arrays plus the shared derived
  quantities (``n_partial`` totals, masked row sums) every kernel needs;
* a :class:`BatchedStreamState` per estimator kind advances *all* rows in
  one NumPy pass — ``advance(batch)`` returns, per row, the value the
  estimator's ``estimate`` yields at that observation of its causal
  trajectory.

``pack`` adopts a pipeline into the pool when the service first captures
it and ``release`` frees the slot when the pipeline (or its session)
finishes.  Only the exact estimator classes in ``_NATIVE`` have a kernel;
the monitor refuses any other pool member at construction
(:func:`kernel_class`).  :func:`kernel_estimates` drives one kernel over a
completed run — the reference check against ``estimate``.

Why bit-parity holds
--------------------

NumPy's ``sum`` adds sequentially below its 8-way pairwise-unroll
threshold (starting from ``0.0``), and every quantity summed here is
nonnegative, so summing a zero-padded row column-by-column is a bitwise
no-op relative to summing the compacted selection — each padded position
contributes an exact ``x + 0.0 == x``.  Rows whose *selected* length
reaches the threshold would hit NumPy's unrolled accumulator tree
instead; those (rare) rows are precomputed at pack time and fixed up by
re-summing the compacted selection with ``np.sum`` itself
(:meth:`FlushBatch.rowsum`), so every row sum is produced by exactly the
reduction ``estimate`` applies to that observation's row.  All remaining
kernel arithmetic is elementwise and mirrors the batch formulas
operation-for-operation; the fuzz oracle's ``kernel`` layer gates both
the per-estimator trajectories and the served report streams against
``estimate``.
"""

from __future__ import annotations

import numpy as np

from repro.engine.run import _KNOWN_SOURCE_OPS, _MATERIALIZED_OPS, PipelineRun
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

#: mask families every kernel draws its row sums from
_FAMILIES = ("valid", "driver", "bdrv", "sdrv")


class PipelineMeta:
    """Immutable per-pipeline metadata, captured once when it starts.

    Mirrors the time-invariant fields of :class:`PipelineRun`; the derived
    index arrays pre-resolve the per-node branches of
    :meth:`PipelineRun.known_totals` so packing a slot (and the per-row
    ``N`` rule) is a couple of vectorized assignments.
    """

    __slots__ = (
        "pid", "query_name", "db_name", "t_start", "node_ids", "ops",
        "E0", "widths", "table_rows", "driver_mask", "parent_local",
        "materialized_bytes_est", "oracle_bytes_total",
        "known_source_idx", "materialized_idx",
        "mat_idx", "mat_child_ids",
    )

    def __init__(self, pid: int, query_name: str, db_name: str,
                 t_start: float, node_ids: np.ndarray, ops: list[Op],
                 E0: np.ndarray, widths: np.ndarray, table_rows: np.ndarray,
                 driver_mask: np.ndarray, parent_local: np.ndarray,
                 materialized_bytes_est: float = 0.0,
                 oracle_bytes_total: float | None = None,
                 mat_children: list[tuple[int, int]] | None = None):
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
        self.known_source_idx = np.array(
            [j for j, op in enumerate(ops)
             if op in _KNOWN_SOURCE_OPS and np.isfinite(table_rows[j])],
            dtype=np.int64)
        self.materialized_idx = np.array(
            [j for j, op in enumerate(ops) if op in _MATERIALIZED_OPS],
            dtype=np.int64)
        # (local index, global child node id) pairs for blocking sources
        # whose totals become exact once the *out-of-pipeline* build child
        # finishes — consumed by the per-row N rule
        pairs = mat_children or []
        self.mat_idx = np.array([j for j, _ in pairs], dtype=np.int64)
        self.mat_child_ids = np.array([c for _, c in pairs], dtype=np.int64)

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
        )

    def driver_fraction(self, K: np.ndarray, D: np.ndarray) -> float:
        """Fraction of driver input consumed at one log row.

        ``K`` and ``D`` are the row's full-width counter and done-flag
        vectors.  The dynamic-selection marker (§4.4), evaluated for one
        row without a flush: :meth:`PipelineRun.driver_fraction` under the
        live ``n_partial`` rule of :attr:`FlushBatch.N`.
        """
        cols = self.node_ids
        k = K[cols]
        totals = self.E0.copy()
        idx = self.known_source_idx
        if len(idx):
            totals[idx] = self.table_rows[idx]
        idx = self.materialized_idx
        if len(idx):
            done = D[cols]
            n_partial = np.where(done, k, self.E0)
            if len(self.mat_idx):
                child_done = D[self.mat_child_ids] & ~done[self.mat_idx]
                if child_done.any():
                    take = self.mat_idx[child_done]
                    n_partial[take] = K[self.mat_child_ids[child_done]]
            totals[idx] = n_partial[idx]
        mask = self.driver_mask
        denom = float(totals[mask].sum())
        if denom <= 0:
            return 0.0
        return float(np.clip(k[mask].sum() / denom, 0.0, 1.0))



class SoAPool:
    """Slot table of packed pipelines, shared by every batched kind.

    One slot per live (session, pipeline) pair; rows are zero-padded to
    the pool's current ``width`` (the widest member count seen).  The
    table grows by doubling and recycles released slots.
    """

    def __init__(self, capacity: int = 16, width: int = 4):
        self.capacity = capacity
        self.width = width
        self._free: list[int] = list(range(capacity - 1, -1, -1))
        self.metas: list[PipelineMeta | None] = [None] * capacity
        self.m = np.zeros(capacity, dtype=np.int64)
        self.t_start = np.zeros(capacity)
        self.mat_bytes = np.zeros(capacity)
        self.e0_sum = np.zeros(capacity)
        self.oracle_total = np.zeros(capacity)
        self.has_oracle = np.zeros(capacity, dtype=bool)
        shape = (capacity, width)
        self.E0 = np.zeros(shape)
        self.widths = np.zeros(shape)
        self.known_base = np.zeros(shape)
        self.sel = {f: np.zeros(shape, dtype=bool) for f in _FAMILIES}
        self.matpos = np.zeros(shape, dtype=bool)
        self.childpos = np.zeros(shape, dtype=bool)
        #: per family: slot -> local column indices of rows long enough to
        #: hit numpy's unrolled reduction (fixed up via np.sum directly)
        self.big: dict[str, dict[int, np.ndarray]] = {f: {} for f in _FAMILIES}

    @property
    def n_live(self) -> int:
        return self.capacity - len(self._free)

    def _widen(self, width: int) -> None:
        def grow2(a):
            out = np.zeros((self.capacity, width), dtype=a.dtype)
            out[:, : self.width] = a
            return out

        self.E0 = grow2(self.E0)
        self.widths = grow2(self.widths)
        self.known_base = grow2(self.known_base)
        self.sel = {f: grow2(a) for f, a in self.sel.items()}
        self.matpos = grow2(self.matpos)
        self.childpos = grow2(self.childpos)
        self.width = width

    def _grow(self) -> None:
        old = self.capacity
        cap = old * 2
        self._free.extend(range(cap - 1, old - 1, -1))
        self.metas.extend([None] * old)

        def grow1(a):
            out = np.zeros(cap, dtype=a.dtype)
            out[:old] = a
            return out

        def grow2(a):
            out = np.zeros((cap, self.width), dtype=a.dtype)
            out[:old] = a
            return out

        self.m = grow1(self.m)
        self.t_start = grow1(self.t_start)
        self.mat_bytes = grow1(self.mat_bytes)
        self.e0_sum = grow1(self.e0_sum)
        self.oracle_total = grow1(self.oracle_total)
        self.has_oracle = grow1(self.has_oracle)
        self.E0 = grow2(self.E0)
        self.widths = grow2(self.widths)
        self.known_base = grow2(self.known_base)
        self.sel = {f: grow2(a) for f, a in self.sel.items()}
        self.matpos = grow2(self.matpos)
        self.childpos = grow2(self.childpos)
        self.capacity = cap

    def pack(self, meta: PipelineMeta) -> int:
        """Adopt one pipeline's immutable metadata; returns its slot."""
        if not self._free:
            self._grow()
        m = meta.n_nodes
        if m > self.width:
            self._widen(max(m, self.width * 2))
        slot = self._free.pop()
        self.metas[slot] = meta
        self.m[slot] = m
        self.t_start[slot] = meta.t_start
        self.mat_bytes[slot] = meta.materialized_bytes_est
        # TGNINT's estimate sums E0 once per trajectory; the sum is
        # tick-invariant, so one np.sum at pack time is bit-identical
        self.e0_sum[slot] = float(meta.E0.sum())
        oracle = meta.oracle_bytes_total
        self.has_oracle[slot] = oracle is not None
        self.oracle_total[slot] = 0.0 if oracle is None else oracle
        for name in ("E0", "widths", "known_base"):
            getattr(self, name)[slot] = 0.0
        self.E0[slot, :m] = meta.E0
        self.widths[slot, :m] = meta.widths
        base = meta.E0.copy()
        if len(meta.known_source_idx):
            base[meta.known_source_idx] = meta.table_rows[meta.known_source_idx]
        self.known_base[slot, :m] = base
        ops = meta.ops
        sel = self.sel
        for f in _FAMILIES:
            sel[f][slot] = False
        sel["valid"][slot, :m] = True
        sel["driver"][slot, :m] = meta.driver_mask
        # the widened families mirror BATCHDNE's / DNESEEK's node_mask
        sel["bdrv"][slot, :m] = meta.driver_mask | np.array(
            [op == Op.BATCH_SORT for op in ops])
        sel["sdrv"][slot, :m] = meta.driver_mask | np.array(
            [op == Op.INDEX_SEEK for op in ops])
        self.matpos[slot] = False
        self.childpos[slot] = False
        if len(meta.materialized_idx):
            self.matpos[slot, meta.materialized_idx] = True
        if len(meta.mat_idx):
            self.childpos[slot, meta.mat_idx] = True
        for f in _FAMILIES:
            idx = np.flatnonzero(sel[f][slot, :m])
            if len(idx) >= _PAIRWISE_UNROLL:
                self.big[f][slot] = idx
            else:
                self.big[f].pop(slot, None)
        return slot

    def release(self, slot: int) -> None:
        """Free a slot when its pipeline (or session) completes."""
        self.metas[slot] = None
        for f in _FAMILIES:
            self.big[f].pop(slot, None)
        self._free.append(slot)


class FlushBatch:
    """One flush's observation rows for every active slot, flattened.

    Rows are grouped per slot (``slot_rows[slot] = (lo, hi)`` flat range)
    in ascending time order; ``ordinals[s]`` lists the flat indices of
    each slot's ``s``-th row, the iteration order stateful kernels need.
    ``CK``/``CD`` overlay the out-of-pipeline build child's counter/done
    columns at the blocking-source positions (``pool.childpos``).
    """

    def __init__(self, pool: SoAPool, slots: np.ndarray, times: np.ndarray,
                 K: np.ndarray, W: np.ndarray, LB: np.ndarray,
                 UB: np.ndarray, D: np.ndarray, CK: np.ndarray,
                 CD: np.ndarray, slot_rows: dict[int, tuple[int, int]],
                 ordinals: list[np.ndarray]):
        self.pool = pool
        self.slots = slots
        self.times = times
        self.K = K
        self.W = W
        self.LB = LB
        self.UB = UB
        self.D = D
        self.CK = CK
        self.CD = CD
        self.slot_rows = slot_rows
        self.ordinals = ordinals
        self._cache: dict[str, np.ndarray] = {}
        self._fixes: dict[str, list[tuple[int, np.ndarray]]] = {}

    @classmethod
    def of_pipeline_run(cls, pr: PipelineRun) -> "FlushBatch":
        """A one-slot batch over a completed run, ``N`` fixed at the truth.

        Row ``t`` is observation ``t``: the layout in which every kernel
        must reproduce ``estimate(pr)`` (see :func:`kernel_estimates`).
        """
        pool = SoAPool(capacity=1)
        slot = pool.pack(PipelineMeta.from_pipeline_run(pr))
        rows, m, width = pr.n_observations, pr.n_nodes, pool.width

        def pad(a: np.ndarray) -> np.ndarray:
            out = np.zeros((rows, width), dtype=a.dtype)
            out[:, :m] = a
            return out

        unset = np.zeros((rows, width), dtype=bool)
        batch = cls(pool, np.full(rows, slot, dtype=np.int64), pr.times,
                    pad(pr.K), pad(pr.W), pad(pr.LB), pad(pr.UB),
                    D=unset, CK=np.zeros((rows, width)), CD=unset,
                    slot_rows={slot: (0, rows)},
                    ordinals=[np.array([t]) for t in range(rows)])
        batch._cache["N"] = pad(np.broadcast_to(pr.N, (rows, m)))
        return batch

    def __len__(self) -> int:
        return len(self.slots)

    # -- shared derived rows -------------------------------------------------

    def meta_rows(self, name: str) -> np.ndarray:
        """Per-row view of a pool metadata array (cached gather)."""
        key = "meta:" + name
        out = self._cache.get(key)
        if out is None:
            out = getattr(self.pool, name)[self.slots]
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

    def fixes(self, family: str) -> list[tuple[int, np.ndarray]]:
        out = self._fixes.get(family)
        if out is None:
            out = []
            for slot, idx in self.pool.big[family].items():
                rng = self.slot_rows.get(slot)
                if rng is not None:
                    out.extend((r, idx) for r in range(rng[0], rng[1]))
            self._fixes[family] = out
        return out

    def rowsum(self, family: str, Z: np.ndarray) -> np.ndarray:
        """Per-row ``Z[r, sel].sum()``, bit-identical to the batch sums.

        Sequential column accumulation over the zero-masked rows (exact
        for selections below numpy's unroll threshold — see the module
        docstring), with threshold-length rows re-summed compacted.
        """
        masked = np.where(self.pool.sel[family][self.slots], Z, 0.0)
        out = np.zeros(len(masked))
        for j in range(masked.shape[1]):
            out += masked[:, j]
        for r, idx in self.fixes(family):
            out[r] = Z[r, idx].sum()
        return out

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
            out = _safe_div(self.sums(family, "K"), self.sums(family, "totals"))
            np.clip(out, 0.0, 1.0, out=out)
            self._cache[key] = out
        return out


def _safe_div(num: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """Vector mirror of :func:`repro.progress.base.safe_divide`."""
    out = np.zeros(np.broadcast(num, denom).shape)
    np.divide(num, denom, out=out, where=denom > 0)
    return out


# -- per-kind batched states --------------------------------------------------


class BatchedStreamState:
    """All packed pipelines' online state for ONE estimator kind.

    Memoryless kinds share the pool's metadata and carry no per-slot
    state; :meth:`advance` evaluates every row of a flush in one pass.
    Stateful kinds (LUO) additionally keep per-slot history aligned to
    the pool's slots, managed through :meth:`pack` / :meth:`release`.
    """

    stateful = False

    def __init__(self, estimator, pool: SoAPool):
        self.estimator = estimator
        self.pool = pool

    def pack(self, slot: int) -> None:
        """Initialize per-slot state (no-op for memoryless kinds)."""

    def release(self, slot: int) -> None:
        """Drop per-slot state (no-op for memoryless kinds)."""

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
    """LUO's trailing speed window, one ring per slot.

    Each slot's window lives in a row of the ``(slots, cap)`` ring
    arrays between ``head`` and ``wpos`` (monotone write cursor, no
    wraparound) — the observations the batch loop's ``window_start``
    pointer has not yet skipped.  When a row runs out of columns the live
    entries of all rows are compacted to the front; every entry still
    enters and leaves at most once, so a tick is amortized O(1).
    """

    stateful = True

    def __init__(self, estimator: LuoEstimator, pool: SoAPool):
        super().__init__(estimator, pool)
        self.speed_window = estimator.speed_window
        self._cap = 8
        self._rows = pool.capacity
        self.ew = np.zeros((self._rows, self._cap))
        self.dw = np.zeros((self._rows, self._cap))
        self.head = np.zeros(self._rows, dtype=np.int64)
        self.wpos = np.zeros(self._rows, dtype=np.int64)

    @property
    def count(self) -> np.ndarray:
        return self.wpos - self.head

    def pack(self, slot: int) -> None:
        if slot >= self._rows:
            rows = max(slot + 1, self._rows * 2)
            for name in ("ew", "dw"):
                out = np.zeros((rows, self._cap))
                out[: self._rows] = getattr(self, name)
                setattr(self, name, out)
            for name in ("head", "wpos"):
                out = np.zeros(rows, dtype=np.int64)
                out[: self._rows] = getattr(self, name)
                setattr(self, name, out)
            self._rows = rows
        self.head[slot] = self.wpos[slot] = 0

    release = pack  # freeing and re-initializing a ring are the same reset

    def _compact(self) -> None:
        count = self.count
        maxc = int(count.max()) if len(count) else 0
        cap = self._cap
        while cap // 2 >= maxc + 1 and cap > 8:
            cap //= 2
        while cap < maxc + 1:
            cap *= 2
        take = np.minimum(self.head[:, None] + np.arange(max(maxc, 1)),
                          self._cap - 1)
        rows = np.arange(self._rows)[:, None]
        new_ew = np.zeros((self._rows, cap))
        new_dw = np.zeros((self._rows, cap))
        if maxc:
            new_ew[:, :maxc] = self.ew[rows, take]
            new_dw[:, :maxc] = self.dw[rows, take]
        self.ew, self.dw = new_ew, new_dw
        self.head[:] = 0
        self.wpos = count
        self._cap = cap

    def advance(self, batch: FlushBatch,
                row_mask: np.ndarray | None = None) -> np.ndarray:
        """Advance the rings over a flush's rows, in per-slot tick order.

        ``row_mask`` restricts to rows whose slot still carries a live
        LUO state; other rows are left at 0 (their value is never read).
        """
        out = np.zeros(len(batch))
        # per-row tick-invariant inputs, shared across the ordinal loop
        done = batch.bytes_done
        elapsed = batch.times - batch.meta_rows("t_start")
        base = (batch.rowsum("driver", batch.totals * batch.meta_rows("widths"))
                + batch.meta_rows("mat_bytes"))
        alpha = batch.driver_value("driver")
        extrapolated = base.copy()
        np.divide(done, alpha, out=extrapolated, where=alpha > 1e-9)
        total = np.maximum(alpha * extrapolated + (1.0 - alpha) * base, done)
        window = self.speed_window
        for idx in batch.ordinals:
            if row_mask is not None:
                idx = idx[row_mask[idx]]
            if not len(idx):
                continue
            sl = batch.slots[idx]
            el = elapsed[idx]
            dn = done[idx]
            if (self.wpos[sl] >= self._cap).any():
                self._compact()
            self.ew[sl, self.wpos[sl]] = el
            self.dw[sl, self.wpos[sl]] = dn
            self.wpos[sl] += 1
            active = el > 0  # the batch loop skips these before popping
            while True:
                pop = (active & (self.count[sl] > 1)
                       & (el - self.ew[sl, self.head[sl]] > window))
                if not pop.any():
                    break
                self.head[sl[pop]] += 1
            dt = el - self.ew[sl, self.head[sl]]
            db = dn - self.dw[sl, self.head[sl]]
            speed = np.zeros(len(idx))
            fast = (dt > 0) & (db > 0)
            np.divide(db, dt, out=speed, where=fast)
            lifetime = ~fast & (dn > 0) & active
            np.divide(dn, el, out=speed, where=lifetime)
            remaining = np.maximum(total[idx] - dn, 0.0)
            moving = speed > 0
            rt = np.zeros(len(idx))
            # a near-zero speed overflows to inf: elapsed / inf is the
            # defined 0.0 (as in LuoEstimator.estimate)
            with np.errstate(over="ignore"):
                np.divide(remaining, speed, out=rt, where=moving)
            est = np.zeros(len(idx))
            np.divide(el, el + rt, out=est, where=moving & active)
            np.clip(est, 0.0, 1.0, out=est)
            value = np.where(moving, est,
                             np.where(remaining > 0, 0.0, 1.0))
            out[idx] = np.where(active, value, 0.0)
        return out


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


def batched_states(estimators: dict[str, object], pool: SoAPool
                   ) -> dict[str, BatchedStreamState]:
    """Batched state per estimator kind, all over ``pool``."""
    return {name: kernel_class(est)(est, pool)
            for name, est in estimators.items()}


def kernel_estimates(estimator, pr: PipelineRun) -> np.ndarray:
    """The kernel of ``estimator`` over every observation of a completed
    run — equal to ``estimator.estimate(pr)`` bit-for-bit."""
    batch = FlushBatch.of_pipeline_run(pr)
    state = kernel_class(estimator)(estimator, batch.pool)
    state.pack(0)
    return state.advance(batch)
