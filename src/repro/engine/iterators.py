"""Batch Volcano operators.

Every operator is a pull-based iterator over :class:`~repro.engine.chunk.Chunk`
batches.  Operators do three things on every batch: produce output rows
(computed for real from the data), *charge* the simulated clock through the
execution context (which also advances the counters ``K/R/W`` and may take
an observation snapshot), and mark themselves done when exhausted.

Conventions that matter to progress estimation:

* ``K_i`` counts rows *produced* by node *i* — the GetNext calls of §3.1.
* Blocking work (hash build, sort build, hash-aggregate build) is charged
  with the pipeline id of the *input* pipeline, so pipeline activity
  windows match the paper's pipeline semantics.
* Spilled rows are charged as additional GetNext calls at the spilling
  node: once when written, once when re-read (§3.1, counter (1)).
* The inner side of a nested-loop join implements a ``probe`` interface
  instead of free-running iteration; its nodes still count GetNext calls.
* Sources emit only the columns some operator above them reads
  (:func:`emitted_columns`); byte charges come from schema row widths and
  plan estimates, never from the columns a chunk carries, so pruning moves
  no counter.
"""

from __future__ import annotations

import numpy as np

from repro.catalog.table import SortedMatcher, Table
from repro.engine.chunk import Chunk
from repro.plan.nodes import Op, PlanNode
from repro.query.logical import NULL_FLOAT, NULL_INT
from repro.query.predicates import evaluate_all


class BatchIterator:
    """Base class: wraps ``_next`` with exhaustion/done bookkeeping."""

    def __init__(self, node: PlanNode, ctx):
        self.node = node
        self.ctx = ctx
        self._exhausted = False

    def open(self) -> None:
        """Prepare for iteration (blocking operators do their build here)."""

    def next_chunk(self) -> Chunk | None:
        if self._exhausted:
            return None
        chunk = self._next()
        if chunk is None:
            self._exhausted = True
            self.ctx.mark_done(self.node)
        return chunk

    def _next(self) -> Chunk | None:
        raise NotImplementedError

    def close(self) -> None:
        """Mark this subtree exhausted (early termination by TOP)."""
        self._exhausted = True


# ---------------------------------------------------------------------------
# sources
# ---------------------------------------------------------------------------

def _emitted_arrays(node: PlanNode, table: Table,
                    ctx) -> list[tuple[str, np.ndarray]]:
    """``(name, table column)`` of every column source ``node`` emits."""
    return [(name, table.data[name])
            for name in ctx.emitted_columns[node.node_id]]


class TableScanIterator(BatchIterator):
    """Sequential scan of a base table (heap or clustered order)."""

    def open(self) -> None:
        self.table: Table = self.ctx.db.table(self.node.params["table"])
        self._columns = _emitted_arrays(self.node, self.table, self.ctx)
        self._pos = 0

    def _next(self) -> Chunk | None:
        start = self._pos
        if start >= self.table.n_rows:
            return None
        stop = min(start + self.ctx.batch_size, self.table.n_rows)
        chunk = Chunk({name: arr[start:stop] for name, arr in self._columns},
                      stop - start)
        self._pos = stop
        self.ctx.charge(self.node, rows=len(chunk),
                        r_bytes=len(chunk) * self.table.row_width)
        return chunk


class IndexScanIterator(TableScanIterator):
    """Ordered scan along the clustered index (data is stored sorted)."""


class IndexSeekSourceIterator(BatchIterator):
    """Range/equality seek used as a free-standing tuple source.

    ``params``: ``table``, ``column``, ``low``, ``high`` (inclusive range).
    """

    def open(self) -> None:
        self.table = self.ctx.db.table(self.node.params["table"])
        self._columns = _emitted_arrays(self.node, self.table, self.ctx)
        index = self.table.seek_index(self.node.params["column"])
        low, high = self.node.params["low"], self.node.params["high"]
        self._positions = index.lookup_range(low, high)
        self._pos = 0
        self.ctx.charge(self.node, rows=0,
                        extra_seconds=self.ctx.cost.seek_probe_seconds)

    def _next(self) -> Chunk | None:
        if self._pos >= len(self._positions):
            return None
        stop = min(self._pos + self.ctx.batch_size, len(self._positions))
        take = self._positions[self._pos:stop]
        chunk = Chunk({name: arr[take] for name, arr in self._columns},
                      len(take))
        self._pos = stop
        r_bytes = len(chunk) * self.table.row_width
        penalty_seconds = (r_bytes * (self.ctx.cost.seek_read_penalty - 1.0)
                           * self.ctx.cost.seconds_per_byte_read)
        self.ctx.charge(self.node, rows=len(chunk), r_bytes=r_bytes,
                        extra_seconds=penalty_seconds)
        return chunk


# ---------------------------------------------------------------------------
# streaming unary operators
# ---------------------------------------------------------------------------

class FilterIterator(BatchIterator):
    """Residual predicate application.  ``params``: ``predicates``."""

    def __init__(self, node: PlanNode, ctx, child: BatchIterator):
        super().__init__(node, ctx)
        self.child = child

    def open(self) -> None:
        self.child.open()
        self.predicates = self.node.params["predicates"]

    def _next(self) -> Chunk | None:
        chunk = self.child.next_chunk()
        if chunk is None:
            return None
        if len(chunk) == 0:
            return chunk
        mask = evaluate_all(self.predicates, chunk.data)
        out = chunk.select(mask)
        self.ctx.charge(self.node, rows=len(out), cpu_rows=len(chunk))
        return out

    def close(self) -> None:
        super().close()
        self.child.close()


class TopIterator(BatchIterator):
    """Row limit with early termination.  ``params``: ``k``."""

    def __init__(self, node: PlanNode, ctx, child: BatchIterator):
        super().__init__(node, ctx)
        self.child = child

    def open(self) -> None:
        self.child.open()
        self._emitted = 0
        self._k = int(self.node.params["k"])

    def _next(self) -> Chunk | None:
        if self._emitted >= self._k:
            self.child.close()
            return None
        chunk = self.child.next_chunk()
        if chunk is None:
            return None
        remaining = self._k - self._emitted
        if len(chunk) > remaining:
            chunk = chunk.slice(0, remaining)
        self._emitted += len(chunk)
        self.ctx.charge(self.node, rows=len(chunk))
        return chunk

    def close(self) -> None:
        super().close()
        self.child.close()


# ---------------------------------------------------------------------------
# sorts
# ---------------------------------------------------------------------------

def _sort_order(chunk: Chunk, keys: list[str]) -> np.ndarray:
    arrays = [chunk.column(k) for k in reversed(keys)]
    return np.lexsort(arrays)


class SortIterator(BatchIterator):
    """Fully blocking sort; spills when the input exceeds the grant.

    ``params``: ``keys`` (sort columns, major first).
    """

    def __init__(self, node: PlanNode, ctx, child: BatchIterator):
        super().__init__(node, ctx)
        self.child = child

    def open(self) -> None:
        self.child.open()
        child_pid = self.ctx.pipeline_of(self.child.node)
        chunks = []
        total = 0
        while (chunk := self.child.next_chunk()) is not None:
            if len(chunk):
                chunks.append(chunk)
                total += len(chunk)
        buffered = Chunk.concat(chunks)
        width = self.child.node.est_row_width
        spill = self.ctx.memory.request(total, width)
        if spill.spilled:
            # Run generation: spilled rows written now, re-read while merging.
            # The extra GetNext calls and bytes surface at the build
            # pipeline's terminal node (the sort's input), which is where
            # the Bytes-Processed model counts segment-output bytes.
            self.ctx.charge(self.child.node, rows=spill.spilled_rows,
                            w_bytes=spill.spilled_bytes, pid=child_pid)
            self.ctx.charge(self.child.node, rows=spill.spilled_rows,
                            r_bytes=spill.spilled_bytes, pid=child_pid)
        if total:
            order = _sort_order(buffered, self.node.params["keys"])
            self._sorted = buffered.take(order)
        else:
            self._sorted = buffered
        self.ctx.charge(self.node, rows=0, pid=child_pid,
                        extra_seconds=self.ctx.cost.sort_cpu_seconds(total, total))
        # Materialization write (the sort output buffer).
        self.ctx.charge(self.child.node, rows=0, pid=child_pid,
                        w_bytes=total * width)
        self._pos = 0

    def _next(self) -> Chunk | None:
        if self._pos >= len(self._sorted):
            return None
        stop = min(self._pos + self.ctx.batch_size, len(self._sorted))
        chunk = self._sorted.slice(self._pos, stop)
        self._pos = stop
        self.ctx.charge(self.node, rows=len(chunk))
        return chunk

    def close(self) -> None:
        super().close()
        self.child.close()


class BatchSortIterator(BatchIterator):
    """Partial (batch-wise) sort used below nested iterations (§5.1).

    Consumes a batch of the outer input, sorts it on the join key to
    localize inner references, then emits it; the batch size may grow
    geometrically during execution, as in SQL Server's dynamic batch sizes
    (paper §5.1, citing [9] §8.3).

    ``params``: ``keys``, ``initial_batch``, ``growth``, ``max_batch``.
    """

    def __init__(self, node: PlanNode, ctx, child: BatchIterator):
        super().__init__(node, ctx)
        self.child = child

    def open(self) -> None:
        self.child.open()
        self._target = int(self.node.params.get("initial_batch", 4096))
        self._growth = float(self.node.params.get("growth", 1.0))
        self._max_batch = int(self.node.params.get("max_batch", 1 << 20))
        self._buffer: Chunk | None = None
        self._pos = 0
        self._child_done = False

    def _refill(self) -> bool:
        """Accumulate and sort the next batch; False when input exhausted."""
        if self._child_done:
            return False
        chunks: list[Chunk] = []
        total = 0
        while total < self._target:
            chunk = self.child.next_chunk()
            if chunk is None:
                self._child_done = True
                break
            if len(chunk):
                chunks.append(chunk)
                total += len(chunk)
        if total == 0:
            return False
        batch = Chunk.concat(chunks)
        order = _sort_order(batch, self.node.params["keys"])
        self._buffer = batch.take(order)
        self._pos = 0
        self.ctx.charge(self.node, rows=0,
                        extra_seconds=self.ctx.cost.sort_cpu_seconds(total, total))
        self._target = min(int(self._target * self._growth), self._max_batch)
        return True

    def _next(self) -> Chunk | None:
        if self._buffer is None or self._pos >= len(self._buffer):
            if not self._refill():
                return None
        stop = min(self._pos + self.ctx.batch_size, len(self._buffer))
        chunk = self._buffer.slice(self._pos, stop)
        self._pos = stop
        self.ctx.charge(self.node, rows=len(chunk))
        return chunk

    def close(self) -> None:
        super().close()
        self.child.close()


# ---------------------------------------------------------------------------
# joins
# ---------------------------------------------------------------------------

def _source_columns(node: PlanNode, ctx) -> dict[str, np.dtype]:
    """Column name -> dtype of what the sources of a plan subtree emit.

    Used to NULL-pad a join's non-preserved side when it materialized to
    zero rows (``Chunk.concat([])`` cannot preserve column names).  The
    layout is the sources' pruned one (:func:`emitted_columns`), so padded
    rows carry exactly the columns matched rows do.
    """
    out: dict[str, np.dtype] = {}
    for sub in node.walk():
        table = sub.params.get("table")
        if table is not None:
            data = ctx.db.table(table).data
            for name in ctx.emitted_columns[sub.node_id]:
                out.setdefault(name, data[name].dtype)
    return out


def _null_chunk(n: int, columns: dict[str, np.dtype]) -> Chunk:
    """``n`` rows of NULL sentinels with the given column layout."""
    data: dict[str, np.ndarray] = {}
    for name, dtype in columns.items():
        if np.issubdtype(dtype, np.floating):
            data[name] = np.full(n, NULL_FLOAT, dtype=np.float64)
        else:
            data[name] = np.full(n, NULL_INT, dtype=np.int64)
    return Chunk(data)


def _matched_probe_rows(probe_chunk: Chunk, probe_idx: np.ndarray,
                        identity: bool) -> Chunk:
    """The probe row of every match: the probe chunk itself when the
    matcher says each probe row has exactly one partner, else a gather."""
    return probe_chunk if identity else probe_chunk.take(probe_idx)


def _left_outer_combine(probe_chunk: Chunk, probe_idx: np.ndarray,
                        identity: bool, matched_rows: Chunk,
                        counts: np.ndarray,
                        pad_columns: dict[str, np.dtype]) -> Chunk:
    """Matched pairs plus NULL-padded unmatched probe rows, in probe order."""
    matched = _matched_probe_rows(probe_chunk, probe_idx, identity).merge(
        matched_rows)
    unmatched = np.flatnonzero(counts == 0)
    if len(unmatched) == 0:
        return matched
    padded = probe_chunk.take(unmatched).merge(
        _null_chunk(len(unmatched), pad_columns))
    combined = Chunk.concat([matched, padded])
    order = np.argsort(np.concatenate([probe_idx, unmatched]), kind="stable")
    return combined.take(order)


class HashJoinIterator(BatchIterator):
    """Hash join: blocking build on ``children[1]``, streaming probe.

    ``params``: ``probe_key`` (outer/probe column), ``build_key``, and
    optionally ``join_kind`` (``inner``/``left``/``semi``/``anti``; the
    probe side is the preserved side for the non-inner kinds).
    """

    def __init__(self, node: PlanNode, ctx, probe_child: BatchIterator,
                 build_child: BatchIterator):
        super().__init__(node, ctx)
        self.probe_child = probe_child
        self.build_child = build_child

    def open(self) -> None:
        self.build_child.open()
        build_pid = self.ctx.pipeline_of(self.build_child.node)
        chunks = []
        while (chunk := self.build_child.next_chunk()) is not None:
            if len(chunk):
                chunks.append(chunk)
                # hash-insert cost for the batch
                self.ctx.charge(self.node, rows=0, cpu_rows=len(chunk),
                                pid=build_pid)
        self._build = Chunk.concat(chunks)
        n_build = len(self._build)
        width = self.build_child.node.est_row_width
        # Hash-table materialization: segment-output bytes of the build
        # pipeline, counted at its terminal node.
        self.ctx.charge(self.build_child.node, rows=0, pid=build_pid,
                        w_bytes=n_build * width)
        spill = self.ctx.memory.request(n_build, width)
        self._pending_spill_read = 0.0
        self._pending_spill_rows = 0
        if spill.spilled:
            self.ctx.charge(self.build_child.node, rows=spill.spilled_rows,
                            w_bytes=spill.spilled_bytes, pid=build_pid)
            self._pending_spill_read = spill.spilled_bytes
            self._pending_spill_rows = spill.spilled_rows
        if n_build:
            self._matcher = SortedMatcher(self._build.column(
                self.node.params["build_key"]))
        else:
            self._matcher = None
        self._kind = self.node.params.get("join_kind", "inner")
        self._pad_cols: dict[str, np.dtype] | None = None
        self.probe_child.open()
        self._started_probe = False

    def _pad_columns(self) -> dict[str, np.dtype]:
        if self._pad_cols is None:
            if self._build.columns:
                self._pad_cols = {c: self._build.column(c).dtype
                                  for c in self._build.columns}
            else:
                self._pad_cols = _source_columns(self.build_child.node,
                                                 self.ctx)
        return self._pad_cols

    def _next(self) -> Chunk | None:
        if not self._started_probe:
            self._started_probe = True
            if self._pending_spill_rows:
                # Re-read spilled partitions at probe start.
                self.ctx.charge(self.node, rows=self._pending_spill_rows,
                                r_bytes=self._pending_spill_read)
        chunk = self.probe_child.next_chunk()
        if chunk is None:
            return None
        kind = self._kind
        if len(chunk) == 0:
            self.ctx.charge(self.node, rows=0, cpu_rows=0)
            if kind in ("semi", "anti"):
                return chunk
            return Chunk.empty(chunk.columns + self._build.columns)
        if self._matcher is None:
            # Empty build side: inner and semi emit nothing; anti keeps
            # every probe row; left pads every probe row with NULLs.
            if kind == "anti":
                out = chunk
            elif kind == "left":
                out = chunk.merge(_null_chunk(len(chunk), self._pad_columns()))
            else:
                self.ctx.charge(self.node, rows=0, cpu_rows=len(chunk))
                return Chunk.empty(chunk.columns + self._build.columns)
            self.ctx.charge(self.node, rows=len(out),
                            cpu_rows=len(chunk) + len(out))
            return out
        probe_keys = chunk.column(self.node.params["probe_key"])
        if kind in ("inner", "left"):
            pos, probe_idx, counts, identity = \
                self._matcher.match_with_counts(probe_keys)
            if kind == "inner":
                out = _matched_probe_rows(chunk, probe_idx, identity).merge(
                    self._build.take(pos))
            else:
                out = _left_outer_combine(chunk, probe_idx, identity,
                                          self._build.take(pos), counts,
                                          self._pad_columns())
        else:  # semi / anti: emit each probe row at most once, probe cols only
            counts = self._matcher.counts(probe_keys)
            mask = counts > 0 if kind == "semi" else counts == 0
            out = chunk.select(mask)
        self.ctx.charge(self.node, rows=len(out), cpu_rows=len(chunk) + len(out))
        return out

    def close(self) -> None:
        super().close()
        self.probe_child.close()
        self.build_child.close()


class MergeJoinIterator(BatchIterator):
    """Merge join over two key-ordered inputs (both sides stream).

    ``params``: ``outer_key``, ``inner_key``, and optionally ``join_kind``
    (``inner`` or ``left``; the outer side is the preserved side).  Both
    children must deliver rows in non-decreasing key order (guaranteed by
    the planner: clustered index scans or explicit sorts).
    """

    def __init__(self, node: PlanNode, ctx, outer: BatchIterator,
                 inner: BatchIterator):
        super().__init__(node, ctx)
        self.outer_child = outer
        self.inner_child = inner

    def open(self) -> None:
        self.outer_child.open()
        self.inner_child.open()
        self._buffer: Chunk | None = None
        self._inner_done = False
        self._kind = self.node.params.get("join_kind", "inner")
        if self._kind not in ("inner", "left"):
            raise ValueError(f"merge join does not support join kind "
                             f"{self._kind!r}")
        self._pad_cols: dict[str, np.dtype] | None = None

    def _pad_columns(self) -> dict[str, np.dtype]:
        if self._pad_cols is None:
            if self._buffer is not None and self._buffer.columns:
                self._pad_cols = {c: self._buffer.column(c).dtype
                                  for c in self._buffer.columns}
            else:
                self._pad_cols = _source_columns(self.inner_child.node,
                                                 self.ctx)
        return self._pad_cols

    def _extend_buffer(self, up_to_key) -> None:
        """Pull inner chunks until the buffer covers keys <= up_to_key."""
        key = self.node.params["inner_key"]
        while not self._inner_done:
            if self._buffer is not None and len(self._buffer) > 0:
                if self._buffer.column(key)[-1] > up_to_key:
                    break
            chunk = self.inner_child.next_chunk()
            if chunk is None:
                self._inner_done = True
                break
            if len(chunk) == 0:
                continue
            if self._buffer is None or len(self._buffer) == 0:
                self._buffer = chunk
            else:
                self._buffer = Chunk.concat([self._buffer, chunk])

    def _next(self) -> Chunk | None:
        outer_chunk = self.outer_child.next_chunk()
        if outer_chunk is None:
            # Drain the inner side so its counters complete.
            while not self._inner_done:
                if self.inner_child.next_chunk() is None:
                    self._inner_done = True
            return None
        if len(outer_chunk) == 0:
            return outer_chunk
        okey = self.node.params["outer_key"]
        outer_keys = outer_chunk.column(okey)
        self._extend_buffer(outer_keys[-1])
        if self._buffer is None or len(self._buffer) == 0:
            if self._kind == "left":
                out = outer_chunk.merge(
                    _null_chunk(len(outer_chunk), self._pad_columns()))
                self.ctx.charge(self.node, rows=len(out),
                                cpu_rows=len(outer_chunk) + len(out))
                return out
            self.ctx.charge(self.node, rows=0, cpu_rows=len(outer_chunk))
            return Chunk.empty(outer_chunk.columns)
        inner_keys = self._buffer.column(self.node.params["inner_key"])
        pos, probe_idx, counts, identity = SortedMatcher(
            inner_keys, presorted=True).match_with_counts(outer_keys)
        if self._kind == "left":
            out = _left_outer_combine(outer_chunk, probe_idx, identity,
                                      self._buffer.take(pos), counts,
                                      self._pad_columns())
        else:
            out = _matched_probe_rows(outer_chunk, probe_idx, identity).merge(
                self._buffer.take(pos))
        # Trim buffered inner rows that can no longer match (keys strictly
        # below the largest outer key seen; ties kept for the next chunk).
        keep = inner_keys >= outer_keys[-1]
        self._buffer = self._buffer.select(keep)
        self.ctx.charge(self.node, rows=len(out),
                        cpu_rows=len(outer_chunk) + len(out))
        return out

    def close(self) -> None:
        super().close()
        self.outer_child.close()
        self.inner_child.close()


# ---------------------------------------------------------------------------
# nested-loop join and its probe-side operators
# ---------------------------------------------------------------------------

class ProbeSide:
    """Inner side of a nested-loop join: answers batched key probes."""

    def open(self) -> None:
        raise NotImplementedError

    def probe(self, keys: np.ndarray) -> tuple[Chunk, np.ndarray, bool]:
        """Rows matching each probe key, their probe-row indices, and
        whether those indices are exactly ``arange(len(keys))``."""
        raise NotImplementedError


class IndexSeekProbe(ProbeSide):
    """Index seek on the inner table.  ``params``: ``table``, ``column``."""

    def __init__(self, node: PlanNode, ctx):
        self.node = node
        self.ctx = ctx

    def open(self) -> None:
        self.table = self.ctx.db.table(self.node.params["table"])
        self.index = self.table.seek_index(self.node.params["column"])
        self._columns = _emitted_arrays(self.node, self.table, self.ctx)

    def probe(self, keys: np.ndarray) -> tuple[Chunk, np.ndarray, bool]:
        positions, probe_idx, _, identity = self.index.match_with_counts(keys)
        chunk = Chunk({name: arr[positions] for name, arr in self._columns},
                      len(positions))
        # Sorted (batch-sorted) probe keys hit warm pages: distinct keys
        # dominate I/O, duplicates and near-duplicates are cache hits.
        sorted_probes = bool(len(keys)) and bool(np.all(np.diff(keys) >= 0))
        distinct = len(np.unique(keys)) if len(keys) else 0
        io_rows = distinct if sorted_probes else len(chunk)
        r_bytes = io_rows * self.table.row_width
        penalty_seconds = (r_bytes * (self.ctx.cost.seek_read_penalty - 1.0)
                           * self.ctx.cost.seconds_per_byte_read)
        self.ctx.charge(
            self.node, rows=len(chunk), r_bytes=r_bytes,
            extra_seconds=(self.ctx.cost.seek_probe_seconds * len(keys)
                           + penalty_seconds))
        return chunk, probe_idx, identity


class FilterProbe(ProbeSide):
    """Residual filter on the inner side of a nested-loop join."""

    def __init__(self, node: PlanNode, ctx, child: ProbeSide):
        self.node = node
        self.ctx = ctx
        self.child = child

    def open(self) -> None:
        self.child.open()
        self.predicates = self.node.params["predicates"]

    def probe(self, keys: np.ndarray) -> tuple[Chunk, np.ndarray, bool]:
        chunk, probe_idx, identity = self.child.probe(keys)
        if len(chunk) == 0:
            self.ctx.charge(self.node, rows=0)
            return chunk, probe_idx, identity
        mask = evaluate_all(self.predicates, chunk.data)
        out = chunk.select(mask)
        self.ctx.charge(self.node, rows=len(out), cpu_rows=len(chunk))
        # a kept subset of an identity stays one only if nothing was dropped
        return out, probe_idx[mask], identity and len(out) == len(chunk)


class NestedLoopJoinIterator(BatchIterator):
    """Index nested-loop join.  ``params``: ``outer_key``."""

    def __init__(self, node: PlanNode, ctx, outer: BatchIterator,
                 probe_side: ProbeSide):
        super().__init__(node, ctx)
        self.outer_child = outer
        self.probe_side = probe_side

    def open(self) -> None:
        self.outer_child.open()
        self.probe_side.open()

    def _next(self) -> Chunk | None:
        outer_chunk = self.outer_child.next_chunk()
        if outer_chunk is None:
            return None
        if len(outer_chunk) == 0:
            return outer_chunk
        keys = outer_chunk.column(self.node.params["outer_key"])
        inner_chunk, probe_idx, identity = self.probe_side.probe(keys)
        out = _matched_probe_rows(outer_chunk, probe_idx, identity).merge(
            inner_chunk)
        self.ctx.charge(self.node, rows=len(out),
                        cpu_rows=len(outer_chunk) + len(out))
        return out

    def close(self) -> None:
        super().close()
        self.outer_child.close()


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def _group_codes(chunk: Chunk, group_cols: list[str]) -> np.ndarray:
    """Dense integer codes identifying each row's group."""
    codes = np.zeros(len(chunk), dtype=np.int64)
    for col in group_cols:
        uniq, inverse = np.unique(chunk.column(col), return_inverse=True)
        codes = codes * (len(uniq) + 1) + inverse
    return codes


def _reduce_groups(chunk: Chunk, group_cols: list[str], aggs) -> Chunk:
    """Aggregate a chunk whose rows are already *grouped contiguously*."""
    n = len(chunk)
    if group_cols:
        codes = _group_codes(chunk, group_cols)
        boundary = np.empty(n, dtype=bool)
        boundary[0] = True
        boundary[1:] = codes[1:] != codes[:-1]
        starts = np.flatnonzero(boundary)
    else:
        starts = np.array([0]) if n else np.empty(0, dtype=np.int64)
    ends = np.append(starts[1:], n)
    out: dict[str, np.ndarray] = {}
    for col in group_cols:
        out[col] = chunk.column(col)[starts]
    counts = (ends - starts).astype(np.float64)
    for agg in aggs:
        name = agg.output_name
        if agg.func == "count":
            out[name] = counts.copy()
            continue
        values = chunk.column(agg.column).astype(np.float64)
        if agg.func == "sum":
            out[name] = np.add.reduceat(values, starts) if n else np.empty(0)
        elif agg.func == "avg":
            sums = np.add.reduceat(values, starts) if n else np.empty(0)
            out[name] = sums / np.maximum(counts, 1.0)
        elif agg.func == "min":
            out[name] = np.minimum.reduceat(values, starts) if n else np.empty(0)
        elif agg.func == "max":
            out[name] = np.maximum.reduceat(values, starts) if n else np.empty(0)
    return Chunk(out)


class HashAggIterator(BatchIterator):
    """Blocking hash aggregation.  ``params``: ``group_cols``, ``aggs``."""

    def __init__(self, node: PlanNode, ctx, child: BatchIterator):
        super().__init__(node, ctx)
        self.child = child

    def open(self) -> None:
        self.child.open()
        child_pid = self.ctx.pipeline_of(self.child.node)
        chunks = []
        while (chunk := self.child.next_chunk()) is not None:
            if len(chunk):
                chunks.append(chunk)
                self.ctx.charge(self.node, rows=0, cpu_rows=len(chunk),
                                pid=child_pid)
        buffered = Chunk.concat(chunks)
        group_cols = self.node.params["group_cols"]
        if len(buffered) and group_cols:
            codes = _group_codes(buffered, group_cols)
            order = np.argsort(codes, kind="stable")
            buffered = buffered.take(order)
        self._result = _reduce_groups(buffered, group_cols,
                                      self.node.params["aggs"]) \
            if len(buffered) else Chunk({})
        spill = self.ctx.memory.request(len(buffered),
                                        self.child.node.est_row_width)
        if spill.spilled:
            self.ctx.charge(self.child.node, rows=spill.spilled_rows,
                            w_bytes=spill.spilled_bytes, pid=child_pid)
            self.ctx.charge(self.child.node, rows=spill.spilled_rows,
                            r_bytes=spill.spilled_bytes, pid=child_pid)
        self.ctx.charge(self.child.node, rows=0, pid=child_pid,
                        w_bytes=len(self._result) * self.node.est_row_width)
        self._pos = 0

    def _next(self) -> Chunk | None:
        if self._pos >= len(self._result):
            return None
        stop = min(self._pos + self.ctx.batch_size, len(self._result))
        chunk = self._result.slice(self._pos, stop)
        self._pos = stop
        self.ctx.charge(self.node, rows=len(chunk))
        return chunk

    def close(self) -> None:
        super().close()
        self.child.close()


class StreamAggIterator(BatchIterator):
    """Streaming aggregation over group-ordered input.

    ``params``: ``group_cols`` (a prefix of the input order; empty for a
    scalar aggregate), ``aggs``.
    """

    def __init__(self, node: PlanNode, ctx, child: BatchIterator):
        super().__init__(node, ctx)
        self.child = child

    def open(self) -> None:
        self.child.open()
        self._carry: Chunk | None = None  # rows of the last (incomplete) group
        self._input_done = False
        self._scalar_emitted = False

    def _next(self) -> Chunk | None:
        group_cols = self.node.params["group_cols"]
        aggs = self.node.params["aggs"]
        if not group_cols:
            return self._next_scalar(aggs)
        while not self._input_done:
            chunk = self.child.next_chunk()
            if chunk is None:
                self._input_done = True
                break
            if len(chunk) == 0:
                continue
            self.ctx.charge(self.node, rows=0, cpu_rows=len(chunk))
            merged = chunk if self._carry is None else Chunk.concat(
                [self._carry, chunk])
            codes = _group_codes(merged, group_cols)
            if codes[0] == codes[-1]:
                self._carry = merged  # whole buffer is one group so far
                continue
            last_start = int(np.flatnonzero(codes != codes[-1])[-1] + 1)
            complete = merged.slice(0, last_start)
            self._carry = merged.slice(last_start, len(merged))
            out = _reduce_groups(complete, group_cols, aggs)
            self.ctx.charge(self.node, rows=len(out))
            return out
        if self._carry is not None and len(self._carry):
            out = _reduce_groups(self._carry, group_cols, aggs)
            self._carry = None
            self.ctx.charge(self.node, rows=len(out))
            return out
        return None

    def _next_scalar(self, aggs) -> Chunk | None:
        """Scalar (ungrouped) aggregate: one output row after full input."""
        if self._scalar_emitted:
            return None
        buffered: list[Chunk] = []
        while (chunk := self.child.next_chunk()) is not None:
            if len(chunk):
                self.ctx.charge(self.node, rows=0, cpu_rows=len(chunk))
                buffered.append(chunk)
        self._scalar_emitted = True
        merged = Chunk.concat(buffered)
        if len(merged) == 0:
            # COUNT over an empty input still yields one row (zero).
            counts = [a for a in aggs if a.func == "count"]
            if not counts:
                return None
            out = Chunk({a.output_name: np.zeros(1) for a in counts})
            self.ctx.charge(self.node, rows=1)
            return out
        out = _reduce_groups(merged, [], aggs)
        self.ctx.charge(self.node, rows=len(out))
        return out

    def close(self) -> None:
        super().close()
        self.child.close()


# ---------------------------------------------------------------------------
# iterator construction
# ---------------------------------------------------------------------------

def _plus(need: set[str] | None, columns) -> set[str] | None:
    """``need`` plus ``columns``; ``None`` (every column) stays ``None``."""
    return None if need is None else need.union(columns)


def emitted_columns(plan: PlanNode, db) -> dict[int, tuple[str, ...]]:
    """The columns each source of ``plan`` emits, by node id, in table order.

    One top-down pass per plan and database (the executor keeps it on the
    plan's layout).  Each node hands its children the
    columns its own output must carry plus those it reads: filter
    predicates, sort keys, join keys.  The root's output carries every
    column (``None``), since a query without an aggregate returns whole
    rows.  An aggregate's output does not depend on any input column it
    does not read, so below one only its group columns and aggregated
    columns are needed (``count`` reads none, so ``count(*)`` over a bare
    scan gets chunks with rows and no column).  A semi or anti join emits
    probe rows only, so its build side needs just its key.  Scans, range
    seeks and nested-loop index seeks keep the needed columns of their
    table; every other operator passes its input's columns on, so each
    operator's output carries only columns that it or an operator above
    it reads.
    """
    out: dict[int, tuple[str, ...]] = {}
    stack: list[tuple[PlanNode, set[str] | None]] = [(plan, None)]
    while stack:
        node, need = stack.pop()
        op, params, kids = node.op, node.params, node.children
        if op in (Op.TABLE_SCAN, Op.INDEX_SCAN, Op.INDEX_SEEK):
            names = db.table(params["table"]).data
            out[node.node_id] = tuple(
                name for name in names if need is None or name in need)
        elif op in (Op.HASH_AGG, Op.STREAM_AGG):
            stack.append((kids[0], {*params["group_cols"], *(
                agg.column for agg in params["aggs"] if agg.func != "count")}))
        elif op is Op.FILTER:
            stack.append((kids[0], _plus(
                need, [spec.column for spec in params["predicates"]])))
        elif op in (Op.SORT, Op.BATCH_SORT):
            stack.append((kids[0], _plus(need, params["keys"])))
        elif op is Op.TOP:
            stack.append((kids[0], need))
        elif op is Op.HASH_JOIN:
            build_key = params["build_key"]
            stack.append((kids[0], _plus(need, [params["probe_key"]])))
            stack.append((kids[1], {build_key} if params.get(
                "join_kind", "inner") in ("semi", "anti")
                else _plus(need, [build_key])))
        elif op is Op.MERGE_JOIN:
            stack.append((kids[0], _plus(need, [params["outer_key"]])))
            stack.append((kids[1], _plus(need, [params["inner_key"]])))
        elif op is Op.NESTED_LOOP_JOIN:
            # the inner seek matches through its index, not a chunk column
            stack.append((kids[0], _plus(need, [params["outer_key"]])))
            stack.append((kids[1], need))
        else:
            raise ValueError(f"no iterator for operator {op}")
    return out


def build_probe_side(node: PlanNode, ctx) -> ProbeSide:
    if node.op == Op.INDEX_SEEK:
        return IndexSeekProbe(node, ctx)
    if node.op == Op.FILTER:
        return FilterProbe(node, ctx, build_probe_side(node.children[0], ctx))
    raise ValueError(f"unsupported operator {node.op} on NLJ inner side")


def build_iterator(node: PlanNode, ctx) -> BatchIterator:
    """Construct the iterator tree for a physical plan."""
    op = node.op
    if op in (Op.TABLE_SCAN,):
        return TableScanIterator(node, ctx)
    if op == Op.INDEX_SCAN:
        return IndexScanIterator(node, ctx)
    if op == Op.INDEX_SEEK:
        return IndexSeekSourceIterator(node, ctx)
    if op == Op.FILTER:
        return FilterIterator(node, ctx, build_iterator(node.children[0], ctx))
    if op == Op.TOP:
        return TopIterator(node, ctx, build_iterator(node.children[0], ctx))
    if op == Op.SORT:
        return SortIterator(node, ctx, build_iterator(node.children[0], ctx))
    if op == Op.BATCH_SORT:
        return BatchSortIterator(node, ctx, build_iterator(node.children[0], ctx))
    if op == Op.HASH_JOIN:
        return HashJoinIterator(node, ctx,
                                build_iterator(node.children[0], ctx),
                                build_iterator(node.children[1], ctx))
    if op == Op.MERGE_JOIN:
        return MergeJoinIterator(node, ctx,
                                 build_iterator(node.children[0], ctx),
                                 build_iterator(node.children[1], ctx))
    if op == Op.NESTED_LOOP_JOIN:
        return NestedLoopJoinIterator(node, ctx,
                                      build_iterator(node.children[0], ctx),
                                      build_probe_side(node.children[1], ctx))
    if op == Op.HASH_AGG:
        return HashAggIterator(node, ctx, build_iterator(node.children[0], ctx))
    if op == Op.STREAM_AGG:
        return StreamAggIterator(node, ctx, build_iterator(node.children[0], ctx))
    raise ValueError(f"no iterator for operator {op}")
