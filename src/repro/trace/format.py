"""The on-disk trace format: one recorded query execution, split into a
JSON-safe manifest entry (plan/pipeline metadata, scalars) and a set of
dense NumPy array members (the §3.1 counter trajectories).

Conventions follow :mod:`repro.learning.serialize`: plain JSON, no pickle,
an explicit ``format_version`` checked up front — so traces can cross
Python versions and be inspected by hand.  Arrays are kept out of the JSON
and written as ``.npz`` members instead (binary float64 round-trips are
exact there, which the bit-identical-replay guarantee relies on; JSON would
survive it too via repr round-tripping, but at 10× the size).

Per run, the five same-shaped ``(T, n)`` counter matrices are stacked into
one ``(5, T, n)`` member ``C`` (order :data:`COUNTER_KEYS`) next to
``times``, the done-flag matrix ``D`` and the totals ``N`` — four members
per run instead of eight.  ``np.load`` pays a fixed header-parsing cost
per member, and warm-starting a 64-query workload from a trace is ~3×
faster this way (stack/unstack is bit-exact, so nothing else changes).

A trace *directory* (see :mod:`repro.trace.store`) bundles one manifest
with a single ``runs.npz`` holding every recorded run's members under an
``r<index>_`` prefix.
"""

from __future__ import annotations

import bisect
from typing import Any, Mapping

import numpy as np

from repro.engine.run import NodeInfo, PipelineInfo, QueryRun
from repro.learning.serialize import require_format_version
from repro.plan.nodes import Op

#: Version of the trace directory layout + per-run payload schema.
#: v2: the engine's worst-case bounds for nested-loop probe sides changed
#: (an inner INDEX_SEEK is bounded by outer-bound × table rows, not by the
#: table alone), so v1 recordings carry unsound UB trajectories.
#: v3: node manifests gained ``join_kind`` (LEFT OUTER / SEMI / ANTI join
#: support); join bounds are kind-aware, so v2 recordings of non-inner
#: plans could not be told apart from inner ones.
TRACE_FORMAT_VERSION = 3

#: Stacking order of the counter matrices inside the ``C`` member.
COUNTER_KEYS = ("K", "R", "W", "LB", "UB")

#: Per-run ``.npz`` member names (appended to the run's prefix).
MEMBER_KEYS = ("C", "times", "D", "N")


def _encode_float(x: float) -> float | None:
    """JSON-safe float: NaN (never-started pipelines, tableless nodes)
    becomes ``null`` so manifests stay standard JSON."""
    x = float(x)
    return None if np.isnan(x) else x


def _decode_float(x: float | None) -> float:
    return np.nan if x is None else float(x)


def run_to_manifest(run: QueryRun) -> dict[str, Any]:
    """Everything about ``run`` except the trajectories, as a JSON dict."""
    if run.D is None:
        raise ValueError(
            "QueryRun lacks the per-observation done-flag matrix D; "
            "re-execute with the current engine before recording a trace")
    return {
        "query_name": run.query_name,
        "db_name": run.db_name,
        "total_time": run.total_time,
        "output_rows": int(run.output_rows),
        "spill_events": int(run.spill_events),
        "nodes": [{
            "node_id": n.node_id,
            "op": n.op.value,
            "table": n.table,
            "est_rows": n.est_rows,
            "est_row_width": n.est_row_width,
            "table_rows": _encode_float(n.table_rows),
            "pid": n.pid,
            "parent": n.parent,
            "is_driver": n.is_driver,
            "is_build_side": n.is_build_side,
            "join_kind": n.join_kind,
        } for n in run.nodes],
        "pipelines": [{
            "pid": p.pid,
            "node_ids": list(p.node_ids),
            "driver_ids": list(p.driver_ids),
            "t_start": _encode_float(p.t_start),
            "t_end": _encode_float(p.t_end),
        } for p in run.pipelines],
    }


def run_to_members(run: QueryRun, prefix: str = "") -> dict[str, np.ndarray]:
    """The run's trajectory matrices as prefixed member arrays (the
    ``runs.npz`` members on disk, the raw-buffer members on the wire)."""
    if run.D is None:
        raise ValueError(
            "QueryRun lacks the per-observation done-flag matrix D; "
            "re-execute with the current engine before recording a trace")
    return {
        f"{prefix}C": np.stack([getattr(run, k) for k in COUNTER_KEYS]),
        f"{prefix}times": run.times,
        f"{prefix}D": run.D,
        f"{prefix}N": run.N,
    }


def run_from_members(manifest: dict[str, Any],
                     members: Mapping[str, np.ndarray],
                     prefix: str = "") -> QueryRun:
    """Assemble a :class:`QueryRun` back from its recorded halves.

    ``members`` is anything indexable by member name (an open ``np.load``
    handle or a plain dict).  The result is bit-identical to the executed
    original (modulo the deliberately-unrecorded ``output`` chunk): every
    matrix is the stored float64/bool binary, every scalar round-trips
    exactly through JSON.  A run whose parts do not fit together (see
    :func:`_check_run_shape`) raises :class:`ValueError` before any
    object is built.
    """
    try:
        arrays = {key: members[prefix + key] for key in MEMBER_KEYS}
    except KeyError as exc:
        raise ValueError(f"trace arrays missing member {exc}") from exc
    _check_run_shape(manifest, {key: np.shape(member)
                                for key, member in arrays.items()})
    C = np.asarray(arrays["C"], dtype=np.float64)
    counters = dict(zip(COUNTER_KEYS, C))
    nodes = [NodeInfo(
        node_id=int(n["node_id"]),
        op=Op(n["op"]),
        table=n["table"],
        est_rows=float(n["est_rows"]),
        est_row_width=float(n["est_row_width"]),
        table_rows=_decode_float(n["table_rows"]),
        pid=int(n["pid"]),
        parent=int(n["parent"]),
        is_driver=bool(n["is_driver"]),
        is_build_side=bool(n["is_build_side"]),
        join_kind=str(n["join_kind"]),
    ) for n in manifest["nodes"]]
    pipelines = [PipelineInfo(
        pid=int(p["pid"]),
        node_ids=[int(i) for i in p["node_ids"]],
        driver_ids=[int(i) for i in p["driver_ids"]],
        t_start=_decode_float(p["t_start"]),
        t_end=_decode_float(p["t_end"]),
    ) for p in manifest["pipelines"]]
    return QueryRun(
        query_name=manifest["query_name"],
        db_name=manifest["db_name"],
        nodes=nodes,
        pipelines=pipelines,
        times=np.asarray(arrays["times"], dtype=np.float64),
        K=counters["K"],
        R=counters["R"],
        W=counters["W"],
        LB=counters["LB"],
        UB=counters["UB"],
        N=np.asarray(arrays["N"], dtype=np.float64),
        total_time=float(manifest["total_time"]),
        output_rows=int(manifest["output_rows"]),
        spill_events=int(manifest["spill_events"]),
        D=np.asarray(arrays["D"], dtype=bool),
    )


def _check_run_shape(manifest: dict[str, Any],
                     shapes: dict[str, tuple]) -> None:
    """Raise :class:`ValueError` unless a run's members and manifest fit
    together: ``C`` is ``(5, T, n)`` with ``T >= 1`` (the engine records
    an observation at start), ``times`` ``(T,)``, ``D`` ``(T, n)`` and
    ``N`` ``(n,)``; node ``i`` has id ``i``, a parent in ``[-1, n)``
    and a pipeline in ``[0, P)``; pipeline ``i`` has pid ``i`` and its
    node and driver ids in ``[0, n)``.  Replay indexes by all of these,
    so a run that breaks one would fail mid-serving instead."""
    c_shape = shapes["C"]
    if len(c_shape) != 3 or c_shape[0] != len(COUNTER_KEYS):
        raise ValueError(f"counter block must be (5, T, n), got {c_shape}")
    _, T, n = c_shape
    if T < 1:
        raise ValueError("run has no recorded observations")
    expected = {"times": (T,), "D": (T, n), "N": (n,)}
    for key, shape in expected.items():
        if tuple(shapes[key]) != shape:
            raise ValueError(f"member {key} must be {shape} for a (5, {T}, "
                             f"{n}) counter block, got {shapes[key]}")
    nodes, pipelines = manifest["nodes"], manifest["pipelines"]
    if len(nodes) != n:
        raise ValueError(f"manifest lists {len(nodes)} nodes for {n} "
                         f"counter columns")
    P = len(pipelines)
    for i, node in enumerate(nodes):
        if int(node["node_id"]) != i:
            raise ValueError(f"node {i} has node_id {node['node_id']}")
        if not -1 <= int(node["parent"]) < n:
            raise ValueError(f"node {i} has parent {node['parent']} "
                             f"outside [-1, {n})")
        if not 0 <= int(node["pid"]) < P:
            raise ValueError(f"node {i} has pid {node['pid']} outside "
                             f"[0, {P})")
    for i, pipe in enumerate(pipelines):
        if int(pipe["pid"]) != i:
            raise ValueError(f"pipeline {i} has pid {pipe['pid']}")
        for key in ("node_ids", "driver_ids"):
            if any(not 0 <= int(j) < n for j in pipe[key]):
                raise ValueError(f"pipeline {i} {key} {pipe[key]} outside "
                                 f"[0, {n})")


def check_trace_version(manifest: dict[str, Any]) -> None:
    """Raise a clear error unless ``manifest`` is readable by this build."""
    require_format_version(manifest, TRACE_FORMAT_VERSION, "trace")




# -- report rows (the sharded service's wire format) --------------------------

#: Per-batch member names of the report-row codec: raw-buffer members of
#: a ``reports_to_payload`` body (:mod:`repro.runtime.transport`), listed
#: in its member table before the ``sids`` member.
REPORT_MEMBER_KEYS = ("time", "progress", "active_pid", "active_est",
                      "pp_off", "pp_pid", "pp_val", "pe_off", "pe_pid",
                      "pe_est")

#: every column of a :class:`ReportBlock`, ``sids`` first
_BLOCK_COLUMNS = ("sids",) + REPORT_MEMBER_KEYS
_FLOAT_COLUMNS = ("time", "progress", "pp_val")
#: the columns with one entry per row
_ROW_COLUMNS = ("sids", "time", "progress", "active_pid", "active_est")


class ReportBlock:
    """Report rows as columns, laid out as the wire carries them.

    Row ``i`` is a report of session ``sids[i]`` at ``time[i]``: overall
    ``progress[i]``, the active pipeline ``active_pid[i]`` (``-1`` when
    none runs) and its estimator ``active_est[i]``.  The two per-pipeline
    maps are CSR: row ``i``'s pipeline values are ``pp_pid`` / ``pp_val``
    over ``pp_off[i]:pp_off[i + 1]`` and its committed choices ``pe_pid``
    / ``pe_est`` over ``pe_off[i]:pe_off[i + 1]``, each in the key order
    of the report's dicts.  Estimators are codes into ``names`` (``-1``:
    no estimator); ``names`` may hold names no row uses, in any order.
    Framing (:meth:`to_columns`) interns the used names in order of first
    appearance — each row's active estimator, then its choices — which is
    the name table the wire has always carried.  Floats cross as float64
    bits and every integer column is int64.

    The flush emits one block per round; the shard frames it, the
    supervisor merges its shards' blocks, and sessions and the server keep
    their own rows as blocks copied out of it (:meth:`split`).  Blocks are
    not mutated once built.  :class:`~repro.core.monitor.ProgressReport`
    objects are built from a block only where a caller asks for them
    (:meth:`reports`, or iterating ``(sid, report)`` pairs).
    """

    __slots__ = (*_BLOCK_COLUMNS, "names", "__weakref__")

    def __init__(self, sids, time, progress, active_pid, active_est, pp_off,
                 pp_pid, pp_val, pe_off, pe_pid, pe_est, names=()):
        self.sids, self.time, self.progress = sids, time, progress
        self.active_pid, self.active_est = active_pid, active_est
        self.pp_off, self.pp_pid, self.pp_val = pp_off, pp_pid, pp_val
        self.pe_off, self.pe_pid, self.pe_est = pe_off, pe_pid, pe_est
        self.names = tuple(names)

    @classmethod
    def empty(cls) -> "ReportBlock":
        none, zero = np.zeros(0, dtype=np.int64), np.zeros(1, dtype=np.int64)
        return cls(none, np.zeros(0), np.zeros(0), none, none, zero, none,
                   np.zeros(0), zero, none, none)

    def __len__(self) -> int:
        return len(self.time)

    @property
    def nbytes(self) -> int:
        """Bytes held by the block's columns."""
        return sum(getattr(self, key).nbytes for key in _BLOCK_COLUMNS)

    # -- rows ----------------------------------------------------------------

    def rows(self, lo: int, hi: int) -> "ReportBlock":
        """Rows ``lo`` to ``hi`` as views of this block's columns."""
        a, b = int(self.pp_off[lo]), int(self.pp_off[hi])
        c, d = int(self.pe_off[lo]), int(self.pe_off[hi])
        return ReportBlock(
            self.sids[lo:hi], self.time[lo:hi], self.progress[lo:hi],
            self.active_pid[lo:hi], self.active_est[lo:hi],
            self.pp_off[lo:hi + 1] - a, self.pp_pid[a:b], self.pp_val[a:b],
            self.pe_off[lo:hi + 1] - c, self.pe_pid[c:d], self.pe_est[c:d],
            self.names)

    def split(self, bounds: list[int]) -> "list[ReportBlock]":
        """The rows between consecutive ``bounds``, one block per range.
        Each copies its rows, so it shares no memory with this block and
        keeps nothing of it alive."""
        pp = self.pp_off[bounds].tolist()
        pe = self.pe_off[bounds].tolist()
        rows = [getattr(self, key) for key in _ROW_COLUMNS]
        pp_off, pp_pid, pp_val = self.pp_off, self.pp_pid, self.pp_val
        pe_off, pe_pid, pe_est = self.pe_off, self.pe_pid, self.pe_est
        out = []
        for k in range(len(bounds) - 1):
            lo, hi = bounds[k], bounds[k + 1]
            a, b, c, d = pp[k], pp[k + 1], pe[k], pe[k + 1]
            out.append(ReportBlock(
                *[col[lo:hi].copy() for col in rows],
                pp_off[lo:hi + 1] - a, pp_pid[a:b].copy(), pp_val[a:b].copy(),
                pe_off[lo:hi + 1] - c, pe_pid[c:d].copy(),
                pe_est[c:d].copy(), self.names))
        return out

    def per_session(self) -> "list[tuple[int, ReportBlock]]":
        """Each session's rows, which must be consecutive, as ``(sid,
        rows)`` pairs in block order; the rows are copies
        (:meth:`split`)."""
        heads = np.flatnonzero(np.diff(self.sids, prepend=-1)).tolist()
        return list(zip(self.sids[heads].tolist(),
                        self.split(heads + [len(self)])))

    def take(self, index: np.ndarray) -> "ReportBlock":
        """The rows ``index``, in its order, copied."""
        from repro.catalog.table import _expand_ranges

        def gather(off, *cols):
            lo = off[index]
            counts = off[index + 1] - lo
            at = _expand_ranges(lo, counts)
            new = np.zeros(len(index) + 1, dtype=np.int64)
            np.cumsum(counts, out=new[1:])
            return (new, *(col[at] for col in cols))

        pp_off, pp_pid, pp_val = gather(self.pp_off, self.pp_pid, self.pp_val)
        pe_off, pe_pid, pe_est = gather(self.pe_off, self.pe_pid, self.pe_est)
        return ReportBlock(
            self.sids[index], self.time[index], self.progress[index],
            self.active_pid[index], self.active_est[index], pp_off, pp_pid,
            pp_val, pe_off, pe_pid, pe_est, self.names)

    def relabel(self, sids: np.ndarray) -> "ReportBlock":
        """The same rows under other session ids (columns shared)."""
        return ReportBlock(sids, *(getattr(self, key)
                                   for key in _BLOCK_COLUMNS[1:]), self.names)

    @classmethod
    def concat(cls, blocks) -> "ReportBlock":
        """The rows of ``blocks`` in order, under one name table."""
        blocks = [block for block in blocks if len(block)]
        if len(blocks) <= 1:
            return blocks[0] if blocks else cls.empty()
        names = list(blocks[0].names)
        index = {name: i for i, name in enumerate(names)}
        luts = []
        for block in blocks:
            if block.names == blocks[0].names:
                luts.append(None)
                continue
            codes = [index.setdefault(name, len(index))
                     for name in block.names]
            names += [name for name in block.names if index[name]
                      >= len(names)]
            # code -1 (no estimator) reads the trailing -1
            luts.append(np.array(codes + [-1], dtype=np.int64))

        def cat(key):
            return np.concatenate([getattr(block, key) for block in blocks])

        def codes(key):
            cols = [getattr(block, key) for block in blocks]
            return np.concatenate([col if lut is None else lut[col]
                                   for col, lut in zip(cols, luts)])

        def offsets(key):
            parts, base = [np.zeros(1, dtype=np.int64)], 0
            for block in blocks:
                off = getattr(block, key)
                parts.append(off[1:] + base)
                base += int(off[-1])
            return np.concatenate(parts)

        return cls(cat("sids"), cat("time"), cat("progress"),
                   cat("active_pid"), codes("active_est"), offsets("pp_off"),
                   cat("pp_pid"), cat("pp_val"), offsets("pe_off"),
                   cat("pe_pid"), codes("pe_est"), names)

    # -- the edges: report objects --------------------------------------------

    @classmethod
    def from_reports(cls, tagged) -> "ReportBlock":
        """A block of ``(session_id, ProgressReport)`` pairs, in order."""
        index: dict[str, int] = {}

        def code(name):
            return -1 if name is None else index.setdefault(name, len(index))

        sids, time, progress, active_pid, active_est = [], [], [], [], []
        pp_off, pp_pid, pp_val = [0], [], []
        pe_off, pe_pid, pe_est = [0], [], []
        for sid, report in tagged:
            sids.append(sid)
            time.append(report.time)
            progress.append(report.progress)
            active_pid.append(report.active_pid)
            active_est.append(code(report.active_estimator))
            pp_pid += report.pipeline_progress
            pp_val += report.pipeline_progress.values()
            pp_off.append(len(pp_pid))
            pe_pid += report.pipeline_estimator
            pe_est += map(code, report.pipeline_estimator.values())
            pe_off.append(len(pe_pid))

        def ints(values):
            return np.array(values, dtype=np.int64)

        def floats(values):
            return np.array(values, dtype=np.float64)

        return cls(ints(sids), floats(time), floats(progress),
                   ints(active_pid), ints(active_est), ints(pp_off),
                   ints(pp_pid), floats(pp_val), ints(pe_off), ints(pe_pid),
                   ints(pe_est), index)

    def reports(self) -> list:
        """Every row as a :class:`~repro.core.monitor.ProgressReport`."""
        from repro.core.monitor import ProgressReport

        names = [*self.names, None]  # code -1 reads None
        time, progress = self.time.tolist(), self.progress.tolist()
        active_pid = self.active_pid.tolist()
        active = [names[c] for c in self.active_est.tolist()]
        pp_off, pe_off = self.pp_off.tolist(), self.pe_off.tolist()
        pp_pid, pp_val = self.pp_pid.tolist(), self.pp_val.tolist()
        pe_pid = self.pe_pid.tolist()
        pe_name = [names[c] for c in self.pe_est.tolist()]
        return [ProgressReport(
            time=time[i], progress=progress[i], active_pid=active_pid[i],
            active_estimator=active[i],
            pipeline_progress=dict(zip(pp_pid[pp_off[i]:pp_off[i + 1]],
                                       pp_val[pp_off[i]:pp_off[i + 1]])),
            pipeline_estimator=dict(zip(pe_pid[pe_off[i]:pe_off[i + 1]],
                                        pe_name[pe_off[i]:pe_off[i + 1]])))
            for i in range(len(time))]

    def __iter__(self):
        """``(session_id, ProgressReport)`` per row, built here."""
        return zip(self.sids.tolist(), self.reports())

    # -- the wire -------------------------------------------------------------

    def to_columns(self) -> "tuple[dict[str, Any], dict[str, np.ndarray]]":
        """The block as the codec's JSON-safe entry and member arrays.

        The entry holds the row count and the estimator-name table: the
        names the rows use, in order of first appearance (each row's
        active estimator, then its choices in key order); the members
        carry every code renumbered into it.
        """
        n = len(self)
        # the estimator codes in reading order: row i's active estimator
        # sits just before its choices
        seq = np.empty(n + len(self.pe_est), dtype=np.int64)
        at = self.pe_off[:-1] + np.arange(n)
        rest = np.ones(len(seq), dtype=bool)
        rest[at] = False
        seq[at] = self.active_est
        seq[rest] = self.pe_est
        # dict keys keep their first insertion: the codes in order of
        # first appearance, -1 (no estimator) dropped
        order = [c for c in dict.fromkeys(seq.tolist()) if c >= 0]
        active_est, pe_est = self.active_est, self.pe_est
        if order != list(range(len(self.names))):
            lut = np.full(len(self.names) + 1, -1, dtype=np.int64)
            lut[order] = np.arange(len(order))
            active_est, pe_est = lut[active_est], lut[pe_est]
        entry = {"count": n, "estimators": [self.names[c] for c in order]}
        members = {key: getattr(self, key) for key in REPORT_MEMBER_KEYS}
        members.update(active_est=active_est, pe_est=pe_est)
        return entry, members

    @classmethod
    def from_columns(cls, entry: dict[str, Any],
                     members: Mapping[str, np.ndarray]) -> "ReportBlock":
        """The block of a codec entry and its members (``sids`` among
        them).  Anything that does not fit the layout — a column of the
        wrong dtype or length, offsets that do not tile their values, a
        code outside the name table — raises :class:`ValueError`."""
        n, names = entry["count"], entry["estimators"]
        if type(n) is not int or n < 0:
            raise ValueError(f"report count {n!r} is not a count")
        if not (isinstance(names, list)
                and all(isinstance(name, str) for name in names)):
            raise ValueError("the estimator table is not a list of names")
        cols = {key: members[key] for key in _BLOCK_COLUMNS}
        for key, col in cols.items():
            want = np.float64 if key in _FLOAT_COLUMNS else np.int64
            rows = (n + 1 if key.endswith("_off")
                    else n if key in _ROW_COLUMNS else len(col))
            if col.dtype != want or col.shape != (rows,):
                raise ValueError(f"report column {key!r} is "
                                 f"{col.dtype}{list(col.shape)}")
        for prefix, value in (("pp", "val"), ("pe", "est")):
            off = cols[f"{prefix}_off"]
            size = len(cols[f"{prefix}_pid"])
            if (off[0] != 0 or off[-1] != size or (off[1:] < off[:-1]).any()
                    or len(cols[f"{prefix}_{value}"]) != size):
                raise ValueError(f"report offsets {prefix}_off do not tile "
                                 f"their {size} values")
        codes = np.concatenate([cols["active_est"], cols["pe_est"]])
        if len(codes) and not (-1 <= codes.min() and codes.max() < len(names)):
            raise ValueError("a report names an estimator outside the table")
        return cls(**cols, names=names)


class ReportLog:
    """One stream's report rows, kept as the blocks they arrived in.

    Each appended block holds only this stream's rows and owns its memory
    (:meth:`ReportBlock.split`), so the log keeps no round's block alive
    and its bytes grow with its own row count.  :meth:`block` reads rows
    back as one block: the chunks it spans are concatenated, and a read
    from the first row folds the whole log into one chunk.
    """

    __slots__ = ("_chunks", "_ends")

    def __init__(self):
        self._chunks: list[ReportBlock] = []
        #: the row count through each chunk
        self._ends: list[int] = []

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    @property
    def nbytes(self) -> int:
        return sum(chunk.nbytes for chunk in self._chunks)

    def append(self, block: ReportBlock) -> None:
        if len(block):
            self._ends.append(len(self) + len(block))
            self._chunks.append(block)

    def block(self, start: int = 0) -> ReportBlock:
        """Rows ``start`` onward as one block (empty past the end)."""
        i = bisect.bisect_right(self._ends, start)
        if i == len(self._chunks):
            return ReportBlock.empty()
        block = ReportBlock.concat(self._chunks[i:])
        if i == 0 and len(self._chunks) > 1:
            self._chunks, self._ends = [block], self._ends[-1:]
        base = self._ends[i - 1] if i else 0
        return block if start == base else block.rows(start - base,
                                                       len(block))

    def last_progress(self) -> float | None:
        """The latest row's overall progress, if any row arrived."""
        return float(self._chunks[-1].progress[-1]) if self._chunks else None
