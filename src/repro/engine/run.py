"""Execution artifacts: query-level and pipeline-level trajectories.

A :class:`QueryRun` is everything the progress-estimation layer needs about
one executed query: the plan's node metadata, the pipeline decomposition
with activity windows, and the observation matrices (time × node) for the
counters of §3.1.  :meth:`QueryRun.pipeline_run` slices out one pipeline's
view — the granularity at which the paper trains and evaluates estimator
selection ("we report the error on the level of individual pipelines",
§6).

:func:`live_pipeline_run` builds the same :class:`PipelineRun` view from a
*still-executing* (or replayed) query's context as of one observation row —
the causal snapshot the progress service extracts selection features from
(a snapshot at row *R* only uses log rows up to *R*).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.plan.nodes import Op

#: Operators whose total output is known exactly when their pipeline starts:
#: base-table scans (cardinality in the catalog) and blocking materializations
#: (row count known once the build finished).
_KNOWN_SOURCE_OPS = frozenset({Op.TABLE_SCAN, Op.INDEX_SCAN})
_MATERIALIZED_OPS = frozenset({Op.SORT, Op.HASH_AGG})


@dataclass(frozen=True)
class NodeInfo:
    """Static per-node metadata carried along with the trajectories."""

    node_id: int
    op: Op
    table: str | None
    est_rows: float
    est_row_width: float
    table_rows: float  # NaN when the node reads no base table
    pid: int
    parent: int  # node_id of the parent, -1 at the root
    is_driver: bool
    is_build_side: bool = False  # True when this node is a hash join's build child
    join_kind: str = "inner"  # join semantics at join nodes ("inner" elsewhere)


@dataclass(frozen=True)
class PipelineInfo:
    """One pipeline: node membership plus its activity window."""

    pid: int
    node_ids: list[int]
    driver_ids: list[int]
    t_start: float
    t_end: float

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    @property
    def executed(self) -> bool:
        return np.isfinite(self.t_start) and self.t_end > self.t_start


@dataclass
class QueryRun:
    """Full record of one query execution."""

    query_name: str
    db_name: str
    nodes: list[NodeInfo]
    pipelines: list[PipelineInfo]
    times: np.ndarray          # (T,)
    K: np.ndarray              # (T, n) GetNext calls
    R: np.ndarray              # (T, n) bytes read
    W: np.ndarray              # (T, n) bytes written
    LB: np.ndarray             # (T, n) lower bounds on N_i
    UB: np.ndarray             # (T, n) upper bounds on N_i
    N: np.ndarray              # (n,)  true totals
    total_time: float
    output_rows: int = 0
    spill_events: int = 0
    output: "object | None" = None  # Chunk of result rows when collected
    D: np.ndarray | None = None  # (T, n) per-node done flags at each snapshot

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def nbytes(self) -> int:
        """Memory footprint of the recorded trajectories (array members
        only — the dominant term; metadata is O(nodes)).  The sharded
        service's admission control charges a replay session this many
        bytes against its shard's memory budget."""
        total = (self.times.nbytes + self.K.nbytes + self.R.nbytes
                 + self.W.nbytes + self.LB.nbytes + self.UB.nbytes
                 + self.N.nbytes)
        if self.D is not None:
            total += self.D.nbytes
        return total

    # -- persistence (repro.trace) ------------------------------------------

    def to_trace(self, path):
        """Record this run as a single-run trace directory (see
        :mod:`repro.trace`).  Returns the written :class:`~pathlib.Path`."""
        from repro.trace.store import write_trace

        return write_trace(path, [self])

    @staticmethod
    def from_trace(path) -> "QueryRun":
        """Replay a single-run trace written by :meth:`to_trace`."""
        from repro.trace.store import read_trace

        runs, _ = read_trace(path)
        if len(runs) != 1:
            raise ValueError(
                f"expected a single-run trace at {path}, found {len(runs)} "
                f"runs; use repro.trace.read_trace for bundles")
        return runs[0]

    def true_progress(self) -> np.ndarray:
        """Time-based ground-truth progress at each observation."""
        if self.total_time <= 0:
            return np.zeros_like(self.times)
        return np.clip(self.times / self.total_time, 0.0, 1.0)

    def pipeline_run(self, pid: int, min_observations: int = 5) -> "PipelineRun | None":
        """Extract one pipeline's trajectories, or None if too short to score."""
        info = self.pipelines[pid]
        if not info.executed:
            return None
        mask = (self.times >= info.t_start) & (self.times <= info.t_end)
        if int(mask.sum()) < min_observations:
            return None
        cols = np.asarray(info.node_ids)
        node_by_id = {n.node_id: n for n in self.nodes}
        members = [node_by_id[i] for i in info.node_ids]
        local_index = {nid: j for j, nid in enumerate(info.node_ids)}
        parent_local = np.array([
            local_index.get(n.parent, -1) for n in members], dtype=np.int64)
        driver_set = set(info.driver_ids)
        # Bytes the pipeline's output materializes into (Bytes-Processed
        # model): input of a sort or hash build is written as-is; a hash
        # aggregate writes its (smaller) result.
        terminal = members[0]
        parent_info = node_by_id.get(terminal.parent)
        materialized_est = 0.0
        if parent_info is not None:
            if parent_info.op == Op.SORT or terminal.is_build_side:
                materialized_est = terminal.est_rows * terminal.est_row_width
            elif parent_info.op == Op.HASH_AGG:
                materialized_est = parent_info.est_rows * parent_info.est_row_width
        return PipelineRun(
            pid=pid,
            query_name=self.query_name,
            db_name=self.db_name,
            times=self.times[mask],
            t_start=info.t_start,
            t_end=info.t_end,
            K=self.K[np.ix_(mask, cols)],
            R=self.R[np.ix_(mask, cols)],
            W=self.W[np.ix_(mask, cols)],
            LB=self.LB[np.ix_(mask, cols)],
            UB=self.UB[np.ix_(mask, cols)],
            E0=np.array([n.est_rows for n in members]),
            N=self.N[cols],
            widths=np.array([n.est_row_width for n in members]),
            table_rows=np.array([n.table_rows for n in members]),
            ops=[n.op for n in members],
            driver_mask=np.array([n.node_id in driver_set for n in members]),
            parent_local=parent_local,
            node_ids=cols,
            materialized_bytes_est=materialized_est,
        )

    def pipeline_runs(self, min_observations: int = 5) -> list["PipelineRun"]:
        """All scorable pipelines of this run."""
        runs = []
        for info in self.pipelines:
            pr = self.pipeline_run(info.pid, min_observations)
            if pr is not None:
                runs.append(pr)
        return runs


@dataclass
class PipelineRun:
    """One pipeline's view of an execution (see module docstring).

    All matrices are ``(T_p, m)`` where ``T_p`` is the number of
    observations inside the pipeline's activity window and ``m`` the number
    of member nodes, ordered as in the plan's preorder.
    """

    pid: int
    query_name: str
    db_name: str
    times: np.ndarray
    t_start: float
    t_end: float
    K: np.ndarray
    R: np.ndarray
    W: np.ndarray
    LB: np.ndarray
    UB: np.ndarray
    E0: np.ndarray
    N: np.ndarray
    widths: np.ndarray
    table_rows: np.ndarray
    ops: list[Op]
    driver_mask: np.ndarray
    parent_local: np.ndarray
    node_ids: np.ndarray
    materialized_bytes_est: float = 0.0
    _known: np.ndarray | None = field(default=None, repr=False)

    @property
    def n_observations(self) -> int:
        return len(self.times)

    @property
    def n_nodes(self) -> int:
        return len(self.ops)

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    def true_progress(self) -> np.ndarray:
        """Ground truth: fraction of the pipeline's time window elapsed."""
        return np.clip((self.times - self.t_start) / max(self.duration, 1e-12),
                       0.0, 1.0)

    def known_totals(self) -> np.ndarray:
        """Best per-node totals available at pipeline start.

        Scans have exact cardinalities in the catalog; blocking sources
        (sort / hash aggregate) know their materialized row count; anything
        else falls back to the optimizer estimate ``E0`` (paper §3.4: "in
        many cases the exact sizes of the inputs to the driver nodes of a
        pipeline are known").
        """
        if self._known is not None:
            return self._known
        totals = self.E0.copy()
        for j, op in enumerate(self.ops):
            if op in _KNOWN_SOURCE_OPS and np.isfinite(self.table_rows[j]):
                totals[j] = self.table_rows[j]
            elif op in _MATERIALIZED_OPS:
                totals[j] = self.N[j]
        self._known = totals
        return totals

    def node_mask(self, *ops: Op) -> np.ndarray:
        return np.array([op in ops for op in self.ops])

    def driver_fraction(self) -> np.ndarray:
        """Fraction of the driver-node input consumed at each observation.

        This is the paper's marker quantity for dynamic features: the first
        observation where it crosses x% defines ``t{x}``.
        """
        totals = self.known_totals()
        denom = float(totals[self.driver_mask].sum())
        if denom <= 0:
            return np.zeros(self.n_observations)
        consumed = self.K[:, self.driver_mask].sum(axis=1)
        return np.clip(consumed / denom, 0.0, 1.0)

    def observation_at_driver_fraction(self, x_percent: float) -> int | None:
        """Index of ``t{x}``: first observation with >= x% driver input read."""
        fraction = self.driver_fraction()
        hits = np.flatnonzero(fraction >= x_percent / 100.0)
        return int(hits[0]) if len(hits) else None


def live_pipeline_run(ctx, pipe, row: int, query_name: str = "(online)",
                      min_observations: int = 2) -> "PipelineRun | None":
    """Causal :class:`PipelineRun` snapshot of a pipeline as of log ``row``.

    ``ctx`` is a live :class:`~repro.engine.executor.ExecContext` or a
    :class:`~repro.trace.replay.ReplayContext` (taken duck-typed to avoid
    an import cycle), ``pipe`` one of its pipelines, started by ``row``.
    Only log rows ``<= row`` are read.  Unlike
    :meth:`QueryRun.pipeline_run`, true totals are unknown mid-flight:
    ``N`` holds the best knowledge at the row — exact counters for finished
    nodes, the materialized input count for blocking sources whose build
    completed, and the optimizer estimate ``E0`` otherwise.  Returns ``None``
    while the pipeline has fewer than ``min_observations`` snapshots.
    """
    arrays = ctx.log.as_arrays(row + 1)
    K_now = arrays["K"][row]
    done = arrays["D"][row]
    t_start = float(ctx.pipe_first[pipe.pid])
    mask = arrays["times"] >= t_start
    if int(mask.sum()) < min_observations:
        return None
    cols = np.asarray(pipe.node_ids)
    members = pipe.nodes
    local = {nid: j for j, nid in enumerate(pipe.node_ids)}
    parent_local = np.array([
        local.get(ctx.parents.get(n.node_id, -1), -1) for n in members],
        dtype=np.int64)
    driver_set = set(pipe.driver_ids)
    n_partial = np.array([n.est_rows for n in members])
    for j, node in enumerate(members):
        if done[node.node_id]:
            n_partial[j] = K_now[node.node_id]
        elif node.op in _MATERIALIZED_OPS and node.children:
            child = node.children[0].node_id
            if done[child]:
                n_partial[j] = K_now[child]
    return PipelineRun(
        pid=pipe.pid,
        query_name=query_name,
        db_name=ctx.db.name,
        times=arrays["times"][mask],
        t_start=t_start,
        t_end=float(arrays["times"][row]),
        K=arrays["K"][np.ix_(mask, cols)],
        R=arrays["R"][np.ix_(mask, cols)],
        W=arrays["W"][np.ix_(mask, cols)],
        LB=arrays["LB"][np.ix_(mask, cols)],
        UB=arrays["UB"][np.ix_(mask, cols)],
        E0=np.array([n.est_rows for n in members]),
        N=n_partial,
        widths=np.array([n.est_row_width for n in members]),
        table_rows=np.array([
            float(ctx.db.table(n.table).n_rows) if n.table else np.nan
            for n in members]),
        ops=[n.op for n in members],
        driver_mask=np.array([n.node_id in driver_set for n in members]),
        parent_local=parent_local,
        node_ids=cols,
    )
