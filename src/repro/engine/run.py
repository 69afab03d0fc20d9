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
the causal snapshot the progress service's selection features read
through the SoA kernels (a snapshot at row *R* only uses log rows up to
*R*, and fixes ``N`` at that row).

Both views take their static fields (node ids, operators, ``E0``, widths,
table rows, driver mask, parent links, blocking-source children) from
:func:`pipeline_static`, which reads the plan as a preorder
:class:`NodeInfo` list: the executor builds that list when a query
begins, and a recording carries it, so offline, live and replayed runs
describe every pipeline from the same data.
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
        static = pipeline_static(self.nodes, info)
        cols = static["node_ids"]
        sel = np.ix_(mask, cols)
        # Bytes the pipeline's output materializes into (Bytes-Processed
        # model): input of a sort or hash build is written as-is; a hash
        # aggregate writes its (smaller) result.
        terminal = self.nodes[cols[0]]
        materialized_est = 0.0
        if terminal.parent >= 0:
            parent_info = self.nodes[terminal.parent]
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
            K=self.K[sel],
            W=self.W[sel],
            LB=self.LB[sel],
            UB=self.UB[sel],
            N=self.N[cols],
            materialized_bytes_est=materialized_est,
            **static,
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
    #: blocking sources (sort / hash aggregate members) as local indices,
    #: and their build children's node ids: once the child finished, its
    #: counter is the source's exact total (the ``n_partial`` rule)
    mat_idx: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64))
    mat_child_ids: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64))
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
        observation where it crosses x% defines ``t{x}``.  It is the DNE
        estimate's arithmetic, so the features read their markers off the
        DNE kernel's trajectory (:mod:`repro.features.vector`).
        """
        totals = self.known_totals()
        denom = float(totals[self.driver_mask].sum())
        if denom <= 0:
            return np.zeros(self.n_observations)
        consumed = self.K[:, self.driver_mask].sum(axis=1)
        return np.clip(consumed / denom, 0.0, 1.0)


def pipeline_static(nodes: list[NodeInfo], pipe) -> dict:
    """The static fields of one pipeline's :class:`PipelineRun` view.

    ``nodes`` is a plan's :class:`NodeInfo` list in preorder (a node's id
    is its position in it); ``pipe`` exposes the pipeline's ``node_ids``
    (terminal first) and ``driver_ids`` — a recorded :class:`PipelineInfo`
    or a live :class:`~repro.plan.pipelines.Pipeline`.  The keys are
    :class:`PipelineRun` field names.  Offline (:meth:`QueryRun.pipeline_run`),
    live and replayed (:func:`live_pipeline_run`) views and
    ``repro.progress.soa.PipelineMeta`` all take their static fields from
    here, so what training saw is what serving scores.
    """
    ids = list(pipe.node_ids)
    members = [nodes[i] for i in ids]
    local = {nid: j for j, nid in enumerate(ids)}
    drivers = set(pipe.driver_ids)
    # a blocking source's one child follows it in preorder
    mat = [j for j, n in enumerate(members) if n.op in _MATERIALIZED_OPS]
    return dict(
        node_ids=np.asarray(ids),
        ops=[n.op for n in members],
        E0=np.array([n.est_rows for n in members]),
        widths=np.array([n.est_row_width for n in members]),
        table_rows=np.array([n.table_rows for n in members]),
        driver_mask=np.array([n.node_id in drivers for n in members]),
        parent_local=np.array([local.get(n.parent, -1) for n in members],
                              dtype=np.int64),
        mat_idx=np.array(mat, dtype=np.int64),
        mat_child_ids=np.array([ids[j] + 1 for j in mat], dtype=np.int64),
    )


def partial_totals(K: np.ndarray, D: np.ndarray, node_ids: np.ndarray,
                   E0: np.ndarray, mat_idx: np.ndarray,
                   mat_child_ids: np.ndarray) -> np.ndarray:
    """Best per-node totals of a running pipeline at log rows.

    ``K`` and ``D`` are full-width counter and done-flag rows: one row's
    vectors, or ``(rows, width)`` arrays of several.  The ``n_partial``
    rule: a finished node's counter; a blocking source whose build child
    finished, the child's counter; the optimizer estimate ``E0`` otherwise.
    """
    done = D[..., node_ids]
    out = np.where(done, K[..., node_ids], E0)
    if len(mat_idx):
        child_done = D[..., mat_child_ids] & ~done[..., mat_idx]
        out[..., mat_idx] = np.where(child_done, K[..., mat_child_ids],
                                     out[..., mat_idx])
    return out


def live_pipeline_run(ctx, pipe, row: int, query_name: str = "(online)",
                      min_observations: int = 2) -> "PipelineRun | None":
    """Causal :class:`PipelineRun` snapshot of a pipeline as of log ``row``.

    ``ctx`` is a live :class:`~repro.engine.executor.ExecContext` or a
    :class:`~repro.trace.replay.ReplayContext` — both describe their plan
    as a preorder :class:`NodeInfo` list (``ctx.nodes``) — and ``pipe``
    one of its pipelines, started by ``row``.  Only log rows ``<= row`` are
    read.  Unlike :meth:`QueryRun.pipeline_run`, true totals are unknown
    mid-flight: ``N`` holds the best knowledge at the row
    (:func:`partial_totals`).  Returns ``None`` while the pipeline has
    fewer than ``min_observations`` snapshots.

    ``materialized_bytes_est`` stays 0.0 here, while the offline view
    estimates it from the plan: a known train/serve skew in the LUO
    values and the ``cor_luo_*`` features (see ROADMAP), left as is
    because fixing it changes served bytes.
    """
    arrays = ctx.log.as_arrays(row + 1)
    t_start = float(ctx.pipe_first[pipe.pid])
    mask = arrays["times"] >= t_start
    if int(mask.sum()) < min_observations:
        return None
    static = pipeline_static(ctx.nodes, pipe)
    sel = np.ix_(mask, static["node_ids"])
    return PipelineRun(
        pid=pipe.pid,
        query_name=query_name,
        db_name=ctx.db_name,
        times=arrays["times"][mask],
        t_start=t_start,
        t_end=float(arrays["times"][row]),
        K=arrays["K"][sel],
        W=arrays["W"][sel],
        LB=arrays["LB"][sel],
        UB=arrays["UB"][sel],
        N=partial_totals(arrays["K"][row], arrays["D"][row],
                         static["node_ids"], static["E0"],
                         static["mat_idx"], static["mat_child_ids"]),
        **static,
    )
