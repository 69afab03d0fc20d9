"""Test helpers: hand-built PipelineRun trajectories.

Building synthetic :class:`PipelineRun` objects lets estimator and feature
tests assert exact values without going through the executor.
:func:`extract` is the feature extraction training does over views,
:func:`reports_payload_oracle` the report codec's per-report definition,
and :data:`MALFORMED_RUNS` the ways a recorded run's parts can fail to
fit together.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.engine.run import PipelineRun, QueryRun
from repro.plan.nodes import Op
from repro.progress.soa import FlushBatch, PipelineMeta


def make_pipeline_run(
    ops: list[Op],
    K: np.ndarray,
    *,
    parents: list[int] | None = None,
    drivers: list[int] | None = None,
    E0: np.ndarray | None = None,
    N: np.ndarray | None = None,
    times: np.ndarray | None = None,
    table_rows: np.ndarray | None = None,
    widths: np.ndarray | None = None,
    LB: np.ndarray | None = None,
    UB: np.ndarray | None = None,
    W: np.ndarray | None = None,
    materialized_bytes_est: float = 0.0,
) -> PipelineRun:
    """Construct a PipelineRun from explicit counter trajectories.

    ``K`` is ``(T, m)``; everything else defaults to something consistent:
    linear times, final K as true totals, exact estimates, K-based bounds.
    """
    K = np.asarray(K, dtype=np.float64)
    T, m = K.shape
    if len(ops) != m:
        raise ValueError("ops length must match K columns")
    if times is None:
        times = np.linspace(0.0, 100.0, T)
    if N is None:
        N = K[-1].copy()
    if E0 is None:
        E0 = N.copy()
    if parents is None:
        # default: a simple chain, node 0 on top
        parents = [-1] + list(range(m - 1))
    if drivers is None:
        drivers = [m - 1]  # bottom of the chain
    driver_mask = np.zeros(m, dtype=bool)
    driver_mask[list(drivers)] = True
    if widths is None:
        widths = np.full(m, 8.0)
    if table_rows is None:
        table_rows = np.full(m, np.nan)
    if LB is None:
        LB = K.copy()
    if UB is None:
        UB = np.maximum(np.broadcast_to(N, K.shape), K)
    if W is None:
        W = np.zeros_like(K)
    return PipelineRun(
        pid=0,
        query_name="synthetic",
        db_name="synthetic",
        times=np.asarray(times, dtype=np.float64),
        t_start=float(times[0]),
        t_end=float(times[-1]),
        K=K,
        W=np.asarray(W, dtype=np.float64),
        LB=np.asarray(LB, dtype=np.float64),
        UB=np.asarray(UB, dtype=np.float64),
        E0=np.asarray(E0, dtype=np.float64),
        N=np.asarray(N, dtype=np.float64),
        widths=np.asarray(widths, dtype=np.float64),
        table_rows=np.asarray(table_rows, dtype=np.float64),
        ops=list(ops),
        driver_mask=driver_mask,
        parent_local=np.asarray(parents, dtype=np.int64),
        node_ids=np.arange(m),
        materialized_bytes_est=materialized_bytes_est,
    )


def linear_two_node_run(n_obs: int = 11, total: float = 100.0) -> PipelineRun:
    """Scan -> filter chain where everything progresses linearly."""
    ramp = np.linspace(0.0, total, n_obs)
    K = np.column_stack([ramp * 0.5, ramp])  # filter on top, scan below
    return make_pipeline_run(
        [Op.FILTER, Op.INDEX_SCAN], K,
        parents=[-1, 0], drivers=[1],
        table_rows=np.array([np.nan, total]),
    )


def truncate_run(pr: PipelineRun, upto: int) -> PipelineRun:
    """Causal prefix of a pipeline run: observations [0, upto]."""
    stop = upto + 1
    return PipelineRun(
        pid=pr.pid,
        query_name=pr.query_name,
        db_name=pr.db_name,
        times=pr.times[:stop],
        t_start=pr.t_start,
        t_end=float(pr.times[upto]),
        K=pr.K[:stop],
        W=pr.W[:stop],
        LB=pr.LB[:stop],
        UB=pr.UB[:stop],
        E0=pr.E0,
        N=pr.N,
        widths=pr.widths,
        table_rows=pr.table_rows,
        ops=pr.ops,
        driver_mask=pr.driver_mask,
        parent_local=pr.parent_local,
        node_ids=pr.node_ids,
        materialized_bytes_est=pr.materialized_bytes_est,
    )


def meta_of(pr: PipelineRun, **fields) -> PipelineMeta:
    """:meth:`PipelineMeta.from_pipeline_run` with some constructor
    fields replaced (the kernel metadata is derived from them)."""
    meta = PipelineMeta.from_pipeline_run(pr)
    kwargs = {name: getattr(meta, name) for name in (
        "pid", "node_ids", "ops", "E0",
        "widths", "table_rows", "driver_mask", "parent_local",
        "materialized_bytes_est", "mat_idx", "mat_child_ids")}
    return PipelineMeta(**{**kwargs, **fields})


def extract(extractor, prs: list[PipelineRun]) -> np.ndarray:
    """``extractor``'s feature rows of the pipeline views ``prs``, laid
    out as training lays them (:meth:`FlushBatch.of_pipeline_runs`)."""
    return extractor.extract(
        FlushBatch.of_pipeline_runs(prs, extractor.speed_window))


def reports_payload_oracle(tagged) -> bytes:
    """``(session_id, ProgressReport)`` pairs framed one report at a time:
    the report codec's definition.  Estimator names are interned in order
    of first appearance (each report's active estimator, then its choices
    in key order), the per-pipeline dicts flatten CSR-style and the
    session ids ride as one more int64 member."""
    from repro.runtime.transport import _frame

    names: list[str] = []
    index: dict[str, int] = {}

    def intern(name):
        if name is None:
            return -1
        if name not in index:
            index[name] = len(names)
            names.append(name)
        return index[name]

    n = len(tagged)
    time = np.empty(n)
    progress = np.empty(n)
    active_pid = np.empty(n, dtype=np.int64)
    active_est = np.empty(n, dtype=np.int64)
    pp_off = np.zeros(n + 1, dtype=np.int64)
    pe_off = np.zeros(n + 1, dtype=np.int64)
    pp_pid, pp_val, pe_pid, pe_est = [], [], [], []
    for i, (_, report) in enumerate(tagged):
        time[i] = report.time
        progress[i] = report.progress
        active_pid[i] = report.active_pid
        active_est[i] = intern(report.active_estimator)
        for pid, value in report.pipeline_progress.items():
            pp_pid.append(pid)
            pp_val.append(value)
        pp_off[i + 1] = len(pp_pid)
        for pid, name in report.pipeline_estimator.items():
            pe_pid.append(pid)
            pe_est.append(intern(name))
        pe_off[i + 1] = len(pe_pid)
    members = {
        "time": time, "progress": progress, "active_pid": active_pid,
        "active_est": active_est, "pp_off": pp_off,
        "pp_pid": np.asarray(pp_pid, dtype=np.int64),
        "pp_val": np.asarray(pp_val, dtype=np.float64), "pe_off": pe_off,
        "pe_pid": np.asarray(pe_pid, dtype=np.int64),
        "pe_est": np.asarray(pe_est, dtype=np.int64),
        "sids": np.asarray([sid for sid, _ in tagged], dtype=np.int64)}
    return _frame({"reports": {"count": n, "estimators": names}}, members)


def _edit_node(run: QueryRun, i: int, **fields) -> QueryRun:
    nodes = list(run.nodes)
    nodes[i] = replace(nodes[i], **fields)
    return replace(run, nodes=nodes)


def _edit_pipeline(run: QueryRun, i: int, **fields) -> QueryRun:
    pipelines = list(run.pipelines)
    pipelines[i] = replace(pipelines[i], **fields)
    return replace(run, pipelines=pipelines)


#: A recorded run broken in one way each: the encoder frames every one of
#: them, and decoding must refuse each with ``ValueError``.
MALFORMED_RUNS = {
    "D_one_column_short": lambda r: replace(r, D=r.D[:, :-1]),
    "D_one_row_short": lambda r: replace(r, D=r.D[:-1]),
    "times_one_short": lambda r: replace(r, times=r.times[:-1]),
    "N_one_short": lambda r: replace(r, N=r.N[:-1]),
    "no_observations": lambda r: replace(
        r, times=r.times[:0], K=r.K[:0], R=r.R[:0], W=r.W[:0],
        LB=r.LB[:0], UB=r.UB[:0], D=r.D[:0]),
    "nodes_one_short": lambda r: replace(r, nodes=r.nodes[:-1]),
    "node_id_not_its_index": lambda r: _edit_node(r, 0, node_id=1),
    "parent_past_the_nodes": lambda r: _edit_node(
        r, 0, parent=len(r.nodes)),
    "parent_below_minus_one": lambda r: _edit_node(r, 0, parent=-2),
    "pid_past_the_pipelines": lambda r: _edit_node(
        r, 0, pid=len(r.pipelines)),
    "pid_negative": lambda r: _edit_node(r, 0, pid=-1),
    "pipeline_pid_not_its_index": lambda r: _edit_pipeline(
        r, 0, pid=len(r.pipelines)),
    "node_ids_past_the_nodes": lambda r: _edit_pipeline(
        r, 0, node_ids=[*r.pipelines[0].node_ids, len(r.nodes)]),
    "driver_ids_negative": lambda r: _edit_pipeline(
        r, 0, driver_ids=[*r.pipelines[0].driver_ids, -1]),
}
