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
    exactly through JSON.
    """
    try:
        arrays = {key: members[prefix + key] for key in MEMBER_KEYS}
    except KeyError as exc:
        raise ValueError(f"trace arrays missing member {exc}") from exc
    C = np.asarray(arrays["C"], dtype=np.float64)
    if C.ndim != 3 or C.shape[0] != len(COUNTER_KEYS):
        raise ValueError(f"counter block must be (5, T, n), got {C.shape}")
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


def check_trace_version(manifest: dict[str, Any]) -> None:
    """Raise a clear error unless ``manifest`` is readable by this build."""
    require_format_version(manifest, TRACE_FORMAT_VERSION, "trace")


# -- report rows (the sharded service's wire format) --------------------------

#: Per-batch member names of the report-row codec: raw-buffer members of
#: a ``reports_to_payload`` body (:mod:`repro.runtime.transport`), listed
#: in its member table next to the ``sids`` member.
REPORT_MEMBER_KEYS = ("time", "progress", "active_pid", "active_est",
                      "pp_off", "pp_pid", "pp_val", "pe_off", "pe_pid",
                      "pe_est")


def reports_to_columns(reports) -> "tuple[dict[str, Any], dict[str, np.ndarray]]":
    """Encode a batch of :class:`~repro.core.monitor.ProgressReport` rows.

    Columnar split in the spirit of :func:`run_to_members`: every float
    crosses as binary float64 (bit-exact), strings are interned into one
    estimator-name table in the JSON-safe header entry, and the two
    variable-length per-report maps (``pipeline_progress`` /
    ``pipeline_estimator``) flatten into value arrays with offset arrays,
    CSR-style.  This is the sharded service's per-tick wire format — a
    decoded report compares equal to the original field by field, which
    the cross-shard bit-identity guarantee rides on.
    """
    names: list[str] = []
    index: dict[str, int] = {}

    def intern(name: str | None) -> int:
        if name is None:
            return -1
        at = index.get(name)
        if at is None:
            at = index[name] = len(names)
            names.append(name)
        return at

    n = len(reports)
    time = np.empty(n, dtype=np.float64)
    progress = np.empty(n, dtype=np.float64)
    active_pid = np.empty(n, dtype=np.int64)
    active_est = np.empty(n, dtype=np.int64)
    pp_off = np.zeros(n + 1, dtype=np.int64)
    pe_off = np.zeros(n + 1, dtype=np.int64)
    pp_pid: list[int] = []
    pp_val: list[float] = []
    pe_pid: list[int] = []
    pe_est: list[int] = []
    for i, report in enumerate(reports):
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
    entry = {"count": n, "estimators": names}
    members = {
        "time": time, "progress": progress,
        "active_pid": active_pid, "active_est": active_est,
        "pp_off": pp_off,
        "pp_pid": np.asarray(pp_pid, dtype=np.int64),
        "pp_val": np.asarray(pp_val, dtype=np.float64),
        "pe_off": pe_off,
        "pe_pid": np.asarray(pe_pid, dtype=np.int64),
        "pe_est": np.asarray(pe_est, dtype=np.int64),
    }
    return entry, members


def reports_from_columns(entry: dict[str, Any],
                         members: Mapping[str, np.ndarray],
                         prefix: str = "") -> list:
    """Decode :func:`reports_to_columns` output back into report objects."""
    from repro.core.monitor import ProgressReport

    names = list(entry["estimators"])
    col = {key: members[f"{prefix}{key}"].tolist()
           for key in REPORT_MEMBER_KEYS}
    reports = []
    for i in range(int(entry["count"])):
        pp_lo, pp_hi = col["pp_off"][i], col["pp_off"][i + 1]
        pe_lo, pe_hi = col["pe_off"][i], col["pe_off"][i + 1]
        est = col["active_est"][i]
        reports.append(ProgressReport(
            time=col["time"][i],
            progress=col["progress"][i],
            active_pid=col["active_pid"][i],
            active_estimator=None if est < 0 else names[est],
            pipeline_progress=dict(zip(col["pp_pid"][pp_lo:pp_hi],
                                       col["pp_val"][pp_lo:pp_hi])),
            pipeline_estimator={
                pid: names[at]
                for pid, at in zip(col["pe_pid"][pe_lo:pe_hi],
                                   col["pe_est"][pe_lo:pe_hi])},
        ))
    return reports
