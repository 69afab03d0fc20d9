"""The fuzzer's cross-layer differential oracle.

Every fuzz scenario is checked on six independent layers, each of which
pins a different subsystem against a different source of truth:

1. **Output** — the engine's collected result rows must match the naive
   NumPy reference evaluator (:mod:`repro.fuzz.reference`).
2. **Progress invariants** — at every :class:`ObservationLog` snapshot the
   recorded trajectories must be internally consistent (monotone counters,
   sane bounds, done-flag latching), every registered estimator must be
   defined, the GetNext-model family must be monotone, and the worst-case
   estimators must stay inside their feasible interval.
3. **Kernel parity** — every estimator's structure-of-arrays kernel
   (:mod:`repro.progress.soa`) must reproduce its batch ``estimate``
   trajectory bit-for-bit on every scorable pipeline, and every running
   pipeline's value in each served report must equal the chosen
   estimator's ``estimate`` on the causal prefix of the report's row.
4. **Trace round-trip** — recording the run and reading it back must be
   bit-identical, and a monitor replayed from the recording must emit the
   bit-identical report stream the live monitor emitted.
5. **Service parity** — scheduling the same runs through the pooled
   :class:`~repro.service.service.ProgressService` (time-sliced, batched
   selector scoring) must reproduce each solo report stream bit-identically;
   the sharded variant partitions them across a
   :class:`~repro.service.sharded.ShardedProgressService` (report batches
   round-tripped through the wire codec) under both placements and makes
   the same demand.
6. **Network parity** — serving the same runs through the asyncio front
   end (:class:`~repro.service.net.ProgressServer`) and subscribing over
   real sockets must deliver every session's stream *byte*-identically to
   the solo monitoring bytes: the WebSocket frames a client collects and
   the ``reports`` route's payload both re-encode to exactly
   ``reports_to_payload`` of the solo stream.

Violations raise :class:`OracleViolation`, an ``AssertionError`` whose
message always carries the scenario's seed and the exact shell command
that reproduces it — copy it straight out of a CI log.
"""

from __future__ import annotations

import asyncio
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.monitor import ProgressMonitor, ProgressReport
from repro.engine.counters import UNBOUNDED
from repro.engine.run import QueryRun, live_pipeline_run
from repro.fuzz.reference import ReferenceResult, compare_output
from repro.progress.gold import BytesProcessedOracle, GetNextOracle
from repro.progress.registry import all_estimators
from repro.progress.soa import kernel_estimates
from repro.query.logical import QuerySpec
from repro.runtime.transport import reports_from_payload, reports_to_payload
from repro.service import ProgressService, ShardedProgressService
from repro.service.net import ProgressClient, ProgressServer
from repro.trace.replay import ReplayContext, replay_monitor
from repro.trace.store import read_trace, write_trace

_EPS = 1e-9

#: Estimators whose value is a ratio of monotone GetNext aggregates over
#: *fixed* totals; on real (executed) trajectories these must be monotone.
#: TGN is excluded here (its denominator tracks the moving bounds), as are
#: PMAX/SAFE (bounds move) and LUO (speed extrapolation) — see the
#: Hypothesis properties in ``tests/test_progress_properties.py`` for the
#: fixed-totals variant of the same claim.
MONOTONE_FUZZ = ("dne", "batch_dne", "dne_seek", "tgn_int")

_ALL_ESTIMATORS = all_estimators(include_worst_case=True,
                                 include_extensions=True)

#: the §6.7 idealized models join the kernel-parity sweep — their kernels
#: are exercised nowhere else
_PARITY_ESTIMATORS = _ALL_ESTIMATORS + [GetNextOracle(),
                                        BytesProcessedOracle()]


@dataclass(frozen=True)
class OracleContext:
    """Where a check is running, for failure messages."""

    seed: int
    repro: str
    query: str = ""

    def where(self) -> str:
        return f"seed={self.seed}" + (f" query={self.query}" if self.query
                                      else "")


class OracleViolation(AssertionError):
    """A differential-oracle failure, with the repro command inline."""

    def __init__(self, layer: str, ctx: OracleContext, detail: str):
        self.layer = layer
        self.seed = ctx.seed
        message = (f"[fuzz oracle:{layer}] {ctx.where()}: {detail}\n"
                   f"  reproduce with: {ctx.repro}")
        super().__init__(message)

    def to_payload(self) -> dict:
        """Plain data for crossing a process boundary (parallel sweeps)."""
        return {"layer": self.layer, "seed": self.seed,
                "message": str(self)}

    @classmethod
    def from_payload(cls, payload: dict) -> "OracleViolation":
        """Rebuild a worker's violation verbatim (message already carries
        the repro command, so it is not re-derived)."""
        violation = cls.__new__(cls)
        violation.layer = payload["layer"]
        violation.seed = payload["seed"]
        AssertionError.__init__(violation, payload["message"])
        return violation


def _require(condition: bool, layer: str, ctx: OracleContext,
             detail: str) -> None:
    if not condition:
        raise OracleViolation(layer, ctx, detail)


# -- layer 1: engine output vs. reference -----------------------------------

def check_engine_output(run: QueryRun, ref: ReferenceResult,
                        query: QuerySpec, ctx: OracleContext) -> None:
    problem = compare_output(run.output, ref, query)
    _require(problem is None, "output", ctx, problem or "")
    _require(run.output_rows == ref.expected_rows, "output", ctx,
             f"QueryRun.output_rows {run.output_rows} != collected "
             f"{ref.expected_rows}")


# -- layer 2: progress invariants -------------------------------------------

def check_progress_invariants(run: QueryRun, ctx: OracleContext,
                              min_observations: int = 3) -> None:
    layer = "invariants"
    times, K, R, W = run.times, run.K, run.R, run.W
    LB, UB, D, N = run.LB, run.UB, run.D, run.N
    _require(len(times) >= 2, layer, ctx, "fewer than two observations")
    _require(bool((np.diff(times) >= -_EPS).all()), layer, ctx,
             "observation times decrease")
    for label, M in (("K", K), ("R", R), ("W", W)):
        _require(bool((np.diff(M, axis=0) >= -_EPS).all()), layer, ctx,
                 f"counter {label} decreases over time")
    _require(bool((np.diff(D.astype(np.int8), axis=0) >= 0).all()),
             layer, ctx, "done flag un-latched")
    _require(bool(np.array_equal(LB, K)), layer, ctx,
             "lower bounds diverge from the GetNext counters")
    _require(bool((LB <= UB + _EPS).all()), layer, ctx, "LB exceeds UB")
    _require(bool((UB <= UNBOUNDED + _EPS).all()), layer, ctx,
             "UB exceeds the UNBOUNDED cap")
    _require(bool((UB[D] <= K[D] + _EPS).all()), layer, ctx,
             "a finished node's UB is looser than its counter")
    _require(bool(D[-1].all()), layer, ctx,
             "final snapshot has unfinished nodes")
    if run.spill_events == 0:
        # Without spill-induced extra GetNext calls the online bounds must
        # contain the true totals at every snapshot.
        _require(bool((LB <= N[None, :] + _EPS).all()), layer, ctx,
                 "LB overshoots the true totals (no spills)")
        _require(bool((N[None, :] <= UB + _EPS).all()), layer, ctx,
                 "UB undershoots the true totals (no spills)")

    pipelines = run.pipeline_runs(min_observations=min_observations)
    for pr in pipelines:
        fraction = pr.driver_fraction()
        _require(bool(((0.0 <= fraction) & (fraction <= 1.0)).all()),
                 layer, ctx, f"pid {pr.pid}: driver fraction outside [0,1]")
        _require(bool((np.diff(fraction) >= -1e-12).all()), layer, ctx,
                 f"pid {pr.pid}: driver fraction decreases")
        estimates = {}
        for est in _ALL_ESTIMATORS:
            values = est.estimate(pr)
            estimates[est.name] = values
            _require(values.shape == (pr.n_observations,), layer, ctx,
                     f"pid {pr.pid}: estimator {est.name!r} wrong shape")
            _require(bool(np.isfinite(values).all()), layer, ctx,
                     f"pid {pr.pid}: estimator {est.name!r} not finite")
            _require(bool(((0.0 <= values) & (values <= 1.0)).all()),
                     layer, ctx,
                     f"pid {pr.pid}: estimator {est.name!r} outside [0,1]")
        for name in MONOTONE_FUZZ:
            _require(bool((np.diff(estimates[name]) >= -_EPS).all()),
                     layer, ctx,
                     f"pid {pr.pid}: GetNext-model estimator {name!r} "
                     f"not monotone on a live trajectory")
        # SAFE never overshoots its feasible interval: it sits between
        # PMAX (the interval's low end) and the LB-derived high end.
        k_sum = pr.K.sum(axis=1)
        hi = np.clip(np.divide(
            k_sum, np.maximum(pr.LB.sum(axis=1), 1e-12),
            out=np.zeros_like(k_sum),
            where=pr.LB.sum(axis=1) > 0), 0.0, 1.0)
        _require(bool((estimates["pmax"] <= estimates["safe"] + _EPS).all()),
                 layer, ctx,
                 f"pid {pr.pid}: SAFE fell below PMAX")
        _require(bool((estimates["safe"] <= hi + _EPS).all()), layer, ctx,
                 f"pid {pr.pid}: SAFE overshoots the feasible interval")
        if run.spill_events == 0:
            true_gnm = np.clip(np.divide(
                k_sum, max(float(pr.N.sum()), 1e-12),
                out=np.zeros_like(k_sum),
                where=pr.N.sum() > 0), 0.0, 1.0)
            _require(bool((estimates["pmax"] <= true_gnm + 1e-6).all()),
                     layer, ctx,
                     f"pid {pr.pid}: PMAX overshoots true GetNext progress "
                     f"(no spills)")


# -- layer 3: kernels vs. batch estimate ------------------------------------

def reference_progress(run: QueryRun, reports: list[ProgressReport],
                       monitor: ProgressMonitor) -> list[dict[int, float]]:
    """Per report, the per-pipeline progress the batch definition gives.

    Report ``k`` was cut at observation ``R = (k + 1) * refresh_every - 1``;
    a :class:`~repro.trace.replay.ReplayContext` yields each pipeline's
    causal prefix as of ``R`` exactly as the live capture saw it.  A
    running pipeline's reference is ``estimate(prefix)[-1]`` of the
    estimator the report names for it; unstarted and too-short pipelines
    are 0.0, finished ones 1.0.  Recomputes every prefix from scratch —
    O(T²·m) over a query's life, the cost the kernels avoid.
    """
    ctx = ReplayContext(run)
    ctx.seek(len(run.times) - 1)
    out = []
    for k, report in enumerate(reports):
        R = (k + 1) * monitor.refresh_every - 1
        values: dict[int, float] = {}
        for pipe in ctx.pipelines:
            pid = pipe.pid
            started = ctx.pipe_first_row[pid] <= R
            if started and run.D[R, pipe.terminal.node_id]:
                values[pid] = 1.0
                continue
            pr = live_pipeline_run(ctx, pipe, R) if started else None
            if pr is None:
                values[pid] = 0.0
                continue
            est = monitor.estimators[report.pipeline_estimator[pid]]
            values[pid] = float(est.estimate(pr)[-1])
        out.append(values)
    return out


def check_kernel_parity(run: QueryRun, reports: list[ProgressReport],
                        monitor: ProgressMonitor, ctx: OracleContext,
                        min_observations: int = 3) -> None:
    """The kernels must reproduce batch ``estimate`` bit-for-bit.

    Two granularities: per estimator, the kernel over each completed
    pipeline (one slot, ``N`` at the truth) against ``estimate(pr)``;
    and per served report, every pipeline's value against
    :func:`reference_progress`.
    """
    layer = "kernel"
    for pr in run.pipeline_runs(min_observations=min_observations):
        for est in _PARITY_ESTIMATORS:
            batch = est.estimate(pr)
            kernel = kernel_estimates(est, pr)
            if not np.array_equal(batch, kernel):
                delta = float(np.abs(batch - kernel).max())
                _require(False, layer, ctx,
                         f"pid {pr.pid}: estimator {est.name!r} kernel "
                         f"trajectory diverges from estimate "
                         f"(max |delta| = {delta:.3e})")
    expected = len(run.times) // monitor.refresh_every
    _require(len(reports) == expected, layer, ctx,
             f"{len(reports)} reports served, {expected} due at "
             f"refresh_every={monitor.refresh_every}")
    reference = reference_progress(run, reports, monitor)
    for k, (report, want) in enumerate(zip(reports, reference)):
        _require(report.pipeline_progress == want, layer, ctx,
                 f"report {k}: served pipeline progress "
                 f"{report.pipeline_progress} != estimate on the causal "
                 f"prefix {want}")


# -- layer 4: trace round-trip + replayed monitoring ------------------------

def _nan_equal(a: float, b: float) -> bool:
    return (np.isnan(a) and np.isnan(b)) or a == b


def reports_equal(a: ProgressReport, b: ProgressReport) -> bool:
    return (a.time == b.time and a.progress == b.progress
            and a.active_pid == b.active_pid
            and a.active_estimator == b.active_estimator
            and a.pipeline_progress == b.pipeline_progress
            and a.pipeline_estimator == b.pipeline_estimator)


def report_streams_equal(a: list[ProgressReport],
                         b: list[ProgressReport]) -> bool:
    return len(a) == len(b) and all(reports_equal(x, y)
                                    for x, y in zip(a, b))


def check_trace_roundtrip(run: QueryRun, live_reports: list[ProgressReport],
                          monitor: ProgressMonitor,
                          ctx: OracleContext) -> None:
    layer = "trace"
    with tempfile.TemporaryDirectory() as tmp:
        path = write_trace(Path(tmp) / "trace", [run])
        replayed, manifest = read_trace(path)
    _require(len(replayed) == 1, layer, ctx,
             f"round-trip returned {len(replayed)} runs")
    rep = replayed[0]
    for name in ("times", "K", "R", "W", "LB", "UB", "N", "D"):
        _require(bool(np.array_equal(getattr(run, name), getattr(rep, name))),
                 layer, ctx, f"array {name!r} not bit-identical after "
                 f"round-trip")
    _require(len(rep.nodes) == len(run.nodes), layer, ctx,
             "node count changed in round-trip")
    for a, b in zip(run.nodes, rep.nodes):
        same = (a.node_id == b.node_id and a.op == b.op
                and a.table == b.table and a.est_rows == b.est_rows
                and a.est_row_width == b.est_row_width
                and _nan_equal(a.table_rows, b.table_rows)
                and a.pid == b.pid and a.parent == b.parent
                and a.is_driver == b.is_driver
                and a.is_build_side == b.is_build_side
                and a.join_kind == b.join_kind)
        _require(same, layer, ctx,
                 f"node {a.node_id} metadata changed in round-trip")
    _require(len(rep.pipelines) == len(run.pipelines), layer, ctx,
             "pipeline count changed in round-trip")
    for p, q in zip(run.pipelines, rep.pipelines):
        same = (p.pid == q.pid and p.node_ids == q.node_ids
                and p.driver_ids == q.driver_ids
                and _nan_equal(p.t_start, q.t_start)
                and _nan_equal(p.t_end, q.t_end))
        _require(same, layer, ctx,
                 f"pipeline {p.pid} metadata changed in round-trip")
    _require(rep.total_time == run.total_time
             and rep.output_rows == run.output_rows
             and rep.spill_events == run.spill_events, layer, ctx,
             "run scalars changed in round-trip")
    replayed_reports = replay_monitor(monitor, rep)
    _require(report_streams_equal(live_reports, replayed_reports),
             layer, ctx,
             f"replayed report stream diverges from live monitoring "
             f"({len(replayed_reports)} vs {len(live_reports)} reports)")


# -- layer 5: pooled service vs. solo monitoring ----------------------------

def check_service_parity(runs: list[QueryRun],
                         solo_reports: list[list[ProgressReport]],
                         monitor: ProgressMonitor, ctx: OracleContext,
                         slice_steps: int = 4,
                         max_live: int | None = None,
                         shards: int | None = None) -> None:
    layer = "service"
    service = ProgressService(monitor, slice_steps=slice_steps,
                              max_live=max_live)
    ids = [service.submit_replay(run) for run in runs]
    service.run_until_complete(max_ticks=1_000_000)
    for sid, solo, run in zip(ids, solo_reports, runs):
        session = service.session(sid)
        _require(report_streams_equal(solo, session.reports), layer, ctx,
                 f"service-scheduled reports for {run.query_name!r} "
                 f"diverge from solo monitoring "
                 f"({len(session.reports)} vs {len(solo)} reports; "
                 f"slice_steps={slice_steps}, max_live={max_live})")
    _require(service.stats.sessions_completed
             == service.stats.sessions_submitted, layer, ctx,
             f"service drained but completed "
             f"{service.stats.sessions_completed} of "
             f"{service.stats.sessions_submitted} submitted sessions")
    if shards is not None:
        check_sharded_parity(runs, solo_reports, monitor, ctx,
                             slice_steps=slice_steps, max_live=max_live,
                             shards=shards)


def check_sharded_parity(runs: list[QueryRun],
                         solo_reports: list[list[ProgressReport]],
                         monitor: ProgressMonitor, ctx: OracleContext,
                         slice_steps: int = 4,
                         max_live: int | None = None,
                         shards: int = 2) -> None:
    """Layer 5, sharded: partitioned serving must match solo monitoring.

    Runs the same submissions through a :class:`ShardedProgressService`
    (inline shards, but every report batch still round-trips through the
    wire codec) and requires each session's stream to be bit-identical to
    its solo stream — under an arbitrary shard count, slice size and
    per-shard admission bound.  Both placements are exercised: they remap
    sessions to shards, which per-session parity must not notice.
    """
    layer = "service"
    for placement in ("round_robin", "hash"):
        service = ShardedProgressService(
            monitor, n_shards=shards, slice_steps=slice_steps,
            max_live=max_live, placement=placement)
        ids = [service.submit_replay(run) for run in runs]
        results = service.run_until_complete(max_ticks=1_000_000)
        service.close()
        for sid, solo, run in zip(ids, solo_reports, runs):
            _, reports = results[sid]
            _require(report_streams_equal(solo, reports), layer, ctx,
                     f"sharded reports ({shards} shards, {placement}) for "
                     f"{run.query_name!r} diverge from solo monitoring "
                     f"({len(reports)} vs {len(solo)} reports; "
                     f"slice_steps={slice_steps}, max_live={max_live})")
        fleet = service.stats.service
        _require(fleet.sessions_completed == fleet.sessions_submitted
                 == len(runs), layer, ctx,
                 f"sharded service drained ({shards} shards, {placement}) "
                 f"but completed {fleet.sessions_completed} of "
                 f"{fleet.sessions_submitted} submitted sessions "
                 f"({len(runs)} expected)")


# -- layer 6: network serving vs. solo monitoring ----------------------------

def check_network_parity(runs: list[QueryRun],
                         solo_reports: list[list[ProgressReport]],
                         monitor: ProgressMonitor, ctx: OracleContext,
                         slice_steps: int = 4,
                         max_live: int | None = None,
                         shards: int = 2,
                         tenant: str = "fuzz") -> None:
    """Layer 6: client-observed streams must equal solo monitoring *bytes*.

    Spins a real :class:`~repro.service.net.ProgressServer` (inline
    shards) on an ephemeral localhost port, submits every run over HTTP,
    subscribes to each session's WebSocket stream concurrently, and
    requires two byte-level identities per session:

    * the concatenation of the client's binary stream frames re-encodes
      to exactly ``reports_to_payload`` of the solo report stream;
    * the ``reports`` route returns that same payload verbatim.

    This closes the loop the service layers leave open: not just the
    decoded rows but the wire bytes a remote subscriber observes are
    pinned to solo monitoring, end to end through HTTP parsing, the RFC
    6455 framing and the server's merge/wakeup path.
    """
    layer = "network"

    async def scenario():
        async with ProgressServer(monitor, n_shards=shards,
                                  slice_steps=slice_steps,
                                  max_live=max_live) as server:
            async with ProgressClient(*server.address) as client:
                sids = await client.submit_runs(tenant, runs)
                streams = await asyncio.gather(*[
                    client.stream(tenant, sid) for sid in sids])
                payloads = [await client.reports_payload(tenant, sid)
                            for sid in sids]
        return sids, streams, payloads

    sids, streams, payloads = asyncio.run(scenario())
    for sid, (frames, done), payload, solo, run in zip(
            sids, streams, payloads, solo_reports, runs):
        rows = [pair for frame in frames
                for pair in reports_from_payload(frame)]
        expected = reports_to_payload([(sid, report) for report in solo])
        _require(reports_to_payload(rows) == expected, layer, ctx,
                 f"WebSocket stream for {run.query_name!r} (session {sid}) "
                 f"is not byte-identical to solo monitoring "
                 f"({len(rows)} rows streamed vs {len(solo)} solo; "
                 f"shards={shards}, slice_steps={slice_steps}, "
                 f"max_live={max_live})")
        _require(payload == expected, layer, ctx,
                 f"reports route payload for {run.query_name!r} (session "
                 f"{sid}) is not byte-identical to solo monitoring")
        _require(done.get("reports") == len(solo), layer, ctx,
                 f"completion frame for {run.query_name!r} counts "
                 f"{done.get('reports')} reports, solo stream has "
                 f"{len(solo)}")
