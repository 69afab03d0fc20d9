"""Sharded multi-process progress serving.

:class:`ShardedProgressService` scales the pooled
:class:`~repro.service.service.ProgressService` across cores: sessions are
partitioned over N *shards*, each shard runs its own
``ProgressService`` (in a worker process, or inline for the serial path),
and a supervisor drives all shards through lockstep tick rounds, merging
their report streams in submission order.

Design rules, all inherited from :mod:`repro.runtime`:

* **Deterministic placement** — a session's shard depends only on its
  submission index (``round_robin``, the default) or on a stable CRC32 of
  its query name (``hash``); never on scheduling, load, or Python's
  salted ``hash()``.  The same submissions land on the same shards in
  every run.
* **Trace-codec transport** — recorded runs reach their shard through
  :func:`~repro.runtime.transport.runs_to_payload` and finished report
  rows come back through
  :func:`~repro.runtime.transport.reports_to_payload`; engine objects are
  never pickled across the boundary.  Commands and reports are *batched*:
  one submit frame carries a whole wave of runs, one tick frame drives a
  round and returns every report it produced.
* **Order-preserving merge** — within a tick round the shard replies are
  merged by global session id (each shard already emits in local
  submission order, which placement keeps aligned with global order), so
  with unconstrained admission the merged stream is the bit-identical
  sequence the single-process pooled service emits.  Per-session report
  streams are bit-identical under *any* shard count, budget, or slice
  size — pooling transparency (PR 1) makes a session's reports depend
  only on its own recording and refresh cadence.

**Admission control**: each shard enforces a memory budget.  A run whose
trajectories alone exceed the budget is rejected at submit time
(:class:`MemoryBudgetExceeded`); otherwise admission is FIFO — a run that
does not currently fit waits in the shard's deferral queue and is retried
as retiring sessions release their bytes (the
:meth:`~repro.service.service.ProgressService` ``on_complete`` drain hook).

**Graceful drain**: :meth:`run_until_complete` ticks every shard in
lockstep until none has live, pending, or deferred work, then assembles
per-session results.  Shards release finished sessions the tick their
reports ship (``release_session``), so shard memory tracks *live*
sessions; ``keep_reports=False`` additionally drops the supervisor-side
buffers for soak-style runs where only the stats matter.

**Shard loss**: a worker process that dies (its pipe closes) or reports
a failure surfaces from :meth:`~ShardedProgressService.tick` as
:class:`ShardLost` carrying the shard id; the fleet does not recover the
shard's sessions.

Streaming consumers observe the fleet through the ``on_report(sid, report)``
and ``on_complete(sid)`` supervisor hooks — ``on_complete`` fires after
all of a round's reports, in ascending session id, which is what lets
:mod:`repro.service.net` serve this fleet over HTTP/WebSocket with
bit-identical streams (see ``docs/api.md``).
"""

from __future__ import annotations

import threading
import time
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.monitor import ProgressMonitor, ProgressReport
from repro.engine.run import QueryRun
from repro.runtime.pool import _mp_context, available_cpus
from repro.runtime.transport import (
    reports_from_payload,
    reports_to_payload,
    runs_from_payload,
    runs_to_payload,
)
from repro.service.service import ProgressService, ServiceStats

PLACEMENTS = ("round_robin", "hash")


class ShardLost(RuntimeError):
    """A shard worker process died or failed; ``shard_id`` names it."""

    def __init__(self, shard_id: int, reason: str):
        super().__init__(f"shard {shard_id} lost: {reason}")
        self.shard_id = shard_id


class MemoryBudgetExceeded(RuntimeError):
    """A single session's footprint exceeds the per-shard memory budget —
    it could never be admitted, so it is rejected at submit time."""


def place_session(index: int, query_name: str, n_shards: int,
                  placement: str = "round_robin") -> int:
    """Deterministic session→shard placement.

    ``round_robin`` spreads by submission index; ``hash`` pins by a
    stable CRC32 of the query name (so resubmissions of a named query
    always land on the same shard — cache affinity for the calibration
    layer to come).  Both are pure functions of their arguments:
    placement is reproducible across runs, processes, and Python builds.
    """
    if placement == "round_robin":
        return index % n_shards
    if placement == "hash":
        return zlib.crc32(query_name.encode()) % n_shards
    raise ValueError(
        f"unknown placement {placement!r}; choose from {PLACEMENTS}")


@dataclass
class ShardStats:
    """One shard's accounting: its service stats plus the memory/latency
    bookkeeping the supervisor rolls into :class:`FleetStats`."""

    shard_id: int
    service: ServiceStats = field(default_factory=ServiceStats)
    #: bytes of admitted-but-not-yet-retired session trajectories
    bytes_live: int = 0
    #: high-water mark of ``bytes_live``
    bytes_peak: int = 0
    #: sessions currently waiting behind the memory budget
    deferred: int = 0
    #: cumulative count of ticks on which a session was budget-deferred
    deferrals: int = 0
    #: shard-side wall-clock seconds per tick round
    tick_seconds: list[float] = field(default_factory=list)

    def to_wire(self) -> dict:
        """JSON-safe snapshot (``tick_seconds`` ships as deltas)."""
        return {
            "shard_id": self.shard_id,
            "service": vars(self.service).copy(),
            "bytes_live": self.bytes_live,
            "bytes_peak": self.bytes_peak,
            "deferred": self.deferred,
            "deferrals": self.deferrals,
        }

    def absorb(self, wire: dict, new_tick_seconds: list[float]) -> None:
        """Overwrite from a worker's :meth:`to_wire` snapshot."""
        self.service = ServiceStats(**wire["service"])
        self.bytes_live = wire["bytes_live"]
        self.bytes_peak = wire["bytes_peak"]
        self.deferred = wire["deferred"]
        self.deferrals = wire["deferrals"]
        self.tick_seconds.extend(new_tick_seconds)


@dataclass
class FleetStats:
    """Fleet-level roll-up over all shards."""

    shards: list[ShardStats]
    #: supervisor-side wall-clock seconds per lockstep round (includes
    #: IPC, merge and callback time — what a client of the fleet feels)
    round_seconds: list[float] = field(default_factory=list)

    @property
    def service(self) -> ServiceStats:
        """Merged service counters (see :meth:`ServiceStats.merge`)."""
        return ServiceStats.merge(s.service for s in self.shards)

    @property
    def bytes_live(self) -> int:
        return sum(s.bytes_live for s in self.shards)

    @property
    def bytes_peak(self) -> int:
        """Sum of per-shard peaks (an upper bound on the fleet peak)."""
        return sum(s.bytes_peak for s in self.shards)

    @property
    def deferrals(self) -> int:
        return sum(s.deferrals for s in self.shards)

    def round_latency(self, q: float) -> float:
        """Supervisor round-latency percentile (``q`` in [0, 100])."""
        if not self.round_seconds:
            return 0.0
        return float(np.percentile(np.asarray(self.round_seconds), q))

    def tick_latency(self, q: float) -> float:
        """Shard-side tick-latency percentile across all shards."""
        samples = [t for s in self.shards for t in s.tick_seconds]
        if not samples:
            return 0.0
        return float(np.percentile(np.asarray(samples), q))


class ShardWorker:
    """One shard: a :class:`ProgressService` plus budgeted
    admission and per-tick report capture.

    The same object backs both deployment modes — inline in the
    supervisor's process (``processes=False``, the serial path) and
    inside a worker process driven by :func:`shard_worker_main` — so the
    sharded service has one shard implementation and one behaviour.
    """

    def __init__(self, shard_id: int, monitor: ProgressMonitor,
                 slice_steps: int = 8, max_live: int | None = None,
                 memory_budget_bytes: int | None = None):
        self.stats = ShardStats(shard_id)
        self.memory_budget_bytes = memory_budget_bytes
        self.service = ProgressService(
            monitor, slice_steps=slice_steps, max_live=max_live,
            on_report=self._capture,
            on_complete=self._complete)
        self.stats.service = self.service.stats
        #: budget-deferred admissions, FIFO: (global_sid, run, name, bytes)
        self._waiting: deque[tuple[int, QueryRun, str | None, int]] = deque()
        self._global_sid: dict[int, int] = {}      # local -> global
        self._session_bytes: dict[int, int] = {}   # local -> nbytes
        self._emitted: list[tuple[int, ProgressReport]] = []
        self._completed: list[int] = []            # global sids, finish order

    # -- admission -----------------------------------------------------------

    def enqueue(self, global_sid: int, run: QueryRun,
                query_name: str | None = None) -> None:
        """Accept a replay session; admission happens on the next tick."""
        nbytes = run.nbytes
        if (self.memory_budget_bytes is not None
                and nbytes > self.memory_budget_bytes):
            raise MemoryBudgetExceeded(
                f"session {global_sid} ({query_name or run.query_name!r}) "
                f"needs {nbytes} bytes but the shard budget is "
                f"{self.memory_budget_bytes}")
        self._waiting.append((global_sid, run, query_name, nbytes))

    def _admit_waiting(self) -> None:
        """Admit deferred sessions FIFO while the budget allows.

        The queue head blocks the rest, so local session ids are always
        assigned in global submission order — the invariant the
        supervisor's sorted merge relies on.
        """
        budget = self.memory_budget_bytes
        while self._waiting:
            global_sid, run, query_name, nbytes = self._waiting[0]
            if (budget is not None
                    and self.stats.bytes_live + nbytes > budget):
                self.stats.deferrals += 1
                break
            self._waiting.popleft()
            local = self.service.submit_replay(run, query_name=query_name)
            self._global_sid[local] = global_sid
            self._session_bytes[local] = nbytes
            self.stats.bytes_live += nbytes
            self.stats.bytes_peak = max(self.stats.bytes_peak,
                                        self.stats.bytes_live)
        self.stats.deferred = len(self._waiting)

    # -- service hooks -------------------------------------------------------

    def _capture(self, session, report: ProgressReport) -> None:
        self._emitted.append((self._global_sid[session.session_id], report))

    def _complete(self, session) -> None:
        """Drain hook: a session finished and its reports have flushed —
        release its budget share and its heavy state, and queue the
        completion for the supervisor (it rides the next tick reply)."""
        self.stats.bytes_live -= self._session_bytes.pop(
            session.session_id, 0)
        self._completed.append(self._global_sid.pop(session.session_id))
        self.service.release_session(session.session_id)

    # -- driving -------------------------------------------------------------

    @property
    def active(self) -> bool:
        return bool(self._waiting) or self.service.active

    def tick(self) -> bool:
        """One shard round: retry deferred admissions, tick the service."""
        started = time.perf_counter()
        self._admit_waiting()
        if self.service.active:
            self.service.tick()
        self.stats.deferred = len(self._waiting)
        self.stats.tick_seconds.append(time.perf_counter() - started)
        return self.active

    def tick_rounds(self, rounds: int) -> bool:
        """Up to ``rounds`` :meth:`tick` calls, stopping once idle; True
        while work remains."""
        more = False
        for _ in range(rounds):
            more = self.tick()
            if not more:
                break
        return more

    def take_emitted(self) -> list[tuple[int, ProgressReport]]:
        emitted, self._emitted = self._emitted, []
        return emitted

    def take_completed(self) -> list[int]:
        """Global sids of sessions finished since the last call."""
        completed, self._completed = self._completed, []
        return completed


def shard_worker_main(conn, shard_id: int, make_monitor,
                      options: dict) -> None:
    """Worker-process entry: serve one shard over a duplex connection.

    Commands are small picklable frames; all bulk traffic (runs in,
    report rows out) is trace-codec bytes.  The loop exits on ``stop`` —
    the last leg of the drain protocol — or when the supervisor dies and
    the pipe breaks.
    """
    try:
        worker = ShardWorker(shard_id, make_monitor(), **options)
        shipped_ticks = 0
        while True:
            frame = conn.recv()
            cmd = frame[0]
            if cmd == "submit":
                runs = runs_from_payload(frame[1])
                for (global_sid, query_name), run in zip(frame[2], runs,
                                                         strict=True):
                    worker.enqueue(global_sid, run, query_name)
            elif cmd == "tick":
                more = worker.tick_rounds(frame[1])
                ticks = worker.stats.tick_seconds
                conn.send(("reports", more,
                           reports_to_payload(worker.take_emitted()),
                           worker.stats.to_wire(), ticks[shipped_ticks:],
                           worker.take_completed()))
                shipped_ticks = len(ticks)
            elif cmd == "stop":
                conn.send(("bye",))
                return
            else:
                raise ValueError(f"unknown shard command {cmd!r}")
    except EOFError:  # supervisor went away; nothing left to serve
        pass
    except Exception as exc:  # ship the failure instead of hanging the fleet
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except OSError:
            pass
        raise
    finally:
        conn.close()


class ShardedProgressService:
    """Partitions progress-monitoring sessions across N service shards.

    Parameters
    ----------
    monitor:
        A :class:`ProgressMonitor` instance (inline mode) or a zero-arg
        factory returning one.  With ``processes=True`` a factory is
        required: each worker builds its *own* monitor, so no model
        objects cross the process boundary.
    n_shards:
        Shard count; default one per available CPU
        (affinity/cgroup-aware, see
        :func:`~repro.runtime.pool.available_cpus`).
    slice_steps / max_live:
        Forwarded to each shard's inner :class:`ProgressService`
        (``max_live`` is per shard).
    memory_budget_bytes:
        Per-shard cap on the summed trajectory bytes of admitted
        sessions.  Over-budget admissions queue FIFO and retry as
        sessions retire; a session that could never fit raises
        :class:`MemoryBudgetExceeded` at submit time.
    placement:
        ``round_robin`` (by submission index, default) or ``hash`` (by
        CRC32 of the query name).  Deterministic either way.
    processes:
        Run shards in worker processes (the scaling deployment).
        ``False`` runs the identical shard code inline — serial semantics
        with zero IPC, mirroring the runtime pool's ``jobs <= 1``
        contract.  Inline report batches still round-trip through the
        wire codec, so parity checks exercise the exact bytes a process
        deployment would ship.
    on_report:
        ``on_report(global_sid, report)``, fired in merged order (global
        submission order within each lockstep round).
    on_complete:
        ``on_complete(global_sid)``, fired exactly once per session, in
        ascending-sid order within the lockstep round the session
        finished — strictly after every ``on_report`` of that round, so
        the hook observes the session's full stream (the network front
        end closes its live subscriptions here).
    keep_reports:
        ``False`` drops report frames after accounting (and after
        ``on_report``), for soak runs where results would otherwise
        accumulate without bound; :meth:`run_until_complete` then
        returns ``{}``.
    """

    def __init__(self, monitor, n_shards: int | None = None,
                 slice_steps: int = 8, max_live: int | None = None,
                 memory_budget_bytes: int | None = None,
                 placement: str = "round_robin",
                 processes: bool = False,
                 on_report: Callable[[int, ProgressReport], None]
                 | None = None,
                 on_complete: Callable[[int], None] | None = None,
                 keep_reports: bool = True):
        if n_shards is None:
            n_shards = available_cpus()
        if n_shards <= 0:
            raise ValueError("n_shards must be positive")
        if placement not in PLACEMENTS:
            raise ValueError(
                f"unknown placement {placement!r}; choose from {PLACEMENTS}")
        self.n_shards = n_shards
        self.placement = placement
        self.memory_budget_bytes = memory_budget_bytes
        self.processes = processes
        self.on_report = on_report
        self.on_complete = on_complete
        self.keep_reports = keep_reports
        self.stats = FleetStats([ShardStats(i) for i in range(n_shards)])
        self._runs: dict[int, QueryRun] = {}
        self._names: dict[int, str | None] = {}
        self._n_submitted = 0
        #: per-shard buffered submissions awaiting the next tick's frame;
        #: ``_outbox_lock`` guards the append against the swap, since a
        #: process-mode tick may run in another thread than the submitter
        self._outbox: list[list[tuple[int, QueryRun, str | None]]] = [
            [] for _ in range(n_shards)]
        self._outbox_lock = threading.Lock()
        self._shard_active = [False] * n_shards
        #: merged (global_sid, report) pairs, in emission order
        self._collected: list[tuple[int, ProgressReport]] = []
        self._closed = False
        options = dict(slice_steps=slice_steps, max_live=max_live,
                       memory_budget_bytes=memory_budget_bytes)
        make_monitor = monitor if callable(monitor) else None
        if processes:
            if make_monitor is None:
                raise ValueError(
                    "processes=True needs a zero-arg monitor factory, not "
                    "a ProgressMonitor instance — each worker builds its "
                    "own monitor so models never cross the pipe as state")
            ctx = _mp_context()
            self._conns = []
            self._workers = []
            for shard_id in range(n_shards):
                parent, child = ctx.Pipe(duplex=True)
                proc = ctx.Process(
                    target=shard_worker_main,
                    args=(child, shard_id, make_monitor, options),
                    daemon=True)
                proc.start()
                child.close()
                self._conns.append(parent)
                self._workers.append(proc)
            self._shards = None
        else:
            self._conns = self._workers = None
            self._shards = [
                ShardWorker(i, make_monitor() if make_monitor else monitor,
                            **options)
                for i in range(n_shards)]
            for shard_id, shard in enumerate(self._shards):
                self.stats.shards[shard_id] = shard.stats

    # -- submission ----------------------------------------------------------

    def submit_replay(self, run: QueryRun,
                      query_name: str | None = None) -> int:
        """Register a recorded run for sharded serving; global session id.

        Oversized runs (``run.nbytes`` beyond the per-shard budget) are
        rejected here, synchronously; everything else is buffered and
        ships to its shard in one batched frame on the next tick.
        """
        budget = self.memory_budget_bytes
        if budget is not None and run.nbytes > budget:
            raise MemoryBudgetExceeded(
                f"run {query_name or run.query_name!r} needs {run.nbytes} "
                f"bytes but the per-shard budget is {budget}")
        sid = self._n_submitted
        self._n_submitted += 1
        shard = place_session(sid, query_name or run.query_name,
                              self.n_shards, self.placement)
        self._runs[sid] = run
        self._names[sid] = query_name
        with self._outbox_lock:
            self._outbox[shard].append((sid, run, query_name))
        return sid

    # -- driving -------------------------------------------------------------

    @property
    def active(self) -> bool:
        return (any(self._shard_active)
                or any(self._outbox[i] for i in range(self.n_shards)))

    @property
    def sessions_submitted(self) -> int:
        """Sessions ever accepted by :meth:`submit_replay`."""
        return self._n_submitted

    @property
    def sessions_inflight(self) -> int:
        """Submitted-but-not-yet-completed sessions, fleet-wide — the
        admission-control headroom the network front end budgets against."""
        return self._n_submitted - self.stats.service.sessions_completed

    def tick(self, rounds: int = 1) -> bool:
        """One lockstep round across all shards (``rounds`` shard ticks
        per frame amortize IPC for drain-heavy phases).  Returns True
        while any shard still has work."""
        if self._closed:
            raise RuntimeError("service is closed")
        started = time.perf_counter()
        self._flush_outboxes()
        completed: list[int] = []
        if self.processes:
            polled = [i for i in range(self.n_shards) if self._shard_active[i]]
            for i in polled:  # all sends first: shards tick concurrently
                self._send(i, ("tick", rounds))
            batches = []
            for i in polled:
                reply = self._recv(i)
                self._shard_active[i] = reply[1]
                batches.append(reports_from_payload(reply[2]))
                self.stats.shards[i].absorb(reply[3], reply[4])
                completed.extend(reply[5])
        else:
            batches = []
            for i in range(self.n_shards):
                if not self._shard_active[i]:
                    continue
                shard = self._shards[i]
                self._shard_active[i] = shard.tick_rounds(rounds)
                # inline batches still cross the wire codec (bit-exact),
                # so parity tests cover the exact process-mode bytes
                batches.append(reports_from_payload(
                    reports_to_payload(shard.take_emitted())))
                completed.extend(shard.take_completed())
        self._merge(batches, completed)
        self.stats.round_seconds.append(time.perf_counter() - started)
        return self.active

    def run_until_complete(self, max_ticks: int | None = None,
                           rounds: int = 1
                           ) -> dict[int, tuple[QueryRun, list[ProgressReport]]]:
        """Drain the fleet; per-session ``(run, reports)`` by global id.

        The drain protocol: lockstep rounds until every shard reports no
        live, pending, or budget-deferred work; per-session report
        streams are then assembled from the merged frames.  Sessions'
        streams are bit-identical to the single-process pooled path
        regardless of ``n_shards`` — and with unconstrained admission the
        merged emission *order* matches it too.
        """
        ticks = 0
        while self.tick(rounds=rounds):
            ticks += 1
            if max_ticks is not None and ticks >= max_ticks:
                raise RuntimeError(
                    f"sharded service did not drain within {max_ticks} "
                    f"tick rounds")
        if not self.keep_reports:
            return {}
        out: dict[int, tuple[QueryRun, list[ProgressReport]]] = {}
        for sid, report in self._collected:
            if sid not in out:
                out[sid] = (self._runs[sid], [])
            out[sid][1].append(report)
        # sessions that finished without emitting (too short for a single
        # refresh) still completed; give them their empty stream
        done = self.stats.service.sessions_completed
        if done == self._n_submitted:
            for sid, run in self._runs.items():
                out.setdefault(sid, (run, []))
        return out

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Stop the shard workers (no-op inline, idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self.processes:
            for conn in self._conns:
                try:
                    conn.send(("stop",))
                except OSError:
                    continue
            for conn in self._conns:
                try:
                    while conn.recv()[0] != "bye":
                        pass  # the reply to a tick abandoned by ShardLost
                except (EOFError, OSError):
                    pass
                conn.close()
            for proc in self._workers:
                proc.join(timeout=30)
                if proc.is_alive():  # pragma: no cover - drain-stuck guard
                    proc.terminate()

    def __enter__(self) -> "ShardedProgressService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def worker_pids(self) -> list[int]:
        """Shard worker process ids (empty inline) — for RSS sampling."""
        if not self.processes:
            return []
        return [proc.pid for proc in self._workers]

    # -- internals -----------------------------------------------------------

    def _flush_outboxes(self) -> None:
        with self._outbox_lock:
            batches = self._outbox
            self._outbox = [[] for _ in range(self.n_shards)]
        for shard_id, batch in enumerate(batches):
            if not batch:
                continue
            self._shard_active[shard_id] = True
            if self.processes:
                payload = runs_to_payload([run for _, run, _ in batch])
                metas = [(sid, name) for sid, _, name in batch]
                self._send(shard_id, ("submit", payload, metas))
            else:
                for sid, run, name in batch:
                    self._shards[shard_id].enqueue(sid, run, name)

    def _send(self, shard_id: int, frame: tuple) -> None:
        try:
            self._conns[shard_id].send(frame)
        except OSError as exc:
            raise ShardLost(shard_id, f"worker connection closed "
                            f"({type(exc).__name__})") from exc

    def _recv(self, shard_id: int):
        try:
            reply = self._conns[shard_id].recv()
        except (EOFError, OSError) as exc:
            raise ShardLost(shard_id, f"worker connection closed "
                            f"({type(exc).__name__})") from exc
        if reply[0] == "error":
            raise ShardLost(shard_id, f"worker failed: {reply[1]}")
        return reply

    def _merge(self, batches: list[list[tuple[int, ProgressReport]]],
               completed: list[int]) -> None:
        """Merge one round's shard batches in global submission order.

        Each batch is already sorted by global sid (shards emit in local
        submission order and placement preserves relative global order),
        so a stable sort over the concatenation is a k-way merge.
        Completion hooks fire last: a session's ``on_complete`` always
        observes every report of its stream.
        """
        merged = sorted((pair for batch in batches for pair in batch),
                        key=lambda pair: pair[0])
        if self.on_report is not None:
            for sid, report in merged:
                self.on_report(sid, report)
        if self.keep_reports:
            self._collected.extend(merged)
        else:
            # soak mode: account, then drop (and release the run refs of
            # retired sessions so supervisor memory stays flat too)
            for sid in completed:
                self._runs.pop(sid, None)
                self._names.pop(sid, None)
        if self.on_complete is not None:
            for sid in sorted(completed):
                self.on_complete(sid)
