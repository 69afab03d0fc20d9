"""Sharded multi-process progress serving.

:class:`ShardedProgressService` scales the pooled
:class:`~repro.service.service.ProgressService` across cores: sessions are
partitioned over N *shards*, each shard runs its own
``ProgressService`` (in a worker process, or inline for the serial path),
and a supervisor drives all shards through lockstep tick rounds, merging
their report streams in submission order.

Design rules, all inherited from :mod:`repro.runtime`:

* **Deterministic placement** — a session's shard is its global
  submission index mod the shard count; never scheduling or load.  The
  same submissions land on the same shards in every run, in global
  order, so a shard's ``k``-th session is global ``k * n_shards +
  shard`` (:func:`global_session`) and no id map is kept.
* **One protocol, trace-codec transport** — in both modes
  :meth:`ShardWorker.handle` serves every frame.  Recorded runs reach
  their shard as :func:`~repro.runtime.transport.runs_to_payload` bytes
  and finished report rows come back through
  :func:`~repro.runtime.transport.reports_to_payload`; engine objects are
  never pickled across the boundary.  A submission is a checked run
  payload (:meth:`~ShardedProgressService.submit_payload`; the network
  front end passes a POST body as it arrived, and
  :meth:`~ShardedProgressService.submit_replay` encodes its one run):
  the fleet keeps one outbox of ``(payload, run index, name)`` entries
  and never encodes or decodes a run, and each shard decodes its own
  runs out of those bytes — once per run, in :meth:`ShardWorker.handle`.
  Commands and reports are *batched*: one submit frame carries a whole
  wave of runs as ``(payload, indices, names)`` groups, one tick frame
  drives a round and returns every report it produced — the round's
  :class:`~repro.trace.format.ReportBlock` under the shard's session
  ids, framed as it is, with no report object built on the way.
* **Order-preserving merge** — within a tick round the shard replies are
  relabelled to global session ids and merged by them (each shard
  already emits in local submission order, which placement keeps
  aligned with global order), so
  with unconstrained admission the merged rows are the bit-identical
  sequence the single-process pooled service emits.  Per-session report
  streams are bit-identical under *any* shard count, budget, or slice
  size — pooling transparency (PR 1) makes a session's reports depend
  only on its own recording and refresh cadence.

**Admission control**: each shard's
:class:`~repro.service.service.ProgressService` enforces the memory
budget as one of its admission rules.  A run whose trajectories alone
exceed the budget is rejected at submit time
(:class:`~repro.service.service.MemoryBudgetExceeded`, raised by the
fleet before the run ships); otherwise admission is FIFO — a session is
charged its run's bytes when it starts running, the queue's head waits
while it does not fit, and retiring sessions release their bytes.

**A round is a return value**: :meth:`~ShardedProgressService.tick`
returns ``(block, completed)`` — the round's merged rows as one
:class:`~repro.trace.format.ReportBlock` in global submission order
(iterating it yields ``(global_sid, report)`` pairs), and the sessions
that finished in it, ascending.  The supervisor keeps nothing per session
once a round has returned: shards release finished sessions the tick
their reports ship (``release_session``), so fleet memory tracks *live*
sessions however long it serves.  A streaming consumer (the network
front end in :mod:`repro.service.net`) folds each round into its own
records; because a round's ``completed`` arrives with its final rows,
every consumer observes a session's full stream before its completion.

**Graceful drain**: :meth:`~ShardedProgressService.run_until_complete`
ticks every shard in lockstep until none has live or pending work, and
assembles the rounds it drove into per-session streams.

**Shard loss**: a shard that raises (it replies ``error``, then closes)
or whose worker process dies surfaces from
:meth:`~ShardedProgressService.tick` as :class:`ShardLost` carrying the
shard id, in either mode; the fleet does not recover its sessions.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.core.monitor import ProgressMonitor, ProgressReport
from repro.engine.run import QueryRun
from repro.runtime.pool import _mp_context, available_cpus
from repro.runtime.transport import (
    block_from_payload,
    reports_to_payload,
    runs_from_payload,
    runs_to_payload,
)
from repro.service.service import ProgressService, ServiceStats, check_budget
from repro.trace.format import ReportBlock

_log = logging.getLogger(__name__)

#: latency samples kept per list (the last rounds' or ticks'): the
#: percentiles cover a bounded window however long the fleet serves
LATENCY_WINDOW = 4096


def _latency_window() -> deque:
    return deque(maxlen=LATENCY_WINDOW)


class ShardLost(RuntimeError):
    """A shard failed or its worker process died; ``shard_id`` names it."""

    def __init__(self, shard_id: int, reason: str):
        super().__init__(f"shard {shard_id} lost: {reason}")
        self.shard_id = shard_id


def place_session(index: int, n_shards: int) -> int:
    """Deterministic session→shard placement: round robin by global
    submission index, so local submission order stays aligned with
    global order on every shard."""
    return index % n_shards


def global_session(local, shard_id: int, n_shards: int):
    """Inverse of :func:`place_session`: the global id of shard
    ``shard_id``'s ``local``-th session (an int, or an array of them)."""
    return local * n_shards + shard_id


@dataclass
class ShardStats:
    """One shard's accounting: its service stats (budget counters
    included) plus its tick latencies, rolled into :class:`FleetStats`."""

    shard_id: int
    service: ServiceStats = field(default_factory=ServiceStats)
    #: shard-side wall-clock seconds per tick round, the last
    #: :data:`LATENCY_WINDOW`
    tick_seconds: deque = field(default_factory=_latency_window)

    def to_wire(self) -> dict:
        """JSON-safe snapshot (a shard ships ``tick_seconds`` as deltas)."""
        return dict(vars(self), service=vars(self.service).copy(),
                    tick_seconds=list(self.tick_seconds))

    def absorb(self, wire: dict) -> None:
        """Overwrite from a shard's :meth:`to_wire` snapshot, appending
        its new tick durations."""
        ticks = self.tick_seconds
        vars(self).update(wire, service=ServiceStats(**wire["service"]),
                          tick_seconds=ticks)
        ticks.extend(wire["tick_seconds"])


@dataclass
class FleetStats:
    """Fleet-level roll-up over all shards."""

    shards: list[ShardStats]
    #: supervisor-side wall-clock seconds per lockstep round (includes
    #: IPC and merge time — what a client of the fleet feels), the last
    #: :data:`LATENCY_WINDOW`
    round_seconds: deque = field(default_factory=_latency_window)

    @property
    def service(self) -> ServiceStats:
        """Merged service counters (see :meth:`ServiceStats.merge`)."""
        return ServiceStats.merge(s.service for s in self.shards)

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
    """One shard: a :class:`ProgressService` whose rounds ship as framed
    report blocks.

    :meth:`handle` serves the supervisor's frames behind an
    :class:`InlineShardConnection` in both deployment modes — in the
    supervisor's process, or in a worker process that relays its pipe
    (:func:`shard_worker_main`) — so the sharded service has one shard
    implementation, one protocol and one behaviour.
    """

    def __init__(self, shard_id: int, monitor: ProgressMonitor,
                 **options):
        """``options`` are the shard's :class:`ProgressService` options
        (``slice_steps``, ``max_live``, ``memory_budget_bytes``)."""
        self.stats = ShardStats(shard_id)
        #: the blocks flushed since the last tick reply
        self._blocks: list[ReportBlock] = []
        self.service = ProgressService(
            monitor, **options, on_block=self._blocks.append,
            on_complete=self._complete, keep_rows=False)
        self.stats.service = self.service.stats
        self._completed: list[int] = []  # session ids, finish order

    def _complete(self, session) -> None:
        """Drain hook: a session finished and its reports have flushed —
        release its heavy state and queue the completion for the
        supervisor (it rides the next tick reply)."""
        self._completed.append(session.session_id)
        self.service.release_session(session.session_id)

    def tick(self) -> bool:
        """One shard round; True while work remains."""
        started = time.perf_counter()
        more = self.service.tick()
        self.stats.tick_seconds.append(time.perf_counter() - started)
        return more

    def handle(self, frame: tuple) -> tuple | None:
        """Serve one supervisor frame; the reply to send back, if any.

        Frames are small and picklable; bulk traffic is trace-codec bytes.
        Session ids in frames are the shard's own (its service's).
        ``("submit", [(runs_payload, [index, ...], [query_name, ...]),
        ...])`` submits a wave of runs, in order: the listed runs of each
        payload, which are decoded here and nowhere else (no reply);
        ``("tick",)`` runs one round and replies ``("reports", more,
        reports_payload, stats_wire, completed_sids)``; ``("stop",)``
        replies ``("bye",)``.
        """
        cmd = frame[0]
        if cmd == "submit":
            for payload, indices, names in frame[1]:
                runs = runs_from_payload(payload, indices)
                for run, query_name in zip(runs, names, strict=True):
                    self.service.submit_replay(run, query_name=query_name)
            return None
        if cmd == "tick":
            more = self.tick()
            wire = self.stats.to_wire()
            self.stats.tick_seconds.clear()  # shipped as deltas
            payload = reports_to_payload(ReportBlock.concat(self._blocks))
            self._blocks.clear()
            completed, self._completed = self._completed, []
            return ("reports", more, payload, wire, completed)
        if cmd == "stop":
            return ("bye",)
        raise ValueError(f"unknown shard command {cmd!r}")


class InlineShardConnection:
    """A shard served in this process behind a pipe's interface: the
    supervisor's inline shards are these, and a worker process relays its
    pipe into one (:func:`shard_worker_main`).  ``send`` serves the frame
    through :meth:`ShardWorker.handle` and queues the reply for ``recv``.
    The connection closes after ``bye``; a frame that raises logs its
    traceback and replies ``error`` before closing, so a failed shard
    surfaces as :class:`ShardLost`.
    """

    def __init__(self, worker: ShardWorker):
        self.worker: ShardWorker | None = worker  # None once closed
        self._replies: deque[tuple] = deque()

    def send(self, frame: tuple) -> None:
        if self.worker is None:
            raise BrokenPipeError("shard connection is closed")
        try:
            reply = self.worker.handle(frame)
        except Exception as exc:
            _log.exception("shard %d failed", self.worker.stats.shard_id)
            reply = ("error", f"{type(exc).__name__}: {exc}")
        if reply is not None:
            self._replies.append(reply)
            if reply[0] in ("bye", "error"):
                self.worker = None

    def recv(self) -> tuple:
        if not self._replies:
            raise EOFError("shard connection is closed")
        return self._replies.popleft()

    def poll(self) -> bool:
        return bool(self._replies)

    def close(self) -> None:
        self.worker = None


def shard_worker_main(conn, shard_id: int, make_monitor,
                      options: dict) -> None:
    """Worker-process entry: relay the supervisor's pipe to one shard's
    :class:`InlineShardConnection` until it closes (after ``bye`` or a
    failure) or the supervisor dies and the pipe breaks."""
    shard = InlineShardConnection(
        ShardWorker(shard_id, make_monitor(), **options))
    with conn:
        try:
            while shard.worker is not None:
                shard.send(conn.recv())
                if shard.poll():
                    conn.send(shard.recv())
        except (EOFError, OSError):  # the supervisor went away
            pass


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
        Per-shard cap on the summed trajectory bytes of running
        sessions (each shard's :class:`ProgressService` option).
        Sessions that do not fit wait FIFO until sessions retire; a run
        that could never fit raises
        :class:`~repro.service.service.MemoryBudgetExceeded` at submit
        time.
    processes:
        Run shards in worker processes (the scaling deployment).
        ``False`` serves each shard in this process through an
        :class:`InlineShardConnection` — serial semantics, mirroring the
        runtime pool's ``jobs <= 1`` contract — over the same protocol:
        the same frames and codec bytes, stats and :class:`ShardLost`.

    Each :meth:`tick` returns its round; the fleet retains no run or
    report once the round that carried it has returned.
    """

    def __init__(self, monitor, n_shards: int | None = None,
                 slice_steps: int = 8, max_live: int | None = None,
                 memory_budget_bytes: int | None = None,
                 processes: bool = False):
        if n_shards is None:
            n_shards = available_cpus()
        if n_shards <= 0:
            raise ValueError("n_shards must be positive")
        if slice_steps <= 0:  # before any worker spawns
            raise ValueError("slice_steps must be positive")
        if max_live is not None and max_live <= 0:
            raise ValueError("max_live must be positive (or None)")
        self.n_shards = n_shards
        self.memory_budget_bytes = memory_budget_bytes
        self.processes = processes
        self.stats = FleetStats([ShardStats(i) for i in range(n_shards)])
        self._n_submitted = 0
        #: the submissions awaiting the next tick's frames, in global
        #: order: ``(runs_payload, run index, query_name)``, the last
        #: entry being session ``_n_submitted - 1``.  ``_outbox_lock``
        #: guards numbering and append against the swap, since a tick may
        #: run in another thread than the submitter
        self._outbox: list[tuple[bytes, int, str | None]] = []
        self._outbox_lock = threading.Lock()
        self._shard_active = [False] * n_shards
        self._closed = False
        options = dict(slice_steps=slice_steps, max_live=max_live,
                       memory_budget_bytes=memory_budget_bytes)
        make_monitor = monitor if callable(monitor) else None
        #: per shard, a pipe to its worker process or an inline connection
        self._conns: list = []
        self._workers: list = []  # the worker processes (none inline)
        if processes:
            if make_monitor is None:
                raise ValueError(
                    "processes=True needs a zero-arg monitor factory, not "
                    "a ProgressMonitor instance — each worker builds its "
                    "own monitor so models never cross the pipe as state")
            ctx = _mp_context()
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
        else:
            self._conns = [InlineShardConnection(ShardWorker(
                i, make_monitor() if make_monitor else monitor, **options))
                for i in range(n_shards)]

    # -- submission ----------------------------------------------------------

    def submit_replay(self, run: QueryRun,
                      query_name: str | None = None) -> int:
        """Register a recorded run for sharded serving; global session id.

        The run ships as its own :func:`runs_to_payload` payload through
        :meth:`submit_payload`, which rejects an oversized run
        synchronously.
        """
        return self.submit_payload(runs_to_payload([run]), [run],
                                   query_name)[0]

    def submit_payload(self, payload: bytes, runs: list,
                       query_name: str | None = None) -> list[int]:
        """Register every run of a checked run payload; their global
        session ids, in payload order.

        ``runs`` is what :func:`~repro.runtime.transport.
        validate_runs_payload` returned for ``payload``: each run's
        ``query_name`` and ``nbytes``.  The payload itself is never
        decoded here: each run's shard decodes it from these bytes.  If
        any run alone exceeds the per-shard budget, none is registered
        (:class:`~repro.service.service.MemoryBudgetExceeded`); the
        others ship to their shards in one batched frame each on the
        next tick.  A closed service refuses every submission.
        """
        if self._closed:
            raise RuntimeError("service is closed")
        for run in runs:
            check_budget(run, self.memory_budget_bytes, query_name)
        with self._outbox_lock:
            first = self._n_submitted
            self._n_submitted += len(runs)
            self._outbox += [(payload, index, query_name)
                             for index in range(len(runs))]
        return list(range(first, first + len(runs)))

    # -- driving -------------------------------------------------------------

    @property
    def active(self) -> bool:
        return any(self._shard_active) or bool(self._outbox)

    @property
    def sessions_submitted(self) -> int:
        """Sessions ever accepted by :meth:`submit_payload`."""
        return self._n_submitted

    @property
    def sessions_inflight(self) -> int:
        """Submitted-but-not-yet-completed sessions, fleet-wide — the
        admission-control headroom the network front end budgets against."""
        return self._n_submitted - self.stats.service.sessions_completed

    def tick(self) -> tuple[ReportBlock, list[int]]:
        """One lockstep round across all shards: ``(block, completed)``.

        ``block`` holds the round's rows in global submission order (its
        iteration yields ``(global_sid, report)`` pairs); ``completed``
        the sessions that finished this round, ascending — each listed
        exactly once, in the round that carries its final rows.  Drive
        the fleet ``while self.active``.
        """
        if self._closed:
            raise RuntimeError("service is closed")
        started = time.perf_counter()
        self._flush_outboxes()
        polled = [i for i in range(self.n_shards) if self._shard_active[i]]
        for i in polled:  # all sends first: process shards tick concurrently
            self._send(i, ("tick",))
        blocks: list[ReportBlock] = []
        completed: list[int] = []
        n = self.n_shards
        for i in polled:
            _, more, payload, stats, done = self._recv(i)
            self._shard_active[i] = more
            block = block_from_payload(payload)
            blocks.append(block.relabel(global_session(block.sids, i, n)))
            self.stats.shards[i].absorb(stats)
            completed += [global_session(k, i, n) for k in done]
        block = ReportBlock.concat(blocks)
        # each shard's rows are already sorted by global sid (local
        # submission order, which placement keeps aligned with global
        # order), so a stable sort of the concatenation is a k-way merge
        sids = block.sids
        if np.any(sids[1:] < sids[:-1]):
            block = block.take(np.argsort(sids, kind="stable"))
        completed.sort()
        self.stats.round_seconds.append(time.perf_counter() - started)
        return block, completed

    def run_until_complete(self, max_ticks: int | None = None
                           ) -> dict[int, list[ProgressReport]]:
        """Drain the fleet; the reports of every session that finished
        during the drain, by global id (``[]`` if it never reported).

        The drain protocol: lockstep rounds until every shard reports no
        live or pending work.  Sessions' streams are
        bit-identical to the single-process pooled path regardless of
        ``n_shards`` — and with unconstrained admission the merged
        emission *order* matches it too.  Rows returned by rounds driven
        before this call are not repeated here.
        """
        results: dict[int, list[ProgressReport]] = {}
        ticks = 0
        while self.active:
            if ticks == max_ticks:
                raise RuntimeError(
                    f"sharded service did not drain within {max_ticks} "
                    f"tick rounds")
            block, completed = self.tick()
            ticks += 1
            for sid, report in block:
                results.setdefault(sid, []).append(report)
            for sid in completed:
                results.setdefault(sid, [])
        return results

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Stop every shard and join any worker processes (idempotent)."""
        if self._closed:
            return
        self._closed = True
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
        return [proc.pid for proc in self._workers]

    # -- internals -----------------------------------------------------------

    def _flush_outboxes(self) -> None:
        """Send each shard its share of the buffered submissions as one
        ``submit`` frame: consecutive runs of one payload travel as one
        ``(payload, indices, names)`` group, so no run is re-encoded."""
        with self._outbox_lock:
            entries, self._outbox = self._outbox, []
            first = self._n_submitted - len(entries)
        groups: list[list[tuple[bytes, list, list]]] = [
            [] for _ in range(self.n_shards)]
        for sid, (payload, index, name) in enumerate(entries, first):
            shard = groups[place_session(sid, self.n_shards)]
            if not shard or shard[-1][0] is not payload:
                shard.append((payload, [], []))
            shard[-1][1].append(index)
            shard[-1][2].append(name)
        for shard_id, shard in enumerate(groups):
            if shard:
                self._shard_active[shard_id] = True
                self._send(shard_id, ("submit", shard))

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
            raise ShardLost(shard_id, f"shard failed: {reply[1]}")
        return reply
