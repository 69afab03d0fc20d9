"""The asyncio network front end over :class:`ShardedProgressService`.

:class:`ProgressServer` is "progress estimation as a service": remote
clients create monitoring sessions by POSTing recorded runs (trace-codec
bytes), read/list/delete them under per-tenant namespaces, and subscribe
to live report streams over WebSocket.  One asyncio task — the *tick
loop* — drives the sharded fleet exactly as :meth:`ShardedProgressService.
run_until_complete` would, yielding to the event loop between lockstep
rounds so request handling and stream delivery interleave with serving.

**Wire parity.**  Every report row a client sees crossed the exact
columnar codec the shards use internally
(:func:`~repro.runtime.transport.reports_to_payload`): the streaming
endpoint frames each round's new rows as one binary payload, and the
``reports`` route returns the whole stream as one payload.  Decoding and
re-encoding a session's rows therefore reproduces the in-process bytes
bit-for-bit — the network parity test and the fuzz oracle's ``network``
layer both assert exactly that.

**Admission control** maps the fleet's existing budgets onto status
codes, always with ``Retry-After``:

* ``429 Too Many Requests`` — the fleet already has ``max_inflight``
  submitted-but-uncompleted sessions (supervisor-level backpressure; the
  per-shard FIFO deferral queues behind the memory budgets keep absorbing
  bursts below this bound);
* ``503 Service Unavailable`` — the submission can never be admitted
  right now: a run whose footprint exceeds the per-shard memory budget
  (:class:`~repro.service.sharded.MemoryBudgetExceeded`), or any
  submission while the server is draining.

**Graceful drain**: :meth:`begin_drain` stops admissions (503) while the
tick loop keeps running; once every admitted session has completed and
its final frames have been delivered, :meth:`shutdown` closes the
listener and the fleet.  Subscribers always receive their completion
frame before the connection closes.

**Tick-loop failure**: an exception out of a fleet round is logged with
its traceback; every unfinished session is marked ``failed``, its
subscribers get a ``failed`` frame and a close frame (code 1011), new
submissions get ``503``, and the server counts as drained, so
:meth:`shutdown` returns.
"""

from __future__ import annotations

import asyncio
import base64
import logging
import re

from repro.runtime.transport import reports_to_payload, runs_from_payload
from repro.service.net import http
from repro.service.net import websocket as ws
from repro.service.net.http import (
    JSON_TYPE,
    REPORTS_TYPE,
    RUNS_TYPE,
    BadRequest,
    Request,
    error_body,
    json_body,
    response_bytes,
)
from repro.service.sharded import MemoryBudgetExceeded, ShardedProgressService

#: The served HTTP surface: ``(method, route pattern)``.  ``ci/check_docs.py``
#: fails CI unless every row appears verbatim in ``docs/api.md``.
ROUTES = (
    ("GET", "/healthz"),
    ("GET", "/v1/{tenant}/stats"),
    ("POST", "/v1/{tenant}/sessions"),
    ("GET", "/v1/{tenant}/sessions"),
    ("GET", "/v1/{tenant}/sessions/{sid}"),
    ("DELETE", "/v1/{tenant}/sessions/{sid}"),
    ("GET", "/v1/{tenant}/sessions/{sid}/reports"),
    ("GET", "/v1/{tenant}/sessions/{sid}/stream"),
)

#: Tenant namespaces: short, url-safe, no ambiguity with route segments.
TENANT_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: WebSocket close code for a session the server could not finish
CLOSE_SERVER_ERROR = 1011

_log = logging.getLogger(__name__)


class SessionRecord:
    """Supervisor-side state of one served session.

    The sharded fleet runs with ``keep_reports=False`` — this record *is*
    the report buffer: rows arrive through the service's ``on_report``
    hook in merged submission order and stay until the tenant DELETEs the
    session.  ``changed`` wakes every subscribed stream task whenever new
    rows, completion or failure land.
    """

    __slots__ = ("sid", "tenant", "name", "done", "failed", "reports",
                 "changed")

    def __init__(self, sid: int, tenant: str, name: str):
        self.sid = sid
        self.tenant = tenant
        self.name = name
        self.done = False
        self.failed = False
        self.reports: list = []
        self.changed = asyncio.Event()

    @property
    def finished(self) -> bool:
        """No more rows will arrive: the session completed or failed."""
        return self.done or self.failed

    def summary(self) -> dict:
        status = ("failed" if self.failed
                  else "done" if self.done else "active")
        return {"session": self.sid, "name": self.name, "status": status,
                "reports": len(self.reports),
                "progress": (self.reports[-1].progress
                             if self.reports else None)}


class ProgressServer:
    """Serve a sharded progress fleet over HTTP + WebSocket.

    Parameters
    ----------
    monitor:
        A :class:`~repro.core.monitor.ProgressMonitor` (inline shards) or
        zero-arg factory (required for ``processes=True``) — forwarded to
        :class:`ShardedProgressService`.
    host / port:
        Listen address; ``port=0`` binds an ephemeral port (tests and
        benchmarks), :attr:`address` reports the bound one.
    n_shards / slice_steps / max_live / memory_budget_bytes / placement /
    processes:
        Fleet knobs, forwarded verbatim to :class:`ShardedProgressService`.
    max_inflight:
        Supervisor-level admission bound: submissions that would push the
        fleet past this many uncompleted sessions get ``429``.  ``None``
        leaves admission to the per-shard budgets alone.
    retry_after:
        Seconds advertised in every ``Retry-After`` header.
    max_body_bytes:
        Request-body cap (oversized submissions get ``413`` before any
        decoding happens).
    """

    def __init__(self, monitor, *, host: str = "127.0.0.1", port: int = 0,
                 n_shards: int = 1, slice_steps: int = 8,
                 max_live: int | None = None,
                 memory_budget_bytes: int | None = None,
                 placement: str = "round_robin", processes: bool = False,
                 max_inflight: int | None = None,
                 retry_after: float = 1.0,
                 max_body_bytes: int = http.MAX_BODY_BYTES):
        if max_inflight is not None and max_inflight <= 0:
            raise ValueError("max_inflight must be positive (or None)")
        self._host = host
        self._port = port
        self.max_inflight = max_inflight
        self.retry_after = retry_after
        self._max_body_bytes = max_body_bytes
        self._service = ShardedProgressService(
            monitor, n_shards=n_shards, slice_steps=slice_steps,
            max_live=max_live, memory_budget_bytes=memory_budget_bytes,
            placement=placement, processes=processes,
            on_report=self._staged_reports_append,
            on_complete=self._staged_completed_append,
            keep_reports=False)
        self._records: dict[int, SessionRecord] = {}
        self._tenants: dict[str, list[int]] = {}
        #: rows/completions captured during one tick() call; applied to the
        #: records (and subscriber events) on the event loop afterwards, so
        #: a process-mode tick may run in a worker thread without touching
        #: asyncio primitives off-loop
        self._staged: list = []
        self._staged_done: list[int] = []
        self._work = asyncio.Event()
        self._draining = False
        #: set once the tick loop has died (see :meth:`_fail_unfinished`)
        self._failed = False
        self._drained = asyncio.Event()
        self._server: asyncio.base_events.Server | None = None
        self._tick_task: asyncio.Task | None = None
        self._handlers: set[asyncio.Task] = set()
        self._open_writers: set[asyncio.StreamWriter] = set()
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind the listener and start the tick loop; (host, port)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port)
        self._host, self._port = self._server.sockets[0].getsockname()[:2]
        self._tick_task = asyncio.create_task(self._tick_loop())
        return self._host, self._port

    @property
    def address(self) -> tuple[str, int]:
        return self._host, self._port

    @property
    def draining(self) -> bool:
        return self._draining

    def begin_drain(self) -> None:
        """Stop admitting sessions; serving of admitted work continues."""
        self._draining = True
        self._work.set()

    async def wait_drained(self) -> None:
        """Block until every admitted session has completed and flushed."""
        if self._tick_task is None:
            return
        await self._drained.wait()

    async def shutdown(self) -> None:
        """Graceful stop: drain, then close the listener and the fleet."""
        if self._closed:
            return
        self.begin_drain()
        await self.wait_drained()
        self._closed = True
        if self._tick_task is not None:
            await self._tick_task
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # reap connection handlers *before* the loop can tear them down:
        # closing the transports unblocks any parked read with an EOF
        for writer in list(self._open_writers):
            writer.close()
        if self._handlers:
            await asyncio.gather(*list(self._handlers),
                                 return_exceptions=True)
        self._service.close()

    async def __aenter__(self) -> "ProgressServer":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.shutdown()

    # -- the tick loop -------------------------------------------------------

    def _staged_reports_append(self, sid: int, report) -> None:
        self._staged.append((sid, report))

    def _staged_completed_append(self, sid: int) -> None:
        self._staged_done.append(sid)

    def _apply_staged(self) -> None:
        """Fold one tick round's staged rows into the session records and
        wake their subscribers — runs on the event loop, after tick()."""
        staged, self._staged = self._staged, []
        done, self._staged_done = self._staged_done, []
        for sid, report in staged:
            record = self._records[sid]
            record.reports.append(report)
            record.changed.set()
        for sid in done:
            record = self._records[sid]
            record.done = True
            record.changed.set()

    async def _tick_loop(self) -> None:
        """Drive the fleet until drained; a failed round fails every
        unfinished session instead of stalling its subscribers."""
        try:
            await self._drive()
        except Exception:
            _log.exception("tick loop failed; failing every unfinished "
                           "session")
            self._fail_unfinished()
        finally:
            self._drained.set()

    def _fail_unfinished(self) -> None:
        """Mark unfinished sessions failed, wake their subscribers and stop
        admissions.  Rows staged by the failed round are dropped."""
        self._failed = True
        self._draining = True
        self._staged, self._staged_done = [], []
        for record in self._records.values():
            if not record.done:
                record.failed = True
                record.changed.set()

    async def _drive(self) -> None:
        """Drive the fleet while work exists; park on ``_work`` when idle.

        Process-mode rounds block on pipe IPC, so they run in a worker
        thread; inline rounds run directly on the loop.  Either way the
        staged rows are applied on-loop and a zero sleep lets handlers
        and stream tasks run between rounds.
        """
        service = self._service
        while True:
            if service.active:
                if service.processes:
                    await asyncio.to_thread(service.tick)
                else:
                    service.tick()
                self._apply_staged()
                await asyncio.sleep(0)
            elif self._draining:
                break
            else:
                self._work.clear()
                if service.active or self._draining:
                    continue
                await self._work.wait()

    # -- connection handling -------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
        self._open_writers.add(writer)
        try:
            while True:
                try:
                    request = await http.read_request(reader,
                                                      self._max_body_bytes)
                except BadRequest as exc:
                    # framing is unreliable after a parse error: reply, close
                    writer.write(response_bytes(
                        exc.status, error_body(exc.status, exc.detail),
                        keep_alive=False))
                    await writer.drain()
                    break
                if request is None:
                    break
                hijacked, response = await self._dispatch(request, reader,
                                                          writer)
                if hijacked:
                    return  # the stream handler owns the socket now
                writer.write(response)
                await writer.drain()
                if not request.keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError):
            pass  # peer went away; nothing to answer
        finally:
            self._open_writers.discard(writer)
            if task is not None:
                self._handlers.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(self, request: Request,
                        reader: asyncio.StreamReader,
                        writer: asyncio.StreamWriter
                        ) -> tuple[bool, bytes]:
        """Route one request; ``(hijacked, response bytes)``."""
        try:
            return await self._route(request, reader, writer)
        except BadRequest as exc:
            return False, response_bytes(
                exc.status, error_body(exc.status, exc.detail))
        except Exception as exc:  # surface, don't kill the connection loop
            return False, response_bytes(
                500, error_body(500, f"{type(exc).__name__}: {exc}"))

    async def _route(self, request: Request, reader, writer
                     ) -> tuple[bool, bytes]:
        parts = [part for part in request.path.split("/") if part]
        method = request.method
        if parts == ["healthz"]:
            self._check_method(method, ("GET",))
            return False, self._healthz()
        if len(parts) >= 2 and parts[0] == "v1":
            tenant = parts[1]
            if not TENANT_RE.match(tenant):
                raise BadRequest(f"invalid tenant name {tenant!r}")
            rest = parts[2:]
            if rest == ["stats"]:
                self._check_method(method, ("GET",))
                return False, self._stats(tenant)
            if rest == ["sessions"]:
                self._check_method(method, ("GET", "POST"))
                if method == "POST":
                    return False, self._create_sessions(tenant, request)
                return False, self._list_sessions(tenant)
            if len(rest) in (2, 3) and rest[0] == "sessions":
                record = self._find(tenant, rest[1])
                if len(rest) == 2:
                    self._check_method(method, ("GET", "DELETE"))
                    if method == "DELETE":
                        return False, self._delete_session(record)
                    return False, response_bytes(
                        200, json_body(record.summary()))
                if rest[2] == "reports":
                    self._check_method(method, ("GET",))
                    return False, self._session_reports(record)
                if rest[2] == "stream":
                    self._check_method(method, ("GET",))
                    return await self._stream(record, request, reader,
                                              writer)
        raise BadRequest(f"no route for {request.path}", status=404)

    @staticmethod
    def _check_method(method: str, allowed: tuple[str, ...]) -> None:
        if method not in allowed:
            exc = BadRequest(f"method {method} not allowed here "
                             f"(allowed: {', '.join(allowed)})", status=405)
            raise exc

    def _find(self, tenant: str, sid_text: str) -> SessionRecord:
        """Tenant-scoped session lookup; 404 outside the namespace."""
        try:
            sid = int(sid_text)
        except ValueError:
            raise BadRequest(f"no session {sid_text!r}",
                             status=404) from None
        record = self._records.get(sid)
        if record is None or record.tenant != tenant:
            raise BadRequest(f"no session {sid} under tenant {tenant!r}",
                             status=404)
        return record

    # -- routes --------------------------------------------------------------

    def _healthz(self) -> bytes:
        return response_bytes(200, json_body({
            "status": ("failed" if self._failed
                       else "draining" if self._draining else "ok"),
            "sessions_inflight": self._service.sessions_inflight,
            "n_shards": self._service.n_shards,
        }))

    def _stats(self, tenant: str) -> bytes:
        fleet = self._service.stats
        service = fleet.service
        sids = self._tenants.get(tenant, [])
        done = sum(1 for sid in sids if self._records[sid].done)
        return response_bytes(200, json_body({
            "tenant": {"name": tenant, "sessions": len(sids), "done": done,
                       "reports": sum(len(self._records[sid].reports)
                                      for sid in sids)},
            "fleet": {
                "n_shards": self._service.n_shards,
                "placement": self._service.placement,
                "processes": self._service.processes,
                "draining": self._draining,
                "sessions_submitted": self._service.sessions_submitted,
                "sessions_completed": service.sessions_completed,
                "sessions_inflight": self._service.sessions_inflight,
                "reports": service.reports,
                "ticks": service.ticks,
                "steps": service.steps,
                "deferrals": fleet.deferrals,
                "bytes_live": fleet.bytes_live,
                "bytes_peak": fleet.bytes_peak,
                "round_p50_ms": 1e3 * fleet.round_latency(50),
                "round_p99_ms": 1e3 * fleet.round_latency(99),
                "tick_p50_ms": 1e3 * fleet.tick_latency(50),
                "tick_p99_ms": 1e3 * fleet.tick_latency(99),
            },
        }))

    def _list_sessions(self, tenant: str) -> bytes:
        sids = self._tenants.get(tenant, [])
        return response_bytes(200, json_body({
            "tenant": tenant,
            "sessions": [self._records[sid].summary() for sid in sids]}))

    def _decode_runs(self, request: Request):
        """The two submission body formats -> list of runs (+ name)."""
        kind = request.content_type()
        name = request.query.get("name")
        if kind == RUNS_TYPE:
            body = request.body
        elif kind == JSON_TYPE:
            payload = request.json()
            encoded = payload.get("runs_b64")
            if not isinstance(encoded, str):
                raise BadRequest("JSON submissions need a 'runs_b64' field "
                                 "holding base64 trace-codec bytes")
            if "name" in payload:
                name = payload["name"]
            try:
                body = base64.b64decode(encoded.encode("ascii"),
                                        validate=True)
            except Exception as exc:
                raise BadRequest(f"invalid runs_b64: {exc}") from None
        else:
            raise BadRequest(
                f"unsupported submission content type {kind!r} (use "
                f"{RUNS_TYPE} or {JSON_TYPE})", status=415)
        try:
            runs = runs_from_payload(body)
        except Exception as exc:
            raise BadRequest(f"undecodable runs payload: {exc}") from None
        if not runs:
            raise BadRequest("submission carries no runs")
        if name is not None and len(runs) != 1:
            raise BadRequest("'name' applies to single-run submissions "
                             f"only (payload carries {len(runs)})")
        return runs, name

    def _create_sessions(self, tenant: str, request: Request) -> bytes:
        retry = {"Retry-After": f"{self.retry_after:g}"}
        if self._draining:
            state = ("the tick loop failed" if self._failed
                     else "server is draining")
            return response_bytes(
                503, error_body(503, f"{state}; submissions are not "
                                "admitted"), headers=retry)
        runs, name = self._decode_runs(request)
        if (self.max_inflight is not None
                and self._service.sessions_inflight + len(runs)
                > self.max_inflight):
            return response_bytes(
                429, error_body(
                    429, f"fleet already has "
                    f"{self._service.sessions_inflight} sessions in flight "
                    f"(max_inflight={self.max_inflight})"),
                headers=retry)
        budget = self._service.memory_budget_bytes
        if budget is not None:
            for run in runs:  # all-or-nothing: reject before any admission
                if run.nbytes > budget:
                    return response_bytes(
                        503, error_body(
                            503, f"run {run.query_name!r} needs "
                            f"{run.nbytes} bytes but the per-shard budget "
                            f"is {budget}"),
                        headers=retry)
        created = []
        for run in runs:
            try:
                sid = self._service.submit_replay(run, query_name=name)
            except MemoryBudgetExceeded as exc:  # pragma: no cover - raced
                return response_bytes(503, error_body(503, str(exc)),
                                      headers=retry)
            record = SessionRecord(sid, tenant, name or run.query_name)
            self._records[sid] = record
            self._tenants.setdefault(tenant, []).append(sid)
            created.append({"session": sid, "name": record.name})
        self._work.set()
        body = {"tenant": tenant, "sessions": created}
        if len(created) == 1:
            body["session"] = created[0]["session"]
        return response_bytes(201, json_body(body))

    def _delete_session(self, record: SessionRecord) -> bytes:
        if not record.finished:
            raise BadRequest(
                f"session {record.sid} is still active; only completed "
                f"or failed sessions can be deleted", status=409)
        self._records.pop(record.sid, None)
        sids = self._tenants.get(record.tenant, [])
        if record.sid in sids:
            sids.remove(record.sid)
        return response_bytes(200, json_body({"deleted": record.sid}))

    def _session_reports(self, record: SessionRecord) -> bytes:
        payload = reports_to_payload(
            [(record.sid, report) for report in record.reports])
        return response_bytes(200, payload, content_type=REPORTS_TYPE,
                              headers={"X-Repro-Session-Done":
                                       "true" if record.done else "false"})

    # -- the streaming endpoint ----------------------------------------------

    async def _stream(self, record: SessionRecord, request: Request,
                      reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> tuple[bool, bytes]:
        """Upgrade to WebSocket and push the session's report rows live.

        Each binary frame carries the rows that became visible since the
        last frame (or since ``?from=``) as one ``reports_to_payload``
        batch; a final text frame summarizes completion (or failure), then
        the server closes RFC-style.  Subscribing to a completed session
        simply replays its buffered stream in one frame.
        """
        if (request.headers.get("upgrade", "").lower() != "websocket"
                or "sec-websocket-key" not in request.headers):
            raise BadRequest(
                "this endpoint only speaks WebSocket; send an Upgrade "
                "handshake", status=426)
        try:
            cursor = int(request.query.get("from", "0"))
        except ValueError:
            raise BadRequest("'from' must be an integer report index") \
                from None
        if cursor < 0:
            raise BadRequest("'from' must be non-negative")
        writer.write(ws.handshake_response(
            request.headers["sec-websocket-key"]))
        try:
            while True:
                if cursor < len(record.reports):
                    batch = record.reports[cursor:]
                    cursor = len(record.reports)
                    writer.write(ws.encode_frame(
                        ws.OP_BINARY,
                        reports_to_payload([(record.sid, report)
                                            for report in batch])))
                    await writer.drain()
                if record.finished and cursor >= len(record.reports):
                    break
                if not (cursor < len(record.reports) or record.finished):
                    record.changed.clear()
                    await record.changed.wait()
            writer.write(ws.encode_frame(ws.OP_TEXT, json_body({
                "type": "failed" if record.failed else "done",
                "session": record.sid,
                "tenant": record.tenant, "name": record.name,
                "reports": len(record.reports)})))
            writer.write(ws.close_frame(CLOSE_SERVER_ERROR) if record.failed
                         else ws.close_frame())
            await writer.drain()
            # half of the RFC close handshake: give the peer a moment to
            # mirror the close frame, then tear down regardless
            try:
                async with asyncio.timeout(1.0):
                    while True:
                        opcode, _ = await ws.read_frame(reader)
                        if opcode == ws.OP_CLOSE:
                            break
            except (TimeoutError, asyncio.IncompleteReadError,
                    ws.ProtocolError):
                pass
        except (ConnectionResetError, BrokenPipeError):
            pass  # subscriber went away mid-stream
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
        return True, b""
