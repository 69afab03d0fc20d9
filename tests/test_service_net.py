"""Tests for the asyncio network front end (`repro.service.net`).

The load-bearing property is wire parity: a session observed over real
sockets — submitted via HTTP, streamed over WebSocket frames — must be
*byte*-identical to what the in-process sharded supervisor merges for the
same submissions.  These tests replay the committed golden traces (a mix
of fuzz and outer/semi-join recordings), so they run in the fast suite;
the randomized sweep lives in the fuzz oracle's ``network`` layer and the
sustained-load numbers in ``benchmarks/bench_service_net.py``.

No pytest-asyncio: each scenario is a coroutine driven by
``asyncio.run`` so the suite needs nothing beyond the stdlib runner.
"""

import asyncio
import base64
import json
from urllib.parse import quote

import pytest

from repro.core.monitor import ProgressMonitor
from repro.runtime.transport import (
    reports_from_payload,
    reports_to_payload,
    runs_to_payload,
)
from repro.service import ShardedProgressService
from repro.service.net import (
    ROUTES,
    ProgressClient,
    ProgressServer,
    ServiceError,
)
from repro.service.net import http, websocket as ws
from repro.service.net.__main__ import build_parser
from repro.trace.store import read_trace

from helpers import MALFORMED_RUNS
from test_trace_golden import GOLDEN_DIR


def _monitor():
    return ProgressMonitor(refresh_every=2)


@pytest.fixture(scope="module")
def golden_runs():
    """Mixed static + fuzz replay sessions (both golden families)."""
    fuzz, _ = read_trace(GOLDEN_DIR / "fuzz")
    outer, _ = read_trace(GOLDEN_DIR / "outer_semi")
    pool = fuzz + outer
    assert len(pool) >= 3
    return [pool[i % len(pool)] for i in range(6)]


@pytest.fixture(scope="module")
def sharded_results(golden_runs):
    """The in-process truth: the same submissions through the sharded
    service the server wraps (identical shard count and slice size)."""
    with ShardedProgressService(_monitor, n_shards=2,
                                slice_steps=4) as service:
        for run in golden_runs:
            service.submit_replay(run)
        return service.run_until_complete(max_ticks=100_000)


def _serve(coro_fn, **server_kwargs):
    """Run one scenario against a fresh server on an ephemeral port."""
    server_kwargs.setdefault("n_shards", 2)
    server_kwargs.setdefault("slice_steps", 4)

    async def scenario():
        async with ProgressServer(_monitor, **server_kwargs) as server:
            async with ProgressClient(*server.address) as client:
                return await coro_fn(server, client)

    return asyncio.run(scenario())


# ---------------------------------------------------------------------------
# wire units: RFC 6455 and minimal HTTP
# ---------------------------------------------------------------------------

class TestWebSocketWire:
    def test_accept_key_matches_rfc_vector(self):
        # the worked example from RFC 6455 §1.3
        assert ws.accept_key("dGhlIHNhbXBsZSBub25jZQ==") \
            == "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="

    @pytest.mark.parametrize("size", [0, 1, 125, 126, 65_535, 65_536])
    @pytest.mark.parametrize("mask", [False, True])
    def test_frame_roundtrip(self, size, mask):
        payload = bytes(i % 251 for i in range(size))

        async def roundtrip():
            reader = asyncio.StreamReader()
            reader.feed_data(ws.encode_frame(ws.OP_BINARY, payload,
                                             mask=mask))
            return await ws.read_frame(reader)

        opcode, decoded = asyncio.run(roundtrip())
        assert opcode == ws.OP_BINARY
        assert decoded == payload

    def test_fragmented_and_reserved_frames_rejected(self):
        async def read(raw):
            reader = asyncio.StreamReader()
            reader.feed_data(raw)
            return await ws.read_frame(reader)

        no_fin = bytes([0x01, 0x00])  # FIN clear
        with pytest.raises(ws.ProtocolError, match="fragmented"):
            asyncio.run(read(no_fin))
        rsv = bytes([0x80 | 0x40 | ws.OP_BINARY, 0x00])
        with pytest.raises(ws.ProtocolError, match="reserved"):
            asyncio.run(read(rsv))

    def test_close_frame_carries_code_and_reason(self):
        async def read():
            reader = asyncio.StreamReader()
            reader.feed_data(ws.close_frame(1001, "bye"))
            return await ws.read_frame(reader)

        opcode, payload = asyncio.run(read())
        assert opcode == ws.OP_CLOSE
        assert payload == b"\x03\xe9bye"


class TestHttpWire:
    def _parse(self, raw, **kwargs):
        async def parse():
            reader = asyncio.StreamReader()
            reader.feed_data(raw)
            reader.feed_eof()
            return await http.read_request(reader, **kwargs)

        return asyncio.run(parse())

    def test_request_parse(self):
        request = self._parse(
            b"POST /v1/t/sessions?name=q%201 HTTP/1.1\r\n"
            b"Host: x\r\nContent-Type: application/json\r\n"
            b"Content-Length: 2\r\n\r\n{}")
        assert request.method == "POST"
        assert request.path == "/v1/t/sessions"
        assert request.query == {"name": "q 1"}
        assert request.content_type() == "application/json"
        assert request.body == b"{}"
        assert request.keep_alive

    def test_clean_eof_returns_none(self):
        assert self._parse(b"") is None

    def test_malformed_request_line(self):
        with pytest.raises(http.BadRequest):
            self._parse(b"NONSENSE\r\n\r\n")

    def test_transfer_encoding_rejected(self):
        with pytest.raises(http.BadRequest, match="Transfer-Encoding"):
            self._parse(b"GET / HTTP/1.1\r\n"
                        b"Transfer-Encoding: chunked\r\n\r\n")

    def test_unparsable_target_is_400(self):
        with pytest.raises(http.BadRequest) as err:
            self._parse(b"GET http://[::1/x HTTP/1.1\r\n\r\n")
        assert err.value.status == 400

    @pytest.mark.parametrize("value", [
        b"+10", b"1_0", b"-1", b"0x0a", b"\xb2", b"", b"1 0"])
    def test_content_length_is_ascii_digits_only(self, value):
        # RFC 9110 §8.6: Content-Length = 1*DIGIT
        with pytest.raises(http.BadRequest) as err:
            self._parse(b"POST / HTTP/1.1\r\nContent-Length: " + value
                        + b"\r\n\r\n" + b"x" * 10)
        assert err.value.status == 400

    def test_oversized_body_is_413(self):
        with pytest.raises(http.BadRequest) as err:
            self._parse(b"POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\n",
                        max_body_bytes=10)
        assert err.value.status == 413

    def test_response_roundtrip(self):
        raw = http.response_bytes(
            429, http.error_body(429, "busy"),
            headers={"Retry-After": "1"})

        async def read():
            reader = asyncio.StreamReader()
            reader.feed_data(raw)
            return await http.read_response(reader)

        status, headers, body = asyncio.run(read())
        assert status == 429
        assert headers["retry-after"] == "1"
        assert json.loads(body)["error"]["status"] == 429


    def test_parse_errors_answer_400_over_a_live_server(self):
        """A request ``read_request`` cannot parse gets a 400 reply and a
        closed connection, never a dropped socket."""

        async def scenario(server, client):
            replies = []
            for raw in (b"GET http://[::1/x HTTP/1.1\r\n\r\n",
                        b"POST /v1/t/sessions HTTP/1.1\r\n"
                        b"Content-Length: +2\r\n\r\n{}"):
                reader, writer = await asyncio.open_connection(
                    *server.address)
                writer.write(raw)
                await writer.drain()
                status, headers, body = await http.read_response(reader)
                replies.append((status, headers["connection"],
                                json.loads(body)["error"]["status"]))
                writer.close()
                await writer.wait_closed()
            return replies

        assert _serve(scenario) == [(400, "close", 400)] * 2


# ---------------------------------------------------------------------------
# end-to-end parity: network bytes vs. in-process sharded serving
# ---------------------------------------------------------------------------

class TestNetworkParity:
    def test_streams_byte_identical_to_sharded(self, golden_runs,
                                               sharded_results):
        """N mixed replay sessions over HTTP/WS: every client-observed
        stream re-encodes to exactly the in-process payload bytes."""

        async def scenario(server, client):
            sids = await client.submit_runs("acme", golden_runs)
            streams = await asyncio.gather(*[
                client.stream("acme", sid) for sid in sids])
            payloads = [await client.reports_payload("acme", sid)
                        for sid in sids]
            return sids, streams, payloads

        sids, streams, payloads = _serve(scenario)
        assert sids == sorted(sharded_results)
        for sid, (frames, done), payload in zip(sids, streams, payloads):
            expected_rows = sharded_results[sid]
            expected = reports_to_payload(
                [(sid, report) for report in expected_rows])
            rows = [pair for frame in frames
                    for pair in reports_from_payload(frame)]
            assert reports_to_payload(rows) == expected
            assert payload == expected  # the GET route, same bytes
            assert done["reports"] == len(expected_rows)
            assert done["session"] == sid

    def test_json_submission_form_is_equivalent(self, golden_runs,
                                                sharded_results):
        async def scenario(server, client):
            sids = await client.submit_runs_json("acme", golden_runs)
            # streams complete (and hence buffers fill) before snapshotting
            await asyncio.gather(*[client.stream("acme", sid)
                                   for sid in sids])
            return sids, [await client.reports_payload("acme", sid)
                          for sid in sids]

        sids, payloads = _serve(scenario)
        for sid, payload in zip(sids, payloads):
            assert payload == reports_to_payload(
                [(sid, report) for report in sharded_results[sid]])

    def test_stream_resume_from_offset(self, golden_runs, sharded_results):
        async def scenario(server, client):
            sid = (await client.submit_runs("acme", golden_runs[:1]))[0]
            await client.stream("acme", sid)  # run to completion
            rows, done = await client.stream_reports("acme", sid, start=3)
            return sid, rows, done

        sid, rows, done = _serve(scenario)
        expected = sharded_results[sid][3:]
        assert [pair[1] for pair in rows] == expected
        assert done["reports"] == len(sharded_results[sid])

    def test_processes_mode_parity(self, golden_runs, sharded_results):
        async def scenario(server, client):
            sids = await client.submit_runs("acme", golden_runs)
            return sids, await asyncio.gather(*[
                client.stream_reports("acme", sid) for sid in sids])

        sids, streams = _serve(scenario, processes=True)
        for sid, (rows, _) in zip(sids, streams):
            assert [pair[1] for pair in rows] == sharded_results[sid]


# ---------------------------------------------------------------------------
# session lifecycle routes
# ---------------------------------------------------------------------------

class TestLifecycle:
    def test_create_list_get_delete(self, golden_runs):
        async def scenario(server, client):
            health = await client.healthz()
            assert health["status"] == "ok"
            sids = await client.submit_runs("acme", golden_runs[:2])
            assert (await client.get_session("acme", sids[0]))["status"] \
                in ("active", "done")
            await asyncio.gather(*[client.stream("acme", sid)
                                   for sid in sids])
            listed = await client.list_sessions("acme")
            assert [s["session"] for s in listed] == sids
            assert all(s["status"] == "done" and s["progress"] == 1.0
                       for s in listed)
            stats = await client.stats("acme")
            assert stats["tenant"]["sessions"] == 2
            assert stats["fleet"]["sessions_completed"] == 2
            assert stats["fleet"]["tick_p99_ms"] >= 0.0
            assert (await client.delete_session("acme", sids[0])) \
                == {"deleted": sids[0]}
            assert len(await client.list_sessions("acme")) == 1
            return sids

        _serve(scenario)

    def test_tenants_are_namespaced(self, golden_runs):
        async def scenario(server, client):
            sid = (await client.submit_runs("alpha", golden_runs[:1]))[0]
            with pytest.raises(ServiceError) as err:
                await client.get_session("beta", sid)
            assert err.value.status == 404
            assert (await client.list_sessions("beta")) == []
            await client.stream("alpha", sid)

        _serve(scenario)

    def test_named_submission(self, golden_runs):
        async def scenario(server, client):
            sid = (await client.submit_runs("acme", golden_runs[:1],
                                            name="nightly-etl"))[0]
            session = await client.get_session("acme", sid)
            assert session["name"] == "nightly-etl"
            await client.stream("acme", sid)

        _serve(scenario)


# ---------------------------------------------------------------------------
# error paths and admission control
# ---------------------------------------------------------------------------

class TestErrorPaths:
    def test_malformed_json_submission_is_400(self):
        async def scenario(server, client):
            status, _, body = await client.request(
                "POST", "/v1/t/sessions", b"{not json",
                content_type=http.JSON_TYPE)
            assert status == 400
            assert "malformed JSON" in json.loads(body)["error"]["detail"]
            # runs_b64 that is not base64 is also a 400, not a 500
            status, _, body = await client.request(
                "POST", "/v1/t/sessions",
                json.dumps({"runs_b64": "@@@"}).encode(),
                content_type=http.JSON_TYPE)
            assert status == 400

        _serve(scenario)

    def test_non_string_json_name_is_400(self, golden_runs):
        body = json.dumps({
            "runs_b64": base64.b64encode(
                runs_to_payload(golden_runs[:1])).decode("ascii"),
            "name": 5}).encode()

        async def scenario(server, client):
            status, _, reply = await client.request(
                "POST", "/v1/t/sessions", body, content_type=http.JSON_TYPE)
            assert status == 400
            assert "'name'" in json.loads(reply)["error"]["detail"]
            assert (await client.list_sessions("t")) == []

        _serve(scenario)

    def test_undecodable_runs_payload_is_400(self):
        async def scenario(server, client):
            status, _, body = await client.request(
                "POST", "/v1/t/sessions", b"\x00" * 32,
                content_type=http.RUNS_TYPE)
            assert status == 400
            assert "undecodable" in json.loads(body)["error"]["detail"]

        _serve(scenario)

    def test_member_table_past_the_body_is_400(self, golden_runs):
        """A runs payload whose member table claims more bytes than the
        body holds is refused before any member is read."""
        payload = runs_to_payload(golden_runs[:1])
        header_len = int.from_bytes(payload[:8], "little")
        header = json.loads(payload[8:8 + header_len])
        header["members"][-1][2] = [10 ** 6]
        head = json.dumps(header).encode()
        body = (len(head).to_bytes(8, "little") + head
                + payload[8 + header_len:])

        async def scenario(server, client):
            status, _, reply = await client.request(
                "POST", "/v1/t/sessions", body, content_type=http.RUNS_TYPE)
            assert status == 400
            assert "past the" in json.loads(reply)["error"]["detail"]
            assert (await client.list_sessions("t")) == []

        _serve(scenario)

    @pytest.mark.parametrize("case", sorted(MALFORMED_RUNS))
    def test_inconsistent_run_is_400_and_spares_the_fleet(
            self, golden_runs, sharded_results, case):
        """A well-framed run whose parts do not fit together is refused
        with 400 before it reaches a shard: another tenant's session,
        running meanwhile, completes with its in-process bytes, and the
        server keeps admitting."""
        bad = runs_to_payload([MALFORMED_RUNS[case](golden_runs[0])])

        async def scenario(server, client):
            sid = (await client.submit_runs("good", golden_runs[:1]))[0]
            streaming = asyncio.create_task(client.stream("good", sid))
            status, _, reply = await client.request(
                "POST", "/v1/bad/sessions", bad,
                content_type=http.RUNS_TYPE)
            assert status == 400
            assert "undecodable" in json.loads(reply)["error"]["detail"]
            frames, done = await streaming
            assert done["type"] == "done"
            assert (await client.list_sessions("bad")) == []
            later = await client.submit_runs("good", golden_runs[1:2])
            await client.stream("good", later[0])
            return sid, await client.reports_payload("good", sid)

        sid, payload = _serve(scenario)
        assert payload == reports_to_payload(
            [(sid, report) for report in sharded_results[sid]])

    def test_wrong_content_type_is_415(self):
        async def scenario(server, client):
            status, _, _ = await client.request(
                "POST", "/v1/t/sessions", b"x", content_type="text/plain")
            assert status == 415

        _serve(scenario)

    def test_unknown_session_and_route_are_404(self):
        async def scenario(server, client):
            for path in ("/v1/t/sessions/7", "/v1/t/sessions/not-an-id",
                         "/nope", "/v1/bad!tenant/sessions"):
                status, _, _ = await client.request("GET", path)
                assert status in (400, 404), path
            with pytest.raises(ServiceError) as err:
                await client.get_session("t", 7)
            assert err.value.status == 404

        _serve(scenario)

    def test_non_canonical_session_ids_and_from_are_rejected(
            self, golden_runs):
        """Only canonical decimal ids name a session (404 otherwise, for
        GET and DELETE alike) and only a canonical ``from`` resumes a
        stream (400 otherwise): ``int()`` would also take signs, "_",
        spaces, leading zeros and non-ASCII digits."""
        async def scenario(server, client):
            sid = (await client.submit_runs("t", golden_runs[:1]))[0]
            await client.stream("t", sid)
            digits = str(sid)
            arabic_indic = quote("".join(chr(0x660 + int(c))
                                         for c in digits))
            for text in (f"%2B{digits}", f"0{digits}", f"0_{digits}",
                         f"%20{digits}", f"{digits}%20", arabic_indic):
                for method in ("GET", "DELETE"):
                    status, _, _ = await client.request(
                        method, f"/v1/t/sessions/{text}")
                    assert status == 404, (method, text)
            assert (await client.get_session("t", sid))["status"] == "done"
            upgrade = {"Upgrade": "websocket", "Connection": "Upgrade",
                       "Sec-WebSocket-Key": "dGhlIHNhbXBsZSBub25jZQ==",
                       "Sec-WebSocket-Version": "13"}
            for text in ("%2B0", "+0", "-0", "00", "0_0", quote("\u0660")):
                status, _, body = await client.request(
                    "GET", f"/v1/t/sessions/{sid}/stream?from={text}",
                    headers=upgrade)
                assert status == 400, text
                assert "'from'" in json.loads(body)["error"]["detail"]

        _serve(scenario)

    def test_wrong_method_is_405(self):
        async def scenario(server, client):
            status, _, body = await client.request("PUT", "/v1/t/sessions")
            assert status == 405
            status, _, _ = await client.request("DELETE", "/healthz")
            assert status == 405

        _serve(scenario)

    def test_stream_without_upgrade_is_426(self, golden_runs):
        async def scenario(server, client):
            sid = (await client.submit_runs("t", golden_runs[:1]))[0]
            status, _, _ = await client.request(
                "GET", f"/v1/t/sessions/{sid}/stream")
            assert status == 426
            await client.stream("t", sid)

        _serve(scenario)

    def test_delete_active_session_is_409(self, golden_runs):
        async def scenario(server, client):
            # a server that is never ticked keeps the session active
            sid = (await client.submit_runs("t", golden_runs[:1]))[0]
            with pytest.raises(ServiceError) as err:
                await client.delete_session("t", sid)
            assert err.value.status == 409
            await client.stream("t", sid)  # let it finish before teardown

        _serve(scenario)

    def test_over_budget_submit_is_503_with_retry_after(self, golden_runs):
        async def scenario(server, client):
            with pytest.raises(ServiceError) as err:
                await client.submit_runs("t", golden_runs[:1])
            assert err.value.status == 503
            assert err.value.retry_after == 2.5

        _serve(scenario, memory_budget_bytes=8, retry_after=2.5)

    def test_max_inflight_is_429_with_retry_after(self, golden_runs):
        async def scenario(server, client):
            sid = (await client.submit_runs("t", golden_runs[:1]))[0]
            with pytest.raises(ServiceError) as err:
                await client.submit_runs("t", golden_runs[1:2])
            assert err.value.status == 429
            assert err.value.retry_after == 1.0
            await client.stream("t", sid)
            # admission frees as sessions complete
            await client.submit_runs("t", golden_runs[1:2])

        _serve(scenario, max_inflight=1)

    def test_mid_drain_connect(self, golden_runs):
        """Submissions during drain get 503, but already-admitted sessions
        keep streaming to completion (the drain guarantee)."""

        async def scenario():
            server = ProgressServer(_monitor, n_shards=2, slice_steps=4)
            await server.start()
            client = ProgressClient(*server.address)
            sid = (await client.submit_runs("t", golden_runs[:1]))[0]
            server.begin_drain()
            with pytest.raises(ServiceError) as err:
                await client.submit_runs("t", golden_runs[1:2])
            assert err.value.status == 503
            assert (await client.healthz())["status"] == "draining"
            rows, done = await client.stream_reports("t", sid)
            await client.aclose()
            await server.shutdown()
            return sid, rows, done

        sid, rows, done = asyncio.run(scenario())
        assert rows and done["reports"] == len(rows)

    def test_tick_loop_failure_fails_sessions_and_shutdown_returns(
            self, golden_runs, monkeypatch, caplog):
        """A fleet round that raises: the traceback is logged, unfinished
        sessions turn ``failed``, a parked subscriber gets a ``failed``
        frame and a close frame, submissions get 503, shutdown returns."""
        armed = False

        def tick():
            if armed:
                raise RuntimeError("shard exploded")
            return [], []  # idle round: the session stays active

        async def scenario():
            nonlocal armed
            server = ProgressServer(_monitor, n_shards=1, slice_steps=4)
            monkeypatch.setattr(server._service, "tick", tick)
            await server.start()
            client = ProgressClient(*server.address)
            sid = (await client.submit_runs("t", golden_runs[:1]))[0]
            subscriber = asyncio.create_task(client.stream("t", sid))
            await asyncio.sleep(0.05)  # let the stream park on its event
            assert not subscriber.done()
            armed = True
            frames, final = await asyncio.wait_for(subscriber, 10)
            listed = await client.list_sessions("t")
            health = await client.healthz()
            with pytest.raises(ServiceError) as err:
                await client.submit_runs("t", golden_runs[1:2])
            deleted = await client.delete_session("t", sid)
            await client.aclose()
            await asyncio.wait_for(server.shutdown(), 10)
            return sid, frames, final, listed, health, err.value, deleted

        sid, frames, final, listed, health, refused, deleted = \
            asyncio.run(scenario())
        assert frames == []
        assert final == {"type": "failed", "session": sid, "tenant": "t",
                         "name": golden_runs[0].query_name, "reports": 0}
        assert [s["status"] for s in listed] == ["failed"]
        assert health["status"] == "failed"
        assert refused.status == 503
        assert deleted == {"deleted": sid}
        failure = [r for r in caplog.records if "tick loop failed"
                   in r.getMessage()]
        assert failure and failure[0].exc_info is not None


# ---------------------------------------------------------------------------
# surface checks
# ---------------------------------------------------------------------------

class TestSurface:
    def test_routes_table_matches_served_paths(self):
        methods = {method for method, _ in ROUTES}
        assert methods == {"GET", "POST", "DELETE"}
        assert ("GET", "/v1/{tenant}/sessions/{sid}/stream") in ROUTES

    def test_cli_parser_defaults(self):
        args = build_parser().parse_args([])
        assert args.port == 8765
        assert args.shards == 1
        assert not args.processes

    @pytest.mark.parametrize("flag", ["--shards", "--slice-steps",
                                      "--max-live", "--refresh-every"])
    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_cli_rejects_non_positive_counts(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([flag, value])
        assert exit_info.value.code == 2
        assert f"{flag}: must be at least 1" in capsys.readouterr().err
        assert getattr(build_parser().parse_args([flag, "3"]),
                       flag[2:].replace("-", "_")) == 3

    def test_submission_payload_is_trace_codec(self, golden_runs):
        # the documented wire contract: POST bodies are runs_to_payload
        # bytes and stream frames decode with reports_from_payload
        payload = runs_to_payload(golden_runs[:1])
        assert base64.b64decode(
            base64.b64encode(payload)) == payload
