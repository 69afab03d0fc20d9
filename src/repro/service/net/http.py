"""Minimal HTTP/1.1 over asyncio streams — the front end's own wire layer.

The network front end deliberately speaks raw HTTP/1.1 instead of pulling
in a web framework: the repo's only runtime dependency is NumPy, CI must
stay hermetic, and the served surface is small enough (eight routes, see
:data:`repro.service.net.server.ROUTES`) that a framework would be mostly
dead weight.  This module is the request/response half; the RFC 6455
upgrade path lives in :mod:`repro.service.net.websocket`.

Scope (and the corresponding hard errors):

* request line + headers, capped at :data:`MAX_HEADER_BYTES` (431 via
  :class:`BadRequest` when blown);
* bodies sized by ``Content-Length`` only — ``Transfer-Encoding`` is
  rejected (the repo's clients never chunk) — capped by the server's
  configured body limit (413);
* ``keep-alive`` connection reuse (HTTP/1.1 default; ``Connection:
  close`` honoured both ways).

Responses always carry ``Content-Length`` so clients can frame replies
without sniffing for EOF.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from urllib.parse import parse_qs, unquote, urlsplit

#: Upper bound on the request line + headers block.
MAX_HEADER_BYTES = 64 * 1024
#: Default upper bound on request bodies (servers may lower it).
MAX_BODY_BYTES = 256 * 1024 * 1024

#: Reason phrases for every status the front end emits.
STATUS_REASONS = {
    101: "Switching Protocols",
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    415: "Unsupported Media Type",
    426: "Upgrade Required",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

JSON_TYPE = "application/json"
#: Content type of trace-codec run payloads (``runs_to_payload`` bytes).
RUNS_TYPE = "application/x-repro-runs"
#: Content type of columnar report payloads (``reports_to_payload`` bytes).
REPORTS_TYPE = "application/x-repro-reports"


class BadRequest(Exception):
    """A request the server refuses to route, with its response status."""

    def __init__(self, detail: str, status: int = 400):
        super().__init__(detail)
        self.status = status
        self.detail = detail


@dataclass
class Request:
    """One parsed HTTP/1.1 request."""

    method: str
    #: decoded path component, e.g. ``/v1/acme/sessions``
    path: str
    #: parsed query string: name -> first value
    query: dict[str, str]
    #: header names lower-cased; duplicate headers keep the last value
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "").lower() != "close"

    def content_type(self) -> str:
        """The media type, parameters (``; charset=...``) stripped."""
        return self.headers.get("content-type", "").split(";")[0].strip()

    def json(self) -> dict:
        """Decode a JSON object body; :class:`BadRequest` on anything else."""
        try:
            payload = json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise BadRequest(f"malformed JSON body: {exc}") from None
        if not isinstance(payload, dict):
            raise BadRequest("JSON body must be an object")
        return payload


async def read_request(reader: asyncio.StreamReader,
                       max_body_bytes: int = MAX_BODY_BYTES
                       ) -> Request | None:
    """Read one request off the stream; ``None`` on a clean EOF.

    Raises :class:`BadRequest` for anything malformed — the caller turns
    that into a 4xx response and closes the connection (framing can no
    longer be trusted after a parse failure).
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # peer closed between requests: normal keep-alive end
        raise BadRequest("truncated request head") from None
    except asyncio.LimitOverrunError:
        raise BadRequest("request head exceeds the header limit",
                         status=431) from None
    if len(head) > MAX_HEADER_BYTES:
        raise BadRequest("request head exceeds the header limit", status=431)
    request_line, _, header_block = head[:-4].decode(
        "latin-1").partition("\r\n")
    parts = request_line.split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise BadRequest(f"malformed request line {request_line!r}")
    method, target, _version = parts
    try:
        split = urlsplit(target)
    except ValueError as exc:  # e.g. an unclosed IPv6 host bracket
        raise BadRequest(f"malformed request target {target!r}: {exc}") \
            from None
    query = {name: values[-1]
             for name, values in parse_qs(split.query).items()}
    headers: dict[str, str] = {}
    for line in header_block.split("\r\n"):
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise BadRequest(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    if "transfer-encoding" in headers:
        raise BadRequest("Transfer-Encoding is not supported; frame the "
                         "body with Content-Length")
    body = b""
    if "content-length" in headers:
        value = headers["content-length"]
        # RFC 9110 §8.6: 1*DIGIT — int() would also take signs, "_" and
        # non-ASCII digits
        if not (value.isascii() and value.isdigit()):
            raise BadRequest(f"malformed Content-Length {value!r}")
        length = int(value)
        if length > max_body_bytes:
            raise BadRequest(
                f"body of {length} bytes exceeds the {max_body_bytes}-byte "
                f"limit", status=413)
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise BadRequest("body shorter than Content-Length") from None
    return Request(method=method, path=unquote(split.path), query=query,
                   headers=headers, body=body)


def response_bytes(status: int, body: bytes = b"",
                   content_type: str = JSON_TYPE,
                   headers: dict[str, str] | None = None,
                   keep_alive: bool = True) -> bytes:
    """Serialize one response, always Content-Length-framed."""
    reason = STATUS_REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}"]
    if body:
        lines.append(f"Content-Type: {content_type}")
    lines.append(f"Content-Length: {len(body)}")
    lines.append(f"Connection: {'keep-alive' if keep_alive else 'close'}")
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def json_body(payload: dict) -> bytes:
    """Canonical JSON encoding (sorted keys, compact separators)."""
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def error_body(status: int, detail: str) -> bytes:
    """The uniform error envelope every non-2xx response carries."""
    return json_body({"error": {"status": status,
                                "reason": STATUS_REASONS.get(status, ""),
                                "detail": detail}})


async def read_response(reader: asyncio.StreamReader
                        ) -> tuple[int, dict[str, str], bytes]:
    """Client side: read one Content-Length-framed response."""
    head = await reader.readuntil(b"\r\n\r\n")
    status_line, _, header_block = head[:-4].decode(
        "latin-1").partition("\r\n")
    status = int(status_line.split(" ")[1])
    headers: dict[str, str] = {}
    for line in header_block.split("\r\n"):
        if line:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
    body = b""
    if "content-length" in headers:
        body = await reader.readexactly(int(headers["content-length"]))
    return status, headers, body
