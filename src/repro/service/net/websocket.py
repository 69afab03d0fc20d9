"""Just enough RFC 6455 for live report streams.

The subscription endpoint (``GET .../stream``) upgrades its HTTP
connection to a WebSocket and pushes one *binary* frame per batch of new
report rows (the frame payload is :func:`~repro.runtime.transport.
reports_to_payload` bytes — the exact codec the shards use, so a network
subscriber receives the same bytes the supervisor merged), followed by
one *text* frame with the completion summary and a close handshake.

Only the parts of the RFC the front end exercises are implemented:

* the opening handshake (``Sec-WebSocket-Accept`` key transform);
* unfragmented data frames with 7/16/64-bit payload lengths;
* client-to-server masking (required by the RFC; the decoder unmasks,
  the client encoder masks, both in one vectorized XOR) and unmasked
  server-to-client frames;
* CLOSE / PING / PONG control opcodes.

Fragmented messages and extensions are rejected loudly — neither end of
this repo produces them, and silent tolerance would mask a peer bug.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import os
import struct

import numpy as np

#: Fixed GUID every WebSocket handshake concatenates (RFC 6455 §4.2.2).
WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

OP_TEXT = 0x1
OP_BINARY = 0x2
OP_CLOSE = 0x8
OP_PING = 0x9
OP_PONG = 0xA

#: Largest frame payload either side will accept (one report batch).
MAX_FRAME_BYTES = 256 * 1024 * 1024
#: Largest control-frame payload (RFC 6455 §5.5).
MAX_CONTROL_BYTES = 125


class ProtocolError(Exception):
    """A frame or handshake outside the supported RFC 6455 subset."""


def accept_key(key: str) -> str:
    """The ``Sec-WebSocket-Accept`` value for a client's nonce key."""
    digest = hashlib.sha1((key + WS_GUID).encode("ascii")).digest()
    return base64.b64encode(digest).decode("ascii")


def handshake_response(key: str) -> bytes:
    """The 101 response completing the upgrade for nonce ``key``."""
    return ("HTTP/1.1 101 Switching Protocols\r\n"
            "Upgrade: websocket\r\n"
            "Connection: Upgrade\r\n"
            f"Sec-WebSocket-Accept: {accept_key(key)}\r\n"
            "\r\n").encode("latin-1")


def encode_frame(opcode: int, payload: bytes, mask: bool = False) -> bytes:
    """One unfragmented frame (FIN set).  ``mask=True`` is the client
    side; servers send unmasked (RFC 6455 §5.1)."""
    head = bytearray([0x80 | opcode])
    length = len(payload)
    mask_bit = 0x80 if mask else 0x00
    if length < 126:
        head.append(mask_bit | length)
    elif length < 1 << 16:
        head.append(mask_bit | 126)
        head += struct.pack(">H", length)
    else:
        head.append(mask_bit | 127)
        head += struct.pack(">Q", length)
    if not mask:
        return bytes(head) + payload
    key = os.urandom(4)
    head += key
    return bytes(head) + apply_mask(payload, key)


def apply_mask(payload: bytes, key: bytes) -> bytes:
    """``payload`` XORed with the 4-byte ``key`` repeated (RFC 6455
    §5.3): masks and unmasks alike, in one vectorized pass."""
    tiled = np.frombuffer(key * (len(payload) // 4 + 1), np.uint8,
                          len(payload))
    return (np.frombuffer(payload, np.uint8) ^ tiled).tobytes()


async def read_frame(reader: asyncio.StreamReader,
                     max_payload: int = MAX_FRAME_BYTES
                     ) -> tuple[int, bytes]:
    """Read one frame; ``(opcode, unmasked payload)``.

    Raises :class:`ProtocolError` on fragmentation, reserved bits or an
    oversized payload, and :class:`asyncio.IncompleteReadError` when the
    peer vanishes mid-frame.
    """
    b0, b1 = await reader.readexactly(2)
    if not b0 & 0x80:
        raise ProtocolError("fragmented frames are not supported")
    if b0 & 0x70:
        raise ProtocolError("reserved frame bits set (extensions are "
                            "not negotiated)")
    opcode = b0 & 0x0F
    masked = bool(b1 & 0x80)
    length = b1 & 0x7F
    if length == 126:
        (length,) = struct.unpack(">H", await reader.readexactly(2))
    elif length == 127:
        (length,) = struct.unpack(">Q", await reader.readexactly(8))
    if length > max_payload:
        raise ProtocolError(f"frame payload of {length} bytes exceeds the "
                            f"{max_payload}-byte limit")
    key = await reader.readexactly(4) if masked else None
    payload = await reader.readexactly(length) if length else b""
    if key is not None:
        payload = apply_mask(payload, key)
    return opcode, payload


def close_frame(code: int = 1000, reason: str = "",
                mask: bool = False) -> bytes:
    """An RFC-shaped CLOSE frame (2-byte code + UTF-8 reason)."""
    return encode_frame(OP_CLOSE,
                        struct.pack(">H", code) + reason.encode("utf-8"),
                        mask=mask)
