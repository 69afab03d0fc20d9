"""Crossing process boundaries through the trace format.

Workers never pickle engine objects.  A slice of executed
:class:`~repro.engine.run.QueryRun` results is encoded with the exact
codec the on-disk traces use (:func:`repro.trace.format.run_to_manifest`
/ :func:`run_to_members`) into one ``bytes`` payload::

    [8-byte little-endian header length][JSON header][npz member blob]

The header carries the trace ``format_version`` plus the per-run manifest
entries; the blob is an *uncompressed* ``.npz`` (compression buys nothing
for a same-machine pipe and costs CPU).  Because the codec round-trips
float64/bool arrays bit-exactly, a run received from a worker is
indistinguishable from one executed locally — the same guarantee replay
already makes, reused as IPC.

Decoding holds :data:`NPZ_LOCK`: the network front end decodes
submissions on its event loop while a process-mode tick decodes shard
replies in a worker thread, and ``np.load`` parses each member's header
with ``ast.literal_eval``, which has been seen failing under that overlap
(``SystemError: AST constructor recursion depth mismatch``).
"""

from __future__ import annotations

import io
import json
import threading

import numpy as np

from repro.engine.run import QueryRun
from repro.trace.format import (
    TRACE_FORMAT_VERSION,
    check_trace_version,
    reports_from_columns,
    reports_to_columns,
    run_from_members,
    run_to_manifest,
    run_to_members,
)

_LENGTH_BYTES = 8

#: serializes the ``np.load`` section of both decoders across threads
NPZ_LOCK = threading.Lock()


def _frame(header: dict, members: dict[str, np.ndarray]) -> bytes:
    """Length-prefixed JSON header (stamped with the trace format
    version) followed by an uncompressed npz blob of ``members``."""
    blob = io.BytesIO()
    np.savez(blob, **members)
    head = json.dumps({"format_version": TRACE_FORMAT_VERSION,
                       **header}).encode()
    return len(head).to_bytes(_LENGTH_BYTES, "little") + head + blob.getvalue()


def _unframe(payload: bytes, what: str) -> tuple[dict, bytes]:
    """Split a :func:`_frame` payload into its version-checked header and
    npz blob; ``what`` names the payload in truncation errors."""
    if len(payload) < _LENGTH_BYTES:
        raise ValueError(f"truncated {what} payload: missing header length")
    header_len = int.from_bytes(payload[:_LENGTH_BYTES], "little")
    body_start = _LENGTH_BYTES + header_len
    if len(payload) < body_start:
        raise ValueError(f"truncated {what} payload: missing header")
    header = json.loads(payload[_LENGTH_BYTES:body_start].decode())
    check_trace_version(header)
    return header, payload[body_start:]


def runs_to_payload(runs: list[QueryRun]) -> bytes:
    """Encode executed runs as one self-describing bytes payload."""
    entries = []
    members: dict[str, np.ndarray] = {}
    for i, run in enumerate(runs):
        entry = run_to_manifest(run)
        entry["prefix"] = f"r{i:04d}_"
        members.update(run_to_members(run, entry["prefix"]))
        entries.append(entry)
    return _frame({"runs": entries}, members)


def runs_from_payload(payload: bytes) -> list[QueryRun]:
    """Decode a :func:`runs_to_payload` payload back into runs."""
    header, blob = _unframe(payload, "run")
    with NPZ_LOCK, np.load(io.BytesIO(blob)) as members:
        return [run_from_members(entry, members, entry["prefix"])
                for entry in header["runs"]]


def reports_to_payload(tagged: "list[tuple[int, object]]") -> bytes:
    """Encode ``(session_id, ProgressReport)`` pairs as one bytes payload.

    The sharded service's per-tick report frame: the report rows cross in
    the columnar trace codec (:func:`repro.trace.format.reports_to_columns`
    — float64 bit-exact, estimator names interned) with the session ids as
    one extra int64 member, under the same length-prefixed header framing
    as :func:`runs_to_payload`.
    """
    entry, members = reports_to_columns([report for _, report in tagged])
    members["sids"] = np.asarray([sid for sid, _ in tagged], dtype=np.int64)
    return _frame({"reports": entry}, members)


def reports_from_payload(payload: bytes) -> "list[tuple[int, object]]":
    """Decode a :func:`reports_to_payload` payload back into tagged reports."""
    header, blob = _unframe(payload, "report")
    with NPZ_LOCK, np.load(io.BytesIO(blob)) as members:
        reports = reports_from_columns(header["reports"], members)
        sids = members["sids"]
    return list(zip((int(sid) for sid in sids), reports))
