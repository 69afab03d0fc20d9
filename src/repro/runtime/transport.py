"""Crossing process boundaries through the trace format.

Workers never pickle engine objects.  A slice of executed
:class:`~repro.engine.run.QueryRun` results is encoded with the trace
codec's own split (:func:`repro.trace.format.run_to_manifest` /
:func:`run_to_members`) into one ``bytes`` payload::

    [8-byte little-endian header length][JSON header][member bytes]

The JSON header carries :data:`WIRE_FORMAT_VERSION` (this framing), the
trace ``format_version`` (the manifest schema), the per-run manifest
entries and a member table of ``[name, dtype.str, shape, offset]`` rows.
The member bytes are every member's ``tobytes()`` concatenated in table
order, so a member's offset is relative to the end of the header.  Plain
raw buffers, not ``.npz``: nothing is compressed or zipped on a
same-machine pipe, and decoding parses no per-member headers.

Decoding checks the whole member table before it reads a byte: only the
dtypes the codecs emit, non-negative integer shapes and offsets, and
members that tile the body exactly, in order.  Every violation (and any
malformed header) raises :class:`ValueError`, since the network front
end takes untrusted POST bodies.  A run payload is checked whole —
every run's manifest against its members' shapes
(:func:`~repro.trace.format.check_run`) — before a run is built, and
:func:`validate_runs_payload` makes exactly that check without copying
a member, so the server can refuse a bad body and forward a good one as
it is.  :func:`runs_from_payload` decodes all runs or the listed ones
(a shard decodes its own runs out of a shared payload).  Each decoded
member is copied out of the payload once, so decoded arrays own their
memory, are writable, and a decoded run's ``nbytes`` is what it really
holds (and what :func:`validate_runs_payload` reports).  Because float64 and
bool arrays cross as their raw bytes, a run received from a worker is
indistinguishable from one executed locally — the same guarantee replay
already makes, reused as IPC.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np

from repro.engine.run import QueryRun
from repro.trace.format import (
    MEMBER_KEYS,
    TRACE_FORMAT_VERSION,
    ReportBlock,
    check_run,
    check_trace_version,
    run_from_members,
    run_nbytes,
    run_to_manifest,
    run_to_members,
)

#: Version of the payload framing itself (header layout + member table).
#: v1: raw member buffers after the JSON header, replacing an ``.npz`` blob.
WIRE_FORMAT_VERSION = 1

_LENGTH_BYTES = 8

#: the dtypes the codecs emit: float64, int64 and bool members
_WIRE_DTYPES = {dt.str: dt for dt in map(np.dtype, ("<f8", "<i8", "|b1"))}


def _frame(header: dict, members: dict[str, np.ndarray]) -> bytes:
    """Length-prefixed JSON header (stamped with both versions and the
    member table) followed by the members' raw bytes."""
    table = []
    offset = 0
    for name, array in members.items():
        table.append([name, array.dtype.str, list(array.shape), offset])
        offset += array.nbytes
    head = json.dumps({"wire_format_version": WIRE_FORMAT_VERSION,
                       "format_version": TRACE_FORMAT_VERSION,
                       "members": table, **header}).encode()
    return b"".join([len(head).to_bytes(_LENGTH_BYTES, "little"), head,
                     *(array.tobytes() for array in members.values())])


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def _member_layout(table, body_start: int, body_len: int,
                   what: str) -> dict[str, tuple]:
    """Check a member table against a body of ``body_len`` bytes that
    starts at payload byte ``body_start``; each member's ``(dtype,
    shape, count, payload offset)`` by name, in body order."""
    if not isinstance(table, list):
        raise ValueError(f"{what} payload header lacks a member table")
    layout = {}
    end = 0
    for row in table:
        if not (isinstance(row, list) and len(row) == 4):
            raise ValueError(f"malformed {what} member table row {row!r}")
        name, dtype, shape, offset = row
        if not isinstance(name, str) or name in layout:
            raise ValueError(f"bad or repeated {what} member name {name!r}")
        if not isinstance(dtype, str) or dtype not in _WIRE_DTYPES:
            raise ValueError(f"{what} member {name!r} has dtype {dtype!r}; "
                             f"the wire carries only {sorted(_WIRE_DTYPES)}")
        if not (isinstance(shape, list) and all(map(_is_count, shape))):
            raise ValueError(f"{what} member {name!r} has shape {shape!r}; "
                             f"dimensions must be non-negative integers")
        if not _is_count(offset):
            raise ValueError(f"{what} member {name!r} has offset "
                             f"{offset!r}; offsets must be non-negative "
                             f"integers")
        if offset != end:
            raise ValueError(f"{what} member {name!r} starts at byte "
                             f"{offset}, not {end}: members must tile the "
                             f"body in order, with no gap or overlap")
        dt = _WIRE_DTYPES[dtype]
        count = math.prod(shape)
        end += count * dt.itemsize
        if end > body_len:
            raise ValueError(f"{what} member {name!r} ends at byte {end}, "
                             f"past the {body_len}-byte body")
        layout[name] = (dt, shape, count, body_start + offset)
    if end != body_len:
        raise ValueError(f"{what} payload has {body_len - end} trailing "
                         f"bytes after its last member")
    return layout


def _unframe(payload: bytes, what: str) -> tuple[dict, dict[str, tuple]]:
    """Split a :func:`_frame` payload into its version-checked header and
    its checked member layout (:func:`_member_layout`), reading no
    member; ``what`` names the payload in errors."""
    if len(payload) < _LENGTH_BYTES:
        raise ValueError(f"truncated {what} payload: missing header length")
    header_len = int.from_bytes(payload[:_LENGTH_BYTES], "little")
    body_start = _LENGTH_BYTES + header_len
    if len(payload) < body_start:
        raise ValueError(f"truncated {what} payload: missing header")
    header = json.loads(payload[_LENGTH_BYTES:body_start].decode())
    if not isinstance(header, dict):
        raise ValueError(f"{what} payload header is not a JSON object")
    found = header.get("wire_format_version")
    if found != WIRE_FORMAT_VERSION:
        raise ValueError(
            f"unsupported wire format version {found!r} in {what} payload; "
            f"this build reads wire version {WIRE_FORMAT_VERSION}")
    check_trace_version(header)
    return header, _member_layout(header.get("members"), body_start,
                                  len(payload) - body_start, what)


def _copy_member(payload: bytes, row: tuple) -> np.ndarray:
    """One member of a :func:`_member_layout` row, copied out of
    ``payload`` into its own array."""
    dt, shape, count, offset = row
    return np.frombuffer(payload, dt, count, offset).reshape(shape).copy()


@contextmanager
def _malformed(what: str):
    """Report a header whose entries do not fit the codec (a missing key,
    a wrong type, an index out of range) as :class:`ValueError`, like
    every other malformed payload."""
    try:
        yield
    except (KeyError, IndexError, TypeError) as exc:
        raise ValueError(f"malformed {what} payload: {exc!r}") from None


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


class RunSummary(NamedTuple):
    """One run of a checked payload, as :func:`validate_runs_payload`
    reports it: what the decoded run's ``query_name`` and ``nbytes``
    will be."""

    query_name: str
    nbytes: int


def _run_entries(header: dict) -> list:
    entries = header["runs"]
    if not isinstance(entries, list):
        raise ValueError("run payload header lacks a run list")
    return entries


def _member_shapes(layout: dict[str, tuple], prefix: str) -> dict:
    """A run's member shapes out of the payload's layout."""
    try:
        return {key: layout[prefix + key][1] for key in MEMBER_KEYS}
    except KeyError as exc:
        raise ValueError(f"trace arrays missing member {exc}") from None


def validate_runs_payload(payload: bytes) -> list[RunSummary]:
    """Check a :func:`runs_to_payload` payload as :func:`runs_from_payload`
    does — the framing, both versions, the member table and every run
    (:func:`~repro.trace.format.check_run`) — without copying a member or
    building a run.  Each run's summary, in payload order; anything
    :func:`runs_from_payload` would refuse raises :class:`ValueError`."""
    header, layout = _unframe(payload, "run")
    with _malformed("run"):
        summaries = []
        for entry in _run_entries(header):
            shapes = _member_shapes(layout, entry["prefix"])
            check_run(entry, shapes)
            summaries.append(RunSummary(entry["query_name"],
                                        run_nbytes(shapes)))
        return summaries


def runs_from_payload(payload: bytes, indices=None) -> list[QueryRun]:
    """Decode a :func:`runs_to_payload` payload back into runs: all of
    them, or the runs at ``indices`` in that order.  The whole payload is
    checked as :func:`validate_runs_payload` checks it; only the decoded
    runs' members are copied out."""
    header, layout = _unframe(payload, "run")
    with _malformed("run"):
        entries = _run_entries(header)
        if indices is None:
            indices = range(len(entries))
        decoded = set(indices)
        for i, entry in enumerate(entries):
            if i not in decoded:  # decoded runs are checked as they build
                check_run(entry, _member_shapes(layout, entry["prefix"]))
        runs = []
        for i in indices:
            entry = entries[i]
            prefix = entry["prefix"]
            runs.append(run_from_members(entry, {
                prefix + key: _copy_member(payload, layout[prefix + key])
                for key in MEMBER_KEYS}, prefix))
        return runs


def reports_to_payload(rows) -> bytes:
    """Encode report rows as one bytes payload.

    ``rows`` is a :class:`~repro.trace.format.ReportBlock` or a sequence
    of ``(session_id, ProgressReport)`` pairs (made into one first).  The
    sharded service's per-tick report frame: the block's columns cross as
    the codec's members (:meth:`ReportBlock.to_columns` — float64
    bit-exact, estimator names interned) with the session ids as one
    extra int64 member, under the same length-prefixed header framing as
    :func:`runs_to_payload`.
    """
    if not isinstance(rows, ReportBlock):
        rows = ReportBlock.from_reports(rows)
    entry, members = rows.to_columns()
    members["sids"] = rows.sids
    return _frame({"reports": entry}, members)


def block_from_payload(payload: bytes) -> ReportBlock:
    """Decode a :func:`reports_to_payload` payload into one block."""
    header, layout = _unframe(payload, "report")
    members = {name: _copy_member(payload, row)
               for name, row in layout.items()}
    with _malformed("report"):
        return ReportBlock.from_columns(header["reports"], members)


def reports_from_payload(payload: bytes) -> "list[tuple[int, object]]":
    """Decode a :func:`reports_to_payload` payload into ``(session_id,
    ProgressReport)`` pairs."""
    with _malformed("report"):
        return list(block_from_payload(payload))
