"""CLI: manage a content-keyed trace store from the command line.

Works on ``--root DIR`` or, when omitted, on ``REPRO_TRACE_DIR``.

Examples
--------
List every recorded trace with metadata and on-disk size::

    python -m repro.trace list

Verify round-trip integrity (decode every run, re-encode it, compare
bit-for-bit against the stored bytes)::

    python -m repro.trace verify            # whole store
    python -m repro.trace verify KEY [...]  # specific keys

Garbage-collect unreadable leftovers — traces recorded under another
format version, orphaned ``write_trace`` staging directories, and stale
single-flight claim files::

    python -m repro.trace gc --dry-run
    python -m repro.trace gc
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

import numpy as np

from repro.trace.format import (
    TRACE_FORMAT_VERSION,
    run_to_manifest,
    run_to_members,
)
from repro.trace.store import (
    MANIFEST_NAME,
    RUNS_NAME,
    TRACE_DIR_ENV,
    TraceStore,
    _content_digest,
)


def _store_from_args(args) -> TraceStore:
    root = args.root or os.environ.get(TRACE_DIR_ENV)
    if not root:
        raise SystemExit(
            f"no trace store given: pass --root DIR or set {TRACE_DIR_ENV}")
    return TraceStore(root)


def _raw_manifest(path: Path) -> dict:
    """The manifest JSON without a version check (for list/gc, which must
    be able to describe traces this build cannot replay)."""
    return json.loads((path / MANIFEST_NAME).read_text())


def _human_size(n: int) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if n < 1024 or unit == "GiB":
            return f"{n:.0f}{unit}" if unit == "B" else f"{n:.1f}{unit}"
        n /= 1024
    return f"{n:.1f}GiB"  # pragma: no cover


def cmd_list(args) -> int:
    store = _store_from_args(args)
    keys = store.keys()
    if not keys:
        print(f"empty trace store at {store.root}")
        return 0
    total = 0
    for key in keys:
        manifest = _raw_manifest(store.path(key))
        size = store.size_bytes(key)
        total += size
        version = manifest.get("format_version")
        stale = "" if version == TRACE_FORMAT_VERSION else \
            f"  [stale format v{version}]"
        meta = manifest.get("meta") or {}
        meta_text = " ".join(f"{k}={v}" for k, v in sorted(meta.items()))
        print(f"{key}  runs={len(manifest.get('runs', []))}  "
              f"size={_human_size(size)}  {meta_text}{stale}")
    claims, staging = store.claims(), store.staging_dirs()
    print(f"{len(keys)} trace(s), {_human_size(total)} total"
          + (f"; {len(claims)} claim file(s)" if claims else "")
          + (f"; {len(staging)} staging dir(s)" if staging else ""))
    return 0


def cmd_verify(args) -> int:
    store = _store_from_args(args)
    keys = args.keys or store.keys()
    failures = 0
    for key in keys:
        problem = _verify_key(store, key)
        if problem is None:
            print(f"ok       {key}")
        else:
            failures += 1
            print(f"CORRUPT  {key}: {problem}")
    print(f"{len(keys) - failures}/{len(keys)} trace(s) verified")
    return 1 if failures else 0


def _verify_key(store: TraceStore, key: str) -> str | None:
    """Round-trip one trace; returns a problem description or None.

    Two layers: the recorded content digest (npz bytes + run entries)
    must match — catching bit-rot and tampering — and every run must
    decode and *re-encode* to the stored bytes exactly, catching
    truncated blobs, shape corruption and codec drift.  Pre-digest
    recordings only get the second layer.
    """
    try:
        runs = store.load(key)
        manifest = store.manifest(key)
        with open(store.path(key) / RUNS_NAME, "rb") as fh, \
                np.load(fh) as stored:
            stored_members = {name: stored[name] for name in stored.files}
    except Exception as exc:  # noqa: BLE001 — report, don't crash the sweep
        return f"unreadable ({exc})"
    integrity = manifest.get("integrity")
    if integrity is not None:
        recomputed = _content_digest(store.path(key) / RUNS_NAME,
                                     manifest["runs"])
        if recomputed != integrity.get("digest"):
            return "content digest mismatch (bit-rot or tampering)"
    reencoded: dict[str, np.ndarray] = {}
    for run, entry in zip(runs, manifest["runs"]):
        expected_entry = run_to_manifest(run)
        expected_entry["prefix"] = entry.get("prefix")
        if expected_entry != entry:
            return f"manifest entry for {run.query_name!r} does not re-encode"
        reencoded.update(run_to_members(run, entry["prefix"]))
    if set(reencoded) != set(stored_members):
        return "member set mismatch between manifest and runs.npz"
    for name, expected in reencoded.items():
        if not np.array_equal(expected, stored_members[name]):
            return f"member {name!r} diverges from its re-encoding"
    return None


def cmd_gc(args) -> int:
    store = _store_from_args(args)
    now = time.time()
    removals: list[tuple[Path, str]] = []
    for key in store.keys():
        version = _raw_manifest(store.path(key)).get("format_version")
        if version != TRACE_FORMAT_VERSION:
            removals.append((store.path(key),
                             f"stale format v{version} "
                             f"(current v{TRACE_FORMAT_VERSION})"))
    for staging in store.staging_dirs():
        if now - staging.stat().st_mtime > args.stale_after:
            removals.append((staging, "orphaned staging directory"))
    for claim in store.claims():
        if now - claim.stat().st_mtime > args.stale_after:
            removals.append((claim, "stale single-flight claim"))
    verb = "would remove" if args.dry_run else "removed"
    for path, reason in removals:
        if not args.dry_run:
            if path.is_dir():
                shutil.rmtree(path)
            else:
                path.unlink(missing_ok=True)
        print(f"{verb} {path.name}: {reason}")
    print(f"{verb} {len(removals)} item(s)"
          + (f" (in-progress items younger than {args.stale_after:.0f}s "
             f"are kept; lower --stale-after to force)"
             if not removals else ""))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.trace",
        description="Inspect, verify and garbage-collect a trace store.")
    parser.add_argument("--root", default=None,
                        help=f"store directory (default ${TRACE_DIR_ENV})")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list keys with meta and size") \
        .set_defaults(func=cmd_list)
    verify = commands.add_parser(
        "verify", help="bit-for-bit round-trip check of recorded traces")
    verify.add_argument("keys", nargs="*",
                        help="keys to verify (default: every key)")
    verify.set_defaults(func=cmd_verify)
    gc = commands.add_parser(
        "gc", help="remove stale-format traces, orphaned staging dirs "
                   "and stale claims")
    gc.add_argument("--dry-run", action="store_true",
                    help="print what would be removed without removing")
    gc.add_argument("--stale-after", type=float, default=3600.0,
                    help="age in seconds before staging dirs/claims count "
                         "as orphaned (default 3600)")
    gc.set_defaults(func=cmd_gc)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
