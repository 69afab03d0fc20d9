"""Writing and reading trace directories, plus the content-keyed store.

A *trace* is one directory::

    <path>/
      manifest.json          # format version, optional meta, run index
      runs.npz               # all runs' trajectory members, r<i>_ prefixed

:func:`write_trace` / :func:`read_trace` handle one directory; a
:class:`TraceStore` manages a root of them, addressed by *content keys* —
stable hashes of the parameters that produced the runs (workload, scale,
seeds, format version), so a cache hit is only possible when the recording
would be byte-identical anyway.  ``TraceStore.from_env()`` turns the
``REPRO_TRACE_DIR`` environment variable into a store, which is how the
experiment harness and every benchmark warm-start across processes.

Writes go to a temp directory first and are renamed into place, so a
killed process never leaves a half-written trace behind a valid manifest.
Cold starts are additionally *single-flight*: ``load_or_compute`` guards
each missing key with a claim file, so concurrent processes warming the
same key execute it once instead of N times (see
:meth:`TraceStore.load_or_compute`).  ``python -m repro.trace`` lists,
verifies and garbage-collects a store from the command line.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.engine.run import QueryRun
from repro.trace.format import (
    TRACE_FORMAT_VERSION,
    check_trace_version,
    run_from_members,
    run_to_manifest,
    run_to_members,
)

MANIFEST_NAME = "manifest.json"
RUNS_NAME = "runs.npz"
CLAIM_SUFFIX = ".claim"

#: Environment variable naming the shared trace cache directory.
TRACE_DIR_ENV = "REPRO_TRACE_DIR"


def content_key(payload: dict[str, Any]) -> str:
    """Stable short hash of a JSON-able parameter dict."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _content_digest(npz_path: Path, entries: list[dict]) -> str:
    """Digest of one trace's payload: raw npz bytes + canonical entries."""
    digest = hashlib.sha256(npz_path.read_bytes())
    digest.update(json.dumps(entries, sort_keys=True,
                             separators=(",", ":")).encode())
    return digest.hexdigest()


def write_trace(path: str | Path, runs: list[QueryRun],
                meta: dict[str, Any] | None = None) -> Path:
    """Record ``runs`` into the trace directory ``path`` (replacing it).

    Concurrent-writer safe for the content-keyed cache: each writer
    stages into its own hidden temp directory and renames it into place,
    so two processes cold-starting the same key never corrupt each other
    — the loser of the rename race discards its staging copy (the
    winner's content is equivalent by construction of the key).
    """
    if not runs:
        raise ValueError("refusing to write an empty trace")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=path.parent, prefix=f".{path.name}.tmp-"))
    entries = []
    members: dict[str, np.ndarray] = {}
    for i, run in enumerate(runs):
        entry = run_to_manifest(run)
        entry["prefix"] = f"r{i:04d}_"
        members.update(run_to_members(run, entry["prefix"]))
        entries.append(entry)
    np.savez_compressed(tmp / RUNS_NAME, **members)
    manifest = {
        "format_version": TRACE_FORMAT_VERSION,
        "meta": meta or {},
        "runs": entries,
        # content digest over the npz bytes + the run entries, so
        # `python -m repro.trace verify` can detect bit-rot or tampering
        # (absent from pre-digest recordings; readers never require it)
        "integrity": {"algo": "sha256",
                      "digest": _content_digest(tmp / RUNS_NAME, entries)},
    }
    (tmp / MANIFEST_NAME).write_text(json.dumps(manifest, indent=1))
    # Rename into place without ever deleting a *shared* path: an existing
    # trace is first rotated onto a process-private graveyard name, so
    # concurrent writers only ever rmtree directories they themselves
    # created (deleting `path` directly would race another writer's
    # rename and can fail half-way, leaving a corrupt trace visible).
    for attempt in range(8):
        try:
            os.replace(tmp, path)
            return path
        except OSError:
            pass  # path exists and is non-empty: rotate it aside
        graveyard = path.parent / f".{path.name}.old-{os.getpid()}-{attempt}"
        try:
            os.rename(path, graveyard)
        except OSError:
            continue  # another writer rotated it first; retry the replace
        shutil.rmtree(graveyard, ignore_errors=True)
    # contended beyond reason: a concurrent writer's copy is in place and
    # equivalent by construction of the content key — keep theirs
    shutil.rmtree(tmp, ignore_errors=True)
    return path


def read_manifest(path: str | Path) -> dict[str, Any]:
    """Load and version-check a trace directory's manifest."""
    manifest = json.loads((Path(path) / MANIFEST_NAME).read_text())
    check_trace_version(manifest)
    return manifest


def read_trace(path: str | Path) -> tuple[list[QueryRun], dict[str, Any]]:
    """Replay every run recorded at ``path``; returns (runs, manifest).

    Retries briefly on a vanished file: a concurrent ``write_trace`` to
    the same path rotates the old directory aside for a moment before
    the fresh copy lands, so a reader can catch the gap between opening
    the manifest and opening ``runs.npz``.  The replacement is equivalent
    content (that is the content-key contract), so retrying is correct.
    """
    path = Path(path)
    for attempt in range(5):
        try:
            manifest = read_manifest(path)
            # np.load leaks its own handle when the zip is unreadable;
            # owning the file closes it on every path
            with open(path / RUNS_NAME, "rb") as fh, np.load(fh) as members:
                runs = [run_from_members(entry, members, entry["prefix"])
                        for entry in manifest["runs"]]
            return runs, manifest
        except FileNotFoundError:
            if attempt == 4:
                raise
            time.sleep(0.01 * (attempt + 1))


class TraceStore:
    """A directory of traces addressed by content key."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    @classmethod
    def from_env(cls, var: str = TRACE_DIR_ENV) -> "TraceStore | None":
        """The store named by ``REPRO_TRACE_DIR``, or None when unset."""
        root = os.environ.get(var)
        return cls(root) if root else None

    def path(self, key: str) -> Path:
        return self.root / key

    def exists(self, key: str) -> bool:
        return (self.path(key) / MANIFEST_NAME).is_file()

    def keys(self) -> list[str]:
        if not self.root.is_dir():
            return []
        return sorted(p.parent.name
                      for p in self.root.glob(f"*/{MANIFEST_NAME}")
                      if not p.parent.name.startswith("."))  # staging dirs

    def save(self, key: str, runs: list[QueryRun],
             meta: dict[str, Any] | None = None) -> Path:
        self.root.mkdir(parents=True, exist_ok=True)
        return write_trace(self.path(key), runs, meta=meta)

    def load(self, key: str) -> list[QueryRun]:
        runs, _ = read_trace(self.path(key))
        return runs

    def manifest(self, key: str) -> dict[str, Any]:
        return read_manifest(self.path(key))

    def size_bytes(self, key: str) -> int:
        """Total on-disk size of one recorded trace."""
        return sum(p.stat().st_size for p in self.path(key).glob("*")
                   if p.is_file())

    # -- single-flight cold starts ----------------------------------------
    #
    # Concurrent processes cold-starting the same content key would each
    # pay the full execution and then race the rename in write_trace —
    # harmless for correctness (the key guarantees equivalent content) but
    # N× the work.  A *claim file* next to the trace directory makes the
    # cold start single-flight: the first process to O_EXCL-create the
    # claim executes; everyone else polls until the manifest appears and
    # replays.  A claim older than ``stale_after`` is presumed orphaned
    # (its owner was killed between claiming and saving) and is stolen.

    def claim_path(self, key: str) -> Path:
        return self.root / f".{key}{CLAIM_SUFFIX}"

    def claims(self) -> list[Path]:
        """Outstanding (possibly stale) claim files in this store."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob(f".*{CLAIM_SUFFIX}"))

    def staging_dirs(self) -> list[Path]:
        """Hidden in-progress (or orphaned) write_trace work dirs —
        ``.tmp-`` staging copies and ``.old-`` rotation graveyards."""
        if not self.root.is_dir():
            return []
        return sorted(p for pattern in (".*.tmp-*", ".*.old-*")
                      for p in self.root.glob(pattern) if p.is_dir())

    def _try_claim(self, key: str) -> bool:
        self.root.mkdir(parents=True, exist_ok=True)
        try:
            fd = os.open(self.claim_path(key),
                         os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        with os.fdopen(fd, "w") as handle:
            json.dump({"pid": os.getpid(), "claimed_at": time.time()}, handle)
        return True

    def release_claim(self, key: str) -> None:
        self.claim_path(key).unlink(missing_ok=True)

    def _steal_claim(self, key: str, observed_mtime: float) -> None:
        """Remove a stale claim — but only if it is still the claim we
        observed.  A waiter preempted between its staleness check and the
        removal must not delete a *fresh* claim some new owner created in
        between (the mtime re-check catches that; a fresh claim is always
        newer).  The instruction-scale window that remains can at worst
        cause a duplicate computation, which is benign: same-key saves
        are content-equivalent and ``write_trace`` is concurrent-safe.
        """
        try:
            if self.claim_path(key).stat().st_mtime == observed_mtime:
                self.release_claim(key)
        except OSError:
            pass  # already released or stolen by another waiter

    def load_or_compute(self, key: str,
                        compute: Callable[[], list[QueryRun]],
                        meta: dict[str, Any] | None = None, *,
                        timeout: float = 600.0,
                        stale_after: float = 600.0,
                        poll_interval: float = 0.02
                        ) -> tuple[list[QueryRun], str]:
        """Load ``key``, or single-flight ``compute()`` + record it.

        Returns ``(runs, source)`` with ``source`` one of ``"hit"`` (the
        trace existed, or a concurrent winner recorded it while we
        waited) or ``"computed"`` (this process executed).  Among any
        number of concurrent callers for a missing key, exactly one
        computes; the rest wait up to ``timeout`` seconds and replay the
        winner's recording.  If ``compute`` raises, the claim is released
        so a waiting process can take over.
        """
        deadline = time.monotonic() + timeout
        while True:
            if self.exists(key):
                return self.load(key), "hit"
            if self._try_claim(key):
                try:
                    if self.exists(key):
                        # a winner finished between our exists() check and
                        # the claim: replay its recording
                        return self.load(key), "hit"
                    runs = compute()
                    self.save(key, runs, meta=meta)
                finally:
                    self.release_claim(key)
                return runs, "computed"
            try:
                claim_mtime = self.claim_path(key).stat().st_mtime
            except OSError:  # holder just released; re-check immediately
                continue
            if time.time() - claim_mtime > stale_after:
                self._steal_claim(key, claim_mtime)
                continue
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"timed out after {timeout:.0f}s waiting for another "
                    f"process to record trace key {key!r} (claim file "
                    f"{self.claim_path(key)}); remove the claim to retry")
            time.sleep(poll_interval)
