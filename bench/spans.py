"""Stdlib span recorder for the benchmark's traced runs.

A :class:`Recorder` wraps public functions and methods of the program at
class or module level.  Each wrapper accumulates, for its layer, the number
of calls, the total time, the *self* time (total minus the time spent in
nested wrapped calls, kept with a span stack) and an optional work count
(rows, bytes).  Accumulators are preallocated per layer and kept per
thread, so the server's tick thread and its event-loop thread never race
on a counter; snapshots sum the threads.  Bounded sample buffers back the
percentile metrics (event-loop lag).  Everything stays in memory until the
run ends and is then written out as JSON.

Nothing is installed unless a run asks for tracing: an untraced run never
imports this module's wrappers into the program.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from array import array
from pathlib import Path

#: capacity of each named sample buffer; later samples are dropped
SAMPLE_CAPACITY = 1 << 16


class _ThreadAcc:
    """One thread's accumulators, indexed by layer id."""

    __slots__ = ("count", "total_ns", "self_ns", "work", "stack")

    def __init__(self, n_layers: int):
        self.count = [0] * n_layers
        self.total_ns = [0] * n_layers
        self.self_ns = [0] * n_layers
        self.work = [0] * n_layers
        #: time spent in child spans, one entry per open span
        self.stack: list[int] = []


class Recorder:
    """Per-layer call/time/work accumulators fed by installed wrappers."""

    def __init__(self, layers: list[str]):
        self.layers = list(layers)
        self._index = {name: i for i, name in enumerate(self.layers)}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadAcc] = []
        self._samples: dict[str, array] = {}

    # -- accumulation ----------------------------------------------------------

    def _acc(self) -> _ThreadAcc:
        acc = getattr(self._local, "acc", None)
        if acc is None:
            acc = _ThreadAcc(len(self.layers))
            self._local.acc = acc
            with self._lock:
                self._threads.append(acc)
        return acc

    def wrap(self, layer: str, fn, work=None):
        """A wrapper timing ``fn`` as one span of ``layer``.

        ``work(args, result)``, when given, returns the units of work the
        call did (rows scored, bytes encoded); they are summed per layer.
        """
        i = self._index[layer]
        acc_of = self._acc
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            acc = acc_of()
            stack = acc.stack
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                acc.count[i] += 1
                acc.total_ns[i] += elapsed
                acc.self_ns[i] += elapsed - child
                if stack:
                    stack[-1] += elapsed
            if work is not None:
                acc.work[i] += work(args, result)
            return result

        return wrapper

    def sample(self, name: str, value: float) -> None:
        """Append to the bounded sample buffer ``name``."""
        buf = self._samples.setdefault(name, array("d"))
        if len(buf) < SAMPLE_CAPACITY:
            buf.append(value)

    # -- installation ----------------------------------------------------------

    def patch_methods(self, layer: str, base: type, name: str,
                      work=None) -> None:
        """Wrap ``name`` on ``base`` and on every loaded subclass that
        defines its own ``name`` (subclass overrides are spans too)."""
        seen: set[type] = set()
        pending = [base]
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            pending.extend(cls.__subclasses__())
            original = cls.__dict__.get(name)
            if original is None or not callable(original):
                continue
            setattr(cls, name, self.wrap(layer, original, work))

    def patch_function(self, layer: str, module, name: str,
                       work=None) -> None:
        """Wrap module-level function ``module.name`` in its home module
        and in every loaded module that imported it by name."""
        original = getattr(module, name)
        wrapper = self.wrap(layer, original, work)
        for mod in list(sys.modules.values()):
            if getattr(mod, name, None) is original:
                setattr(mod, name, wrapper)

    # -- read-out --------------------------------------------------------------

    def snapshot(self) -> dict:
        """Per-layer sums over all threads, and the sample buffers."""
        with self._lock:
            threads = list(self._threads)
        layers = {}
        for i, name in enumerate(self.layers):
            layers[name] = {
                "calls": sum(t.count[i] for t in threads),
                "total_ns": sum(t.total_ns[i] for t in threads),
                "self_ns": sum(t.self_ns[i] for t in threads),
                "work": sum(t.work[i] for t in threads),
            }
        return {
            "layers": layers,
            "samples": {name: list(buf) for name, buf in self._samples.items()},
        }

    def reset(self) -> None:
        """Zero every accumulator and drop every sample (this process)."""
        with self._lock:
            self._threads.clear()
        self._local = threading.local()
        self._samples.clear()

    def write(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.snapshot()))

    def follow_forks(self, out_dir: str | Path) -> None:
        """In every child forked by :mod:`multiprocessing` after this call,
        start from zero and write ``spans-<pid>.json`` into ``out_dir`` when
        the child exits normally."""
        import multiprocessing.util as mp_util

        def after_fork(recorder: Recorder) -> None:
            recorder.reset()
            path = Path(out_dir) / f"spans-{os.getpid()}.json"
            mp_util.Finalize(recorder, recorder.write, args=(path,),
                             exitpriority=10)

        mp_util.register_after_fork(self, after_fork)


def diff(before: dict, after: dict) -> dict:
    """Per-layer accumulators of the interval between two snapshots."""
    return {
        name: {key: after["layers"][name][key] - before["layers"][name][key]
               for key in ("calls", "total_ns", "self_ns", "work")}
        for name in after["layers"]}


def merge(parts: list[dict]) -> dict:
    """Sum per-layer accumulators of several processes' intervals."""
    out: dict = {}
    for part in parts:
        for name, row in part.items():
            acc = out.setdefault(name, dict.fromkeys(row, 0))
            for key, value in row.items():
                acc[key] += value
    return out
