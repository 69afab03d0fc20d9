"""Per-node counter store and the observation log.

The counter store holds the live values of the paper's §3.1 counters; the
observation log snapshots them at (simulated-)time ticks, yielding the
trajectories ``K_i^t``, ``R_i^t``, ``W_i^t``, ``LB_i^t``, ``UB_i^t`` that
every progress estimator and every dynamic feature is computed from.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import NamedTuple

import numpy as np

#: Cap for upper bounds that are theoretically unbounded (join outputs).
UNBOUNDED = 1.0e15


class LogRow(NamedTuple):
    """One observation's full-width counter snapshot (all plan nodes).

    The arrays are the log's own per-snapshot copies — treat them as
    immutable.  Both the live :class:`ObservationLog` and the replay-side
    log expose this row shape, so the monitor's row capture is
    source-agnostic.
    """

    time: float
    K: np.ndarray
    R: np.ndarray
    W: np.ndarray
    LB: np.ndarray
    UB: np.ndarray
    D: np.ndarray


class CounterStore:
    """Live per-node counters for one query execution."""

    def __init__(self, n_nodes: int):
        self.n_nodes = n_nodes
        self.K = np.zeros(n_nodes)
        self.R = np.zeros(n_nodes)
        self.W = np.zeros(n_nodes)
        self.done = np.zeros(n_nodes, dtype=bool)
        self.first_activity = np.full(n_nodes, np.nan)
        self.last_activity = np.full(n_nodes, np.nan)

    def record_activity(self, node_id: int, now: float) -> None:
        if np.isnan(self.first_activity[node_id]):
            self.first_activity[node_id] = now
        self.last_activity[node_id] = now


class ObservationLog:
    """Snapshots of the counter store over time.

    Besides the counter trajectories, each snapshot records the per-node
    done flags ``D_i^t`` — they cost one boolean row and make recorded
    traces replayable: a replayed monitor needs to know *when* each node
    finished, which the counters alone do not encode (see
    :mod:`repro.trace.replay`).
    """

    def __init__(self, n_nodes: int):
        self.n_nodes = n_nodes
        self.times: list[float] = []
        self._K: list[np.ndarray] = []
        self._R: list[np.ndarray] = []
        self._W: list[np.ndarray] = []
        self._LB: list[np.ndarray] = []
        self._UB: list[np.ndarray] = []
        self._D: list[np.ndarray] = []

    def snapshot(self, now: float, counters: CounterStore,
                 lb: np.ndarray, ub: np.ndarray) -> None:
        if counters.n_nodes != self.n_nodes:
            raise ValueError(
                f"counter store tracks {counters.n_nodes} nodes but the "
                f"observation log was sized for {self.n_nodes}")
        lb = np.asarray(lb)
        ub = np.asarray(ub)
        expected = (self.n_nodes,)
        if lb.shape != expected or ub.shape != expected:
            raise ValueError(
                f"bounds must have shape {expected}, got lb {lb.shape} / "
                f"ub {ub.shape}")
        self.times.append(now)
        self._K.append(counters.K.copy())
        self._R.append(counters.R.copy())
        self._W.append(counters.W.copy())
        self._LB.append(lb.copy())
        self._UB.append(ub.copy())
        self._D.append(counters.done.copy())

    def __len__(self) -> int:
        return len(self.times)

    def row(self, i: int) -> LogRow:
        """O(1) access to one recorded snapshot (no materialization)."""
        return LogRow(self.times[i], self._K[i], self._R[i], self._W[i],
                      self._LB[i], self._UB[i], self._D[i])

    def start_index(self, t_start: float) -> int:
        """First snapshot index with ``time >= t_start`` (times ascend)."""
        return bisect_left(self.times, t_start)

    @property
    def last_time(self) -> float:
        return self.times[-1] if self.times else -np.inf

    def as_arrays(self, stop: int | None = None) -> dict[str, np.ndarray]:
        """Materialize the log as dense arrays of shape ``(T, n_nodes)``.

        ``stop`` truncates to the first ``stop`` snapshots — the as-of
        view a deferred consumer needs to reconstruct what the log looked
        like at an earlier observation (rows are append-only, so the
        prefix is exactly the historical log).
        """
        times = self.times if stop is None else self.times[:stop]
        if not times:
            empty = np.empty((0, self.n_nodes))
            return {"times": np.empty(0), "K": empty, "R": empty.copy(),
                    "W": empty.copy(), "LB": empty.copy(), "UB": empty.copy(),
                    "D": np.empty((0, self.n_nodes), dtype=bool)}
        return {
            "times": np.asarray(times),
            "K": np.vstack(self._K[:stop]),
            "R": np.vstack(self._R[:stop]),
            "W": np.vstack(self._W[:stop]),
            "LB": np.vstack(self._LB[:stop]),
            "UB": np.vstack(self._UB[:stop]),
            "D": np.vstack(self._D[:stop]),
        }
