"""Per-node counter store and the observation log.

The counter store holds the live values of the paper's §3.1 counters; the
observation log snapshots them at (simulated-)time ticks, yielding the
trajectories ``K_i^t``, ``R_i^t``, ``W_i^t``, ``LB_i^t``, ``UB_i^t`` that
every progress estimator and every dynamic feature is computed from.
"""

from __future__ import annotations

import numpy as np

#: Cap for upper bounds that are theoretically unbounded (join outputs).
UNBOUNDED = 1.0e15

#: rows an :class:`ObservationLog` allocates before its first doubling
INITIAL_CAPACITY = 64

#: the log's per-node matrices, in snapshot order
_MATRICES = ("K", "R", "W", "LB", "UB", "D")


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
    """Snapshots of the counter store over time, stored columnar.

    Besides the counter trajectories, each snapshot records the per-node
    done flags ``D_i^t`` — they cost one boolean row and make recorded
    traces replayable: a replayed monitor needs to know *when* each node
    finished, which the counters alone do not encode (see
    :mod:`repro.trace.replay`).

    Rows live in capacity-doubling arrays ``times (T,)`` and
    ``K, R, W, LB, UB, D (T, n_nodes)``.  Rows are append-only and a
    doubling copies into fresh buffers, so a prefix view handed out by
    :meth:`as_arrays` never changes afterwards.
    """

    def __init__(self, n_nodes: int):
        self.n_nodes = n_nodes
        self._len = 0
        self._cols = {"times": np.empty(INITIAL_CAPACITY)}
        for name in _MATRICES:
            self._cols[name] = np.empty((INITIAL_CAPACITY, n_nodes),
                                        dtype=bool if name == "D" else float)

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
        i = self._len
        if i == len(self._cols["times"]):  # full: double into new buffers
            self._cols = {name: np.concatenate([col, np.empty_like(col)])
                          for name, col in self._cols.items()}
        cols = self._cols
        cols["times"][i] = now
        cols["K"][i] = counters.K
        cols["R"][i] = counters.R
        cols["W"][i] = counters.W
        cols["LB"][i] = lb
        cols["UB"][i] = ub
        cols["D"][i] = counters.done
        self._len = i + 1

    def __len__(self) -> int:
        return self._len

    @property
    def last_time(self) -> float:
        if not self._len:
            return -np.inf
        return float(self._cols["times"][self._len - 1])

    def as_arrays(self, stop: int | None = None) -> dict[str, np.ndarray]:
        """The log as arrays of shape ``(T,)`` / ``(T, n_nodes)``.

        ``stop`` truncates to the first ``stop`` snapshots — the as-of
        view a deferred consumer needs to reconstruct what the log looked
        like at an earlier observation (rows are append-only, so the
        prefix is exactly the historical log).  The arrays are views of
        the log's buffers, not copies — treat them as immutable.
        """
        stop = self._len if stop is None else min(stop, self._len)
        return {name: col[:stop] for name, col in self._cols.items()}
