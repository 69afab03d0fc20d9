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

#: bound rules: what an unfinished node's ``ub[i]`` is computed from
#: (``a``/``b`` are the node ids a rule reads, ``c`` its constant); the
#: executor lays a plan out as a table of them
#: (``repro.engine.executor._plan_bound_rules``)
CONST = 0      # c: table rows of a scan or seek, 1 for a scalar aggregate
PASS = 1       # ub[a]: filters, batch sorts, semi/anti joins (a = outer)
PRODUCT = 2    # min(max(ub[a], 1) * max(ub[b], 1), UNBOUNDED): joins
PROBE = 3      # min(max(ub[a], 1) * c, UNBOUNDED): nested-loop seek
BLOCKING = 4   # sort / hash aggregate over child a
GROUPS = 5     # grouped stream aggregate over child a
TOP = 6        # min(c, ub[a]), c = k


def fill_bounds(rules: tuple, K: np.ndarray, D: np.ndarray,
                UB: np.ndarray) -> None:
    """Worst-case bounds on ``N_i`` based on input sizes ([6]), row-wise.

    ``K``/``D`` are a block of logged rows ``(m, n_nodes)``; ``UB`` (the
    same shape) receives each row's upper bounds.  ``LB`` is ``K``.
    Upper bounds are derived from *total* input cardinalities (known for
    scans, bounded recursively elsewhere), never from "remaining"
    arithmetic — rows in flight between operators would otherwise make
    the bounds momentarily unsound.  A finished node's total is its
    counter.  Spill-induced GetNext calls are outside the bounds by
    design (they are unpredictable extra work; see the engine docs).

    A row's bounds depend on that row's ``K`` and ``D`` alone, so each
    rule ``(i, rule, a, b, c)`` is one column operation over every row of
    the block, in the table's order: the per-node float operations of a
    walk of the plan, so the same bits for every row.  A done flag that
    holds on no row of the block, or on every row, selects without a
    per-row choice.
    """
    k, d, ub = K.T, D.T, UB.T  # node-major views: ub[i] is node i's column
    done_any = D.any(axis=0).tolist()
    done_all = D.all(axis=0).tolist()
    maximum, minimum = np.maximum, np.minimum
    for i, rule, a, b, c in rules:
        if done_all[i]:
            ub[i] = k[i]
            continue
        if rule == CONST:
            ub[i] = c
        elif rule == PASS:
            ub[i] = ub[a]
        elif rule == PRODUCT:
            minimum(maximum(ub[a], 1.0) * maximum(ub[b], 1.0), UNBOUNDED,
                    out=ub[i])
        elif rule == PROBE:
            minimum(maximum(ub[a], 1.0) * c, UNBOUNDED, out=ub[i])
        elif rule == BLOCKING or rule == GROUPS:
            if not done_any[a]:
                ub[i] = ub[a]
            else:
                known = (maximum(k[i], k[a]) if rule == BLOCKING
                         else k[i] + 1.0)
                ub[i] = known if done_all[a] else np.where(d[a], known, ub[a])
        else:  # TOP
            minimum(c, ub[a], out=ub[i])
        if done_any[i]:
            np.copyto(ub[i], k[i], where=d[i])
    minimum(UB, UNBOUNDED, out=UB)
    maximum(UB, K, out=UB)


class CounterStore:
    """Live per-node counters for one query execution.

    ``K``/``R``/``W`` are Python lists of floats and ``done`` a list of
    bools, indexed by node id.  The executor updates one node per charge,
    and on a Python float that is the same IEEE double operation as on a
    float64 array element, minus the NumPy scalar round trip.  They become
    arrays only where they are read as such: each :meth:`ObservationLog.
    snapshot` copies them into its float64/bool rows, and the final ``N``
    is ``np.array(K)`` — the same bits either way.
    """

    def __init__(self, n_nodes: int):
        self.n_nodes = n_nodes
        self.K = [0.0] * n_nodes
        self.R = [0.0] * n_nodes
        self.W = [0.0] * n_nodes
        self.done = [False] * n_nodes

    def finish(self) -> None:
        """Mark every node done (the query has produced its last row)."""
        self.done[:] = [True] * self.n_nodes


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

    The log defers the bounds to the plan's bound ``rules`` (see
    :func:`fill_bounds`): :meth:`snapshot` writes ``times``/``K``/``R``/
    ``W``/``D`` only, and the log keeps a watermark of the rows whose
    ``LB``/``UB`` are filled in.  :meth:`as_arrays` fills every row past
    it in one pass before handing out a view, so every row a view covers
    is final when the view is made.
    """

    def __init__(self, n_nodes: int, rules: tuple):
        self.n_nodes = n_nodes
        self._rules = rules
        self._len = 0
        #: rows below this have their ``LB``/``UB`` filled in
        self._filled = 0
        self._cols = {"times": np.empty(INITIAL_CAPACITY)}
        for name in _MATRICES:
            self._cols[name] = np.empty((INITIAL_CAPACITY, n_nodes),
                                        dtype=bool if name == "D" else float)

    def snapshot(self, now: float, counters: CounterStore) -> None:
        """Append the counters as of ``now`` (the bounds are filled in
        when the log is read)."""
        if counters.n_nodes != self.n_nodes:
            raise ValueError(
                f"counter store tracks {counters.n_nodes} nodes but the "
                f"observation log was sized for {self.n_nodes}")
        i = self._len
        if i == len(self._cols["times"]):  # full: double into new buffers
            self._cols = {name: np.concatenate([col, np.empty_like(col)])
                          for name, col in self._cols.items()}
        cols = self._cols
        cols["times"][i] = now
        cols["K"][i] = counters.K
        cols["R"][i] = counters.R
        cols["W"][i] = counters.W
        cols["D"][i] = counters.done
        self._len = i + 1

    def _fill(self) -> None:
        """Fill in ``LB``/``UB`` of every row past the watermark."""
        lo, hi = self._filled, self._len
        if lo < hi:
            cols = self._cols
            K = cols["K"][lo:hi]
            cols["LB"][lo:hi] = K
            fill_bounds(self._rules, K, cols["D"][lo:hi], cols["UB"][lo:hi])
            self._filled = hi

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
        self._fill()
        stop = self._len if stop is None else min(stop, self._len)
        return {name: col[:stop] for name, col in self._cols.items()}
