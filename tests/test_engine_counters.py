"""Tests for the counter store and observation log."""

import numpy as np
import pytest

from repro.engine.counters import (
    CONST,
    INITIAL_CAPACITY,
    UNBOUNDED,
    CounterStore,
    ObservationLog,
)


def const_rules(caps) -> tuple:
    """One ``CONST`` bound rule per node: node ``i``'s bound is
    ``caps[i]`` until it finishes."""
    return tuple((i, CONST, 0, 0, float(c)) for i, c in enumerate(caps))


def const_log(n: int) -> ObservationLog:
    return ObservationLog(n, const_rules([UNBOUNDED] * n))


class TestCounterStore:
    def test_initial_state(self):
        store = CounterStore(3)
        assert store.K == [0, 0, 0]
        assert not any(store.done)

    def test_finish_marks_every_node_done(self):
        store = CounterStore(3)
        store.done[1] = True
        store.finish()
        assert store.done == [True, True, True]


class TestObservationLog:
    def test_empty_log_arrays(self):
        log = const_log(2)
        arrays = log.as_arrays()
        assert arrays["times"].shape == (0,)
        assert arrays["K"].shape == (0, 2)
        assert log.last_time == -np.inf

    def test_snapshot_copies_state(self):
        store = CounterStore(2)
        log = const_log(2)
        store.K[0] = 5.0
        log.snapshot(1.0, store)
        store.K[0] = 99.0  # later mutation must not leak into the snapshot
        arrays = log.as_arrays()
        assert arrays["K"][0, 0] == 5.0

    def test_snapshot_accumulates(self):
        store = CounterStore(1)
        log = const_log(1)
        for t in (0.5, 1.5, 2.5):
            store.K[0] += 1
            log.snapshot(t, store)
        assert len(log) == 3
        arrays = log.as_arrays()
        assert arrays["times"].tolist() == [0.5, 1.5, 2.5]
        assert arrays["K"][:, 0].tolist() == [1.0, 2.0, 3.0]
        assert log.last_time == 2.5

    def test_snapshot_records_done_flags(self):
        store = CounterStore(2)
        log = const_log(2)
        log.snapshot(1.0, store)
        store.done[1] = True
        log.snapshot(2.0, store)
        arrays = log.as_arrays()
        assert arrays["D"].dtype == bool
        assert arrays["D"].tolist() == [[False, False], [False, True]]

    def test_empty_log_has_done_matrix(self):
        arrays = const_log(3).as_arrays()
        assert arrays["D"].shape == (0, 3)
        assert arrays["D"].dtype == bool


class TestColumnarStorage:
    """Rows live in capacity-doubling arrays; ``as_arrays`` hands out
    prefix views, which append-only rows keep valid across doublings."""

    #: the ``CONST`` rule of node ``i`` caps it at ``CAPS[i]``
    CAPS = (100.0, 101.0, 102.0)

    @classmethod
    def _log(cls, n: int) -> ObservationLog:
        return ObservationLog(n, const_rules(cls.CAPS[:n]))

    @classmethod
    def _fill(cls, log, store, t):
        n = store.n_nodes
        store.K[:] = (t + np.arange(n, dtype=float)).tolist()
        store.R[:] = [2.0 * t] * n
        store.W[:] = [0.5 * t] * n
        store.done[t % n] = True
        log.snapshot(0.25 * t, store)
        K, D = np.array(store.K), np.array(store.done)
        return {"times": 0.25 * t, "K": K, "R": np.array(store.R),
                "W": np.array(store.W), "LB": K,
                "UB": np.where(D, K, np.maximum(cls.CAPS[:n], K)), "D": D}

    def test_rows_survive_two_doublings(self):
        n = 3
        store = CounterStore(n)
        log = self._log(n)
        written = []
        before = None
        for t in range(4 * INITIAL_CAPACITY + 1):  # doubles at 1x and 2x
            if t == INITIAL_CAPACITY:  # full: the next snapshot doubles
                before = log.as_arrays()
                frozen = {name: a.copy() for name, a in before.items()}
            written.append(self._fill(log, store, t))
        arrays = log.as_arrays()
        assert len(log) == len(written) == len(arrays["times"])
        for name, column in arrays.items():
            expected = np.array([row[name] for row in written])
            assert column.dtype == expected.dtype
            assert np.array_equal(column, expected), name
            # the early view is a view, and no later row or doubling moved it
            assert before[name].base is not None
            assert np.array_equal(before[name], frozen[name]), name
            assert np.array_equal(before[name], column[:INITIAL_CAPACITY])

    def test_prefix_stop_clamps_to_length(self):
        store = CounterStore(2)
        log = self._log(2)
        for t in range(5):
            self._fill(log, store, t)
        assert log.as_arrays(3)["K"].shape == (3, 2)
        assert log.as_arrays(99)["K"].shape == (5, 2)
        assert log.last_time == 1.0

    def test_executed_run_owns_exactly_sized_arrays(self, join_run):
        T, n = len(join_run.times), join_run.n_nodes
        for name in ("times", "K", "R", "W", "LB", "UB", "D"):
            assert getattr(join_run, name).base is None, name
        assert join_run.times.nbytes == T * 8
        for name in ("K", "R", "W", "LB", "UB"):
            assert getattr(join_run, name).nbytes == T * n * 8, name
        assert join_run.D.nbytes == T * n
        assert join_run.nbytes == (T * 8 + 5 * T * n * 8 + n * 8 + T * n)


class TestSnapshotValidation:
    """A counter store of another size fails at the snapshot, not much
    later inside estimator code."""

    def test_mismatched_counter_store_rejected(self):
        log = const_log(3)
        with pytest.raises(ValueError, match="tracks 2 nodes"):
            log.snapshot(1.0, CounterStore(2))

    def test_nothing_stored_on_rejection(self):
        log = const_log(2)
        with pytest.raises(ValueError):
            log.snapshot(1.0, CounterStore(3))
        assert len(log) == 0
        assert log.as_arrays()["K"].shape == (0, 2)
