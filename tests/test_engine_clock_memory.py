"""Unit tests for the simulated clock, cost model and memory manager."""

import numpy as np
import pytest

from repro.engine.clock import NORMAL_BLOCK, CostModel, SimClock
from repro.engine.memory import MemoryManager
from repro.plan.nodes import Op


def quiet_cost(**overrides):
    params = dict(noise_sigma=0.0, load_sigma=0.0, time_scale=1.0)
    params.update(overrides)
    return CostModel(**params)


class TestCostModel:
    def test_cpu_seconds_linear(self):
        cost = quiet_cost()
        assert cost.cpu_seconds(Op.FILTER, 100) == pytest.approx(
            100 * cost.cpu_per_row[Op.FILTER])

    def test_sort_cost_superlinear(self):
        cost = quiet_cost()
        small = cost.sort_cpu_seconds(1000, 1000)
        big = cost.sort_cpu_seconds(1000, 1_000_000)
        assert big > small

    def test_sort_cost_zero_rows(self):
        assert quiet_cost().sort_cpu_seconds(0, 100) == 0.0

    def test_every_op_has_a_cost(self):
        cost = quiet_cost()
        for op in Op:
            assert cost.cpu_per_row[op] > 0


class TestSimClock:
    def test_deterministic_advance_without_noise(self, rng_factory):
        clock = SimClock(quiet_cost(), rng_factory(0))
        assert clock.advance(1.5) == pytest.approx(1.5)
        assert clock.now == pytest.approx(1.5)

    def test_time_scale_multiplies(self, rng_factory):
        clock = SimClock(quiet_cost(time_scale=100.0), rng_factory(0))
        clock.advance(1.0)
        assert clock.now == pytest.approx(100.0)

    def test_zero_advance(self, rng_factory):
        clock = SimClock(quiet_cost(), rng_factory(0))
        assert clock.advance(0.0) == 0.0

    def test_negative_advance_rejected(self, rng_factory):
        clock = SimClock(quiet_cost(), rng_factory(0))
        with pytest.raises(ValueError):
            clock.advance(-1.0)

    def test_noise_is_seeded(self, rng_factory):
        a = SimClock(quiet_cost(noise_sigma=0.2), rng_factory(7))
        b = SimClock(quiet_cost(noise_sigma=0.2), rng_factory(7))
        for _ in range(10):
            assert a.advance(1.0) == b.advance(1.0)

    def test_load_drift_keeps_time_positive(self, rng_factory):
        clock = SimClock(quiet_cost(load_sigma=0.5), rng_factory(3))
        for _ in range(500):
            assert clock.advance(0.01) > 0


def scalar_clock_times(cost, rng, seconds):
    """The clock's definition: one ``rng.lognormal`` call per factor."""
    now, load, times = 0.0, 1.0, []
    for s in seconds:
        if s != 0:
            dt = s * cost.time_scale
            if cost.noise_sigma > 0:
                dt *= rng.lognormal(0.0, cost.noise_sigma)
            if cost.load_sigma > 0:
                rho = cost.load_rho
                target = rng.lognormal(0.0, cost.load_sigma)
                load = rho * load + (1.0 - rho) * target
                dt *= load
            now += dt
        times.append(now)
    return times


@pytest.mark.parametrize("cost", [
    CostModel(), CostModel(noise_sigma=0.0), CostModel(load_sigma=0.0)],
    ids=["default", "no-noise", "no-load"])
def test_block_draws_equal_scalar_lognormal(cost, rng_factory):
    """Over 12,000 charges — zero-second ones draw nothing — the clock's
    ``now`` is the bits of one scalar ``rng.lognormal`` draw per factor,
    across many block boundaries."""
    seconds = rng_factory(99).exponential(1e-3, 12_000)
    seconds[::7] = 0.0
    clock = SimClock(cost, rng_factory(5))
    times = []
    for s in seconds.tolist():
        clock.advance(s)
        times.append(clock.now)
    expected = scalar_clock_times(cost, rng_factory(5), seconds.tolist())
    assert np.array(times).tobytes() == np.array(expected).tobytes()
    draws = np.count_nonzero(seconds) * (
        (cost.noise_sigma > 0) + (cost.load_sigma > 0))
    assert draws > 10 * NORMAL_BLOCK


class TestMemoryManager:
    def test_fits_in_budget(self):
        mem = MemoryManager(budget_bytes=1000.0)
        decision = mem.request(rows=10, row_width=10.0)
        assert not decision.spilled
        assert decision.granted_bytes == 100.0

    def test_spills_excess(self):
        mem = MemoryManager(budget_bytes=100.0)
        decision = mem.request(rows=30, row_width=10.0)
        assert decision.spilled
        assert decision.spilled_rows == 20
        assert decision.spilled_bytes == pytest.approx(200.0)

    def test_spill_accounting_accumulates(self):
        mem = MemoryManager(budget_bytes=50.0)
        mem.request(rows=10, row_width=10.0)
        mem.request(rows=10, row_width=10.0)
        assert mem.spill_events == 2
        assert mem.total_spilled_bytes == pytest.approx(100.0)

    def test_spilled_rows_capped_at_rows(self):
        mem = MemoryManager(budget_bytes=1.0)
        decision = mem.request(rows=5, row_width=100.0)
        assert decision.spilled_rows == 5

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            MemoryManager(budget_bytes=0.0)
