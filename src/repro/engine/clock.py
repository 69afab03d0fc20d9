"""Simulated clock and operator cost model.

Progress ground truth in the paper is elapsed wall-clock time; here it is
elapsed *simulated* time.  The cost model deliberately makes GetNext calls
cost different amounts at different operators (a seek's random I/O is far
more expensive than a scan's sequential read, hashing costs more than
streaming, sorts pay an ``n log n`` factor).  This is what keeps the
idealized Total-GetNext model *imperfect* — the paper measures its residual
error at L1 ≈ 0.06 (§6.7) precisely because real per-call costs vary — while
still correlating well with time.

A slowly drifting multiplicative *load factor* (an AR(1) process) models
background system load, which is what makes Luo et al.'s speed-extrapolation
estimator genuinely useful on some queries and misleading on others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.plan.nodes import Op


@dataclass
class CostModel:
    """Per-operator CPU costs (seconds/row) and I/O rates (seconds/byte)."""

    cpu_per_row: dict[Op, float] = field(default_factory=lambda: {
        Op.TABLE_SCAN: 0.80e-6,
        Op.INDEX_SCAN: 0.90e-6,
        Op.INDEX_SEEK: 1.10e-6,
        Op.FILTER: 0.25e-6,
        Op.NESTED_LOOP_JOIN: 0.45e-6,
        Op.HASH_JOIN: 0.95e-6,
        Op.MERGE_JOIN: 0.55e-6,
        Op.SORT: 1.10e-6,
        Op.BATCH_SORT: 0.90e-6,
        Op.STREAM_AGG: 0.45e-6,
        Op.HASH_AGG: 1.40e-6,
        Op.TOP: 0.05e-6,
    })
    #: sequential read/write (approx. 150 / 100 MB/s)
    seconds_per_byte_read: float = 1.0 / 150e6
    seconds_per_byte_written: float = 1.0 / 100e6
    #: random-I/O penalty multiplier for index-seek reads
    seek_read_penalty: float = 4.0
    #: fixed cost per probe key of an index seek (B-tree descent)
    seek_probe_seconds: float = 6.0e-6
    #: extra per-row cost factor charged by sorts, scaled by log2(n)
    sort_log_factor: float = 0.12
    #: multiplicative noise per charge: lognormal sigma (0 disables)
    noise_sigma: float = 0.06
    #: AR(1) background-load process: dt *= load, load drifts around 1.0
    load_sigma: float = 0.25
    load_rho: float = 0.995
    #: global time multiplier: stretches simulated durations into the
    #: minutes-to-hours range of real decision-support queries, so that
    #: LUO's 10-second speed window is a small fraction of a query
    time_scale: float = 2000.0

    def cpu_seconds(self, op: Op, rows: float) -> float:
        return self.cpu_per_row[op] * rows

    def sort_cpu_seconds(self, rows: float, total: float) -> float:
        """CPU for sorting ``rows`` rows of a ``total``-row sort."""
        if rows <= 0:
            return 0.0
        log_n = max(1.0, np.log2(max(total, 2.0)))
        return self.cpu_per_row[Op.SORT] * rows * self.sort_log_factor * log_n


#: standard normals a :class:`SimClock` draws from its generator at a time
NORMAL_BLOCK = 256


class SimClock:
    """Simulated time plus the stochastic load process.

    Every noise and load factor is a lognormal draw ``exp(0.0 + sigma *
    z)`` from a standard normal ``z`` — the formula of the generator's own
    ``lognormal(0.0, sigma)``.  The clock draws the normals in blocks of
    :data:`NORMAL_BLOCK` and applies the formula with ``math.exp``, which
    gives the same bits as one ``rng.lognormal`` call per factor: a
    block of standard normals is the same stream as that many single
    draws.  Only the generator's state after a partly used block differs,
    so the clock must be the generator's only consumer.
    """

    def __init__(self, cost_model: CostModel, rng: np.random.Generator):
        self.cost = cost_model
        self.rng = rng
        self.now = 0.0
        self._load = 1.0
        self._normals: list[float] = []
        self._next = 0

    def _normal(self) -> float:
        """The next standard normal of the generator's stream."""
        i = self._next
        if i == len(self._normals):
            self._normals = self.rng.standard_normal(NORMAL_BLOCK).tolist()
            i = 0
        self._next = i + 1
        return self._normals[i]

    def advance(self, seconds: float) -> float:
        """Advance time by ``seconds`` perturbed by noise/load; returns dt."""
        if seconds < 0:
            raise ValueError("cannot advance the clock backwards")
        if seconds == 0:
            return 0.0
        cost = self.cost
        dt = seconds * cost.time_scale
        if cost.noise_sigma > 0:
            dt *= math.exp(0.0 + cost.noise_sigma * self._normal())
        if cost.load_sigma > 0:
            rho = cost.load_rho
            target = math.exp(0.0 + cost.load_sigma * self._normal())
            self._load = rho * self._load + (1.0 - rho) * target
            dt *= self._load
        self.now += dt
        return dt
