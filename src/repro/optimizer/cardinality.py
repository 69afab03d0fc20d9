"""Cardinality estimation with textbook assumptions.

Selectivities come from equi-depth histograms (uniformity within buckets),
conjunctions multiply (independence), equi-joins use the containment
assumption ``|R ⋈ S| = |R||S| / max(ndv(R.a), ndv(S.b))``, and group counts
use the Cardenas formula.  All four assumptions are *wrong on skewed or
correlated data in exactly the way that matters to the paper*: the
resulting ``E_i`` errors are what the TGN estimator inherits and what the
estimator-selection model learns to anticipate.
"""

from __future__ import annotations

import numpy as np

from repro.catalog.statistics import DatabaseStatistics
from repro.query.predicates import FilterSpec


class CardinalityEstimator:
    """Estimates selectivities, join sizes and group counts from statistics."""

    def __init__(self, stats: DatabaseStatistics):
        self.stats = stats

    # -- filters -----------------------------------------------------------

    def filter_selectivity(self, spec: FilterSpec) -> float:
        """Estimated fraction of rows of ``spec.table`` passing ``spec``."""
        col = self.stats.table(spec.table).column(spec.column)
        hist = col.histogram
        if spec.op == "==":
            return hist.selectivity_eq(spec.value)
        if spec.op == "!=":
            return max(0.0, 1.0 - hist.selectivity_eq(spec.value))
        if spec.op == "in":
            sel = sum(hist.selectivity_eq(v) for v in spec.value)
            return min(1.0, sel)
        low, high = spec.seek_range(col.min_value, col.max_value)
        return hist.selectivity_range(low, high)

    def conjunction_selectivity(self, specs: list[FilterSpec]) -> float:
        """Independence assumption: selectivities multiply."""
        sel = 1.0
        for spec in specs:
            sel *= self.filter_selectivity(spec)
        return sel

    # -- joins ---------------------------------------------------------------

    def ndv(self, table: str, column: str) -> int:
        return max(1, self.stats.table(table).column(column).n_distinct)

    def join_cardinality(self, left_card: float, right_card: float,
                         left_ndv: int, right_ndv: int) -> float:
        """Containment assumption for equi-joins."""
        return left_card * right_card / max(left_ndv, right_ndv, 1)

    def semi_join_cardinality(self, left_card: float, right_card: float,
                              left_ndv: int, right_ndv: int) -> float:
        """Left rows with ≥1 partner, under containment.

        The fraction of left keys that find a partner is the fraction of
        the left key domain present on the right: ``min(right_card,
        right_ndv) / left_ndv``, capped at 1.  Never exceeds the left
        input — semi joins emit each left row at most once.
        """
        match_fraction = min(
            1.0, min(right_card, float(right_ndv)) / max(left_ndv, 1))
        return left_card * match_fraction

    def anti_join_cardinality(self, left_card: float, right_card: float,
                              left_ndv: int, right_ndv: int) -> float:
        """Left rows with no partner: the semi join's complement."""
        semi = self.semi_join_cardinality(left_card, right_card,
                                          left_ndv, right_ndv)
        return max(left_card - semi, 0.0)

    def outer_join_cardinality(self, left_card: float, right_card: float,
                               left_ndv: int, right_ndv: int) -> float:
        """LEFT OUTER join: inner matches plus one padded row per
        unmatched left row; never below the preserved side."""
        inner = self.join_cardinality(left_card, right_card,
                                      left_ndv, right_ndv)
        anti = self.anti_join_cardinality(left_card, right_card,
                                          left_ndv, right_ndv)
        return max(inner + anti, left_card)

    def seek_fanout(self, table: str, column: str) -> float:
        """Expected matches per probe key for an index seek on ``column``."""
        return self.stats.table(table).n_rows / self.ndv(table, column)

    # -- grouping -------------------------------------------------------------

    def group_count(self, input_card: float, group_ndvs: list[int]) -> float:
        """Cardenas' formula: expected distinct groups among ``input_card`` rows."""
        if not group_ndvs:
            return 1.0
        domain = float(np.prod([max(d, 1) for d in group_ndvs]))
        if input_card <= 0:
            return 0.0
        if domain > 1e12:
            return min(input_card, domain)
        # D(n, d) = d * (1 - (1 - 1/d)^n)
        n, d = input_card, domain
        return min(n, d * (1.0 - (1.0 - 1.0 / d) ** n))
