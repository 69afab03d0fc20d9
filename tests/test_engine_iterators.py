"""Correctness tests for the batch Volcano operators.

Every operator's output is checked against a straightforward NumPy
reference over hand-built tables, executed through the real engine (so
counters, costs and spills are exercised too).
"""

import copy

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.catalog.schema import Column, DatabaseSchema, TableSchema
from repro.catalog.table import (
    Database, SortedIndex, SortedMatcher, Table, _expand_ranges)
from repro.engine import executor as executor_module
from repro.engine.executor import ExecutorConfig, QueryExecutor
from repro.engine.iterators import (
    BatchIterator, FilterProbe, IndexSeekProbe, emitted_columns)
from repro.plan.nodes import Op, PlanNode
from repro.query.logical import NULL_FLOAT, NULL_INT, Aggregate
from repro.query.predicates import FilterSpec


@pytest.fixture(scope="module")
def db(unit_db):
    return unit_db


def execute(db, plan, **config):
    defaults = dict(batch_size=128, collect_output=True,
                    target_observations=30, seed=1)
    defaults.update(config)
    plan.finalize()
    for node in plan.walk():
        if node.est_rows == 0.0:
            node.est_rows = 100.0
    run = QueryExecutor(db, ExecutorConfig(**defaults)).execute(plan)
    return run


def scan(table):
    return PlanNode(Op.INDEX_SCAN, table=table)


class TestScansAndFilters:
    def test_table_scan_returns_all_rows(self, db):
        run = execute(db, scan("fact"))
        assert run.output_rows == 1200
        assert (run.output.column("f_key") == np.arange(1200)).all()

    def test_filter_matches_reference(self, db):
        pred = FilterSpec("fact", "f_value", "<=", 50.0)
        plan = PlanNode(Op.FILTER, [scan("fact")], predicates=[pred])
        run = execute(db, plan)
        expected = (db.table("fact").column("f_value") <= 50.0).sum()
        assert run.output_rows == int(expected)

    def test_index_seek_source_range(self, db):
        plan = PlanNode(Op.INDEX_SEEK, table="fact", column="f_dim",
                        low=5, high=9)
        run = execute(db, plan)
        col = db.table("fact").column("f_dim")
        assert run.output_rows == int(((col >= 5) & (col <= 9)).sum())
        assert ((run.output.column("f_dim") >= 5)
                & (run.output.column("f_dim") <= 9)).all()

    def test_top_terminates_early(self, db):
        plan = PlanNode(Op.TOP, [scan("fact")], k=17)
        run = execute(db, plan)
        assert run.output_rows == 17
        scan_id = plan.children[0].node_id
        assert run.N[scan_id] < 1200  # early termination visible in N

    def test_top_close_propagates_through_filter(self, db):
        # TOP's early close() must walk the whole child chain: the filter
        # *and* the scan below it stop producing once k rows are out.
        pred = FilterSpec("fact", "f_value", "<=", 50.0)
        plan = PlanNode(Op.TOP,
                        [PlanNode(Op.FILTER, [scan("fact")],
                                  predicates=[pred])], k=5)
        run = execute(db, plan)
        assert run.output_rows == 5
        filter_id = plan.children[0].node_id
        scan_id = plan.children[0].children[0].node_id
        assert run.N[filter_id] >= 5
        assert run.N[scan_id] < 1200
        assert (run.output.column("f_value") <= 50.0).all()

    def test_close_is_sticky(self, db):
        # BatchIterator.close marks the subtree exhausted: no further
        # chunks, no further counter movement.
        from repro.engine.executor import ExecContext
        from repro.engine.iterators import build_iterator

        plan = scan("fact").finalize()
        executor = QueryExecutor(db, ExecutorConfig(
            batch_size=128, target_observations=30, seed=1))
        ctx = ExecContext(db, plan, executor.config, executor.cost_model)
        iterator = build_iterator(plan, ctx)
        iterator.open()
        first = iterator.next_chunk()
        assert len(first) == 128
        iterator.close()
        assert iterator.next_chunk() is None
        assert ctx.counters.K[plan.node_id] == 128.0


class TestSorts:
    def test_sort_orders_rows(self, db):
        plan = PlanNode(Op.SORT, [scan("fact")], keys=["f_value"])
        run = execute(db, plan)
        values = run.output.column("f_value")
        assert (np.diff(values) >= 0).all()
        assert run.output_rows == 1200

    def test_sort_spills_with_tiny_budget(self, db):
        plan = PlanNode(Op.SORT, [scan("fact")], keys=["f_value"])
        run = execute(db, plan, memory_budget_bytes=1024.0)
        assert run.spill_events >= 1
        # spilled rows surface as extra GetNext calls at the sort's input
        scan_id = plan.children[0].node_id
        assert run.N[scan_id] > 1200

    def test_batch_sort_preserves_multiset(self, db):
        plan = PlanNode(Op.BATCH_SORT, [scan("fact")], keys=["f_dim"],
                        initial_batch=100, growth=2.0, max_batch=400)
        run = execute(db, plan)
        assert run.output_rows == 1200
        assert sorted(run.output.column("f_key").tolist()) == list(range(1200))

    def test_batch_sort_sorts_within_batches(self, db):
        plan = PlanNode(Op.BATCH_SORT, [scan("fact")], keys=["f_dim"],
                        initial_batch=300, growth=1.0, max_batch=300)
        run = execute(db, plan, batch_size=300)
        first_batch = run.output.column("f_dim")[:300]
        assert (np.diff(first_batch) >= 0).all()


def reference_join(db):
    dim = db.table("dim")
    fact = db.table("fact")
    return int(np.isin(fact.column("f_dim"), dim.column("d_key")).sum())


class TestJoins:
    def test_hash_join_matches_reference(self, db):
        plan = PlanNode(Op.HASH_JOIN, [scan("fact"), scan("dim")],
                        probe_key="f_dim", build_key="d_key")
        run = execute(db, plan)
        assert run.output_rows == reference_join(db)
        joined = run.output
        assert (joined.column("f_dim") == joined.column("d_key")).all()

    def test_hash_join_spill_adds_getnexts(self, db):
        plan = PlanNode(Op.HASH_JOIN, [scan("dim"), scan("fact")],
                        probe_key="d_key", build_key="f_dim")
        run = execute(db, plan, memory_budget_bytes=512.0)
        assert run.spill_events >= 1

    def test_merge_join_matches_reference(self, db):
        # fact clustered on f_key; dim clustered on d_key -> join first 40
        plan = PlanNode(Op.MERGE_JOIN, [scan("fact"), scan("dim")],
                        outer_key="f_key", inner_key="d_key")
        run = execute(db, plan)
        assert run.output_rows == 40  # f_key 0..39 match d_key 0..39

    def test_merge_join_with_duplicates(self, db):
        # fact.f_dim is sorted? no - use dim as outer and seek-sorted side
        plan = PlanNode(Op.MERGE_JOIN, [scan("dim"),
                                        PlanNode(Op.SORT, [scan("fact")],
                                                 keys=["f_dim"])],
                        outer_key="d_key", inner_key="f_dim")
        run = execute(db, plan)
        assert run.output_rows == reference_join(db)

    def test_nlj_with_seek_matches_reference(self, db):
        seek = PlanNode(Op.INDEX_SEEK, table="fact", column="f_dim")
        plan = PlanNode(Op.NESTED_LOOP_JOIN, [scan("dim"), seek],
                        outer_key="d_key")
        run = execute(db, plan)
        assert run.output_rows == reference_join(db)

    def test_nlj_with_inner_filter(self, db):
        seek = PlanNode(Op.INDEX_SEEK, table="fact", column="f_dim")
        filt = PlanNode(Op.FILTER, [seek],
                        predicates=[FilterSpec("fact", "f_value", "<=", 25.0)])
        plan = PlanNode(Op.NESTED_LOOP_JOIN, [scan("dim"), filt],
                        outer_key="d_key")
        run = execute(db, plan)
        fact = db.table("fact")
        expected = int((fact.column("f_value") <= 25.0).sum())
        assert run.output_rows == expected


def _half_dim_filter():
    """Build side restricted to d_key < 20 so probe rows can miss."""
    return PlanNode(Op.FILTER, [scan("dim")],
                    predicates=[FilterSpec("dim", "d_key", "<", 20)])


class TestJoinKinds:
    """LEFT OUTER / SEMI / ANTI semantics on the hash- and merge-join
    paths, each against a direct NumPy reference over the base tables."""

    def _matched(self, db, cutoff=20):
        fact = db.table("fact")
        keys = db.table("dim").column("d_key")
        return np.isin(fact.column("f_dim"), keys[keys < cutoff])

    def test_hash_left_outer_pads_unmatched_probe_rows(self, db):
        plan = PlanNode(Op.HASH_JOIN, [scan("fact"), _half_dim_filter()],
                        probe_key="f_dim", build_key="d_key",
                        join_kind="left")
        run = execute(db, plan)
        matched = self._matched(db)
        assert run.output_rows == 1200  # every probe row survives
        out = run.output
        # probe order is preserved, so rows line up with the base table
        assert (out.column("f_key") == np.arange(1200)).all()
        assert (out.column("d_key")[matched]
                == out.column("f_dim")[matched]).all()
        assert (out.column("d_key")[~matched] == NULL_INT).all()

    def test_hash_semi_keeps_matched_probe_rows_once(self, db):
        plan = PlanNode(Op.HASH_JOIN, [scan("fact"), _half_dim_filter()],
                        probe_key="f_dim", build_key="d_key",
                        join_kind="semi")
        run = execute(db, plan)
        matched = self._matched(db)
        assert run.output_rows == int(matched.sum())
        assert "d_key" not in run.output.columns  # build side stays hidden
        assert (run.output.column("f_dim") < 20).all()

    def test_hash_anti_keeps_unmatched_probe_rows(self, db):
        plan = PlanNode(Op.HASH_JOIN, [scan("fact"), _half_dim_filter()],
                        probe_key="f_dim", build_key="d_key",
                        join_kind="anti")
        run = execute(db, plan)
        matched = self._matched(db)
        assert run.output_rows == int((~matched).sum())
        assert "d_key" not in run.output.columns
        assert (run.output.column("f_dim") >= 20).all()

    def test_semi_plus_anti_partition_the_probe_side(self, db):
        totals = []
        for kind in ("semi", "anti"):
            plan = PlanNode(Op.HASH_JOIN, [scan("fact"), _half_dim_filter()],
                            probe_key="f_dim", build_key="d_key",
                            join_kind=kind)
            totals.append(execute(db, plan).output_rows)
        assert sum(totals) == 1200

    def test_merge_left_outer_pads_unmatched(self, db):
        # f_key 0..39 match d_key 0..39; 40..1199 are padded
        plan = PlanNode(Op.MERGE_JOIN, [scan("fact"), scan("dim")],
                        outer_key="f_key", inner_key="d_key",
                        join_kind="left")
        run = execute(db, plan)
        assert run.output_rows == 1200
        out = run.output
        assert (out.column("d_key")[:40] == np.arange(40)).all()
        assert (out.column("d_key")[40:] == NULL_INT).all()

    @pytest.mark.parametrize("kind,expected",
                             [("inner", 0), ("left", 1200),
                              ("semi", 0), ("anti", 1200)])
    def test_hash_join_empty_build_side(self, db, kind, expected):
        empty = PlanNode(Op.FILTER, [scan("dim")],
                         predicates=[FilterSpec("dim", "d_key", "<", 0)])
        plan = PlanNode(Op.HASH_JOIN, [scan("fact"), empty],
                        probe_key="f_dim", build_key="d_key",
                        join_kind=kind)
        run = execute(db, plan)
        assert run.output_rows == expected
        if kind == "left":
            assert (run.output.column("d_key") == NULL_INT).all()

    @pytest.mark.parametrize("kind,expected", [("inner", 0), ("left", 1200)])
    def test_merge_join_empty_inner_side(self, db, kind, expected):
        empty = PlanNode(Op.FILTER, [scan("dim")],
                         predicates=[FilterSpec("dim", "d_key", "<", 0)])
        plan = PlanNode(Op.MERGE_JOIN, [scan("fact"), empty],
                        outer_key="f_key", inner_key="d_key",
                        join_kind=kind)
        run = execute(db, plan)
        assert run.output_rows == expected
        if kind == "left":
            assert (run.output.column("d_key") == NULL_INT).all()

    @pytest.fixture()
    def dup_db(self):
        """All-duplicate join keys on both sides: a 6x4 cross per key."""
        left = Table(
            TableSchema("lhs", (Column("l_key"), Column("l_id"))),
            {"l_key": np.full(6, 5), "l_id": np.arange(6)},
            clustered_on="l_key")
        right = Table(
            TableSchema("rhs", (Column("r_key"), Column("r_id"))),
            {"r_key": np.full(4, 5), "r_id": np.arange(4)},
            clustered_on="r_key")
        database = Database(schema=DatabaseSchema(name="dup"))
        database.add(left)
        database.add(right)
        return database

    @pytest.mark.parametrize("op", [Op.HASH_JOIN, Op.MERGE_JOIN])
    @pytest.mark.parametrize("kind,expected",
                             [("inner", 24), ("left", 24)])
    def test_all_duplicate_keys_both_sides(self, dup_db, op, kind, expected):
        if op is Op.HASH_JOIN:
            plan = PlanNode(op, [scan("lhs"), scan("rhs")],
                            probe_key="l_key", build_key="r_key",
                            join_kind=kind)
        else:
            plan = PlanNode(op, [scan("lhs"), scan("rhs")],
                            outer_key="l_key", inner_key="r_key",
                            join_kind=kind)
        run = execute(dup_db, plan)
        assert run.output_rows == expected
        # every lhs row pairs with every rhs row exactly once
        pairs = set(zip(run.output.column("l_id").tolist(),
                        run.output.column("r_id").tolist()))
        assert len(pairs) == expected

    @pytest.mark.parametrize("kind,expected", [("semi", 6), ("anti", 0)])
    def test_all_duplicate_keys_semi_anti(self, dup_db, kind, expected):
        plan = PlanNode(Op.HASH_JOIN, [scan("lhs"), scan("rhs")],
                        probe_key="l_key", build_key="r_key",
                        join_kind=kind)
        run = execute(dup_db, plan)
        assert run.output_rows == expected  # no duplication from the 4 matches

    @pytest.mark.parametrize("kind", ["inner", "left"])
    def test_merge_join_close_mid_stream(self, db, kind):
        from repro.engine.executor import ExecContext
        from repro.engine.iterators import build_iterator

        plan = PlanNode(Op.MERGE_JOIN, [scan("fact"), scan("dim")],
                        outer_key="f_key", inner_key="d_key",
                        join_kind=kind).finalize()
        for node in plan.walk():
            if node.est_rows == 0.0:
                node.est_rows = 100.0
        executor = QueryExecutor(db, ExecutorConfig(
            batch_size=16, target_observations=30, seed=1))
        ctx = ExecContext(db, plan, executor.config, executor.cost_model)
        iterator = build_iterator(plan, ctx)
        iterator.open()
        first = iterator.next_chunk()
        assert first is not None and len(first) > 0
        iterator.close()
        assert iterator.next_chunk() is None  # close is sticky mid-stream

    def test_merge_join_rejects_unsupported_kind(self, db):
        plan = PlanNode(Op.MERGE_JOIN, [scan("fact"), scan("dim")],
                        outer_key="f_key", inner_key="d_key",
                        join_kind="semi")
        with pytest.raises(ValueError, match="semi"):
            execute(db, plan)


class TestAggregates:
    def test_hash_agg_matches_reference(self, db):
        plan = PlanNode(Op.HASH_AGG, [scan("fact")], group_cols=["f_dim"],
                        aggs=[Aggregate("sum", "f_value"), Aggregate("count")])
        run = execute(db, plan)
        fact = db.table("fact")
        groups = np.unique(fact.column("f_dim"))
        assert run.output_rows == len(groups)
        out = run.output
        order = np.argsort(out.column("f_dim"))
        for i, g in enumerate(groups):
            mask = fact.column("f_dim") == g
            row = order[i]
            assert out.column("sum_f_value")[row] == pytest.approx(
                fact.column("f_value")[mask].sum())
            assert out.column("count_star")[row] == mask.sum()

    def test_stream_agg_grouped_matches_hash_agg(self, db):
        stream = PlanNode(Op.STREAM_AGG,
                          [PlanNode(Op.SORT, [scan("fact")], keys=["f_dim"])],
                          group_cols=["f_dim"],
                          aggs=[Aggregate("sum", "f_value")])
        hashed = PlanNode(Op.HASH_AGG, [scan("fact")], group_cols=["f_dim"],
                          aggs=[Aggregate("sum", "f_value")])
        run_s = execute(db, stream)
        run_h = execute(db, hashed)
        assert run_s.output_rows == run_h.output_rows
        s = run_s.output
        h = run_h.output
        so, ho = np.argsort(s.column("f_dim")), np.argsort(h.column("f_dim"))
        assert np.allclose(s.column("sum_f_value")[so],
                           h.column("sum_f_value")[ho])

    def test_scalar_stream_agg(self, db):
        plan = PlanNode(Op.STREAM_AGG, [scan("fact")], group_cols=[],
                        aggs=[Aggregate("sum", "f_value"),
                              Aggregate("count"),
                              Aggregate("min", "f_value"),
                              Aggregate("max", "f_value"),
                              Aggregate("avg", "f_value")])
        run = execute(db, plan)
        assert run.output_rows == 1
        values = db.table("fact").column("f_value")
        out = run.output
        assert out.column("sum_f_value")[0] == pytest.approx(values.sum())
        assert out.column("count_star")[0] == len(values)
        assert out.column("min_f_value")[0] == pytest.approx(values.min())
        assert out.column("max_f_value")[0] == pytest.approx(values.max())
        assert out.column("avg_f_value")[0] == pytest.approx(values.mean())

    def test_scalar_agg_on_empty_input_counts_zero(self, db):
        filt = PlanNode(Op.FILTER, [scan("fact")],
                        predicates=[FilterSpec("fact", "f_value", ">", 1e9)])
        plan = PlanNode(Op.STREAM_AGG, [filt], group_cols=[],
                        aggs=[Aggregate("count")])
        run = execute(db, plan)
        assert run.output_rows == 1
        assert run.output.column("count_star")[0] == 0.0


# ---------------------------------------------------------------------------
# the sorted matcher: one search for unique keys, two otherwise
# ---------------------------------------------------------------------------

#: small pools so draws repeat keys and probes hit them; the float pool has
#: both zeros, NaN and the NULL sentinel
_INT_KEYS = st.sampled_from([-3, -1, 0, 1, 2, 5, 7, NULL_INT])
_FLOAT_KEYS = st.sampled_from(
    [-2.5, -0.0, 0.0, 1.0, 1.5, 7.0, np.nan, NULL_FLOAT])


def _two_searches(matcher, probe):
    """The matcher's definition: left and right insertion points."""
    lo = np.searchsorted(matcher.sorted_keys, probe, side="left")
    counts = np.searchsorted(matcher.sorted_keys, probe, side="right") - lo
    pos = _expand_ranges(lo, counts)
    if matcher.order is not None:
        pos = matcher.order[pos]
    return pos, np.repeat(np.arange(len(probe)), counts), counts


def _strictly_increasing(sorted_keys) -> bool:
    """Each key NaN-free and below the next (a NaN equals nothing)."""
    values = sorted_keys.tolist()
    return (len(values) > 0 and all(v == v for v in values)
            and all(a < b for a, b in zip(values, values[1:])))


class _CountingMatcher(SortedMatcher):
    """Counts the searches that take the one-search path."""

    fast = 0

    def _unique_hits(self, probe):
        self.fast += 1
        return super()._unique_hits(probe)


@st.composite
def _match_case(draw):
    keys_of = draw(st.sampled_from([(_INT_KEYS, np.int64),
                                    (_FLOAT_KEYS, np.float64)]))
    pool, dtype = keys_of
    build = draw(st.lists(pool, max_size=12,
                          unique_by=(lambda v: v) if draw(st.booleans())
                          else None))
    probe = draw(st.lists(pool, max_size=12))
    return (np.array(build, dtype=dtype), np.array(probe, dtype=dtype),
            draw(st.booleans()))


_I64 = np.iinfo(np.int64)


@st.composite
def _dense_case(draw):
    """Unique int64 keys forming one range ``arange(first, first + n)``
    (shuffled, or presorted as merge joins build them), or the same with
    one interior key dropped (a gap: no longer dense), from anywhere in
    the int64 range.  Probes are int64 or float64, drawn from the keys,
    just outside the range on both sides, ``NULL_INT`` and the int64
    extremes, over the whole int64 range: the definition compares int64
    keys and float64 probes as float64, where keys beyond 2**53 merge."""
    n = draw(st.integers(1, 12))
    gap = n >= 2 and draw(st.booleans())
    span = n + gap
    first = draw(st.sampled_from(
        [-9, 0, 2**40, int(_I64.min), int(_I64.min) + 3,
         int(_I64.max) - span + 1, NULL_INT - 2]))
    keys = first + np.arange(span, dtype=np.int64)
    if gap:
        keys = np.delete(keys, draw(st.integers(1, span - 2)))
    last = first + span - 1
    near = [first - 1, first - 7, last + 1, last + 7, first, last,
            NULL_INT, int(_I64.min), int(_I64.max), 0]
    dtype = draw(st.sampled_from([np.int64, np.float64]))
    pool = [int(k) for k in keys] + [
        v for v in near if _I64.min <= v <= _I64.max]
    probe = np.array(draw(st.lists(st.sampled_from(pool), max_size=12)),
                     dtype=dtype)
    presorted = draw(st.booleans())
    if not presorted:
        keys = keys[draw(st.permutations(range(len(keys))))]
    return keys, probe, presorted


def _is_dense(sorted_keys) -> bool:
    """Int64 keys, each one above the one before (Python ints: exact)."""
    values = sorted_keys.tolist()
    return (sorted_keys.dtype == np.int64 and len(values) > 0
            and values == list(range(values[0], values[0] + len(values))))


@given(st.one_of(_match_case(), _dense_case()))
@example((np.array([3, 1, 2]), np.array([0.0, 1.0, 3.0, 4.0]), False))
@example((np.array([_I64.max - 1, _I64.max]),
          np.array([_I64.min, _I64.max, NULL_INT, -1]), True))
@example((np.array([_I64.min, _I64.min + 1]), np.array([-2.0**63]), True))
@settings(max_examples=400, deadline=None)
def test_one_search_matches_two_search_definition(case):
    """Positions, probe indices and counts equal the two-search definition,
    dtypes included, for both matcher forms (``presorted`` as merge joins
    build it, unsorted as hash joins and index seeks do); the one-search
    path runs exactly when the sorted keys are strictly increasing and
    the probe compares with them in their own dtype, and matches by
    offset exactly when they are also one int64 range."""
    build, probe, presorted = case
    if presorted:
        build = np.sort(build)
    matcher = _CountingMatcher(build, presorted=presorted)
    unique = _strictly_increasing(matcher.sorted_keys)
    expected = _two_searches(matcher, probe)
    got = matcher.match_with_counts(probe)
    for name, e, g in zip(("pos", "probe_idx", "counts"), expected, got):
        assert g.dtype == e.dtype, name
        assert np.array_equal(g, e), name
    counts = matcher.counts(probe)
    assert counts.dtype == expected[2].dtype
    assert np.array_equal(counts, expected[2])
    assert matcher.unique == unique
    own_dtype = np.result_type(build.dtype, probe.dtype) == build.dtype
    assert matcher.fast == (2 if unique and own_dtype else 0)
    dense = _is_dense(matcher.sorted_keys)
    assert (matcher._dense_first is not None) == dense
    if dense:
        assert matcher._dense_first == matcher.sorted_keys[0]


def test_index_seeks_share_the_matcher():
    """An index answers seeks through its matcher: a unique key column
    takes the one-search path, a duplicated one the two-search path."""
    unique = SortedIndex("k", np.array([4, 1, 3, 0]))
    positions, counts = unique.lookup_many(np.array([3, 2, 0, 9]))
    assert unique.unique
    assert positions.tolist() == [2, 3] and counts.tolist() == [1, 0, 1, 0]
    duplicated = SortedIndex("k", np.array([4, 1, 4, 0]))
    assert not duplicated.unique
    assert duplicated.match_counts(np.array([4, 1])).tolist() == [2, 1]


@st.composite
def _identity_case(draw):
    """A :func:`_match_case` whose probe side often draws only build keys,
    so every probe row may have exactly one partner (or, with duplicated
    build keys, not)."""
    build, probe, presorted = draw(_match_case())
    if len(build) and draw(st.booleans()):
        picks = draw(st.lists(st.integers(0, len(build) - 1), max_size=12))
        probe = build[np.array(picks, dtype=np.intp)]
    return build, probe, presorted


@st.composite
def _dense_identity_case(draw):
    """A :func:`_dense_case` whose probe side often draws only keys (as
    float64 too, where keys beyond 2**53 round onto their neighbours)."""
    build, probe, presorted = draw(_dense_case())
    if draw(st.booleans()):
        picks = draw(st.lists(st.integers(0, len(build) - 1), max_size=12))
        probe = build[np.array(picks, dtype=np.intp)].astype(probe.dtype)
    return build, probe, presorted


@given(st.one_of(_identity_case(), _dense_identity_case()))
@example((np.array([3, 1, 2]), np.array([1, 2, 3]), False))  # one search
@example((np.array([1, 1, 2]), np.array([2, 2]), True))  # two searches
@example((np.array([1, 1, 2]), np.array([1, 2]), True))  # a count of 2
@example((np.array([1, 1, 2]), np.array([1, 3]), False))  # n matches, not 1:1
@example((np.array([1.0, np.nan]), np.array([np.nan]), True))  # NaN misses
@example((np.array([5]), np.array([], dtype=np.int64), False))  # no probes
@example((np.array([], dtype=np.int64), np.array([5]), False))  # no keys
@example((np.arange(4), np.array([3, 0, 2]), False))  # by offset, all hit
@example((np.arange(4), np.array([3, 4]), True))  # by offset, one miss
@example((np.arange(4), np.array([3.0, 0.0]), True))  # float: searched
@settings(max_examples=400, deadline=None)
def test_identity_signal_is_exact(case):
    """``identity`` is set exactly when ``probe_idx`` is
    ``arange(len(probe))``, on both search paths, and the matches it comes
    with are still the two-search definition's."""
    build, probe, presorted = case
    if presorted:
        build = np.sort(build)
    matcher = SortedMatcher(build, presorted=presorted)
    pos, probe_idx, counts, identity = matcher.match_with_counts(probe)
    assert type(identity) is bool
    assert identity == np.array_equal(probe_idx, np.arange(len(probe)))
    for name, e, g in zip(("pos", "probe_idx", "counts"),
                          _two_searches(matcher, probe),
                          (pos, probe_idx, counts)):
        assert g.dtype == e.dtype, name
        assert np.array_equal(g, e), name


# ---------------------------------------------------------------------------
# column pruning: sources emit only what some operator above them reads
# ---------------------------------------------------------------------------

_SOURCES = (Op.TABLE_SCAN, Op.INDEX_SCAN, Op.INDEX_SEEK)


def _every_column(plan, db):
    """The unpruned layout: every source emits its whole table."""
    return {node.node_id: tuple(db.table(node.params["table"]).data)
            for node in plan.walk() if node.op in _SOURCES}


@pytest.fixture()
def layouts(monkeypatch):
    """Node id -> the set of column layouts its output chunks carried."""
    seen: dict[int, set[tuple[str, ...]]] = {}

    def record(node, chunk):
        seen.setdefault(node.node_id, set()).add(tuple(sorted(chunk.columns)))

    next_chunk = BatchIterator.next_chunk

    def recording_next_chunk(self):
        chunk = next_chunk(self)
        if chunk is not None:
            record(self.node, chunk)
        return chunk

    monkeypatch.setattr(BatchIterator, "next_chunk", recording_next_chunk)
    for cls in (IndexSeekProbe, FilterProbe):
        def recording_probe(self, keys, _probe=cls.probe):
            out = _probe(self, keys)
            record(self.node, out[0])
            return out

        monkeypatch.setattr(cls, "probe", recording_probe)
    return seen


def _same_recording(db, plan, monkeypatch, seen):
    """Execute ``plan`` unpruned, then pruned; every logged array, ``N``
    and the output must be the same bits.  Returns the pruned run, whose
    layouts alone are left in ``seen``.  The unpruned run executes a copy
    of the plan: a plan keeps the layout its first execution built."""
    with monkeypatch.context() as patch:
        patch.setattr(executor_module, "emitted_columns", _every_column)
        reference = execute(db, copy.deepcopy(plan))
    seen.clear()
    run = execute(db, plan)
    for name in ("times", "K", "R", "W", "LB", "UB", "D", "N"):
        got, want = getattr(run, name), getattr(reference, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), \
            name
    assert run.total_time == reference.total_time
    assert run.output_rows == reference.output_rows
    for name in run.output.columns:
        assert np.array_equal(run.output.column(name),
                              reference.output.column(name)), name
    return run


def _assert_layouts(seen, expected):
    """Each node in ``expected`` emitted exactly that column set."""
    for node, columns in expected.items():
        assert seen[node.node_id] == {tuple(sorted(columns))}, node.op


class TestColumnPruning:
    def test_aggregate_plans_carry_only_columns_read_above(
            self, db, layouts, monkeypatch):
        # hash aggregate over an inner hash join over a filtered scan
        fact = scan("fact")
        filt = PlanNode(Op.FILTER, [fact], predicates=[
            FilterSpec("fact", "f_value", "<", 50.0)])
        dim = scan("dim")
        join = PlanNode(Op.HASH_JOIN, [filt, dim],
                        probe_key="f_dim", build_key="d_key")
        agg = PlanNode(Op.HASH_AGG, [join], group_cols=["d_group"],
                       aggs=[Aggregate("sum", "f_value"), Aggregate("count")])
        _same_recording(db, agg, monkeypatch, layouts)
        _assert_layouts(layouts, {
            fact: {"f_dim", "f_value"}, filt: {"f_dim", "f_value"},
            dim: {"d_key", "d_group"},
            join: {"f_dim", "f_value", "d_key", "d_group"},
            agg: {"d_group", "sum_f_value", "count_star"}})
        # scalar aggregate over an index nested-loop join: the seek matches
        # through its index, so its key column is not emitted
        dims = scan("dim")
        low = PlanNode(Op.FILTER, [dims], predicates=[
            FilterSpec("dim", "d_key", "<", 20)])
        outer = PlanNode(Op.BATCH_SORT, [low], keys=["d_key"],
                         initial_batch=4, growth=2.0)
        seek = PlanNode(Op.INDEX_SEEK, table="fact", column="f_dim")
        inner = PlanNode(Op.FILTER, [seek], predicates=[
            FilterSpec("fact", "f_key", "<", 600)])
        nlj = PlanNode(Op.NESTED_LOOP_JOIN, [outer, inner], outer_key="d_key")
        scalar = PlanNode(Op.STREAM_AGG, [nlj], group_cols=[],
                          aggs=[Aggregate("sum", "f_value")])
        _same_recording(db, scalar, monkeypatch, layouts)
        _assert_layouts(layouts, {
            dims: {"d_key"}, low: {"d_key"}, outer: {"d_key"},
            seek: {"f_key", "f_value"}, inner: {"f_key", "f_value"},
            nlj: {"d_key", "f_key", "f_value"}, scalar: {"sum_f_value"}})
        # a semi join emits probe rows only: its build side needs its key
        probe, build = scan("fact"), scan("dim")
        semi = PlanNode(Op.HASH_JOIN, [probe, build], probe_key="f_dim",
                        build_key="d_key", join_kind="semi")
        grouped = PlanNode(Op.HASH_AGG, [semi], group_cols=["f_dim"],
                           aggs=[Aggregate("count")])
        _same_recording(db, grouped, monkeypatch, layouts)
        _assert_layouts(layouts, {probe: {"f_dim"}, build: {"d_key"},
                                  semi: {"f_dim"}})
        # a sort below an aggregate keeps its keys, read by nothing else
        fact = scan("fact")
        sort = PlanNode(Op.SORT, [fact], keys=["f_dim", "f_key"])
        stream = PlanNode(Op.STREAM_AGG, [sort], group_cols=["f_dim"],
                          aggs=[Aggregate("max", "f_value")])
        _same_recording(db, stream, monkeypatch, layouts)
        _assert_layouts(layouts, {fact: {"f_dim", "f_key", "f_value"},
                                  sort: {"f_dim", "f_key", "f_value"},
                                  stream: {"f_dim", "max_f_value"}})

    def test_select_star_root_keeps_every_column(self, db, layouts,
                                                 monkeypatch):
        fact, dim = scan("fact"), scan("dim")
        join = PlanNode(Op.HASH_JOIN, [fact, dim],
                        probe_key="f_dim", build_key="d_key")
        root = PlanNode(Op.TOP, [PlanNode(
            Op.SORT, [PlanNode(Op.FILTER, [join], predicates=[
                FilterSpec("dim", "d_group", "<=", 2)])],
            keys=["f_value"])], k=500)
        run = _same_recording(db, root, monkeypatch, layouts)
        every = {"f_key", "f_dim", "f_value", "d_key", "d_group"}
        assert set(run.output.columns) == every
        assert run.output_rows == 500
        _assert_layouts(layouts, {fact: {"f_key", "f_dim", "f_value"},
                                  dim: {"d_key", "d_group"}, root: every})
        # a semi join's hidden build side needs only its key, even here
        fact, dim = scan("fact"), scan("dim")
        semi = PlanNode(Op.HASH_JOIN, [fact, dim], probe_key="f_dim",
                        build_key="d_key", join_kind="semi")
        run = _same_recording(db, semi, monkeypatch, layouts)
        assert set(run.output.columns) == {"f_key", "f_dim", "f_value"}
        _assert_layouts(layouts, {fact: {"f_key", "f_dim", "f_value"},
                                  dim: {"d_key"}})

    def test_count_star_over_an_unread_table(self, db, layouts, monkeypatch):
        fact = scan("fact")
        plan = PlanNode(Op.STREAM_AGG, [fact], group_cols=[],
                        aggs=[Aggregate("count")])
        run = _same_recording(db, plan, monkeypatch, layouts)
        assert emitted_columns(plan, db) == {fact.node_id: ()}
        assert layouts[fact.node_id] == {()}  # rows but no column
        assert run.output.column("count_star").tolist() == [1200.0]
        assert run.N[fact.node_id] == 1200.0

    @pytest.mark.parametrize("op", [Op.HASH_JOIN, Op.MERGE_JOIN])
    def test_left_outer_empty_inner_pads_the_pruned_layout(
            self, db, layouts, monkeypatch, op):
        fact, dim = scan("fact"), scan("dim")
        empty = PlanNode(Op.FILTER, [dim], predicates=[
            FilterSpec("dim", "d_key", "<", 0)])
        if op is Op.HASH_JOIN:
            join = PlanNode(op, [fact, empty], probe_key="f_dim",
                            build_key="d_key", join_kind="left")
        else:
            join = PlanNode(op, [fact, empty], outer_key="f_key",
                            inner_key="d_key", join_kind="left")
        plan = PlanNode(Op.HASH_AGG, [join], group_cols=["d_key"],
                        aggs=[Aggregate("count")])
        run = _same_recording(db, plan, monkeypatch, layouts)
        probe_key = "f_dim" if op is Op.HASH_JOIN else "f_key"
        # every batch: the probe key plus the inner side's pruned layout,
        # without the unread d_group
        _assert_layouts(layouts, {fact: {probe_key},
                                  join: {probe_key, "d_key"}})
        assert run.output.column("d_key").tolist() == [NULL_INT]
        assert run.output.column("count_star").tolist() == [1200.0]

    def test_top_and_order_by_over_an_aggregate(self, db, layouts,
                                                monkeypatch):
        fact = scan("fact")
        agg = PlanNode(Op.HASH_AGG, [fact], group_cols=["f_dim"],
                       aggs=[Aggregate("sum", "f_value")])
        plan = PlanNode(Op.TOP, [PlanNode(Op.SORT, [agg],
                                          keys=["sum_f_value"])], k=3)
        run = _same_recording(db, plan, monkeypatch, layouts)
        _assert_layouts(layouts, {fact: {"f_dim", "f_value"}})
        table = db.table("fact")
        keys, values = table.column("f_dim"), table.column("f_value")
        groups = np.unique(keys)
        sums = np.array([values[keys == g].sum() for g in groups])
        lowest = np.argsort(sums, kind="stable")[:3]
        assert run.output.column("f_dim").tolist() == groups[lowest].tolist()
        assert np.allclose(run.output.column("sum_f_value"), sums[lowest])
