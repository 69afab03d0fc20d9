"""Columnar table storage with clustered order and secondary indexes.

A :class:`Table` stores each column as one NumPy array.  Physical design is
expressed through:

* ``clustered_on`` — the column the rows are physically sorted by (the
  clustered-index key); scans in that order feed merge joins and stream
  aggregates without an explicit sort, and
* :class:`SortedIndex` secondary indexes — position lists sorted by key that
  serve equality/range seeks, including the inner side of index
  nested-loop joins.

:class:`SortedMatcher` is the one equality matcher over a sorted key column:
index seeks, hash joins and merge joins all match through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.catalog.schema import DatabaseSchema, TableSchema


class SortedMatcher:
    """Equality matching of probe keys against one key column, sorted once.

    Hash joins (build side), merge joins (buffered inner side) and index
    seeks all answer the same question for a batch of probe keys: which
    rows of the key column equal each probe.  The definition is two binary
    searches over the sorted keys: ``lo``/``hi`` are a probe's left and
    right insertion points, ``hi - lo`` its partner count and
    ``arange(lo, hi)`` its partners' sorted positions.

    When the sorted keys are *unique* — each strictly greater than the one
    before, and none NaN — and a probe compares with them in the keys' own
    dtype, ``hi - lo`` is 0 or 1, and the left search alone decides it:
    every key before ``lo`` is below the probe, so the probe's one
    possible partner sits at ``lo``, and it matches exactly when
    ``sorted[min(lo, n - 1)] == probe`` (``==`` agrees with the searches'
    ordering: ``-0.0`` equals ``0.0``; a NaN probe sorts past every non-NaN
    key and equals none).  The flag is computed once per matcher, lazily on
    its first match, and any duplicate or NaN key keeps the two-search
    path.  So does a probe whose dtype the keys would be cast to for the
    comparison (float64 probes over int64 keys): the cast can merge
    distinct keys (beyond 2**53 in magnitude float64 skips integers), and
    a merged key then has two partners.  Both paths
    return the same positions, probe indices and counts, dtypes
    included.

    Unique int64 keys that form one contiguous range (``last - first ==
    n - 1``, as generated surrogate keys do) need no search at all: an
    int64 probe's partner sits at ``probe - first``, and it has one
    exactly when that offset lies in ``[0, n)``.  Probes of any other
    dtype keep the search.

    ``presorted=True`` takes ``keys`` as already in ascending order
    (positions then index ``keys`` itself); otherwise they are sorted here
    and positions index the original order.
    """

    def __init__(self, keys: np.ndarray, presorted: bool = False):
        if presorted:
            self.order = None
            self.sorted_keys = keys
        else:
            self.order = np.argsort(keys, kind="stable")
            self.sorted_keys = keys[self.order]

    @cached_property
    def unique(self) -> bool:
        """True when the sorted keys are strictly increasing and not NaN."""
        sk = self.sorted_keys
        return (len(sk) > 0 and bool(sk[-1] == sk[-1])
                and bool(np.all(sk[1:] > sk[:-1])))

    @cached_property
    def _dense_first(self) -> np.int64 | None:
        """The first key when the sorted keys are exactly
        ``arange(first, first + n)`` as int64, else ``None``."""
        sk = self.sorted_keys
        if (sk.dtype == np.int64 and self.unique
                and int(sk[-1]) - int(sk[0]) == len(sk) - 1):
            return sk[0]
        return None

    def _one_search(self, probe: np.ndarray) -> bool:
        """True when one search decides ``probe``: the keys are unique and
        compare with the probe in their own dtype."""
        return self.unique and np.result_type(
            self.sorted_keys.dtype, probe.dtype) == self.sorted_keys.dtype

    def _unique_hits(self, probe: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Which probes equal a key (``hit``), and where (``lo``).

        ``lo`` is the sorted position of each hit probe's partner; where
        ``hit`` is False it is unspecified.  Callers read ``lo`` only at
        hits.  Over dense int64 keys an int64 probe's position is its
        offset from the first key: the subtraction wraps modulo 2**64, so
        ``offset < n`` as unsigned is exact over the whole int64 range.
        Other probes take the left search, whose insertion point is the
        partner's position where there is one.
        """
        sk = self.sorted_keys
        first = self._dense_first
        if first is not None and probe.dtype == np.int64:
            lo = probe - first
            return lo, lo.view(np.uint64) < np.uint64(len(sk))
        lo = sk.searchsorted(probe, side="left")
        return lo, sk[np.minimum(lo, len(sk) - 1)] == probe

    def match_with_counts(
            self, probe: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
        """Every match of each probe row: ``(pos, probe_idx, counts, identity)``.

        ``pos`` are the partners' positions (into the original key order),
        ``probe_idx`` the probe row of each match in probe order, and
        ``counts`` each probe row's partner count.  ``identity`` says that
        every probe row has exactly one partner — ``probe_idx`` is then
        ``arange(len(probe))``, and a join can reuse the probe rows as they
        are instead of gathering them.  It is decided exactly, from the
        hits or counts (``hit.all()``; all ``counts == 1``), never from the
        number of matches alone.
        """
        if self._one_search(probe):
            lo, hit = self._unique_hits(probe)
            identity = bool(hit.all())
            if identity:  # every probe hit: the partners are at ``lo``
                probe_idx = np.arange(len(probe), dtype=np.intp)
                pos = lo
            else:
                probe_idx = np.flatnonzero(hit)
                pos = lo[probe_idx]
            counts = hit.astype(np.intp)
        else:
            lo = np.searchsorted(self.sorted_keys, probe, side="left")
            counts = np.searchsorted(self.sorted_keys, probe,
                                     side="right") - lo
            identity = bool(np.all(counts == 1))
            pos = _expand_ranges(lo, counts)
            probe_idx = np.repeat(np.arange(len(probe)), counts)
        if self.order is not None:
            pos = self.order[pos]
        return pos, probe_idx, counts, identity

    def counts(self, probe: np.ndarray) -> np.ndarray:
        """Partner count per probe row (all a semi/anti join needs)."""
        if self._one_search(probe):
            return self._unique_hits(probe)[1].astype(np.intp)
        return (np.searchsorted(self.sorted_keys, probe, side="right")
                - np.searchsorted(self.sorted_keys, probe, side="left"))


class SortedIndex(SortedMatcher):
    """A secondary index: row positions ordered by key value.

    Lookups are vectorized over a batch of probe keys, which is what the
    executor's index-nested-loop join needs (one ``seek`` per outer batch);
    they are :class:`SortedMatcher`'s, unique-key path included.
    """

    def __init__(self, key: str, values: np.ndarray):
        super().__init__(values)
        self.key = key
        self.n_rows = len(values)

    def lookup_many(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Find all rows matching each probe key.

        Returns ``(positions, counts)`` where ``counts[j]`` is the number of
        matches for ``keys[j]`` and ``positions`` concatenates the matching
        row positions in probe order.
        """
        positions, _, counts, _ = self.match_with_counts(keys)
        return positions, counts

    def lookup_range(self, low, high) -> np.ndarray:
        """Row positions with ``low <= key <= high`` (inclusive both ends)."""
        lo = int(np.searchsorted(self.sorted_keys, low, side="left"))
        hi = int(np.searchsorted(self.sorted_keys, high, side="right"))
        return self.order[lo:hi]

    def match_counts(self, keys: np.ndarray) -> np.ndarray:
        """Per-key match counts without materializing positions."""
        return self.counts(keys)


def _expand_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(s, s + c)`` for each (s, c) pair, vectorized."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    base = np.repeat(starts, counts)
    cum = np.cumsum(counts) - counts
    offsets = np.arange(total, dtype=np.int64) - np.repeat(cum, counts)
    return base + offsets


class Table:
    """A columnar table instance.

    Parameters
    ----------
    schema:
        The :class:`~repro.catalog.schema.TableSchema` describing columns.
    data:
        Mapping of column name to NumPy array; all arrays must share length.
    clustered_on:
        Column the rows are physically ordered by, or ``None`` for heap
        order.  The constructor does not re-sort; use :meth:`cluster_on`.
    """

    def __init__(self, schema: TableSchema, data: dict[str, np.ndarray],
                 clustered_on: str | None = None):
        lengths = {name: len(arr) for name, arr in data.items()}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"ragged columns in table {schema.name!r}: {lengths}")
        missing = set(schema.column_names) - set(data)
        if missing:
            raise ValueError(f"table {schema.name!r} missing columns {sorted(missing)}")
        self.schema = schema
        #: logical bytes per row (every scan and seek charges reads by it)
        self.row_width: int = schema.row_width
        self.data = {name: np.asarray(data[name]) for name in schema.column_names}
        self.n_rows = 0 if not data else len(next(iter(self.data.values())))
        self.clustered_on = clustered_on
        self.indexes: dict[str, SortedIndex] = {}

    @property
    def name(self) -> str:
        return self.schema.name

    def column(self, name: str) -> np.ndarray:
        return self.data[name]

    def cluster_on(self, column: str) -> None:
        """Physically sort the table rows by ``column`` (clustered index)."""
        order = np.argsort(self.data[column], kind="stable")
        self.data = {name: arr[order] for name, arr in self.data.items()}
        self.clustered_on = column
        # Any existing secondary indexes refer to old positions; rebuild.
        for key in list(self.indexes):
            self.create_index(key)

    def create_index(self, column: str) -> SortedIndex:
        """Create (or rebuild) a secondary index on ``column``."""
        if column not in self.data:
            raise KeyError(f"no column {column!r} in table {self.name!r}")
        index = SortedIndex(column, self.data[column])
        self.indexes[column] = index
        return index

    def drop_index(self, column: str) -> None:
        self.indexes.pop(column, None)

    def has_index(self, column: str) -> bool:
        """True when seeks on ``column`` are possible (secondary or clustered)."""
        return column in self.indexes or column == self.clustered_on

    def seek_index(self, column: str) -> SortedIndex:
        """Return an index usable for seeks on ``column``.

        Falls back to a transient index over the clustered order when the
        table is clustered on the column (a clustered index *is* an index).
        """
        if column in self.indexes:
            return self.indexes[column]
        if column == self.clustered_on:
            return self.create_index(column)
        raise KeyError(f"no index on {self.name}.{column}")


@dataclass
class Database:
    """A named collection of table instances, plus the schema."""

    schema: DatabaseSchema
    tables: dict[str, Table] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.schema.name

    def add(self, table: Table) -> None:
        self.tables[table.name] = table
        if table.name not in self.schema.tables:
            self.schema.add(table.schema)

    def table(self, name: str) -> Table:
        if name not in self.tables:
            raise KeyError(f"no table {name!r} in database {self.name!r}")
        return self.tables[name]

    def table_of_column(self, column: str) -> Table:
        return self.table(self.schema.table_of_column(column).name)
