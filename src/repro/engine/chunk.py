"""Columnar batches flowing between operators."""

from __future__ import annotations

import numpy as np


class Chunk:
    """A batch of rows stored column-wise.

    All operators exchange ``Chunk``s; an empty chunk is a legal result of a
    selective filter and simply produces no downstream work.

    A chunk carries only the columns some operator above it reads (sources
    emit a pruned layout, see :func:`repro.engine.iterators.emitted_columns`),
    so it may hold rows but no column at all — the input of a ``count(*)``
    nothing else reads.  ``n_rows`` is therefore carried, not read off a
    column: every constructor below states it.  Operators share column
    arrays between chunks (a scan's slices view the table, a join whose
    every probe row has exactly one partner reuses the probe chunk's
    arrays), so no array a chunk holds is ever written in place.
    """

    __slots__ = ("data", "n_rows")

    def __init__(self, data: dict[str, np.ndarray], n_rows: int | None = None):
        self.data = data
        if n_rows is None:
            n_rows = len(next(iter(data.values()))) if data else 0
        self.n_rows = n_rows

    def __len__(self) -> int:
        return self.n_rows

    def __contains__(self, column: str) -> bool:
        return column in self.data

    def column(self, name: str) -> np.ndarray:
        return self.data[name]

    @property
    def columns(self) -> list[str]:
        return list(self.data)

    def select(self, mask: np.ndarray) -> "Chunk":
        """Rows where the boolean ``mask`` is True."""
        return Chunk({name: arr[mask] for name, arr in self.data.items()},
                     int(np.count_nonzero(mask)))

    def take(self, indices: np.ndarray) -> "Chunk":
        """Gather rows by position (repeats allowed, e.g. join fan-out)."""
        return Chunk({name: arr[indices] for name, arr in self.data.items()},
                     len(indices))

    def slice(self, start: int, stop: int) -> "Chunk":
        return Chunk({name: arr[start:stop] for name, arr in self.data.items()},
                     len(range(self.n_rows)[start:stop]))

    def merge(self, other: "Chunk") -> "Chunk":
        """Column-wise combination of two equally long chunks (join output)."""
        if other.n_rows != self.n_rows:
            raise ValueError(f"merge length mismatch: {self.n_rows} vs {other.n_rows}")
        overlap = set(self.data) & set(other.data)
        if overlap:
            raise ValueError(f"merge column collision: {sorted(overlap)}")
        combined = dict(self.data)
        combined.update(other.data)
        return Chunk(combined, self.n_rows)

    @staticmethod
    def concat(chunks: list["Chunk"]) -> "Chunk":
        """Row-wise concatenation; all chunks must share columns."""
        chunks = [c for c in chunks if c.n_rows > 0]
        if not chunks:
            return Chunk({})
        if len(chunks) == 1:
            return chunks[0]
        names = chunks[0].columns
        return Chunk({
            name: np.concatenate([c.data[name] for c in chunks]) for name in names
        }, sum(c.n_rows for c in chunks))

    @staticmethod
    def empty(columns: list[str]) -> "Chunk":
        return Chunk({name: np.empty(0, dtype=np.int64) for name in columns}, 0)

    def __repr__(self) -> str:
        return f"Chunk({self.n_rows} rows, cols={self.columns})"
