"""Unit tests for the columnar Chunk."""

import numpy as np
import pytest

from repro.engine.chunk import Chunk


def make(n=5):
    return Chunk({"a": np.arange(n), "b": np.arange(n) * 2.0})


class TestChunk:
    def test_len_and_columns(self):
        chunk = make(4)
        assert len(chunk) == 4
        assert chunk.columns == ["a", "b"]
        assert "a" in chunk and "z" not in chunk

    def test_empty_dict_chunk(self):
        chunk = Chunk({})
        assert len(chunk) == 0
        assert chunk.columns == []
        assert "a" not in chunk

    def test_empty_dict_chunk_ops(self):
        empty = Chunk({})
        assert len(empty.select(np.empty(0, dtype=bool))) == 0
        assert len(empty.take(np.empty(0, dtype=np.int64))) == 0
        assert len(empty.slice(0, 10)) == 0

    def test_select(self):
        out = make().select(np.array([True, False, True, False, True]))
        assert out.column("a").tolist() == [0, 2, 4]

    def test_select_all_false_mask(self):
        out = make().select(np.zeros(5, dtype=bool))
        assert len(out) == 0
        assert out.columns == ["a", "b"]  # schema survives an empty result
        assert out.column("a").dtype == make().column("a").dtype

    def test_take_with_repeats(self):
        out = make().take(np.array([1, 1, 3]))
        assert out.column("b").tolist() == [2.0, 2.0, 6.0]

    def test_take_repeats_out_of_order(self):
        # join fan-out: duplicates and arbitrary order must both survive
        out = make().take(np.array([4, 0, 0, 2, 4, 4]))
        assert out.column("a").tolist() == [4, 0, 0, 2, 4, 4]
        assert len(out) == 6

    def test_take_nothing(self):
        out = make().take(np.empty(0, dtype=np.int64))
        assert len(out) == 0
        assert out.columns == ["a", "b"]

    def test_slice(self):
        assert make().slice(1, 3).column("a").tolist() == [1, 2]

    def test_merge(self):
        left = Chunk({"x": np.arange(3)})
        right = Chunk({"y": np.arange(3) + 10})
        merged = left.merge(right)
        assert merged.columns == ["x", "y"]

    def test_merge_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            Chunk({"x": np.arange(3)}).merge(Chunk({"y": np.arange(2)}))

    def test_merge_collision(self):
        with pytest.raises(ValueError, match="collision"):
            Chunk({"x": np.arange(3)}).merge(Chunk({"x": np.arange(3)}))

    def test_concat(self):
        out = Chunk.concat([make(2), make(3)])
        assert len(out) == 5
        assert out.column("a").tolist() == [0, 1, 0, 1, 2]

    def test_concat_skips_empty(self):
        out = Chunk.concat([make(0), make(2)])
        assert len(out) == 2

    def test_concat_nothing(self):
        assert len(Chunk.concat([])) == 0

    def test_empty_constructor(self):
        chunk = Chunk.empty(["a", "b"])
        assert len(chunk) == 0
        assert chunk.columns == ["a", "b"]

    def test_repr(self):
        assert "2 rows" in repr(make(2))


class TestRowsWithoutColumns:
    """A source nothing reads a column of (``count(*)``) emits rows and no
    column, so every operation states the row count it produces."""

    def test_constructor_takes_the_row_count(self):
        assert len(Chunk({}, 7)) == 7
        assert Chunk({}, 7).columns == []

    def test_operations_carry_the_row_count(self):
        rows = Chunk({}, 5)
        assert len(rows.select(np.array([True, False, True, True, False]))) == 3
        assert len(rows.take(np.array([4, 4, 0, 1]))) == 4
        assert len(rows.slice(1, 3)) == 2
        assert len(rows.slice(3, 99)) == 2
        assert len(rows.merge(Chunk({}, 5))) == 5
        assert len(Chunk.concat([rows, Chunk({}, 0), Chunk({}, 2)])) == 7

