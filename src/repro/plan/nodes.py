"""Physical operators and the plan tree.

The operator vocabulary matches the plans the paper's workloads produce on
SQL Server (Table 1 reports nested loop join, merge join, hash join/agg,
index seek, batch sort and stream aggregate fractions): scans, seeks, three
join algorithms, full and *partial batch* sorts (the nested-iteration
optimization of §5.1), aggregates and TOP.
"""

from __future__ import annotations

from enum import Enum
from typing import Any, Iterator


class Op(str, Enum):
    """Physical operator types."""

    TABLE_SCAN = "table_scan"
    INDEX_SCAN = "index_scan"        # clustered-order scan
    INDEX_SEEK = "index_seek"        # equality/range seek on an index
    FILTER = "filter"
    NESTED_LOOP_JOIN = "nested_loop_join"
    HASH_JOIN = "hash_join"
    MERGE_JOIN = "merge_join"
    SORT = "sort"                    # fully blocking sort
    BATCH_SORT = "batch_sort"        # partial (batch-wise) sort, §5.1
    STREAM_AGG = "stream_agg"
    HASH_AGG = "hash_agg"
    TOP = "top"

    def __str__(self) -> str:  # nicer plan printouts
        return self.value


#: Operators that materialize their entire input before producing output.
#: These are the pipeline boundaries of [6]/[13].
BLOCKING_OPS = frozenset({Op.SORT, Op.HASH_AGG})

#: Operators that read base tables.
SOURCE_OPS = frozenset({Op.TABLE_SCAN, Op.INDEX_SCAN, Op.INDEX_SEEK})

#: Operators over which estimated row widths are recomputed from children.
JOIN_OPS = frozenset({Op.NESTED_LOOP_JOIN, Op.HASH_JOIN, Op.MERGE_JOIN})


class PlanNode:
    """One node of a physical execution plan.

    Attributes
    ----------
    node_id:
        Dense preorder index within the plan (assigned by
        :meth:`finalize`); the executor's counter arrays are indexed by it.
    op:
        The physical operator (:class:`Op`).
    children:
        Sub-plans.  For joins, ``children[0]`` is the outer/probe side and
        ``children[1]`` the inner/build side.
    params:
        Operator-specific parameters (table/column names, predicates, join
        keys, sort keys, batch size, aggregate specs, ``k`` for TOP).
    est_rows:
        The optimizer's estimate :math:`E_i^0` of the total number of
        GetNext calls at this node (refined online by estimators).
    est_row_width:
        Estimated bytes per output row, for the Bytes-Processed model.
    """

    def __init__(self, op: Op, children: list["PlanNode"] | None = None,
                 **params: Any):
        self.op = op
        self.children: list[PlanNode] = children or []
        self.params: dict[str, Any] = params
        self.node_id: int = -1
        self.est_rows: float = 0.0
        self.est_row_width: float = 8.0
        #: a root's execution layouts by database (built and read by
        #: ``repro.engine.executor.plan_layout``), freed with the plan
        self.layouts: dict[int, Any] | None = None

    # -- tree structure -------------------------------------------------

    def finalize(self) -> "PlanNode":
        """Assign dense preorder ``node_id``s; call once on the root."""
        for i, node in enumerate(self.walk()):
            node.node_id = i
        return self

    def walk(self) -> Iterator["PlanNode"]:
        """Preorder traversal of the subtree rooted here."""
        yield self
        for child in self.children:
            yield from child.walk()

    def descendants(self) -> Iterator["PlanNode"]:
        """All nodes strictly below this one (paper's ``Descendants(i)``)."""
        for child in self.children:
            yield from child.walk()

    def find_all(self, op: Op) -> list["PlanNode"]:
        return [n for n in self.walk() if n.op == op]

    @property
    def n_nodes(self) -> int:
        return sum(1 for _ in self.walk())

    # -- convenience accessors -------------------------------------------

    @property
    def table(self) -> str | None:
        return self.params.get("table")

    @property
    def outer(self) -> "PlanNode":
        if not self.children:
            raise ValueError(f"{self.op} has no children")
        return self.children[0]

    @property
    def inner(self) -> "PlanNode":
        if len(self.children) < 2:
            raise ValueError(f"{self.op} has no inner child")
        return self.children[1]

    # -- debugging --------------------------------------------------------

    def pretty(self, indent: int = 0) -> str:
        """Multi-line plan rendering, ``EXPLAIN``-style."""
        label = str(self.op)
        detail = []
        if "table" in self.params:
            detail.append(self.params["table"])
        for key in ("column", "keys", "outer_key", "inner_key", "k"):
            if key in self.params:
                detail.append(f"{key}={self.params[key]}")
        if detail:
            label += f" ({', '.join(str(d) for d in detail)})"
        label += f"  [id={self.node_id}, E={self.est_rows:.0f}]"
        lines = ["  " * indent + label]
        for child in self.children:
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"PlanNode({self.op}, id={self.node_id}, E={self.est_rows:.0f})"
