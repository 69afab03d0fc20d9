"""Pipeline decomposition and driver-node identification (paper §3.2).

A *pipeline* (Chaudhuri et al. [6]; "segment" in Luo et al. [13]) is a
maximal subtree of concurrently executing operators.  Fully blocking
operators — SORT and HASH_AGG materializations, and the build side of a
HASH_JOIN — separate pipelines.  Within a pipeline, the *driver nodes*
(dominant inputs) are the tuple sources: leaf nodes excluding the inner
subtree of nested-loop joins, plus blocking operators acting as sources of
the downstream pipeline.

Pipelines are emitted in execution order, matching the executor's open
cascade: a hash join's build pipeline runs before its probe pipeline; the
pipeline below a sort runs before the pipeline consuming the sort output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.plan.nodes import Op, PlanNode


@dataclass
class Pipeline:
    """One pipeline: a set of plan nodes plus its driver nodes."""

    pid: int = -1
    nodes: list[PlanNode] = field(default_factory=list)
    driver_nodes: list[PlanNode] = field(default_factory=list)

    @property
    def node_ids(self) -> list[int]:
        return [n.node_id for n in self.nodes]

    @property
    def driver_ids(self) -> list[int]:
        return [n.node_id for n in self.driver_nodes]

    def describe(self) -> str:
        ops = ", ".join(str(n.op) for n in self.nodes)
        drivers = ", ".join(str(n.op) for n in self.driver_nodes)
        return f"P{self.pid}[{ops} | drivers: {drivers}]"


def decompose_pipelines(root: PlanNode) -> list[Pipeline]:
    """Split a finalized plan into pipelines in execution order."""
    if root.node_id < 0:
        raise ValueError("plan must be finalized before pipeline decomposition")
    pipelines: list[Pipeline] = []

    def visit(node: PlanNode, pipe: Pipeline, inner_of_nlj: bool) -> None:
        pipe.nodes.append(node)
        if node.op in (Op.SORT, Op.HASH_AGG):
            # Blocking: the subtree below forms earlier pipeline(s); this
            # node then acts as the source (driver) of the current pipeline.
            child_pipe = Pipeline()
            visit(node.children[0], child_pipe, False)
            pipelines.append(child_pipe)
            if not inner_of_nlj:
                pipe.driver_nodes.append(node)
        elif node.op == Op.HASH_JOIN:
            # Build side (children[1]) executes first, as its own pipeline.
            build_pipe = Pipeline()
            visit(node.children[1], build_pipe, False)
            pipelines.append(build_pipe)
            visit(node.children[0], pipe, inner_of_nlj)
        elif node.op == Op.NESTED_LOOP_JOIN:
            visit(node.children[0], pipe, inner_of_nlj)
            # The inner side executes within this pipeline but its nodes are
            # not driver nodes (paper §3.2).
            visit(node.children[1], pipe, True)
        elif node.op == Op.MERGE_JOIN:
            visit(node.children[0], pipe, inner_of_nlj)
            visit(node.children[1], pipe, inner_of_nlj)
        elif not node.children:
            if not inner_of_nlj:
                pipe.driver_nodes.append(node)
        else:
            visit(node.children[0], pipe, inner_of_nlj)

    top = Pipeline()
    visit(root, top, False)
    pipelines.append(top)
    for pid, pipe in enumerate(pipelines):
        pipe.pid = pid
    return pipelines


def node_to_pipeline(pipelines: list[Pipeline]) -> dict[int, int]:
    """Map ``node_id`` -> ``pid``.  Every node belongs to exactly one pipeline."""
    mapping: dict[int, int] = {}
    for pipe in pipelines:
        for node in pipe.nodes:
            if node.node_id in mapping:
                raise ValueError(f"node {node.node_id} assigned to two pipelines")
            mapping[node.node_id] = pipe.pid
    return mapping
