"""The package layering of DESIGN.md §2, enforced.

DESIGN §2 lists the packages bottom-up; a module may import, at module
level, only from its own package or from packages listed before it.
Function-level (lazy) imports are exempt: they are how a lower layer
reaches a higher one on demand without an import cycle.  The known
exceptions are listed below with their reason, as in DESIGN §2.
"""

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"

#: module-level edges that break the order on purpose (module, import)
EXCEPTIONS = {
    # a selector's serialized form rebuilds the EstimatorSelector itself
    ("learning/serialize.py", "repro.core.selection"),
    # the outer/semi workload reuses the fuzzer's schema/data generator
    ("workloads/outer_semi.py", "repro.fuzz.generate"),
}


def _design_order() -> list[str]:
    """Package names in the order DESIGN §2's layering block lists them."""
    text = (REPO / "DESIGN.md").read_text()
    section = text.split("## 2. Package layering", 1)[1].split("\n## ", 1)[0]
    block = section.split("```", 2)[1]
    return re.findall(r"^  repro\.(\w+)\s", block, flags=re.MULTILINE)


def _imports(tree: ast.AST, lazy: bool):
    """``repro.*`` modules imported by ``tree``; function bodies are
    skipped unless ``lazy``."""
    stack = list(ast.iter_child_nodes(tree))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and not lazy:
            continue
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
        stack.extend(ast.iter_child_nodes(node))


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC)
        if len(rel.parts) > 1:  # the top-level package re-exports everything
            yield rel, ast.parse(path.read_text(), filename=str(path))


def test_design_lists_every_package():
    order = _design_order()
    packages = {p.name for p in SRC.iterdir()
                if (p / "__init__.py").is_file()}
    assert sorted(order) == sorted(packages)


def test_module_level_imports_follow_the_layering():
    rank = {pkg: i for i, pkg in enumerate(_design_order())}
    upward = set()
    for rel, tree in _modules():
        own = rank[rel.parts[0]]
        for module in _imports(tree, lazy=False):
            parts = module.split(".")
            if parts[0] == "repro" and len(parts) > 1 \
                    and rank[parts[1]] > own:
                upward.add((rel.as_posix(), module))
    assert upward == EXCEPTIONS, (
        "module-level imports against DESIGN §2's order changed; fix the "
        "import (or make it lazy), or name the edge and its reason in "
        "DESIGN §2 and EXCEPTIONS")


def test_engine_never_imports_progress():
    """No import at all, lazy ones included: the engine describes plans
    and runs; estimation is built on top of it."""
    for rel, tree in _modules():
        if rel.parts[0] == "engine":
            for module in _imports(tree, lazy=True):
                assert not module.startswith("repro.progress"), (rel, module)


#: the trees whose code may import the program; tests are not among them
USERS = ("src", "bench", "benchmarks", "examples", "ci")

#: modules run by name (``python -m``), which nothing imports
ENTRY_POINTS = {"repro.experiments.run_all"}


def test_every_module_is_imported_outside_the_tests():
    """A module only the tests import serves no one: delete it, or use
    it.  Package ``__init__``/``__main__`` modules and the entry points
    run by name are exempt."""
    modules = {"repro." + ".".join(p.relative_to(SRC).with_suffix("").parts)
               for p in SRC.rglob("*.py")
               if p.stem not in ("__init__", "__main__")}
    imported = set()
    for tree_name in USERS:
        for path in (REPO / tree_name).rglob("*.py"):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    imported.update(a.name for a in node.names)
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    # ``from package import module`` imports the module
                    imported.add(node.module)
                    imported.update(f"{node.module}.{a.name}"
                                    for a in node.names)
    unused = modules - imported - ENTRY_POINTS
    assert not unused, (
        f"modules no code outside tests/ imports: {sorted(unused)}")
