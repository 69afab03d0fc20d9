"""Docs health gate: dead relative links, stale file paths, network-API
route coverage and stale class members.

Run from the repo root (CI fast job, docs phase)::

    python ci/check_docs.py

Four checks, all hard failures:

1. **Dead relative links.**  Every markdown link target in README.md,
   DESIGN.md and docs/*.md that is not an absolute URL must resolve to
   an existing file or directory, relative to the linking document
   (anchors are stripped first).  Docs rot silently when files move;
   this keeps every cross-reference live.
2. **Stale file paths.**  Every backticked path in the same documents
   whose first segment is a top-level repo directory (``src/``,
   ``tests/``, ``bench/``, ...) must exist, relative to the repo root.
   Only the span's first word counts; a ``::test`` id or ``:line``
   suffix is dropped, ``*`` globs must match something and ``{a,b}``
   alternatives must each exist.  Renamed or deleted files otherwise
   linger in prose.
3. **Route coverage.**  Every ``(method, pattern)`` row of
   ``repro.service.net.server.ROUTES`` must appear verbatim — as the
   ``METHOD /path`` string — somewhere in ``docs/api.md``.  Adding a
   route without documenting it fails CI.
4. **Stale class members.**  Every backticked ``Class.attr`` or
   ``Class.method()`` span in the same documents whose class is defined
   under ``src/repro`` must name a member of that class or of a base
   class defined there: a method or property, a class attribute or
   dataclass field, a ``__slots__`` entry or a ``self.<attr>``
   assignment.  Renamed or deleted members otherwise linger in prose.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.service.net.server import ROUTES  # noqa: E402

#: inline markdown links: [text](target) — images included via the
#: optional leading "!"; reference-style links are not used in this repo
_LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")

#: schemes that are not filesystem-relative and are not checked
_EXTERNAL = ("http://", "https://", "mailto:")


#: first path segments the stale-path check applies to
_TOP_DIRS = ("src", "tests", "bench", "benchmarks", "ci", "docs",
             "examples", "results")

#: backticked spans starting with one of those directories
_PATH_RE = re.compile(r"`((?:%s)/[^`]*)`" % "|".join(_TOP_DIRS))

_BRACES_RE = re.compile(r"\{([^{}]*)\}")


def _doc_files() -> list[Path]:
    files = [REPO / "README.md", REPO / "DESIGN.md"]
    files.extend(sorted((REPO / "docs").glob("*.md")))
    return [path for path in files if path.exists()]


def check_links() -> list[str]:
    problems = []
    for doc in _doc_files():
        for target in _LINK_RE.findall(doc.read_text()):
            if target.startswith(_EXTERNAL) or target.startswith("#"):
                continue
            resolved = (doc.parent / target.split("#", 1)[0]).resolve()
            if not resolved.exists():
                problems.append(
                    f"{doc.relative_to(REPO)}: dead relative link "
                    f"'{target}' (no file at {resolved})")
    return problems


def _expand_braces(path: str) -> list[str]:
    match = _BRACES_RE.search(path)
    if match is None:
        return [path]
    head, tail = path[:match.start()], path[match.end():]
    return [expanded
            for option in match.group(1).split(",")
            for expanded in _expand_braces(head + option + tail)]


def check_paths() -> list[str]:
    problems = []
    for doc in _doc_files():
        for lineno, line in enumerate(doc.read_text().splitlines(), 1):
            for span in _PATH_RE.findall(line):
                path = re.split(r"::|:\d", span.split()[0])[0]
                for candidate in _expand_braces(path):
                    found = (any(REPO.glob(candidate)) if "*" in candidate
                             else (REPO / candidate).exists())
                    if not found:
                        problems.append(
                            f"{doc.relative_to(REPO)}:{lineno}: stale path "
                            f"'{candidate}' (cited as `{span}`)")
    return problems


def check_route_coverage() -> list[str]:
    api = REPO / "docs" / "api.md"
    if not api.exists():
        return [f"missing {api.relative_to(REPO)} — the network API "
                f"reference is required"]
    text = api.read_text()
    return [
        f"docs/api.md: route '{method} {pattern}' is served by "
        f"repro.service.net but not documented"
        for method, pattern in ROUTES
        if f"{method} {pattern}" not in text
    ]


#: backticked spans that are exactly ``Class.attr`` or ``Class.method()``
_MEMBER_RE = re.compile(r"`([A-Z]\w*)\.([A-Za-z_]\w*)(?:\(\))?`")


def _declared(cls: ast.ClassDef) -> set[str]:
    """Member names one class body declares."""
    names = set()
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target])
            names.update(t.id for t in targets if isinstance(t, ast.Name))
            if "__slots__" in names and isinstance(stmt.value,
                                                   (ast.Tuple, ast.List)):
                names.update(e.value for e in stmt.value.elts
                             if isinstance(e, ast.Constant))
    names.update(node.attr for node in ast.walk(cls)
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.ctx, ast.Store)
                 and isinstance(node.value, ast.Name)
                 and node.value.id == "self")
    return names


def class_members(root: Path = REPO / "src" / "repro") -> dict[str, set[str]]:
    """Per class defined under ``root``: its members, inherited ones from
    base classes defined there included."""
    own: dict[str, set[str]] = {}
    bases: dict[str, set[str]] = {}
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                own.setdefault(node.name, set()).update(_declared(node))
                bases.setdefault(node.name, set()).update(
                    b.id if isinstance(b, ast.Name) else b.attr
                    for b in node.bases
                    if isinstance(b, (ast.Name, ast.Attribute)))

    def resolve(name: str, seen: frozenset = frozenset()) -> set[str]:
        out = set(own.get(name, ()))
        for base in bases.get(name, ()):
            if base in own and base not in seen:
                out |= resolve(base, seen | {name})
        return out

    return {name: resolve(name) for name in own}


def check_members(docs: list[Path] | None = None) -> list[str]:
    members = class_members()
    problems = []
    for doc in _doc_files() if docs is None else docs:
        where = (doc.relative_to(REPO) if doc.is_relative_to(REPO)
                 else doc)
        for lineno, line in enumerate(doc.read_text().splitlines(), 1):
            for cls, attr in _MEMBER_RE.findall(line):
                if cls in members and attr not in members[cls]:
                    problems.append(
                        f"{where}:{lineno}: stale member '{cls}.{attr}' "
                        f"({cls} defines no '{attr}')")
    return problems


def main() -> int:
    problems = (check_links() + check_paths() + check_route_coverage()
                + check_members())
    for problem in problems:
        print(f"FAIL: {problem}")
    docs = ", ".join(str(p.relative_to(REPO)) for p in _doc_files())
    if problems:
        print(f"\n{len(problems)} docs problem(s) across {docs}")
        return 1
    print(f"docs ok: links + paths + {len(ROUTES)} routes covered + "
          f"class members ({docs})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
