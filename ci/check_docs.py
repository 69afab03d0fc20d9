"""Docs health gate: dead relative links, stale file paths and
network-API route coverage.

Run from the repo root (CI fast job, docs phase)::

    python ci/check_docs.py

Three checks, all hard failures:

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
"""

from __future__ import annotations

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


def main() -> int:
    problems = check_links() + check_paths() + check_route_coverage()
    for problem in problems:
        print(f"FAIL: {problem}")
    docs = ", ".join(str(p.relative_to(REPO)) for p in _doc_files())
    if problems:
        print(f"\n{len(problems)} docs problem(s) across {docs}")
        return 1
    print(f"docs ok: links + paths + {len(ROUTES)} routes covered "
          f"({docs})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
