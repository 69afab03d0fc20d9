"""The docs gate's class-member check (``ci/check_docs.py``, check 4)."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", ROOT / "ci" / "check_docs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_stale_member_span_fails_and_live_ones_pass(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text(
        "Live: `FlushBatch.rowsum()` (a method), `PipelineMeta.childpos` (a\n"
        "`__slots__` entry), `ServiceStats.ticks` (a dataclass field),\n"
        "`QuerySession.pipe_records` (a `self.` assignment) and\n"
        "`BatchedLuoState.estimator` (inherited).  Not a repro class:\n"
        "`Counter.most_common()`.\n"
        "Stale: `FlushBatch.pool`.\n")
    problems = _check_docs().check_members([doc])
    assert len(problems) == 1
    assert "doc.md:6: stale member 'FlushBatch.pool'" in problems[0]


def test_committed_docs_name_live_members():
    assert _check_docs().check_members() == []
