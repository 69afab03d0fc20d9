"""Reports as columns: the report block's codec and what sessions keep.

The codec half holds framing a :class:`ReportBlock` to the per-report
definition (:func:`helpers.reports_payload_oracle`) byte for byte, over
generated streams; the retention half holds sessions and the server to
keeping copies of their own rows, never the round's block.
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.monitor import ProgressMonitor, ProgressReport
from repro.runtime.transport import (
    block_from_payload,
    reports_from_payload,
    reports_to_payload,
)
from repro.service.service import ProgressService
from repro.trace.format import ReportBlock, ReportLog
from repro.trace.store import read_trace

from helpers import reports_payload_oracle
from test_trace_golden import GOLDEN_DIR

_NAMES = ("dne", "tgn", "luo", "pmax", "safe")
_FLOATS = st.floats(allow_nan=False, width=64)


@st.composite
def _streams(draw):
    """``(sid, ProgressReport)`` rows of up to three sessions, each a
    stream as the flush emits it: its choices only ever gain pids (in
    insertion order) and may be re-committed to another name, the active
    estimator may be None or a name no choice has yet."""
    tagged = []
    for sid in sorted(draw(st.sets(st.integers(0, 40), max_size=3))):
        pipes = draw(st.integers(0, 4))
        choices: dict[int, str] = {}
        for _ in range(draw(st.integers(0, 4))):
            if pipes:
                for pid in draw(st.lists(st.integers(0, pipes - 1),
                                         max_size=3)):
                    choices[pid] = draw(st.sampled_from(_NAMES))
            active = draw(st.integers(-1, pipes - 1))
            name = (None if active < 0 or draw(st.booleans())
                    else draw(st.sampled_from(_NAMES)))
            values = draw(st.lists(_FLOATS, min_size=pipes, max_size=pipes))
            tagged.append((sid, ProgressReport(
                time=draw(_FLOATS), progress=draw(_FLOATS),
                active_pid=active, active_estimator=name,
                pipeline_progress=dict(enumerate(values)),
                pipeline_estimator=dict(choices))))
    return tagged


def _every_case():
    """One stream with each case the codec must get right: a report with
    no active estimator, a pipeline with no choice yet, a re-committed
    choice, a name first seen as a choice, and several sessions."""
    def report(t, active, name, values, choices):
        return ProgressReport(time=t, progress=t / 10, active_pid=active,
                              active_estimator=name,
                              pipeline_progress=dict(enumerate(values)),
                              pipeline_estimator=choices)
    return [
        (2, report(0.5, -1, None, [0.0, 0.0], {})),
        (2, report(1.5, 0, "luo", [0.25, 0.0], {0: "luo"})),
        # pipeline 1 has no choice yet; "tgn" is first seen as a choice
        (2, report(2.5, 0, "dne", [0.5, 0.0], {0: "dne", 2: "tgn"})),
        (5, report(0.5, 1, "pmax", [1.0, 0.125], {1: "pmax"})),
        # pid 1 re-committed: its key keeps its place
        (5, report(1.0, 2, "safe", [1.0, 1.0, 0.5],
                   {1: "dne", 2: "safe"})),
    ]


def _renamed(block: ReportBlock, names) -> ReportBlock:
    """``block`` under the name table ``names`` (a superset, any order),
    as the flush's blocks carry the whole pool's names."""
    lut = np.array([names.index(name) for name in block.names] + [-1])
    return ReportBlock(block.sids, block.time, block.progress,
                       block.active_pid, lut[block.active_est], block.pp_off,
                       block.pp_pid, block.pp_val, block.pe_off, block.pe_pid,
                       lut[block.pe_est], names)


class TestBlockCodec:
    @given(_streams(), st.permutations(_NAMES), st.data())
    @example(_every_case(), _NAMES[::-1], None)
    @example([], _NAMES, None)
    @settings(max_examples=200, deadline=None)
    def test_framing_a_block_is_the_per_report_encoder(self, tagged, names,
                                                       data):
        """Framing the block gives exactly the per-report encoder's bytes,
        under any name table, split and concatenated again or sorted by
        session; decoding and framing again gives the same bytes, and the
        decoded rows are the reports."""
        expected = reports_payload_oracle(tagged)
        block = _renamed(ReportBlock.from_reports(tagged), list(names))
        assert reports_to_payload(block) == expected
        assert reports_to_payload(tagged) == expected
        decoded = block_from_payload(expected)
        assert reports_to_payload(decoded) == expected
        assert list(decoded) == tagged == reports_from_payload(expected)
        cuts = sorted(data.draw(st.lists(st.integers(0, len(tagged)),
                                         max_size=4))) if data else []
        parts = block.split([0, *cuts, len(tagged)])
        assert reports_to_payload(ReportBlock.concat(parts)) == expected
        order = np.argsort(block.sids, kind="stable")
        assert reports_to_payload(block.take(order)) == \
            reports_payload_oracle([tagged[i] for i in order.tolist()])

    def test_example_stream_covers_every_case(self):
        tagged = _every_case()
        assert any(r.active_estimator is None for _, r in tagged)
        assert any(len(r.pipeline_estimator) < len(r.pipeline_progress)
                   for _, r in tagged)
        assert len({sid for sid, _ in tagged}) > 1
        assert reports_to_payload(ReportBlock.from_reports(tagged)) == \
            reports_payload_oracle(tagged)

    @pytest.mark.parametrize("edit", [
        dict(active_est=np.array([7])), dict(pe_est=np.array([-2])),
        dict(pp_off=np.array([0, 5])), dict(time=np.zeros(2)),
        dict(sids=np.zeros(1, dtype=np.float64))])
    def test_malformed_columns_raise_value_error(self, edit):
        tagged = [(0, ProgressReport(time=1.0, progress=0.5, active_pid=0,
                                     active_estimator="dne",
                                     pipeline_progress={0: 0.5},
                                     pipeline_estimator={0: "dne"}))]
        entry, members = ReportBlock.from_reports(tagged).to_columns()
        members["sids"] = np.zeros(1, dtype=np.int64)
        members.update(edit)
        with pytest.raises(ValueError):
            ReportBlock.from_columns(entry, members)


# -- retention -----------------------------------------------------------------


@pytest.fixture(scope="module")
def runs():
    recorded, _ = read_trace(GOLDEN_DIR / "fuzz")
    return recorded


def _owned(block: ReportBlock) -> bool:
    return all(getattr(block, key).base is None
               for key in ("sids", "time", "progress", "active_pid",
                           "active_est", "pp_off", "pp_pid", "pp_val",
                           "pe_off", "pe_pid", "pe_est"))


class TestRetention:
    def test_round_block_dies_once_its_consumers_are_done(self, runs):
        """A weakref to each round's block, and to its columns, dies by
        reference count once the hook returns; every session keeps its
        own rows in arrays that own their memory."""
        refs = []

        def hook(block):
            refs.append([weakref.ref(block)] + [
                weakref.ref(getattr(block, key))
                for key in ("time", "pp_val", "pe_est")])

        service = ProgressService(ProgressMonitor(refresh_every=1),
                                  slice_steps=3, on_block=hook)
        for run in runs * 2:
            service.submit_replay(run)
        gc.disable()
        try:
            while service.tick():
                assert all(ref() is None for ref in refs[-1])
        finally:
            gc.enable()
        assert len(refs) > 1
        for session in service.sessions:
            assert all(_owned(chunk)
                       for chunk in session.report_rows._chunks)

    def test_stored_bytes_follow_the_sessions_own_rows(self, runs):
        """A session's stored rows take the same bytes served alone as
        beside other sessions: they grow with its own row count only."""
        def stored(n_sessions):
            service = ProgressService(ProgressMonitor(refresh_every=1),
                                      slice_steps=3)
            for i in range(n_sessions):
                service.submit_replay(runs[i % len(runs)])
            while service.tick():
                pass
            session = service.session(0)
            rows = session.report_rows
            stored = len(rows), rows.nbytes
            # reading the stream moves its rows into report objects
            assert len(session.reports) == stored[0]
            assert len(session.report_rows) == 0
            return stored

        (rows, alone), (_, pooled) = stored(1), stored(5)
        assert rows > 0 and alone == pooled

    def test_log_reads_any_start(self, runs):
        service = ProgressService(ProgressMonitor(refresh_every=1),
                                  slice_steps=2)
        service.submit_replay(runs[0])
        blocks = []
        service.on_block = blocks.append
        service.run_until_complete(max_ticks=100_000)
        log = ReportLog()
        for block in blocks:
            log.append(block)
        whole = list(ReportBlock.concat(blocks))
        for start in (0, 1, 5, len(whole) - 1, len(whole), len(whole) + 3):
            assert list(log.block(start)) == whole[start:]

    def test_released_sessions_stay_small(self, runs):
        """A released session is a tombstone: growth per finished session
        stays under a few hundred bytes (tracemalloc, after a warm-up)."""
        finished = []
        service = ProgressService(ProgressMonitor(refresh_every=5),
                                  slice_steps=64, max_live=8,
                                  on_complete=finished.append)

        def serve(n):
            for i in range(n):
                service.submit_replay(runs[i % len(runs)])
            more = True
            while more:
                more = service.tick()
                for session in finished:
                    service.release_session(session.session_id)
                finished.clear()

        serve(200)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            serve(600)
            gc.collect()
            growth = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert all(s.released for s in service.sessions)
        assert growth / 600 < 400, growth / 600
