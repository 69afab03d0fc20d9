"""Offline, live and replayed runs describe a pipeline the same way.

Three builders produce a pipeline's view: :meth:`QueryRun.pipeline_run`
(what training sees), :func:`~repro.engine.run.live_pipeline_run` (what
selection features are extracted from while serving) and the flush's
:class:`~repro.progress.soa.PipelineMeta` (what the kernels read).  A
selector only scores what it was trained on if all three agree
on every static field and, up to the snapshot row, on the trajectories.
Checked on every golden family through :class:`ReplayContext` and on one
live execution, whose snapshots are taken from ``on_observation``.  The
features the flush scores must equal extracting each opening's snapshot
alone, whatever else shares its batch.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.core.monitor import ProgressMonitor
from repro.core.training import runs_to_pipelines
from repro.engine.executor import QueryExecutor
from repro.engine.run import live_pipeline_run
from repro.features.vector import FeatureExtractor
from repro.progress.soa import PipelineMeta
from repro.query.logical import JoinEdge, QuerySpec
from repro.query.predicates import FilterSpec
from repro.service import batched
from repro.service.scoring import BatchedSelectorScorer
from repro.service.service import ProgressService
from repro.trace import read_trace
from repro.trace.replay import ReplayContext

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
FAMILIES = ("tpch", "tpcds", "real", "fuzz", "outer_semi")

STATIC_FIELDS = ("pid", "db_name", "t_start", "node_ids", "ops", "E0",
                 "widths", "table_rows", "driver_mask", "parent_local",
                 "mat_idx", "mat_child_ids")
ROW_FIELDS = ("times", "K", "W", "LB", "UB")
#: PipelineMeta slots the online capture legitimately differs on: the
#: oracle byte total (and the kernel's view of it) needs the completed run,
#: the online label is "(online)", and materialized bytes are left at 0.0
#: online (see ROADMAP)
META_SKIP = {"oracle_bytes_total", "oracle_total", "has_oracle",
             "materialized_bytes_est", "query_name"}


def _assert_same(got, want, where):
    if isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for key in want:
            _assert_same(got[key], want[key], (where, key))
    elif isinstance(want, np.ndarray):
        got = np.asarray(got)
        assert got.dtype == want.dtype, where
        assert np.array_equal(got, want, equal_nan=want.dtype.kind == "f"), \
            where
    else:
        assert got == want, where


def _snapshot_rows(run, pr):
    """Rows inside ``pr``'s window a live snapshot can be taken at."""
    rows = np.flatnonzero((run.times >= pr.t_start) & (run.times <= pr.t_end))
    return sorted({int(rows[1]), int(rows[len(rows) // 2]), int(rows[-1])})


def _assert_live_matches(live, pr, where):
    assert live is not None, where
    for name in STATIC_FIELDS:
        _assert_same(getattr(live, name), getattr(pr, name), (where, name))
    k = live.n_observations
    for name in ROW_FIELDS:
        _assert_same(getattr(live, name), getattr(pr, name)[:k], (where, name))


def _flush_metas(monkeypatch):
    """Record every :class:`PipelineMeta` the flush builds."""
    metas = {}
    build = batched.PipelineMeta

    def record(**fields):
        meta = build(**fields)
        metas.setdefault(meta.pid, meta)
        return meta

    monkeypatch.setattr(batched, "PipelineMeta", record)
    return metas


def _assert_metas_match(metas, run, where):
    """Every flush-built meta equals the one built from the offline
    view."""
    assert metas, where
    for pid, meta in metas.items():
        pr = run.pipeline_run(pid, min_observations=1)
        assert pr is not None, (where, pid)
        want = PipelineMeta.from_pipeline_run(pr)
        for name in PipelineMeta.__slots__:
            if name not in META_SKIP:
                _assert_same(getattr(meta, name), getattr(want, name),
                             (where, pid, name))


@pytest.mark.parametrize("family", FAMILIES)
def test_replayed_views_agree_with_offline(family, monkeypatch):
    runs, _ = read_trace(GOLDEN_DIR / family)
    for run in runs:
        # every pipeline a live snapshot exists for (two rows or more)
        prs = run.pipeline_runs(min_observations=2)
        assert prs, (family, run.query_name)
        ctx = ReplayContext(run)
        ctx.seek(len(run.times) - 1)
        pipes = {pipe.pid: pipe for pipe in ctx.pipelines}
        for pr in prs:
            for R in _snapshot_rows(run, pr):
                _assert_live_matches(
                    live_pipeline_run(ctx, pipes[pr.pid], R), pr,
                    (family, run.query_name, pr.pid, R))
        service = ProgressService(ProgressMonitor(refresh_every=1))
        metas = _flush_metas(monkeypatch)
        service.submit_replay(run)
        service.run_until_complete()
        _assert_metas_match(metas, run, (family, run.query_name))


def test_live_views_agree_with_offline(tpch_db, tpch_planner,
                                       executor_config, monkeypatch):
    # a join feeding a sort: the sort's pipeline reads a blocking source
    plan = tpch_planner.plan(QuerySpec(
        name="join_sort", tables=["orders", "lineitem"],
        joins=[JoinEdge("orders", "o_orderkey", "lineitem", "l_orderkey")],
        filters=[FilterSpec("lineitem", "l_quantity", ">=", 3.0)],
        order_by=["l_quantity"]))
    snapshots = {}

    def observe(ctx):
        R = len(ctx.log) - 1
        for pipe in ctx.pipelines:
            if ctx.pipe_first_row[pipe.pid] <= R:
                snapshots[pipe.pid, R] = live_pipeline_run(ctx, pipe, R)

    run = QueryExecutor(tpch_db, executor_config,
                        on_observation=observe).execute(plan, "live")
    prs = run.pipeline_runs(min_observations=5)
    assert len(prs) == 2
    for pr in prs:
        for R in _snapshot_rows(run, pr):
            _assert_live_matches(snapshots[pr.pid, R], pr, (pr.pid, R))

    service = ProgressService(ProgressMonitor(refresh_every=1))
    metas = _flush_metas(monkeypatch)
    sid = service.submit(tpch_db, plan, query_name="live",
                         config=executor_config)
    served_run, _ = service.run_until_complete()[sid]
    assert np.array_equal(served_run.K, run.K)
    assert set(metas) == {pr.pid for pr in prs}
    _assert_metas_match(metas, run, "live")


@pytest.mark.parametrize("family", FAMILIES)
def test_flush_features_equal_solo_extraction(family, monkeypatch):
    """Every feature vector the flush hands the scorer, pooled over all of
    a family's recordings under its golden trained monitor, is bit-equal
    to extracting that opening's causal snapshot on its own."""
    from golden.regenerate import MIN_OBSERVATIONS, report_monitors

    runs, _ = read_trace(GOLDEN_DIR / family)
    monitor = report_monitors(
        runs_to_pipelines(runs, MIN_OBSERVATIONS))["trained"]
    openings, requests = [], []
    snapshot, resolve = batched.live_pipeline_run, BatchedSelectorScorer.resolve

    def record_opening(ctx, pipe, row, *args, **kwargs):
        openings.append((ctx, pipe, row))
        return snapshot(ctx, pipe, row, *args, **kwargs)

    def record_requests(scorer, reqs):
        requests.extend(reqs)
        return resolve(scorer, reqs)

    monkeypatch.setattr(batched, "live_pipeline_run", record_opening)
    monkeypatch.setattr(BatchedSelectorScorer, "resolve", record_requests)
    service = ProgressService(monitor, slice_steps=3)
    for run in runs:
        service.submit_replay(run)
    service.run_until_complete()

    assert requests and len(requests) == len(openings), family
    extractors = {kind: FeatureExtractor(kind)
                  for kind in ("static", "dynamic")}
    unmatched = list(range(len(openings)))
    for kind, features in requests:
        for i in unmatched:
            ctx, pipe, row = openings[i]
            alone = extractors[kind].extract(
                [live_pipeline_run(ctx, pipe, row)])[0]
            if alone.tobytes() == np.asarray(features).tobytes():
                unmatched.remove(i)
                break
        else:
            raise AssertionError(
                f"{family}: a scored {kind} feature vector equals no "
                f"opening's solo extraction; openings left "
                f"{[(openings[i][1].pid, openings[i][2]) for i in unmatched]}")
    assert not unmatched, family


def _openings(monkeypatch, runs, monitor, slice_steps):
    """(run index, pid, kind, row) of every selection the flush opens
    while pooling ``runs``, in opening order."""
    openings, kinds = [], []
    snapshot, resolve = batched.live_pipeline_run, BatchedSelectorScorer.resolve

    def record_opening(ctx, pipe, row, *args, **kwargs):
        openings.append((ctx.run, pipe.pid, row))
        return snapshot(ctx, pipe, row, *args, **kwargs)

    def record_kinds(scorer, reqs):
        kinds.extend(kind for kind, _ in reqs)
        return resolve(scorer, reqs)

    monkeypatch.setattr(batched, "live_pipeline_run", record_opening)
    monkeypatch.setattr(BatchedSelectorScorer, "resolve", record_kinds)
    service = ProgressService(monitor, slice_steps=slice_steps)
    for run in runs:
        service.submit_replay(run)
    service.run_until_complete()
    monkeypatch.undo()
    # the flush scores each kind's openings in the order it extracted them
    index = {id(run): i for i, run in enumerate(runs)}
    return [(index[id(run)], pid, kind, row)
            for (run, pid, row), kind in zip(openings, kinds, strict=True)]


@pytest.mark.parametrize("family", FAMILIES)
def test_each_selection_opens_once(family, monkeypatch):
    """Under its golden trained monitor, every (session, pipeline, kind)
    of a pooled golden family opens its selection at most once, and at
    the same row whether a flush covers one row or many."""
    from golden.regenerate import MIN_OBSERVATIONS, report_monitors

    runs, _ = read_trace(GOLDEN_DIR / family)
    monitor = report_monitors(
        runs_to_pipelines(runs, MIN_OBSERVATIONS))["trained"]
    opened = {}
    for slice_steps in (1, 64):
        got = _openings(monkeypatch, runs, monitor, slice_steps)
        keys = [opening[:3] for opening in got]
        assert len(set(keys)) == len(keys), (family, slice_steps)
        opened[slice_steps] = set(got)
    assert opened[1] and opened[1] == opened[64], family
