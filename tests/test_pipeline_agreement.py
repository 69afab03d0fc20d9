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
alone, whatever else shares its batch.  The flush's array planner and
assembly reproduce, report for report, the row-by-row planner they
replaced, kept here as an oracle.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.core.monitor import (
    DYNAMIC,
    DYNAMIC_FRACTION,
    STATIC,
    ProgressMonitor,
    ProgressReport,
)
from repro.core.training import runs_to_pipelines
from repro.engine.executor import QueryExecutor
from repro.engine.run import live_pipeline_run, partial_totals, pipeline_static
from repro.features.vector import FeatureExtractor
from repro.progress.soa import FlushBatch, PipelineMeta, window_starts
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


# -- the row-by-row flush, kept as the planner's oracle ----------------------


def _oracle_fraction(meta, K, D):
    """Driver fraction at one full-width log row (``K``, ``D`` vectors)."""
    cols = meta.node_ids
    totals = meta.known_base.copy()
    idx = meta.materialized_idx
    if len(idx):
        totals[idx] = partial_totals(K, D, cols, meta.E0, meta.mat_idx,
                                     meta.mat_child_ids)[idx]
    mask = meta.driver_mask
    denom = float(totals[mask].sum())
    if denom <= 0:
        return 0.0
    return float(np.clip(K[cols][mask].sum() / denom, 0.0, 1.0))


def _oracle_needs(monitor, pid, state, requested, fraction):
    """The §4.4 policy asked once per (row, pipeline)."""
    if monitor.dynamic_selector is not None:
        if pid in state.dynamic_choices or (pid, DYNAMIC) in requested:
            return DYNAMIC, False
        if fraction() >= DYNAMIC_FRACTION:
            requested.add((pid, DYNAMIC))
            return DYNAMIC, True
    if (monitor.static_selector is None or pid in state.static_choices
            or (pid, STATIC) in requested):
        return STATIC, False
    requested.add((pid, STATIC))
    return STATIC, True


class _OracleRec:
    def __init__(self, meta, first, log):
        self.meta, self.first, self.log = meta, first, log


class _OracleItem:
    """One running pipeline at one report row."""

    def __init__(self, pid, kind, rec, row):
        self.pid, self.kind, self.rec, self.row = pid, kind, rec, row
        self.name, self.flat = None, -1


class _OracleFlush(batched.VectorizedFlush):
    """The flush as it was before it became array code: each (row,
    pipeline) planned as a ``(pid, weight, x)`` part, running ones as
    items, gathered per record and assembled row by row.  ``seen`` notes
    the edge cases the sweep met."""

    def __init__(self, monitor, seen):
        super().__init__(monitor)
        self.seen = seen

    def flush(self, sessions, scorer, stats, on_report):
        openings = []
        planned = [(session, self._plan_rows(session, openings))
                   for session in sessions]
        monitor = self.monitor
        requests, targets = [], []
        for kind, extractor in monitor.extractors.items():
            mine = [o for o in openings if o[1] == kind]
            if mine:
                X = extractor.extract([
                    live_pipeline_run(session.handle_ctx, pipe, R)
                    for session, _, pipe, R in mine])
                requests += [(kind, x) for x in X]
                targets += mine
        if requests:
            for (session, kind, pipe, _), name in zip(
                    targets, scorer.resolve(requests)):
                made = (session.state.dynamic_choices if kind == DYNAMIC
                        else session.state.static_choices)
                made[pipe.pid] = name
        needed, by_rec = set(), {}
        for session, per in planned:
            for _time, parts in per:
                for _pid, _weight, x in parts:
                    if isinstance(x, _OracleItem):
                        x.name = monitor.chosen(x.pid, x.kind, session.state)
                        needed.add(x.name)
                        by_rec.setdefault(x.rec, []).append(x)
        arrs = {}
        if by_rec:
            batch = self._gather_items(by_rec)
            for name in needed:
                arrs[name] = self.states[name].advance(batch)
        for session, per in planned:
            choices = session.state.choices
            for time, parts in per:
                overall = 0.0
                progress = {}
                active_pid, active_name = -1, None
                for pid, weight, x in parts:
                    if not isinstance(x, _OracleItem):
                        progress[pid] = x
                        if x:
                            overall += weight
                        continue
                    choices[pid] = x.name
                    value = progress[pid] = float(arrs[x.name][x.flat])
                    overall += weight * value
                    if pid > active_pid:
                        active_pid, active_name = pid, x.name
                report = ProgressReport(
                    time=time, progress=float(min(overall, 1.0)),
                    active_pid=active_pid, active_estimator=active_name,
                    pipeline_progress=progress,
                    pipeline_estimator=dict(choices))
                session.reports.append(report)
                stats.reports += 1
                if on_report is not None:
                    on_report(session, report)

    def _plan_rows(self, session, openings):
        monitor, state = self.monitor, session.state
        ctx, recs, nodes = session.handle_ctx, session.pipe_records, \
            session.handle_ctx.nodes
        if session.done and not session.pending_reports:
            self.seen.add("finished session, no due rows")
        total_e = sum(max(n.est_rows, 0.0) for n in nodes) or 1.0
        weights = {pipe.pid: sum(max(nodes[i].est_rows, 0.0)
                                 for i in pipe.node_ids) / total_e
                   for pipe in ctx.pipelines}
        terminals = [pipe.node_ids[0] for pipe in ctx.pipelines]
        log = ctx.log.as_arrays()
        times, K, D = log["times"], log["K"], log["D"]
        first_row = ctx.pipe_first_row
        requested = set()
        per = []
        previous = -1
        for R in session.pending_reports:
            parts = []
            for pipe in ctx.pipelines:
                pid = pipe.pid
                weight = weights[pid]
                if first_row[pid] > R:
                    parts.append((pid, weight, 0.0))
                    continue
                if D[R, terminals[pid]]:
                    if first_row[pid] > previous >= 0:
                        self.seen.add("started and finished between rows")
                    parts.append((pid, weight, 1.0))
                    recs.pop(pid, None)
                    continue
                rec = recs.get(pid)
                if rec is None:
                    first = int(np.searchsorted(
                        times[:R + 1], ctx.pipe_first[pid], side="left"))
                    if R - first + 1 < 2:
                        self.seen.add("one-row view")
                        parts.append((pid, weight, 0.0))
                        continue
                    meta = PipelineMeta(
                        pid=pid, query_name="(online)", db_name=ctx.db_name,
                        t_start=float(ctx.pipe_first[pid]),
                        **pipeline_static(nodes, pipe))
                    rec = recs[pid] = _OracleRec(meta, first, ctx.log)
                kind, opens = _oracle_needs(
                    monitor, pid, state, requested,
                    lambda: _oracle_fraction(rec.meta, K[R], D[R]))
                if opens:
                    openings.append((session, kind, pipe, R))
                    if (kind == DYNAMIC and R > rec.first and _oracle_fraction(
                            rec.meta, K[R - 1], D[R - 1]) < DYNAMIC_FRACTION):
                        self.seen.add("dynamic opening at the marker row")
                parts.append((pid, weight, _OracleItem(pid, kind, rec, R)))
            per.append((float(times[R]), parts))
            previous = R
        session.pending_reports.clear()
        if session.done:
            recs.clear()
        return per

    def _gather_items(self, by_rec):
        luo, plans, total = self._luo, [], 0
        for rec, items in by_rec.items():
            log = rec.log.as_arrays()
            rows = np.array([it.row for it in items], dtype=np.int64)
            timed = [i for i, it in enumerate(items)
                     if self.states[it.name] is luo]
            if timed:
                rows = np.concatenate([rows, window_starts(
                    log["times"], rec.meta.t_start, rec.first, rows[timed],
                    luo.speed_window)])
            for i, it in enumerate(items):
                it.flat = total + i
            plans.append((rec.meta, log, rows, timed))
            total += len(rows)
        w = max(meta.n_nodes for meta, *_ in plans)
        arrays = {name: np.zeros((total, w)) for name in ("K", "W", "LB",
                                                          "UB", "CK")}
        D = np.zeros((total, w), dtype=bool)
        CD = np.zeros((total, w), dtype=bool)
        times = np.empty(total)
        window_row = np.arange(total)
        ranges, lo = [], 0
        for meta, log, r, timed in plans:
            hi = lo + len(r)
            ranges.append((lo, hi))
            if timed:
                window_row[lo + np.array(timed)] = np.arange(
                    hi - len(timed), hi)
            m, sel = meta.n_nodes, np.ix_(r, meta.node_ids)
            times[lo:hi] = log["times"][r]
            for name in ("K", "W", "LB", "UB"):
                arrays[name][lo:hi, :m] = log[name][sel]
            D[lo:hi, :m] = log["D"][sel]
            if len(meta.mat_idx):
                csel = np.ix_(r, meta.mat_child_ids)
                arrays["CK"][lo:hi, meta.mat_idx] = log["K"][csel]
                CD[lo:hi, meta.mat_idx] = log["D"][csel]
            lo = hi
        return FlushBatch([meta for meta, *_ in plans], ranges, times,
                          arrays["K"], arrays["W"], arrays["LB"],
                          arrays["UB"], D, arrays["CK"], CD, window_row)


class _NotingExtractor:
    """An extractor that notes which view each opening extracts."""

    def __init__(self, extractor, kind, opened):
        self.extractor, self.kind, self.opened = extractor, kind, opened

    def extract(self, views):
        self.opened += [(self.kind, view.pid, view.n_observations,
                         float.hex(float(view.times[-1]))) for view in views]
        return self.extractor.extract(views)


def _report_key(report):
    return (float.hex(report.time), float.hex(report.progress),
            [(pid, float.hex(v)) for pid, v in
             report.pipeline_progress.items()],
            list(report.pipeline_estimator.items()),
            report.active_pid, report.active_estimator)


def test_array_flush_equals_row_by_row_oracle():
    """Pooled over every golden family's recordings, for flushes of one
    to many rows and several report cadences, the array flush serves the
    oracle's reports bit for bit (progress, both per-pipeline dicts in
    key order, the active pipeline), opens each selection at the same
    row and holds the same pipeline records after every tick."""
    from golden.regenerate import MIN_OBSERVATIONS, report_monitors

    seen = set()
    for family in FAMILIES:
        runs, _ = read_trace(GOLDEN_DIR / family)
        monitors = report_monitors(
            runs_to_pipelines(runs, MIN_OBSERVATIONS))
        trained = monitors["trained"]
        for refresh_every in (1, 5, 7):
            for slice_steps in (1, 8, 64):
                for static, dynamic, fallback in (
                        (trained.static_selector, trained.dynamic_selector,
                         "dne"),
                        (None, None, "luo")):
                    services, opened = [], ([], [])
                    for oracle in (False, True):
                        monitor = ProgressMonitor(
                            static, dynamic, fallback=fallback,
                            refresh_every=refresh_every)
                        monitor.extractors = {
                            kind: _NotingExtractor(ex, kind, opened[oracle])
                            for kind, ex in monitor.extractors.items()}
                        service = ProgressService(monitor,
                                                  slice_steps=slice_steps)
                        if oracle:
                            service._vector = _OracleFlush(monitor, seen)
                        for run in runs:
                            service.submit_replay(run)
                        services.append(service)
                    where = (family, refresh_every, slice_steps, fallback)
                    pooled, oracle = services
                    while True:
                        more = pooled.tick()
                        assert oracle.tick() == more, where
                        for a, b in zip(pooled.sessions, oracle.sessions,
                                        strict=True):
                            assert set(a.pipe_records) == \
                                set(b.pipe_records), where
                            assert len(a.reports) == len(b.reports), where
                        if not more:
                            break
                    # every selection opens at the oracle's row
                    assert opened[0] == opened[1], where
                    for a, b in zip(pooled.sessions, oracle.sessions):
                        assert ([_report_key(r) for r in a.reports]
                                == [_report_key(r) for r in b.reports]), \
                            (where, a.session_id)
    assert seen == {"finished session, no due rows",
                    "started and finished between rows", "one-row view",
                    "dynamic opening at the marker row"}, seen
