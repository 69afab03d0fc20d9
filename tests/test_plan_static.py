"""Plan-static pipeline data is built once per plan and shared.

A pipeline's kernel metadata (:class:`~repro.progress.soa.PipelineMeta`),
its ΣE weight, its terminal and its §4.3 static-feature row come from the
plan alone, so they live in one :class:`~repro.engine.run.PlanStatic` per
recording (or per plan and database, in the executor's plan layout) that
every session over it reads.
What belongs to one execution — the pipelines' start times, their
causal views' first rows, the selectors' choices — stays per session.
These tests pin both halves: sharing (one build per recording and
pipeline, streams equal to solo streams, the record freed with its
recording, one layout per plan and database, each freed with what it
belongs to), per-execution start times under a shared record, and the
cached static-feature rows' bit-equality with a fresh
:func:`~repro.features.vector._static_block` over each batch.
"""

import copy
import gc
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.core.monitor import ProgressMonitor
from repro.core.training import (
    collect_training_data,
    runs_to_pipelines,
    train_selector,
)
from repro.datagen.tpch import generate_tpch
from repro.engine.executor import ExecutorConfig, QueryExecutor, plan_layout
from repro.features.vector import (
    FeatureExtractor,
    _static_block,
    static_feature_names,
)
from repro.progress.registry import all_estimators
from repro.service import batched
from repro.service.service import ProgressService
from repro.trace import read_trace
from repro.trace.replay import replay_monitor

from golden.regenerate import MIN_OBSERVATIONS, SELECTOR_PARAMS

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
FAMILIES = ("tpch", "tpcds", "real", "fuzz", "outer_semi")


def _golden(family):
    return read_trace(GOLDEN_DIR / family)[0]


def _selector(runs, mode, names=None):
    data = collect_training_data(
        runs_to_pipelines(runs, MIN_OBSERVATIONS), all_estimators(),
        FeatureExtractor(mode))
    if names is not None:
        data = data.restrict_estimators(names)
    return train_selector(data, SELECTOR_PARAMS)


@pytest.fixture(scope="module")
def selectors():
    """Two static selectors that choose differently (the second among
    DNE and TGN only) and one dynamic selector."""
    runs = _golden("tpch")
    return (_selector(runs, "static"),
            _selector(runs, "static", ["dne", "tgn"]),
            _selector(runs, "dynamic"))


def _monitor(selectors, static=0, refresh_every=2):
    return ProgressMonitor(selectors[static], selectors[2],
                           refresh_every=refresh_every)


def _keys(reports):
    return [(float.hex(r.time), float.hex(r.progress),
             [(pid, float.hex(v)) for pid, v in r.pipeline_progress.items()],
             list(r.pipeline_estimator.items()), r.active_pid,
             r.active_estimator) for r in reports]


def _served(service):
    return {sid: _keys(reports) for sid, (_, reports)
            in service.run_until_complete().items()}


def test_replayed_sessions_share_one_plan_record(selectors, monkeypatch):
    """Three sessions over each recording, pooled: ``pipeline_static``
    runs once per (recording, pipeline), every session's context holds
    its recording's record, and every stream equals its solo stream."""
    solo = [_keys(replay_monitor(_monitor(selectors), run))
            for run in _golden("tpch")]
    runs = _golden("tpch")  # fresh recordings: no record built yet
    built = Counter()
    static = batched.pipeline_static

    def spy(nodes, pipe):
        built[id(nodes), pipe.pid] += 1
        return static(nodes, pipe)

    monkeypatch.setattr(batched, "pipeline_static", spy)
    service = ProgressService(_monitor(selectors), slice_steps=3)
    sids = [(service.submit_replay(run), i) for _ in range(3)
            for i, run in enumerate(runs)]
    served = _served(service)
    assert built and set(built.values()) == {1}, built
    assert {nodes for nodes, _ in built} <= {id(run.nodes) for run in runs}
    for sid, i in sids:
        ctx = service.sessions[sid].handle_ctx
        assert ctx.plan_static is runs[i].plan_static
        assert served[sid] == solo[i], (sid, i)
    # the shared metas carry the static-feature rows the selectors read
    assert any(meta is not None and meta.static_features is not None
               for run in runs for meta in run.plan_static.metas)


def test_plan_record_dies_with_its_recording(selectors):
    """Once the recording and the sessions replaying it are dropped, so
    is its plan record: nothing else holds it."""
    run = _golden("tpch")[0]
    service = ProgressService(_monitor(selectors), slice_steps=4)
    for _ in range(2):
        service.submit_replay(run)
    service.run_until_complete()
    record = weakref.ref(run.plan_static)
    assert service.sessions[0].handle_ctx.plan_static is record()
    assert any(meta is not None for meta in record().metas)
    del run, service
    gc.collect()
    assert record() is None


def test_live_executions_keep_their_own_start_times(
        tpch_db, tpch_planner, join_query, selectors):
    """Two live executions of one plan under different executor seeds
    start their pipelines at different times.  Served in one service
    they share the plan's ONE record — valid, since the record reads
    only the plan — and each still serves its solo stream: the start
    times the LUO kernel and the dynamic features read are the
    execution's own."""
    plan = tpch_planner.plan(join_query)
    configs = [ExecutorConfig(batch_size=256, target_observations=40,
                              seed=seed) for seed in (5, 6)]
    monitors = {"trained": lambda: _monitor(selectors),
                "luo": lambda: ProgressMonitor(fallback="luo",
                                               refresh_every=2)}
    solo = {(name, i): _keys(make().run(tpch_db, plan, "q", config)[1])
            for name, make in monitors.items()
            for i, config in enumerate(configs)}
    record = plan_layout(plan, tpch_db).plan_static
    for name, make in monitors.items():
        service = ProgressService(make(), slice_steps=2)
        sids = [service.submit(tpch_db, plan, "q", config)
                for config in configs]
        served = _served(service)
        a, b = (service.sessions[sid].handle_ctx for sid in sids)
        assert a.plan_static is b.plan_static is record
        started = np.isfinite(a.pipe_first) & np.isfinite(b.pipe_first)
        assert (a.pipe_first[started] != b.pipe_first[started]).any()
        for i, sid in enumerate(sids):
            assert served[sid] == solo[name, i], (name, i)


# ---------------------------------------------------------------------------
# the execution layout: once per plan and database, freed with the plan
# ---------------------------------------------------------------------------

def _logged(run):
    """Every logged array and scalar of a run, as bytes."""
    return ([getattr(run, name).tobytes()
             for name in ("times", "K", "R", "W", "LB", "UB", "D", "N")]
            + [float.hex(run.total_time), run.output_rows, run.spill_events])


def test_live_executions_share_one_layout(
        tpch_db, tpch_planner, join_query, selectors, monkeypatch):
    """Every execution of one plan over one database reads the layout
    its first execution built, and so one :class:`PlanStatic`: served
    together, ``pipeline_static`` runs once per pipeline of the plan."""
    plan = tpch_planner.plan(join_query)
    built = Counter()
    static = batched.pipeline_static

    def spy(nodes, pipe):
        built[id(nodes), pipe.pid] += 1
        return static(nodes, pipe)

    monkeypatch.setattr(batched, "pipeline_static", spy)
    service = ProgressService(_monitor(selectors), slice_steps=2)
    sids = [service.submit(tpch_db, plan, "q", ExecutorConfig(
        batch_size=256, target_observations=40, seed=seed))
        for seed in (5, 6, 7)]
    service.run_until_complete()
    ctxs = [service.sessions[sid].handle_ctx for sid in sids]
    layout = plan_layout(plan, tpch_db)
    for ctx in ctxs:
        assert ctx.layout is layout
        assert ctx.plan_static is layout.plan_static
        assert ctx.nodes is layout.nodes
    # per-execution state stays per execution
    assert len({id(ctx.log) for ctx in ctxs}) == 3
    assert len({id(ctx.counters) for ctx in ctxs}) == 3
    assert len({id(ctx.pipe_first) for ctx in ctxs}) == 3
    assert built and set(built.values()) == {1}, built
    assert {nodes for nodes, _ in built} == {id(layout.nodes)}


def test_one_plan_over_two_databases_gets_two_layouts(
        tpch_db, tpch_planner, join_query):
    """One plan executed over two databases, interleaved, has one layout
    per database, and every recording is bit for bit the recording of a
    copy of the plan laid out cold."""
    other = generate_tpch(lineitem_rows=3000, z=1.0, seed=43)
    plan = tpch_planner.plan(join_query)
    config = ExecutorConfig(batch_size=256, target_observations=40, seed=5)
    for db in (tpch_db, other, tpch_db, other):
        run = QueryExecutor(db, config).execute(plan, "q")
        cold = QueryExecutor(db, config).execute(copy.deepcopy(plan), "q")
        assert _logged(run) == _logged(cold)
    first, second = plan_layout(plan, tpch_db), plan_layout(plan, other)
    assert first is not second
    assert set(plan.layouts) == {id(tpch_db), id(other)}
    # the layouts differ where the databases do
    assert ([n.table_rows for n in first.nodes]
            != [n.table_rows for n in second.nodes])
    assert plan_layout(plan, tpch_db) is first


def test_plan_layout_dies_with_its_plan(tpch_db, tpch_planner, join_query,
                                        selectors):
    """Once the plan and the executions over it are dropped, so is its
    layout and the plan record in it: nothing else holds them."""
    plan = tpch_planner.plan(join_query)
    service = ProgressService(_monitor(selectors), slice_steps=4)
    for seed in (5, 6):
        service.submit(tpch_db, plan, "q", ExecutorConfig(
            batch_size=256, target_observations=40, seed=seed))
    service.run_until_complete()
    layout = weakref.ref(plan_layout(plan, tpch_db))
    record = weakref.ref(layout().plan_static)
    assert service.sessions[0].handle_ctx.layout is layout()
    assert any(meta is not None for meta in record().metas)
    del plan, service
    gc.collect()
    assert layout() is None
    assert record() is None


def test_one_recording_two_static_selectors(selectors):
    """One set of recordings served through two monitors whose static
    selectors differ: the plan records (and their cached feature rows)
    are shared, and each monitor still serves its own solo streams."""
    runs = _golden("tpch")
    streams = []
    for static in (0, 1):
        solo = [_keys(replay_monitor(_monitor(selectors, static), run))
                for run in _golden("tpch")]
        service = ProgressService(_monitor(selectors, static),
                                  slice_steps=5)
        sids = [service.submit_replay(run) for run in runs]
        served = _served(service)
        assert [served[sid] for sid in sids] == solo, static
        streams.append(solo)
    assert streams[0] != streams[1], "the static selectors never differ"


def test_cached_static_rows_equal_each_batch_static_block(
        selectors, monkeypatch):
    """For both selector kinds, over every golden family pooled, the
    static block of each ``extract`` call — stacked from the metas'
    cached rows — is bit for bit ``_static_block`` over that batch's own
    metas, whether the rows were cached by an earlier call or not."""
    n_static = len(static_feature_names())
    extract = FeatureExtractor.extract
    calls = Counter()

    def check(extractor, batch):
        cached = [meta.static_features is not None for meta in batch.metas]
        X = extract(extractor, batch)
        want = _static_block(batch.metas)
        assert X[:, :n_static].tobytes() == want.tobytes(), extractor.mode
        calls[extractor.mode, all(cached)] += 1
        return X

    monkeypatch.setattr(FeatureExtractor, "extract", check)
    runs = [run for family in FAMILIES for run in _golden(family)]
    for _ in range(2):
        service = ProgressService(_monitor(selectors, refresh_every=1),
                                  slice_steps=3)
        for run in runs:
            service.submit_replay(run)
        service.run_until_complete()
    # both kinds extracted from fresh and from cached rows
    assert {key for key in calls} == {(mode, cached)
                                      for mode in ("static", "dynamic")
                                      for cached in (False, True)}, calls
