"""The flush: every report of a scheduler round, one NumPy pass per
estimator kind.

:class:`VectorizedFlush` is the only report producer — for the pooled
service and, with one session, for the solo monitor and trace replay.
Per round it runs these phases over all sessions at once, on the
structure-of-arrays kernels of :mod:`repro.progress.soa`:

1. **plan** — sessions capture only *which* observation rows are due
   reports (:attr:`QuerySession.pending_reports`); the flush reads each
   pipeline's status at each due row causally from the log rows and
   records it as a ``(pid, weight, x)`` part: ``x`` is ``0.0`` for a
   pipeline not yet started or with too short a view, ``1.0`` for a
   done one and an :class:`_Item` for a running one, whose selector kind
   comes from the monitor's policy
   (:meth:`~repro.core.monitor.ProgressMonitor.selection_needs`).  It
   builds the kernel metadata of each newly running pipeline into a
   record on its session and collects every (pipeline, row) where a
   selection opens;
2. **resolve** — the openings of all sessions are extracted in one
   :meth:`~repro.features.vector.FeatureExtractor.extract` call per
   selector kind and scored in one batched pass (a pipeline's kind opens
   once, at its first due row, so the first observation wins);
3. **choose** — each running item's committed estimator
   (:meth:`~repro.core.monitor.ProgressMonitor.chosen`);
4. **gather/advance** — every running pipeline's report rows, plus the
   speed-window start of each report row LUO serves, are gathered into
   flat ``(rows, width)`` arrays zero-padded to the flush's widest
   pipeline, next to each row's pipeline metadata, and every chosen
   estimator kind advances once over the whole batch;
5. **assemble** — row by row in capture order, each
   :class:`~repro.core.monitor.ProgressReport` sums the ΣE-weighted
   pipeline values (eq. 5) and commits each running pipeline's choice.

Causality notes (why each report equals the chosen estimator's
``estimate`` on the causal prefix of its row):

* live executions and replayed recordings present one surface: the
  plan as a preorder :class:`~repro.engine.run.NodeInfo` list
  (``ctx.nodes``) with pipelines exposing ``pid`` / ``node_ids`` /
  ``driver_ids``, an append-only observation log
  (``ctx.log.as_arrays(stop)``, prefix views) and the write-once start
  vectors ``pipe_first`` (start time) and ``pipe_first_row`` (first row
  whose observation saw the pipeline started).  A pipeline has started
  at row ``R`` iff ``pipe_first_row[pid] <= R``.  Live, the executor
  records the log length when the first charge lands, so zero-cost
  charges that start a pipeline at exactly ``times[R]`` *after*
  observation ``R`` fired do not count; replay keeps its recorded rule
  ``t_start <= times[R]``;
* a pipeline's kernel metadata
  (:class:`~repro.progress.soa.PipelineMeta`) is built from
  :func:`~repro.engine.run.pipeline_static`, the static fields
  training's offline view is built from, once per session: the record
  (:class:`_PipeRec`) lives in ``QuerySession.pipe_records`` from the
  pipeline's first running report row until its done report is built,
  or until the session's last rows are planned.  The flush itself keeps
  nothing across rounds; the ΣE weights sum ``ctx.nodes`` in preorder;
* *done* status comes from the report row's logged done flag at the
  pipeline's terminal (``node_ids[0]``);
* every kernel is a function of the rows it is handed, so a pipeline's
  rows are its report rows, plus, for each report row LUO serves, the
  first row of its trailing speed window
  (:func:`~repro.progress.soa.window_starts`, found by a search over the
  logged times rather than a scan).  That row lies in the pipeline's
  causal view as of the report row, and what else shares the batch
  does not change a row's value;
* each selection opening's features come from the causal trajectory
  view :func:`~repro.engine.run.live_pipeline_run` builds at its row,
  which reads only log rows up to it.  All openings of a round, across
  sessions, go through one ``extract`` call per selector kind after
  planning — the logs do not grow inside a flush, and a pipeline's
  feature row does not depend on what else shares its batch, so each
  vector equals extracting that opening alone.
"""

from __future__ import annotations

import numpy as np

from repro.core.monitor import DYNAMIC, ProgressMonitor, ProgressReport
from repro.engine.run import live_pipeline_run, pipeline_static
from repro.progress.soa import (
    BatchedLuoState,
    FlushBatch,
    PipelineMeta,
    batched_states,
    window_starts,
)


class _PipeRec:
    """One running pipeline of one session, as the flush reads it."""

    __slots__ = ("meta", "first", "log")

    def __init__(self, meta: PipelineMeta, first: int, log):
        self.meta = meta
        #: the first log row of the pipeline's causal view
        self.first = first
        self.log = log


class _Item:
    """One running pipeline at one report row."""

    __slots__ = ("pid", "kind", "rec", "row", "name", "flat")

    def __init__(self, pid: int, kind: str, rec: _PipeRec, row: int):
        self.pid = pid
        self.kind = kind  # the selector kind applying at this row
        self.rec = rec
        self.row = row  # the report's log row
        self.name = None  # the chosen estimator
        self.flat = -1  # the report row's index in the flush batch


class VectorizedFlush:
    """Flush-phase driver advancing all sessions' kernels per kind at once."""

    def __init__(self, monitor: ProgressMonitor):
        self.monitor = monitor
        self.states = batched_states(monitor.estimators)
        #: the LUO kernel, if pooled: its report rows also gather the row
        #: their speed window opens at
        self._luo = next((st for st in self.states.values()
                          if isinstance(st, BatchedLuoState)), None)

    # -- the flush -----------------------------------------------------------

    def flush(self, sessions, scorer, stats, on_report) -> None:
        """Produce every due report of ``sessions`` (ascending session id).

        A finished session in ``sessions`` may have no rows left; planning
        it drops its pipeline records.
        """
        #: (session, kind, pipeline, row) of every selection opening
        openings: list[tuple[object, str, object, int]] = []
        planned = [(session, self._plan_session(session, openings))
                   for session in sessions]

        # one feature extraction per selector kind over the round's
        # openings, then one batched scoring pass
        monitor = self.monitor
        requests: list[tuple[str, np.ndarray]] = []
        targets: list[tuple[object, str, object, int]] = []
        for kind, extractor in monitor.extractors.items():
            mine = [o for o in openings if o[1] == kind]
            if mine:
                X = extractor.extract([
                    live_pipeline_run(session.handle_ctx, pipe, R)
                    for session, _, pipe, R in mine])
                requests += [(kind, x) for x in X]
                targets += mine
        if requests:
            names = scorer.resolve(requests)
            for (session, kind, pipe, _), name in zip(targets, names):
                made = (session.state.dynamic_choices if kind == DYNAMIC
                        else session.state.static_choices)
                made[pipe.pid] = name

        # each item's (now committed) choice; the kinds to advance
        needed: set[str] = set()
        by_rec: dict[_PipeRec, list[_Item]] = {}
        for session, per in planned:
            for _time, parts in per:
                for _pid, _weight, x in parts:
                    if isinstance(x, _Item):
                        x.name = monitor.chosen(x.pid, x.kind, session.state)
                        needed.add(x.name)
                        by_rec.setdefault(x.rec, []).append(x)

        # gather the rows once; one advance per kind over the whole batch
        arrs: dict[str, np.ndarray] = {}
        if by_rec:
            batch = self._gather(by_rec)
            for name in needed:
                arrs[name] = self.states[name].advance(batch)

        # assemble in capture order (eq. 5), committing each choice
        for session, per in planned:
            choices = session.state.choices
            for time, parts in per:
                overall = 0.0
                progress: dict[int, float] = {}
                active_pid, active_name = -1, None
                for pid, weight, x in parts:
                    if not isinstance(x, _Item):
                        progress[pid] = x
                        if x:  # done
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

    # -- phase 1: causal planning --------------------------------------------

    def _plan_session(self, session, openings):
        monitor = self.monitor
        state = session.state
        ctx = session.handle_ctx
        recs = session.pipe_records
        nodes = ctx.nodes
        if state.weights is None:
            total_e = sum(max(n.est_rows, 0.0) for n in nodes) or 1.0
            state.weights = {
                pipe.pid: sum(max(nodes[i].est_rows, 0.0)
                              for i in pipe.node_ids) / total_e
                for pipe in ctx.pipelines}
        terminals = [pipe.node_ids[0] for pipe in ctx.pipelines]
        log = ctx.log.as_arrays()
        times, K, D = log["times"], log["K"], log["D"]
        first_row = ctx.pipe_first_row
        #: (pid, kind) openings made in this planning; the flush resolves
        #: them all, after which the committed choices guard instead
        requested: set[tuple[int, str]] = set()
        per = []
        for R in session.pending_reports:
            parts = []
            for pipe in ctx.pipelines:
                pid = pipe.pid
                weight = state.weights[pid]
                if first_row[pid] > R:
                    parts.append((pid, weight, 0.0))
                    continue
                if D[R, terminals[pid]]:
                    parts.append((pid, weight, 1.0))
                    recs.pop(pid, None)
                    continue
                rec = recs.get(pid)
                if rec is None:
                    # the causal view's rows: since the activity window
                    # opened, evaluated against the log as of row R
                    first = int(np.searchsorted(
                        times[:R + 1], ctx.pipe_first[pid], side="left"))
                    if R - first + 1 < 2:
                        parts.append((pid, weight, 0.0))
                        continue
                    meta = PipelineMeta(
                        pid=pid, query_name="(online)", db_name=ctx.db_name,
                        t_start=float(ctx.pipe_first[pid]),
                        **pipeline_static(nodes, pipe))
                    rec = recs[pid] = _PipeRec(meta, first, ctx.log)
                kind, opens = monitor.selection_needs(
                    pid, state, requested,
                    lambda: rec.meta.driver_fraction(K[R], D[R]))
                if opens:
                    openings.append((session, kind, pipe, R))
                parts.append((pid, weight, _Item(pid, kind, rec, R)))
            per.append((float(times[R]), parts))
        session.pending_reports.clear()
        if session.done:
            # its last rows are planned: no flush reads its records again
            recs.clear()
        return per

    # -- phase 3: gather ------------------------------------------------------

    def _gather(self, by_rec: dict[_PipeRec, list[_Item]]) -> FlushBatch:
        """Lay out every pipeline's rows: its report rows, then the window
        start of each report row served by LUO."""
        luo = self._luo
        plans = []
        total = 0
        for rec, items in by_rec.items():
            log = rec.log.as_arrays()
            rows = np.array([it.row for it in items], dtype=np.int64)
            timed = [i for i, it in enumerate(items)
                     if self.states[it.name] is luo]
            if timed:
                starts = window_starts(log["times"], rec.meta.t_start,
                                       rec.first, rows[timed],
                                       luo.speed_window)
                rows = np.concatenate([rows, starts])
            for i, it in enumerate(items):
                it.flat = total + i
            plans.append((rec.meta, log, rows, timed))
            total += len(rows)
        w = max(meta.n_nodes for meta, *_ in plans)
        times = np.empty(total)
        K = np.zeros((total, w))
        W = np.zeros((total, w))
        LB = np.zeros((total, w))
        UB = np.zeros((total, w))
        D = np.zeros((total, w), dtype=bool)
        CK = np.zeros((total, w))
        CD = np.zeros((total, w), dtype=bool)
        window_row = np.arange(total)
        ranges = []
        lo = 0
        for meta, log, r, timed in plans:
            hi = lo + len(r)
            ranges.append((lo, hi))
            if timed:
                window_row[lo + np.array(timed)] = np.arange(
                    hi - len(timed), hi)
            m = meta.n_nodes
            sel = np.ix_(r, meta.node_ids)
            times[lo:hi] = log["times"][r]
            K[lo:hi, :m] = log["K"][sel]
            W[lo:hi, :m] = log["W"][sel]
            LB[lo:hi, :m] = log["LB"][sel]
            UB[lo:hi, :m] = log["UB"][sel]
            D[lo:hi, :m] = log["D"][sel]
            if len(meta.mat_idx):
                csel = np.ix_(r, meta.mat_child_ids)
                CK[lo:hi, meta.mat_idx] = log["K"][csel]
                CD[lo:hi, meta.mat_idx] = log["D"][csel]
            lo = hi
        return FlushBatch([meta for meta, *_ in plans], ranges, times, K, W,
                          LB, UB, D, CK, CD, window_row)
