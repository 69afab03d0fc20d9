"""The flush: every report of a scheduler round, one NumPy pass per
estimator kind.

:class:`VectorizedFlush` is the only report producer — for the pooled
service and, with one session, for the solo monitor and trace replay.
Per round it runs four phases over all sessions at once, on the
structure-of-arrays kernels of :mod:`repro.progress.soa`:

1. **plan** — sessions capture only *which* observation rows are due
   reports (:attr:`QuerySession.pending_reports`); the flush rebuilds
   each due report's :class:`~repro.core.monitor.ReportDraft` causally
   from the log rows (pipeline status as of the row, cursor advancement,
   selection bookkeeping through the monitor's own ``_selection_needs``),
   registering every running pipeline's new rows against its pool slot
   and collecting every (pipeline, row) where a selection opens;
2. **resolve** — the openings of all sessions are extracted in one
   :meth:`~repro.features.vector.FeatureExtractor.extract` call per
   selector kind and scored in one batched pass (a pipeline's kind opens
   once, at its first due row, so the first observation wins);
3. **gather/advance** — all registered rows are gathered into flat
   ``(rows, width)`` zero-padded arrays and every needed estimator kind
   advances once over the whole batch;
4. **finalize** — the per-row results are handed to
   :meth:`ProgressMonitor.finalize` via its ``values`` argument, draft by
   draft in capture order.

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
  (:class:`~repro.progress.soa.PipelineMeta`) is packed from
  :func:`~repro.engine.run.pipeline_static`, the static fields
  training's offline view is built from; the ΣE weights sum
  ``ctx.nodes`` in preorder;
* *done* status comes from the logged done-flag row at the pipeline's
  terminal (``node_ids[0]``), which is what the callback-time capture
  read;
* a slot's row set is every row since its cursor while any stateful
  kernel (LUO's speed window) still advances for it, else only the
  report row — memoryless kernels need nothing else.  The prune state
  is read during planning and updated only after finalize, so all
  drafts of one flush see the state as of the previous flush;
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

from repro.core.monitor import (
    DYNAMIC,
    PipeSnapshot,
    ProgressMonitor,
    ReportDraft,
)
from repro.engine.run import live_pipeline_run, pipeline_static
from repro.progress.soa import (
    FlushBatch,
    PipelineMeta,
    SoAPool,
    batched_states,
)


class _SlotRec:
    """Per-(session, pipeline) flush bookkeeping: the slot's lifecycle."""

    __slots__ = ("slot", "advanced", "pruned", "keep_all", "luo_alive")

    def __init__(self, slot: int, has_stateful: bool):
        self.slot = slot
        #: finalized at least once
        self.advanced = False
        #: selection became final; non-chosen kernels stop advancing
        self.pruned = False
        #: capture every row since the cursor (a stateful kernel still
        #: advances for the slot)
        self.keep_all = True
        #: the stateful (LUO) slot state still advances
        self.luo_alive = has_stateful


class _Item:
    """One running pipeline inside one draft."""

    __slots__ = ("snap", "rec", "pos", "name")

    def __init__(self, snap: PipeSnapshot, rec: _SlotRec, pos: int):
        self.snap = snap
        self.rec = rec
        self.pos = pos  # index of the report row within the slot's rows
        self.name = None


class VectorizedFlush:
    """Flush-phase driver advancing all sessions' kernels per kind at once."""

    def __init__(self, monitor: ProgressMonitor):
        self.monitor = monitor
        self.pool = SoAPool()
        self.states = batched_states(monitor.estimators, self.pool)
        self._stateful_names = {n for n, s in self.states.items()
                                if s.stateful}
        self._has_stateful = bool(self._stateful_names)
        #: session_id -> pid -> slot record
        self._recs: dict[int, dict[int, _SlotRec]] = {}
        self._to_release: list[_SlotRec] = []

    def release_session(self, session) -> None:
        """Free every slot a completed session still holds."""
        recs = self._recs.pop(session.session_id, None)
        if recs:
            for rec in recs.values():
                self._release(rec)

    def _release(self, rec: _SlotRec) -> None:
        self.pool.release(rec.slot)
        for st in self.states.values():
            st.release(rec.slot)

    # -- the flush -----------------------------------------------------------

    def flush(self, drafted, scorer, stats, on_report) -> None:
        """Produce every due report of ``drafted`` (ascending session id)."""
        slot_lists: dict[int, list[int]] = {}
        slot_meta: dict[int, object] = {}
        slot_session: dict[int, object] = {}
        slot_recs: dict[int, _SlotRec] = {}
        #: (session, kind, pipeline, row) of every selection opening
        openings: list[tuple[object, str, object, int]] = []
        planned = [
            (session, self._plan_session(session, slot_lists, slot_meta,
                                         slot_session, slot_recs, openings))
            for session in drafted]

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

        # peek each item's (now committed) choice; the kinds to advance
        no_dynamic = monitor.dynamic_selector is None
        needed: set[str] = set()
        final: set[_SlotRec] = set()
        stateful: set[_SlotRec] = set()
        for session, per in planned:
            for _draft, items in per:
                for it in items:
                    it.name = monitor._chosen(it.snap, session.state)
                    needed.add(it.name)
                    if it.snap.kind == DYNAMIC or no_dynamic:
                        final.add(it.rec)
                    if it.name in self._stateful_names:
                        stateful.add(it.rec)
        # a slot whose choice turns final on a memoryless kind in this
        # flush never reads its stateful window again: stop it right away
        for rec in final - stateful:
            rec.luo_alive = False

        # gather all rows once; one advance per kind over the whole batch
        arrs: dict[str, np.ndarray] = {}
        flat_lo: dict[int, int] = {}
        if slot_lists:
            batch = self._gather(slot_lists, slot_meta, slot_session, flat_lo)
            for name in needed - self._stateful_names:
                arrs[name] = self.states[name].advance(batch)
            if self._has_stateful:
                alive = np.zeros(len(batch), dtype=bool)
                for slot, (lo, hi) in batch.slot_rows.items():
                    if slot_recs[slot].luo_alive:
                        alive[lo:hi] = True
                if alive.any():
                    for name in self._stateful_names:
                        out = self.states[name].advance(batch,
                                                        row_mask=alive)
                        if name in needed:
                            arrs[name] = out

        # finalize in capture order; apply end-of-flush prune bookkeeping
        for session, per in planned:
            for draft, items in per:
                values = {
                    it.snap.pid: float(arrs[it.name][flat_lo[it.rec.slot]
                                                     + it.pos])
                    for it in items}
                report = monitor.finalize(draft, session.state, values=values)
                session.reports.append(report)
                stats.reports += 1
                if on_report is not None:
                    on_report(session, report)
                for it in items:
                    rec = it.rec
                    rec.advanced = True
                    if not rec.pruned:
                        if it.snap.kind == DYNAMIC or no_dynamic:
                            rec.pruned = True
                            alive_now = it.name in self._stateful_names
                            rec.keep_all = alive_now
                            rec.luo_alive = alive_now
                        else:
                            rec.keep_all = self._has_stateful

        # slots of pipelines that reported done are safe to recycle now
        for rec in self._to_release:
            self._release(rec)
        self._to_release.clear()

    # -- phase 1: causal planning --------------------------------------------

    def _plan_session(self, session, slot_lists, slot_meta, slot_session,
                      slot_recs, openings):
        monitor = self.monitor
        state = session.state
        ctx = session.handle_ctx
        recs = self._recs.setdefault(session.session_id, {})
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
        per = []
        for R in session.pending_reports:
            pipes: list[PipeSnapshot] = []
            items: list[_Item] = []
            for pipe in ctx.pipelines:
                pid = pipe.pid
                weight = state.weights[pid]
                if first_row[pid] > R:
                    pipes.append(PipeSnapshot(pid, weight, "unstarted"))
                    continue
                if D[R, terminals[pid]]:
                    pipes.append(PipeSnapshot(pid, weight, "done"))
                    rec = recs.pop(pid, None)
                    if rec is not None:
                        self._to_release.append(rec)
                    continue
                cursor = state.cursors.get(pid)
                if cursor is None:
                    # first sight: rows since the activity window opened,
                    # evaluated against the log as of row R
                    start = int(np.searchsorted(
                        times[:R + 1], ctx.pipe_first[pid], side="left"))
                    if R - start + 1 < 2:
                        pipes.append(PipeSnapshot(pid, weight, "short"))
                        continue
                meta = state.metas.get(pid)
                if meta is None:
                    meta = PipelineMeta(
                        pid=pid, query_name="(online)", db_name=ctx.db_name,
                        t_start=float(ctx.pipe_first[pid]),
                        **pipeline_static(nodes, pipe))
                    state.metas[pid] = meta
                rec = recs.get(pid)
                if rec is None:
                    slot = self.pool.pack(meta)
                    for st in self.states.values():
                        st.pack(slot)
                    rec = _SlotRec(slot, self._has_stateful)
                    recs[pid] = rec
                    slot_recs[slot] = rec
                if cursor is None:
                    lo_row = start
                elif not rec.advanced or rec.keep_all:
                    lo_row = cursor
                else:
                    lo_row = R  # memoryless-only: the report row suffices
                state.cursors[pid] = R + 1
                lst = slot_lists.setdefault(rec.slot, [])
                if rec.slot not in slot_meta:
                    slot_meta[rec.slot] = meta
                    slot_session[rec.slot] = session
                    slot_recs[rec.slot] = rec
                lst.extend(range(lo_row, R + 1))
                pos = len(lst) - 1
                kind, opens = monitor._selection_needs(
                    pid, state,
                    lambda: meta.driver_fraction(K[R], D[R]))
                if opens:
                    openings.append((session, kind, pipe, R))
                snap = PipeSnapshot(pid, weight, "running", kind=kind)
                pipes.append(snap)
                items.append(_Item(snap, rec, pos))
            per.append((ReportDraft(time=float(times[R]), pipes=pipes),
                        items))
        session.pending_reports.clear()
        return per

    # -- phase 3: gather ------------------------------------------------------

    def _gather(self, slot_lists, slot_meta, slot_session,
                flat_lo) -> FlushBatch:
        order = list(slot_lists)
        counts = [len(slot_lists[s]) for s in order]
        total = sum(counts)
        w = self.pool.width
        slots = np.empty(total, dtype=np.int64)
        times = np.empty(total)
        K = np.zeros((total, w))
        W = np.zeros((total, w))
        LB = np.zeros((total, w))
        UB = np.zeros((total, w))
        D = np.zeros((total, w), dtype=bool)
        CK = np.zeros((total, w))
        CD = np.zeros((total, w), dtype=bool)
        slot_rows: dict[int, tuple[int, int]] = {}
        lo = 0
        for slot, cnt in zip(order, counts):
            hi = lo + cnt
            slots[lo:hi] = slot
            slot_rows[slot] = (lo, hi)
            flat_lo[slot] = lo
            meta = slot_meta[slot]
            log = slot_session[slot].handle_ctx.log.as_arrays()
            r = np.asarray(slot_lists[slot])
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
        ordinals = []
        for s_i in range(max(counts)):
            ordinals.append(np.array(
                [slot_rows[s][0] + s_i
                 for s, c in zip(order, counts) if c > s_i],
                dtype=np.int64))
        return FlushBatch(self.pool, slots, times, K, W, LB, UB, D, CK, CD,
                          slot_rows, ordinals)
