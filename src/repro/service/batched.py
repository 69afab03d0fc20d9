"""The flush: every report of a scheduler round, one NumPy pass per
estimator kind.

:class:`VectorizedFlush` is the only report producer — for the pooled
service and, with one session, for the solo monitor and trace replay.
Per round it runs these phases over all sessions at once, on the
structure-of-arrays kernels of :mod:`repro.progress.soa`:

1. **plan** — sessions capture only *which* observation rows are due
   reports (:attr:`QuerySession.pending_reports`).  The flush reads
   each session's log once and lays the due rows of all sessions out as
   ``(reports, pipelines)`` status arrays: a pipeline is *unstarted*
   (``pipe_first_row``), *done* (the terminal's logged done flag), *too
   short* (a causal view of one row, found by ``searchsorted`` over the
   logged times) or *running*.  Each running (session, pipeline) is a
   run over consecutive running cells; the monitor's §4.4 policy
   (:meth:`~repro.core.monitor.ProgressMonitor.selection_needs`) is
   applied once per run, from the driver fractions of its rows, and
   splits its cells into a static and a dynamic segment.  Newly running
   pipelines get their kernel metadata on their session, and every
   (pipeline, row) where a selection opens is collected;
2. **resolve** — the openings of all sessions are extracted in one
   :meth:`~repro.features.vector.FeatureExtractor.extract` call per
   selector kind and scored in one batched pass (a pipeline's kind opens
   once, at its first due row, so the first observation wins);
3. **choose** — each segment's committed estimator
   (:meth:`~repro.core.monitor.ProgressMonitor.chosen`);
4. **gather/advance** — every running cell's report row, then the
   speed-window start of each cell LUO serves, are gathered as index
   arrays into flat ``(rows, width)`` arrays zero-padded to the flush's
   widest pipeline (one full-width log read per session, then one
   column gather), next to each row's pipeline metadata, and every
   chosen estimator kind advances once over the whole batch;
5. **assemble** — per (report, pipeline) the value is ``1.0`` done, the
   kernel's value running and ``+0.0`` otherwise; ``overall`` sums the
   ΣE-weighted values (eq. 5) column by column in pid order, bit for bit
   the sum over only the pipelines that contribute (every partial sum is
   ``>= +0.0``, so the ``+0.0`` terms are exact).  Then, in capture
   order, each :class:`~repro.core.monitor.ProgressReport` gets its own
   per-pipeline dicts and commits each segment's choice at its first
   row.

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
  training's offline view is built from, once per session: it lives in
  ``QuerySession.pipe_records`` from the pipeline's first running report
  row until its done report is built, or until the session's last rows
  are planned.  The flush itself keeps nothing across rounds; the ΣE
  weights sum ``ctx.nodes`` in preorder;
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

from repro.core.monitor import DYNAMIC, STATIC, ProgressMonitor, ProgressReport
from repro.engine.run import live_pipeline_run, pipeline_static
from repro.progress.soa import (
    BatchedLuoState,
    FlushBatch,
    PipelineMeta,
    batched_states,
    padded,
    window_starts,
)


class _Run:
    """One running pipeline of one session over a flush's due rows: the
    plan's cells ``c0 .. c0 + n - 1``, those before ``split`` under the
    static selector kind, the rest under the dynamic one."""

    __slots__ = ("s", "pid", "meta", "c0", "n", "split")

    def __init__(self, s, pid, meta, c0, n, split):
        self.s, self.pid, self.meta = s, pid, meta
        self.c0, self.n, self.split = c0, n, split


class _Plan:
    """A flush's due rows over all its sessions, as status arrays.

    Report ``i`` is log row ``rows[i]`` of session ``sess[i]``; each
    session's reports are consecutive (``bounds``), in session order.
    The ``(reports, pipelines)`` status arrays are padded to the session
    with the most pipelines.  A running *cell* is a (report, pipeline)
    whose value a kernel gives; cells are sorted by session, pipeline and
    row, so each :class:`_Run` owns consecutive cells.
    """

    __slots__ = ("sessions", "logs", "bounds", "rows", "sess", "times",
                 "weights", "firsts", "done", "running", "cell_report",
                 "cell_pid", "runs")


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
        plan = self._plan(sessions, openings)

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
        if plan is None:
            return

        # each run's (now committed) choice per kind: the cells of a kind
        # form one segment
        names = list(self.states)
        index = {name: c for c, name in enumerate(names)}
        segments = []
        for run in plan.runs:
            state = plan.sessions[run.s].state
            for kind, lo, hi in ((STATIC, 0, run.split),
                                 (DYNAMIC, run.split, run.n)):
                if lo < hi:
                    segments.append((run, run.c0 + lo, run.c0 + hi, index[
                        monitor.chosen(run.pid, kind, state)]))
        starts = [lo for _, lo, _, _ in segments]
        codes = [c for *_, c in segments]
        cells = len(plan.cell_pid)
        # per cell, the index of its estimator in ``names``
        code = np.repeat(np.array(codes, dtype=np.int64),
                         np.diff(starts + [cells]))
        # gather the rows once (batch row c is cell c); one advance per
        # kind over the whole batch
        values = np.zeros(cells)
        if cells:
            batch = self._gather(plan, [
                (run, lo, hi) for run, lo, hi, c in segments
                if self.states[names[c]] is self._luo])
            for c in np.unique(code).tolist():
                mine = code == c
                values[mine] = self.states[names[c]].advance(batch)[
                    :cells][mine]
        # the rows at which each segment's choice is (re)committed
        commits = sorted(zip(plan.cell_report[starts].tolist(),
                             plan.cell_pid[starts].tolist(),
                             [names[c] for c in codes]))
        self._assemble(plan, values, code, names, commits, stats, on_report)

    # -- phase 1: causal planning --------------------------------------------

    def _plan(self, sessions, openings) -> _Plan | None:
        """Each pipeline's status at every due row, read causally from the
        logs; records the openings.  None when no session has due rows."""
        planned = []
        for session in sessions:
            if session.pending_reports:
                planned.append(session)
            elif session.done:
                session.pipe_records.clear()
        if not planned:
            return None
        counts = [len(session.pending_reports) for session in planned]
        S, T = len(planned), sum(counts)
        P = max(len(session.handle_ctx.pipelines) for session in planned)
        never = np.iinfo(np.int64).max  # a slot a session has no pipeline at
        rows = np.empty(T, dtype=np.int64)
        times = np.empty(T)
        terminal_done = np.zeros((T, P), dtype=bool)
        first_row = np.full((S, P), never)
        firsts = np.full((S, P), never)
        weights = np.zeros((S, P))
        logs = []
        lo = 0
        for s, session in enumerate(planned):
            ctx = session.handle_ctx
            pipes = ctx.pipelines
            p = len(pipes)
            state = session.state
            if state.weights is None:
                nodes = ctx.nodes
                total_e = sum(max(n.est_rows, 0.0) for n in nodes) or 1.0
                state.weights = np.array([
                    sum(max(nodes[i].est_rows, 0.0) for i in pipe.node_ids)
                    / total_e for pipe in pipes])
            log = ctx.log.as_arrays()
            logs.append(log)
            hi = lo + counts[s]
            r = rows[lo:hi]
            r[:] = session.pending_reports
            session.pending_reports.clear()
            times[lo:hi] = log["times"][r]
            terminal_done[lo:hi, :p] = log["D"][
                r[:, None], [pipe.node_ids[0] for pipe in pipes]]
            first_row[s, :p] = ctx.pipe_first_row
            # the causal view's first row: since the activity window opened
            firsts[s, :p] = np.searchsorted(log["times"], ctx.pipe_first,
                                            side="left")
            weights[s, :p] = state.weights
            lo = hi
        bounds = np.cumsum([0] + counts)
        sess = np.repeat(np.arange(S), counts)
        at = rows[:, None]
        started = first_row[sess] <= at
        done = started & terminal_done
        # a view of fewer than two rows is too short to report on
        running = started & ~done & (firsts[sess] < at)
        pid, report = np.nonzero(running.T)
        order = np.argsort(sess[report], kind="stable")
        report, pid = report[order], pid[order]
        heads = np.flatnonzero(np.diff(sess[report] * P + pid, prepend=-1))

        monitor = self.monitor
        runs = []
        opened = []
        for c0, c1, s, p in zip(heads.tolist(), heads[1:].tolist() + [len(pid)],
                                sess[report[heads]].tolist(),
                                pid[heads].tolist()):
            session = planned[s]
            recs = session.pipe_records
            meta = recs.get(p)
            if meta is None:
                ctx = session.handle_ctx
                meta = recs[p] = PipelineMeta(
                    pid=p, query_name="(online)", db_name=ctx.db_name,
                    t_start=float(ctx.pipe_first[p]),
                    **pipeline_static(ctx.nodes, ctx.pipelines[p]))
            R = rows[report[c0:c1]]
            log = logs[s]
            split, static_opens, dynamic_opens = monitor.selection_needs(
                p, session.state, c1 - c0,
                lambda: meta.driver_fraction(log["K"][R], log["D"][R]))
            if static_opens:
                opened.append((int(report[c0]), p, STATIC))
            if dynamic_opens:
                opened.append((int(report[c0 + split]), p, DYNAMIC))
            runs.append(_Run(s, p, meta, c0, c1 - c0, split))
        # in session, then row, then pid order
        for i, p, kind in sorted(opened):
            session = planned[sess[i]]
            openings.append((session, kind, session.handle_ctx.pipelines[p],
                             int(rows[i])))

        ended = np.logical_or.reduceat(done, bounds[:-1], axis=0)
        for s, session in enumerate(planned):
            recs = session.pipe_records
            if session.done:
                # its last rows are planned: no flush reads its records
                recs.clear()
            else:
                for p in np.flatnonzero(ended[s]).tolist():
                    recs.pop(p, None)

        plan = _Plan()
        plan.sessions, plan.logs, plan.bounds = planned, logs, bounds
        plan.rows, plan.sess, plan.times = rows, sess, times
        plan.weights, plan.firsts = weights, firsts
        plan.done, plan.running = done, running
        plan.cell_report, plan.cell_pid, plan.runs = report, pid, runs
        return plan

    # -- phase 4: gather ------------------------------------------------------

    def _gather(self, plan: _Plan, timed) -> FlushBatch:
        """Lay out every cell's report row, in cell order, then the window
        start of each cell LUO serves: ``timed`` lists those cells as
        ``(run, lo, hi)`` segments."""
        runs = plan.runs
        cells = len(plan.cell_pid)
        metas = [run.meta for run in runs]
        ranges = [(run.c0, run.c0 + run.n) for run in runs]
        sources = [run.s for run in runs]  # each range's session
        log_rows = [plan.rows[plan.cell_report]]
        window_row = np.arange(cells + sum(hi - lo for _, lo, hi in timed))
        top = cells
        for run, lo, hi in timed:
            log_rows.append(window_starts(
                plan.logs[run.s]["times"], run.meta.t_start,
                int(plan.firsts[run.s, run.pid]),
                plan.rows[plan.cell_report[lo:hi]], self._luo.speed_window))
            window_row[lo:hi] = np.arange(top, top + hi - lo)
            metas.append(run.meta)
            ranges.append((top, top + hi - lo))
            sources.append(run.s)
            top += hi - lo
        log_rows = np.concatenate(log_rows)
        owner = np.repeat(np.arange(len(metas)),
                          [hi - lo for lo, hi in ranges])
        # the batch rows of each session
        session_of = np.array(sources)[owner]
        order = np.argsort(session_of, kind="stable")
        edges = np.flatnonzero(np.diff(session_of[order], prepend=-1))

        # full-width log rows, one gather per session; column ``width`` is
        # an all-zero pad every run's column table can point at
        total = len(log_rows)
        width = max(log["K"].shape[1] for log in plan.logs)
        full = {name: np.empty((total, width + 1),
                               dtype=bool if name == "D" else float)
                for name in ("K", "W", "LB", "UB", "D")}
        for arr in full.values():
            arr[:, width] = 0
        times = np.empty(total)
        for a, b in zip(edges.tolist(), edges[1:].tolist() + [total]):
            at = order[a:b]
            log = plan.logs[session_of[at[0]]]
            r = log_rows[at]
            times[at] = log["times"][r]
            m = log["K"].shape[1]
            for name, arr in full.items():
                arr[at, :m] = log[name][r]

        w = max(meta.n_nodes for meta in metas)
        cols = padded([meta.node_ids for meta in metas], w, width,
                      np.int64)[owner]
        K, W, LB, UB, D = (np.take_along_axis(full[name], cols, axis=1)
                           for name in ("K", "W", "LB", "UB", "D"))
        child = np.full((len(metas), w), width)
        for j, meta in enumerate(metas):
            if len(meta.mat_idx):
                child[j, meta.mat_idx] = meta.mat_child_ids
        child = child[owner]
        CK = np.take_along_axis(full["K"], child, axis=1)
        CD = np.take_along_axis(full["D"], child, axis=1)
        return FlushBatch(metas, ranges, times, K, W, LB, UB, D, CK, CD,
                          window_row)

    # -- phase 5: assemble ----------------------------------------------------

    def _assemble(self, plan: _Plan, values, code, names, commits, stats,
                  on_report) -> None:
        """Every report, in session then row order: the ΣE-weighted
        pipeline values (eq. 5).  ``values`` and ``code`` hold each cell's
        kernel value and estimator index in ``names``; ``commits`` the
        ``(report, pid, name)`` at which a pipeline's choice is
        (re)committed, sorted."""
        T, P = plan.running.shape
        cell = plan.cell_report, plan.cell_pid
        # per (report, pipeline): 1.0 done, the kernel value running,
        # else +0.0
        X = plan.done.astype(float)
        X[cell] = values
        chosen = np.full((T, P), len(names))
        chosen[cell] = code
        names = names + [None]
        # a sequential sum over the pipelines in pid order: every partial
        # sum is >= +0.0, so the +0.0 terms are exact
        weights = plan.weights[plan.sess]
        overall = np.zeros(T)
        for p in range(P):
            overall += weights[:, p] * X[:, p]
        progress = np.minimum(overall, 1.0).tolist()
        running = plan.running
        active = np.where(running.any(axis=1),
                          P - 1 - running[:, ::-1].argmax(axis=1), -1)
        active_names = [names[c] for c in
                        chosen[np.arange(T), active].tolist()]
        active = active.tolist()
        times = plan.times.tolist()
        commits.append((T, 0, None))
        k = 0
        bounds = plan.bounds.tolist()
        for s, session in enumerate(plan.sessions):
            choices = session.state.choices
            reports = session.reports
            lo, hi = bounds[s], bounds[s + 1]
            rows = X[lo:hi, :len(session.handle_ctx.pipelines)].tolist()
            for i, row in enumerate(rows, lo):
                while commits[k][0] == i:
                    _, pid, name = commits[k]
                    choices[pid] = name
                    k += 1
                report = ProgressReport(
                    time=times[i], progress=progress[i],
                    active_pid=active[i], active_estimator=active_names[i],
                    pipeline_progress=dict(enumerate(row)),
                    pipeline_estimator=dict(choices))
                reports.append(report)
                stats.reports += 1
                if on_report is not None:
                    on_report(session, report)
