"""The flush: every report of a scheduler round, one NumPy pass per
estimator kind.

:class:`VectorizedFlush` is the only report producer — for the pooled
service and, with one session, for the solo monitor and trace replay.
Per round it runs these phases over all sessions at once, in data
order, on the structure-of-arrays kernels of :mod:`repro.progress.soa`:

1. **plan** — sessions capture only *which* observation rows are due
   reports (:attr:`QuerySession.pending_reports`).  The flush reads
   each session's log once and lays the due rows of all sessions out as
   ``(reports, pipelines)`` status arrays: a pipeline is *unstarted*
   (``pipe_first_row``), *done* (the terminal's logged done flag), *too
   short* (a causal view of one row: its first row, found once per
   session and pipeline by a ``searchsorted`` over the logged times,
   is the report row) or *running*.  Each running (session, pipeline)
   is a run over consecutive running cells; a pipeline's kernel
   metadata, terminal and ΣE weight are read off its plan record;
2. **gather** — the flush lays out two tables once.  Its row table
   holds every log row a batch of the flush can read, keyed by
   (session, log row): each running cell's report row, the row its LUO
   speed window opens at (one :func:`~repro.progress.soa.window_starts`
   call over all cells) and, for each run still waiting for a dynamic
   choice, its view rows from ``firsts`` through its last due row —
   gathered full-width in one loop over the sessions.  Its metadata
   table (:class:`~repro.progress.soa.MetaTable`) lays each
   :class:`~repro.progress.soa.PipelineMeta` field out once over the
   runs.  Every batch is an index into them: a ``searchsorted`` of its
   rows' keys, one fancy index per array through each run's node
   columns, and its metadata rows read off the table by run, sliced to
   the batch's width.  The report batch is one row per running cell,
   zero-padded to its widest pipeline;
3. **select** — the monitor's §4.4 policy
   (:meth:`~repro.core.monitor.ProgressMonitor.selection_needs`) splits
   each run into a static and a dynamic segment, from the batch's
   driver fractions (cached for the kernels).  Per selector kind, the
   openings' causal views are indexed out of the same tables (one
   window search over the batch), extracted in
   one :meth:`~repro.features.vector.FeatureExtractor.extract` call and
   scored in one batched pass (a pipeline's kind opens once, at its
   first due row, so the first observation wins); then each segment's
   estimator is chosen (:meth:`~repro.core.monitor.ProgressMonitor.chosen`);
4. **advance** — the speed-window starts of the cells LUO serves are
   indexed out as a batch of their own, then every chosen estimator kind
   advances once over the whole report batch and keeps the cells it
   serves: the kinds share the batch's cached row sums, which advancing
   each kind over only its own cells would rebuild per kind, and that
   measured no faster;
5. **assemble** — per (report, pipeline) the value is ``1.0`` done, the
   kernel's value running and ``+0.0`` otherwise; ``overall`` sums the
   ΣE-weighted values (eq. 5) column by column in pid order, bit for bit
   the sum over only the pipelines that contribute (every partial sum is
   ``>= +0.0``, so the ``+0.0`` terms are exact).  The round's reports
   are one :class:`~repro.trace.format.ReportBlock`, built with array
   code and no per-report loop: a pipeline's committed choice at a row is
   its running cell's estimator, else the last one above it in the
   session, else the choice the session held before the round (a forward
   fill down each session's rows); each row lists its choices in the
   insertion order of the session's ``MonitorState.choices``, each
   segment's choice committed at its first row; each row's values run
   over the session's own pipelines.

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
  training's offline view is built from, once per plan record
  (:class:`~repro.engine.run.PlanStatic`, ``ctx.plan_static``): a
  recording's is shared by every session replaying it and lives as long
  as the recording; live executions of one plan over one database share
  their plan layout's, which lives as long as the plan.  The record holds
  only what the plan fixes — the metadata, the terminals, the ΣE
  weights (``ctx.nodes`` summed in preorder) and the §4.3 static-feature
  rows — and nothing read from a log or a selector.  Each execution's
  pipeline start times (``ctx.pipe_first``) are laid out per run as the
  flush's :class:`~repro.progress.soa.MetaTable` ``t_start`` column,
  and each started pipeline's first view row is kept on its session
  (``QuerySession.view_first``).  Each run reads its metadata off the
  plan record; the flush itself keeps nothing across rounds;
* *done* status comes from the report row's logged done flag at the
  pipeline's terminal (``node_ids[0]``);
* every kernel is a function of the rows it is handed, so a pipeline's
  rows are its report rows, plus, in the window batch, the first row of
  the trailing speed window of each report row LUO serves
  (:func:`~repro.progress.soa.window_starts`, found by a bisection over
  the logged times rather than a scan).  That row lies in the pipeline's
  causal view as of the report row, and what else shares a batch does
  not change a row's value;
* a selection opening's view is its pipeline's log rows from
  ``firsts`` through the opening's row, with the session's metadata and
  ``N`` fixed at that row: :func:`~repro.engine.run.live_pipeline_run`'s
  view there.  Static features read only the metadata, so a static
  opening's range is empty.  All openings of a round, across sessions,
  go through one ``extract`` call per selector kind — the logs do not
  grow inside a flush, and a feature row does not depend on what shares
  its batch.
"""

from __future__ import annotations

import numpy as np

from repro.catalog.table import _expand_ranges
from repro.core.monitor import DYNAMIC, STATIC, ProgressMonitor
from repro.engine.run import pipeline_static
from repro.progress.soa import (
    BatchedLuoState,
    FlushBatch,
    MetaTable,
    PipelineMeta,
    batched_states,
    padded,
    window_starts,
)
from repro.service.session import NEVER
from repro.trace.format import ReportBlock


class _Run:
    """One running pipeline of one session over a flush's due rows, run
    ``i`` of the plan: the plan's cells ``c0 .. c0 + n - 1``, those
    before ``split`` (set by the §4.4 policy) under the static selector
    kind, the rest dynamic."""

    __slots__ = ("i", "s", "pid", "meta", "c0", "n", "split")

    def __init__(self, i, s, pid, meta, c0, n):
        self.i, self.s, self.pid, self.meta = i, s, pid, meta
        self.c0, self.n = c0, n


class _Plan:
    """A flush's due rows over all its sessions, as status arrays.

    Report ``i`` is log row ``rows[i]`` of session ``sess[i]``; each
    session's reports are consecutive (``bounds``), in session order.
    The ``(reports, pipelines)`` status arrays are padded to the session
    with the most pipelines; ``widths`` holds each session's own count.
    A running *cell* is a (report, pipeline) whose value a kernel gives;
    cells are sorted by session, pipeline and row, so each :class:`_Run`
    owns consecutive cells (``cell_run``).

    A log row's *key* is ``offsets[s] + row`` for row ``row`` of session
    ``s``: its index in ``log_times``, the sessions' logged times laid
    end to end.  ``cell_key`` is each cell's report row and ``run_first``
    each run's first view row (``firsts``), as keys; ``run_start`` is each
    run's start time in its session's execution.  The row table
    (:meth:`VectorizedFlush._gather`) holds the rows ``keys`` (sorted)
    as ``table`` arrays at the widest log's width plus an all-zero pad
    column; ``cols`` and ``child`` hold, per run, its node columns and
    its blocking sources' build-child columns there (the pad elsewhere),
    and ``metas`` its kernel metadata.
    """

    __slots__ = ("sessions", "logs", "bounds", "rows", "sess", "times",
                 "weights", "firsts", "done", "running", "cell_report",
                 "cell_pid", "runs", "offsets", "log_times", "cell_run",
                 "cell_key", "run_first", "run_start", "cell_window",
                 "metas", "keys", "table", "cols", "child", "widths")


class VectorizedFlush:
    """Flush-phase driver advancing all sessions' kernels per kind at once."""

    def __init__(self, monitor: ProgressMonitor):
        self.monitor = monitor
        self.states = batched_states(monitor.estimators)
        #: the estimator names, in the order of the codes the blocks carry
        self.names = tuple(self.states)
        #: the LUO kernel, if pooled: the cells it serves also gather the
        #: row their speed window opens at
        self._luo = next((st for st in self.states.values()
                          if isinstance(st, BatchedLuoState)), None)

    # -- the flush -----------------------------------------------------------

    def flush(self, sessions, scorer, stats) -> ReportBlock:
        """Every due report of ``sessions`` (ascending session id, each
        with rows due), as one block."""
        plan = self._plan(sessions)
        names = self.names
        cells = len(plan.cell_pid)
        values = np.zeros(cells)
        code = np.zeros(cells, dtype=np.int64)
        commits = []
        if cells:
            monitor = self.monitor
            viewed = []
            if (monitor.dynamic_selector is not None
                    and monitor.extractors[DYNAMIC].reads_rows):
                # the runs a dynamic selection can still open on
                viewed = [run for run in plan.runs if run.pid not in
                          plan.sessions[run.s].state.dynamic_choices]
            self._gather(plan, viewed)
            # batch row c is cell c's report row, one range per run
            batch = self._layout(plan, np.arange(len(plan.runs)),
                                 [run.n for run in plan.runs], plan.cell_key)
            self._select(plan, batch.driver_value("driver"), scorer)

            # each run's (now committed) choice per kind: the cells of a
            # kind form one segment
            index = {name: c for c, name in enumerate(names)}
            segments = []
            for run in plan.runs:
                state = plan.sessions[run.s].state
                for kind, lo, hi in ((STATIC, 0, run.split),
                                     (DYNAMIC, run.split, run.n)):
                    if lo < hi:
                        segments.append((run.c0 + lo, index[
                            monitor.chosen(run.pid, kind, state)]))
            starts = [lo for lo, _ in segments]
            codes = [c for _, c in segments]
            # per cell, the index of its estimator in ``names``
            code = np.repeat(np.array(codes, dtype=np.int64),
                             np.diff(starts + [cells]))
            if self._luo is not None:
                served = code == index[self._luo.estimator.name]
                if served.any():
                    batch.window = self._windows(plan, served)
                    # served cells index it by rank; others' LUO values go
                    # unread
                    batch.window_row = np.maximum(np.cumsum(served) - 1, 0)
            # one advance per kind over the report rows: the kinds share
            # the batch's cached row sums
            for c in np.unique(code).tolist():
                mine = code == c
                values[mine] = self.states[names[c]].advance(batch)[mine]
            # the rows at which each segment's choice is (re)committed
            commits = sorted(zip(plan.cell_report[starts].tolist(),
                                 plan.cell_pid[starts].tolist(),
                                 [names[c] for c in codes]))
        stats.reports += len(plan.rows)
        return self._assemble(plan, values, code, commits)

    # -- phase 1: causal planning --------------------------------------------

    def _plan(self, planned) -> _Plan:
        """Each pipeline's status at every due row, read causally from the
        logs."""
        counts = [len(session.pending_reports) for session in planned]
        S, T = len(planned), sum(counts)
        P = max(len(session.handle_ctx.pipelines) for session in planned)
        rows = np.empty(T, dtype=np.int64)
        times = np.empty(T)
        terminal_done = np.zeros((T, P), dtype=bool)
        first_row = np.full((S, P), NEVER)
        firsts = np.full((S, P), NEVER)
        starts = np.zeros((S, P))
        weights = np.zeros((S, P))
        widths = np.empty(S, dtype=np.int64)
        logs = []
        lo = 0
        for s, session in enumerate(planned):
            ctx = session.handle_ctx
            static = ctx.plan_static
            p = widths[s] = len(static.terminals)
            log = ctx.log.as_arrays()
            logs.append(log)
            hi = lo + counts[s]
            r = rows[lo:hi]
            r[:] = session.pending_reports
            session.pending_reports.clear()
            times[lo:hi] = log["times"][r]
            terminal_done[lo:hi, :p] = log["D"][r[:, None], static.terminals]
            first_row[s, :p] = ctx.pipe_first_row
            firsts[s, :p] = session.view_first
            starts[s, :p] = ctx.pipe_first
            weights[s, :p] = static.weights
            lo = hi
        sizes = [len(log["times"]) for log in logs]
        # the causal view's first row (since the activity window opened),
        # found once per pipeline: at the first flush whose log holds a
        # row that sees it started, it is already final
        fresh = (firsts == NEVER) & (first_row < np.array(sizes)[:, None])
        for s in np.flatnonzero(fresh.any(axis=1)).tolist():
            new = np.flatnonzero(fresh[s])
            firsts[s, new] = planned[s].view_first[new] = np.searchsorted(
                logs[s]["times"], starts[s, new], side="left")
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
        lengths = np.diff(np.append(heads, len(pid)))

        runs = []
        for i, (c0, n, s, p) in enumerate(zip(
                heads.tolist(), lengths.tolist(),
                sess[report[heads]].tolist(), pid[heads].tolist())):
            static = planned[s].handle_ctx.plan_static
            meta = static.metas[p]
            if meta is None:
                # the first session over this plan to run it
                meta = static.metas[p] = PipelineMeta(
                    pid=p, **pipeline_static(static.nodes,
                                             static.pipelines[p]))
            runs.append(_Run(i, s, p, meta, c0, n))

        plan = _Plan()
        plan.sessions, plan.logs, plan.bounds = planned, logs, bounds
        plan.rows, plan.sess, plan.times = rows, sess, times
        plan.weights, plan.firsts, plan.widths = weights, firsts, widths
        plan.done, plan.running = done, running
        plan.cell_report, plan.cell_pid, plan.runs = report, pid, runs
        plan.offsets = np.cumsum([0] + sizes)
        plan.log_times = np.concatenate([log["times"] for log in logs])
        plan.cell_run = np.repeat(np.arange(len(runs)), lengths)
        plan.cell_key = plan.offsets[sess[report]] + rows[report]
        head = sess[report[heads]], pid[heads]
        plan.run_first = plan.offsets[head[0]] + firsts[head]
        plan.run_start = starts[head]
        return plan

    # -- phase 2: the flush's row and metadata tables ----------------------

    def _gather(self, plan: _Plan, viewed) -> None:
        """Lay out the tables every batch of the flush indexes: each run's
        kernel metadata, once (``plan.metas``), and every log row a batch
        can read, gathered in one pass over the sessions.  Those rows are
        the running cells' report rows, with the LUO kernel pooled the row
        each cell's speed window opens at (``plan.cell_window``, one
        search over all cells), and the view rows from ``plan.firsts``
        through the last due row of each run in ``viewed``."""
        runs = plan.runs
        metas = plan.metas = MetaTable(
            [run.meta for run in runs],
            max((run.meta.n_nodes for run in runs), default=0),
            plan.run_start)
        needed = [plan.cell_key]
        if self._luo is not None:
            at = plan.cell_run
            plan.cell_window = window_starts(
                plan.log_times, metas.field("t_start")[at],
                plan.run_first[at], plan.cell_key, self._luo.speed_window)
            needed.append(plan.cell_window)
        if viewed:
            first = plan.run_first[[run.i for run in viewed]]
            needed.append(_expand_ranges(first, plan.cell_key[
                [run.c0 + run.n - 1 for run in viewed]] + 1 - first))
        keys = plan.keys = np.unique(np.concatenate(needed))

        # one gather per session; column ``width`` is an all-zero pad
        # every run's column table can point at
        width = max(log["K"].shape[1] for log in plan.logs)
        table = plan.table = {
            name: np.zeros((len(keys), width + 1),
                           dtype=bool if name == "D" else float)
            for name in ("K", "W", "LB", "UB", "D")}
        offsets = plan.offsets.tolist()
        bounds = np.searchsorted(keys, offsets).tolist()
        for s, log in enumerate(plan.logs):
            lo, hi = bounds[s], bounds[s + 1]
            if lo < hi:
                r = keys[lo:hi] - offsets[s]
                m = log["K"].shape[1]
                for name, arr in table.items():
                    arr[lo:hi, :m] = log[name][r]

        plan.cols = padded([meta.node_ids for meta in metas.metas],
                           metas.width, width, np.int64)
        plan.child = np.full((len(runs), metas.width), width)
        for j, meta in enumerate(metas.metas):
            if len(meta.mat_idx):
                plan.child[j, meta.mat_idx] = meta.mat_child_ids

    @staticmethod
    def _layout(plan: _Plan, owners, counts, keys) -> FlushBatch:
        """One :class:`FlushBatch` of the table rows ``keys``, whose range
        ``i`` holds the next ``counts[i]`` of them, rows of the run
        ``owners[i]``: a search over the table's keys and one fancy index
        per array.  Each row's ``window_row`` is itself."""
        at = plan.keys.searchsorted(keys)
        if not np.array_equal(plan.keys[np.minimum(at, len(plan.keys) - 1)],
                              keys):
            raise LookupError("a batch reads a log row the flush's row "
                              "table does not hold")
        bounds = np.cumsum(np.append(0, counts)).tolist()
        owner = np.repeat(owners, counts)
        w = int(plan.metas.field("n_nodes")[owners].max(initial=0))
        row = at[:, None]
        cols = plan.cols[:, :w][owner]
        child = plan.child[:, :w][owner]
        table = plan.table
        K, W, LB, UB, D = (table[name][row, cols]
                           for name in ("K", "W", "LB", "UB", "D"))
        return FlushBatch(
            [plan.metas.metas[i] for i in owners.tolist()],
            list(zip(bounds[:-1], bounds[1:])), plan.log_times[keys],
            K, W, LB, UB, D, table["K"][row, child], table["D"][row, child],
            np.arange(len(keys)), meta_table=plan.metas, meta_index=owners)

    # -- phase 3: the §4.4 policy and the openings' scores -----------------

    def _select(self, plan: _Plan, fractions, scorer) -> None:
        """Split every run by the §4.4 policy from the driver fraction at
        each cell, then extract each selector kind's openings in one call,
        score them in one pass and commit the choices."""
        monitor = self.monitor
        opened = []
        for run in plan.runs:
            run.split, static_opens, dynamic_opens = monitor.selection_needs(
                run.pid, plan.sessions[run.s].state,
                fractions[run.c0:run.c0 + run.n])
            if static_opens:
                opened.append((STATIC, run, run.c0))
            if dynamic_opens:
                opened.append((DYNAMIC, run, run.c0 + run.split))
        # static first, then in session, then row, then pid order
        opened.sort(key=lambda o: (o[0] == DYNAMIC, plan.cell_report[o[2]],
                                   o[1].pid))
        requests: list[tuple[str, np.ndarray]] = []
        for kind in (STATIC, DYNAMIC):
            mine = [o for o in opened if o[0] == kind]
            if mine:
                extractor = monitor.extractors[kind]
                X = extractor.extract(self._views(plan, mine, extractor))
                requests += [(kind, x) for x in X]
        if requests:
            for (kind, run, _), name in zip(opened, scorer.resolve(requests)):
                state = plan.sessions[run.s].state
                made = (state.dynamic_choices if kind == DYNAMIC
                        else state.static_choices)
                made[run.pid] = name

    # -- batches of the tables (phases 2 to 4) -----------------------------

    def _views(self, plan: _Plan, openings, extractor) -> FlushBatch:
        """Each opening's causal view as one range: its pipeline's log
        rows from ``plan.firsts`` through the opening's row, LUO's window
        starts inside the range and ``N`` fixed at the opening's row.
        The range is empty where ``extractor`` reads no rows."""
        owners = np.array([run.i for _, run, _ in openings])
        if not extractor.reads_rows:
            return self._layout(plan, owners, np.zeros_like(owners),
                                np.zeros(0, dtype=np.int64))
        lo = plan.run_first[owners]
        counts = plan.cell_key[[cell for *_, cell in openings]] + 1 - lo
        keys = _expand_ranges(lo, counts)
        batch = self._layout(plan, owners, counts, keys)
        at = batch.owner
        # a window start's batch row: its range's first row plus its
        # offset from the view's first row
        batch.window_row = window_starts(
            plan.log_times, plan.metas.field("t_start")[owners[at]], lo[at],
            keys, extractor.speed_window) - (lo - np.cumsum(counts)
                                             + counts)[at]
        return batch.as_views()

    def _windows(self, plan: _Plan, served) -> FlushBatch:
        """The row each cell of the mask ``served`` has its LUO speed
        window open at, in cell order."""
        cells = np.flatnonzero(served)
        owner = plan.cell_run[cells]
        heads = np.flatnonzero(np.diff(owner, prepend=-1))
        return self._layout(plan, owner[heads],
                            np.diff(np.append(heads, len(cells))),
                            plan.cell_window[cells])

    # -- phase 5: assemble ----------------------------------------------------

    def _assemble(self, plan: _Plan, values, code, commits) -> ReportBlock:
        """Every report, in session then row order, as one block: the
        ΣE-weighted pipeline values (eq. 5) and the committed choices.
        ``values`` and ``code`` hold each cell's kernel value and
        estimator code; ``commits`` the ``(report, pid, name)`` at which a
        pipeline's choice is (re)committed, sorted.  Each session's
        ``MonitorState.choices`` ends the round with every commit
        applied."""
        T, P = plan.running.shape
        S = len(plan.sessions)
        cell = plan.cell_report, plan.cell_pid
        # per (report, pipeline): 1.0 done, the kernel value running,
        # else +0.0
        X = plan.done.astype(float)
        X[cell] = values
        # a sequential sum over the pipelines in pid order: every partial
        # sum is >= +0.0, so the +0.0 terms are exact
        weights = plan.weights[plan.sess]
        overall = np.zeros(T)
        for p in range(P):
            overall += weights[:, p] * X[:, p]
        running = plan.running
        active = np.where(running.any(axis=1),
                          P - 1 - running[:, ::-1].argmax(axis=1), -1)

        # per session, the choices it held before the round (codes), and
        # after the round's commits, its choices' pids in insertion order
        # (padded with P)
        bounds = plan.bounds.tolist()
        index = {name: c for c, name in enumerate(self.names)}
        held_at, held_pid, held_code = [], [], []
        order_at, order_rank, order_pid = [], [], []
        commits.append((T, 0, None))
        k = 0
        for s, session in enumerate(plan.sessions):
            choices = session.state.choices
            n = len(choices)
            held_at += [s] * n
            held_pid += choices
            held_code += [index[name] for name in choices.values()]
            while commits[k][0] < bounds[s + 1]:
                _, pid, name = commits[k]
                choices[pid] = name
                k += 1
            order_at += [s] * len(choices)
            order_rank += range(len(choices))
            order_pid += choices
        held = np.full((S, P), -1)
        held[held_at, held_pid] = held_code
        order = np.full((S, P), P)
        order[order_at, order_rank] = order_pid
        # per (report, pipeline) its committed choice's code (-1: none):
        # a running cell's own, else the last one above it in its session,
        # else the held one; column P is a pad of -1s
        chosen = np.full((T, P + 1), -1)
        chosen[cell] = code
        heads = plan.bounds[:-1]
        chosen[heads, :P] = np.where(chosen[heads, :P] >= 0,
                                     chosen[heads, :P], held)
        defined = chosen >= 0
        defined[heads] = True
        above = np.where(defined, np.arange(T)[:, None], 0)
        np.maximum.accumulate(above, axis=0, out=above)
        chosen = np.take_along_axis(chosen, above, axis=0)
        # a row's choices are a prefix of its session's insertion order
        listed_pid = order[plan.sess]
        listed = np.take_along_axis(chosen, listed_pid, axis=1)
        has = listed >= 0
        pe_off = np.zeros(T + 1, dtype=np.int64)
        np.cumsum(has.sum(axis=1), out=pe_off[1:])
        # each row's values run over its session's own pipelines
        own = np.arange(P) < plan.widths[plan.sess][:, None]
        pp_off = np.zeros(T + 1, dtype=np.int64)
        np.cumsum(plan.widths[plan.sess], out=pp_off[1:])
        sids = np.array([session.session_id for session in plan.sessions])
        return ReportBlock(
            sids[plan.sess], plan.times, np.minimum(overall, 1.0), active,
            # the active cell's code; active -1 reads the pad column
            chosen[np.arange(T), active], pp_off, np.nonzero(own)[1],
            X[own], pe_off, listed_pid[has], listed[has], self.names)
