"""Shared Hypothesis strategies for progress-estimation properties.

Used by ``test_progress_properties.py`` (and available to any other
property suite): randomized monotone counter trajectories over a small
operator zoo, both as directly constructed :class:`PipelineRun` objects
and as log-shaped arrays (the dict :meth:`ObservationLog.as_arrays`
returns) with ragged, drawn bounds — plus :func:`executed_join_run`,
which runs a randomly drawn tiny join of a chosen kind (inner / left /
semi / anti) through the *real* engine so per-kind bound soundness can
be property-tested.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.catalog.schema import Column, DatabaseSchema, TableSchema
from repro.catalog.table import Database, Table
from repro.engine.counters import UNBOUNDED
from repro.engine.executor import ExecutorConfig, QueryExecutor
from repro.plan.nodes import Op, PlanNode

from helpers import make_pipeline_run

#: (ops, parents, drivers) plan shapes the pipeline strategy samples from
PIPELINE_SHAPES = (
    ([Op.FILTER, Op.INDEX_SCAN], [-1, 0], [1]),
    ([Op.NESTED_LOOP_JOIN, Op.INDEX_SCAN, Op.INDEX_SEEK],
     [-1, 0, 0], [1]),
    ([Op.HASH_JOIN, Op.BATCH_SORT, Op.INDEX_SCAN], [-1, 0, 1], [2]),
    ([Op.STREAM_AGG, Op.MERGE_JOIN, Op.INDEX_SCAN, Op.INDEX_SCAN],
     [-1, 0, 1, 1], [2, 3]),
)


@st.composite
def random_pipeline(draw):
    """A random monotone :class:`PipelineRun` over a small operator zoo."""
    n_obs = draw(st.integers(3, 25))
    ops, parents, drivers = draw(st.sampled_from(PIPELINE_SHAPES))
    m = len(ops)
    totals = np.array([draw(st.floats(1.0, 1e5)) for _ in range(m)])
    # random monotone trajectories from 0 to the totals
    fractions = np.sort(np.array(
        [[draw(st.floats(0.0, 1.0)) for _ in range(m)]
         for _ in range(n_obs)]), axis=0)
    fractions[0] = 0.0
    fractions[-1] = 1.0
    K = fractions * totals
    e0 = totals * np.array([draw(st.floats(0.1, 10.0)) for _ in range(m)])
    times = np.cumsum(np.array([draw(st.floats(0.01, 10.0))
                                for _ in range(n_obs)]))
    return make_pipeline_run(ops, K, parents=parents, drivers=drivers,
                             E0=e0, times=times)


@st.composite
def random_observation_log(draw):
    """Random monotone trajectories of a two-node pipeline, as a log.

    Returns ``(arrays, totals)``, ``arrays`` shaped like
    :meth:`ObservationLog.as_arrays` (``times`` ``(T,)``; ``K``, ``R``,
    ``W``, ``LB``, ``UB``, ``D`` ``(T, 2)``).  Per node and snapshot the
    upper bound is either finite (counter plus random slack — possibly
    tight) or the unbounded sentinel, so bound-interval estimators see
    both regimes.
    """
    m = 2
    n_obs = draw(st.integers(2, 15))
    K, R = np.zeros(m), np.zeros(m)
    rows = {name: [] for name in ("times", "K", "R", "UB")}
    now = 0.0
    totals = np.array([draw(st.floats(1.0, 1e4)) for _ in range(m)])
    for _ in range(n_obs):
        now += draw(st.floats(0.01, 5.0))
        K = K + np.array([draw(st.floats(0.0, 1e3)) for _ in range(m)])
        R = R + np.array([draw(st.floats(0.0, 1e5)) for _ in range(m)])
        slack = np.array([
            draw(st.one_of(st.floats(0.0, 1e4), st.just(UNBOUNDED)))
            for _ in range(m)])
        rows["times"].append(now)
        rows["K"].append(K)
        rows["R"].append(R)
        rows["UB"].append(np.minimum(K + slack, UNBOUNDED))
    arrays = {name: np.array(values) for name, values in rows.items()}
    arrays["W"] = np.zeros((n_obs, m))
    arrays["LB"] = arrays["K"].copy()
    arrays["D"] = np.zeros((n_obs, m), dtype=bool)
    return arrays, totals


@st.composite
def executed_join_run(draw, kind: str):
    """A real :class:`QueryRun` of a random tiny hash join of ``kind``.

    The probe side's key domain is twice the build side's, so roughly
    half the probe rows miss — exercising the pad path of LEFT OUTER,
    the drop path of SEMI and the keep path of ANTI.  Engine knobs
    (batch size, memory grant, estimates) are drawn too, so spilling and
    estimate-error regimes both occur.
    """
    seed = draw(st.integers(0, 2**16))
    n_dim = draw(st.integers(6, 16))
    n_fact = draw(st.integers(40, 160))
    batch = draw(st.sampled_from([16, 32, 64]))
    budget = float(draw(st.sampled_from([2_048, 8_192, 64 << 10])))
    est = float(draw(st.sampled_from([5, 50, 500])))
    rng = np.random.default_rng(seed)
    dim = Table(
        TableSchema("dim", (Column("d_key"), Column("d_val", "float64"))),
        {"d_key": np.arange(n_dim), "d_val": rng.uniform(0, 1, n_dim)},
        clustered_on="d_key")
    fact = Table(
        TableSchema("fact", (Column("f_key"), Column("f_dim"),
                             Column("f_val", "float64"))),
        {"f_key": np.arange(n_fact),
         "f_dim": np.sort(rng.integers(0, 2 * n_dim, n_fact)),
         "f_val": rng.uniform(0, 100, n_fact)},
        clustered_on="f_key")
    db = Database(schema=DatabaseSchema(name="prop"))
    db.add(dim)
    db.add(fact)
    params = {} if kind == "inner" else {"join_kind": kind}
    plan = PlanNode(Op.HASH_JOIN,
                    [PlanNode(Op.INDEX_SCAN, table="fact"),
                     PlanNode(Op.INDEX_SCAN, table="dim")],
                    probe_key="f_dim", build_key="d_key", **params)
    plan.finalize()
    for node in plan.walk():
        if node.est_rows == 0.0:
            node.est_rows = est
    config = ExecutorConfig(batch_size=batch, memory_budget_bytes=budget,
                            target_observations=25, seed=seed)
    return QueryExecutor(db, config).execute(plan, f"prop_{kind}_{seed}")
