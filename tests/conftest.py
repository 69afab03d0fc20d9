"""Shared fixtures: tiny databases, executed runs and pipelines.

Expensive artifacts (generated databases, executed workloads) are
session-scoped so the whole suite pays for them once.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.catalog.schema import Column, DatabaseSchema, TableSchema
from repro.catalog.statistics import build_statistics
from repro.catalog.table import Database, Table
from repro.datagen.tpch import generate_tpch
from repro.engine.executor import ExecutorConfig, QueryExecutor
from repro.optimizer.planner import Planner
from repro.query.logical import Aggregate, JoinEdge, QuerySpec
from repro.query.predicates import FilterSpec


@pytest.fixture(scope="session")
def tpch_db():
    """A small skewed TPC-H database (shared, read-only)."""
    return generate_tpch(lineitem_rows=4000, z=1.0, seed=42)


@pytest.fixture(scope="session")
def tpch_stats(tpch_db):
    return build_statistics(tpch_db)


@pytest.fixture(scope="session")
def tpch_planner(tpch_db, tpch_stats):
    return Planner(tpch_db, tpch_stats)


@pytest.fixture(scope="session")
def executor_config():
    return ExecutorConfig(batch_size=256, memory_budget_bytes=float(64 << 10),
                          target_observations=80, seed=5)


@pytest.fixture(scope="session")
def join_query():
    """A 3-way join + aggregation touching most operator kinds."""
    return QuerySpec(
        name="fixture_join",
        tables=["customer", "orders", "lineitem"],
        joins=[JoinEdge("customer", "c_custkey", "orders", "o_custkey"),
               JoinEdge("orders", "o_orderkey", "lineitem", "l_orderkey")],
        filters=[FilterSpec("orders", "o_orderdate", "<=", 1500),
                 FilterSpec("lineitem", "l_quantity", ">=", 3.0)],
        group_by=["c_nationkey"],
        aggregates=[Aggregate("sum", "l_extendedprice"), Aggregate("count")],
        order_by=["c_nationkey"],
    )


@pytest.fixture(scope="session")
def join_run(tpch_db, tpch_planner, executor_config, join_query):
    """The executed join query (shared across estimator/feature tests)."""
    plan = tpch_planner.plan(join_query)
    executor = QueryExecutor(tpch_db, executor_config)
    return executor.execute(plan, query_name=join_query.name)


@pytest.fixture(scope="session")
def scan_run(tpch_db, tpch_planner, executor_config):
    """A single-table scan + aggregation query run."""
    query = QuerySpec(
        name="fixture_scan",
        tables=["lineitem"],
        filters=[FilterSpec("lineitem", "l_shipdate", "<=", 2000)],
        group_by=["l_returnflag"],
        aggregates=[Aggregate("sum", "l_quantity"), Aggregate("count")],
        order_by=["l_returnflag"],
    )
    plan = tpch_planner.plan(query)
    return QueryExecutor(tpch_db, executor_config).execute(plan, query.name)


@pytest.fixture(scope="session")
def pipeline_runs(join_run, scan_run):
    """All scorable pipelines of the two fixture queries."""
    runs = join_run.pipeline_runs(min_observations=5) \
        + scan_run.pipeline_runs(min_observations=5)
    assert runs, "fixture queries must yield scorable pipelines"
    return runs


@pytest.fixture(scope="session")
def rng_factory():
    """Deterministic RNG factory (session-scoped, hypothesis-safe).

    Tests that need seeded randomness draw fresh generators from here —
    ``rng_factory()`` or ``rng_factory(seed)`` — instead of constructing
    ad-hoc ``np.random`` state inline, so every stream in the suite is
    explicitly seeded and greppable in one place.
    """
    def make(seed: int = 1234) -> np.random.Generator:
        return np.random.default_rng(seed)

    return make


@pytest.fixture()
def rng(rng_factory):
    return rng_factory()


@pytest.fixture(scope="module")
def unit_db(rng_factory):
    """Two small joinable tables with controlled contents: ``dim`` (40
    rows, clustered on ``d_key``) and ``fact`` (1,200 rows, clustered on
    ``f_key``, its sorted ``f_dim`` foreign key indexed)."""
    rng = rng_factory(0)
    n_dim, n_fact = 40, 1200
    dim = Table(
        TableSchema("dim", (Column("d_key"), Column("d_group"))),
        {"d_key": np.arange(n_dim), "d_group": rng.integers(0, 5, n_dim)},
        clustered_on="d_key")
    fact_fk = np.sort(rng.integers(0, n_dim, n_fact))
    fact = Table(
        TableSchema("fact", (Column("f_key"), Column("f_dim"),
                             Column("f_value", "float64"))),
        {"f_key": np.arange(n_fact), "f_dim": fact_fk,
         "f_value": rng.uniform(0, 100, n_fact)},
        clustered_on="f_key")
    fact.create_index("f_dim")
    database = Database(schema=DatabaseSchema(name="unit"))
    database.add(dim)
    database.add(fact)
    return database
