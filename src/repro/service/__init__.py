"""Concurrent multi-query progress serving (the DBMS-side deployment).

König et al.'s selection framework is built to live inside a database
server that monitors *many* queries at once.  This package is that serving
layer for the reproduction:

* :mod:`repro.service.session` — per-query state: resumable execution
  handle, sticky selection state, the log rows due a report;
* :mod:`repro.service.scheduler` — round-robin time slicing over
  :class:`~repro.engine.executor.ExecutionHandle` steps;
* :mod:`repro.service.scoring` — batched selector scoring: one
  vectorized :meth:`~repro.core.selection.EstimatorSelector.predict_errors`
  pass per selector kind per tick, shared by all sessions;
* :mod:`repro.service.batched` — the flush: every due report of a round,
  one structure-of-arrays kernel pass per estimator kind;
* :mod:`repro.service.service` — :class:`ProgressService`, tying these
  together and exposing submit / tick / run_until_complete (the solo
  monitor is a one-session service);
* :mod:`repro.service.sharded` — :class:`ShardedProgressService`,
  partitioning sessions deterministically across N worker processes
  (one ``ProgressService`` shard each, all IPC through the
  trace codec) with per-shard memory budgets and a graceful drain that
  reproduces the single-process report streams bit-for-bit;
* :mod:`repro.service.net` — the asyncio HTTP + WebSocket front end
  (:class:`~repro.service.net.ProgressServer` /
  :class:`~repro.service.net.ProgressClient`): per-tenant session
  routes, live report streams in the same columnar wire codec, 429/503
  admission control, graceful drain.  Run one with
  ``python -m repro.service.net``.

Pooled report streams are bit-identical to what a solo
:class:`~repro.core.monitor.ProgressMonitor` produces for each query —
the batching changes *when* model scoring happens, never its inputs.
"""

from repro.service.scheduler import RoundRobinScheduler
from repro.service.scoring import BatchedSelectorScorer, ScoringStats
from repro.service.service import ProgressService, ServiceStats
from repro.service.session import QuerySession, SessionStatus
from repro.service.sharded import (
    FleetStats,
    MemoryBudgetExceeded,
    ShardedProgressService,
    ShardLost,
    ShardStats,
    place_session,
)

__all__ = [
    "ProgressService",
    "ServiceStats",
    "QuerySession",
    "SessionStatus",
    "RoundRobinScheduler",
    "BatchedSelectorScorer",
    "ScoringStats",
    "ShardedProgressService",
    "ShardStats",
    "FleetStats",
    "MemoryBudgetExceeded",
    "ShardLost",
    "place_session",
]
