"""repro.runtime — the deterministic parallel execution backbone.

Every cold path in this repo — workload execution, fuzz sweeps, full
benchmark regeneration — is embarrassingly parallel over an index set
(queries, seeds, benchmark files).  This package turns that shape into a
process-pool runtime with three hard guarantees:

* **Deterministic partitioning** (:mod:`repro.runtime.partition`): work
  is split into contiguous, balanced index slices that depend only on
  ``(n, jobs)``, never on scheduling.
* **Trace-format transport** (:mod:`repro.runtime.transport`): workers
  return :class:`~repro.engine.run.QueryRun` results through the exact
  on-disk trace codec (:mod:`repro.trace.format`) serialized to bytes —
  never a pickle of engine objects — so crossing a process boundary is
  bit-identical to replaying a recording.
* **Order-preserving execution** (:mod:`repro.runtime.pool`): results
  come back in task order regardless of completion order, and the
  ``jobs <= 1`` path runs inline in the calling process, so serial and
  parallel runs share one code path and one output.

Together: partition → execute → merge-in-order is *bit-identical* to the
serial loop it replaces (locked by tests and the golden traces), which is
what lets ``REPRO_JOBS``/``--jobs`` default into every orchestration
layer without a determinism tax.
"""

from repro.runtime.partition import partition_indices
from repro.runtime.pool import JOBS_ENV, available_cpus, resolve_jobs, run_tasks
from repro.runtime.transport import (
    block_from_payload,
    reports_from_payload,
    reports_to_payload,
    runs_from_payload,
    runs_to_payload,
)

__all__ = [
    "JOBS_ENV",
    "available_cpus",
    "block_from_payload",
    "partition_indices",
    "resolve_jobs",
    "run_tasks",
    "reports_from_payload",
    "reports_to_payload",
    "runs_from_payload",
    "runs_to_payload",
]
