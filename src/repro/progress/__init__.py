"""Candidate progress estimators (paper §3.4 and §5) and error metrics.

All estimators are pure functions of a pipeline's counter trajectories
(:class:`~repro.engine.run.PipelineRun`) and are *causal*: the estimate at
observation ``t`` depends only on counters up to ``t``, so the same
trajectory can be replayed online (see :mod:`repro.core.monitor`).

``estimate`` is each estimator's definition.  Online, every monitor
advances the estimators through structure-of-arrays kernels
(:mod:`repro.progress.soa`) that fold one observation at a time in
O(active nodes) and reproduce ``estimate`` bit-for-bit.

Implemented estimators:

=============  =============================================================
``dne``        Driver-Node estimator, Chaudhuri et al. [6] (eq. 4)
``tgn``        Total-GetNext estimator with bound refinement [6] (eq. 3)
``luo``        Bytes-Processed / speed estimator, Luo et al. [13]
``pmax``       Pessimistic worst-case estimator of [5] (reconstruction)
``safe``       Worst-case-ratio-optimal estimator of [5] (reconstruction)
``batch_dne``  DNE + batch sorts as driver nodes (paper §5.1, eq. 6)
``dne_seek``   DNE + index seeks as driver nodes (paper §5.1.1, eq. 7)
``tgn_int``    TGN with Luo-style cardinality interpolation (§5.2, eq. 8)
=============  =============================================================

plus the two idealized §6.7 models in :mod:`repro.progress.gold` (the
GetNext model with true ``N_i`` and the Bytes-Processed model with true
byte totals).
"""

from repro.progress.base import ProgressEstimator
from repro.progress.batchdne import BatchDNEEstimator
from repro.progress.dne import DNEEstimator
from repro.progress.dneseek import DNESeekEstimator
from repro.progress.gold import BytesProcessedOracle, GetNextOracle
from repro.progress.luo import LuoEstimator
from repro.progress.metrics import (
    ErrorReport,
    error_matrix,
    l1_error,
    l2_error,
    near_optimal_mask,
    ratio_error,
    significantly_outperforms,
)
from repro.progress.registry import (
    all_estimators,
    estimator_by_name,
    novel_estimators,
    original_estimators,
    worst_case_estimators,
)
from repro.progress.safe_pmax import PMaxEstimator, SafeEstimator
from repro.progress.soa import PipelineMeta, kernel_estimates
from repro.progress.tgn import TGNEstimator
from repro.progress.tgnint import TGNIntEstimator

__all__ = [
    "ProgressEstimator",
    "PipelineMeta",
    "kernel_estimates",
    "DNEEstimator",
    "TGNEstimator",
    "LuoEstimator",
    "PMaxEstimator",
    "SafeEstimator",
    "BatchDNEEstimator",
    "DNESeekEstimator",
    "TGNIntEstimator",
    "GetNextOracle",
    "BytesProcessedOracle",
    "l1_error",
    "l2_error",
    "ratio_error",
    "error_matrix",
    "ErrorReport",
    "near_optimal_mask",
    "significantly_outperforms",
    "original_estimators",
    "novel_estimators",
    "worst_case_estimators",
    "all_estimators",
    "estimator_by_name",
]
