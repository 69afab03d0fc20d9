"""Pipeline features for estimator selection: one batched definition.

:meth:`FeatureExtractor.extract` maps a list of pipelines to their
``(pipelines × features)`` matrix.  Training calls it once over all its
pipelines; the service's flush, once per selector kind over every
selection that opens in a scheduler round.  Static mode encodes §4.3;
dynamic mode appends §4.4 (≈200 dimensions, the paper's "about 200
double values" per training record).

**Static (§4.3).**  Per operator type ``op``: ``count_op`` ([11]'s
encoding), ``card_op`` (summed estimated cardinality), and relative to
the pipeline's ΣE: ``sel_at_op``, ``sel_above_op`` (nodes with an ``op``
node in their input subtrees) and ``sel_below_op`` (nodes feeding into
an ``op`` node); plus ``sel_at_dn`` (the driver nodes) and pipeline
aggregates.  Relative cardinalities are the paper's key insight over
[11]: progress estimation cares about *proportions*.

**Dynamic (§4.4.2).**  Marker ``t{x}`` is the first observation where x%
of the driver-node input has been consumed: the first row where the DNE
trajectory reaches ``x/100`` (DNE's arithmetic *is* the driver fraction).

* pairwise disagreement ``DNEvsTGN_x = |DNE(t{x}) - TGN(t{x})|`` for the
  pairs (DNE, TGN), (DNE, TGNINT), (TGN, TGNINT), x ∈ {1, 2, 5, 10, 20};
* time-correlation over a ladder of k = 4 sub-markers, i = 1..4:
  ``Cor_{E,i,x} = (Time(t{ix/k}) - Time(t0)) / (Time(t{x/k}) - Time(t0))
  · 1 / E(t{x})`` — how linearly an estimator's early trajectory maps
  onto elapsed time.

Features stop at x = 20%, the paper's choice, which also keeps them cheap
online.  Missing markers are encoded as ``-1`` and left to the trees.
The dynamic features are a fixed definition over six estimators
(``PAIRWISE`` ∪ ``CORRELATED``), owned by the extractor, whatever pool a
selector chooses among, and read off their SoA kernels' trajectories
(equal to ``estimate``).  A row never depends on what shares its batch:
masked sums are ``values[mask].sum()`` bit for bit (:func:`_masked_sums`)
and all other arithmetic is elementwise.
"""

from __future__ import annotations

import numpy as np

from repro.engine.run import PipelineRun
from repro.plan.nodes import Op
from repro.progress.registry import all_estimators
from repro.progress.soa import FlushBatch, kernel_class, masked_rowsums

#: Fixed operator vocabulary so feature vectors align across pipelines.
OPS_UNIVERSE: tuple[Op, ...] = (
    Op.TABLE_SCAN,
    Op.INDEX_SCAN,
    Op.INDEX_SEEK,
    Op.FILTER,
    Op.NESTED_LOOP_JOIN,
    Op.HASH_JOIN,
    Op.MERGE_JOIN,
    Op.SORT,
    Op.BATCH_SORT,
    Op.STREAM_AGG,
    Op.HASH_AGG,
    Op.TOP,
)
_OP_CODE = {op: i for i, op in enumerate(OPS_UNIVERSE)}
_PER_OP = ("count", "card", "sel_at", "sel_above", "sel_below")

DYNAMIC_X_PERCENTS: tuple[float, ...] = (1.0, 2.0, 5.0, 10.0, 20.0)
CORRELATION_LADDER_K = 4
MISSING = -1.0

#: estimator pairs for the disagreement features (paper §6: DNEvsTGN,
#: DNEvsTGNINT, TGNvsTGNINT)
PAIRWISE = (("dne", "tgn"), ("dne", "tgn_int"), ("tgn", "tgn_int"))

#: estimators whose time-correlation is encoded (paper §6)
CORRELATED = ("dne", "tgn", "luo", "batch_dne", "dne_seek", "tgn_int")

#: every marker percent the features read: the x values and their ladders
_MARKERS = sorted({i * x / CORRELATION_LADDER_K
                   for x in DYNAMIC_X_PERCENTS
                   for i in range(1, CORRELATION_LADDER_K + 1)})
_AT_X = [_MARKERS.index(x) for x in DYNAMIC_X_PERCENTS]
_BASE = [_MARKERS.index(x / CORRELATION_LADDER_K) for x in DYNAMIC_X_PERCENTS]
_LADDER = [[_MARKERS.index(i * x / CORRELATION_LADDER_K)
            for x in DYNAMIC_X_PERCENTS]
           for i in range(1, CORRELATION_LADDER_K + 1)]
_PAIR_A = [CORRELATED.index(a) for a, _ in PAIRWISE]
_PAIR_B = [CORRELATED.index(b) for _, b in PAIRWISE]
_DNE = CORRELATED.index("dne")

_MODES = ("static", "dynamic")


def static_feature_names() -> list[str]:
    # expansion: total E relative to driver E ("per-tuple work");
    # driver_width: bytes per driver row (Bytes model scale)
    return ([f"{kind}_{op.value}" for op in OPS_UNIVERSE for kind in _PER_OP]
            + ["sel_at_dn", "n_nodes", "n_drivers", "log_total_e",
               "log_driver_e", "expansion", "driver_width"])


def dynamic_feature_names() -> list[str]:
    return ([f"{a}_vs_{b}_at_{x:g}" for a, b in PAIRWISE
             for x in DYNAMIC_X_PERCENTS]
            + [f"cor_{est}_{i}_{x:g}" for est in CORRELATED
               for i in range(1, CORRELATION_LADDER_K + 1)
               for x in DYNAMIC_X_PERCENTS])


def _ancestor_matrix(parent_local: np.ndarray) -> np.ndarray:
    """``(..., m, m)`` boolean: ``anc[..., i, j]`` iff node *i* is an
    ancestor of *j*.

    ``parent_local`` is ``(..., m)``; parents outside the pipeline (and
    padded positions) are ``-1``, so ancestry stays within the pipeline.
    """
    m = parent_local.shape[-1]
    anc = np.zeros(parent_local.shape + (m,), dtype=bool)
    up = parent_local
    for _ in range(m):
        live = up >= 0
        if not live.any():
            break
        *lead, j = np.nonzero(live)
        anc[(*lead, up[live], j)] = True
        up = np.where(live, np.take_along_axis(
            parent_local, np.maximum(up, 0), axis=-1), -1)
    return anc


def marker_rows(dne: np.ndarray,
                percents: list[float] = _MARKERS) -> np.ndarray:
    """Marker ``t{x}`` for each of ``percents``: the first row where the
    DNE trajectory ``dne`` reaches ``x/100``, or ``-1`` where it never
    does."""
    if not len(dne):
        return np.full(len(percents), -1)
    reached = dne >= np.array([x / 100.0 for x in percents])[:, None]
    return np.where(reached.any(axis=1), reached.argmax(axis=1), -1)


def _masked_sums(values: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """``out[b, s] = values[b][masks[b, s]].sum()``, bit for bit.

    ``values`` is ``(n, width)`` and nonnegative; ``masks`` is
    ``(n, S, width)``.  Every (pipeline, selection) is one row of
    :func:`~repro.progress.soa.masked_rowsums`: zero-masked columns
    accumulated in order, exactly ``np.sum`` below its pairwise-unroll
    threshold, and the selections that reach it summed compacted in
    ``np.sum``'s own order.
    """
    n, S, width = masks.shape
    Z = np.broadcast_to(values[:, None, :], masks.shape).reshape(n * S, width)
    return masked_rowsums(Z, masks.reshape(n * S, width)).reshape(n, S)


def _static_block(prs: list[PipelineRun]) -> np.ndarray:
    """The §4.3 features of every pipeline, padded to the widest one."""
    n = len(prs)
    width = max((pr.n_nodes for pr in prs), default=0)
    e0 = np.zeros((n, width))
    widths = np.zeros((n, width))
    code = np.full((n, width), -1)
    parent = np.full((n, width), -1)
    driver = np.zeros((n, width), dtype=bool)
    for b, pr in enumerate(prs):
        m = pr.n_nodes
        e0[b, :m] = pr.E0
        widths[b, :m] = pr.widths
        code[b, :m] = [_OP_CODE.get(op, len(OPS_UNIVERSE)) for op in pr.ops]
        parent[b, :m] = pr.parent_local
        driver[b, :m] = pr.driver_mask
    n_ops = len(OPS_UNIVERSE)
    at = code[:, None, :] == np.arange(n_ops)[:, None]   # (n, ops, width)
    anc = _ancestor_matrix(parent)[:, None]              # (n, 1, i, j)
    # nodes with an `op` node below them: ancestors of op nodes
    above = (anc & at[:, :, None, :]).any(axis=-1)
    # nodes below an `op` node: descendants of op nodes
    below = (anc & at[:, :, :, None]).any(axis=-2)
    sums = _masked_sums(e0, np.concatenate(
        [at, above, below, (code >= 0)[:, None], driver[:, None]], axis=1))
    card, above_e, below_e = np.split(sums[:, :3 * n_ops], 3, axis=1)
    total_e, driver_e = sums[:, -2], sums[:, -1]
    denom = np.maximum(total_e, 1e-9)[:, None]
    per_op = np.stack([at.sum(axis=-1), card, card / denom,
                       above_e / denom, below_e / denom], axis=-1)
    n_drivers = driver.sum(axis=1)
    width_sum = _masked_sums(widths, driver[:, None])[:, 0]
    tail = np.column_stack([
        driver_e / denom[:, 0],
        [pr.n_nodes for pr in prs],
        n_drivers,
        np.log1p(total_e),
        np.log1p(np.maximum(driver_e, 0.0)),
        total_e / np.maximum(driver_e, 1e-9),
        np.where(n_drivers > 0, width_sum / np.maximum(n_drivers, 1), 0.0),
    ])
    return np.hstack([per_op.reshape(n, -1), tail])


def _dynamic_block(prs: list[PipelineRun], trajectories: np.ndarray,
                   ranges: list[tuple[int, int]]) -> np.ndarray:
    """The §4.4 features; ``trajectories[e, lo:hi]`` is pipeline ``b``'s
    :data:`CORRELATED` estimator ``e``, ``(lo, hi) = ranges[b]``."""
    n, n_markers = len(prs), len(_MARKERS)
    hit = np.zeros((n, n_markers), dtype=bool)
    values = np.zeros((n, len(CORRELATED), n_markers))
    elapsed = np.zeros((n, n_markers))
    for b, (pr, (lo, hi)) in enumerate(zip(prs, ranges)):
        trajs = trajectories[:, lo:hi]
        rows = marker_rows(trajs[_DNE])
        hit[b] = rows >= 0
        if hit[b].any():
            # an unreached marker reads a row its features mask out
            values[b] = trajs[:, rows]
            elapsed[b] = pr.times[rows] - pr.t_start
    at_x = hit[:, _AT_X]
    pairwise = np.where(
        at_x[:, None, :],
        np.abs(values[:, _PAIR_A][:, :, _AT_X]
               - values[:, _PAIR_B][:, :, _AT_X]),
        MISSING)
    base_time = elapsed[:, _BASE]
    ok = at_x & hit[:, _BASE] & (base_time > 0)
    ok = ok[:, None, :] & hit[:, _LADDER]                     # (n, k, x)
    ratio = elapsed[:, _LADDER] / np.where(ok, base_time[:, None, :], 1.0)
    scale = np.maximum(values[:, :, _AT_X], 1e-3)[:, :, None, :]
    cor = np.where(ok[:, None], np.minimum(ratio[:, None] / scale, 1e4),
                   MISSING)                                   # (n, est, k, x)
    return np.hstack([pairwise.reshape(n, -1), cor.reshape(n, -1)])


class FeatureExtractor:
    """Pipelines -> fixed-length ``float64`` feature rows.

    Parameters
    ----------
    mode:
        ``"static"`` for pre-execution features only; ``"dynamic"`` for
        static + execution-feedback features (the paper's best setting).
    """

    def __init__(self, mode: str = "dynamic"):
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        self.mode = mode
        pool = {est.name: est for est in all_estimators()}
        self._kernels = [kernel_class(pool[name])(pool[name])
                         for name in CORRELATED]
        self._speed_window = pool["luo"].speed_window
        self._names = static_feature_names()
        if mode == "dynamic":
            self._names += dynamic_feature_names()

    @property
    def feature_names(self) -> list[str]:
        return list(self._names)

    @property
    def n_features(self) -> int:
        return len(self._names)

    def extract(self, pipeline_runs: list[PipelineRun]) -> np.ndarray:
        """The ``(len(pipeline_runs), n_features)`` feature matrix.

        Each :data:`CORRELATED` kernel advances once over one batch of all
        pipelines (causal, so a trajectory read at a marker is online).
        """
        if not pipeline_runs:
            return np.empty((0, self.n_features))
        X = _static_block(pipeline_runs)
        if self.mode == "dynamic":
            batch = FlushBatch.of_pipeline_runs(pipeline_runs,
                                                self._speed_window)
            trajectories = np.stack([kernel.advance(batch)
                                     for kernel in self._kernels])
            X = np.hstack([X, _dynamic_block(pipeline_runs, trajectories,
                                             batch.ranges)])
        return X
