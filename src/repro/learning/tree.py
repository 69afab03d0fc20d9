"""Best-first regression trees over pre-binned features.

Trees are grown leaf-by-leaf (best gain first) to a fixed leaf budget —
matching the paper's "each decision tree has 30 leaf nodes" — rather than
to a fixed depth.  Split search is exact over the histogram of each
feature; a child's histogram is obtained by subtracting its sibling's from
the parent's, halving the work (the standard histogram-subtraction trick).

A node holds few rows next to the ``(features, bins)`` grid of its
histograms, so most thresholds leave a side with fewer than
``min_samples_leaf`` rows.  The search scores only where a valid one
lies: a node too small to split returns at once, and the gain formula
runs on the block of features that have a valid threshold, over the span
of bins that holds one.  It picks the same split, with the same gain
bits, as scoring the whole grid would.  No histograms are built for two
children that are both too small to split, nor for the children of the
split that fills the leaf budget.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

_EPS = 1e-12


@dataclass
class TreeParams:
    max_leaves: int = 30
    min_samples_leaf: int = 5

    def __post_init__(self) -> None:
        if self.max_leaves < 2:
            raise ValueError("a tree needs at least 2 leaves")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")


def offset_matrix(Xb: np.ndarray, n_bins: int) -> np.ndarray:
    """Pre-add per-feature offsets so histograms are single bincounts.

    Computed once per ensemble fit and shared across all trees/nodes.
    """
    n_features = Xb.shape[1]
    return (Xb.astype(np.int64)
            + np.arange(n_features, dtype=np.int64) * n_bins)


def _histograms(Xb_off: np.ndarray, y: np.ndarray, idx: np.ndarray,
                n_bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature histograms of counts and target sums for rows ``idx``."""
    n_features = Xb_off.shape[1]
    flat = Xb_off[idx].ravel()
    counts = np.bincount(flat, minlength=n_features * n_bins)
    sums = np.bincount(flat, weights=np.repeat(y[idx], n_features),
                       minlength=n_features * n_bins)
    return (counts.reshape(n_features, n_bins).astype(np.float64),
            sums.reshape(n_features, n_bins))


def _best_split(counts: np.ndarray, sums: np.ndarray,
                min_leaf: int) -> tuple[float, int, int]:
    """Best (gain, feature, bin) over all features; gain < 0 if none valid.

    Gain is the SSE reduction of splitting, computed from sufficient
    statistics: ``sumL²/nL + sumR²/nR - total²/n``.  A threshold is valid
    when both sides keep ``min_leaf`` rows.  The gain is evaluated only on
    the block of features with a valid threshold and the span of bins
    holding one; each feature's target sums are still accumulated from bin
    0 and each gain is the same expression, so every gain in the block
    has the bits the whole grid would give it.  Invalid thresholds in the
    block score ``-inf``, and the row-major argmax picks the first best
    threshold, as on the whole grid.
    """
    total_cnt = counts[0].sum()
    if total_cnt < 2 * min_leaf:
        return -1.0, -1, -1
    cum_cnt = np.cumsum(counts[:, :-1], axis=1)
    valid = (cum_cnt >= min_leaf) & (cum_cnt <= total_cnt - min_leaf)
    rows = np.flatnonzero(valid.any(axis=1))
    if not len(rows):
        return -1.0, -1, -1
    cols = valid.any(axis=0)
    lo = int(cols.argmax())
    hi = len(cols) - int(cols[::-1].argmax())
    cum_sum = np.cumsum(sums[rows, :hi], axis=1)[:, lo:]
    cum_cnt = cum_cnt[rows, lo:hi]
    total_sum = sums[0].sum()
    right_sum = total_sum - cum_sum
    base = total_sum * total_sum / total_cnt
    # in place; an empty side (invalid, masked below) divides by zero
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = np.square(cum_sum, out=cum_sum)
        gain /= cum_cnt
        np.square(right_sum, out=right_sum)
        right_sum /= np.subtract(total_cnt, cum_cnt, out=cum_cnt)
        gain += right_sum
        gain -= base
    np.copyto(gain, -np.inf, where=~valid[rows, lo:hi])
    row, col = divmod(int(np.argmax(gain)), gain.shape[1])
    return float(gain[row, col]), int(rows[row]), lo + col


class RegressionTree:
    """A fitted regression tree (see module docstring).

    Nodes are stored in flat arrays; leaves have ``feature == -1``.
    """

    def __init__(self, params: TreeParams | None = None):
        self.params = params or TreeParams()
        self.feature: np.ndarray | None = None
        self.threshold_bin: np.ndarray | None = None
        self.left: np.ndarray | None = None
        self.right: np.ndarray | None = None
        self.value: np.ndarray | None = None

    @property
    def n_leaves(self) -> int:
        if self.feature is None:
            return 0
        return int(np.sum(self.feature < 0))

    def fit(self, Xb: np.ndarray, y: np.ndarray, n_bins: int,
            Xb_off: np.ndarray | None = None) -> "RegressionTree":
        n = len(y)
        if n == 0:
            raise ValueError("cannot fit a tree on zero samples")
        if Xb_off is None:
            Xb_off = offset_matrix(Xb, n_bins)
        feature, threshold, left, right, value = [], [], [], [], []

        def add_node() -> int:
            feature.append(-1)
            threshold.append(0)
            left.append(-1)
            right.append(-1)
            value.append(0.0)
            return len(feature) - 1

        root_idx = np.arange(n)
        root = add_node()
        value[root] = float(y.mean())
        counts, sums = _histograms(Xb_off, y, root_idx, n_bins)
        min_split = 2 * self.params.min_samples_leaf
        heap: list[tuple] = []
        counter = 0  # tie-breaker, keeps heap comparisons away from arrays

        def consider(node: int, idx: np.ndarray, counts: np.ndarray,
                     sums: np.ndarray) -> None:
            nonlocal counter
            gain, feat, bin_idx = _best_split(counts, sums,
                                              self.params.min_samples_leaf)
            if gain > _EPS:
                heapq.heappush(heap, (-gain, counter, node, idx, counts,
                                      sums, feat, bin_idx))
                counter += 1

        consider(root, root_idx, counts, sums)
        n_leaves = 1
        while heap and n_leaves < self.params.max_leaves:
            _, _, node, idx, counts, sums, feat, bin_idx = heapq.heappop(heap)
            mask = Xb[idx, feat] <= bin_idx
            left_idx, right_idx = idx[mask], idx[~mask]
            if len(left_idx) == 0 or len(right_idx) == 0:
                continue  # numerically degenerate; leave as leaf
            feature[node] = feat
            threshold[node] = bin_idx
            lnode, rnode = add_node(), add_node()
            left[node], right[node] = lnode, rnode
            value[lnode] = float(y[left_idx].mean())
            value[rnode] = float(y[right_idx].mean())
            n_leaves += 1
            if n_leaves == self.params.max_leaves:
                break  # no split of either child could be taken
            if max(len(left_idx), len(right_idx)) < min_split:
                continue  # neither child can split
            # Histogram subtraction: compute the smaller child, derive the
            # larger one from the parent.
            if len(left_idx) <= len(right_idx):
                lc, ls = _histograms(Xb_off, y, left_idx, n_bins)
                rc, rs = counts - lc, sums - ls
            else:
                rc, rs = _histograms(Xb_off, y, right_idx, n_bins)
                lc, ls = counts - rc, sums - rs
            consider(lnode, left_idx, lc, ls)
            consider(rnode, right_idx, rc, rs)
        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold_bin = np.asarray(threshold, dtype=np.int64)
        self.left = np.asarray(left, dtype=np.int64)
        self.right = np.asarray(right, dtype=np.int64)
        self.value = np.asarray(value, dtype=np.float64)
        return self

    def predict_binned(self, Xb: np.ndarray) -> np.ndarray:
        if self.feature is None:
            raise RuntimeError("tree is not fitted")
        n = len(Xb)
        node = np.zeros(n, dtype=np.int64)
        active = self.feature[node] >= 0
        while active.any():
            rows = np.flatnonzero(active)
            cur = node[rows]
            feats = self.feature[cur]
            go_left = Xb[rows, feats] <= self.threshold_bin[cur]
            node[rows] = np.where(go_left, self.left[cur], self.right[cur])
            active[rows] = self.feature[node[rows]] >= 0
        return self.value[node]
