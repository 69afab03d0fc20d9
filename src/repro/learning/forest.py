"""Many MART models scored as one packed forest.

The selector asks every candidate's model for a prediction on the same
rows.  Scoring them one model and one tree at a time costs Python
overhead per tree per depth level; :class:`PackedForest` instead
concatenates every tree of every model into flat node arrays, bins the
rows once per distinct set of bin edges, and moves every tree of every
model down together, one vectorized gather step per depth level.

Leaves point to themselves, so a row that reaches a leaf early stays
there for the remaining steps.  Leaf values are stored pre-scaled by the
model's learning rate (``learning_rate * value`` is the same product
``MARTRegressor`` always formed), and each model's leaf values are added
to its ``init_`` in tree order with a sequential accumulate, never a
pairwise sum, so every prediction is bit-identical to the per-tree loop::

    out = init_
    for tree in trees:
        out += learning_rate * tree.predict_binned(binner.transform(X))
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.learning.binning import QuantileBinner
    from repro.learning.mart import MARTRegressor

#: node slots (rows x trees) descended per block; bounds the temporaries
#: of a large batch to a few MB without changing any result (rows are
#: scored independently)
_BLOCK_SLOTS = 1 << 17


def _same_edges(a: "QuantileBinner", b: "QuantileBinner") -> bool:
    return (len(a.edges_) == len(b.edges_)
            and all(np.array_equal(x, y)
                    for x, y in zip(a.edges_, b.edges_)))


class PackedForest:
    """Every tree of ``models`` in flat arrays; :meth:`predict` scores all
    models at once, one output column per model in the given order."""

    def __init__(self, models: "list[MARTRegressor]"):
        if not models:
            raise ValueError("a forest needs at least one model")
        # models whose edges agree share one binning of X
        self._binners: list[QuantileBinner] = []
        group = []
        for model in models:
            if model.binner is None:
                raise RuntimeError("model is not fitted")
            for g, binner in enumerate(self._binners):
                if _same_edges(binner, model.binner):
                    break
            else:
                self._binners.append(model.binner)
                g = len(self._binners) - 1
            group.append(g)
        widths = [len(binner.edges_) for binner in self._binners]
        column_base = np.concatenate([[0], np.cumsum(widths)[:-1]])

        feature, threshold, child, value = [], [], [], []
        n_nodes = 0
        roots = []
        for model, g in zip(models, group):
            rate = model.params.learning_rate
            model_roots = []
            for tree in model.trees:
                leaf = tree.feature < 0
                own = n_nodes + np.arange(len(tree.feature))
                feature.append(np.where(leaf, 0, tree.feature)
                               + column_base[g])
                threshold.append(tree.threshold_bin)
                # child of node i is child[2 i + (x > threshold)]
                child.append(np.column_stack([
                    np.where(leaf, own, n_nodes + tree.left),
                    np.where(leaf, own, n_nodes + tree.right)]).ravel())
                value.append(rate * tree.value)
                model_roots.append(n_nodes)
                n_nodes += len(tree.feature)
            roots.append(model_roots)
        # models with fewer trees are padded with a leaf worth -0.0, the
        # exact additive identity (x + -0.0 == x bit for bit, even x = -0.0)
        pad = n_nodes
        feature.append(np.zeros(1, dtype=np.int64))
        threshold.append(np.zeros(1, dtype=np.int64))
        child.append(np.array([pad, pad]))
        value.append(np.array([-0.0]))
        n_trees = max(len(r) for r in roots)
        # (trees, models): slot order matches the accumulate layout below
        self._roots = np.array([r + [pad] * (n_trees - len(r))
                                for r in roots], dtype=np.intp).T.copy()
        self._feature = np.concatenate(feature).astype(np.intp)
        self._threshold = np.concatenate(threshold)
        self._child = np.concatenate(child).astype(np.intp)
        self._value = np.concatenate(value)
        self._init = np.array([model.init_ for model in models])
        self._depth = self._max_depth()

    def _max_depth(self) -> int:
        """Gather steps that take every root to its leaf."""
        frontier = np.unique(self._roots)
        depth = 0
        while True:
            internal = frontier[self._child[2 * frontier] != frontier]
            if not len(internal):
                return depth
            frontier = self._child[np.concatenate([2 * internal,
                                                   2 * internal + 1])]
            depth += 1

    def predict(self, X: np.ndarray) -> np.ndarray:
        """``(rows, models)`` predictions, bit-identical to each model's
        per-tree loop."""
        X = np.asarray(X, dtype=np.float64)
        binned = [binner.transform(X) for binner in self._binners]
        Xb = binned[0] if len(binned) == 1 else np.hstack(binned)
        n = len(Xb)
        out = np.empty((n, len(self._init)))
        block = max(1, _BLOCK_SLOTS // max(1, self._roots.size))
        for start in range(0, n, block):
            out[start:start + block] = self._score(Xb[start:start + block])
        return out

    def _score(self, Xb: np.ndarray) -> np.ndarray:
        n, width = Xb.shape
        flat = Xb.ravel()
        row_base = (np.arange(n, dtype=np.intp) * width)[:, None, None]
        node = np.broadcast_to(self._roots, (n,) + self._roots.shape)
        for _ in range(self._depth):
            x = flat[row_base + self._feature[node]]
            node = self._child[2 * node + (x > self._threshold[node])]
        # rows x (init, tree 1, tree 2, ...) x models, summed in tree order
        terms = np.empty((n, len(self._roots) + 1, len(self._init)))
        terms[:, 0] = self._init
        terms[:, 1:] = self._value[node]
        return np.add.accumulate(terms, axis=1)[:, -1]
