"""Test-only reference: the boolean-mask GBRT split search.

Each node is a boolean membership mask over all rows, and every feature's
presorted index is filtered through that mask at every node. This is slow
(O(N) per node and feature) but obviously exhaustive. ``reference_train``
repeats ``gbrt.train``'s canonical ordering and boosting loop around it, so
the production builder must produce identical trees and training errors.
"""

from __future__ import annotations

import numpy as np

from corpus_eta.gbrt import GbrtParams, RegressionTree


class MaskTreeBuilder:
    """Grows one tree on the residuals; reuses the per-feature presort."""

    def __init__(self, X: np.ndarray, sort_idx: list[np.ndarray], params: GbrtParams):
        self.X = X
        self.sort_idx = sort_idx
        self.params = params

    def build(self, residuals: np.ndarray) -> tuple[RegressionTree, np.ndarray]:
        self.residuals = residuals
        self.train_out = np.empty_like(residuals)
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []
        self._grow(np.ones(self.X.shape[0], dtype=bool), depth=0)
        tree = RegressionTree(
            feature=np.asarray(self.feature, dtype=np.int32),
            threshold=np.asarray(self.threshold, dtype=np.float64),
            left=np.asarray(self.left, dtype=np.int32),
            right=np.asarray(self.right, dtype=np.int32),
            value=np.asarray(self.value, dtype=np.float64))
        return tree, self.train_out

    def _new_node(self) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return len(self.feature) - 1

    def _make_leaf(self, node: int, member: np.ndarray) -> None:
        val = float(np.mean(self.residuals[member]))
        self.value[node] = val
        self.train_out[member] = val

    def _grow(self, member: np.ndarray, depth: int) -> int:
        node = self._new_node()
        m = int(np.count_nonzero(member))
        msl = self.params.min_samples_leaf
        if depth >= self.params.max_depth or m < 2 * msl:
            self._make_leaf(node, member)
            return node

        split = self._best_split(member, m)
        if split is None:
            self._make_leaf(node, member)
            return node

        feat, thr = split
        self.feature[node] = feat
        self.threshold[node] = thr
        go_left = member & (self.X[:, feat] <= thr)
        self.left[node] = self._grow(go_left, depth + 1)
        self.right[node] = self._grow(member & ~go_left, depth + 1)
        return node

    def _best_split(self, member: np.ndarray, m: int) -> tuple[int, float] | None:
        msl = self.params.min_samples_leaf
        resid = self.residuals
        total_all = None
        best_score = None
        best = None
        counts = np.arange(1, m, dtype=np.float64)
        size_ok = (counts >= msl) & (m - counts >= msl)

        for feat in range(self.X.shape[1]):
            order = self.sort_idx[feat]
            node_idx = order[member[order]]
            sv = self.X[node_idx, feat]
            if sv[0] == sv[-1]:
                continue
            prefix = np.cumsum(resid[node_idx])
            total = prefix[-1]
            if total_all is None:
                total_all = total
                best_score = total * total / m  # parent score; only real gains beat it
            valid = (sv[:-1] < sv[1:]) & size_ok
            if not valid.any():
                continue
            pos = np.nonzero(valid)[0]
            left_sum = prefix[pos]
            n_left = counts[pos]
            score = left_sum * left_sum / n_left \
                + (total - left_sum) * (total - left_sum) / (m - n_left)
            j = int(np.argmax(score))  # first max: lowest threshold wins ties
            if score[j] > best_score:
                best_score = score[j]
                p = int(pos[j])
                thr = (sv[p] + sv[p + 1]) / 2.0
                if thr == sv[p + 1]:  # midpoint rounded up to the right value
                    thr = sv[p]
                best = (feat, float(thr))
        return best


def reference_train(rows, targets, params: GbrtParams):
    """``gbrt.train`` with the mask builder; returns (base, trees, train_mse)."""
    X = np.asarray(rows, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    order = np.lexsort((y,) + tuple(X[:, f] for f in reversed(range(X.shape[1]))))
    X = np.ascontiguousarray(X[order])
    y = y[order]

    sort_idx = [np.argsort(X[:, f], kind="stable") for f in range(X.shape[1])]
    base = float(np.mean(y))
    pred = np.full(X.shape[0], base)
    builder = MaskTreeBuilder(X, sort_idx, params)
    trees = []
    mse_hist = []
    for _ in range(params.num_trees):
        tree, out = builder.build(y - pred)
        pred = pred + params.learning_rate * out
        trees.append(tree)
        err = y - pred
        mse_hist.append(float(np.mean(err * err)))
    return base, tuple(trees), tuple(mse_hist)
