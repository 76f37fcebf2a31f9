"""Gradient-boosted regression trees, written from scratch on numpy.

Squared-error boosting: each tree fits the residuals of the ensemble so far
using an exhaustive axis-aligned split search.  Candidate thresholds are the
midpoints between consecutive sorted unique feature values; ties in gain are
broken by lowest feature index, then lowest threshold.  Rows are put into a
canonical order before training, so the fitted model is bit-identical under
any permutation of the training set.

The search is presorted and partitioned.  Each feature is argsorted once per
fit.  Every node owns a matrix holding its rows in each feature's sorted
order, plus a row in canonical order.  A split partitions every row of that
matrix stably by one lookup of each row's side, so the children arrive
already sorted and no node touches rows outside itself.  Within a node, one
cumulative sum per feature gives the left sums at every sorted position, and
only positions where the value changes and both children keep
``min_samples_leaf`` rows are scored.  Each feature sums its residuals in its
own sorted order, with no binning, so every score is bit-identical to a
direct sweep over the node's sorted rows.

Targets are log-seconds; callers exponentiate predictions back to linear
time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .corpus import PRESET_ORD, Corpus
from .errors import ValidationError

# Model input vector, one row per encode task.
FEATURE_NAMES = ("height", "num_pixels", "framerate", "num_frames",
                 "E", "h", "luma", "preset_ord", "cqp")

MODEL_FORMAT = "corpus-eta-gbrt"
MODEL_VERSION = 1


@dataclass(frozen=True)
class GbrtParams:
    num_trees: int = 200
    max_depth: int = 6
    learning_rate: float = 0.1
    min_samples_leaf: int = 5

    def __post_init__(self):
        if self.num_trees < 0:
            raise ValidationError(f"num_trees must be >= 0, got {self.num_trees}")
        if self.max_depth < 0:
            raise ValidationError(f"max_depth must be >= 0, got {self.max_depth}")
        if not (0.0 < self.learning_rate <= 1.0):
            raise ValidationError(
                f"learning_rate must be in (0, 1], got {self.learning_rate}")
        if self.min_samples_leaf < 1:
            raise ValidationError(
                f"min_samples_leaf must be >= 1, got {self.min_samples_leaf}")


@dataclass(frozen=True)
class RegressionTree:
    """Flat node arrays; feature == -1 marks a leaf, children index into the arrays."""

    feature: np.ndarray    # int32
    threshold: np.ndarray  # float64, undefined for leaves
    left: np.ndarray       # int32
    right: np.ndarray      # int32
    value: np.ndarray      # float64, leaf outputs


@dataclass(frozen=True)
class GbrtModel:
    base_score: float
    trees: tuple[RegressionTree, ...]
    params: GbrtParams
    num_features: int
    train_mse: tuple[float, ...] = field(default=(), compare=False)


def feature_row(clip, task) -> np.ndarray:
    """Model features for one encode task, ordered per FEATURE_NAMES."""
    return np.array([clip.height, clip.num_pixels, float(clip.framerate),
                     clip.num_frames, clip.E, clip.h, clip.luma,
                     PRESET_ORD[task.preset], task.cqp], dtype=np.float64)


def feature_matrix(corpus: Corpus, task_ids: Sequence[str]) -> np.ndarray:
    task_map = corpus.task_map()
    rows = np.empty((len(task_ids), len(FEATURE_NAMES)), dtype=np.float64)
    for i, task_id in enumerate(task_ids):
        task = task_map.get(task_id)
        if task is None:
            raise ValidationError(f"unknown task_id {task_id!r}")
        rows[i] = feature_row(corpus.clip(task.clip_id), task)
    return rows


class _TreeBuilder:
    """Grows trees on residuals over one fixed training matrix.

    A node holds an (F+1, m) int32 matrix of its rows: row f lists them in
    feature f's presorted order, the last row in canonical row order.
    """

    def __init__(self, X: np.ndarray, params: GbrtParams):
        n, num_features = X.shape
        self.X = X
        self.values = np.ascontiguousarray(X.T).ravel()  # feature-major
        self.offsets = np.arange(num_features, dtype=np.intp)[:, None] * n
        self.params = params
        self.side = np.empty(n, dtype=bool)  # split side of each row, by row id
        self.root = np.empty((num_features + 1, n), dtype=np.int32)
        self.root[:num_features] = np.argsort(X, axis=0, kind="stable").T
        self.root[num_features] = np.arange(n)

    def build(self, residuals: np.ndarray) -> tuple[RegressionTree, np.ndarray]:
        self.residuals = residuals
        self.train_out = np.empty_like(residuals)
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []
        self._grow(self.root, depth=0)
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
        # member is in ascending row order, so the mean sums in a fixed order
        val = float(np.mean(self.residuals[member]))
        self.value[node] = val
        self.train_out[member] = val

    def _grow(self, rows: np.ndarray, depth: int) -> int:
        node = self._new_node()
        m = rows.shape[1]
        member = rows[-1]
        if depth >= self.params.max_depth or m < 2 * self.params.min_samples_leaf:
            self._make_leaf(node, member)
            return node

        split = self._best_split(rows)
        if split is None:
            self._make_leaf(node, member)
            return node

        # Stable partition: each child's rows keep their sorted order.
        feat, thr = split
        self.feature[node] = feat
        self.threshold[node] = thr
        self.side[member] = self.X[member, feat] <= thr
        go_left = self.side[rows]
        n_left = int(np.count_nonzero(go_left[-1]))
        self.left[node] = self._grow(rows[go_left].reshape(len(rows), n_left), depth + 1)
        self.right[node] = self._grow(rows[~go_left].reshape(len(rows), m - n_left),
                                      depth + 1)
        return node

    def _best_split(self, rows: np.ndarray) -> tuple[int, float] | None:
        """Exhaustive search maximizing the SSE reduction of the split.

        For squared error the reduction is (sum_L)^2/n_L + (sum_R)^2/n_R minus
        the parent term, so it suffices to maximize the children's score.
        Each feature sums its residuals in its own sorted order; the parent
        term comes from the first non-constant feature.
        """
        msl = self.params.min_samples_leaf
        m = rows.shape[1]
        idx = rows[:-1]
        sv = self.values.take(idx + self.offsets)
        # candidate boundary p splits after sorted position p, leaving p+1 rows left
        width = m - 2 * msl + 1
        cand = np.flatnonzero(sv[:, msl - 1:m - msl] < sv[:, msl:m - msl + 1])
        if cand.size == 0:
            return None
        feats, pos = np.divmod(cand, width)
        pos += msl - 1
        prefix = np.cumsum(self.residuals.take(idx), axis=1)
        totals = prefix[:, -1]
        first = int(np.argmax(sv[:, 0] != sv[:, -1]))
        parent_score = totals[first] * totals[first] / m

        left_sum = prefix.ravel().take(feats * m + pos)
        n_left = pos + 1.0
        total = totals.take(feats)
        score = left_sum * left_sum / n_left \
            + (total - left_sum) * (total - left_sum) / (m - n_left)
        # first max over (feature, position) in row-major order: lowest feature,
        # then lowest threshold, wins ties
        j = int(np.argmax(score))
        if not score[j] > parent_score:  # only real gains beat the parent
            return None
        feat, p = int(feats[j]), int(pos[j])
        thr = (sv[feat, p] + sv[feat, p + 1]) / 2.0
        if thr == sv[feat, p + 1]:  # midpoint rounded up to the right value
            thr = sv[feat, p]
        return feat, float(thr)


def train(rows, targets, params: GbrtParams = GbrtParams()) -> GbrtModel:
    """Fit a boosted ensemble on (rows, targets).

    Deterministic for fixed inputs: there is no subsampling, so no seed.
    """
    X = np.asarray(rows, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if X.ndim != 2:
        raise ValidationError(f"rows must be 2-D, got shape {X.shape}")
    if X.shape[0] != y.shape[0]:
        raise ValidationError(f"{X.shape[0]} rows but {y.shape[0]} targets")
    if X.shape[0] == 0:
        raise ValidationError("empty training set")
    if not np.isfinite(y).all():
        raise ValidationError("targets contain NaN or infinity")
    if not np.isfinite(X).all():
        raise ValidationError("rows contain NaN or infinity")

    # Canonical row order: makes training invariant (bit-for-bit) to any
    # permutation of the input rows.
    order = np.lexsort((y,) + tuple(X[:, f] for f in reversed(range(X.shape[1]))))
    X = np.ascontiguousarray(X[order])
    y = y[order]

    base = float(np.mean(y))
    pred = np.full(X.shape[0], base)
    builder = _TreeBuilder(X, params)
    trees = []
    mse_hist = []
    for _ in range(params.num_trees):
        tree, out = builder.build(y - pred)
        pred = pred + params.learning_rate * out
        trees.append(tree)
        err = y - pred
        mse_hist.append(float(np.mean(err * err)))
    return GbrtModel(base_score=base, trees=tuple(trees), params=params,
                     num_features=X.shape[1], train_mse=tuple(mse_hist))


def _tree_outputs(tree: RegressionTree, X: np.ndarray) -> np.ndarray:
    idx = np.zeros(X.shape[0], dtype=np.int64)
    while True:
        feat = tree.feature[idx]
        live = np.nonzero(feat >= 0)[0]
        if live.size == 0:
            return tree.value[idx]
        at = idx[live]
        go_left = X[live, feat[live]] <= tree.threshold[at]
        idx[live] = np.where(go_left, tree.left[at], tree.right[at])


def predict(model: GbrtModel, rows) -> np.ndarray:
    """Ensemble prediction in log-time units for a matrix of feature rows."""
    X = np.asarray(rows, dtype=np.float64)
    single = X.ndim == 1
    if single:
        X = X.reshape(1, -1)
    if X.shape[1] != model.num_features:
        raise ValidationError(
            f"model expects {model.num_features} features, got {X.shape[1]}")
    out = np.full(X.shape[0], model.base_score)
    for tree in model.trees:
        out += model.params.learning_rate * _tree_outputs(tree, X)
    return out[0] if single else out


def predict_row(model: GbrtModel, row) -> float:
    return float(predict(model, np.asarray(row, dtype=np.float64)))


def model_to_dict(model: GbrtModel) -> dict:
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "base_score": model.base_score,
        "num_features": model.num_features,
        "params": {
            "num_trees": model.params.num_trees,
            "max_depth": model.params.max_depth,
            "learning_rate": model.params.learning_rate,
            "min_samples_leaf": model.params.min_samples_leaf,
        },
        "trees": [{
            "feature": tree.feature.tolist(),
            "threshold": tree.threshold.tolist(),
            "left": tree.left.tolist(),
            "right": tree.right.tolist(),
            "value": tree.value.tolist(),
        } for tree in model.trees],
    }


def _check_tree(k: int, tree: RegressionTree, num_features: int) -> None:
    """Reject trees that predict could not walk, or would walk forever."""
    n = tree.feature.size
    if n == 0 or any(a.shape != (n,) for a in
                     (tree.feature, tree.threshold, tree.left, tree.right, tree.value)):
        raise ValidationError(f"tree {k}: node arrays must be 1-D, non-empty and equally long")
    internal = tree.feature >= 0
    bad = (tree.feature < -1) | (tree.feature >= num_features)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValidationError(f"tree {k}, node {i}: feature {int(tree.feature[i])} is not "
                              f"-1 (leaf) or in [0, {num_features})")
    node = np.arange(n)
    for side, child in (("left", tree.left), ("right", tree.right)):
        # children after their parent: every walk moves forward and ends
        bad = internal & ((child <= node) | (child >= n))
        if bad.any():
            i = int(np.argmax(bad))
            raise ValidationError(f"tree {k}, node {i}: {side} child {int(child[i])} "
                                  f"must lie in ({i}, {n})")
    if not (np.isfinite(tree.threshold).all() and np.isfinite(tree.value).all()):
        raise ValidationError(f"tree {k}: thresholds and values must be finite")


def model_from_dict(doc: dict) -> GbrtModel:
    """Build a model from its JSON document; reject any structurally invalid one."""
    if doc.get("format") != MODEL_FORMAT:
        raise ValidationError(f"not a {MODEL_FORMAT} document")
    if doc.get("version") != MODEL_VERSION:
        raise ValidationError(f"unsupported model version {doc.get('version')!r}")
    try:
        params = GbrtParams(**doc["params"])
        trees = tuple(RegressionTree(
            feature=np.asarray(t["feature"], dtype=np.int32),
            threshold=np.asarray(t["threshold"], dtype=np.float64),
            left=np.asarray(t["left"], dtype=np.int32),
            right=np.asarray(t["right"], dtype=np.int32),
            value=np.asarray(t["value"], dtype=np.float64)) for t in doc["trees"])
        base_score = float(doc["base_score"])
        num_features = int(doc["num_features"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed model document: {exc!r}") from exc
    if not math.isfinite(base_score):
        raise ValidationError(f"base_score must be finite, got {base_score}")
    if len(trees) != params.num_trees:
        raise ValidationError(f"{len(trees)} trees but params.num_trees is {params.num_trees}")
    for k, tree in enumerate(trees):
        _check_tree(k, tree, num_features)
    return GbrtModel(base_score=base_score, trees=trees, params=params,
                     num_features=num_features)


def save_model(path, model: GbrtModel) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh)


def load_model(path) -> GbrtModel:
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read model {path}: {exc}") from exc
    with fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"model {path} is not valid JSON: {exc}") from exc
    return model_from_dict(doc)
