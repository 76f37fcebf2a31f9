"""Gradient-boosted regression trees, written from scratch on numpy.

Squared-error boosting: each tree fits the residuals of the ensemble so far
using an exhaustive axis-aligned split search.  Candidate thresholds are the
midpoints between consecutive sorted unique feature values; ties in gain are
broken by lowest feature index, then lowest threshold.  Rows are put into a
canonical order before training, so the fitted model is bit-identical under
any permutation of the training set.

The search is presorted and partitioned.  Each feature is argsorted once per
fit.  Every node owns a matrix holding its rows in each feature's sorted
order, plus a row in canonical order.  A split found at sorted position p of
one feature sends the first p + 1 rows of that feature's order left, so no
row is compared with the threshold; the matrix is partitioned stably by one
lookup of each row's side, so the children arrive already sorted and no node
touches rows outside itself.  A child that is certain to be a leaf (its
parent sits one level above ``max_depth``, or it has fewer than
``2 * min_samples_leaf`` rows) takes only its canonical row.  Within a node,
one cumulative sum per feature gives the left sums at every sorted position,
and only positions where the value changes and both children keep
``min_samples_leaf`` rows are scored.  Each feature sums its residuals in its
own sorted order, with no binning, so every score is bit-identical to a
direct sweep over the node's sorted rows.

Prediction walks all rows down a tree together, one level per step.  Leaves
act as self-loops, so each step is the same few gathers over every row, and
the walk stops once no row sits on an internal node.

A model may grow in stages.  ``add_stage`` continues boosting a fitted
model on another training set, from the model's own output on it (its
margin), as training continuation does in other boosting libraries; the
stage's trees fit the residuals against that margin.  Every tree of every
stage is scaled by the one learning rate, so ``predict`` sums a staged model
exactly as it sums a single fit.

Targets are log-seconds; callers exponentiate predictions back to linear
time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .corpus import CLIP_FEATURES, PRESET_ORD, Corpus, atomic_open
from .errors import ValidationError

# Model input vector, one row per encode task.
FEATURE_NAMES = CLIP_FEATURES + ("preset_ord", "cqp")

MODEL_FORMAT = "corpus-eta-gbrt"
MODEL_VERSION = 2  # 2 records the trees of each stage


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
    # trees per stage, in order; None means one stage holding every tree
    stages: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.stages is None:
            object.__setattr__(self, "stages", (len(self.trees),) if self.trees else ())


def feature_matrix(corpus: Corpus, task_ids: Sequence[str]) -> np.ndarray:
    """Model features of each task, one row per id, ordered per FEATURE_NAMES."""
    by_clip: dict[str, tuple] = {}

    def rows():
        for task in corpus.tasks_of(task_ids):
            head = by_clip.get(task.clip_id)
            if head is None:
                head = by_clip[task.clip_id] = corpus.clip(task.clip_id).feature_values
            yield head + (PRESET_ORD[task.preset], task.cqp)

    # fromiter keeps one row's tuple alive at a time, not a list of them all
    return np.fromiter(rows(), dtype=np.dtype((np.float64, len(FEATURE_NAMES))),
                       count=len(task_ids))


class _TreeBuilder:
    """Grows trees on residuals over one fixed training matrix.

    A node holds an (F+1, m) intp matrix of its rows: row f lists them in
    feature f's presorted order, the last row in canonical row order.
    """

    def __init__(self, X: np.ndarray, params: GbrtParams):
        n, num_features = X.shape
        self.values = np.ascontiguousarray(X.T).ravel()  # feature-major
        self.offsets = np.arange(num_features, dtype=np.intp)[:, None] * n
        self.params = params
        self.side = np.empty(n, dtype=bool)  # split side of each row, by row id
        self.root = np.empty((num_features + 1, n), dtype=np.intp)
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
        if self._can_split(0, self.root.shape[1]):
            self._grow(self.root, depth=0)
        else:
            self._leaf(self.root[-1])
        tree = RegressionTree(
            feature=np.asarray(self.feature, dtype=np.int32),
            threshold=np.asarray(self.threshold, dtype=np.float64),
            left=np.asarray(self.left, dtype=np.int32),
            right=np.asarray(self.right, dtype=np.int32),
            value=np.asarray(self.value, dtype=np.float64))
        return tree, self.train_out

    def _can_split(self, depth: int, m: int) -> bool:
        return depth < self.params.max_depth and m >= 2 * self.params.min_samples_leaf

    def _new_node(self, value: float = 0.0) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(value)
        return len(self.feature) - 1

    def _leaf(self, member: np.ndarray) -> int:
        # member is in ascending row order, so the sum runs in a fixed order;
        # np.mean is exactly this add.reduce divided by the count
        val = float(np.add.reduce(self.residuals.take(member))) / member.size
        self.train_out[member] = val
        return self._new_node(val)

    def _grow(self, rows: np.ndarray, depth: int) -> int:
        """Grow the subtree of a node that may split; returns its index."""
        split = self._best_split(rows)
        member = rows[-1]
        if split is None:
            return self._leaf(member)

        node = self._new_node()
        feat, thr, n_left = split
        self.feature[node] = feat
        self.threshold[node] = thr
        self.side[rows[feat, :n_left]] = True
        self.side[rows[feat, n_left:]] = False
        m = member.size
        depth += 1
        split_left = self._can_split(depth, n_left)
        split_right = self._can_split(depth, m - n_left)
        # Stable partition: each child's rows keep their sorted order.  A child
        # that is certain to be a leaf needs only its member row.
        by_side = self.side[rows if split_left or split_right else rows[-1:]]
        go_left = by_side[-1]
        self.left[node] = (self._grow(rows[by_side].reshape(len(rows), n_left), depth)
                           if split_left else self._leaf(member[go_left]))
        self.right[node] = (self._grow(rows[~by_side].reshape(len(rows), m - n_left), depth)
                            if split_right else self._leaf(member[~go_left]))
        return node

    def _best_split(self, rows: np.ndarray) -> tuple[int, float, int] | None:
        """Exhaustive search maximizing the SSE reduction of the split, as
        (feature, threshold, count of rows at the front of its order going left).

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
        cand = (sv[:, msl - 1:m - msl] < sv[:, msl:m - msl + 1]).ravel().nonzero()[0]
        if cand.size == 0:
            return None
        feats, pos = np.divmod(cand, width)
        pos += msl - 1
        prefix = self.residuals.take(idx).cumsum(axis=1)
        totals = prefix[:, -1]
        parent = float(totals[(sv[:, 0] != sv[:, -1]).argmax()])
        parent_score = parent * parent / m

        left_sum = prefix.ravel().take(feats * m + pos)
        n_left = pos + 1.0
        right_sum = totals.take(feats) - left_sum
        score = left_sum * left_sum / n_left + right_sum * right_sum / (m - n_left)
        # first max over (feature, position) in row-major order: lowest feature,
        # then lowest threshold, wins ties
        j = int(score.argmax())
        if not score[j] > parent_score:  # only real gains beat the parent
            return None
        feat, p = int(feats[j]), int(pos[j])
        below, above = float(sv[feat, p]), float(sv[feat, p + 1])
        thr = (below + above) / 2.0
        if not below <= thr < above:  # midpoint rounded up to the right value, or overflowed
            thr = below
        return feat, thr, p + 1


def _training_set(rows, targets) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(rows, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
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
    return X, y


def _canonical_order(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Rows sorted by features, then target: training on them is invariant
    (bit-for-bit) to any permutation of the input rows."""
    return np.lexsort((y,) + tuple(X[:, f] for f in reversed(range(X.shape[1]))))


def _boost(X: np.ndarray, y: np.ndarray, pred: np.ndarray, params: GbrtParams,
           num_trees: int) -> tuple[tuple[RegressionTree, ...], tuple[float, ...]]:
    """num_trees trees on rows in canonical order, each fitting y - pred."""
    X = np.ascontiguousarray(X)
    builder = _TreeBuilder(X, params)
    trees = []
    mse_hist = []
    for _ in range(num_trees):
        tree, out = builder.build(y - pred)
        pred = pred + params.learning_rate * out
        trees.append(tree)
        err = y - pred
        mse_hist.append(float(np.mean(err * err)))
    return tuple(trees), tuple(mse_hist)


def train(rows, targets, params: GbrtParams = GbrtParams()) -> GbrtModel:
    """Fit a boosted ensemble on (rows, targets).

    Deterministic for fixed inputs: there is no subsampling, so no seed.
    """
    X, y = _training_set(rows, targets)
    order = _canonical_order(X, y)
    X, y = X[order], y[order]
    base = float(np.mean(y))
    trees, mse_hist = _boost(X, y, np.full(X.shape[0], base), params, params.num_trees)
    return GbrtModel(base_score=base, trees=trees, params=params,
                     num_features=X.shape[1], train_mse=mse_hist)


def add_stage(model: GbrtModel, rows, targets, num_trees: int, margin) -> GbrtModel:
    """``model`` plus one more stage of num_trees trees fitted on (rows, targets).

    ``margin`` is model's output on the rows (``predict(model, rows)``); the
    new trees fit targets - margin, with model's depth, leaf size and
    learning rate. Like ``train``, the stage is bit-identical under any
    permutation of its rows.
    """
    X, y = _training_set(rows, targets)
    if X.shape[1] != model.num_features:
        raise ValidationError(
            f"model expects {model.num_features} features, got {X.shape[1]}")
    margin = np.asarray(margin, dtype=np.float64)
    if margin.shape != y.shape:
        raise ValidationError(f"{y.size} targets but margin has shape {margin.shape}")
    if not np.isfinite(margin).all():
        raise ValidationError("margin contains NaN or infinity")
    if num_trees < 1:
        raise ValidationError(f"a stage needs at least one tree, got {num_trees}")
    order = _canonical_order(X, y)  # equal rows have equal margins
    trees, mse_hist = _boost(X[order], y[order], margin[order], model.params, num_trees)
    return replace(model, trees=model.trees + trees, stages=model.stages + (num_trees,),
                   train_mse=model.train_mse + mse_hist)


def _tree_outputs(tree: RegressionTree, X: np.ndarray) -> np.ndarray:
    """Leaf value of each row of a C-contiguous X, one tree level per step."""
    leaf = tree.feature < 0
    # Leaves become self-loops (feature 0, threshold +inf, both children the
    # leaf itself), so every row takes the same few gathers at every step.
    feature = np.where(leaf, 0, tree.feature)
    threshold = np.where(leaf, np.inf, tree.threshold)
    # (right, left) per node: a row's comparison result picks its child
    children = np.where(leaf, np.arange(leaf.size),
                        np.stack((tree.right, tree.left))).T.ravel()
    internal = ~leaf
    flat = X.ravel()
    row_start = np.arange(X.shape[0]) * X.shape[1]
    idx = np.zeros(X.shape[0], dtype=np.intp)
    while internal.take(idx).any():  # _check_tree makes every walk end
        go_left = flat.take(row_start + feature.take(idx)) <= threshold.take(idx)
        idx = children.take(2 * idx + go_left)
    return tree.value.take(idx)


def predict(model: GbrtModel, rows, *, margin=None) -> np.ndarray:
    """Ensemble prediction in log-time units for a matrix of feature rows.

    With ``margin``, the output on the rows of every stage but the last, only
    the last stage's trees are walked; the result is still bit-identical to
    ``predict(model, rows)``.
    """
    X = np.asarray(rows, dtype=np.float64)
    if X.ndim != 2:
        raise ValidationError(f"rows must be 2-D, got shape {X.shape}")
    X = np.ascontiguousarray(X)
    if X.shape[1] != model.num_features:
        raise ValidationError(
            f"model expects {model.num_features} features, got {X.shape[1]}")
    if not np.isfinite(X).all():
        raise ValidationError("rows contain NaN or infinity")
    trees = model.trees
    if margin is None:
        out = np.full(X.shape[0], model.base_score)
    else:
        out = np.array(margin, dtype=np.float64).reshape(-1)
        if out.size != X.shape[0]:
            raise ValidationError(f"{X.shape[0]} rows but {out.size} margins")
        trees = trees[len(trees) - (model.stages[-1] if model.stages else 0):]
    for tree in trees:
        out += model.params.learning_rate * _tree_outputs(tree, X)
    return out


def model_to_dict(model: GbrtModel) -> dict:
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "base_score": model.base_score,
        "num_features": model.num_features,
        "stages": list(model.stages),
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
    if not isinstance(doc, dict):
        raise ValidationError("malformed model document: not a JSON object")
    if doc.get("format") != MODEL_FORMAT:
        raise ValidationError(f"not a {MODEL_FORMAT} document")
    version = doc.get("version")
    if version not in (1, MODEL_VERSION):
        raise ValidationError(f"unsupported model version {version!r}")
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
        # version 1 predates stages: its trees form one stage
        stages = ([len(trees)] if trees else []) if version == 1 else doc["stages"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed model document: {exc!r}") from exc
    if not math.isfinite(base_score):
        raise ValidationError(f"base_score must be finite, got {base_score}")
    if not (isinstance(stages, list) and all(type(s) is int and s >= 1 for s in stages)):
        raise ValidationError(
            f"stages must be a list of tree counts of at least 1, got {stages!r}")
    if sum(stages) != len(trees):
        raise ValidationError(f"stages hold {sum(stages)} trees but the model has {len(trees)}")
    first = stages[0] if stages else 0
    if first != params.num_trees:
        raise ValidationError(
            f"stage 0 has {first} trees but params.num_trees is {params.num_trees}")
    for k, tree in enumerate(trees):
        _check_tree(k, tree, num_features)
    return GbrtModel(base_score=base_score, trees=trees, params=params,
                     num_features=num_features, stages=tuple(stages))


def save_model(path, model: GbrtModel) -> None:
    with atomic_open(path, encoding="utf-8") as fh:
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
