"""The five prediction systems and the completion-ratio cascade.

BP and CP are statistical baselines built on running averages (globally and
per cluster).  XP and CXP wrap the boosted-tree model: per-task predictions
are exp() of the model output and the aggregate is their sum; CXP differs
from XP only in that the corpus is processed in cluster-stratified order.
GXP is the generalised variant, trained once on held-out source groups
instead of online.

XP and CXP refit in stages as tasks complete (``_refit_stages``): each
stage adds trees fitted to the log-time residuals of a longer completed
prefix, so the model carries forward rather than starting over.

``predict_remaining`` is the one path from a completion state to a
prediction; the Monte-Carlo sweep grades it and ``corpus-eta predict``
ships it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .clustering import ClusterAssignment, task_labels
from .corpus import Corpus, to_log_time
from .errors import PredictionError, ValidationError
from .gbrt import GbrtModel, GbrtParams, add_stage, feature_matrix, predict, train

SYSTEMS = ("BP", "CP", "XP", "CXP", "GXP")


@dataclass(frozen=True)
class StageCache:
    """A model's work on one processing order, for a later call on it.

    For XP and CXP fitting their own model, it holds the stages fitted so
    far: every stage ends at a schedule boundary, so each later completion
    point of the same order starts with them. For a fitted model passed in,
    ``plan`` is empty and nothing is refitted. ``output`` is the model's
    log-time output on every task of the order.
    """

    model: GbrtModel
    plan: tuple[tuple[int, int], ...]  # (completed rows, trees) of each stage
    output: np.ndarray


@dataclass(frozen=True)
class AggregatePrediction:
    system: str
    c: float
    t_hat: np.ndarray | None        # seconds per queued task, in processing order
    T_hat: float                    # predicted seconds for the remaining fraction
    t_bar: float | None = None                   # BP: the global mean
    cluster_means: dict[int, float] | None = None  # CP: per-cluster means
    model: GbrtModel | None = None               # XP, CXP, GXP: the model used
    cache: StageCache | None = None              # XP, CXP, GXP: work to reuse


def _mean(times: Sequence[float]) -> float:
    # fsum: exact, so the value is independent of summation order.
    return math.fsum(times) / len(times)


def bp_predict(completed_times: Sequence[float], total_tasks: int) -> AggregatePrediction:
    """Progress-bar baseline: the mean completed time predicts every remaining task.

    The aggregate is (1 - c) * N * mean, the completed-fraction scaling rule
    written so that the per-cluster variant with a single cluster reproduces
    it bit-for-bit.
    """
    n = len(completed_times)
    if n == 0:
        raise PredictionError("BP undefined at c=0")
    if n >= total_tasks:
        raise PredictionError("nothing remaining to predict")
    c = n / total_tasks
    t_bar = _mean(completed_times)
    T_hat = (1.0 - c) * (total_tasks * t_bar)
    return AggregatePrediction(system="BP", c=c, t_hat=None, T_hat=T_hat, t_bar=t_bar)


def cp_predict(completed_by_cluster: Mapping[int, Sequence[float]],
               cluster_task_counts, total_tasks: int) -> AggregatePrediction:
    """Per-cluster running averages, aggregated as (1 - c) * sum_j M_j * mean_j.

    A cluster with no completed task yet falls back to the global mean of all
    completed times.
    """
    counts = np.asarray(cluster_task_counts, dtype=np.int64)
    k = counts.shape[0]
    all_times: list[float] = []
    for j, times in completed_by_cluster.items():
        if not 0 <= j < k:
            raise ValidationError(f"cluster index {j} out of range for k={k}")
        all_times.extend(times)
    n = len(all_times)
    if n == 0:
        raise PredictionError("CP undefined: no completed tasks in any cluster")
    if n >= total_tasks:
        raise PredictionError("nothing remaining to predict")
    c = n / total_tasks
    global_mean = _mean(all_times)

    cluster_mean: dict[int, float] = {}
    for j in range(k):
        times = completed_by_cluster.get(j)
        has_any = times is not None and len(times) > 0
        cluster_mean[j] = _mean(times) if has_any else global_mean

    weighted = math.fsum(int(counts[j]) * cluster_mean[j] for j in range(k))
    T_hat = (1.0 - c) * weighted
    return AggregatePrediction(system="CP", c=c, t_hat=None, T_hat=T_hat,
                               cluster_means=dict(cluster_mean))


def xp_predict(model: GbrtModel, remaining: Mapping[str, Sequence[float]],
               c: float = 0.0, system: str = "XP") -> AggregatePrediction:
    """exp() the per-task model outputs and sum them for the aggregate.

    t_hat follows the iteration order of ``remaining``.
    """
    if not remaining:
        raise PredictionError("nothing remaining to predict")
    rows = np.asarray(list(remaining.values()), dtype=np.float64)
    return _model_total(model, predict(model, rows), c, system)


def _model_total(model: GbrtModel, log_t: np.ndarray, c: float, system: str,
                 cache: StageCache | None = None) -> AggregatePrediction:
    per_task = np.exp(log_t)
    return AggregatePrediction(system=system, c=c, t_hat=per_task,
                               T_hat=math.fsum(per_task.tolist()), model=model, cache=cache)


def _first_boundary(total_tasks: int) -> int:
    return -(-total_tasks // 50)  # 2 % of the tasks, rounded up


def _refit_stages(n: int, total_tasks: int, num_trees: int) -> list[tuple[int, int]]:
    """XP and CXP's stages at n completed tasks, as (completed rows, trees) pairs.

    The boundaries b_j = ceil(N/50) * 2**j depend only on the task count N.
    Up to b_0 the model is one stage of num_trees trees on all n rows. Past
    it, num_trees trees on the first b_0 rows come first, then
    ceil(num_trees/6) trees on the first b_j rows for each b_j < n, and as
    many on all n rows.
    """
    first = _first_boundary(total_tasks)
    if n <= first or num_trees == 0:
        return [(n, num_trees)]
    later = -(-num_trees // 6)
    plan = [(first, num_trees)]
    while plan[-1][0] * 2 < n:
        plan.append((plan[-1][0] * 2, later))
    plan.append((n, later))
    return plan


def _fit_stages(rows: np.ndarray, log_t: np.ndarray, total_tasks: int, params: GbrtParams,
                cache: StageCache | None) -> tuple[GbrtModel, np.ndarray, StageCache | None]:
    """The staged model on the completed rows, its output on every row, and
    the stages that end at a boundary, for the next call on the same order."""
    n = log_t.size
    plan = _refit_stages(n, total_tasks, params.num_trees)
    # every stage but the last ends at a boundary; the last does when n is one
    at_boundary = n == _first_boundary(total_tasks) << (len(plan) - 1)
    keep = len(plan) if at_boundary else len(plan) - 1
    done = 0
    model = output = None
    # an empty plan marks a fitted model's cache, which holds no stages to extend
    if (cache is not None and cache.plan and cache.model.params == params
            and tuple(plan[:len(cache.plan)]) == cache.plan
            and cache.output.shape == (len(rows),)):
        model, output, done = cache.model, cache.output, len(cache.plan)
    else:
        cache = None
    for i, (end, trees) in enumerate(plan[done:], start=done):
        if model is None:
            model = train(rows[:end], log_t[:end], params)
            output = predict(model, rows)
        else:
            model = add_stage(model, rows[:end], log_t[:end], trees, output[:end])
            output = predict(model, rows, margin=output)
        if i + 1 == keep:
            cache = StageCache(model=model, plan=tuple(plan[:keep]), output=output)
    return model, output, cache


def predict_remaining(system: str, completed: Sequence[float], total_tasks: int, *,
                      rows: np.ndarray | None = None,
                      labels: Sequence[int] | None = None,
                      model: GbrtModel | GbrtParams | None = None,
                      cache: StageCache | None = None) -> AggregatePrediction:
    """Predict every queued task, and their total, from a completion state.

    Inputs follow the processing order: ``completed`` holds the seconds of
    the first n tasks, in the order they completed, and ``rows`` (feature
    rows, for XP, CXP and GXP) or ``labels`` (cluster labels, for CP) cover
    all ``total_tasks`` tasks, completed first. XP and CXP fit a staged model
    on the completed rows and their log-seconds when ``model`` is a
    GbrtParams (see ``_refit_stages``); a fitted model (always, for GXP) is
    used as is. ``cache`` takes the ``cache`` of an earlier result on the
    same rows and model or params, with a completed prefix of this call's:
    a fitted model's output is then sliced rather than predicted again, and
    stages it holds are not refitted. The result is bit-identical either
    way, and a cache that does not match is ignored. ``t_hat`` is set for
    every system. Rows or labels that do not cover exactly ``total_tasks``
    tasks, and negative labels, raise ValidationError.
    """
    if system not in SYSTEMS:
        raise ValidationError(f"unknown system {system!r}, expected one of {SYSTEMS}")
    seconds = np.asarray(completed, dtype=np.float64)
    n = seconds.size
    if system == "BP":
        res = bp_predict(seconds.tolist(), total_tasks)
        return replace(res, t_hat=np.full(total_tasks - n, res.t_bar))
    if system == "CP":
        if labels is None:
            raise ValidationError("CP needs the tasks' cluster labels")
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != (total_tasks,):
            raise ValidationError(
                f"CP needs one cluster label per task: got {labels.size} for {total_tasks}")
        if (labels < 0).any():
            raise ValidationError(f"cluster labels must be >= 0, got {labels.min()}")
        by_cluster: dict[int, list[float]] = {}
        for j, sec in zip(labels[:n].tolist(), seconds.tolist()):
            by_cluster.setdefault(j, []).append(sec)
        counts = np.bincount(labels)
        res = cp_predict(by_cluster, counts, total_tasks)
        means = np.asarray([res.cluster_means[j] for j in range(counts.size)])
        return replace(res, t_hat=means[labels[n:]])
    if rows is None:
        raise ValidationError(f"{system} needs the tasks' feature rows")
    if len(rows) != total_tasks:
        raise ValidationError(
            f"{system} needs one feature row per task: got {len(rows)} for {total_tasks}")
    if n >= total_tasks:
        raise PredictionError("nothing remaining to predict")
    c = n / total_tasks
    if isinstance(model, GbrtParams) and system != "GXP":
        if n == 0:
            raise PredictionError(f"{system} needs at least one completed task to train on")
        model, output, cache = _fit_stages(rows, np.log(seconds), total_tasks, model, cache)
        return _model_total(model, output[n:], c, system, cache)
    if not isinstance(model, GbrtModel):
        raise ValidationError(f"{system} needs a trained model")
    if (cache is None or cache.plan or cache.model is not model
            or cache.output.shape != (len(rows),)):
        cache = StageCache(model=model, plan=(), output=predict(model, rows))
    return _model_total(model, cache.output[n:], c, system, cache)


def cxp_order(corpus: Corpus, assignment: ClusterAssignment, seed: int) -> list[str]:
    """Cluster-stratified processing order.

    Tasks are drawn round-robin across clusters in cluster-index order,
    uniformly at random without replacement inside each cluster; exhausted
    clusters are skipped.
    """
    buckets: list[list[str]] = [[] for _ in range(assignment.k)]
    for task, label in zip(corpus.tasks, task_labels(assignment, corpus.tasks).tolist()):
        buckets[label].append(task.task_id)

    rng = np.random.default_rng(seed)
    for bucket in buckets:
        if len(bucket) > 1:
            perm = rng.permutation(len(bucket))
            bucket[:] = [bucket[i] for i in perm]

    order: list[str] = []
    cursor = [0] * assignment.k
    remaining = len(corpus.tasks)
    while remaining:
        for j in range(assignment.k):
            if cursor[j] < len(buckets[j]):
                order.append(buckets[j][cursor[j]])
                cursor[j] += 1
                remaining -= 1
    return order


@dataclass(frozen=True)
class GxpSplit:
    train_ids: tuple[str, ...]
    train_rows: np.ndarray      # feature matrix for the training tasks
    train_targets: np.ndarray   # log-seconds
    test_ids: tuple[str, ...]


def gxp_train_split(corpus: Corpus, test_groups) -> GxpSplit:
    """Split tasks by their clip's source group; test_groups form the held-out side."""
    test_groups = set(test_groups)
    known = {clip.source_group for clip in corpus.clips}
    missing = test_groups - known
    if missing:
        raise ValidationError(
            f"test groups {sorted(missing)} not present in the corpus")
    train_ids: list[str] = []
    test_ids: list[str] = []
    for task in corpus.tasks:
        if corpus.clip(task.clip_id).source_group in test_groups:
            test_ids.append(task.task_id)
        else:
            train_ids.append(task.task_id)
    if not train_ids:
        raise ValidationError("generalised split has an empty training side")
    if not test_ids:
        raise ValidationError("generalised split has an empty test side")
    if corpus.times is None:
        raise ValidationError("corpus has no measured times to train on")
    targets = []
    for tid in train_ids:
        record = corpus.times.get(tid)
        if record is None:
            raise ValidationError(f"no measured time for training task {tid!r}")
        targets.append(to_log_time(record.seconds))
    return GxpSplit(train_ids=tuple(train_ids),
                    train_rows=feature_matrix(corpus, train_ids),
                    train_targets=np.asarray(targets, dtype=np.float64),
                    test_ids=tuple(test_ids))


@dataclass(frozen=True)
class CascadePolicy:
    """Ordered (c_upper_bound, system) pairs; the first bound >= c wins."""

    thresholds: tuple[tuple[float, str], ...] = ((0.0, "GXP"), (0.06, "CXP"), (1.0, "CP"))

    def __post_init__(self):
        if not self.thresholds:
            raise ValidationError("cascade policy must have at least one entry")
        bounds = [b for b, _ in self.thresholds]
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValidationError(f"cascade bounds must be strictly increasing, got {bounds}")
        if bounds[-1] != 1.0:
            raise ValidationError(f"cascade bounds must end at 1.0, got {bounds}")
        for _, system in self.thresholds:
            if system not in SYSTEMS:
                raise ValidationError(f"unknown system {system!r} in cascade policy")


DEFAULT_CASCADE = CascadePolicy()


def cascade_select(policy: CascadePolicy, c: float) -> str:
    """Pick the system for completion ratio c; a step function over the bounds."""
    if not 0.0 <= c < 1.0:
        raise PredictionError(f"cascade defined for 0 <= c < 1, got {c}")
    for bound, system in policy.thresholds:
        if c <= bound:
            return system
    return policy.thresholds[-1][1]
