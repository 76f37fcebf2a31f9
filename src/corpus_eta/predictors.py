"""The five prediction systems and the completion-ratio cascade.

BP and CP are statistical baselines built on running averages (globally and
per cluster).  XP and CXP wrap the boosted-tree model: per-task predictions
are exp() of the model output and the aggregate is their sum; CXP differs
from XP only in that the corpus is processed in cluster-stratified order.
GXP is the generalised variant, trained once on held-out source groups
instead of online.

``predict_remaining`` is the one path from a completion state to a
prediction; the Monte-Carlo sweep grades it and ``corpus-eta predict``
ships it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .clustering import ClusterAssignment
from .corpus import Corpus, to_log_time
from .errors import PredictionError, ValidationError
from .gbrt import GbrtModel, GbrtParams, feature_matrix, predict, train

SYSTEMS = ("BP", "CP", "XP", "CXP", "GXP")


@dataclass(frozen=True)
class AggregatePrediction:
    system: str
    c: float
    t_hat: np.ndarray | None        # seconds per queued task, in processing order
    T_hat: float                    # predicted seconds for the remaining fraction
    t_bar: float | None = None                   # BP: the global mean
    cluster_means: dict[int, float] | None = None  # CP: per-cluster means
    model: GbrtModel | None = None               # XP, CXP, GXP: the model used


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
    return _model_total(model, np.asarray(list(remaining.values()), dtype=np.float64),
                        c, system)


def _model_total(model: GbrtModel, rows: np.ndarray, c: float,
                 system: str) -> AggregatePrediction:
    if len(rows) == 0:
        raise PredictionError("nothing remaining to predict")
    per_task = np.exp(predict(model, rows))
    return AggregatePrediction(system=system, c=c, t_hat=per_task,
                               T_hat=math.fsum(per_task.tolist()), model=model)


def predict_remaining(system: str, completed: Sequence[float], total_tasks: int, *,
                      rows: np.ndarray | None = None,
                      labels: Sequence[int] | None = None,
                      model: GbrtModel | GbrtParams | None = None) -> AggregatePrediction:
    """Predict every queued task, and their total, from a completion state.

    Inputs follow the processing order: ``completed`` holds the seconds of
    the first n tasks, and ``rows`` (feature rows, for XP, CXP and GXP) or
    ``labels`` (cluster labels, for CP) cover all ``total_tasks`` tasks,
    completed first. XP and CXP fit on the completed rows and their
    log-seconds when ``model`` is a GbrtParams; a fitted model (always, for
    GXP) is used as is. ``t_hat`` is set for every system.
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
        by_cluster: dict[int, list[float]] = {}
        for j, sec in zip(labels[:n].tolist(), seconds.tolist()):
            by_cluster.setdefault(j, []).append(sec)
        counts = np.bincount(labels)
        res = cp_predict(by_cluster, counts, total_tasks)
        means = np.asarray([res.cluster_means[j] for j in range(counts.size)])
        return replace(res, t_hat=means[labels[n:]])
    if rows is None:
        raise ValidationError(f"{system} needs the tasks' feature rows")
    if isinstance(model, GbrtParams) and system != "GXP":
        if n == 0:
            raise PredictionError(f"{system} needs at least one completed task to train on")
        model = train(rows[:n], np.log(seconds), model)
    if not isinstance(model, GbrtModel):
        raise ValidationError(f"{system} needs a trained model")
    return _model_total(model, rows[n:], n / total_tasks, system)


def cxp_order(corpus: Corpus, assignment: ClusterAssignment, seed: int) -> list[str]:
    """Cluster-stratified processing order.

    Tasks are drawn round-robin across clusters in cluster-index order,
    uniformly at random without replacement inside each cluster; exhausted
    clusters are skipped.
    """
    buckets: list[list[str]] = [[] for _ in range(assignment.k)]
    for task in corpus.tasks:
        label = assignment.labels.get(task.clip_id)
        if label is None:
            raise ValidationError(
                f"task {task.task_id!r}: clip {task.clip_id!r} has no cluster label")
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
