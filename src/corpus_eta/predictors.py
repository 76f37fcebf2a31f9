"""The five prediction systems and the completion-ratio cascade.

BP and CP are statistical baselines built on running averages (globally and
per cluster); ``bp_predict`` and ``cp_predict`` each take the completed
times to the whole prediction, per queued task and in aggregate, and
``Forecast.at`` calls them.  XP and CXP wrap the
boosted-tree model: per-task predictions are exp() of the model output and
the aggregate is their sum; CXP differs from XP only in that the corpus is
processed in cluster-stratified order.
GXP is the generalised variant, trained once on held-out source groups
instead of online.

XP and CXP refit in stages as tasks complete (``_refit_stages``): each
stage adds trees fitted to the log-time residuals of a longer completed
prefix, so the model carries forward rather than starting over.

``Forecast`` is the one path from a completion state to a prediction: one
object per corpus and processing order, which builds each system's inputs
itself, whose ``at`` predicts the queued tasks once the first n have
completed, and which keeps the model's work from one completion point to the
next. The Monte-Carlo sweep grades it and ``corpus-eta predict`` ships it.
``xp_predict`` is not on that path; it stays importable only for the
benchmark's tracer.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .clustering import ClusterAssignment, task_labels
from .corpus import Corpus
from .errors import PredictionError, ValidationError
from .gbrt import GbrtModel, GbrtParams, add_stage, feature_matrix, predict, train

SYSTEMS = ("BP", "CP", "XP", "CXP", "GXP")


@dataclass(frozen=True)
class AggregatePrediction:
    t_hat: np.ndarray               # seconds per queued task, in processing order
    T_hat: float                    # predicted seconds for the remaining fraction
    t_bar: float | None = None      # BP: the mean completed time
    model: GbrtModel | None = None  # XP, CXP, GXP: the model used


def _mean(times: np.ndarray) -> float:
    # fsum: exact, so the value is independent of summation order.
    return math.fsum(times.tolist()) / times.size


def bp_predict(completed_times: Sequence[float], total_tasks: int) -> AggregatePrediction:
    """Progress-bar baseline: the mean completed time predicts every remaining task.

    The aggregate is (1 - c) * N * mean, the completed-fraction scaling rule
    written so that the per-cluster variant with a single cluster reproduces
    it bit-for-bit.
    """
    seconds = np.asarray(completed_times, dtype=np.float64)
    n = seconds.size
    if n == 0:
        raise PredictionError("BP undefined at c=0")
    if n >= total_tasks:
        raise PredictionError("nothing remaining to predict")
    c = n / total_tasks
    t_bar = _mean(seconds)
    return AggregatePrediction(t_hat=np.full(total_tasks - n, t_bar),
                               T_hat=(1.0 - c) * (total_tasks * t_bar), t_bar=t_bar)


def cp_predict(labels: Sequence[int], completed_times: Sequence[float]) -> AggregatePrediction:
    """Per-cluster running averages, aggregated as (1 - c) * sum_j M_j * mean_j.

    ``labels`` holds every task's cluster in processing order, so N is its
    length and M_j the number of tasks in cluster j; the first n tasks have
    completed in ``completed_times``. A cluster with no completed task yet
    falls back to the global mean of all completed times.
    """
    labels = np.asarray(labels)
    seconds = np.asarray(completed_times, dtype=np.float64)
    n, N = seconds.size, labels.size
    if np.any(labels < 0):
        raise ValidationError(f"cluster labels must be >= 0, got {labels.min()}")
    if n == 0:
        raise PredictionError("CP undefined: no completed tasks in any cluster")
    if n >= N:
        raise PredictionError("nothing remaining to predict")
    c = n / N
    counts = np.bincount(labels)
    means = np.full(counts.size, _mean(seconds))
    done = labels[:n]
    for j in set(done.tolist()):
        means[j] = _mean(seconds[done == j])
    T_hat = (1.0 - c) * math.fsum((counts * means).tolist())
    return AggregatePrediction(t_hat=means[labels[n:]], T_hat=T_hat)


def xp_predict(model: GbrtModel, remaining: Mapping[str, Sequence[float]]) -> AggregatePrediction:
    """exp() the per-task model outputs and sum them for the aggregate.

    t_hat follows the iteration order of ``remaining``.
    """
    if not remaining:
        raise PredictionError("nothing remaining to predict")
    rows = np.asarray(list(remaining.values()), dtype=np.float64)
    return _model_total(model, predict(model, rows))


def _model_total(model: GbrtModel, log_t: np.ndarray) -> AggregatePrediction:
    per_task = np.exp(log_t)
    return AggregatePrediction(t_hat=per_task,
                               T_hat=math.fsum(per_task.tolist()), model=model)


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


class Forecast:
    """Predictions for one processing order, at any number of completed tasks.

    ``order`` holds the ids of the corpus's tasks in processing order,
    completed first; its length is the task count N. CP takes each task's
    cluster from ``assignment``; XP, CXP and GXP take the tasks' feature rows
    from the corpus. XP and CXP fit a staged model on the completed rows and
    their log-seconds when ``model`` is a GbrtParams (see ``_refit_stages``);
    a fitted model (always, for GXP) is used as is. An unknown system or task
    id, CP without an assignment and a missing model raise ValidationError
    here.

    The object keeps the model's work for later calls: a fitted model's
    output on every task, and the staged model's stages that end at a
    schedule boundary, which every later completion point of the order
    starts from. Results are bit-identical to a fresh Forecast's, whatever
    order the calls come in.
    """

    def __init__(self, system: str, corpus: Corpus, order: Sequence[str], *,
                 assignment: ClusterAssignment | None = None,
                 model: GbrtModel | GbrtParams | None = None):
        if system not in SYSTEMS:
            raise ValidationError(f"unknown system {system!r}, expected one of {SYSTEMS}")
        tasks = corpus.tasks_of(order)
        self.system = system
        self.total_tasks = len(tasks)
        self._model = model
        self._output = None     # a fitted model's log-time output on every task
        self._stages = ((), None, None)  # (plan, model, output) up to a boundary
        if system == "CP":
            if assignment is None:
                raise ValidationError("CP needs a cluster assignment")
            self._labels = task_labels(assignment, tasks)
        elif system != "BP":
            fitted = isinstance(model, GbrtModel)
            if not fitted and (not isinstance(model, GbrtParams) or system == "GXP"):
                raise ValidationError(f"{system} needs a trained model")
            self._rows = feature_matrix(corpus, order)
            if fitted:
                self._output = predict(model, self._rows)

    def at(self, completed: Sequence[float]) -> AggregatePrediction:
        """Predict every queued task, and their total, once the first n tasks
        of the order have completed.

        ``completed`` holds those tasks' seconds, in the order they completed;
        the calls on one Forecast share that order, so the first seconds of a
        longer call are a shorter call's.
        """
        if self.system == "BP":
            return bp_predict(completed, self.total_tasks)
        if self.system == "CP":
            return cp_predict(self._labels, completed)
        seconds = np.asarray(completed, dtype=np.float64)
        n, N = seconds.size, self.total_tasks
        if n >= N:
            raise PredictionError("nothing remaining to predict")
        if self._output is not None:
            return _model_total(self._model, self._output[n:])
        if n == 0:
            raise PredictionError(f"{self.system} needs at least one completed task to train on")
        model, output = self._fit_stages(np.log(seconds))
        return _model_total(model, output[n:])

    def _fit_stages(self, log_t: np.ndarray) -> tuple[GbrtModel, np.ndarray]:
        """The staged model on the completed rows and its output on every row.

        It starts from the kept stages when they are a prefix of this plan,
        and keeps the stages that end at a boundary for the next call.
        """
        rows, n, N = self._rows, log_t.size, self.total_tasks
        plan = _refit_stages(n, N, self._model.num_trees)
        # every stage but the last ends at a boundary; the last does when n is one
        keep = len(plan) if n == _first_boundary(N) << (len(plan) - 1) else len(plan) - 1
        kept, model, output = self._stages
        if tuple(plan[:len(kept)]) != kept:
            kept, model, output = (), None, None
        for i, (end, trees) in enumerate(plan[len(kept):], start=len(kept)):
            if model is None:
                model = train(rows[:end], log_t[:end], self._model)
                output = predict(model, rows)
            else:
                model = add_stage(model, rows[:end], log_t[:end], trees, output[:end])
                output = predict(model, rows, margin=output)
            if i + 1 == keep:
                self._stages = (tuple(plan[:keep]), model, output)
        return model, output


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

    return [tid for row in itertools.zip_longest(*buckets) for tid in row if tid is not None]


@dataclass(frozen=True)
class GxpSplit:
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
    return GxpSplit(train_rows=feature_matrix(corpus, train_ids),
                    train_targets=np.log(corpus.seconds_of(train_ids)),
                    test_ids=tuple(test_ids))


@dataclass(frozen=True)
class CascadePolicy:
    """Ordered (c_upper_bound, system) pairs; the first bound >= c wins."""

    thresholds: tuple[tuple[float, str], ...] = ((0.0, "GXP"), (0.06, "CXP"), (1.0, "CP"))

    def __post_init__(self):
        if not self.thresholds:
            raise ValidationError("cascade policy must have at least one entry")
        bounds = [b for b, _ in self.thresholds]
        if not all(0.0 <= b < math.inf for b in bounds):
            raise ValidationError(f"cascade bounds must be finite and >= 0, got {bounds}")
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
    # the last bound is 1.0, so some bound is >= c
    return next(system for bound, system in policy.thresholds if c <= bound)
