"""K-means stratification of clips on standardized property + complexity features.

Clips are clustered once, up front; every encode task inherits the label of
its clip, and ``task_labels`` is the one place that applies that rule.  The
labels feed the per-cluster statistical predictor (CP) and the
cluster-stratified processing order (CXP).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import CLIP_FEATURES, Clip, EncodeTask, float_text, write_csv
from .errors import ValidationError

DEFAULT_K = 10

# Restarts per kmeans call; the run with the lowest final objective wins.
N_INIT = 10

# Lloyd iterations per restart at most.
MAX_ITERS = 300


@dataclass(frozen=True)
class ClusterAssignment:
    k: int
    labels: dict[str, int]        # id -> cluster index in [0, k)
    centroids: np.ndarray         # (k, d), standardized feature space
    sizes: np.ndarray             # (k,) member counts
    sse_per_iter: tuple[float, ...]
    n_iter: int


def clip_feature_matrix(clips: Sequence[Clip]) -> np.ndarray:
    """One row of CLIP_FEATURES per clip: the clustering space before scaling."""
    return np.asarray([c.feature_values for c in clips], dtype=np.float64)


def standardize(clips: Sequence[Clip]) -> np.ndarray:
    """Z-score the clip feature matrix column-wise (population std, ddof=0).

    A constant column has std 0; it is divided by 1 instead, so it maps to 0.
    """
    if not clips:
        raise ValidationError("standardize: no clips")
    matrix = clip_feature_matrix(clips)
    std = matrix.std(axis=0)
    return (matrix - matrix.mean(axis=0)) / np.where(std == 0.0, 1.0, std)


def _sse(points: np.ndarray, centroids: np.ndarray, labels: np.ndarray) -> float:
    diff = points - centroids[labels]
    return float(np.einsum("ij,ij->", diff, diff))


def _kmeanspp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Seed centroids by D^2 sampling."""
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]), dtype=np.float64)
    centroids[0] = points[rng.integers(n)]
    dist_sq = np.sum((points - centroids[0]) ** 2, axis=1)
    for j in range(1, k):
        total = dist_sq.sum()
        if total > 0.0:
            idx = rng.choice(n, p=dist_sq / total)
        else:
            idx = rng.integers(n)  # all remaining points coincide with a centroid
        centroids[j] = points[idx]
        dist_sq = np.minimum(dist_sq, np.sum((points - centroids[j]) ** 2, axis=1))
    return centroids


def _lloyd(points: np.ndarray, k: int,
           rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, list[float], int]:
    """One seeded Lloyd's run; returns (labels, centroids, sse history, iters)."""
    n = points.shape[0]
    centroids = _kmeanspp_init(points, k, rng)
    labels = np.full(n, -1, dtype=np.int64)
    sse_history: list[float] = []
    iteration = 0

    for iteration in range(1, MAX_ITERS + 1):
        dist_sq = np.sum((points[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        new_labels = np.argmin(dist_sq, axis=1)

        # Refill empty clusters one at a time; moving a point can empty its
        # donor, so re-scan (bounded by k rounds).
        for _ in range(k):
            empty = np.nonzero(np.bincount(new_labels, minlength=k) == 0)[0]
            if empty.size == 0:
                break
            own = np.sum((points - centroids[new_labels]) ** 2, axis=1)
            farthest = int(np.argmax(own))
            if own[farthest] == 0.0:
                # Every point sits on its centroid, which takes fewer than k
                # distinct points: the objective is 0, its minimum.  Moving a
                # duplicate point here would only swap labels back and forth,
                # because a mean of duplicates can round one ulp off them.
                sse_history.append(0.0)
                return new_labels, centroids, sse_history, iteration
            j = int(empty[0])
            new_labels[farthest] = j
            centroids[j] = points[farthest]

        sse_history.append(_sse(points, centroids, new_labels))
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            members = labels == j
            if members.any():
                centroids[j] = points[members].mean(axis=0)

    return labels, centroids, sse_history, iteration


def kmeans(points: np.ndarray, k: int, seed: int,
           ids: Sequence[str] | None = None) -> ClusterAssignment:
    """Lloyd's algorithm with k-means++ seeding; deterministic for a fixed seed.

    Runs N_INIT independent restarts off one seeded stream and keeps the run
    with the lowest final objective, which makes small instances land on the
    global optimum almost always.  Within a run, iteration stops when the
    assignment stabilizes or after MAX_ITERS.  An empty cluster is refilled
    with the point farthest from its own centroid, and that cluster's
    centroid is recentred on the point (so the objective still never
    increases, up to rounding).  With fewer than k distinct points the
    seeding already puts a centroid on every distinct point: the first
    assignment has objective 0 and leaves clusters empty, and each run stops
    there, so such input ends with empty clusters (size 0).
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValidationError(f"points must be 2-D, got shape {points.shape}")
    n = points.shape[0]
    if k <= 0:
        raise ValidationError(f"k must be >= 1, got {k}")
    if k > n:
        raise ValidationError(f"k={k} exceeds the number of points ({n})")
    if ids is not None and len(ids) != n:
        raise ValidationError(f"got {len(ids)} ids for {n} points")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")

    rng = np.random.default_rng(seed)
    best = None
    for _ in range(N_INIT):
        run = _lloyd(points, k, rng)
        if best is None or run[2][-1] < best[2][-1]:
            best = run
    labels, centroids, sse_history, iteration = best

    sizes = np.bincount(labels, minlength=k)
    if ids is None:
        ids = [str(i) for i in range(n)]
    label_map = {str(ids[i]): int(labels[i]) for i in range(n)}
    return ClusterAssignment(k=k, labels=label_map, centroids=centroids,
                             sizes=sizes, sse_per_iter=tuple(sse_history),
                             n_iter=iteration)


def cluster_clips(clips: Sequence[Clip], k: int = DEFAULT_K,
                  seed: int = 0) -> ClusterAssignment:
    """Standardize the clip features and cluster; labels are keyed by clip_id."""
    return kmeans(standardize(clips), k, seed, ids=[c.clip_id for c in clips])


def task_labels(assignment: ClusterAssignment,
                tasks: Sequence[EncodeTask]) -> np.ndarray:
    """Cluster label of each task, in order: every task inherits its clip's label."""
    labels = np.empty(len(tasks), dtype=np.int64)
    for i, task in enumerate(tasks):
        label = assignment.labels.get(task.clip_id)
        if label is None:
            raise ValidationError(
                f"task {task.task_id!r}: clip {task.clip_id!r} has no cluster label")
        if not 0 <= label < assignment.k:
            raise ValidationError(
                f"task {task.task_id!r}: clip {task.clip_id!r} has cluster label {label}, "
                f"outside [0, k) for k = {assignment.k}")
        labels[i] = label
    return labels


def save_clusters_csv(path, assignment: ClusterAssignment) -> None:
    write_csv(path, ["clip_id", "cluster"], assignment.labels.items())


def save_centroids_csv(path, assignment: ClusterAssignment) -> None:
    write_csv(path, ["cluster", *CLIP_FEATURES],
              ([j, *map(float_text, row)] for j, row in enumerate(assignment.centroids)))
