"""Clustering checked against exhaustive partition search and hand-worked values."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus_eta import clustering
from corpus_eta.clustering import (MAX_ITERS, N_INIT, ClusterAssignment, clip_feature_matrix,
                                   cluster_clips, kmeans, save_centroids_csv,
                                   save_clusters_csv, standardize, task_labels)
from corpus_eta.corpus import CLIP_FEATURES, expand_tasks
from corpus_eta.errors import ValidationError

from helpers import make_clip, make_clips


def partition_sse(points, labels, k):
    """Sum of squared distances to each group's own mean, from first principles."""
    total = 0.0
    for j in range(k):
        members = points[np.asarray(labels) == j]
        if len(members):
            total += float(np.sum((members - members.mean(axis=0)) ** 2))
    return total


def best_two_cluster_sse(points):
    """Exhaustive optimum over every bipartition (point 0 fixed to side 0)."""
    n = len(points)
    best = math.inf
    for mask in range(1, 2 ** (n - 1)):
        labels = [(mask >> i) & 1 for i in range(n - 1)]
        labels = [0] + labels
        if len(set(labels)) < 2:
            continue
        best = min(best, partition_sse(points, labels, 2))
    return best


def two_blobs(rng, n_per=6, gap=50.0):
    a = rng.normal(size=(n_per, 2))
    b = rng.normal(size=(n_per, 2)) + gap
    return np.vstack([a, b])


class TestStandardize:
    def test_two_point_column_maps_to_unit_scores(self):
        # mean 2, population std 1
        clips = [make_clip("a", E=1.0), make_clip("b", E=3.0)]
        matrix = standardize(clips)
        col = CLIP_FEATURES.index("E")
        assert matrix[0, col] == -1.0
        assert matrix[1, col] == 1.0

    def test_constant_columns_map_to_zero(self):
        clips = [make_clip("a", E=1.0), make_clip("b", E=3.0)]
        matrix = standardize(clips)
        col = CLIP_FEATURES.index("E")
        other = [i for i in range(len(CLIP_FEATURES)) if i != col]
        assert np.all(matrix[:, other] == 0.0)

    def test_single_clip_maps_to_all_zeros(self):
        # every column is constant; a std of 0 must not turn into NaN
        assert np.all(standardize([make_clip("a")]) == 0.0)

    def test_population_scale_used(self):
        # ddof=0: std of {0, 0, 3, 3} is 1.5, not sqrt(3), so the scores are +-1
        clips = [make_clip(f"c{i}", h=v) for i, v in enumerate([0.0, 0.0, 3.0, 3.0])]
        col = standardize(clips)[:, CLIP_FEATURES.index("h")]
        assert col.tolist() == [-1.0, -1.0, 1.0, 1.0]

    def test_feature_matrix_column_order(self):
        clip = make_clip("a", width=1280, height=720, framerate=25,
                         num_frames=100, E=7.0, h=3.0, luma=99.0)
        row = clip_feature_matrix([clip])[0]
        assert row.tolist() == [720.0, 1280.0 * 720.0, 25.0, 100.0, 7.0, 3.0, 99.0]

    def test_columns_have_zero_mean_and_unit_std(self):
        z = standardize(make_clips(5, rng=np.random.default_rng(0)))
        assert np.allclose(z.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(z.std(axis=0), 1.0, rtol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError, match="no clips"):
            standardize([])


class TestKmeans:
    def test_single_cluster_centroid_is_the_mean(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(9, 3))
        a = kmeans(pts, 1, seed=1)
        assert a.k == 1
        assert np.allclose(a.centroids[0], pts.mean(axis=0), rtol=1e-12)
        assert a.sizes.tolist() == [9]

    def test_one_cluster_per_point_has_zero_error(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(6, 2))
        a = kmeans(pts, 6, seed=2)
        assert a.sse_per_iter[-1] == 0.0
        assert sorted(a.sizes.tolist()) == [1] * 6
        assert partition_sse(pts, [a.labels[str(i)] for i in range(6)], 6) == 0.0

    def test_two_separated_blobs_found_exactly(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            pts = two_blobs(rng)
            a = kmeans(pts, 2, seed=seed)
            labels = [a.labels[str(i)] for i in range(len(pts))]
            got = partition_sse(pts, labels, 2)
            assert got == pytest.approx(best_two_cluster_sse(pts), rel=1e-9)
            assert len(set(labels[:6])) == 1 and len(set(labels[6:])) == 1

    def test_matches_exhaustive_optimum_on_most_small_instances(self):
        hits = 0
        for seed in range(40):
            rng = np.random.default_rng(1000 + seed)
            pts = rng.uniform(0.0, 10.0, size=(8, 2))
            a = kmeans(pts, 2, seed=seed)
            labels = [a.labels[str(i)] for i in range(8)]
            got = partition_sse(pts, labels, 2)
            best = best_two_cluster_sse(pts)
            assert got >= best * (1.0 - 1e-12)
            if got <= best * (1.0 + 1e-9):
                hits += 1
        assert hits >= 36

    def test_objective_never_increases(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(4, 30))
            pts = rng.normal(size=(n, 3)) * 10
            k = int(rng.integers(1, min(n, 6) + 1))
            a = kmeans(pts, k, seed=seed)
            s = a.sse_per_iter
            assert len(s) == a.n_iter
            assert all(s[i + 1] <= s[i] for i in range(len(s) - 1))

    def test_same_seed_reproduces_bitwise(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(20, 4))
        a = kmeans(pts, 3, seed=7)
        b = kmeans(pts, 3, seed=7)
        assert a.labels == b.labels
        assert np.array_equal(a.centroids, b.centroids)
        assert a.sse_per_iter == b.sse_per_iter

    def test_custom_ids_key_the_labels(self):
        pts = np.array([[0.0], [0.1], [10.0]])
        a = kmeans(pts, 2, seed=0, ids=["x", "y", "z"])
        assert set(a.labels) == {"x", "y", "z"}
        assert a.labels["x"] == a.labels["y"]
        assert a.labels["x"] != a.labels["z"]

    def test_returned_centroids_are_cluster_means(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(15, 2)) * 5
        a = kmeans(pts, 3, seed=5)
        labels = np.array([a.labels[str(i)] for i in range(15)])
        for j in range(3):
            assert np.allclose(a.centroids[j], pts[labels == j].mean(axis=0),
                               rtol=1e-12, atol=1e-12)

    def test_max_iters_caps_the_loop(self, monkeypatch):
        monkeypatch.setattr(clustering, "MAX_ITERS", 1)
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(50, 2))
        a = kmeans(pts, 5, seed=6)
        assert a.n_iter == 1
        assert len(a.sse_per_iter) == 1

    @pytest.mark.parametrize("values,k,sizes", [
        ([0.1] * 4, 2, [4, 0]),
        ([0.1, 0.7, 0.7, 0.7], 3, [3, 1, 0]),
        ([0.1] * 4, 4, [4, 0, 0, 0]),
    ])
    def test_fewer_distinct_points_than_k_settles(self, values, k, sizes):
        # The mean of three 0.1s (or 0.7s) rounds one ulp off them, and an
        # empty-cluster refill used to swap duplicates back and forth until
        # MAX_ITERS in every restart.
        pts = np.asarray(values).reshape(-1, 1)
        rng = np.random.default_rng(0)
        for _ in range(N_INIT):
            _, _, sse, iters = clustering._lloyd(pts, k, rng)
            assert iters == 1
            assert sse == [0.0]
        a = kmeans(pts, k, seed=0)
        assert a.n_iter == 1
        assert a.sse_per_iter == (0.0,)
        assert a.sizes.tolist() == sizes
        labels = [a.labels[str(i)] for i in range(len(values))]
        # one cluster per distinct value: the optimum, objective 0
        assert len(set(zip(values, labels))) == len(set(values)) == len(set(labels))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_every_restart_settles_on_duplicate_heavy_input(self, data):
        pool = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=4))
        n = data.draw(st.integers(1, 12))
        pts = np.asarray(data.draw(st.lists(st.sampled_from(pool), min_size=n,
                                            max_size=n))).reshape(-1, 1)
        k = data.draw(st.integers(1, n))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        for _ in range(N_INIT):
            assert clustering._lloyd(pts, k, rng)[3] < MAX_ITERS

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_objective_never_increases_beyond_rounding(self, data):
        n = data.draw(st.integers(1, 12))
        d = data.draw(st.integers(1, 3))
        pool = data.draw(st.lists(st.lists(st.floats(-1e3, 1e3), min_size=d, max_size=d),
                                  min_size=1, max_size=n))
        pts = np.asarray(data.draw(st.lists(st.sampled_from(pool), min_size=n,
                                            max_size=n)))
        k = data.draw(st.integers(1, n))
        a = kmeans(pts, k, seed=data.draw(st.integers(0, 2**32 - 1)))
        s = a.sse_per_iter
        # An exact Lloyd step never raises the objective, but a centroid is a
        # rounded mean: the mean of duplicate points can land an ulp off
        # them, which lifts an objective of 0 to about 1e-30.  The allowance
        # bounds that rounding: (n * eps)^2 of the points' squared norms,
        # plus n * eps relative to the objective itself for the summation.
        eps = np.finfo(np.float64).eps
        scale = float(np.sum(pts ** 2))
        for before, after in zip(s, s[1:]):
            assert after <= before + n * eps * (before + n * eps * scale)

    @pytest.mark.parametrize("k,n,msg", [
        (0, 4, "k must be >= 1"),
        (5, 4, "exceeds the number of points"),
    ])
    def test_bad_k_rejected(self, k, n, msg):
        pts = np.zeros((n, 2))
        with pytest.raises(ValidationError, match=msg):
            kmeans(pts, k, seed=0)

    def test_one_dimensional_points_rejected(self):
        with pytest.raises(ValidationError, match="2-D"):
            kmeans(np.zeros(5), 1, seed=0)

    def test_id_count_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="got 2 ids for 3 points"):
            kmeans(np.zeros((3, 1)), 1, seed=0, ids=["a", "b"])


class TestClusterClips:
    def test_separates_obviously_different_clips(self):
        small = [make_clip(f"sd{i}", width=640, height=360, num_frames=48,
                           E=5.0 + i, h=1.0, luma=60.0) for i in range(3)]
        large = [make_clip(f"uhd{i}", width=3840, height=2160, num_frames=600,
                           E=400.0 + i, h=80.0, luma=180.0) for i in range(3)]
        a = cluster_clips(small + large, k=2, seed=0)
        sd_labels = {a.labels[c.clip_id] for c in small}
        uhd_labels = {a.labels[c.clip_id] for c in large}
        assert len(sd_labels) == 1
        assert len(uhd_labels) == 1
        assert sd_labels != uhd_labels
        assert sorted(a.sizes.tolist()) == [3, 3]

    def test_labels_keyed_by_clip_id(self):
        clips = make_clips(4, rng=np.random.default_rng(6))
        a = cluster_clips(clips, k=2, seed=1)
        assert set(a.labels) == {c.clip_id for c in clips}

    def test_negative_seed_rejected(self):
        clips = make_clips(4, rng=np.random.default_rng(6))
        with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
            cluster_clips(clips, k=2, seed=-1)


def task_counts(assignment, tasks):
    return np.bincount(task_labels(assignment, tasks), minlength=assignment.k).tolist()


class TestTaskLabels:
    def test_labels_follow_task_order(self):
        clips = [make_clip("a"), make_clip("b"), make_clip("c")]
        tasks = expand_tasks(clips, encoders=("x264",), presets=("medium",),
                             cqps=(22, 27))
        assignment = ClusterAssignment(k=3, labels={"a": 0, "b": 2, "c": 1},
                                       centroids=np.zeros((3, 7)),
                                       sizes=np.array([1, 1, 1]),
                                       sse_per_iter=(0.0,), n_iter=1)
        labels = task_labels(assignment, tasks)
        assert labels.dtype == np.int64
        assert labels.tolist() == [0, 0, 2, 2, 1, 1]
        assert task_labels(assignment, tasks[::-1]).tolist() == [1, 1, 2, 2, 0, 0]


class TestClusterSizesByTask:
    """Tasks per cluster, counted from task_labels."""

    def test_counts_tasks_not_clips(self):
        clips = [make_clip("a"), make_clip("b")]
        tasks = expand_tasks(clips, encoders=("x264",),
                             presets=("ultrafast", "medium", "veryslow"),
                             cqps=(22, 27, 32, 37))
        assert len(tasks) == 24
        assignment = ClusterAssignment(k=1, labels={"a": 0, "b": 0},
                                       centroids=np.zeros((1, 7)),
                                       sizes=np.array([2]),
                                       sse_per_iter=(0.0,), n_iter=1)
        assert task_counts(assignment, tasks) == [24]

    def test_splits_across_clusters(self):
        clips = [make_clip("a"), make_clip("b"), make_clip("c")]
        tasks = expand_tasks(clips, encoders=("x264",), presets=("medium",),
                             cqps=(22, 27))
        assignment = ClusterAssignment(k=3, labels={"a": 0, "b": 2, "c": 2},
                                       centroids=np.zeros((3, 7)),
                                       sizes=np.array([1, 0, 2]),
                                       sse_per_iter=(0.0,), n_iter=1)
        assert task_counts(assignment, tasks) == [2, 0, 4]

    def test_no_tasks_gives_zero_counts(self):
        assignment = ClusterAssignment(k=2, labels={"a": 0},
                                       centroids=np.zeros((2, 7)),
                                       sizes=np.array([1, 0]),
                                       sse_per_iter=(0.0,), n_iter=1)
        assert task_labels(assignment, []).shape == (0,)
        assert task_counts(assignment, []) == [0, 0]

    def test_unlabeled_clip_rejected(self):
        clips = [make_clip("a"), make_clip("mystery")]
        tasks = expand_tasks(clips, encoders=("x264",), presets=("medium",),
                             cqps=(22,))
        assignment = ClusterAssignment(k=1, labels={"a": 0},
                                       centroids=np.zeros((1, 7)),
                                       sizes=np.array([1]),
                                       sse_per_iter=(0.0,), n_iter=1)
        with pytest.raises(ValidationError,
                           match="clip 'mystery' has no cluster label"):
            task_labels(assignment, tasks)

    @pytest.mark.parametrize("label", [3, 1, -1])
    def test_label_outside_k_rejected(self, label):
        clips = [make_clip("a"), make_clip("b")]
        tasks = expand_tasks(clips, encoders=("x264",), presets=("medium",),
                             cqps=(22,))
        assignment = ClusterAssignment(k=1, labels={"a": 0, "b": label},
                                       centroids=np.zeros((1, 7)),
                                       sizes=np.array([1]),
                                       sse_per_iter=(0.0,), n_iter=1)
        with pytest.raises(ValidationError,
                           match=rf"task 'b:x264:medium:22': clip 'b' has cluster label "
                                 rf"{label}, outside \[0, k\) for k = 1"):
            task_labels(assignment, tasks)


class TestClusterCsv:
    def test_clusters_csv_shape(self, tmp_path):
        clips = make_clips(4, rng=np.random.default_rng(7))
        a = cluster_clips(clips, k=2, seed=0)
        path = tmp_path / "clusters.csv"
        save_clusters_csv(path, a)
        lines = path.read_text().splitlines()
        assert lines[0] == "clip_id,cluster"
        assert len(lines) == 5
        for clip in clips:
            assert f"{clip.clip_id},{a.labels[clip.clip_id]}" in lines[1:]

    def test_centroids_csv_shape(self, tmp_path):
        clips = make_clips(4, rng=np.random.default_rng(8))
        a = cluster_clips(clips, k=2, seed=0)
        path = tmp_path / "centroids.csv"
        save_centroids_csv(path, a)
        lines = path.read_text().splitlines()
        assert lines[0] == "cluster," + ",".join(CLIP_FEATURES)
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "0"
        assert [float(v) for v in first[1:]] == pytest.approx(
            a.centroids[0].tolist(), rel=1e-15)
