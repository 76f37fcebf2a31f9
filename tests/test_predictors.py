"""Prediction systems checked against hand-worked sums and reference recursions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus_eta.clustering import ClusterAssignment
from corpus_eta.errors import PredictionError, ValidationError
from corpus_eta.gbrt import GbrtParams, model_to_dict, predict, train
from corpus_eta.predictors import (DEFAULT_CASCADE, SYSTEMS, CascadePolicy,
                                   bp_predict, cascade_select, cp_predict,
                                   cxp_order, gxp_train_split, predict_remaining,
                                   xp_predict)

from helpers import make_clip, make_corpus, with_random_times


def constant_model(value, num_features=1):
    """Zero-tree ensemble whose every output is exactly the base score."""
    X = np.zeros((3, num_features))
    y = np.full(3, value)
    return train(X, y, GbrtParams(num_trees=0))


def assignment_for(labels, k):
    return ClusterAssignment(k=k, labels=dict(labels),
                             centroids=np.zeros((k, 7)),
                             sizes=np.zeros(k, dtype=np.int64),
                             sse_per_iter=(0.0,), n_iter=1)


class TestBp:
    def test_two_of_four_hand_case(self):
        pred = predict_remaining("BP", [2.0, 4.0], 4)
        assert pred.system == "BP"
        assert pred.c == 0.5
        assert pred.t_bar == 3.0
        assert pred.T_hat == 6.0
        assert pred.t_hat.tolist() == [3.0, 3.0]

    def test_single_completed_task(self):
        pred = bp_predict([5.0], 2)
        assert pred.T_hat == 5.0
        assert pred.t_hat is None
        assert predict_remaining("BP", [5.0], 2).t_hat.tolist() == [5.0]

    def test_constant_times_scale_with_remaining_count(self):
        pred = bp_predict([7.5, 7.5], 8)
        assert pred.T_hat == (8 - 2) * 7.5

    def test_power_of_two_scaling_is_exact(self):
        rng = np.random.default_rng(0)
        times = rng.uniform(0.5, 50.0, size=5).tolist()
        base = bp_predict(times, 12).T_hat
        scaled = bp_predict([4.0 * t for t in times], 12).T_hat
        assert scaled == 4.0 * base

    def test_general_scaling_within_rounding(self):
        rng = np.random.default_rng(1)
        times = rng.uniform(0.5, 50.0, size=7).tolist()
        base = bp_predict(times, 20).T_hat
        for alpha in (3.0, 0.037, 1234.5):
            scaled = bp_predict([alpha * t for t in times], 20).T_hat
            assert scaled == pytest.approx(alpha * base, rel=1e-12)

    def test_no_completed_tasks_rejected(self):
        with pytest.raises(PredictionError, match="BP undefined at c=0"):
            bp_predict([], 5)

    def test_full_completion_rejected(self):
        with pytest.raises(PredictionError, match="nothing remaining"):
            bp_predict([1.0, 2.0], 2)


class TestCp:
    def test_two_cluster_hand_case(self):
        pred = cp_predict({0: [2.0] * 5, 1: [10.0] * 5}, [10, 10], 20)
        assert pred.system == "CP"
        assert pred.c == 0.5
        assert pred.cluster_means == {0: 2.0, 1: 10.0}
        assert pred.T_hat == 60.0

    def test_empty_cluster_falls_back_to_global_mean(self):
        pred = cp_predict({0: [2.0, 6.0]}, [5, 5], 10)
        assert pred.cluster_means == {0: 4.0, 1: 4.0}
        assert pred.T_hat == pytest.approx(32.0, rel=1e-12)
        fallback_part = (1.0 - pred.c) * 5 * pred.cluster_means[1]
        assert fallback_part == pytest.approx(16.0, rel=1e-12)

    def test_single_cluster_reduces_to_bp_bitwise(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            total = int(rng.integers(2, 40))
            n = int(rng.integers(1, total))
            times = rng.uniform(0.01, 100.0, size=n).tolist()
            bp = predict_remaining("BP", times, total)
            cp = predict_remaining("CP", times, total, labels=[0] * total)
            assert cp.T_hat == bp.T_hat
            assert cp.c == bp.c
            assert cp.t_hat.tolist() == bp.t_hat.tolist()

    def test_per_task_values_follow_cluster_membership(self):
        # completed: labels 0, 1, 1; queued: labels 0, 1, 1
        pred = predict_remaining("CP", [1.0, 9.0, 11.0], 6, labels=[0, 1, 1, 0, 1, 1])
        assert pred.t_hat.tolist() == [1.0, 10.0, 10.0]
        assert pred.T_hat == cp_predict({0: [1.0], 1: [9.0, 11.0]}, [2, 4], 6).T_hat

    def test_weighting_uses_task_counts_not_completions(self):
        # same completions, shifted counts -> different aggregate
        base = cp_predict({0: [2.0], 1: [10.0]}, [6, 2], 10).T_hat
        other = cp_predict({0: [2.0], 1: [10.0]}, [2, 6], 10).T_hat
        assert base == pytest.approx((1 - 0.2) * (6 * 2.0 + 2 * 10.0), rel=1e-12)
        assert other == pytest.approx((1 - 0.2) * (2 * 2.0 + 6 * 10.0), rel=1e-12)

    def test_out_of_range_cluster_rejected(self):
        with pytest.raises(ValidationError, match="out of range for k=2"):
            cp_predict({2: [1.0]}, [1, 1], 4)

    def test_no_completions_rejected(self):
        with pytest.raises(PredictionError, match="CP undefined"):
            cp_predict({0: []}, [4], 4)

    def test_full_completion_rejected(self):
        with pytest.raises(PredictionError, match="nothing remaining"):
            cp_predict({0: [1.0, 1.0]}, [2], 2)


class TestXp:
    def test_zero_log_prediction_gives_unit_seconds(self):
        model = constant_model(0.0)
        remaining = {f"t{i}": [0.0] for i in range(5)}
        pred = xp_predict(model, remaining)
        assert pred.T_hat == 5.0
        assert pred.t_hat.tolist() == [1.0] * 5

    def test_log_two_prediction_gives_two_seconds(self):
        model = constant_model(math.log(2.0))
        remaining = {f"t{i}": [0.0] for i in range(3)}
        pred = xp_predict(model, remaining)
        assert pred.T_hat == pytest.approx(6.0, rel=1e-12)

    def test_aggregate_is_sum_of_exponentiated_outputs(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, 2))
        y = rng.normal(size=30)
        model = train(X, y, GbrtParams(num_trees=6, max_depth=2))
        remaining = {f"t{i}": rng.normal(size=2).tolist() for i in range(12)}
        pred = xp_predict(model, remaining, c=0.25, system="CXP")
        assert pred.system == "CXP"
        assert pred.c == 0.25
        per_task = [math.exp(predict(model, row)) for row in remaining.values()]
        # scalar libm exp and the vectorized exp may disagree in the last bit
        for got, v in zip(pred.t_hat.tolist(), per_task):
            assert got == pytest.approx(v, rel=1e-15)
        assert pred.T_hat == math.fsum(pred.t_hat.tolist())
        assert pred.T_hat == pytest.approx(math.fsum(per_task), rel=1e-12)

    def test_empty_remaining_rejected(self):
        with pytest.raises(PredictionError, match="nothing remaining"):
            xp_predict(constant_model(0.0), {})


class TestPredictRemaining:
    """The one path from a completion state to per-task and total predictions."""

    def test_xp_fits_on_the_completed_prefix(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(40, 3))
        seconds = np.exp(rng.normal(size=40))
        params = GbrtParams(num_trees=4, max_depth=2)
        pred = predict_remaining("CXP", seconds[:15], 40, rows=X, model=params)
        model = train(X[:15], np.log(seconds[:15]), params)
        expected = xp_predict(model, {i: X[i] for i in range(15, 40)}, c=15 / 40,
                              system="CXP")
        assert pred.system == "CXP"
        assert pred.c == expected.c
        assert pred.T_hat == expected.T_hat
        assert np.array_equal(pred.t_hat, expected.t_hat)
        assert model_to_dict(pred.model) == model_to_dict(model)

    def test_fitted_model_used_as_is(self):
        model = constant_model(math.log(2.0), num_features=2)
        pred = predict_remaining("GXP", [], 3, rows=np.zeros((3, 2)), model=model)
        assert pred.c == 0.0
        assert pred.t_hat.tolist() == pytest.approx([2.0] * 3, rel=1e-15)
        assert pred.model is model

    @pytest.mark.parametrize("system, completed, kwargs, message", [
        ("CP", [1.0], {}, "CP needs the tasks' cluster labels"),
        ("XP", [1.0], {"model": GbrtParams()}, "XP needs the tasks' feature rows"),
        ("XP", [], {"rows": np.zeros((3, 2)), "model": GbrtParams()},
         "XP needs at least one completed task"),
        ("GXP", [1.0], {"rows": np.zeros((3, 2)), "model": GbrtParams()},
         "GXP needs a trained model"),
        ("QQ", [1.0], {}, "unknown system"),
    ])
    def test_missing_inputs_rejected(self, system, completed, kwargs, message):
        with pytest.raises(ValidationError, match=message):
            predict_remaining(system, completed, 3, **kwargs)


class TestCxpOrder:
    @settings(max_examples=60, deadline=None)
    @given(labels=st.lists(st.integers(0, 4), min_size=1, max_size=10),
           extra_k=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
    def test_is_a_permutation_of_the_task_ids(self, labels, extra_k, seed):
        corpus = make_corpus(n_clips=len(labels), presets=("medium", "veryslow"),
                             cqps=(22, 37))
        assignment = assignment_for(
            {c.clip_id: j for c, j in zip(corpus.clips, labels)}, max(labels) + 1 + extra_k)
        order = cxp_order(corpus, assignment, seed)
        assert sorted(order) == sorted(t.task_id for t in corpus.tasks)

    def test_two_by_two_alternates_clusters(self):
        corpus = make_corpus(n_clips=2, presets=("medium",), cqps=(22, 27))
        a, b = (c.clip_id for c in corpus.clips)
        assignment = assignment_for({a: 0, b: 1}, 2)
        order = cxp_order(corpus, assignment, seed=0)
        labels = [assignment.labels[tid.split(":")[0]] for tid in order]
        assert labels == [0, 1, 0, 1]

    def test_uneven_clusters_alternate_then_drain(self):
        corpus = make_corpus(n_clips=4, presets=("medium",), cqps=(22,))
        ids = [c.clip_id for c in corpus.clips]
        assignment = assignment_for({ids[0]: 0, ids[1]: 0, ids[2]: 0,
                                     ids[3]: 1}, 2)
        order = cxp_order(corpus, assignment, seed=1)
        labels = [assignment.labels[tid.split(":")[0]] for tid in order]
        assert labels == [0, 1, 0, 0]

    def test_emits_each_task_exactly_once(self):
        corpus = make_corpus(n_clips=5, num_groups=2)
        labels = {c.clip_id: i % 3 for i, c in enumerate(corpus.clips)}
        assignment = assignment_for(labels, 3)
        order = cxp_order(corpus, assignment, seed=2)
        assert sorted(order) == sorted(t.task_id for t in corpus.tasks)

    def test_label_sequence_is_round_robin_over_sizes(self):
        corpus = make_corpus(n_clips=6, presets=("medium", "veryslow"),
                             cqps=(22, 32))
        labels = {c.clip_id: i % 3 for i, c in enumerate(corpus.clips)}
        assignment = assignment_for(labels, 3)
        order = cxp_order(corpus, assignment, seed=3)
        got = [labels[tid.split(":")[0]] for tid in order]
        left = [sum(1 for t in corpus.tasks if labels[t.clip_id] == j)
                for j in range(3)]
        expected = []
        while sum(left):
            for j in range(3):
                if left[j]:
                    expected.append(j)
                    left[j] -= 1
        assert got == expected

    def test_seed_determinism(self):
        corpus = make_corpus(n_clips=4)
        labels = {c.clip_id: i % 2 for i, c in enumerate(corpus.clips)}
        assignment = assignment_for(labels, 2)
        assert cxp_order(corpus, assignment, 9) == cxp_order(corpus, assignment, 9)

    def test_unlabeled_clip_rejected(self):
        corpus = make_corpus(n_clips=2, presets=("medium",), cqps=(22,))
        only_first = assignment_for({corpus.clips[0].clip_id: 0}, 1)
        with pytest.raises(ValidationError, match="has no cluster label"):
            cxp_order(corpus, only_first, seed=0)


class TestGxpSplit:
    def test_partitions_tasks_by_source_group(self):
        corpus = with_random_times(make_corpus(n_clips=6, num_groups=3),
                                   np.random.default_rng(4))
        split = gxp_train_split(corpus, ["g2"])
        test_clips = {c.clip_id for c in corpus.clips if c.source_group == "g2"}
        assert len(test_clips) == 2
        assert len(split.test_ids) == 2 * 12
        assert len(split.train_ids) == 4 * 12
        assert all(tid.split(":")[0] in test_clips for tid in split.test_ids)
        assert not any(tid.split(":")[0] in test_clips for tid in split.train_ids)

    def test_targets_are_log_seconds_in_train_order(self):
        corpus = with_random_times(make_corpus(n_clips=4, num_groups=2),
                                   np.random.default_rng(5))
        split = gxp_train_split(corpus, ["g1"])
        expected = [math.log(corpus.times[tid].seconds) for tid in split.train_ids]
        assert split.train_targets.tolist() == expected
        assert split.train_rows.shape == (len(split.train_ids), 9)

    def test_unknown_group_rejected(self):
        corpus = with_random_times(make_corpus(n_clips=2, num_groups=2),
                                   np.random.default_rng(6))
        with pytest.raises(ValidationError, match="not present in the corpus"):
            gxp_train_split(corpus, ["gx"])

    def test_all_groups_held_out_rejected(self):
        corpus = with_random_times(make_corpus(n_clips=2, num_groups=2),
                                   np.random.default_rng(7))
        with pytest.raises(ValidationError, match="empty training side"):
            gxp_train_split(corpus, ["g0", "g1"])

    def test_no_groups_held_out_rejected(self):
        corpus = with_random_times(make_corpus(n_clips=2, num_groups=2),
                                   np.random.default_rng(8))
        with pytest.raises(ValidationError, match="empty test side"):
            gxp_train_split(corpus, [])

    def test_missing_times_rejected(self):
        corpus = make_corpus(n_clips=2, num_groups=2)
        with pytest.raises(ValidationError, match="no measured times"):
            gxp_train_split(corpus, ["g1"])


class TestCascade:
    @pytest.mark.parametrize("c,expected", [
        (0.0, "GXP"),
        (0.04, "CXP"),
        (0.06, "CXP"),
        (0.10, "CP"),
        (0.99, "CP"),
    ])
    def test_default_policy_hand_values(self, c, expected):
        assert cascade_select(DEFAULT_CASCADE, c) == expected

    def test_selection_is_first_bound_at_or_above_c(self):
        policy = CascadePolicy(((0.1, "BP"), (0.5, "XP"), (1.0, "CP")))
        for c in np.linspace(0.0, 0.999, 97):
            got = cascade_select(policy, float(c))
            expected = next(s for b, s in policy.thresholds if c <= b)
            assert got == expected

    @pytest.mark.parametrize("c", [-0.1, 1.0, 1.5])
    def test_out_of_domain_rejected(self, c):
        with pytest.raises(PredictionError, match="cascade defined for"):
            cascade_select(DEFAULT_CASCADE, c)

    def test_policy_must_not_be_empty(self):
        with pytest.raises(ValidationError, match="at least one entry"):
            CascadePolicy(())

    def test_bounds_must_increase(self):
        with pytest.raises(ValidationError, match="strictly increasing"):
            CascadePolicy(((0.5, "BP"), (0.5, "CP"), (1.0, "CP")))

    def test_bounds_must_end_at_one(self):
        with pytest.raises(ValidationError, match="end at 1.0"):
            CascadePolicy(((0.0, "GXP"), (0.9, "CP")))

    def test_unknown_system_rejected(self):
        with pytest.raises(ValidationError, match="unknown system"):
            CascadePolicy(((1.0, "ZZZ"),))

    def test_known_systems_roster(self):
        assert SYSTEMS == ("BP", "CP", "XP", "CXP", "GXP")
