"""Prediction systems checked against hand-worked sums and reference recursions."""

import bisect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus_eta import predictors
from corpus_eta.clustering import ClusterAssignment
from corpus_eta.corpus import Corpus, expand_tasks
from corpus_eta.errors import PredictionError, ValidationError
from corpus_eta.gbrt import (GbrtParams, add_stage, feature_matrix, model_to_dict, predict,
                             train)
from corpus_eta.predictors import (DEFAULT_CASCADE, SYSTEMS, CascadePolicy, Forecast,
                                   _refit_stages, bp_predict, cascade_select, cp_predict,
                                   cxp_order, gxp_train_split, xp_predict)

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


def one_task_per_clip(n):
    """A corpus of n clips with one task each, and its task ids in corpus order."""
    corpus = make_corpus(n_clips=n, presets=("medium",), cqps=(22,))
    return corpus, [t.task_id for t in corpus.tasks]


def clip_labels(corpus, labels, k):
    """An assignment that puts clip i of the corpus in cluster labels[i]."""
    return assignment_for({c.clip_id: j for c, j in zip(corpus.clips, labels)}, k)


def random_order(corpus, rng, size=None):
    """The ids of ``size`` of the corpus's tasks (all by default), shuffled."""
    ids = [t.task_id for t in corpus.tasks]
    return [ids[i] for i in rng.permutation(len(ids))[:size]]


class TestBp:
    def test_two_of_four_hand_case(self):
        pred = Forecast("BP", *one_task_per_clip(4)).at([2.0, 4.0])
        assert pred.t_bar == 3.0
        assert pred.T_hat == 6.0
        assert pred.t_hat.tolist() == [3.0, 3.0]

    def test_single_completed_task(self):
        pred = bp_predict([5.0], 2)
        assert pred.T_hat == 5.0
        assert pred.t_hat.tolist() == [5.0]
        assert Forecast("BP", *one_task_per_clip(2)).at([5.0]).t_hat.tolist() == [5.0]

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
        pred = cp_predict([0, 1] * 10, [2.0, 10.0] * 5)
        assert pred.t_hat.tolist() == [2.0, 10.0] * 5
        assert pred.T_hat == 60.0

    def test_empty_cluster_falls_back_to_global_mean(self):
        pred = cp_predict([0] * 5 + [1] * 5, [2.0, 6.0])
        assert pred.t_hat.tolist() == [4.0] * 8
        assert pred.T_hat == pytest.approx(32.0, rel=1e-12)
        fallback_part = (1.0 - 2 / 10) * 5 * pred.t_hat[-1]
        assert fallback_part == pytest.approx(16.0, rel=1e-12)

    def test_single_cluster_reduces_to_bp_bitwise(self):
        rng = np.random.default_rng(2)
        corpus, ids = one_task_per_clip(40)
        assignment = clip_labels(corpus, [0] * 40, 1)
        for _ in range(100):
            total = int(rng.integers(2, 40))
            n = int(rng.integers(1, total))
            times = rng.uniform(0.01, 100.0, size=n).tolist()
            order = random_order(corpus, rng, total)
            bp = Forecast("BP", corpus, order).at(times)
            cp = Forecast("CP", corpus, order, assignment=assignment).at(times)
            assert cp.T_hat == bp.T_hat
            assert cp.t_hat.tolist() == bp.t_hat.tolist()

    def test_per_task_values_follow_cluster_membership(self):
        # completed: labels 0, 1, 1; queued: labels 0, 1, 1
        corpus, ids = one_task_per_clip(6)
        labels = [0, 1, 1, 0, 1, 1]
        assignment = clip_labels(corpus, labels, 2)
        pred = Forecast("CP", corpus, ids, assignment=assignment).at([1.0, 9.0, 11.0])
        assert pred.t_hat.tolist() == [1.0, 10.0, 10.0]
        assert pred.T_hat == cp_predict(labels, [1.0, 9.0, 11.0]).T_hat

    def test_weighting_uses_task_counts_not_completions(self):
        # same completions, shifted counts -> different aggregate
        base = cp_predict([0, 1] + [0] * 5 + [1] * 3, [2.0, 10.0]).T_hat
        other = cp_predict([0, 1] + [0] * 3 + [1] * 5, [2.0, 10.0]).T_hat
        assert base == pytest.approx((1 - 0.2) * (6 * 2.0 + 4 * 10.0), rel=1e-12)
        assert other == pytest.approx((1 - 0.2) * (4 * 2.0 + 6 * 10.0), rel=1e-12)

    def test_out_of_range_cluster_rejected(self):
        with pytest.raises(ValidationError, match="cluster labels must be >= 0, got -1"):
            cp_predict([0, -1, 1, 0], [1.0])

    def test_no_completions_rejected(self):
        with pytest.raises(PredictionError, match="CP undefined"):
            cp_predict([0] * 4, [])

    def test_full_completion_rejected(self):
        with pytest.raises(PredictionError, match="nothing remaining"):
            cp_predict([0, 0], [1.0, 1.0])

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_a_brute_force_oracle(self, data):
        total = data.draw(st.integers(2, 40))
        labels = data.draw(st.lists(st.integers(0, 5), min_size=total, max_size=total))
        n = data.draw(st.integers(1, total - 1))
        times = data.draw(st.lists(st.floats(0.01, 1e4), min_size=n, max_size=n))
        global_mean = math.fsum(times) / n
        means = {}
        for j in set(labels):
            done = [t for t, label in zip(times, labels) if label == j]
            means[j] = math.fsum(done) / len(done) if done else global_mean
        want = (1.0 - n / total) * math.fsum(labels.count(j) * means[j] for j in means)
        pred = cp_predict(labels, times)
        assert pred.t_hat.tolist() == [means[j] for j in labels[n:]]
        assert pred.T_hat == want


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
        pred = xp_predict(model, remaining)
        per_task = [math.exp(predict(model, [row])[0]) for row in remaining.values()]
        # scalar libm exp and the vectorized exp may disagree in the last bit
        for got, v in zip(pred.t_hat.tolist(), per_task):
            assert got == pytest.approx(v, rel=1e-15)
        assert pred.T_hat == math.fsum(pred.t_hat.tolist())
        assert pred.T_hat == pytest.approx(math.fsum(per_task), rel=1e-12)

    def test_empty_remaining_rejected(self):
        with pytest.raises(PredictionError, match="nothing remaining"):
            xp_predict(constant_model(0.0), {})


class TestPredictRemaining:
    """Forecast: the one path from a completion state to per-task and total
    predictions."""

    def test_xp_fits_on_the_completed_prefix(self):
        rng = np.random.default_rng(8)
        corpus = make_corpus(n_clips=10, presets=("medium", "veryslow"), cqps=(22, 37),
                             rng=rng)
        order = random_order(corpus, rng)
        X = feature_matrix(corpus, order)
        seconds = np.exp(rng.normal(size=40))
        params = GbrtParams(num_trees=4, max_depth=2)
        pred = Forecast("CXP", corpus, order, model=params).at(seconds[:15])
        # boundaries ceil(40/50) * 2**j = 1, 2, 4, 8: four trees on the first
        # row, then ceil(4/6) = 1 tree on 2, 4 and 8 rows and on all 15
        y = np.log(seconds[:15])
        model = train(X[:1], y[:1], params)
        for end in (2, 4, 8, 15):
            model = add_stage(model, X[:end], y[:end], 1, predict(model, X[:end]))
        expected = xp_predict(model, {i: X[i] for i in range(15, 40)})
        assert pred.T_hat == expected.T_hat
        assert np.array_equal(pred.t_hat, expected.t_hat)
        assert pred.model.stages == (4, 1, 1, 1, 1)
        assert model_to_dict(pred.model) == model_to_dict(model)

    def test_fitted_model_used_as_is(self):
        model = constant_model(math.log(2.0), num_features=9)
        pred = Forecast("GXP", *one_task_per_clip(3), model=model).at([])
        assert pred.t_hat.tolist() == pytest.approx([2.0] * 3, rel=1e-15)
        assert pred.model is model

    @pytest.mark.parametrize("system, completed, kwargs, message", [
        ("CP", [1.0], {}, "CP needs a cluster assignment"),
        ("XP", [1.0], {}, "XP needs a trained model"),
        ("XP", [], {"model": GbrtParams()}, "XP needs at least one completed task"),
        ("GXP", [1.0], {"model": GbrtParams()}, "GXP needs a trained model"),
        ("QQ", [1.0], {}, "unknown system"),
    ])
    def test_missing_inputs_rejected(self, system, completed, kwargs, message):
        with pytest.raises(ValidationError, match=message):
            Forecast(system, *one_task_per_clip(3), **kwargs).at(completed)

    @pytest.mark.parametrize("system, kwargs", [
        ("CP", {"assignment": assignment_for({"clip000": 0, "clip001": 0}, 1)}),
        ("XP", {"model": GbrtParams()}),
    ])
    def test_unknown_task_id_rejected(self, system, kwargs):
        corpus, ids = one_task_per_clip(2)
        with pytest.raises(ValidationError, match="unknown task_id 'clip009:x264:medium:22'"):
            Forecast(system, corpus, [ids[0], "clip009:x264:medium:22", ids[1]], **kwargs)


class TestRefitSchedule:
    """XP and CXP's stages: boundaries ceil(N/50) * 2**j, ceil(trees/6) trees
    in every stage after the first."""

    @pytest.mark.parametrize("n, plan", [
        (1, [(1, 30)]),
        (144, [(144, 30)]),
        (145, [(144, 30), (145, 5)]),
        (288, [(144, 30), (288, 5)]),
        (432, [(144, 30), (288, 5), (432, 5)]),
        (720, [(144, 30), (288, 5), (576, 5), (720, 5)]),
        (2880, [(144, 30), (288, 5), (576, 5), (1152, 5), (2304, 5), (2880, 5)]),
    ])
    def test_sweep_configuration(self, n, plan):
        assert _refit_stages(n, 7200, 30) == plan

    def test_small_corpus_and_budgets(self):
        assert _refit_stages(15, 40, 4) == [(1, 4), (2, 1), (4, 1), (8, 1), (15, 1)]
        assert _refit_stages(9, 101, 200) == [(3, 200), (6, 34), (9, 34)]
        assert _refit_stages(9, 101, 0) == [(9, 0)]

    @pytest.mark.parametrize("n", [1, 7, 8])
    def test_up_to_the_first_boundary_it_is_one_fit(self, n):
        rng = np.random.default_rng(n)
        corpus = make_corpus(n_clips=100, presets=("medium", "veryslow"), cqps=(22, 37),
                             rng=rng)
        order = random_order(corpus, rng)
        X = feature_matrix(corpus, order)
        seconds = np.exp(rng.normal(size=400))
        params = GbrtParams(num_trees=5, max_depth=3)
        pred = Forecast("XP", corpus, order, model=params).at(seconds[:n])
        model = train(X[:n], np.log(seconds[:n]), params)
        assert model_to_dict(pred.model) == model_to_dict(model)
        assert np.array_equal(pred.t_hat, np.exp(predict(model, X[n:])))


def few_level_corpus():
    """20 clips on 8 distinct feature values, so equal feature rows occur: 240 tasks."""
    clips = [make_clip(clip_id=f"clip{i:02d}", width=(1280, 1920)[i % 2],
                       height=(720, 1080)[i % 2], num_frames=(60, 120)[i // 2 % 2],
                       E=(10.0, 40.0)[i // 4 % 2]) for i in range(20)]
    tasks = expand_tasks(clips, ("x264",))
    return Corpus(clips=tuple(clips), tasks=tuple(tasks))


FEW_LEVELS = few_level_corpus()


@st.composite
def staged_cases(draw):
    """A processing order of 20-240 of FEW_LEVELS's tasks, their times and a small GBRT."""
    total = draw(st.integers(20, 240))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    order = random_order(FEW_LEVELS, rng, total)
    # few levels, so equal times occur too
    seconds = np.exp(rng.integers(0, 6, size=total) / 2.0)
    params = GbrtParams(num_trees=draw(st.integers(1, 8)), max_depth=draw(st.integers(1, 3)),
                        learning_rate=draw(st.sampled_from([0.35, 1.0])),
                        min_samples_leaf=draw(st.integers(1, 3)))
    return order, seconds, params, rng


class TestStagedRefit:
    @settings(max_examples=40, deadline=None)
    @given(staged_cases(), st.data())
    def test_stages_bit_identical_under_permutations_inside_each_stage(self, case, data):
        order, seconds, params, rng = case
        total = len(seconds)
        n = data.draw(st.integers(1, total - 1))
        perm = np.arange(total)
        start = 0
        for end, _ in _refit_stages(n, total, params.num_trees):
            perm[start:end] = start + rng.permutation(end - start)
            start = end
        perm[n:] = n + rng.permutation(total - n)
        want = Forecast("XP", FEW_LEVELS, order, model=params).at(seconds[:n])
        got = Forecast("XP", FEW_LEVELS, [order[i] for i in perm],
                       model=params).at(seconds[perm[:n]])
        assert model_to_dict(got.model) == model_to_dict(want.model)
        assert got.T_hat == want.T_hat

    @settings(max_examples=30, deadline=None)
    @given(staged_cases(), st.data())
    def test_cached_stages_equal_a_fresh_fit_at_every_c(self, case, data):
        order, seconds, params, _ = case
        total = len(seconds)
        # any order, repeats included: a call on fewer tasks than the last refits
        counts = data.draw(st.lists(st.integers(1, total - 1), min_size=1, max_size=8))
        forecast = Forecast("CXP", FEW_LEVELS, order, model=params)
        for n in counts:
            got = forecast.at(seconds[:n])
            fresh = Forecast("CXP", FEW_LEVELS, order, model=params).at(seconds[:n])
            assert model_to_dict(got.model) == model_to_dict(fresh.model)
            assert np.array_equal(got.t_hat, fresh.t_hat)
            assert got.T_hat == fresh.T_hat

    def test_only_boundary_stages_are_cached(self, monkeypatch):
        fits = []

        def counted_train(rows, log_t, params):
            fits.append(("train", len(rows)))
            return train(rows, log_t, params)

        def counted_add_stage(model, rows, log_t, trees, margin):
            fits.append(("add_stage", len(rows)))
            return add_stage(model, rows, log_t, trees, margin)

        monkeypatch.setattr(predictors, "train", counted_train)
        monkeypatch.setattr(predictors, "add_stage", counted_add_stage)
        rng = np.random.default_rng(5)
        order, seconds = random_order(FEW_LEVELS, rng, 200), np.exp(rng.normal(size=200))
        forecast = Forecast("XP", FEW_LEVELS, order, model=GbrtParams(num_trees=6, max_depth=2))

        def fitted_at(n):
            fits.clear()
            pred = forecast.at(seconds[:n])
            return pred, list(fits)

        # boundaries 4, 8, 16, 32, 64: the last stage is kept only when it ends at one
        assert fitted_at(3)[1] == [("train", 3)]
        at_15, fitted = fitted_at(15)
        assert at_15.model.stages == (6, 1, 1)
        assert fitted == [("train", 4), ("add_stage", 8), ("add_stage", 15)]
        assert fitted_at(40)[1] == [("add_stage", 16), ("add_stage", 32), ("add_stage", 40)]
        assert fitted_at(64)[1] == [("add_stage", 64)]
        assert fitted_at(64)[1] == []
        assert fitted_at(20)[1] == [("train", 4), ("add_stage", 8), ("add_stage", 16),
                                    ("add_stage", 20)]


class TestFittedModelCache:
    """A Forecast on a fitted model predicts every row once, and each
    completion point slices that output."""

    @settings(max_examples=30, deadline=None)
    @given(staged_cases(), st.data())
    def test_cached_output_equals_a_fresh_prediction(self, case, data):
        order, seconds, params, _ = case
        total = len(seconds)
        model = train(feature_matrix(FEW_LEVELS, order), np.log(seconds), params)
        counts = data.draw(st.lists(st.integers(0, total - 1), min_size=1, max_size=8))
        forecast = Forecast("GXP", FEW_LEVELS, order, model=model)
        for n in counts:
            got = forecast.at(seconds[:n])
            fresh = Forecast("GXP", FEW_LEVELS, order, model=model).at(seconds[:n])
            assert model_to_dict(got.model) == model_to_dict(fresh.model)
            assert np.array_equal(got.t_hat, fresh.t_hat)
            assert got.T_hat == fresh.T_hat


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

    def test_label_at_or_above_k_rejected(self):
        corpus = make_corpus(n_clips=2, presets=("medium",), cqps=(22,))
        a, b = (c.clip_id for c in corpus.clips)
        with pytest.raises(ValidationError, match="has cluster label 3, outside"):
            cxp_order(corpus, assignment_for({a: 0, b: 3}, 1), seed=0)

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
        assert all(tid.split(":")[0] in test_clips for tid in split.test_ids)
        # the rest of the corpus's 6 * 12 tasks form the training side
        assert split.train_rows.shape[0] == 4 * 12

    def test_targets_are_log_seconds_in_train_order(self):
        corpus = with_random_times(make_corpus(n_clips=4, num_groups=2),
                                   np.random.default_rng(5))
        split = gxp_train_split(corpus, ["g1"])
        train_ids = [t.task_id for t in corpus.tasks
                     if corpus.clip(t.clip_id).source_group != "g1"]
        expected = [math.log(corpus.times[tid].seconds) for tid in train_ids]
        assert split.train_targets.tolist() == expected
        assert split.train_rows.shape == (len(train_ids), 9)

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

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_selection_is_a_step_function_over_the_bounds(self, data):
        inner = data.draw(st.lists(st.floats(0.0, 1.0, exclude_max=True),
                                   unique=True, max_size=5))
        bounds = sorted(inner) + [1.0]
        systems = data.draw(st.lists(st.sampled_from(SYSTEMS), min_size=len(bounds),
                                     max_size=len(bounds)))
        policy = CascadePolicy(tuple(zip(bounds, systems)))
        cs = sorted(data.draw(st.lists(st.floats(0.0, 1.0, exclude_max=True),
                                       min_size=1, max_size=8)) + inner)
        steps = [bisect.bisect_left(bounds, c) for c in cs]
        # c in (bounds[i-1], bounds[i]] picks entry i; c == 0 picks the first bound >= 0
        assert [cascade_select(policy, c) for c in cs] == [systems[i] for i in steps]
        assert steps == sorted(steps)

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

    @pytest.mark.parametrize("thresholds", [
        ((0.0, "GXP"), (math.nan, "CXP"), (1.0, "CP")),
        ((-0.5, "GXP"), (1.0, "CP")),
        ((-math.inf, "BP"), (1.0, "CP")),
    ])
    def test_bounds_must_be_finite_and_non_negative(self, thresholds):
        with pytest.raises(ValidationError, match="finite and >= 0"):
            CascadePolicy(thresholds)

    def test_bounds_must_end_at_one(self):
        with pytest.raises(ValidationError, match="end at 1.0"):
            CascadePolicy(((0.0, "GXP"), (0.9, "CP")))

    def test_unknown_system_rejected(self):
        with pytest.raises(ValidationError, match="unknown system"):
            CascadePolicy(((1.0, "ZZZ"),))

    def test_known_systems_roster(self):
        assert SYSTEMS == ("BP", "CP", "XP", "CXP", "GXP")
