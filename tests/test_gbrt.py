"""Boosted-tree training checked against brute-force split search and hand cases."""

import json
import math

import numpy as np
import pytest

from corpus_eta.corpus import Corpus, EncodeTask, expand_tasks
from corpus_eta.errors import ValidationError
from corpus_eta.gbrt import (FEATURE_NAMES, GbrtModel, GbrtParams, feature_matrix,
                             feature_row, load_model, model_from_dict,
                             model_to_dict, predict, save_model, train)

from helpers import make_clip, make_corpus


# Reference helpers: independent of the production code paths.

def walk_predict(model, row):
    """Scalar prediction by explicit node-by-node descent."""
    out = model.base_score
    for tree in model.trees:
        node = 0
        while tree.feature[node] >= 0:
            if row[tree.feature[node]] <= tree.threshold[node]:
                node = int(tree.left[node])
            else:
                node = int(tree.right[node])
        out = out + model.params.learning_rate * tree.value[node]
    return out


def brute_gain(X, resid, idx, feat, thr, msl):
    """SSE reduction of one candidate split on a node subset, or None if illegal."""
    left = idx[X[idx, feat] <= thr]
    right = idx[X[idx, feat] > thr]
    if len(left) < msl or len(right) < msl:
        return None
    def sse(sub):
        r = resid[sub]
        return float(np.sum((r - r.mean()) ** 2))
    return sse(idx) - sse(left) - sse(right)


def brute_max_gain(X, resid, idx, msl):
    best = 0.0
    for feat in range(X.shape[1]):
        vals = np.unique(X[idx, feat])
        for p in range(len(vals) - 1):
            thr = (vals[p] + vals[p + 1]) / 2.0
            gain = brute_gain(X, resid, idx, feat, thr, msl)
            if gain is not None:
                best = max(best, gain)
    return best


def check_tree_greedy(tree, X, resid, params):
    """Every internal node must carry a maximal-gain legal split; every leaf
    must be forced (depth/size/no-gain) and output its subset's mean residual."""
    msl = params.min_samples_leaf

    def visit(node, idx, depth):
        feat = int(tree.feature[node])
        if feat < 0:
            assert tree.value[node] == pytest.approx(float(resid[idx].mean()),
                                                     rel=1e-12, abs=1e-12)
            if depth < params.max_depth and len(idx) >= 2 * msl:
                node_sse = float(np.sum((resid[idx] - resid[idx].mean()) ** 2))
                assert brute_max_gain(X, resid, idx, msl) <= 1e-9 * max(node_sse, 1.0)
            return
        assert depth < params.max_depth
        thr = float(tree.threshold[node])
        chosen = brute_gain(X, resid, idx, feat, thr, msl)
        assert chosen is not None
        best = brute_max_gain(X, resid, idx, msl)
        assert chosen >= best - 1e-9 * max(best, 1.0)
        assert chosen > 0.0
        # preorder layout: left child immediately follows its parent
        assert int(tree.left[node]) == node + 1
        visit(int(tree.left[node]), idx[X[idx, feat] <= thr], depth + 1)
        visit(int(tree.right[node]), idx[X[idx, feat] > thr], depth + 1)

    visit(0, np.arange(X.shape[0]), 0)


def best_depth1_sse(X, y, idx):
    y_sub = y[idx]
    best = float(np.sum((y_sub - y_sub.mean()) ** 2))
    for feat in range(X.shape[1]):
        v = X[idx, feat]
        order = np.argsort(v, kind="stable")
        sv, sy = v[order], y_sub[order]
        for p in range(len(sv) - 1):
            if sv[p] == sv[p + 1]:
                continue
            l, r = sy[:p + 1], sy[p + 1:]
            best = min(best, float(np.sum((l - l.mean()) ** 2)
                                   + np.sum((r - r.mean()) ** 2)))
    return best


def best_single_depth2_mse(X, y):
    """Exhaustive optimum over all depth <= 2 regression trees."""
    n = X.shape[0]
    all_idx = np.arange(n)
    best = best_depth1_sse(X, y, all_idx)
    for feat in range(X.shape[1]):
        vals = np.unique(X[:, feat])
        for p in range(len(vals) - 1):
            thr = (vals[p] + vals[p + 1]) / 2.0
            left = all_idx[X[:, feat] <= thr]
            right = all_idx[X[:, feat] > thr]
            if len(left) == 0 or len(right) == 0:
                continue
            best = min(best, best_depth1_sse(X, y, left)
                       + best_depth1_sse(X, y, right))
    return best / n


class TestHandCases:
    def test_step_function_recovered_exactly(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0], [6.0], [7.0], [8.0], [9.0]])
        y = np.array([0.0] * 4 + [10.0] * 4)
        model = train(X, y, GbrtParams(num_trees=1, max_depth=1,
                                       learning_rate=1.0, min_samples_leaf=1))
        assert model.base_score == 5.0
        assert model.train_mse == (0.0,)
        assert np.array_equal(predict(model, X), y)
        tree = model.trees[0]
        assert tree.feature.tolist() == [0, -1, -1]
        assert tree.threshold[0] == 5.0
        assert tree.left.tolist() == [1, -1, -1]
        assert tree.right.tolist() == [2, -1, -1]
        assert tree.value.tolist() == [0.0, -5.0, 5.0]

    def test_constant_target_reproduced_exactly(self):
        X = np.arange(12.0).reshape(6, 2)
        y = np.full(6, 3.25)
        model = train(X, y, GbrtParams(num_trees=5, max_depth=3,
                                       learning_rate=0.4, min_samples_leaf=1))
        assert model.base_score == 3.25
        assert np.all(predict(model, X) == 3.25)
        assert predict(model, [100.0, -100.0]) == 3.25

    def test_zero_trees_predict_the_mean(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([1.0, 2.0, 6.0])
        model = train(X, y, GbrtParams(num_trees=0))
        assert model.base_score == 3.0
        assert np.all(predict(model, X) == 3.0)
        assert model.train_mse == ()

    def test_zero_depth_never_splits(self):
        rng = np.random.default_rng(0)
        model = train(rng.normal(size=(10, 2)), rng.normal(size=10),
                      GbrtParams(num_trees=3, max_depth=0))
        for tree in model.trees:
            assert tree.feature.tolist() == [-1]

    def test_huge_leaf_floor_never_splits(self):
        rng = np.random.default_rng(1)
        X, y = rng.normal(size=(10, 2)), rng.normal(size=10)
        model = train(X, y, GbrtParams(num_trees=4, max_depth=6,
                                       min_samples_leaf=10))
        for tree in model.trees:
            assert tree.feature.tolist() == [-1]


class TestGreedyStructure:
    def test_every_node_is_a_brute_force_best_split(self):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(8, 40))
            d = int(rng.integers(1, 4))
            X = rng.normal(size=(n, d))
            y = rng.normal(size=n) * 10
            params = GbrtParams(num_trees=3, max_depth=int(rng.integers(1, 4)),
                                learning_rate=0.6,
                                min_samples_leaf=int(rng.integers(1, 4)))
            model = train(X, y, params)
            # the builder sees rows in canonical order; recreate it for the walk
            order = np.lexsort((y,) + tuple(X[:, f] for f in reversed(range(d))))
            Xc, yc = X[order], y[order]
            pred = np.full(n, model.base_score)
            for tree in model.trees:
                resid = yc - pred
                check_tree_greedy(tree, Xc, resid, params)
                outs = np.array([walk_predict(
                    GbrtModel(0.0, (tree,), GbrtParams(num_trees=1,
                                                       learning_rate=1.0), d), row)
                    for row in Xc])
                pred = pred + params.learning_rate * outs

    def test_threshold_lies_between_member_values(self):
        rng = np.random.default_rng(42)
        X = rng.normal(size=(30, 2))
        y = rng.normal(size=30)
        model = train(X, y, GbrtParams(num_trees=1, max_depth=3,
                                       min_samples_leaf=1))
        tree = model.trees[0]
        for node in range(len(tree.feature)):
            feat = int(tree.feature[node])
            if feat < 0:
                continue
            col = X[:, feat]
            assert np.any(col <= tree.threshold[node])
            assert np.any(col > tree.threshold[node])


class TestBoostingQuality:
    def test_training_error_never_increases(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(10, 100))
            X = rng.normal(size=(n, int(rng.integers(1, 5))))
            y = rng.normal(size=n) * rng.uniform(0.1, 20)
            params = GbrtParams(num_trees=int(rng.integers(1, 25)),
                                max_depth=int(rng.integers(0, 5)),
                                learning_rate=float(rng.uniform(0.05, 1.0)),
                                min_samples_leaf=int(rng.integers(1, 4)))
            model = train(X, y, params)
            mse = model.train_mse
            assert len(mse) == params.num_trees
            for i in range(len(mse) - 1):
                assert mse[i + 1] <= mse[i] * (1.0 + 1e-12)

    def test_small_ensemble_beats_best_single_small_tree(self):
        for seed in range(40):
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(20, 3))
            y = rng.normal(size=20) * 5
            model = train(X, y, GbrtParams(num_trees=10, max_depth=2,
                                           learning_rate=1.0,
                                           min_samples_leaf=1))
            oracle = best_single_depth2_mse(X, y)
            assert model.train_mse[-1] <= oracle * (1.0 + 1e-12)

    def test_final_mse_matches_prediction_residuals(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        model = train(X, y, GbrtParams(num_trees=8, max_depth=2))
        err = y - predict(model, X)
        assert model.train_mse[-1] == pytest.approx(float(np.mean(err ** 2)),
                                                    rel=1e-9)


class TestPrediction:
    def test_matches_explicit_tree_walk(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 4))
        y = rng.normal(size=40) * 3
        model = train(X, y, GbrtParams(num_trees=12, max_depth=3))
        got = predict(model, X)
        expected = np.array([walk_predict(model, row) for row in X])
        assert np.array_equal(got, expected)

    def test_row_and_matrix_forms_agree(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(10, 2))
        y = rng.normal(size=10)
        model = train(X, y, GbrtParams(num_trees=5, max_depth=2))
        batch = predict(model, X)
        for i, row in enumerate(X):
            assert predict(model, row) == batch[i]

    def test_permutation_of_training_rows_changes_nothing(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(25, 3))
        X[5] = X[17]  # duplicate rows exercise the tie-break
        y = rng.normal(size=25)
        model_a = train(X, y, GbrtParams(num_trees=6, max_depth=3))
        perm = rng.permutation(25)
        model_b = train(X[perm], y[perm], GbrtParams(num_trees=6, max_depth=3))
        assert model_to_dict(model_a) == model_to_dict(model_b)
        probe = rng.normal(size=(8, 3))
        assert np.array_equal(predict(model_a, probe), predict(model_b, probe))

    def test_one_dimensional_rows_mean_one_feature(self):
        x = np.array([1.0, 2.0, 3.0, 8.0, 9.0, 10.0])
        y = np.array([0.0, 0.0, 0.0, 4.0, 4.0, 4.0])
        model = train(x, y, GbrtParams(num_trees=1, max_depth=1,
                                       learning_rate=1.0, min_samples_leaf=1))
        assert model.num_features == 1
        assert np.array_equal(predict(model, x.reshape(-1, 1)), y)

    def test_feature_count_mismatch_rejected(self):
        model = train(np.zeros((4, 3)), np.ones(4), GbrtParams(num_trees=0))
        with pytest.raises(ValidationError, match="expects 3 features, got 2"):
            predict(model, np.zeros((2, 2)))


class TestSerialization:
    def test_roundtrip_preserves_predictions(self, tmp_path):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        model = train(X, y, GbrtParams(num_trees=7, max_depth=3))
        path = tmp_path / "model.json"
        save_model(path, model)
        loaded = load_model(path)
        assert np.array_equal(predict(loaded, X), predict(model, X))
        assert loaded.params == model.params
        assert loaded.base_score == model.base_score
        assert model_to_dict(loaded) == model_to_dict(model)

    def test_training_history_not_persisted(self):
        model = train(np.zeros((4, 1)), np.ones(4), GbrtParams(num_trees=2))
        doc = model_to_dict(model)
        assert "train_mse" not in doc
        assert model_from_dict(doc).train_mse == ()

    def test_document_is_plain_json(self, tmp_path):
        model = train(np.arange(8.0), np.arange(8.0), GbrtParams(num_trees=2))
        path = tmp_path / "m.json"
        save_model(path, model)
        doc = json.loads(path.read_text())
        assert doc["format"] == "corpus-eta-gbrt"
        assert doc["version"] == 1
        assert doc["num_features"] == 1

    def test_wrong_format_rejected(self):
        with pytest.raises(ValidationError, match="not a"):
            model_from_dict({"format": "something-else", "version": 1})

    def test_wrong_version_rejected(self):
        with pytest.raises(ValidationError, match="version"):
            model_from_dict({"format": "corpus-eta-gbrt", "version": 99})

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot read"):
            load_model(tmp_path / "nope.json")

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{не json")
        with pytest.raises(ValidationError, match="not valid JSON"):
            load_model(path)


def valid_doc():
    rng = np.random.default_rng(8)
    model = train(rng.normal(size=(30, 3)), rng.normal(size=30),
                  GbrtParams(num_trees=2, max_depth=2, min_samples_leaf=1))
    doc = model_to_dict(model)
    # the cases below edit these internal nodes
    assert doc["trees"][0]["feature"][0] >= 0 and doc["trees"][1]["feature"][2] >= 0
    return doc


class TestModelValidationOnLoad:
    def test_valid_document_loads(self):
        model_from_dict(valid_doc())

    def test_self_loop_rejected(self, tmp_path):
        # a child pointing back at its own node used to make predict loop forever
        doc = valid_doc()
        doc["trees"][0]["left"][0] = 0
        path = tmp_path / "loop.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=r"tree 0, node 0: left child 0"):
            load_model(path)

    def test_child_before_parent_rejected(self):
        doc = valid_doc()
        doc["trees"][1]["right"][2] = 1  # a real node, but before its parent
        with pytest.raises(ValidationError, match=r"tree 1, node 2: right child 1"):
            model_from_dict(doc)

    def test_child_out_of_range_rejected(self):
        doc = valid_doc()
        n = len(doc["trees"][0]["feature"])
        doc["trees"][0]["right"][0] = n
        with pytest.raises(ValidationError, match=rf"right child {n} must lie in \(0, {n}\)"):
            model_from_dict(doc)

    @pytest.mark.parametrize("feature", [3, 99, -2])
    def test_feature_out_of_range_rejected(self, feature):
        doc = valid_doc()
        doc["trees"][0]["feature"][0] = feature
        with pytest.raises(ValidationError, match=rf"node 0: feature {feature} is not"):
            model_from_dict(doc)

    @pytest.mark.parametrize("field", ["threshold", "value"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_numbers_rejected(self, field, bad):
        doc = valid_doc()
        doc["trees"][1][field][-1] = bad
        with pytest.raises(ValidationError, match="must be finite"):
            model_from_dict(doc)

    def test_non_finite_base_score_rejected(self):
        doc = valid_doc()
        doc["base_score"] = math.nan
        with pytest.raises(ValidationError, match="base_score must be finite"):
            model_from_dict(doc)

    @pytest.mark.parametrize("num_trees", [1, 3])
    def test_tree_count_must_match_params(self, num_trees):
        doc = valid_doc()
        doc["params"]["num_trees"] = num_trees
        with pytest.raises(ValidationError, match=f"2 trees but params.num_trees is {num_trees}"):
            model_from_dict(doc)

    def test_unequal_node_arrays_rejected(self):
        doc = valid_doc()
        doc["trees"][0]["value"].append(0.0)
        with pytest.raises(ValidationError, match="equally long"):
            model_from_dict(doc)

    def test_missing_field_rejected(self):
        doc = valid_doc()
        del doc["trees"][0]["left"]
        with pytest.raises(ValidationError, match="malformed model"):
            model_from_dict(doc)

class TestValidation:
    @pytest.mark.parametrize("kwargs,msg", [
        (dict(num_trees=-1), "num_trees"),
        (dict(max_depth=-1), "max_depth"),
        (dict(learning_rate=0.0), "learning_rate"),
        (dict(learning_rate=1.5), "learning_rate"),
        (dict(min_samples_leaf=0), "min_samples_leaf"),
    ])
    def test_bad_params_rejected(self, kwargs, msg):
        with pytest.raises(ValidationError, match=msg):
            GbrtParams(**kwargs)

    def test_nan_targets_rejected(self):
        with pytest.raises(ValidationError, match="targets contain"):
            train(np.zeros((3, 1)), np.array([1.0, np.nan, 2.0]))

    def test_infinite_rows_rejected(self):
        X = np.zeros((3, 2))
        X[1, 0] = np.inf
        with pytest.raises(ValidationError, match="rows contain"):
            train(X, np.ones(3))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="3 rows but 2 targets"):
            train(np.zeros((3, 1)), np.ones(2))

    def test_empty_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            train(np.zeros((0, 2)), np.zeros(0))

    def test_three_dimensional_rows_rejected(self):
        with pytest.raises(ValidationError, match="2-D"):
            train(np.zeros((2, 2, 2)), np.ones(2))


class TestFeatureMapping:
    def test_row_follows_declared_order(self):
        clip = make_clip("c", width=1280, height=720, framerate=25,
                         num_frames=200, E=11.0, h=4.0, luma=77.0)
        task = EncodeTask(task_id="c:x264:veryslow:37", clip_id="c",
                          encoder="x264", preset="veryslow", cqp=37)
        row = feature_row(clip, task)
        assert FEATURE_NAMES == ("height", "num_pixels", "framerate",
                                 "num_frames", "E", "h", "luma",
                                 "preset_ord", "cqp")
        assert row.tolist() == [720.0, 921600.0, 25.0, 200.0, 11.0, 4.0,
                                77.0, 2.0, 37.0]

    def test_preset_rank_is_by_slowness(self):
        clip = make_clip("c")
        ranks = [feature_row(clip, EncodeTask(f"c:x264:{p}:22", "c", "x264", p, 22))[7]
                 for p in ("ultrafast", "medium", "veryslow")]
        assert ranks == [0.0, 1.0, 2.0]

    def test_matrix_stacks_requested_tasks(self):
        corpus = make_corpus(n_clips=2)
        ids = [t.task_id for t in corpus.tasks[:5]]
        rows = feature_matrix(corpus, ids)
        assert rows.shape == (5, len(FEATURE_NAMES))
        task_map = corpus.task_map()
        for i, task_id in enumerate(ids):
            task = task_map[task_id]
            expected = feature_row(corpus.clip(task.clip_id), task)
            assert np.array_equal(rows[i], expected)

    def test_unknown_task_rejected(self):
        corpus = make_corpus(n_clips=1)
        with pytest.raises(ValidationError, match="unknown task_id"):
            feature_matrix(corpus, ["ghost"])
