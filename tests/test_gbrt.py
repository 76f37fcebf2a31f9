"""Boosted-tree training checked against brute-force split search and hand cases."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus_eta.corpus import PRESET_ORD, Corpus, EncodeTask, expand_tasks
from corpus_eta.errors import ValidationError
from corpus_eta.gbrt import (FEATURE_NAMES, GbrtModel, GbrtParams, add_stage,
                             feature_matrix, load_model, model_from_dict,
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rows_rejected(self, bad):
        model = train(np.arange(12.0).reshape(6, 2), np.arange(6.0),
                      GbrtParams(num_trees=2, max_depth=2, min_samples_leaf=1))
        rows = np.zeros((3, 2))
        rows[1, 1] = bad
        with pytest.raises(ValidationError, match="rows contain"):
            predict(model, rows)
        with pytest.raises(ValidationError, match="rows contain"):
            predict(model, rows[1])

    @pytest.mark.parametrize("shape", [(), (2, 3, 1)])
    def test_rows_of_other_rank_rejected(self, shape):
        model = train(np.zeros((4, 3)), np.ones(4), GbrtParams(num_trees=0))
        with pytest.raises(ValidationError, match="1-D or 2-D"):
            predict(model, np.zeros(shape))

    def test_no_features_and_no_rows(self):
        model = train(np.zeros((4, 0)), np.arange(4.0), GbrtParams(num_trees=2))
        assert predict(model, np.zeros((2, 0))).tolist() == [1.5, 1.5]
        assert predict(model, np.zeros((0, 0))).shape == (0,)

    def test_feature_count_mismatch_rejected(self):
        model = train(np.zeros((4, 3)), np.ones(4), GbrtParams(num_trees=0))
        with pytest.raises(ValidationError, match="expects 3 features, got 2"):
            predict(model, np.zeros((2, 2)))


levels = st.sampled_from([-2.5, -1.0, 0.0, 0.5, 1.0, 3.0])


@st.composite
def hand_tree(draw, num_features, max_nodes=40):
    """A random valid tree in preorder, as model_from_dict takes it."""
    tree = {"feature": [], "threshold": [], "left": [], "right": [], "value": []}

    def node(depth):
        i = len(tree["feature"])
        for name, init in (("feature", -1), ("threshold", 0.0), ("left", -1),
                           ("right", -1)):
            tree[name].append(init)
        tree["value"].append(draw(st.floats(-5.0, 5.0)))
        if depth < 9 and len(tree["feature"]) < max_nodes and draw(st.booleans()):
            tree["feature"][i] = draw(st.integers(0, num_features - 1))
            tree["threshold"][i] = draw(levels)
            tree["left"][i] = node(depth + 1)
            tree["right"][i] = node(depth + 1)
        return i

    node(0)
    return tree


@st.composite
def models_and_rows(draw):
    """A trained model, or a hand-built one often deeper than its params say, plus
    rows whose values often equal a threshold."""
    d = draw(st.integers(1, 4))
    if draw(st.booleans()):
        n = draw(st.integers(1, 30))
        X = np.asarray(draw(st.lists(levels, min_size=n * d, max_size=n * d))).reshape(n, d)
        y = np.asarray(draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)))
        model = train(X, y, GbrtParams(num_trees=draw(st.integers(0, 4)),
                                       max_depth=draw(st.integers(0, 4)),
                                       learning_rate=draw(st.sampled_from([0.1, 0.35, 1.0])),
                                       min_samples_leaf=draw(st.integers(1, 3))))
    else:
        trees = draw(st.lists(hand_tree(d), min_size=1, max_size=4))
        model = model_from_dict({
            "format": "corpus-eta-gbrt", "version": 1,
            "base_score": draw(st.floats(-5.0, 5.0)), "num_features": d,
            "params": {"num_trees": len(trees), "max_depth": draw(st.integers(0, 2)),
                       "learning_rate": 0.35, "min_samples_leaf": 1},
            "trees": trees})
    n_rows = draw(st.integers(1, 12))
    thresholds = sorted({float(t) for tree in model.trees
                         for f, t in zip(tree.feature, tree.threshold) if f >= 0})
    cells = st.one_of(levels, st.floats(-4.0, 4.0), *(
        [st.sampled_from(thresholds)] if thresholds else []))
    rows = np.asarray(draw(st.lists(cells, min_size=n_rows * d,
                                    max_size=n_rows * d))).reshape(n_rows, d)
    return model, rows


class TestPredictMatchesTreeWalk:
    @settings(max_examples=200, deadline=None)
    @given(models_and_rows(), st.sampled_from(["C", "F", "strided"]))
    def test_predict_equals_node_by_node_walk(self, case, layout):
        model, rows = case
        expected = np.array([walk_predict(model, row) for row in rows])
        if layout == "F":
            rows = np.asfortranarray(rows)
        elif layout == "strided":
            wide = np.zeros((rows.shape[0] * 2, rows.shape[1] * 3))
            wide[::2, ::3] = rows
            rows = wide[::2, ::3]
        assert np.array_equal(predict(model, rows), expected)
        for i, row in enumerate(rows):
            assert predict(model, row) == expected[i]

    def test_hand_tree_deeper_than_max_depth(self):
        # a chain of four splits on feature 0 under params.max_depth = 1
        doc = {"format": "corpus-eta-gbrt", "version": 1, "base_score": 0.0,
               "num_features": 1,
               "params": {"num_trees": 1, "max_depth": 1, "learning_rate": 1.0,
                          "min_samples_leaf": 1},
               "trees": [{"feature": [0, -1, 0, -1, 0, -1, 0, -1, -1],
                          "threshold": [0.0, 0, 1.0, 0, 2.0, 0, 3.0, 0, 0],
                          "left": [1, -1, 3, -1, 5, -1, 7, -1, -1],
                          "right": [2, -1, 4, -1, 6, -1, 8, -1, -1],
                          "value": [0, 10.0, 0, 11.0, 0, 12.0, 0, 13.0, 14.0]}]}
        model = model_from_dict(doc)
        rows = np.array([[-1.0], [0.0], [0.5], [1.0], [2.0], [3.0], [3.5]])
        assert predict(model, rows).tolist() == [10.0, 10.0, 11.0, 11.0, 12.0, 13.0, 14.0]


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

    def test_a_failed_save_keeps_the_old_model(self, tmp_path, monkeypatch):
        model = train(np.arange(8.0), np.arange(8.0), GbrtParams(num_trees=2))
        path = tmp_path / "model.json"
        save_model(path, model)
        before = path.read_bytes()

        def torn_dump(doc, fh):
            fh.write('{"version": ')
            raise OSError("no space left on device")

        monkeypatch.setattr(json, "dump", torn_dump)
        with pytest.raises(OSError, match="no space left"):
            save_model(path, model)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]

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
        assert doc["version"] == 2
        assert doc["stages"] == [2]
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


def staged_model():
    """Three stages: 3 trees on 30 rows, then 2 on 45 and 1 on 60."""
    rng = np.random.default_rng(12)
    X, y = rng.normal(size=(60, 3)), rng.normal(size=60)
    model = train(X[:30], y[:30], GbrtParams(num_trees=3, max_depth=2, learning_rate=0.5))
    for end, k in ((45, 2), (60, 1)):
        model = add_stage(model, X[:end], y[:end], k, predict(model, X[:end]))
    return model, X, y


class TestStages:
    def test_single_fit_is_one_stage(self):
        model = train(np.arange(8.0), np.arange(8.0), GbrtParams(num_trees=3))
        assert model.stages == (3,)
        assert train(np.arange(8.0), np.arange(8.0), GbrtParams(num_trees=0)).stages == ()

    def test_stage_continues_from_the_margin(self):
        model, X, y = staged_model()
        assert model.stages == (3, 2, 1)
        assert len(model.trees) == 6 and len(model.train_mse) == 6
        # the stage's first tree fits the residuals against the earlier stages
        first = train(X[:30], y[:30], model.params)
        margin = predict(first, X[:45])
        alone = add_stage(first, X[:45], y[:45], 2, margin)
        assert model_to_dict(alone)["trees"] == model_to_dict(model)["trees"][:5]
        assert alone.base_score == first.base_score
        assert alone.train_mse[-1] < float(np.mean((y[:45] - margin) ** 2))

    def test_margin_walks_only_the_last_stage(self):
        model, X, _ = staged_model()
        earlier = GbrtModel(model.base_score, model.trees[:5], model.params,
                            model.num_features, stages=(3, 2))
        margin = predict(earlier, X)
        assert np.array_equal(predict(model, X, margin=margin), predict(model, X))
        assert predict(model, X[7], margin=margin[7]) == predict(model, X[7])

    def test_margin_of_wrong_length_rejected(self):
        model, X, y = staged_model()
        with pytest.raises(ValidationError, match="60 rows but 59 margins"):
            predict(model, X, margin=np.zeros(59))
        with pytest.raises(ValidationError, match="margin has shape"):
            add_stage(model, X, y, 1, np.zeros(59))

    def test_non_finite_margin_rejected(self):
        model, X, y = staged_model()
        margin = predict(model, X)
        margin[3] = math.nan
        with pytest.raises(ValidationError, match="margin contains NaN"):
            add_stage(model, X, y, 1, margin)

    def test_stage_needs_a_tree(self):
        model, X, y = staged_model()
        with pytest.raises(ValidationError, match="at least one tree"):
            add_stage(model, X, y, 0, predict(model, X))

    def test_feature_count_must_match(self):
        model, X, y = staged_model()
        with pytest.raises(ValidationError, match="expects 3 features, got 2"):
            add_stage(model, X[:, :2], y, 1, predict(model, X))


class TestStagedSerialization:
    def test_roundtrip_keeps_stages_and_predictions(self, tmp_path):
        model, X, _ = staged_model()
        path = tmp_path / "staged.json"
        save_model(path, model)
        doc = json.loads(path.read_text())
        assert doc["version"] == 2 and doc["stages"] == [3, 2, 1]
        assert doc["params"]["num_trees"] == 3
        loaded = load_model(path)
        assert loaded.stages == (3, 2, 1)
        assert np.array_equal(predict(loaded, X), predict(model, X))
        assert model_to_dict(loaded) == model_to_dict(model)

    def test_roundtrip_without_trees(self):
        model = train(np.zeros((3, 1)), np.arange(3.0), GbrtParams(num_trees=0))
        loaded = model_from_dict(model_to_dict(model))
        assert loaded.stages == () and loaded.base_score == 1.0

    @pytest.mark.parametrize("num_trees", [0, 2])
    def test_version_1_loads_as_one_stage(self, num_trees):
        X = np.arange(8.0).reshape(-1, 1)
        model = train(X, np.arange(8.0), GbrtParams(num_trees=num_trees))
        doc = model_to_dict(model)
        doc["version"] = 1
        del doc["stages"]
        loaded = model_from_dict(doc)
        assert loaded.stages == model.stages
        assert np.array_equal(predict(loaded, X), predict(model, X))

    @pytest.mark.parametrize("stages, message", [
        ([], "stages hold 0 trees but the model has 6"),
        ([3, 0, 2, 1], "tree counts of at least 1"),
        ([3, -1, 4], "tree counts of at least 1"),
        ([3, 2.0, 1], "tree counts of at least 1"),
        ([3, True, 2], "tree counts of at least 1"),
        ("3,2,1", "tree counts of at least 1"),
        ([3, 2], "stages hold 5 trees but the model has 6"),
        ([3, 2, 2], "stages hold 7 trees but the model has 6"),
        ([2, 3, 1], "stage 0 has 2 trees but params.num_trees is 3"),
    ])
    def test_bad_stage_list_rejected(self, stages, message):
        model, _, _ = staged_model()
        doc = model_to_dict(model)
        doc["stages"] = stages
        with pytest.raises(ValidationError, match=message):
            model_from_dict(doc)

    def test_missing_stage_list_rejected(self):
        doc = model_to_dict(staged_model()[0])
        del doc["stages"]
        with pytest.raises(ValidationError, match="malformed model"):
            model_from_dict(doc)


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

    @pytest.mark.parametrize("text", ["null", "[1, 2]", '"x"', "3"])
    def test_document_that_is_not_an_object_rejected(self, text, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(text)
        with pytest.raises(ValidationError, match="malformed model document: not a JSON object"):
            load_model(path)

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
        rows = feature_matrix(Corpus(clips=(clip,), tasks=(task,)), [task.task_id])
        assert FEATURE_NAMES == ("height", "num_pixels", "framerate",
                                 "num_frames", "E", "h", "luma",
                                 "preset_ord", "cqp")
        assert rows.tolist() == [[720.0, 921600.0, 25.0, 200.0, 11.0, 4.0,
                                  77.0, 2.0, 37.0]]

    def test_preset_rank_is_by_slowness(self):
        clip = make_clip("c")
        tasks = tuple(EncodeTask(f"c:x264:{p}:22", "c", "x264", p, 22)
                      for p in ("ultrafast", "medium", "veryslow"))
        rows = feature_matrix(Corpus(clips=(clip,), tasks=tasks), [t.task_id for t in tasks])
        assert rows[:, FEATURE_NAMES.index("preset_ord")].tolist() == [0.0, 1.0, 2.0]

    def test_matrix_stacks_requested_tasks(self):
        corpus = make_corpus(n_clips=2)
        ids = [t.task_id for t in corpus.tasks[:5]]
        rows = feature_matrix(corpus, ids)
        assert rows.shape == (5, len(FEATURE_NAMES))
        task_map = corpus.task_map()
        for i, task_id in enumerate(ids):
            task = task_map[task_id]
            clip = corpus.clip(task.clip_id)
            expected = [float(getattr(clip, name)) for name in FEATURE_NAMES[:-2]]
            expected += [PRESET_ORD[task.preset], task.cqp]
            assert rows[i].tolist() == expected

    def test_no_tasks_give_an_empty_matrix(self):
        rows = feature_matrix(make_corpus(n_clips=1), [])
        assert rows.shape == (0, len(FEATURE_NAMES))

    def test_unknown_task_rejected(self):
        corpus = make_corpus(n_clips=1)
        with pytest.raises(ValidationError, match="unknown task_id"):
            feature_matrix(corpus, ["ghost"])
