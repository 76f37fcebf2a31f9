"""Properties: the presorted-partition builder grows exactly the mask builder's trees."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus_eta.gbrt import GbrtParams, add_stage, predict, train

from reference_gbrt import MaskTreeBuilder, reference_train

values = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def columns(draw, n):
    kind = draw(st.sampled_from(["constant", "levels", "adjacent", "free"]))
    if kind == "constant":
        return np.full(n, draw(values))
    if kind == "levels":  # heavy ties, as with heights, presets and CQPs
        levels = draw(st.lists(values, min_size=2, max_size=4))
    elif kind == "adjacent":  # neighbouring doubles: the midpoint rounds onto one of them
        a = draw(values)
        levels = [a, float(np.nextafter(a, np.inf))]
    else:
        return np.asarray(draw(st.lists(values, min_size=n, max_size=n)))
    return np.asarray(draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n)))


@st.composite
def training_sets(draw):
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 4))
    X = np.column_stack([draw(columns(n)) for _ in range(d)])
    # constant targets leave residuals equal up to rounding, so every split
    # scores the parent's score within ulps and summation order decides
    y = np.asarray(draw(columns(n)))
    for src, dst in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                  max_size=n // 2)):
        X[dst] = X[src]  # duplicate rows, with equal or different targets
        if draw(st.booleans()):
            y[dst] = y[src]
    params = GbrtParams(num_trees=draw(st.integers(1, 5)),
                        max_depth=draw(st.integers(0, 5)),
                        learning_rate=draw(st.sampled_from([0.1, 0.35, 1.0])),
                        min_samples_leaf=draw(st.integers(1, 4)))
    perm = np.asarray(draw(st.permutations(range(n))), dtype=np.int64)
    return X, y, params, perm


def assert_same_as_reference(model, reference):
    base, trees, mse = reference
    assert model.base_score == base
    assert model.train_mse == mse
    assert len(model.trees) == len(trees)
    for got, want in zip(model.trees, trees):
        for name in ("feature", "threshold", "left", "right", "value"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype, name
            assert np.array_equal(a, b), name


@settings(max_examples=300, deadline=None)
@given(training_sets())
def test_trees_identical_to_mask_reference(case):
    X, y, params, _ = case
    assert_same_as_reference(train(X, y, params), reference_train(X, y, params))


@settings(max_examples=150, deadline=None)
@given(training_sets())
def test_any_row_permutation_gives_the_reference_trees(case):
    X, y, params, perm = case
    assert_same_as_reference(train(X[perm], y[perm], params), reference_train(X, y, params))


@st.composite
def large_training_sets(draw):
    """Leaves above 128 rows, where numpy's pairwise sum changes its shape."""
    n = draw(st.integers(130, 600))
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def column():
        kind = draw(st.sampled_from(["constant", "levels", "free"]))
        if kind == "constant":
            return np.full(n, draw(values))
        if kind == "levels":
            return rng.choice(draw(st.lists(values, min_size=2, max_size=4)), size=n)
        return rng.uniform(-1e3, 1e3, size=n)

    X = np.column_stack([column() for _ in range(d)])
    y = column()
    params = GbrtParams(num_trees=draw(st.integers(1, 3)),
                        max_depth=draw(st.integers(0, 2)),
                        learning_rate=draw(st.sampled_from([0.1, 0.35, 1.0])),
                        min_samples_leaf=draw(st.integers(1, 40)))
    return X, y, params


@settings(max_examples=20, deadline=None)
@given(large_training_sets())
def test_large_leaves_identical_to_mask_reference(case):
    X, y, params = case
    assert_same_as_reference(train(X, y, params), reference_train(X, y, params))


@settings(max_examples=150, deadline=None)
@given(training_sets(), st.integers(1, 3), st.data())
def test_stage_is_the_mask_reference_continued_from_the_margin(case, num_trees, data):
    """add_stage grows the reference's trees on the residuals against the margin,
    under any permutation of the stage's rows."""
    X, y, params, perm = case
    first = data.draw(st.integers(1, len(y)))
    model = train(X[:first], y[:first], params)
    staged = add_stage(model, X[perm], y[perm], num_trees, predict(model, X[perm]))

    margin = predict(model, X)
    order = np.lexsort((y,) + tuple(X[:, f] for f in reversed(range(X.shape[1]))))
    Xc, yc, pred = np.ascontiguousarray(X[order]), y[order], margin[order]
    builder = MaskTreeBuilder(Xc, [np.argsort(Xc[:, f], kind="stable")
                                   for f in range(Xc.shape[1])], params)
    trees, mse = [], []
    for _ in range(num_trees):
        tree, out = builder.build(yc - pred)
        pred = pred + params.learning_rate * out
        trees.append(tree)
        mse.append(float(np.mean((yc - pred) ** 2)))
    assert staged.stages == model.stages + (num_trees,)
    assert staged.train_mse[len(model.trees):] == tuple(mse)
    for got, want in zip(staged.trees[len(model.trees):], trees):
        for name in ("feature", "threshold", "left", "right", "value"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
