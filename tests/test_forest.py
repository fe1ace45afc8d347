"""Random-forest construction and prediction arithmetic."""

import math
import os

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from centpipe import forest
from centpipe.forest import (CRITERIA, DecisionTree, ForestConfig, ForestModel, fit,
                             predict_proba_many)
from centpipe.evaluation import kfold_split
from centpipe.infotheory import NonFiniteError

from conftest import assert_no_child_left, count_split_elements, traced_peak, use_cpus


# --- reference: one tree at a time, one node and one feature at a time ------
# fit grows all trees together and scores all candidates of many nodes in one
# vectorized pass; predict_proba_many walks all rows of a tree at once. Both
# must reproduce this straightforward grower and per-row walk byte for byte.

def _ref_impurity(counts, criterion):
    p = counts / counts.sum()
    if criterion == "gini":
        return float(1.0 - (p * p).sum())
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


def _ref_row_impurity(counts, sizes, criterion):
    p = counts / sizes[:, None]
    if criterion == "gini":
        return 1.0 - (p * p).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * np.log2(p), 0.0)
    return -terms.sum(axis=1)


def _ref_best_threshold(values, labels, class_count, min_leaf, criterion, parent_imp):
    """(decrease, threshold) of the first best midpoint split of one feature, or None."""
    n = len(values)
    order = np.argsort(values, kind="stable")
    sv = values[order]
    onehot = np.zeros((n, class_count))
    onehot[np.arange(n), labels[order]] = 1.0
    cum = np.cumsum(onehot, axis=0)

    thr = (sv[:-1] + sv[1:]) / 2.0
    n_left = np.arange(1, n, dtype=np.float64)
    n_right = n - n_left
    valid = (sv[:-1] <= thr) & (thr < sv[1:])
    valid &= (n_left >= min_leaf) & (n_right >= min_leaf)
    if not valid.any():
        return None

    left_counts = cum[:-1]
    right_counts = cum[-1] - left_counts
    weighted = (n_left * _ref_row_impurity(left_counts, n_left, criterion)
                + n_right * _ref_row_impurity(right_counts, n_right, criterion)) / n
    decrease = np.where(valid, parent_imp - weighted, -np.inf)
    best = int(np.argmax(decrease))
    if decrease[best] <= 1e-12:
        return None
    return float(decrease[best]), float(thr[best])


def _ref_build_tree(X, y, sample_idx, class_count, config, mtry, rng):
    feature, threshold, left, right, counts = [], [], [], [], []

    def new_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        counts.append(None)
        return len(feature) - 1

    stack = [(new_node(), sample_idx, 0)]
    while stack:
        nid, idx, depth = stack.pop()
        labs = y[idx]
        cnt = np.bincount(labs, minlength=class_count).astype(np.float64)
        counts[nid] = cnt
        if ((cnt > 0).sum() < 2 or len(idx) < 2 * config.min_leaf
                or (config.max_depth is not None and depth >= config.max_depth)):
            continue
        parent_imp = _ref_impurity(cnt, config.criterion)
        candidates = np.sort(rng.choice(X.shape[1], size=mtry, replace=False))
        best = None  # (decrease, feature, threshold); strict > keeps lowest feature on ties
        for f in candidates:
            found = _ref_best_threshold(X[idx, f], labs, class_count,
                                        config.min_leaf, config.criterion, parent_imp)
            if found is not None and (best is None or found[0] > best[0]):
                best = (found[0], int(f), found[1])
        if best is None:
            continue
        _, f, t = best
        mask = X[idx, f] <= t
        lid, rid = new_node(), new_node()
        feature[nid], threshold[nid] = f, t
        left[nid], right[nid] = lid, rid
        stack.append((rid, idx[~mask], depth + 1))
        stack.append((lid, idx[mask], depth + 1))

    return DecisionTree(np.array(feature, np.int32), np.array(threshold, np.float64),
                        np.array(left, np.int32), np.array(right, np.int32),
                        np.stack(counts))


def _ref_fit(X, y, config):
    """The trees as the one-tree-at-a-time grower gives them."""
    n, p = X.shape
    class_count = int(y.max()) + 1
    mtry = config.mtry if config.mtry is not None else max(1, int(math.sqrt(p)))
    trees = []
    for t in range(config.tree_count):
        rng = np.random.default_rng([config.seed, t])
        boot = rng.integers(0, n, n) if config.bootstrap else np.arange(n)
        trees.append(_ref_build_tree(X, y, boot, class_count, config, mtry, rng))
    return trees


def _ref_walk(tree, x):
    nid = 0
    while tree.feature[nid] >= 0:
        nid = tree.left[nid] if x[tree.feature[nid]] <= tree.threshold[nid] else tree.right[nid]
    return nid


def _ref_predict_proba_many(trees, class_count, X):
    rows = []
    for x in X:
        acc = np.zeros(class_count)
        for tree in trees:
            cnt = tree.counts[_ref_walk(tree, x)]
            acc += cnt / cnt.sum()
        rows.append(acc / len(trees))
    return np.stack(rows)


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def _forest_cases(draw):
    criterion = draw(st.sampled_from(CRITERIA))
    n = draw(st.integers(4, 80))
    p = draw(st.integers(1, 8))
    classes = draw(st.integers(2, 12))
    levels = draw(st.sampled_from([None, 2, 3, 5]))  # few levels: many tied values
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = rng.integers(0, classes, n)
    y[:2] = (0, 1)
    X = (rng.normal(size=(n, p)) if levels is None
         else rng.integers(0, levels, (n, p)).astype(np.float64))
    config = ForestConfig(tree_count=draw(st.integers(1, 6)),
                          mtry=draw(st.none() | st.integers(1, p)),
                          max_depth=draw(st.sampled_from([None, 1, 3])),
                          min_leaf=draw(st.integers(1, 3)),
                          seed=draw(st.integers(0, 10**6)),
                          bootstrap=draw(st.booleans()), criterion=criterion)
    return X, y, config


@settings(max_examples=200, deadline=None)
@given(_forest_cases())
def test_fit_and_predict_match_reference(case):
    X, y, config = case
    model = fit(X, y, config)
    trees = _ref_fit(X, y, config)
    assert len(model.trees) == len(trees)
    for tree, ref in zip(model.trees, trees):
        for name in ("feature", "threshold", "left", "right", "counts"):
            assert _same_bytes(getattr(tree, name), getattr(ref, name)), name
    queries = np.vstack([X, X[:5] + 0.25, X[-5:] - 0.5])
    assert _same_bytes(predict_proba_many(model, queries),
                       _ref_predict_proba_many(trees, model.class_count, queries))


@st.composite
def _fold_cases(draw):
    """Data, a config and several training row sets: a fold plan's train
    splits (stratified or not, so sizes may differ) and, when the labels
    allow, one more set without the top class."""
    criterion = draw(st.sampled_from(CRITERIA))
    classes = draw(st.integers(2, 12))
    n = draw(st.integers(12, 70))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = rng.integers(0, classes, n)
    y[:4] = (0, 1, 0, 1)
    levels = draw(st.sampled_from([None, 2, 4]))
    p = draw(st.integers(1, 6))
    X = (rng.normal(size=(n, p)) if levels is None
         else rng.integers(0, levels, (n, p)).astype(np.float64))
    k = draw(st.integers(2, 5))
    members = np.bincount(y)
    stratified = draw(st.booleans()) and bool((members[members > 0] >= k).all())
    plan = kfold_split(y, k=k, seed=draw(st.integers(0, 1000)), stratified=stratified)
    sets = [plan.train_fold(i) for i in range(k)]
    without_top = np.flatnonzero(y != y.max())
    if len(np.unique(y[without_top])) >= 2:
        sets.insert(draw(st.integers(0, k)), without_top)
    config = ForestConfig(tree_count=draw(st.integers(1, 5)),
                          mtry=draw(st.none() | st.integers(1, p)),
                          max_depth=draw(st.sampled_from([None, 1, 3])),
                          min_leaf=draw(st.integers(1, 3)),
                          seed=draw(st.integers(0, 10**6)),
                          bootstrap=draw(st.booleans()), criterion=criterion)
    return X, y, config, sets


@settings(max_examples=100, deadline=None)
@given(_fold_cases())
def test_fold_forests_match_fits_on_each_set_alone(case):
    """fit grows every training set's forest in one grower over the whole
    matrix; each must equal fitting that set's rows alone, byte for byte."""
    X, y, config, sets = case
    assume(all(len(np.unique(y[rows])) >= 2 for rows in sets))
    model = fit(X, y, config, sets)
    assert len(model.trees) == len(sets) * config.tree_count
    queries = np.vstack([X, X[:5] + 0.25, X[-5:] - 0.5])
    for i, rows in enumerate(sets):
        alone, fold = fit(X[rows], y[rows], config), model.fold(i)
        assert (fold.class_count, fold.mtry) == (alone.class_count, alone.mtry)
        assert len(fold.trees) == len(alone.trees)
        for tree, ref in zip(fold.trees, alone.trees):
            for name in ("feature", "threshold", "left", "right", "counts"):
                assert _same_bytes(getattr(tree, name), getattr(ref, name)), name
        assert _same_bytes(predict_proba_many(fold, queries), predict_proba_many(alone, queries))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 20), st.integers(1, 40), st.sampled_from(CRITERIA),
       st.integers(0, 2**32 - 1))
def test_node_impurity_equals_one_node_impurity_per_row(classes, rows, criterion, seed):
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 4, (rows, classes)) * rng.integers(0, 2, (rows, classes))
    counts[:, rng.integers(0, classes)] += 1  # every node holds a row
    counts = counts.astype(np.float64)
    expected = np.array([_ref_impurity(row, criterion) for row in counts])
    assert _same_bytes(forest._node_impurity(counts, criterion), expected)


# --- candidate draws: every open node of a pass draws at once ---------------
# fit draws the candidates of all open nodes of a pass together, from each
# tree's stream; each row must be the sorted rng.choice(p, size=m,
# replace=False) that the reference grower calls, across block refills and
# Lemire rejections too.

@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.data())
def test_vectorised_draws_match_generator_choice(p, data):
    m = data.draw(st.integers(1, p))
    lengths = data.draw(st.lists(st.integers(1, 9), min_size=1, max_size=4))  # odd and even
    twins, bitgens = [], []
    for t, n in enumerate(lengths):
        rng, twin = np.random.default_rng([p, t]), np.random.default_rng([p, t])
        rng.integers(0, n, n), twin.integers(0, n, n)  # the bootstrap draw
        twins.append(twin)
        bitgens.append(rng.bit_generator)
    draws = forest._Draws(bitgens, p, m)
    passes = np.random.default_rng(m)
    for _ in range(300):  # past the end of every tree's first block of 128 words
        trees = np.flatnonzero(passes.random(len(lengths)) < 0.7)
        for row, t in zip(draws.sorted_candidates(trees), trees):
            assert _same_bytes(row, np.sort(twins[t].choice(p, size=m, replace=False)))


class _ZeroWords:
    """A bit generator stand-in: `zeros` zero 64-bit words, then a seeded
    PCG64 stream. On a zero word every Lemire draw rejects whose bound + 1
    is not a power of two."""

    def __init__(self, zeros, seed):
        self.zeros, self.real = zeros, np.random.PCG64(seed)
        self.state = {"has_uint32": 0, "uinteger": 0}

    def random_raw(self, size):
        z = min(size, self.zeros)
        self.zeros -= z
        return np.concatenate([np.zeros(z, np.uint64), self.real.random_raw(size - z)])


def _uint32s(words):
    while True:
        w = int(words.random_raw(1)[0])
        yield w % 2**32
        yield w // 2**32


def _ref_choice(stream, p, m):
    """Sorted Generator.choice(p, size=m, replace=False), transcribed one
    uint32 at a time from numpy's Floyd branch and the shuffle after it."""
    def bounded(j):
        while True:
            prod = next(stream) * (j + 1)
            if prod % 2**32 >= (2**32 - 1 - j) % (j + 1):
                return prod // 2**32

    picked = []
    for j in range(p - m, p):
        v = bounded(j) if j > 0 else 0
        picked.append(j if v in picked else v)
    for i in reversed(range(1, m)):
        bounded(i)
    return np.sort(np.array(picked, dtype=np.int64))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.data())
def test_rejected_draws_take_the_exact_path(p, data):
    m = data.draw(st.integers(1, p))
    zeros, seed = data.draw(st.integers(1, 200)), data.draw(st.integers(0, 2**32 - 1))
    draws = forest._Draws([_ZeroWords(zeros, seed)], p, m)
    stream = _uint32s(_ZeroWords(zeros, seed))
    tree = np.zeros(1, dtype=np.int64)
    for _ in range(4):  # the draws after the zeros run on from the same word
        assert _same_bytes(draws.sorted_candidates(tree)[0], _ref_choice(stream, p, m))


def test_large_feature_count_takes_the_tail_shuffle():
    """Above 10000 features choice shuffles the tail of an arange when m is
    large; that path is drawn one word at a time."""
    for p, m in [(10001, 201), (10001, 300), (10050, 10050)]:
        rng, twin = np.random.default_rng(p), np.random.default_rng(p)
        draws = forest._Draws([rng.bit_generator], p, m)
        for _ in range(2):
            assert _same_bytes(draws.sorted_candidates(np.zeros(1, dtype=np.int64))[0],
                               np.sort(twin.choice(p, size=m, replace=False)))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 63), st.integers(0, 300), st.booleans(), st.integers(0, 2**32 - 1))
@example(54, 300, False, 0)  # the widest keys the sort takes: 54 + 9 bits
@example(55, 300, False, 0)  # one bit wider: the argsort
def test_stable_argsort_matches_numpy(bound_bits, n, ties, seed):
    """Split scoring orders each segment by one sort of position-tagged keys,
    or by the argsort itself when the keys are too wide to tag."""
    rng = np.random.default_rng(seed)
    bound = 2**bound_bits - 1
    key = rng.integers(0, min(bound, 3) if ties else bound, n)
    assert _same_bytes(forest._stable_argsort(key, bound), np.argsort(key, kind="stable"))


def _two_blobs(n_per=30, seed=0, spread=0.3):
    rng = np.random.default_rng(seed)
    a = rng.normal((0.0, 0.0), spread, size=(n_per, 2))
    b = rng.normal((3.0, 3.0), spread, size=(n_per, 2))
    X = np.vstack([a, b])
    y = np.array([0] * n_per + [1] * n_per)
    return X, y


def _xor(n_per=40, seed=0):
    rng = np.random.default_rng(seed)
    centers = [((0, 0), 0), ((1, 1), 0), ((0, 1), 1), ((1, 0), 1)]
    X, y = [], []
    for (cx, cy), lab in centers:
        X.append(rng.normal((cx, cy), 0.12, size=(n_per, 2)))
        y += [lab] * n_per
    return np.vstack(X), np.array(y)


def test_config_contract():
    with pytest.raises(ValueError):
        ForestConfig(tree_count=0)
    with pytest.raises(ValueError):
        ForestConfig(criterion="variance")
    with pytest.raises(ValueError):
        ForestConfig(min_leaf=0)


def test_fit_contract_errors():
    X, y = _two_blobs()
    with pytest.raises(ValueError):
        fit(X.ravel(), y)
    with pytest.raises(ValueError):
        fit(X[:1], y[:1])
    with pytest.raises(ValueError):
        fit(X, np.zeros(len(X), dtype=int))  # single class
    with pytest.raises(ValueError):
        fit(X, y - 1)  # negative labels
    with pytest.raises(ValueError):
        fit(X, y, ForestConfig(mtry=5))  # mtry > feature count


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_features_rejected_with_position(bad):
    X, y = _two_blobs()
    model = fit(X, y, ForestConfig(tree_count=3))
    X[7, 1], X[9, 0] = bad, bad  # row 7 comes first
    with pytest.raises(NonFiniteError, match="row 7, column 1"):
        fit(X, y, ForestConfig(tree_count=3))
    with pytest.raises(NonFiniteError, match="row 7, column 1"):
        predict_proba_many(model, X)
    with pytest.raises(NonFiniteError, match="row 0, column 1"):
        predict_proba_many(model, X[7:8])


def test_fit_memory_stays_bounded(monkeypatch):
    """All trees grow at once, so an unbounded scoring pass would hold every
    node's candidate rows together; passes stay small whatever the forest.
    tracemalloc sees only this process, so one process grows all 100 trees."""
    use_cpus(monkeypatch, 1)
    rng = np.random.default_rng(0)
    X = rng.normal(size=(240, 21))
    y = rng.permutation(np.arange(240) % 2)  # shuffled labels grow deep trees
    assert traced_peak(lambda: fit(X, y, ForestConfig(tree_count=100, seed=0))) <= 4 * 2**20


def test_grower_holds_each_distinct_inbag_row_once_with_its_draw_count():
    """A tree's block of samples holds each row its bootstrap drew once, in
    the training set's order, and its weights are the times the draw took
    each row (np.bincount of the draw), adding up to the set's size."""
    rng = np.random.default_rng(2)
    X, y = rng.normal(size=(60, 3)), np.arange(60) // 2 % 2
    rows = np.arange(0, 60, 2)  # a 30-row training set
    config = ForestConfig(tree_count=4, seed=5)
    grower = forest._Grower(X, y, forest._dense_rank(X), [rows], 2, config, 1, range(4))
    for t in range(4):
        drawn = np.bincount(np.random.default_rng([5, t]).integers(0, 30, 30), minlength=30)
        kept = np.flatnonzero(drawn)
        assert len(kept) < 30 and grower.stack[t, 0, 2] == len(kept)  # the root's rows
        block = slice(grower.start[t], grower.start[t] + len(kept))
        assert grower.samples[block].tolist() == rows[kept].tolist()
        assert grower.weight[block].tolist() == drawn[kept].tolist()
        assert grower.weight[block].sum() == 30


def test_root_pass_scores_each_distinct_row_once(monkeypatch):
    """A split pass scores one (node, candidate, row) element per distinct
    in-bag row, not per draw: the root of a one-tree fit on 30 rows scores
    mtry times its distinct rows."""
    use_cpus(monkeypatch, 1)
    scored = count_split_elements(monkeypatch)
    rng = np.random.default_rng(3)
    X, y = rng.normal(size=(30, 4)), np.arange(30) % 2
    model = fit(X, y, ForestConfig(tree_count=1, mtry=2, max_depth=1, seed=7))
    distinct = len(np.unique(np.random.default_rng([7, 0]).integers(0, 30, 30)))
    assert distinct < 30
    assert scored == [2 * distinct] and model.split_elements == 2 * distinct


def _tree_bytes(model):
    return [tuple((a.dtype.str, a.shape, a.tobytes()) for a in
                  (tree.feature, tree.threshold, tree.left, tree.right, tree.counts))
            for tree in model.trees]


@pytest.mark.parametrize("criterion", CRITERIA)
@pytest.mark.parametrize("tree_count", [1, 2, 7])
def test_fit_bytes_do_not_depend_on_the_worker_count(monkeypatch, criterion, tree_count):
    """Workers grow contiguous ranges of tree indices, which do not split
    evenly here, over four folds and a set without the top class (a second
    grower); the trees are byte for byte those of one process."""
    rng = np.random.default_rng(4)
    y = rng.integers(0, 3, 90)
    X = rng.normal(size=(90, 5))
    X[:, 1] = y + rng.normal(0, 0.5, 90)
    plan = kfold_split(y, k=4, seed=1, stratified=True)
    sets = [plan.train_fold(i) for i in range(4)] + [np.flatnonzero(y != 2)]
    config = ForestConfig(tree_count=tree_count, seed=9, criterion=criterion)
    fits = {}
    for workers in (1, 2, 3):
        use_cpus(monkeypatch, workers, every_map=True)
        fits[workers] = model = fit(X, y, config, sets)
        assert model.workers == min(workers, tree_count)
        assert model.set_class_counts == (3, 3, 3, 3, 2)
    assert _tree_bytes(fits[1]) == _tree_bytes(fits[2]) == _tree_bytes(fits[3])


def test_fit_without_fork_grows_in_one_process(monkeypatch):
    use_cpus(monkeypatch, 3, every_map=True)
    monkeypatch.delattr(os, "fork")
    X, y = _xor(seed=1)
    assert fit(X, y, ForestConfig(tree_count=5)).workers == 1


def test_small_fits_grow_in_one_process(monkeypatch):
    """A fit whose work is below workers.MIN_WORK does not fork: 20 rows, 3
    features and 4 trees took 13 ms in two processes against 5 ms in one on
    a 2-vCPU host. The benchmark's fits (300 rows, 100 trees, 5 folds) fork."""
    use_cpus(monkeypatch, 2)
    rng = np.random.default_rng(0)
    X, y = rng.normal(size=(20, 3)), np.arange(20) % 2
    assert fit(X, y, ForestConfig(tree_count=4)).workers == 1
    X, y = rng.normal(size=(300, 3)), np.arange(300) % 2
    plan = kfold_split(y, k=5, seed=0, stratified=True)
    model = fit(X, y, ForestConfig(tree_count=100), [plan.train_fold(i) for i in range(5)])
    assert model.workers == 2


@pytest.mark.parametrize("failing, error", [
    ("worker", "^worker failed$"), ("caller", "^caller failed$"),
    ("worker exit", r"^forest worker \d+ ended without a result$")])
def test_fit_leaves_no_process_behind(monkeypatch, failing, error):
    """Every worker is reaped when fit returns, when a worker raises (the
    error reaches the caller) or ends without a result, and when the calling
    process's own range raises."""
    use_cpus(monkeypatch, 3, every_map=True)
    X, y = _xor(seed=4)
    assert fit(X, y, ForestConfig(tree_count=6)).workers == 3
    assert_no_child_left()

    caller, grow = os.getpid(), forest._Grower.grow

    def failing_grow(self):
        in_worker = os.getpid() != caller
        if in_worker and failing == "worker exit":
            os._exit(3)
        if in_worker == failing.startswith("worker"):
            raise RuntimeError(f"{failing} failed")
        return grow(self)

    monkeypatch.setattr(forest._Grower, "grow", failing_grow)
    with pytest.raises(RuntimeError, match=error):
        fit(X, y, ForestConfig(tree_count=6))
    assert_no_child_left()


def test_separable_perfect_on_training_points():
    X, y = _two_blobs(seed=1)
    model = fit(X, y, ForestConfig(tree_count=25, seed=1))
    probs = predict_proba_many(model, X)
    assert (probs.argmax(axis=1) == y).all()


def test_xor_held_out_accuracy():
    for seed in range(5):
        X, y = _xor(seed=seed)
        model = fit(X, y, ForestConfig(tree_count=60, seed=seed))
        X_new, y_new = _xor(seed=seed + 100)
        assert (predict_proba_many(model, X_new).argmax(axis=1) == y_new).mean() > 0.9


def test_fit_bitwise_deterministic():
    X, y = _xor(seed=2)
    a = fit(X, y, ForestConfig(tree_count=15, seed=7))
    b = fit(X, y, ForestConfig(tree_count=15, seed=7))
    for ta, tb in zip(a.trees, b.trees):
        assert np.array_equal(ta.feature, tb.feature)
        assert np.array_equal(ta.threshold, tb.threshold)
        assert np.array_equal(ta.counts, tb.counts)


def test_predict_proba_is_mean_of_leaf_distributions():
    X, y = _xor(seed=3)
    model = fit(X, y, ForestConfig(tree_count=12, seed=3))
    rng = np.random.default_rng(0)
    for x in rng.normal(0.5, 0.5, size=(20, 2)):
        leaves = [t.counts[_ref_walk(t, x)] for t in model.trees]
        manual = np.mean([c / c.sum() for c in leaves], axis=0)
        assert np.abs(predict_proba_many(model, x[None])[0] - manual).max() < 1e-12


def _leaf_tree(class_idx, class_count=2):
    counts = np.zeros((1, class_count))
    counts[0, class_idx] = 1.0
    return DecisionTree(np.array([-1], np.int32), np.zeros(1),
                        np.array([-1], np.int32), np.array([-1], np.int32), counts)


def test_vote_arithmetic_explicit_split():
    # 60 pure-class-0 leaves and 40 pure-class-1 leaves average to (0.6, 0.4)
    trees = [_leaf_tree(0)] * 60 + [_leaf_tree(1)] * 40
    model = ForestModel(trees, 2, 2, ForestConfig(tree_count=100), 1)
    probs = predict_proba_many(model, np.zeros((1, 2)))[0]
    assert np.allclose(probs, [0.6, 0.4], atol=1e-12)


def test_unanimous_vote():
    trees = [_leaf_tree(1)] * 10
    model = ForestModel(trees, 2, 2, ForestConfig(tree_count=10), 1)
    assert np.array_equal(predict_proba_many(model, np.zeros((1, 2))), [[0.0, 1.0]])


def test_predict_length_mismatch():
    X, y = _two_blobs()
    model = fit(X, y, ForestConfig(tree_count=5))
    for bad in (np.zeros((1, 3)), np.zeros(2)):  # a wrong width, or no row axis
        with pytest.raises(ValueError):
            predict_proba_many(model, bad)


def _impurity_decrease(model):
    """Per feature, the summed impurity decrease of its splits, each weighted
    by the fraction of its tree's bootstrap rows reaching the node."""
    total = np.zeros(model.feature_count)
    for tree in model.trees:
        n_boot = tree.counts[0].sum()
        for i in np.flatnonzero(tree.feature >= 0):
            parent, kids = tree.counts[i], (tree.counts[tree.left[i]], tree.counts[tree.right[i]])
            weighted = sum(k.sum() * _ref_impurity(k, "gini") for k in kids) / parent.sum()
            total[tree.feature[i]] += ((_ref_impurity(parent, "gini") - weighted)
                                       * parent.sum() / n_boot)
    return total


def test_informative_feature_ranks_first():
    wins = 0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        n = 200
        y = rng.integers(0, 2, n)
        X = rng.normal(size=(n, 4))
        X[:, 2] = y + rng.normal(0, 0.1, n)  # feature 2 carries the label
        model = fit(X, y, ForestConfig(tree_count=40, seed=seed))
        if _impurity_decrease(model).argmax() == 2:
            wins += 1
    assert wins >= 4


def test_power_of_two_scaling_preserves_all_predictions():
    # x -> 2x maps every midpoint threshold exactly, so routing of any query
    # point is bit-identical
    X, y = _xor(seed=5)
    base = fit(X, y, ForestConfig(tree_count=20, seed=5))
    scaled = fit(X * 2.0, y, ForestConfig(tree_count=20, seed=5))
    rng = np.random.default_rng(2)
    queries = rng.normal(0.5, 0.6, size=(50, 2))
    assert np.array_equal(predict_proba_many(base, queries),
                          predict_proba_many(scaled, queries * 2.0))


def test_monotone_transform_preserves_structure_and_inbag_routing():
    """Splits depend only on feature orderings, so a strictly increasing map
    leaves every tree's partition unchanged. Midpoint thresholds move relative
    to out-of-bag points between split neighbors, so exact routing equality is
    asserted on each tree's in-bag samples."""
    X, y = _xor(seed=5)
    config = ForestConfig(tree_count=20, seed=5)
    base = fit(X, y, config)
    warped = fit(np.exp(X), y, config)
    for t, (ta, tb) in enumerate(zip(base.trees, warped.trees)):
        assert np.array_equal(ta.feature, tb.feature)
        assert np.array_equal(ta.counts, tb.counts)
        # tree t's bootstrap, drawn first from its own generator as fit draws it
        boot = np.random.default_rng([config.seed, t]).integers(0, len(X), len(X))
        inbag = np.unique(boot)
        leaf_a = forest._leaves(ta, X[inbag])
        leaf_b = forest._leaves(tb, np.exp(X[inbag]))
        assert np.array_equal(ta.counts[leaf_a], tb.counts[leaf_b])


@pytest.mark.parametrize("criterion", ["gini", "entropy"])
def test_weighted_child_impurity_never_exceeds_parent(criterion):
    X, y = _xor(seed=6)
    model = fit(X, y, ForestConfig(tree_count=10, seed=6, criterion=criterion))
    for tree in model.trees:
        for i in range(len(tree.feature)):
            if tree.feature[i] == -1:
                continue
            parent = tree.counts[i]
            left, right = tree.counts[tree.left[i]], tree.counts[tree.right[i]]
            n_p, n_l, n_r = parent.sum(), left.sum(), right.sum()
            assert abs(n_l + n_r - n_p) < 1e-9
            post = (n_l * _ref_impurity(left, criterion)
                    + n_r * _ref_impurity(right, criterion)) / n_p
            assert post <= _ref_impurity(parent, criterion) + 1e-12


def test_constant_features_yield_single_leaf():
    X = np.ones((20, 3))
    y = np.array([0, 1] * 10)
    model = fit(X, y, ForestConfig(tree_count=5, seed=0))
    for tree in model.trees:
        assert len(tree.feature) == 1 and tree.feature[0] == -1
    probs = predict_proba_many(model, np.ones((1, 3)))
    assert abs(probs.sum() - 1.0) < 1e-12
