"""Fold construction, ROC/AUC arithmetic, and cross-validation behavior."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centpipe.evaluation import (Metrics, RocCurve, auc, cross_validate,
                                 kfold_split, permutation_baseline, permute_labels,
                                 roc_curve, write_metrics_csv, write_roc_csv)
from centpipe.forest import ForestConfig, fit, predict_proba_many

from reference_stats import mann_whitney


# --- fold plans ---

def test_kfold_basic_partition():
    labels = np.array([0, 1] * 5)
    plan = kfold_split(labels, k=5, seed=0)
    assert plan.k == 5
    sizes = [len(f) for f in plan.test_folds]
    assert sizes == [2] * 5
    joined = np.sort(np.concatenate(plan.test_folds))
    assert np.array_equal(joined, np.arange(10))


def test_kfold_stratified_one_per_class_per_fold():
    labels = np.array([0] * 5 + [1] * 5)
    plan = kfold_split(labels, k=5, seed=3)
    for fold in plan.test_folds:
        assert sorted(labels[fold]) == [0, 1]


def test_kfold_deterministic_and_seed_sensitive():
    labels = np.array([0, 1] * 20)
    a = kfold_split(labels, k=5, seed=4)
    b = kfold_split(labels, k=5, seed=4)
    c = kfold_split(labels, k=5, seed=5)
    for fa, fb in zip(a.test_folds, b.test_folds):
        assert np.array_equal(fa, fb)
    assert any(not np.array_equal(fa, fc) for fa, fc in zip(a.test_folds, c.test_folds))


def test_kfold_small_class_rejected():
    labels = np.array([0] * 8 + [1] * 3)
    with pytest.raises(ValueError) as e:
        kfold_split(labels, k=5)
    assert "class 1" in str(e.value)


def test_kfold_train_fold_complements():
    labels = np.array([0, 1] * 6)
    plan = kfold_split(labels, k=3, seed=1)
    for i, test in enumerate(plan.test_folds):
        train = plan.train_fold(i)
        assert len(np.intersect1d(train, test)) == 0
        assert len(train) + len(test) == 12


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=12, max_size=60),
       st.integers(2, 4), st.integers(0, 99), st.booleans())
def test_kfold_partition_properties(label_list, k, seed, stratified):
    labels = np.array(label_list)
    counts = np.bincount(labels, minlength=3)
    present = counts[counts > 0]
    if stratified and (present < k).any():
        # stratified dealing needs every class at least once per fold
        with pytest.raises(ValueError):
            kfold_split(labels, k=k, seed=seed, stratified=stratified)
        return
    plan = kfold_split(labels, k=k, seed=seed, stratified=stratified)
    joined = np.concatenate(plan.test_folds)
    assert len(joined) == len(labels) and len(np.unique(joined)) == len(labels)
    sizes = [len(f) for f in plan.test_folds]
    assert max(sizes) - min(sizes) <= 1
    if stratified:
        for cls in np.unique(labels):
            per = [int((labels[f] == cls).sum()) for f in plan.test_folds]
            assert max(per) - min(per) <= 1


# --- ROC / AUC ---

def test_roc_perfect_separation():
    scores = np.array([0.9, 0.8, 0.2, 0.1])
    labels = np.array([1, 1, 0, 0])
    curve = roc_curve(scores, labels)
    assert curve.fpr[0] == 0.0 and curve.tpr[0] == 0.0
    assert curve.fpr[-1] == 1.0 and curve.tpr[-1] == 1.0
    pairs = list(zip(curve.fpr, curve.tpr))
    assert (0.0, 1.0) in pairs
    assert auc(curve) == 1.0
    assert curve.thresholds[0] == np.inf


def test_roc_all_tied_is_diagonal():
    curve = roc_curve(np.full(6, 0.5), np.array([0, 1, 0, 1, 0, 1]))
    assert list(curve.fpr) == [0.0, 1.0]
    assert list(curve.tpr) == [0.0, 1.0]
    assert abs(auc(curve) - 0.5) < 1e-12


def test_roc_interleaved_example():
    scores = np.array([0.9, 0.4, 0.7, 0.1])
    labels = np.array([1, 1, 0, 0])
    # pairs: (.9 vs .7) win, (.9 vs .1) win, (.4 vs .7) loss, (.4 vs .1) win
    assert abs(auc(scores, labels) - 0.75) < 1e-12
    assert abs(mann_whitney(scores, labels) - 0.75) < 1e-12


def test_roc_contract_errors():
    with pytest.raises(ValueError):
        roc_curve(np.array([0.5, 0.6]), np.array([1, 1]))
    with pytest.raises(ValueError):
        roc_curve(np.array([0.5]), np.array([0, 1]))
    with pytest.raises(ValueError):
        roc_curve(np.array([0.5, 0.6]), np.array([0, 2]))


def test_roc_curve_monotone_validation():
    with pytest.raises(ValueError):
        RocCurve(np.array([np.inf, 0.5, 0.0]), np.array([0, 2, 1]), np.array([0, 1, 2]))


def test_auc_equals_mann_whitney_fuzz():
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(4, 40))
        labels = np.zeros(n, dtype=int)
        labels[rng.choice(n, int(rng.integers(1, n)), replace=False)] = 1
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        # quantized scores force plenty of ties
        scores = np.round(rng.normal(size=n) * 2) / 2
        assert auc(scores, labels) == mann_whitney(scores, labels)


def test_auc_of_tied_perfect_separation_is_exactly_one():
    # positives tied in groups of 25, 4, 1 above negatives tied in groups of
    # 1, 1, 7, 1, 20: float fpr steps once summed to 1.0000000000000002
    pos = np.repeat([0.9, 0.8, 0.7], [25, 4, 1])
    neg = np.repeat([0.6, 0.5, 0.4, 0.3, 0.2], [1, 1, 7, 1, 20])
    scores = np.concatenate([pos, neg])
    labels = np.repeat([1, 0], [30, 30])
    assert auc(scores, labels) == 1.0
    assert mann_whitney(scores, labels) == 1.0


def test_auc_sign_reversal():
    rng = np.random.default_rng(1)
    scores = np.round(rng.normal(size=30), 1)
    labels = rng.integers(0, 2, 30)
    labels[0], labels[1] = 0, 1
    assert abs(auc(-scores, labels) - (1.0 - auc(scores, labels))) < 1e-12


# --- cross-validation ---

def _noise_features(n, p, seed):
    return np.random.default_rng(seed).normal(size=(n, p))


def test_cross_validate_label_leak_is_perfect():
    labels = np.array([0, 1] * 25)
    features = np.column_stack([labels.astype(float),
                                _noise_features(50, 2, 0)[:, 0]])
    plan = kfold_split(labels, k=5, seed=0)
    metrics = cross_validate(features, labels, ForestConfig(tree_count=15, seed=0), plan)
    assert metrics.mean_auc == 1.0
    assert all(a == 1.0 for a in metrics.per_fold_auc)


def test_cross_validate_noise_near_chance():
    aucs = []
    for seed in range(5):
        labels = np.array([0, 1] * 25)
        features = _noise_features(50, 3, seed + 10)
        plan = kfold_split(labels, k=5, seed=seed)
        metrics = cross_validate(features, labels, ForestConfig(tree_count=20, seed=seed), plan)
        aucs.append(metrics.mean_auc)
    assert 0.3 <= float(np.mean(aucs)) <= 0.7


def test_cross_validate_deterministic():
    labels = np.array([0, 1] * 20)
    features = _noise_features(40, 3, 5)
    features[:, 0] += labels
    plan = kfold_split(labels, k=4, seed=2)
    cfg = ForestConfig(tree_count=10, seed=3)
    a = cross_validate(features, labels, cfg, plan)
    b = cross_validate(features, labels, cfg, plan)
    assert a.per_fold_auc == b.per_fold_auc
    for sa, sb in zip(a.fold_scores, b.fold_scores):
        assert np.array_equal(sa, sb)


def test_cross_validate_scores_match_a_fit_per_fold():
    """One fit grows every fold's forest; each fold is still scored by the
    forest of its own train split, bit for bit."""
    labels = np.array([0, 1, 1] * 11)
    features = _noise_features(33, 4, 8)
    features[:, 1] += 0.5 * labels
    plan = kfold_split(labels, k=4, seed=5, stratified=False)
    cfg = ForestConfig(tree_count=12, seed=9)
    metrics = cross_validate(features, labels, cfg, plan)
    for i, test_idx in enumerate(plan.test_folds):
        train_idx = plan.train_fold(i)
        alone = fit(features[train_idx], labels[train_idx], cfg)
        assert np.array_equal(metrics.fold_scores[i],
                              predict_proba_many(alone, features[test_idx])[:, 1])
        assert np.array_equal(metrics.fold_labels[i], labels[test_idx])


def test_cross_validate_memory_stays_bounded():
    """All five fold forests grow together and live until scored; the whole
    cross-validation stays within the bound a single fit is held to."""
    rng = np.random.default_rng(0)
    features = rng.normal(size=(300, 21))
    labels = rng.permutation(np.arange(300) % 2)  # shuffled labels grow deep trees
    plan = kfold_split(labels, k=5, seed=0)
    tracemalloc.start()
    try:
        cross_validate(features, labels, ForestConfig(tree_count=100, seed=0), plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_metrics_contract():
    with pytest.raises(ValueError):
        Metrics((1.5,), 1.5, (np.array([0.5]),), (np.array([0]),))


# --- permutation control ---

def test_permute_labels_identity_and_seeded():
    labels = np.array([0, 1, 0, 1, 1])
    out = permute_labels(labels, None)
    assert np.array_equal(out, labels)
    out is not labels
    a = permute_labels(labels, 7)
    b = permute_labels(labels, 7)
    assert np.array_equal(a, b)
    assert sorted(a) == sorted(labels)


def test_permutation_identity_matches_cross_validate():
    labels = np.array([0, 1] * 15)
    features = _noise_features(30, 2, 8)
    features[:, 1] += labels * 2
    cfg = ForestConfig(tree_count=10, seed=1)
    direct = cross_validate(features, labels, cfg, kfold_split(labels, k=5, seed=4))
    permuted = permutation_baseline(features, labels, cfg, k=5, fold_seed=4, perm_seed=None)
    assert direct.per_fold_auc == permuted.per_fold_auc


def test_permutation_breaks_signal():
    labels = np.array([0, 1] * 30)
    features = _noise_features(60, 2, 9)
    features[:, 0] += labels * 3  # strong signal
    cfg = ForestConfig(tree_count=20, seed=2)
    real = cross_validate(features, labels, cfg, kfold_split(labels, k=5, seed=0))
    assert real.mean_auc > 0.9
    null_aucs = [permutation_baseline(features, labels, cfg, k=5, fold_seed=0,
                                      perm_seed=s).mean_auc for s in range(3)]
    assert all(a < 0.85 for a in null_aucs)


# --- CSV writers ---

def test_write_roc_csv(tmp_path):
    curve = roc_curve(np.array([0.9, 0.4, 0.7, 0.1]), np.array([1, 1, 0, 0]))
    path = tmp_path / "roc.csv"
    write_roc_csv(curve, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "threshold,fpr,tpr"
    assert len(lines) == 1 + len(curve.fpr)
    assert lines[1].startswith("inf,")


def test_write_metrics_csv(tmp_path):
    labels = np.array([0, 1] * 10)
    features = _noise_features(20, 2, 3)
    metrics = cross_validate(features, labels, ForestConfig(tree_count=5),
                             kfold_split(labels, k=4, seed=0))
    plain = tmp_path / "metrics.csv"
    write_metrics_csv(metrics, plain)
    lines = plain.read_text().splitlines()
    assert lines[0] == "fold,auc"
    assert lines[-1].startswith("mean,")
    assert not any(l.startswith("#") for l in lines)

    tagged = tmp_path / "metrics_perm.csv"
    write_metrics_csv(metrics, tagged, permutation_seed=11)
    assert tagged.read_text().splitlines()[0] == "# permutation_seed: 11"
