"""Cross-validation, ROC/AUC, and the label-permutation control.

AUC of scores against 0/1 labels is the trapezoid over roc_curve's
tie-grouped threshold sweep, summed in integer true/false-positive counts
and divided once, so it equals the Mann-Whitney pairwise statistic (ties
count half) bit for bit and never leaves [0, 1]; tests pin the two against
each other. Fold assignment is deterministic in the seed, and the
permutation control shuffles labels before folds are built so the null
experiment re-stratifies on the shuffled labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .forest import ForestConfig, fit, predict_proba_many
from .framing import write_text


@dataclass(frozen=True)
class FoldPlan:
    test_folds: tuple  # tuple of int64 index arrays, one per fold

    def __post_init__(self):
        allidx = np.concatenate(self.test_folds)
        if len(np.unique(allidx)) != len(allidx):
            raise ValueError("fold test sets overlap")
        sizes = [len(f) for f in self.test_folds]
        if max(sizes) - min(sizes) > 1:
            raise ValueError(f"fold sizes differ by more than 1: {sizes}")

    def train_fold(self, i: int) -> np.ndarray:
        n = sum(len(f) for f in self.test_folds)
        mask = np.ones(n, dtype=bool)
        mask[self.test_folds[i]] = False
        return np.flatnonzero(mask)


def kfold_split(labels, k: int = 5, seed: int = 0, stratified: bool = True) -> FoldPlan:
    """Deal permuted indices round-robin into k test folds.

    Stratified dealing goes class by class with a continuing fold offset, so
    fold sizes differ by at most 1 overall and per class; unstratified
    dealing deals every index as one class.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n = len(labels)
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if n < k:
        raise ValueError(f"need at least k={k} samples, got {n}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    folds = [[] for _ in range(k)]
    cursor = 0
    for cls in np.unique(labels) if stratified else [None]:
        members = order if cls is None else order[labels[order] == cls]
        if len(members) < k:
            raise ValueError(f"class {cls} has {len(members)} members, fewer than k={k}")
        for i, idx in enumerate(members):
            folds[(cursor + i) % k].append(idx)
        cursor += len(members)
    tests = tuple(np.sort(np.array(f, dtype=np.int64)) for f in folds)
    return FoldPlan(tests)


@dataclass(frozen=True)
class RocCurve:
    thresholds: np.ndarray  # starts at +inf (no positives predicted)
    tp: np.ndarray  # int64, positives scored >= each threshold
    fp: np.ndarray  # int64, negatives scored >= each threshold

    def __post_init__(self):
        t, f = np.asarray(self.tp), np.asarray(self.fp)
        if not (t[0] == 0 and f[0] == 0 and t[-1] > 0 and f[-1] > 0):
            raise ValueError("curve must run from (0,0) to (1,1)")
        if (np.diff(t) < 0).any() or (np.diff(f) < 0).any():
            raise ValueError("curve coordinates must be nondecreasing")

    @property
    def fpr(self) -> np.ndarray:
        return self.fp / self.fp[-1]

    @property
    def tpr(self) -> np.ndarray:
        return self.tp / self.tp[-1]


def roc_curve(scores, labels) -> RocCurve:
    """Threshold sweep over distinct scores, ties grouped into single steps."""
    s = np.asarray(scores, dtype=np.float64).ravel()
    y = np.asarray(labels, dtype=np.int64).ravel()
    if len(s) != len(y):
        raise ValueError(f"{len(s)} scores but {len(y)} labels")
    pos = int((y == 1).sum())
    neg = int((y == 0).sum())
    if pos == 0 or neg == 0 or pos + neg != len(y):
        raise ValueError("labels must be binary 0/1 with both classes present")
    order = np.argsort(-s, kind="stable")
    ss, yy = s[order], y[order]
    distinct = np.flatnonzero(np.diff(ss) != 0)
    cut = np.concatenate([distinct, [len(ss) - 1]])  # last index of each tie group
    tp = np.concatenate([[0], np.cumsum(yy == 1)[cut]])
    fp = np.concatenate([[0], np.cumsum(yy == 0)[cut]])
    thresholds = np.concatenate([[np.inf], ss[cut]])
    return RocCurve(thresholds, tp, fp)


def auc(scores, labels) -> float:
    """Trapezoidal area under the ROC curve of scores against 0/1 labels.

    Twice the area in count units, sum of dfp * (tp_prev + tp), is an exact
    integer; one division by 2 * pos * neg rounds it once.
    """
    curve = roc_curve(scores, labels)
    tp, fp = curve.tp, curve.fp
    twice_area = int((np.diff(fp) * (tp[1:] + tp[:-1])).sum())
    return twice_area / (2 * int(tp[-1]) * int(fp[-1]))


@dataclass(frozen=True)
class Metrics:
    per_fold_auc: tuple
    mean_auc: float
    fold_scores: tuple  # positive-class scores per fold, for audit
    fold_labels: tuple  # the labels those scores were ranked against
    counters: dict = field(default_factory=dict)  # trees, nodes, rows, workers, elements

    def __post_init__(self):
        if any(not 0.0 <= a <= 1.0 for a in self.per_fold_auc):
            raise ValueError("per-fold AUC outside [0, 1]")


def cross_validate(features, labels, config: ForestConfig, plan: FoldPlan) -> Metrics:
    """Fit on each fold's train split, score its test split, average fold AUCs.

    One fit call grows every fold's forest together; each equals the forest
    fit on that fold's train split alone.
    """
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    model = fit(X, y, config, [plan.train_fold(i) for i in range(len(plan.test_folds))])
    fold_auc, fold_scores, fold_labels = [], [], []
    for i, test_idx in enumerate(plan.test_folds):
        scores = predict_proba_many(model.fold(i), X[test_idx])[:, 1]
        fold_auc.append(auc(scores, y[test_idx]))
        fold_scores.append(scores)
        fold_labels.append(y[test_idx])
    counters = {"trees_grown": len(model.trees),
                "tree_nodes": sum(len(tree.feature) for tree in model.trees),
                "rows_predicted": sum(len(test_idx) for test_idx in plan.test_folds),
                "fit_workers": model.workers,
                "split_elements": model.split_elements}
    return Metrics(tuple(fold_auc), float(np.mean(fold_auc)),
                   tuple(fold_scores), tuple(fold_labels), counters)


def permute_labels(labels, perm_seed: int | None) -> np.ndarray:
    """Seeded label shuffle; None is the identity permutation."""
    y = np.asarray(labels, dtype=np.int64)
    if perm_seed is None:
        return y.copy()
    return y[np.random.default_rng(perm_seed).permutation(len(y))]


def permutation_baseline(features, labels, config: ForestConfig, *, k: int = 5,
                         fold_seed: int = 0, stratified: bool = True,
                         perm_seed: int | None = None) -> Metrics:
    """Null control: shuffle labels, rebuild folds on the shuffled labels, then
    cross-validate. perm_seed None applies the identity permutation, making
    the result equal cross_validate on an identically-parameterized plan."""
    y = permute_labels(labels, perm_seed)
    plan = kfold_split(y, k=k, seed=fold_seed, stratified=stratified)
    return cross_validate(features, y, config, plan)


def write_roc_csv(curve: RocCurve, path) -> None:
    # float() unwrapping keeps repr output plain across numpy versions
    lines = ["threshold,fpr,tpr"] + [f"{float(t)!r},{float(x)!r},{float(y)!r}"
                                     for t, x, y in zip(curve.thresholds, curve.fpr, curve.tpr)]
    write_text(path, "\n".join(lines) + "\n")


def write_metrics_csv(metrics: Metrics, path, permutation_seed: int | None = None) -> None:
    lines = [] if permutation_seed is None else [f"# permutation_seed: {permutation_seed}"]
    lines.append("fold,auc")
    lines += [f"{i},{float(a)!r}" for i, a in enumerate(metrics.per_fold_auc)]
    lines.append(f"mean,{float(metrics.mean_auc)!r}")
    write_text(path, "\n".join(lines) + "\n")
