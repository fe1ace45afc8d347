"""From-scratch random-forest classifier.

Axis-aligned CART trees grown on seeded bootstrap resamples, mtry features
per split (default floor(sqrt(p))), thresholds at midpoints of adjacent
observed values, ties broken toward the lowest feature index then lowest
threshold. Every tree draws from np.random.default_rng([seed, tree_index]),
so fits are bit-for-bit reproducible and schedule-independent.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass

import numpy as np

MODEL_MAGIC = b"CENTFRST"
MODEL_VERSION = 1

CRITERIA = ("gini", "entropy")


class ForestError(Exception):
    """Model file load failure (magic/version/truncation/checksum)."""


@dataclass(frozen=True)
class ForestConfig:
    tree_count: int = 100
    mtry: int | None = None  # None: floor(sqrt(feature_count)) at fit time
    max_depth: int | None = None
    min_leaf: int = 1
    seed: int = 0
    bootstrap: bool = True
    criterion: str = "gini"

    def __post_init__(self):
        if self.tree_count < 1:
            raise ValueError(f"tree_count must be >= 1, got {self.tree_count}")
        if self.min_leaf < 1:
            raise ValueError(f"min_leaf must be >= 1, got {self.min_leaf}")
        if self.mtry is not None and self.mtry < 1:
            raise ValueError(f"mtry must be >= 1, got {self.mtry}")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {self.max_depth}")
        if self.criterion not in CRITERIA:
            raise ValueError(f"criterion must be one of {CRITERIA}, got {self.criterion!r}")


@dataclass
class DecisionTree:
    """Flat node arrays; feature == -1 marks a leaf, children are -1 there.

    counts[i] holds the training class counts reaching node i; gain[i] is the
    split's impurity decrease weighted by the fraction of bootstrap samples
    at the node (0 at leaves).
    """
    feature: np.ndarray    # int32
    threshold: np.ndarray  # float64
    left: np.ndarray       # int32
    right: np.ndarray      # int32
    counts: np.ndarray     # float64 (nodes, classes)
    gain: np.ndarray       # float64


@dataclass
class ForestModel:
    trees: list[DecisionTree]
    feature_count: int
    class_count: int
    config: ForestConfig
    mtry: int  # resolved value actually used
    split_counts: np.ndarray       # int64 per feature
    oob_indices: list[np.ndarray]  # per tree, sorted sample indices left out


def _impurity(counts: np.ndarray, criterion: str) -> float:
    p = counts / counts.sum()
    if criterion == "gini":
        return float(1.0 - (p * p).sum())
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


def _row_impurity(counts: np.ndarray, sizes: np.ndarray, criterion: str) -> np.ndarray:
    p = counts / sizes[:, None]
    if criterion == "gini":
        return 1.0 - (p * p).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * np.log2(p), 0.0)
    return -terms.sum(axis=1)


# One pass visits popped nodes holding at most about this many (node,
# candidate, row) elements, plus one node, so its working arrays stay a few
# hundred kB however many trees grow at once.
_PASS_ELEMENTS = 2048


def _best_splits(X, rank, y, rows, offsets, sizes, candidates, parent_imp, class_count,
                 min_leaf, criterion):
    """Best split of each node: (decrease, feature, threshold, n_left) arrays.

    Node i owns rows[offsets[i]:offsets[i] + sizes[i]]. Every (node, candidate)
    pair is one segment, and one stable sort of (segment, rank of value)
    orders each segment by value, as a lexsort would. Candidate thresholds
    sit between adjacent sorted values, must separate in float (value <= t
    routes left) and satisfy min_leaf on both sides. The first maximum in
    (feature, threshold) order wins, so ties resolve to the lowest feature,
    then the lowest threshold. A decrease <= 1e-12 means no split.
    """
    mtry = candidates.shape[1]
    seg_len = np.repeat(sizes, mtry)
    seg_start = np.cumsum(seg_len) - seg_len
    total = int(seg_len.sum())
    pos = np.arange(total) - np.repeat(seg_start, seg_len)  # position within segment
    seg = np.repeat(np.arange(len(seg_len)), seg_len)
    r = rows[np.repeat(np.repeat(offsets, mtry), seg_len) + pos]
    feature = np.repeat(candidates.ravel(), seg_len)
    order = np.argsort(seg * len(rank) + rank[r, feature], kind="stable")
    sv = X[r, feature][order]
    onehot = np.zeros((total, class_count))
    onehot[np.arange(total), y[r[order]]] = 1.0
    cum = np.cumsum(onehot, axis=0)
    left_counts = cum - np.repeat(cum[seg_start] - onehot[seg_start], seg_len, axis=0)
    right_counts = np.repeat(cum[seg_start + seg_len - 1], seg_len, axis=0) - cum

    n = np.repeat(seg_len, seg_len).astype(np.float64)
    n_left = pos + 1.0
    n_right = n - n_left
    nxt = np.append(sv[1:], sv[-1])  # a segment's last position is invalid anyway
    thr = (sv + nxt) / 2.0
    valid = (sv <= thr) & (thr < nxt) & (n_left >= min_leaf) & (n_right >= min_leaf)
    with np.errstate(divide="ignore", invalid="ignore"):  # n_right == 0 at segment ends
        weighted = (n_left * _row_impurity(left_counts, n_left, criterion)
                    + n_right * _row_impurity(right_counts, n_right, criterion)) / n
    decrease = np.where(valid, np.repeat(parent_imp, mtry * sizes) - weighted, -np.inf)

    node_start = seg_start[::mtry]
    best = np.maximum.reduceat(decrease, node_start)
    hits = np.flatnonzero(decrease == np.repeat(best, mtry * sizes))
    first = hits[np.searchsorted(hits, node_start)]
    return best, candidates.ravel()[seg[first]], thr[first], pos[first] + 1


class _Grower:
    """Grows all trees of one fit together, one node per unfinished tree per step.

    Row t of `samples` holds tree t's bootstrap rows; each node owns a
    contiguous range of it, which a split partitions stably in place, left
    rows first. Each step pops the top of every tree's own depth-first stack
    (right child pushed first), draws that tree's mtry candidates from its
    own rng, and scores the popped nodes in bounded vectorized passes. A
    tree's pop order, rng draws and node numbering are those of growing it
    alone, so each tree is bit-for-bit the tree that growing it alone gives.
    Each step's visited nodes go to one record array, so a fit keeps few
    small long-lived buffers among its passes' temporaries.
    """

    def __init__(self, X, y, samples, rngs, class_count, config, mtry):
        self.X, self.y, self.samples, self.rngs = X, y, samples, rngs
        self.class_count, self.config, self.mtry = class_count, config, mtry
        tree_count, n_boot = samples.shape
        # rank[i, f] orders column f as its values do, equal values sharing a rank
        by_value = np.argsort(X, axis=0, kind="stable")
        steps = np.diff(np.take_along_axis(X, by_value, axis=0), axis=0) != 0
        self.rank = np.empty(X.shape, dtype=np.int64)
        np.put_along_axis(self.rank, by_value, np.cumsum(
            np.vstack([np.zeros((1, X.shape[1]), bool), steps]), axis=0), axis=0)
        self.stack = np.zeros((tree_count, 16, 4), dtype=np.int64)  # (id, lo, hi, depth)
        self.stack[:, 0] = (0, 0, n_boot, 0)
        self.height = np.ones(tree_count, dtype=np.int64)
        self.node_count = np.ones(tree_count, dtype=np.int64)
        self.record = np.dtype([
            ("tree", np.int32), ("id", np.int32), ("counts", np.float64, (class_count,)),
            ("feature", np.int32), ("threshold", np.float64), ("left", np.int32),
            ("gain", np.float64)])
        self.records = []  # one array per step, a row per visited node

    def grow(self) -> list[DecisionTree]:
        while True:
            trees = np.flatnonzero(self.height)
            if len(trees) == 0:
                return self._trees()
            self.height[trees] -= 1
            nid, lo, hi, depth = self.stack[trees, self.height[trees]].T
            rec = np.zeros(len(trees), dtype=self.record)
            rec["tree"], rec["id"], rec["feature"], rec["left"] = trees, nid, -1, -1
            self.records.append(rec)
            elements = self.mtry * (hi - lo)
            pass_id = (np.cumsum(elements) - elements) // _PASS_ELEMENTS
            bounds = np.concatenate([[0], np.flatnonzero(np.diff(pass_id)) + 1, [len(trees)]])
            for a, b in zip(bounds[:-1], bounds[1:]):
                self._visit(rec[a:b], trees[a:b], lo[a:b], hi[a:b], depth[a:b])

    def _visit(self, rec, trees, lo, hi, depth):
        """Count, score and split one pass of popped nodes, filling their records."""
        X, y, config, class_count = self.X, self.y, self.config, self.class_count
        n_boot = self.samples.shape[1]
        sizes = hi - lo
        offsets = np.cumsum(sizes) - sizes
        where = np.repeat(trees * n_boot + lo - offsets, sizes) + np.arange(sizes.sum())
        rows = self.samples.ravel()[where]
        node_of_row = np.repeat(np.arange(len(trees)), sizes)
        counts = np.bincount(node_of_row * class_count + y[rows],
                             minlength=len(trees) * class_count)
        counts = counts.reshape(len(trees), class_count).astype(np.float64)
        rec["counts"] = counts

        open_ = ((counts > 0).sum(axis=1) >= 2) & (sizes >= 2 * config.min_leaf)
        if config.max_depth is not None:
            open_ &= depth < config.max_depth
        open_ = np.flatnonzero(open_)
        if len(open_) == 0:
            return
        candidates = np.empty((len(open_), self.mtry), dtype=np.int64)
        parent_imp = np.empty(len(open_))
        for j, k in enumerate(open_):
            candidates[j] = self.rngs[trees[k]].choice(X.shape[1], size=self.mtry,
                                                       replace=False)
            parent_imp[j] = _impurity(counts[k], config.criterion)
        candidates.sort(axis=1)
        decrease, feature, threshold, n_left = _best_splits(
            X, self.rank, y, rows, offsets[open_], sizes[open_], candidates, parent_imp,
            class_count, config.min_leaf, config.criterion)

        split = decrease > 1e-12
        k = open_[split]
        if len(k) == 0:
            return
        feature, threshold, n_left = feature[split], threshold[split], n_left[split]
        slot = np.full(len(trees), -1)
        slot[k] = np.arange(len(k))
        moved = slot[node_of_row] >= 0
        r, node = rows[moved], slot[node_of_row[moved]]
        goes_right = ~(X[r, feature[node]] <= threshold[node])
        self.samples.ravel()[where[moved]] = r[np.lexsort((goes_right, node))]

        t = trees[k]
        left_id = self.node_count[t]
        self.node_count[t] += 2
        rec["feature"][k], rec["threshold"][k], rec["left"][k] = feature, threshold, left_id
        rec["gain"][k] = decrease[split] * sizes[k] / n_boot

        height = self.height
        if height.max() + 2 > self.stack.shape[1]:
            self.stack = np.concatenate([self.stack, np.zeros_like(self.stack)], axis=1)
        mid = lo[k] + n_left
        self.stack[t, height[t]] = np.stack([left_id + 1, mid, hi[k], depth[k] + 1], axis=1)
        self.stack[t, height[t] + 1] = np.stack([left_id, lo[k], mid, depth[k] + 1], axis=1)
        height[t] += 2

    def _trees(self) -> list[DecisionTree]:
        rec = np.concatenate(self.records)
        order = np.lexsort((rec["id"], rec["tree"]))  # each tree's nodes in id order
        ends = np.cumsum(self.node_count)
        trees = []
        for a, b in zip(ends - self.node_count, ends):
            node = rec[order[a:b]]
            left = node["left"].copy()
            right = np.where(left >= 0, left + 1, -1).astype(np.int32)
            trees.append(DecisionTree(node["feature"].copy(), node["threshold"].copy(), left,
                                      right, node["counts"].copy(), node["gain"].copy()))
        return trees


def _require_finite(X: np.ndarray) -> None:
    bad = np.argwhere(~np.isfinite(X))
    if len(bad):
        r, c = bad[0]
        raise ValueError(f"non-finite feature value {X[r, c]} at row {r}, column {c}")


def fit(features, labels, config: ForestConfig = ForestConfig()) -> ForestModel:
    """Grow the forest. Constant features with mixed labels yield single-leaf
    trees rather than an error."""
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if X.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {X.shape}")
    n, p = X.shape
    if n != len(y):
        raise ValueError(f"{n} feature rows but {len(y)} labels")
    if n < 2:
        raise ValueError("need at least 2 samples")
    _require_finite(X)
    if y.min() < 0:
        raise ValueError("labels must be nonnegative class indices")
    class_count = int(y.max()) + 1
    if len(np.unique(y)) < 2:
        raise ValueError("need at least 2 classes present")
    mtry = config.mtry if config.mtry is not None else max(1, int(math.sqrt(p)))
    if mtry > p:
        raise ValueError(f"mtry {mtry} exceeds feature count {p}")

    rngs = [np.random.default_rng([config.seed, t]) for t in range(config.tree_count)]
    if config.bootstrap:
        boots = np.stack([rng.integers(0, n, n) for rng in rngs])
        oob = [np.setdiff1d(np.arange(n), boot) for boot in boots]
    else:
        boots = np.tile(np.arange(n), (config.tree_count, 1))
        oob = [np.empty(0, dtype=np.int64) for _ in rngs]
    trees = _Grower(X, y, boots, rngs, class_count, config, mtry).grow()

    split_counts = np.zeros(p, dtype=np.int64)
    for tree in trees:
        used = tree.feature[tree.feature >= 0]
        split_counts += np.bincount(used, minlength=p)
    return ForestModel(trees, p, class_count, config, mtry, split_counts, oob)


def _leaves(tree: DecisionTree, X: np.ndarray) -> np.ndarray:
    """Index of the leaf each row of X reaches, all rows walked together."""
    node = np.zeros(len(X), dtype=np.intp)
    live = np.arange(len(X))
    while len(live):
        f = tree.feature[node[live]]
        live = live[f >= 0]
        nid, f = node[live], f[f >= 0]
        node[live] = np.where(X[live, f] <= tree.threshold[nid],
                              tree.left[nid], tree.right[nid])
    return node


def _leaf_distributions(tree: DecisionTree, X: np.ndarray) -> np.ndarray:
    cnt = tree.counts[_leaves(tree, X)]
    return cnt / cnt.sum(axis=1, keepdims=True)


def predict_proba(model: ForestModel, feature_vector) -> np.ndarray:
    """Mean of per-tree leaf class distributions; sums to 1."""
    x = np.asarray(feature_vector, dtype=np.float64).ravel()
    if len(x) != model.feature_count:
        raise ValueError(f"feature vector length {len(x)} != {model.feature_count}")
    return predict_proba_many(model, x[None, :])[0]


def predict_proba_many(model: ForestModel, features) -> np.ndarray:
    """predict_proba for every row; per-tree distributions are summed in tree order."""
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.feature_count:
        raise ValueError(f"features must be (n, {model.feature_count}), got {X.shape}")
    _require_finite(X)
    acc = np.zeros((len(X), model.class_count))
    for tree in model.trees:
        acc += _leaf_distributions(tree, X)
    return acc / len(model.trees)


@dataclass(frozen=True)
class FeatureImportance:
    split_counts: np.ndarray       # int64, per feature
    impurity_decrease: np.ndarray  # float64, per feature, averaged over trees


def feature_importance(model: ForestModel) -> FeatureImportance:
    """Split counts plus sample-weighted impurity decrease per feature.

    Each split contributes its decrease scaled by the fraction of that tree's
    bootstrap samples reaching the node; totals are averaged over trees.
    Features never chosen score 0 on both measures.
    """
    if not model.trees:
        raise ValueError("model has no trees")
    decrease = np.zeros(model.feature_count)
    for tree in model.trees:
        internal = tree.feature >= 0
        np.add.at(decrease, tree.feature[internal], tree.gain[internal])
    return FeatureImportance(model.split_counts.copy(), decrease / len(model.trees))


def oob_score(model: ForestModel, features, labels) -> float:
    """Out-of-bag accuracy: each sample voted on only by trees that never saw
    it. Samples in every bootstrap are skipped."""
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    votes = np.zeros((len(X), model.class_count))
    seen = np.zeros(len(X), dtype=bool)
    for tree, oob in zip(model.trees, model.oob_indices):
        votes[oob] += _leaf_distributions(tree, X[oob])
        seen[oob] = True
    if not seen.any():
        raise ValueError("no out-of-bag samples (bootstrap disabled?)")
    pred = votes[seen].argmax(axis=1)
    return float((pred == y[seen]).mean())


def _config_json(model: ForestModel) -> bytes:
    c = model.config
    return json.dumps({
        "tree_count": c.tree_count, "mtry": c.mtry, "max_depth": c.max_depth,
        "min_leaf": c.min_leaf, "seed": c.seed, "bootstrap": c.bootstrap,
        "criterion": c.criterion, "resolved_mtry": model.mtry,
    }, sort_keys=True).encode()


def save_model(model: ForestModel, path) -> None:
    parts = [MODEL_MAGIC, np.uint32(MODEL_VERSION).tobytes(),
             np.uint32(model.feature_count).tobytes(),
             np.uint32(model.class_count).tobytes(),
             np.uint32(len(model.trees)).tobytes()]
    blob = _config_json(model)
    parts.append(np.uint32(len(blob)).tobytes())
    parts.append(blob)
    for tree, oob in zip(model.trees, model.oob_indices):
        parts.append(np.uint32(len(tree.feature)).tobytes())
        parts.append(tree.feature.astype("<i4").tobytes())
        parts.append(tree.threshold.astype("<f8").tobytes())
        parts.append(tree.left.astype("<i4").tobytes())
        parts.append(tree.right.astype("<i4").tobytes())
        parts.append(tree.counts.astype("<f8").tobytes())
        parts.append(tree.gain.astype("<f8").tobytes())
        parts.append(np.uint32(len(oob)).tobytes())
        parts.append(np.asarray(oob, dtype="<i8").tobytes())
    parts.append(model.split_counts.astype("<i8").tobytes())
    body = b"".join(parts)
    with open(path, "wb") as f:
        f.write(body)
        f.write(np.uint32(zlib.crc32(body)).tobytes())


class _Cursor:
    def __init__(self, buf: bytes):
        self.buf, self.pos = buf, 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise ForestError("truncated model file")
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return int(np.frombuffer(self.take(4), "<u4")[0])

    def array(self, dtype: str, count: int, itemsize: int) -> np.ndarray:
        return np.frombuffer(self.take(itemsize * count), dtype).copy()


def load_model(path) -> ForestModel:
    # parse structure first, CRC last: truncation reports as truncation
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < len(MODEL_MAGIC) + 8 or raw[:len(MODEL_MAGIC)] != MODEL_MAGIC:
        raise ForestError(f"{path}: not a forest model file (bad magic)")
    cur = _Cursor(raw[:-4])
    cur.take(len(MODEL_MAGIC))
    version = cur.u32()
    if version != MODEL_VERSION:
        raise ForestError(f"{path}: unsupported model version {version}")
    feature_count = cur.u32()
    class_count = cur.u32()
    n_trees = cur.u32()
    meta = json.loads(cur.take(cur.u32()).decode())
    config = ForestConfig(meta["tree_count"], meta["mtry"], meta["max_depth"],
                          meta["min_leaf"], meta["seed"], meta["bootstrap"],
                          meta["criterion"])
    trees, oob = [], []
    for _ in range(n_trees):
        n_nodes = cur.u32()
        tree = DecisionTree(
            cur.array("<i4", n_nodes, 4).astype(np.int32),
            cur.array("<f8", n_nodes, 8),
            cur.array("<i4", n_nodes, 4).astype(np.int32),
            cur.array("<i4", n_nodes, 4).astype(np.int32),
            cur.array("<f8", n_nodes * class_count, 8).reshape(n_nodes, class_count),
            cur.array("<f8", n_nodes, 8))
        trees.append(tree)
        oob.append(cur.array("<i8", cur.u32(), 8))
    split_counts = cur.array("<i8", feature_count, 8)
    if cur.pos != len(cur.buf):
        raise ForestError(f"{path}: trailing bytes after model tables")
    if zlib.crc32(raw[:-4]) != int(np.frombuffer(raw[-4:], "<u4")[0]):
        raise ForestError(f"{path}: checksum mismatch")
    return ForestModel(trees, feature_count, class_count, config,
                       meta["resolved_mtry"], split_counts, oob)


def dump_model(model: ForestModel) -> str:
    """Human-readable tree listing for debugging."""
    lines = [f"forest: {len(model.trees)} trees, {model.feature_count} features, "
             f"{model.class_count} classes, criterion={model.config.criterion}"]
    for ti, tree in enumerate(model.trees):
        lines.append(f"tree {ti}: {len(tree.feature)} nodes")

        def emit(nid: int, depth: int):
            pad = "  " * (depth + 1)
            if tree.feature[nid] < 0:
                dist = ", ".join(f"{int(c)}" for c in tree.counts[nid])
                lines.append(f"{pad}leaf [{dist}]")
            else:
                lines.append(f"{pad}node {nid}: f{tree.feature[nid]} <= "
                             f"{tree.threshold[nid]:.6g} (gain {tree.gain[nid]:.4g})")
                emit(tree.left[nid], depth + 1)
                emit(tree.right[nid], depth + 1)

        emit(0, 0)
    return "\n".join(lines) + "\n"
