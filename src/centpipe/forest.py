"""From-scratch random-forest classifier of two classes, labels 0 and 1.

Axis-aligned CART trees grown on seeded bootstrap resamples, mtry features
per split (default floor(sqrt(p))), thresholds at midpoints of adjacent
observed values, ties broken toward the lowest feature index then lowest
threshold. Every tree draws from np.random.default_rng([seed, tree_index]),
so fits are bit-for-bit reproducible and schedule-independent. One fit grows
the forests of several training row sets (a cross-validation's folds)
together; each is bit for bit the forest that fitting its set alone gives.

A tree holds each distinct row of its bootstrap once, with the number of
times it was drawn as its weight, and counts, sizes and split scores add up
those weights. That changes no byte of the tree grown on the draw with its
copies: every copy of a row has its values, so it lands on the same side of
any threshold, which only falls between distinct values, and the weighted
class counts are the same integers, exact in float64, so every impurity,
decrease, tie and threshold is the same float.

A node's candidates are those Generator.choice(p, size=mtry, replace=False)
would draw from its tree's generator after the bootstrap. The grower draws
every open node's at once from each tree's uint32 stream, with the steps the
installed numpy's choice takes: Floyd's sampling by Lemire bounded draws,
then the words its shuffle consumes. The test suite's reference grower calls
choice itself, so it guards this equivalence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import workers
from .ops import NonFiniteError, first_nonfinite

CRITERIA = ("gini", "entropy")


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

    counts[i] holds the training class counts reaching node i.
    """
    feature: np.ndarray    # int32
    threshold: np.ndarray  # float64
    left: np.ndarray       # int32
    right: np.ndarray      # int32
    counts: np.ndarray     # float64 (nodes, 2)


@dataclass
class ForestModel:
    """One forest of config.tree_count trees per training row set, end to end
    in set order in `trees`; fold(i) is set i's forest as a model of its own."""
    trees: list[DecisionTree]
    feature_count: int
    config: ForestConfig
    mtry: int  # resolved value actually used
    workers: int = 1  # processes that grew the trees
    split_elements: int = 0  # (node, candidate, distinct row) elements the fit scored

    def fold(self, i: int) -> "ForestModel":
        size = self.config.tree_count
        if not 0 <= i < len(self.trees) // size:
            raise IndexError(f"model holds {len(self.trees) // size} forests, no forest {i}")
        return ForestModel(self.trees[i * size:(i + 1) * size], self.feature_count,
                           self.config, self.mtry, self.workers)


def _row_impurity(counts: np.ndarray, sizes: np.ndarray, criterion: str) -> np.ndarray:
    """Impurity of each column of class-major counts (2, n), bit for bit one
    node's own sum over its two shares: a zero share adds 0.0, so entropy
    gives the floats of the sum over the nonzero shares alone."""
    p = counts / sizes
    if criterion == "gini":
        p *= p
        return 1.0 - (p[0] + p[1])
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * np.log2(p), 0.0)
    return -(terms[0] + terms[1])


# One pass visits popped nodes holding at most about this many (node,
# candidate, distinct row) elements, plus one node, so its working arrays
# stay well under a MB however many trees grow at once. A row drawn several
# times into a tree's bootstrap is one element, weighted by its count.
_PASS_ELEMENTS = 8192


def _stable_argsort(key: np.ndarray, bound: int) -> np.ndarray:
    """np.argsort(key, kind="stable") of nonnegative int64 keys below
    `bound`. With its position in the low bits every key is unique, and numpy
    sorts plain integers several times faster than it argsorts them stably;
    keys too wide to share 63 bits with their position take the argsort."""
    bits = len(key).bit_length()
    if bound.bit_length() + bits > 63:
        return np.argsort(key, kind="stable")
    return np.sort((key << bits) | np.arange(len(key))) & ((1 << bits) - 1)


def _best_splits(X, rank, y, rows, weight, offsets, sizes, candidates, parent_imp,
                 min_leaf, criterion):
    """Best split of each node: (decrease, feature, threshold, n_left) arrays.

    Node i owns rows[offsets[i]:offsets[i] + sizes[i]], each a distinct row
    of its tree's bootstrap, drawn weight[j] times. Every (node, candidate)
    pair is one segment, and one stable sort of (segment, rank of value)
    orders each segment by value, as a lexsort would. Class counts and the
    sizes n, n_left and n_right add up the weights, so they are the counts of
    the bootstrap with its copies. Candidate thresholds sit between adjacent
    sorted values, must separate in float (value <= t routes left) and
    satisfy min_leaf on both weighted sides. The first maximum in (feature,
    threshold) order wins, so ties resolve to the lowest feature, then the
    lowest threshold. A decrease <= 1e-12 means no split. n_left counts the
    distinct rows that go left.
    """
    mtry = candidates.shape[1]
    seg_len = np.repeat(sizes, mtry)
    seg_start = np.cumsum(seg_len) - seg_len
    seg_end = seg_start + seg_len - 1
    total = int(seg_len.sum())
    at = np.repeat(np.repeat(offsets, mtry) - seg_start, seg_len) + np.arange(total)
    r, w = rows[at], weight[at]
    del at
    # flat index of each (row, candidate) value into X and rank alike
    flat = r.astype(np.int64) * X.shape[1] + np.repeat(candidates.ravel(), seg_len)
    seg = np.repeat(np.arange(len(seg_len)), seg_len)
    order = _stable_argsort(seg * len(rank) + rank.ravel()[flat], len(seg_len) * len(rank))
    del seg
    sv = X.ravel()[flat[order]]
    w = w[order].astype(np.float64)  # numpy's uint8 multiply: 64 KiB more code paged in
    # Class-major (class, position) running weighted counts over the whole
    # pass, so that the class sums of the impurities are row adds. They are
    # exact integers, so the in-place forms give the bytes any order would;
    # temporaries are freed as soon as they are spent.
    left_counts = np.empty((2, total))
    np.multiply(y[r[order]] == np.arange(2)[:, None], w, out=left_counts)
    del r, flat, order, w
    np.cumsum(left_counts, axis=1, out=left_counts)
    at_end = left_counts[:, seg_end]  # through each segment's last position
    right_counts = at_end.repeat(seg_len, axis=1)
    right_counts -= left_counts
    before = np.hstack([np.zeros((2, 1)), at_end[:, :-1]])  # ahead of each segment
    left_counts -= before.repeat(seg_len, axis=1)

    n_left = left_counts.sum(axis=0)
    n = n_left[seg_end].repeat(seg_len)  # a segment's whole weight
    n_right = n - n_left
    nxt = np.append(sv[1:], sv[-1])  # a segment's last position is invalid anyway
    thr = (sv + nxt) / 2.0
    valid = (sv <= thr) & (thr < nxt) & (n_left >= min_leaf) & (n_right >= min_leaf)
    del sv, nxt
    with np.errstate(divide="ignore", invalid="ignore"):  # n_right == 0 at segment ends
        weighted = n_left * _row_impurity(left_counts, n_left, criterion)
        del left_counts
        weighted += n_right * _row_impurity(right_counts, n_right, criterion)
        del right_counts
        weighted /= n
    decrease = np.where(valid, np.repeat(parent_imp, mtry * sizes) - weighted, -np.inf)

    node_start = seg_start[::mtry]
    best = np.maximum.reduceat(decrease, node_start)
    hits = np.flatnonzero(decrease == np.repeat(best, mtry * sizes))
    first = hits[np.searchsorted(hits, node_start)]
    seg = np.searchsorted(seg_start, first, side="right") - 1
    return best, candidates.ravel()[seg], thr[first], first - seg_start[seg] + 1


def _choice(next_uint32, p: int, m: int) -> list:
    """Sorted Generator.choice(p, size=m, replace=False) over a uint32 stream,
    one word at a time: the scalar path for draws the vectorised one cannot
    take (a Lemire rejection, or choice's tail shuffle for large p)."""
    def bounded(j):  # Lemire's draw of an integer in [0, j]
        while True:
            prod = next_uint32() * (j + 1)
            if (prod & 0xFFFFFFFF) >= (0xFFFFFFFF - j) % (j + 1):
                return prod >> 32

    if p > 10000 and m > p // 50:
        idx = {}
        for i in range(p - 1, max(p - m, 1) - 1, -1):
            j = bounded(i)
            idx[i], idx[j] = idx.get(j, j), idx.get(i, i)
        return sorted(idx.get(i, i) for i in range(p - m, p))
    taken = []
    for j in range(p - m, p):  # Floyd's algorithm; j = 0 draws nothing
        v = bounded(j) if j else 0
        taken.append(j if v in taken else v)
    for i in range(m - 1, 0, -1):  # the shuffle that follows; its order is not kept
        bounded(i)
    return sorted(taken)


class _Draws:
    """Each tree's candidate features, drawn from what is left of its
    generator's stream after the bootstrap, exactly as
    Generator.choice(p, size=m, replace=False) would draw them there.

    That stream is the state's buffered uint32, if one is set, then the low
    and the high half of each 64-bit output. Each tree holds its unread part
    in its own row of `block`, refilled when a draw would run past `fill`.
    Every node's draw takes the same words as long as no Lemire draw rejects
    (odds about 1e-8 per word at small p), so all open nodes of a pass draw
    together; a node with a rejection takes the scalar path from its start.
    """

    def __init__(self, bitgens, p: int, m: int):
        self.bitgens, self.p, self.m = bitgens, p, m
        self.tail = p > 10000 and m > p // 50  # choice shuffles an arange there
        floyd = np.arange(max(p - m, 1), p, dtype=np.uint64)
        self.bounds = np.concatenate([floyd, np.arange(m - 1, 0, -1, dtype=np.uint64)])
        self.threshold = (0xFFFFFFFF - self.bounds) % (self.bounds + 1)
        width = 128 if self.tail else max(128, len(self.bounds) + 2)
        self.block = np.zeros((len(bitgens), width), dtype=np.uint32)
        self.fill = np.zeros(len(bitgens), dtype=np.int64)
        self.cursor = np.zeros(len(bitgens), dtype=np.int64)
        for t, bitgen in enumerate(bitgens):
            state = bitgen.state
            if state["has_uint32"]:
                self.block[t, 0], self.fill[t] = state["uinteger"], 1
            self._refill(t)

    def _refill(self, t: int) -> None:
        kept = self.fill[t] - self.cursor[t]
        self.block[t, :kept] = self.block[t, self.cursor[t]:self.fill[t]]
        raw = self.bitgens[t].random_raw((self.block.shape[1] - kept) // 2)
        self.fill[t], self.cursor[t] = kept + 2 * len(raw), 0
        self.block[t, kept:self.fill[t]:2] = raw & 0xFFFFFFFF
        self.block[t, kept + 1:self.fill[t]:2] = raw >> 32

    def _next(self, t: int) -> int:
        if self.cursor[t] == self.fill[t]:
            self._refill(t)
        self.cursor[t] += 1
        return int(self.block[t, self.cursor[t] - 1])

    def finish(self, t: int) -> None:
        self.bitgens[t] = None  # the tree is finished and draws no more

    def sorted_candidates(self, trees: np.ndarray) -> np.ndarray:
        """One sorted row of m candidates per tree, each tree drawing once."""
        p, m = self.p, self.m
        chosen = np.zeros((len(trees), m), dtype=np.int64)
        exact = np.zeros(len(trees), dtype=bool)
        if not self.tail:
            words = len(self.bounds)
            for t in trees[self.fill[trees] - self.cursor[trees] < words]:
                self._refill(t)
            prod = self.block[trees[:, None], self.cursor[trees, None] + np.arange(words)]
            prod = prod * (self.bounds + 1)
            exact = ((prod & 0xFFFFFFFF) >= self.threshold).all(axis=1)
            value = (prod >> 32).astype(np.int64)
            first = int(p == m)  # j = 0 draws nothing and takes 0
            for i in range(first, m):
                v = value[:, i - first]
                taken = (chosen[:, :i] == v[:, None]).any(axis=1)
                chosen[:, i] = np.where(taken, p - m + i, v)
            self.cursor[trees[exact]] += words
        for i in np.flatnonzero(~exact):
            chosen[i] = _choice(lambda t=trees[i]: self._next(t), p, m)
        chosen.sort(axis=1)
        return chosen


class _Grower:
    """Grows the given tree indices of the forests of several training row
    sets together, one node per unfinished tree per step.

    Every tree's distinct in-bag rows, as row indices of the whole matrix in
    row order, fill its own contiguous block of `samples`, and the times its
    bootstrap drew each of them the same places of `weight`;
    each node owns a contiguous range of both, which a split partitions
    stably in place, left rows first. Weighted counts are the counts of the
    draw with its copies, and each copy would go where its row goes, so a
    tree's splits are those of the draw (see the module docstring). Each step
    pops the top of every tree's own depth-first stack (right child pushed
    first), draws that tree's mtry candidates from its own rng, and scores the
    popped nodes in bounded vectorized passes. A tree's pop order, rng draws
    and node numbering are those of growing it alone, and `rank` orders any
    subset of rows as a rank over that subset would, so each tree is bit for
    bit the tree that fitting its training set alone gives.
    """

    def __init__(self, X, y, rank, sets, config, mtry, tree_indices):
        self.X, self.y, self.rank = X, y, rank
        self.config, self.mtry = config, mtry
        # Long-lived arrays use the smallest unsigned type that holds their
        # values: a set's size bounds a bootstrap count, and twice the largest
        # bounds node ids, depths, stack ranges and class counts.
        small = np.min_scalar_type
        most = max(len(rows) for rows in sets)
        width = 2 * most
        trees = len(sets) * len(tree_indices)
        # Room for every tree's whole draw, since a tree's distinct rows are
        # known only once drawn; the trees fill its head end to end.
        room = sum(len(rows) for rows in sets) * len(tree_indices)
        self.samples = np.empty(room, dtype=small(len(y)))
        self.weight = np.empty(room, dtype=small(most))
        self.start = np.zeros(trees, dtype=np.int64)  # tree t's block of samples starts here
        self.stack = np.zeros((trees, 16, 4), dtype=small(width))  # (id, lo, hi, depth)
        bitgens, end = [], 0
        for rows in sets:
            for t in tree_indices:
                rng = np.random.default_rng([config.seed, t])
                drawn = (np.bincount(rng.integers(0, len(rows), len(rows)), minlength=len(rows))
                         if config.bootstrap else np.ones(len(rows), dtype=np.int64))
                kept = np.flatnonzero(drawn)
                i = len(bitgens)
                self.start[i], end = end, end + len(kept)
                self.samples[self.start[i]:end], self.weight[self.start[i]:end] = (
                    rows[kept], drawn[kept])
                self.stack[i, 0, 2] = len(kept)  # lo and hi count from the tree's start
                bitgens.append(rng.bit_generator)
        self.draws = _Draws(bitgens, X.shape[1], mtry)
        self.split_elements = 0  # (node, candidate, distinct row) elements scored
        self.height = np.ones(trees, dtype=np.int64)
        self.node_count = np.ones(trees, dtype=np.int64)
        # Per field, one array per step with a row per visited node. A leaf
        # keeps left 0 (no child is node 0), feature 0 and threshold 0.0.
        self.fields = {"tree": small(trees), "id": small(width),
                       "counts": small(width), "threshold": np.float64,
                       "feature": small(X.shape[1]), "left": small(width)}
        self.steps = {name: [] for name in self.fields}

    def grow(self) -> list[DecisionTree]:
        while True:
            trees = np.flatnonzero(self.height)
            if len(trees) == 0:
                return self._trees()
            self.height[trees] -= 1
            nid, lo, hi, depth = self.stack[trees, self.height[trees]].T.astype(np.int64)
            step = {name: np.zeros((len(trees), 2) if name == "counts" else len(trees), dtype)
                    for name, dtype in self.fields.items()}
            step["tree"][:], step["id"][:] = trees, nid
            for name, array in step.items():
                self.steps[name].append(array)
            elements = self.mtry * (hi - lo)
            pass_id = (np.cumsum(elements) - elements) // _PASS_ELEMENTS
            bounds = np.concatenate([[0], np.flatnonzero(np.diff(pass_id)) + 1, [len(trees)]])
            for a, b in zip(bounds[:-1], bounds[1:]):
                self._visit({name: array[a:b] for name, array in step.items()},
                            trees[a:b], lo[a:b], hi[a:b], depth[a:b])
            for t in trees[self.height[trees] == 0]:
                self.draws.finish(t)

    def _visit(self, rec, trees, lo, hi, depth):
        """Count, score and split one pass of popped nodes, filling their rows
        of the step's arrays (`rec`, one view per field)."""
        X, y, config = self.X, self.y, self.config
        sizes = hi - lo
        offsets = np.cumsum(sizes) - sizes
        where = np.repeat(self.start[trees] + lo - offsets, sizes) + np.arange(sizes.sum())
        rows, weight = self.samples[where], self.weight[where]
        node_of_row = np.repeat(np.arange(len(trees)), sizes)
        counts = np.bincount(node_of_row * 2 + y[rows], weight, minlength=2 * len(trees))
        counts = counts.reshape(len(trees), 2)
        rec["counts"][:] = counts

        open_ = (counts > 0).all(axis=1) & (counts.sum(axis=1) >= 2 * config.min_leaf)
        if config.max_depth is not None:
            open_ &= depth < config.max_depth
        open_ = np.flatnonzero(open_)
        if len(open_) == 0:
            return
        candidates = self.draws.sorted_candidates(trees[open_])
        parent_imp = _row_impurity(counts[open_].T, counts[open_].sum(axis=1), config.criterion)
        self.split_elements += self.mtry * int(sizes[open_].sum())
        decrease, feature, threshold, n_left = _best_splits(
            X, self.rank, y, rows, weight, offsets[open_], sizes[open_], candidates,
            parent_imp, config.min_leaf, config.criterion)

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
        order = np.lexsort((goes_right, node))
        self.samples[where[moved]], self.weight[where[moved]] = r[order], weight[moved][order]

        t = trees[k]
        left_id = self.node_count[t]
        self.node_count[t] += 2
        rec["feature"][k], rec["threshold"][k], rec["left"][k] = feature, threshold, left_id

        height = self.height
        if height.max() + 2 > self.stack.shape[1]:
            self.stack = np.concatenate([self.stack, np.zeros_like(self.stack)], axis=1)
        mid = lo[k] + n_left
        self.stack[t, height[t]] = np.stack([left_id + 1, mid, hi[k], depth[k] + 1], axis=1)
        self.stack[t, height[t] + 1] = np.stack([left_id, lo[k], mid, depth[k] + 1], axis=1)
        height[t] += 2

    def _trees(self) -> list[DecisionTree]:
        """Every tree, as views of one column per field holding the trees end to
        end, each in node id order. Each step's array of a field is freed as
        it is copied, so the columns and the step arrays never both hold
        every node."""
        self.samples = self.weight = self.stack = None  # spent: free them before the columns exist
        ends = np.cumsum(self.node_count)
        start = ends - self.node_count
        steps = self.steps
        tree, nid = steps.pop("tree"), steps.pop("id")
        columns = {}
        for name, arrays in steps.items():
            column = np.empty((ends[-1], *arrays[0].shape[1:]),
                              dtype=np.int32 if name in ("feature", "left") else np.float64)
            for i in reversed(range(len(tree))):
                column[start[tree[i]] + nid[i]] = arrays.pop()
            columns[name] = column
        feature, left = columns["feature"], columns["left"]
        leaf = left == 0
        feature[leaf] = left[leaf] = -1
        right = left + 1
        right[leaf] = -1
        return [DecisionTree(feature[a:b], columns["threshold"][a:b], left[a:b], right[a:b],
                             columns["counts"][a:b]) for a, b in zip(start, ends)]


def _require_finite(X: np.ndarray) -> None:
    bad = first_nonfinite(X)
    if bad is not None:
        r, c = bad
        raise NonFiniteError(f"non-finite feature value {X[r, c]} at row {r}, column {c}")


def _dense_rank(X: np.ndarray) -> np.ndarray:
    """rank[i, f] orders column f as its values do, equal values sharing a rank."""
    by_value = np.argsort(X, axis=0, kind="stable")
    steps = np.diff(np.take_along_axis(X, by_value, axis=0), axis=0) != 0
    rank = np.empty(X.shape, dtype=np.int64)
    np.put_along_axis(rank, by_value, np.cumsum(
        np.vstack([np.zeros((1, X.shape[1]), bool), steps]), axis=0), axis=0)
    return rank


def fit(features, labels, config: ForestConfig = ForestConfig(),
        train_sets=None) -> ForestModel:
    """Grow a forest on all rows, or one forest per training row set (index
    arrays into the rows, such as a cross-validation's folds), all together.
    Labels are 0 and 1, and every set holds both.

    Each set's forest is bit for bit the forest that fitting that set's rows
    alone gives, however many worker processes grow it (model.workers).
    Constant features with mixed labels yield single-leaf trees rather than
    an error. A non-finite feature raises NonFiniteError naming
    its row in `features`.
    """
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if X.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {X.shape}")
    n, p = X.shape
    if n != len(y):
        raise ValueError(f"{n} feature rows but {len(y)} labels")
    sets = ([np.arange(n)] if train_sets is None
            else [np.asarray(rows, dtype=np.int64) for rows in train_sets])
    if not sets:
        raise ValueError("need at least one training set")
    _require_finite(X)
    classes = np.unique(y)
    if not set(classes.tolist()) <= {0, 1}:
        raise ValueError(f"labels must be 0 or 1, got classes {classes.tolist()}")
    for i, rows in enumerate(sets):
        where = "" if train_sets is None else f" in training set {i}"
        if len(rows) < 2:
            raise ValueError("need at least 2 samples" + where)
        if len(np.unique(y[rows])) < 2:
            raise ValueError("need at least 2 classes present" + where)
    mtry = config.mtry if config.mtry is not None else max(1, int(math.sqrt(p)))
    if mtry > p:
        raise ValueError(f"mtry {mtry} exceeds feature count {p}")
    # at each level of a tree, a split pass writes about 16 temporaries of one
    # value per row and candidate feature
    work = 16 * config.tree_count * mtry * sum(len(rows) * math.log2(len(rows)) for rows in sets)
    processes = workers.count(config.tree_count, work)
    shares = [range(config.tree_count * w // processes, config.tree_count * (w + 1) // processes)
              for w in range(processes)]
    rank = _dense_rank(X)

    def forest(share):  # the name a worker's error gives
        grower = _Grower(X, y, rank, sets, config, mtry, share)
        return grower.grow(), grower.split_elements

    per_set = [[] for _ in sets]
    split_elements = 0
    for share, (trees, elements) in zip(shares, workers.map(forest, shares, processes)):
        split_elements += elements
        for i in range(len(sets)):
            per_set[i] += trees[i * len(share):(i + 1) * len(share)]
    return ForestModel([tree for trees in per_set for tree in trees], p, config, mtry,
                       processes, split_elements)


def _leaves(tree: DecisionTree, X: np.ndarray, roots=(0,)) -> np.ndarray:
    """Index of the leaf each row of X reaches from each root, all walked
    together: entry r * len(X) + i is row i's leaf below roots[r]."""
    node = np.repeat(np.asarray(roots, dtype=np.intp), len(X))
    row = np.tile(np.arange(len(X)), len(roots))
    live = np.arange(len(node))
    while len(live):
        f = tree.feature[node[live]]
        live, f = live[f >= 0], f[f >= 0]
        nid = node[live]
        node[live] = np.where(X[row[live], f] <= tree.threshold[nid],
                              tree.left[nid], tree.right[nid])
    return node


def _joined(trees: list[DecisionTree]) -> tuple[DecisionTree, np.ndarray]:
    """The trees' nodes end to end as one node array, children re-indexed into
    it, and the index of each tree's root."""
    sizes = [len(tree.feature) for tree in trees]
    roots = np.cumsum(sizes) - sizes
    shift = np.repeat(roots, sizes)

    def field(name):
        return np.concatenate([getattr(tree, name) for tree in trees])

    return DecisionTree(field("feature"), field("threshold"), field("left") + shift,
                        field("right") + shift, field("counts")), roots


def predict_proba_many(model: ForestModel, features) -> np.ndarray:
    """(rows, 2): per row, the mean over trees of the reached leaf's
    class distribution, walking every tree at once and summing in tree order."""
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.feature_count:
        raise ValueError(f"features must be (n, {model.feature_count}), got {X.shape}")
    _require_finite(X)
    nodes, roots = _joined(model.trees)
    leaves = _leaves(nodes, X, roots).reshape(len(roots), len(X))
    dist = nodes.counts / nodes.counts.sum(axis=1, keepdims=True)
    acc = np.zeros((len(X), 2))
    for leaf in leaves:
        acc += dist[leaf]
    return acc / len(model.trees)
