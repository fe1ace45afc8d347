"""Histogram entropy estimation, CENT feature extraction, and the executable
information-theoretic checks (conditioning reduction, partition decomposition,
data-processing inequality).

All entropies are plug-in estimates in bits (log base 2), 0*log(0) := 0.
Cross-class comparisons use shared fixed-range binning: with priors taken
proportional to sample counts, the plug-in conditional entropy then never
exceeds the pooled entropy (exact concavity at the estimator level), which is
what the conditioning checks rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .net import Network, forward_collect

def _resolve_range(values: np.ndarray, range_mode):
    if isinstance(range_mode, str):
        if range_mode != "minmax":
            raise ValueError(f"range_mode must be 'minmax' or (lo, hi), got {range_mode!r}")
        return float(values.min()), float(values.max())
    lo, hi = float(range_mode[0]), float(range_mode[1])
    if not lo < hi:
        raise ValueError(f"fixed range needs lo < hi, got ({lo}, {hi})")
    return lo, hi


class NonFiniteError(ArithmeticError):
    """NaN or infinite samples reached a histogram or a range, or features
    reached the forest (not a ValueError: exit 1)."""


def _require_finite(values: np.ndarray) -> None:
    bad = values.size - np.count_nonzero(np.isfinite(values))
    if bad:
        raise NonFiniteError(f"{bad} of {values.size} samples are NaN or infinite")


@dataclass(frozen=True)
class Histogram:
    bin_count: int
    lo: float
    hi: float
    counts: np.ndarray  # int64, length bin_count
    total: int
    degenerate: bool = False  # constant samples: single loaded bin, lo == hi


def _bin_counts(rows: np.ndarray, lo, hi, bin_count: int) -> np.ndarray:
    """(len(rows), bin_count) int64 equal-width bin counts of each row of a
    (rows, width) array over [lo, hi], given per row as (rows, 1) arrays or
    for all rows as floats: value v falls in bin floor((v - lo) / (hi - lo) *
    bin_count), outliers clipped into the edge bins and hi into the last bin.
    A constant row (lo == hi) loads bin 0. One bincount bins every row.
    """
    x = rows.astype(np.float64)  # a copy, worked on in place
    np.clip(x, lo, hi, out=x)
    x -= lo
    x /= np.where(hi > lo, hi - lo, 1.0)
    x *= bin_count
    np.floor(x, out=x)
    idx = x.astype(np.int64)
    del x
    np.clip(idx, 0, bin_count - 1, out=idx)
    idx += np.arange(0, len(idx) * bin_count, bin_count)[:, None]
    counts = np.bincount(idx.ravel(), minlength=len(idx) * bin_count)
    return counts.reshape(len(idx), bin_count)


def make_histogram(samples, bin_count: int = 256, range_mode="minmax") -> Histogram:
    """Equal-width histogram over the resolved range.

    range_mode "minmax" uses the sample min/max; an explicit (lo, hi) pair
    fixes the range and clips outliers into the edge bins. Constant samples
    under minmax set the degenerate flag and load a single bin. NaN or
    infinite samples raise NonFiniteError before any binning.
    """
    values = np.asarray(samples, dtype=np.float64).ravel()
    if values.size == 0:
        raise ValueError("samples must be nonempty")
    if bin_count < 2:
        raise ValueError(f"bin_count must be >= 2, got {bin_count}")
    _require_finite(values)
    lo, hi = _resolve_range(values, range_mode)
    counts = _bin_counts(values[None], lo, hi, bin_count)[0]
    return Histogram(bin_count, lo, hi, counts, int(values.size), degenerate=lo == hi)


def _entropy_p(p: np.ndarray) -> float:
    nz = p[p > 0]
    h = float(-(nz * np.log2(nz)).sum())
    return h if h > 0.0 else 0.0


def row_entropy(counts: np.ndarray) -> np.ndarray:
    """Plug-in entropy in bits of each row of (rows, bins) counts, bit for
    bit the row's own -sum(p * log2(p)) over its nonzero shares (-0.0 for a
    row with one nonzero bin). Summing a row with its zeros groups the terms
    differently, so rows are sorted by nonzero count k and the nonzero terms
    of each group are summed as one (rows, k) block.
    """
    width = np.count_nonzero(counts, axis=1)
    order = np.argsort(width, kind="stable")
    p = counts[order] / counts.sum(axis=1, keepdims=True)[order]
    nz = p[p > 0]
    terms = nz * np.log2(nz)
    h = np.empty(len(p))
    widths, starts = np.unique(width[order], return_index=True)
    at = 0
    for k, lo, hi in zip(widths, starts, [*starts[1:], len(p)]):
        h[order[lo:hi]] = -terms[at:at + (hi - lo) * k].reshape(hi - lo, k).sum(axis=1)
        at += (hi - lo) * k
    return h


def entropy(hist: Histogram) -> float:
    """Shannon entropy of the histogram in bits, in [0, log2(bin_count)]."""
    if hist.total <= 0:
        raise ValueError("histogram has no counts")
    return _entropy_p(hist.counts / hist.total)


@dataclass(frozen=True)
class LabelSpace:
    class_count: int
    priors: np.ndarray  # float64, nonnegative, sums to 1 within 1e-9

    def __post_init__(self):
        p = np.asarray(self.priors, dtype=np.float64)
        if len(p) != self.class_count:
            raise ValueError(f"{len(p)} priors for {self.class_count} classes")
        if (p < 0).any() or abs(p.sum() - 1.0) > 1e-9:
            raise ValueError("priors must be nonnegative and sum to 1 within 1e-9")
        object.__setattr__(self, "priors", p)


def conditional_entropy(per_class_samples: dict, labels: LabelSpace,
                        bin_count: int = 256, range_mode="minmax") -> float:
    """Plug-in H(Y|C) = sum_j p(c_j) * H(class-j histogram), shared bins.

    per_class_samples maps class index -> sample sequence; every class with a
    positive prior must have samples. range_mode "minmax" resolves to the
    pooled min/max so all classes share one bin grid.
    """
    groups = {}
    for j in range(labels.class_count):
        s = np.asarray(per_class_samples.get(j, ()), dtype=np.float64).ravel()
        if s.size == 0 and labels.priors[j] > 0:
            raise ValueError(f"class {j} has no samples")
        groups[j] = s
    if isinstance(range_mode, str):
        pooled = np.concatenate([s for s in groups.values() if s.size])
        _require_finite(pooled)  # a NaN range would fail as a bad range instead
        shared = _resolve_range(pooled, range_mode)
        if shared[0] == shared[1]:
            return 0.0  # every sample identical: all class histograms degenerate
    else:
        shared = (float(range_mode[0]), float(range_mode[1]))
        if not shared[0] < shared[1]:
            raise ValueError(f"fixed range needs lo < hi, got {shared}")
    h = 0.0
    for j in range(labels.class_count):
        if labels.priors[j] > 0:
            h += labels.priors[j] * entropy(make_histogram(groups[j], bin_count, shared))
    return float(h)


def mutual_information(joint_counts) -> float:
    """I(Y;C) from an M x K contingency table (rows Y, columns C), in bits.

    Computed once, as H(Y) - H(Y|C); the tests check it against the reverse
    form H(C) - H(C|Y). Clamped at 0 from below.
    """
    table = np.asarray(joint_counts, dtype=np.float64)
    if table.ndim != 2:
        raise ValueError(f"contingency table must be 2-D, got shape {table.shape}")
    if (table < 0).any():
        raise ValueError("contingency table entries must be nonnegative")
    total = table.sum()
    if total <= 0:
        raise ValueError("contingency table is all-zero")
    p = table / total
    col = p.sum(axis=0)  # C marginal
    h_y_given_c = sum(col[k] * _entropy_p(p[:, k] / col[k]) for k in range(p.shape[1])
                      if col[k] > 0)
    mi = _entropy_p(p.sum(axis=1)) - h_y_given_c
    return float(mi) if mi > 0.0 else 0.0


@dataclass(frozen=True)
class CentVector:
    mode: str  # "per-filter" | "per-layer"
    values: np.ndarray  # float64 entropies in bits
    provenance: tuple  # (layer index, filter index or None) per entry
    bin_count: int

    def __post_init__(self):
        if self.mode not in ("per-filter", "per-layer"):
            raise ValueError(f"mode must be per-filter or per-layer, got {self.mode!r}")
        v = np.asarray(self.values, dtype=np.float64)
        if len(v) != len(self.provenance):
            raise ValueError("values and provenance lengths differ")
        top = math.log2(self.bin_count)
        if (v < -1e-9).any() or (v > top + 1e-9).any():
            raise ValueError(f"entropy values outside [0, log2({self.bin_count})]")
        object.__setattr__(self, "values", v)


def _split_filters(read_shape: tuple, mode: str) -> bool:
    """Whether each filter of a read point of this per-image shape gets a
    histogram of its own (per-filter mode, rank >= 2); otherwise the image's
    whole read point is one histogram."""
    return mode == "per-filter" and len(read_shape) >= 2


def histogram_sizes(read_shape: tuple, mode: str, bin_count: int) -> dict:
    """Sizes behind one read point's CENT values: histograms per image,
    values per histogram, samples per bin, and the entropy cap
    log2(min(values, bins)) in bits. A histogram of v values occupies at
    most v bins, so with few samples per bin the plug-in entropy is capped
    below log2(bins) and biased low (Paninski 2003)."""
    split = _split_filters(read_shape, mode)
    values = math.prod(read_shape[1:] if split else read_shape)
    return {"histograms_per_image": read_shape[0] if split else 1,
            "values_per_histogram": values, "samples_per_bin": values / bin_count,
            "entropy_cap_bits": math.log2(min(values, bin_count))}


def _require_finite_activations(activations, image_ids) -> None:
    """NonFiniteError naming the first NaN or infinite activation in
    extraction order: image, then read point, then filter."""
    if all(np.isfinite(a).all() for a in activations):
        return
    bad = [~np.isfinite(a.reshape(len(a), -1)) for a in activations]
    i = min(int(np.argmax(b.any(axis=1))) for b in bad if b.any())
    li = next(li for li, b in enumerate(bad) if b[i].any())
    row, shape = bad[li][i], activations[li].shape[1:]
    where = f"read point {li}"
    if len(shape) >= 2:
        where += f", filter {int(np.argmax(row)) // math.prod(shape[1:])}"
    name = image_ids[i] if image_ids is not None else f"image {i}"
    raise NonFiniteError(f"{name}: the first NaN or infinite activation is at {where} "
                         f"({int(row.sum())} of {row.size} values there are NaN or infinite)")


def cent_rows(activations, mode: str = "per-filter", bin_count: int = 256,
              range_mode="minmax", image_ids=None) -> np.ndarray:
    """(n, features) CENT values of n images from forward_collect's
    activations: one (n, *read_shape) array per read point, in read order.

    Per-filter mode gives each filter of a rank >= 2 read point (filters on
    read_shape's axis 0) a histogram of its own; per-layer mode, and every
    rank-1 read point, pools an image's whole read point. One bincount bins
    every histogram of a read point, and each value equals make_histogram
    plus entropy on that map alone, bit for bit. A NaN or infinite activation
    raises NonFiniteError naming its image (image_ids[i], else the index),
    read point and filter.
    """
    if mode not in ("per-filter", "per-layer"):
        raise ValueError(f"mode must be per-filter or per-layer, got {mode!r}")
    if bin_count < 2:
        raise ValueError(f"bin_count must be >= 2, got {bin_count}")
    _require_finite_activations(activations, image_ids)
    columns = []
    for act in activations:
        n, shape = len(act), act.shape[1:]
        rows = act.reshape(n * (shape[0] if _split_filters(shape, mode) else 1), -1)
        if isinstance(range_mode, str) and range_mode == "minmax":
            lo = rows.min(axis=1, keepdims=True).astype(np.float64)
            hi = rows.max(axis=1, keepdims=True).astype(np.float64)
        else:
            lo, hi = _resolve_range(rows, range_mode)  # a fixed pair, or a bad mode
        h = row_entropy(_bin_counts(rows, lo, hi, bin_count))
        columns.append(np.where(h > 0.0, h, 0.0).reshape(n, -1))  # as _entropy_p: no -0.0
    return np.concatenate(columns, axis=1)


def extract_cent_from_activations(activations, mode: str = "per-filter",
                                  bin_count: int = 256, range_mode="minmax") -> CentVector:
    """CENT vector from one image's layer activations in read order: the
    one-image case of cent_rows.

    Rank >= 2 arrays carry filters on axis 0: per-filter mode emits one entropy
    per filter, per-layer mode pools the whole layer. Rank-1 arrays (vector
    layers) contribute exactly one pooled value in both modes.
    """
    acts = [np.asarray(a)[None] for a in activations]
    values = cent_rows(acts, mode, bin_count, range_mode)[0]
    provenance = []
    for li, act in enumerate(acts):
        shape = act.shape[1:]
        provenance += ([(li, fi) for fi in range(shape[0])] if _split_filters(shape, mode)
                       else [(li, None)])
    return CentVector(mode, values, tuple(provenance), bin_count)


def extract_cent_features(net: Network, image: np.ndarray, mode: str = "per-filter",
                          bin_count: int = 256, range_mode="minmax",
                          pre_relu: bool = False) -> CentVector:
    """Run the network on one image and summarize each read point's responses.

    Reference 3D stack: 10 + 10 + 1 = 21 values per-filter, 1 + 1 + 1 = 3
    per-layer (the fully-connected layer pools to one value in both modes).
    """
    acts = forward_collect(net, image[None], pre_relu=pre_relu)
    return extract_cent_from_activations([a[0] for a in acts], mode, bin_count, range_mode)


@dataclass(frozen=True)
class FilterSelector:
    """Selects filters at one CENT read point; filters=None means all of them."""
    layer: int
    filters: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.layer < 0:
            raise ValueError("layer index must be >= 0")
        if self.filters is not None and len(self.filters) == 0:
            raise ValueError("filters tuple must be nonempty (or None for all)")


def _collect_filter_samples(activations, labels, selector: FilterSelector):
    """(filter ids, image-count LabelSpace, class ids, samples) of the selected
    read point, where activations are net.forward_collect's arrays for images
    with the given labels and samples(fi) -> {class: 1-D float64 values of
    filter fi}, converting one filter per call."""
    labels = np.asarray(labels, dtype=np.int64)
    if selector.layer >= len(activations):
        raise ValueError(f"selector layer {selector.layer} out of range "
                         f"(the activations hold {len(activations)} read points)")
    layer = np.asarray(activations[selector.layer])
    if len(layer) != len(labels):
        raise ValueError(f"{len(layer)} activation rows for {len(labels)} labels")
    available = layer.shape[1] if layer.ndim >= 3 else 1
    filter_ids = list(selector.filters) if selector.filters is not None else list(range(available))
    for fi in filter_ids:
        if not 0 <= fi < available:
            raise ValueError(f"filter {fi} out of range (layer has {available})")
    classes = [int(c) for c in np.unique(labels)]
    masks = [labels == c for c in classes]

    def samples(fi: int) -> dict:
        vals = layer[:, fi] if layer.ndim >= 3 else layer
        return {c: vals[m].astype(np.float64).ravel() for c, m in zip(classes, masks)}

    counts = np.array([m.sum() for m in masks], dtype=np.float64)
    return filter_ids, LabelSpace(len(classes), counts / counts.sum()), classes, samples


def _shared_filter_range(samples_by_class: dict) -> tuple[float, float]:
    pooled = np.concatenate(list(samples_by_class.values()))
    _require_finite(pooled)  # a NaN range would fail as a bad range instead
    lo, hi = float(pooled.min()), float(pooled.max())
    if lo == hi:
        hi = lo + 1.0  # constant filter: any shared grid gives 0-bit entropies
    return lo, hi


def expected_cent(activations, labels, selector: FilterSelector,
                  bin_count: int = 256) -> float:
    """Class-conditioned expected entropy over the selected filters.

    For each filter, class-conditional entropies use a shared fixed range
    (global min/max over the dataset) and empirical class priors; filters are
    weighted uniformly. Images contribute equally many values, so priors by
    image count equal priors by value count and the result is bounded above
    by pooled_unconditional_entropy (plug-in concavity). Arguments as in
    _collect_filter_samples.
    """
    filter_ids, space, classes, samples = _collect_filter_samples(activations, labels, selector)
    total = 0.0
    for fi in filter_ids:
        by_class = samples(fi)
        per_class = {j: by_class[c] for j, c in enumerate(classes)}
        total += conditional_entropy(per_class, space, bin_count, _shared_filter_range(by_class))
    return float(total / len(filter_ids))


def pooled_unconditional_entropy(activations, labels, selector: FilterSelector,
                                 bin_count: int = 256) -> float:
    """Unconditioned counterpart of expected_cent: pooled entropy per filter,
    same shared ranges, uniform filter weighting."""
    filter_ids, _, _, samples = _collect_filter_samples(activations, labels, selector)
    total = 0.0
    for fi in filter_ids:
        by_class = samples(fi)
        pooled = np.concatenate(list(by_class.values()))
        total += entropy(make_histogram(pooled, bin_count, _shared_filter_range(by_class)))
    return float(total / len(filter_ids))


@dataclass(frozen=True)
class PartitionReport:
    h_informative: float      # H(Y | C', F)
    h_uninformative: float    # H(Y | C'', F)
    decomposition_residual: float
    inequality_holds: bool    # h_informative < h_uninformative as given
    p_informative: float
    p_uninformative: float
    h_conditional: float      # H(Y | C, F) over all classes
    partition: tuple = field(default=((), ()))


def partition_check(activations, labels, selector: FilterSelector,
                    partition: tuple, bin_count: int = 256) -> PartitionReport:
    """Binary class-partition decomposition for one filter.

    Verifies H(Y|C,F) = p(C')H(Y|C',F) + p(C'')H(Y|C'',F) with shared binning
    and reports whether H(Y|C',F) < H(Y|C'',F) for the partition as given.
    The direction is reported, never assumed.
    """
    if selector.filters is None or len(selector.filters) != 1:
        raise ValueError("partition_check needs a selector naming exactly one filter")
    part_a, part_b = tuple(partition[0]), tuple(partition[1])
    if not part_a or not part_b:
        raise ValueError("both partition sides must be nonempty")
    if set(part_a) & set(part_b):
        raise ValueError("partition sides must be disjoint")

    filter_ids, space, classes, samples = _collect_filter_samples(activations, labels, selector)
    if set(part_a) | set(part_b) != set(classes):
        raise ValueError(f"partition {partition} does not cover the classes {classes}")
    by_class = samples(filter_ids[0])
    shared = _shared_filter_range(by_class)
    class_h = {c: entropy(make_histogram(by_class[c], bin_count, shared)) for c in classes}
    prior = {c: space.priors[j] for j, c in enumerate(classes)}

    def side(members):
        p = sum(prior[c] for c in members)
        h = sum(prior[c] * class_h[c] for c in members) / p
        return p, h

    p_a, h_a = side(part_a)
    p_b, h_b = side(part_b)
    h_all = sum(prior[c] * class_h[c] for c in classes)
    residual = abs(h_all - (p_a * h_a + p_b * h_b))
    return PartitionReport(float(h_a), float(h_b), float(residual), bool(h_a < h_b),
                           float(p_a), float(p_b), float(h_all), (part_a, part_b))


def contingency_table(a, b) -> np.ndarray:
    """Joint count table of two integer-coded sequences (rows: a, cols: b)."""
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    if a.size != b.size or a.size == 0:
        raise ValueError("sequences must be nonempty and equal length")
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    rows, cols = ai.max() + 1, bi.max() + 1
    return np.bincount(ai * cols + bi, minlength=rows * cols).reshape(rows, cols)


@dataclass(frozen=True)
class DpiReport:
    i_xc: float  # I(X;C)
    i_yc: float  # I(Y;C)
    holds: bool
    slack: float


def dpi_check(chain, slack: float = 0.02) -> DpiReport:
    """Data-processing inequality on samples from a chain X -> Y -> C.

    `chain` carries integer-coded .x, .y, .c arrays. Plug-in MI from
    contingency tables; holds = I(Y;C) <= I(X;C) + slack.
    """
    i_xc = mutual_information(contingency_table(chain.x, chain.c))
    i_yc = mutual_information(contingency_table(chain.y, chain.c))
    return DpiReport(float(i_xc), float(i_yc), bool(i_yc <= i_xc + slack), slack)
