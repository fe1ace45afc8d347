"""Histogram entropy estimation, CENT feature extraction, and the executable
information-theoretic checks (conditioning reduction, partition decomposition,
data-processing inequality).

All entropies are plug-in estimates in bits (log base 2), 0*log(0) := 0.
check_binning checks every bin count and range, and _bin_counts bins every
histogram: it takes a group key per value and fills one histogram per group
in one bincount. cent_rows (extract's CENT path) groups by histogram row, the
theory checks by class (one call per filter). Their plug-in H(Y|C) uses shared
fixed-range binning: with priors taken proportional to sample counts, it then
never exceeds the pooled entropy (exact concavity at the estimator level),
which is what the conditioning checks rely on.
make_histogram and extract_cent_features stay only as names the benchmark's
tracer wraps; no pipeline path calls them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import ops
from .net import Network, forward_collect

def check_binning(bin_count: int, range_mode="minmax") -> None:
    """ValueError unless 2 <= bin_count <= ops._SCRATCH_ELEMENTS (one
    histogram's counts within the scratch budget) and range_mode is
    "minmax" or a finite (lo, hi) pair with lo < hi; the CLI checks its
    options with it."""
    if not 2 <= bin_count <= ops._SCRATCH_ELEMENTS:
        raise ValueError(f"bin_count must be in [2, {ops._SCRATCH_ELEMENTS}], got {bin_count}")
    if isinstance(range_mode, str):
        if range_mode != "minmax":
            raise ValueError(f"range_mode must be 'minmax' or (lo, hi), got {range_mode!r}")
        return
    lo, hi = float(range_mode[0]), float(range_mode[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"fixed range needs finite lo < hi, got ({lo}, {hi})")


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


def _bin_counts(values: np.ndarray, lo, hi, bin_count: int, group=0,
                groups: int = 1) -> np.ndarray:
    """(groups, bin_count) int64 equal-width bin counts over [lo, hi]: value
    v falls in bin floor((v - lo) / (hi - lo) * bin_count) of histogram
    group, where lo, hi and group are scalars or arrays broadcast against
    values. Outliers clip into the edge bins and hi into the last bin; where
    lo == hi every value loads bin 0. One bincount bins every histogram.
    """
    x = values.astype(np.float64)  # a copy, worked on in place
    np.clip(x, lo, hi, out=x)
    x -= lo
    x /= np.where(hi > lo, hi - lo, 1.0)
    x *= bin_count
    np.floor(x, out=x)
    idx = x.astype(np.int64)
    del x
    np.clip(idx, 0, bin_count - 1, out=idx)
    idx += np.asarray(group) * bin_count
    return np.bincount(idx.ravel(), minlength=groups * bin_count).reshape(groups, bin_count)


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
    _require_finite(values)
    check_binning(bin_count, range_mode)
    if isinstance(range_mode, str):  # "minmax"
        lo, hi = float(values.min()), float(values.max())
    else:
        lo, hi = float(range_mode[0]), float(range_mode[1])
    counts = _bin_counts(values, lo, hi, bin_count)[0]
    return Histogram(bin_count, lo, hi, counts, int(values.size), degenerate=lo == hi)


def _entropy_p(p: np.ndarray) -> float:
    nz = p[p > 0]
    h = float(-(nz * np.log2(nz)).sum())
    return h if h > 0.0 else 0.0


def _counts_entropy(counts: np.ndarray) -> float:
    """Plug-in entropy in bits of one histogram's counts."""
    return _entropy_p(counts / counts.sum())


def _prior_weighted_entropy(table: np.ndarray, priors) -> float:
    """sum_j priors[j] * H(row j) of a (classes, bins) count table, summed in
    class order from 0.0 over the positive priors only."""
    h = 0.0
    for p, row in zip(priors, table):
        if p > 0:
            h += p * _counts_entropy(row)
    return float(h)


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
    rank-1 read point, pools an image's whole read point. The rows are
    binned in blocks of at most ops._SCRATCH_ELEMENTS values (whole rows, or
    pieces of one longer row, whose integer counts are added), so the
    temporaries stay within the budget, and each value equals the plug-in
    -sum(p * log2(p)) of that map's own histogram, bit for bit. A NaN or
    infinite activation raises NonFiniteError naming its image (image_ids[i],
    else the index), read point and filter.
    """
    if mode not in ("per-filter", "per-layer"):
        raise ValueError(f"mode must be per-filter or per-layer, got {mode!r}")
    check_binning(bin_count, range_mode)
    _require_finite_activations(activations, image_ids)
    columns = []
    for act in activations:
        n, shape = len(act), act.shape[1:]
        rows = act.reshape(n * (shape[0] if _split_filters(shape, mode) else 1), -1)
        counts = np.zeros((len(rows), bin_count), np.int64)
        for part in ops._row_parts(*rows.shape):
            block = rows[part]
            if isinstance(range_mode, str):  # "minmax"
                lo = block.min(axis=1, keepdims=True).astype(np.float64)
                hi = block.max(axis=1, keepdims=True).astype(np.float64)
            else:
                lo, hi = float(range_mode[0]), float(range_mode[1])
            # a row longer than the budget is binned in pieces, its counts added
            for cols in ops._row_parts(rows.shape[1], len(block)):
                counts[part] += _bin_counts(block[:, cols], lo, hi, bin_count,
                                            np.arange(len(block))[:, None], len(block))
        h = row_entropy(counts)
        columns.append(np.where(h > 0.0, h, 0.0).reshape(n, -1))  # as _entropy_p: no -0.0
    return np.concatenate(columns, axis=1)


def extract_cent_features(net: Network, image: np.ndarray, mode: str = "per-filter",
                          bin_count: int = 256, range_mode="minmax",
                          pre_relu: bool = False) -> np.ndarray:
    """One image's cent_rows row, kept as a name the benchmark's tracer wraps."""
    return cent_rows(forward_collect(net, image[None], pre_relu=pre_relu), mode, bin_count,
                     range_mode)[0]


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


def _class_tables(activations, labels, selector: FilterSelector, bin_count: int):
    """(class ids, image-count priors, tables) of the selected read point,
    where activations are net.forward_collect's arrays for images with the
    given labels. tables holds one (classes, bin_count) count table per
    selected filter, binned in one call over that filter's dataset-wide
    [min, max] ([lo, lo + 1] for a constant filter: any shared grid gives it
    0-bit entropies)."""
    check_binning(bin_count)
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
    classes, group = np.unique(labels, return_inverse=True)
    tables = []
    for fi in filter_ids:
        vals = (layer[:, fi] if layer.ndim >= 3 else layer).reshape(len(layer), -1)
        _require_finite(vals)  # a NaN range would fail as a bad range instead
        lo, hi = float(vals.min()), float(vals.max())
        tables.append(_bin_counts(vals, lo, hi if lo < hi else lo + 1.0, bin_count,
                                  group[:, None], len(classes)))
    counts = np.bincount(group).astype(np.float64)
    return [int(c) for c in classes], counts / counts.sum(), tables


def expected_cent(activations, labels, selector: FilterSelector,
                  bin_count: int = 256) -> float:
    """Class-conditioned expected entropy over the selected filters.

    For each filter, class-conditional entropies use a shared fixed range
    (global min/max over the dataset) and empirical class priors; filters are
    weighted uniformly. Images contribute equally many values, so priors by
    image count equal priors by value count and the result is bounded above
    by pooled_unconditional_entropy (plug-in concavity). Arguments as in
    _class_tables.
    """
    _, priors, tables = _class_tables(activations, labels, selector, bin_count)
    total = 0.0
    for table in tables:
        total += _prior_weighted_entropy(table, priors)
    return float(total / len(tables))


def pooled_unconditional_entropy(activations, labels, selector: FilterSelector,
                                 bin_count: int = 256) -> float:
    """Unconditioned counterpart of expected_cent: pooled entropy per filter,
    same shared ranges, uniform filter weighting."""
    _, _, tables = _class_tables(activations, labels, selector, bin_count)
    total = 0.0
    for table in tables:
        total += _counts_entropy(table.sum(axis=0))
    return float(total / len(tables))


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

    classes, priors, (table,) = _class_tables(activations, labels, selector, bin_count)
    if set(part_a) | set(part_b) != set(classes):
        raise ValueError(f"partition {partition} does not cover the classes {classes}")
    class_h = {c: _counts_entropy(row) for c, row in zip(classes, table)}
    prior = dict(zip(classes, priors))

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


def _dense_codes(codes: np.ndarray) -> np.ndarray:
    """Each code's rank among the distinct codes, np.unique's inverse. Integer
    codes spanning at most their own count are ranked by one bincount over
    code minus minimum, without np.unique's sort."""
    if codes.dtype.kind not in "iu" or int(codes.max()) - int(codes.min()) >= codes.size:
        return np.unique(codes, return_inverse=True)[1]
    # int64 arithmetic wraps, so the offsets are exact even for uint64 codes
    offsets = codes.astype(np.int64) - codes.min().astype(np.int64)
    return (np.cumsum(np.bincount(offsets) > 0) - 1)[offsets]


def contingency_table(a, b) -> np.ndarray:
    """Joint count table of two integer-coded sequences (rows: a, cols: b)."""
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    if a.size != b.size or a.size == 0:
        raise ValueError("sequences must be nonempty and equal length")
    ai, bi = _dense_codes(a), _dense_codes(b)
    rows, cols = ai.max() + 1, bi.max() + 1
    return np.bincount(ai * cols + bi, minlength=rows * cols).reshape(rows, cols)


@dataclass(frozen=True)
class DpiReport:
    i_xc: float  # I(X;C)
    i_yc: float  # I(Y;C)
    holds: bool
    slack: float


def check_slack(slack: float) -> None:
    """Refuse a DPI slack that is not a finite number (ValueError)."""
    if not math.isfinite(slack):
        raise ValueError(f"slack must be finite, got {slack}")


def dpi_check(chain, slack: float = 0.02) -> DpiReport:
    """Data-processing inequality on samples from a chain X -> Y -> C.

    `chain` carries integer-coded .x, .y, .c arrays. Plug-in MI from
    contingency tables; holds = I(Y;C) <= I(X;C) + slack, a finite number.
    """
    check_slack(slack)
    i_xc = mutual_information(contingency_table(chain.x, chain.c))
    i_yc = mutual_information(contingency_table(chain.y, chain.c))
    return DpiReport(float(i_xc), float(i_yc), bool(i_yc <= i_xc + slack), slack)
