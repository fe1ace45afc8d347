"""Histogram entropy estimation, CENT feature extraction, and the executable
information-theoretic checks (conditioning reduction, partition decomposition,
data-processing inequality).

All entropies are plug-in estimates in bits (log base 2), 0*log(0) := 0.
check_binning checks every bin count and range, filter_maps lays out every
read point, and _bin_rows bins every histogram within the scratch budget.
cent_rows (extract's CENT path) gives each row a histogram of its own,
class_tables adds a filter's rows into one histogram per class (one call per
filter), and the theory checks read its tables without binning. Their
plug-in H(Y|C) uses shared fixed-range binning: with priors taken
proportional to sample counts, it then never exceeds the pooled entropy
(exact concavity at the estimator level), which is what the conditioning
checks rely on.
make_histogram and extract_cent_features stay only as names the benchmark's
tracer wraps; no pipeline path calls them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import ops
from .net import Network, forward_collect
from .ops import NonFiniteError, first_nonfinite

def check_binning(bin_count: int, range_mode="minmax") -> tuple[float, float] | None:
    """ValueError unless 2 <= bin_count <= ops._SCRATCH_ELEMENTS (one
    histogram's counts within the scratch budget) and range_mode is
    "minmax" or a (lo, hi) pair with lo < hi and a finite width hi - lo
    (so both ends finite); the CLI checks its options with it. Returns the
    fixed (lo, hi) as floats, or None for "minmax"."""
    if not 2 <= bin_count <= ops._SCRATCH_ELEMENTS:
        raise ValueError(f"bin_count must be in [2, {ops._SCRATCH_ELEMENTS}], got {bin_count}")
    if isinstance(range_mode, str):
        if range_mode != "minmax":
            raise ValueError(f"range_mode must be 'minmax' or (lo, hi), got {range_mode!r}")
        return None
    lo, hi = float(range_mode[0]), float(range_mode[1])
    if not (math.isfinite(hi - lo) and lo < hi):
        raise ValueError(f"fixed range needs finite lo < hi and hi - lo, got ({lo}, {hi})")
    return lo, hi


def _require_finite(values: np.ndarray) -> None:
    if first_nonfinite(values) is not None:
        bad = values.size - np.count_nonzero(np.isfinite(values))
        raise NonFiniteError(f"{bad} of {values.size} samples are NaN or infinite")


@dataclass(frozen=True)
class Histogram:
    bin_count: int
    lo: float
    hi: float
    counts: np.ndarray  # int64, length bin_count
    total: int
    degenerate: bool = False  # constant samples: single loaded bin, lo == hi


def _bin_rows(rows: np.ndarray, bin_count: int, span=None, group=None,
              groups: int = 0) -> np.ndarray:
    """int64 equal-width bin counts of the (count, values) rows: a value v
    falls in bin floor((v - lo) / (hi - lo) * bin_count), outliers clip into
    the edge bins and hi into the last bin, and where lo == hi every value
    loads bin 0. [lo, hi] is the fixed span for every row, or with span None
    each row's own [min, max]. The result holds a row of counts per row, or
    with group given, groups rows where row i adds to row group[i]. The rows
    are binned in ops._row_parts parts, one bincount a part, and a row
    longer than the budget in pieces whose counts add.
    """
    counts = np.zeros((len(rows) if group is None else groups, bin_count), np.int64)
    for part in ops._row_parts(*rows.shape):
        block = rows[part]
        if span is None:
            lo = block.min(axis=1, keepdims=True).astype(np.float64)
            hi = block.max(axis=1, keepdims=True).astype(np.float64)
        else:
            lo, hi = span
        into, key = ((counts[part], np.arange(len(block))) if group is None
                     else (counts, group[part]))
        for cols in ops._row_parts(rows.shape[1], len(block)):
            x = block[:, cols].astype(np.float64)  # a copy, worked on in place
            np.clip(x, lo, hi, out=x)
            x -= lo
            x /= np.where(hi > lo, hi - lo, 1.0)
            x *= bin_count
            np.floor(x, out=x)
            idx = x.astype(np.int64)
            del x
            np.clip(idx, 0, bin_count - 1, out=idx)
            idx += key[:, None] * bin_count
            into += np.bincount(idx.ravel(), minlength=into.size).reshape(into.shape)
            del idx  # the next piece's copy is made without this one
    return counts


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
    lo, hi = check_binning(bin_count, range_mode) or (float(values.min()), float(values.max()))
    counts = _bin_rows(values[None], bin_count, (lo, hi))[0]
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


def filter_maps(read_shape: tuple, mode: str) -> tuple[int, int]:
    """(maps per image, values per map) of a read point of this per-image
    shape: in per-filter mode each filter (axis 0) of a rank >= 2 read point
    is a map of its own; otherwise the image's whole read point is one map.
    Each map is one histogram of a CENT value or one filter of the theory's
    class tables."""
    if mode == "per-filter" and len(read_shape) >= 2:
        return read_shape[0], math.prod(read_shape[1:])
    return 1, math.prod(read_shape)


def histogram_sizes(read_shape: tuple, mode: str, bin_count: int) -> dict:
    """Sizes behind one read point's CENT values: histograms per image,
    values per histogram, samples per bin, and the entropy cap
    log2(min(values, bins)) in bits. A histogram of v values occupies at
    most v bins, so with few samples per bin the plug-in entropy is capped
    below log2(bins) and biased low (Paninski 2003)."""
    maps, values = filter_maps(read_shape, mode)
    return {"histograms_per_image": maps, "values_per_histogram": values,
            "samples_per_bin": values / bin_count,
            "entropy_cap_bits": math.log2(min(values, bin_count))}


def _require_finite_activations(activations, image_ids) -> None:
    """NonFiniteError naming the first NaN or infinite activation in
    extraction order: image, then read point, then filter."""
    bad = [(first[0], li, first) for li, first in enumerate(map(first_nonfinite, activations))
           if first is not None]
    if not bad:
        return
    i, li, first = min(bad)
    values = activations[li][i]
    where = f"read point {li}" + (f", filter {first[1]}" if values.ndim >= 2 else "")
    name = image_ids[i] if image_ids is not None else f"image {i}"
    raise NonFiniteError(f"{name}: the first NaN or infinite activation is at {where} ("
                         f"{values.size - np.count_nonzero(np.isfinite(values))} of {values.size}"
                         " values there are NaN or infinite)")


def cent_rows(activations, mode: str = "per-filter", bin_count: int = 256,
              range_mode="minmax", image_ids=None) -> np.ndarray:
    """(n, features) CENT values of n images from forward_collect's
    activations: one (n, *read_shape) array per read point, in read order.

    Per-filter mode gives each filter of a rank >= 2 read point (filters on
    read_shape's axis 0) a histogram of its own; per-layer mode, and every
    rank-1 read point, pools an image's whole read point. Each value is the
    plug-in -sum(p * log2(p)) of that map's own histogram, bit for bit,
    however the rows are cut to the scratch budget. A NaN or infinite
    activation raises NonFiniteError naming its image (image_ids[i], else the
    index), read point and filter.
    """
    if mode not in ("per-filter", "per-layer"):
        raise ValueError(f"mode must be per-filter or per-layer, got {mode!r}")
    span = check_binning(bin_count, range_mode)
    _require_finite_activations(activations, image_ids)
    columns = []
    for act in activations:
        rows = act.reshape(-1, filter_maps(act.shape[1:], mode)[1])
        h = row_entropy(_bin_rows(rows, bin_count, span))
        columns.append(np.where(h > 0.0, h, 0.0).reshape(len(act), -1))  # as _entropy_p: no -0.0
    return np.concatenate(columns, axis=1)


def extract_cent_features(net: Network, image: np.ndarray, mode: str = "per-filter",
                          bin_count: int = 256, range_mode="minmax",
                          pre_relu: bool = False) -> np.ndarray:
    """One image's cent_rows row, kept as a name the benchmark's tracer wraps."""
    return cent_rows(forward_collect(net, image[None], pre_relu=pre_relu), mode, bin_count,
                     range_mode)[0]


class ClassTables(NamedTuple):
    """class_tables' result: the class ids in order, their image-count
    priors, and the (filters, classes, bin_count) int64 count tables of the
    read point's filters in order."""
    classes: list[int]
    priors: np.ndarray
    counts: np.ndarray


def class_tables(activations, labels, layer: int, bin_count: int) -> ClassTables:
    """The class tables of every filter of read point `layer` (a rank-1 read
    point is one filter), where activations are net.forward_collect's arrays
    for images with the given labels. Each filter is binned once, in one
    call, over its dataset-wide [min, max] ([lo, lo + 1] for a constant
    filter: any shared grid gives it 0-bit entropies); a NaN or infinite
    value raises NonFiniteError before its filter is binned. expected_cent,
    pooled_unconditional_entropy and partition_check read the result and bin
    nothing."""
    check_binning(bin_count)
    labels = np.asarray(labels, dtype=np.int64)
    if not 0 <= layer < len(activations):
        raise ValueError(f"layer {layer} out of range "
                         f"(the activations hold {len(activations)} read points)")
    acts = np.asarray(activations[layer])
    if len(acts) != len(labels):
        raise ValueError(f"{len(acts)} activation rows for {len(labels)} labels")
    maps = acts.reshape(len(acts), *filter_maps(acts.shape[1:], "per-filter"))
    classes, group = np.unique(labels, return_inverse=True)
    counts = []
    for vals in maps.swapaxes(0, 1):  # each filter's (images, values)
        lo, hi = float(vals.min()), float(vals.max())
        if not (math.isfinite(lo) and math.isfinite(hi)):
            _require_finite(vals)  # a NaN range would fail as a bad range instead
        counts.append(_bin_rows(vals, bin_count, (lo, hi if lo < hi else lo + 1.0),
                                group, len(classes)))
    images = np.bincount(group).astype(np.float64)
    return ClassTables([int(c) for c in classes], images / images.sum(), np.stack(counts))


def expected_cent(tables: ClassTables) -> float:
    """Class-conditioned expected entropy over the tables' filters.

    For each filter, the prior-weighted sum of its class rows' entropies;
    filters are weighted uniformly. Images contribute equally many values,
    so priors by image count equal priors by value count and the result is
    bounded above by pooled_unconditional_entropy (plug-in concavity on the
    shared grid).
    """
    filters, classes, bins = tables.counts.shape
    class_h = row_entropy(tables.counts.reshape(-1, bins)).reshape(filters, classes)
    return float(sum(sum(p * x for p, x in zip(tables.priors, row)) for row in class_h) / filters)


def pooled_unconditional_entropy(tables: ClassTables) -> float:
    """Unconditioned counterpart of expected_cent: the entropy of each
    filter's table summed over its classes, uniform filter weighting."""
    h = row_entropy(tables.counts.sum(axis=1))
    return float(sum(h) / len(h))


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


def partition_check(tables: ClassTables, filter_id: int, partition: tuple) -> PartitionReport:
    """Binary class-partition decomposition for one filter of the tables.

    Verifies H(Y|C,F) = p(C')H(Y|C',F) + p(C'')H(Y|C'',F) on the filter's
    class table and reports whether H(Y|C',F) < H(Y|C'',F) for the partition
    as given. The direction is reported, never assumed.
    """
    if not 0 <= filter_id < len(tables.counts):
        raise ValueError(f"filter {filter_id} out of range "
                         f"(the tables hold {len(tables.counts)} filters)")
    part_a, part_b = tuple(partition[0]), tuple(partition[1])
    if not part_a or not part_b:
        raise ValueError("both partition sides must be nonempty")
    if set(part_a) & set(part_b):
        raise ValueError("partition sides must be disjoint")

    classes, priors = tables.classes, tables.priors
    table = tables.counts[filter_id]
    if set(part_a) | set(part_b) != set(classes):
        raise ValueError(f"partition {partition} does not cover the classes {classes}")
    class_h = dict(zip(classes, row_entropy(table)))
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
