"""Histogram entropy estimators, CENT extraction, and inequality checks."""

import math
import sys
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from centpipe import infotheory as it
from centpipe import net, ops
from centpipe.infotheory import (NonFiniteError, class_tables, contingency_table, dpi_check,
                                 expected_cent, make_histogram,
                                 mutual_information, partition_check,
                                 pooled_unconditional_entropy)

from conftest import small_dataset, traced_peak
from reference_stats import mutual_information_double_sum, plugin_entropy


# --- histograms ---

def test_histogram_constant_is_degenerate():
    h = make_histogram(np.full(50, 3.25))
    assert h.degenerate
    assert h.total == 50
    assert h.counts.sum() == 50 and (h.counts > 0).sum() == 1
    assert _cent([np.full(50, 3.25)]).tolist() == [0.0]


def test_histogram_two_values_two_bins():
    h = make_histogram(np.array([0.0, 1.0]), bin_count=2)
    assert list(h.counts) == [1, 1]
    assert _cent([np.array([0.0, 1.0])], bins=2).tolist() == [1.0]


def test_histogram_upper_edge_and_clipping():
    h = make_histogram(np.array([0.0, 1.0, 1.5, -0.5]), bin_count=4, range_mode=(0.0, 1.0))
    # 1.0 belongs to the last bin; out-of-range values clip inward
    assert h.counts[3] == 2 and h.counts[0] == 2


def test_histogram_uniform_counts_within_multinomial_bounds():
    n, bins = 10000, 256
    samples = np.random.default_rng(0).uniform(0.0, 1.0, n)
    h = make_histogram(samples, bins, range_mode=(0.0, 1.0))
    mean = n / bins
    sigma = math.sqrt(n * (1 / bins) * (1 - 1 / bins))
    assert h.counts.min() >= mean - 5 * sigma
    assert h.counts.max() <= mean + 5 * sigma


def test_histogram_contract_errors():
    with pytest.raises(ValueError):
        make_histogram(np.array([]))
    with pytest.raises(ValueError):
        make_histogram(np.array([1.0]), bin_count=1)
    with pytest.raises(ValueError):
        make_histogram(np.array([1.0]), range_mode=(2.0, 2.0))


_BOUNDS = (st.floats(-1e6, 1e6) | st.sampled_from([np.nan, np.inf, -np.inf])
           | st.sampled_from([-1e308, 1e308, -sys.float_info.max, sys.float_info.max]))


@settings(max_examples=100, deadline=None)
@example(-1e308, 1e308)
@given(_BOUNDS, _BOUNDS)
def test_fixed_range_must_be_finite_and_increasing_on_every_path(lo, hi):
    """make_histogram, check_binning (the CLI's check) and cent_rows take a
    fixed (lo, hi) range exactly when lo < hi and the width hi - lo is
    finite, which needs both ends finite: (-1e308, 1e308) is refused."""
    values = np.array([0.0, 1.0, 2.0, 3.0])
    paths = [lambda: make_histogram(values, 4, (lo, hi)),
             lambda: it.check_binning(4, (lo, hi)),
             lambda: it.cent_rows([values.reshape(1, 1, 4)], "per-filter", 4, (lo, hi))]
    for path in paths:
        if math.isfinite(hi - lo) and lo < hi:
            path()
        else:
            with pytest.raises(ValueError, match="fixed range needs finite lo < hi"):
                path()


def test_bin_count_is_capped_at_the_scratch_budget():
    """check_binning takes 131072 bins, one histogram's counts within the
    2^17-element scratch budget, and refuses one more by name."""
    it.check_binning(131072)
    with pytest.raises(ValueError, match="bin_count must be in"):
        it.check_binning(131073)


# --- entropy ---

@given(st.integers(1, 40), st.data())
def test_histogram_rejects_non_finite_anywhere(size, data):
    values = np.linspace(-1.0, 1.0, size)
    bad = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    values[data.draw(st.integers(0, size - 1))] = bad
    range_mode = data.draw(st.sampled_from(["minmax", (-1.0, 1.0)]))
    with pytest.raises(NonFiniteError, match=f"1 of {size} samples"):
        make_histogram(values, 8, range_mode)


def test_non_finite_is_named_and_not_a_value_error():
    assert not issubclass(NonFiniteError, ValueError)
    values = np.array([0.0, np.nan, 1.0, np.inf, -np.inf, 2.0])
    with pytest.raises(NonFiniteError, match="3 of 6 samples"):
        make_histogram(values)
    layer = np.zeros((2, 4, 4))
    layer[1, 2, 3] = np.nan
    for mode in ("per-filter", "per-layer"):
        with pytest.raises(NonFiniteError):
            _cent([layer], mode)


def test_entropy_uniform_four_bins():
    h = _cent([np.array([0.0, 1.0, 2.0, 3.0])], bins=4, range_mode=(0.0, 4.0))[0]
    assert abs(h - 2.0) < 1e-12


def test_entropy_examples():
    assert _cent([np.zeros(7)], bins=4, range_mode=(0.0, 4.0)).tolist() == [0.0]
    # counts (2,1,1): H = 0.5*1 + 0.25*2 + 0.25*2 = 1.5
    h = _cent([np.array([0.0, 0.0, 1.0, 2.0])], bins=4, range_mode=(0.0, 4.0))[0]
    assert abs(h - 1.5) < 1e-12


# --- conditional entropy: one value per image, class j's values as its images ---

def _one_value_per_image(per_class):
    """(activations, labels) of a read point holding one value per image,
    with class j's values as the images of class j."""
    values = np.concatenate(per_class)
    return [values[:, None]], np.repeat(np.arange(len(per_class)), [len(v) for v in per_class])


def test_conditional_entropy_separated_constants():
    acts, labels = _one_value_per_image([np.zeros(100), np.ones(100)])
    tables = class_tables(acts, labels, 0, bin_count=2)
    assert expected_cent(tables) == 0.0
    # conditioning removed a full bit
    assert pooled_unconditional_entropy(tables) == 1.0


def test_conditional_entropy_identical_distributions():
    rng = np.random.default_rng(1)
    a, b = rng.normal(size=10000), rng.normal(size=10000)
    acts, labels = _one_value_per_image([a, b])
    tables = class_tables(acts, labels, 0, 256)
    cond = expected_cent(tables)
    pooled = pooled_unconditional_entropy(tables)
    assert abs(cond - pooled) < 0.05


def test_conditional_entropy_weighted_average():
    # class 0 uniform over 2 separated bins (1 bit), class 1 over 8 (3 bits)
    a = np.repeat([0.5, 4.5], 64)
    b = np.repeat(np.arange(8) + 0.5, 16)
    acts, labels = _one_value_per_image([a, b])
    cond = expected_cent(class_tables(acts, labels, 0, bin_count=8))
    assert abs(cond - 2.0) < 1e-12


def test_conditional_entropy_concavity_random_cases():
    """Plug-in conditioning never increases entropy when bins are shared."""
    rng = np.random.default_rng(7)
    for _ in range(50):
        k = int(rng.integers(2, 5))
        sizes = rng.integers(20, 200, size=k)
        per_class = [rng.normal(rng.uniform(-2, 2), rng.uniform(0.2, 2.0), sizes[j])
                     for j in range(k)]
        acts, labels = _one_value_per_image(per_class)
        tables = class_tables(acts, labels, 0, 64)
        cond = expected_cent(tables)
        pooled = pooled_unconditional_entropy(tables)
        assert cond <= pooled + 1e-9


# --- mutual information ---

def test_mutual_information_independent():
    assert mutual_information([[1, 1], [1, 1]]) == 0.0
    assert mutual_information([[2, 4], [1, 2]]) < 1e-12


def test_mutual_information_identity():
    assert abs(mutual_information([[5, 0], [0, 5]]) - 1.0) < 1e-12


def test_mutual_information_against_double_sum():
    table = [[4, 1], [1, 4]]
    assert abs(mutual_information(table) - mutual_information_double_sum(table)) < 1e-9


def test_mutual_information_random_tables():
    rng = np.random.default_rng(3)
    for _ in range(300):
        rows, cols = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        table = rng.integers(0, 50, size=(rows, cols))
        if table.sum() == 0:
            table[0, 0] = 1
        mi = mutual_information(table)
        assert abs(mi - mutual_information_double_sum(table)) < 1e-9
        p = table / table.sum()
        h_row = it._entropy_p(p.sum(axis=1))
        h_col = it._entropy_p(p.sum(axis=0))
        assert -1e-12 <= mi <= min(h_row, h_col) + 1e-9


@st.composite
def _contingency_tables(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cells = draw(st.lists(st.integers(0, 50), min_size=rows * cols, max_size=rows * cols))
    table = np.array(cells).reshape(rows, cols)
    table[draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))] += 1
    return table


@settings(max_examples=300, deadline=None)
@given(_contingency_tables())
def test_mutual_information_forward_and_reverse_forms_agree(table):
    p = table / table.sum()
    row, col = p.sum(axis=1), p.sum(axis=0)
    h_y_given_c = sum(col[k] * it._entropy_p(p[:, k] / col[k])
                      for k in range(p.shape[1]) if col[k] > 0)
    h_c_given_y = sum(row[m] * it._entropy_p(p[m, :] / row[m])
                      for m in range(p.shape[0]) if row[m] > 0)
    forward = it._entropy_p(row) - h_y_given_c  # H(Y) - H(Y|C)
    reverse = it._entropy_p(col) - h_c_given_y  # H(C) - H(C|Y)
    assert abs(forward - reverse) <= 1e-9
    assert mutual_information(table) == max(forward, 0.0)


def test_mutual_information_contract_errors():
    with pytest.raises(ValueError):
        mutual_information([[-1, 2], [3, 4]])
    with pytest.raises(ValueError):
        mutual_information([[0, 0], [0, 0]])
    with pytest.raises(ValueError):
        mutual_information([1, 2, 3])


# --- CENT values ---

def _cent(activations, mode="per-filter", bins=256, range_mode="minmax"):
    """cent_rows' row for one image whose read points are `activations`."""
    return it.cent_rows([np.asarray(a)[None] for a in activations], mode, bins, range_mode)[0]


def _image_cent(network, image, mode="per-filter"):
    """One image's CENT values the way extract computes them."""
    return it.cent_rows(net.forward_collect(network, image[None]), mode)[0]


def test_cent_constant_map_is_zero():
    assert _cent([np.full((1, 8, 8), 2.0)]).tolist() == [0.0]
    assert _cent([np.zeros((3, 8, 8))], "per-layer").tolist() == [0.0]


@pytest.mark.parametrize("bins", [2, 7, 256])
def test_cent_alternating_two_values_is_one_bit(bins):
    m = np.tile([0.0, 1.0], 32).reshape(1, 8, 8)
    assert abs(_cent([m], bins=bins)[0] - 1.0) < 1e-12


def test_cent_concentrated_below_uniform():
    rng = np.random.default_rng(5)
    flat = rng.uniform(0.0, 1.0, 10000)
    peaked = rng.laplace(0.0, 0.05, 10000)
    h_peaked, h_flat = _cent([peaked, flat])  # rank-1 layers pool in either mode
    assert h_peaked < h_flat


def test_cent_per_layer_equals_pooled_concatenation():
    rng = np.random.default_rng(6)
    layer = rng.normal(size=(4, 5, 5))
    direct = plugin_entropy(make_histogram(layer.ravel()).counts)
    assert _cent([layer], "per-layer").tolist() == [direct]


def test_cent_single_filter_layer_matches_per_filter():
    rng = np.random.default_rng(8)
    layer = rng.normal(size=(1, 6, 6))
    assert np.array_equal(_cent([layer], "per-layer"), _cent([layer], "per-filter"))


def _loop_cent(values, bins, range_mode) -> float:
    """One map's CENT value the per-map way: its own equal-width binning and a
    1-D plug-in sum over the nonzero shares."""
    v = np.asarray(values, dtype=np.float64).ravel()
    lo, hi = (float(v.min()), float(v.max())) if range_mode == "minmax" else range_mode
    if lo == hi:
        return 0.0
    idx = np.floor((np.clip(v, lo, hi) - lo) / (hi - lo) * bins).astype(np.int64)
    p = np.bincount(np.clip(idx, 0, bins - 1), minlength=bins) / v.size
    nz = p[p > 0]
    h = float(-(nz * np.log2(nz)).sum())
    return h if h > 0.0 else 0.0


_READ_SHAPES = st.lists(st.sampled_from([(3, 4, 4), (5, 2, 3), (1, 6, 6), (2, 8), (4, 2, 2, 2),
                                         (16,), (1,), (300,)]),
                        min_size=1, max_size=3)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), _READ_SHAPES, st.sampled_from(["per-filter", "per-layer"]),
       st.integers(2, 256), st.booleans(), st.integers(0, 2**32 - 1), st.data())
def test_cent_rows_equal_the_per_map_loop(n, shapes, mode, bins, fixed, seed, data):
    """Batched CENT rows equal, bit for bit, a per-map loop, for any chunking
    of the images (one image a chunk included): constant maps, ReLU zeros,
    ties, and outliers beyond a fixed range included. Every value lies in
    [0, log2(bins)]."""
    rng = np.random.default_rng(seed)
    acts = []
    for shape in shapes:
        a = rng.normal(0.0, 2.0, size=(n,) + shape)
        kind = data.draw(st.sampled_from(["normal", "relu", "ties", "float32"]))
        if kind == "relu":
            a = np.maximum(a, 0.0)
        elif kind == "ties":
            a = np.round(a)
        elif kind == "float32":
            a = a.astype(np.float32)
        flat = a.reshape(n * shape[0], -1) if len(shape) >= 2 else a
        flat[rng.random(len(flat)) < 0.3] = 1.5  # constant maps, whole images at rank 1
        acts.append(a)
    range_mode = (-1.0, 2.5) if fixed else "minmax"
    chunk = data.draw(st.sampled_from([1, 2, n]))
    rows = np.concatenate([it.cent_rows([a[lo:lo + chunk] for a in acts], mode, bins, range_mode)
                           for lo in range(0, n, chunk)])
    for i in range(n):
        loop = [_loop_cent(m, bins, range_mode) for a in acts
                for m in (a[i] if mode == "per-filter" and a.ndim >= 3 else [a[i]])]
        assert rows[i].tobytes() == np.array(loop).tobytes()
    assert (rows >= 0.0).all() and (rows <= math.log2(bins)).all()


@pytest.mark.parametrize("mode,fixed", [
    pytest.param("per-filter", False, id="False-per-filter"),
    pytest.param("per-layer", False, id="False-per-layer"),
    pytest.param("per-filter", True, id="True-per-filter"),
    pytest.param("per-layer", True, id="True-per-layer"),
    pytest.param("class_tables", True, id="class_tables"),  # one range per filter
])
def test_cent_rows_in_blocks_keep_their_bytes(monkeypatch, mode, fixed):
    """Under a scratch budget of 16 values, cent_rows bins one 16-value row
    a block (per-filter), or each 48-value row in pieces whose counts it
    adds (per-layer), and class_tables one image's 16 values of a filter,
    or two images' 6 fc values, a block; each gives the bytes of one block."""
    acts = [np.random.default_rng(33).normal(size=(5, 3, 4, 4)).astype(np.float32),
            np.random.default_rng(34).normal(size=(5, 6))]
    range_mode = (-1.0, 2.5) if fixed else "minmax"

    def binned() -> bytes:
        if mode == "class_tables":
            return b"".join(it.class_tables(acts, [2, 0, 2, 1, 0], layer, 16).counts.tobytes()
                            for layer in (0, 1))
        return it.cent_rows(acts, mode, 16, range_mode).tobytes()

    whole = binned()
    monkeypatch.setattr(ops, "_SCRATCH_ELEMENTS", 16)
    assert binned() == whole


@pytest.mark.parametrize("mode", ["per-filter", "per-layer", "class_tables"])
def test_cent_rows_temporaries_stay_within_the_budget(mode):
    """One 10x64^3 float32 read (reference3d's layer-0 --pre-relu read,
    10.5 MB) takes at most its finiteness mask (a byte a value) and 3 MB in
    cent_rows. Binning the whole read at once peaked at 41.9 MB. The class
    tables of 32 such reads at 32^3 (42 MB) take at most 3 MiB: binning a
    whole filter's 32 images at once peaked at 16 MB."""
    if mode == "class_tables":
        act = np.random.default_rng(35).standard_normal((32, 10, 32, 32, 32), dtype=np.float32)
        labels = np.arange(32) % 2
        assert traced_peak(lambda: it.class_tables([act], labels, 0, 256)) <= 3 * 2**20
        return
    act = np.random.default_rng(35).normal(size=(1, 10, 64, 64, 64)).astype(np.float32)
    assert traced_peak(lambda: it.cent_rows([act], mode)) < act.size + 3e6


@pytest.mark.parametrize("mode", ["per-filter", "per-layer"])
def test_cent_rows_check_finiteness_without_a_mask(mode):
    """Four 10x64^3 float32 volumes (42 MB) take at most 3 MiB in cent_rows:
    finiteness is checked by min and max, with no mask of a byte a value."""
    act = np.random.default_rng(36).standard_normal((4, 10, 64, 64, 64), dtype=np.float32)
    assert traced_peak(lambda: it.cent_rows([act], mode)) <= 3 * 2**20


def test_cent_rows_name_the_first_non_finite_activation():
    """The first bad value in extraction order (image, then read point, then
    filter) is named, whichever read point holds it."""
    acts = [np.zeros((5, 3, 4, 4)), np.zeros((5, 6))]
    acts[0][4, 1, 0, 0] = np.nan
    acts[1][3, 3] = np.inf
    acts[0][2, 2, 1, 1] = -np.inf
    acts[0][2, 2, 3, 3] = np.nan
    ids = tuple(f"img_{i:04d}" for i in range(5))
    with pytest.raises(NonFiniteError, match=r"img_0002: .* read point 0, filter 2 \(2 of 48"):
        it.cent_rows(acts, "per-layer", 16, "minmax", ids)
    acts[0][2] = 0.0
    acts[1][2, 0] = np.nan
    with pytest.raises(NonFiniteError, match=r"image 2: .* read point 1 \(1 of 6 values there "
                                             r"are NaN or infinite\)"):
        it.cent_rows(acts, "per-filter")
    # image 1 is bad at filter 3 of read point 0 and at filter 0 of read
    # point 1: the read point comes first, whatever the filter
    acts = [np.zeros((3, 4, 2)), np.zeros((3, 2, 5))]
    acts[0][1, 3, 0] = acts[1][1, 0, 0] = np.nan
    with pytest.raises(NonFiniteError, match=r"image 1: .* read point 0, filter 3 \(1 of 8"):
        it.cent_rows(acts, "per-filter")


@pytest.mark.parametrize("mode, maps", [("per-filter", (10, 256)), ("per-layer", (1, 2560))])
def test_filter_maps_of_a_conv_read_point(mode, maps):
    """desk2d's first read point at 32^2: ten filters of 16^2 values, or
    the whole read point as one map."""
    assert it.filter_maps((10, 16, 16), mode) == maps


@pytest.mark.parametrize("mode", ["per-filter", "per-layer"])
def test_filter_maps_of_the_fully_connected_read_point(mode):
    assert it.filter_maps((128,), mode) == (1, 128)


def test_histogram_sizes_report_the_entropy_cap():
    """desk2d's second read point: 64 values per filter at 256 bins, so a
    filter's entropy is capped at 6 of the nominal 8 bits."""
    maps, values = it.filter_maps((10, 8, 8), "per-filter")
    assert maps == 10
    assert it.histogram_sizes(values, 256) == {"values_per_histogram": 64,
                                               "samples_per_bin": 0.25, "entropy_cap_bits": 6.0}
    per_layer = it.filter_maps((10, 8, 8), "per-layer")[1]
    assert it.histogram_sizes(per_layer, 256)["entropy_cap_bits"] == 8.0
    maps, values = it.filter_maps((128,), "per-filter")
    assert maps == 1 and it.histogram_sizes(values, 64)["entropy_cap_bits"] == 6.0


def test_cent_rows_contract():
    """An unknown mode is refused by name; values evenly spread over the
    bins reach the log2(bins) cap exactly (the property test above bounds
    every value by it)."""
    with pytest.raises(ValueError, match="mode must be per-filter or per-layer, got 'per-pixel'"):
        it.cent_rows([np.zeros((1, 2, 2, 2))], "per-pixel")
    spread = np.tile(np.arange(1024.0), 4).reshape(4, 32, 32)  # 4 values a bin at 256 bins
    assert _cent([spread], bins=256, range_mode=(0.0, 1024.0)).tolist() == [8.0] * 4
    assert _cent([spread], "per-layer", 16, (0.0, 1024.0)).tolist() == [4.0]


def test_extract_cent_feature_lengths_and_provenance():
    """Features run read point by read point, a per-filter conv read point's
    filters in order: 10 + 10 + 1 per-filter values, each its own map's
    entropy, and one pooled value per read point per-layer."""
    network = net.build_desk_2d(32, 2, seed=0)
    img = np.random.default_rng(2).normal(size=(1, 32, 32)).astype(np.float32)
    acts = net.forward_collect(network, img[None])
    per_filter, per_layer = _image_cent(network, img), _image_cent(network, img, "per-layer")
    assert len(per_filter) == 21 and len(per_layer) == 3
    maps = [*acts[0][0], *acts[1][0], acts[2][0]]  # the vector layer pools once
    assert per_filter.tolist() == [_loop_cent(m, 256, "minmax") for m in maps]
    assert per_layer.tolist() == [_loop_cent(a[0], 256, "minmax") for a in acts]
    # kept for the benchmark's tracer: one image's cent_rows row
    assert it.extract_cent_features(network, img).tobytes() == per_filter.tobytes()


def test_extract_cent_zero_image_all_zero():
    network = net.build_desk_2d(32, 2, seed=1)
    assert not _image_cent(network, np.zeros((1, 32, 32), np.float32)).any()


def test_cent_invariant_under_power_of_two_rescaling():
    """Freshly built nets have zero biases, so positive input rescaling scales
    every activation exactly; with minmax binning the histogram counts match."""
    network = net.build_desk_2d(32, 2, seed=3)
    img = np.random.default_rng(4).normal(size=(1, 32, 32)).astype(np.float32)
    base = _image_cent(network, img)
    for scale in (0.5, 2.0, 4.0):
        scaled = _image_cent(network, img * np.float32(scale))
        assert np.array_equal(base, scaled)


# --- dataset-level conditioning ---

def _only(tables, filters):
    """The tables of the given filters alone."""
    return tables._replace(counts=tables.counts[list(filters)])


def test_expected_cent_single_class_equals_pooled():
    data = small_dataset(per_class=6, seed=0)
    one_class = data.labels == 0
    network = net.build_desk_2d(32, 2, seed=0)
    acts = net.forward_collect(network, data.images[one_class])
    tables = _only(class_tables(acts, data.labels[one_class], 0, 256), [0])
    cond = expected_cent(tables)
    pooled = pooled_unconditional_entropy(tables)
    assert abs(cond - pooled) < 1e-12


def test_expected_cent_is_mean_over_filters():
    data = small_dataset(per_class=5, seed=1)
    acts = net.forward_collect(net.build_desk_2d(32, 2, seed=1), data.images)
    tables = class_tables(acts, data.labels, 0, 256)
    both, f2, f5 = (expected_cent(_only(tables, f)) for f in ((2, 5), (2,), (5,)))
    assert abs(both - (f2 + f5) / 2) < 1e-12


def test_expected_cent_bounded_by_pooled_every_conv_layer():
    data = small_dataset(per_class=8, seed=2)
    acts = net.forward_collect(net.build_desk_2d(32, 2, seed=2), data.images)
    for layer in (0, 1):
        tables = class_tables(acts, data.labels, layer, 256)
        cond = expected_cent(tables)
        pooled = pooled_unconditional_entropy(tables)
        assert cond <= pooled + 1e-9, f"layer {layer}: {cond} > {pooled}"


def test_class_tables_contract():
    """class_tables refuses a read point outside [0, read points) and labels
    of another length; partition_check refuses a filter outside [0, filters)."""
    data = small_dataset(per_class=3, seed=3)
    acts = net.forward_collect(net.build_desk_2d(32, 2, seed=3), data.images)
    for layer in (-1, 3, 9):
        with pytest.raises(ValueError, match=f"layer {layer} out of range"):
            class_tables(acts, data.labels, layer, 256)
    tables = class_tables(acts, data.labels, 0, 256)
    for fi in (-1, 10, 99):
        with pytest.raises(ValueError, match=f"filter {fi} out of range"):
            partition_check(tables, fi, ((0,), (1,)))
    with pytest.raises(ValueError, match="activation rows"):
        class_tables(acts, data.labels[1:], 0, 256)


def test_bin_count_below_two_is_refused_on_every_path():
    for bins in (1, 0):
        with pytest.raises(ValueError, match="bin_count"):
            it.cent_rows([np.arange(4.0).reshape(2, 2)], "per-filter", bins)
    acts = [np.arange(24, dtype=np.float32).reshape(4, 2, 3)]
    labels = np.array([0, 1, 0, 1])
    # the theory measures bin nothing: their one binning path is class_tables
    with pytest.raises(ValueError, match="bin_count"):
        class_tables(acts, labels, 0, bin_count=1)


@st.composite
def _labelled_read_points(draw):
    """(activations, labels) of a conv read point with one constant filter
    and a rank-1 (fc) read point, for 2-9 classes of unequal sizes whose ids
    need not be 0..k-1, in a drawn image order."""
    k = draw(st.integers(2, 9))
    ids = sorted(draw(st.sets(st.integers(0, 20), min_size=k, max_size=k)))
    sizes = draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
    labels = np.repeat(ids, sizes)
    labels = labels[draw(st.permutations(range(len(labels))))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = len(labels)
    conv = (rng.normal(size=(n, 3, 4, 4)) * rng.uniform(0.1, 5.0)).astype(np.float32)
    conv[:, draw(st.integers(0, 2))] = draw(st.sampled_from([0.0, 1.5]))
    fc = rng.normal(size=(n, 5)).astype(np.float32)
    return [conv, fc], labels


def _per_class_reference(acts, labels, layer, fi, bins):
    """(class entropies, priors, conditional, pooled) of one filter, a
    make_histogram per class over the dataset-wide range with image-count
    priors: the per-class path the grouped tables must reproduce."""
    vals = acts[layer][:, fi] if acts[layer].ndim >= 3 else acts[layer]
    lo, hi = float(vals.min()), float(vals.max())
    shared = (lo, hi if lo < hi else lo + 1.0)
    classes = np.unique(labels)
    counts = np.array([(labels == c).sum() for c in classes], dtype=np.float64)
    priors = counts / counts.sum()
    per_class = [vals[labels == c] for c in classes]
    class_h = [plugin_entropy(make_histogram(v, bins, shared).counts) for v in per_class]
    cond = 0.0
    for p, h in zip(priors, class_h):
        cond += p * h
    return class_h, priors, cond, plugin_entropy(make_histogram(vals, bins, shared).counts)


@settings(max_examples=60, deadline=None)
@given(_labelled_read_points(), st.sampled_from([2, 3, 16, 256]), st.data())
def test_dataset_measures_equal_the_per_class_reference(read_points, bins, data):
    acts, labels = read_points
    for layer, filters in ((0, 3), (1, 1)):
        refs = [_per_class_reference(acts, labels, layer, fi, bins) for fi in range(filters)]
        cond_sum, pooled_sum = 0.0, 0.0
        for _, _, cond, pooled in refs:
            cond_sum += cond
            pooled_sum += pooled
        tables = class_tables(acts, labels, layer, bins)
        assert expected_cent(tables) == cond_sum / filters
        assert pooled_unconditional_entropy(tables) == pooled_sum / filters

        fi = data.draw(st.integers(0, filters - 1))
        class_h, priors, _, _ = refs[fi]
        classes = [int(c) for c in np.unique(labels)]
        report = partition_check(tables, fi, (tuple(classes[:1]), tuple(classes[1:])))
        rest = range(1, len(classes))
        p_rest = sum(priors[j] for j in rest)
        assert report.h_informative == priors[0] * class_h[0] / priors[0]
        assert report.h_uninformative == sum(priors[j] * class_h[j] for j in rest) / p_rest
        assert report.h_conditional == sum(p * h for p, h in zip(priors, class_h))


def _oracle_entropy(row) -> float:
    p = row / row.sum()
    return -(p[p > 0] * np.log2(p[p > 0])).sum()


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 5), st.integers(2, 64), st.integers(0, 2**32 - 1))
def test_theory_entropies_equal_the_row_oracle_bit_for_bit(k, bins, seed):
    """expected_cent, pooled_unconditional_entropy and partition_check's
    entropies equal, with ==, each class table row's own plug-in entropy
    added in class order from 0.0, also where a class loads a single bin."""
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.repeat(np.arange(k), rng.integers(1, 6, size=k)))
    acts = [(rng.normal(size=(len(labels), 3, 3, 3)) * rng.uniform(0.1, 5.0)).astype(np.float32)]
    acts[0][labels == rng.integers(k), 1] = 0.5  # one class's filter 1 loads one bin
    acts[0][:, 2] = 1.5  # a constant filter: every class loads one bin
    tables = class_tables(acts, labels, 0, bins)
    classes, priors = tables.classes, tables.priors
    cond, pooled, class_hs = 0.0, 0.0, []
    for table in tables.counts:
        class_hs.append([_oracle_entropy(row) for row in table])
        h = 0.0
        for p, class_h in zip(priors, class_hs[-1]):
            h += p * class_h
        cond += h
        pooled += _oracle_entropy(table.sum(axis=0))
    assert expected_cent(tables) == cond / len(tables.counts)
    assert pooled_unconditional_entropy(tables) == pooled / len(tables.counts)

    order, cut = [int(c) for c in rng.permutation(classes)], int(rng.integers(1, k))
    side_a, side_b = tuple(order[:cut]), tuple(order[cut:])
    fi = int(rng.integers(3))
    report = partition_check(tables, fi, (side_a, side_b))
    prior, class_h = dict(zip(classes, priors)), dict(zip(classes, class_hs[fi]))
    for side, h in ((side_a, report.h_informative), (side_b, report.h_uninformative)):
        assert h == sum(prior[c] * class_h[c] for c in side) / sum(prior[c] for c in side)
    assert report.h_conditional == sum(prior[c] * class_h[c] for c in classes)


# --- partition decomposition ---

def test_partition_check_contract_errors():
    data = small_dataset(per_class=4, seed=4)
    acts = net.forward_collect(net.build_desk_2d(32, 2, seed=4), data.images)
    tables = class_tables(acts, data.labels, 0, 256)
    with pytest.raises(ValueError, match="filter 10 out of range"):
        partition_check(tables, 10, ((0,), (1,)))
    with pytest.raises(ValueError):
        partition_check(tables, 0, ((0,), ()))
    with pytest.raises(ValueError):
        partition_check(tables, 0, ((0, 1), (1,)))
    with pytest.raises(ValueError):
        partition_check(tables, 0, ((0,), (2,)))


def test_partition_decomposition_exact():
    data = small_dataset(per_class=6, seed=5)
    acts = net.forward_collect(net.build_desk_2d(32, 2, seed=5), data.images)
    tables = class_tables(acts, data.labels, 0, 256)
    report = partition_check(tables, 1, ((0,), (1,)))
    assert report.decomposition_residual < 1e-9
    recombined = (report.p_informative * report.h_informative
                  + report.p_uninformative * report.h_uninformative)
    assert abs(report.h_conditional - recombined) < 1e-9
    assert abs(report.p_informative + report.p_uninformative - 1.0) < 1e-12
    # the single-filter conditional entropy is the same quantity expected_cent
    # computes for that filter alone
    assert abs(report.h_conditional - expected_cent(_only(tables, [1]))) < 1e-12


def test_partition_direction_reported_not_assumed():
    data = small_dataset(per_class=6, seed=6)
    acts = net.forward_collect(net.build_desk_2d(32, 2, seed=6), data.images)
    tables = class_tables(acts, data.labels, 0, 256)
    fwd = partition_check(tables, 0, ((0,), (1,)))
    rev = partition_check(tables, 0, ((1,), (0,)))
    assert fwd.h_informative == rev.h_uninformative
    assert fwd.h_uninformative == rev.h_informative
    if fwd.h_informative != fwd.h_uninformative:
        assert fwd.inequality_holds != rev.inequality_holds


# --- contingency tables, discretization, DPI ---

def test_contingency_table_counts():
    table = contingency_table([0, 0, 1, 1], [0, 1, 0, 1])
    assert table.tolist() == [[1, 1], [1, 1]]
    table = contingency_table([5, 9, 9], [1, 1, 2])
    assert table.tolist() == [[1, 0], [1, 1]]
    with pytest.raises(ValueError):
        contingency_table([1, 2], [1])


def _unique_table(a, b):
    """The table through np.unique's inverse codes, as it was first built."""
    _, ai = np.unique(np.ravel(a), return_inverse=True)
    _, bi = np.unique(np.ravel(b), return_inverse=True)
    rows, cols = ai.max() + 1, bi.max() + 1
    return np.bincount(ai * cols + bi, minlength=rows * cols).reshape(rows, cols)


_CODES = st.sampled_from([np.int8, np.int64, np.uint8, np.uint64])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 60), st.data())
def test_contingency_table_equals_the_unique_table(n, data):
    """Gapped, negative, single-valued, narrow and wide integer codes (wide
    ones span more than their count and keep np.unique) give the table of
    np.unique's inverse codes, bit for bit."""
    def codes():
        dtype = data.draw(_CODES)
        info = np.iinfo(dtype)
        if data.draw(st.booleans()):  # any codes of the type: mostly wide spans
            pool = data.draw(st.lists(st.integers(int(info.min), int(info.max)), min_size=1,
                                      max_size=6, unique=True))
        else:  # a few gapped codes near a base
            base = data.draw(st.integers(int(info.min), int(info.max) - 12))
            pool = [base + d for d in data.draw(st.lists(st.integers(0, 12), min_size=1,
                                                         max_size=6, unique=True))]
        return np.array(data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)),
                        dtype=dtype)

    a, b = codes(), codes()
    got, want = contingency_table(a, b), _unique_table(a, b)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("codes", [[-3, -3, -1, 2, 2, 2], [7] * 6, [0, 5, 0, 5, 1, 1],
                                   [2**63 + 4, 2**63 + 1, 2**63 + 4, 2**63, 2**63, 2**63 + 1]])
def test_contingency_table_compacts_near_codes_without_unique(monkeypatch, codes):
    """Codes spanning at most their count are compacted by one bincount,
    without np.unique, to the same table."""
    a = np.array(codes, dtype=np.uint64 if max(codes) >= 2**63 else np.int64)
    b = np.arange(len(codes)) % 2
    want = _unique_table(a, b)
    monkeypatch.setattr(np, "unique", None)
    assert contingency_table(a, b).tobytes() == want.tobytes()


def test_dpi_identity_processing_preserves_information():
    rng = np.random.default_rng(9)
    c = rng.integers(0, 2, 2000)
    x = c * 4 + rng.integers(0, 3, 2000)
    chain = types.SimpleNamespace(x=x, y=x.copy(), c=c)
    report = dpi_check(chain)
    assert report.holds
    assert abs(report.i_xc - report.i_yc) < 1e-12


def test_dpi_constant_output_holds_trivially():
    rng = np.random.default_rng(10)
    c = rng.integers(0, 2, 1000)
    x = c * 4 + rng.integers(0, 3, 1000)
    chain = types.SimpleNamespace(x=x, y=np.zeros_like(x), c=c)
    report = dpi_check(chain)
    assert report.holds and report.i_yc == 0.0


@pytest.mark.parametrize("slack", [math.nan, math.inf, -math.inf])
def test_dpi_refuses_a_non_finite_slack(slack):
    c = np.array([0, 1, 0, 1])
    with pytest.raises(ValueError, match="slack must be finite"):
        dpi_check(types.SimpleNamespace(x=c, y=c, c=c), slack=slack)


def test_dpi_detects_violation():
    # y carries the class while x is constant: not a Markov chain, must fail
    rng = np.random.default_rng(11)
    c = rng.integers(0, 2, 1000)
    chain = types.SimpleNamespace(x=np.zeros_like(c), y=c.copy(), c=c)
    report = dpi_check(chain)
    assert not report.holds
    assert report.i_yc > report.i_xc + report.slack
