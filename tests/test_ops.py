"""Layer primitives: forward examples, contract errors, and gradient checks
against central finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centpipe import ops
from centpipe.ops import ConvSpec, ShapeMismatch

import reference_ops as R
from conftest import fd_grad, pool_safe_input, rel_err


def test_conv_sum_window():
    x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
    w = np.ones((1, 1, 2, 2))
    out = ops.conv_forward(x, w, np.zeros(1), ConvSpec((2, 2), (1, 1)))
    assert out.shape == (1, 1, 1)
    assert out[0, 0, 0] == 10.0


def test_conv_one_by_one_identity():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(1, 5, 7))
    w = np.ones((1, 1, 1, 1))
    out = ops.conv_forward(x, w, np.zeros(1), ConvSpec((1, 1), (1, 1)))
    assert np.array_equal(out, x)


def test_conv_matches_loop_oracle():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(1, 5, 5))
    w = rng.normal(size=(2, 1, 2, 2))
    b = rng.normal(size=2)
    out = ops.conv_forward(x, w, b, ConvSpec((2, 2), (2, 2), "valid", 2))
    expect = np.zeros((2, 2, 2))
    for f in range(2):
        for i in range(2):
            for j in range(2):
                window = x[0, 2 * i:2 * i + 2, 2 * j:2 * j + 2]
                expect[f, i, j] = (window * w[f, 0]).sum() + b[f]
    assert np.abs(out - expect).max() < 1e-6


def test_conv_same_padding_shape():
    spec = ConvSpec((2, 2, 2), (1, 1, 1), "same", 10)
    assert spec.output_extent((64, 64, 64)) == (64, 64, 64)
    spec2 = ConvSpec((2, 2, 2), (2, 2, 2), "valid", 10)
    assert spec2.output_extent((64, 64, 64)) == (32, 32, 32)


def test_conv_shape_mismatch_names_shapes():
    x = np.zeros((2, 4, 4))
    w = np.zeros((3, 1, 2, 2))  # channel count disagrees with x
    with pytest.raises(ShapeMismatch) as e:
        ops.conv_forward(x, w, np.zeros(3), ConvSpec((2, 2), (1, 1), "valid", 3))
    assert "2" in str(e.value) and "1" in str(e.value)


def test_conv_zero_upstream_gradient():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(1, 4, 4))
    w = rng.normal(size=(2, 1, 2, 2))
    spec = ConvSpec((2, 2), (1, 1), "valid", 2)
    g = np.zeros((2, 3, 3))
    gi, gw, gb = ops.conv_backward(g, x, w, spec)
    assert not gi.any() and not gw.any() and not gb.any()


def test_conv_single_window_filter_gradient():
    x = np.ones((1, 2, 2))
    w = np.ones((1, 1, 2, 2))
    spec = ConvSpec((2, 2), (1, 1), "valid", 1)
    _, gw, gb = ops.conv_backward(np.ones((1, 1, 1)), x, w, spec)
    assert np.array_equal(gw, np.ones((1, 1, 2, 2)))
    assert np.array_equal(gb, np.ones(1))


@pytest.mark.parametrize("shape,kspec", [
    ((1, 3, 3), ConvSpec((2, 2), (1, 1), "valid", 1)),
    ((2, 5, 5), ConvSpec((2, 2), (2, 2), "valid", 3)),
    ((1, 4, 4), ConvSpec((3, 3), (1, 1), "same", 2)),
    ((1, 4, 4, 4), ConvSpec((2, 2, 2), (2, 2, 2), "valid", 2)),
    ((2, 5, 6), ConvSpec((2, 3), (2, 1), "same", 2)),
])
def test_conv_gradients_match_fd(shape, kspec):
    rng = np.random.default_rng(hash((shape, kspec.kernel)) % 2**32)
    x = rng.normal(size=shape)
    w = rng.normal(size=(kspec.filter_count, shape[0]) + kspec.kernel)
    b = rng.normal(size=kspec.filter_count)
    g = rng.normal(size=(kspec.filter_count,) + kspec.output_extent(shape[1:]))
    gi, gw, gb = ops.conv_backward(g, x, w, kspec)

    def loss(xx=x, ww=w, bb=b):
        return float((ops.conv_forward(xx, ww, bb, kspec) * g).sum())

    assert rel_err(gi, fd_grad(lambda v: loss(xx=v), x)) < 1e-4
    assert rel_err(gw, fd_grad(lambda v: loss(ww=v), w)) < 1e-4
    assert rel_err(gb, fd_grad(lambda v: loss(bb=v), b)) < 1e-4


def test_relu_examples():
    assert np.array_equal(ops.relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])
    x = np.abs(np.random.default_rng(0).normal(size=(3, 3))) + 0.1
    assert np.array_equal(ops.relu(x), x)


def test_relu_gradient_and_fd_away_from_zero():
    rng = np.random.default_rng(3)
    x = rng.uniform(0.1, 1.0, size=(4, 4)) * rng.choice([-1.0, 1.0], size=(4, 4))
    g = rng.normal(size=(4, 4))
    analytic = ops.relu_backward(g, x)
    assert np.array_equal(analytic, g * (x > 0))
    fd = fd_grad(lambda v: float((ops.relu(v) * g).sum()), x)
    assert rel_err(analytic, fd) < 1e-4


def test_relu_gradient_at_zero_is_zero():
    g = np.ones(3)
    assert np.array_equal(ops.relu_backward(g, np.array([0.0, -0.0, 1.0])), [0, 0, 1])


def test_maxpool_examples():
    out, _ = ops.maxpool(np.array([[1.0, 2.0], [3.0, 4.0]]), (2, 2), (2, 2))
    assert np.array_equal(out, [[4.0]])
    const = np.full((4, 4), 2.5)
    out, _ = ops.maxpool(const, (2, 2), (2, 2))
    assert np.array_equal(out, np.full((2, 2), 2.5))


def test_maxpool_matches_window_oracle():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(6, 6))
    out, _ = ops.maxpool(x, (2, 2), (2, 2))
    for i in range(3):
        for j in range(3):
            assert out[i, j] == x[2 * i:2 * i + 2, 2 * j:2 * j + 2].max()


def test_maxpool_window_too_large():
    with pytest.raises(ShapeMismatch):
        ops.maxpool(np.zeros((2, 2)), (3, 3), (1, 1))


def test_maxpool_tie_routes_to_first_index():
    x = np.array([[1.0, 1.0], [1.0, 1.0]])
    out, cache = ops.maxpool(x, (2, 2), (2, 2))
    grad = ops.maxpool_backward(np.array([[5.0]]), cache)
    assert grad[0, 0] == 5.0 and grad.sum() == 5.0


def test_maxpool_gradient_matches_fd():
    rng = np.random.default_rng(5)
    x = pool_safe_input(rng, (2, 6, 6), (2, 2))
    out, cache = ops.maxpool(x, (2, 2), (2, 2))
    g = rng.normal(size=out.shape)
    analytic = ops.maxpool_backward(g, cache)

    def loss(v):
        pooled, _ = ops.maxpool(v, (2, 2), (2, 2))
        return float((pooled * g).sum())

    assert rel_err(analytic, fd_grad(loss, x)) < 1e-4


def test_maxpool_same_padding_gradient():
    rng = np.random.default_rng(6)
    x = pool_safe_input(rng, (1, 5, 5), (2, 2))
    out, cache = ops.maxpool(x, (2, 2), (1, 1), "same")
    assert out.shape == (1, 5, 5)
    g = rng.normal(size=out.shape)
    analytic = ops.maxpool_backward(g, cache)

    def loss(v):
        pooled, _ = ops.maxpool(v, (2, 2), (1, 1), "same")
        return float((pooled * g).sum())

    assert rel_err(analytic, fd_grad(loss, x)) < 1e-4


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_maxpool_output_within_input_bounds(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, 6, 6))
    out, _ = ops.maxpool(x, (2, 2), (2, 2))
    assert out.max() <= x.max() and out.min() >= x.min()


def test_fully_connected_examples():
    x = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(ops.fully_connected(x, np.eye(3), np.zeros(3)), x)
    b = np.array([4.0, 5.0])
    assert np.array_equal(ops.fully_connected(x, np.zeros((2, 3)), b), b)


def test_fully_connected_mismatch():
    with pytest.raises(ShapeMismatch):
        ops.fully_connected(np.zeros(4), np.zeros((2, 3)), np.zeros(2))


def test_fully_connected_gradients_match_fd():
    rng = np.random.default_rng(7)
    x = rng.normal(size=4)
    w = rng.normal(size=(3, 4))
    b = rng.normal(size=3)
    g = rng.normal(size=3)
    gi, gw, gb = ops.fully_connected_backward(g, x, w)
    assert rel_err(gi, fd_grad(lambda v: float((ops.fully_connected(v, w, b) * g).sum()), x)) < 1e-4
    assert rel_err(gw, fd_grad(lambda v: float((ops.fully_connected(x, v, b) * g).sum()), w)) < 1e-4
    assert rel_err(gb, fd_grad(lambda v: float((ops.fully_connected(x, w, v) * g).sum()), b)) < 1e-4


def test_fully_connected_flattens_input():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(2, 3, 2))
    w = rng.normal(size=(5, 12))
    out = ops.fully_connected(x, w, np.zeros(5))
    assert np.allclose(out, w @ x.ravel())


def test_softmax_symmetry():
    probs, loss, grad = ops.softmax_cross_entropy(np.zeros(2), 0)
    assert np.allclose(probs, [0.5, 0.5])
    assert abs(loss - np.log(2)) < 1e-12
    assert np.allclose(grad, [-0.5, 0.5])


def test_softmax_large_logit_stability():
    probs, loss, _ = ops.softmax_cross_entropy(np.array([1000.0, 0.0]), 0)
    assert np.isfinite(probs).all() and np.isfinite(loss)
    assert loss < 1e-6 and loss >= 0.0
    probs, loss, _ = ops.softmax_cross_entropy(np.array([1e4, -1e4, 0.0]), 1)
    assert np.isfinite(loss) and abs(probs.sum() - 1) < 1e-6
    assert (probs >= 0).all() and (probs <= 1).all()


def test_softmax_gradient_matches_fd():
    rng = np.random.default_rng(9)
    logits = rng.normal(size=5)
    _, _, grad = ops.softmax_cross_entropy(logits, 2)
    fd = fd_grad(lambda v: ops.softmax_cross_entropy(v, 2)[1], logits)
    assert rel_err(grad, fd) < 1e-4


def test_softmax_contract_errors():
    with pytest.raises(ValueError):
        ops.softmax_cross_entropy(np.zeros(1), 0)
    with pytest.raises(ValueError):
        ops.softmax_cross_entropy(np.zeros(3), 3)
    with pytest.raises(ValueError):
        ops.softmax_cross_entropy(np.zeros(3), -1)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_softmax_probability_vector_property(seed):
    rng = np.random.default_rng(seed)
    logits = rng.uniform(-1e4, 1e4, size=rng.integers(2, 8))
    probs, loss, _ = ops.softmax_cross_entropy(logits, 0)
    assert abs(probs.sum() - 1.0) < 1e-6
    assert (probs >= 0).all()
    assert loss >= 0.0


def test_ops_preserve_dtype():
    x32 = np.ones((1, 4, 4), dtype=np.float32)
    w32 = np.ones((1, 1, 2, 2), dtype=np.float32)
    out = ops.conv_forward(x32, w32, np.zeros(1, np.float32), ConvSpec((2, 2), (1, 1)))
    assert out.dtype == np.float32
    pooled, _ = ops.maxpool(x32, (2, 2), (2, 2))
    assert pooled.dtype == np.float32
    assert ops.relu(x32).dtype == np.float32


# --- batch axis: batched ops against a per-sample loop over the reference ---

BATCH_TOL = 1e-12


@st.composite
def _conv_cases(draw):
    rank = draw(st.sampled_from([2, 3]))
    kernel = draw(st.integers(1, 3))
    spec = ConvSpec((kernel,) * rank, (draw(st.integers(1, 2)),) * rank,
                    draw(st.sampled_from(["same", "valid"])), draw(st.integers(1, 3)))
    extent = draw(st.integers(kernel, 6 if rank == 2 else 4))
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 3))) + (extent,) * rank
    return spec, shape, draw(st.integers(0, 2**32 - 1))


@given(_conv_cases())
@settings(max_examples=60, deadline=None)
def test_batched_conv_matches_per_sample_reference(case):
    spec, shape, seed = case
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape)
    w = rng.normal(size=(spec.filter_count, shape[1]) + spec.kernel)
    b = rng.normal(size=spec.filter_count)
    y = ops.conv_forward(x, w, b, spec)
    assert rel_err(y, np.stack([R.conv_forward(xi, w, b, spec) for xi in x])) < BATCH_TOL
    g = rng.normal(size=y.shape)
    gi, gw, gb = ops.conv_backward(g, x, w, spec)
    ref = [R.conv_backward(gj, xi, w, spec) for gj, xi in zip(g, x)]
    assert rel_err(gi, np.stack([r[0] for r in ref])) < BATCH_TOL
    assert rel_err(gw, sum(r[1] for r in ref)) < BATCH_TOL
    assert rel_err(gb, sum(r[2] for r in ref)) < BATCH_TOL


@st.composite
def _pool_cases(draw):
    rank = draw(st.sampled_from([2, 3]))
    if draw(st.booleans()):  # windows that tile the input: no overlap, no padding
        window = draw(st.integers(1, 3))
        stride, padding = window, "valid"
        extent = window * draw(st.integers(1, 6 // window if rank == 2 else 4 // window))
    else:
        window = draw(st.integers(1, 3))
        stride = draw(st.integers(1, 3))
        padding = draw(st.sampled_from(["same", "valid"]))
        extent = draw(st.integers(window, 6 if rank == 2 else 4))
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 3))) + (extent,) * rank
    return (window,) * rank, (stride,) * rank, padding, shape, draw(st.booleans()), \
        draw(st.integers(0, 2**32 - 1))


@given(_pool_cases())
@settings(max_examples=80, deadline=None)
def test_batched_pool_and_relu_match_per_sample_reference(case):
    window, stride, padding, shape, rectified, seed = case
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape)
    if rectified:  # post-ReLU inputs put ties (zeros) in many windows
        x = ops.relu(x)
        assert np.array_equal(x, np.stack([R.relu(xi) for xi in x]))
    pooled, cache = ops.maxpool(x, window, stride, padding)
    refs = [R.maxpool(xi, window, stride, padding) for xi in x]
    assert rel_err(pooled, np.stack([p for p, _ in refs])) < BATCH_TOL
    g = rng.normal(size=pooled.shape)
    expect = np.stack([R.maxpool_backward(gj, c) for gj, (_, c) in zip(g, refs)])
    assert rel_err(ops.maxpool_backward(g, cache), expect) < BATCH_TOL
    gr = rng.normal(size=shape)
    assert np.array_equal(ops.relu_backward(gr, x),
                          np.stack([R.relu_backward(gj, xi) for gj, xi in zip(gr, x)]))


@given(st.integers(1, 4), st.lists(st.integers(1, 4), min_size=1, max_size=3),
       st.integers(1, 5), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_batched_fully_connected_matches_per_sample_reference(batch, sample_shape, width, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(batch,) + tuple(sample_shape))
    w = rng.normal(size=(width, int(np.prod(sample_shape))))
    b = rng.normal(size=width)
    y = ops.fully_connected(x.reshape(batch, -1), w, b)
    assert y.shape == (batch, width)
    assert rel_err(y, np.stack([R.fully_connected(xi, w, b) for xi in x])) < BATCH_TOL
    g = rng.normal(size=y.shape)
    gi, gw, gb = ops.fully_connected_backward(g, x, w)
    ref = [R.fully_connected_backward(gj, xi, w) for gj, xi in zip(g, x)]
    assert gi.shape == x.shape
    assert rel_err(gi, np.stack([r[0] for r in ref])) < BATCH_TOL
    assert rel_err(gw, sum(r[1] for r in ref)) < BATCH_TOL
    assert rel_err(gb, sum(r[2] for r in ref)) < BATCH_TOL


@given(st.integers(1, 4), st.integers(2, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_batched_softmax_matches_per_sample_reference(batch, k, seed):
    rng = np.random.default_rng(seed)
    logits = rng.normal(scale=rng.uniform(0.5, 50.0), size=(batch, k))
    labels = rng.integers(0, k, size=batch)
    probs, losses, grad = ops.softmax_cross_entropy(logits, labels)
    refs = [R.softmax_cross_entropy(z, int(c)) for z, c in zip(logits, labels)]
    assert losses.shape == (batch,)
    assert rel_err(probs, np.stack([r[0] for r in refs])) < BATCH_TOL
    assert rel_err(losses, np.array([r[1] for r in refs])) < BATCH_TOL
    assert rel_err(grad, np.stack([r[2] for r in refs])) < BATCH_TOL


def test_maxpool_nan_and_tie_routing_matches_reference():
    x = np.array([[[[np.nan, 1.0, 2.0, 2.0],
                    [3.0, np.nan, 2.0, 2.0],
                    [0.0, -0.0, 5.0, np.nan],
                    [-0.0, 0.0, np.inf, 1.0]]]])
    for window, stride, padding in [((2, 2), (2, 2), "valid"), ((2, 2), (1, 1), "same")]:
        pooled, cache = ops.maxpool(x, window, stride, padding)
        ref_pooled, ref_cache = R.maxpool(x[0], window, stride, padding)
        assert np.array_equal(pooled[0], ref_pooled, equal_nan=True)
        # array_equal counts -0.0 == +0.0; the sign of a zero maximum must match too
        assert np.array_equal(np.signbit(pooled[0]), np.signbit(ref_pooled))
        assert np.array_equal(cache.argmax[0], ref_cache["argmax"])
        g = np.arange(1.0, pooled.size + 1).reshape(pooled.shape)
        assert np.array_equal(ops.maxpool_backward(g, cache)[0],
                              R.maxpool_backward(g[0], ref_cache))
        # a -0.0 gradient lands as +0.0, as 0.0 + g in the reference scatter
        gz = -np.zeros(pooled.shape)
        assert not np.signbit(ops.maxpool_backward(gz, cache)).any()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("window,stride,padding", [
    ((2, 2), (2, 2), "valid"), ((3, 3), (1, 1), "same"), ((2, 2, 2), (2, 2, 2), "valid"),
])
def test_maxpool_signed_zero_ties_keep_first_maximum(dtype, window, stride, padding):
    """Windows full of tied -0.0/+0.0 (and 1.0) on arrays long enough for
    numpy's vector loops: the pooled value must carry the sign of the element
    at argmax, as the reference's gather does."""
    rng = np.random.default_rng(21)
    shape = (3, 4) + (24,) * len(window)
    x = rng.choice(np.array([-0.0, 0.0, 0.0, -0.0, 1.0]), size=shape).astype(dtype)
    pooled, cache = ops.maxpool(x, window, stride, padding)
    for xi, pi, ai in zip(x, pooled, cache.argmax):
        ref_pooled, ref_cache = R.maxpool(xi, window, stride, padding)
        assert np.array_equal(ai, ref_cache["argmax"])
        assert np.array_equal(pi, ref_pooled)
        assert np.array_equal(np.signbit(pi), np.signbit(ref_pooled))


# --- finite differences on batched inputs ---

@pytest.mark.parametrize("shape,kspec", [
    ((2, 1, 4, 4), ConvSpec((2, 2), (1, 1), "same", 2)),
    ((3, 2, 5, 5), ConvSpec((2, 2), (2, 2), "valid", 2)),
    ((2, 1, 3, 3, 3), ConvSpec((2, 2, 2), (1, 1, 1), "same", 2)),
])
def test_batched_conv_gradients_match_fd(shape, kspec):
    rng = np.random.default_rng(11)
    x = rng.normal(size=shape)
    w = rng.normal(size=(kspec.filter_count, shape[1]) + kspec.kernel)
    b = rng.normal(size=kspec.filter_count)
    g = rng.normal(size=ops.conv_forward(x, w, b, kspec).shape)
    gi, gw, gb = ops.conv_backward(g, x, w, kspec)

    def loss(xx=x, ww=w, bb=b):
        return float((ops.conv_forward(xx, ww, bb, kspec) * g).sum())

    assert rel_err(gi, fd_grad(lambda v: loss(xx=v), x)) < 1e-4
    assert rel_err(gw, fd_grad(lambda v: loss(ww=v), w)) < 1e-4
    assert rel_err(gb, fd_grad(lambda v: loss(bb=v), b)) < 1e-4


@pytest.mark.parametrize("window,stride,padding", [
    ((2, 2), (2, 2), "valid"), ((2, 2), (1, 1), "same"), ((2, 2, 2), (2, 2, 2), "valid")])
def test_batched_maxpool_gradient_matches_fd(window, stride, padding):
    rng = np.random.default_rng(12)
    x = pool_safe_input(rng, (3, 2) + (4,) * len(window), window)
    out, cache = ops.maxpool(x, window, stride, padding)
    g = rng.normal(size=out.shape)
    fd = fd_grad(lambda v: float((ops.maxpool(v, window, stride, padding)[0] * g).sum()), x)
    assert rel_err(ops.maxpool_backward(g, cache), fd) < 1e-4


def test_batched_fully_connected_and_softmax_gradients_match_fd():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(3, 2, 3))
    w = rng.normal(size=(4, 6))
    b = rng.normal(size=4)
    g = rng.normal(size=(3, 4))
    gi, gw, gb = ops.fully_connected_backward(g, x, w)
    def loss(xx=x, ww=w, bb=b):
        return float((ops.fully_connected(xx.reshape(3, -1), ww, bb) * g).sum())

    assert rel_err(gi, fd_grad(lambda v: loss(xx=v), x)) < 1e-4
    assert rel_err(gw, fd_grad(lambda v: loss(ww=v), w)) < 1e-4
    assert rel_err(gb, fd_grad(lambda v: loss(bb=v), b)) < 1e-4
    logits = rng.normal(size=(3, 5))
    labels = np.array([0, 4, 2])
    _, _, grad = ops.softmax_cross_entropy(logits, labels)
    fd = fd_grad(lambda v: float(ops.softmax_cross_entropy(v, labels)[1].sum()), logits)
    assert rel_err(grad, fd) < 1e-4


def test_fully_connected_batch_of_one_shape_rule():
    """Only a 2-D (batch, n) input is a batch: (1, n) gives (1, m). Every
    other shape holding n elements is one sample giving (m,), (1, 2, 3) and
    (2, 3) against n = 6 included, as per-sample callers always had it."""
    rng = np.random.default_rng(14)
    w = rng.normal(size=(3, 6))
    b = rng.normal(size=3)
    flat = rng.normal(size=6)
    single = ops.fully_connected(flat, w, b)
    assert single.shape == (3,)
    y = ops.fully_connected(flat.reshape(1, 6), w, b)
    assert y.shape == (1, 3) and np.array_equal(y[0], single)
    ri, rw, rb = ops.fully_connected_backward(single - 1.0, flat, w)
    # the backward pass tells a batch by grad_output's rank and shapes
    # grad_input like the cached input, whatever its axes
    for cached in (flat.reshape(1, 6), flat.reshape(1, 2, 3)):
        gi, gw, gb = ops.fully_connected_backward(y - 1.0, cached, w)
        assert gi.shape == cached.shape and np.array_equal(gi.reshape(-1), ri)
        assert np.array_equal(gw, rw) and np.array_equal(gb, rb)
    for sample in (flat.reshape(1, 2, 3), flat.reshape(2, 3), flat.reshape(1, 1, 6)):
        out = ops.fully_connected(sample, w, b)
        assert out.shape == (3,) and np.array_equal(out, single)
    with pytest.raises(ShapeMismatch):
        ops.fully_connected(rng.normal(size=(2, 4)), w, b)
