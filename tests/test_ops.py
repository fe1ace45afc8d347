"""Layer primitives: forward examples, contract errors, and gradient checks
against central finite differences."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centpipe import net, ops
from centpipe.ops import ConvSpec, ShapeMismatch

import reference_ops as R
from conftest import fd_grad, pool_safe_input, rel_err


def test_conv_sum_window():
    x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
    w = np.ones((1, 1, 2, 2))
    out = ops.conv_forward(x[None], w, np.zeros(1), ConvSpec((2, 2), (1, 1)))[0]
    assert out.shape == (1, 1, 1)
    assert out[0, 0, 0] == 10.0


def test_conv_one_by_one_identity():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(1, 5, 7))
    w = np.ones((1, 1, 1, 1))
    out = ops.conv_forward(x[None], w, np.zeros(1), ConvSpec((1, 1), (1, 1)))[0]
    assert np.array_equal(out, x)


def test_conv_matches_loop_oracle():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(1, 5, 5))
    w = rng.normal(size=(2, 1, 2, 2))
    b = rng.normal(size=2)
    out = ops.conv_forward(x[None], w, b, ConvSpec((2, 2), (2, 2), "valid", 2))[0]
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
        ops.conv_forward(x[None], w, np.zeros(3), ConvSpec((2, 2), (1, 1), "valid", 3))
    assert "2" in str(e.value) and "1" in str(e.value)


def test_conv_zero_upstream_gradient():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(1, 4, 4))
    w = rng.normal(size=(2, 1, 2, 2))
    spec = ConvSpec((2, 2), (1, 1), "valid", 2)
    g = np.zeros((2, 3, 3))
    gi, gw, gb = ops.conv_backward(g[None], x[None], w, spec)
    assert not gi.any() and not gw.any() and not gb.any()


def test_conv_single_window_filter_gradient():
    x = np.ones((1, 2, 2))
    w = np.ones((1, 1, 2, 2))
    spec = ConvSpec((2, 2), (1, 1), "valid", 1)
    _, gw, gb = ops.conv_backward(np.ones((1, 1, 1))[None], x[None], w, spec)
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
    gi, gw, gb = ops.conv_backward(g[None], x[None], w, kspec)

    def loss(xx=x, ww=w, bb=b):
        return float((ops.conv_forward(xx[None], ww, bb, kspec)[0] * g).sum())

    assert rel_err(gi[0], fd_grad(lambda v: loss(xx=v), x)) < 1e-4
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
    analytic = ops.relu_backward(g.copy(), x)  # it overwrites its gradient
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


@pytest.mark.parametrize("shape,window,stride", [
    ((5, 6), (2, 3), (1, 2)),  # no leading axis
    ((2, 3, 2, 5, 4), (3, 2), (2, 1)),  # three leading axes
])
def test_maxpool_same_matches_window_oracle_under_any_leading_axes(shape, window, stride):
    """"same" pads only the trailing window axes, with -inf, the odd element
    after: each output is the max of its window's elements inside the input,
    and the gradient comes back in the input's shape."""
    x = np.random.default_rng(8).normal(size=shape)
    out, cache = ops.maxpool(x, window, stride, "same")
    spatial = shape[len(shape) - len(window):]
    extents = tuple(-(-s // st) for s, st in zip(spatial, stride))
    assert out.shape == shape[:len(shape) - len(window)] + extents
    before = [max((o - 1) * st + k - s, 0) // 2
              for s, k, st, o in zip(spatial, window, stride, extents)]
    axes = tuple(range(-len(window), 0))
    for pos in itertools.product(*map(range, extents)):
        box = tuple(slice(max(p * st - b, 0), p * st - b + k)
                    for p, st, b, k in zip(pos, stride, before, window))
        assert np.array_equal(out[(Ellipsis, *pos)], x[(Ellipsis, *box)].max(axis=axes))
    assert ops.maxpool_backward(np.ones_like(out), cache).shape == shape


def test_maxpool_window_too_large():
    with pytest.raises(ShapeMismatch):
        ops.maxpool(np.zeros((2, 2)), (3, 3), (1, 1))


@pytest.mark.parametrize("window,stride,padding", [
    ((0, 2), (2, 2), "valid"),  # a window of extent 0
    ((2, 2), (2, 0), "valid"),  # a stride of 0
    ((2, 2), (2,), "valid"),  # window and stride of different ranks
    ((2, 2), (2, 2), "bogus"),  # an unknown padding
    ((5, 2), (1, 1), "valid"),  # a "valid" window wider than the (1, 4, 4) input
])
def test_maxpool_and_its_layer_spec_refuse_the_same_geometry(window, stride, padding):
    """maxpool and a maxpool LayerSpec (through the network that chains it)
    apply a conv's window rules, and refuse with ShapeMismatch alike."""
    with pytest.raises(ShapeMismatch):
        ops.maxpool(np.zeros((2, 1, 4, 4)), window, stride, padding)
    with pytest.raises(ShapeMismatch):
        net.build_network((1, 4, 4), [net.LayerSpec("maxpool", window=window, stride=stride,
                                                     padding=padding)])


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
    assert np.array_equal(ops.fully_connected(x[None], np.eye(3), np.zeros(3))[0], x)
    b = np.array([4.0, 5.0])
    assert np.array_equal(ops.fully_connected(x[None], np.zeros((2, 3)), b)[0], b)


def test_fully_connected_mismatch():
    with pytest.raises(ShapeMismatch):
        ops.fully_connected(np.zeros((1, 4)), np.zeros((2, 3)), np.zeros(2))


def test_fully_connected_gradients_match_fd():
    rng = np.random.default_rng(7)
    x = rng.normal(size=4)
    w = rng.normal(size=(3, 4))
    b = rng.normal(size=3)
    g = rng.normal(size=3)
    gi, gb = ops.fully_connected_backward(g[None], x[None], w)
    gw = g[None].T @ x[None]  # the factored product net's SGD step rebuilds

    def loss(xx=x, ww=w, bb=b):
        return float((ops.fully_connected(xx[None], ww, bb)[0] * g).sum())

    assert rel_err(gi[0], fd_grad(lambda v: loss(xx=v), x)) < 1e-4
    assert rel_err(gw, fd_grad(lambda v: loss(ww=v), w)) < 1e-4
    assert rel_err(gb, fd_grad(lambda v: loss(bb=v), b)) < 1e-4


def test_fully_connected_flattens_input():
    """A multi-axis sample is flattened by its caller, as the network does."""
    rng = np.random.default_rng(8)
    x = rng.normal(size=(2, 3, 2))
    w = rng.normal(size=(5, 12))
    out = ops.fully_connected(x.reshape(1, -1), w, np.zeros(5))[0]
    assert np.allclose(out, w @ x.ravel())


def _softmax_one(logits, true_class):
    """softmax_cross_entropy of one sample, as a batch of one."""
    probs, losses, grad = ops.softmax_cross_entropy(logits[None], np.array([true_class]))
    return probs[0], float(losses[0]), grad[0]


def test_softmax_symmetry():
    probs, loss, grad = _softmax_one(np.zeros(2), 0)
    assert np.allclose(probs, [0.5, 0.5])
    assert abs(loss - np.log(2)) < 1e-12
    assert np.allclose(grad, [-0.5, 0.5])


def test_softmax_large_logit_stability():
    probs, loss, _ = _softmax_one(np.array([1000.0, 0.0]), 0)
    assert np.isfinite(probs).all() and np.isfinite(loss)
    assert loss < 1e-6 and loss >= 0.0
    probs, loss, _ = _softmax_one(np.array([1e4, -1e4, 0.0]), 1)
    assert np.isfinite(loss) and abs(probs.sum() - 1) < 1e-6
    assert (probs >= 0).all() and (probs <= 1).all()


def test_softmax_gradient_matches_fd():
    rng = np.random.default_rng(9)
    logits = rng.normal(size=5)
    _, _, grad = _softmax_one(logits, 2)
    fd = fd_grad(lambda v: _softmax_one(v, 2)[1], logits)
    assert rel_err(grad, fd) < 1e-4


def test_softmax_contract_errors():
    with pytest.raises(ValueError):
        _softmax_one(np.zeros(1), 0)
    with pytest.raises(ValueError, match="row 0: true_class 3 out of range for 3 logits"):
        _softmax_one(np.zeros(3), 3)
    with pytest.raises(ValueError, match="row 0: true_class -1 out of range"):
        _softmax_one(np.zeros(3), -1)
    # a batch names its first out-of-range row and that row's class
    with pytest.raises(ops.ShapeMismatch, match="row 2: true_class 4 out of range for 3 logits"):
        ops.softmax_cross_entropy(np.zeros((5, 3)), np.array([0, 2, 4, -1, 1]))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_softmax_probability_vector_property(seed):
    rng = np.random.default_rng(seed)
    logits = rng.uniform(-1e4, 1e4, size=rng.integers(2, 8))
    probs, loss, _ = _softmax_one(logits, 0)
    assert abs(probs.sum() - 1.0) < 1e-6
    assert (probs >= 0).all()
    assert loss >= 0.0


def test_ops_refuse_unbatched_inputs():
    """Each op takes only the batched arrays the network passes: a
    per-sample array is refused with a ShapeMismatch naming its shape."""
    spec = ConvSpec((2, 2), (1, 1), "valid", 1)
    w, b, fc_w = np.ones((1, 1, 2, 2)), np.zeros(1), np.ones((3, 6))
    cases = [
        ((1, 4, 4), lambda a: ops.conv_forward(a, w, b, spec)),
        ((1, 4, 4), lambda a: ops.conv_backward(np.ones((1, 3, 3)), a, w, spec)),
        ((1, 3, 3), lambda a: ops.conv_backward(a, np.ones((1, 1, 4, 4)), w, spec)),
        ((2, 3), lambda a: ops.fully_connected(a, fc_w, np.zeros(3))),
        ((6,), lambda a: ops.fully_connected(a, fc_w, np.zeros(3))),
        ((3,), lambda a: ops.fully_connected_backward(a, np.ones((1, 6)), fc_w)),
        ((6,), lambda a: ops.fully_connected_backward(np.ones((1, 3)), a, fc_w)),
        ((4,), lambda a: ops.softmax_cross_entropy(a, np.array([0]))),
        ((), lambda a: ops.softmax_cross_entropy(np.zeros((1, 4)), a.astype(int))),
    ]
    for shape, op in cases:
        with pytest.raises(ShapeMismatch, match=re.escape(str(shape))):
            op(np.zeros(shape))


def test_ops_preserve_dtype():
    x32 = np.ones((1, 1, 4, 4), dtype=np.float32)
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
    # both add each element's gradients in window order
    assert np.array_equal(ops.maxpool_backward(g, cache), expect)
    gr = rng.normal(size=shape)
    assert np.array_equal(ops.relu_backward(gr.copy(), x),
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
    gi, gb = ops.fully_connected_backward(g, x.reshape(batch, -1), w)
    gw = g.T @ x.reshape(batch, -1)
    ref = [R.fully_connected_backward(gj, xi, w) for gj, xi in zip(g, x)]
    assert gi.shape == (batch, w.shape[1])
    assert rel_err(gi.reshape(x.shape), np.stack([r[0] for r in ref])) < BATCH_TOL
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


_POOL_SPECIALS = np.array([np.nan, -0.0, 0.0, np.inf, -np.inf, 1.0, -1.0])


@given(_pool_cases(), st.sampled_from([np.float32, np.float64]), st.floats(0.0, 1.0))
@settings(max_examples=100, deadline=None)
def test_maxpool_without_a_cache_gives_the_cached_bytes(case, dtype, special_share):
    """A forward-only pool keeps no argmax, yet its pooled array is byte for
    byte the cached call's, in 2-D and 3-D, with overlapping stride-1
    windows and "same" padding's -inf fill, for inputs a share of whose
    values are NaN, signed zeros, infinities or ties."""
    window, stride, padding, shape, _, seed = case
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape)
    special = rng.random(shape) < special_share
    x[special] = rng.choice(_POOL_SPECIALS, size=int(special.sum()))
    x = x.astype(dtype)
    pooled, cache = ops.maxpool(x, window, stride, padding)
    bare, none = ops.maxpool(x, window, stride, padding, cache=False)
    assert isinstance(cache, ops.PoolCache) and none is None
    assert (bare.dtype, bare.shape) == (pooled.dtype, pooled.shape)
    assert bare.tobytes() == pooled.tobytes()


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
    gi, gb = ops.fully_connected_backward(g, x.reshape(3, -1), w)
    gw = g.T @ x.reshape(3, -1)

    def loss(xx=x, ww=w, bb=b):
        return float((ops.fully_connected(xx.reshape(3, -1), ww, bb) * g).sum())

    assert rel_err(gi.reshape(x.shape), fd_grad(lambda v: loss(xx=v), x)) < 1e-4
    assert rel_err(gw, fd_grad(lambda v: loss(ww=v), w)) < 1e-4
    assert rel_err(gb, fd_grad(lambda v: loss(bb=v), b)) < 1e-4
    logits = rng.normal(size=(3, 5))
    labels = np.array([0, 4, 2])
    _, _, grad = ops.softmax_cross_entropy(logits, labels)
    fd = fd_grad(lambda v: float(ops.softmax_cross_entropy(v, labels)[1].sum()), logits)
    assert rel_err(grad, fd) < 1e-4


def test_fully_connected_batch_of_one_shape_rule():
    """A (1, n) input is a batch of one giving (1, m), the bytes of that row
    in a larger batch, and its backward gives (1, n) and the batch's
    gradients of that row alone. No other shape holding n elements is
    taken: (1, 2, 3) and (2, 3) against n = 6 are refused."""
    rng = np.random.default_rng(14)
    w = rng.normal(size=(3, 6))
    b = rng.normal(size=3)
    flat = rng.normal(size=6)
    y = ops.fully_connected(flat.reshape(1, 6), w, b)
    assert y.shape == (1, 3) and np.array_equal(y[0], w @ flat + b)
    gi, gb = ops.fully_connected_backward(y - 1.0, flat.reshape(1, 6), w)
    gw = (y - 1.0).T @ flat.reshape(1, 6)
    assert gi.shape == (1, 6) and np.array_equal(gi[0], w.T @ (y[0] - 1.0))
    assert np.array_equal(gw, np.outer(y[0] - 1.0, flat)) and np.array_equal(gb, y[0] - 1.0)
    for sample in (flat.reshape(1, 2, 3), flat.reshape(2, 3), flat.reshape(1, 1, 6)):
        with pytest.raises(ShapeMismatch, match=re.escape(f"input {sample.shape} is not (batch, 6)")):
            ops.fully_connected(sample, w, b)
    with pytest.raises(ShapeMismatch):
        ops.fully_connected(rng.normal(size=(2, 4)), w, b)


def _fc_whole_cast(x, w, b):
    """fully_connected with the whole weight matrix cast in one copy."""
    y = w.astype(np.float64) @ x.T.astype(np.float64, copy=False)
    y += b.astype(np.float64)[:, None]
    return y.T.astype(x.dtype, order="C", copy=False)


def _fc_input_grad_whole_cast(g, x, w):
    return (w.astype(np.float64).T @ g.T).T.reshape(x.shape)


@pytest.mark.parametrize("shape,chunks", [
    # desk2d 32^2 (2x128 is also reference3d's softmax), desk2d 64^2, reference3d
    ((128, 640), range(1, 13)), ((2, 128), range(1, 13)), ((3, 128), range(1, 13)),
    ((128, 2560), range(1, 4)), ((128, 40960), [1]),
])
def test_fully_connected_blocks_match_whole_cast_bytes(shape, chunks):
    """The weights are cast to float64 in blocks; at every (weights, chunk
    size) the CLI's networks train and extract at, the bytes equal those of
    one whole-matrix cast. The float32 output of the network's forward
    rounds most float64 differences away, so float64 input is checked too."""
    _check_blocks_match_whole_cast(shape, chunks)


@pytest.mark.parametrize("budget,blocks", [(16 * 640, (8, 8)), (48 * 640, (3, 3))])
def test_fully_connected_blocks_under_a_smaller_budget_match_whole_cast_bytes(
        monkeypatch, budget, blocks):
    """Desk 32^2's 128 x 640 weights under a budget of 16 or 48 of their
    rows, as tests that shrink the scratch budget run them: the forward's
    16- or 48-row blocks and the backward's 80- or 240-column blocks keep
    the bytes of one whole-matrix cast at chunks of 1 to 7. A budget that
    splits these weights (below 128 x 640 values) allows at most 7 desk
    32^2 samples (10 x 32 x 32 each) a chunk; at 10 to 12, split forward
    blocks were seen to change float64 bytes."""
    monkeypatch.setattr(ops, "_SCRATCH_ELEMENTS", budget)
    assert (len(ops._row_parts(128, 640, ops._FC_ALIGN)),
            len(ops._row_parts(640, 128, ops._FC_ALIGN))) == blocks
    _check_blocks_match_whole_cast((128, 640), range(1, 8))


def _check_blocks_match_whole_cast(shape, chunks):
    rng = np.random.default_rng(shape[1])
    m, n = shape
    w = rng.uniform(-0.1, 0.1, size=shape).astype(np.float32)
    b = rng.uniform(-0.1, 0.1, size=m).astype(np.float32)
    # a block shape that changes the summation order changes a few of the
    # float64 bytes of some inputs only, so each chunk size gets three
    for chunk in [c for c in chunks for _ in range(3)]:
        x = ops.relu(rng.normal(size=(chunk, n))).astype(np.float32)
        for xi in (x, x.astype(np.float64)):
            assert np.array_equal(ops.fully_connected(xi, w, b), _fc_whole_cast(xi, w, b))
        g = rng.normal(size=(chunk, m))
        cached = x.astype(np.float64)
        gi, _ = ops.fully_connected_backward(g, cached, w)
        assert np.array_equal(gi, _fc_input_grad_whole_cast(g, cached, w))


@pytest.mark.parametrize("shape,kspec", [
    ((1, 1, 6, 6), ConvSpec((2, 2), (1, 1), "same", 3)),
    ((3, 2, 5, 5), ConvSpec((2, 2), (2, 2), "valid", 2)),
    ((2, 1, 4, 4, 4), ConvSpec((2, 2, 2), (1, 1, 1), "same", 2)),
])
def test_conv_backward_without_input_grad(shape, kspec):
    rng = np.random.default_rng(15)
    x = rng.normal(size=shape).astype(np.float32)
    w = rng.normal(size=(kspec.filter_count, shape[-len(kspec.kernel) - 1]) + kspec.kernel)
    g = rng.normal(size=ops.conv_forward(x, w, np.zeros(kspec.filter_count), kspec).shape)
    _, gw, gb = ops.conv_backward(g, x, w, kspec)
    none, gw2, gb2 = ops.conv_backward(g, x, w, kspec, input_grad=False)
    assert none is None
    assert gw2.dtype == gw.dtype and gw2.tobytes() == gw.tobytes()
    assert gb2.dtype == gb.dtype and gb2.tobytes() == gb.tobytes()


# (input shape, spec): 2-D and 3-D, both paddings, batches of one to three;
# the last one's im2col copy (2 x 36 x 64^2 values) exceeds the scratch
# budget, its output does not, and its padded input is never kept
_WORKSPACE_CASES = [
    ((3, 2, 9, 8), ConvSpec((2, 2), (1, 1), "same", 4)),
    ((2, 3, 7, 7), ConvSpec((3, 2), (2, 1), "valid", 2)),
    ((1, 2, 6, 6), ConvSpec((2, 2), (1, 1), "same", 3)),
    ((2, 1, 6, 5, 4), ConvSpec((2, 2, 2), (1, 1, 1), "same", 2)),
    ((1, 2, 5, 6, 5), ConvSpec((2, 3, 2), (2, 2, 1), "valid", 3)),
    ((2, 4, 64, 64), ConvSpec((3, 3), (1, 1), "same", 3)),
]


def test_shared_workspace_results_are_fresh_arrays_with_unchanged_bytes():
    """Convolutions of differing shapes and dtypes run twice through one
    workspace. No result shares memory with it, every result keeps the bytes
    of a call without a shared workspace after all later calls, the second
    round reuses the first round's buffers, and no buffer larger than the
    scratch budget is kept."""
    ws = ops.Workspace()
    rng = np.random.default_rng(21)
    results, kept = [], None
    for _ in range(2):
        for shape, spec in _WORKSPACE_CASES:
            for dtype in (np.float32, np.float64):
                x = rng.normal(size=shape).astype(dtype)
                w = rng.normal(size=(spec.filter_count, shape[-len(spec.kernel) - 1]) + spec.kernel)
                w, b = w.astype(dtype), rng.normal(size=spec.filter_count).astype(dtype)
                y = ops.conv_forward(x, w, b, spec, workspace=ws)
                g = rng.normal(size=y.shape).astype(dtype)
                grads = ops.conv_backward(g, x, w, spec, workspace=ws)
                fresh = (ops.conv_forward(x, w, b, spec),) + ops.conv_backward(g, x, w, spec)
                results += zip((y,) + grads, fresh)
        if kept is None:
            kept = list(ws.buffers)
    assert all(buffer.size for buffer in kept)
    assert all(buffer is before for buffer, before in zip(ws.buffers, kept))
    assert all(buffer.size <= ops._SCRATCH_ELEMENTS for buffer in ws.buffers)
    for got, want in results:
        assert not any(np.shares_memory(got, buffer) for buffer in ws.buffers)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_shared_workspace_fully_connected_keeps_bytes(dtype):
    """The fully connected ops take their float64 weight blocks from a shared
    workspace: the bytes of calls without one, no result in workspace memory,
    the backward's 8192-column blocks of 16 x 40960 weights from a kept
    buffer, and the forward's 4-row blocks of them, above the scratch budget
    (as in reference3d's first fully connected layer), never."""
    taken = set()

    class Recording(ops.Workspace):
        def take(self, role, shape):
            array = super().take(role, shape)
            taken.add((role, shape, any(np.shares_memory(array, buffer)
                                        for buffer in self.buffers)))
            return array

    ws = Recording()
    rng = np.random.default_rng(22)
    results = []
    for m, n, batch in [(128, 640, 10), (2, 128, 10), (128, 640, 3), (16, 40960, 1)]:
        x = rng.normal(size=(batch, n)).astype(dtype)
        w = rng.normal(size=(m, n)).astype(dtype)
        b = rng.normal(size=m).astype(dtype)
        g = rng.normal(size=(batch, m)).astype(dtype)
        got = [ops.fully_connected(x, w, b, workspace=ws),
               *ops.fully_connected_backward(g, x, w, workspace=ws)]
        want = [ops.fully_connected(x, w, b), *ops.fully_connected_backward(g, x, w)]
        results += zip(got, want)
    assert taken == {("fc", (128, 640), True), ("fc", (2, 128), True), ("fc", (16, 8192), True),
                     ("fc", (4, 40960), False)}
    for got, want in results:
        assert not any(np.shares_memory(got, buffer) for buffer in ws.buffers)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_relu_backward_overwrites_the_upstream_gradient():
    x = np.array([[-1.0, 2.0], [0.0, 3.0]])
    g = np.array([[5.0, -6.0], [7.0, 8.0]])
    assert ops.relu_backward(g, x) is g
    assert np.array_equal(g, [[0.0, -6.0], [0.0, 8.0]])


@st.composite
def _slab_cases(draw):
    rank = draw(st.integers(2, 3))
    batch = draw(st.integers(1, 4))
    channels = draw(st.integers(1, 3))
    kernel = tuple(draw(st.integers(1, 3)) for _ in range(rank))
    stride = tuple(draw(st.integers(1, 2)) for _ in range(rank))
    padding = draw(st.sampled_from(["same", "valid"]))
    # extents of 8 and 16 make whole 16-position tiles, which slabs need
    spatial = tuple(draw(st.integers(k, k + 6) | st.sampled_from([8, 16])) for k in kernel)
    spec = ConvSpec(kernel, stride, padding, draw(st.integers(1, 4)))
    # a budget of a few output rows' worth of scratch, or less than one row
    return batch, channels, spatial, spec, draw(st.integers(1, 400)), draw(st.integers(0, 2**32 - 1))


def _one_conv(channels, spatial, spec, params=None):
    """A network of one conv layer, whose forward the network cuts into
    slabs of output rows (see net._block_forward)."""
    network = net.build_network((channels,) + spatial, [net.LayerSpec("conv", conv=spec)])
    if params is not None:
        network.params[0] = params
    return network


@given(_slab_cases())
@settings(max_examples=80, deadline=None)
def test_conv_forward_slabs_keep_the_one_slab_bytes(case):
    """A scratch budget small enough to split a conv's output into many
    slabs of its first spatial axis (down to one 16-position tile each),
    each convolving the rows of the once-padded input it reads, gives the
    bytes of one slab over the whole output, with or without a workspace,
    in both dtypes."""
    batch, channels, spatial, spec, budget, seed = case
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(spec.filter_count, channels) + spec.kernel)
    b = rng.normal(size=spec.filter_count)
    for dtype in (np.float32, np.float64):
        x = rng.normal(size=(batch, channels) + spatial).astype(dtype)
        network = _one_conv(channels, spatial, spec, (w.astype(dtype), b.astype(dtype)))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ops, "_SCRATCH_ELEMENTS", 1 << 40)
            whole = net._forward_layers(network, x)[0][0]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ops, "_SCRATCH_ELEMENTS", budget)
            slabs = [net._forward_layers(network, x)[0][0],
                     net._forward_layers(network, x, ops.Workspace())[0][0]]
        for got in slabs:
            assert got.dtype == whole.dtype and got.tobytes() == whole.tobytes()


@pytest.mark.parametrize("spatial,slabs", [
    ((7, 16), 7),    # 16 positions a row: a row a slab
    ((8, 8), 4),     # 8 a row: two rows a slab
    ((8, 5, 4), 2),  # 20 a row: four rows (80) a slab
    ((5, 5, 4), 1),  # 100 positions are no whole number of 16-position tiles
    ((8, 6), 1),     # 6 a row: 16-aligned slabs need all 8 rows
])
def test_conv_forward_slabs_hold_whole_tiles(monkeypatch, spatial, slabs):
    """Under a budget of 16 values, each slab of a conv's output holds the
    fewest whole rows that make a multiple of 16 output positions, and an
    output whose positions are no multiple of 16 runs as one slab."""
    rank = len(spatial)
    network = _one_conv(1, spatial, ConvSpec((1,) * rank, (1,) * rank, "valid", 1))
    monkeypatch.setattr(ops, "_SCRATCH_ELEMENTS", 16)
    real, calls = ops._im2col, []
    monkeypatch.setattr(ops, "_im2col", lambda windows, ws: calls.append(1) or real(windows, ws))
    net._forward_layers(network, np.random.default_rng(25).normal(size=(1, 1) + spatial))
    assert len(calls) == slabs


def test_conv_forward_slabs_fit_the_budget():
    """A 64^3 volume's layer-0 forward takes its im2col copy and GEMM
    output one slab at a time within the budget: the workspace keeps them,
    one in each buffer, and keeps no buffer above the budget. The 65^3
    padded input is made once, outside the workspace."""
    rng = np.random.default_rng(23)
    network = _one_conv(1, (64, 64, 64), ConvSpec((2, 2, 2), (1, 1, 1), "same", 10))
    x = rng.normal(size=(1, 1, 64, 64, 64)).astype(np.float32)
    ws = ops.Workspace()
    net._forward_layers(network, x, ws)
    assert all(buffer.size for buffer in ws.buffers)
    assert all(buffer.size <= ops._SCRATCH_ELEMENTS for buffer in ws.buffers)
    assert ws.nbytes == sum(buffer.nbytes for buffer in ws.buffers)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("m,n,batch", [(128, 640, 10), (2, 128, 3), (16, 40960, 1), (5, 7, None)])
def test_fully_connected_backward_without_weight_grad(dtype, m, n, batch):
    """The backward returns the input and bias gradients alone, in the
    input's dtype (the caller keeps the weight gradient's factors): the
    input gradient has the bytes of one whole float64 cast of the weights
    and the bias gradient those of the float64 batch sum."""
    rng = np.random.default_rng(24)
    batch = batch or 1  # None: one sample, as a batch of one
    x = rng.normal(size=(batch, n)).astype(dtype)
    w = rng.normal(size=(m, n)).astype(dtype)
    g = rng.normal(size=(batch, m)).astype(dtype)
    gi, gb = ops.fully_connected_backward(g, x, w)
    assert gi.dtype == gb.dtype == dtype
    assert gi.tobytes() == _fc_input_grad_whole_cast(g, x, w).astype(dtype).tobytes()
    assert gb.tobytes() == g.astype(np.float64).sum(axis=0).astype(dtype).tobytes()


# (input shape, conv spec, pool window, pool stride, pool padding): desk's two
# blocks and both reference3d variants' first block on a smaller volume, each
# at 1 and 12 samples
_GEOMETRIES = [
    ((batch,) + sample, spec, window, stride, padding)
    for batch in (1, 12)
    for sample, spec, window, stride, padding in [
        ((1, 32, 32), ConvSpec((2, 2), (1, 1), "same", 10), (2, 2), (2, 2), "valid"),
        ((10, 16, 16), ConvSpec((2, 2), (1, 1), "same", 10), (2, 2), (2, 2), "valid"),
        ((1, 8, 8, 8), ConvSpec((2, 2, 2), (1, 1, 1), "same", 10), (2, 2, 2), (2, 2, 2), "valid"),
        ((1, 8, 8, 8), ConvSpec((2, 2, 2), (2, 2, 2), "valid", 10), (2, 2, 2), (1, 1, 1), "same"),
    ]
]


def _conv_forward_from_scratch(x, w, b, spec):
    """conv_forward's arithmetic with nothing cached: np.pad, windows by
    sliding_window_view, and the bias added as a stride-0 column."""
    out = R.out_extent(x.shape[2:], spec.kernel, spec.stride, spec.padding)
    if spec.padding == "same":
        x = np.pad(x, [(0, 0)] * 2 + R.pad_amounts(x.shape[2:], spec.kernel, spec.stride, out))
    rank = len(spec.kernel)
    order = [0, 1] + list(range(rank + 2, 2 * rank + 2)) + list(range(2, rank + 2))
    windows = R.spatial_windows(x, spec.kernel, spec.stride).transpose(order)
    cols = windows.reshape(len(x), -1, math.prod(out)).astype(np.float64)
    y = np.matmul(w.reshape(len(w), -1).astype(np.float64), cols)
    y += b.astype(np.float64)[:, None]
    return y.reshape((len(x), len(w)) + out).astype(x.dtype)


def _run_geometries(rng_seed):
    """Each geometry's conv forward and backward (also on a non-contiguous
    slab view of its padded input), pad, max-pool and pool backward, twice
    over, the geometries alternating: (op, geometry, round, result) rows."""
    rng = np.random.default_rng(rng_seed)
    rows = []
    for rnd in range(2):
        for gi, (shape, spec, window, stride, padding) in enumerate(_GEOMETRIES):
            x = rng.normal(size=shape).astype(np.float32)
            w = rng.normal(size=(spec.filter_count, shape[1]) + spec.kernel).astype(np.float32)
            b = rng.normal(size=spec.filter_count).astype(np.float32)
            y = ops.conv_forward(x, w, b, spec)
            g = rng.normal(size=y.shape)
            xp, valid, crop = ops.pad_input(x, spec)
            slab = xp[:, :, 1:1 + 2 * valid.kernel[0]]
            assert slab.flags.c_contiguous == (shape[0] * shape[1] == 1)
            pooled, cache = ops.maxpool(y, window, stride, padding)
            got = {"conv_forward": (x, w, b, spec, y),
                   "slab_forward": (slab, w, b, valid, ops.conv_forward(slab, w, b, valid)),
                   "conv_backward": ops.conv_backward(g, x, w, spec),
                   "pad_input": (xp, valid, crop),
                   "maxpool": (pooled, cache.argmax),
                   "maxpool_backward": ops.maxpool_backward(pooled.astype(np.float64), cache)}
            rows += [(op, gi, rnd, value) for op, value in got.items()]
    return rows


def test_cached_geometry_keeps_the_from_scratch_bytes(monkeypatch):
    """Ops run over alternating geometries (desk 2-D and reference3d 3-D,
    "same" and "valid", 1 and 12 samples, a non-contiguous slab view) give
    the bytes of the same calls with every geometry cache bypassed, windows
    built by sliding_window_view, inputs padded by np.pad, and convolutions
    with a column bias."""
    cached = _run_geometries(31)
    for op, gi, rnd, value in cached:
        if op in ("conv_forward", "slab_forward"):
            x, w, b, spec, y = value
            want = _conv_forward_from_scratch(np.ascontiguousarray(x), w, b, spec)
            assert y.dtype == want.dtype and y.tobytes() == want.tobytes(), (op, gi, rnd)
        elif op == "pad_input":
            xp, valid, crop = value
            shape, spec = _GEOMETRIES[gi][:2]
            pads = R.pad_amounts(shape[2:], spec.kernel, spec.stride,
                                 R.out_extent(shape[2:], spec.kernel, spec.stride, spec.padding))
            assert xp.shape == shape[:2] + tuple(s + a + c for s, (a, c) in zip(shape[2:], pads))
            assert valid == ConvSpec(spec.kernel, spec.stride, "valid", spec.filter_count)
            assert np.array_equal(np.pad(xp[crop], [(0, 0)] * 2 + pads), xp)
    for name in ("_out_extent", "_pad_geometry", "_pool_indices"):
        monkeypatch.setattr(ops, name, getattr(ops, name).__wrapped__)
    monkeypatch.setattr(ops, "_spatial_windows", R.spatial_windows)
    for (op, gi, rnd, got), (*_, want) in zip(cached, _run_geometries(31)):
        for a, b in zip(got, want):
            if isinstance(a, np.ndarray):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (op, gi, rnd)
            else:
                assert a == b, (op, gi, rnd)


def test_geometry_caches_hold_no_batch_sized_arrays():
    """A pool geometry seen at 1 and at 12 samples adds one cache entry, and
    its index arrays are read-only and sized by one sample's geometry."""
    ops._pool_indices.cache_clear()
    rng = np.random.default_rng(32)
    for batch in (1, 12, 1):
        pooled, cache = ops.maxpool(rng.normal(size=(batch, 10, 16, 16)), (2, 2), (2, 2))
        ops.maxpool_backward(pooled, cache)
    assert ops._pool_indices.cache_info().currsize == 1
    offsets, origins = ops._pool_indices((2, 2), (2, 2), (8, 8), (16, 16))
    assert offsets.shape == (4,) and origins.shape == (8, 8)
    for array in (offsets, origins):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 1


def test_out_extent_raises_on_every_repeat_of_a_bad_call():
    """A ShapeMismatch is never cached: the same bad geometry raises on
    every call, directly and through an op."""
    spec = ConvSpec((3, 3), (1, 1), "valid", 1)
    x, w, b = np.zeros((1, 1, 2, 5)), np.zeros((1, 1, 3, 3)), np.zeros(1)
    for _ in range(3):
        with pytest.raises(ShapeMismatch, match="empty output"):
            ops._out_extent((2, 5), (3, 3), (1, 1), "valid")
        with pytest.raises(ShapeMismatch, match="empty output"):
            ops.conv_forward(x, w, b, spec)
    assert ops._out_extent((3, 5), (3, 3), (1, 1), "valid") == (1, 3)
