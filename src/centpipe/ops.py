"""Differentiable layer primitives over dense numpy arrays.

Arrays are the tensor carrier: C-order ndarrays, float32 for network storage.
Every op is a pure function; backward passes take explicitly returned caches.
All ops preserve the input dtype but accumulate in float64, so float64 inputs
give full-precision results for finite-difference checking.

Layouts: convolution input is (channels, *spatial), filters are
(filter_count, channels, *kernel), 2D and 3D spatial ranks supported.

Batch axis: every op also takes a leading batch axis, and each op has one
implementation: a per-sample call runs as a batch of one. Convolution tells a
batch (batch, channels, *spatial) from one sample by rank; relu and maxpool
act on any leading axes; fully_connected's input rule is in its docstring;
softmax_cross_entropy takes (k,) logits with one class index or (batch, k)
logits with one index per row. Batched backward passes return the parameter
gradients summed over the batch, which is what one SGD step needs.
Convolution forward and backward run as im2col GEMMs: one matmul call covers
the whole batch, one GEMM per sample inside it. A batch costs memory in
proportion to its size (a convolution's im2col copy holds channels x kernel
float64 values per output position, 17 MB for one 64^3 sample), so the
training loop and net.forward_collect cap how many samples one call carries
at 2^17 elements in the largest per-sample activation; see
net._CHUNK_ELEMENTS.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class ShapeMismatch(ValueError):
    """Contract violation: operand shapes are inconsistent."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ShapeMismatch(msg)


@dataclass(frozen=True)
class ConvSpec:
    """Convolution geometry: per-axis kernel extent and stride, padding mode."""

    kernel: tuple[int, ...]
    stride: tuple[int, ...]
    padding: str = "valid"  # "valid" | "same" (zero-padded)
    filter_count: int = 1

    def __post_init__(self):
        _require(len(self.kernel) == len(self.stride),
                 f"kernel rank {self.kernel} != stride rank {self.stride}")
        _require(all(k >= 1 for k in self.kernel), f"kernel extents must be >= 1, got {self.kernel}")
        _require(all(s >= 1 for s in self.stride), f"strides must be >= 1, got {self.stride}")
        _require(self.padding in ("valid", "same"), f"unknown padding mode {self.padding!r}")
        _require(self.filter_count >= 1, f"filter_count must be >= 1, got {self.filter_count}")

    def output_extent(self, spatial: tuple[int, ...]) -> tuple[int, ...]:
        return _out_extent(spatial, self.kernel, self.stride, self.padding)


def _out_extent(spatial, kernel, stride, padding) -> tuple[int, ...]:
    _require(len(spatial) == len(kernel),
             f"spatial rank {spatial} does not match kernel rank {kernel}")
    out = []
    for s, k, st in zip(spatial, kernel, stride):
        if padding == "valid":
            o = (s - k) // st + 1
        else:
            o = -(-s // st)  # ceil
        _require(o >= 1, f"window {kernel} stride {stride} on extent {spatial} "
                         f"gives empty output on some axis")
        out.append(o)
    return tuple(out)


def _pad_amounts(spatial, kernel, stride, out) -> list[tuple[int, int]]:
    pads = []
    for s, k, st, o in zip(spatial, kernel, stride, out):
        total = max((o - 1) * st + k - s, 0)
        pads.append((total // 2, total - total // 2))
    return pads


def _spatial_windows(x: np.ndarray, kernel, stride) -> np.ndarray:
    """Strided view of all kernel-sized windows over the trailing len(kernel) axes."""
    rank = len(kernel)
    axes = tuple(range(x.ndim - rank, x.ndim))
    win = sliding_window_view(x, kernel, axis=axes)
    sub = (slice(None),) * (x.ndim - rank) + tuple(slice(None, None, s) for s in stride)
    return win[sub]


def _im2col(x: np.ndarray, spec: ConvSpec, out) -> tuple[np.ndarray, tuple, list]:
    """Float64 (batch, C * kernel, positions) copy of every window of the
    (batch, C, *spatial) input, zero-padded for "same", with the padded
    input shape and the per-axis (before, after) padding."""
    spatial = x.shape[2:]
    xw = x.astype(np.float64, copy=False)
    if spec.padding == "same":
        pads = _pad_amounts(spatial, spec.kernel, spec.stride, out)
        xw = np.pad(xw, [(0, 0), (0, 0)] + pads)
    else:
        _require(all(s >= k for s, k in zip(spatial, spec.kernel)),
                 f"kernel {spec.kernel} exceeds input extent {spatial}")
        pads = [(0, 0)] * len(spatial)
    rank = len(spatial)
    windows = _spatial_windows(xw, spec.kernel, spec.stride)  # (B, C, *out, *kernel)
    # copied with the output positions innermost: long contiguous runs
    order = [0, 1] + list(range(rank + 2, 2 * rank + 2)) + list(range(2, rank + 2))
    cols = windows.transpose(order).reshape(x.shape[0], -1, math.prod(out))
    return cols, xw.shape, pads


def conv_forward(x: np.ndarray, filters: np.ndarray, bias: np.ndarray,
                 spec: ConvSpec) -> np.ndarray:
    """Cross-correlate ([batch,] channels, *spatial) input with
    (F, channels, *kernel) filters.

    Returns ([batch,] F, *out_spatial); each element is the windowed dot
    product plus bias.
    """
    rank = len(spec.kernel)
    _require(x.ndim in (rank + 1, rank + 2),
             f"input {x.shape} is not ([batch,] channels, {rank} spatial axes)")
    _require(filters.ndim == rank + 2,
             f"filters {filters.shape} are not (filter_count, channels, {rank} kernel axes)")
    _require(filters.shape[0] == spec.filter_count,
             f"filters {filters.shape} disagree with spec filter_count {spec.filter_count}")
    _require(filters.shape[1] == x.shape[-rank - 1],
             f"input channels {x.shape[-rank - 1]} != filter channels {filters.shape[1]} "
             f"(input {x.shape}, filters {filters.shape})")
    _require(tuple(filters.shape[2:]) == spec.kernel,
             f"filter kernel {filters.shape[2:]} != spec kernel {spec.kernel}")
    _require(bias.shape == (spec.filter_count,),
             f"bias {bias.shape} != (filter_count,) = ({spec.filter_count},)")

    single = x.ndim == rank + 1
    xb = x[None] if single else x
    out = _out_extent(xb.shape[2:], spec.kernel, spec.stride, spec.padding)
    cols, _, _ = _im2col(xb, spec, out)
    # (F, C * kernel) @ (B, C * kernel, positions): one GEMM per sample, in
    # one matmul call over the batch, straight into the (B, F, positions) layout
    y = filters.astype(np.float64, copy=False).reshape(spec.filter_count, -1) @ cols
    del cols
    y += bias.astype(np.float64, copy=False)[:, None]
    y = y.reshape(xb.shape[:1] + (spec.filter_count,) + out).astype(x.dtype, copy=False)
    return y[0] if single else y


def conv_backward(grad_output: np.ndarray, cached_input: np.ndarray,
                  filters: np.ndarray, spec: ConvSpec
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of a scalar loss through conv_forward.

    Returns (grad_input, grad_filters, grad_bias) for the cached forward
    input; for a batch, grad_input keeps the batch axis and grad_filters and
    grad_bias are summed over it.
    """
    rank = len(spec.kernel)
    _require(cached_input.ndim in (rank + 1, rank + 2),
             f"cached input {cached_input.shape} is not ([batch,] channels, "
             f"{rank} spatial axes)")
    single = cached_input.ndim == rank + 1
    xb = cached_input[None] if single else cached_input
    batch, channels = xb.shape[:2]
    out = _out_extent(xb.shape[2:], spec.kernel, spec.stride, spec.padding)
    expect = (batch, spec.filter_count) + out
    _require(grad_output.shape == expect[single:],
             f"grad_output {grad_output.shape} != forward output shape {expect[single:]}")

    g = grad_output.astype(np.float64, copy=False).reshape(batch, spec.filter_count, -1)
    grad_bias = g.sum(axis=(0, 2))
    cols, padded, pads = _im2col(xb, spec, out)
    # (B, F, positions) @ (B, positions, C * kernel), summed over the batch
    grad_filters = (g @ cols.transpose(0, 2, 1)).sum(axis=0).reshape(filters.shape)
    del cols
    # col2im: (C * kernel, F) @ (B, F, positions), then each tap's rows are
    # added back into the padded input at that tap's offset
    fw = filters.astype(np.float64, copy=False).reshape(spec.filter_count, -1)
    dcols = (fw.T @ g).reshape((batch, channels) + spec.kernel + out)
    gpad = np.zeros(padded, dtype=np.float64)
    for offset in itertools.product(*(range(k) for k in spec.kernel)):
        sl = tuple(slice(o, o + st * n, st) for o, st, n in zip(offset, spec.stride, out))
        gpad[(slice(None), slice(None)) + sl] += dcols[(slice(None), slice(None)) + offset]
    del dcols
    crop = tuple(slice(b, b + s) for (b, _), s in zip(pads, xb.shape[2:]))
    grad_input = gpad[(slice(None), slice(None)) + crop]

    dt = cached_input.dtype
    return ((grad_input[0] if single else grad_input).astype(dt, copy=False),
            grad_filters.astype(dt, copy=False), grad_bias.astype(dt, copy=False))


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def relu_backward(grad_output: np.ndarray, cached_input: np.ndarray) -> np.ndarray:
    """Pass-through where the cached input was strictly positive, zero elsewhere."""
    _require(grad_output.shape == cached_input.shape,
             f"grad_output {grad_output.shape} != input {cached_input.shape}")
    return grad_output * (cached_input > 0)


@dataclass(frozen=True)
class PoolCache:
    """Everything maxpool_backward needs: geometry plus per-window argmax."""

    input_shape: tuple[int, ...]
    window: tuple[int, ...]
    stride: tuple[int, ...]
    padding: str
    pad_before: tuple[int, ...]
    padded_spatial: tuple[int, ...]
    argmax: np.ndarray  # flat index into each window, lowest-index tie break


def maxpool(x: np.ndarray, window: tuple[int, ...], stride: tuple[int, ...],
            padding: str = "valid") -> tuple[np.ndarray, PoolCache]:
    """Max over sliding windows on the trailing len(window) axes.

    Leading axes (batch, channels) are untouched. Returns the pooled array and
    a cache recording the argmax of every window for gradient routing. A max
    needs no accumulation, so it runs in the input's dtype.
    """
    rank = len(window)
    _require(len(stride) == rank, f"window rank {window} != stride rank {stride}")
    _require(x.ndim >= rank, f"input {x.shape} has fewer axes than window {window}")
    _require(all(w >= 1 for w in window) and all(s >= 1 for s in stride),
             f"window {window} and stride {stride} must be positive")
    _require(padding in ("valid", "same"), f"unknown padding mode {padding!r}")

    spatial = x.shape[x.ndim - rank:]
    if padding == "valid":
        _require(all(s >= w for s, w in zip(spatial, window)),
                 f"window {window} larger than input extent {spatial}")
    out = _out_extent(spatial, window, stride, padding)
    xw = x
    if padding == "same":
        pads = _pad_amounts(spatial, window, stride, out)
        lead_pads = [(0, 0)] * (x.ndim - rank)
        xw = np.pad(x, lead_pads + pads, constant_values=-np.inf)
    else:
        pads = [(0, 0)] * rank
    windows = _spatial_windows(xw, window, stride)  # (*lead, *out, *window) view
    # Walk the window offsets in flat order, keeping the first maximum; NaN
    # counts as the largest value, as in np.argmax. Each offset is a strided
    # view, so no (*lead, *out, window size) copy is made.
    offsets = list(itertools.product(*(range(w) for w in window)))
    pooled = windows[(Ellipsis,) + offsets[0]].copy()
    argmax = np.zeros(pooled.shape, dtype=np.min_scalar_type(len(offsets) - 1))
    for flat, offset in enumerate(offsets[1:], 1):
        candidate = windows[(Ellipsis,) + offset]
        better = ~(candidate <= pooled)   # larger, or either side NaN
        better &= pooled == pooled        # ... but a NaN maximum stays
        # offsets rise, so a later winner always has the larger index
        np.maximum(argmax, better * argmax.dtype.type(flat), out=argmax)
        # np.maximum keeps its second argument on ties: the first maximum, so
        # a -0.0 maximum tied with a later +0.0 stays -0.0 (tests check the
        # signs against a gather at argmax)
        np.maximum(candidate, pooled, out=pooled)
    cache = PoolCache(x.shape, tuple(window), tuple(stride), padding,
                      tuple(b for b, _ in pads), xw.shape[x.ndim - rank:], argmax)
    return pooled, cache


def maxpool_backward(grad_output: np.ndarray, cache: PoolCache) -> np.ndarray:
    """Route the upstream gradient to each window's recorded argmax position.

    The window offsets are walked in turn: at one offset every window covers
    a different element, so the gradients of the windows whose argmax is that
    offset are added through one strided slice of a zeroed, padded buffer.
    Overlapping windows accumulate across offsets; the padding is cropped.
    """
    rank = len(cache.window)
    lead = cache.input_shape[:len(cache.input_shape) - rank]
    spatial = cache.input_shape[len(lead):]
    out = _out_extent(spatial, cache.window, cache.stride, cache.padding)
    _require(grad_output.shape == lead + out,
             f"grad_output {grad_output.shape} != pooled shape {lead + out}")
    g = grad_output.astype(np.float64, copy=False)
    gpad = np.zeros(lead + cache.padded_spatial, dtype=np.float64)
    for flat, offset in enumerate(itertools.product(*(range(w) for w in cache.window))):
        sl = tuple(slice(o, o + st * n, st) for o, st, n in zip(offset, cache.stride, out))
        gpad[(Ellipsis,) + sl] += np.where(cache.argmax == flat, g, 0.0)
    crop = tuple(slice(b, b + s) for b, s in zip(cache.pad_before, spatial))
    return gpad[(Ellipsis,) + crop].astype(grad_output.dtype, copy=False)


def fully_connected(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Affine map: weights (m, n) @ flattened input + bias (m,).

    Input-shape rule: a 2-D x of n columns, (batch, n), is a batch and gives
    (batch, m), one row per sample; (1, n) is a batch of one giving (1, m).
    Any other x flattens whole to one sample of n elements and gives (m,), so
    a per-sample caller may pass any shape holding n elements, (1, H, W)
    included. A caller holding a batch of multi-axis samples flattens each
    sample first, as the network does: x.reshape(len(x), -1).
    """
    _require(weights.ndim == 2, f"weights {weights.shape} are not (m, n)")
    _require(bias.shape == (weights.shape[0],),
             f"bias {bias.shape} != ({weights.shape[0]},)")
    n = weights.shape[1]
    single = not (x.ndim == 2 and x.shape[1] == n)
    _require(not single or x.size == n,
             f"weights {weights.shape} incompatible with input {x.shape}: it "
             f"flattens neither to ({n},) nor to (batch, {n})")
    flat = x.reshape(-1, n)
    # (m, n) @ (n, B): at B == 1 numpy runs this as the matrix-vector product
    # of one sample, so a batch of one gives that sample's bytes
    y = weights.astype(np.float64, copy=False) @ flat.T.astype(np.float64, copy=False)
    y += bias.astype(np.float64, copy=False)[:, None]
    y = y.T.astype(x.dtype, order="C", copy=False)
    return y[0] if single else y


def fully_connected_backward(grad_output: np.ndarray, cached_input: np.ndarray,
                             weights: np.ndarray
                             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Standard affine gradients; grad_input is reshaped to the cached input.

    A (batch, m) grad_output marks a batch: grad_weights and grad_bias are
    then summed over it. A (m,) grad_output is one sample.
    """
    m, n = weights.shape
    single = grad_output.ndim == 1
    _require(grad_output.shape[-1:] == (m,) and grad_output.ndim <= 2,
             f"grad_output {grad_output.shape} != ([batch,] {m})")
    g = grad_output.astype(np.float64, copy=False).reshape(-1, m)
    _require(cached_input.size == g.shape[0] * n,
             f"cached input {cached_input.shape} does not hold {g.shape[0]} "
             f"sample(s) of {n} elements")
    # the float64 weights are freed before grad_weights, as large, exists
    grad_input = (weights.astype(np.float64, copy=False).T @ g.T).T.reshape(cached_input.shape)
    flat = cached_input.astype(np.float64, copy=False).reshape(g.shape[0], n)
    grad_weights = g.T @ flat
    grad_bias = g.sum(axis=0)
    dt = cached_input.dtype
    return (grad_input.astype(dt, copy=False),
            grad_weights.astype(dt, copy=False),
            grad_bias.astype(dt, copy=False))


def softmax_cross_entropy(logits: np.ndarray, true_class
                          ) -> tuple[np.ndarray, float | np.ndarray, np.ndarray]:
    """Stabilized softmax with log loss against a class index.

    (k,) logits with an int class give (probs, loss, grad_logits) with a
    float loss; (batch, k) logits with a (batch,) array of classes give a
    (batch,) array of per-sample losses. grad = probs - one_hot(true_class).
    """
    _require(logits.ndim in (1, 2) and logits.shape[-1] >= 2,
             f"logits {logits.shape} must be ([batch,] k) with k >= 2")
    single = logits.ndim == 1
    k = logits.shape[-1]
    labels = np.asarray(true_class).reshape(-1)
    _require(labels.shape[0] == (1 if single else logits.shape[0]),
             f"{labels.shape[0]} class indices for logits {logits.shape}")
    _require(bool(((labels >= 0) & (labels < k)).all()),
             f"true_class {true_class} out of range for {k} logits")
    z = logits.astype(np.float64, copy=False).reshape(-1, k)
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1, keepdims=True)
    probs = e / total
    rows = np.arange(len(labels))
    loss = np.log(total[:, 0]) - shifted[rows, labels]
    grad = probs.copy()
    grad[rows, labels] -= 1.0
    dt = logits.dtype
    probs, grad = probs.astype(dt, copy=False), grad.astype(dt, copy=False)
    if single:
        return probs[0], float(loss[0]), grad[0]
    return probs, loss, grad
