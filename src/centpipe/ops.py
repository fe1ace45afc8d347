"""Differentiable layer primitives over dense numpy arrays.

Arrays are C-order ndarrays, float32 for network storage. Ops keep no state
(relu_backward overwrites its grad_output); backward passes take explicitly
returned caches and return parameter gradients summed over the batch. All
ops preserve the input dtype but accumulate in float64, so float64 inputs
give full-precision results for finite-difference checking.

Layouts: convolution input is (batch, channels, *spatial) with 2 or 3 spatial
axes and filters (filter_count, channels, *kernel); relu and maxpool act on
any leading axes; fully_connected takes (batch, n) input and its backward a
(batch, m) gradient; softmax_cross_entropy takes (batch, k) logits and a
(batch,) array of class indices. Any other shape raises ShapeMismatch.
first_nonfinite is the one scan for NaN or infinite values, of parameters,
activations and features alike; NonFiniteError is what a failed scan raises.

_SCRATCH_ELEMENTS (1 MB of float64) bounds every part the work is cut into,
and _row_parts makes every cut. A kernel takes its float64 scratch from a
Workspace and writes into it through np.copyto and out=, the same arithmetic
as a fresh array; no op returns workspace memory. Geometry that depends
only on shapes (output extents, pads, pool window indices) is computed once
per shape by bounded caches, and no cache holds an array that grows with the
batch. README's "Networks" section tells how the network cuts its work to the
budget.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import as_strided


class ShapeMismatch(ValueError):
    """Contract violation: operand shapes are inconsistent."""


class NonFiniteError(ArithmeticError):
    """NaN or infinite samples reached a histogram or a range, or features
    reached the forest (not a ValueError: exit 1)."""


def first_nonfinite(values: np.ndarray) -> tuple[int, ...] | None:
    """The index of values' first NaN or infinite value in C order, or None
    if every value is finite. Min and max are finite exactly when every
    value is and make no array of values' size, so a mask is built only to
    find a bad value."""
    if values.size == 0 or np.isfinite([values.min(), values.max()]).all():
        return None
    return tuple(int(i) for i in np.unravel_index(np.argmax(~np.isfinite(values)), values.shape))


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ShapeMismatch(msg)


@dataclass(frozen=True)
class ConvSpec:
    """Window geometry of a conv, or of a max-pool (filter_count left at 1):
    per-axis window (kernel) extent and stride, and padding mode."""

    kernel: tuple[int, ...]
    stride: tuple[int, ...]
    padding: str = "valid"  # "valid" | "same" (zero-padded)
    filter_count: int = 1

    def __post_init__(self):
        _require(len(self.kernel) == len(self.stride),
                 f"window rank {self.kernel} != stride rank {self.stride}")
        _require(all(k >= 1 for k in self.kernel), f"window extents must be >= 1, got {self.kernel}")
        _require(all(s >= 1 for s in self.stride), f"strides must be >= 1, got {self.stride}")
        _require(self.padding in ("valid", "same"), f"unknown padding mode {self.padding!r}")
        _require(self.filter_count >= 1, f"filter_count must be >= 1, got {self.filter_count}")

    def output_extent(self, spatial: tuple[int, ...]) -> tuple[int, ...]:
        return _out_extent(spatial, self.kernel, self.stride, self.padding)


# Shape-only geometry is cached per distinct shape; an exception (a
# ShapeMismatch) leaves no entry, so a bad call raises on every repeat
@functools.lru_cache(maxsize=64)
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


def _spatial_windows(x: np.ndarray, kernel, stride) -> np.ndarray:
    """Read-only strided view of all kernel-sized windows, `stride` apart,
    over the trailing len(kernel) axes: (*lead, *positions, *kernel). Built
    from x's own strides, so any strided view of an array works."""
    lead = x.ndim - len(kernel)
    steps = x.strides[lead:]
    positions = _out_extent(x.shape[lead:], kernel, stride, "valid")
    return as_strided(x, x.shape[:lead] + positions + kernel,
                      x.strides[:lead] + tuple(d * st for d, st in zip(steps, stride)) + steps,
                      writeable=False)


# Most float64 elements one scratch part holds (1 MB)
_SCRATCH_ELEMENTS = 1 << 17

# A float64 fc weight block holds a multiple of this many rows (forward) or
# columns (backward): blocks of 1 or 2 rows were seen to sum some batches in
# another order than the whole matrix, and blocks of 4 to 64 rows were not
# for batches of 1 to 9 samples, which net._chunk_size keeps split fc layers to
_FC_ALIGN = 4


class Workspace:
    """Two float64 scratch buffers reused across calls. `take` returns the
    first values of one in the shape asked: "cols", "bias", "fc" and "gw"
    from the first, "out", "gpad" and "gw_part" from the second. No kernel holds two
    arrays of one buffer at once, and each overwrites what it takes. A
    buffer grows to the largest array taken within _SCRATCH_ELEMENTS values
    (read when `take` runs); a larger array is allocated for its call alone.
    """

    _BUFFER = {"cols": 0, "bias": 0, "fc": 0, "gw": 0, "out": 1, "gpad": 1, "gw_part": 1}

    def __init__(self):
        self.buffers = [np.empty(0), np.empty(0)]

    def take(self, role: str, shape: tuple[int, ...]) -> np.ndarray:
        size = math.prod(shape)
        if size > _SCRATCH_ELEMENTS:
            return np.empty(shape)
        i = self._BUFFER[role]
        if self.buffers[i].size < size:
            self.buffers[i] = np.empty(size)
        return self.buffers[i][:size].reshape(shape)

    @property
    def nbytes(self) -> int:
        """Bytes of the buffers kept."""
        return sum(buffer.nbytes for buffer in self.buffers)


def _row_parts(count: int, row_elements: int, align: int = 1) -> list[slice]:
    """Slices over `count` rows of `row_elements` values each: parts of a
    multiple of `align` rows, as many as fit in _SCRATCH_ELEMENTS (at least
    `align`); a remainder shorter than `align` rows joins the part before."""
    step = max(align, _SCRATCH_ELEMENTS // row_elements // align * align)
    starts = list(range(0, count, step))
    if len(starts) > 1 and count - starts[-1] < align:
        starts.pop()
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [count])]


@functools.lru_cache(maxsize=64)
def _pad_geometry(spatial: tuple[int, ...], spec: ConvSpec
                  ) -> tuple[tuple[slice, ...], tuple[int, ...], ConvSpec]:
    """The padding geometry of spec's windows on input with trailing axes
    `spatial` (none for "valid"; "same" pads the odd element after): the
    slices of the input's place in the padded array, the padded spatial
    extents and the "valid" spec that gives spec's output on it."""
    crop, padded = [Ellipsis], []
    for s, k, st, o in zip(spatial, spec.kernel, spec.stride, spec.output_extent(spatial)):
        total = max((o - 1) * st + k - s, 0)
        crop.append(slice(total // 2, total // 2 + s))
        padded.append(s + total)
    return tuple(crop), tuple(padded), replace(spec, padding="valid")


def pad_input(x: np.ndarray, spec: ConvSpec, fill: float = 0.0
              ) -> tuple[np.ndarray, ConvSpec, tuple[slice, ...]]:
    """x padded once with `fill` (zeros for a conv, -inf for a max-pool) on
    its trailing len(spec.kernel) axes, under any leading axes, as spec's
    padding asks (x itself for "valid"), in x's dtype; the "valid" spec that
    gives spec's output on it; and the slices of x's place in it."""
    lead = x.ndim - len(spec.kernel)
    crop, padded, valid = _pad_geometry(x.shape[lead:], spec)
    if spec.padding == "valid":
        return x, spec, crop
    xp = np.full(x.shape[:lead] + padded, fill, x.dtype)
    xp[crop] = x
    return xp, valid, crop


def _im2col(windows: np.ndarray, ws: Workspace) -> np.ndarray:
    """The workspace's float64 (batch, C * kernel, positions) "cols" copy of
    _spatial_windows' (batch, C, *positions, *kernel) view of the padded
    input."""
    rank = (windows.ndim - 2) // 2
    # copied with the output positions innermost: long contiguous runs
    order = [0, 1] + list(range(rank + 2, 2 * rank + 2)) + list(range(2, rank + 2))
    channels, kernel = windows.shape[1], windows.shape[rank + 2:]
    positions = windows.shape[2:rank + 2]
    cols = ws.take("cols", (windows.shape[0], channels * math.prod(kernel), math.prod(positions)))
    np.copyto(cols.reshape(windows.shape[:2] + kernel + positions), windows.transpose(order))
    return cols


def conv_forward(x: np.ndarray, filters: np.ndarray, bias: np.ndarray,
                 spec: ConvSpec, workspace: Workspace | None = None) -> np.ndarray:
    """Cross-correlate (batch, channels, *spatial) input with
    (F, channels, *kernel) filters.

    Returns (batch, F, *out_spatial); each element is the windowed dot
    product plus bias. Scratch arrays come from `workspace`.
    """
    rank = len(spec.kernel)
    _require(x.ndim == rank + 2,
             f"input {x.shape} is not (batch, channels, {rank} spatial axes)")
    _require(filters.ndim == rank + 2,
             f"filters {filters.shape} are not (filter_count, channels, {rank} kernel axes)")
    _require(filters.shape[0] == spec.filter_count,
             f"filters {filters.shape} disagree with spec filter_count {spec.filter_count}")
    _require(filters.shape[1] == x.shape[1],
             f"input channels {x.shape[1]} != filter channels {filters.shape[1]} "
             f"(input {x.shape}, filters {filters.shape})")
    _require(tuple(filters.shape[2:]) == spec.kernel,
             f"filter kernel {filters.shape[2:]} != spec kernel {spec.kernel}")
    _require(bias.shape == (spec.filter_count,),
             f"bias {bias.shape} != (filter_count,) = ({spec.filter_count},)")

    out = _out_extent(x.shape[2:], spec.kernel, spec.stride, spec.padding)
    ws = workspace or Workspace()
    cols = _im2col(_spatial_windows(pad_input(x, spec)[0], spec.kernel, spec.stride), ws)
    fw = filters.astype(np.float64, copy=False).reshape(spec.filter_count, -1)
    # (F, C * kernel) @ (B, C * kernel, positions): one GEMM per sample, in
    # one matmul call over the batch, straight into (B, F, positions)
    y = ws.take("out", (len(x), spec.filter_count, cols.shape[2]))
    np.matmul(fw, cols, out=y)
    del cols  # spent: the bias row takes its buffer
    # the bias added as a whole (F, positions) row: the same sums as a
    # stride-0 column in about half the time
    row = ws.take("bias", y.shape[1:])
    row[...] = bias[:, None]
    y += row
    # a cast copy: y is workspace memory
    return y.reshape((len(x), spec.filter_count) + out).astype(x.dtype)


def conv_backward(grad_output: np.ndarray, cached_input: np.ndarray,
                  filters: np.ndarray, spec: ConvSpec, input_grad: bool = True,
                  workspace: Workspace | None = None
                  ) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Gradients of a scalar loss through conv_forward.

    Returns (grad_input, grad_filters, grad_bias) for the cached forward
    input: grad_input keeps the batch axis, and grad_filters and grad_bias
    are summed over it. With input_grad=False, grad_input is None
    and its col2im is skipped. Scratch arrays come from `workspace`.
    """
    rank = len(spec.kernel)
    _require(cached_input.ndim == rank + 2,
             f"cached input {cached_input.shape} is not (batch, channels, {rank} spatial axes)")
    batch, channels = cached_input.shape[:2]
    out = _out_extent(cached_input.shape[2:], spec.kernel, spec.stride, spec.padding)
    expect = (batch, spec.filter_count) + out
    _require(grad_output.shape == expect,
             f"grad_output {grad_output.shape} != forward output shape {expect}")

    g = grad_output.astype(np.float64, copy=False).reshape(batch, spec.filter_count, -1)
    grad_bias = g.sum(axis=(0, 2))
    ws = workspace or Workspace()
    xp, _, crop = pad_input(cached_input, spec)
    cols = _im2col(_spatial_windows(xp, spec.kernel, spec.stride), ws)
    # (B, F, positions) @ (B, positions, C * kernel), summed over the batch
    grad_filters = (g @ cols.transpose(0, 2, 1)).sum(axis=0).reshape(filters.shape)
    dt = cached_input.dtype
    grad_filters, grad_bias = grad_filters.astype(dt, copy=False), grad_bias.astype(dt, copy=False)
    if not input_grad:
        return None, grad_filters, grad_bias
    # col2im: (C * kernel, F) @ (B, F, positions) into the spent cols, then
    # each tap's rows are added back into the padded input at that tap's offset
    fw = filters.astype(np.float64, copy=False).reshape(spec.filter_count, -1)
    dcols = np.matmul(fw.T, g, out=cols).reshape((batch, channels) + spec.kernel + out)
    gpad = ws.take("gpad", xp.shape)
    gpad.fill(0)
    for offset in itertools.product(*(range(k) for k in spec.kernel)):
        sl = tuple(slice(o, o + st * n, st) for o, st, n in zip(offset, spec.stride, out))
        gpad[(slice(None), slice(None)) + sl] += dcols[(slice(None), slice(None)) + offset]
    grad_input = gpad[crop]
    # a copy: gpad is workspace memory
    return grad_input.astype(dt), grad_filters, grad_bias


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def relu_backward(grad_output: np.ndarray, cached_input: np.ndarray) -> np.ndarray:
    """Pass-through where the cached input was strictly positive, zero elsewhere.

    cached_input is the relu's input or its > 0 mask as bool, which the
    network keeps instead (a mask is true where it is positive). Multiplies
    in place: the result is grad_output itself, overwritten."""
    _require(grad_output.shape == cached_input.shape,
             f"grad_output {grad_output.shape} != input {cached_input.shape}")
    # compared with a zero of its own dtype: a bool mask against 0 would go
    # through numpy's integer loop, several times slower than the bool one
    zero = cached_input.dtype.type(0)
    return np.multiply(grad_output, cached_input > zero, out=grad_output)


@dataclass(frozen=True)
class PoolCache:
    """Everything maxpool_backward needs: geometry plus per-window argmax."""

    window: tuple[int, ...]
    stride: tuple[int, ...]
    crop: tuple  # the input's place in the padded input (see _pad_geometry)
    padded_spatial: tuple[int, ...]
    argmax: np.ndarray  # flat index into each window, lowest-index tie break


def maxpool(x: np.ndarray, window: tuple[int, ...], stride: tuple[int, ...],
            padding: str = "valid", cache: bool = True) -> tuple[np.ndarray, PoolCache | None]:
    """Max over sliding windows on the trailing len(window) axes.

    Leading axes (batch, channels) are untouched. Returns the pooled array
    and, with cache, the PoolCache maxpool_backward reads: the argmax of every
    window, its first maximum in flat window order, NaN counting as the
    largest value as in np.argmax. Without cache (a pass no backward reads)
    no argmax is kept and the cache is None; the pooled array's bytes are the
    same either way, signed zeros and NaN included. A max needs no
    accumulation, so it runs in the input's dtype. The window rules and
    padding are a conv's (ConvSpec, pad_input), "same" filled with -inf.
    """
    spec = ConvSpec(tuple(window), tuple(stride), padding)
    window, stride = spec.kernel, spec.stride
    xw, _, crop = pad_input(x, spec, -np.inf)
    windows = _spatial_windows(xw, window, stride)  # (*lead, *out, *window) view
    # Walk the window offsets in flat order, keeping the first maximum. Each
    # offset is a strided view, so no (*lead, *out, window size) copy is made.
    offsets = list(itertools.product(*(range(w) for w in window)))
    pooled = windows[(Ellipsis,) + offsets[0]].copy()
    argmax = np.zeros(pooled.shape, dtype=np.min_scalar_type(len(offsets) - 1)) if cache else None
    for flat, offset in enumerate(offsets[1:], 1):
        candidate = windows[(Ellipsis,) + offset]
        if cache:
            better = ~(candidate <= pooled)   # larger, or either side NaN
            better &= pooled == pooled        # ... but a NaN maximum stays
            # offsets rise, so a later winner always has the larger index
            np.maximum(argmax, better * argmax.dtype.type(flat), out=argmax)
        # np.maximum keeps its second argument on ties: the first maximum, so
        # a -0.0 maximum tied with a later +0.0 stays -0.0 (tests check the
        # signs against a gather at argmax)
        np.maximum(candidate, pooled, out=pooled)
    if not cache:
        return pooled, None
    return pooled, PoolCache(window, stride, crop, xw.shape[xw.ndim - len(window):], argmax)


@functools.lru_cache(maxsize=64)
def _pool_indices(window, stride, out, padded) -> tuple[np.ndarray, np.ndarray]:
    """Read-only flat indices into one sample's padded (*padded) input of
    each offset inside a window, in flat window order, and of each window's
    origin, shaped `out`."""
    offsets = np.ravel_multi_index(np.unravel_index(np.arange(math.prod(window)), window), padded)
    origins = np.ravel_multi_index(
        np.ogrid[tuple(slice(0, st * n, st) for st, n in zip(stride, out))], padded)
    offsets.flags.writeable = origins.flags.writeable = False
    return offsets, origins


def maxpool_backward(grad_output: np.ndarray, cache: PoolCache) -> np.ndarray:
    """Route the upstream gradient to each window's recorded argmax position.

    Each window's argmax becomes one flat index into the padded input (the
    window's origin plus the argmax's offset inside a window), and one
    np.bincount adds the gradients there in window order, as a scatter-add
    over the windows would. Overlapping windows accumulate; the padding is
    cropped.
    """
    lead = cache.argmax.shape[:cache.argmax.ndim - len(cache.window)]
    out = cache.argmax.shape[len(lead):]
    _require(grad_output.shape == cache.argmax.shape,
             f"grad_output {grad_output.shape} != pooled shape {cache.argmax.shape}")
    padded = cache.padded_spatial
    offsets, origins = _pool_indices(cache.window, cache.stride, out, padded)
    idx = offsets[cache.argmax]
    idx += origins
    idx += np.arange(math.prod(lead)).reshape(lead + (1,) * len(out)) * math.prod(padded)
    gpad = np.bincount(idx.ravel(), weights=grad_output.astype(np.float64, copy=False).ravel(),
                       minlength=math.prod(lead + padded)).reshape(lead + padded)
    return gpad[cache.crop].astype(grad_output.dtype, copy=False)


def fully_connected(x: np.ndarray, weights: np.ndarray, bias: np.ndarray,
                    workspace: Workspace | None = None) -> np.ndarray:
    """Affine map: weights (m, n) @ each row of x + bias (m,).

    x is (batch, n) and the result (batch, m), one row per sample. A caller
    holding a batch of multi-axis samples flattens each sample first, as the
    network does: x.reshape(len(x), -1). The float64 weight blocks come from
    `workspace`.
    """
    _require(weights.ndim == 2, f"weights {weights.shape} are not (m, n)")
    _require(bias.shape == (weights.shape[0],),
             f"bias {bias.shape} != ({weights.shape[0]},)")
    n = weights.shape[1]
    _require(x.ndim == 2 and x.shape[1] == n,
             f"input {x.shape} is not (batch, {n}) for weights {weights.shape}")
    flat_t = x.T.astype(np.float64, copy=False)
    # (m, n) @ (n, B), one block of a multiple of _FC_ALIGN rows at a time: at
    # B == 1 numpy runs this as the matrix-vector product of one sample, so a
    # batch of one gives that sample's bytes
    y = np.empty((weights.shape[0], flat_t.shape[1]))
    ws = workspace or Workspace()
    for rows in _row_parts(weights.shape[0], n, _FC_ALIGN):
        block = ws.take("fc", weights[rows].shape)
        np.copyto(block, weights[rows])
        np.matmul(block, flat_t, out=y[rows])
        del block  # one above the budget is freed before the next is taken
    y += bias.astype(np.float64, copy=False)[:, None]
    return y.T.astype(x.dtype, order="C", copy=False)


def fully_connected_backward(grad_output: np.ndarray, cached_input: np.ndarray,
                             weights: np.ndarray, workspace: Workspace | None = None
                             ) -> tuple[np.ndarray, np.ndarray]:
    """Affine gradients of a (batch, m) grad_output at the (batch, n) cached
    input: grad_input (batch, n) and grad_bias summed over the batch. The
    (m, n) weight gradient grad_output.T @ input is left to the caller, which
    keeps the two factors, as net.train does. The float64 weight blocks come
    from `workspace`.
    """
    m, n = weights.shape
    _require(grad_output.ndim == 2 and grad_output.shape[1] == m,
             f"grad_output {grad_output.shape} is not (batch, {m})")
    _require(cached_input.shape == (len(grad_output), n),
             f"cached input {cached_input.shape} is not ({len(grad_output)}, {n})")
    g = grad_output.astype(np.float64, copy=False)
    # (n, m) @ (m, B), one block of a multiple of _FC_ALIGN weight columns at a time
    grad_input = np.empty((n, g.shape[0]))
    ws = workspace or Workspace()
    for cols in _row_parts(n, m, _FC_ALIGN):
        block = ws.take("fc", weights[:, cols].shape)
        np.copyto(block, weights[:, cols])
        np.matmul(block.T, g.T, out=grad_input[cols])
    dt = cached_input.dtype
    return grad_input.T.astype(dt, copy=False), g.sum(axis=0).astype(dt, copy=False)


def softmax_cross_entropy(logits: np.ndarray, true_class: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stabilized softmax with log loss against class indices.

    (batch, k) logits with a (batch,) array of classes give (probs, losses,
    grad_logits), losses a (batch,) array of per-sample losses.
    grad = probs - one_hot(true_class).
    """
    _require(logits.ndim == 2 and logits.shape[1] >= 2,
             f"logits {logits.shape} must be (batch, k) with k >= 2")
    k = logits.shape[1]
    labels = np.asarray(true_class)
    _require(labels.shape == (len(logits),),
             f"class indices {labels.shape} for logits {logits.shape} are not ({len(logits)},)")
    bad = (labels < 0) | (labels >= k)
    if bad.any():  # the message is built only on failure
        row = int(np.argmax(bad))
        raise ShapeMismatch(f"row {row}: true_class {labels[row]} out of range for {k} logits")
    z = logits.astype(np.float64, copy=False)
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1, keepdims=True)
    probs = e / total
    rows = np.arange(len(labels))
    loss = np.log(total[:, 0]) - shifted[rows, labels]
    grad = probs.copy()
    grad[rows, labels] -= 1.0
    dt = logits.dtype
    return probs.astype(dt, copy=False), loss, grad.astype(dt, copy=False)
