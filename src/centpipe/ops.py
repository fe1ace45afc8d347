"""Differentiable layer primitives over dense numpy arrays.

Arrays are the tensor carrier: C-order ndarrays, float32 for network storage.
Every op is a pure function; backward passes take explicitly returned caches.
All ops preserve the input dtype but accumulate in float64, so float64 inputs
give full-precision results for finite-difference checking.

Layouts: every op takes the batched arrays the network passes, and any other
shape is refused with a ShapeMismatch naming it. Convolution input is
(batch, channels, *spatial), filters are (filter_count, channels, *kernel),
2D and 3D spatial ranks supported; relu and maxpool act on any leading axes;
fully_connected takes a (batch, n) input and its backward a (batch, m)
gradient with that input; softmax_cross_entropy takes (batch, k) logits with
a (batch,) array of class indices. Backward passes return the parameter
gradients summed over the batch, which is what one SGD step needs.
Convolution forward and backward run as im2col GEMMs: one matmul call covers
the whole batch, one GEMM per sample inside it.

One scratch budget, _SCRATCH_ELEMENTS (1 MB of float64), bounds every part
the work is cut into, and _row_parts makes every cut. The convolutions run
on what they are given as one GEMM; the network cuts a conv block (conv,
relu, max-pool) above the budget into slabs of output rows before it calls
them (net._block_forward), so a 64^3 volume's convolutions never build a
whole im2col copy, GEMM output or col2im buffer. fully_connected (whole
rows) and its backward (whole columns) cast the float32 weights to float64
in blocks of a multiple of _FC_ALIGN (4), so no float64 copy of a large
weight matrix is made. Batched temporaries grow with the batch, so training
and net.forward_collect cap a chunk's largest activation at the same budget
(net._chunk_size). The chunks run in forked workers, one per usable CPU
(see workers), each process with OpenBLAS on one thread and a Workspace of
its own; no byte depends on the number of workers.

Training kernels skip work nothing reads: conv_backward(...,
input_grad=False) computes no input gradient, which the training loop asks of
layer 0, whose input is the image, and fully_connected_backward(...,
weight_grad=False) no weight gradient, which the training loop rebuilds from
its factors at the step. maxpool_backward routes every window's gradient to
its argmax with one np.bincount.

A convolution's input is zero-padded by pad_input alone, in its own dtype:
the network pads a conv block's input once and convolves slabs of it with
a "valid" spec, and a "same" spec given to conv_forward or conv_backward is
padded by them the same way. im2col's copy casts it to float64 exactly.

Training reuses its scratch memory: the kernels take their float64 scratch
arrays from a Workspace (two buffers, see Workspace) and write into them
through np.copyto and out=, which is the same arithmetic, so the bytes do
not change. net.train keeps one Workspace for its whole call and
net.forward_collect one for all its chunks (a forked worker gets a copy).
Still allocated per call are each conv block's padded input, the im2col
copies of a 64^3 volume's layer-1 slabs (one pool window of rows, 80x2048
values, exceeds the budget) and its fc forward's 4x40960 weight blocks, one
at a time. relu_backward multiplies in place into the upstream gradient,
which the training loop never reads again; it takes the relu's input or a
bool mask, and for a relu that a max-pool follows the network keeps the
pooled output's mask (net._block_forward). centpipe train's per-epoch
stderr line reports the minor page faults reuse saves.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

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


# Most float64 elements one scratch part holds (1 MB): see the module docstring
_SCRATCH_ELEMENTS = 1 << 17

# A float64 fc weight block holds a multiple of this many rows (forward) or
# columns (backward): blocks of 1 or 2 rows were seen to sum some batches in
# another order than the whole matrix, and blocks of 4 to 64 rows were not
# for batches of 1 to 9 samples, which net._chunk_size keeps split fc layers to
_FC_ALIGN = 4


class Workspace:
    """Two float64 scratch buffers, reused across calls: `take` returns the
    first values of one of them in the shape asked, "cols", "fc" and "gw"
    from the first and "out", "gpad" and "gw_part" from the second. No
    kernel holds two arrays of one buffer at once, and a kernel overwrites
    what it takes, so no kernel returns workspace memory. A buffer grows to
    the largest array taken from it, up to _SCRATCH_ELEMENTS values (read
    when `take` runs); a larger array is allocated for the call that takes
    it.
    """

    _BUFFER = {"cols": 0, "fc": 0, "gw": 0, "out": 1, "gpad": 1, "gw_part": 1}

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


def pad_input(x: np.ndarray, spec: ConvSpec) -> tuple[np.ndarray, ConvSpec, tuple[slice, ...]]:
    """The (batch, C, *spatial) input x zero-padded once as spec's padding
    asks (x itself for "valid"), in x's dtype, the "valid" spec that gives
    spec's output on it, and the slices of x's place in it."""
    spatial = x.shape[2:]
    pads = _pad_amounts(spatial, spec.kernel, spec.stride, spec.output_extent(spatial))
    crop = (slice(None), slice(None)) + tuple(slice(b, b + s) for (b, _), s in zip(pads, spatial))
    if spec.padding == "valid":
        return x, spec, crop
    xp = np.zeros(x.shape[:2] + tuple(b + s + a for (b, a), s in zip(pads, spatial)), x.dtype)
    xp[crop] = x
    return xp, replace(spec, padding="valid"), crop


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
    product plus bias. Scratch arrays come from `workspace`; the network
    cuts a large convolution into slabs of output rows before it calls this
    (see net._block_forward).
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
    y += bias.astype(np.float64, copy=False)[:, None]
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

    Each window's argmax becomes one flat index into the padded input (the
    window's origin plus the argmax's offset inside a window), and one
    np.bincount adds the gradients there in window order, as a scatter-add
    over the windows would. Overlapping windows accumulate; the padding is
    cropped.
    """
    rank = len(cache.window)
    lead = cache.input_shape[:len(cache.input_shape) - rank]
    spatial = cache.input_shape[len(lead):]
    out = _out_extent(spatial, cache.window, cache.stride, cache.padding)
    _require(grad_output.shape == lead + out,
             f"grad_output {grad_output.shape} != pooled shape {lead + out}")
    padded = cache.padded_spatial
    offsets = np.ravel_multi_index(
        np.unravel_index(np.arange(math.prod(cache.window)), cache.window), padded)
    origins = np.ravel_multi_index(
        np.ogrid[tuple(slice(0, st * n, st) for st, n in zip(cache.stride, out))], padded)
    idx = offsets[cache.argmax]
    idx += origins
    idx += np.arange(math.prod(lead)).reshape(lead + (1,) * rank) * math.prod(padded)
    gpad = np.bincount(idx.ravel(), weights=grad_output.astype(np.float64, copy=False).ravel(),
                       minlength=math.prod(lead + padded)).reshape(lead + padded)
    crop = tuple(slice(b, b + s) for b, s in zip(cache.pad_before, spatial))
    return gpad[(Ellipsis,) + crop].astype(grad_output.dtype, copy=False)


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
                             weights: np.ndarray, workspace: Workspace | None = None,
                             weight_grad: bool = True
                             ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Standard affine gradients of a (batch, m) grad_output at the
    (batch, n) cached input.

    grad_input is (batch, n); grad_weights and grad_bias are summed over the
    batch. With weight_grad=False, grad_weights is None and its (m, n) outer
    product grad_output.T @ input is skipped: the caller keeps the two
    factors instead, as net.train does. The float64 weight blocks come from
    `workspace`.
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
    grad_weights = None
    dt = cached_input.dtype
    if weight_grad:
        grad_weights = (g.T @ cached_input.astype(np.float64, copy=False)).astype(dt, copy=False)
    return grad_input.T.astype(dt, copy=False), grad_weights, g.sum(axis=0).astype(dt, copy=False)


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
