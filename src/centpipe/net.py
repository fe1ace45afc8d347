"""Layer stacks: construction, SGD training, activation snapshots, checkpoints.

A Network is an ordered list of LayerSpec plus float32 parameter arrays.
Shapes are chained and validated at build time, so the published shape trace
is available without running a forward pass.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import ops, workers
from .framing import FramedReader, i64, tensor_record, u32, write_framed
# load_checkpoint raises the framing errors; CheckpointError is their common base
from .framing import FramedFileError as CheckpointError
from .ops import ConvSpec, ShapeMismatch

CHECKPOINT_MAGIC = b"CENTCKPT"
CHECKPOINT_VERSION = 1


class TrainingDiverged(RuntimeError):
    """Loss became non-finite during training."""


@dataclass(frozen=True)
class LayerSpec:
    """One layer: kind plus the fields that kind uses.

    conv uses `conv`; maxpool uses window/stride/padding; fully_connected and
    softmax use `width` (softmax is an affine map to `width` logits followed by
    softmax normalization).
    """

    kind: str
    conv: ConvSpec | None = None
    window: tuple[int, ...] | None = None
    stride: tuple[int, ...] | None = None
    padding: str = "valid"
    width: int | None = None

    KINDS = ("conv", "relu", "maxpool", "fully_connected", "softmax")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.kind == "conv" and self.conv is None:
            raise ValueError("conv layer needs a ConvSpec")
        if self.kind == "maxpool" and (self.window is None or self.stride is None):
            raise ValueError("maxpool layer needs window and stride")
        if self.kind in ("fully_connected", "softmax") and not self.width:
            raise ValueError(f"{self.kind} layer needs a positive width")

    def to_dict(self) -> dict:
        d: dict = {"kind": self.kind}
        if self.kind == "conv":
            c = self.conv
            d["conv"] = {"kernel": list(c.kernel), "stride": list(c.stride),
                         "padding": c.padding, "filter_count": c.filter_count}
        elif self.kind == "maxpool":
            d.update(window=list(self.window), stride=list(self.stride),
                     padding=self.padding)
        elif self.kind in ("fully_connected", "softmax"):
            d["width"] = self.width
        return d

    @staticmethod
    def from_dict(d: dict) -> "LayerSpec":
        kind = d["kind"]
        if kind == "conv":
            c = d["conv"]
            return LayerSpec("conv", conv=ConvSpec(tuple(c["kernel"]), tuple(c["stride"]),
                                                   c["padding"], c["filter_count"]))
        if kind == "maxpool":
            return LayerSpec("maxpool", window=tuple(d["window"]),
                             stride=tuple(d["stride"]), padding=d["padding"])
        if kind in ("fully_connected", "softmax"):
            return LayerSpec(kind, width=d["width"])
        return LayerSpec(kind)


@dataclass
class Network:
    input_shape: tuple[int, ...]
    specs: list[LayerSpec]
    params: list[tuple[np.ndarray, np.ndarray] | None]  # (weights, bias) per layer
    seed: int
    layer_shapes: list[tuple[int, ...]] = field(default_factory=list)  # post-layer shapes

    def __post_init__(self):
        if not -2**63 <= self.seed < 2**63:  # the checkpoint stores it as an i64
            raise ValueError(f"net seed {self.seed} is outside the signed 64-bit range")


def _chain_shapes(input_shape: tuple[int, ...], specs: list[LayerSpec]) -> list[tuple[int, ...]]:
    shapes = []
    cur = tuple(input_shape)
    for i, spec in enumerate(specs):
        if spec.kind == "conv":
            c = spec.conv
            if len(cur) != len(c.kernel) + 1:
                raise ShapeMismatch(f"layer {i}: conv expects (channels, spatial) rank "
                                    f"{len(c.kernel) + 1}, got {cur}")
            cur = (c.filter_count,) + c.output_extent(cur[1:])
        elif spec.kind == "relu":
            pass
        elif spec.kind == "maxpool":
            rank = len(spec.window)
            if len(cur) < rank:
                raise ShapeMismatch(f"layer {i}: pool window {spec.window} deeper than {cur}")
            out = ops._out_extent(cur[len(cur) - rank:], spec.window, spec.stride, spec.padding)
            cur = cur[:len(cur) - rank] + out
        elif spec.kind in ("fully_connected", "softmax"):
            cur = (spec.width,)
        shapes.append(cur)
    return shapes


def _init_params(input_shape, specs, layer_shapes, seed):
    """Uniform[-s, s] with s = sqrt(6 / (fan_in + fan_out)); zero biases."""
    rng = np.random.default_rng(seed)
    params: list[tuple[np.ndarray, np.ndarray] | None] = []
    prev = tuple(input_shape)
    for spec, shape in zip(specs, layer_shapes):
        if spec.kind == "conv":
            c = spec.conv
            ksize = math.prod(c.kernel)
            fan_in, fan_out = prev[0] * ksize, c.filter_count * ksize
            s = math.sqrt(6.0 / (fan_in + fan_out))
            w = _uniform(rng, s, (c.filter_count, prev[0]) + c.kernel)
            params.append((w, np.zeros(c.filter_count, np.float32)))
        elif spec.kind in ("fully_connected", "softmax"):
            n = math.prod(prev)
            s = math.sqrt(6.0 / (n + spec.width))
            params.append((_uniform(rng, s, (spec.width, n)), np.zeros(spec.width, np.float32)))
        else:
            params.append(None)
        prev = shape
    return params


def _uniform(rng, s: float, shape: tuple[int, ...]) -> np.ndarray:
    """float32 Uniform[-s, s] draws of `shape`, taken from rng's float64
    stream in blocks of whole rows within ops._SCRATCH_ELEMENTS: the values
    of one float64 draw of the whole shape, without that float64 array."""
    w = np.empty(shape, np.float32)
    rows = w.reshape(shape[0], -1)
    for part in ops._row_parts(*rows.shape):
        rows[part] = rng.uniform(-s, s, size=(part.stop - part.start, rows.shape[1]))
    return w


def build_network(input_shape: tuple[int, ...], specs: list[LayerSpec], seed: int = 0) -> Network:
    shapes = _chain_shapes(tuple(input_shape), specs)
    params = _init_params(input_shape, specs, shapes, seed)
    return Network(tuple(input_shape), list(specs), params, seed, shapes)


def _conv_block(filters: int, kernel: tuple[int, ...], conv_stride: tuple[int, ...],
                conv_pad: str, pool_stride: tuple[int, ...], pool_pad: str) -> list[LayerSpec]:
    rank = len(kernel)
    return [
        LayerSpec("conv", conv=ConvSpec(kernel, conv_stride, conv_pad, filters)),
        LayerSpec("relu"),
        LayerSpec("maxpool", window=(2,) * rank, stride=pool_stride, padding=pool_pad),
    ]


REFERENCE_VARIANTS = ("pool-reduces", "conv-stride-reduces")


def build_reference_3d(variant: str = "pool-reduces", seed: int = 0) -> Network:
    """4-layer volumetric stack: 64^3 input -> 10x32^3 -> 10x16^3 -> 128 -> 2.

    pool-reduces: unit-stride zero-padded conv, pooling halves each extent.
    conv-stride-reduces: stride-2 conv halves, same-extent stride-1 pooling.
    """
    if variant not in REFERENCE_VARIANTS:
        raise ValueError(f"variant must be one of {REFERENCE_VARIANTS}, got {variant!r}")
    if variant == "pool-reduces":
        block = lambda f: _conv_block(f, (2, 2, 2), (1, 1, 1), "same", (2, 2, 2), "valid")
    else:
        block = lambda f: _conv_block(f, (2, 2, 2), (2, 2, 2), "valid", (1, 1, 1), "same")
    specs = block(10) + block(10) + [
        LayerSpec("fully_connected", width=128),
        LayerSpec("softmax", width=2),
    ]
    return build_network((1, 64, 64, 64), specs, seed)


DESK_EXTENTS = (32, 64)


def build_desk_2d(input_extent: int, classes: int, seed: int = 0) -> Network:
    """2D analog of the volumetric stack for desk-scale synthetic experiments."""
    if input_extent not in DESK_EXTENTS:
        raise ValueError(f"input_extent must be one of {DESK_EXTENTS}, got {input_extent}")
    if classes < 2:
        raise ValueError(f"classes must be >= 2, got {classes}")
    block = lambda f: _conv_block(f, (2, 2), (1, 1), "same", (2, 2), "valid")
    specs = block(10) + block(10) + [
        LayerSpec("fully_connected", width=128),
        LayerSpec("softmax", width=classes),
    ]
    return build_network((1, input_extent, input_extent), specs, seed)


def _blocks(specs: list[LayerSpec], streamed: bool = False):
    """(first, last) layer index of each block: a conv with its relu/maxpool
    tail, or any other single layer. With streamed, the blocks the network
    runs: a conv's block ends before the first tail layer that does not act
    on whole rows of the conv output's first spatial axis (see _by_rows),
    and that layer starts a block of its own."""
    i = 0
    while i < len(specs):
        j = i
        if specs[i].kind == "conv":
            rank = len(specs[i].conv.kernel)
            while (j + 1 < len(specs) and specs[j + 1].kind in ("relu", "maxpool")
                   and not (streamed and not _by_rows(specs[j + 1], rank))):
                j += 1
        yield i, j
        i = j + 1


def _by_rows(spec: LayerSpec, rank: int) -> bool:
    """Whether a relu or max-pool after a rank-`rank` conv acts on whole rows
    of its first spatial axis: a relu does, and so does a valid pool over
    every spatial axis whose windows tile that axis. A pool whose windows
    overlap, such as conv-stride-reduces' stride-1 "same" pool, does not."""
    return spec.kind == "relu" or (len(spec.window) == rank and spec.padding == "valid"
                                   and spec.stride[0] == spec.window[0])


def block_ends(specs: list[LayerSpec]) -> list[int]:
    """Index of the last layer of each block (conv + its relu/pool tail, fc, softmax)."""
    return [last for _, last in _blocks(specs)]


def shape_trace(net: Network) -> list[tuple[int, ...]]:
    """Input shape followed by each block's output shape."""
    return [net.input_shape] + [net.layer_shapes[i] for i in block_ends(net.specs)]


def cent_read_points(specs: list[LayerSpec], pre_relu: bool = False) -> list[int]:
    """Layer indices whose outputs feed CENT extraction.

    Each conv block contributes its block-end output (or the raw conv output
    when pre_relu), and every fully_connected layer contributes its output.
    The softmax layer never does.
    """
    return [first if pre_relu else last for first, last in _blocks(specs)
            if specs[first].kind in ("conv", "fully_connected")]


def _forward_layers(net: Network, x: np.ndarray, workspace: ops.Workspace | None = None,
                    reads=None, train: bool = False):
    """Run all layers on a (batch, *input_shape) array, one block of
    _blocks(streamed=True) at a time, a conv block slab by slab (see
    _block_forward). Returns (outs, caches): outs[i] is layer i's batched
    output for each i in `reads` (every layer, if None) and for the last
    layer, and None for the others, which are not kept; with train, caches
    holds each block's backward cache, in block order (else it is empty).
    The convolutions and fully connected ops draw their scratch arrays from
    `workspace`."""
    if tuple(x.shape[1:]) != net.input_shape:
        raise ShapeMismatch(f"input {x.shape[1:]} != network input shape {net.input_shape}")
    keep = set(range(len(net.specs)) if reads is None else reads) | {len(net.specs) - 1}
    outs: list[np.ndarray | None] = [None] * len(net.specs)
    caches = []
    cur = x
    for first, last in _blocks(net.specs, streamed=True):
        spec, par = net.specs[first], net.params[first]
        if spec.kind == "conv":
            got, cache = _block_forward(net, first, last, cur, workspace, keep, train)
        elif spec.kind in ("relu", "maxpool"):
            nxt, cache = _tail_forward(spec, cur, train)
            got = {first: nxt}
        else:  # fully_connected, or softmax's affine map to logits
            got = {first: ops.fully_connected(cur.reshape(len(cur), -1), *par,
                                              workspace=workspace)}
            cache = cur
        for i in keep & got.keys():
            outs[i] = got[i]
        cur = got[last]
        if train:
            caches.append(cache)
    return outs, caches


def _tail_forward(spec: LayerSpec, x: np.ndarray, train: bool):
    """A relu or max-pool layer on x, with what its backward reads: the
    relu's > 0 mask (with train only) or the pool cache."""
    if spec.kind == "relu":
        return ops.relu(x), (x > 0 if train else None)
    return ops.maxpool(x, spec.window, spec.stride, spec.padding)


def _tail_backward(g: np.ndarray, cache) -> np.ndarray:
    """The gradient through a relu (cache: its mask, multiplied into g in
    place) or a max-pool (cache: its PoolCache)."""
    if isinstance(cache, ops.PoolCache):
        return ops.maxpool_backward(g, cache)
    return ops.relu_backward(g, cache)


def _slabs(net: Network, first: int, last: int, batch: int) -> list[slice]:
    """The slabs of output rows (first spatial axis) of the conv at `first`
    that its block through `last` runs in, for a chunk of `batch` samples:
    runs of whole windows of the block's max-pools and of whole 16-position
    tiles (see below), as many as keep the larger of a slab's conv output
    and im2col copy within ops._SCRATCH_ELEMENTS, and at least one of each.
    A block within the budget, every desk block among them, runs as one
    slab."""
    conv = net.specs[first].conv
    channels = (net.layer_shapes[first - 1] if first else net.input_shape)[0]
    out = net.layer_shapes[first]  # (filters, *spatial)
    rest = math.prod(out[2:])
    # OpenBLAS sums a partial tile of output positions in another order than
    # a full one (slabs of 4 positions were seen to change bytes), so a slab
    # holds a multiple of 16 positions and the slabs give the forward bytes
    # of one slab; an output whose positions are no such multiple is one slab
    tile = 16 // math.gcd(rest, 16)
    if out[1] % tile:
        return [slice(0, out[1])]
    window = math.prod(spec.window[0] for spec in net.specs[first + 1:last + 1]
                       if spec.kind == "maxpool")
    row = batch * max(conv.filter_count, channels * math.prod(conv.kernel)) * rest
    return ops._row_parts(out[1], row, math.lcm(window, tile))


def _block_forward(net: Network, first: int, last: int, x: np.ndarray,
                   workspace: ops.Workspace | None, keep: set, train: bool):
    """Run the conv block first..last of _blocks(streamed=True) on x one
    slab of output rows at a time (see _slabs): x is padded once
    (ops.pad_input), each slab convolves its rows of it, halo included,
    then runs the tail layers, and its rows of every layer in `keep` and of
    the block's last layer are written into whole arrays. Returns ({layer:
    output} for those layers, and with train the cache _block_backward
    reads, else None): the padded input, its "valid" spec, the slices of x
    in it, and per slab its input rows, its rows of the block output and
    its tail layers' caches in layer order: a pool's argmax, and a relu's
    > 0 mask, which for a relu that a max-pool follows is the pooled
    output's mask, kept after the pool's cache and a window's volume
    smaller than the relu's own."""
    w, b = net.params[first]
    xp, conv, crop = ops.pad_input(x, net.specs[first].conv)
    cache = (xp, conv, crop, [])
    outs: dict[int, np.ndarray] = {}
    for rows in _slabs(net, first, last, len(x)):
        in_rows = _input_rows(rows, conv)
        cur = ops.conv_forward(xp[:, :, in_rows], w, b, conv, workspace=workspace)
        tails, lo = [], rows.start
        for i in range(first, last + 1):
            spec = net.specs[i]
            if i > first:
                pooled = spec.kind == "relu" and i < last and net.specs[i + 1].kind == "maxpool"
                cur, tail = _tail_forward(spec, cur, train and not pooled)
                if not pooled:
                    tails.append(tail)
                if spec.kind == "maxpool":
                    lo //= spec.window[0]
                    if train and net.specs[i - 1].kind == "relu":
                        tails.append(cur > 0)  # the mask of the relu before
            out_rows = slice(lo, lo + cur.shape[2])
            if i in keep or i == last:
                if i not in outs:
                    outs[i] = np.empty((len(x),) + net.layer_shapes[i], cur.dtype)
                outs[i][:, :, out_rows] = cur
        cache[3].append((in_rows, out_rows, tails))
    return outs, (cache if train else None)


def _input_rows(rows: slice, conv: ConvSpec) -> slice:
    """The input rows (first spatial axis) that output rows `rows` of a
    "valid" conv read."""
    return slice(rows.start * conv.stride[0], (rows.stop - 1) * conv.stride[0] + conv.kernel[0])


def _block_backward(w: np.ndarray, g: np.ndarray, cache: tuple, input_grad: bool,
                    workspace: ops.Workspace | None):
    """(grad_input, grad_filters, grad_bias) of a conv block from the float64
    gradient g of its output, slab by slab in the forward's slabs: each
    slab's rows of g run back through its tail caches, last first, and then
    conv_backward. A pooled relu mask multiplies the pool's gradient before
    maxpool_backward routes it: only each window's argmax gets gradient,
    and there the relu input is positive exactly when the pooled value is.
    The relu masks multiply in place, so g is overwritten. The filter and
    bias gradients, and the input-gradient slabs (into the padded input's
    shape, then cropped to x's), are added in slab order; with
    input_grad=False grad_input is None and no input gradient is
    computed."""
    xp, conv, crop, slabs = cache
    gx = np.zeros(xp.shape) if input_grad else None
    gw = gb = None
    for in_rows, out_rows, tails in slabs:
        gs = g[:, :, out_rows]
        for tail in reversed(tails):
            gs = _tail_backward(gs, tail)
        gi, gws, gbs = ops.conv_backward(gs, xp[:, :, in_rows].astype(np.float64), w, conv,
                                         input_grad=input_grad, workspace=workspace)
        if gw is None:
            gw, gb = gws, gbs
        else:
            gw += gws
            gb += gbs
        if input_grad:
            gx[:, :, in_rows] += gi
    return (gx[crop] if input_grad else None), gw, gb


def forward_collect(net: Network, images: np.ndarray, pre_relu: bool = False,
                    workspace: ops.Workspace | None = None) -> list[np.ndarray]:
    """One (n, *read_shape) array per CENT read point, in read order, for
    (n, *input_shape) images, filled one chunk of _chunks(net, n) at a
    time. Activations default to post-ReLU block outputs; pre_relu reads the
    raw conv outputs instead (ablation switch). Only the read points' arrays
    are kept: a conv block runs slab by slab (see _block_forward), and its
    raw conv output is assembled only when pre_relu reads it. The chunks run in
    forked workers (see workers), one per usable CPU, each process with its
    own copy of `workspace` (a fresh one if None), which its chunks share;
    the arrays do not depend on their number.
    """
    points = cent_read_points(net.specs, pre_relu)
    acts = [np.empty((len(images),) + net.layer_shapes[i], images.dtype) for i in points]
    parts = _chunks(net, len(images))
    workspace = workspace or ops.Workspace()

    def collect(part):
        outs = _forward_layers(net, images[part], workspace, points)[0]
        return [outs[i] for i in points]  # the rest is not held while the next chunk runs

    # no zip over the results: its reused result tuple would hold a chunk's
    # arrays while the next chunk runs
    results = workers.map(collect, parts, _collect_processes(net, len(images)))
    for part in parts:
        for act, out in zip(acts, next(results)):
            act[part] = out
    return acts


def _loss_and_grads(net: Network, x: np.ndarray, labels: np.ndarray,
                    workspace: ops.Workspace | None = None):
    """Per-sample losses of a (batch, *input_shape) chunk and its float64
    parameter gradients {layer: (weights, bias)} summed over the chunk: one
    forward and one backward pass per block (a conv block slab by slab, see
    _block_forward), drawing scratch arrays from `workspace`. A fully
    connected layer's weight gradient is left as its factors (g, x): the
    (batch, m) upstream gradient and the (batch, n) flattened input, whose
    product g.T @ x it is."""
    outs, caches = _forward_layers(net, x, workspace, (), train=True)
    _, losses, grad = ops.softmax_cross_entropy(outs[-1], labels)
    del outs  # the backward pass needs only the caches, freed as it goes
    grads: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    g = grad.astype(np.float64)
    for first, _ in reversed(list(_blocks(net.specs, streamed=True))):
        spec, cache = net.specs[first], caches.pop()
        if spec.kind == "conv":
            # layer 0's input is the image: no gradient for it is needed
            g, gw, gb = _block_backward(net.params[first][0], g, cache, first > 0, workspace)
            grads[first] = (gw, gb)
        elif spec.kind in ("relu", "maxpool"):
            g = _tail_backward(g, cache)
        else:  # fully_connected or softmax affine
            w, _ = net.params[first]
            x = cache.astype(np.float64).reshape(len(cache), -1)
            grad_input, _, gb = ops.fully_connected_backward(g, x, w, workspace=workspace,
                                                             weight_grad=False)
            grads[first] = ((g, x), gb)
            g = grad_input.reshape(cache.shape)
    return losses, grads


def _chunk_size(shapes: list[tuple[int, ...]]) -> int:
    """Samples per chunk of a pass over samples whose per-sample arrays have
    `shapes` (a network's input and layer shapes for training and
    forward_collect, a dump's read shapes for extract --dump): the scratch
    budget ops._SCRATCH_ELEMENTS over the largest, at least one. Batched
    kernels allocate float64 temporaries in proportion to the chunk, so a
    chunk's largest activation stays within 1 MB of float64: a 10x32x32
    desk activation allows 12 samples (a batch of 10 is one chunk), a
    10x64x64 one 3, and a 10x64^3 volume runs one sample per chunk."""
    return max(1, ops._SCRATCH_ELEMENTS // max(math.prod(s) for s in shapes))


def _chunks(net: Network, n: int) -> list[slice]:
    """The chunks of n samples, in order."""
    chunk = _chunk_size([net.input_shape] + net.layer_shapes)
    return [slice(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]


def _collect_processes(net: Network, n: int) -> int:
    """The processes forward_collect runs the chunks of n samples in."""
    return workers.count(len(_chunks(net, n)), _work(net, n))


def _work(net: Network, samples: int, backward: bool = False) -> int:
    """The work of a pass over `samples` samples in workers.MIN_WORK's unit:
    the activation values the forward pass writes, input included, and
    three times that with the backward pass."""
    values = samples * sum(math.prod(s) for s in [net.input_shape] + net.layer_shapes)
    return 3 * values if backward else values


def _sgd_step(param: np.ndarray, grad: np.ndarray, scale: float,
              out: np.ndarray | None = None) -> np.ndarray:
    """float32(param - scale * grad), computed in float64 in grad's buffer
    (overwriting it): the values of param.astype(float64) - scale * grad
    without two more float64 copies of the parameter. Written into `out`
    if given, else into a new array."""
    np.multiply(grad, scale, out=grad)
    np.subtract(param, grad, out=grad)
    if out is None:
        return grad.astype(np.float32)
    out[...] = grad
    return out


def _summed(parts: list[np.ndarray]) -> np.ndarray:
    """The chunks' float64 gradients added in chunk order, into the first."""
    total = parts[0]
    for part in parts[1:]:
        total += part
    return total


def _fc_sgd_step(weights: np.ndarray, factors: list, scale: float,
                 workspace: ops.Workspace) -> np.ndarray:
    """_sgd_step on the fully connected weights, in place, with the float64
    gradient sum of g.T @ x over the chunks' (g, x) factors, added in chunk
    order, without that (m, n) array: it is rebuilt one block of whole rows
    at a time, each block at most ops._SCRATCH_ELEMENTS values in
    `workspace`, and each block of the weights is read before it is
    written. Weights within that budget are one block, the chunks' own
    GEMMs. Returns `weights`."""
    m, n = weights.shape
    # blocks of at least two rows: numpy runs one row as a matrix-vector
    # product, which BLAS sums in another order than the GEMM
    for rows in ops._row_parts(m, n, 2):
        grad = workspace.take("gw", (rows.stop - rows.start, n))
        for ci, (g, x) in enumerate(factors):
            product = workspace.take("gw_part", grad.shape) if ci else grad
            if len(g) == 1:
                # one sample: np.matmul runs its plain loop, 0 + g * x per
                # element, so the same values come from one multiply
                np.multiply(g[0, rows, None], x, out=product)
                product += 0.0
            else:
                np.matmul(g[:, rows].T, x, out=product)
            if ci:
                grad += product
        _sgd_step(weights[rows], grad, scale, out=weights[rows])
    return weights


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    epochs: int
    batch_size: int
    seed: int = 0
    shuffle: bool = True

    def __post_init__(self):
        if not 0 < self.learning_rate < np.inf:  # NaN compares false too
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")


def train(net: Network, dataset, config: TrainConfig, on_epoch=None
          ) -> tuple[Network, list[float]]:
    """Mini-batch SGD on softmax cross-entropy; mutates `net` in place.

    `dataset` is anything with .images (n, *input_shape) and .labels (n,).
    Batch order is a pure function of config.seed. Each mini-batch runs as
    one batched forward and backward pass per chunk (see _chunks);
    gradients are summed in float64, in chunk order. A batch's chunks run
    in forked workers, one per usable CPU (see workers), and the losses are
    checked and the gradients summed in chunk order in the calling process,
    so no byte depends on the number of workers. A conv block above the
    scratch budget runs forward and backward one slab of output rows at a
    time (see _block_forward), keeping for the backward only its padded
    input, the pool's argmax and the relu's > 0 mask (of the pooled output,
    where a max-pool follows the relu), so a 64^3 volume makes no whole
    10x64^3 conv output, relu output, pool gradient or im2col copy. A fully
    connected layer's weight gradient stays factored until the step, which
    writes the new weights in place (see _fc_sgd_step), so no (m, n) float64
    weight gradient and no second weight array is made. One ops.Workspace
    lives for the whole call, so the kernels and the gradient blocks reuse
    its two buffers of at most ops._SCRATCH_ELEMENTS values from chunk to
    chunk and from slab to slab instead of allocating them. Still allocated
    per call are every conv block's padded float32 input (desk's small ones
    too), and at reference3d's sizes the second block's float64 input
    gradient (10x33^3 values), its slabs' im2col copies (one pool window of
    rows, 80x2048 values, exceeds the budget) and fully_connected's 4x40960
    float64 weight blocks, one at a time.
    Returns (net, per-epoch mean loss) and calls on_epoch(epoch, mean_loss,
    workspace_bytes, processes), if given, after each epoch, with the bytes
    of scratch the calling process's workspace then keeps and the most
    processes a batch of the epoch ran in. Raises TrainingDiverged naming
    the epoch, the batch and the dataset index of the first sample whose
    loss is not finite.
    """
    images, labels = np.asarray(dataset.images), np.asarray(dataset.labels)
    n = len(images)
    if n == 0:
        raise ValueError("dataset is empty")
    if config.batch_size > n:
        raise ValueError(f"batch_size {config.batch_size} exceeds dataset size {n}")
    n_classes = net.specs[-1].width
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError(f"labels outside [0, {n_classes})")

    workspace = ops.Workspace()

    def loss_and_grads(part):
        return _loss_and_grads(net, images[part], labels[part], workspace)

    rng = np.random.default_rng(config.seed)
    trace = []
    for epoch in range(config.epochs):
        order = rng.permutation(n) if config.shuffle else np.arange(n)
        epoch_losses, epoch_workers = [], 1
        for bi, start in enumerate(range(0, n, config.batch_size)):
            batch = order[start:start + config.batch_size]
            parts = [batch[s] for s in _chunks(net, len(batch))]
            processes = workers.count(len(parts), _work(net, len(batch), backward=True))
            epoch_workers = max(epoch_workers, processes)
            chunk_grads = []
            for part, (losses, part_grads) in zip(
                    parts, list(workers.map(loss_and_grads, parts, processes))):
                bad = ~np.isfinite(losses)
                if bad.any():
                    raise TrainingDiverged(f"non-finite loss at epoch {epoch}, batch {bi} "
                                           f"(sample {part[np.argmax(bad)]})")
                epoch_losses.append(losses)
                chunk_grads.append(part_grads)
            scale = config.learning_rate / len(batch)
            for li in chunk_grads[0]:
                (w, b), (gws, gbs) = net.params[li], zip(*(part[li] for part in chunk_grads))
                w = (_sgd_step(w, _summed(gws), scale) if net.specs[li].kind == "conv"
                     else _fc_sgd_step(w, gws, scale, workspace))
                net.params[li] = (w, _sgd_step(b, _summed(gbs), scale))
        for par in net.params:
            # min and max are finite exactly when every value is, and unlike
            # isfinite they make no array of the weights' size
            if par is not None and not all(np.isfinite([a.min(), a.max()]).all() for a in par):
                raise TrainingDiverged(f"non-finite parameters after epoch {epoch}")
        trace.append(float(np.mean(np.concatenate(epoch_losses))))
        if on_epoch is not None:
            on_epoch(epoch, trace[-1], workspace.nbytes, epoch_workers)
    return net, trace


def save_checkpoint(net: Network, path) -> None:
    """Checkpoint file: a framed file (see framing) whose body is i64 seed,
    u32 blob_len, JSON layer table, u32 tensor_count, then the weights and
    bias of each parameterized layer as tensor records, in layer order."""
    header = {"input_shape": list(net.input_shape),
              "specs": [s.to_dict() for s in net.specs]}
    blob = json.dumps(header, sort_keys=True).encode()
    tensors = [a for par in net.params if par is not None for a in par]
    body = [i64(net.seed), u32(len(blob)), blob, u32(len(tensors))]
    for arr in tensors:
        body += tensor_record(arr)
    write_framed(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, body)


def load_checkpoint(path) -> Network:
    with FramedReader(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "checkpoint") as reader:
        seed = reader.i64()
        blob = reader.take(reader.u32())
        tensors = [reader.tensor() for _ in range(reader.u32())]
        reader.finish()
    try:
        header = json.loads(blob)
        specs = [LayerSpec.from_dict(d) for d in header["specs"]]
        input_shape = tuple(header["input_shape"])
    except Exception as exc:
        raise CheckpointError(f"{path}: corrupt layer table ({exc})") from None

    shapes = _chain_shapes(input_shape, specs)
    params: list[tuple[np.ndarray, np.ndarray] | None] = []
    it = iter(tensors)
    try:
        for spec in specs:
            if spec.kind in ("conv", "fully_connected", "softmax"):
                params.append((next(it), next(it)))
            else:
                params.append(None)
    except StopIteration:
        raise CheckpointError(f"{path}: parameter table shorter than layer table") from None
    if any(True for _ in it):
        raise CheckpointError(f"{path}: parameter table longer than layer table")
    return Network(input_shape, specs, params, seed, shapes)
