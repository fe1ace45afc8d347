"""Layer stacks: construction, SGD training, activation snapshots, checkpoints.

A Network is an ordered list of LayerSpec plus float32 parameter arrays.
One walk of the layer table (_chain_shapes) gives each layer's output and
parameter shapes at build and load time, so no shape needs a forward pass.
"""

from __future__ import annotations

import dataclasses
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
    """One layer: kind plus the fields that kind uses and saves (FIELDS).

    conv uses `conv`; maxpool uses window/stride/padding, a ConvSpec's window;
    fully_connected and softmax use `width` (softmax is an affine map to
    `width` logits followed by softmax normalization).
    """

    kind: str
    conv: ConvSpec | None = None
    window: tuple[int, ...] | None = None
    stride: tuple[int, ...] | None = None
    padding: str = "valid"
    width: int | None = None

    FIELDS = {"conv": ("conv",), "relu": (), "maxpool": ("window", "stride", "padding"),
              "fully_connected": ("width",), "softmax": ("width",)}

    def __post_init__(self):
        if self.kind not in self.FIELDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        missing = [name for name in self.FIELDS[self.kind] if not getattr(self, name)]
        if missing:
            raise ValueError(f"{self.kind} layer needs {' and '.join(missing)}")
        if "width" in self.FIELDS[self.kind] and (type(self.width) is not int or self.width < 1):
            raise ValueError(f"{self.kind} layer width must be an int >= 1, got {self.width!r}")
        if self.kind == "maxpool":
            ConvSpec(self.window, self.stride, self.padding)  # raises ShapeMismatch

    def to_dict(self) -> dict:
        d = {name: getattr(self, name) for name in ("kind", *self.FIELDS[self.kind])}
        if "conv" in d:
            d["conv"] = dataclasses.asdict(self.conv)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "LayerSpec":
        fields = _tuples({name: d[name] for name in cls.FIELDS.get(d["kind"], ())})
        if "conv" in fields:
            fields["conv"] = ConvSpec(**_tuples(fields["conv"]))
        return cls(d["kind"], **fields)


def _tuples(d: dict) -> dict:
    """d with each list value (a JSON array) as a tuple."""
    return {key: tuple(v) if isinstance(v, list) else v for key, v in d.items()}


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

    @property
    def sample_shapes(self) -> list[tuple[int, ...]]:
        """The per-sample shapes of a pass: the input's, then each layer's."""
        return [self.input_shape] + self.layer_shapes


def _chain_shapes(input_shape: tuple[int, ...], specs: list[LayerSpec]) -> tuple[list, list]:
    """The one walk of a layer table: each layer's output shape, and its (weights,
    bias) shapes or None: a conv's (filters, channels, *kernel) and (filters,), an
    affine layer's (width, n) and (width,). Raises ShapeMismatch naming a bad layer."""
    shapes, params = [], []
    cur = tuple(input_shape)
    for i, spec in enumerate(specs):
        prev, par = cur, None
        try:
            if spec.kind == "conv":
                filters = spec.conv.filter_count
                cur = (filters,) + spec.conv.output_extent(prev[1:])
                par = ((filters, prev[0]) + spec.conv.kernel, (filters,))
            elif spec.kind == "maxpool":
                lead = len(cur) - len(spec.window)  # the axes before the pooled ones
                cur = cur[:lead] + ops._out_extent(cur[lead:], spec.window, spec.stride,
                                                   spec.padding)
            elif spec.kind in ("fully_connected", "softmax"):
                cur = (spec.width,)
                par = ((spec.width, math.prod(prev)), (spec.width,))
        except ShapeMismatch as exc:
            raise ShapeMismatch(f"layer {i}: {spec.kind} on {cur}: {exc}") from None
        shapes.append(cur)
        params.append(par)
    return shapes, params


def _uniform(rng, shape: tuple[int, ...]) -> np.ndarray:
    """float32 Uniform[-s, s] draws of an (out, in, *kernel) weight `shape`,
    s = sqrt(6 / (fan_in + fan_out)), taken from rng's float64 stream in
    blocks of whole rows within ops._SCRATCH_ELEMENTS: the values of one
    float64 draw of the whole shape, without that float64 array."""
    fan_in, fan_out = math.prod(shape[1:]), shape[0] * math.prod(shape[2:])
    s = math.sqrt(6.0 / (fan_in + fan_out))
    w = np.empty(shape, np.float32)
    rows = w.reshape(shape[0], -1)
    for part in ops._row_parts(*rows.shape):
        rows[part] = rng.uniform(-s, s, size=(part.stop - part.start, rows.shape[1]))
    return w


def build_network(input_shape: tuple[int, ...], specs: list[LayerSpec], seed: int = 0) -> Network:
    """Weights drawn by _uniform from one default_rng(seed) in layer order; zero biases."""
    shapes, param_shapes = _chain_shapes(input_shape, specs)
    rng = np.random.default_rng(seed)
    params = [None if pair is None else (_uniform(rng, pair[0]), np.zeros(pair[1], np.float32))
              for pair in param_shapes]
    return Network(tuple(input_shape), list(specs), params, seed, shapes)


REFERENCE_VARIANTS = ("pool-reduces", "conv-stride-reduces")


def _stack(input_shape: tuple, classes: int, seed: int, variant: str = "pool-reduces") -> Network:
    """Both built-in stacks: two blocks of a 10-filter 2-wide conv, a relu and a
    2-wide max-pool, then fully_connected 128 and softmax over `classes`. Either the
    unit-stride "same" conv keeps each extent and the stride-2 pool halves it
    (pool-reduces), or the stride-2 conv halves it and the stride-1 "same" pool
    keeps it (conv-stride-reduces)."""
    one, two = (1,) * (len(input_shape) - 1), (2,) * (len(input_shape) - 1)
    conv_stride, conv_pad, pool_stride, pool_pad = (
        (one, "same", two, "valid") if variant == "pool-reduces" else (two, "valid", one, "same"))
    block = [LayerSpec("conv", conv=ConvSpec(two, conv_stride, conv_pad, 10)), LayerSpec("relu"),
             LayerSpec("maxpool", window=two, stride=pool_stride, padding=pool_pad)]
    specs = block + block + [LayerSpec("fully_connected", width=128),
                             LayerSpec("softmax", width=classes)]
    return build_network(input_shape, specs, seed)


def build_reference_3d(variant: str = "pool-reduces", seed: int = 0) -> Network:
    """_stack on 64^3 volumes: 1x64^3 -> 10x32^3 -> 10x16^3 -> 128 -> 2."""
    if variant not in REFERENCE_VARIANTS:
        raise ValueError(f"variant must be one of {REFERENCE_VARIANTS}, got {variant!r}")
    return _stack((1, 64, 64, 64), 2, seed, variant)


DESK_EXTENTS = (32, 64)


def build_desk_2d(input_extent: int, classes: int, seed: int = 0) -> Network:
    """_stack's pool-reduces variant on extent^2 images, for desk-scale experiments."""
    if input_extent not in DESK_EXTENTS:
        raise ValueError(f"input_extent must be one of {DESK_EXTENTS}, got {input_extent}")
    if classes < 2:
        raise ValueError(f"classes must be >= 2, got {classes}")
    return _stack((1, input_extent, input_extent), classes, seed)


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


def shape_trace(net: Network) -> list[tuple[int, ...]]:
    """Input shape followed by each block's output shape (conv + its
    relu/pool tail, fc, softmax)."""
    return [net.input_shape] + [net.layer_shapes[last] for _, last in _blocks(net.specs)]


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
    """Run all layers on a (batch, *input_shape) array, block by block of
    _blocks(streamed=True). Returns (outs, caches): outs[i] is layer i's
    output for each i in `reads` (every layer if None) and the last layer,
    else None; with train, caches holds each block's backward cache in block
    order, else it is empty. Scratch arrays come from `workspace`."""
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
    """A relu or max-pool layer on x, with what its backward reads (with
    train only, else None): the relu's > 0 mask or the pool cache."""
    if spec.kind == "relu":
        return ops.relu(x), (x > 0 if train else None)
    return ops.maxpool(x, spec.window, spec.stride, spec.padding, cache=train)


def _tail_backward(g: np.ndarray, cache) -> np.ndarray:
    """The gradient through a relu (cache: its mask, multiplied into g in
    place) or a max-pool (cache: its PoolCache)."""
    if isinstance(cache, ops.PoolCache):
        return ops.maxpool_backward(g, cache)
    return ops.relu_backward(g, cache)


def _slabs(net: Network, first: int, last: int, batch: int) -> list[slice]:
    """Slabs of output rows (first spatial axis) that the conv block
    first..last runs in for a chunk of `batch` samples: runs of whole pool
    windows and 16-position tiles, as many as keep a slab's conv output and
    im2col copy within ops._SCRATCH_ELEMENTS, at least one of each."""
    conv = net.specs[first].conv
    channels = net.sample_shapes[first][0]  # the block input's
    out = net.layer_shapes[first]  # (filters, *spatial)
    rest = math.prod(out[2:])
    # OpenBLAS sums a partial tile of output positions in another order than
    # a full one, so a slab holds a multiple of 16 positions and the slabs
    # give the bytes of one slab; other outputs run as one slab
    tile = 16 // math.gcd(rest, 16)
    if out[1] % tile:
        return [slice(0, out[1])]
    window = math.prod(spec.window[0] for spec in net.specs[first + 1:last + 1]
                       if spec.kind == "maxpool")
    row = batch * max(conv.filter_count, channels * math.prod(conv.kernel)) * rest
    return ops._row_parts(out[1], row, math.lcm(window, tile))


def _block_forward(net: Network, first: int, last: int, x: np.ndarray,
                   workspace: ops.Workspace | None, keep: set, train: bool):
    """Run the conv block first..last of _blocks(streamed=True) on x slab by
    slab (see _slabs), x padded once by ops.pad_input. Returns ({layer:
    output} for the layers in `keep` and the block's last, and with train
    the cache _block_backward reads, else None): the padded input, its
    "valid" spec, x's slices in it, and per slab its input rows, output rows
    and tail caches in layer order (a pool's argmax; a relu's > 0 mask, of
    the pooled output, after the pool's cache, where a max-pool follows)."""
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
    gradient g of its output, in the forward's slabs: each slab's rows of g
    run back through its tail caches, last first, then conv_backward, and
    the gradients are added in slab order. A pooled relu mask multiplies the
    pool's gradient before maxpool_backward: only each window's argmax gets
    gradient, and there the relu input is positive exactly when the pooled
    value is. g is overwritten. With input_grad=False grad_input is None."""
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
    (n, *input_shape) images: post-ReLU block outputs, or with pre_relu the
    raw conv outputs (ablation switch). The chunks of _chunks run in
    forked workers, each process with its own copy of `workspace` (a fresh
    one if None); the arrays do not depend on their number.
    """
    points = cent_read_points(net.specs, pre_relu)
    acts = [np.empty((len(images),) + net.layer_shapes[i], images.dtype) for i in points]
    parts = _chunks(net.sample_shapes, len(images))
    workspace = workspace or ops.Workspace()

    def collect(part):
        outs = _forward_layers(net, images[part], workspace, points)[0]
        return [outs[i] for i in points]  # the rest is not held while the next chunk runs

    # no zip over the results: its reused result tuple would hold a chunk's
    # arrays while the next chunk runs
    results = workers.map(collect, parts, _processes(net, len(images)))
    for part in parts:
        for act, out in zip(acts, next(results)):
            act[part] = out
    return acts


def _loss_and_grads(net: Network, x: np.ndarray, labels: np.ndarray,
                    workspace: ops.Workspace | None = None):
    """Per-sample losses of a (batch, *input_shape) chunk and its float64
    parameter gradients {layer: (weights, bias)} summed over the chunk, with
    scratch from `workspace`. A fully connected layer's weight gradient is
    left as its factors (g, x): the (batch, m) upstream gradient and the
    (batch, n) flattened input, whose product g.T @ x it is."""
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
            grad_input, gb = ops.fully_connected_backward(g, x, w, workspace=workspace)
            grads[first] = ((g, x), gb)
            g = grad_input.reshape(cache.shape)
    return losses, grads


def _chunk_size(shapes: list[tuple[int, ...]]) -> int:
    """Samples per chunk of a pass over samples whose per-sample arrays have
    `shapes` (a network's input and layer shapes, or a dump's read shapes):
    ops._SCRATCH_ELEMENTS over the largest, at least one, since batched
    kernels allocate float64 temporaries in proportion to the chunk."""
    return max(1, ops._SCRATCH_ELEMENTS // max(math.prod(s) for s in shapes))


def _chunks(shapes: list[tuple[int, ...]], n: int) -> list[slice]:
    """The chunks of n samples of per-sample `shapes` (see _chunk_size), in order."""
    chunk = _chunk_size(shapes)
    return [slice(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]


def _processes(net: Network, n: int, backward: bool = False) -> int:
    """The processes a pass over n samples runs its chunks in (workers.count),
    its work being the activation values the forward pass writes, input
    included, and three times that with the backward pass."""
    values = n * sum(math.prod(s) for s in net.sample_shapes)
    return workers.count(len(_chunks(net.sample_shapes, n)), 3 * values if backward else values)


def _sgd_step(param: np.ndarray, parts: list, scale: float, workspace: ops.Workspace) -> None:
    """Step the float32 param in place to float32(param - scale * grad),
    computed in float64, where grad is the chunks' gradients added in chunk
    order: each part is a float64 gradient array of param's shape or a
    fully connected layer's (g, x) factors of g.T @ x. The step runs in
    blocks of whole rows of param's first axis, each block's gradient built
    in `workspace` and the block of param read before it is written."""
    weights = param.reshape(len(param), -1)  # a view: param is C-contiguous
    # blocks of at least two rows: numpy runs one row as a matrix-vector
    # product, which BLAS sums in another order than the GEMM
    for rows in ops._row_parts(*weights.shape, 2):
        grad = workspace.take("gw", weights[rows].shape)
        for ci, part in enumerate(parts):
            block = workspace.take("gw_part", grad.shape) if ci else grad
            if isinstance(part, np.ndarray):
                np.copyto(block, part.reshape(len(part), -1)[rows])
            elif len(part[0]) == 1:
                # one sample: np.matmul runs its plain loop, 0 + g * x per
                # element, so the same values come from one multiply
                np.multiply(part[0][0, rows, None], part[1], out=block)
                block += 0.0
            else:
                np.matmul(part[0][:, rows].T, part[1], out=block)
            if ci:
                grad += block
        np.multiply(grad, scale, out=grad)
        np.subtract(weights[rows], grad, out=grad)
        weights[rows] = grad


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
    """Mini-batch SGD on softmax cross-entropy; steps `net`'s parameter
    arrays in place.

    `dataset` is anything with .images (n, *input_shape) and .labels (n,).
    Batch order is a pure function of config.seed. A batch runs as one
    forward and backward pass per chunk (see _chunks), in forked workers;
    the calling process checks the losses and sums the float64 gradients in
    chunk order, so no byte depends on the number of workers. One
    ops.Workspace serves the whole call. Returns (net, per-epoch mean loss)
    and calls on_epoch(epoch, mean_loss, workspace_bytes, processes, chunks),
    if given, after each epoch: the bytes that workspace then keeps, the most
    processes a batch ran in and the epoch's chunk passes. TrainingDiverged
    names the epoch, batch and dataset index of the first sample whose loss
    is not finite, or the epoch after which a parameter is not finite.
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
    # an overflow or NaN shows as a non-finite loss or parameter, which the
    # checks below name: numpy's warnings would only add noise before it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            order = rng.permutation(n) if config.shuffle else np.arange(n)
            epoch_losses, epoch_workers = [], 1
            for bi, start in enumerate(range(0, n, config.batch_size)):
                batch = order[start:start + config.batch_size]
                parts = [batch[s] for s in _chunks(net.sample_shapes, len(batch))]
                processes = _processes(net, len(batch), backward=True)
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
                    grads = zip(*(part[li] for part in chunk_grads))  # (gws, gbs)
                    for param, parts in zip(net.params[li], grads):
                        _sgd_step(param, parts, scale, workspace)
            if any(ops.first_nonfinite(a) is not None for par in net.params if par for a in par):
                raise TrainingDiverged(f"non-finite parameters after epoch {epoch}")
            trace.append(float(np.mean(np.concatenate(epoch_losses))))
            if on_epoch is not None:
                on_epoch(epoch, trace[-1], workspace.nbytes, epoch_workers, len(epoch_losses))
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
    reader = FramedReader(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "checkpoint")
    seed = reader.i64()
    blob = reader.take(reader.u32()).tobytes()
    tensors = [reader.tensor() for _ in range(reader.u32())]
    reader.finish()
    try:
        header = json.loads(blob)
        specs = [LayerSpec.from_dict(d) for d in header["specs"]]
        input_shape = tuple(header["input_shape"])
        shapes, param_shapes = _chain_shapes(input_shape, specs)
    except Exception as exc:
        raise CheckpointError(f"{path}: corrupt layer table ({exc})") from None
    expect = [shape for pair in param_shapes if pair is not None for shape in pair]
    if [t.shape for t in tensors] != expect:
        raise CheckpointError(f"{path}: parameter tensors {[t.shape for t in tensors]} do not "
                              f"match the layer table's {expect}")
    it = iter(tensors)
    params = [None if pair is None else (next(it), next(it)) for pair in param_shapes]
    return Network(input_shape, specs, params, seed, shapes)
