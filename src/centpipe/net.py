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

from . import ops
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
            w = rng.uniform(-s, s, size=(c.filter_count, prev[0]) + c.kernel)
            params.append((w.astype(np.float32), np.zeros(c.filter_count, np.float32)))
        elif spec.kind in ("fully_connected", "softmax"):
            n = math.prod(prev)
            s = math.sqrt(6.0 / (n + spec.width))
            w = rng.uniform(-s, s, size=(spec.width, n))
            params.append((w.astype(np.float32), np.zeros(spec.width, np.float32)))
        else:
            params.append(None)
        prev = shape
    return params


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


def _blocks(specs: list[LayerSpec]):
    """(first, last) layer index of each block: a conv with its relu/maxpool
    tail, or any other single layer."""
    i = 0
    while i < len(specs):
        j = i
        if specs[i].kind == "conv":
            while j + 1 < len(specs) and specs[j + 1].kind in ("relu", "maxpool"):
                j += 1
        yield i, j
        i = j + 1


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


def _forward_layers(net: Network, x: np.ndarray, workspace: ops.Workspace | None = None):
    """Run all layers on a (batch, *input_shape) array, returning per-layer
    batched outputs and backward caches. The convolutions and fully connected
    ops draw their scratch arrays from `workspace`."""
    if tuple(x.shape[1:]) != net.input_shape:
        raise ShapeMismatch(f"input {x.shape[1:]} != network input shape {net.input_shape}")
    outs, caches = [], []
    cur = x
    for spec, par in zip(net.specs, net.params):
        if spec.kind == "conv":
            w, b = par
            nxt = ops.conv_forward(cur, w, b, spec.conv, workspace=workspace)
            caches.append(cur)
        elif spec.kind == "relu":
            nxt = ops.relu(cur)
            caches.append(cur)
        elif spec.kind == "maxpool":
            nxt, cache = ops.maxpool(cur, spec.window, spec.stride, spec.padding)
            caches.append(cache)
        else:  # fully_connected, or softmax's affine map to logits
            w, b = par
            nxt = ops.fully_connected(cur.reshape(len(cur), -1), w, b, workspace=workspace)
            caches.append(cur)
        outs.append(nxt)
        cur = nxt
    return outs, caches


def forward_collect(net: Network, images: np.ndarray, pre_relu: bool = False
                    ) -> list[np.ndarray]:
    """One (n, *read_shape) array per CENT read point, in read order, for
    (n, *input_shape) images, filled one chunk of _chunk_size(net) images at a
    time. Activations default to post-ReLU block outputs; pre_relu reads the
    raw conv outputs instead (ablation switch).
    """
    points = cent_read_points(net.specs, pre_relu)
    acts = [np.empty((len(images),) + net.layer_shapes[i], images.dtype) for i in points]
    chunk = _chunk_size(net)
    for lo in range(0, len(images), chunk):
        outs = _forward_layers(net, images[lo:lo + chunk])[0]
        for act, i in zip(acts, points):
            act[lo:lo + chunk] = outs[i]
        del outs  # not held while the next chunk runs
    return acts


def _loss_and_grads(net: Network, x: np.ndarray, labels: np.ndarray,
                    workspace: ops.Workspace | None = None):
    """Per-sample losses of a (batch, *input_shape) chunk and its float64
    parameter gradients {layer: (weights, bias)} summed over the chunk: one
    forward and one backward op call per layer, drawing scratch arrays from
    `workspace`. A fully connected layer's weight gradient is left as its
    factors (g, x): the (batch, m) upstream gradient and the (batch, n)
    flattened input, whose product g.T @ x it is."""
    outs, caches = _forward_layers(net, x, workspace)
    _, losses, grad = ops.softmax_cross_entropy(outs[-1], labels)
    del outs  # the backward pass needs only the caches, freed as it goes
    grads: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    g = grad.astype(np.float64)
    for i in range(len(net.specs) - 1, -1, -1):
        spec, cache = net.specs[i], caches.pop()
        if spec.kind == "conv":
            w, _ = net.params[i]
            # layer 0's input is the image: no gradient for it is needed
            g, gw, gb = ops.conv_backward(g, cache.astype(np.float64), w, spec.conv,
                                          input_grad=i > 0, workspace=workspace)
            grads[i] = (gw, gb)
        elif spec.kind == "relu":
            g = ops.relu_backward(g, cache)  # in place: nothing reads the old g
        elif spec.kind == "maxpool":
            g = ops.maxpool_backward(g, cache)
        else:  # fully_connected or softmax affine
            w, _ = net.params[i]
            x = cache.astype(np.float64).reshape(len(cache), -1)
            grad_input, _, gb = ops.fully_connected_backward(g, x, w, workspace=workspace,
                                                             weight_grad=False)
            grads[i] = ((g, x), gb)
            g = grad_input.reshape(cache.shape)
    return losses, grads


def _chunk_size(net: Network) -> int:
    """Samples per chunk of training or of forward_collect: the scratch
    budget ops._SCRATCH_ELEMENTS over the largest per-sample activation
    (input included), at least one. Batched kernels allocate float64
    temporaries in proportion to the chunk, so a chunk's largest activation
    stays within 1 MB of float64: a 10x32x32 desk activation allows 12
    samples (a batch of 10 is one chunk), a 10x64x64 one 3, and a 10x64^3
    volume runs one sample per chunk."""
    largest = max(math.prod(s) for s in [net.input_shape] + net.layer_shapes)
    return max(1, ops._SCRATCH_ELEMENTS // largest)


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
    """_sgd_step on the fully connected weights with the float64 gradient
    sum of g.T @ x over the chunks' (g, x) factors, added in chunk order,
    without that (m, n) array: it is rebuilt one block of whole rows at a
    time, each block at most ops._SCRATCH_ELEMENTS values in `workspace`.
    Weights within that budget are one block, the chunks' own GEMMs."""
    m, n = weights.shape
    new = np.empty_like(weights)
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
        _sgd_step(weights[rows], grad, scale, out=new[rows])
    return new


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
    one batched forward and backward pass per chunk of at most
    _chunk_size(net) samples; gradients are summed in float64, in chunk
    order. A fully connected layer's weight gradient stays factored until
    the step (see _fc_sgd_step), so no (m, n) float64 weight gradient is
    made, per chunk or summed. One ops.Workspace lives for the whole call,
    so the kernels and the gradient blocks reuse their scratch arrays of at
    most ops._SCRATCH_ELEMENTS values from chunk to chunk instead of
    allocating them. Scratch above that budget is still allocated per call:
    at reference3d's sizes, the padded conv inputs, conv_backward's
    whole-array im2col copy and col2im buffer, and fully_connected's
    16x40960 float64 weight blocks. Returns (net, per-epoch mean loss) and
    calls on_epoch(epoch, mean_loss, workspace_bytes), if given, after each
    epoch, with the bytes of scratch the workspace then keeps. Raises
    TrainingDiverged naming the epoch, the batch and the dataset index of the
    first sample whose loss is not finite.
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

    chunk = _chunk_size(net)
    workspace = ops.Workspace()
    rng = np.random.default_rng(config.seed)
    trace = []
    for epoch in range(config.epochs):
        order = rng.permutation(n) if config.shuffle else np.arange(n)
        epoch_losses = []
        for bi, start in enumerate(range(0, n, config.batch_size)):
            batch = order[start:start + config.batch_size]
            chunk_grads = []
            for lo in range(0, len(batch), chunk):
                part = batch[lo:lo + chunk]
                losses, part_grads = _loss_and_grads(net, images[part], labels[part], workspace)
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
            if par is not None and not (np.isfinite(par[0]).all() and np.isfinite(par[1]).all()):
                raise TrainingDiverged(f"non-finite parameters after epoch {epoch}")
        trace.append(float(np.mean(np.concatenate(epoch_losses))))
        if on_epoch is not None:
            on_epoch(epoch, trace[-1], workspace.nbytes)
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
    blob = reader.take(reader.u32())
    tensors = [reader.tensor() for _ in range(reader.u32())]
    reader.finish()
    try:
        header = json.loads(blob.tobytes())
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
