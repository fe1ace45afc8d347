"""Per-sample reference implementations of the layer ops and of one SGD
gradient, kept as the oracles the batched kernels in centpipe.ops and
centpipe.net are compared against.

These are the one-sample-at-a-time bodies: convolution as one tensordot per
sample and one per kernel tap for the input gradient, max pooling with an
`np.add.at` scatter, the affine map as a matrix-vector product, and the chain
rule walked per sample. They validate nothing; callers pass well-formed input.
"""

import itertools

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def out_extent(spatial, kernel, stride, padding):
    if padding == "valid":
        return tuple((s - k) // st + 1 for s, k, st in zip(spatial, kernel, stride))
    return tuple(-(-s // st) for s, st in zip(spatial, stride))


def pad_amounts(spatial, kernel, stride, out):
    pads = []
    for s, k, st, o in zip(spatial, kernel, stride, out):
        total = max((o - 1) * st + k - s, 0)
        pads.append((total // 2, total - total // 2))
    return pads


def spatial_windows(x, kernel, stride):
    rank = len(kernel)
    win = sliding_window_view(x, kernel, axis=tuple(range(x.ndim - rank, x.ndim)))
    sub = (slice(None),) * (x.ndim - rank) + tuple(slice(None, None, s) for s in stride)
    return win[sub]


def conv_forward(x, filters, bias, spec):
    """(channels, *spatial) -> (F, *out)."""
    rank = len(spec.kernel)
    spatial = x.shape[1:]
    out = out_extent(spatial, spec.kernel, spec.stride, spec.padding)
    xw = x.astype(np.float64, copy=False)
    if spec.padding == "same":
        xw = np.pad(xw, [(0, 0)] + pad_amounts(spatial, spec.kernel, spec.stride, out))
    windows = spatial_windows(xw, spec.kernel, spec.stride)  # (C, *out, *kernel)
    contract = ([1] + list(range(2, rank + 2)),
                [0] + list(range(rank + 1, 2 * rank + 1)))
    y = np.tensordot(filters.astype(np.float64, copy=False), windows, axes=contract)
    y += bias.astype(np.float64, copy=False).reshape((-1,) + (1,) * rank)
    return y.astype(x.dtype, copy=False)


def conv_backward(grad_output, cached_input, filters, spec):
    """(grad_input, grad_filters, grad_bias) of one sample."""
    rank = len(spec.kernel)
    spatial = cached_input.shape[1:]
    out = out_extent(spatial, spec.kernel, spec.stride, spec.padding)
    g = grad_output.astype(np.float64, copy=False)
    xw = cached_input.astype(np.float64, copy=False)
    if spec.padding == "same":
        pads = pad_amounts(spatial, spec.kernel, spec.stride, out)
        xw = np.pad(xw, [(0, 0)] + pads)
    else:
        pads = [(0, 0)] * rank
    windows = spatial_windows(xw, spec.kernel, spec.stride)

    grad_bias = g.sum(axis=tuple(range(1, rank + 1)))
    spatial_axes = list(range(1, rank + 1))
    grad_filters = np.tensordot(g, windows, axes=(spatial_axes, spatial_axes))

    gpad = np.zeros(xw.shape, dtype=np.float64)
    fw = filters.astype(np.float64, copy=False)
    for offset in itertools.product(*(range(k) for k in spec.kernel)):
        taps = fw[(slice(None), slice(None)) + offset]
        contrib = np.tensordot(taps, g, axes=([0], [0]))
        sl = tuple(slice(o, o + st * n, st) for o, st, n in zip(offset, spec.stride, out))
        gpad[(slice(None),) + sl] += contrib
    crop = tuple(slice(b, b + s) for (b, _), s in zip(pads, spatial))
    grad_input = gpad[(slice(None),) + crop]
    dt = cached_input.dtype
    return (grad_input.astype(dt, copy=False), grad_filters.astype(dt, copy=False),
            grad_bias.astype(dt, copy=False))


def relu(x):
    return np.maximum(x, 0)


def relu_backward(grad_output, cached_input):
    return grad_output * (cached_input > 0)


def maxpool(x, window, stride, padding="valid"):
    """(pooled, cache); the cache is a dict of geometry plus argmax."""
    rank = len(window)
    spatial = x.shape[x.ndim - rank:]
    out = out_extent(spatial, window, stride, padding)
    xw = x.astype(np.float64, copy=False)
    if padding == "same":
        pads = pad_amounts(spatial, window, stride, out)
        xw = np.pad(xw, [(0, 0)] * (x.ndim - rank) + pads, constant_values=-np.inf)
    else:
        pads = [(0, 0)] * rank
    windows = spatial_windows(xw, window, stride)
    flat = windows.reshape(windows.shape[:x.ndim] + (-1,))
    argmax = np.argmax(flat, axis=-1)
    pooled = np.take_along_axis(flat, argmax[..., None], axis=-1)[..., 0]
    cache = dict(input_shape=x.shape, window=tuple(window), stride=tuple(stride),
                 pad_before=tuple(b for b, _ in pads),
                 padded_spatial=xw.shape[x.ndim - rank:], argmax=argmax)
    return pooled.astype(x.dtype, copy=False), cache


def maxpool_backward(grad_output, cache):
    rank = len(cache["window"])
    shape = cache["input_shape"]
    lead = shape[:len(shape) - rank]
    out = grad_output.shape[len(lead):]
    nlead = int(np.prod(lead)) if lead else 1
    g = grad_output.astype(np.float64, copy=False).reshape((nlead,) + out)
    arg = cache["argmax"].reshape((nlead,) + out)
    gpad = np.zeros((nlead,) + cache["padded_spatial"], dtype=np.float64)
    offs = np.unravel_index(arg, cache["window"])
    grids = np.indices((nlead,) + out)
    idx = [grids[0]]
    for d in range(rank):
        idx.append(grids[1 + d] * cache["stride"][d] + offs[d])
    np.add.at(gpad, tuple(idx), g)
    crop = tuple(slice(b, b + s) for b, s in zip(cache["pad_before"], shape[len(lead):]))
    grad_input = gpad[(slice(None),) + crop].reshape(shape)
    return grad_input.astype(grad_output.dtype, copy=False)


def fully_connected(x, weights, bias):
    """weights (m, n) @ x flattened to (n,) + bias."""
    flat = x.reshape(-1)
    y = weights.astype(np.float64, copy=False) @ flat.astype(np.float64, copy=False)
    y += bias.astype(np.float64, copy=False)
    return y.astype(x.dtype, copy=False)


def fully_connected_backward(grad_output, cached_input, weights):
    g = grad_output.astype(np.float64, copy=False)
    flat = cached_input.astype(np.float64, copy=False).reshape(-1)
    grad_input = (weights.astype(np.float64, copy=False).T @ g).reshape(cached_input.shape)
    grad_weights = np.outer(g, flat)
    dt = cached_input.dtype
    return (grad_input.astype(dt, copy=False), grad_weights.astype(dt, copy=False),
            g.astype(dt, copy=False))


def softmax_cross_entropy(logits, true_class):
    """(probs, loss, grad_logits) for one logit vector."""
    z = logits.astype(np.float64, copy=False)
    shifted = z - z.max()
    e = np.exp(shifted)
    total = e.sum()
    probs = e / total
    loss = float(np.log(total) - shifted[true_class])
    grad = probs.copy()
    grad[true_class] -= 1.0
    dt = logits.dtype
    return probs.astype(dt, copy=False), loss, grad.astype(dt, copy=False)


def loss_and_grads(network, x, label):
    """One sample's loss and float64 parameter gradients {layer: (gw, gb)},
    forward and chain rule layer by layer through the ops above."""
    cur, caches = x, []
    for spec, par in zip(network.specs, network.params):
        caches.append(cur)
        if spec.kind == "conv":
            cur = conv_forward(cur, par[0], par[1], spec.conv)
        elif spec.kind == "relu":
            cur = relu(cur)
        elif spec.kind == "maxpool":
            cur, caches[-1] = maxpool(cur, spec.window, spec.stride, spec.padding)
        else:  # fully_connected, or the softmax layer's affine map to logits
            cur = fully_connected(cur, par[0], par[1])
    _, loss, grad = softmax_cross_entropy(cur, int(label))
    grads = {}
    g = grad.astype(np.float64)
    for i in range(len(network.specs) - 1, -1, -1):
        spec = network.specs[i]
        if spec.kind == "conv":
            g, gw, gb = conv_backward(g, caches[i].astype(np.float64),
                                      network.params[i][0], spec.conv)
            grads[i] = (gw, gb)
        elif spec.kind == "relu":
            g = relu_backward(g, caches[i])
        elif spec.kind == "maxpool":
            g = maxpool_backward(g, caches[i])
        else:
            g, gw, gb = fully_connected_backward(g, caches[i].astype(np.float64),
                                                 network.params[i][0])
            grads[i] = (gw, gb)
    return loss, grads


def train(network, dataset, config):
    """Mini-batch SGD with per-sample gradients summed in float64, in the
    same batch order as centpipe.net.train; mutates network, returns the
    per-epoch mean losses."""
    images, labels = dataset.images, np.asarray(dataset.labels)
    n = len(images)
    rng = np.random.default_rng(config.seed)
    trace = []
    for _ in range(config.epochs):
        order = rng.permutation(n) if config.shuffle else np.arange(n)
        losses = []
        for start in range(0, n, config.batch_size):
            batch = order[start:start + config.batch_size]
            acc = {}
            for idx in batch:
                loss, grads = loss_and_grads(network, images[idx], labels[idx])
                losses.append(loss)
                for li, (gw, gb) in grads.items():
                    if li in acc:
                        acc[li][0] += gw
                        acc[li][1] += gb
                    else:
                        acc[li] = [gw.copy(), gb.copy()]
            scale = config.learning_rate / len(batch)
            for li, (gw, gb) in acc.items():
                w, b = network.params[li]
                network.params[li] = ((w.astype(np.float64) - scale * gw).astype(np.float32),
                                      (b.astype(np.float64) - scale * gb).astype(np.float32))
        trace.append(float(np.mean(losses)))
    return trace
