"""Network assembly, training behavior, and checkpoint round-trips."""

import copy
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centpipe import data_io, net, ops, workers
from centpipe.net import CheckpointError, TrainConfig, TrainingDiverged
from centpipe.ops import ShapeMismatch

import reference_ops as R
from conftest import assert_no_child_left, small_dataset, traced_peak, use_cpus


def test_reference_3d_shape_trace():
    for variant in net.REFERENCE_VARIANTS:
        network = net.build_reference_3d(variant)
        assert net.shape_trace(network) == [
            (1, 64, 64, 64), (10, 32, 32, 32), (10, 16, 16, 16), (128,), (2,)]


def test_reference_3d_build_deterministic():
    a = net.build_reference_3d(seed=5)
    b = net.build_reference_3d(seed=5)
    for pa, pb in zip(a.params, b.params):
        if pa is not None:
            assert np.array_equal(pa[0], pb[0]) and np.array_equal(pa[1], pb[1])


def test_reference_3d_bad_variant():
    with pytest.raises(ValueError):
        net.build_reference_3d("mystery")


def test_reference_3d_untrained_probs_valid():
    network = net.build_reference_3d(seed=1)
    rng = np.random.default_rng(0)
    outs, _ = net._forward_layers(network, rng.normal(size=(1, 1, 64, 64, 64)).astype(np.float32))
    probs = ops.softmax_cross_entropy(outs[-1], np.array([0]))[0][0]
    assert probs.shape == (2,)
    assert abs(probs.sum() - 1.0) < 1e-6 and (probs >= 0).all()


def test_desk_2d_shapes():
    network = net.build_desk_2d(32, 2)
    assert net.shape_trace(network) == [(1, 32, 32), (10, 16, 16), (10, 8, 8), (128,), (2,)]
    network = net.build_desk_2d(64, 3)
    assert net.shape_trace(network) == [(1, 64, 64), (10, 32, 32), (10, 16, 16), (128,), (3,)]


def test_desk_2d_contract():
    with pytest.raises(ValueError):
        net.build_desk_2d(16, 2)
    with pytest.raises(ValueError):
        net.build_desk_2d(32, 1)


def test_forward_collect_shapes_and_zero_case():
    network = net.build_reference_3d(seed=2)
    acts = net.forward_collect(network, np.zeros((2, 1, 64, 64, 64), np.float32))
    assert [a.shape for a in acts] == [(2, 10, 32, 32, 32), (2, 10, 16, 16, 16), (2, 128)]
    assert all(a.dtype == np.float32 for a in acts)
    # zero input with zero biases keeps every read point at zero
    assert all(not a.any() for a in acts)


def test_forward_collect_shape_mismatch():
    network = net.build_desk_2d(32, 2)
    with pytest.raises(ShapeMismatch):
        net.forward_collect(network, np.zeros((1, 1, 16, 16), np.float32))


@pytest.mark.parametrize("pre_relu", [False, True])
@pytest.mark.parametrize("chunks", [1, 2, 8])
def test_forward_collect_batched_equals_per_image(monkeypatch, pre_relu, chunks):
    """One call over the dataset gives each image's per-image activations bit
    for bit, in one chunk, in two, or in one chunk per image. The chunk calls
    are counted in this process, so it runs them all."""
    use_cpus(monkeypatch, 1)
    dataset = small_dataset(per_class=4, seed=9)  # n = 8 images
    network = net.build_desk_2d(32, 2, seed=9)
    network, _ = net.train(network, dataset, TrainConfig(0.05, 1, 4, seed=9))
    n = len(dataset.images)
    per_image = [net.forward_collect(network, img[None], pre_relu=pre_relu)
                 for img in dataset.images]
    largest = max(int(np.prod(s)) for s in [network.input_shape] + network.layer_shapes)
    monkeypatch.setattr(ops, "_SCRATCH_ELEMENTS", largest * -(-n // chunks))
    calls = []
    forward = net._forward_layers
    monkeypatch.setattr(net, "_forward_layers", lambda nw, x, *rest: calls.append(len(x)) or forward(nw, x, *rest))
    batched = net.forward_collect(network, dataset.images, pre_relu=pre_relu)
    assert len(calls) == chunks and sum(calls) == n
    for i, acts in enumerate(per_image):
        for layer, (one, many) in enumerate(zip(acts, batched)):
            assert one.dtype == many.dtype
            assert np.array_equal(one[0], many[i]), (i, layer)


def test_pre_relu_reads_conv_output():
    network = net.build_desk_2d(32, 2, seed=3)
    x = np.random.default_rng(1).normal(size=(1, 1, 32, 32)).astype(np.float32)
    post = net.forward_collect(network, x)
    pre = net.forward_collect(network, x, pre_relu=True)
    assert pre[0].shape == (1, 10, 32, 32)  # conv output before pooling
    assert (pre[0] < 0).any()            # raw conv responses keep negatives
    assert (post[0] >= 0).all()          # block output is post-ReLU


def test_train_config_contract():
    with pytest.raises(ValueError):
        TrainConfig(0.0, 1, 1)
    with pytest.raises(ValueError):
        TrainConfig(0.1, 0, 1)


@pytest.mark.parametrize("lr", [float("nan"), float("inf"), -float("inf")])
def test_train_config_refuses_a_non_finite_learning_rate(lr):
    """NaN compares false with 0, so a bare `<= 0` check would let it pass."""
    with pytest.raises(ValueError, match="learning_rate"):
        TrainConfig(lr, 1, 1)


def test_train_vanishing_learning_rate_is_noop():
    """Zero-step limit of SGD. The config contract requires a positive rate,
    so the limit is pinned at lr = 1e-30: nonzero float32 weights cannot move
    (the update underflows their ulp) and zero-initialized biases move by at
    most lr times the gradient bound."""
    dataset = small_dataset(per_class=5, seed=0)
    network = net.build_desk_2d(32, 2, seed=0)
    before = [(w.copy(), b.copy()) for w, b in
              (p for p in network.params if p is not None)]
    lr = 1e-30
    net.train(network, dataset, TrainConfig(lr, 1, 5, seed=0))
    after = [p for p in network.params if p is not None]
    for (wa, ba), (wb, bb) in zip(before, after):
        assert np.array_equal(wa, wb)  # weights are bitwise untouched
        assert np.abs(ba.astype(np.float64) - bb.astype(np.float64)).max() <= lr * 100


def test_train_batch_larger_than_dataset_rejected():
    dataset = small_dataset(per_class=5, seed=0)
    network = net.build_desk_2d(32, 2, seed=0)
    with pytest.raises(ValueError):
        net.train(network, dataset, TrainConfig(0.1, 1, 11, seed=0))


def test_train_loss_decreases_separable():
    for seed in range(5):
        dataset = small_dataset(per_class=10, seed=seed)
        network = net.build_desk_2d(32, 2, seed=seed)
        network, trace = net.train(network, dataset, TrainConfig(0.05, 4, 10, seed=seed))
        assert len(trace) == 4
        assert trace[-1] < trace[0], f"seed {seed}: {trace}"
        for par in network.params:
            if par is not None:
                assert np.isfinite(par[0]).all() and np.isfinite(par[1]).all()


def test_train_bitwise_deterministic():
    dataset = small_dataset(per_class=6, seed=1)
    traces = []
    finals = []
    for _ in range(2):
        network = net.build_desk_2d(32, 2, seed=4)
        network, trace = net.train(network, dataset, TrainConfig(0.03, 3, 4, seed=9))
        traces.append(trace)
        finals.append([p for p in network.params if p is not None])
    assert traces[0] == traces[1]
    for (wa, ba), (wb, bb) in zip(finals[0], finals[1]):
        assert np.array_equal(wa, wb) and np.array_equal(ba, bb)


def test_single_full_batch_step_decreases_loss():
    """One SGD step over the whole dataset should reduce total loss at a small
    enough learning rate; halve up to 4 times before declaring failure."""
    dataset = small_dataset(per_class=10, seed=2)

    def total_loss(network):
        losses, _ = net._loss_and_grads(network, dataset.images, dataset.labels)
        return float(np.mean(losses))

    lr = 1e-4
    for _ in range(5):
        network = net.build_desk_2d(32, 2, seed=5)
        before = total_loss(network)
        network, _ = net.train(network, dataset,
                               TrainConfig(lr, 1, len(dataset.images), seed=0, shuffle=False))
        after = total_loss(network)
        if after < before:
            return
        lr /= 2
    pytest.fail(f"no loss decrease even at lr={lr * 2}")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_diverged_names_location():
    dataset = small_dataset(per_class=5, seed=3)
    network = net.build_desk_2d(32, 2, seed=6)
    # inf weights make the first forward produce a non-finite loss
    w, b = network.params[0]
    network.params[0] = (np.full_like(w, np.inf), b)
    with pytest.raises(TrainingDiverged) as e:
        net.train(network, dataset, TrainConfig(0.01, 1, 5, seed=0))
    assert "epoch 0" in str(e.value) and "batch 0" in str(e.value)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_diverged_names_first_bad_sample_of_a_chunk():
    dataset = small_dataset(per_class=5, seed=3)
    order = np.random.default_rng(0).permutation(10)  # batch 0 is order[:5]
    dataset.images[order[3]] = np.nan
    dataset.images[order[4]] = np.inf
    network = net.build_desk_2d(32, 2, seed=6)
    with pytest.raises(TrainingDiverged) as e:
        net.train(network, dataset, TrainConfig(0.01, 1, 5, seed=0))
    assert "epoch 0" in str(e.value) and "batch 0" in str(e.value)
    assert f"(sample {order[3]})" in str(e.value)


def test_chunk_bound_from_largest_activation():
    def chunk_size(network):
        return net._chunk_size([network.input_shape] + network.layer_shapes)
    assert chunk_size(net.build_desk_2d(32, 2)) >= 10  # a desk batch is one chunk
    assert chunk_size(net.build_desk_2d(64, 2)) == 3
    assert chunk_size(net.build_reference_3d()) == 1   # 10x64^3 alone exceeds it


@pytest.mark.parametrize("build,split", [
    (lambda: net.build_desk_2d(32, 2), []),
    (lambda: net.build_desk_2d(64, 2), [6]),
    (lambda: net.build_reference_3d("pool-reduces"), [6]),
    (lambda: net.build_reference_3d("conv-stride-reduces"), [6]),
], ids=["desk2d-32", "desk2d-64", "reference3d-pool-reduces", "reference3d-conv-stride-reduces"])
def test_split_fc_weights_run_in_chunks_below_ten_samples(build, split):
    """fully_connected's float64 bytes depend on how its weights are cut
    into row blocks once a chunk holds 10 samples or more (OpenBLAS), so
    every fully connected layer whose weights _row_parts(m, n, _FC_ALIGN)
    cuts into several blocks must run in chunks of fewer than 10 samples: a
    change to the budget, the block rule or the chunk rule cannot change
    training bytes unnoticed."""
    network = build()
    chunk = net._chunk_size([network.input_shape] + network.layer_shapes)
    assert split == [i for i, spec in enumerate(network.specs)
                     if spec.kind in ("fully_connected", "softmax")
                     and len(ops._row_parts(*network.params[i][0].shape, ops._FC_ALIGN)) > 1]
    assert not split or chunk < 10


@pytest.mark.parametrize("chunk_elements,chunks", [(None, [10]), (3 * 10 * 32 * 32, [3, 3, 3, 1])])
def test_one_conv_backward_per_conv_layer_per_chunk(monkeypatch, chunk_elements, chunks):
    use_cpus(monkeypatch, 1)  # the calls are counted in this process
    if chunk_elements is not None:
        monkeypatch.setattr(ops, "_SCRATCH_ELEMENTS", chunk_elements)
    real = ops.conv_backward
    calls = []

    def counting(grad_output, cached_input, filters, spec, **kwargs):
        calls.append(len(cached_input))
        return real(grad_output, cached_input, filters, spec, **kwargs)

    monkeypatch.setattr(ops, "conv_backward", counting)
    dataset = small_dataset(per_class=10, seed=0)
    net.train(net.build_desk_2d(32, 2, seed=0), dataset, TrainConfig(0.05, 1, 10, seed=0))
    # 20 images in 2 batches; per chunk, one call for each of the 2 conv layers
    assert calls == [size for _ in range(2) for size in chunks for _ in range(2)]


def test_mixed_chunk_shapes_train_to_the_bytes_of_fresh_workspaces(monkeypatch, tmp_path):
    """desk2d at 64^2 on 14 images in batches of 10 runs chunks of 3, 3, 3, 1
    and then 3, 1. One workspace kept over the whole training gives the
    checkpoint and loss trace of a training that gives every chunk a fresh
    workspace. The chunk calls are counted in this process, so it runs them
    all."""
    use_cpus(monkeypatch, 1)
    dataset = small_dataset(per_class=7, extent=64, seed=6)
    real = net._loss_and_grads
    runs = []
    for fresh in (False, True):
        chunks = []

        def chunk_call(network, x, labels, workspace, fresh=fresh):
            chunks.append(len(x))
            if fresh:
                workspace = ops.Workspace()
            return real(network, x, labels, workspace)

        monkeypatch.setattr(net, "_loss_and_grads", chunk_call)
        network, trace = net.train(net.build_desk_2d(64, 2, seed=6), dataset,
                                   TrainConfig(0.05, 2, 10, seed=6))
        net.save_checkpoint(network, tmp_path / "net.ckpt")
        runs.append(((tmp_path / "net.ckpt").read_bytes(), np.array(trace).tobytes(), chunks))
    assert runs[0][2] == [3, 3, 3, 1, 3, 1] * 2
    assert runs[0] == runs[1]


@pytest.mark.parametrize("chunk_elements", [None, 3 * 10 * 32 * 32])
def test_train_matches_per_sample_reference(monkeypatch, chunk_elements):
    """Batched chunks (one chunk per batch, or several summed) against the
    per-sample SGD loop over the reference ops. Only the float64 summation
    order differs, so the float32 results agree to a few float32 ulps."""
    if chunk_elements is not None:
        monkeypatch.setattr(ops, "_SCRATCH_ELEMENTS", chunk_elements)
    dataset = small_dataset(per_class=10, seed=4)
    config = TrainConfig(0.05, 2, 10, seed=4)
    batched = net.build_desk_2d(32, 2, seed=4)
    reference = copy.deepcopy(batched)
    _, trace = net.train(batched, dataset, config)
    ref_trace = R.train(reference, dataset, config)
    np.testing.assert_allclose(trace, ref_trace, rtol=1e-6)
    for got, want in zip(batched.params, reference.params):
        if got is not None:
            for a, b in zip(got, want):
                np.testing.assert_allclose(a, b, rtol=1e-5, atol=1e-7)


def test_checkpoint_roundtrip_forward_bitwise(tmp_path):
    dataset = small_dataset(per_class=4, seed=4)
    network = net.build_desk_2d(32, 2, seed=7)
    network, _ = net.train(network, dataset, TrainConfig(0.05, 2, 4, seed=1))
    path = tmp_path / "net.ckpt"
    net.save_checkpoint(network, path)
    loaded = net.load_checkpoint(path)
    assert loaded.seed == network.seed
    assert loaded.input_shape == network.input_shape
    x = dataset.images[:1]
    outs_a, _ = net._forward_layers(network, x)
    outs_b, _ = net._forward_layers(loaded, x)
    for a, b in zip(outs_a, outs_b):  # every layer, the logits included
        assert np.array_equal(a, b)


_I64_EDGES = [-2**63 - 1, -2**63, -1, 0, 2**63 - 1, 2**63]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(net.DESK_EXTENTS), st.integers(2, 5),
       st.sampled_from(_I64_EDGES) | st.integers(-2**64, 2**64),
       st.lists(st.floats(width=32), min_size=1, max_size=8), st.integers(0, 2**32 - 1))
def test_checkpoint_round_trips_or_is_refused_before_writing(tmp_path_factory, extent, classes,
                                                             seed, values, draw_seed):
    """For desk2d networks with generated seeds and float32 parameters
    (signed zeros, subnormals, NaN and inf among them), either the network
    is refused (ValueError) before a checkpoint exists, or load_checkpoint
    gives back the same specs, input shape, seed and parameter bytes."""
    pool = np.array(values + [-0.0, 1e-45, -1e-40], dtype=np.float32)
    rng = np.random.default_rng(draw_seed)
    path = tmp_path_factory.mktemp("ckpt") / "net.ckpt"
    built = net.build_desk_2d(extent, classes)
    params = [None if par is None else tuple(pool[rng.integers(0, len(pool), a.shape)]
                                             for a in par) for par in built.params]
    try:
        network = net.Network(built.input_shape, built.specs, params, seed, built.layer_shapes)
        net.save_checkpoint(network, path)
    except ValueError:
        assert not -2**63 <= seed < 2**63
        assert not path.exists()
        return
    loaded = net.load_checkpoint(path)
    assert (loaded.specs, loaded.input_shape, loaded.seed) == (network.specs, network.input_shape,
                                                               seed)
    assert _param_bytes(loaded.params) == _param_bytes(params)


def _param_bytes(params):
    return [None if par is None else [(a.dtype.str, a.shape, a.tobytes()) for a in par]
            for par in params]


def test_checkpoint_truncated(tmp_path):
    network = net.build_desk_2d(32, 2, seed=8)
    path = tmp_path / "net.ckpt"
    net.save_checkpoint(network, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) // 2])
    with pytest.raises(CheckpointError) as e:
        net.load_checkpoint(path)
    assert "truncated" in str(e.value)


def test_checkpoint_foreign_magic(tmp_path):
    path = tmp_path / "other.bin"
    path.write_bytes(b"NOTMYFMT" + b"\x00" * 64)
    with pytest.raises(CheckpointError) as e:
        net.load_checkpoint(path)
    assert "not a checkpoint" in str(e.value)


def test_checkpoint_checksum_and_version(tmp_path):
    network = net.build_desk_2d(32, 2, seed=9)
    path = tmp_path / "net.ckpt"
    net.save_checkpoint(network, path)
    raw = bytearray(path.read_bytes())
    raw[20] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError):
        net.load_checkpoint(path)

    raw = bytearray(net.CHECKPOINT_MAGIC)
    raw += np.uint32(99).tobytes()  # unsupported version
    raw += b"\x00" * 32
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError) as e:
        net.load_checkpoint(path)
    assert "version" in str(e.value)


def test_checkpoint_reproduces_byte_identical_files(tmp_path):
    network = net.build_desk_2d(32, 2, seed=10)
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    net.save_checkpoint(network, a)
    net.save_checkpoint(network, b)
    assert a.read_bytes() == b.read_bytes()


def _materialised_train(network, dataset, config, chunk):
    """The training loop with every weight gradient materialised, through
    the ops layer by layer on whole arrays: each chunk's fully connected
    weight gradient is fully_connected_backward's g.T @ x, the chunks'
    float64 gradients are summed in chunk order, and each parameter steps
    to float32(param - scale * grad) in float64."""
    rng = np.random.default_rng(config.seed)
    n = len(dataset.images)
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            batch = order[start:start + config.batch_size]
            total = {}
            for lo in range(0, len(batch), chunk):
                part = batch[lo:lo + chunk]
                cur, caches = dataset.images[part], []
                for spec, par in zip(network.specs, network.params):
                    caches.append(cur)
                    if spec.kind == "conv":
                        cur = ops.conv_forward(cur, *par, spec.conv)
                    elif spec.kind == "relu":
                        cur = ops.relu(cur)
                    elif spec.kind == "maxpool":
                        cur, caches[-1] = ops.maxpool(cur, spec.window, spec.stride, spec.padding)
                    else:
                        cur = ops.fully_connected(cur.reshape(len(cur), -1), *par)
                g = ops.softmax_cross_entropy(cur, dataset.labels[part])[2].astype(np.float64)
                for i in range(len(network.specs) - 1, -1, -1):
                    spec, cache = network.specs[i], caches[i]
                    if spec.kind == "relu":
                        g = ops.relu_backward(g, cache)
                        continue
                    if spec.kind == "maxpool":
                        g = ops.maxpool_backward(g, cache)
                        continue
                    w = network.params[i][0]
                    if spec.kind == "conv":
                        g, gw, gb = ops.conv_backward(g, cache.astype(np.float64), w, spec.conv,
                                                      input_grad=i > 0)
                    else:
                        x = cache.astype(np.float64).reshape(len(cache), -1)
                        g, gw, gb = ops.fully_connected_backward(g, x, w)
                        g = g.reshape(cache.shape)
                    if i in total:
                        total[i][0] += gw
                        total[i][1] += gb
                    else:
                        total[i] = [gw, gb]
            scale = config.learning_rate / len(batch)
            for i, grads in total.items():
                network.params[i] = tuple((p.astype(np.float64) - g * scale).astype(np.float32)
                                          for p, g in zip(network.params[i], grads))
    return network


@pytest.mark.parametrize("extent,chunk_elements,scratch_elements,chunk", [
    (32, 10 * 32 * 32, None, 1),
    (32, 3 * 10 * 32 * 32, None, 3),
    (32, None, None, 10),
    (64, None, None, 3),           # 128 x 2560 fc weights exceed the budget
    # so do 128 x 640 ones under 20000, which also cuts both conv blocks
    # into 2 slabs: their float64 gradients differ in the last bits from
    # whole arrays, and the float32 weights still round to the same bytes
    (32, 3 * 10 * 32 * 32, 20000, 3),
    (32, 3 * 10 * 32 * 32, 127 * 640, 3),  # and leave one row over 127
    # the chunk bound is the scratch budget itself
    (32, None, 10 * 32 * 32, 1),       # 16-row blocks
    (32, None, 3 * 10 * 32 * 32, 3),   # 48-row blocks
    (32, None, 20000, 1),
    (32, None, 127 * 640, 7),
])
def test_factored_fc_gradients_train_to_materialised_bytes(
        monkeypatch, tmp_path, extent, chunk_elements, scratch_elements, chunk):
    """Training that keeps each fully connected weight gradient as its
    factors and rebuilds the sum in row blocks at the step gives the
    checkpoint bytes of a loop that materialises every chunk's g.T @ x,
    for chunks of 1, 3, 7 and 10 samples and for weights above the budget.
    The chunk bound (chunk_elements over the largest activation) is set
    apart from the scratch budget, so a chunk of 3 meets split blocks."""
    if chunk_elements is not None:
        monkeypatch.setattr(net, "_chunk_size", lambda shapes: chunk_elements // max(
            math.prod(s) for s in shapes))
    if scratch_elements is not None:
        monkeypatch.setattr(ops, "_SCRATCH_ELEMENTS", scratch_elements)
    dataset = small_dataset(per_class=7, extent=extent, seed=8)
    config = TrainConfig(0.05, 2, 10, seed=8)
    trained = net.build_desk_2d(extent, 2, seed=8)
    reference = _materialised_train(copy.deepcopy(trained), dataset, config, chunk)
    assert min(net._chunk_size([trained.input_shape] + trained.layer_shapes),
               config.batch_size) == chunk
    blocks = ops._row_parts(128, math.prod(trained.layer_shapes[5]), 2)
    assert (len(blocks) > 1) == (extent == 64 or scratch_elements is not None)
    net.train(trained, dataset, config)
    for name, network in (("trained", trained), ("reference", reference)):
        net.save_checkpoint(network, tmp_path / f"{name}.ckpt")
    assert (tmp_path / "trained.ckpt").read_bytes() == (tmp_path / "reference.ckpt").read_bytes()


def test_reference3d_training_chunk_memory_stays_bounded(monkeypatch):
    """One reference3d training step on one 64^3 volume keeps its traced
    peak under 13 MB: no 128 x 40960 float64 weight gradient (42 MB), no
    second fc weight array at the step (21 MB), no whole 10x64^3 conv
    output, relu output, pool gradient or im2col copy (the blocks run slab
    by slab), fc weight blocks of 4 rows, relu masks of the pooled output
    and one pair of workspace buffers. So does forward_collect of 4 volumes
    in one process, under 13 MB, and building the network stays under
    30 MB: its fc weights are drawn in row blocks, without a 42 MB float64
    draw. Whole-array blocks peaked at 52.6, 50.9 and 62.9 MB; 16-row fc
    blocks, relu masks of the relu input and a workspace array per shape at
    14.4 and 14.4 MB."""
    use_cpus(monkeypatch, 1)  # tracemalloc sees only this process
    rng = np.random.default_rng(26)
    volumes = rng.normal(size=(4, 1, 64, 64, 64)).astype(np.float32)
    dataset = data_io.LabeledDataset(volumes[:1], np.array([1]), ("a", "b"))
    network = net.build_reference_3d(seed=26)
    assert traced_peak(lambda: net.train(network, dataset, TrainConfig(0.05, 1, 1, seed=26))) < 13e6
    assert traced_peak(lambda: net.forward_collect(network, volumes)) < 13e6
    assert traced_peak(lambda: net.build_reference_3d(seed=26)) < 30e6


def test_reference3d_checkpoint_loads_within_its_file_size(tmp_path):
    """load_checkpoint reads each tensor straight into its own array: a
    reference3d checkpoint (21 MB, nearly all of it the fc weights) loads
    within its file size and 1 MB. Reading the whole file first and copying
    each tensor out of it peaked at 42 MB."""
    path = tmp_path / "net.ckpt"
    network = net.build_reference_3d(seed=31)
    net.save_checkpoint(network, path)
    del network
    assert traced_peak(lambda: net.load_checkpoint(path)) < os.path.getsize(path) + 1e6


@pytest.mark.parametrize("n,chunks,scratch_elements", [
    (640, [3, 3, 3, 1], None),        # one block: the chunks' own GEMMs
    (640, [3, 3], 127 * 640),         # blocks of 126 and 2 rows, none of one
    (2560, [3, 3, 1], None),          # blocks of 50, 50 and 28 rows
    (40960, [1, 1, 1, 1], None),      # one-sample chunks, as reference3d's
])
def test_fc_gradient_blocks_hold_the_materialised_sum(monkeypatch, n, chunks, scratch_elements):
    """The float64 gradient blocks _fc_sgd_step hands to _sgd_step are, in
    row order, the bytes of each chunk's g.T @ x summed in chunk order, and
    the weights it steps in place are that gradient's SGD step."""
    if scratch_elements is not None:
        monkeypatch.setattr(ops, "_SCRATCH_ELEMENTS", scratch_elements)
    rng = np.random.default_rng(27)
    factors = [(rng.normal(size=(c, 128)), rng.normal(size=(c, n))) for c in chunks]
    weights = rng.normal(size=(128, n)).astype(np.float32)
    want = factors[0][0].T @ factors[0][1]
    for g, x in factors[1:]:
        want += g.T @ x
    real, blocks = net._sgd_step, []

    def capturing(param, grad, scale, out=None):
        blocks.append(grad.copy())
        return real(param, grad, scale, out)

    monkeypatch.setattr(net, "_sgd_step", capturing)
    before = weights.copy()  # the step writes the weights in place
    stepped = net._fc_sgd_step(weights, factors, 0.01, ops.Workspace())
    assert stepped is weights
    assert min(len(block) for block in blocks) >= 2
    assert np.concatenate(blocks).tobytes() == want.tobytes()
    assert stepped.tobytes() == real(before, want, 0.01).tobytes()


def test_training_fc_blocks_fit_the_scratch_budget(monkeypatch):
    """Every float64 fc weight block that desk2d at 64^2 (128 x 2560
    weights: 48-row blocks forward, 1024-column blocks backward) and
    reference3d (128 x 40960: 1024-column blocks backward) take in training
    fits the scratch budget, so the workspace keeps it. The one exception is
    reference3d's forward block of 4 x 40960, the fewest rows a block holds.
    The blocks are recorded in this process, so it runs every chunk."""
    use_cpus(monkeypatch, 1)
    real, taken = ops.Workspace.take, []

    def recording(self, role, shape):
        if role == "fc":
            taken.append(shape)
        return real(self, role, shape)

    monkeypatch.setattr(ops.Workspace, "take", recording)
    net.train(net.build_desk_2d(64, 2, seed=28), small_dataset(per_class=4, extent=64, seed=28),
              TrainConfig(0.05, 1, 8, seed=28))
    assert {(48, 2560), (32, 2560), (128, 1024), (128, 512)} <= set(taken)
    volume = np.random.default_rng(28).normal(size=(1, 1, 64, 64, 64)).astype(np.float32)
    net.train(net.build_reference_3d(seed=28), data_io.LabeledDataset(volume, [0], ("a", "b")),
              TrainConfig(0.05, 1, 1, seed=28))
    assert (128, 1024) in taken
    assert {s for s in taken if math.prod(s) > ops._SCRATCH_ELEMENTS} == {(4, 40960)}


def _reference3d_pair(seed):
    rng = np.random.default_rng(seed)
    return data_io.LabeledDataset(rng.normal(size=(2, 1, 64, 64, 64)).astype(np.float32),
                                  np.array([0, 1]), ("a", "b"))


@pytest.mark.parametrize("case", ["desk2d-64", "reference3d"])
def test_training_bytes_do_not_depend_on_the_worker_count(monkeypatch, tmp_path, case):
    """Every batch's chunks run in 1, 2 or 3 processes (desk2d at 64^2 on 14
    images in batches of 10: chunks of 3, 3, 3, 1 and then 3, 1; reference3d
    on 2 volumes in one batch: chunks of one), with the same checkpoint and
    loss trace; on_epoch hears the processes, and none is left."""
    if case == "desk2d-64":
        dataset = small_dataset(per_class=7, extent=64, seed=6)
        config = TrainConfig(0.05, 2, 10, seed=6)
        build, chunks = (lambda: net.build_desk_2d(64, 2, seed=6)), 4
    else:
        dataset, config = _reference3d_pair(29), TrainConfig(0.05, 1, 2, seed=29)
        build, chunks = (lambda: net.build_reference_3d(seed=29)), 2
    threads = workers._blas_threads()[0]()
    runs = []
    for cpus in (1, 2, 3):
        use_cpus(monkeypatch, cpus, every_map=True)
        heard = []
        network, trace = net.train(build(), dataset, config,
                                   on_epoch=lambda *args: heard.append(args[3]))
        net.save_checkpoint(network, tmp_path / "net.ckpt")
        runs.append(((tmp_path / "net.ckpt").read_bytes(), np.array(trace).tobytes()))
        assert heard == [min(cpus, chunks)] * config.epochs
        assert_no_child_left()
        assert workers._blas_threads()[0]() == threads
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_diverged_chunk_of_a_worker_names_its_sample(monkeypatch, cpus):
    """A NaN image in chunk 1 of batch 0 (which a worker runs at 2 and 3
    processes) raises TrainingDiverged with the message of one process; no
    child is left and the OpenBLAS thread count is back."""
    use_cpus(monkeypatch, cpus, every_map=True)
    dataset = small_dataset(per_class=7, extent=64, seed=6)
    order = np.random.default_rng(6).permutation(14)  # batch 0 is order[:10], in chunks of 3
    dataset.images[order[4]] = np.nan
    threads = workers._blas_threads()[0]()
    with pytest.raises(TrainingDiverged) as e:
        net.train(net.build_desk_2d(64, 2, seed=6), dataset, TrainConfig(0.05, 1, 10, seed=6))
    assert str(e.value) == f"non-finite loss at epoch 0, batch 0 (sample {order[4]})"
    assert_no_child_left()
    assert workers._blas_threads()[0]() == threads


@pytest.mark.parametrize("pre_relu", [False, True])
def test_forward_collect_bytes_do_not_depend_on_the_worker_count(monkeypatch, pre_relu):
    """30 desk images in chunks of 12, 12 and 6 give the same arrays in 1, 2
    or 3 processes, each with its own workspace."""
    dataset = small_dataset(per_class=15, seed=9)
    network = net.build_desk_2d(32, 2, seed=9)
    runs = []
    for cpus in (1, 2, 3):
        use_cpus(monkeypatch, cpus, every_map=True)
        acts = net.forward_collect(network, dataset.images, pre_relu=pre_relu)
        runs.append([(a.dtype.str, a.shape, a.tobytes()) for a in acts])
        assert_no_child_left()
    assert runs[0] == runs[1] == runs[2]


def _stride_reduces_3d(seed):
    """A small 3D stack of conv-stride-reduces' blocks, whose stride-1
    "same" pools overlap: 16^3 -> 4x8^3 -> 4x4^3 -> 8 -> 2."""
    block = lambda f: net._conv_block(f, (2, 2, 2), (2, 2, 2), "valid", (1, 1, 1), "same")
    specs = block(4) + block(4) + [net.LayerSpec("fully_connected", width=8),
                                   net.LayerSpec("softmax", width=2)]
    return net.build_network((1, 16, 16, 16), specs, seed)


@pytest.mark.parametrize("case,budget,slabs", [
    ("desk2d", 4000, [8, 8]),    # 2 pool windows of rows a slab, then 1
    ("stride-reduces", 3000, [8, 4]),  # a row a slab; the pools run whole
])
def test_block_slabs_give_the_one_slab_results(monkeypatch, case, budget, slabs):
    """A scratch budget that cuts every conv block into several slabs, in
    chunks of 3 samples, against the same chunks as one slab per block. The
    forward slabs hold whole 16-position tiles, so forward_collect keeps its
    bytes, raw conv outputs included; training sums the slabs' gradients in
    another order, so it agrees within the tolerance of chunked training.
    desk2d's pools tile the rows and run in the slabs; conv-stride-reduces'
    overlapping pools run on the whole conv block output."""
    monkeypatch.setattr(net, "_chunk_size", lambda network: 3)
    if case == "desk2d":
        dataset = small_dataset(per_class=4, seed=30)
        build = lambda: net.build_desk_2d(32, 2, seed=30)
        ends = [2, 5]  # each block's pool runs in its slabs
    else:
        rng = np.random.default_rng(30)
        dataset = data_io.LabeledDataset(rng.normal(size=(8, 1, 16, 16, 16)).astype(np.float32),
                                         np.arange(8) % 2, ("a", "b"))
        build = lambda: _stride_reduces_3d(30)
        ends = [1, 4]  # conv and relu stream; the pools are blocks of their own
    config = TrainConfig(0.05, 2, 4, seed=30)
    runs = []
    for scratch in (None, budget):
        if scratch is not None:
            monkeypatch.setattr(ops, "_SCRATCH_ELEMENTS", scratch)
        network = build()
        streamed = [(first, last) for first, last in net._blocks(network.specs, streamed=True)
                    if network.specs[first].kind == "conv"]
        assert [last for _, last in streamed] == ends
        assert [len(net._slabs(network, *block, 3)) for block in streamed] == (
            [1, 1] if scratch is None else slabs)
        acts = [net.forward_collect(network, dataset.images, pre_relu=pre) for pre in (False, True)]
        network, trace = net.train(network, dataset, config)
        runs.append((acts, network, trace))
    (one_acts, one_net, one_trace), (acts, network, trace) = runs
    for want, got in zip(sum(one_acts, []), sum(acts, [])):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    np.testing.assert_allclose(trace, one_trace, rtol=1e-6)
    for got, want in zip(network.params, one_net.params):
        if got is not None:
            for a, b in zip(got, want):
                np.testing.assert_allclose(a, b, rtol=1e-5, atol=1e-7)
