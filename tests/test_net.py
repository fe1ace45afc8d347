"""Network assembly, training behavior, and checkpoint round-trips."""

import numpy as np
import pytest

import copy

from centpipe import net, ops
from centpipe.net import CheckpointError, TrainConfig, TrainingDiverged
from centpipe.ops import ShapeMismatch

import reference_ops as R
from conftest import small_dataset


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
    probs, _, _ = ops.softmax_cross_entropy(outs[-1][0], 0)
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
    for bit, in one chunk, in two, or in one chunk per image."""
    dataset = small_dataset(per_class=4, seed=9)  # n = 8 images
    network = net.build_desk_2d(32, 2, seed=9)
    network, _ = net.train(network, dataset, TrainConfig(0.05, 1, 4, seed=9))
    n = len(dataset.images)
    per_image = [net.forward_collect(network, img[None], pre_relu=pre_relu)
                 for img in dataset.images]
    largest = max(int(np.prod(s)) for s in [network.input_shape] + network.layer_shapes)
    monkeypatch.setattr(net, "_CHUNK_ELEMENTS", largest * -(-n // chunks))
    calls = []
    forward = net._forward_layers
    monkeypatch.setattr(net, "_forward_layers", lambda nw, x: calls.append(len(x)) or forward(nw, x))
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
    assert net._chunk_size(net.build_desk_2d(32, 2)) >= 10  # a desk batch is one chunk
    assert net._chunk_size(net.build_desk_2d(64, 2)) == 3
    assert net._chunk_size(net.build_reference_3d()) == 1   # 10x64^3 alone exceeds it


@pytest.mark.parametrize("chunk_elements,chunks", [(None, [10]), (3 * 10 * 32 * 32, [3, 3, 3, 1])])
def test_one_conv_backward_per_conv_layer_per_chunk(monkeypatch, chunk_elements, chunks):
    if chunk_elements is not None:
        monkeypatch.setattr(net, "_CHUNK_ELEMENTS", chunk_elements)
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
    workspace."""
    dataset = small_dataset(per_class=7, extent=64, seed=6)
    real = net._loss_and_grads
    runs = []
    for fresh in (False, True):
        chunks = []

        def chunk_call(network, x, labels, workspace, fresh=fresh):
            chunks.append(len(x))
            if fresh:
                workspace = ops.Workspace(workspace.keep_elements)
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
        monkeypatch.setattr(net, "_CHUNK_ELEMENTS", chunk_elements)
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
