"""The CRC framing shared by tensor files and checkpoints: truncation and
corruption classify by kind, and a failed write keeps the previous file."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centpipe import framing, net
from centpipe.data_io import (BadMagicError, TensorFileError, TruncatedError,
                              load_tensor, save_tensor)
from centpipe.net import CheckpointError, LayerSpec
from centpipe.ops import ConvSpec


def _tiny_net(filters, width, seed):
    specs = [LayerSpec("conv", conv=ConvSpec((2, 2), (1, 1), "same", filters)),
             LayerSpec("relu"),
             LayerSpec("maxpool", window=(2, 2), stride=(2, 2)),
             LayerSpec("fully_connected", width=width),
             LayerSpec("softmax", width=2)]
    return net.build_network((1, 4, 4), specs, seed)


@st.composite
def _framed_files(draw):
    """(save(path), load(path), error family) of a small tensor file or checkpoint."""
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        shape = draw(st.lists(st.integers(0, 4), min_size=1, max_size=3))
        tensor = np.random.default_rng(seed).normal(size=shape).astype(np.float32)
        return (lambda path: save_tensor(path, tensor)), load_tensor, TensorFileError
    network = _tiny_net(draw(st.integers(1, 3)), draw(st.integers(1, 4)), seed)
    return (lambda path: net.save_checkpoint(network, path)), net.load_checkpoint, CheckpointError


@settings(max_examples=30, deadline=None)
@given(_framed_files())
def test_truncation_at_every_offset_reports_truncation(tmp_path_factory, case):
    save, load, _ = case
    path = tmp_path_factory.mktemp("framed") / "file"
    save(path)
    raw = path.read_bytes()
    load(path)
    for cut in range(len(raw)):
        path.write_bytes(raw[:cut])
        # any other error, ChecksumError included, fails the test
        with pytest.raises(BadMagicError if cut < 8 else TruncatedError):
            load(path)


@settings(max_examples=30, deadline=None)
@given(_framed_files(), st.integers(1, 255))
def test_flipping_any_byte_after_the_magic_is_detected(tmp_path_factory, case, mask):
    save, load, family = case
    path = tmp_path_factory.mktemp("framed") / "file"
    save(path)
    raw = path.read_bytes()
    for offset in range(8, len(raw)):
        flipped = bytearray(raw)
        flipped[offset] ^= mask
        path.write_bytes(bytes(flipped))
        with pytest.raises(family):
            load(path)


class _DiskFull:
    """Stands in for open(): the first write lands half its bytes, then fails."""

    def __init__(self, path, mode):
        self.file = open(path, mode)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.file.close()

    def write(self, data):
        self.file.write(data[:len(data) // 2])
        self.file.flush()
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("fmt", ["tensor", "checkpoint"])
def test_failed_write_keeps_the_previous_file(tmp_path, monkeypatch, fmt):
    path = tmp_path / "target"
    if fmt == "tensor":
        first, second = np.zeros(5, np.float32), np.ones((3, 4), np.float32)
        save = save_tensor
    else:
        first, second = _tiny_net(2, 3, 0), _tiny_net(3, 4, 1)
        save = lambda p, network: net.save_checkpoint(network, p)  # noqa: E731
    save(path, first)
    before = path.read_bytes()
    monkeypatch.setattr(framing, "open", _DiskFull, raising=False)
    with pytest.raises(OSError):
        save(path, second)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["target"]
