"""The CRC framing shared by tensor files and checkpoints: truncation and
corruption classify by kind, and a failed write, framed or text, keeps the
previous file."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centpipe import data_io, evaluation, framing, net
from centpipe.data_io import load_tensor, save_tensor
from centpipe.framing import BadMagicError, FramedFileError, TruncatedError
from centpipe.net import CheckpointError, LayerSpec
from centpipe.ops import ConvSpec

from conftest import traced_peak


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
        return (lambda path: save_tensor(path, tensor)), load_tensor, FramedFileError
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


def _metrics(auc):
    return evaluation.Metrics((auc, auc), auc, (np.array([0.5]),) * 2, (np.array([1]),) * 2)


_TEXT_WRITERS = {  # (write(path, version)) for every text artifact writer
    "write_text": lambda p, v: framing.write_text(p, f"version {v}\n"),
    "manifest": lambda p, v: data_io.write_manifest(p, [("a", "t/a.tnsr", v)], ("x", "y")),
    "features": lambda p, v: data_io.write_features_csv(p, ("a",), (v,), [[0.5 * v]]),
    "metrics": lambda p, v: evaluation.write_metrics_csv(_metrics(0.25 * v), p),
    "roc": lambda p, v: evaluation.write_roc_csv(
        evaluation.roc_curve([0.1, 0.2 * v + 0.3], [0, 1]), p),
}


@pytest.mark.parametrize("writer", sorted(_TEXT_WRITERS))
def test_failed_text_write_keeps_the_previous_file(tmp_path, monkeypatch, writer):
    """Text artifacts (loss trace and theory report through write_text) go
    through the same temporary file and rename as framed files."""
    path, write = tmp_path / "target", _TEXT_WRITERS[writer]
    write(path, 1)
    before = path.read_bytes()
    monkeypatch.setattr(framing, "open", _DiskFull, raising=False)
    with pytest.raises(OSError):
        write(path, 0)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["target"]


class _CountingFile:
    """Stands in for open(): the file it opens, recording every read call."""

    last = None  # the latest instance

    def __init__(self, *args):
        self.file, self.reads = open(*args), []
        _CountingFile.last = self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.file.close()

    def __getattr__(self, name):
        if name.startswith("read"):
            self.reads.append(name)
        return getattr(self.file, name)


@pytest.mark.parametrize("offset", range(4))
def test_tensor_records_round_trip_at_every_offset(tmp_path, monkeypatch, offset):
    """Tensor records whose payloads sit at each byte offset mod 4 load as
    views of the file's one buffer with the saved bytes. The reader reads
    the file with one readinto and has closed it when construction ends."""
    tensors = [np.arange(12, dtype=np.float32).reshape(3, 4) - 5.5,
               np.zeros((0, 3), np.float32), np.float32([np.inf, -0.0, np.nan])]
    path = tmp_path / "file"
    framing.write_framed(path, b"TESTFILE", 3, [b"x" * offset] + [
        part for t in tensors for part in framing.tensor_record(t)])
    monkeypatch.setattr(framing, "open", _CountingFile, raising=False)
    reader = framing.FramedReader(path, b"TESTFILE", 3, "test file")
    assert _CountingFile.last.reads == ["readinto"] and _CountingFile.last.file.closed
    assert reader.take(offset).tobytes() == b"x" * offset
    loaded = [reader.tensor() for _ in tensors]
    reader.finish()
    for saved, got in zip(tensors, loaded):
        assert got.dtype == np.float32 and got.shape == saved.shape
        assert got.tobytes() == saved.tobytes()
        assert got.base is reader.buffer  # a view, never a copy
    assert loaded[0].flags.aligned == (offset == 0)


def _save_small(fmt, path):
    """A small tensor file or checkpoint at path, and its loader."""
    if fmt == "tensor":
        save_tensor(path, np.arange(12, dtype=np.float32).reshape(3, 4))
        return load_tensor
    net.save_checkpoint(_tiny_net(2, 3, 0), path)
    return net.load_checkpoint


def _impossible_dims(fmt, path):
    """A framed file whose first tensor record has dims (0, 2^63): no
    elements, but an extent numpy cannot hold."""
    record = [framing.u32(2), np.array([0, 2**63], "<u8").tobytes()]
    if fmt == "tensor":
        framing.write_framed(path, data_io.TENSOR_MAGIC, data_io.TENSOR_VERSION, record)
    else:
        blob = b"{}"
        framing.write_framed(path, net.CHECKPOINT_MAGIC, net.CHECKPOINT_VERSION,
                             [framing.i64(0), framing.u32(len(blob)), blob, framing.u32(1),
                              *record])


_CORRUPTIONS = {  # case -> (raw bytes -> corrupted bytes, the error class raised)
    "magic": (lambda raw: b"SOMEFILE" + raw[8:], BadMagicError),
    "version": (lambda raw: raw[:8] + bytes([99]) + raw[9:], framing.VersionError),
    "truncated": (lambda raw: raw[:-6], TruncatedError),
    "payload": (lambda raw: raw[:-5] + bytes([raw[-5] ^ 1]) + raw[-4:], framing.ChecksumError),
    "dims": (None, FramedFileError),
}


@pytest.mark.filterwarnings("error::ResourceWarning")
@pytest.mark.parametrize("case", sorted(_CORRUPTIONS))
@pytest.mark.parametrize("fmt", ["tensor", "checkpoint"])
def test_a_bad_file_raises_its_error_and_leaves_no_file_open(tmp_path, monkeypatch, fmt, case):
    """Each kind of bad tensor file or checkpoint raises exactly its framing
    error class, and the reader closes the file it opened. Impossible dims
    are refused before anything is allocated."""
    path = tmp_path / "file"
    corrupt, error = _CORRUPTIONS[case]
    load = _save_small(fmt, path)
    if corrupt is None:
        _impossible_dims(fmt, path)
    else:
        path.write_bytes(corrupt(path.read_bytes()))
    opened, real_open = [], open

    def recording_open(*args, **kwargs):
        opened.append(real_open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(framing, "open", recording_open, raising=False)
    with pytest.raises(FramedFileError) as raised:
        load(path)
    assert type(raised.value) is error
    assert len(opened) == 1 and opened[0].closed
    if case == "dims":
        assert traced_peak(lambda: pytest.raises(FramedFileError, load, path)) < 1e6
