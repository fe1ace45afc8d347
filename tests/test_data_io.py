"""Binary tensor files, manifests, synthetic data, chains, and dumps."""

import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centpipe import cli, data_io, infotheory, net
from centpipe.data_io import (LabeledDataset, SyntheticSpec,
                              generate_markov_chain, generate_synthetic,
                              import_activation_dump, load_dataset, load_tensor,
                              read_features_csv, read_manifest, save_dataset,
                              save_tensor, write_features_csv, write_manifest)
from centpipe.evaluation import cross_validate, kfold_split
from centpipe.forest import ForestConfig
from centpipe.framing import BadMagicError, ChecksumError, TruncatedError, VersionError
from centpipe.infotheory import cent_rows, contingency_table, dpi_check, mutual_information

from conftest import traced_peak, use_cpus, write_reference_dump


# --- tensor files ---

def test_tensor_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    for shape in [(4,), (3, 5), (2, 3, 4)]:
        t = rng.normal(size=shape).astype(np.float32)
        path = tmp_path / "t.tnsr"
        save_tensor(path, t)
        assert np.array_equal(load_tensor(path), t)


def test_tensor_rank_zero_rejected(tmp_path):
    with pytest.raises(ValueError):
        save_tensor(tmp_path / "s.tnsr", np.float32(3.0))


def test_tensor_corruption_taxonomy(tmp_path):
    t = np.arange(12, dtype=np.float32).reshape(3, 4)
    path = tmp_path / "t.tnsr"
    save_tensor(path, t)
    raw = path.read_bytes()

    path.write_bytes(raw[:len(raw) - 6])
    with pytest.raises(TruncatedError):
        load_tensor(path)

    flipped = bytearray(raw)
    flipped[-2] ^= 0x10  # checksum field
    path.write_bytes(bytes(flipped))
    with pytest.raises(ChecksumError):
        load_tensor(path)

    payload = bytearray(raw)
    payload[len(raw) // 2] ^= 0x01  # payload byte
    path.write_bytes(bytes(payload))
    with pytest.raises(ChecksumError):
        load_tensor(path)

    path.write_bytes(b"SOMEFILE" + raw[8:])
    with pytest.raises(BadMagicError):
        load_tensor(path)

    version = bytearray(raw)
    version[8] = 99
    path.write_bytes(bytes(version))
    with pytest.raises(VersionError):
        load_tensor(path)


# --- manifests and datasets ---

def test_load_dataset_fills_one_array(tmp_path):
    """load_dataset reads the images into one array that the first image
    shapes: 4 volumes of 64^3 load within that array, one image and 0.5 MB.
    A list of images stacked at the end peaked at 8.4 MB."""
    images = np.random.default_rng(32).normal(size=(4, 1, 64, 64, 64)).astype(np.float32)
    save_dataset(LabeledDataset(images, np.array([0, 1, 0, 1]), ("a", "b")), tmp_path)
    loaded = []
    peak = traced_peak(lambda: loaded.append(load_dataset(tmp_path)))
    assert peak < images.nbytes + images[0].nbytes + 0.5e6
    assert loaded[0].images.dtype == images.dtype
    assert loaded[0].images.tobytes() == images.tobytes()


def test_load_dataset_refuses_an_image_of_another_shape(tmp_path):
    data = generate_synthetic(SyntheticSpec(per_class=2, extent=8, seed=2))
    save_dataset(data, tmp_path)
    save_tensor(tmp_path / "tensors" / f"{data.image_ids[2]}.tnsr", np.zeros((1, 8, 9), np.float32))
    with pytest.raises(ValueError, match=rf"image '{data.image_ids[2]}' has shape \(1, 8, 9\), "
                                         r"expected \(1, 8, 8\)"):
        load_dataset(tmp_path)


def test_manifest_roundtrip(tmp_path):
    rows = [("img_0000", "tensors/img_0000.tnsr", 0),
            ("img_0001", "tensors/img_0001.tnsr", 1)]
    path = tmp_path / "manifest.csv"
    write_manifest(path, rows, ("smooth", "textured"))
    got_rows, names = read_manifest(path)
    assert got_rows == rows
    assert names == ("smooth", "textured")


def test_manifest_rejects_duplicates_and_bad_labels(tmp_path):
    path = tmp_path / "manifest.csv"
    write_manifest(path, [("a", "p", 0), ("a", "q", 1)], ("x", "y"))
    with pytest.raises(ValueError):
        read_manifest(path)
    write_manifest(path, [("a", "p", 5)], ("x", "y"))
    with pytest.raises(ValueError):
        read_manifest(path)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.text("abc", min_size=1, max_size=2), min_size=2, max_size=5))
def test_manifest_refuses_a_repeated_class_name(tmp_path_factory, names):
    """A class table is read back as written unless it repeats a name; then
    the first repeated name is refused, so no two labels share a name."""
    path = tmp_path_factory.mktemp("manifest") / "manifest.csv"
    write_manifest(path, [("a", "p", 0)], names)
    repeated = [c for i, c in enumerate(names) if c in names[:i]]
    if not repeated:
        assert read_manifest(path)[1] == tuple(names)
        return
    message = f"{path}: duplicate class name {repeated[0]!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        read_manifest(path)


@settings(max_examples=80, deadline=None)
@given(st.text("ab._/\\ ", max_size=5) | st.sampled_from(["", ".", "..", "../../escaped"]))
def test_image_ids_must_be_plain_file_names(tmp_path_factory, image_id):
    """read_manifest and LabeledDataset accept an image_id exactly when it is
    a plain file name, and name a refused id (and its manifest) otherwise:
    the dataset and dump writers join it onto their directories."""
    plain = image_id not in ("", ".", "..") and not any(
        sep in image_id for sep in ("/", os.sep, os.altsep) if sep)
    path = tmp_path_factory.mktemp("manifest") / "manifest.csv"
    write_manifest(path, [(image_id, "tensors/x.tnsr", 0)], ("x", "y"))
    make = [lambda: read_manifest(path)[0][0][0],
            lambda: LabeledDataset(np.zeros((1, 1, 2, 2)), [0], ("x", "y"), (image_id,)).image_ids[0]]
    for where, build in zip((path, "dataset"), make):
        if plain:
            assert build() == image_id
        else:
            with pytest.raises(ValueError, match=re.escape(f"{where}: image_id {image_id!r} ")):
                build()


@pytest.mark.parametrize("load", [load_dataset, import_activation_dump])
def test_loaders_refuse_a_missing_or_empty_manifest(tmp_path, load):
    with pytest.raises(FileNotFoundError, match="manifest not found: "):
        load(tmp_path)
    write_manifest(tmp_path / "manifest.csv", [], ("x", "y"))
    with pytest.raises(ValueError, match=": no image rows$"):
        load(tmp_path)


def test_dataset_roundtrip(tmp_path):
    data = generate_synthetic(SyntheticSpec(per_class=3, extent=8, seed=1))
    save_dataset(data, tmp_path / "ds")
    back = load_dataset(tmp_path / "ds")
    assert np.array_equal(back.images, data.images)
    assert np.array_equal(back.labels, data.labels)
    assert back.class_names == data.class_names
    assert back.image_ids == data.image_ids
    # loading via the manifest path works too
    again = load_dataset(tmp_path / "ds" / "manifest.csv")
    assert np.array_equal(again.images, data.images)


# text fields: the formats' separators and the path-like values often, any text sometimes
_FIELDS = st.text(st.sampled_from("ab.,/\\\n\r\0 #"), max_size=4) | st.text(max_size=6)
# ids of 242 to 250 bytes of UTF-8, in characters of 1 to 4 bytes: a file
# name takes at most 255, and a tensor file is first written as <id>.tnsr.tmp
_LONG_IDS = st.builds(lambda char, size: char * (size // len(char.encode()))
                      + "b" * (size % len(char.encode())),
                      st.sampled_from("bé€😀"), st.integers(242, 250))


@settings(max_examples=200, deadline=None)
@given(st.lists(_FIELDS, max_size=3), st.lists(_FIELDS | _LONG_IDS, max_size=4), st.data())
def test_dataset_round_trips_or_is_refused_before_writing(tmp_path_factory, class_names,
                                                          image_ids, data):
    """For generated class names, ids, labels and pixel values, either the
    dataset is refused (ValueError) before any file exists, or load_dataset
    gives back the same names, ids, labels and pixel bytes."""
    n = len(image_ids)
    labels = data.draw(st.lists(st.integers(-1, len(class_names)), min_size=n, max_size=n))
    pixels = data.draw(st.lists(st.floats(width=32), min_size=4 * n, max_size=4 * n))
    images = np.array(pixels, dtype=np.float32).reshape(n, 1, 2, 2)
    out = tmp_path_factory.mktemp("dataset") / "ds"
    try:
        save_dataset(LabeledDataset(images, labels, tuple(class_names), tuple(image_ids)), out)
    except ValueError:
        assert not out.exists()
        return
    back = load_dataset(out)
    assert back.class_names == tuple(class_names) and back.image_ids == tuple(image_ids)
    assert back.labels.tolist() == labels
    assert back.images.tobytes() == images.tobytes()


@pytest.mark.parametrize("char", "bé€😀")
def test_the_longest_id_that_fits_a_file_name_is_saved(tmp_path, char):
    """An id of 246 bytes of UTF-8 names a tensor file (<id>.tnsr.tmp is 255
    bytes while written) and reads back; one byte more is refused before any
    file exists."""
    width = len(char.encode())
    longest = char * (246 // width) + "b" * (246 % width)
    images = np.zeros((1, 1, 2, 2), dtype=np.float32)
    save_dataset(LabeledDataset(images, [0], ("x", "y"), (longest,)), tmp_path / "ds")
    assert load_dataset(tmp_path / "ds").image_ids == (longest,)
    with pytest.raises(ValueError, match="is longer than 246 bytes of UTF-8"):
        save_dataset(LabeledDataset(images, [0], ("x", "y"), (longest + "b",)), tmp_path / "no")
    assert not (tmp_path / "no").exists()


# --- synthetic generator ---

def test_synthetic_deterministic():
    spec = SyntheticSpec(per_class=4, extent=16, seed=7)
    a, b = generate_synthetic(spec), generate_synthetic(spec)
    assert np.array_equal(a.images, b.images)
    assert a.images.dtype == np.float32
    assert a.images.shape == (8, 1, 16, 16)
    assert list(a.labels) == [0] * 4 + [1] * 4


def test_synthetic_classes_differ_in_moments():
    data = generate_synthetic(SyntheticSpec(per_class=40, extent=16, seed=3))
    per_image_sd = data.images.reshape(len(data.images), -1).std(axis=1)
    a = per_image_sd[data.labels == 0]
    b = per_image_sd[data.labels == 1]
    pooled_se = np.sqrt(a.var() / len(a) + b.var() / len(b))
    assert abs(a.mean() - b.mean()) > 3 * pooled_se


def test_synthetic_spec_contract():
    with pytest.raises(ValueError):
        SyntheticSpec(extent=3)
    with pytest.raises(ValueError):
        SyntheticSpec(noise_scale=(0.1,))
    with pytest.raises(ValueError):
        SyntheticSpec(noise_scale=(0.2, 0.2), spatial_frequency=(1.0, 1.0),
                      blob_density=(0.5, 0.5))
    # identical parameters are allowed when the null flag is set
    SyntheticSpec(noise_scale=(0.2, 0.2), spatial_frequency=(1.0, 1.0),
                  blob_density=(0.5, 0.5), null_generator=True)


def test_null_generator_near_chance():
    spec = SyntheticSpec(per_class=25, extent=8, seed=5,
                         noise_scale=(0.3, 0.3), spatial_frequency=(2.0, 2.0),
                         blob_density=(0.3, 0.3), null_generator=True)
    data = generate_synthetic(spec)
    feats = data.images.reshape(len(data.images), -1)
    # summary features, not raw pixels, to keep the forest cheap
    feats = np.column_stack([feats.mean(axis=1), feats.std(axis=1),
                             np.abs(feats).max(axis=1)])
    plan = kfold_split(data.labels, k=5, seed=0)
    metrics = cross_validate(feats, data.labels, ForestConfig(tree_count=20, seed=0), plan)
    assert 0.3 <= metrics.mean_auc <= 0.7


# --- markov chains ---

def test_chain_noiseless_identity_preserves_class_information():
    chain = generate_markov_chain(20000, noise_levels=1, quantizer_levels=None, seed=0)
    i_xc = mutual_information(contingency_table(chain.x, chain.c))
    priors = np.bincount(chain.c) / len(chain.c)
    h_c = -(priors * np.log2(priors)).sum()
    assert abs(i_xc - h_c) < 1e-9  # x is a bijection of c when noiseless
    report = dpi_check(chain)
    assert report.holds and abs(report.i_yc - report.i_xc) < 1e-12


def test_chain_constant_quantizer_destroys_information():
    chain = generate_markov_chain(5000, noise_levels=6, quantizer_levels=1, seed=1)
    report = dpi_check(chain)
    assert report.i_yc == 0.0 and report.holds


def test_chain_moderate_case_dpi():
    chain = generate_markov_chain(100000, noise_levels=12, quantizer_levels=4, seed=2)
    report = dpi_check(chain)
    assert report.holds
    assert report.i_xc > 0.0


def test_chain_markov_property_structural():
    """I(Y;C | X) vanishes because y is a deterministic function of x."""
    chain = generate_markov_chain(50000, noise_levels=8, quantizer_levels=3, seed=3)
    total = 0.0
    for xv in np.unique(chain.x):
        mask = chain.x == xv
        p = mask.mean()
        sub_y, sub_c = chain.y[mask], chain.c[mask]
        if len(np.unique(sub_y)) < 2 or len(np.unique(sub_c)) < 2:
            continue
        total += p * mutual_information(contingency_table(sub_y, sub_c))
    assert total < 0.02


def test_chain_contract_errors():
    with pytest.raises(ValueError):
        generate_markov_chain(0, 1, None)
    with pytest.raises(ValueError):
        generate_markov_chain(10, 0, None)
    with pytest.raises(ValueError):
        generate_markov_chain(10, 2, 0)
    with pytest.raises(ValueError):
        generate_markov_chain(10, 2, 2, classes=1)


# --- activation dumps ---

def _write_dump(data, network, out_dir) -> None:
    """A dump of one whole-dataset forward_collect pass, written by the
    writer extract --dump-out uses."""
    writer = data_io.ActivationDumpWriter(out_dir)
    writer.write_chunk(data.image_ids, net.forward_collect(network, data.images))
    writer.finish(data.image_ids, data.labels, data.class_names)


@settings(max_examples=150, deadline=None)
@given(st.lists(_FIELDS, max_size=3), st.lists(_FIELDS | _LONG_IDS, max_size=4),
       st.integers(1, 3), st.data())
def test_activation_dump_round_trips_or_is_refused_before_writing(tmp_path_factory, class_names,
                                                                  image_ids, chunk, data):
    """For generated ids, labels, class names and activations written in
    chunks, either the writer refuses (ValueError) before writing the
    refused chunk or the manifest, or import_activation_dump gives back the
    same ids, labels, class names and tensor bytes."""
    n = len(image_ids)
    labels = data.draw(st.lists(st.integers(-1, len(class_names)), min_size=n, max_size=n))
    activations = [np.array(data.draw(st.lists(st.floats(width=32), min_size=n * size,
                                               max_size=n * size)), dtype=np.float32)
                   .reshape(n, *shape) for size, shape in ((6, (2, 3)), (2, (2,)))]
    out = tmp_path_factory.mktemp("dump") / "dump"
    writer = data_io.ActivationDumpWriter(out)
    written = []
    try:
        for lo in range(0, n, chunk):
            writer.write_chunk(image_ids[lo:lo + chunk], [a[lo:lo + chunk] for a in activations])
            written += image_ids[lo:lo + chunk]
        writer.finish(image_ids, labels, tuple(class_names))
    except ValueError:
        assert not (out / "manifest.csv").exists()
        assert sorted(os.listdir(out / "activations") if written else ()) == sorted(written)
        return
    dump = import_activation_dump(out)
    assert dump.image_ids == tuple(image_ids) and dump.class_names == tuple(class_names)
    assert dump.labels.tolist() == labels
    for i, layers in enumerate(dump.activations):
        assert [a.tobytes() for a in layers] == [a[i].tobytes() for a in activations]


def _dump_rows(dump, mode):
    """cent_rows of every image of an imported dump."""
    return cent_rows([np.stack(layer) for layer in zip(*dump.activations)], mode)


def test_activation_dump_roundtrip_matches_in_process(tmp_path):
    data = generate_synthetic(SyntheticSpec(per_class=3, extent=32, seed=9))
    network = net.build_desk_2d(32, 2, seed=9)
    _write_dump(data, network, tmp_path / "dump")
    dump = import_activation_dump(tmp_path / "dump")
    assert dump.image_ids == data.image_ids
    assert np.array_equal(dump.labels, data.labels)
    direct = cent_rows(net.forward_collect(network, data.images), "per-filter")
    assert _dump_rows(dump, "per-filter").tobytes() == direct.tobytes()


def test_activation_dump_streams_the_bytes_of_one_whole_dataset_pass(tmp_path, monkeypatch):
    """extract --dump-out --pre-relu streams chunk by chunk (3 images a chunk
    at 64x64), and the dump holds the bytes a single whole-dataset
    forward_collect call gives, and its manifest. The chunk calls are counted
    in this process, so it runs them all."""
    use_cpus(monkeypatch, 1)
    data = generate_synthetic(SyntheticSpec(per_class=4, extent=64, seed=13))
    network = net.build_desk_2d(64, 2, seed=13)
    write_reference_dump(data, net.forward_collect(network, data.images, pre_relu=True),
                         tmp_path / "ref")
    save_dataset(data, str(tmp_path / "data"))
    net.save_checkpoint(network, str(tmp_path / "net.ckpt"))
    calls = []
    collect = infotheory.forward_collect  # the binding extract calls
    monkeypatch.setattr(infotheory, "forward_collect",
                        lambda nw, x, **kw: calls.append(len(x)) or collect(nw, x, **kw))
    assert cli.main(["extract", "--out", str(tmp_path / "f"), "--checkpoint",
                     str(tmp_path / "net.ckpt"), "--data", str(tmp_path / "data"),
                     "--pre-relu", "--dump-out", str(tmp_path / "dump")]) == 0
    assert calls == [3, 3, 2]

    def tree(root):
        return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}
    assert tree(tmp_path / "dump") == tree(tmp_path / "ref")


def test_activation_dump_missing_directory_names_image(tmp_path):
    data = generate_synthetic(SyntheticSpec(per_class=2, extent=32, seed=10))
    network = net.build_desk_2d(32, 2, seed=10)
    _write_dump(data, network, tmp_path / "dump")
    import shutil
    shutil.rmtree(tmp_path / "dump" / "activations" / "img_0002")
    with pytest.raises(FileNotFoundError) as e:
        import_activation_dump(tmp_path / "dump")
    assert "img_0002" in str(e.value)


def test_activation_dump_inconsistent_shapes_names_image(tmp_path):
    data = generate_synthetic(SyntheticSpec(per_class=2, extent=32, seed=11))
    network = net.build_desk_2d(32, 2, seed=11)
    _write_dump(data, network, tmp_path / "dump")
    rogue = tmp_path / "dump" / "activations" / "img_0003" / "layer_00.tnsr"
    save_tensor(rogue, np.zeros((10, 4, 4), np.float32))
    with pytest.raises(ValueError) as e:
        import_activation_dump(tmp_path / "dump")
    assert "img_0003" in str(e.value)


def test_mock_wide_dump_feature_length(tmp_path):
    """Five conv layers of 64 + 4*256 filters give 1088 per-filter values."""
    rng = np.random.default_rng(12)
    widths = [64, 256, 256, 256, 256]
    out = tmp_path / "dump"
    rows = []
    for i in range(2):
        image_id = f"img_{i:04d}"
        img_dir = out / "activations" / image_id
        img_dir.mkdir(parents=True)
        for li, w in enumerate(widths):
            act = rng.normal(size=(w, 3, 3)).astype(np.float32)
            save_tensor(img_dir / f"layer_{li:02d}.tnsr", act)
        rows.append((image_id, f"activations/{image_id}", i % 2))
    write_manifest(out / "manifest.csv", rows, ("a", "b"))
    dump = import_activation_dump(out)
    assert _dump_rows(dump, "per-filter").shape == (2, 1088)
    assert _dump_rows(dump, "per-layer").shape == (2, 5)


# --- features CSV ---

def test_features_csv_roundtrip(tmp_path):
    ids = ("img_0000", "img_0001")
    labels = np.array([0, 1])
    matrix = np.array([[1.25, 2.5, 0.125], [3.0, 4.75, 5.5]])
    path = tmp_path / "features.csv"
    write_features_csv(path, ids, labels, matrix)
    text = path.read_text()
    assert text.splitlines()[0] == "image_id,label,feat_0,feat_1,feat_2"
    assert "np.float64" not in text
    got_ids, got_labels, got_matrix = read_features_csv(path)
    assert got_ids == ids
    assert np.array_equal(got_labels, labels)
    assert np.array_equal(got_matrix, matrix)


@settings(max_examples=200, deadline=None)
@given(st.lists(_FIELDS, max_size=4), st.integers(0, 3), st.data())
def test_features_csv_round_trips_or_is_refused_before_writing(tmp_path_factory, image_ids,
                                                               width, data):
    """For generated ids, labels and values, either write_features_csv
    refuses (ValueError) before the file exists, or read_features_csv gives
    back the same ids, labels and values (NaN for NaN)."""
    n = len(image_ids)
    labels = data.draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n))
    values = data.draw(st.lists(st.floats(), min_size=n * width, max_size=n * width))
    matrix = np.array(values, dtype=np.float64).reshape(n, width)
    path = tmp_path_factory.mktemp("features") / "features.csv"
    try:
        write_features_csv(path, image_ids, labels, matrix)
    except ValueError:
        assert not path.exists()
        return
    got_ids, got_labels, got_matrix = read_features_csv(path)
    assert got_ids == tuple(image_ids) and got_labels.tolist() == labels
    assert got_matrix.shape == matrix.shape
    assert np.array_equal(got_matrix, matrix, equal_nan=True)
