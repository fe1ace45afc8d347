"""Binary tensor files, manifests, synthetic data, chains, and dumps."""

import numpy as np
import pytest

from centpipe import data_io, net
from centpipe.data_io import (BadMagicError, ChecksumError, LabeledDataset,
                              SyntheticSpec, TruncatedError, VersionError,
                              export_activation_dump, generate_markov_chain,
                              generate_synthetic, import_activation_dump,
                              load_dataset, load_tensor, read_features_csv,
                              read_manifest, save_dataset, save_tensor,
                              write_features_csv, write_manifest)
from centpipe.evaluation import cross_validate, kfold_split
from centpipe.forest import ForestConfig
from centpipe.infotheory import (contingency_table, dpi_check,
                                 extract_cent_from_activations,
                                 extract_cent_features, mutual_information)


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

def test_activation_dump_roundtrip_matches_in_process(tmp_path):
    data = generate_synthetic(SyntheticSpec(per_class=3, extent=32, seed=9))
    network = net.build_desk_2d(32, 2, seed=9)
    export_activation_dump(data, network, tmp_path / "dump")
    dump = import_activation_dump(tmp_path / "dump")
    assert dump.image_ids == data.image_ids
    assert np.array_equal(dump.labels, data.labels)
    for i in range(len(data.images)):
        direct = extract_cent_features(network, data.images[i], mode="per-filter")
        from_dump = extract_cent_from_activations(dump.activations[i], mode="per-filter")
        assert np.array_equal(direct.values, from_dump.values)


def test_activation_dump_streams_the_bytes_of_one_whole_dataset_pass(tmp_path, monkeypatch):
    """Chunk by chunk (3 images a chunk at 64x64), the dump holds the bytes a
    single whole-dataset forward_collect call gives, and its manifest."""
    data = generate_synthetic(SyntheticSpec(per_class=4, extent=64, seed=13))
    network = net.build_desk_2d(64, 2, seed=13)
    acts = net.forward_collect(network, data.images, pre_relu=True)
    rows = []
    for i, image_id in enumerate(data.image_ids):
        img_dir = tmp_path / "ref" / "activations" / image_id
        img_dir.mkdir(parents=True)
        for li, act in enumerate(acts):
            save_tensor(img_dir / f"layer_{li:02d}.tnsr", act[i])
        rows.append((image_id, f"activations/{image_id}", int(data.labels[i])))
    write_manifest(tmp_path / "ref" / "manifest.csv", rows, data.class_names)
    calls = []
    collect = data_io.forward_collect
    monkeypatch.setattr(data_io, "forward_collect",
                        lambda nw, x, **kw: calls.append(len(x)) or collect(nw, x, **kw))
    export_activation_dump(data, network, tmp_path / "dump", pre_relu=True)
    assert calls == [3, 3, 2]

    def tree(root):
        return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}
    assert tree(tmp_path / "dump") == tree(tmp_path / "ref")


def test_activation_dump_missing_directory_names_image(tmp_path):
    data = generate_synthetic(SyntheticSpec(per_class=2, extent=32, seed=10))
    network = net.build_desk_2d(32, 2, seed=10)
    export_activation_dump(data, network, tmp_path / "dump")
    import shutil
    shutil.rmtree(tmp_path / "dump" / "activations" / "img_0002")
    with pytest.raises(FileNotFoundError) as e:
        import_activation_dump(tmp_path / "dump")
    assert "img_0002" in str(e.value)


def test_activation_dump_inconsistent_shapes_names_image(tmp_path):
    data = generate_synthetic(SyntheticSpec(per_class=2, extent=32, seed=11))
    network = net.build_desk_2d(32, 2, seed=11)
    export_activation_dump(data, network, tmp_path / "dump")
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
    vec = extract_cent_from_activations(dump.activations[0], mode="per-filter")
    assert len(vec.values) == 1088
    per_layer = extract_cent_from_activations(dump.activations[0], mode="per-layer")
    assert len(per_layer.values) == 5


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
