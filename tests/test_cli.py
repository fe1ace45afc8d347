"""End-to-end subcommand behavior: flags, config files, outputs, exit codes."""

import contextlib
import dataclasses
import functools
import io
import json
import os
import pathlib
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from centpipe import cli, data_io, forest, framing, infotheory, net, ops

from conftest import (assert_no_child_left, count_split_elements, small_dataset, use_cpus,
                      write_reference_dump)


def run_cli(argv):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


PARSER = cli._build_parser()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> train -> extract artifacts shared across the module."""
    root = tmp_path_factory.mktemp("pipeline")
    data_dir = str(root / "data")
    train_dir = str(root / "train")
    code, out, err = run_cli(["synth", "--out", data_dir, "--per-class", "10",
                              "--extent", "32", "--seed", "3"])
    assert code == 0, err
    code, out, err = run_cli(["train", "--out", train_dir, "--data", data_dir,
                              "--epochs", "3", "--seed", "3"])
    assert code == 0, err
    ckpt = json.loads(out)["checkpoint"]

    feat_dir = str(root / "features")
    dump_dir = str(root / "dump")
    code, out, err = run_cli(["extract", "--out", feat_dir, "--checkpoint", ckpt,
                              "--data", data_dir, "--dump-out", dump_dir])
    assert code == 0, err
    return {"root": root, "data": data_dir, "train": train_dir, "ckpt": ckpt,
            "features": os.path.join(feat_dir, "features.csv"), "dump": dump_dir}


# --- synth ---

def test_synth_happy_path(pipeline):
    manifest = os.path.join(pipeline["data"], "manifest.csv")
    lines = open(manifest).read().splitlines()
    assert lines[0].startswith("# classes: ")
    assert len(lines[0].removeprefix("# classes: ").split(",")) == 2
    assert lines[1] == "image_id,path,label"
    assert len(lines) == 2 + 20
    data = data_io.load_dataset(pipeline["data"])
    assert data.images.shape == (20, 1, 32, 32)


def test_synth_summary_embeds_config(tmp_path):
    code, out, _ = run_cli(["synth", "--out", str(tmp_path / "d"),
                            "--per-class", "2", "--extent", "8"])
    assert code == 0
    summary = json.loads(out)
    assert summary["config"]["per_class"] == 2
    assert summary["config"]["extent"] == 8
    assert summary["images"] == 4
    assert summary["counters"]["images"] == 4
    assert set(summary["timings"]) == {"generate_s", "write_s"}
    assert all(v >= 0 for v in summary["timings"].values())
    written = [os.path.join(d, f) for d, _, files in os.walk(tmp_path / "d") for f in files]
    assert summary["counters"]["bytes_written"] == sum(map(os.path.getsize, written))


@pytest.mark.parametrize("flag,value", [
    ("--noise-scale", "nan,0.4"), ("--noise-scale", "inf,0.4"),
    ("--spatial-frequency", "inf,6"), ("--spatial-frequency", "0,-inf"),
    ("--blob-density", "inf,0.1"), ("--blob-density", "0.5,nan"),
    ("--noise-scale", "-1,0.4"), ("--spatial-frequency", "-1,0"), ("--blob-density", "-3,0.1"),
])
def test_synth_non_finite_class_parameter_exits_2(tmp_path, flag, value):
    code, out, err = run_cli(["synth", "--out", str(tmp_path / "d"), "--per-class", "2",
                              "--extent", "8", f"{flag}={value}"])
    assert code == 2 and out == ""
    assert f"{flag[2:].replace('-', '_')} must be finite" in err
    assert not (tmp_path / "d" / "manifest.csv").exists()


def test_synth_bad_extent_exits_2(tmp_path):
    code, _, err = run_cli(["synth", "--out", str(tmp_path / "d"), "--extent", "0"])
    assert code == 2
    assert "extent" in err


def test_missing_out_exits_2():
    code, _, err = run_cli(["synth", "--per-class", "2"])
    assert code == 2
    assert "output directory" in err


def test_resolved_config_echoed_to_stderr(tmp_path):
    code, _, err = run_cli(["synth", "--out", str(tmp_path / "d"),
                            "--per-class", "2", "--extent", "8"])
    assert code == 0
    assert "resolved config:" in err


# --- train ---

def test_train_outputs(pipeline):
    assert os.path.exists(pipeline["ckpt"])
    trace = open(os.path.join(pipeline["train"], "loss_trace.csv")).read().splitlines()
    assert trace[0] == "epoch,mean_loss"
    assert len(trace) == 1 + 3
    assert all("np.float" not in line for line in trace)


def test_train_prints_one_json_line_per_epoch(pipeline, tmp_path):
    runs = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        code, _, err = run_cli(["train", "--out", str(out_dir), "--data", pipeline["data"],
                                "--epochs", "3", "--seed", "3"])
        assert code == 0, err
        lines = [json.loads(line) for line in err.splitlines() if line.startswith("{")]
        runs.append((out_dir, lines))
    out_dir, lines = runs[0]
    assert [line["epoch"] for line in lines] == [0, 1, 2]
    assert all(set(line) == {"epoch", "mean_loss", "seconds", "minor_faults"} for line in lines)
    assert all(line["seconds"] >= 0 for line in lines)
    assert all(type(line["minor_faults"]) is int and line["minor_faults"] >= 0 for line in lines)
    trace = open(out_dir / "loss_trace.csv").read().splitlines()[1:]
    assert [float(row.split(",")[1]) for row in trace] == [line["mean_loss"] for line in lines]
    # the timings reach stderr only: the files of both runs are byte-identical
    for name in ("loss_trace.csv", "checkpoint.ckpt"):
        assert (runs[0][0] / name).read_bytes() == (runs[1][0] / name).read_bytes()


def test_epoch_faults_count_the_reaped_workers(monkeypatch, capsys):
    """An epoch's minor_faults adds the faults of the reaped children, the
    epoch's workers, to this process's own."""
    faults = {resource.RUSAGE_SELF: 100, resource.RUSAGE_CHILDREN: 10}
    monkeypatch.setattr(resource, "getrusage",
                        lambda who: types.SimpleNamespace(ru_minflt=faults[who]))
    reporter = cli._EpochReporter()
    faults[resource.RUSAGE_SELF] += 5
    faults[resource.RUSAGE_CHILDREN] += 70
    reporter(0, 0.5, 0, 2, 3)
    assert json.loads(capsys.readouterr().err)["minor_faults"] == 75


def test_train_summary_reports_counters_and_timings(pipeline, tmp_path, monkeypatch):
    """Samples trained, forward+backward calls (a batch of 15 desk images at
    32^2 runs as chunks of 12 and 3), the workspace's kept bytes and stage
    seconds go to stdout only. The chunk calls are counted in this process,
    so it runs them all."""
    use_cpus(monkeypatch, 1)
    real, calls = net._loss_and_grads, []

    def counting(*args):
        calls.append(len(args[1]))
        return real(*args)

    monkeypatch.setattr(net, "_loss_and_grads", counting)
    code, out, err = run_cli(["train", "--out", str(tmp_path / "t"), "--data", pipeline["data"],
                              "--epochs", "2", "--batch-size", "15", "--seed", "3"])
    assert code == 0, err
    summary = json.loads(out)
    assert calls == [12, 3, 5] * 2
    counters = summary["counters"]
    assert counters.pop("workspace_bytes") > 0  # the kept float64 scratch
    assert counters == {"samples_trained": 40, "chunks": len(calls), "workers": 1}
    assert set(summary["timings"]) == {"train_s", "save_s"}
    assert all(v >= 0 for v in summary["timings"].values())
    trace = (tmp_path / "t" / "loss_trace.csv").read_text()
    assert "timings" not in trace and "chunks" not in trace and "workspace" not in trace


def test_train_missing_data_exits_2(tmp_path):
    code, _, err = run_cli(["train", "--out", str(tmp_path / "t")])
    assert code == 2
    assert "dataset" in err


def test_train_desk2d_refuses_a_variant_before_reading_data(pipeline, tmp_path, monkeypatch):
    """desk2d has no variants: a --variant other than the default would be
    recorded in the summary and change nothing, so it exits 2 before the
    dataset is read and writes no checkpoint. The default is accepted."""
    def no_read(path):
        raise AssertionError("the dataset was read")

    with monkeypatch.context() as patch:
        patch.setattr(data_io, "load_dataset", no_read)
        code, out, err = run_cli(["train", "--out", str(tmp_path / "t"), "--data",
                                  pipeline["data"], "--variant", "conv-stride-reduces"])
    assert code == 2 and out == ""
    assert "error: --variant conv-stride-reduces has no effect with desk2d" in err
    assert not (tmp_path / "t" / "checkpoint.ckpt").exists()
    code, _, err = run_cli(["train", "--out", str(tmp_path / "d"), "--data", pipeline["data"],
                            "--epochs", "1", "--variant", "pool-reduces"])
    assert code == 0, err


@pytest.mark.parametrize("command", ["train", "theory"])
def test_dataset_row_naming_a_directory_exits_2(pipeline, command, tmp_path):
    """A dump's manifest rows name activation directories: read as a
    dataset, the first such row is refused by image and path (exit 2)."""
    argv = [command, "--out", str(tmp_path / "o"), "--data", pipeline["dump"]]
    if command == "theory":
        argv += ["--checkpoint", pipeline["ckpt"]]
    code, out, err = run_cli(argv)
    path = os.path.join(pipeline["dump"], "activations", "img_0000")
    assert code == 2 and out == ""
    assert f"error: image 'img_0000': {path} is a directory, not a tensor file" in err


@pytest.mark.parametrize("manifest", [False, True])
def test_extract_dump_out_into_the_data_directory_exits_2(pipeline, tmp_path, manifest):
    """--dump-out naming the --data directory, here through a link, with the
    data given as that directory or as its manifest, would replace the
    dataset's manifest with the dump's: it exits 2 before any file is
    touched."""
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    os.symlink(data, tmp_path / "link")
    before = (data / "manifest.csv").read_bytes()
    code, out, err = run_cli(["extract", "--out", str(tmp_path / "f"), "--checkpoint",
                              pipeline["ckpt"], "--data",
                              str(data / "manifest.csv") if manifest else str(data),
                              "--dump-out", str(tmp_path / "link")])
    assert code == 2 and out == ""
    assert "error: --dump-out names the --data directory" in err
    assert (data / "manifest.csv").read_bytes() == before
    assert not (data / "activations").exists()
    assert not (tmp_path / "f" / "features.csv").exists()


def test_train_wrong_shape_for_reference3d(pipeline, tmp_path):
    code, _, err = run_cli(["train", "--out", str(tmp_path / "t"),
                            "--data", pipeline["data"], "--arch", "reference3d"])
    assert code == 2
    assert "reference3d expects" in err


@pytest.mark.parametrize("shape", [(3, 32, 32), (1, 32), (1, 32, 16), ()])
def test_train_desk2d_refuses_images_of_another_shape(tmp_path, shape):
    """desk2d is built at the images' last extent and takes only images of
    its input shape: others exit 2, naming (1, 32, 32) where the network
    builds, with no traceback and no checkpoint. A rank-0 set comes only
    from hand-made tensor files."""
    data = tmp_path / "data"
    if shape:
        images = np.zeros((2, *shape), np.float32)
        data_io.save_dataset(data_io.LabeledDataset(images, [0, 1], ("a", "b")), data)
    else:
        (data / "tensors").mkdir(parents=True)
        for i in range(2):
            framing.write_framed(data / "tensors" / f"img_{i}.tnsr", data_io.TENSOR_MAGIC,
                                 data_io.TENSOR_VERSION, framing.tensor_record(np.float32(i)))
        data_io.write_manifest(data / "manifest.csv", [(f"img_{i}", f"tensors/img_{i}.tnsr", i)
                                                       for i in range(2)], ("a", "b"))
    code, out, err = run_cli(["train", "--out", str(tmp_path / "t"), "--data", str(data),
                              "--epochs", "1", "--batch-size", "1"])
    assert code == 2 and out == "", err
    assert err.splitlines()[-1].startswith("error: ") and "Traceback" not in err
    if shape[-1:] == (32,):
        assert f"error: desk2d expects (1, 32, 32) images, got {shape}" in err
    assert not (tmp_path / "t" / "checkpoint.ckpt").exists()


def test_repeated_class_name_exits_2(pipeline, tmp_path):
    """A dataset whose manifest names one class twice is refused by every
    subcommand that loads it, instead of merging the two classes' counts."""
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    manifest = data / "manifest.csv"
    rows = manifest.read_text().splitlines(keepends=True)[1:]
    manifest.write_text("# classes: a,a\n" + "".join(rows))
    for argv in (["train"], ["extract", "--checkpoint", pipeline["ckpt"]],
                 ["theory", "--checkpoint", pipeline["ckpt"]]):
        code, out, err = run_cli(argv + ["--out", str(tmp_path / argv[0]), "--data", str(data)])
        assert code == 2 and out == "", err
        assert f"error: {manifest}: duplicate class name 'a'" in err


def test_path_like_image_id_exits_2(pipeline, tmp_path):
    """A manifest id that is no plain file name is refused by every
    subcommand that loads it, before extract --dump-out could write its
    activations outside the dump directory."""
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    manifest = data / "manifest.csv"
    lines = manifest.read_text().splitlines(keepends=True)
    lines[2] = "../../escaped" + lines[2][lines[2].index(","):]
    manifest.write_text("".join(lines))
    work = tmp_path / "work"
    for argv in (["extract", "--checkpoint", pipeline["ckpt"], "--dump-out", str(work / "dump")],
                 ["train"], ["theory", "--checkpoint", pipeline["ckpt"]]):
        code, out, err = run_cli(argv + ["--out", str(work / argv[0]), "--data", str(data)])
        assert code == 2 and out == "", err
        assert f"error: {manifest}: image_id '../../escaped' is not a plain file name" in err
    assert sorted(os.listdir(work)) == ["extract", "theory", "train"]
    assert not any(os.listdir(work / name) for name in os.listdir(work))


def test_too_long_image_id_exits_2(pipeline, tmp_path):
    """An id longer than 246 bytes of UTF-8 cannot name a tensor file
    (<id>.tnsr.tmp while written): extract --dump-out refuses its manifest
    (exit 2, not an OSError's 1) before writing any of the dump."""
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    manifest = data / "manifest.csv"
    lines = manifest.read_text().splitlines(keepends=True)
    long_id = "é" * 124  # 248 bytes
    lines[2] = long_id + lines[2][lines[2].index(","):]
    manifest.write_text("".join(lines))
    work = tmp_path / "work"
    code, out, err = run_cli(["extract", "--out", str(work / "f"), "--checkpoint", pipeline["ckpt"],
                              "--data", str(data), "--dump-out", str(work / "dump")])
    assert code == 2 and out == "", err
    assert f"error: {manifest}: image_id {long_id!r} is longer than 246 bytes" in err
    assert os.listdir(work) == ["f"] and not os.listdir(work / "f")


@pytest.mark.parametrize("bounds", ["0,inf", "-inf,inf", "nan,1", "1,1", "-1e308,1e308"])
@pytest.mark.parametrize("source", ["data", "dump"])
def test_extract_bad_fixed_range_exits_2_without_output(pipeline, tmp_path, bounds, source):
    """A fixed --range must have lo < hi and a finite width hi - lo (so both
    ends finite); otherwise extract exits 2 before writing features.csv or
    a dump."""
    inputs = (["--checkpoint", pipeline["ckpt"], "--data", pipeline["data"],
               "--dump-out", str(tmp_path / "d")] if source == "data"
              else ["--dump", pipeline["dump"]])
    code, out, err = run_cli(["extract", "--out", str(tmp_path / "f"), f"--range={bounds}",
                              *inputs])
    assert code == 2 and out == ""
    assert "error: fixed range needs finite lo < hi" in err
    assert os.listdir(tmp_path) == ["f"] and not os.listdir(tmp_path / "f")


def _tree_bytes(root) -> dict:
    """Every file under root, by relative path, with its bytes."""
    return {os.path.relpath(os.path.join(d, f), root): open(os.path.join(d, f), "rb").read()
            for d, _, files in os.walk(root) for f in files}


@pytest.mark.parametrize("flags,extent", [(["--bins=1"], 32), (["--range=1,0"], 32), ([], 64),
                                          (["--bins=131073"], 32)])
def test_extract_config_error_leaves_the_earlier_dump_as_it_was(pipeline, tmp_path, flags,
                                                                 extent):
    """A bin count or range that no histogram takes, or images that the
    checkpoint's 32x32 network does not take, exit 2 before the dump
    writer is made: the dump that --dump-out names keeps every byte."""
    dump = tmp_path / "dump"
    shutil.copytree(pipeline["dump"], dump)
    before = _tree_bytes(dump)
    data = pipeline["data"]
    if extent != 32:
        data = str(tmp_path / "data")
        assert run_cli(["synth", "--out", data, "--extent", str(extent), "--per-class", "2"])[0] == 0
    code, out, err = run_cli(["extract", "--out", str(tmp_path / "f"), "--checkpoint",
                              pipeline["ckpt"], "--data", data, "--dump-out", str(dump), *flags])
    assert code == 2 and out == "" and "error: " in err, err
    assert _tree_bytes(dump) == before
    data_io.import_activation_dump(str(dump))


def test_train_divergence_exits_1(pipeline, tmp_path):
    code, _, err = run_cli(["train", "--out", str(tmp_path / "t"),
                            "--data", pipeline["data"],
                            "--learning-rate", "1e18", "--epochs", "8"])
    assert code == 1
    assert "runtime failure" in err


def test_train_divergence_writes_only_its_error(pipeline, tmp_path):
    """Run as a process with numpy's warnings shown, as a user sees them: a
    diverging train exits 1 with its named error and no RuntimeWarning."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-W", "default", "-m", "centpipe.cli", "train",
                           "--out", str(tmp_path / "t"), "--data", pipeline["data"],
                           "--learning-rate", "1e300", "--epochs", "2"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert "runtime failure: TrainingDiverged: non-finite loss at epoch 0" in proc.stderr
    assert "Warning" not in proc.stderr, proc.stderr


@pytest.mark.parametrize("seed", [2**63, 2**64 + 5])
def test_train_net_seed_beyond_the_checkpoint_field_exits_2(pipeline, tmp_path, monkeypatch,
                                                            seed):
    """The checkpoint stores the net seed as a signed 64-bit integer, so a
    larger one is refused before training rather than after it (exit 1)."""
    monkeypatch.setattr(net, "train", lambda *args, **kwargs: pytest.fail("trained"))
    code, out, err = run_cli(["train", "--out", str(tmp_path / "t"), "--data", pipeline["data"],
                              "--net-seed", str(seed)])
    assert code == 2 and out == "", err
    assert f"error: net seed {seed} is outside the signed 64-bit range" in err
    assert not os.listdir(tmp_path / "t")


@pytest.mark.parametrize("lr", ["nan", "inf"])
def test_train_non_finite_learning_rate_exits_2(pipeline, tmp_path, lr):
    """Refused by the config check, before any training step could diverge."""
    code, _, err = run_cli(["train", "--out", str(tmp_path / "t"),
                            "--data", pipeline["data"], "--learning-rate", lr])
    assert code == 2, err
    assert "learning_rate" in err and "runtime failure" not in err
    assert not (tmp_path / "t" / "checkpoint.ckpt").exists()


# --- extract ---

def test_extract_per_filter_width(pipeline):
    header = open(pipeline["features"]).read().splitlines()[0]
    cols = header.split(",")
    assert cols[:2] == ["image_id", "label"]
    assert len(cols) == 2 + 21


def test_extract_per_layer_width(pipeline, tmp_path):
    code, out, err = run_cli(["extract", "--out", str(tmp_path / "f"),
                              "--checkpoint", pipeline["ckpt"],
                              "--data", pipeline["data"], "--mode", "per-layer"])
    assert code == 0, err
    assert json.loads(out)["feature_count"] == 3


def test_extract_requires_exactly_one_source(pipeline, tmp_path):
    code, _, err = run_cli(["extract", "--out", str(tmp_path / "f")])
    assert code == 2
    code, _, err = run_cli(["extract", "--out", str(tmp_path / "f"),
                            "--checkpoint", pipeline["ckpt"],
                            "--data", pipeline["data"],
                            "--dump", pipeline["dump"]])
    assert code == 2
    assert "either" in err


def test_extract_from_dump_matches_checkpoint_source(pipeline, tmp_path):
    code, _, err = run_cli(["extract", "--out", str(tmp_path / "f"),
                            "--dump", pipeline["dump"]])
    assert code == 0, err
    from_dump = open(os.path.join(tmp_path, "f", "features.csv"), "rb").read()
    direct = open(pipeline["features"], "rb").read()
    assert from_dump == direct


def test_extract_non_finite_activation_exits_1(pipeline, tmp_path):
    """One NaN pixel spreads to the activations; the histogram refuses them
    by name (a runtime failure, exit 1) instead of emitting a 0-bit feature."""
    data = data_io.load_dataset(pipeline["data"])
    data.images[3, 0, 5, 5] = np.nan
    data_io.save_dataset(data, str(tmp_path / "nan_data"))
    code, out, err = run_cli(["extract", "--out", str(tmp_path / "f"),
                              "--checkpoint", pipeline["ckpt"],
                              "--data", str(tmp_path / "nan_data")])
    assert code == 1 and out == ""
    assert "runtime failure: NonFiniteError" in err and "NaN or infinite" in err
    assert "img_0003" in err and "read point 0, filter" in err
    assert not (tmp_path / "f" / "features.csv").exists()


def test_extract_cut_short_leaves_no_dump_manifest(pipeline, tmp_path):
    """The dump streams chunk by chunk with its manifest last: a run that
    fails after its first chunk removes the manifest of the dump it was
    overwriting, so no dump mixing two runs' tensors can be imported."""
    data = data_io.load_dataset(pipeline["data"])
    data.images[-1, 0, 5, 5] = np.nan  # in the second chunk
    data_io.save_dataset(data, str(tmp_path / "nan_data"))
    dump = tmp_path / "dump"
    code, _, err = run_cli(["extract", "--out", str(tmp_path / "f"), "--checkpoint",
                            pipeline["ckpt"], "--data", pipeline["data"], "--dump-out", str(dump)])
    assert code == 0, err
    code, _, err = run_cli(["extract", "--out", str(tmp_path / "f"), "--checkpoint",
                            pipeline["ckpt"], "--data", str(tmp_path / "nan_data"),
                            "--dump-out", str(dump)])
    assert code == 1 and "img_0019" in err
    assert not (dump / "manifest.csv").exists()
    with pytest.raises(FileNotFoundError):
        data_io.import_activation_dump(str(dump))


@pytest.mark.parametrize("flag", [["--dump-out", "E"], ["--pre-relu"]])
def test_extract_from_dump_rejects_flags_it_would_ignore(pipeline, tmp_path, flag):
    """--dump reads finished activations: a second dump or a pre-ReLU read
    would silently do nothing, so both are refused by name (exit 2)."""
    flag = [str(tmp_path / a) if a == "E" else a for a in flag]
    code, out, err = run_cli(["extract", "--out", str(tmp_path / "f"),
                              "--dump", pipeline["dump"], *flag])
    assert code == 2 and out == ""
    assert f"error: {flag[0]}" in err
    assert not (tmp_path / "E").exists() and not (tmp_path / "f" / "features.csv").exists()


@pytest.mark.parametrize("dump_out", [False, True])
def test_extract_runs_one_forward_pass_per_chunk(pipeline, tmp_path, monkeypatch, dump_out):
    """Features and --dump-out come from one forward_collect chunk loop:
    ceil(n / chunk) _forward_layers calls carrying each image once (2 for the
    20-image set), with the dump's bytes those of the pipeline fixture's dump.
    forward_passes counts the images sent through the network, chunks the
    calls. The calls are counted in this process, so it runs them all."""
    use_cpus(monkeypatch, 1)
    calls, collected = [], []
    forward = net._forward_layers
    monkeypatch.setattr(net, "_forward_layers", lambda nw, x, *rest: calls.append(len(x)) or forward(nw, x, *rest))
    collect = infotheory.forward_collect  # the binding the benchmark's tracer wraps
    monkeypatch.setattr(infotheory, "forward_collect",
                        lambda nw, x, **kw: collected.append(len(x)) or collect(nw, x, **kw))
    extra = ["--dump-out", str(tmp_path / "dump")] if dump_out else []
    code, out, err = run_cli(["extract", "--out", str(tmp_path / "f"), "--checkpoint",
                              pipeline["ckpt"], "--data", pipeline["data"], *extra])
    assert code == 0, err
    n = len(data_io.load_dataset(pipeline["data"]).images)
    network = net.load_checkpoint(pipeline["ckpt"])
    chunk = net._chunk_size([network.input_shape] + network.layer_shapes)
    assert calls == collected == [chunk] * (n // chunk) + [n % chunk] * (n % chunk > 0)
    assert len(calls) == 2
    assert json.loads(out)["counters"] == {"forward_passes": n, "chunks": 2, "images": n,
                                           "histogram_rows": n * 21, "workers": 1}
    assert (tmp_path / "f" / "features.csv").read_bytes() == open(pipeline["features"], "rb").read()
    if dump_out:
        assert _tree_bytes(tmp_path / "dump") == _tree_bytes(pipeline["dump"])


def test_extract_keeps_one_workspace_for_its_chunks(pipeline, tmp_path, monkeypatch):
    """A one-process extract over the 2 chunks of the 20-image set makes one
    ops.Workspace, which every chunk's forward pass shares, and writes the
    pipeline fixture's features."""
    use_cpus(monkeypatch, 1)
    made = []

    class Counted(ops.Workspace):
        def __init__(self):
            made.append(self)
            super().__init__()

    monkeypatch.setattr(ops, "Workspace", Counted)
    code, out, err = run_cli(["extract", "--out", str(tmp_path / "f"), "--checkpoint",
                              pipeline["ckpt"], "--data", pipeline["data"]])
    assert code == 0, err
    assert json.loads(out)["counters"]["chunks"] == 2
    assert len(made) == 1
    assert (tmp_path / "f" / "features.csv").read_bytes() == open(pipeline["features"], "rb").read()


def _tree_bytes(root) -> dict:
    return {os.path.relpath(os.path.join(d, f), root): open(os.path.join(d, f), "rb").read()
            for d, _, files in os.walk(root) for f in files}


@pytest.mark.parametrize("dump_out", [False, True])
def test_extract_bytes_do_not_depend_on_the_worker_count(pipeline, tmp_path, monkeypatch,
                                                         dump_out):
    """In chunks of 3 (7 for the 20 images), run in 1, 2 or 3 processes,
    extract writes the pipeline fixture's features and dump, and reports the
    processes on stdout only."""
    monkeypatch.setattr(net, "_chunk_size", lambda shapes: 3)
    for cpus in (1, 2, 3):
        use_cpus(monkeypatch, cpus, every_map=True)
        extra = ["--dump-out", str(tmp_path / f"dump{cpus}")] if dump_out else []
        code, out, err = run_cli(["extract", "--out", str(tmp_path / "f"), "--checkpoint",
                                  pipeline["ckpt"], "--data", pipeline["data"], *extra])
        assert code == 0, err
        counters = json.loads(out)["counters"]
        assert counters["chunks"] == 7 and counters["workers"] == cpus
        assert ((tmp_path / "f" / "features.csv").read_bytes()
                == open(pipeline["features"], "rb").read())
        if dump_out:
            assert _tree_bytes(tmp_path / f"dump{cpus}") == _tree_bytes(pipeline["dump"])
        assert_no_child_left()


def test_extract_dump_chunks_are_written_where_they_were_computed(pipeline, tmp_path,
                                                                  monkeypatch):
    """In chunks of 3 (7 for the 20 images) over 2 processes, each process
    writes the dump files of the chunks it computed, so both write; the dump
    is the pipeline fixture's."""
    monkeypatch.setattr(net, "_chunk_size", lambda shapes: 3)
    use_cpus(monkeypatch, 2, every_map=True)
    writers = tmp_path / "writers"
    write = data_io.ActivationDumpWriter.write_chunk

    def logged(self, image_ids, activations):
        with open(writers, "a") as f:
            f.write(f"{os.getpid()}\n")
        write(self, image_ids, activations)

    monkeypatch.setattr(data_io.ActivationDumpWriter, "write_chunk", logged)
    code, out, err = run_cli(["extract", "--out", str(tmp_path / "f"), "--checkpoint",
                              pipeline["ckpt"], "--data", pipeline["data"],
                              "--dump-out", str(tmp_path / "dump")])
    assert code == 0, err
    assert json.loads(out)["counters"]["workers"] == 2
    pids = writers.read_text().split()
    assert len(pids) == 7 and str(os.getpid()) in pids and len(set(pids)) == 2
    assert _tree_bytes(tmp_path / "dump") == _tree_bytes(pipeline["dump"])
    assert_no_child_left()


def test_extract_from_dump_runs_in_one_process(pipeline, tmp_path, monkeypatch):
    """A dump's chunks, cut by the network's chunk rule, run no forward
    pass, so they are not forked, even where every map large enough would
    be."""
    monkeypatch.setattr(net, "_chunk_size", lambda shapes: 3)
    use_cpus(monkeypatch, 3, every_map=True)
    code, out, err = run_cli(["extract", "--out", str(tmp_path / "f"),
                              "--dump", pipeline["dump"]])
    assert code == 0, err
    counters = json.loads(out)["counters"]
    assert counters["workers"] == 1 and counters["chunks"] == 7
    assert ((tmp_path / "f" / "features.csv").read_bytes()
            == open(pipeline["features"], "rb").read())


def test_extract_from_dump_refuses_another_shape_in_its_last_chunk(pipeline, tmp_path,
                                                                    monkeypatch):
    """A dump's tensors are read chunk by chunk: an image of another shape
    in the last of 7 chunks exits 2 naming it, once the earlier chunks were
    read, and no features.csv is written."""
    dump = tmp_path / "dump"
    shutil.copytree(pipeline["dump"], dump)
    data_io.save_tensor(dump / "activations" / "img_0019" / "layer_01.tnsr",
                        np.zeros((10, 4, 4), np.float32))
    monkeypatch.setattr(net, "_chunk_size", lambda shapes: 3)
    read, stack = [], data_io.stack_tensors
    monkeypatch.setattr(data_io, "stack_tensors",
                        lambda ids, *rest: read.append(len(ids)) or stack(ids, *rest))
    code, out, err = run_cli(["extract", "--out", str(tmp_path / "f"), "--dump", str(dump)])
    assert code == 2 and out == "" and "image 'img_0019' has shape (10, 4, 4)" in err, err
    assert read == [1, 3, 3, 3, 3, 3, 3, 2]
    assert not (tmp_path / "f" / "features.csv").exists()


def test_theory_report_does_not_depend_on_the_worker_count(pipeline, theory_report,
                                                           tmp_path, monkeypatch):
    """forward_collect in chunks of 3, run in 1, 2 or 3 processes, gives the
    report of one process in chunks of 12."""
    _, out_dir = theory_report
    first = (out_dir / "theory_report.json").read_bytes()
    monkeypatch.setattr(net, "_chunk_size", lambda shapes: 3)
    for cpus in (1, 2, 3):
        use_cpus(monkeypatch, cpus, every_map=True)
        code, out, err = run_cli(["theory", "--out", str(out_dir), "--checkpoint",
                                  pipeline["ckpt"], "--data", pipeline["data"],
                                  "--chain-n", "20000"])
        assert code == 0, err
        assert json.loads(out)["counters"]["workers"] == cpus
        assert (out_dir / "theory_report.json").read_bytes() == first
        assert_no_child_left()


def test_extract_dump_matches_one_whole_dataset_pass(pipeline, tmp_path):
    """The dump extract --dump-out writes from its own chunks holds, file for
    file and byte for byte, one whole-dataset forward_collect pass written
    image by image, and its manifest."""
    data = data_io.load_dataset(pipeline["data"])
    acts = net.forward_collect(net.load_checkpoint(pipeline["ckpt"]), data.images)
    write_reference_dump(data, acts, tmp_path / "dump")
    written = _tree_bytes(pipeline["dump"])
    assert written == _tree_bytes(tmp_path / "dump")
    assert len(written) == 1 + 20 * 3


def test_extract_summary_reports_sizes_counters_and_timings(pipeline, tmp_path):
    """Samples per bin and the entropy cap per read point (desk2d's second
    read point: 64 values per filter at 256 bins, capped at 6 bits), counts
    and stage seconds go to stdout only."""
    code, out, err = run_cli(["extract", "--out", str(tmp_path / "f"),
                              "--dump", pipeline["dump"], "--mode", "per-layer"])
    assert code == 0, err
    summary = json.loads(out)
    points = summary["read_points"]
    assert [p["shape"] for p in points] == [[10, 16, 16], [10, 8, 8], [128]]
    assert [p["values_per_histogram"] for p in points] == [2560, 640, 128]
    assert [p["entropy_cap_bits"] for p in points] == [8.0, 8.0, 7.0]
    assert points[2]["samples_per_bin"] == 0.5
    assert summary["counters"] == {"forward_passes": 0, "chunks": 1, "images": 20,
                                   "histogram_rows": 60, "workers": 1}
    assert set(summary["timings"]) == {"forward_s", "cent_s", "write_s"}
    code, out, err = run_cli(["extract", "--out", str(tmp_path / "g"), "--checkpoint",
                              pipeline["ckpt"], "--data", pipeline["data"]])
    assert json.loads(out)["read_points"][1]["entropy_cap_bits"] == 6.0
    features = (tmp_path / "f" / "features.csv").read_text()
    assert "timings" not in features and "read_point" not in features


def test_extract_corrupt_checkpoint_exits_1(pipeline, tmp_path):
    bad = tmp_path / "bad.ckpt"
    raw = open(pipeline["ckpt"], "rb").read()
    bad.write_bytes(raw[:len(raw) // 2])
    code, _, err = run_cli(["extract", "--out", str(tmp_path / "f"),
                            "--checkpoint", str(bad), "--data", pipeline["data"]])
    assert code == 1
    assert "truncated" in err


def _write_edited_checkpoint(path, network, edit):
    """network's checkpoint with edit(header, tensors) applied to its layer
    table and tensor list first, framed with a valid CRC."""
    header = {"input_shape": list(network.input_shape),
              "specs": [spec.to_dict() for spec in network.specs]}
    tensors = [a for par in network.params if par is not None for a in par]
    edit(header, tensors)
    blob = json.dumps(header, sort_keys=True).encode()
    body = [framing.i64(network.seed), framing.u32(len(blob)), blob, framing.u32(len(tensors))]
    for tensor in tensors:
        body += framing.tensor_record(tensor)
    framing.write_framed(path, net.CHECKPOINT_MAGIC, net.CHECKPOINT_VERSION, body)


# desk2d's layers: conv, relu, maxpool (2), conv, relu, maxpool, fully_connected (6), softmax
_BAD_TABLES = {
    "pool stride 0": (lambda h, t: h["specs"][2].update(stride=[0, 0]), "corrupt layer table"),
    "pool window 0": (lambda h, t: h["specs"][2].update(window=[0, 0]), "corrupt layer table"),
    "pool padding bogus": (lambda h, t: h["specs"][2].update(padding="bogus"),
                           "corrupt layer table"),
    "conv after the fc layer": (lambda h, t: h["specs"].insert(7, h["specs"][0]),
                                "corrupt layer table"),
    "weights of the wrong shape": (lambda h, t: t.__setitem__(0, np.zeros((10, 1, 2, 3),
                                                                          np.float32)),
                                   "do not match the layer table"),
    "fc width -3": (lambda h, t: next(d for d in h["specs"] if d["kind"] == "fully_connected")
                    .update(width=-3), "corrupt layer table"),
    "one tensor too few": (lambda h, t: t.pop(), "do not match the layer table"),
    "one tensor too many": (lambda h, t: t.append(t[-1]), "do not match the layer table"),
}


@pytest.mark.parametrize("case", list(_BAD_TABLES))
def test_checkpoint_whose_table_cannot_build_the_network_exits_1(pipeline, tmp_path,
                                                                 monkeypatch, case):
    """A checkpoint with a valid CRC whose layer table or tensors cannot make
    the network is a CheckpointError naming the file, raised by
    load_checkpoint; extract and theory exit 1 with it before --data is
    read, with no traceback and nothing on stdout."""
    edit, message = _BAD_TABLES[case]
    path = tmp_path / "bad.ckpt"
    _write_edited_checkpoint(path, net.build_desk_2d(32, 2, seed=4), edit)
    with pytest.raises(net.CheckpointError, match=f"^{re.escape(str(path))}: .*{message}"):
        net.load_checkpoint(path)
    loads = []
    monkeypatch.setattr(data_io, "load_dataset", lambda *a: loads.append(a))
    for command in ("extract", "theory"):
        code, out, err = run_cli([command, "--out", str(tmp_path / command), "--checkpoint",
                                  str(path), "--data", pipeline["data"]])
        assert code == 1 and out == "", err
        assert f"runtime failure: FramedFileError: {path}: " in err and message in err
        assert "Traceback" not in err
    assert loads == []


def test_invalid_choice_exits_2(pipeline, tmp_path):
    with pytest.raises(SystemExit) as e:
        run_cli(["extract", "--out", str(tmp_path / "f"),
                 "--checkpoint", pipeline["ckpt"], "--data", pipeline["data"],
                 "--mode", "per-pixel"])
    assert e.value.code == 2


# --- evaluate / permute ---

@pytest.fixture(scope="module")
def leak_features(tmp_path_factory):
    """Features where feat_0 equals the label: AUC must be exactly 1."""
    path = tmp_path_factory.mktemp("leak") / "features.csv"
    rng = np.random.default_rng(0)
    labels = np.array([0, 1] * 15)
    matrix = np.column_stack([labels.astype(float), rng.normal(size=30)])
    ids = tuple(f"img_{i:04d}" for i in range(30))
    data_io.write_features_csv(path, ids, labels, matrix)
    return str(path)


def test_evaluate_label_leak(leak_features, tmp_path):
    out_dir = str(tmp_path / "eval")
    code, out, err = run_cli(["evaluate", "--out", out_dir,
                              "--features", leak_features,
                              "--tree-count", "10"])
    assert code == 0, err
    summary = json.loads(out)
    assert summary["mean_auc"] == 1.0
    for name in ["metrics.csv", "roc_pooled.csv"] + [f"roc_fold_{i}.csv" for i in range(5)]:
        assert os.path.exists(os.path.join(out_dir, name)), name


def test_evaluate_missing_features_exits_2(tmp_path):
    code, _, err = run_cli(["evaluate", "--out", str(tmp_path / "e")])
    assert code == 2
    assert "features" in err


def test_evaluate_rejects_multiclass(tmp_path):
    path = tmp_path / "f.csv"
    labels = np.array([0, 1, 2] * 5)
    data_io.write_features_csv(path, tuple(f"i{i}" for i in range(15)), labels,
                               np.zeros((15, 2)))
    code, _, err = run_cli(["evaluate", "--out", str(tmp_path / "e"),
                            "--features", str(path)])
    assert code == 2
    assert "error: evaluation requires binary 0/1 labels, got classes [0, 1, 2]" in err


# int() and float() take these, but the writers never spell a label or a
# value so: digit-group underscores, a space, a sign, a non-ASCII digit
LOOSE_LABELS = ["0_1", " 1", "+1", "\u0661"]
LOOSE_VALUES = ["1_0.5", " 0.5", "+0.5", "\u0661.5"]


@pytest.mark.parametrize("row,bad", [
    ("img_0001,x,0.5", "'x'"), ("img_0001,1,0.5x", "'0.5x'"),
    ("img_0001,1", "row width 2 != header width 3"),
    *((f"img_0001,{label},0.5", f"label {label!r} is not written as '1'")
      for label in LOOSE_LABELS),
    *((f"img_0001,1,{value}", f"value {value!r} is not written as") for value in LOOSE_VALUES)])
def test_unparsable_features_row_exits_2_naming_file_and_line(tmp_path, row, bad):
    """A label or value that does not parse, or is not spelled as the writer
    spells what it parses to, or a row of another width, is named with its
    file and its line, counted with the blank lines the reader skips."""
    path = tmp_path / "features.csv"
    path.write_text(f"image_id,label,feat_0\nimg_0000,0,0.25\n\n{row}\n")
    code, out, err = run_cli(["evaluate", "--out", str(tmp_path / "e"), "--features", str(path)])
    assert code == 2 and out == ""
    assert f"error: {path}, line 4: " in err and bad in err


@pytest.mark.parametrize("label,bad", [
    ("x", "'x'"), ("7", "label 7 outside class table of 2"),
    *((label, f"label {label!r} is not written as '1'") for label in LOOSE_LABELS)])
def test_unparsable_manifest_label_exits_2_naming_file_and_line(tmp_path, label, bad):
    data = tmp_path / "data"
    data_io.save_dataset(small_dataset(per_class=2, extent=8, seed=3), str(data))
    manifest = data / "manifest.csv"
    lines = manifest.read_text().splitlines(keepends=True)
    lines[3] = lines[3][:lines[3].rindex(",")] + f",{label}\n"
    manifest.write_text("".join(lines))
    code, out, err = run_cli(["train", "--out", str(tmp_path / "net"), "--data", str(data)])
    assert code == 2 and out == ""
    assert f"error: {manifest}, line 4: " in err and bad in err


@pytest.mark.parametrize("command", ["evaluate", "permute"])
def test_repeated_image_id_exits_2_naming_it(tmp_path, command):
    """A repeated id could put one image in a training fold and a test fold.
    write_features_csv refuses to write one, so the file is written by hand."""
    path = tmp_path / "features.csv"
    path.write_text("".join(["image_id,label,feat_0,feat_1\n"] + [
        f"img_{i % 20:04d},{i % 2},0.0,0.0\n" for i in range(40)]))
    code, out, err = run_cli([command, "--out", str(tmp_path / "e"), "--features", str(path),
                              "--tree-count", "5"])
    assert code == 2 and out == ""
    assert f"{path}: duplicate image_id 'img_0000'" in err


@pytest.mark.parametrize("command", ["evaluate", "permute"])
@pytest.mark.parametrize("bad_id", ["x" * 250, "", ".", ".."])
def test_image_id_the_writer_refuses_exits_2(tmp_path, command, bad_id):
    """The features CSV reader refuses what write_features_csv refuses: an
    id longer than data_io.MAX_ID_BYTES, an empty one, '.' or '..'. The
    file is written by hand, with the bad id first."""
    path = tmp_path / "features.csv"
    path.write_text("".join(["image_id,label,feat_0\n"] + [
        f"{bad_id if i == 0 else f'img_{i}'},{i % 2},{i}.0\n" for i in range(20)]))
    code, out, err = run_cli([command, "--out", str(tmp_path / "e"), "--features", str(path),
                              "--tree-count", "5"])
    assert code == 2 and out == ""
    assert f"error: {path}: image_id {bad_id!r}" in err
    assert not (tmp_path / "e" / "metrics.csv").exists()


@pytest.mark.parametrize("command", ["evaluate", "permute"])
def test_non_finite_feature_exits_1_naming_the_file_row(tmp_path, command):
    """The forest checks the whole features matrix once, so the error names
    the row of the features CSV, not a position inside a fold's split."""
    path = tmp_path / "features.csv"
    rng = np.random.default_rng(1)
    matrix = rng.normal(size=(30, 3))
    matrix[7, 2] = np.nan
    data_io.write_features_csv(path, tuple(f"img_{i:04d}" for i in range(30)),
                               np.array([0, 1] * 15), matrix)
    code, out, err = run_cli([command, "--out", str(tmp_path / "e"), "--features", str(path),
                              "--tree-count", "5"])
    assert code == 1 and out == ""
    assert "runtime failure: NonFiniteError" in err and "row 7, column 2" in err
    assert not (tmp_path / "e" / "metrics.csv").exists()


@pytest.mark.parametrize("command", ["evaluate", "permute"])
def test_evaluate_summary_reports_counters_and_timings(leak_features, tmp_path, command,
                                                      monkeypatch):
    use_cpus(monkeypatch, 2, every_map=True)
    out_dir = tmp_path / "e"
    code, out, err = run_cli([command, "--out", str(out_dir), "--features", leak_features,
                              "--tree-count", "7", "--k", "3"])
    assert code == 0, err
    summary = json.loads(out)
    counters = summary["counters"]
    assert counters["trees_grown"] == 21 and counters["rows_predicted"] == 30
    assert counters["tree_nodes"] >= 21
    assert counters["fit_workers"] == 2
    assert set(summary["timings"]) == {"cross_validate_s", "write_s"}
    assert all(v >= 0 for v in summary["timings"].values())
    for path in out_dir.iterdir():  # metrics.csv and the ROC files
        text = path.read_text()
        assert not any(key in text for key in (*counters, *summary["timings"]))


@pytest.mark.parametrize("command", ["evaluate", "permute"])
def test_split_elements_counts_what_the_split_passes_score(leak_features, tmp_path, command,
                                                           monkeypatch):
    """split_elements sums the (node, candidate, distinct row) elements that
    every split pass of the fit scored, as a wrapper of forest._best_splits
    counts them in one process, and reads the same in 2 and 3 processes."""
    scored, elements = count_split_elements(monkeypatch), {}
    for cpus in (1, 2, 3):
        use_cpus(monkeypatch, cpus, every_map=True)
        code, out, err = run_cli([command, "--out", str(tmp_path / f"e{cpus}"), "--features",
                                  leak_features, "--tree-count", "7", "--k", "3"])
        assert code == 0, err
        counters = json.loads(out)["counters"]
        assert counters["fit_workers"] == cpus
        elements[cpus] = counters["split_elements"]
        if cpus == 1:
            in_one = sum(scored)  # later runs score part of their trees in other processes
    assert elements[1] == elements[2] == elements[3] == in_one > 0


def test_extract_takes_no_seed(pipeline, tmp_path):
    """extract draws nothing at random, so it has no --seed to take."""
    with pytest.raises(SystemExit) as e:
        run_cli(["extract", "--out", str(tmp_path / "f"), "--checkpoint", pipeline["ckpt"],
                 "--data", pipeline["data"], "--seed", "1"])
    assert e.value.code == 2


def test_permute_records_seed(leak_features, tmp_path):
    out_dir = str(tmp_path / "perm")
    code, out, err = run_cli(["permute", "--out", out_dir,
                              "--features", leak_features,
                              "--tree-count", "10", "--perm-seed", "4"])
    assert code == 0, err
    first = open(os.path.join(out_dir, "metrics.csv")).read().splitlines()[0]
    assert first == "# permutation_seed: 4"
    assert json.loads(out)["perm_seed"] == 4


def test_permute_identity_matches_evaluate(leak_features, tmp_path):
    eval_dir, perm_dir = str(tmp_path / "e"), str(tmp_path / "p")
    code, _, _ = run_cli(["evaluate", "--out", eval_dir,
                          "--features", leak_features, "--tree-count", "10"])
    assert code == 0
    code, _, _ = run_cli(["permute", "--out", perm_dir,
                          "--features", leak_features, "--tree-count", "10"])
    assert code == 0
    for name in ["metrics.csv", "roc_pooled.csv", "roc_fold_0.csv"]:
        a = open(os.path.join(eval_dir, name), "rb").read()
        b = open(os.path.join(perm_dir, name), "rb").read()
        assert a == b, name


def test_permute_roc_files_use_the_shuffled_labels(leak_features, tmp_path):
    """Each fold's ROC file ranks the scores against the shuffled labels that
    metrics.csv was scored on, so its area is that fold's AUC."""
    out_dir = tmp_path / "p"
    code, out, err = run_cli(["permute", "--out", str(out_dir), "--features", leak_features,
                              "--tree-count", "10", "--perm-seed", "3"])
    assert code == 0, err
    for i, fold_auc in enumerate(json.loads(out)["per_fold_auc"]):
        roc = np.loadtxt(out_dir / f"roc_fold_{i}.csv", delimiter=",", skiprows=1)
        assert abs(np.trapezoid(roc[:, 2], roc[:, 1]) - fold_auc) < 1e-12


def test_permute_shuffles_before_folding(leak_features, tmp_path):
    # a permuted leak column scores near chance, not near 1
    code, out, err = run_cli(["permute", "--out", str(tmp_path / "p"),
                              "--features", leak_features,
                              "--tree-count", "20", "--perm-seed", "1"])
    assert code == 0, err
    assert json.loads(out)["mean_auc"] < 0.9


# --- theory ---

@pytest.fixture(scope="module")
def theory_report(tmp_path_factory, pipeline):
    out_dir = tmp_path_factory.mktemp("theory")
    code, out, err = run_cli(["theory", "--out", str(out_dir),
                              "--checkpoint", pipeline["ckpt"], "--data", pipeline["data"],
                              "--chain-n", "20000"])
    assert code == 0, err
    report = json.load(open(out_dir / "theory_report.json"))
    return report, out_dir


def test_theory_report_schema(theory_report):
    report, _ = theory_report
    assert set(report) >= {"conditioning", "partition", "dpi", "config"}
    for entry in report["conditioning"]:
        assert set(entry) == {"layer", "expected_cent", "pooled_entropy", "reduced"}
        assert np.isfinite(entry["expected_cent"]) and np.isfinite(entry["pooled_entropy"])
    part = report["partition"]
    assert part["decomposition_residual"] < 1e-9
    assert abs(part["p_informative"] + part["p_uninformative"] - 1.0) < 1e-12
    assert isinstance(part["inequality_holds"], bool)
    dpi = report["dpi"]
    assert dpi["holds"] is True
    assert dpi["i_yc"] <= dpi["i_xc"] + dpi["slack"]
    # what the checks read: the pipeline's 10 images per class
    assert report["images"] == 20
    assert report["images_per_class"] == {"class_0": 10, "class_1": 10}


def test_theory_conditioning_never_increases(theory_report):
    report, _ = theory_report
    for entry in report["conditioning"]:
        assert entry["expected_cent"] <= entry["pooled_entropy"] + 1e-9


def test_theory_rerun_byte_identical(theory_report, pipeline):
    report, out_dir = theory_report
    first = open(out_dir / "theory_report.json", "rb").read()
    code, out, err = run_cli(["theory", "--out", str(out_dir),
                              "--checkpoint", pipeline["ckpt"], "--data", pipeline["data"],
                              "--chain-n", "20000"])
    assert code == 0, err
    assert open(out_dir / "theory_report.json", "rb").read() == first
    # counters and times reach stdout only, never the compared report
    summary = json.loads(out)
    assert summary["counters"] == {"images": 20, "forward_passes": 20, "histogram_tables": 20,
                                   "workers": 1}
    assert set(summary["timings"]) == {"forward_s", "checks_s", "dpi_s", "write_s"}
    assert all(v >= 0 for v in summary["timings"].values())
    # the checked read points (the two conv blocks; partition layer 0): a
    # class's histogram of one filter holds 10 images' values of it
    points = summary["read_points"]
    assert [(p["read_point"], p["shape"], p["filters"]) for p in points] == [
        (0, [10, 16, 16], 10), (1, [10, 8, 8], 10)]
    assert points[0]["classes"]["class_0"] == {
        "values_per_histogram": 2560, "samples_per_bin": 10.0, "entropy_cap_bits": 8.0}
    assert points[1]["classes"]["class_1"]["samples_per_bin"] == 2.5
    assert not {"counters", "timings", "report", "read_points"} & set(report)


def test_theory_runs_one_forward_pass_over_the_dataset(tmp_path, pipeline, monkeypatch):
    """Every check reads one forward_collect call: one _forward_layers call per
    chunk of the dataset, none per image, layer, measure or filter. The calls
    are counted in this process, so it runs them all."""
    use_cpus(monkeypatch, 1)
    calls = []
    forward = net._forward_layers
    monkeypatch.setattr(net, "_forward_layers", lambda nw, x, *rest: calls.append(len(x)) or forward(nw, x, *rest))
    code, _, err = run_cli(["theory", "--out", str(tmp_path / "t"), "--checkpoint", pipeline["ckpt"],
                            "--data", pipeline["data"], "--chain-n", "20000"])
    assert code == 0, err
    n = len(data_io.load_dataset(pipeline["data"]).images)
    network = net.load_checkpoint(pipeline["ckpt"])
    chunk = net._chunk_size([network.input_shape] + network.layer_shapes)
    assert len(calls) == -(-n // chunk) and sum(calls) == n


def test_theory_non_finite_pixel_exits_1(pipeline, tmp_path):
    """A NaN pixel gives NaN activations; the shared histogram range refuses
    them by name (exit 1) rather than as a bad range (exit 2)."""
    data = data_io.load_dataset(pipeline["data"])
    data.images[3, 0, 5, 5] = np.nan
    data_io.save_dataset(data, str(tmp_path / "nan_data"))
    code, out, err = run_cli(["theory", "--out", str(tmp_path / "t"),
                              "--checkpoint", pipeline["ckpt"],
                              "--data", str(tmp_path / "nan_data"), "--chain-n", "2000"])
    assert code == 1 and out == ""
    assert "runtime failure: NonFiniteError" in err and "NaN or infinite" in err
    assert not (tmp_path / "t" / "theory_report.json").exists()


def test_theory_partial_inputs_exit_2(tmp_path, pipeline):
    code, _, err = run_cli(["theory", "--out", str(tmp_path / "t"),
                            "--checkpoint", pipeline["ckpt"]])
    assert code == 2
    assert "both" in err


@pytest.mark.parametrize("with_data", [False, True])
def test_theory_needs_checkpoint_and_data(tmp_path, pipeline, with_data):
    """theory trains nothing: without a checkpoint and a dataset it has no subject."""
    given = ["--data", pipeline["data"]] if with_data else []
    code, _, err = run_cli(["theory", "--out", str(tmp_path / "t"), *given])
    assert code == 2
    assert "--checkpoint" in err and "--data" in err


@pytest.mark.parametrize("flag", ["--per-class", "--epochs", "--seed"])
def test_theory_takes_no_training_options(tmp_path, pipeline, flag):
    with pytest.raises(SystemExit) as e:
        run_cli(["theory", "--out", str(tmp_path / "t"), "--checkpoint", pipeline["ckpt"],
                 "--data", pipeline["data"], flag, "5"])
    assert e.value.code == 2


def test_theory_partition_at_the_fully_connected_read_point(tmp_path, pipeline):
    """Read point 2 of the desk net is the fully connected layer: one pooled
    value per image, so the only filter is 0."""
    out_dir = tmp_path / "t"
    code, _, err = run_cli(["theory", "--out", str(out_dir), "--checkpoint", pipeline["ckpt"],
                            "--data", pipeline["data"], "--chain-n", "20000",
                            "--partition-layer", "2"])
    assert code == 0, err
    part = json.load(open(out_dir / "theory_report.json"))["partition"]
    assert part["layer"] == 2 and part["filter"] == 0
    assert part["decomposition_residual"] < 1e-9


@pytest.mark.parametrize("flag,value,named", [
    ("--bins", "1", "bin_count"), ("--bins", "0", "bin_count"), ("--bins", "131073", "bin_count"),
    ("--slack", "nan", "slack"), ("--slack", "inf", "slack"), ("--slack", "-inf", "slack"),
    ("--slack", "-0.5", "slack"),
    ("--chain-n", "0", "n"), ("--noise-levels", "0", "noise_levels"),
    ("--quantizer-levels", "0", "quantizer_levels"), ("--chain-classes", "1", "classes"),
])
def test_theory_bad_bins_or_slack_exits_2_without_a_report(tmp_path, pipeline, monkeypatch,
                                                           flag, value, named):
    passes, real = [], net.forward_collect
    monkeypatch.setattr(net, "forward_collect",
                        lambda *args, **kwargs: passes.append(1) or real(*args, **kwargs))
    code, out, err = run_cli(["theory", "--out", str(tmp_path / "t"),
                              "--checkpoint", pipeline["ckpt"], "--data", pipeline["data"],
                              "--chain-n", "2000", f"{flag}={value}"])
    assert code == 2 and out == ""
    assert f"error: {named} must be" in err
    assert not (tmp_path / "t" / "theory_report.json").exists()
    assert passes == []  # refused before the forward pass


@pytest.mark.parametrize("key", ["checkpoint", "data"])
def test_theory_wrong_input_exits_2_before_the_dpi_check(tmp_path, pipeline, monkeypatch, key):
    """The DPI check runs once the inputs are read: a missing --checkpoint
    or --data exits 2 naming it, not the bad chain option also given, and
    no chain is checked."""
    checks = []
    monkeypatch.setattr(infotheory, "dpi_check", lambda *args, **kwargs: checks.append(args))
    inputs = {"checkpoint": pipeline["ckpt"], "data": pipeline["data"]}
    inputs[key] = str(tmp_path / "missing")
    code, out, err = run_cli(["theory", "--out", str(tmp_path / "t"), "--chain-n", "0",
                              *(a for k, v in inputs.items() for a in (f"--{k}", v))])
    assert code == 2 and out == "", err
    assert inputs[key] in err.splitlines()[-1] and "n must be" not in err
    assert checks == []


def test_theory_one_class_dataset_exits_2_before_the_forward_pass(tmp_path, pipeline,
                                                                  monkeypatch):
    """A dataset whose images all hold one class gives the checks nothing to
    compare: it exits 2 naming the dataset and the class, before the DPI
    check and the forward pass."""
    calls, real = [], net.forward_collect
    monkeypatch.setattr(net, "forward_collect",
                        lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    monkeypatch.setattr(infotheory, "dpi_check", lambda *args, **kwargs: calls.append(2))
    data = data_io.load_dataset(pipeline["data"])
    one = data.labels == 1
    path = str(tmp_path / "one")
    data_io.save_dataset(data_io.LabeledDataset(data.images[one], data.labels[one],
                                                data.class_names), path)
    code, out, err = run_cli(["theory", "--out", str(tmp_path / "t"),
                              "--checkpoint", pipeline["ckpt"], "--data", path])
    assert code == 2 and out == "", err
    assert f"error: {path} holds one class, {data.class_names[1]!r}" in err
    assert calls == [] and not (tmp_path / "t" / "theory_report.json").exists()


def test_theory_class_without_images_has_empty_histograms(tmp_path, pipeline):
    """A class the dataset names but holds no image of is checked with the
    others: each of its histograms holds no value, capped at 0 bits."""
    data = data_io.load_dataset(pipeline["data"])
    path = str(tmp_path / "gap")
    data_io.save_dataset(data_io.LabeledDataset(data.images, data.labels,
                                                (*data.class_names, "unseen")), path)
    code, out, err = run_cli(["theory", "--out", str(tmp_path / "t"), "--checkpoint",
                              pipeline["ckpt"], "--data", path, "--chain-n", "2000"])
    assert code == 0, err
    summary = json.loads(out)
    assert summary["images_per_class"]["unseen"] == 0
    assert [p["classes"]["unseen"] for p in summary["read_points"]] == [
        {"values_per_histogram": 0, "samples_per_bin": 0.0, "entropy_cap_bits": 0.0}] * 2


@pytest.mark.parametrize("layer", ["3", "5", "-1"])
def test_theory_partition_layer_out_of_range_exits_2(tmp_path, pipeline, layer):
    code, _, err = run_cli(["theory", "--out", str(tmp_path / "t"),
                            "--checkpoint", pipeline["ckpt"], "--data", pipeline["data"],
                            "--partition-layer", layer])
    assert code == 2, err
    assert f"partition_layer {layer} out of range" in err
    assert "read points 0..2" in err


@pytest.mark.parametrize("layer,filter_id,filters", [("0", "99", 10), ("0", "-1", 10),
                                                     ("2", "3", 1)])
def test_theory_partition_filter_out_of_range_exits_2_before_the_forward_pass(
        tmp_path, pipeline, monkeypatch, layer, filter_id, filters):
    passes, real = [], net.forward_collect
    monkeypatch.setattr(net, "forward_collect",
                        lambda *args, **kwargs: passes.append(1) or real(*args, **kwargs))
    code, out, err = run_cli(["theory", "--out", str(tmp_path / "t"),
                              "--checkpoint", pipeline["ckpt"], "--data", pipeline["data"],
                              "--chain-n", "2000", "--partition-layer", layer,
                              f"--partition-filter={filter_id}"])
    assert code == 2 and out == ""
    assert f"error: partition_filter {filter_id} out of range (layer has {filters})" in err
    assert not (tmp_path / "t" / "theory_report.json").exists()
    assert passes == []


@pytest.mark.parametrize("layer,tables", [("0", 20), ("2", 21)])
def test_theory_bins_each_checked_filter_once(tmp_path, pipeline, monkeypatch, layer, tables):
    """Every filter of the two conv read points, and the one filter of the
    fully connected read point when the partition check reads it, is binned
    by one _bin_rows call into one class table, which every check at that
    read point reads."""
    binned, real = [], infotheory._bin_rows
    monkeypatch.setattr(infotheory, "_bin_rows",
                        lambda *args, **kwargs: binned.append(1) or real(*args, **kwargs))
    code, out, err = run_cli(["theory", "--out", str(tmp_path / "t"),
                              "--checkpoint", pipeline["ckpt"], "--data", pipeline["data"],
                              "--chain-n", "2000", "--partition-layer", layer])
    assert code == 0, err
    assert json.loads(out)["counters"]["histogram_tables"] == tables == len(binned)


# --- configuration files ---

@pytest.mark.parametrize("cls, commands", [(data_io.SyntheticSpec, ["synth"]),
                                           (net.TrainConfig, ["train"]),
                                           (forest.ForestConfig, ["evaluate", "permute"])])
def test_every_config_field_is_an_option_of_its_commands(cls, commands):
    """cli._from_options builds each of these from the options named by its
    fields, so each field is an option of every command that builds it."""
    for command in commands:
        assert {f.name for f in dataclasses.fields(cls)} <= set(cli.COMMANDS[command].keys)

def test_config_file_flat(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"per_class": 3, "extent": 8}))
    code, out, _ = run_cli(["synth", "--out", str(tmp_path / "d"),
                            "--config", str(cfg)])
    assert code == 0
    assert json.loads(out)["images"] == 6


def test_config_file_sectioned(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"synth": {"per_class": 4, "extent": 8},
                               "train": {"epochs": 1}}))
    code, out, _ = run_cli(["synth", "--out", str(tmp_path / "d"),
                            "--config", str(cfg)])
    assert code == 0
    assert json.loads(out)["images"] == 8


def test_config_unknown_key_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"per_class": 3, "bogus_knob": 1}))
    code, _, err = run_cli(["synth", "--out", str(tmp_path / "d"),
                            "--config", str(cfg)])
    assert code == 2
    assert "bogus_knob" in err


def test_flag_overrides_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"per_class": 5, "extent": 8}))
    code, out, _ = run_cli(["synth", "--out", str(tmp_path / "d"),
                            "--config", str(cfg), "--per-class", "3"])
    assert code == 0
    summary = json.loads(out)
    assert summary["images"] == 6
    assert summary["config"]["per_class"] == 3


def test_flag_none_overrides_config_file(leak_features, tmp_path):
    """A flag given as 'none' still wins over the file: flags not given set
    nothing, so None is a value like any other."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mtry": 1}))
    code, out, err = run_cli(["evaluate", "--out", str(tmp_path / "e"), "--features",
                              leak_features, "--tree-count", "3", "--config", str(cfg),
                              "--mtry", "none"])
    assert code == 0, err
    assert json.loads(out)["config"]["mtry"] is None
    args = PARSER.parse_args(["theory", "--quantizer-levels", "none"])
    with contextlib.redirect_stderr(io.StringIO()):
        assert cli._resolve(args)["quantizer_levels"] is None  # its default is 4


def test_sectioned_config_without_the_running_section_gives_nothing(leak_features, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"synth": {"per_class": 4}, "evaluate": {"tree_count": 3}}))
    code, out, err = run_cli(["permute", "--out", str(tmp_path / "p"), "--features",
                              leak_features, "--tree-count", "4", "--config", str(cfg)])
    assert code == 0, err
    assert json.loads(out)["config"]["tree_count"] == 4


def test_sectioned_config_with_stray_top_level_keys_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"synth": {"per_class": 4}, "extent": 8}))
    code, _, err = run_cli(["synth", "--out", str(tmp_path / "d"), "--config", str(cfg)])
    assert code == 2
    assert "['extent']" in err


@pytest.mark.parametrize("bad", [5, [], {"bogus": 1}, {"per_class": 2}])
@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_malformed_section_exits_2_whichever_subcommand_runs(tmp_path, command, bad):
    """Every section of a sectioned config file must be an object of its own
    subcommand's keys, the running one's or not: else exit 2 naming the
    file and the section, before --out is made. per_class is synth's alone."""
    other = "train" if command == "extract" else "extract"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({command: {}, other: bad}))
    code, out, err = run_cli([command, "--out", str(tmp_path / "o"), "--config", str(cfg)])
    assert code == 2 and out == "", err
    assert "error: " in err and str(cfg) in err and other in err
    assert not (tmp_path / "o").exists()


# per subcommand, a value of one of its keys that the key does not take, and
# what the key takes, as the error names it
_MISTYPED = {
    "synth": ("per_class", "x", "an integer"),
    "train": ("learning_rate", True, "a number"),
    "extract": ("bins", "x", "an integer"),
    "evaluate": ("criterion", "bogus", "a string in ['gini', 'entropy']"),
    "permute": ("perm_seed", 2.5, "an integer or null"),
    "theory": ("partition_layer", [1], "an integer"),
}


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_mistyped_value_in_another_section_exits_2(tmp_path, command):
    """Every section's values are typed whichever subcommand runs: a value
    in another subcommand's section that its key does not take exits 2 with
    the error that subcommand would give, before --out is made."""
    names = list(cli.COMMANDS)
    other = names[(names.index(command) + 1) % len(names)]
    key, value, takes = _MISTYPED[other]
    message = f"config key {key!r} takes {takes}, got {json.dumps(value)}"
    assert key in cli.COMMANDS[other].keys
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({command: {}, other: {key: value}}))
    code, out, err = run_cli([command, "--out", str(tmp_path / "o"), "--config", str(cfg)])
    assert code == 2 and out == "", err
    assert f"error: {message}" in err
    assert not (tmp_path / "o").exists()
    code, _, err = run_cli([other, "--out", str(tmp_path / "o"), "--config", str(cfg)])
    assert code == 2 and f"error: {message}" in err  # the same refusal as its own


@pytest.mark.parametrize("command", [*cli.COMMANDS, "extract --dump-out"])
def test_output_directory_naming_a_file_exits_2(pipeline, tmp_path, command):
    """Every subcommand's --out, and extract's --dump-out, naming an
    existing file exit 2 with an error naming the option and the path,
    before any work, and leave the file as it was."""
    file = tmp_path / "file"
    file.write_text("kept\n")
    option, argv = "--out", [command, "--out", str(file)]
    if command == "extract --dump-out":
        option, argv = "--dump-out", ["extract", "--out", str(tmp_path / "f"), "--checkpoint",
                                      pipeline["ckpt"], "--data", pipeline["data"],
                                      "--dump-out", str(file)]
    code, out, err = run_cli(argv)
    assert code == 2 and out == "", err
    assert f"error: {option} {file} is a file, not a directory" in err
    assert file.read_text() == "kept\n" and not (tmp_path / "f" / "features.csv").exists()


@pytest.mark.parametrize("probe", [
    "extract --checkpoint DIR", "theory --checkpoint DIR", "evaluate --features DIR",
    "permute --features DIR", "train --config DIR", "synth --out FILE/sub",
    "extract --checkpoint FILE/x", "extract --dump-out FILE/sub"])
def test_path_of_the_wrong_kind_exits_2(pipeline, tmp_path, probe):
    """A directory where a file is meant, or a path under a file, exits 2
    with an error naming the path and no traceback."""
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("kept\n")
    command, option, value = probe.split()
    path = value.replace("DIR", str(tmp_path / "dir")).replace("FILE", str(tmp_path / "file"))
    argv = [command, *([] if option == "--out" else ["--out", str(tmp_path / "o")]), option, path]
    if command in ("extract", "theory"):
        argv += ["--data", pipeline["data"]]
        argv += [] if option == "--checkpoint" else ["--checkpoint", pipeline["ckpt"]]
    code, out, err = run_cli(argv)
    assert code == 2 and out == "", err
    assert err.splitlines()[-1].startswith("error: ") and path in err
    assert "Traceback" not in err and not (tmp_path / "o" / "features.csv").exists()


# every path-valued option of every subcommand (a str option without
# choices, and --config), with each kind of wrong path; --out and
# --dump-out take a missing path or a directory, so those are no cases
_PATH_KEYS = ["config", *(key for key, opt in cli.OPTIONS.items()
                          if opt.kind is str and opt.choices is None)]
_WRONG_PATHS = ["missing", "directory", "under a file", "empty file", "another artifact"]
_PATH_CASES = [(command, key, kind) for command, spec in cli.COMMANDS.items()
               for key in ("config", "out", *spec.keys) if key in _PATH_KEYS
               for kind in _WRONG_PATHS
               if not (key in ("out", "dump_out") and kind in ("missing", "directory"))]


@pytest.mark.parametrize("command,key,kind", _PATH_CASES)
def test_wrong_path_exits_2_naming_it(pipeline, tmp_path, command, key, kind):
    """With every other input valid, a wrong path exits 2 with an error
    naming it, or exits 1 with a FramedFileError naming it for a
    --checkpoint that is empty or another artifact (no checkpoint magic);
    never with a traceback. No file is written to --out, and the files
    given are left as they were. Another artifact is a checkpoint, or for
    --checkpoint a features CSV."""
    for name in ("dir", "o"):
        (tmp_path / name).mkdir()
    (tmp_path / "file").write_text("kept\n")
    (tmp_path / "empty").touch()
    shutil.copyfile(pipeline["features" if key == "checkpoint" else "ckpt"], tmp_path / "other")
    before = {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
    path = str(tmp_path / {"missing": "missing", "directory": "dir", "under a file": "file/x",
                           "empty file": "empty", "another artifact": "other"}[kind])
    inputs = {"data": pipeline["data"], "checkpoint": pipeline["ckpt"],
              "features": pipeline["features"]}
    given = {k: v for k, v in inputs.items() if k in cli.COMMANDS[command].keys and key != "dump"}
    given.update({"out": str(tmp_path / "o"), key: path})
    argv = [command, *(a for k, v in given.items() for a in ("--" + k.replace("_", "-"), v))]
    code, out, err = run_cli(argv + (["--per-class", "1", "--extent", "8"]
                                     if command == "synth" else []))
    framed = key == "checkpoint" and kind in ("empty file", "another artifact")
    assert (code, out) == (1 if framed else 2, ""), err
    last = err.splitlines()[-1]
    if framed:
        error = re.match(r"runtime failure: (\w+): ", last)[1]
        assert issubclass(getattr(framing, error), framing.FramedFileError), last
    else:
        assert last.startswith("error: "), last
    assert path in last and "Traceback" not in err
    assert not (tmp_path / "o").is_dir() or not any((tmp_path / "o").iterdir())
    assert {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before


_SEEDS = [(command, key) for command, spec in cli.COMMANDS.items()
          for key in spec.keys if key.endswith("seed")]


def test_the_seed_rule_covers_every_seed_option():
    assert {key for _, key in _SEEDS} == {"seed", "net_seed", "fold_seed", "perm_seed",
                                          "chain_seed"}


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command,key", _SEEDS)
def test_negative_seed_exits_2_before_any_input_is_read(tmp_path, command, key, source):
    """A negative seed, which numpy's generators refuse, is refused by key
    and value before any input is read or output directory made: these runs
    give no input at all, and each would otherwise fail on that first."""
    argv = [command, "--out", str(tmp_path / "o")]
    if source == "flag":
        argv.append(f"--{key.replace('_', '-')}=-3")
    else:
        (tmp_path / "cfg.json").write_text(json.dumps({command: {key: -3}}))
        argv += ["--config", str(tmp_path / "cfg.json")]
    code, out, err = run_cli(argv)
    assert code == 2 and out == "", err
    assert f"error: {key} must be >= 0, got -3" in err
    assert not (tmp_path / "o").exists()


_READERS = [(data_io, "load_dataset"), (data_io, "read_features_csv"), (net, "load_checkpoint")]


@pytest.mark.parametrize("command,key,value", [
    ("train", "batch_size", "0"), ("train", "epochs", "0"), ("train", "learning_rate", "0"),
    ("train", "learning_rate", "nan"),
    *((command, key, "0") for command in ("evaluate", "permute")
      for key in ("tree_count", "min_leaf", "mtry", "max_depth"))])
def test_out_of_range_option_exits_2_before_any_input_is_read(pipeline, tmp_path, monkeypatch,
                                                              command, key, value):
    """train's TrainConfig and evaluate's and permute's ForestConfig are
    built before any input is read: an out-of-range value exits 2 naming
    its option, and no dataset, features CSV or checkpoint is opened."""
    reads = []
    for module, name in _READERS:
        monkeypatch.setattr(module, name, lambda *args, name=name: reads.append(name))
    given = ["--data", pipeline["data"]] if command == "train" else [
        "--features", pipeline["features"]]
    code, out, err = run_cli([command, "--out", str(tmp_path / "o"), *given,
                              f"--{key.replace('_', '-')}={value}"])
    assert code == 2 and out == "", err
    assert err.splitlines()[-1].startswith("error: ") and key in err.splitlines()[-1]
    assert reads == []


_NUMERIC_CASES = [(command, key) for command, spec in cli.COMMANDS.items() for key in spec.keys
                  if cli.OPTIONS[key].kind in (int, float, cli._opt_int, cli._floats, cli._range)]
# "x" is of no numeric option's type; from a config file it is the JSON true
_BOUNDARY = ["0", "-1", "-0.5", "nan", "inf", "-inf", "x"]
# the owner's parameter an option maps to, which its refusal may name instead
_ALIASES = {"bins": "bin_count", "chain_n": "n", "chain_classes": "classes"}
# options whose rules need the input: they run with real inputs, and on
# exit 2 no forward pass has run
_NEEDS_INPUT = {
    "k": "kfold_split checks it against the rows",
    "partition_layer": "checked against the network's read points",
    "partition_filter": "checked against the read point's filters",
    **dict.fromkeys(("chain_n", "noise_levels", "quantizer_levels", "chain_classes",
                     "chain_seed", "slack"),
                    "theory refuses its DPI options once the inputs load"),
}


class _InputRead(Exception):
    """Raised by a patched loader: the run read its input."""


def _boundary_argv(pipeline, root, command, key, text, source):
    """The command line giving `key` the boundary value `text` after small
    working values of the command's other options, as a flag or from a
    config file (a JSON number, or true for "x"); a list option takes it as
    its first entry."""
    both = {"checkpoint": pipeline["ckpt"], "data": pipeline["data"]}
    trees = {"features": pipeline["features"], "tree_count": "3"}
    base = {"synth": {"per_class": "2", "extent": "8"},
            "train": {"data": pipeline["data"], "epochs": "1"}, "extract": both,
            "evaluate": trees, "permute": trees, "theory": {**both, "chain_n": "2000"}}[command]
    argv = [command, "--out", str(root / "o"),
            *(f"--{k.replace('_', '-')}={v}" for k, v in base.items() if k != key)]
    opt = cli.OPTIONS[key]
    listed = opt.kind in (cli._floats, cli._range)
    rest = (opt.default[1:] if isinstance(opt.default, list) else [1.0]) if listed else []
    if source == "flag":
        return argv + [f"--{key.replace('_', '-')}={','.join([text, *map(repr, rest)])}"]
    value = True if text == "x" else json.loads(text.replace("nan", "NaN").replace(
        "inf", "Infinity"))
    (root / "cfg.json").write_text(json.dumps({command: {key: [value, *rest] if listed
                                                         else value}}))
    return argv + ["--config", str(root / "cfg.json")]


@settings(max_examples=500, deadline=None)
@given(case=st.sampled_from(_NUMERIC_CASES), text=st.sampled_from(_BOUNDARY),
       source=st.sampled_from(["flag", "config"]))
@example(("synth", "noise_scale"), "-1", "flag")
@example(("theory", "slack"), "-0.5", "flag")
def test_boundary_option_value_exits_cleanly(pipeline, case, text, source):
    """Every numeric option given 0, -1, -0.5, nan, +-inf or a value of the
    wrong type exits 0, 1 or 2 with no traceback, and exit 1 only where an
    accepted value reached an input that the patched loaders refuse. On exit
    2 the error names the option, --out holds nothing, and no input was read
    (_NEEDS_INPUT's options run with real inputs) nor forward pass run."""
    command, key = case
    reads, passes, err = [], [], io.StringIO()

    def refuse(*args, name):
        reads.append(name)
        raise _InputRead(name)

    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        root = pathlib.Path(tmp)
        use_cpus(mp, 1)  # forward passes are counted in this process
        forward = net._forward_layers
        mp.setattr(net, "_forward_layers", lambda *args: passes.append(1) or forward(*args))
        if key not in _NEEDS_INPUT:
            for module, name in _READERS:
                mp.setattr(module, name, functools.partial(refuse, name=name))
        argv = _boundary_argv(pipeline, root, command, key, text, source)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as e:  # the parser refused the flag's text
                code = e.code
        err = err.getvalue()
        assert "Traceback" not in err, err
        if code == 1:
            assert reads and f"runtime failure: _InputRead: {reads[0]}" in err, err
            return
        assert code in (0, 2), err
        if code == 2:
            names = {key, "--" + key.replace("_", "-"), _ALIASES.get(key, key)}
            last = err.splitlines()[-1]
            assert any(re.search(rf"(?<![\w-]){re.escape(n)}(?![\w-])", last) for n in names), err
            assert not (root / "o").exists() or not any((root / "o").iterdir())
            assert reads == [] and passes == []


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_negative_seed_in_another_section_exits_2(tmp_path, command):
    """The seed rule reads every section of a config file, not only the
    running subcommand's: a negative seed in another section exits 2 naming
    it, before --out is made."""
    other, key = next((name, key) for name, key in _SEEDS if name != command)
    (tmp_path / "cfg.json").write_text(json.dumps({command: {}, other: {key: -1}}))
    argv = [command, "--out", str(tmp_path / "o"), "--config", str(tmp_path / "cfg.json")]
    code, out, err = run_cli(argv + (["--per-class", "2", "--extent", "8"]
                                     if command == "synth" else []))
    assert code == 2 and out == "", err
    assert f"error: {key} must be >= 0, got -1" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command,values,expected", [
    ("train", {"epochs": "3"}, 3),  # a string reads as the flag's text
    ("synth", {"per_class": 2.5}, None),
    ("extract", {"bins": 3.0}, None),
    ("synth", {"null_generator": "no"}, None),
    ("synth", {"seed": True}, None),  # a bool is not an int
    ("synth", {"noise_scale": "0.1,0.4"}, [0.1, 0.4]),
])
def test_config_file_values_are_typed(pipeline, tmp_path, command, values, expected):
    """None expected: the value is refused by name with exit 2."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({command: values}))
    extra = {"train": ["--data", pipeline["data"]],
             "synth": ["--per-class", "1", "--extent", "8"]}.get(command, [])
    code, out, err = run_cli([command, "--out", str(tmp_path / "o"), "--config", str(cfg),
                              *extra])
    [key] = values
    if expected is None:
        assert code == 2 and f"config key {key!r}" in err
    else:
        assert code == 0, err
        assert json.loads(out)["config"][key] == expected


OPTION_KEYS = [(name, key) for name, command in cli.COMMANDS.items()
               for key in ("out", *command.keys)]
REJECTED = object()
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(["3", "-2", "2.5", "none", "Null", "0.1,0.4", "1,2,3", "minmax", "0,1",
                       "per-pixel", *(c for o in cli.OPTIONS.values() for c in o.choices or ())]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                  max_size=2),
    max_leaves=4)


def _flag_value(command, key, value):
    """What the flag gives for the text a JSON value stands for: a string is
    the text, null is 'none', numbers and lists of numbers are written out;
    true/false are --x/--no-x and stand for nothing else."""
    def number(x):
        return isinstance(x, (int, float)) and not isinstance(x, bool)

    flag = "--" + key.replace("_", "-")
    try:
        if cli.OPTIONS[key].kind is bool:
            if not isinstance(value, bool):
                return REJECTED
            argv = [flag if value else "--no-" + flag[2:]]
        elif isinstance(value, str):
            argv = [f"{flag}={value}"]
        elif value is None:
            argv = [f"{flag}=none"]
        elif number(value):
            argv = [f"{flag}={value!r}"]
        elif isinstance(value, list) and all(map(number, value)):
            argv = [f"{flag}={','.join(map(repr, value))}"]
        else:
            return REJECTED
        with contextlib.redirect_stderr(io.StringIO()):
            return getattr(PARSER.parse_args([command, *argv]), key)
    except (SystemExit, ValueError):  # ValueError: an int too long to print
        return REJECTED


@settings(max_examples=400, deadline=None)
@given(option=st.sampled_from(OPTION_KEYS), value=JSON_VALUES)
@example(("extract", "mode"), "per-pixel")
@example(("synth", "seed"), True)
@example(("theory", "quantizer_levels"), None)
@example(("extract", "range"), "0,1,2")
@example(("synth", "noise_scale"), [0.1, "0.4"])
def test_config_file_value_reads_as_its_flag(option, value):
    """A config-file value is what its flag gives for the same text, or a
    ConfigError naming the key (exit 2); never another exception. So every
    value the flag refuses, the file refuses by name."""
    command, key = option
    flagged = _flag_value(command, key, value)
    try:
        got = cli._file_value(key, value)
    except cli.ConfigError as e:
        assert repr(key) in str(e)
        return
    assert flagged is not REJECTED
    assert repr(got) == repr(flagged)  # repr: nan equals nan, 3 differs from 3.0


def test_config_file_missing_exits_2(tmp_path):
    code, _, err = run_cli(["synth", "--out", str(tmp_path / "d"),
                            "--config", str(tmp_path / "nope.json")])
    assert code == 2
    assert "config file" in err


# --- determinism across reruns ---

def test_synth_rerun_byte_identical(tmp_path):
    out_dir = str(tmp_path / "d")
    argv = ["synth", "--out", out_dir, "--per-class", "3", "--extent", "8"]
    assert run_cli(argv)[0] == 0
    manifest = open(os.path.join(out_dir, "manifest.csv"), "rb").read()
    tensor = open(os.path.join(out_dir, "tensors", "img_0000.tnsr"), "rb").read()
    assert run_cli(argv)[0] == 0
    assert open(os.path.join(out_dir, "manifest.csv"), "rb").read() == manifest
    assert open(os.path.join(out_dir, "tensors", "img_0000.tnsr"), "rb").read() == tensor


def test_evaluate_rerun_byte_identical(leak_features, tmp_path):
    out_dir = str(tmp_path / "e")
    argv = ["evaluate", "--out", out_dir, "--features", leak_features,
            "--tree-count", "10"]
    assert run_cli(argv)[0] == 0
    before = open(os.path.join(out_dir, "metrics.csv"), "rb").read()
    assert run_cli(argv)[0] == 0
    assert open(os.path.join(out_dir, "metrics.csv"), "rb").read() == before
