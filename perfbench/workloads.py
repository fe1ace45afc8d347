"""The four benchmark workloads: how each prepares its inputs, which CLI
stages its timed body runs, and the gates its outputs must pass.

Every stage is a `centpipe.cli.main(argv)` call made in-process, one after
the other (a closed loop with a single caller). Body paths are relative to
the directory a repetition runs in; setup inputs sit at ../inputs. Relative
paths keep the files a stage writes (theory_report.json embeds its config)
identical from one repetition to the next.

The workload seed reaches the program only as the seeds of the generated
inputs and stage flags.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
from dataclasses import dataclass
from typing import Callable

INPUTS = "../inputs"


def run_stage(argv: list, tracer=None) -> dict:
    """One CLI call with stdout/stderr captured; a non-zero exit (returned
    or raised by argument parsing) marks the stage failed."""
    from centpipe import cli

    argv = [str(a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    span = tracer.span(f"cli.{argv[0]}") if tracer is not None else contextlib.nullcontext()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
    seconds = time.perf_counter() - start
    if rc != 0 and tracer is not None:
        tracer.errors["cli"] += 1
    summary = json.loads(out.getvalue()) if rc == 0 else None
    return {"stage": argv[0], "out": argv[argv.index("--out") + 1], "rc": rc,
            "seconds": seconds, "summary": summary,
            "stderr": err.getvalue()[-2000:] if rc != 0 else ""}


@contextlib.contextmanager
def in_dir(path):
    previous = os.getcwd()
    os.makedirs(path, exist_ok=True)
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


def _synth(out, seed, sizes):
    return ["synth", "--out", out, "--seed", seed, "--per-class", sizes["per_class"],
            "--extent", sizes["extent"]]


def _train(out, data, seed, sizes, *extra):
    return ["train", "--out", out, "--data", data, "--seed", seed, "--net-seed", seed,
            "--epochs", sizes["epochs"], "--learning-rate", 0.05,
            "--batch-size", sizes["batch_size"], *extra]


def _extract(out, data, ckpt, mode):
    return ["extract", "--out", out, "--checkpoint", ckpt, "--data", data, "--mode", mode]


def _forest(command, out, features, seed, sizes, *extra):
    return [command, "--out", out, "--features", features, "--seed", seed,
            "--fold-seed", seed, "--k", 5, "--tree-count", sizes["trees"], *extra]


def _gate(name, ok, value):
    return {"gate": name, "ok": bool(ok), "value": value}


def _summary(stages, out):
    return next((s["summary"] for s in stages if s["out"] == out), None)


def _mean_auc(stages, out):
    summary = _summary(stages, out)
    return None if summary is None else summary["mean_auc"]


# ---- desk: the full desk experiment, synth to evaluate ---------------------

def desk_body(sizes, seed):
    return [
        _synth("data", seed, sizes),
        _train("net", "data", seed, sizes),
        _extract("feat_layer", "data", "net/checkpoint.ckpt", "per-layer"),
        _extract("feat_filter", "data", "net/checkpoint.ckpt", "per-filter"),
        _forest("evaluate", "eval_layer", "feat_layer/features.csv", seed, sizes),
        _forest("evaluate", "eval_filter", "feat_filter/features.csv", seed, sizes),
    ]


def desk_gates(sizes, seed, stages, rep_dir):
    gates = []
    for out in ("eval_layer", "eval_filter"):
        auc = _mean_auc(stages, out)
        gates.append(_gate(f"{out}.mean_auc>=0.90", auc is not None and auc >= 0.90, auc))
    return gates


# ---- controls: forest and evaluation only, on per-filter features ----------

def controls_setup(sizes, seed):
    return [
        _synth("data", seed, sizes),
        _train("net", "data", seed, sizes),
        _extract("feat", "data", "net/checkpoint.ckpt", "per-filter"),
    ]


def controls_body(sizes, seed):
    features = f"{INPUTS}/feat/features.csv"
    return [_forest("evaluate", "eval", features, seed, sizes)] + [
        _forest("permute", f"perm_{i}", features, seed, sizes, "--perm-seed", p)
        for i, p in enumerate(perm_seeds(seed))]


def perm_seeds(seed):
    return (2 * seed + 1, 2 * seed + 2)


def controls_gates(sizes, seed, stages, rep_dir):
    gates = []
    for i in range(len(perm_seeds(seed))):
        auc = _mean_auc(stages, f"perm_{i}")
        gates.append(_gate(f"perm_{i}.mean_auc_in[0.35,0.65]",
                           auc is not None and 0.35 <= auc <= 0.65, auc))
    return gates


# ---- theory: the three checks on a given checkpoint and dataset ------------

def theory_setup(sizes, seed):
    return [_synth("data", seed, sizes), _train("net", "data", seed, sizes)]


def theory_body(sizes, seed):
    return [["theory", "--out", "theory", "--checkpoint", f"{INPUTS}/net/checkpoint.ckpt",
             "--data", f"{INPUTS}/data", "--chain-n", sizes["chain_n"], "--chain-seed", seed]]


def theory_gates(sizes, seed, stages, rep_dir):
    report = _summary(stages, "theory")
    if report is None:
        return [_gate(g, False, None) for g in ("reduced", "decomposition_residual", "dpi")]
    reduced = [c["reduced"] for c in report["conditioning"]]
    residual = report["partition"]["decomposition_residual"]
    return [_gate("reduced_on_both_conv_layers", reduced == [True, True], reduced),
            _gate("decomposition_residual<=1e-9", residual <= 1e-9, residual),
            _gate("dpi.holds", report["dpi"]["holds"] is True, report["dpi"]["holds"])]


# ---- volume3d: reference3d on 64^3 volumes, large activations -------------

VOLUME_NOISE = (0.5, 1.5)  # Laplace scale per class


def volume3d_setup_inputs(sizes, seed):
    """Seeded two-class set of 64^3 volumes saved as a dataset under ./data."""
    import numpy as np
    from centpipe import data_io

    rng = np.random.default_rng(seed)
    labels = np.repeat([0, 1], sizes["per_class"])
    images = np.stack([rng.laplace(0.0, VOLUME_NOISE[c], size=(1, 64, 64, 64))
                       for c in labels]).astype(np.float32)
    data_io.save_dataset(data_io.LabeledDataset(images, labels, ("class_0", "class_1")), "data")


def volume3d_body(sizes, seed):
    data = f"{INPUTS}/data"
    return [
        _train("net", data, seed, sizes, "--arch", "reference3d", "--variant", "pool-reduces"),
        _extract("feat", data, "net/checkpoint.ckpt", "per-filter"),
    ]


VOLUME3D_SHAPES = [(1, 64, 64, 64), (10, 32, 32, 32), (10, 16, 16, 16), (128,), (2,)]


def volume3d_gates(sizes, seed, stages, rep_dir):
    from centpipe import data_io, net

    ckpt = os.path.join(rep_dir, "net", "checkpoint.ckpt")
    shapes = ([tuple(s) for s in net.shape_trace(net.load_checkpoint(ckpt))]
              if os.path.exists(ckpt) else None)
    features = os.path.join(rep_dir, "feat", "features.csv")
    count, in_range = None, False
    if os.path.exists(features):
        _, _, matrix = data_io.read_features_csv(features)
        count = int(matrix.shape[1])
        in_range = bool(((matrix >= 0) & (matrix <= math.log2(256))).all())
    train = _summary(stages, "net")
    loss = None if train is None else train["final_loss"]
    return [_gate("shape_trace", shapes == VOLUME3D_SHAPES, shapes and [list(s) for s in shapes]),
            _gate("per_filter_features==21", count == 21, count),
            _gate("features_in[0,log2(256)]", in_range, in_range),
            _gate("loss_finite", loss is not None and math.isfinite(loss), loss)]


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: dict   # benchmark sizes
    tiny: dict    # sizes for the smoke tests
    body: Callable    # (sizes, seed) -> list of CLI argv
    gates: Callable   # (sizes, seed, stage results, repetition dir) -> gate dicts
    setup_stages: Callable | None = None  # (sizes, seed) -> CLI argv run in ./inputs
    setup_inputs: Callable | None = None  # (sizes, seed) -> None, run in ./inputs
    # Untraced repetitions at least, whatever --seconds is; two are needed for
    # the determinism check.
    min_reps: int = 2


def image_count(sizes) -> int:
    """Images in a workload's dataset: every workload has two classes."""
    return 2 * sizes["per_class"]


WORKLOADS = {w.name: w for w in (
    Workload(
        "desk",
        dict(per_class=150, extent=32, epochs=12, batch_size=10, trees=100),
        dict(per_class=10, extent=32, epochs=2, batch_size=5, trees=10),
        desk_body, desk_gates),
    Workload(
        "controls",
        dict(per_class=150, extent=32, epochs=1, batch_size=10, trees=100),
        dict(per_class=15, extent=32, epochs=1, batch_size=10, trees=10),
        controls_body, controls_gates, setup_stages=controls_setup),
    Workload(
        "theory",
        dict(per_class=150, extent=32, epochs=1, batch_size=10, chain_n=100000),
        dict(per_class=5, extent=32, epochs=1, batch_size=5, chain_n=5000),
        theory_body, theory_gates, setup_stages=theory_setup,
        # A repetition takes about 4 s of Python-bound forward passes, whose
        # speed on a shared host wanders by 15 % within seconds; the median of
        # six is steadier than that of the four that 15 s would give.
        min_reps=6),
    Workload(
        "volume3d",
        dict(per_class=4, epochs=1, batch_size=4),
        dict(per_class=1, epochs=1, batch_size=2),
        volume3d_body, volume3d_gates, setup_inputs=volume3d_setup_inputs),
)}
