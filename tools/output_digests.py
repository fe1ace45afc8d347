"""Run every centpipe stage into a directory and print a sha256 of each file.

Usage (from a checkout, with the src to test on PYTHONPATH):

    PYTHONPATH=src python tools/output_digests.py OUT_DIR [--seeds 1 2 3 4 5]

Per seed, into OUT_DIR/seed_<s>: synth at 32^2 and 64^2, desk2d training on
each, extract per-layer with --dump-out, per-filter with --pre-relu and from
the dump, evaluate under gini, under entropy, with --min-leaf 3 --max-depth 4
and with --no-bootstrap, permute, and theory three times (by default, with
the partition check at the fully connected read point 2, and at filter 3);
then two seeded 64^3 volumes, reference3d trained in both variants, each
extracted with --pre-relu --dump-out, from that dump and per-layer, and
checked by theory. Every stage calls
centpipe.cli.main in-process with paths relative to OUT_DIR. The output is
one "<sha256>  <path>" line per file written, sorted by path, so two source
trees are compared by diffing their outputs. Exits 1 if any stage fails.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import os
import sys

import numpy as np

from centpipe import cli, data_io

FOREST = ["--tree-count", "20", "--k", "3"]


def _stages(seed: int) -> list[list[str]]:
    s = str(seed)
    stages = []
    for extent in (32, 64):
        d = f"seed_{s}/desk{extent}"
        ckpt = f"{d}/net/checkpoint.ckpt"
        stages += [
            ["synth", "--out", f"{d}/data", "--seed", s, "--per-class", "12",
             "--extent", str(extent)],
            ["train", "--out", f"{d}/net", "--data", f"{d}/data", "--seed", s,
             "--net-seed", s, "--epochs", "3"],
            ["extract", "--out", f"{d}/layer", "--checkpoint", ckpt, "--data", f"{d}/data",
             "--mode", "per-layer", "--dump-out", f"{d}/dump"],
            ["extract", "--out", f"{d}/pre", "--checkpoint", ckpt, "--data", f"{d}/data",
             "--mode", "per-filter", "--pre-relu"],
            ["extract", "--out", f"{d}/from_dump", "--dump", f"{d}/dump", "--mode", "per-layer"],
            ["evaluate", "--out", f"{d}/gini", "--features", f"{d}/pre/features.csv",
             "--seed", s, *FOREST],
            ["evaluate", "--out", f"{d}/entropy", "--features", f"{d}/pre/features.csv",
             "--seed", s, "--criterion", "entropy", *FOREST],
            ["evaluate", "--out", f"{d}/shallow", "--features", f"{d}/pre/features.csv",
             "--seed", s, "--min-leaf", "3", "--max-depth", "4", *FOREST],
            ["evaluate", "--out", f"{d}/no_bootstrap", "--features", f"{d}/pre/features.csv",
             "--seed", s, "--no-bootstrap", *FOREST],
            ["permute", "--out", f"{d}/perm", "--features", f"{d}/layer/features.csv",
             "--seed", s, "--perm-seed", s, *FOREST],
            ["theory", "--out", f"{d}/theory", "--checkpoint", ckpt, "--data", f"{d}/data"],
            ["theory", "--out", f"{d}/theory_fc", "--checkpoint", ckpt, "--data", f"{d}/data",
             "--partition-layer", "2"],
            ["theory", "--out", f"{d}/theory_filter", "--checkpoint", ckpt, "--data",
             f"{d}/data", "--partition-filter", "3"],
        ]
    for variant in ("pool-reduces", "conv-stride-reduces"):
        d = f"seed_{s}/volume/{variant}"
        ckpt = f"{d}/net/checkpoint.ckpt"
        data = f"seed_{s}/volume/data"
        stages += [
            ["train", "--out", f"{d}/net", "--data", data, "--arch", "reference3d",
             "--variant", variant, "--net-seed", s, "--seed", s, "--epochs", "2",
             "--learning-rate", "0.001", "--batch-size", "2"],
            ["extract", "--out", f"{d}/pre", "--checkpoint", ckpt, "--data", data,
             "--pre-relu", "--dump-out", f"{d}/dump"],
            ["extract", "--out", f"{d}/from_dump", "--dump", f"{d}/dump"],
            ["extract", "--out", f"{d}/layer", "--checkpoint", ckpt, "--data", data,
             "--mode", "per-layer"],
            ["theory", "--out", f"{d}/theory", "--checkpoint", ckpt, "--data", data],
        ]
    return stages


def _save_volumes(seed: int) -> None:
    """Two 64^3 volumes, one per class, of seeded Laplace noise."""
    rng = np.random.default_rng(seed)
    images = np.stack([rng.laplace(0.0, scale, size=(1, 64, 64, 64))
                       for scale in (0.5, 1.5)]).astype(np.float32)
    data_io.save_dataset(data_io.LabeledDataset(images, np.array([0, 1]), ("a", "b")),
                         f"seed_{seed}/volume/data")


def _digests() -> list[str]:
    lines = []
    for root, _, files in os.walk("."):
        for name in files:
            path = os.path.relpath(os.path.join(root, name))
            with open(path, "rb") as f:
                lines.append(f"{hashlib.sha256(f.read()).hexdigest()}  {path}")
    return sorted(lines, key=lambda line: line.split("  ", 1)[1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="directory to run in (created if absent)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    os.chdir(args.out)
    with open(os.devnull, "w") as quiet:
        for seed in args.seeds:
            _save_volumes(seed)
            for stage in _stages(seed):
                with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
                    code = cli.main(stage)
                if code != 0:
                    print(f"stage failed with exit {code}: centpipe {' '.join(stage)}",
                          file=sys.stderr)
                    return 1
    print("\n".join(_digests()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
