"""Batch command-line interface: synth, train, extract, evaluate, permute,
theory. File/console in-out only.

OPTIONS declares every option once and COMMANDS every subcommand; the parser,
the defaults and the config-file check are built from them. The config takes
the defaults, then the --config JSON file, then explicit flags; it is echoed
to stderr and embedded in the JSON summary printed to stdout. Exit codes: 0
success; 2 config or contract error (ConfigError, ValueError,
FileNotFoundError, KeyError); 1 any other failure. Re-running a subcommand
with the same config produces byte-identical files. `theory` and `extract`
read the trained network and the dataset from --checkpoint and --data
(`extract` from --dump instead); nothing here trains a network but `train`.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import resource
import sys
import time
from typing import Callable, NamedTuple

import numpy as np

from . import data_io, evaluation, forest, framing, infotheory, net, ops, workers


class ConfigError(Exception):
    """Bad flag, config key, or input path: exit code 2."""


def _floats(text: str) -> list:
    """'a,b,...' as a list of floats."""
    return [float(x) for x in text.split(",")]


def _opt_int(text: str):
    """An int, or None for 'none' or 'null'."""
    return None if text.lower() in ("none", "null") else int(text)


def _range(text: str):
    """'minmax', or 'lo,hi' as [lo, hi]."""
    if text == "minmax":
        return text
    bounds = _floats(text)
    if len(bounds) != 2:
        raise argparse.ArgumentTypeError(f"range must be 'minmax' or 'lo,hi', got {text!r}")
    return bounds


# per flag parser: the non-string JSON types a config file may give in place
# of the flag's text, and what the option takes, for the error message
_FILE_TYPES = {
    str: ((), "a string"), int: ((int,), "an integer"), float: ((int, float), "a number"),
    _opt_int: ((int, type(None)), "an integer or null"),
    _floats: ((list,), "a list of numbers or 'a,b,...'"),
    _range: ((list,), "'minmax', 'lo,hi' or [lo, hi]"),
}


def _file_value(key: str, value):
    """A config-file value read as its flag would read it: a string as the
    flag's text, another JSON value only when it has the option's type."""
    opt = OPTIONS[key]
    if opt.kind is bool:
        if type(value) is bool:
            return value
        raise ConfigError(f"config key {key!r} takes true or false, got {json.dumps(value)}")
    types, takes = _FILE_TYPES[opt.kind]
    typed = type(value) in types and all(  # exact types: a bool is no int
        type(x) in (int, float) for x in (value if type(value) is list else ()))
    if isinstance(value, str) or typed:
        try:
            text = value if isinstance(value, str) else "none" if value is None else (
                ",".join(map(repr, value)) if type(value) is list else repr(value))
            parsed = opt.kind(text)
            if opt.choices is None or parsed in opt.choices:
                return parsed
        except (ValueError, argparse.ArgumentTypeError):  # repr fails on a huge int too
            pass
    choices = f" in {list(opt.choices)}" if opt.choices else ""
    raise ConfigError(f"config key {key!r} takes {takes}{choices}, got {json.dumps(value)}")


def _load_config_file(path, command: str) -> dict:
    """The values a config file gives `command`. The file is flat, or
    sectioned when a top-level key names a subcommand: then it gives only the
    running subcommand's section, or nothing when that is absent."""
    try:
        with open(path, "r") as f:
            raw = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except ValueError as e:
        raise ConfigError(f"config file {path} is not valid JSON: {e}") from None
    if isinstance(raw, dict) and set(raw) & set(COMMANDS):
        stray = sorted(set(raw) - set(COMMANDS))
        if stray:
            raise ConfigError(f"config file {path} mixes subcommand sections with keys {stray}")
        raw = raw.get(command, {})
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a JSON object, or one per subcommand")
    return raw


def _resolve(args: argparse.Namespace) -> dict:
    spec = COMMANDS[args.command]
    cfg = {key: OPTIONS[key].default for key in ("out", *spec.keys)}
    if args.config is not None:
        file_cfg = _load_config_file(args.config, args.command)
        unknown = sorted(set(file_cfg) - set(cfg))
        if unknown:
            raise ConfigError(f"unknown config keys for {args.command}: {unknown}")
        cfg.update((key, _file_value(key, value)) for key, value in file_cfg.items())
    cfg.update((key, value) for key, value in vars(args).items() if key in cfg)
    print("resolved config: " + json.dumps(cfg, sort_keys=True), file=sys.stderr)
    return cfg


def _require_out(cfg: dict) -> str:
    if not cfg.get("out"):
        raise ConfigError("an output directory is required (--out)")
    os.makedirs(cfg["out"], exist_ok=True)
    return cfg["out"]


def _network_and_dataset(cfg: dict):
    """The trained network and the dataset given by --checkpoint and --data."""
    if not cfg["checkpoint"] or not cfg["data"]:
        raise ConfigError("provide both --checkpoint and --data")
    return net.load_checkpoint(cfg["checkpoint"]), data_io.load_dataset(cfg["data"])


def cmd_synth(cfg: dict, out: str) -> dict:
    spec = data_io.SyntheticSpec(
        class_count=cfg["class_count"], extent=cfg["extent"],
        per_class=cfg["per_class"], seed=cfg["seed"],
        noise_scale=tuple(cfg["noise_scale"]),
        spatial_frequency=tuple(cfg["spatial_frequency"]),
        blob_density=tuple(cfg["blob_density"]),
        null_generator=cfg["null_generator"])
    clock = time.perf_counter
    start = clock()
    dataset = data_io.generate_synthetic(spec)
    generated = clock()
    bytes_written = data_io.save_dataset(dataset, out)
    return {"command": "synth", "config": cfg,
            "images": len(dataset.images),
            "classes": list(dataset.class_names),
            "manifest": os.path.join(out, "manifest.csv"),
            "counters": {"images": len(dataset.images), "bytes_written": bytes_written},
            "timings": {"generate_s": round(generated - start, 6),
                        "write_s": round(clock() - generated, 6)}}


class _EpochReporter:
    """net.train callback printing one JSON line per epoch to stderr (epoch,
    mean loss, wall seconds of that epoch, and the process's minor page
    faults during it), and keeping the training workspace's latest size and
    the most processes a batch ran in for the stdout summary. Times, faults,
    sizes and process counts never reach an output file."""

    def __init__(self):
        self.last, self.last_faults = time.perf_counter(), self._faults()
        self.workspace_bytes, self.workers = 0, 1

    @staticmethod
    def _faults() -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    def __call__(self, epoch: int, mean_loss: float, workspace_bytes: int,
                 processes: int) -> None:
        now, faults = time.perf_counter(), self._faults()
        print(json.dumps({"epoch": epoch, "mean_loss": mean_loss,
                          "seconds": round(now - self.last, 6),
                          "minor_faults": faults - self.last_faults}),
              file=sys.stderr, flush=True)
        self.last, self.last_faults = now, faults
        self.workspace_bytes = workspace_bytes
        self.workers = max(self.workers, processes)


def cmd_train(cfg: dict, out: str) -> dict:
    if not cfg["data"]:
        raise ConfigError("a dataset is required (--data)")
    dataset = data_io.load_dataset(cfg["data"])
    classes = len(dataset.class_names)
    shape = dataset.images.shape[1:]
    if cfg["arch"] == "desk2d":
        if len(shape) != 3 or shape[0] != 1 or shape[1] != shape[2]:
            raise ConfigError(f"desk2d expects (1, e, e) images, got {shape}")
        network = net.build_desk_2d(shape[1], classes, seed=cfg["net_seed"])
    else:  # reference3d: the parser and the config check allow no other arch
        network = net.build_reference_3d(cfg["variant"], seed=cfg["net_seed"])
        if shape != network.input_shape:
            raise ConfigError(f"reference3d expects {network.input_shape} images, got {shape}")
    train_cfg = net.TrainConfig(cfg["learning_rate"], cfg["epochs"],
                                cfg["batch_size"], cfg["seed"], cfg["shuffle"])
    clock = time.perf_counter
    start = clock()
    reporter = _EpochReporter()
    network, trace = net.train(network, dataset, train_cfg, on_epoch=reporter)
    trained = clock()
    ckpt = os.path.join(out, "checkpoint.ckpt")
    net.save_checkpoint(network, ckpt)
    framing.write_text(os.path.join(out, "loss_trace.csv"), "epoch,mean_loss\n" + "".join(
        f"{e},{v!r}\n" for e, v in enumerate(trace)))
    # every mini-batch runs one forward+backward call per chunk of it
    n = len(dataset.images)
    batches = [min(train_cfg.batch_size, n - lo) for lo in range(0, n, train_cfg.batch_size)]
    return {"command": "train", "config": cfg, "checkpoint": ckpt,
            "epochs": len(trace), "final_loss": trace[-1],
            "counters": {"samples_trained": len(trace) * n,
                         "chunks": len(trace) * sum(len(net._chunks(network, b)) for b in batches),
                         "workspace_bytes": reporter.workspace_bytes,
                         "workers": reporter.workers},
            "timings": {"train_s": round(trained - start, 6), "save_s": round(clock() - trained, 6)}}


def cmd_extract(cfg: dict, out: str) -> dict:
    """CENT features from a checkpoint and dataset, one forward_collect chunk
    at a time (each chunk's activations also feed --dump-out), or from an
    activation dump in chunks of the same bound. A checkpoint's chunks run
    in forked workers, as forward_collect's do (see workers); a dump's run in
    this process. The dump is written chunk by chunk, in order."""
    from_dump = cfg["dump"] is not None
    if from_dump == (cfg["checkpoint"] is not None or cfg["data"] is not None):
        raise ConfigError("provide either --dump or both --checkpoint and --data")
    if from_dump and cfg["dump_out"]:
        raise ConfigError("--dump-out needs --checkpoint and --data; --dump is already a dump")
    if from_dump and cfg["pre_relu"]:
        raise ConfigError("--pre-relu has no effect with --dump: the dump holds the "
                          "activations it was exported with")
    if from_dump:
        dump = data_io.import_activation_dump(cfg["dump"])
        ids, labels, class_names = dump.image_ids, dump.labels, dump.class_names
        read_shapes = [a.shape for a in dump.activations[0]]
        chunk = max(1, ops._SCRATCH_ELEMENTS // max(math.prod(s) for s in read_shapes))
        parts = [slice(lo, lo + chunk) for lo in range(0, len(ids), chunk)]
        processes = 1  # no forward pass: forking it was not measured to pay

        def activations(rows):
            return [np.stack(layer) for layer in zip(*dump.activations[rows])]
    else:
        network, dataset = _network_and_dataset(cfg)
        ids, labels, class_names = dataset.image_ids, dataset.labels, dataset.class_names
        read_shapes = [network.layer_shapes[i]
                       for i in net.cent_read_points(network.specs, cfg["pre_relu"])]
        parts = net._chunks(network, len(ids))
        processes = net._collect_processes(network, len(ids))

        def activations(rows):
            return infotheory.forward_collect(network, dataset.images[rows],
                                              pre_relu=cfg["pre_relu"])
    clock = time.perf_counter

    def features(rows):
        """A chunk's CENT rows, its activations if --dump-out takes them, and
        the seconds of its forward and CENT steps."""
        start = clock()
        acts = activations(rows)
        forward_done = clock()
        block = infotheory.cent_rows(acts, cfg["mode"], cfg["bins"], cfg["range"], ids[rows])
        return block, acts if cfg["dump_out"] else None, forward_done - start, clock() - forward_done

    dump_writer = data_io.ActivationDumpWriter(cfg["dump_out"]) if cfg["dump_out"] else None
    seconds = {"forward": 0.0, "cent": 0.0, "write": 0.0}
    blocks = []
    with contextlib.closing(workers.map(features, parts, processes)) as results:
        for rows, (block, acts, forward_s, cent_s) in zip(parts, results):
            blocks.append(block)
            start = clock()
            if dump_writer:
                dump_writer.write_chunk(ids[rows], acts)
            del acts  # not held while the next chunk runs
            seconds["forward"] += forward_s
            seconds["cent"] += cent_s
            seconds["write"] += clock() - start
    matrix = np.concatenate(blocks)
    start = clock()
    features_path = os.path.join(out, "features.csv")
    data_io.write_features_csv(features_path, ids, labels, matrix)
    if dump_writer:
        dump_writer.finish(ids, labels, class_names)
    seconds["write"] += clock() - start
    sizes = [dict(read_point=li, shape=list(shape),
                  **infotheory.histogram_sizes(shape, cfg["mode"], cfg["bins"]))
             for li, shape in enumerate(read_shapes)]
    return {"command": "extract", "config": cfg, "features": features_path,
            "rows": int(matrix.shape[0]), "feature_count": int(matrix.shape[1]),
            "read_points": sizes,
            "counters": {"forward_passes": 0 if from_dump else len(ids), "chunks": len(blocks),
                         "images": len(ids), "histogram_rows": len(ids) * sum(
                             s["histograms_per_image"] for s in sizes),
                         "workers": processes},
            "timings": {f"{k}_s": round(v, 6) for k, v in seconds.items()}}


def _forest_config(cfg: dict) -> forest.ForestConfig:
    return forest.ForestConfig(
        tree_count=cfg["tree_count"], mtry=cfg["mtry"], max_depth=cfg["max_depth"],
        min_leaf=cfg["min_leaf"], seed=cfg["seed"], bootstrap=cfg["bootstrap"],
        criterion=cfg["criterion"])


def _load_binary_features(cfg: dict):
    if not cfg["features"]:
        raise ConfigError("a features CSV is required (--features)")
    ids, labels, matrix = data_io.read_features_csv(cfg["features"])
    present = np.unique(labels)
    if len(present) != 2 or set(present) != {0, 1}:
        raise ConfigError(f"evaluation requires binary 0/1 labels, got classes {list(present)}")
    return ids, labels, matrix


def _write_eval_outputs(out: str, metrics, permutation_seed=None) -> dict:
    evaluation.write_metrics_csv(metrics, os.path.join(out, "metrics.csv"),
                                 permutation_seed=permutation_seed)
    files = {"metrics": os.path.join(out, "metrics.csv")}
    for i, (scores, labels) in enumerate(zip(metrics.fold_scores, metrics.fold_labels)):
        path = os.path.join(out, f"roc_fold_{i}.csv")
        evaluation.write_roc_csv(evaluation.roc_curve(scores, labels), path)
        files[f"roc_fold_{i}"] = path
    pooled = evaluation.roc_curve(np.concatenate(metrics.fold_scores),
                                  np.concatenate(metrics.fold_labels))
    files["roc_pooled"] = os.path.join(out, "roc_pooled.csv")
    evaluation.write_roc_csv(pooled, files["roc_pooled"])
    return files


def cmd_evaluate(cfg: dict, out: str) -> dict:
    """evaluate, and permute: the same cross-validation after a seeded label
    shuffle (perm_seed None, evaluate's case, is the identity)."""
    permute = "perm_seed" in cfg
    _, labels, matrix = _load_binary_features(cfg)
    perm_seed = cfg.get("perm_seed")
    clock = time.perf_counter
    start = clock()
    metrics = evaluation.permutation_baseline(
        matrix, labels, _forest_config(cfg), k=cfg["k"], fold_seed=cfg["fold_seed"],
        stratified=cfg["stratified"], perm_seed=perm_seed)
    validated = clock()
    files = _write_eval_outputs(out, metrics, permutation_seed=perm_seed)
    summary = {"command": "permute" if permute else "evaluate", "config": cfg, "files": files,
               "per_fold_auc": list(metrics.per_fold_auc), "mean_auc": metrics.mean_auc,
               "counters": metrics.counters,
               "timings": {"cross_validate_s": round(validated - start, 6),
                           "write_s": round(clock() - validated, 6)}}
    if permute:
        summary["perm_seed"] = perm_seed
    return summary


def _class_histogram_sizes(read_shapes, layers, images_per_class: dict, bins: int) -> list:
    """Sizes behind the theory checks at each of `layers`: a class's
    histogram of one filter holds that filter's values over the class's
    images, so its sizes are histogram_sizes of those values as one
    histogram."""
    sizes = []
    for li in layers:
        shape = read_shapes[li]
        filters, values = (shape[0], math.prod(shape[1:])) if len(shape) >= 2 else (1, shape[0])
        classes = {}
        for name, count in images_per_class.items():
            one = infotheory.histogram_sizes((count * values,), "per-layer", bins)
            classes[name] = {key: one[key] for key in
                             ("values_per_histogram", "samples_per_bin", "entropy_cap_bits")}
        sizes.append(dict(read_point=li, shape=list(shape), filters=filters, classes=classes))
    return sizes


def cmd_theory(cfg: dict, out: str) -> dict:
    network, dataset = _network_and_dataset(cfg)
    # FilterSelector layers index the CENT read points
    read_shapes = [network.layer_shapes[i] for i in net.cent_read_points(network.specs)]
    part_layer = cfg["partition_layer"]
    if not 0 <= part_layer < len(read_shapes):
        raise ConfigError(f"partition_layer {part_layer} out of range: the network has "
                          f"read points 0..{len(read_shapes) - 1}")
    conv_layers = [i for i, shape in enumerate(read_shapes) if len(shape) >= 2]
    clock = time.perf_counter
    start = clock()
    acts = net.forward_collect(network, dataset.images)  # the one pass every check reads
    forward_done = clock()
    labels = dataset.labels
    conditioning = []
    for layer in conv_layers:
        sel = infotheory.FilterSelector(layer)
        expected = infotheory.expected_cent(acts, labels, sel, cfg["bins"])
        pooled = infotheory.pooled_unconditional_entropy(acts, labels, sel, cfg["bins"])
        conditioning.append({"layer": layer, "expected_cent": expected,
                             "pooled_entropy": pooled,
                             "reduced": bool(expected <= pooled + 1e-9)})

    classes = [int(c) for c in np.unique(labels)]
    partition = (tuple(classes[:1]), tuple(classes[1:]))
    # the given filter, else the one with the widest entropy gap between the two sides
    shape = read_shapes[part_layer]
    candidates = ([cfg["partition_filter"]] if cfg["partition_filter"] is not None
                  else range(shape[0] if len(shape) >= 2 else 1))
    reports = [infotheory.partition_check(
        acts, labels, infotheory.FilterSelector(part_layer, (f,)), partition, cfg["bins"])
        for f in candidates]
    best = int(np.argmax([abs(r.h_informative - r.h_uninformative) for r in reports]))
    checks_done = clock()

    chain = data_io.generate_markov_chain(
        cfg["chain_n"], cfg["noise_levels"], cfg["quantizer_levels"],
        cfg["chain_classes"], cfg["chain_seed"])
    dpi = infotheory.dpi_check(chain, slack=cfg["slack"])
    dpi_done = clock()

    result = {
        "command": "theory",
        "config": cfg,
        "images": len(labels),
        "images_per_class": dict(zip(dataset.class_names, np.bincount(
            labels, minlength=len(dataset.class_names)).tolist())),
        "conditioning": conditioning,
        "partition": {"layer": part_layer, "filter": candidates[best],
                      **dataclasses.asdict(reports[best])},
        "dpi": {**dataclasses.asdict(dpi), "samples": cfg["chain_n"],
                "noise_levels": cfg["noise_levels"],
                "quantizer_levels": cfg["quantizer_levels"]},
    }
    report_path = os.path.join(out, "theory_report.json")
    framing.write_text(report_path, json.dumps(result, indent=2, sort_keys=True) + "\n")
    result["report"] = report_path
    # stdout only: the report file above holds neither sizes, counters nor times
    result["read_points"] = _class_histogram_sizes(
        read_shapes, sorted({*conv_layers, part_layer}), result["images_per_class"], cfg["bins"])
    n = len(dataset.images)
    result["counters"] = {"images": len(labels), "forward_passes": n,
                          # the processes forward_collect ran its chunks in
                          "workers": net._collect_processes(network, n)}
    result["timings"] = {"forward_s": round(forward_done - start, 6),
                         "checks_s": round(checks_done - forward_done, 6),
                         "dpi_s": round(dpi_done - checks_done, 6),
                         "write_s": round(clock() - dpi_done, 6)}
    return result


class Option(NamedTuple):
    kind: Callable  # the flag's parser; bool gives an --x/--no-x pair
    default: object
    help: str
    choices: tuple | None = None


OPTIONS = {
    "out": Option(str, None, "output directory"),
    "seed": Option(int, 0, "primary seed for this subcommand"),
    "class_count": Option(int, 2, "number of classes"),
    "extent": Option(int, 32, "image side in pixels"),
    "per_class": Option(int, 50, "images per class"),
    "noise_scale": Option(_floats, [0.1, 0.4], "noise scale per class, 'a,b'"),
    "spatial_frequency": Option(_floats, [0.0, 6.0], "spatial frequency per class, 'a,b'"),
    "blob_density": Option(_floats, [0.5, 0.1], "blob density per class, 'a,b'"),
    "null_generator": Option(bool, False, "give every class the same generator"),
    "data": Option(str, None, "dataset directory or manifest.csv"),
    "arch": Option(str, "desk2d", "network architecture", ("desk2d", "reference3d")),
    "variant": Option(str, "pool-reduces", "reference3d variant", net.REFERENCE_VARIANTS),
    "net_seed": Option(int, 0, "seed of the initial weights"),
    "learning_rate": Option(float, 0.05, "SGD learning rate"),
    "epochs": Option(int, 15, "training epochs"),
    "batch_size": Option(int, 10, "mini-batch size"),
    "shuffle": Option(bool, True, "shuffle the training set every epoch"),
    "checkpoint": Option(str, None, "checkpoint file from train"),
    "dump": Option(str, None, "activation-dump directory (alternative source)"),
    "mode": Option(str, "per-filter", "entropy per filter or layer", ("per-filter", "per-layer")),
    "bins": Option(int, 256, "histogram bins"),
    "range": Option(_range, "minmax", "histogram range: 'minmax' or 'lo,hi'"),
    "pre_relu": Option(bool, False, "read activations before the ReLU"),
    "dump_out": Option(str, None, "also export the activation dump here"),
    "features": Option(str, None, "features CSV from extract"),
    "tree_count": Option(int, 100, "trees per forest"),
    "mtry": Option(_opt_int, None, "features tried per split (none: floor(sqrt(features)))"),
    "max_depth": Option(_opt_int, None, "tree depth limit (none: unlimited)"),
    "min_leaf": Option(int, 1, "fewest samples in a leaf"),
    "bootstrap": Option(bool, True, "grow each tree on a bootstrap resample"),
    "criterion": Option(str, "gini", "split criterion", forest.CRITERIA),
    "k": Option(int, 5, "cross-validation folds"),
    "fold_seed": Option(int, 0, "seed of the fold assignment"),
    "stratified": Option(bool, True, "keep the class proportions in every fold"),
    "perm_seed": Option(_opt_int, None, "seed of the label shuffle (none: no shuffle)"),
    "chain_n": Option(int, 100000, "Markov-chain samples of the DPI check"),
    "noise_levels": Option(int, 12, "noise levels of the chain's x"),
    "quantizer_levels": Option(_opt_int, 4, "quantizer levels of the chain's y (none: identity)"),
    "chain_classes": Option(int, 2, "classes of the chain"),
    "chain_seed": Option(int, 0, "seed of the chain"),
    "slack": Option(float, 0.02, "DPI tolerance in bits"),
    "partition_layer": Option(int, 0, "read point of the partition check"),
    "partition_filter": Option(_opt_int, None, "partition-check filter (none: widest gap)"),
}


class Command(NamedTuple):
    help: str
    handler: Callable
    keys: tuple  # its config keys after out, in flag order


_FOREST = ("seed", "features", "tree_count", "mtry", "max_depth", "min_leaf", "bootstrap",
           "criterion", "k", "fold_seed", "stratified")

COMMANDS = {
    "synth": Command("generate a synthetic labeled dataset", cmd_synth, (
        "seed", "class_count", "extent", "per_class", "noise_scale", "spatial_frequency",
        "blob_density", "null_generator")),
    "train": Command("train a network on a dataset directory", cmd_train, (
        "seed", "data", "arch", "variant", "net_seed", "learning_rate", "epochs",
        "batch_size", "shuffle")),
    "extract": Command("extract CENT features to CSV", cmd_extract, (
        "checkpoint", "data", "dump", "mode", "bins", "range", "pre_relu", "dump_out")),
    "evaluate": Command("cross-validated forest AUC on features", cmd_evaluate, _FOREST),
    "permute": Command("label-permutation null control", cmd_evaluate, (*_FOREST, "perm_seed")),
    "theory": Command("run the information-theoretic checks on a trained network", cmd_theory, (
        "checkpoint", "data", "bins", "chain_n", "noise_levels", "quantizer_levels",
        "chain_classes", "chain_seed", "slack", "partition_layer", "partition_filter")),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="centpipe",
        description="Train small CNNs, extract conditional-entropy features, "
                    "classify with a random forest, and check the underlying "
                    "information-theoretic claims.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        # a flag not given sets no attribute, so it cannot mask a config-file value
        p = sub.add_parser(name, help=command.help, argument_default=argparse.SUPPRESS)
        p.add_argument("--config", default=None,
                       help="JSON config file (flat or per-subcommand sections)")
        for key in ("out", *command.keys):
            opt = OPTIONS[key]
            kind = ({"action": argparse.BooleanOptionalAction} if opt.kind is bool
                    else {"type": opt.kind, "choices": opt.choices})
            p.add_argument("--" + key.replace("_", "-"), **kind, help=opt.help)
        p.set_defaults(handler=command.handler)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve(args)
        summary = args.handler(cfg, _require_out(cfg))
    except (ConfigError, ValueError, FileNotFoundError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - boundary between library and shell
        print(f"runtime failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
