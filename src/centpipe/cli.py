"""Batch command-line interface: synth, train, extract, evaluate, permute,
theory. File/console in-out only.

OPTIONS declares every option once and COMMANDS every subcommand; the parser,
the defaults and the config-file check are built from them. The config takes
the defaults, then the --config JSON file, then explicit flags; it is echoed
to stderr and embedded in the JSON summary printed to stdout. Exit codes: 0
success; 2 config or contract error (ConfigError, ValueError,
FileNotFoundError, IsADirectoryError, NotADirectoryError, KeyError); 1 any
other failure. Re-running a subcommand with the same config produces
byte-identical files. `theory` and `extract` read the trained network and the
dataset from --checkpoint and --data (`extract` from --dump instead); nothing
here trains a network but `train`.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
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
    """{subcommand: its values} of a config file, each value read by
    _file_value. The file is flat, or sectioned when a top-level key names
    a subcommand: the running one takes only its own section, or nothing
    when that is absent. Every section (a flat file is `command`'s) must be
    an object of its keys whose values those keys take."""
    try:
        with open(path, "r") as f:
            raw = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except ValueError as e:
        raise ConfigError(f"config file {path} is not valid JSON: {e}") from None
    sections = raw if isinstance(raw, dict) and set(raw) & set(COMMANDS) else {command: raw}
    stray = sorted(set(sections) - set(COMMANDS))
    if stray:
        raise ConfigError(f"config file {path} mixes subcommand sections with keys {stray}")
    values = {}
    for name, section in sections.items():
        if not isinstance(section, dict):
            raise ConfigError(f"config file {path} must hold a JSON object for {name}")
        unknown = sorted(set(section) - {"out", *COMMANDS[name].keys})
        if unknown:
            raise ConfigError(f"unknown config keys for {name} in {path}: {unknown}")
        values[name] = {key: _file_value(key, value) for key, value in section.items()}
    return values


def _resolve(args: argparse.Namespace) -> dict:
    spec = COMMANDS[args.command]
    cfg = {key: OPTIONS[key].default for key in ("out", *spec.keys)}
    sections = {} if args.config is None else _load_config_file(args.config, args.command)
    cfg.update(sections.get(args.command, {}))
    cfg.update((key, value) for key, value in vars(args).items() if key in cfg)
    for values in (cfg, *sections.values()):  # numpy's generators take no negative seed
        for key, value in values.items():
            if key.endswith("seed") and value is not None and value < 0:
                raise ConfigError(f"{key} must be >= 0, got {value}")
    print("resolved config: " + json.dumps(cfg, sort_keys=True), file=sys.stderr)
    return cfg


def _require_out(cfg: dict) -> str:
    if not cfg.get("out"):
        raise ConfigError("an output directory is required (--out)")
    if os.path.exists(cfg["out"]) and not os.path.isdir(cfg["out"]):
        raise ConfigError(f"--out {cfg['out']} is a file, not a directory")
    os.makedirs(cfg["out"], exist_ok=True)
    return cfg["out"]


def _network_and_dataset(cfg: dict):
    """The trained network and the dataset given by --checkpoint and --data,
    whose images the network must take."""
    if not cfg["checkpoint"] or not cfg["data"]:
        raise ConfigError("provide both --checkpoint and --data")
    network, dataset = net.load_checkpoint(cfg["checkpoint"]), data_io.load_dataset(cfg["data"])
    if dataset.images.shape[1:] != network.input_shape:
        raise ConfigError(f"{cfg['data']} holds {dataset.images.shape[1:]} images; the "
                          f"checkpoint's network takes {network.input_shape}")
    return network, dataset


def _from_options(cls, cfg: dict):
    """The dataclass cls with each field set from the option of its name, a
    list value as a tuple: SyntheticSpec, TrainConfig and ForestConfig."""
    return cls(**{f.name: tuple(cfg[f.name]) if isinstance(cfg[f.name], list) else cfg[f.name]
                  for f in dataclasses.fields(cls)})


def cmd_synth(cfg: dict, out: str) -> dict:
    spec = _from_options(data_io.SyntheticSpec, cfg)
    clock = time.perf_counter
    start = clock()
    dataset = data_io.generate_synthetic(spec)
    generated = clock()
    bytes_written = data_io.save_dataset(dataset, out)
    return {"images": len(dataset.images), "classes": list(dataset.class_names),
            "manifest": os.path.join(out, "manifest.csv"),
            "counters": {"images": len(dataset.images), "bytes_written": bytes_written},
            "timings": {"generate_s": round(generated - start, 6),
                        "write_s": round(clock() - generated, 6)}}


class _EpochReporter:
    """net.train callback printing one JSON line per epoch to stderr (epoch,
    mean loss, wall seconds of that epoch, and the minor page faults during
    it of this process and its workers, which workers.map reaps before a
    batch ends), and keeping for the stdout summary the training workspace's
    latest size, the most processes a batch ran in and the sum of the chunk
    passes. Times, faults, sizes and counts never reach an output file."""

    def __init__(self):
        self.last, self.last_faults = time.perf_counter(), self._faults()
        self.workspace_bytes, self.workers, self.chunks = 0, 1, 0

    @staticmethod
    def _faults() -> int:
        return sum(resource.getrusage(who).ru_minflt
                   for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))

    def __call__(self, epoch: int, mean_loss: float, workspace_bytes: int,
                 processes: int, chunks: int) -> None:
        now, faults = time.perf_counter(), self._faults()
        print(json.dumps({"epoch": epoch, "mean_loss": mean_loss,
                          "seconds": round(now - self.last, 6),
                          "minor_faults": faults - self.last_faults}),
              file=sys.stderr, flush=True)
        self.last, self.last_faults = now, faults
        self.workspace_bytes = workspace_bytes
        self.workers = max(self.workers, processes)
        self.chunks += chunks


def cmd_train(cfg: dict, out: str) -> dict:
    if cfg["arch"] == "desk2d" and cfg["variant"] != OPTIONS["variant"].default:
        raise ConfigError(f"--variant {cfg['variant']} has no effect with desk2d: only "
                          "reference3d has variants")
    train_cfg = _from_options(net.TrainConfig, cfg)
    if not cfg["data"]:
        raise ConfigError("a dataset is required (--data)")
    dataset = data_io.load_dataset(cfg["data"])
    shape = dataset.images.shape[1:]
    if cfg["arch"] == "desk2d":  # at the last extent; a rank-0 set's 0 is refused there
        network = net.build_desk_2d(shape[-1] if shape else 0, len(dataset.class_names),
                                    seed=cfg["net_seed"])
    else:  # reference3d: the parser and the config check allow no other arch
        network = net.build_reference_3d(cfg["variant"], seed=cfg["net_seed"])
    if shape != network.input_shape:
        raise ConfigError(f"{cfg['arch']} expects {network.input_shape} images, got {shape}")
    clock = time.perf_counter
    start = clock()
    reporter = _EpochReporter()
    network, trace = net.train(network, dataset, train_cfg, on_epoch=reporter)
    trained = clock()
    ckpt = os.path.join(out, "checkpoint.ckpt")
    net.save_checkpoint(network, ckpt)
    framing.write_text(os.path.join(out, "loss_trace.csv"), "epoch,mean_loss\n" + "".join(
        f"{e},{v!r}\n" for e, v in enumerate(trace)))
    return {"checkpoint": ckpt, "epochs": len(trace), "final_loss": trace[-1],
            "counters": {"samples_trained": len(trace) * len(dataset.images),
                         "chunks": reporter.chunks, "workspace_bytes": reporter.workspace_bytes,
                         "workers": reporter.workers},
            "timings": {"train_s": round(trained - start, 6), "save_s": round(clock() - trained, 6)}}


def cmd_extract(cfg: dict, out: str) -> dict:
    """CENT features from a checkpoint and dataset, one forward_collect chunk
    at a time, or from an activation dump in chunks of the same bound. Each
    chunk's process writes its --dump-out tensors and hands back only its
    CENT rows; the CSV and the dump's manifest are written last, here."""
    infotheory.check_binning(cfg["bins"], cfg["range"])
    from_dump = cfg["dump"] is not None
    if from_dump == (cfg["checkpoint"] is not None or cfg["data"] is not None):
        raise ConfigError("provide either --dump or both --checkpoint and --data")
    if from_dump and cfg["dump_out"]:
        raise ConfigError("--dump-out needs --checkpoint and --data; --dump is already a dump")
    if cfg["dump_out"] and cfg["data"] and os.path.realpath(os.path.join(
            cfg["dump_out"], "manifest.csv")) in map(os.path.realpath, (
            cfg["data"], os.path.join(cfg["data"], "manifest.csv"))):
        raise ConfigError("--dump-out names the --data directory: the dump would replace its "
                          "manifest")
    if cfg["dump_out"] and os.path.exists(cfg["dump_out"]) and not os.path.isdir(cfg["dump_out"]):
        raise ConfigError(f"--dump-out {cfg['dump_out']} is a file, not a directory")
    if from_dump and cfg["pre_relu"]:
        raise ConfigError("--pre-relu has no effect with --dump: the dump holds the "
                          "activations it was exported with")
    if from_dump:
        ids, labels, class_names, files = data_io.import_activation_dump(cfg["dump"])
        read_shapes = [a.shape[1:] for a in data_io.stack_tensors(ids[:1], files[:1])]
        parts = net._chunks(read_shapes, len(ids))
        processes = 1  # no forward pass: forking it was not measured to pay

        def activations(rows):
            return data_io.stack_tensors(ids[rows], files[rows], read_shapes)
    else:
        network, dataset = _network_and_dataset(cfg)
        ids, labels, class_names = dataset.image_ids, dataset.labels, dataset.class_names
        read_shapes = [network.layer_shapes[i]
                       for i in net.cent_read_points(network.specs, cfg["pre_relu"])]
        parts = net._chunks(network.sample_shapes, len(ids))
        processes = net._processes(network, len(ids))
        workspace = ops.Workspace()  # each process's chunks share its copy

        def activations(rows):
            return infotheory.forward_collect(network, dataset.images[rows],
                                              pre_relu=cfg["pre_relu"], workspace=workspace)
    clock = time.perf_counter
    dump_writer = data_io.ActivationDumpWriter(cfg["dump_out"]) if cfg["dump_out"] else None

    def features(rows):
        """A chunk's CENT rows and its forward, CENT and dump seconds; its
        activations, dumped here with --dump-out, never leave this process."""
        start = clock()
        acts = activations(rows)
        forward_done = clock()
        block = infotheory.cent_rows(acts, cfg["mode"], cfg["bins"], cfg["range"], ids[rows])
        cent_done = clock()
        if dump_writer:
            dump_writer.write_chunk(ids[rows], acts)
        return block, (forward_done - start, cent_done - forward_done, clock() - cent_done)

    blocks, spent = zip(*workers.map(features, parts, processes))
    seconds = dict(zip(("forward", "cent", "write"), map(sum, zip(*spent))))
    matrix = np.concatenate(blocks)
    start = clock()
    features_path = os.path.join(out, "features.csv")
    data_io.write_features_csv(features_path, ids, labels, matrix)
    if dump_writer:
        dump_writer.finish(ids, labels, class_names)
    seconds["write"] += clock() - start
    sizes = [dict(read_point=li, shape=list(shape), histograms_per_image=maps,
                  **infotheory.histogram_sizes(values, cfg["bins"]))
             for li, shape in enumerate(read_shapes)
             for maps, values in [infotheory.filter_maps(shape, cfg["mode"])]]
    return {"features": features_path,
            "rows": int(matrix.shape[0]), "feature_count": int(matrix.shape[1]),
            "read_points": sizes,
            "counters": {"forward_passes": 0 if from_dump else len(ids), "chunks": len(blocks),
                         "images": len(ids), "histogram_rows": len(ids) * sum(
                             s["histograms_per_image"] for s in sizes),
                         "workers": processes},
            "timings": {f"{k}_s": round(v, 6) for k, v in seconds.items()}}


def _load_binary_features(cfg: dict):
    if not cfg["features"]:
        raise ConfigError("a features CSV is required (--features)")
    ids, labels, matrix = data_io.read_features_csv(cfg["features"])
    present = np.unique(labels)
    if len(present) != 2 or set(present) != {0, 1}:
        raise ConfigError(f"evaluation requires binary 0/1 labels, "
                          f"got classes {present.tolist()}")
    return ids, labels, matrix


def _write_eval_outputs(out: str, metrics, permutation_seed=None) -> dict:
    files = {"metrics": os.path.join(out, "metrics.csv")}
    evaluation.write_metrics_csv(metrics, files["metrics"], permutation_seed=permutation_seed)
    curves = {f"roc_fold_{i}": fold for i, fold in
              enumerate(zip(metrics.fold_scores, metrics.fold_labels))}
    curves["roc_pooled"] = (np.concatenate(metrics.fold_scores),
                            np.concatenate(metrics.fold_labels))
    for name, (scores, labels) in curves.items():
        files[name] = os.path.join(out, f"{name}.csv")
        evaluation.write_roc_csv(evaluation.roc_curve(scores, labels), files[name])
    return files


def cmd_evaluate(cfg: dict, out: str) -> dict:
    """evaluate, and permute: the same cross-validation after a seeded label
    shuffle (perm_seed None, evaluate's case, is the identity)."""
    forest_cfg = _from_options(forest.ForestConfig, cfg)
    _, labels, matrix = _load_binary_features(cfg)
    perm_seed = cfg.get("perm_seed")
    clock = time.perf_counter
    start = clock()
    metrics = evaluation.permutation_baseline(
        matrix, labels, forest_cfg, k=cfg["k"],
        fold_seed=cfg["fold_seed"], stratified=cfg["stratified"], perm_seed=perm_seed)
    validated = clock()
    files = _write_eval_outputs(out, metrics, permutation_seed=perm_seed)
    summary = {"files": files, "per_fold_auc": list(metrics.per_fold_auc),
               "mean_auc": metrics.mean_auc, "counters": metrics.counters,
               "timings": {"cross_validate_s": round(validated - start, 6),
                           "write_s": round(clock() - validated, 6)}}
    if "perm_seed" in cfg:
        summary["perm_seed"] = perm_seed
    return summary


def cmd_theory(cfg: dict, out: str) -> dict:
    infotheory.check_binning(cfg["bins"])
    network, dataset = _network_and_dataset(cfg)
    labels = dataset.labels
    present = np.unique(labels)
    if len(present) < 2:
        raise ConfigError(f"{cfg['data']} holds one class, {dataset.class_names[present[0]]!r}: "
                          "the theory checks compare classes")
    # theory's layers index the CENT read points
    read_shapes = [network.layer_shapes[i] for i in net.cent_read_points(network.specs)]
    part_layer, part_filter = cfg["partition_layer"], cfg["partition_filter"]
    if not 0 <= part_layer < len(read_shapes):
        raise ConfigError(f"partition_layer {part_layer} out of range: the network has "
                          f"read points 0..{len(read_shapes) - 1}")
    filters = infotheory.filter_maps(read_shapes[part_layer], "per-filter")[0]
    if part_filter is not None and not 0 <= part_filter < filters:
        raise ConfigError(f"partition_filter {part_filter} out of range (layer has {filters})")
    conv_layers = [i for i, shape in enumerate(read_shapes) if len(shape) >= 2]
    clock = time.perf_counter
    start = clock()
    # the network-free DPI check first, so that its own checks refuse a bad
    # chain option or slack before the forward pass; its chain is freed here
    dpi = infotheory.dpi_check(data_io.generate_markov_chain(
        cfg["chain_n"], cfg["noise_levels"], cfg["quantizer_levels"],
        cfg["chain_classes"], cfg["chain_seed"]), slack=cfg["slack"])
    dpi_done = clock()
    acts = net.forward_collect(network, dataset.images)  # the one pass every check reads
    forward_done = clock()
    # every filter of a checked read point is binned once, and every check reads its table
    tables = {layer: infotheory.class_tables(acts, labels, layer, cfg["bins"])
              for layer in dict.fromkeys([*conv_layers, part_layer])}
    conditioning = []
    for layer in conv_layers:
        expected = infotheory.expected_cent(tables[layer])
        pooled = infotheory.pooled_unconditional_entropy(tables[layer])
        conditioning.append({"layer": layer, "expected_cent": expected,
                             "pooled_entropy": pooled,
                             "reduced": bool(expected <= pooled + 1e-9)})

    classes = tables[part_layer].classes
    partition = (tuple(classes[:1]), tuple(classes[1:]))
    # the given filter, else the one with the widest entropy gap between the two sides
    candidates = [part_filter] if part_filter is not None else range(filters)
    reports = [infotheory.partition_check(tables[part_layer], f, partition) for f in candidates]
    best = int(np.argmax([abs(r.h_informative - r.h_uninformative) for r in reports]))
    checks_done = clock()

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
    # stdout only: the report file above holds neither sizes, counters nor times;
    # a class's histogram of one filter holds that filter's values over its images
    result["read_points"] = [
        dict(read_point=li, shape=list(read_shapes[li]), filters=filters, classes={
            name: infotheory.histogram_sizes(count * values, cfg["bins"])
            for name, count in result["images_per_class"].items()})
        for li in sorted(tables)
        for filters, values in [infotheory.filter_maps(read_shapes[li], "per-filter")]]
    n = len(dataset.images)
    result["counters"] = {"images": len(labels), "forward_passes": n,
                          "histogram_tables": sum(len(t.counts) for t in tables.values()),
                          # the processes forward_collect ran its chunks in
                          "workers": net._processes(network, n)}
    result["timings"] = {"forward_s": round(forward_done - dpi_done, 6),
                         "checks_s": round(checks_done - forward_done, 6),
                         "dpi_s": round(dpi_done - start, 6),
                         "write_s": round(clock() - checks_done, 6)}
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
    "bins": Option(int, 256, "histogram bins, 2 to 131072"),
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
        summary.update(command=args.command, config=cfg)
    except (ConfigError, ValueError, FileNotFoundError, IsADirectoryError, NotADirectoryError,
            KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - boundary between library and shell
        print(f"runtime failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
