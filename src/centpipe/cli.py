"""Batch command-line interface: synth, train, extract, evaluate, permute,
theory. File/console in-out only.

Configuration resolves in three layers: built-in defaults, then the --config
JSON file (either flat or holding a section named after the subcommand), then
explicit flags. The resolved config is echoed to stderr and embedded in the
JSON summary printed to stdout. Exit codes: 0 success, 1 runtime failure,
2 config or contract error. All outputs are deterministic: re-running a
subcommand with the same config produces byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import data_io, evaluation, forest, framing, infotheory, net


class ConfigError(Exception):
    """Bad flag, config key, or input path: exit code 2."""


def _load_config_file(path, section: str) -> dict:
    try:
        with open(path, "r") as f:
            raw = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {path} is not valid JSON: {e}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    if section in raw and isinstance(raw[section], dict):
        return raw[section]
    return raw


def _resolve(defaults: dict, args: argparse.Namespace) -> dict:
    cfg = dict(defaults)
    if args.config is not None:
        file_cfg = _load_config_file(args.config, args.command)
        unknown = sorted(set(file_cfg) - set(defaults))
        if unknown:
            raise ConfigError(f"unknown config keys for {args.command}: {unknown}")
        cfg.update(file_cfg)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    print("resolved config: " + json.dumps(cfg, sort_keys=True), file=sys.stderr)
    return cfg


def _require_out(cfg: dict) -> str:
    if not cfg.get("out"):
        raise ConfigError("an output directory is required (--out)")
    os.makedirs(cfg["out"], exist_ok=True)
    return cfg["out"]


def _csv_floats(s: str) -> list:
    return [float(x) for x in s.split(",")]


def _opt_int(s: str):
    return None if s.lower() in ("none", "null") else int(s)


def _parse_range(value):
    """'minmax', 'lo,hi', or a two-element list from a config file."""
    if isinstance(value, str):
        if value == "minmax":
            return "minmax"
        parts = value.split(",")
        if len(parts) != 2:
            raise ConfigError(f"range must be 'minmax' or 'lo,hi', got {value!r}")
        return (float(parts[0]), float(parts[1]))
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return (float(value[0]), float(value[1]))
    raise ConfigError(f"range must be 'minmax' or a (lo, hi) pair, got {value!r}")


SYNTH_DEFAULTS = {
    "out": None, "seed": 0, "class_count": 2, "extent": 32, "per_class": 50,
    "noise_scale": [0.1, 0.4], "spatial_frequency": [0.0, 6.0],
    "blob_density": [0.5, 0.1], "null_generator": False,
}


def cmd_synth(args) -> dict:
    cfg = _resolve(SYNTH_DEFAULTS, args)
    out = _require_out(cfg)
    spec = data_io.SyntheticSpec(
        class_count=cfg["class_count"], extent=cfg["extent"],
        per_class=cfg["per_class"], seed=cfg["seed"],
        noise_scale=tuple(cfg["noise_scale"]),
        spatial_frequency=tuple(cfg["spatial_frequency"]),
        blob_density=tuple(cfg["blob_density"]),
        null_generator=cfg["null_generator"])
    dataset = data_io.generate_synthetic(spec)
    data_io.save_dataset(dataset, out)
    return {"command": "synth", "config": cfg,
            "images": len(dataset.images),
            "classes": list(dataset.class_names),
            "manifest": os.path.join(out, "manifest.csv")}


TRAIN_DEFAULTS = {
    "out": None, "data": None, "arch": "desk2d", "variant": "pool-reduces",
    "net_seed": 0, "learning_rate": 0.05, "epochs": 15, "batch_size": 10,
    "seed": 0, "shuffle": True,
}


def _epoch_reporter():
    """net.train callback printing one JSON line per epoch to stderr (epoch,
    mean loss, wall seconds of that epoch). Times go to stderr only, never
    into an output file."""
    last = time.perf_counter()

    def report(epoch: int, mean_loss: float) -> None:
        nonlocal last
        now = time.perf_counter()
        print(json.dumps({"epoch": epoch, "mean_loss": mean_loss,
                          "seconds": round(now - last, 6)}), file=sys.stderr, flush=True)
        last = now
    return report


def cmd_train(args) -> dict:
    cfg = _resolve(TRAIN_DEFAULTS, args)
    out = _require_out(cfg)
    if not cfg["data"]:
        raise ConfigError("a dataset is required (--data)")
    dataset = data_io.load_dataset(cfg["data"])
    classes = len(dataset.class_names)
    shape = dataset.images.shape[1:]
    if cfg["arch"] == "desk2d":
        if len(shape) != 3 or shape[0] != 1 or shape[1] != shape[2]:
            raise ConfigError(f"desk2d expects (1, e, e) images, got {shape}")
        network = net.build_desk_2d(shape[1], classes, seed=cfg["net_seed"])
    elif cfg["arch"] == "reference3d":
        network = net.build_reference_3d(cfg["variant"], seed=cfg["net_seed"])
        if shape != network.input_shape:
            raise ConfigError(f"reference3d expects {network.input_shape} images, got {shape}")
    else:
        raise ConfigError(f"arch must be desk2d or reference3d, got {cfg['arch']!r}")
    train_cfg = net.TrainConfig(cfg["learning_rate"], cfg["epochs"],
                                cfg["batch_size"], cfg["seed"], cfg["shuffle"])
    clock = time.perf_counter
    start = clock()
    network, trace = net.train(network, dataset, train_cfg, on_epoch=_epoch_reporter())
    trained = clock()
    ckpt = os.path.join(out, "checkpoint.ckpt")
    net.save_checkpoint(network, ckpt)
    framing.write_text(os.path.join(out, "loss_trace.csv"), "epoch,mean_loss\n" + "".join(
        f"{e},{v!r}\n" for e, v in enumerate(trace)))
    # every mini-batch runs one forward+backward call per chunk of it
    n, chunk = len(dataset.images), net._chunk_size(network)
    batches = [min(train_cfg.batch_size, n - lo) for lo in range(0, n, train_cfg.batch_size)]
    return {"command": "train", "config": cfg, "checkpoint": ckpt,
            "epochs": len(trace), "final_loss": trace[-1],
            "counters": {"samples_trained": len(trace) * n,
                         "chunks": len(trace) * sum(-(-b // chunk) for b in batches)},
            "timings": {"train_s": round(trained - start, 6), "save_s": round(clock() - trained, 6)}}


EXTRACT_DEFAULTS = {
    "out": None, "checkpoint": None, "data": None, "dump": None,
    "mode": "per-filter", "bins": 256, "range": "minmax",
    "pre_relu": False, "dump_out": None,
}


def cmd_extract(args) -> dict:
    """CENT features from a checkpoint and dataset, one forward_collect chunk
    at a time (each chunk's activations also feed --dump-out), or from an
    activation dump in chunks of the same bound."""
    cfg = _resolve(EXTRACT_DEFAULTS, args)
    out = _require_out(cfg)
    rng_mode = _parse_range(cfg["range"])
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
        chunk = max(1, net._CHUNK_ELEMENTS // max(a.size for a in dump.activations[0]))

        def activations(lo):
            return [np.stack(layer) for layer in zip(*dump.activations[lo:lo + chunk])]
    else:
        if not cfg["checkpoint"] or not cfg["data"]:
            raise ConfigError("provide either --dump or both --checkpoint and --data")
        network = net.load_checkpoint(cfg["checkpoint"])
        dataset = data_io.load_dataset(cfg["data"])
        ids, labels, class_names = dataset.image_ids, dataset.labels, dataset.class_names
        chunk = net._chunk_size(network)

        def activations(lo):
            return infotheory.forward_collect(network, dataset.images[lo:lo + chunk],
                                              pre_relu=cfg["pre_relu"])
    dump_writer = data_io.ActivationDumpWriter(cfg["dump_out"]) if cfg["dump_out"] else None
    seconds = {"forward": 0.0, "cent": 0.0, "write": 0.0}
    clock = time.perf_counter
    blocks = []
    for lo in range(0, len(ids), chunk):
        start = clock()
        acts = activations(lo)
        forward_done = clock()
        read_shapes = [a.shape[1:] for a in acts]
        blocks.append(infotheory.cent_rows(acts, cfg["mode"], cfg["bins"], rng_mode,
                                           ids[lo:lo + chunk]))
        cent_done = clock()
        if dump_writer:
            dump_writer.write_chunk(ids[lo:lo + chunk], acts)
        del acts  # not held while the next chunk runs
        seconds["forward"] += forward_done - start
        seconds["cent"] += cent_done - forward_done
        seconds["write"] += clock() - cent_done
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
            "counters": {"forward_passes": 0 if from_dump else len(blocks), "images": len(ids),
                         "histogram_rows": len(ids) * sum(
                             s["histograms_per_image"] for s in sizes)},
            "timings": {f"{k}_s": round(v, 6) for k, v in seconds.items()}}


EVALUATE_DEFAULTS = {
    "out": None, "features": None, "tree_count": 100, "mtry": None,
    "max_depth": None, "min_leaf": 1, "seed": 0, "bootstrap": True,
    "criterion": "gini", "k": 5, "fold_seed": 0, "stratified": True,
}

PERMUTE_DEFAULTS = dict(EVALUATE_DEFAULTS, perm_seed=None)


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


def cmd_evaluate(args) -> dict:
    """evaluate, and permute: the same cross-validation after a seeded label
    shuffle (perm_seed None, evaluate's case, is the identity)."""
    permute = args.command == "permute"
    cfg = _resolve(PERMUTE_DEFAULTS if permute else EVALUATE_DEFAULTS, args)
    out = _require_out(cfg)
    _, labels, matrix = _load_binary_features(cfg)
    perm_seed = cfg.get("perm_seed")
    metrics = evaluation.permutation_baseline(
        matrix, labels, _forest_config(cfg), k=cfg["k"], fold_seed=cfg["fold_seed"],
        stratified=cfg["stratified"], perm_seed=perm_seed)
    summary = {"command": args.command, "config": cfg,
               "files": _write_eval_outputs(out, metrics, permutation_seed=perm_seed),
               "per_fold_auc": list(metrics.per_fold_auc), "mean_auc": metrics.mean_auc}
    if permute:
        summary["perm_seed"] = perm_seed
    return summary


THEORY_DEFAULTS = {
    "out": None, "checkpoint": None, "data": None, "bins": 256,
    "chain_n": 100000, "noise_levels": 12, "quantizer_levels": 4,
    "chain_classes": 2, "chain_seed": 0, "slack": 0.02,
    "seed": 0, "extent": 32, "per_class": 30, "epochs": 6,
    "learning_rate": 0.05, "batch_size": 10,
    "partition_layer": 0, "partition_filter": None,
}


def _theory_network_and_data(cfg: dict):
    """Use the given checkpoint/dataset, or self-train a small stack on a
    fresh synthetic set so the theory checks always have a subject."""
    if cfg["checkpoint"] and cfg["data"]:
        return net.load_checkpoint(cfg["checkpoint"]), data_io.load_dataset(cfg["data"])
    if cfg["checkpoint"] or cfg["data"]:
        raise ConfigError("provide both --checkpoint and --data, or neither")
    spec = data_io.SyntheticSpec(extent=cfg["extent"], per_class=cfg["per_class"],
                                 seed=cfg["seed"])
    dataset = data_io.generate_synthetic(spec)
    network = net.build_desk_2d(cfg["extent"], 2, seed=cfg["seed"])
    train_cfg = net.TrainConfig(cfg["learning_rate"], cfg["epochs"],
                                cfg["batch_size"], cfg["seed"])
    network, _ = net.train(network, dataset, train_cfg)
    return network, dataset


def cmd_theory(args) -> dict:
    cfg = _resolve(THEORY_DEFAULTS, args)
    out = _require_out(cfg)
    network, dataset = _theory_network_and_data(cfg)

    # FilterSelector layers index the CENT read points
    read_shapes = [network.layer_shapes[i] for i in net.cent_read_points(network.specs)]
    part_layer = cfg["partition_layer"]
    if not 0 <= part_layer < len(read_shapes):
        raise ConfigError(f"partition_layer {part_layer} out of range: the network has "
                          f"read points 0..{len(read_shapes) - 1}")
    conv_layers = [i for i, shape in enumerate(read_shapes) if len(shape) >= 2]
    acts = net.forward_collect(network, dataset.images)  # the one pass every check reads
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
    if cfg["partition_filter"] is None:
        # pick the filter with the widest entropy gap between the two sides
        shape = read_shapes[part_layer]
        reports = [infotheory.partition_check(
            acts, labels, infotheory.FilterSelector(part_layer, (f,)), partition, cfg["bins"])
            for f in range(shape[0] if len(shape) >= 2 else 1)]
        gaps = [abs(r.h_informative - r.h_uninformative) for r in reports]
        chosen = int(np.argmax(gaps))
        report = reports[chosen]
    else:
        chosen = cfg["partition_filter"]
        report = infotheory.partition_check(
            acts, labels, infotheory.FilterSelector(part_layer, (chosen,)),
            partition, cfg["bins"])

    chain = data_io.generate_markov_chain(
        cfg["chain_n"], cfg["noise_levels"], cfg["quantizer_levels"],
        cfg["chain_classes"], cfg["chain_seed"])
    dpi = infotheory.dpi_check(chain, slack=cfg["slack"])

    result = {
        "command": "theory",
        "config": cfg,
        "conditioning": conditioning,
        "partition": {
            "layer": part_layer, "filter": chosen,
            "partition": [list(partition[0]), list(partition[1])],
            "h_informative": report.h_informative,
            "h_uninformative": report.h_uninformative,
            "p_informative": report.p_informative,
            "p_uninformative": report.p_uninformative,
            "h_conditional": report.h_conditional,
            "decomposition_residual": report.decomposition_residual,
            "inequality_holds": report.inequality_holds,
        },
        "dpi": {
            "i_xc": dpi.i_xc, "i_yc": dpi.i_yc, "holds": dpi.holds,
            "slack": dpi.slack, "samples": cfg["chain_n"],
            "noise_levels": cfg["noise_levels"],
            "quantizer_levels": cfg["quantizer_levels"],
        },
    }
    report_path = os.path.join(out, "theory_report.json")
    framing.write_text(report_path, json.dumps(result, indent=2, sort_keys=True) + "\n")
    result["report"] = report_path
    return result


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="centpipe",
        description="Train small CNNs, extract conditional-entropy features, "
                    "classify with a random forest, and check the underlying "
                    "information-theoretic claims.")
    sub = parser.add_subparsers(dest="command", required=True)
    boolopt = argparse.BooleanOptionalAction

    def common(p):
        p.add_argument("--config", help="JSON config file (flat or per-subcommand sections)")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int, help="primary seed for this subcommand")

    p = sub.add_parser("synth", help="generate a synthetic labeled dataset")
    common(p)
    p.add_argument("--class-count", dest="class_count", type=int)
    p.add_argument("--extent", type=int)
    p.add_argument("--per-class", dest="per_class", type=int)
    p.add_argument("--noise-scale", dest="noise_scale", type=_csv_floats)
    p.add_argument("--spatial-frequency", dest="spatial_frequency", type=_csv_floats)
    p.add_argument("--blob-density", dest="blob_density", type=_csv_floats)
    p.add_argument("--null-generator", dest="null_generator", action=boolopt, default=None)
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("train", help="train a network on a dataset directory")
    common(p)
    p.add_argument("--data", help="dataset directory or manifest.csv")
    p.add_argument("--arch", choices=["desk2d", "reference3d"])
    p.add_argument("--variant", choices=list(net.REFERENCE_VARIANTS))
    p.add_argument("--net-seed", dest="net_seed", type=int)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--shuffle", action=boolopt, default=None)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("extract", help="extract CENT features to CSV")
    common(p)
    p.add_argument("--checkpoint")
    p.add_argument("--data", help="dataset directory or manifest.csv")
    p.add_argument("--dump", help="activation-dump directory (alternative source)")
    p.add_argument("--mode", choices=["per-filter", "per-layer"])
    p.add_argument("--bins", type=int)
    p.add_argument("--range", help="'minmax' or 'lo,hi'")
    p.add_argument("--pre-relu", dest="pre_relu", action=boolopt, default=None)
    p.add_argument("--dump-out", dest="dump_out",
                   help="also export the activation dump here")
    p.set_defaults(handler=cmd_extract)

    def eval_flags(p):
        common(p)
        p.add_argument("--features", help="features CSV from extract")
        p.add_argument("--tree-count", dest="tree_count", type=int)
        p.add_argument("--mtry", type=_opt_int)
        p.add_argument("--max-depth", dest="max_depth", type=_opt_int)
        p.add_argument("--min-leaf", dest="min_leaf", type=int)
        p.add_argument("--bootstrap", action=boolopt, default=None)
        p.add_argument("--criterion", choices=list(forest.CRITERIA))
        p.add_argument("--k", type=int)
        p.add_argument("--fold-seed", dest="fold_seed", type=int)
        p.add_argument("--stratified", action=boolopt, default=None)

    p = sub.add_parser("evaluate", help="cross-validated forest AUC on features")
    eval_flags(p)
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("permute", help="label-permutation null control")
    eval_flags(p)
    p.add_argument("--perm-seed", dest="perm_seed", type=_opt_int)
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("theory", help="run the information-theoretic checks")
    common(p)
    p.add_argument("--checkpoint")
    p.add_argument("--data", help="dataset directory or manifest.csv")
    p.add_argument("--bins", type=int)
    p.add_argument("--chain-n", dest="chain_n", type=int)
    p.add_argument("--noise-levels", dest="noise_levels", type=int)
    p.add_argument("--quantizer-levels", dest="quantizer_levels", type=_opt_int)
    p.add_argument("--chain-classes", dest="chain_classes", type=int)
    p.add_argument("--chain-seed", dest="chain_seed", type=int)
    p.add_argument("--slack", type=float)
    p.add_argument("--extent", type=int)
    p.add_argument("--per-class", dest="per_class", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--partition-layer", dest="partition_layer", type=int)
    p.add_argument("--partition-filter", dest="partition_filter", type=_opt_int)
    p.set_defaults(handler=cmd_theory)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        summary = args.handler(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, FileNotFoundError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - boundary between library and shell
        print(f"runtime failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
