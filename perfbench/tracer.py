"""Pass-through span recorder for the traced benchmark run.

Wrappers are installed on public centpipe functions at the module attribute
each caller looks them up through, only for the traced run, and removed
afterwards. A wrapper calls the original with the same arguments and returns
its result unchanged; it records a span (name, start, end, parent span) and,
after the span has closed, a few counts read from the arguments or the
result. Nothing inside src/ is touched.
"""

from __future__ import annotations

import collections
import contextlib
import importlib
import json
import math
import os
import time

# Counters read from (args, kwargs, result) of a wrapped call. Each returns a
# dict of counter name -> amount to add.


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _conv_forward_flop(args, kwargs, result):
    filters = _arg(args, kwargs, 1, "filters")
    return {"ops.conv_forward.flop": 2 * result.size * math.prod(filters.shape[1:])}


def _conv_backward_flop(args, kwargs, result):
    # grad of filters and grad of input: each one multiply-add per output
    # element and filter tap
    grad_output = _arg(args, kwargs, 0, "grad_output")
    filters = _arg(args, kwargs, 2, "filters")
    return {"ops.conv_backward.flop": 4 * grad_output.size * math.prod(filters.shape[1:])}


def _samples_trained(args, kwargs, result):
    dataset = _arg(args, kwargs, 1, "dataset")
    config = _arg(args, kwargs, 2, "config")
    return {"net.samples_trained": config.epochs * len(dataset.images)}


def _histogram_values(args, kwargs, result):
    return {"infotheory.histogram_values": int(result.total)}


def _forest_size(args, kwargs, result):
    return {"forest.trees": len(result.trees),
            "forest.nodes": sum(len(tree.feature) for tree in result.trees)}


def _rows_predicted(args, kwargs, result):
    return {"forest.rows_predicted": len(result)}


def _dir_bytes(args, kwargs, result):
    out_dir = _arg(args, kwargs, 1, "out_dir")
    return {"data_io.bytes_written": sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(out_dir) for f in files)}


def _file_bytes(args, kwargs, result):
    return {"data_io.bytes_written": os.path.getsize(_arg(args, kwargs, 0, "path"))}


_OPS = ("conv_forward", "conv_backward", "relu", "relu_backward", "maxpool",
        "maxpool_backward", "fully_connected", "fully_connected_backward",
        "softmax_cross_entropy")

# (span name, module the caller looks the name up through, attribute, counter)
# The module is where the call site resolves the name: net calls ops.<op>,
# infotheory and data_io bind forward_collect at import, evaluation binds
# fit and predict_proba_many at import, and cli calls <module>.<function>.
WRAPPED = (
    [(f"ops.{op}", "centpipe.ops", op,
      {"conv_forward": _conv_forward_flop, "conv_backward": _conv_backward_flop}.get(op))
     for op in _OPS]
    + [
        ("net.train", "centpipe.net", "train", _samples_trained),
        ("net.save_checkpoint", "centpipe.net", "save_checkpoint", None),
        ("net.load_checkpoint", "centpipe.net", "load_checkpoint", None),
        ("infotheory.forward_collect", "centpipe.infotheory", "forward_collect", None),
        ("data_io.forward_collect", "centpipe.data_io", "forward_collect", None),
        ("infotheory.make_histogram", "centpipe.infotheory", "make_histogram", _histogram_values),
        ("infotheory.extract_cent_features", "centpipe.infotheory", "extract_cent_features", None),
        ("infotheory.expected_cent", "centpipe.infotheory", "expected_cent", None),
        ("infotheory.pooled_unconditional_entropy", "centpipe.infotheory",
         "pooled_unconditional_entropy", None),
        ("infotheory.partition_check", "centpipe.infotheory", "partition_check", None),
        ("infotheory.dpi_check", "centpipe.infotheory", "dpi_check", None),
        ("forest.fit", "centpipe.evaluation", "fit", _forest_size),
        ("forest.predict_proba_many", "centpipe.evaluation", "predict_proba_many", _rows_predicted),
        ("evaluation.cross_validate", "centpipe.evaluation", "cross_validate", None),
        ("evaluation.kfold_split", "centpipe.evaluation", "kfold_split", None),
        ("evaluation.roc_curve", "centpipe.evaluation", "roc_curve", None),
        ("data_io.generate_synthetic", "centpipe.data_io", "generate_synthetic", None),
        ("data_io.save_dataset", "centpipe.data_io", "save_dataset", _dir_bytes),
        ("data_io.load_dataset", "centpipe.data_io", "load_dataset", None),
        ("data_io.write_features_csv", "centpipe.data_io", "write_features_csv", _file_bytes),
        ("data_io.read_features_csv", "centpipe.data_io", "read_features_csv", None),
    ])

MODULES = ("cli", "ops", "net", "infotheory", "forest", "evaluation", "data_io")
STAGES = ("synth", "train", "extract", "evaluate", "permute", "theory")


class Tracer:
    """Spans and counters of one traced body run, kept in memory."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counters = collections.Counter()
        self.errors = collections.Counter()  # module -> exceptions leaving a wrapped call
        self.absent = []  # wrapped names or counters that no longer exist
        self._open = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
        self.spans.append(record)
        self._open.append(index)
        record[1] = time.perf_counter()
        try:
            yield
        except Exception:
            self.errors[name.split(".")[0]] += 1
            raise
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def _wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None and name not in self.absent:
                try:
                    self.counters.update(counter(args, kwargs, result))
                except (AttributeError, TypeError, KeyError, IndexError, OSError):
                    self.absent.append(name)  # the counter's view of the API is stale
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper for the duration of the block."""
        originals = []
        try:
            for name, module_name, attr, counter in WRAPPED:
                try:
                    module = importlib.import_module(module_name)
                except ModuleNotFoundError:
                    module = None
                fn = getattr(module, attr, None)
                if not callable(fn):
                    self.absent.append(name)
                    continue
                originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn, counter))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def totals(self) -> dict:
        """name -> (calls, inclusive seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + end - start, own + end - start - inner)
        return out

    def write(self, path) -> None:
        """Spans as JSON lines: name, start and end in seconds from the
        first span, and the parent's line index (-1 at top level)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            for name, start, end, parent in self.spans:
                f.write(json.dumps([name, round(start - t0, 7), round(end - t0, 7), parent]))
                f.write("\n")


def layer_metrics(tracer: Tracer, images: int) -> dict:
    """The per-layer metrics of one traced body run, by name."""
    t = tracer.totals()
    calls = lambda name: t.get(name, (0, 0.0, 0.0))[0]
    secs = lambda name: t.get(name, (0, 0.0, 0.0))[1]
    m = {f"cli.{stage}_s": secs(f"cli.{stage}") for stage in STAGES}
    for op in _OPS:
        m[f"ops.{op}.calls"] = calls(f"ops.{op}")
        m[f"ops.{op}.s"] = secs(f"ops.{op}")
    m["ops.conv_forward.gflop"] = tracer.counters["ops.conv_forward.flop"] / 1e9
    m["ops.conv_backward.gflop"] = tracer.counters["ops.conv_backward.flop"] / 1e9
    collect = ("infotheory.forward_collect", "data_io.forward_collect")
    m.update({
        "net.train_s": secs("net.train"),
        "net.train.self_s": t.get("net.train", (0, 0.0, 0.0))[2],
        "net.samples_trained": tracer.counters["net.samples_trained"],
        "net.forward_collect.calls": sum(calls(n) for n in collect),
        "net.forward_collect_s": sum(secs(n) for n in collect),
        "net.save_checkpoint_s": secs("net.save_checkpoint"),
        "net.load_checkpoint_s": secs("net.load_checkpoint"),
        "infotheory.forward_passes_per_image": calls("infotheory.forward_collect") / images,
        "infotheory.make_histogram.calls": calls("infotheory.make_histogram"),
        "infotheory.make_histogram_s": secs("infotheory.make_histogram"),
        "infotheory.histogram_values": tracer.counters["infotheory.histogram_values"],
        "infotheory.extract_cent_features.calls": calls("infotheory.extract_cent_features"),
        "infotheory.extract_cent_features_s": secs("infotheory.extract_cent_features"),
        "infotheory.expected_cent_s": secs("infotheory.expected_cent"),
        "infotheory.pooled_unconditional_entropy_s": secs("infotheory.pooled_unconditional_entropy"),
        "infotheory.partition_check_s": secs("infotheory.partition_check"),
        "infotheory.dpi_check_s": secs("infotheory.dpi_check"),
        "forest.fit.calls": calls("forest.fit"),
        "forest.fit_s": secs("forest.fit"),
        "forest.trees": tracer.counters["forest.trees"],
        "forest.nodes": tracer.counters["forest.nodes"],
        "forest.predict_proba_many_s": secs("forest.predict_proba_many"),
        "forest.rows_predicted": tracer.counters["forest.rows_predicted"],
        "evaluation.cross_validate.calls": calls("evaluation.cross_validate"),
        "evaluation.cross_validate_s": secs("evaluation.cross_validate"),
        "evaluation.kfold_split_s": secs("evaluation.kfold_split"),
        "evaluation.roc_curve_s": secs("evaluation.roc_curve"),
        "data_io.generate_synthetic_s": secs("data_io.generate_synthetic"),
        "data_io.save_dataset_s": secs("data_io.save_dataset"),
        "data_io.load_dataset_s": secs("data_io.load_dataset"),
        "data_io.write_features_csv_s": secs("data_io.write_features_csv"),
        "data_io.read_features_csv_s": secs("data_io.read_features_csv"),
        "data_io.bytes_written": tracer.counters["data_io.bytes_written"],
    })
    m.update({f"{module}.errors": tracer.errors[module] for module in MODULES})
    return m


# Counts that must repeat exactly between two traced runs of one body.
COUNT_METRICS = tuple(
    [f"ops.{op}.calls" for op in _OPS]
    + ["ops.conv_forward.gflop", "ops.conv_backward.gflop", "net.samples_trained",
       "net.forward_collect.calls", "infotheory.forward_passes_per_image",
       "infotheory.make_histogram.calls", "infotheory.histogram_values",
       "infotheory.extract_cent_features.calls", "forest.fit.calls", "forest.trees",
       "forest.nodes", "forest.rows_predicted", "evaluation.cross_validate.calls"])
