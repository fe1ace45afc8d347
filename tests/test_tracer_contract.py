"""The benchmark tracer's view of the centpipe API.

perfbench/tracer.py wraps centpipe functions by module and attribute name and
reads some of their arguments by position. A renamed function or a moved
argument would only fill the benchmark's `trace_absent` list; these tests
make it fail here instead. The tracer is imported from its file, unchanged.
"""

import importlib
import importlib.util
import pathlib

import numpy as np

from centpipe import data_io, net
from centpipe.net import TrainConfig

from conftest import small_dataset


def _load_tracer():
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


def test_every_wrapped_name_resolves_to_a_callable():
    for name, module_name, attr, _ in tracer.WRAPPED:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), name


def test_conv_flop_counters_read_a_desk_training():
    """One desk batch of 10 at 32^2 is one chunk: each of the two conv layers
    runs one forward and one backward call, and both flop counters read
    their arguments."""
    dataset = small_dataset(per_class=5, seed=2)
    recorder = tracer.Tracer()
    with recorder.installed():
        net.train(net.build_desk_2d(32, 2, seed=2), dataset, TrainConfig(0.05, 1, 10, seed=2))
    assert recorder.absent == []
    totals = recorder.totals()
    assert totals["ops.conv_forward"][0] == totals["ops.conv_backward"][0] == 2
    assert recorder.counters["ops.conv_forward.flop"] > 0
    assert recorder.counters["ops.conv_backward.flop"] > 0


def test_conv_counters_read_a_reference3d_training():
    """A one-sample reference3d training runs one chunk: each of the two
    conv blocks makes one forward and one backward conv call per slab, as
    many as the slab rule gives (32 slabs of 2 rows of 64^2 positions, then
    16 of 2 rows of 32^2), and both flop counters read their arguments,
    adding up to the flops of whole-array calls."""
    rng = np.random.default_rng(3)
    dataset = data_io.LabeledDataset(rng.normal(size=(1, 1, 64, 64, 64)).astype(np.float32),
                                     np.array([0]), ("a", "b"))
    network = net.build_reference_3d(seed=3)
    slabs = [len(net._slabs(network, first, last, 1))
             for first, last in net._blocks(network.specs, streamed=True)
             if network.specs[first].kind == "conv"]
    assert slabs == [32, 16]
    recorder = tracer.Tracer()
    with recorder.installed():
        net.train(network, dataset, TrainConfig(0.05, 1, 1, seed=3))
    assert recorder.absent == []
    totals = recorder.totals()
    assert totals["ops.conv_forward"][0] == totals["ops.conv_backward"][0] == sum(slabs)
    assert totals["ops.fully_connected_backward"][0] == 2
    # 2 flop per multiply-add: 10 filters of 2^3 taps over 64^3 positions,
    # then of 10 x 2^3 taps over 32^3; the backward counts two products
    forward = 2 * 10 * (8 * 64**3 + 80 * 32**3)
    assert recorder.counters["ops.conv_forward.flop"] == forward
    assert recorder.counters["ops.conv_backward.flop"] == 2 * forward
