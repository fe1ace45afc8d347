"""Shared test helpers: finite-difference oracles and small trained fixtures."""

import inspect
import os
import tracemalloc

import numpy as np
import pytest

from centpipe import data_io, forest, net, workers


def fd_grad(f, x, eps=1e-6):
    """Central finite-difference gradient of scalar f at x, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        xp = x.copy()
        xp[i] += eps
        xm = x.copy()
        xm[i] -= eps
        g[i] = (f(xp) - f(xm)) / (2 * eps)
    return g


def rel_err(analytic, reference) -> float:
    """Worst-case elementwise error scaled by the reference gradient's size."""
    analytic = np.asarray(analytic, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    scale = max(1e-8, float(np.abs(reference).max()))
    return float(np.abs(analytic - reference).max() / scale)


def pool_safe_input(rng, shape, window, margin=1e-3):
    """Random tensor whose pooling windows have clearly separated maxima, so
    finite differences around it never flip an argmax."""
    for _ in range(100):
        x = rng.normal(size=shape)
        if _pool_margins_ok(x, window, margin):
            return x
    raise AssertionError("could not draw a pool-safe input")


def _pool_margins_ok(x, window, margin):
    from numpy.lib.stride_tricks import sliding_window_view
    rank = len(window)
    win = sliding_window_view(x, window, axis=tuple(range(x.ndim - rank, x.ndim)))
    flat = win.reshape(-1, int(np.prod(window)))
    if flat.shape[1] < 2:
        return True
    top2 = np.partition(flat, -2, axis=1)[:, -2:]
    return bool((top2[:, 1] - top2[:, 0] > margin).all())


def use_cpus(monkeypatch, count, every_map=False):
    """Make the process see `count` usable CPUs, so that every map large
    enough to fork (every map, with every_map) runs in that many processes,
    at most one per item."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    if every_map:
        monkeypatch.setattr(workers, "MIN_WORK", 0)


def traced_peak(fn) -> int:
    """The peak of the bytes tracemalloc traces while fn() runs; it sees
    this process only."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def count_split_elements(monkeypatch) -> list:
    """Wrap forest._best_splits so that each call appends the (node,
    candidate, row) elements it scores, mtry times its nodes' rows, to the
    list returned; it sees calls made in this process only."""
    real, scored = forest._best_splits, []

    def counting(*args, **kwargs):
        arguments = inspect.signature(real).bind(*args, **kwargs).arguments
        scored.append(arguments["candidates"].shape[1] * int(arguments["sizes"].sum()))
        return real(*args, **kwargs)

    monkeypatch.setattr(forest, "_best_splits", counting)
    return scored


def assert_no_child_left():
    with pytest.raises(ChildProcessError):  # no child, running or unreaped
        os.waitpid(-1, os.WNOHANG)


def small_dataset(per_class=10, extent=32, seed=0) -> data_io.LabeledDataset:
    return data_io.generate_synthetic(
        data_io.SyntheticSpec(extent=extent, per_class=per_class, seed=seed))


def write_reference_dump(dataset, activations, out_dir) -> None:
    """The activation dump of `dataset` written tensor by tensor, without
    ActivationDumpWriter: row i of each of forward_collect's `activations`
    to activations/<id>/layer_NN.tnsr, then the manifest."""
    rows = []
    for i, image_id in enumerate(dataset.image_ids):
        img_dir = out_dir / "activations" / image_id
        img_dir.mkdir(parents=True)
        for li, act in enumerate(activations):
            data_io.save_tensor(img_dir / f"layer_{li:02d}.tnsr", act[i])
        rows.append((image_id, f"activations/{image_id}", int(dataset.labels[i])))
    data_io.write_manifest(out_dir / "manifest.csv", rows, dataset.class_names)


@pytest.fixture(scope="session")
def trained_desk():
    """A quickly trained desk 2D network with its dataset; shared read-only."""
    dataset = small_dataset(per_class=15, seed=11)
    network = net.build_desk_2d(32, 2, seed=11)
    network, _ = net.train(network, dataset, net.TrainConfig(0.05, 4, 10, seed=11))
    return network, dataset
