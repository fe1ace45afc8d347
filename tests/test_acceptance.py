"""Acceptance gate: ten timed criteria covering gradients, estimators,
classification, inequalities, fidelity, determinism, and dump parity.

Each test prints one CRITERION line (PASS/FAIL with elapsed seconds) and
fails if its check or its runtime budget is violated.
"""

import contextlib
import io
import json
import math
import os
import time
import types

import numpy as np
import pytest

from centpipe import cli, data_io, evaluation, forest, infotheory, net, ops
from centpipe.data_io import LabeledDataset, SyntheticSpec, generate_synthetic
from centpipe.evaluation import auc, cross_validate, kfold_split
from centpipe.forest import ForestConfig
from centpipe.infotheory import (cent_rows, class_tables, expected_cent, mutual_information,
                                 pooled_unconditional_entropy)

from conftest import fd_grad, rel_err, pool_safe_input
from reference_stats import mann_whitney, mutual_information_double_sum, plugin_entropy


def _report(capsys, number, description, limit_s, fn, extra_elapsed=0.0):
    start = time.perf_counter()
    try:
        fn()
    except BaseException:
        elapsed = time.perf_counter() - start + extra_elapsed
        with capsys.disabled():
            print(f"CRITERION {number}: FAIL - {description} ({elapsed:.1f}s)")
        raise
    elapsed = time.perf_counter() - start + extra_elapsed
    verdict = "PASS" if elapsed < limit_s else "FAIL"
    with capsys.disabled():
        print(f"CRITERION {number}: {verdict} - {description} "
              f"({elapsed:.1f}s, limit {limit_s:.0f}s)")
    assert elapsed < limit_s, f"runtime {elapsed:.1f}s exceeded {limit_s}s budget"


# --- shared trained pipeline (5 master seeds) ---

MASTER_SEEDS = (0, 1, 2, 3, 4)


@pytest.fixture(scope="session")
def trained_runs():
    """Per master seed: 300 synthetic images split 200 train / 100 test, a
    trained desk network, and per-layer CENT features for the test images,
    from one forward_collect pass and cent_rows, as `extract` computes them."""
    start = time.perf_counter()
    runs = {}
    for seed in MASTER_SEEDS:
        data = generate_synthetic(SyntheticSpec(per_class=150, extent=32, seed=seed))
        # class-major layout: first 150 are class 0
        train_idx = np.r_[0:100, 150:250]
        test_idx = np.r_[100:150, 250:300]
        train_set = types.SimpleNamespace(images=data.images[train_idx],
                                          labels=data.labels[train_idx])
        network = net.build_desk_2d(32, 2, seed=seed)
        network, trace = net.train(network, train_set,
                                   net.TrainConfig(0.05, 12, 10, seed=seed))
        feats = cent_rows(net.forward_collect(network, data.images[test_idx]), "per-layer")
        runs[seed] = types.SimpleNamespace(
            dataset=data, network=network, loss_trace=trace,
            test_idx=test_idx, features=feats,
            test_labels=data.labels[test_idx].copy())
    return runs, time.perf_counter() - start


# --- criterion 1: gradient correctness ---

def test_criterion_01_gradients(capsys):
    def check():
        rng = np.random.default_rng(101)
        worst = 0.0

        def conv_case():
            nd = int(rng.integers(2, 4))
            cin, cout = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            extent = int(rng.integers(3, 6))
            kernel = int(rng.integers(1, min(3, extent) + 1))
            stride = int(rng.integers(1, 3))
            padding = "same" if rng.integers(2) else "valid"
            spec = ops.ConvSpec((kernel,) * nd, (stride,) * nd, padding, cout)
            x = rng.normal(size=(cin,) + (extent,) * nd)
            w = rng.normal(size=(cout, cin) + (kernel,) * nd)
            b = rng.normal(size=cout)

            def conv(xx, ww, bb):  # one sample, as a batch of one
                return ops.conv_forward(xx[None], ww, bb, spec)[0]

            g = rng.normal(size=conv(x, w, b).shape)
            gx, gw, gb = ops.conv_backward(g[None], x[None], w, spec)
            errs = [
                rel_err(gx[0], fd_grad(lambda v: float((conv(v, w, b) * g).sum()), x)),
                rel_err(gw, fd_grad(lambda v: float((conv(x, v, b) * g).sum()), w)),
                rel_err(gb, fd_grad(lambda v: float((conv(x, w, v) * g).sum()), b)),
            ]
            return max(errs)

        def relu_case():
            shape = tuple(rng.integers(2, 5, size=int(rng.integers(1, 4))))
            x = rng.normal(size=shape)
            x = np.where(np.abs(x) < 1e-2, 0.5, x)  # keep FD off the kink
            g = rng.normal(size=shape)
            gx = ops.relu_backward(g.copy(), x)  # it overwrites its gradient
            return rel_err(gx, fd_grad(lambda v: float((ops.relu(v) * g).sum()), x))

        def pool_case():
            nd = int(rng.integers(2, 4))
            c = int(rng.integers(1, 3))
            extent = int(rng.integers(3, 6))
            window = (int(rng.integers(2, min(3, extent) + 1)),) * nd
            stride = (int(rng.integers(1, 3)),) * nd
            padding = "same" if rng.integers(2) else "valid"
            x = pool_safe_input(rng, (c,) + (extent,) * nd, window)
            out, cache = ops.maxpool(x, window, stride, padding)
            g = rng.normal(size=out.shape)
            gx = ops.maxpool_backward(g, cache)
            return rel_err(gx, fd_grad(
                lambda v: float((ops.maxpool(v, window, stride, padding)[0] * g).sum()), x))

        def fc_case():
            rank = int(rng.integers(1, 4))
            shape = tuple(rng.integers(2, 4, size=rank))
            width = int(rng.integers(1, 6))
            x = rng.normal(size=shape).reshape(1, -1)  # flattened, as the network does
            w = rng.normal(size=(width, math.prod(shape)))
            b = rng.normal(size=width)
            g = rng.normal(size=width)
            gx, gb = ops.fully_connected_backward(g[None], x, w)
            gw = g[None].T @ x  # the factored product net's SGD step rebuilds
            errs = [
                rel_err(gx, fd_grad(lambda v: float((ops.fully_connected(v, w, b) * g).sum()), x)),
                rel_err(gw, fd_grad(lambda v: float((ops.fully_connected(x, v, b) * g).sum()), w)),
                rel_err(gb, fd_grad(lambda v: float((ops.fully_connected(x, w, v) * g).sum()), b)),
            ]
            return max(errs)

        def softmax_case():
            k = int(rng.integers(2, 7))
            logits = rng.normal(scale=rng.uniform(0.5, 10.0), size=(1, k))
            # the least-likely label keeps the gradient O(1), so finite
            # differences stay meaningful even for confident logits
            label = np.argmin(logits, axis=1)
            _, _, grad = ops.softmax_cross_entropy(logits, label)
            fd = fd_grad(lambda v: ops.softmax_cross_entropy(v, label)[1][0], logits)
            return rel_err(grad, fd)

        for case in (conv_case, relu_case, pool_case, fc_case, softmax_case):
            for _ in range(100):
                err = case()
                worst = max(worst, err)
                assert err < 1e-4, f"{case.__name__}: rel err {err}"
        assert worst < 1e-4

    _report(capsys, 1, "analytic gradients match finite differences "
            "(100 random configs per layer type, rel err < 1e-4)", 120, check)


# --- criterion 2: entropy oracles ---

def test_criterion_02_entropy_oracles(capsys):
    def check():
        rng = np.random.default_rng(202)
        for _ in range(500):  # plain entropy vs direct definition
            bins = int(rng.integers(2, 65))
            n = int(rng.integers(1, 400))
            samples = rng.uniform(0.0, 1.0, n)
            # one image whose one read point is rank 1: one pooled histogram
            got = float(cent_rows([samples[None]], "per-filter", bins, (0.0, 1.0))[0, 0])
            direct = plugin_entropy(np.histogram(samples, bins, (0.0, 1.0))[0])
            assert abs(got - direct) < 1e-9
            assert -1e-12 <= got <= math.log2(bins) + 1e-12
        for _ in range(300):  # theory's conditional entropy vs weighted direct sum
            bins = int(rng.integers(2, 33))
            k = int(rng.integers(2, 5))
            sizes = rng.integers(5, 120, size=k)
            per_class = [rng.uniform(0.0, 1.0, sizes[j]) for j in range(k)]
            # a read point of one value per image: class j's samples are its images
            values = np.concatenate(per_class)
            got = expected_cent(class_tables([values[:, None]], np.repeat(np.arange(k), sizes),
                                             0, bins))
            pooled = (values.min(), values.max())
            priors = sizes / sizes.sum()
            direct = sum(priors[j] * plugin_entropy(np.histogram(per_class[j], bins, pooled)[0])
                         for j in range(k))
            assert abs(got - direct) < 1e-9
            assert -1e-12 <= got <= math.log2(bins) + 1e-12
        for _ in range(300):  # mutual information vs double sum
            shape = (int(rng.integers(2, 7)), int(rng.integers(2, 7)))
            table = rng.integers(0, 60, size=shape)
            if table.sum() == 0:
                table[0, 0] = 1
            got = mutual_information(table)
            assert abs(got - mutual_information_double_sum(table)) < 1e-9
            assert got >= 0.0

    _report(capsys, 2, "entropy/conditional-entropy/MI match brute-force "
            "definitions on 1100 random cases (1e-9 bits)", 60, check)


# --- criterion 3: AUC equivalence ---

def test_criterion_03_auc_equivalence(capsys):
    def check():
        rng = np.random.default_rng(303)
        for _ in range(1000):
            n = int(rng.integers(4, 60))
            labels = np.zeros(n, dtype=int)
            labels[rng.choice(n, int(rng.integers(1, n)), replace=False)] = 1
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            quant = 2 ** int(rng.integers(0, 4))
            scores = np.round(rng.normal(size=n) * quant) / quant  # ties likely
            assert abs(auc(scores, labels) - mann_whitney(scores, labels)) < 1e-9

    _report(capsys, 3, "trapezoidal AUC equals Mann-Whitney statistic on 1000 "
            "fuzzed score sets including ties (1e-9)", 60, check)


# --- criterion 4: conditioning reduces entropy ---

def test_criterion_04_conditioning(capsys, trained_runs):
    runs, build_s = trained_runs

    def check():
        run = runs[0]
        acts = net.forward_collect(run.network, run.dataset.images)
        for layer in (0, 1):  # both conv read points
            tables = class_tables(acts, run.dataset.labels, layer, 256)
            cond = expected_cent(tables)
            pooled = pooled_unconditional_entropy(tables)
            assert cond <= pooled + 0.05, f"layer {layer}: {cond} vs {pooled}"

    _report(capsys, 4, "class conditioning never raises expected activation "
            "entropy on any conv layer (trained network, +0.05 bits)", 300,
            check, extra_elapsed=build_s)


# --- criterion 5: data-processing inequality ---

def test_criterion_05_dpi(capsys):
    def check():
        configs = []
        for i in range(20):
            noise = 1 + (i * 3) % 12
            quant = [None, 1, 2, 3, 4, 6, 8][i % 7]
            classes = 2 + i % 3
            configs.append((noise, quant, classes, i))
        for noise, quant, classes, seed in configs:
            chain = data_io.generate_markov_chain(100000, noise, quant,
                                                  classes, seed)
            report = infotheory.dpi_check(chain, slack=0.02)
            assert report.holds, (noise, quant, classes, seed, report)

    _report(capsys, 5, "data-processing inequality holds on 20 seeded chains "
            "at 1e5 samples (slack 0.02 bits)", 120, check)


# --- criterion 6: end-to-end pipeline ---

def test_criterion_06_pipeline(capsys, trained_runs):
    runs, build_s = trained_runs

    def check():
        passing = []
        for seed in MASTER_SEEDS:
            run = runs[seed]
            assert run.features.shape == (100, 3)
            plan = kfold_split(run.test_labels, k=5, seed=seed)
            metrics = cross_validate(run.features, run.test_labels,
                                     ForestConfig(tree_count=100, seed=seed), plan)
            passing.append(metrics.mean_auc >= 0.90)
        assert sum(passing) >= 4, f"only {sum(passing)}/5 seeds reached 0.90"

    _report(capsys, 6, "trained CNN + 3 per-layer entropy features + 100-tree "
            "forest reaches mean AUC >= 0.90 on >= 4/5 seeds", 600, check,
            extra_elapsed=build_s)


# --- criterion 7: permutation control ---

def test_criterion_07_permutation(capsys, trained_runs):
    runs, build_s = trained_runs

    def check():
        run = runs[0]
        inside = 0
        for perm_seed in range(10):
            metrics = evaluation.permutation_baseline(
                run.features, run.test_labels, ForestConfig(tree_count=100, seed=0),
                k=5, fold_seed=0, perm_seed=perm_seed)
            if 0.35 <= metrics.mean_auc <= 0.65:
                inside += 1
        assert inside >= 9, f"only {inside}/10 permutation seeds near chance"

    _report(capsys, 7, "label permutation collapses mean AUC into [0.35, 0.65] "
            "on >= 9/10 seeds", 600, check, extra_elapsed=build_s)


# --- criterion 8: architecture fidelity ---

def test_criterion_08_architecture(capsys):
    def check():
        expected = [(1, 64, 64, 64), (10, 32, 32, 32), (10, 16, 16, 16), (128,), (2,)]
        for variant in net.REFERENCE_VARIANTS:
            network = net.build_reference_3d(variant)
            assert net.shape_trace(network) == expected, variant
        network = net.build_reference_3d(seed=0)
        image = np.random.default_rng(0).normal(size=(1, 64, 64, 64)).astype(np.float32)
        acts = net.forward_collect(network, image[None])
        assert cent_rows(acts, "per-filter").shape == (1, 21)
        assert cent_rows(acts, "per-layer").shape == (1, 3)

    _report(capsys, 8, "volumetric stack traces 64^3 -> 10x32^3 -> 10x16^3 -> "
            "128 -> 2 with 21/3 feature lengths", 10, check)


# --- criterion 9: determinism ---

def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _tree_bytes(root):
    snapshot = {}
    for base, _, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            snapshot[os.path.relpath(path, root)] = open(path, "rb").read()
    return snapshot


def test_criterion_09_determinism(capsys, tmp_path):
    def check():
        data_dir = str(tmp_path / "data")
        stages = [
            ["synth", "--out", data_dir, "--per-class", "6", "--extent", "32"],
            ["train", "--out", str(tmp_path / "train"), "--data", data_dir,
             "--epochs", "2"],
            ["extract", "--out", str(tmp_path / "feat"),
             "--checkpoint", str(tmp_path / "train" / "checkpoint.ckpt"),
             "--data", data_dir, "--mode", "per-layer"],
            ["evaluate", "--out", str(tmp_path / "eval"),
             "--features", str(tmp_path / "feat" / "features.csv"),
             "--tree-count", "20"],
            ["permute", "--out", str(tmp_path / "perm"),
             "--features", str(tmp_path / "feat" / "features.csv"),
             "--tree-count", "20", "--perm-seed", "1"],
            ["theory", "--out", str(tmp_path / "theory"),
             "--checkpoint", str(tmp_path / "train" / "checkpoint.ckpt"),
             "--data", data_dir, "--chain-n", "20000"],
        ]
        for argv in stages:
            code, _, err = _run_cli(argv)
            assert code == 0, (argv, err)
        first = {argv[2]: _tree_bytes(argv[2]) for argv in stages}
        for argv in stages:
            code, _, err = _run_cli(argv)
            assert code == 0, (argv, err)
        for argv in stages:
            out_dir = argv[2]
            again = _tree_bytes(out_dir)
            assert again.keys() == first[out_dir].keys(), out_dir
            for rel, blob in again.items():
                assert blob == first[out_dir][rel], f"{out_dir}/{rel} changed"

    _report(capsys, 9, "re-running every pipeline stage with identical configs "
            "reproduces byte-identical outputs", 300, check)


# --- criterion 10: activation-dump parity ---

def test_criterion_10_dump_parity(capsys, trained_runs, tmp_path):
    runs, _ = trained_runs

    def check():
        run = runs[0]
        subset_idx = run.test_idx[:5].tolist() + run.test_idx[-5:].tolist()
        subset = LabeledDataset(
            run.dataset.images[subset_idx], run.dataset.labels[subset_idx],
            run.dataset.class_names,
            tuple(run.dataset.image_ids[i] for i in subset_idx))
        data_io.save_dataset(subset, str(tmp_path / "data"))
        ckpt = str(tmp_path / "net.ckpt")
        net.save_checkpoint(run.network, ckpt)
        dump_dir = str(tmp_path / "dump")
        for argv in (["extract", "--out", str(tmp_path / "direct"), "--checkpoint", ckpt,
                      "--data", str(tmp_path / "data"), "--dump-out", dump_dir],
                     ["extract", "--out", str(tmp_path / "loaded"), "--dump", dump_dir]):
            code, _, err = _run_cli(argv)
            assert code == 0, (argv, err)
        direct = (tmp_path / "direct" / "features.csv").read_bytes()
        assert direct == (tmp_path / "loaded" / "features.csv").read_bytes()
        in_process = cent_rows(net.forward_collect(run.network, subset.images), "per-filter")
        matrix = data_io.read_features_csv(tmp_path / "direct" / "features.csv")[2]
        assert matrix.shape == (10, 21) and matrix.tobytes() == in_process.tobytes()

        rng = np.random.default_rng(10)
        wide = tmp_path / "wide"
        rows = []
        for i in range(2):
            image_id = f"img_{i:04d}"
            img_dir = wide / "activations" / image_id
            img_dir.mkdir(parents=True)
            for li, width in enumerate([64, 256, 256, 256, 256]):
                act = rng.normal(size=(width, 2, 2)).astype(np.float32)
                data_io.save_tensor(img_dir / f"layer_{li:02d}.tnsr", act)
            rows.append((image_id, f"activations/{image_id}", i % 2))
        data_io.write_manifest(wide / "manifest.csv", rows, ("a", "b"))
        code, out, err = _run_cli(["extract", "--out", str(tmp_path / "wide_features"),
                                   "--dump", str(wide)])
        assert code == 0, err
        assert json.loads(out)["feature_count"] == 1088
        header = (tmp_path / "wide_features" / "features.csv").read_text().splitlines()[0]
        assert header.split(",")[2:] == [f"feat_{j}" for j in range(1088)]

    _report(capsys, 10, "extract --dump on an extract --dump-out dump reproduces the "
            "in-process features.csv bit-for-bit; 64+4x256 filters give 1088 features",
            60, check)
