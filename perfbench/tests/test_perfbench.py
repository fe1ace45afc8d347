"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, desk_body, desk_gates, in_dir, run_stage  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny(name, tmp_path, trace=False):
    return run.run_workload(name, 0, 0.0, trace, sizes=WORKLOADS[name].tiny,
                            work_root=tmp_path)


def test_contract_lists_every_workload():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_smoke_run(name, tmp_path):
    report = _tiny(name, tmp_path)
    assert report["failures"] == [] and report["failed_share"] == 0.0
    line = run.result_line(report, CONTRACT["end_to_end"])
    assert line["correct"] and line["attempted"] == report["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in CONTRACT["end_to_end"]}
    assert all(m["value"] > 0 for m in line["metrics"].values())
    assert report["attempted_by_kind"]["compare"] >= run.SETUPS  # setups and repetitions
    assert (report["train_s"] is not None) == (name in ("desk", "volume3d"))
    assert not list(tmp_path.glob("run-*")), "work directory left behind"


def test_desk_gate_trips_on_shuffled_labels(tmp_path):
    sizes, seed = WORKLOADS["desk"].tiny, 0
    body = desk_body(sizes, seed)
    from centpipe import data_io

    with in_dir(tmp_path):
        stages = [run_stage(argv) for argv in body[:4]]
        for feat in ("feat_layer", "feat_filter"):
            path = f"{feat}/features.csv"
            ids, labels, matrix = data_io.read_features_csv(path)
            shuffled = np.random.default_rng(7).permutation(labels)
            data_io.write_features_csv(path, ids, shuffled, matrix)
        stages += [run_stage(argv) for argv in body[4:]]
    ledger = run.Ledger()
    ledger.stages("rep_0", stages)
    for g in desk_gates(sizes, seed, stages, str(tmp_path)):
        ledger.record("gate", g["gate"], g["ok"], g["value"])
    assert len(ledger.failures) == 2
    assert all(f["kind"] == "gate" and f["detail"] < 0.90 for f in ledger.failures)


def test_determinism_mismatch_is_a_failed_operation(tmp_path):
    for name, text in (("a", "1"), ("b", "2")):
        (tmp_path / name).mkdir()
        (tmp_path / name / "out.csv").write_text(text)
    ledger = run.Ledger()
    run._same_tree(ledger, "b==a", tmp_path / "b", tmp_path / "a")
    assert ledger.failures == [{"kind": "compare", "name": "b==a", "detail": ["out.csv"]}]


@pytest.mark.parametrize("name", ["desk", "theory"])
def test_traced_outputs_equal_untraced(name, tmp_path):
    """The run compares both traced output trees with the untraced one byte
    for byte; no failure means the wrappers passed every value through."""
    import centpipe.ops

    original = centpipe.ops.conv_forward
    report = _tiny(name, tmp_path, trace=True)
    assert report["failures"] == []
    assert report["attempted_by_kind"]["compare"] >= run.SETUPS - 1 + 2 + len(tracer.COUNT_METRICS)
    layers = report["per_layer"]
    assert set(layers) == {m["name"] for m in CONTRACT["per_layer"]}
    assert layers["ops.conv_forward.calls"] > 0 and layers["trace.spans"] > 0
    assert report["trace_absent"] == []
    assert centpipe.ops.conv_forward is original
    # infotheory's passes are a share of all counted forward passes, whatever
    # their number per image
    images = 2 * WORKLOADS[name].tiny["per_class"]
    passes = layers["infotheory.forward_passes_per_image"]
    assert 0 <= round(passes * images) <= layers["net.forward_collect.calls"]


def test_missing_wrapped_name_is_reported_absent(monkeypatch):
    import centpipe.infotheory

    monkeypatch.delattr(centpipe.infotheory, "dpi_check")
    t = tracer.Tracer()
    with t.installed():
        pass
    assert t.absent == ["infotheory.dpi_check"]


def test_fails_without_result_when_source_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "desk",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
