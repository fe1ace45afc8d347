"""centpipe benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload desk --seed 0 --seconds 15 --trace 0

Run from the root of a source checkout (src/centpipe must exist; nothing
needs installing). The run

1. prepares the workload's inputs from the seed, SETUPS times, each in a
   fresh process (prepare.py) and into a fresh directory, and checks that
   every preparation wrote the same bytes;
2. starts body.py in a fresh process, which repeats the timed body (one
   closed loop of `centpipe.cli.main(argv)` calls) for at least --seconds
   and at least Workload.min_reps times; with --trace 1 it then runs the
   body twice more with pass-through wrappers (tracer.py);
3. checks every repetition's gates, checks that repetitions wrote
   byte-identical output trees, and with --trace 1 that the traced trees
   equal the untraced one and that every per-layer count repeats exactly;
4. prints one report line (provenance, per-stage seconds, train_s, gates,
   failed_share) and, last, the result line the BENCHMARK.json contract
   defines: end-to-end metrics with --trace 0, per-layer metrics with
   --trace 1.

An operation is one CLI stage call, one gate, or one comparison;
failed_share = failed / attempted. Work files live under .perfbench_work/
and are removed at exit; the spans of the last traced repetition are kept
at .perfbench_work/spans-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3       # set-up repetitions; setup_s reports their median
RUN_LIMIT_S = 170  # the whole run ends within this many seconds

if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from tracer import COUNT_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class BenchmarkError(Exception):
    """The benchmark could not produce a result (missing source, set-up or
    body process failure)."""


class Ledger:
    """Attempted and failed operations of one run."""

    def __init__(self):
        self.attempted = 0
        self.kinds = collections.Counter()
        self.failures = []

    def record(self, kind: str, name: str, ok: bool, detail=None) -> bool:
        self.attempted += 1
        self.kinds[kind] += 1
        if not ok:
            self.failures.append({"kind": kind, "name": name, "detail": detail})
        return ok

    def stages(self, where: str, stages: list) -> None:
        for s in stages:
            self.record("stage", f"{where}:{s['stage']}:{s['out']}", s["rc"] == 0,
                        {"rc": s["rc"], "stderr": s["stderr"]} if s["rc"] else None)


def tree_digest(path) -> dict:
    """Relative file path -> sha256 for every file under path."""
    out = {}
    for d, dirs, files in os.walk(path):
        dirs.sort()
        for name in sorted(files):
            p = os.path.join(d, name)
            with open(p, "rb") as f:
                out[os.path.relpath(p, path)] = hashlib.sha256(f.read()).hexdigest()
    return out


def _same_tree(ledger, name, a, b) -> None:
    da, db = tree_digest(a), tree_digest(b)
    differ = sorted(k for k in set(da) | set(db) if da.get(k) != db.get(k))
    ledger.record("compare", name, not differ, differ[:10] or None)


def _child(script: str, args: list, timeout: float) -> subprocess.CompletedProcess:
    try:
        proc = subprocess.run([sys.executable, str(HERE / script), *map(str, args)],
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{script} exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"{script} exited {proc.returncode}: {proc.stderr[-3000:]}")
    return proc


def prepare(spec_path, directory, timeout: float) -> tuple[float, list]:
    """One preparation of the workload's inputs, in a fresh process timed
    from spawn to exit; returns (seconds, stages)."""
    start = time.perf_counter()
    proc = _child("prepare.py", [spec_path, directory], timeout)
    seconds = time.perf_counter() - start
    stages = json.loads(proc.stdout)
    failed = [s for s in stages if s["rc"] != 0]
    if failed:
        raise BenchmarkError(f"set-up stage {failed[0]['stage']} exited {failed[0]['rc']}: "
                             f"{failed[0]['stderr']}")
    return seconds, stages


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes: dict | None = None, work_root: Path | None = None) -> dict:
    """Set up, run and check one workload; returns the report dict with the
    metrics of both kinds and the ledger counts."""
    from provenance import provenance

    workload = WORKLOADS[name]
    sizes = dict(workload.sizes if sizes is None else sizes)
    work_root = Path(work_root or ROOT / ".perfbench_work")
    work = work_root / f"run-{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    started = time.monotonic()
    ledger = Ledger()
    spec = {"root": str(ROOT), "work": str(work), "workload": name, "seed": seed,
            "sizes": sizes, "seconds": seconds, "trace": trace,
            "result": str(work / "result.json"),
            "spans_path": str(work_root / f"spans-{name}.jsonl")}
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec))

    def remaining() -> float:
        return RUN_LIMIT_S - (time.monotonic() - started)

    try:
        setup_times = []
        for i in range(SETUPS):
            t, stages = prepare(spec_path, work / f"setup_{i}", remaining())
            setup_times.append(t)
            ledger.stages("setup", stages)
            if i:
                _same_tree(ledger, f"setup_{i}==setup_0", work / f"setup_{i}", work / "setup_0")
                shutil.rmtree(work / f"setup_{i}")
        (work / "setup_0").rename(work / "inputs")

        _child("body.py", [spec_path], remaining())
        body = json.loads(Path(spec["result"]).read_text())

        reps, traced = body["reps"], body["traced"]
        gates = {}
        for rep in reps + traced:
            where = os.path.basename(rep["dir"])
            ledger.stages(where, rep["stages"])
            gates[where] = workload.gates(sizes, seed, rep["stages"], rep["dir"])
            for g in gates[where]:
                ledger.record("gate", f"{where}:{g['gate']}", g["ok"], g["value"])
        first = reps[0]["dir"]
        for rep in reps[1:] + traced:
            _same_tree(ledger, f"{os.path.basename(rep['dir'])}==rep_0", rep["dir"], first)
        if len(traced) == 2:
            a, b = traced[0]["layers"], traced[1]["layers"]
            for key in COUNT_METRICS:
                ledger.record("compare", f"count:{key}", a[key] == b[key], [a[key], b[key]])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    stage_seconds = {}
    for rep in reps:
        for s in rep["stages"]:
            stage_seconds.setdefault(f"{s['stage']}:{s['out']}", []).append(s["seconds"])
    train = [sum(s["seconds"] for s in rep["stages"] if s["stage"] == "train") for rep in reps]
    wall = [rep["wall_s"] for rep in reps]
    report = {
        "workload": name, "seed": seed, "sizes": sizes, "trace": trace,
        "provenance": provenance(ROOT),
        "setup_s_each": setup_times,
        "wall_s_each": wall,
        "stage_s": {k: statistics.median(v) for k, v in stage_seconds.items()},
        "train_s": statistics.median(train) if any(train) else None,
        "gates": gates["rep_0"],
        "attempted": ledger.attempted, "failed": len(ledger.failures),
        "attempted_by_kind": dict(ledger.kinds),
        "failed_share": len(ledger.failures) / ledger.attempted,
        "failures": ledger.failures[:20],
        "end_to_end": {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(wall),
            "peak_rss_mb": body["peak_rss_mb"],
        },
    }
    if traced:
        layers = {}
        for key, value in traced[0]["layers"].items():
            timed = key.endswith("_s") or key.endswith(".s")
            layers[key] = statistics.median([t["layers"][key] for t in traced]) if timed else value
        traced_wall = statistics.median([t["wall_s"] for t in traced])
        layers["trace.overhead_s"] = traced_wall - statistics.median(wall)
        layers["trace.spans"] = traced[0]["spans"]
        report["per_layer"] = layers
        report["trace_absent"] = sorted({n for t in traced for n in t["absent"]})
        report["spans_file"] = spec["spans_path"]
    return report


def result_line(report: dict, declared: list) -> dict:
    """The contract's last line: every declared metric with its unit."""
    values = report["per_layer"] if report["trace"] else report["end_to_end"]
    return {"correct": report["failed"] == 0, "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in declared}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one centpipe benchmark workload.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception: subprocess.run then kills and reaps
    # the body process, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "centpipe" / "cli.py").is_file():
        print(f"error: no centpipe source at {ROOT / 'src' / 'centpipe'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as f:
        contract = json.load(f)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    declared = contract["per_layer"] if args.trace else contract["end_to_end"]
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result_line(report, declared)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
