"""Run every workload over several seeds and write one BENCH point.

    python3 perfbench/collect.py --out perfbench/results/BENCH_0.json

For every workload in BENCHMARK.json: RUNS untraced runs with seeds 1..RUNS,
then one traced run with seed 1, one after another (never in parallel, which would disturb
the timings). The file holds, per workload and end-to-end metric, every run's
value, the median, the quartiles and the spread (quartile distance over the
median); the traced run's per-layer metrics; and the provenance of the first
run. Compare two points metric by metric, never as one combined score.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def _run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-3000:]}")
    report, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(report), json.loads(result)


def _summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    args = ap.parse_args(argv)
    seconds = contract["run_seconds"]
    point = {"run_seconds": seconds, "runs": RUNS, "workloads": {}}
    for workload in (w["name"] for w in contract["workloads"]):
        reports, results = zip(*(_run(workload, s, seconds, 0) for s in range(1, RUNS + 1)))
        traced_report, traced = _run(workload, 1, seconds, 1)
        point.setdefault("provenance", reports[0]["provenance"])
        point["workloads"][workload] = {
            "sizes": reports[0]["sizes"],
            "correct": all(r["correct"] for r in results) and traced["correct"],
            "attempted": sum(r["attempted"] for r in results) + traced["attempted"],
            "failed": sum(r["failed"] for r in results) + traced["failed"],
            "end_to_end": {m["name"]: _summary([r["metrics"][m["name"]]["value"] for r in results])
                           for m in contract["end_to_end"]},
            "train_s": _summary([r["train_s"] for r in reports]) if reports[0]["train_s"] else None,
            "stage_s": {k: statistics.median(r["stage_s"][k] for r in reports)
                        for k in reports[0]["stage_s"]},
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "trace_absent": traced_report["trace_absent"],
        }
        print(json.dumps({workload: {k: round(v["median"], 4) for k, v in
                                     point["workloads"][workload]["end_to_end"].items()}}),
              flush=True)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(point, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
