"""Compare two source checkouts on one benchmark workload, in alternating pairs of runs.

Usage (from anywhere; each checkout runs its own, unchanged benchmark):

    python tools/ab_pairs.py PARENT_CHECKOUT CHANGE_CHECKOUT --workload desk --pairs 10

Pair i runs `python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0` in each checkout, with the fresh seed S = --first-seed + i; the
parent runs first in even pairs and the change first in odd ones, so neither
side always gets the warmer machine. The script prints each pair's end-to-end
metrics, then per metric each side's median and quartiles, the pairs the
change won, the verdict of the gain rule (see `verdict`) and that of the
no-regression rule (see `regression`). The direction of each metric ("lower"
or "higher" is better) and its bound come from the change's BENCHMARK.json.
Exits 1 if a run fails or reports itself incorrect.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np


def verdict(parent, change, better: str = "lower") -> dict:
    """The gain rule on paired values (parent[i] and change[i] from pair i):
    the change is better in at least 9 of 10 pairs, and the medians are
    further apart, in the change's favour, than the parent's interquartile
    range. A tie is no win."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change, strict=True))
    q1, median, q3 = np.percentile(parent, [25, 50, 75])
    gap = sign * (median - np.median(change))
    return {"pairs": len(parent), "wins": int(wins), "median_gap": float(gap),
            "parent_iqr": float(q3 - q1),
            "gain": bool(10 * wins >= 9 * len(parent) and gap > q3 - q1)}


def regression(parent, change, better: str = "lower", bound: float = 0.0) -> dict:
    """The no-regression rule on paired values, with BENCHMARK.json's bound
    as a share of the parent's median: "unresolved" when the parent's
    interquartile range exceeds the bound (the runs spread too widely to
    tell) and not every change run is better than every parent run, else
    "within bound" when the change's median is worse than the parent's by
    at most the bound, else "regressed"."""
    sign = 1.0 if better == "lower" else -1.0
    q1, median, q3 = np.percentile(parent, [25, 50, 75])
    worse = sign * (np.median(change) - median) / median
    spread = (q3 - q1) / median
    clear = all(sign * (p - c) > 0 for p in parent for c in change)
    status = ("unresolved" if spread > bound and not clear
              else "within bound" if worse <= bound else "regressed")
    return {"worse": float(worse), "spread": float(spread), "bound": bound, "status": status}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in `checkout`: its end-to-end metric values."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{checkout} seed {seed}: {result['failed']} of "
                           f"{result['attempted']} operations failed")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="the parent commit's checkout")
    ap.add_argument("change", type=Path, help="the change's checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed seconds per run (default: BENCHMARK.json's run_seconds)")
    args = ap.parse_args(argv)
    contract = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = contract["run_seconds"] if args.seconds is None else args.seconds
    better = {m["name"]: m["better"] for m in contract["end_to_end"]}
    bound = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        try:
            for side in order:
                runs[side].append(run_once(getattr(args, side), args.workload, seed, seconds))
        except RuntimeError as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
        values = "  ".join(f"{name} {runs['parent'][i][name]:.4g} -> {runs['change'][i][name]:.4g}"
                           for name in better)
        print(f"pair {i} seed {seed} ({order[0]} first): {values}", flush=True)
    for name, direction in better.items():
        parent = [run[name] for run in runs["parent"]]
        change = [run[name] for run in runs["change"]]
        v, r = verdict(parent, change, direction), regression(parent, change, direction,
                                                               bound[name])
        sides = "  ".join(
            f"{side} median {np.median(vals):.4g} [{np.percentile(vals, 25):.4g}, "
            f"{np.percentile(vals, 75):.4g}]" for side, vals in (("parent", parent),
                                                                   ("change", change)))
        print(f"{name} ({direction} is better): {sides}; change better in {v['wins']} of "
              f"{v['pairs']} pairs; median gap {v['median_gap']:.4g} against parent IQR "
              f"{v['parent_iqr']:.4g}: {'GAIN' if v['gain'] else 'no gain'}; change worse by "
              f"{r['worse']:+.1%} against a bound of {r['bound']:.0%}, parent IQR "
              f"{r['spread']:.1%} of its median: {r['status']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
