"""Runs the timed body of one workload in a fresh process.

run.py prepares the inputs and starts this script with a spec file, so the
peak resident memory this process reports belongs to the body alone, not to
set-up or to an earlier workload. Untraced repetitions come first and are
the same in a traced run, which then adds two repetitions with the
pass-through wrappers installed.

    python3 perfbench/body.py SPEC.json
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

from tracer import Tracer, layer_metrics
from workloads import WORKLOADS, image_count, in_dir, run_stage


def _repetition(workload, spec, name, tracer=None) -> dict:
    rep_dir = os.path.join(spec["work"], name)
    argvs = workload.body(spec["sizes"], spec["seed"])
    with in_dir(rep_dir):
        start = time.perf_counter()
        stages = [run_stage(argv, tracer) for argv in argvs]
        wall = time.perf_counter() - start
    return {"dir": rep_dir, "wall_s": wall, "stages": stages}


def main(spec_path) -> int:
    with open(spec_path) as f:
        spec = json.load(f)
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    import centpipe.cli  # noqa: F401  (imported before the timed body)

    workload = WORKLOADS[spec["workload"]]
    reps, traced = [], []
    start = time.perf_counter()
    while True:
        reps.append(_repetition(workload, spec, f"rep_{len(reps)}"))
        if len(reps) >= workload.min_reps and time.perf_counter() - start >= spec["seconds"]:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if spec["trace"]:
        images = image_count(spec["sizes"])
        for i in range(2):
            tracer = Tracer()
            with tracer.installed():
                rep = _repetition(workload, spec, f"traced_{i}", tracer)
            rep["layers"] = layer_metrics(tracer, images)
            rep["spans"] = len(tracer.spans)
            rep["absent"] = sorted(set(tracer.absent))
            traced.append(rep)
        tracer.write(spec["spans_path"])
    with open(spec["result"], "w") as f:
        json.dump({"peak_rss_mb": peak_rss_mb,
                   "reps": reps, "traced": traced}, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
