"""Prepares one workload's inputs in a fresh process.

run.py times this whole process, interpreter start-up and imports included,
so setup_s is what a user waits for before the first timed stage. The stage
results are printed to stdout as one JSON list.

    python3 perfbench/prepare.py SPEC.json DIR
"""

from __future__ import annotations

import json
import os
import sys

from workloads import WORKLOADS, in_dir, run_stage


def main(spec_path, directory) -> int:
    with open(spec_path) as f:
        spec = json.load(f)
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    import centpipe.cli  # noqa: F401  (imports are part of set-up)

    workload, sizes, seed = WORKLOADS[spec["workload"]], spec["sizes"], spec["seed"]
    with in_dir(directory):
        stages = [run_stage(argv) for argv in
                  (workload.setup_stages(sizes, seed) if workload.setup_stages else [])]
        if workload.setup_inputs:
            workload.setup_inputs(sizes, seed)
    print(json.dumps(stages))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
