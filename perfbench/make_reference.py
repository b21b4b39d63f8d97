"""Regenerate reference.json: the key outputs of every workload input.

The correctness gate compares each benchmark run against these values.
Regenerate them only for a change to landau that is meant to change its
results, and say so with that change.  Run from the root of a checkout:

    python3 perfbench/make_reference.py
"""
from __future__ import annotations

import json
import shutil
import sys
import warnings

import gate
import worker
import workloads


def main() -> int:
    warnings.simplefilter("ignore")
    workdir = worker.HERE.parent / ".perfbench_work" / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    config_path = workdir / "workload.ini"
    reference = {}
    try:
        for scale in workloads.SCALES:
            for name in workloads.WORKLOADS:
                for seed in range(len(workloads.CORPUS_SEEDS)):
                    job = workloads.make_job(name, seed, scale)
                    if job.reference_key in reference:
                        continue  # an input that takes no seed
                    cli_io = worker.setup(job, config_path)
                    run = worker.run_once(job, cli_io, config_path, workdir / "out")
                    if run["rc"] != 0 or run["verdict"] != "PASS":
                        print(f"{job.reference_key}: exit {run['rc']}, "
                              f"verdict {run['verdict']}", file=sys.stderr)
                        return 1
                    reference[job.reference_key] = run["outputs"]
                    print(f"{job.reference_key}: {run['run_s']:.2f} s", flush=True)
    finally:
        shutil.rmtree(workdir.parent, ignore_errors=True)
    gate.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
