"""Record reference.json: the outputs of every request in every workload's
pool, as produced by the straintc sources in this checkout.

    python3 perfbench/reference.py

The benchmark checks each request against these values, so record them only
from a commit whose outputs are known to be right, and only when a change to
the program is meant to change its answers.  Every workload is recorded
afresh, so recorded_at names the commit of every entry.  Takes about six
minutes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from run import git_sha  # noqa: E402


def pool(name):
    if name == "grid32":
        return list(workloads.GRID32_SEEDS)
    seeds = workloads.GRID128_SEEDS if name == "grid128" else workloads.REPAIR_SEEDS
    return [workloads.Cell(*cell, seed) for cell in workloads.CELL_CYCLE for seed in seeds]


def main():
    reference = {}
    workdir = ROOT / ".bench_out" / "work-reference"
    for name in workloads.WORKLOADS:
        workload = workloads.make_workload(name, False, workdir)
        workload.setup(0)
        entries = {}
        try:
            for req in pool(name):
                entries[workload.request_key(req)] = workload.collect(req, workload.run(req))
                print(name, workload.request_key(req), flush=True)
        finally:
            workload.cleanup()
        reference[name] = entries
    reference["recorded_at"] = git_sha()
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
