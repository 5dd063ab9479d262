"""Record the seed-0 reference values of the benchmark's correctness gate.

    python3 bench/record_reference.py

Runs one pass of every workload at seed 0, checks it without a reference
and writes ``reference_seed0.json``: rho, convergence, r and zero count of
every sweep point, and the names of the checks every ``verify`` reported.
Record only at a commit whose results are trusted.
"""
from __future__ import annotations

import json
import sys

import workloads
from run import OUT_DIR, configure, run_pass


def main() -> int:
    configure()
    OUT_DIR.mkdir(exist_ok=True)
    reference = {}
    for name in workloads.NAMES:
        workload = workloads.build(name, 0, OUT_DIR)
        outputs, _, _, csv_bytes = run_pass(workload)
        flags = workloads.check_pass(workload, outputs, csv_bytes, None, None)
        if not all(flags):
            print(f"error: {name}: {flags.count(False)} checks failed", file=sys.stderr)
            return 1
        reference[name] = workloads.reference_of(workload, outputs, csv_bytes)
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
