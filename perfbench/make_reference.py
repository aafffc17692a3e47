"""Record the reference digests of every workload and input set.

    python3 perfbench/make_reference.py

Run from the root of a checkout whose outputs are trusted.  It runs one pass
per input set of each workload in the benchmark's pinned BLAS environment
and stores the digests in perfbench/reference.json under the key of that
environment (OpenBLAS core and thread count), keeping entries of other keys.
"""

from __future__ import annotations

import json
import os
import sys

from run import HERE, WORK_DIR, child_env, run_child
import workloads


def main() -> int:
    path = os.path.join(HERE, "reference.json")
    table = {}
    if os.path.exists(path):
        with open(path) as fh:
            table = json.load(fh)
    env = child_env(os.getcwd())
    for workload in workloads.WORKLOADS:
        rec = run_child(["--workload", workload, "--seed", "0", "--seconds", "0",
                         "--work", WORK_DIR, "--record"], env, timeout=1800)
        table.setdefault(rec["key"], {})[workload] = rec["digests"]
        print(f"{rec['key']} {workload}: {len(rec['digests'])} jobs", file=sys.stderr)
    with open(path, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
