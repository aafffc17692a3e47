"""Replay the benchmark's det-mix jobs against its committed reference digests.

    OPENBLAS_CORETYPE=Haswell OPENBLAS_NUM_THREADS=1 PYTHONPATH=src \\
        python tests/det_replay.py [SET ...]

Run from the root of a checkout.  With no SET it replays all 16 input sets;
each set holds the 255 profile and example jobs (the same in every set) and
the 12 `det` jobs of its seeded matrix files.  The jobs run in this process
through perfbench's own make_jobs, run_pass, job_digest and mismatch, and
are compared with perfbench/reference.json.  `det` echoes its `--input` path,
so the matrix files go to the relative work directory `.perfbench_work`
under a temporary working directory, as in a benchmark run.

It prints one JSON line: the reference key of the BLAS set-up, the numpy and
scipy versions, the jobs run, the mismatches and, when nothing could be
compared, the reason.  It compares nothing, and exits 2, when the reference
has no digests for the BLAS set-up or when numpy or scipy differ from the
versions recorded in the committed BENCH_*.json files (QUADPACK's bits are
in the digests).  It exits 1 on a mismatch, else 0.
"""

from __future__ import annotations

import glob
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import child  # noqa: E402
import workloads  # noqa: E402
from run import WORK_DIR  # noqa: E402

WORKLOAD = "det-mix"


def _recorded_versions() -> set:
    """The (numpy, scipy) pairs of the committed benchmark records."""
    pairs = set()
    for path in glob.glob(os.path.join(ROOT, "BENCH_*.json")):
        with open(path) as fh:
            prov = json.load(fh)["provenance"]
        pairs.add((prov["numpy"], prov["scipy"]))
    return pairs


def replay(sets) -> dict:
    import numpy
    import scipy

    import specdet.cli as cli

    key = child.reference_key(child._blas_info())
    report = {"key": key, "numpy": numpy.__version__, "scipy": scipy.__version__,
              "jobs": 0, "mismatches": [], "skip": None}
    with open(child.REFERENCE) as fh:
        reference = json.load(fh).get(key, {}).get(WORKLOAD)
    if reference is None:
        report["skip"] = f"perfbench/reference.json has no {WORKLOAD} digests for {key}"
        return report
    recorded = _recorded_versions()
    if (numpy.__version__, scipy.__version__) not in recorded:
        report["skip"] = (f"numpy {numpy.__version__}, scipy {scipy.__version__} are not "
                          f"the recorded {sorted(recorded)}")
        return report
    done = set()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for index in sets:
                # the profile and example jobs are the same in every set
                jobs = [job for job in workloads.make_jobs(WORKLOAD, index, WORK_DIR)
                        if job.key not in done]
                done.update(job.key for job in jobs)
                _, outcomes = child.run_pass(cli, jobs)
                for job, code, out, err, _ in outcomes:
                    why = workloads.mismatch(reference.get(job.key),
                                             workloads.job_digest(WORKLOAD, code, out, err))
                    if why:
                        report["mismatches"].append(f"{job.key}: {why}")
                report["jobs"] += len(jobs)
        finally:
            os.chdir(cwd)
    return report


def main(argv) -> int:
    sets = [int(a) for a in argv] or list(range(workloads.INPUT_SETS))
    report = replay(sets)
    print(json.dumps(report))
    if report["skip"]:
        return 2
    return 1 if report["mismatches"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
