"""One workload run in one process: a closed loop with a single caller.

Started by run.py with the pinned BLAS environment and PYTHONPATH=src.  Each
job is sent only after the previous one returns.  The child generates its
inputs, runs one untimed warm-up pass, then timed passes until the time is
up; timed calls are rescaled by a calibration kernel run around them
(calibration.py).  With --trace it installs the layer wrappers after the warm-up and
alternates untraced and traced passes, so that the tracing overhead is a
median of paired differences.  Every pass is checked against the committed
reference.  It prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from calibration import Calibration  # noqa: E402
from tracing import Tracer, install  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")

MIN_PASSES = 3

# Timed passes run the calibration kernel at least this often (calibration.py).
CALIBRATE_EVERY_S = 0.25


def _blas_info() -> dict:
    """Runtime OpenBLAS core, config and threads, read from numpy's own copy."""
    import numpy

    libdir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "libscipy_openblas*.so")):
        lib = ctypes.CDLL(path)
        suffix = "64_" if "openblas64" in os.path.basename(path) else ""
        try:
            core = getattr(lib, f"scipy_openblas_get_corename{suffix}")
            config = getattr(lib, f"scipy_openblas_get_config{suffix}")
            threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
        except AttributeError:
            continue
        core.restype = config.restype = ctypes.c_char_p
        threads.restype = ctypes.c_int
        return {"core": core().decode(), "config": config().decode(), "threads": threads()}
    return {"core": "unknown", "config": "unknown", "threads": -1}


def reference_key(blas: dict) -> str:
    """reference.json is keyed by the BLAS kernels and thread count in use."""
    return f"{blas['core']}/threads={blas['threads']}"


def _provenance(args, specdet, blas) -> dict:
    import numpy
    import scipy

    src = os.path.dirname(specdet.__file__)
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src, "*.py"))):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return {
        "specdet": specdet.__version__,
        "specdet_source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "input_set": workloads.input_set(args.seed),
    }


def run_pass(cli, jobs, calibration=None):
    """Run every job once; returns (elapsed_s, [(job, exit, stdout, stderr,
    latency_s)]).  With a Calibration, the kernel runs at the start, before
    any job that begins CALIBRATE_EVERY_S after its last run, and at the end;
    elapsed_s leaves it out and each latency is rescaled to the nominal speed."""
    real_out, real_err = sys.stdout, sys.stderr
    outcomes, brackets = [], []
    calibrated_s = 0.0

    def calibrate():
        nonlocal calibrated_s
        end = calibration.run()
        calibrated_s += calibration.times[-1]
        return end

    start = time.perf_counter()
    if calibration is not None:
        last = calibrate()
    for job in jobs:
        if calibration is not None and time.perf_counter() - last >= CALIBRATE_EVERY_S:
            last = calibrate()
        if calibration is not None:
            brackets.append(len(calibration.times) - 1)
        out, err = io.StringIO(), io.StringIO()
        sys.stdout, sys.stderr = out, err
        t0 = time.perf_counter()
        try:
            code = cli.main(list(job.argv))
        except Exception:
            code = None
            err.write(traceback.format_exc())
        finally:
            latency = time.perf_counter() - t0
            sys.stdout, sys.stderr = real_out, real_err
        outcomes.append((job, code, out.getvalue(), err.getvalue(), latency))
    if calibration is not None:
        calibrate()
        outcomes = [o[:4] + (calibration.scale(o[4], i, i + 1),)
                    for o, i in zip(outcomes, brackets)]
    return time.perf_counter() - start - calibrated_s, outcomes


class Checker:
    """Counts attempted and failed jobs against the reference."""

    def __init__(self, workload, reference):
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, outcomes):
        for job, code, out, err, _ in outcomes:
            self.attempted += 1
            if code is None or code == 2:
                why = f"exit {code}: {err.strip().splitlines()[-1] if err.strip() else ''}"
            else:
                got = workloads.job_digest(self.workload, code, out, err)
                why = workloads.mismatch(self.reference.get(job.key), got)
            if why:
                self.failed += 1
                if len(self.problems) < 5:
                    self.problems.append(f"{job.key}: {why}")


def _timed_passes(cli, jobs, checker, deadline, calibration):
    """Passes until the deadline, at least MIN_PASSES; per-pass wall times,
    per-pass sums of rescaled job latencies, and the rescaled latencies."""
    walls, scaled_walls, latencies = [], [], []
    while len(walls) < MIN_PASSES or time.perf_counter() < deadline:
        wall, outcomes = run_pass(cli, jobs, calibration)
        checker.check(outcomes)
        walls.append(wall)
        scaled_walls.append(math.fsum(o[4] for o in outcomes))
        latencies.extend(o[4] for o in outcomes)
    return walls, scaled_walls, latencies


def _traced_passes(cli, jobs, checker, deadline):
    """Pairs of an untraced and a traced pass until the deadline, at least
    MIN_PASSES; the median layer metrics of the traced passes, with
    trace.overhead_s the median of traced minus untraced wall time per pair
    (pairing keeps slow drifts of the host's speed out of the difference)."""
    tracer = Tracer()
    patches = install(tracer)
    overheads, layers = [], []
    while len(overheads) < MIN_PASSES or time.perf_counter() < deadline:
        patches.traced(False)
        plain, outcomes = run_pass(cli, jobs)
        checker.check(outcomes)
        patches.traced(True)
        tracer.reset()
        traced, outcomes = run_pass(cli, jobs)
        layers.append(tracer.metrics())
        checker.check(outcomes)
        overheads.append(traced - plain)
    result = {name: statistics.median(p[name] for p in layers) for name in layers[0]}
    result["trace.overhead_s"] = statistics.median(overheads)
    return result, len(overheads), len(overheads) * len(jobs)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True, help="directory for generated inputs")
    ap.add_argument("--record", action="store_true",
                    help="print the digests of one pass per input set instead")
    args = ap.parse_args()

    import specdet
    import specdet.cli as cli

    src = os.path.abspath(os.path.join("src", "specdet"))
    if os.path.dirname(os.path.abspath(specdet.__file__)) != src:
        raise SystemExit(f"specdet was imported from {specdet.__file__}, not {src}")
    blas = _blas_info()

    if args.record:
        digests = {}
        for index in range(workloads.INPUT_SETS):
            _, outcomes = run_pass(cli, workloads.make_jobs(args.workload, index, args.work))
            for job, code, out, err, _ in outcomes:
                if code is None:
                    raise SystemExit(f"{job.key} raised:\n{err}")
                digests[job.key] = workloads.job_digest(args.workload, code, out, err)
        print(json.dumps({"key": reference_key(blas), "workload": args.workload,
                          "digests": digests}))
        return 0

    jobs = workloads.make_jobs(args.workload, workloads.input_set(args.seed), args.work)
    with open(REFERENCE) as fh:
        table = json.load(fh)
    checker = Checker(args.workload,
                      table.get(reference_key(blas), {}).get(args.workload, {}))

    # The warm-up pass runs inside the measured time but is not timed: its
    # first calls pay for lazy imports inside the program.
    start = time.perf_counter()
    _, outcomes = run_pass(cli, jobs)
    checker.check(outcomes)
    if args.trace:
        layers, passes, jobs_timed = _traced_passes(cli, jobs, checker,
                                                    start + args.seconds)
        result = {"layers": layers, "passes": passes, "jobs_timed": jobs_timed}
    else:
        calibration = Calibration(args.workload)
        walls, scaled_walls, latencies = _timed_passes(cli, jobs, checker,
                                                       start + args.seconds, calibration)
        result = {
            "wall_s": statistics.median(scaled_walls),
            "raw": {"wall_median_s": statistics.median(walls),
                    "wall_min_s": min(walls),
                    "calibration_median_s": statistics.median(calibration.times)},
            "passes": len(walls),
            "job_p90_ms": workloads.percentile(latencies, 90) * 1000.0,
            "jobs_timed": len(latencies),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    result["attempted"] = checker.attempted
    result["failed"] = checker.failed
    result["problems"] = checker.problems
    result["provenance"] = _provenance(args, specdet, blas)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
