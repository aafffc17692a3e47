"""specdet benchmark: one workload run, printed as one JSON line.

    python3 perfbench/run.py --workload det-mix --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The program is imported from ./src in
fresh processes with one BLAS thread and a pinned OpenBLAS kernel family
(see workloads.py).  The run measures set-up (fresh interpreters importing
specdet.cli), then starts one child process that drives specdet.cli.main in
a closed loop (child.py).  --trace 0 prints the end-to-end metrics; --trace 1
prints the per-layer metrics from a traced run, plus the import breakdown.
The last stdout line is {"correct", "attempted", "failed", "metrics"};
provenance and a readable summary go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_PROBES = 7
WORK_DIR = ".perfbench_work"
# Time the child may take beyond --seconds: imports, input generation, the
# warm-up pass and the pass that runs past the deadline.
CHILD_SLACK_S = 140

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def child_env(root: str) -> dict:
    """Environment of every process the benchmark starts."""
    env = dict(os.environ)
    env.pop("SPECDET_THREADS", None)
    env.update({
        "PYTHONPATH": os.path.join(root, "src"),
        "OPENBLAS_NUM_THREADS": str(workloads.BLAS_THREADS),
        "OMP_NUM_THREADS": str(workloads.BLAS_THREADS),
        "MKL_NUM_THREADS": str(workloads.BLAS_THREADS),
        "OPENBLAS_CORETYPE": workloads.BLAS_CORETYPE,
    })
    return env


def run_child(argv, env, timeout: float) -> dict:
    """Run child.py to completion; its last stdout line is its JSON result."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py")] + argv,
                          env=env, stdout=subprocess.PIPE, timeout=timeout, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_seconds(env) -> float:
    """Median time from starting a fresh interpreter until specdet.cli is imported."""
    code = "import time, specdet.cli; print(repr(time.time()))"
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.time()
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             stdout=subprocess.PIPE, text=True, timeout=60).stdout
        samples.append(float(out.strip()) - start)
    return statistics.median(samples)


def import_breakdown(env) -> dict:
    """Cumulative import seconds of numpy, scipy and the rest of specdet.cli."""
    err = subprocess.run([sys.executable, "-X", "importtime", "-c", "import specdet.cli"],
                         env=env, check=True, stderr=subprocess.PIPE, text=True,
                         timeout=60).stderr
    entries = []   # (depth, name, cumulative seconds), in the order printed
    for line in err.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(cumulative) / 1e6))
    # -X importtime prints children before their parent; walking backwards,
    # the open stack holds each entry's ancestors.  numpy modules that scipy
    # imports count for scipy.
    totals = {"numpy": 0.0, "scipy": 0.0}
    stack = []
    cli_total = 0.0
    for depth, name, cum in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = name.split(".")[0]
        if top in totals and not any(a.split(".")[0] in totals for _, a in stack):
            totals[top] += cum
        if name == "specdet.cli":
            cli_total = cum
        stack.append((depth, name))
    return {
        "setup.import.scipy_s": totals["scipy"],
        "setup.import.numpy_s": totals["numpy"],
        "setup.import.specdet_s": cli_total - totals["scipy"] - totals["numpy"],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "specdet", "cli.py")):
        print("error: run from the root of a specdet checkout (src/specdet missing)",
              file=sys.stderr)
        return 2
    env = child_env(root)
    try:
        setup_s = setup_seconds(env)
        imports = import_breakdown(env) if args.trace else {}
        child = run_child(["--workload", args.workload, "--seed", str(args.seed),
                           "--seconds", str(args.seconds), "--trace", str(args.trace),
                           "--work", WORK_DIR], env, timeout=args.seconds + CHILD_SLACK_S)
    except (subprocess.SubprocessError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = {**child["layers"], **imports}
        units = {name: _layer_unit(name) for name in metrics}
    else:
        metrics = {"setup_s": setup_s, **{k: child[k] for k in END_TO_END_UNITS if k != "setup_s"}}
        units = END_TO_END_UNITS
    attempted, failed = child["attempted"], child["failed"]
    print(json.dumps({"provenance": child["provenance"]}), file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {child['passes']} timed "
          f"passes, {child['jobs_timed']} timed jobs, error_rate={failed / attempted:.4f} "
          f"({failed}/{attempted})", file=sys.stderr)
    for name, value in child.get("raw", {}).items():
        print(f"  unscaled {name:33s} {value:14.6f} s", file=sys.stderr)
    for problem in child["problems"]:
        print(f"  mismatch: {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:42s} {value:14.6f} {units[name]}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "B"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
