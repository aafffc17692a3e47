"""Workload definitions, seeded inputs and output digests for the benchmark.

A workload is a fixed list of jobs; one pass runs every job once, in order.
A job is one call of the public CLI entry ``specdet.cli.main(argv)``.  The
benchmark seed picks one of ``INPUT_SETS`` input sets, so every seed the
benchmark can be given has committed reference digests in ``reference.json``.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import statistics
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

# Seeds map onto this many input sets (seed % INPUT_SETS); each set has its
# own committed reference outputs.
INPUT_SETS = 16

# OpenBLAS picks kernels by CPU model and splits work by thread count, and
# both change the last bits of svd/eigh, hence the CSV digests.  Pinning the
# kernel family and one thread makes the reference hold on any x86-64 host
# with AVX2 (the Zen kernels give the same bits as Haswell).
BLAS_CORETYPE = "Haswell"
BLAS_THREADS = 1

WORKLOADS = ("verify-n64", "verify-n256", "det-mix")

_VERIFY_SHAPES = {"verify-n64": (64, 10), "verify-n256": (256, 1)}

DET_PROFILES = (
    "name=psi-prime",
    "name=exp-neg-psi-prime-flip scale=1",
    "name=exp-neg-psi-prime-flip scale=2",
    "name=projection kernel=0.5",
    "name=projection kernel=0.25",
    "kind=power a=0.75",
    "kind=power a=1 b=-2",
)
DET_TRACES = ("integral:1", "integral:2.5", "singular:psi-log")
DET_SPACES = ("L1", "L2", "Lp:0.5", "Linf", "Llog", "marcinkiewicz")
EXAMPLES = ("ex-3-4-invertible", "ex-3-4-projection", "prop-3-2")
MATRIX_KINDS = ("ginibre", "hermitian")
MATRIX_SIZES = (64, 128, 256)
MATRIX_TRACES = ("integral:1", "singular:psi-log")


@dataclass(frozen=True)
class Job:
    key: str          # stable id of the job within its workload and input set
    argv: Tuple[str, ...]


def input_set(seed: int) -> int:
    return seed % INPUT_SETS


def _matrix_entries(kind: str, n: int, set_index: int) -> np.ndarray:
    rng = np.random.default_rng([set_index, MATRIX_SIZES.index(n), MATRIX_KINDS.index(kind)])
    g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0 * n)
    if kind == "hermitian":
        g = (g + g.conj().T) / math.sqrt(2.0)
    return g


def _write_matrix(entries: np.ndarray, path: str) -> None:
    """The CLI's matrix file format: n, then rows of re,im pairs (17 digits)."""
    n = entries.shape[0]
    lines = [str(n)]
    for row in entries:
        lines.append(" ".join(f"{z.real:.17g},{z.imag:.17g}" for z in row))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def make_jobs(workload: str, set_index: int, work_dir: str) -> List[Job]:
    """The jobs of one pass; writes any input files under work_dir first."""
    if workload in _VERIFY_SHAPES:
        n, trials = _VERIFY_SHAPES[workload]
        argv = ("verify", "--suite", "all", "--n", str(n), "--trials", str(trials),
                "--seed", str(set_index))
        return [Job(f"set{set_index}", argv)]
    if workload != "det-mix":
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    jobs = []
    for prof, trace, space, eps in itertools.product(
            DET_PROFILES, DET_TRACES, DET_SPACES, (False, True)):
        argv = ("det", "--input", prof, "--trace", trace, "--space", space)
        if eps:
            argv += ("--eps-compare",)
        jobs.append(Job(" ".join(argv[1:]), argv))
    for name in EXAMPLES:
        jobs.append(Job(f"example {name}", ("example", "--name", name)))
    os.makedirs(work_dir, exist_ok=True)
    for kind, n in itertools.product(MATRIX_KINDS, MATRIX_SIZES):
        path = os.path.join(work_dir, f"{kind}-{n}.mat")
        _write_matrix(_matrix_entries(kind, n, set_index), path)
        for trace in MATRIX_TRACES:
            jobs.append(Job(f"set{set_index} {kind}-{n} {trace}",
                            ("det", "--input", path, "--trace", trace)))
    return jobs


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def csv_suite_digests(csv: str) -> Dict[str, str]:
    """SHA-256 of each suite's rows (the header excluded), in row order."""
    by_suite: Dict[str, List[str]] = {}
    for line in csv.splitlines(keepends=True)[1:]:
        by_suite.setdefault(line.split(",", 1)[0], []).append(line)
    return {name: _sha256("".join(lines)) for name, lines in by_suite.items()}


def job_digest(workload: str, exit_code: int, stdout: str, stderr: str) -> dict:
    """What a job's outcome is compared by.

    verify: the exit code, the digest of the whole CSV and of each suite's
    rows.  det/example: the exit code and the digest of stdout and stderr
    together, so a refusal's one-line message is checked as its payload.
    """
    if workload in _VERIFY_SHAPES:
        return {"exit": exit_code, "sha256": _sha256(stdout),
                "suites": csv_suite_digests(stdout)}
    return {"exit": exit_code, "sha256": _sha256(stdout + "\0" + stderr)}


def mismatch(expected: dict, got: dict) -> str:
    """Empty when the outcome matches its reference, else what differs."""
    if expected is None:
        return "no reference"
    diffs = [k for k in ("exit", "sha256", "suites") if expected.get(k) != got.get(k)]
    if "suites" in diffs:
        bad = sorted(k for k in set(expected["suites"]) | set(got["suites"])
                     if expected["suites"].get(k) != got["suites"].get(k))
        diffs[diffs.index("suites")] = "suites " + ",".join(bad)
    return "; ".join(diffs)


def percentile(values: Sequence[float], q: int) -> float:
    """The q-th percentile (exclusive method), or the largest value if too few."""
    if len(values) < 2:
        return max(values)
    return statistics.quantiles(values, n=100)[q - 1]
