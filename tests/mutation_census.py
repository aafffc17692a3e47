"""Mutation census: each listed one-line mutant of src/ must fail its named tests.

    python tests/mutation_census.py

Run from the root of a checkout.  Each mutant replaces one string, which
must occur exactly once, in one file of src/specdet.  For each, src/ is
copied to a temporary directory, the replacement is applied there, and the
tests named for it run in a fresh pytest process that imports specdet from
the copy.  The mutant is killed
when those tests fail.  The named tests first run once on an unmutated copy,
where they must pass, so a kill is the mutant's doing.  One line per mutant,
then the run time; the exit code is 1 when a mutant survived.

The tolerance mutants cover every tolerance constant and cutoff of the
library; the structural ones cover the exact integral, the truncation of
the commutator criterion and the audit grids.  pytest does not collect this
file (its name does not start with test_), so tier-1 does not run it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Mutant(NamedTuple):
    name: str
    path: str     # under src/specdet
    old: str
    new: str
    tests: Tuple[str, ...]


MUTANTS = (
    # tolerance constants and cutoffs
    Mutant("traces-delta-conv", "traces.py", "_DELTA_CONV = 1e-6", "_DELTA_CONV = 1e-3",
           ("tests/test_traces.py::test_refusal_matches_eager_scheme",)),
    Mutant("traces-k-max", "traces.py", "_K_MAX = 40", "_K_MAX = 30",
           ("tests/test_traces.py::test_singular_trace_vanishes_on_bounded_grids",)),
    Mutant("spaces-rule-eps", "spaces.py", "_RULE_EPS = 1e-12", "_RULE_EPS = 0.0",
           ("tests/test_dets.py::test_integrability_unchanged",)),
    Mutant("spaces-witness-margin", "spaces.py", "_WITNESS_MARGIN = 1e-9",
           "_WITNESS_MARGIN = 0.0", ("tests/test_dets.py::test_decisions_unchanged_on_every_space",)),
    Mutant("spaces-rise-slack", "spaces.py", "v > prev + 1e-9 * (1.0 + prev)",
           "v > prev + 1e-6 * (1.0 + prev)", ("tests/test_spaces.py::test_audit_rejections",)),
    Mutant("spaces-quad-tolerances", "spaces.py", "epsabs=1e-14, epsrel=1e-10",
           "epsabs=1e-10, epsrel=1e-6",
           ("tests/test_spaces.py::test_profile_integral_calls_the_module_quad_binding",)),
    Mutant("spaces-psi-concavity-slack", "spaces.py", "s1 - s0 > 1e-12 * s0",
           "s1 - s0 > 1e-6 * s0",
           ("tests/test_spaces.py::test_psi_concavity_slack_is_relative_rounding_only",)),
    Mutant("dets-eps-agree", "dets.py", "_EPS_AGREE_TOL = 1e-6", "_EPS_AGREE_TOL = 1e-3",
           ("tests/test_dets.py::test_eps_comparison_projection_integral_trace_refuses",)),
    Mutant("stepfn-snap", "stepfn.py", "_SNAP = 1e-9", "_SNAP = 0.0",
           ("tests/test_stepfn.py::test_node_snap_window",)),
    Mutant("matmodel-hermiticity", "matmodel.py", "HERMITICITY_RTOL = 1e-12",
           "HERMITICITY_RTOL = 1e-6",
           ("tests/test_matmodel.py::test_hermiticity_decision_at_the_tolerance",)),
    Mutant("verify-cutoff-guard", "verify.py", "_CUTOFF_GUARD = 1e-12", "_CUTOFF_GUARD = 0.0",
           ("tests/test_verify.py::test_golden_csv_digests",)),
    # structure of the exact kernels and of the audit grids
    Mutant("verify-truncation-side", "verify.py", 'side="right"', 'side="left"',
           ("tests/test_verify.py::test_commutator_truncation_keeps_the_ties_at_the_cut",)),
    Mutant("stepfn-sum-for-fsum", "stepfn.py", "out.append(math.fsum(terms))",
           "out.append(sum(terms))",
           ("tests/test_stepfn_properties.py::test_integrals_match_the_reference_per_interval",)),
    Mutant("stepfn-dropped-end-cell", "stepfn.py",
           "for k in (*range(k0, w0), *range(w1, k1)):", "for k in range(w1, k1):",
           ("tests/test_stepfn_properties.py::test_integrals_match_the_reference_per_interval",)),
    Mutant("spaces-geomspace-offset", "spaces.py", "k * ((b - a) / 63) + a", "k * ((b - a) / 63)",
           ("tests/test_spaces.py::test_audit_grid_literals_are_numpy_geomspace_bit_for_bit",)),
)


def _copy_src(tmp: str) -> str:
    src = os.path.join(tmp, "src")
    shutil.copytree(os.path.join(ROOT, "src"), src,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return src


def _tests_pass(src: str, tests) -> bool:
    """True when the tests pass against the specdet package under src."""
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=src),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=600)
    return run.returncode == 0


def _apply(src: str, mutant: Mutant) -> None:
    path = os.path.join(src, "specdet", mutant.path)
    with open(path) as fh:
        text = fh.read()
    count = text.count(mutant.old)
    if count != 1:
        raise SystemExit(f"{mutant.name}: {mutant.old!r} occurs {count} times in {mutant.path}")
    with open(path, "w") as fh:
        fh.write(text.replace(mutant.old, mutant.new))


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        tests = sorted({t for m in MUTANTS for t in m.tests})
        if not _tests_pass(_copy_src(tmp), tests):
            print("error: the named tests fail on the unmutated source", file=sys.stderr)
            return 2
    survived = 0
    for mutant in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            src = _copy_src(tmp)
            _apply(src, mutant)
            killed = not _tests_pass(src, mutant.tests)
        survived += not killed
        print(f"{'killed  ' if killed else 'SURVIVED'} {mutant.name}: "
              f"{mutant.path} {mutant.old!r} -> {mutant.new!r}", flush=True)
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} killed in "
          f"{time.perf_counter() - start:.0f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
