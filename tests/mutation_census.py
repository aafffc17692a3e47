"""Mutation census: each listed one-line mutant of src/ must fail its named tests.

    python tests/mutation_census.py

Run from the root of a checkout.  Each mutant replaces one string, which
must occur exactly once, in one file of src/specdet; a mutant that needs a
second place in the same file lists it as a further replacement, held to the
same rule.  For each, src/ is
copied to a temporary directory, the replacement is applied there, and the
tests named for it run in a fresh pytest process that imports specdet from
the copy.  The mutant is killed
when those tests fail.  The named tests first run once on an unmutated copy,
where they must pass, so a kill is the mutant's doing.  One line per mutant,
then the run time; the exit code is 1 when a mutant survived.

The tolerance mutants cover every tolerance constant and cutoff of the
library; the decision mutants cover the window and floor of the eps limit,
the majorization tolerance and the psi origin ratio; the structural ones
cover the exact integral, the truncation of the commutator criterion and the
audit grids; the matrix ones cover the copy of a caller's array, the
in-place conjugation of the functional calculus, the lifetime of its
eigenvectors, the halving of the samplers' Hermitian-part step and the
order of the signed parts; the last one covers the sign of the grid that
stepfn.signed_parts builds its negative part from.  pytest does
not collect this file (its name does not start with test_), so tier-1 does
not run it.

One known mutant is equivalent and not listed: in spaces._log_plus_tail,
PowerTail(0.0, 1.0) -> PowerTail(0.0, 0.5).  With a = 0 every membership
rule decides on a alone, so no test can tell the two apart.
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
    also: Tuple[Tuple[str, str], ...] = ()   # further (old, new) pairs in path


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
    Mutant("matmodel-hermiticity", "matmodel.py", "_HERMITICITY_RTOL = 1e-12",
           "_HERMITICITY_RTOL = 1e-6",
           ("tests/test_matmodel.py::test_hermiticity_decision_at_the_tolerance",)),
    Mutant("verify-cutoff-guard", "verify.py", "_CUTOFF_GUARD = 1e-12", "_CUTOFF_GUARD = 0.0",
           ("tests/test_verify.py::test_golden_csv_digests",)),
    # decision constants, each pinned at its boundary
    Mutant("dets-eps-window", "dets.py", "_EPS_WINDOW = 5", "_EPS_WINDOW = 3",
           ("tests/test_dets.py::test_eps_limit_needs_its_last_five_values_to_agree",)),
    Mutant("dets-eps-floor", "dets.py", "max(1.0, abs(tail[-1]))", "abs(tail[-1])",
           ("tests/test_dets.py::test_eps_limit_tolerance_is_absolute_below_one",)),
    Mutant("verify-majorization-tol", "verify.py", '"majorization": 1e-10,',
           '"majorization": 1e-8,',
           ("tests/test_verify.py::"
            "test_majorization_fails_a_row_short_by_1e_9_at_its_default_tolerance",)),
    Mutant("spaces-psi-origin-ratio", "spaces.py", "0.05 * self.fn(0.5)", "0.5 * self.fn(0.5)",
           ("tests/test_spaces.py::test_psi_origin_test_admits_by_the_ratio_psi_0_to_psi_half",)),
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
    # the copy policy: a caller's array is copied, not kept
    Mutant("matmodel-caller-copy", "matmodel.py", "a = np.array(entries, dtype=np.complex128)",
           "a = np.asarray(entries, dtype=np.complex128)",
           ("tests/test_matmodel.py::test_operator_keeps_its_entries_and_spectra_after_the_caller_writes",)),
    # the functional calculus: V* formed in place, and the basis dropped after the call
    Mutant("matmodel-conj-dropped", "matmodel.py", "np.conjugate(v, out=v)", "pass",
           ("tests/test_verify.py::test_golden_csv_digests",)),
    Mutant("matmodel-vectors-kept", "matmodel.py",
           '__slots__ = ("_a", "_svals", "_eigs", "_self_adjoint")',
           '__slots__ = ("_a", "_svals", "_eigs", "_self_adjoint", "_eigvecs")',
           ("tests/test_matmodel.py::test_no_eigenvector_array_outlives_the_call",),
           also=(("            self._eigs = w\n",
                  "            self._eigs = w\n            self._eigvecs = v\n"),)),
    # the samplers' Hermitian-part step and the order of the signed parts
    Mutant("matmodel-hermitian-half", "matmodel.py", "h /= 2.0", "pass",
           ("tests/test_matmodel.py::test_samplers_match_the_written_out_recipe_bytewise",)),
    Mutant("matmodel-signed-parts-swapped", "matmodel.py",
           "functional_calculus(a, _positive, _negative)",
           "functional_calculus(a, _negative, _positive)",
           ("tests/test_verify.py::test_golden_csv_digests",)),
    Mutant("stepfn-negative-part-from-v", "stepfn.py", "for w in (v, -v))", "for w in (v, v))",
           ("tests/test_stepfn_properties.py::"
            "test_eval_functional_matches_the_clip_rearrange_subtract_formula",)),
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
    for old, new in ((mutant.old, mutant.new), *mutant.also):
        count = text.count(old)
        if count != 1:
            raise SystemExit(f"{mutant.name}: {old!r} occurs {count} times in {mutant.path}")
        text = text.replace(old, new)
    with open(path, "w") as fh:
        fh.write(text)


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
