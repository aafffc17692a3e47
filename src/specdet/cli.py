"""Batch command line interface.

Three subcommands: `verify` runs the seeded inequality suites and writes a
CSV or JSON report, `det` evaluates one determinant on a matrix file or a
profile spec line, `example` reproduces the named closed-form scenarios and
compares against their expected constants.  Exit codes: 0 success, 1 honest
mathematical failure (violated bound, non-convergent limit, undecidable
membership, domain refusal, a LAPACK decomposition that fails, a
determinant or an eps-shifted value past the float range), 2 usage errors
and a missing QUADPACK.  `main` is the one place that maps a failure to its
exit code: exit 1 is a spaces.Refusal, which every refusal class of the
library subclasses, or LinAlgError, OverflowError or FloatingPointError; exit
2 is any other ValueError, an OSError or an ImportError.  Each refusal
carries its own message, written where it is raised.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import Dict, List, Optional

from numpy.linalg import LinAlgError

from .dets import det_phi_with_branch, eps_limit_comparison, separating_witness_scenario
from .matmodel import load_matrix
from .spaces import (
    Refusal,
    parse_profile_spec,
    parse_space,
    power_profile,
    projection_profile,
    space_lp,
    space_marcinkiewicz,
)
from .traces import parse_trace, singular_trace
from .verify import (
    SUITE_NAMES,
    SuiteConfig,
    result_to_json,
    rows_to_csv,
    run_suite,
)

_MATH_ERRORS = (Refusal, LinAlgError, OverflowError, FloatingPointError)

EXAMPLE_NAMES = ("ex-3-4-invertible", "ex-3-4-projection", "prop-3-2")


def _write_output(payload: str, path: Optional[str]) -> None:
    """Write the report to path, or to stdout; a failed write raises an OSError naming path."""
    if not path:
        sys.stdout.write(payload)
        return
    try:
        with open(path, "w") as fh:
            fh.write(payload)
    except OSError as exc:
        raise OSError(f"cannot write {path!r}: {exc.strerror or exc}") from None


def _parse_tols(pairs: Optional[List[str]]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for item in pairs or []:
        name, sep, value = item.partition("=")
        if sep:
            out[name.strip()] = float(value)
        else:
            out["default"] = float(item)
    return out


def cmd_verify(args: argparse.Namespace) -> int:
    if args.suite.strip().lower() == "all":
        suites = SUITE_NAMES
    else:
        suites = tuple(s.strip() for s in args.suite.split(",") if s.strip())
    config = SuiteConfig(
        suites=suites, n=args.n, trials=args.trials, seed=args.seed,
        tol_overrides=_parse_tols(args.tol),
    )
    result = run_suite(config)
    payload = rows_to_csv(result.rows) if args.format == "csv" else result_to_json(result)
    _write_output(payload, args.out)
    for name in suites:
        rep = result.reports[name]
        status = "PASS" if rep.passed else "FAIL"
        if not rep.rows:
            print(f"{name}: {status} (no-data)", file=sys.stderr)
        else:
            print(
                f"{name}: {status} rows={len(rep.rows)} violations={rep.violations} "
                f"worst_margin={rep.worst_margin:.3e}",
                file=sys.stderr,
            )
    return 0 if result.passed else 1


def _load_det_input(text: str):
    if "=" in text:
        return parse_profile_spec(text)
    if not os.path.exists(text):
        raise FileNotFoundError(f"matrix file {text!r} does not exist")
    return load_matrix(text)


def cmd_det(args: argparse.Namespace) -> int:
    x = _load_det_input(args.input)
    phi = parse_trace(args.trace)
    space = parse_space(args.space)
    if args.eps_compare:
        cmp = eps_limit_comparison(x, phi, space)
        value, branch = cmp.det_value, cmp.branch
    else:
        value, branch = det_phi_with_branch(x, phi, space)
    report = {
        "input": args.input,
        "trace": phi.name,
        "space": space.name,
        "branch": branch,
        "value": value,
    }
    if args.eps_compare:
        report["eps"] = {
            "epsilons": cmp.epsilons,
            "values": cmp.values,
            "limit": cmp.limit,
            "converged": cmp.converged,
            "agrees_with_exact": cmp.agree,
        }
    _write_output(json.dumps(report, indent=2) + "\n", args.out)
    return 0


def _example_scenario(name: str) -> dict:
    checks = []

    def record(label, computed, expected, kind, tol):
        if computed is None:
            ok = False
        elif kind == "rel":
            ok = abs(computed - expected) <= tol * abs(expected)
        elif kind == "exact":
            ok = computed == expected
        else:
            ok = abs(computed - expected) <= tol
        checks.append({
            "label": label,
            "computed": computed,
            "expected": expected,
            "comparison": kind,
            "tolerance": tol,
            "pass": bool(ok),
        })

    if name == "ex-3-4-invertible":
        x = parse_profile_spec("name=exp-neg-psi-prime-flip")
        phi = singular_trace()
        space = space_marcinkiewicz()
        cmp = eps_limit_comparison(x, phi, space)
        value, branch = cmp.det_value, cmp.branch
        record("det", value, math.exp(-1.0), "rel", 1e-9)
        record("branch", branch, 1, "exact", 0.0)
        record("eps_limit", cmp.limit, 1.0, "abs", 1e-6)
    elif name == "ex-3-4-projection":
        x = projection_profile(0.5)
        phi = singular_trace()
        space = space_marcinkiewicz()
        cmp = eps_limit_comparison(x, phi, space)
        value, branch = cmp.det_value, cmp.branch
        record("det", value, 0.0, "exact", 0.0)
        record("branch", branch, 3, "exact", 0.0)
        record("eps_limit", cmp.limit, 1.0, "abs", 1e-6)
    else:
        witness = power_profile(0.75)
        rep = separating_witness_scenario(space_lp(2.0), space_lp(1.0), witness)
        record("det_over_large_space", rep.det_large, math.exp(-4.0), "rel", 1e-9)
        record("branch_large", rep.branch_large, 1, "exact", 0.0)
        record("det_over_small_space", rep.det_small, 0.0, "exact", 0.0)
        record("branch_small", rep.branch_small, 2, "exact", 0.0)
        record("witness_integral", rep.integral_t, 4.0, "rel", 1e-12)
    return {"name": name, "checks": checks, "pass": all(c["pass"] for c in checks)}


def cmd_example(args: argparse.Namespace) -> int:
    report = _example_scenario(args.name)
    _write_output(json.dumps(report, indent=2) + "\n", args.out)
    return 0 if report["pass"] else 1


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and reused by every main() call."""
    parser = argparse.ArgumentParser(
        prog="specdet",
        description="Singular-value calculus verification harness and determinant evaluator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run seeded inequality suites")
    p_verify.add_argument("--suite", default="all",
                          help="comma-separated suite names, or 'all'")
    p_verify.add_argument("--n", type=int, default=64, help="matrix size, 2..512")
    p_verify.add_argument("--trials", type=int, default=100,
                          help="seeded trials per suite (0 gives a no-data report)")
    p_verify.add_argument("--seed", type=int, default=42, help="master seed")
    p_verify.add_argument("--tol", action="append", metavar="NAME=VAL",
                          help="tolerance override; bare value sets the default")
    p_verify.add_argument("--out", help="write the report here instead of stdout")
    p_verify.add_argument("--format", choices=("csv", "json"), default="csv")
    p_verify.set_defaults(func=cmd_verify)

    p_det = sub.add_parser("det", help="evaluate one determinant")
    p_det.add_argument("--input", required=True,
                       help="matrix file path, or a profile line of key=value tokens")
    p_det.add_argument("--trace", default="integral:1",
                       help="integral:<c> or singular:psi-log")
    p_det.add_argument("--space", default="L1",
                       help="L1, L2, Lp:<p>, Linf, Llog, or marcinkiewicz")
    p_det.add_argument("--eps-compare", action="store_true",
                       help="also report the eps-shifted value sequence")
    p_det.add_argument("--out", help="write the JSON report here instead of stdout")
    p_det.set_defaults(func=cmd_det)

    p_example = sub.add_parser("example", help="reproduce a named closed-form scenario")
    p_example.add_argument("--name", required=True, choices=EXAMPLE_NAMES)
    p_example.add_argument("--out", help="write the JSON report here instead of stdout")
    p_example.set_defaults(func=cmd_example)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0
    # _MATH_ERRORS first: most refusals subclass ValueError
    try:
        return args.func(args)
    except _MATH_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
