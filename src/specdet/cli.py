"""Batch command line interface.

Three subcommands: `verify` runs the seeded inequality suites and writes a
CSV or JSON report, `det` evaluates one determinant on a matrix file or a
profile spec line, `example` reproduces the named closed-form scenarios and
compares against their expected constants.  Exit codes: 0 success, 1 honest
mathematical failure (violated bound, non-convergent limit, undecidable
membership, domain refusal, a LAPACK decomposition that fails, a
determinant or an eps-shifted value past the float range), 2 usage errors
and a missing QUADPACK or numpy.  `main` is the one place that maps a
failure to its exit code: exit 1 is a spaces.Refusal, which every refusal
class of the library subclasses, or numpy's LinAlgError, OverflowError or
FloatingPointError; exit 2 is any other ValueError, an OSError or an
ImportError.  Each refusal carries its own message, written where it is
raised.

A command imports what it needs when it runs.  `verify` imports
specdet.verify and a matrix file specdet.matmodel, and both load numpy.
Importing this module, and a `det` or `example` on closed-form profiles
without quadrature (such as `example --name prop-3-2`), load no numpy; a
quadrature loads it through scipy's _quadpack extension.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import Dict, List, Optional

from .dets import det_phi_with_branch, eps_limit_comparison, separating_witness_scenario
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

_MATH_ERRORS = (Refusal, OverflowError, FloatingPointError)


def _exit_code(exc: Exception) -> Optional[int]:
    """1 for a mathematical failure, 2 for a usage error, None for a program bug.

    numpy's LinAlgError is a mathematical failure.  It can only have been
    raised once numpy.linalg is loaded, so it is looked up there rather than
    imported: a run that never needs numpy never loads it.  The refusal
    classes come first, since most of them subclass ValueError.
    """
    linalg = sys.modules.get("numpy.linalg")
    if isinstance(exc, _MATH_ERRORS) or (linalg is not None
                                         and isinstance(exc, linalg.LinAlgError)):
        return 1
    if isinstance(exc, (ValueError, OSError, ImportError)):
        return 2
    return None


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
    """NAME=VAL items by target; a bare value targets "default", and a repeated target refuses."""
    out: Dict[str, float] = {}
    for item in pairs or []:
        name, sep, value = item.partition("=")
        key = name.strip() if sep else "default"
        if key in out:
            raise ValueError(f"tolerance target {key!r} is given more than once")
        out[key] = float(value if sep else item)
    return out


def cmd_verify(args: argparse.Namespace) -> int:
    from . import verify

    if args.suite.strip().lower() == "all":
        suites = verify.SUITE_NAMES
    else:
        suites = tuple(s.strip() for s in args.suite.split(",") if s.strip())
    given = {key: getattr(args, key) for key in ("n", "trials", "seed")
             if getattr(args, key) is not None}
    config = verify.SuiteConfig(suites=suites, tol_overrides=_parse_tols(args.tol), **given)
    result = verify.run_suite(config)
    if args.format == "csv":
        payload = verify.rows_to_csv(result.rows)
    else:
        payload = verify.result_to_json(result)
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
    from .matmodel import load_matrix

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


def _check(label, computed, expected, kind, tol) -> dict:
    """One example check: computed against expected, "rel", "abs" or "exact"."""
    if computed is None:
        ok = False
    elif kind == "rel":
        ok = abs(computed - expected) <= tol * abs(expected)
    elif kind == "exact":
        ok = computed == expected
    else:
        ok = abs(computed - expected) <= tol
    return {"label": label, "computed": computed, "expected": expected,
            "comparison": kind, "tolerance": tol, "pass": bool(ok)}


def _example_3_4(x, det, det_kind, det_tol, branch):
    """Example 3.4: x under the singular trace over M(psi-log), whose eps-shifted limit is 1."""
    cmp = eps_limit_comparison(x, singular_trace(), space_marcinkiewicz())
    return [("det", cmp.det_value, det, det_kind, det_tol),
            ("branch", cmp.branch, branch, "exact", 0.0),
            ("eps_limit", cmp.limit, 1.0, "abs", 1e-6)]


def _prop_3_2():
    rep = separating_witness_scenario(space_lp(2.0), space_lp(1.0), power_profile(0.75))
    return [("det_over_large_space", rep.det_large, math.exp(-4.0), "rel", 1e-9),
            ("branch_large", rep.branch_large, 1, "exact", 0.0),
            ("det_over_small_space", rep.det_small, 0.0, "exact", 0.0),
            ("branch_small", rep.branch_small, 2, "exact", 0.0),
            ("witness_integral", rep.integral_t, 4.0, "rel", 1e-12)]


# example name -> the scenario, giving its checks as _check arguments
_EXAMPLES = {
    "ex-3-4-invertible": lambda: _example_3_4(
        parse_profile_spec("name=exp-neg-psi-prime-flip"), math.exp(-1.0), "rel", 1e-9, 1),
    "ex-3-4-projection": lambda: _example_3_4(projection_profile(0.5), 0.0, "exact", 0.0, 3),
    "prop-3-2": _prop_3_2,
}
EXAMPLE_NAMES = tuple(_EXAMPLES)


def _example_scenario(name: str) -> dict:
    checks = [_check(*args) for args in _EXAMPLES[name]()]
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
    # --n, --trials and --seed default to None: cmd_verify leaves an option
    # that is not given to SuiteConfig, which owns the defaults
    p_verify.add_argument("--n", type=int, help="matrix size, 2..512")
    p_verify.add_argument("--trials", type=int,
                          help="seeded trials per suite (0 gives a no-data report)")
    p_verify.add_argument("--seed", type=int, help="master seed")
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
    try:
        return args.func(args)
    except Exception as exc:
        code = _exit_code(exc)
        if code is None:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
