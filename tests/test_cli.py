"""Command line surface: exit codes, output formats, error reporting."""

import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import specdet
from specdet import cli, dets, matmodel, spaces, traces, verify
from specdet.cli import _build_parser, main
from specdet.dets import DetDomainError, UnsupportedProfileError
from specdet.matmodel import MatrixOperator, save_matrix
from specdet.spaces import (
    DivergenceError,
    MembershipUndecidableError,
    QuadratureError,
    Refusal,
    SpectralProfile,
    constant_profile,
)
from specdet.traces import NonConvergentError
from specdet.verify import SUITE_NAMES


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def failing_svd(monkeypatch):
    def svd(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(matmodel.np.linalg, "svd", svd)


# ---- verify ----

def test_verify_quick_pass(capsys):
    code, out, err = _run(capsys, ["verify", "--suite", "majorization", "--n", "8", "--trials", "2", "--seed", "3"])
    assert code == 0
    assert out.startswith("check_name,seed,trial,n,t_or_r,quantity,bound,margin,pass\n")
    assert "majorization: PASS" in err


def test_verify_all_token(capsys):
    code, out, err = _run(capsys, ["verify", "--suite", "all", "--n", "4", "--trials", "1", "--seed", "5"])
    assert code == 0
    assert err.count("PASS") == 9


def test_verify_multiple_suites(capsys):
    code, out, err = _run(capsys, ["verify", "--suite", "majorization,log-closure", "--n", "8", "--trials", "1"])
    assert code == 0
    assert "log-closure: PASS" in err


def test_verify_unknown_suite_exits_2_with_menu(capsys):
    code, out, err = _run(capsys, ["verify", "--suite", "wavelets", "--n", "8", "--trials", "1"])
    assert code == 2
    assert "unknown suite" in err
    assert "majorization" in err  # the menu


def test_det_misspelled_profile_key_exits_2(capsys):
    code, out, err = _run(capsys, ["det", "--input", "kind=power a=0.75 sclae=2"])
    assert code == 2
    assert out == ""
    assert err == "error: profile power does not take 'sclae'; it takes a, b, scale\n"


def test_det_projection_without_kernel_exits_2(capsys):
    # the table default kernel=0.0 is refused by projection_profile; without a
    # default the constructor's TypeError would escape as a traceback
    code, out, err = _run(capsys, ["det", "--input", "name=projection"])
    assert code == 2
    assert out == ""
    assert err == "error: kernel mass must lie in (0, 1)\n"


def _readme_profile_grammar():
    """{builtin: [(key, default or None when the line must give it)]} from the README."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("Profile line grammar", 1)[1].split("```")[1]
    rows = {}
    for line in block.strip().splitlines():
        first, *keys = line.split("  ", 1)[0].split()
        row = first.partition("=")[2]
        assert row not in rows, line
        rows[row] = []
        for token in keys:
            key, _, value = token.strip("[]").partition("=")
            rows[row].append((key, float(value) if token.startswith("[") else None))
    return rows


def test_readme_profile_grammar_names_the_builtin_table():
    rows = _readme_profile_grammar()
    assert list(rows) == list(spaces._BUILTINS)
    for row, keys in rows.items():
        _build, defaults = spaces._BUILTINS[row]
        assert [key for key, _ in keys] == list(defaults), row
        for key, shown in keys:
            if shown is None:  # a key the line must give: the table default is refused
                with pytest.raises(ValueError):
                    spaces.parse_profile_spec(f"name={row}")
            else:
                assert shown == defaults[key], (row, key)


@pytest.mark.parametrize("suite", [",", " , ", ""])
def test_verify_empty_suite_list_exits_2(capsys, suite):
    code, out, err = _run(capsys, ["verify", "--suite", suite, "--n", "8", "--trials", "1"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: no suite given")
    assert err.count("\n") == 1


@pytest.mark.parametrize("suite", ["majorization,majorization",
                                   "majorization,log-closure, majorization"])
def test_verify_repeated_suite_exits_2(capsys, suite):
    # run as given, a repeated suite would report each of its rows four times
    code, out, err = _run(capsys, ["verify", "--suite", suite, "--n", "8", "--trials", "1"])
    assert (code, out) == (2, "")
    assert err == "error: suite 'majorization' is given more than once\n"


@pytest.mark.parametrize("tols, key", [(["majorization=-10", "majorization=1e-3"], "majorization"),
                                       (["majorization=-10", " majorization=-10"], "majorization"),
                                       (["-10", "1e-3"], "default"),
                                       (["-10", "default=1e-3"], "default")])
def test_verify_repeated_tolerance_exits_2(capsys, tols, key):
    # kept, the last value would drop the first, a forced failure included
    argv = ["verify", "--suite", "majorization", "--n", "8", "--trials", "1"]
    code, out, err = _run(capsys, argv + [arg for tol in tols for arg in ("--tol", tol)])
    assert (code, out) == (2, "")
    assert err == f"error: tolerance target {key!r} is given more than once\n"


@pytest.mark.parametrize("tol, key, what", [("nan", "default", "NaN"), ("NaN", "default", "NaN"),
                                            ("majorization=nan", "majorization", "NaN"),
                                            ("default=-nan", "default", "NaN"),
                                            ("inf", "default", "+inf"),
                                            ("majorization=Infinity", "majorization", "+inf")])
def test_verify_nan_tolerance_exits_2(capsys, tol, key, what):
    # no margin compares >= NaN, so a NaN tolerance would fail every row, and
    # every finite margin is >= -inf, so +inf would pass every row
    code, out, err = _run(capsys, ["verify", "--suite", "majorization", "--n", "8",
                                   "--trials", "1", "--tol", tol])
    assert (code, out) == (2, "")
    assert err == f"error: tolerance for {key!r} is {what}\n"


def test_verify_unknown_suite_is_one_error_line(capsys):
    code, out, err = _run(capsys, ["verify", "--suite", "majorization,wavelets", "--n", "8",
                                   "--trials", "1"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: unknown suite 'wavelets'; choose from product-log-integral,")
    assert err.count("\n") == 1


@pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5", ""])
def test_verify_malformed_thread_count_exits_2(capsys, monkeypatch, value):
    # invalid values only: a valid one would start worker threads
    monkeypatch.setenv("SPECDET_THREADS", value)
    code, out, err = _run(capsys, ["verify", "--suite", "majorization", "--n", "8", "--trials", "2"])
    assert code == 2 and out == ""
    assert err == f"error: SPECDET_THREADS must be an integer >= 1, got {value!r}\n"


def test_verify_bad_n_exits_2(capsys):
    code, out, err = _run(capsys, ["verify", "--suite", "majorization", "--n", "1", "--trials", "1"])
    assert code == 2
    code, out, err = _run(capsys, ["verify", "--suite", "majorization", "--n", "1024", "--trials", "1"])
    assert code == 2


def test_verify_zero_trials_no_data(capsys):
    code, out, err = _run(capsys, ["verify", "--suite", "majorization", "--n", "8", "--trials", "0"])
    assert code == 0
    assert "no-data" in err
    assert out == "check_name,seed,trial,n,t_or_r,quantity,bound,margin,pass\n"


def test_verify_forced_failure_exits_1(capsys):
    code, out, err = _run(capsys, [
        "verify", "--suite", "majorization", "--n", "8", "--trials", "1",
        "--tol", "majorization=-10",
    ])
    assert code == 1
    assert "FAIL" in err


def test_verify_bad_tol_exits_2(capsys):
    code, out, err = _run(capsys, ["verify", "--suite", "majorization", "--tol", "nonsense=1e-9", "--n", "8", "--trials", "1"])
    assert code == 2
    code, out, err = _run(capsys, ["verify", "--suite", "majorization", "--tol", "majorization=abc", "--n", "8", "--trials", "1"])
    assert code == 2
    code, out, err = _run(capsys, ["verify", "--suite", "majorization", "--tol", "majorizaton=1", "--n", "8", "--trials", "1"])
    assert code == 2 and out == ""
    assert err == f"error: unknown tolerance target 'majorizaton'; suites: {', '.join(SUITE_NAMES)}\n"


def test_verify_json_format(capsys):
    code, out, err = _run(capsys, ["verify", "--suite", "majorization", "--n", "8", "--trials", "1", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["config"]["suites"] == ["majorization"]


def test_verify_out_file(capsys, tmp_path):
    target = tmp_path / "report.csv"
    code, out, err = _run(capsys, [
        "verify", "--suite", "majorization", "--n", "8", "--trials", "1", "--out", str(target),
    ])
    assert code == 0
    assert out == ""
    text = target.read_text()
    assert text.startswith("check_name,seed,trial,n,")


def test_verify_lapack_failure_exits_1(capsys, failing_svd):
    code, out, err = _run(capsys, ["verify", "--suite", "majorization", "--n", "8", "--trials", "1"])
    assert code == 1
    assert out == ""
    assert err == "error: SVD did not converge\n"


# ---- det ----

def test_det_identity_matrix_file(capsys, tmp_path):
    path = tmp_path / "id.mat"
    save_matrix(MatrixOperator(np.eye(4)), str(path))
    code, out, err = _run(capsys, ["det", "--input", str(path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 1.0
    assert payload["branch"] == 1
    assert payload["trace"] == "integral:1"
    assert payload["space"] == "L1"


def test_det_singular_matrix_file(capsys, tmp_path):
    path = tmp_path / "sing.mat"
    save_matrix(MatrixOperator(np.diag([2.0, 1.0, 0.0, 0.0]).astype(complex)), str(path))
    code, out, err = _run(capsys, ["det", "--input", str(path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 0.0
    assert payload["branch"] == 3


def test_det_lapack_failure_exits_1(capsys, tmp_path, failing_svd):
    # loading validates the entries only; the svd runs inside the determinant
    path = tmp_path / "id.mat"
    save_matrix(MatrixOperator(np.eye(4)), str(path))
    code, out, err = _run(capsys, ["det", "--input", str(path)])
    assert code == 1
    assert out == ""
    assert err == "error: SVD did not converge\n"


def test_det_quadrature_warning_exits_1(capsys, monkeypatch):
    # a warning from quad (a nonzero ier) is a refusal, not a value; the
    # bounded rest of the shifted superpower log has no antiderivative, so
    # the first shifted value reaches quad
    def warning_quad(func, a, b):
        return 0.0, 1.0, 1

    monkeypatch.setattr(spaces, "quad", warning_quad)
    code, out, err = _run(capsys, [
        "det", "--input", "name=exp-neg-psi-prime-flip scale=-1",
        "--trace", "integral:1", "--space", "L1", "--eps-compare",
    ])
    assert code == 1
    assert out == ""
    assert err == ("error: quadrature of profile 'log1p(0.0625/exp-neg-psi-prime-flip)' "
                   "on (0.0, 1.0) is unreliable: QUADPACK qagse code 1, the maximum number "
                   "of subdivisions allowed has been achieved\n")


def test_det_profile_line_flip(capsys):
    code, out, err = _run(capsys, [
        "det", "--input", "name=exp-neg-psi-prime-flip",
        "--trace", "singular:psi-log", "--space", "marcinkiewicz",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == math.exp(-1.0)
    assert payload["branch"] == 1
    assert payload["space"] == "M(psi-log)"


def test_det_projection_profile_line(capsys):
    code, out, err = _run(capsys, [
        "det", "--input", "name=projection kernel=0.5",
        "--trace", "singular:psi-log", "--space", "marcinkiewicz",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 0.0
    assert payload["branch"] == 3


def test_det_eps_compare(capsys):
    code, out, err = _run(capsys, [
        "det", "--input", "name=exp-neg-psi-prime-flip",
        "--trace", "singular:psi-log", "--space", "marcinkiewicz",
        "--eps-compare",
    ])
    assert code == 0
    payload = json.loads(out)
    eps = payload["eps"]
    assert len(eps["epsilons"]) == len(eps["values"])
    assert abs(eps["limit"] - 1.0) <= 1e-6
    assert eps["converged"] is True
    assert eps["agrees_with_exact"] is False


@pytest.mark.parametrize("argv", [
    ["det", "--input", "name=exp-neg-psi-prime-flip", "--trace", "singular:psi-log",
     "--space", "marcinkiewicz", "--eps-compare"],
    ["example", "--name", "ex-3-4-invertible"],
    ["example", "--name", "ex-3-4-projection"],
], ids=["det", "ex-3-4-invertible", "ex-3-4-projection"])
def test_eps_compare_evaluates_the_determinant_once(capsys, monkeypatch, argv):
    from specdet import cli, dets

    calls = []
    real = dets.det_phi_with_branch

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(dets, "det_phi_with_branch", counted)
    monkeypatch.setattr(cli, "det_phi_with_branch", counted)
    code, out, err = _run(capsys, argv)
    assert code == 0
    assert len(calls) == 1


def test_det_missing_file_exits_2(capsys, tmp_path):
    code, out, err = _run(capsys, ["det", "--input", str(tmp_path / "absent.mat")])
    assert code == 2
    assert err != ""


def test_det_directory_input_exits_2(capsys, tmp_path):
    code, out, err = _run(capsys, ["det", "--input", str(tmp_path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["det", "--input", "name=exp-neg-psi-prime-flip scale=-1"],
    ["example", "--name", "prop-3-2"],
    ["verify", "--suite", "majorization", "--n", "8", "--trials", "1"],
], ids=["det", "example", "verify"])
def test_unwritable_out_exits_2(capsys, tmp_path, argv):
    target = str(tmp_path / "missing-dir" / "report")
    code, out, err = _run(capsys, argv + ["--out", target])
    assert code == 2
    assert out == ""
    assert err == f"error: cannot write {target!r}: No such file or directory\n"


def test_det_malformed_profile_exits_2(capsys):
    code, out, err = _run(capsys, ["det", "--input", "name=unknown-profile"])
    assert code == 2
    code, out, err = _run(capsys, ["det", "--input", "kind=power a=bogus"])
    assert code == 2


def test_det_bad_trace_or_space_exits_2(capsys, tmp_path):
    path = tmp_path / "id.mat"
    save_matrix(MatrixOperator(np.eye(2)), str(path))
    code, out, err = _run(capsys, ["det", "--input", str(path), "--trace", "weird"])
    assert code == 2
    code, out, err = _run(capsys, ["det", "--input", str(path), "--space", "l-zero"])
    assert code == 2


def test_det_domain_refusal_exits_1(capsys):
    # a profile with no registered log decomposition cannot be evaluated
    code, out, err = _run(capsys, ["det", "--input", "kind=power a=0.3"])
    assert code == 1
    assert "log decomposition" in err


@pytest.mark.parametrize("line, name", [("kind=power a=400", "power(a=400,b=0,scale=1)"),
                                        ("kind=power a=0.5 b=400", "power(a=0.5,b=400,scale=1)"),
                                        ("kind=power a=1e308", "power(a=1e+308,b=0,scale=1)")])
def test_det_profile_overflowing_on_the_audit_grid_exits_2(capsys, line, name):
    code, out, err = _run(capsys, ["det", "--input", line])
    assert (code, out) == (2, "")
    assert err == f"error: profile {name!r} must be finite on the audit grid\n"


@pytest.mark.parametrize("eps", [[], ["--eps-compare"]])
@pytest.mark.parametrize("line, message", [
    # b=-inf would build an identically 0 profile that still declares a power tail
    ("kind=power a=0.5 b=-inf", "profile power key 'b' must be finite, got '-inf'"),
    ("name=exp-neg-psi-prime-flip scale=nan",
     "profile exp-neg-psi-prime-flip key 'scale' must be finite, got 'nan'"),
])
def test_det_non_finite_profile_key_exits_2(capsys, line, message, eps):
    code, out, err = _run(capsys, ["det", "--input", line] + eps)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("scale", ["-1", "0"])
def test_det_nonpositive_psi_prime_scale_exits_2(capsys, scale):
    code, out, err = _run(capsys, ["det", "--input", f"name=psi-prime scale={scale}"])
    assert (code, out, err) == (2, "", "error: scale must be positive\n")


_OVERFLOW = "error: the determinant overflows the float range\n"


@pytest.mark.parametrize("eps", [[], ["--eps-compare"]])
@pytest.mark.parametrize("c", ["1000", "1.7e308"])
def test_det_overflowing_matrix_determinant_exits_1(capsys, tmp_path, eps, c):
    # exp(1000 log 3) is past the float range; 1.7e308 log 3 is itself inf,
    # which once printed "value": Infinity
    path = tmp_path / "three.mat"
    save_matrix(MatrixOperator(3.0 * np.eye(3)), str(path))
    code, out, err = _run(capsys, ["det", "--input", str(path), "--trace", f"integral:{c}"] + eps)
    assert (code, out, err) == (1, "", _OVERFLOW)


def test_det_overflowing_profile_determinant_exits_1(capsys):
    code, out, err = _run(capsys, ["det", "--input", "name=exp-neg-psi-prime-flip scale=-1",
                                   "--trace", "integral:1e308"])
    assert (code, out, err) == (1, "", _OVERFLOW)


_UNDERFLOW = "error: the determinant underflows the float range\n"


@pytest.mark.parametrize("eps", [[], ["--eps-compare"]])
def test_det_underflowing_matrix_determinant_exits_1(capsys, tmp_path, eps):
    # exp(1000 log 1e-5) is below the float range: no exact zero on branch 1
    path = tmp_path / "tiny.mat"
    save_matrix(MatrixOperator(1e-5 * np.eye(3)), str(path))
    code, out, err = _run(capsys, ["det", "--input", str(path), "--trace", "integral:1000"] + eps)
    assert (code, out, err) == (1, "", _UNDERFLOW)


@pytest.mark.parametrize("eps", [[], ["--eps-compare"]])
def test_det_underflowing_profile_determinant_exits_1(capsys, eps):
    # exp(-2 * 1000 * psi(1)) = exp(-1000)
    code, out, err = _run(capsys, ["det", "--input", "name=exp-neg-psi-prime-flip scale=2",
                                   "--trace", "integral:1000"] + eps)
    assert (code, out, err) == (1, "", _UNDERFLOW)


@pytest.mark.parametrize("eps", [[], ["--eps-compare"]])
def test_det_matrix_whose_singular_values_overflow_exits_1(capsys, tmp_path, eps):
    # finite entries, singular values [inf, 0]: rank 1, so no determinant overflows
    path = tmp_path / "huge.mat"
    save_matrix(MatrixOperator(np.full((2, 2), 1e308)), str(path))
    code, out, err = _run(capsys, ["det", "--input", str(path)] + eps)
    assert (code, out) == (1, "")
    assert err == "error: the singular values of the matrix overflow the float range\n"


def test_det_eps_overflow_names_the_shifted_value(capsys, tmp_path):
    # 3^643 ~ 6.4e306 is a float; the shifted 3.0625^643 ~ 3.5e312 is not
    path = tmp_path / "three.mat"
    save_matrix(MatrixOperator(3.0 * np.eye(3)), str(path))
    argv = ["det", "--input", str(path), "--trace", "integral:643"]
    code, out, err = _run(capsys, argv)
    assert (code, err) == (0, "")
    assert json.loads(out)["value"] == pytest.approx(3.0 ** 643, rel=1e-12)
    code, out, err = _run(capsys, argv + ["--eps-compare"])
    assert (code, out) == (1, "")
    assert err == "error: the value shifted by eps = 0.0625 overflows the float range\n"
    assert "the determinant" not in err


def test_det_inverted_flip_over_l1(capsys):
    # exp(+psi') stays inside the log-closed L1 hull: det = exp(psi(1)) = e^(1/2)
    code, out, err = _run(capsys, ["det", "--input", "name=exp-neg-psi-prime-flip scale=-1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["branch"] == 1
    assert payload["value"] == pytest.approx(math.exp(0.5), rel=1e-12)


@pytest.mark.parametrize("trace, value", [("integral:1", math.exp(0.5)),
                                          ("singular:psi-log", math.e)])
@pytest.mark.parametrize("space", ["L1", "marcinkiewicz", "Llog"])
def test_det_inverted_flip_eps_sequence_converges(capsys, trace, value, space):
    # log(x + eps) = log+ x + log1p(eps / x) for x >= 1: the exact log+ plus a
    # bounded rest below log1p(eps), so the sequence tends to the exact value
    code, out, err = _run(capsys, ["det", "--input", "name=exp-neg-psi-prime-flip scale=-1",
                                   "--trace", trace, "--space", space, "--eps-compare"])
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["branch"] == 1
    assert payload["value"] == pytest.approx(value, rel=1e-12)
    eps = payload["eps"]
    assert eps["converged"] is True and eps["agrees_with_exact"] is True
    assert abs(eps["limit"] - value) <= 1e-6 * value
    assert all(v >= payload["value"] for v in eps["values"])


# (exit code, exception class) of each det call on a grid of profile lines x
# traces x spaces x --eps-compare: one letter per call, traces as the three
# groups, within a group the spaces in _CENSUS_SPACES order, each without and
# then with --eps-compare
_CENSUS_TRACES = ("integral:1", "integral:2.5", "singular:psi-log")
_CENSUS_SPACES = ("L1", "L2", "Lp:0.5", "Linf", "Llog", "marcinkiewicz")
_CENSUS_CODES = {".": (0, None), "U": (1, "UnsupportedProfileError"),
                 "D": (1, "DetDomainError")}
_NO_LOG_SPLIT = "UUUUUUDDUUUU " * 3
_CENSUS = {
    "name=psi-prime": _NO_LOG_SPLIT,
    "name=exp-neg-psi-prime-flip scale=1": "............ " * 3,
    "name=exp-neg-psi-prime-flip scale=2": "............ " * 3,
    "name=projection kernel=0.5": "............ " * 3,
    "name=projection kernel=0.25": "............ " * 3,
    "kind=power a=0.75": _NO_LOG_SPLIT,
    "kind=power a=1 b=-2": _NO_LOG_SPLIT,
    "name=psi-prime scale=7": _NO_LOG_SPLIT,
    "kind=power a=1 b=-3": _NO_LOG_SPLIT,
    "kind=power a=0.5 b=1": _NO_LOG_SPLIT,
    # exp(psi') has an unbounded log+, outside Linf and every Lp with p > 1
    "name=exp-neg-psi-prime-flip scale=-1": "..DD..DD.... " * 3,
    # the constant 1 with its registered log split
    "name=exp-neg-psi-prime-flip scale=0": "............ " * 3,
}


def test_det_refusal_census(capsys, monkeypatch):
    from specdet import cli

    raised = []

    def recording(fn):
        def call(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                raised.append(type(exc).__name__)
                raise
        return call

    for name in ("det_phi_with_branch", "eps_limit_comparison"):
        monkeypatch.setattr(cli, name, recording(getattr(cli, name)))
    for line, letters in _CENSUS.items():
        expected = [_CENSUS_CODES[c] for c in letters.replace(" ", "")]
        got = []
        for trace in _CENSUS_TRACES:
            for space in _CENSUS_SPACES:
                for eps in ([], ["--eps-compare"]):
                    raised.clear()
                    code, _, _ = _run(capsys, ["det", "--input", line, "--trace", trace,
                                               "--space", space] + eps)
                    got.append((code, raised[0] if raised else None))
        assert got == expected, line


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
def test_a_non_finite_integral_exits_1_naming_the_profile(capsys, monkeypatch, value):
    # a log+ whose antiderivative is not finite; before, its value reached exp
    from specdet import cli

    bad = SpectralProfile(name="bad", evaluator=lambda t: 0.0, antiderivative=lambda t: value)
    x = SpectralProfile(name="x", evaluator=lambda t: 1.0, log_plus=bad,
                        log_minus=constant_profile(0.0))
    monkeypatch.setattr(cli, "parse_profile_spec", lambda text: x)
    code, out, err = _run(capsys, ["det", "--input", "name=x"])
    assert (code, out) == (1, "")
    assert err == ("error: the antiderivative of profile 'bad' gives the integral "
                   f"{value!r} on (0.0, 1.0)\n")


# ---- the failure boundary in main ----

# each command with the module and name of the computation it calls; cli
# imports verify when the command runs, so run_suite is patched in verify
_COMPUTATIONS = {
    "verify": (["verify", "--suite", "majorization", "--n", "8", "--trials", "1"],
               verify, "run_suite"),
    "det": (["det", "--input", "name=exp-neg-psi-prime-flip"], cli, "det_phi_with_branch"),
    "example": (["example", "--name", "prop-3-2"], cli, "_example_scenario"),
}


def _refusal(cls):
    return cls("refused here", [0.0]) if cls is NonConvergentError else cls("refused here")


# the classes that exit 1, listed one by one so that a class dropped from
# cli._MATH_ERRORS fails here
_EXIT_1 = (
    DetDomainError,
    MembershipUndecidableError,
    NonConvergentError,
    UnsupportedProfileError,
    DivergenceError,
    QuadratureError,
    np.linalg.LinAlgError,
    OverflowError,
    FloatingPointError,
)


@pytest.mark.parametrize("cls, code", [(c, 1) for c in _EXIT_1]
                         + [(ValueError, 2), (OSError, 2), (ImportError, 2)],
                         ids=lambda v: getattr(v, "__name__", str(v)))
@pytest.mark.parametrize("command", list(_COMPUTATIONS))
def test_main_maps_each_failure_class_to_its_exit_code(capsys, monkeypatch, command, cls, code):
    argv, module, name = _COMPUTATIONS[command]

    def computation(*args, **kwargs):
        raise _refusal(cls)

    monkeypatch.setattr(module, name, computation)
    got, out, err = _run(capsys, argv)
    assert (got, out, err) == (code, "", "error: refused here\n")


# every exception class the library layers define
_LIBRARY_EXCEPTIONS = [
    obj for mod in (spaces, traces, dets) for obj in vars(mod).values()
    if isinstance(obj, type) and issubclass(obj, Exception) and obj.__module__ == mod.__name__
]


def test_the_library_defines_the_six_refusals():
    assert sorted(c.__name__ for c in _LIBRARY_EXCEPTIONS) == [
        "DetDomainError", "DivergenceError", "MembershipUndecidableError",
        "NonConvergentError", "QuadratureError", "Refusal", "UnsupportedProfileError",
    ]
    # each keeps its builtin base, so callers catching that still catch it
    assert issubclass(NonConvergentError, ArithmeticError)
    assert all(issubclass(c, ValueError) for c in _LIBRARY_EXCEPTIONS
               if c not in (Refusal, NonConvergentError))


@pytest.mark.parametrize("cls", _LIBRARY_EXCEPTIONS, ids=lambda c: c.__name__)
def test_every_library_exception_is_a_refusal_that_exits_1(capsys, monkeypatch, cls):
    from specdet import cli

    assert issubclass(cls, Refusal)

    def computation(*args, **kwargs):
        raise _refusal(cls)

    monkeypatch.setattr(cli, "det_phi_with_branch", computation)
    assert _run(capsys, _COMPUTATIONS["det"][0]) == (1, "", "error: refused here\n")


def test_main_leaves_a_program_bug_loud(capsys, monkeypatch):
    from specdet import cli

    def computation(*args, **kwargs):
        raise KeyError("bug")

    monkeypatch.setattr(cli, "_example_scenario", computation)
    with pytest.raises(KeyError):
        main(["example", "--name", "prop-3-2"])


def test_det_without_quadpack_exits_2(capsys, monkeypatch, tmp_path):
    # scipy absent: the first quadrature names it in one line, and a matrix
    # determinant, which needs no quadrature, still runs
    monkeypatch.setitem(sys.modules, "scipy", None)
    monkeypatch.delitem(sys.modules, "scipy.integrate._quadpack", raising=False)
    spaces._qagse.cache_clear()
    try:
        code, out, err = _run(capsys, ["det", "--input", "name=exp-neg-psi-prime-flip",
                                       "--eps-compare"])
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and err.startswith("error: ") and "scipy" in err
        assert "Traceback" not in err
        path = str(tmp_path / "id.mat")
        save_matrix(MatrixOperator(np.eye(3)), path)
        assert _run(capsys, ["det", "--input", path])[0] == 0
    finally:
        spaces._qagse.cache_clear()


def test_det_quadrature_without_numpy_exits_2_in_one_line(tmp_path):
    # QUADPACK's extension loads numpy's C API; spaces imports numpy before
    # it, so a blocked numpy gives numpy's own ImportError and nothing else,
    # not a line the extension writes to stderr followed by a vaguer error
    (tmp_path / "sitecustomize.py").write_text('import sys; sys.modules["numpy"] = None\n')
    src = os.path.dirname(os.path.dirname(os.path.abspath(specdet.__file__)))
    run = subprocess.run([sys.executable, "-m", "specdet.cli", "det", "--input",
                          "name=exp-neg-psi-prime-flip", "--eps-compare"],
                         capture_output=True, text=True, timeout=120, check=False,
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), src])))
    assert (run.returncode, run.stdout, run.stderr) == (
        2, "", "error: import of numpy halted; None in sys.modules\n")


def test_det_membership_refusal_exits_1(capsys):
    # the same profile has an unbounded log+, so the Linf hull rejects it
    code, out, err = _run(capsys, [
        "det", "--input", "name=exp-neg-psi-prime-flip scale=-1", "--space", "linf",
    ])
    assert code == 1
    assert err != ""


# ---- example ----

@pytest.mark.parametrize("name", ["ex-3-4-invertible", "ex-3-4-projection", "prop-3-2"])
def test_examples_pass(capsys, name):
    code, out, err = _run(capsys, ["example", "--name", name])
    assert code == 0
    payload = json.loads(out)
    assert payload["name"] == name
    assert payload["pass"] is True
    assert all(check["pass"] for check in payload["checks"])


def test_example_with_an_eps_limit_that_does_not_converge_exits_1(capsys, monkeypatch):
    # a limit of None is a failed check, not an error: the report still prints
    real = cli.eps_limit_comparison
    monkeypatch.setattr(cli, "eps_limit_comparison",
                        lambda *args: dataclasses.replace(real(*args), limit=None, converged=False))
    code, out, err = _run(capsys, ["example", "--name", "ex-3-4-invertible"])
    assert code == 1
    checks = {check["label"]: check for check in json.loads(out)["checks"]}
    assert checks["eps_limit"]["computed"] is None
    assert [label for label, check in checks.items() if not check["pass"]] == ["eps_limit"]


def test_example_unknown_name_exits_2(capsys):
    code, out, err = _run(capsys, ["example", "--name", "ex-9-9"])
    assert code == 2


def test_example_out_file(capsys, tmp_path):
    target = tmp_path / "example.json"
    code, out, err = _run(capsys, ["example", "--name", "ex-3-4-projection", "--out", str(target)])
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["pass"] is True


# ---- det and example digests ----

def test_det_digests_match_the_benchmark_reference():
    # the byte gate of det and example, as test_golden_csv_digests is that
    # of verify: the benchmark's 255 profile and example jobs and the matrix
    # jobs of input set 0, replayed against perfbench/reference.json in the
    # benchmark's BLAS set-up; tests/det_replay.py replays all 16 sets
    src = os.path.dirname(os.path.dirname(os.path.abspath(specdet.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "SPECDET_THREADS"}
    env.update(PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OPENBLAS_CORETYPE="Haswell")
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "det_replay.py")
    run = subprocess.run([sys.executable, script, "0"], capture_output=True, text=True,
                         timeout=300, env=env)
    assert run.returncode in (0, 1, 2), run.stderr
    report = json.loads(run.stdout)
    if report["skip"]:
        pytest.skip(report["skip"])
    assert report["jobs"] == 267
    assert report["mismatches"] == []


# ---- top level ----

def test_no_subcommand_exits_2(capsys):
    code, out, err = _run(capsys, [])
    assert code == 2


def test_unknown_subcommand_exits_2(capsys):
    code, out, err = _run(capsys, ["frobnicate"])
    assert code == 2


def test_parser_is_built_once():
    assert _build_parser() is _build_parser()


def test_det_after_usage_error_prints_what_a_fresh_process_prints(capsys):
    argv = ["det", "--input", "name=exp-neg-psi-prime-flip",
            "--trace", "singular:psi-log", "--space", "marcinkiewicz"]
    code, out, err = _run(capsys, ["det", "--trace", "integral:1"])   # no --input
    assert code == 2 and "--input" in err
    code, out, err = _run(capsys, argv)
    src = os.path.dirname(os.path.dirname(os.path.abspath(specdet.__file__)))
    fresh = subprocess.run([sys.executable, "-m", "specdet.cli", *argv],
                           capture_output=True, text=True, timeout=120,
                           env=dict(os.environ, PYTHONPATH=src), check=False)
    assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)


def test_plain_det_after_eps_compare_has_no_eps_key(capsys):
    argv = ["det", "--input", "name=projection kernel=0.5",
            "--trace", "singular:psi-log", "--space", "marcinkiewicz"]
    code, out, err = _run(capsys, argv + ["--eps-compare"])
    assert code == 0 and "eps" in json.loads(out)
    code, out, err = _run(capsys, argv)
    assert code == 0 and "eps" not in json.loads(out)


# scipy is loaded on the first quadrature only: verify, a matrix file and a
# profile with exact integrals (or one refused before any integral) never
# need it; an integral of a profile without an antiderivative loads
# QUADPACK's extension, and scipy.integrate imported after it still works
_SCIPY_FREE_START = """
import json, sys
from specdet.cli import main
import numpy as np
from specdet.matmodel import MatrixOperator, save_matrix

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

tmp = sys.argv[1]
save_matrix(MatrixOperator(np.eye(4)), tmp + "/id.mat")
codes = [
    main(["verify", "--suite", "all", "--n", "16", "--trials", "1", "--out", tmp + "/v.csv"]),
    main(["det", "--input", tmp + "/id.mat", "--out", tmp + "/m.json"]),
    main(["det", "--input", "kind=power a=0.5", "--out", tmp + "/p.json"]),
    main(["det", "--input", "name=exp-neg-psi-prime-flip", "--out", tmp + "/f.json"]),
]
before = scipy_loaded()

from specdet.spaces import power_profile, profile_integral
p = power_profile(0.5, 1.0)
value = profile_integral(p, 0.1, 0.9)
after = scipy_loaded()
from scipy.integrate import quad
direct = quad(p.evaluator, 0.1, 0.9, epsabs=1e-14, epsrel=1e-10, limit=200, full_output=1)[0]
print(json.dumps({"codes": codes, "before": before, "after": after,
                  "value": value.hex(), "direct": float(direct).hex()}))
"""


# numpy is loaded by the grid and matrix layers only: importing the cli, a
# profile det without quadrature, a refusal and prop-3-2 never need it
_NUMPY_FREE_START = """
import json, sys
from specdet.cli import main

tmp = sys.argv[1]
loaded = {"import": "numpy" in sys.modules}
codes = [
    main(["det", "--input", "name=exp-neg-psi-prime-flip", "--trace", "singular:psi-log",
          "--space", "marcinkiewicz", "--out", tmp + "/f.json"]),
    main(["det", "--input", "kind=power a=0.5", "--space", "L2"]),
    main(["example", "--name", "prop-3-2", "--out", tmp + "/e.json"]),
]
loaded["main"] = "numpy" in sys.modules
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_start_up_and_closed_form_runs_do_not_import_numpy(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(specdet.__file__)))
    run = subprocess.run([sys.executable, "-c", _NUMPY_FREE_START, str(tmp_path)],
                         capture_output=True, text=True, timeout=300,
                         env=dict(os.environ, PYTHONPATH=src), check=True)
    assert json.loads(run.stdout) == {"codes": [0, 1, 0],
                                      "loaded": {"import": False, "main": False}}
    assert run.stderr == ("error: profile 'power(a=0.5,b=0,scale=1)' "
                          "has no registered log decomposition\n")


def test_start_up_and_exact_runs_do_not_import_scipy(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(specdet.__file__)))
    run = subprocess.run([sys.executable, "-c", _SCIPY_FREE_START, str(tmp_path)],
                         capture_output=True, text=True, timeout=300,
                         env=dict(os.environ, PYTHONPATH=src), check=True)
    report = json.loads(run.stdout)
    # power(0.5) registers no log split, so its det refuses (exit 1)
    assert report["codes"] == [0, 0, 1, 0]
    assert report["before"] == []
    # the first quadrature loads QUADPACK's extension by itself, not the
    # scipy.integrate package with its solvers and their dependencies
    assert "scipy.integrate._quadpack" in report["after"]
    heavy = ("scipy.integrate._quadpack_py", "scipy.integrate._ivp", "scipy.sparse", "scipy.linalg",
             "scipy.special", "scipy.optimize")
    assert [m for m in report["after"] for h in heavy if m == h or m.startswith(h + ".")] == []
    assert report["value"] == report["direct"]
