"""Command line surface: exit codes, output formats, error reporting."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import specdet
from specdet import matmodel
from specdet.cli import _build_parser, main
from specdet.matmodel import MatrixOperator, identity, save_matrix


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
    save_matrix(identity(4), str(path))
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
    save_matrix(identity(4), str(path))
    code, out, err = _run(capsys, ["det", "--input", str(path)])
    assert code == 1
    assert out == ""
    assert err == "error: SVD did not converge\n"


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
    save_matrix(identity(2), str(path))
    code, out, err = _run(capsys, ["det", "--input", str(path), "--trace", "weird"])
    assert code == 2
    code, out, err = _run(capsys, ["det", "--input", str(path), "--space", "l-zero"])
    assert code == 2


def test_det_domain_refusal_exits_1(capsys):
    # a profile with no registered log decomposition cannot be evaluated
    code, out, err = _run(capsys, ["det", "--input", "kind=power a=0.3"])
    assert code == 1
    assert "log decomposition" in err


def test_det_inverted_flip_over_l1(capsys):
    # exp(+psi') stays inside the log-closed L1 hull: det = exp(psi(1)) = e^(1/2)
    code, out, err = _run(capsys, ["det", "--input", "name=exp-neg-psi-prime-flip scale=-1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["branch"] == 1
    assert payload["value"] == pytest.approx(math.exp(0.5), rel=1e-12)


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


def test_example_unknown_name_exits_2(capsys):
    code, out, err = _run(capsys, ["example", "--name", "ex-9-9"])
    assert code == 2


def test_example_out_file(capsys, tmp_path):
    target = tmp_path / "example.json"
    code, out, err = _run(capsys, ["example", "--name", "ex-3-4-projection", "--out", str(target)])
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["pass"] is True


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
