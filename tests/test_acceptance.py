"""Acceptance gate: the thirteen primary criteria at their stated tolerances.

Each test prints one [PASS]/[FAIL] line naming its criterion, then asserts it.
The first nine mirror the CLI verification suites at acceptance scale
(n = 64, 100 trials, seed 42); the rest pin the closed-form determinant
scenarios, the trace axioms, and byte-level determinism of the harness.
"""

import math
import time

import numpy as np
import pytest

from specdet.cli import main
from specdet.dets import (
    det_multiplicativity_check,
    det_phi,
    det_phi_with_branch,
    eps_limit_comparison,
    separating_witness_scenario,
)
from specdet.matmodel import MatrixOperator, ginibre, haar_unitary, hermitian_gaussian
from specdet.spaces import (
    exp_flip_profile,
    power_profile,
    profile_integral,
    projection_profile,
    psi_log,
    psi_prime_profile,
    space_lp,
    space_marcinkiewicz,
)
from specdet.stepfn import GridFn
from specdet.traces import eval_functional, eval_on_operator, integral_trace, singular_trace
from specdet.verify import SUITE_NAMES, SuiteConfig, run_suite

ACCEPT_N = 64
ACCEPT_TRIALS = 100
ACCEPT_SEED = 42


def _criterion(num: int, desc: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


@pytest.fixture(scope="module")
def acceptance_result():
    config = SuiteConfig(suites=SUITE_NAMES, n=ACCEPT_N, trials=ACCEPT_TRIALS, seed=ACCEPT_SEED)
    return run_suite(config)


def _suite_ok(result, name: str) -> bool:
    rep = result.reports[name]
    return rep.violations == 0 and rep.trials == ACCEPT_TRIALS and len(rep.rows) > 0


def test_criterion_01_determinant_multiplicativity():
    start = time.perf_counter()
    worst = 0.0
    for n in (2, 8, 32, 64):
        for i in range(100):
            a = ginibre(10000 + n * 1000 + 2 * i, n)
            b = ginibre(10000 + n * 1000 + 2 * i + 1, n)
            worst = max(worst, det_multiplicativity_check(a, b).rel_discrepancy)
    elapsed = time.perf_counter() - start
    _criterion(
        1,
        f"det(AB) = det(A)det(B) on 100 pairs at each n in 2,8,32,64 "
        f"(worst rel {worst:.2e}, {elapsed:.1f}s)",
        worst <= 1e-9 and elapsed < 5.0,
    )


def test_criterion_02_eps_regularization():
    worst = 0.0
    for i in range(20):
        a = ginibre(777 + i, 32)
        d = det_phi(a, integral_trace(1.0))
        worst = max(worst, abs(det_phi(GridFn(a.singular_values + 2.0 ** -30), integral_trace(1.0)) - d) / d)
    spectrum = (2.0, 1.0) + (0.0,) * 6
    s = MatrixOperator(np.diag(spectrum))
    vals = [det_phi(GridFn(s.singular_values + 2.0 ** -k), integral_trace(1.0)) for k in range(4, 41, 4)]
    monotone = all(x >= y for x, y in zip(vals, vals[1:]))
    _criterion(
        2,
        f"eps-regularized determinants: invertible worst rel {worst:.2e}, "
        f"singular tail {vals[-1]:.2e}",
        worst <= 1e-6 and monotone and vals[-1] < 1e-6 and det_phi(s, integral_trace(1.0)) == 0.0,
    )


def test_criterion_03_product_log_integral(acceptance_result):
    rep = acceptance_result.reports["product-log-integral"]
    ok = _suite_ok(acceptance_result, "product-log-integral") and rep.runtime_ms < 30000.0
    _criterion(
        3,
        f"integrated log inequality for exponential products: "
        f"{len(rep.rows)} rows, {rep.violations} violations, {rep.runtime_ms / 1000.0:.1f}s",
        ok,
    )


def test_criterion_04_product_log_pointwise(acceptance_result):
    rep = acceptance_result.reports["product-log-pointwise"]
    _criterion(
        4,
        f"pointwise two-sided log bounds for exponential products: "
        f"{len(rep.rows)} rows, {rep.violations} violations",
        _suite_ok(acceptance_result, "product-log-pointwise"),
    )


def test_criterion_05_majorization(acceptance_result):
    rep = acceptance_result.reports["majorization"]
    _criterion(
        5,
        f"head-integral majorization for sums: {len(rep.rows)} rows, "
        f"{rep.violations} violations (tol 1e-10)",
        _suite_ok(acceptance_result, "majorization"),
    )


def test_criterion_06_sum_psi_bound(acceptance_result):
    rep = acceptance_result.reports["sum-psi-bound"]
    _criterion(
        6,
        f"windowed integral bound for sums: {len(rep.rows)} rows, "
        f"{rep.violations} violations",
        _suite_ok(acceptance_result, "sum-psi-bound"),
    )


def test_criterion_07_split_psi_vanishing(acceptance_result):
    rep = acceptance_result.reports["split-psi-vanishing"]
    below = [r for r in rep.rows if r.bound == 0.0]
    sup_rows = [r for r in rep.rows if r.bound != 0.0]
    small = all(abs(r.quantity) <= 1e-10 for r in below)
    finite = all(math.isfinite(r.quantity) and r.ok for r in sup_rows)
    _criterion(
        7,
        f"signed-part splitting transform vanishes below threshold: "
        f"{len(below)} zero rows, sup rows finite",
        _suite_ok(acceptance_result, "split-psi-vanishing") and small and finite,
    )


def test_criterion_08_commutator_criterion(acceptance_result):
    rep = acceptance_result.reports["commutator-criterion"]
    _criterion(
        8,
        f"truncated trace vs averaged eigenvalues: {len(rep.rows)} rows, "
        f"{rep.violations} violations",
        _suite_ok(acceptance_result, "commutator-criterion"),
    )


def test_criterion_09_standard_and_closure(acceptance_result):
    rep_std = acceptance_result.reports["standard-inequalities"]
    rep_log = acceptance_result.reports["log-closure"]
    _criterion(
        9,
        f"two-variable singular value inequalities and dilated log closure: "
        f"{len(rep_std.rows) + len(rep_log.rows)} rows, "
        f"{rep_std.violations + rep_log.violations} violations",
        _suite_ok(acceptance_result, "standard-inequalities")
        and _suite_ok(acceptance_result, "log-closure"),
    )


def test_criterion_10_flip_profile_determinant():
    x = exp_flip_profile(psi_prime_profile(), 1.0)
    phi, space = singular_trace(), space_marcinkiewicz()
    value, branch = det_phi_with_branch(x, phi, space)
    ratios_exact = all(
        profile_integral(psi_prime_profile(), 0.0, 2.0 ** -k) / psi_log()(2.0 ** -k) == 1.0
        for k in range(8, 41)
    )
    cmp_inv = eps_limit_comparison(x, phi, space)
    proj = projection_profile(0.5)
    v_proj, br_proj = det_phi_with_branch(proj, phi, space)
    cmp_proj = eps_limit_comparison(proj, phi, space)
    ok = (
        abs(value - math.exp(-1.0)) <= 1e-9 * math.exp(-1.0)
        and branch == 1
        and ratios_exact
        and cmp_inv.converged and abs(cmp_inv.limit - 1.0) <= 1e-6
        and (v_proj, br_proj) == (0.0, 3)
        and cmp_proj.converged and abs(cmp_proj.limit - 1.0) <= 1e-6
    )
    _criterion(
        10,
        f"flip-profile determinant e^-1 with eps-limit 1 "
        f"(det {value:.12f}, limits {cmp_inv.limit:.8f}/{cmp_proj.limit:.8f})",
        ok,
    )


def test_criterion_11_separating_witness():
    rep = separating_witness_scenario(space_lp(2.0), space_lp(1.0), power_profile(0.75))
    ok = (
        abs(rep.det_large - math.exp(-4.0)) <= 1e-9 * math.exp(-4.0)
        and rep.branch_large == 1
        and rep.det_small == 0.0
        and rep.branch_small == 2
        and abs(rep.integral_t - 4.0) <= 1e-12 * 4.0
    )
    _criterion(
        11,
        f"witness separates the spaces: det {rep.det_large:.12e} over L1, "
        f"{rep.det_small} over L2",
        ok,
    )


def test_criterion_12_trace_axioms():
    phi = integral_trace(1.0)
    worst_tau = 0.0
    for i in range(100):
        a = hermitian_gaussian(5000 + i, 64)
        worst_tau = max(worst_tau, abs(eval_on_operator(phi, a) - a.tau))
    worst_u = 0.0
    for i in range(10):
        a = hermitian_gaussian(6000 + i, 48)
        u = haar_unitary(48, np.random.default_rng(6100 + i))
        b = MatrixOperator(u @ a.entries @ u.conj().T)
        worst_u = max(worst_u, abs(eval_on_operator(phi, b) - eval_on_operator(phi, a)))
    sing = singular_trace()
    worst_grid = 0.0
    for i in range(20):
        v = np.random.default_rng(1000 + i).random(48) * 5.0
        worst_grid = max(worst_grid, abs(eval_functional(sing, GridFn(v))))
    exact_one = eval_functional(sing, psi_prime_profile())
    _criterion(
        12,
        f"trace axioms: tau dev {worst_tau:.1e}, conjugation dev {worst_u:.1e}, "
        f"singular on bounded {worst_grid:.1e}, on the extremal profile {exact_one}",
        worst_tau <= 1e-12 and worst_u <= 1e-10 and worst_grid <= 1e-6 and exact_one == 1.0,
    )


def test_criterion_13_harness_determinism(tmp_path):
    argv_base = [
        "verify", "--suite", "all",
        "--n", str(ACCEPT_N), "--trials", str(ACCEPT_TRIALS), "--seed", str(ACCEPT_SEED),
    ]
    out1 = tmp_path / "run1.csv"
    out2 = tmp_path / "run2.csv"
    t0 = time.perf_counter()
    code1 = main(argv_base + ["--out", str(out1)])
    t1 = time.perf_counter()
    code2 = main(argv_base + ["--out", str(out2)])
    t2 = time.perf_counter()
    payload1 = out1.read_bytes()
    payload2 = out2.read_bytes()
    ok = (
        code1 == 0 and code2 == 0
        and payload1 == payload2
        and len(payload1) > 0
        and (t1 - t0) < 120.0 and (t2 - t1) < 120.0
    )
    _criterion(
        13,
        f"two full verification runs emit identical payloads "
        f"({len(payload1)} bytes, {t1 - t0:.1f}s and {t2 - t1:.1f}s)",
        ok,
    )
