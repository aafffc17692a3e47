"""Determinants over trace and space choices: branches, limits, witnesses."""

import math

import numpy as np
import pytest

from specdet.dets import (
    DetDomainError,
    _strictly_member,
    _strictly_not_member,
    UnsupportedProductError,
    UnsupportedProfileError,
    commuting_profile_product,
    det_multiplicativity_check,
    det_phi,
    det_phi_with_branch,
    eps_limit_comparison,
    separating_witness_scenario,
)
from specdet.matmodel import (
    EnsembleSpec,
    MatrixOperator,
    fk_det,
    haar_unitary,
    identity,
    polar_abs,
    sample,
)
from specdet.spaces import (
    Membership,
    MembershipUndecidableError,
    PsiFn,
    constant_profile,
    elog_membership,
    exp_flip_profile,
    membership,
    power_profile,
    projection_profile,
    psi_prime_profile,
    space_linf,
    space_llog,
    space_lp,
    space_marcinkiewicz,
)
from specdet.stepfn import GridFn
from specdet.traces import integral_trace, singular_trace


def _ginibre(n: int, seed: int) -> MatrixOperator:
    return sample(EnsembleSpec(kind="iid-complex-gaussian", n=n, seed=seed))


PHI1 = integral_trace(1.0)


# ---- matrix branch ----

def test_det_identity_is_one():
    assert det_phi_with_branch(identity(6), PHI1) == (1.0, 1)
    assert det_phi_with_branch(identity(6), integral_trace(2.0)) == (1.0, 1)
    assert det_phi(identity(3), singular_trace()) == 1.0


def test_det_matrix_matches_fk_det():
    for seed in range(10):
        a = _ginibre(12, seed)
        assert det_phi(a, PHI1) == pytest.approx(fk_det(a), rel=1e-12)


def test_det_matrix_against_slogdet_oracle():
    for seed in range(6):
        a = _ginibre(9, 50 + seed)
        _, logabs = np.linalg.slogdet(a.entries)
        assert det_phi(a, PHI1) == pytest.approx(math.exp(logabs / 9), rel=1e-10)


def test_det_scaled_trace_is_power():
    a = _ginibre(8, 3)
    assert det_phi(a, integral_trace(2.0)) == pytest.approx(det_phi(a, PHI1) ** 2, rel=1e-12)


def test_det_inverse_is_reciprocal():
    a = _ginibre(7, 21)
    inv = MatrixOperator(np.linalg.inv(a.entries))
    assert det_phi(a, PHI1) * det_phi(inv, PHI1) == pytest.approx(1.0, rel=1e-9)


def test_det_unitary_conjugation_invariance():
    a = _ginibre(10, 33)
    u = haar_unitary(10, np.random.default_rng(34))
    b = MatrixOperator(u @ a.entries @ u.conj().T)
    assert det_phi(b, PHI1) == pytest.approx(det_phi(a, PHI1), rel=1e-10)


def test_det_path_independence_matrix_vs_mu_grid():
    a = _ginibre(8, 77)
    d_matrix, br_m = det_phi_with_branch(a, PHI1)
    d_abs, br_a = det_phi_with_branch(polar_abs(a), PHI1)
    d_grid, br_g = det_phi_with_branch(GridFn(a.singular_values.copy()), PHI1)
    assert br_m == br_a == br_g == 1
    assert d_matrix == d_grid  # same singular values, same fsum
    assert d_abs == pytest.approx(d_matrix, rel=1e-11)


def test_det_singular_matrix_branch3():
    a = MatrixOperator(np.diag([2.0, 1.0, 0.0]).astype(complex))
    assert det_phi_with_branch(a, PHI1) == (0.0, 3)
    assert det_phi_with_branch(GridFn([2.0, 1.0, 0.0]), PHI1) == (0.0, 3)


def test_det_multiplicativity_report():
    a, b = _ginibre(16, 1), _ginibre(16, 2)
    rep = det_multiplicativity_check(a, b)
    assert rep.det_ab == pytest.approx(rep.det_a * rep.det_b, rel=1e-10)
    assert rep.product == rep.det_a * rep.det_b
    assert rep.rel_discrepancy <= 1e-10


def test_det_grid_rejects_negative_values():
    with pytest.raises(ValueError):
        det_phi(GridFn([1.0, -1.0]), PHI1)


def test_det_rejects_unknown_input_type():
    with pytest.raises(TypeError):
        det_phi(3.5, PHI1)


def test_singular_trace_det_on_invertible_matrix_is_one():
    # bounded log spectrum has zero singular trace on both parts
    a = _ginibre(10, 90)
    assert det_phi(a, singular_trace()) == pytest.approx(1.0, abs=1e-9)


# ---- profile branch ----

def test_profile_det_requires_space():
    with pytest.raises(ValueError):
        det_phi(psi_prime_profile(), PHI1)


def test_exact_flip_profile_det_value():
    x = exp_flip_profile(psi_prime_profile(), 1.0)
    value, branch = det_phi_with_branch(x, singular_trace(), space_marcinkiewicz())
    assert branch == 1
    assert value == math.exp(-1.0)


def test_flip_profile_det_scales_in_exponent():
    x2 = exp_flip_profile(psi_prime_profile(), 2.0)
    value, branch = det_phi_with_branch(x2, singular_trace(), space_marcinkiewicz())
    assert branch == 1
    assert value == pytest.approx(math.exp(-2.0), rel=1e-12)


def test_projection_profile_det_branch3():
    value, branch = det_phi_with_branch(projection_profile(0.5), PHI1, space_lp(1.0))
    assert (value, branch) == (0.0, 3)


def test_witness_profile_det_branch2():
    # x = exp(-t^(-3/4)) over L1: log- totals 4, det e^-4; over L2 the log-
    # part leaves the space entirely and the determinant collapses to zero
    x = exp_flip_profile(power_profile(0.75), 1.0)
    v_large, br_large = det_phi_with_branch(x, PHI1, space_lp(1.0))
    assert br_large == 1
    assert v_large == math.exp(-4.0)
    v_small, br_small = det_phi_with_branch(x, PHI1, space_lp(2.0))
    assert (v_small, br_small) == (0.0, 2)


def test_profile_without_log_decomposition_is_unsupported():
    with pytest.raises(UnsupportedProfileError):
        det_phi(power_profile(0.3), PHI1, space_lp(1.0))


def test_det_undecidable_membership_raises():
    space = space_marcinkiewicz(PsiFn("sqrt", math.sqrt))
    x = exp_flip_profile(power_profile(0.5), 1.0)
    with pytest.raises(MembershipUndecidableError):
        det_phi(x, PHI1, space)


def test_det_input_outside_elog_raises():
    # log+ of e^(t^-2) fails every Lp witness bound
    y = exp_flip_profile(power_profile(2.0), -1.0)
    with pytest.raises(DetDomainError):
        det_phi(y, PHI1, space_lp(1.0))


# ---- commuting profile products ----

def test_product_of_flip_profiles_adds_exponents():
    a = exp_flip_profile(psi_prime_profile(), 1.0)
    b = exp_flip_profile(psi_prime_profile(), 1.0)
    prod = commuting_profile_product(a, b)
    phi, space = singular_trace(), space_marcinkiewicz()
    assert det_phi(prod, phi, space) == pytest.approx(det_phi(a, phi, space) * det_phi(b, phi, space), rel=1e-12)
    assert det_phi(prod, phi, space) == pytest.approx(math.exp(-2.0), rel=1e-12)


def test_product_with_inverse_flip_is_constant_one():
    a = exp_flip_profile(psi_prime_profile(), 1.0)
    inv = exp_flip_profile(psi_prime_profile(), -1.0)
    prod = commuting_profile_product(a, inv)
    assert prod(0.3) == 1.0
    phi, space = singular_trace(), space_marcinkiewicz()
    # multiplicativity across branches: e^-1 * e^1 = 1
    assert det_phi(a, phi, space) * det_phi(inv, phi, space) == pytest.approx(1.0, rel=1e-12)
    assert det_phi(prod, phi, space) == 1.0


def test_product_of_power_profiles():
    p = commuting_profile_product(power_profile(0.25), power_profile(0.5))
    assert p(0.3) == pytest.approx(0.3 ** -0.75, rel=1e-13)


def test_product_with_constants_and_projections():
    c = constant_profile(3.0)
    p = power_profile(0.5)
    assert commuting_profile_product(c, p)(0.25) == pytest.approx(3.0 * 0.25 ** -0.5, rel=1e-14)
    assert commuting_profile_product(constant_profile(0.0), p)(0.5) == 0.0
    pr = commuting_profile_product(projection_profile(0.25), projection_profile(0.5))
    assert pr.kernel_mass == 0.5


def test_unsupported_products_raise():
    with pytest.raises(UnsupportedProductError):
        commuting_profile_product(psi_prime_profile(), power_profile(0.5))
    with pytest.raises(UnsupportedProductError):
        commuting_profile_product(
            exp_flip_profile(psi_prime_profile(), 1.0),
            exp_flip_profile(power_profile(0.5), 1.0),
        )
    with pytest.raises(UnsupportedProductError):
        commuting_profile_product(power_profile(0.5, 1.0), power_profile(0.25))


# ---- eps-shifted comparison ----

def test_eps_comparison_invertible_matrix_agrees():
    a = _ginibre(8, 5)
    cmp = eps_limit_comparison(a, PHI1)
    assert cmp.branch == 1
    assert cmp.converged
    assert cmp.agree
    assert cmp.limit == pytest.approx(cmp.det_value, rel=1e-6)
    assert len(cmp.epsilons) == len(cmp.values)
    assert all(x >= y for x, y in zip(cmp.values, cmp.values[1:]))


def test_eps_comparison_singular_matrix_tends_to_zero():
    spectrum = (2.0, 1.0) + (0.0,) * 6
    a = sample(EnsembleSpec(kind="diagonal-with-prescribed-spectrum", n=8, spectrum=spectrum))
    cmp = eps_limit_comparison(a, PHI1, k_max=40)
    assert cmp.det_value == 0.0 and cmp.branch == 3
    assert cmp.values[-1] < 1e-6
    assert all(x >= y for x, y in zip(cmp.values, cmp.values[1:]))


def test_eps_comparison_flip_profile_limit_is_one():
    # the exact determinant is e^-1 but the eps-regularized family tends to 1:
    # a genuine discontinuity of the eps limit, reported rather than hidden
    x = exp_flip_profile(psi_prime_profile(), 1.0)
    cmp = eps_limit_comparison(x, singular_trace(), space_marcinkiewicz())
    assert cmp.det_value == math.exp(-1.0)
    assert cmp.converged
    assert abs(cmp.limit - 1.0) <= 1e-6
    assert not cmp.agree


def test_eps_comparison_projection_limit_is_one():
    # under the singular functional every eps-shift evaluates to exactly 1,
    # while the exact determinant is 0: the sharpest form of the discontinuity
    cmp = eps_limit_comparison(projection_profile(0.5), singular_trace(), space_marcinkiewicz())
    assert cmp.det_value == 0.0 and cmp.branch == 3
    assert cmp.converged
    assert abs(cmp.limit - 1.0) <= 1e-6
    assert not cmp.agree


def test_eps_comparison_projection_integral_trace_refuses():
    # with the integral functional the shifted values decay like sqrt(eps):
    # too slowly to certify a limit inside the window, and that is reported
    cmp = eps_limit_comparison(projection_profile(0.5), PHI1, space_lp(1.0))
    assert cmp.det_value == 0.0 and cmp.branch == 3
    assert not cmp.converged
    assert cmp.values[-1] < 1e-3


def test_eps_comparison_validates_window():
    with pytest.raises(ValueError):
        eps_limit_comparison(identity(2), PHI1, k_min=5, k_max=5)


# ---- separating witness ----

def test_witness_scenario_l2_vs_l1():
    rep = separating_witness_scenario(space_lp(2.0), space_lp(1.0), power_profile(0.75))
    assert rep.det_large == math.exp(-4.0)
    assert rep.branch_large == 1
    assert rep.det_small == 0.0
    assert rep.branch_small == 2
    assert rep.integral_t == 4.0
    assert rep.small_space == "L2" and rep.large_space == "L1"


def test_witness_scenario_rejects_bounded_t():
    with pytest.raises(DetDomainError):
        separating_witness_scenario(space_lp(2.0), space_lp(1.0), constant_profile(1.0))


def test_witness_scenario_rejects_boundary_t():
    # p * a = 1 exactly on the small side: no strict certificate either way
    with pytest.raises(DetDomainError):
        separating_witness_scenario(space_lp(2.0), space_lp(1.0), power_profile(0.5))


def test_witness_scenario_rejects_non_member_of_large():
    with pytest.raises(DetDomainError):
        separating_witness_scenario(space_lp(2.0), space_lp(1.0), power_profile(1.5))


def test_witness_scenario_marcinkiewicz_large_side():
    rep = separating_witness_scenario(space_linf(), space_marcinkiewicz(), power_profile(0.9))
    assert rep.branch_large == 1
    assert rep.det_large == pytest.approx(math.exp(-10.0), rel=1e-12)
    assert rep.integral_t == pytest.approx(10.0, rel=1e-14)
    assert rep.det_small == 0.0 and rep.branch_small == 2


def test_witness_scenario_refuses_edge_member_of_marcinkiewicz():
    # psi-prime sits exactly on the boundary of the psi-log space: its head
    # integral over psi is identically the scale, so there is no strict margin
    with pytest.raises(DetDomainError):
        separating_witness_scenario(space_linf(), space_marcinkiewicz(), psi_prime_profile())


# Decisions over M(psi-log) before the psi-log rules were keyed on the psi
# object: membership, log+ membership (M member, N not, U undecidable), then
# certified strict membership and strict non-membership (1 yes, 0 no).
_PSI_LOG_DECISIONS = {
    (0.0, 0.0): "MM10", (0.0, 1.0): "MM10",
    (0.5, -3.0): "MM10", (0.5, -2.0): "MM10", (0.5, -1.0): "MM10",
    (0.5, 0.0): "MM10", (0.5, 1.0): "MM10",
    (0.75, -3.0): "MM10", (0.75, -2.0): "MM10", (0.75, -1.0): "MM10",
    (0.75, 0.0): "MM10", (0.75, 1.0): "MM10",
    (1.0, -3.0): "MM00", (1.0, -2.0): "MM00", (1.0, -1.0): "NM00",
    (1.0, 0.0): "NM00", (1.0, 1.0): "NM00",
    (1.5, -3.0): "NM01", (1.5, -2.0): "NM01", (1.5, -1.0): "NM01",
    (1.5, 0.0): "NM01", (1.5, 1.0): "NM01",
    "psi-prime": "MM00",
    "exp-flip(power(0.5),-1)": "NM01",
    "exp-neg-psi-prime-flip": "MM10",
    "projection(0.5)": "MM10",
    "const(2)": "MM10",
}


def _decision_profile(key):
    if isinstance(key, tuple):
        return power_profile(*key)
    return {
        "psi-prime": psi_prime_profile,
        "exp-flip(power(0.5),-1)": lambda: exp_flip_profile(power_profile(0.5), -1.0),
        "exp-neg-psi-prime-flip": lambda: exp_flip_profile(psi_prime_profile(), 1.0),
        "projection(0.5)": lambda: projection_profile(0.5),
        "const(2)": lambda: constant_profile(2.0),
    }[key]()


def _decisions(space, profile):
    short = {Membership.MEMBER: "M", Membership.NOT_MEMBER: "N", Membership.UNDECIDABLE: "U"}
    return (short[membership(space, profile)] + short[elog_membership(space, profile)]
            + str(int(_strictly_member(space, profile)))
            + str(int(_strictly_not_member(space, profile))))


@pytest.mark.parametrize("key", list(_PSI_LOG_DECISIONS), ids=str)
def test_psi_log_decisions_unchanged(key):
    assert _decisions(space_marcinkiewicz(), _decision_profile(key)) == _PSI_LOG_DECISIONS[key]


def test_psi_named_impostor_is_never_certified():
    impostor = space_marcinkiewicz(PsiFn("psi-log", math.sqrt))
    assert _decisions(impostor, power_profile(0.75)) == "UU00"
    assert _decisions(impostor, power_profile(1.5)) == "UU00"
    with pytest.raises(DetDomainError, match="strict member"):
        separating_witness_scenario(space_linf(), impostor, power_profile(0.9))
    with pytest.raises(MembershipUndecidableError):
        det_phi(exp_flip_profile(power_profile(0.75), -1.0), integral_trace(1.0), impostor)
