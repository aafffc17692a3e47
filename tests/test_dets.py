"""Determinants over trace and space choices: branches, limits, witnesses."""

import collections
import math

import numpy as np
import pytest

from specdet import dets, spaces
from specdet.dets import (
    DetDomainError,
    UnsupportedProfileError,
    det_multiplicativity_check,
    det_phi,
    det_phi_with_branch,
    eps_limit_comparison,
    separating_witness_scenario,
)
from specdet.matmodel import MatrixOperator, ginibre, haar_unitary, mu_matrix
from specdet.spaces import (
    BOUNDED,
    SUPERPOWER,
    DivergenceError,
    Membership,
    MembershipUndecidableError,
    PowerTail,
    PsiFn,
    SpectralProfile,
    certified_membership,
    constant_profile,
    elog_membership,
    exp_flip_profile,
    membership,
    parse_profile_spec,
    parse_space,
    power_profile,
    profile_integral,
    projection_profile,
    psi_prime_profile,
    space_linf,
    space_llog,
    space_lp,
    space_marcinkiewicz,
)
from specdet.stepfn import GridFn
from specdet.traces import eval_functional, integral_trace, parse_trace, singular_trace
from dets_reference import eps_term_reference


PHI1 = integral_trace(1.0)


# ---- matrix branch ----

def test_det_identity_is_one():
    assert det_phi_with_branch(MatrixOperator(np.eye(6)), PHI1) == (1.0, 1)
    assert det_phi_with_branch(MatrixOperator(np.eye(6)), integral_trace(2.0)) == (1.0, 1)
    assert det_phi(MatrixOperator(np.eye(3)), singular_trace()) == 1.0


def test_det_below_the_float_range_refuses():
    # a branch-1 determinant is never 0, so a zero from exp refuses
    with pytest.raises(FloatingPointError, match="underflows"):
        det_phi_with_branch(MatrixOperator(1e-5 * np.eye(3)), integral_trace(1000.0))
    x = exp_flip_profile(psi_prime_profile(), 2.0)
    with pytest.raises(FloatingPointError, match="underflows"):
        det_phi_with_branch(x, integral_trace(1000.0), space_lp(1.0))
    assert det_phi_with_branch(x, integral_trace(700.0), space_lp(1.0)) == (math.exp(-700.0), 1)


@pytest.mark.parametrize("values, error, message", [
    ([1e300], OverflowError, "^the determinant overflows the float range$"),
    ([1e-300], FloatingPointError, "^the determinant underflows the float range$"),
    ([1e300, 1e-300], FloatingPointError, "^the log of the determinant is not a number$"),
])
def test_det_refuses_a_log_determinant_the_trace_overflows(values, error, message):
    # 1e306 * log(1e300) is past the float range, so the trace gives +-inf or
    # inf - inf = nan: neither is a determinant
    with pytest.raises(error, match=message):
        det_phi_with_branch(GridFn(values), integral_trace(1e306))


def test_eps_value_with_a_non_finite_log():
    assert dets._exp_eps(-math.inf, 0.0625) == 0.0
    with pytest.raises(OverflowError, match=r"^the value shifted by eps = 0\.0625 overflows"):
        dets._exp_eps(math.inf, 0.0625)
    # the refusal starts exactly where math.exp overflows
    assert dets._exp_eps(709.782712893384, 0.0625) == 1.7976931348622732e308
    with pytest.raises(OverflowError, match=r"^the value shifted by eps = 0\.0625 overflows"):
        dets._exp_eps(math.nextafter(709.782712893384, math.inf), 0.0625)
    with pytest.raises(FloatingPointError,
                       match=r"^the log of the value shifted by eps = 0\.0625 is not a number$"):
        dets._exp_eps(math.nan, 0.0625)


def test_det_matrix_against_slogdet_oracle():
    for n, seed in [(9, 50 + k) for k in range(6)] + [(10, k) for k in range(8)]:
        a = ginibre(seed, n)
        sign, logabs = np.linalg.slogdet(a.entries)
        assert abs(sign) == pytest.approx(1.0, rel=1e-12)
        assert det_phi(a, PHI1) == pytest.approx(math.exp(logabs / n), rel=1e-10)
    # exact cases: the identity, a multiple of it, and a singular diagonal
    assert det_phi_with_branch(MatrixOperator(np.eye(7)), PHI1) == (1.0, 1)
    assert det_phi(MatrixOperator(3.0 * np.eye(4)), PHI1) == pytest.approx(3.0, rel=1e-14)
    singular = MatrixOperator(np.diag([2.0, 1.0, 0.0]).astype(complex))
    assert det_phi_with_branch(singular, PHI1) == (0.0, 3)


def test_det_scaled_trace_is_power():
    a = ginibre(3, 8)
    assert det_phi(a, integral_trace(2.0)) == pytest.approx(det_phi(a, PHI1) ** 2, rel=1e-12)


def test_det_inverse_is_reciprocal():
    a = ginibre(21, 7)
    inv = MatrixOperator(np.linalg.inv(a.entries))
    assert det_phi(a, PHI1) * det_phi(inv, PHI1) == pytest.approx(1.0, rel=1e-9)


def test_det_unitary_conjugation_invariance():
    a = ginibre(33, 10)
    u = haar_unitary(10, np.random.default_rng(34))
    b = MatrixOperator(u @ a.entries @ u.conj().T)
    assert det_phi(b, PHI1) == pytest.approx(det_phi(a, PHI1), rel=1e-10)


def test_det_path_independence_matrix_vs_mu_grid():
    a = ginibre(77, 8)
    d_matrix, br_m = det_phi_with_branch(a, PHI1)
    _, s, vh = np.linalg.svd(a.entries)
    d_abs, br_a = det_phi_with_branch(MatrixOperator((vh.conj().T * s) @ vh), PHI1)  # |a|
    d_grid, br_g = det_phi_with_branch(GridFn(a.singular_values.copy()), PHI1)
    assert br_m == br_a == br_g == 1
    assert d_matrix == d_grid  # same singular values, same fsum
    assert d_abs == pytest.approx(d_matrix, rel=1e-11)
    # a matrix enters every determinant path as its singular value function
    for x in (a, MatrixOperator(np.diag([2.0, 0.5, 0.0]).astype(complex))):
        mu = mu_matrix(x)
        for phi in (PHI1, integral_trace(2.5), singular_trace()):
            assert det_phi_with_branch(x, phi) == det_phi_with_branch(mu, phi)
        cmp_x, cmp_mu = eps_limit_comparison(x, PHI1), eps_limit_comparison(mu, PHI1)
        assert cmp_x.values == cmp_mu.values
        assert cmp_x.limit == cmp_mu.limit


def test_det_singular_matrix_branch3():
    a = MatrixOperator(np.diag([2.0, 1.0, 0.0]).astype(complex))
    assert det_phi_with_branch(a, PHI1) == (0.0, 3)
    assert det_phi_with_branch(GridFn([2.0, 1.0, 0.0]), PHI1) == (0.0, 3)


def test_det_multiplicativity_report():
    a, b = ginibre(1, 16), ginibre(2, 16)
    rep = det_multiplicativity_check(a, b)
    assert rep.det_ab == pytest.approx(rep.det_a * rep.det_b, rel=1e-10)
    assert rep.product == rep.det_a * rep.det_b
    assert rep.rel_discrepancy <= 1e-10


def test_det_grid_rejects_negative_values():
    with pytest.raises(ValueError):
        det_phi(GridFn([1.0, -1.0]), PHI1)


def test_det_rejects_unknown_input_type():
    # both entry points admit their input through one helper
    for entry in (det_phi, eps_limit_comparison):
        with pytest.raises(TypeError, match="^cannot take a determinant of float$"):
            entry(3.5, PHI1)


def test_singular_trace_det_on_invertible_matrix_is_one():
    # bounded log spectrum has zero singular trace on both parts
    a = ginibre(90, 10)
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
    with pytest.raises(MembershipUndecidableError) as log_minus:
        det_phi(x, PHI1, space)
    assert str(log_minus.value) == (
        "cannot certify log- membership of 'exp(-1*power(a=0.5,b=0,scale=1)(1-t))' in M(sqrt)")
    x = exp_flip_profile(power_profile(0.75), -1.0)
    with pytest.raises(MembershipUndecidableError) as log_plus:
        det_phi(x, PHI1, space_marcinkiewicz(PsiFn("psi-log", math.sqrt)))
    assert str(log_plus.value) == (
        "cannot certify log+ membership of 'exp(1*power(a=0.75,b=0,scale=1))' in M(psi-log)")


def test_det_input_outside_elog_raises():
    # log+ of e^(t^-2) fails every Lp witness bound
    y = exp_flip_profile(power_profile(2.0), -1.0)
    with pytest.raises(DetDomainError):
        det_phi(y, PHI1, space_lp(1.0))


def test_flip_and_inverse_flip_dets_multiply_to_one():
    a = exp_flip_profile(psi_prime_profile(), 1.0)
    inv = exp_flip_profile(psi_prime_profile(), -1.0)
    phi, space = singular_trace(), space_marcinkiewicz()
    # multiplicativity across branches: e^-1 * e^1 = 1
    assert det_phi(a, phi, space) * det_phi(inv, phi, space) == pytest.approx(1.0, rel=1e-12)


# ---- multiplicativity on comonotone pairs ----

_TRACES = ("integral:1", "integral:2.5", "singular:psi-log")
_FIVE_SPACES = ("L1", "L2", "Linf", "Llog", "marcinkiewicz")
# the dyadic truncation bound of the singular trace per unit of sup|f|
_SINGULAR_TRUNCATION = 2.0 ** -40 * (2.0 + 40.0 * math.log(2.0))


def _det_or_refusal(x, phi, space=None):
    try:
        return det_phi_with_branch(x, phi, space)
    except (ValueError, ArithmeticError) as exc:
        return type(exc)


@pytest.mark.parametrize("trace", _TRACES)
def test_det_is_multiplicative_on_flip_pairs(trace):
    # flip(c1) flip(c2) = flip(c1 + c2) for c1, c2 of one sign, and the two
    # factors are comonotone: det(flip(c1 + c2)) = det(flip c1) det(flip c2)
    phi = parse_trace(trace)
    branches = set()
    for base in (psi_prime_profile(), power_profile(0.75)):
        for c1, c2 in ((0.5, 1.0), (0.25, 2.0), (-0.5, -1.0), (-0.25, -0.75)):
            for name in _FIVE_SPACES:
                space = parse_space(name)
                got = [_det_or_refusal(exp_flip_profile(base, c), phi, space)
                       for c in (c1 + c2, c1, c2)]
                case = (base.name, c1, c2, name)
                if isinstance(got[0], type):
                    assert got[1] is got[0] and got[2] is got[0], case
                    continue
                (det_sum, br_sum), (det1, br1), (det2, br2) = got
                branches.update((br_sum, br1, br2))
                assert br_sum == max(br1, br2), case
                assert det_sum == pytest.approx(det1 * det2, rel=1e-12, abs=0.0), case
    assert {1, 2} <= branches


@pytest.mark.parametrize("trace", ("integral:1", "singular:psi-log"))
@pytest.mark.parametrize("values, branch", (([3.0, 1.5, 0.25], 1), ([2.0, 0.5, 0.0], 3)))
def test_grid_det_and_eps_sequence_do_not_read_the_space(trace, values, branch):
    # a grid is bounded, so its log lies in every space: no --space of the
    # CLI moves a bit of its determinant or of its eps-shifted sequence
    phi, x = parse_trace(trace), GridFn(values)

    def bits(space):
        value, got_branch = det_phi_with_branch(x, phi, space)
        cmp = eps_limit_comparison(x, phi, space)
        return value.hex(), got_branch, [v.hex() for v in cmp.values]

    want = bits(None)
    assert want[1] == branch
    for name in _FIVE_SPACES + ("Lp:0.5",):
        assert bits(parse_space(name)) == want, name


def _decreasing_grid(rng, n, zero_cell):
    v = np.sort(np.exp(rng.uniform(-3.0, 3.0, n)))[::-1]
    if zero_cell:
        v[-1] = 0.0
    return GridFn(v)


@pytest.mark.parametrize("trace", _TRACES)
def test_det_is_multiplicative_on_decreasing_grid_pairs(trace):
    # nonnegative nonincreasing f and g are comonotone: det(fg) = det(f) det(g),
    # also on the common refinement of unequal grids and with a zero cell
    phi = parse_trace(trace)
    rng = np.random.default_rng(7)
    branches = set()
    for n1, n2, z1, z2 in ((5, 8, False, False), (12, 12, False, False), (7, 3, False, False),
                           (1, 4, False, False), (6, 4, True, False), (5, 10, False, True),
                           (4, 4, True, True)):
        for _ in range(5):
            f, g = _decreasing_grid(rng, n1, z1), _decreasing_grid(rng, n2, z2)
            m = math.lcm(f.n_cells, g.n_cells)
            fg = GridFn(f.resampled(m) * g.resampled(m))
            (det_fg, br_fg), (det_f, br_f), (det_g, br_g) = (
                det_phi_with_branch(h, phi) for h in (fg, f, g))
            branches.update((br_fg, br_f, br_g))
            assert br_fg == max(br_f, br_g)
            if br_fg == 3:
                assert det_fg == det_f * det_g == 0.0
                continue
            if phi.kind == "integral":
                rel = 1e-12
            else:
                sup_log = max(np.abs(np.log(h.values)).max() for h in (f, g, fg))
                rel = 3.0 * sup_log * _SINGULAR_TRUNCATION
            assert det_fg == pytest.approx(det_f * det_g, rel=rel, abs=0.0), (n1, n2)
    assert branches == {1, 3}


# ---- eps-shifted comparison ----

def test_eps_comparison_invertible_matrix_agrees():
    a = ginibre(5, 8)
    cmp = eps_limit_comparison(a, PHI1)
    assert cmp.branch == 1
    assert cmp.converged
    assert cmp.agree
    assert cmp.limit == pytest.approx(cmp.det_value, rel=1e-6)
    assert cmp.epsilons == [2.0 ** -k for k in range(4, 31)]
    assert len(cmp.epsilons) == len(cmp.values)
    assert all(x >= y for x, y in zip(cmp.values, cmp.values[1:]))


def test_eps_comparison_singular_matrix_tends_to_zero():
    spectrum = (2.0, 1.0) + (0.0,) * 6
    a = MatrixOperator(np.diag(spectrum))
    cmp = eps_limit_comparison(a, PHI1)
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


def _eps_with_shifted_values(monkeypatch, value):
    """eps_limit_comparison of a converging profile whose shifted values are value(eps)."""
    monkeypatch.setattr(dets, "_eps_term_profile", lambda x, read, seen, phi, eps: value(eps))
    x = exp_flip_profile(psi_prime_profile(), 1.0)
    return eps_limit_comparison(x, singular_trace(), space_marcinkiewicz())


def test_eps_limit_needs_its_last_five_values_to_agree(monkeypatch):
    # the last three values agree, the two before them do not: no limit
    cmp = _eps_with_shifted_values(monkeypatch, lambda eps: 1.0 if eps <= 2.0 ** -28 else 2.0)
    assert cmp.values[-5:] == [2.0, 2.0, 1.0, 1.0, 1.0]
    assert not cmp.converged and cmp.limit is None and cmp.agree is None


def test_eps_limit_tolerance_is_absolute_below_one(monkeypatch):
    # values near 0.01 spread by 1e-7: more than 1e-6 of 0.01, less than 1e-6
    cmp = _eps_with_shifted_values(monkeypatch,
                                   lambda eps: 0.01 + (1e-7 if eps > 2.0 ** -28 else 0.0))
    assert 1e-8 < max(cmp.values[-5:]) - min(cmp.values[-5:]) < 1e-6
    assert cmp.converged and cmp.limit == 0.01


@pytest.mark.parametrize("kernel", [0.0, 0.5])
@pytest.mark.parametrize("trace", ["integral:1", "singular:psi-log"])
@pytest.mark.parametrize("space", ["L1", "L2", "Lp:0.5", "Linf", "Llog", "marcinkiewicz"])
def test_eps_comparison_refuses_a_superpower_without_log_plus_at_entry(kernel, trace, space):
    # no log+ rule has a superpower cell, so such a profile is refused at
    # domain entry, before any shifted value reads its missing log+
    x = SpectralProfile(
        name="exp(1/t)",
        evaluator=lambda t: math.exp(1.0 / t) if t < 1.0 - kernel else 0.0,
        tail_at_0=SUPERPOWER,
        kernel_mass=kernel,
    )
    with pytest.raises(MembershipUndecidableError, match="cannot certify log\\+ membership"):
        eps_limit_comparison(x, parse_trace(trace), parse_space(space))


def test_eps_values_below_the_float_range_read_zero():
    # the shifted values are no determinants: they may underflow to 0.0 and
    # the sequence still reports, while the exact value takes the kernel branch
    spectrum = (2.0, 1.0) + (0.0,) * 6
    a = MatrixOperator(np.diag(spectrum))
    cmp = eps_limit_comparison(a, integral_trace(1000.0))
    assert (cmp.det_value, cmp.branch) == (0.0, 3)
    assert cmp.values[-1] == 0.0


@pytest.mark.parametrize("x, c", [
    (MatrixOperator(3.0 * np.eye(3)), 643.0),  # the grid path
    (constant_profile(3.0), 643.0),  # the log+ / log- path of a profile
    (exp_flip_profile(psi_prime_profile(), -1.0), 1400.0),  # the superpower path
])
def test_eps_value_above_the_float_range_names_its_eps(x, c):
    # 3^643 ~ 6.4e306 and e^700 are floats, 3.0625^643 ~ 3.5e312 is not: the
    # refusal names the shifted value, not the determinant
    phi, space = integral_trace(c), space_lp(1.0)
    assert det_phi_with_branch(x, phi, space)[1] == 1
    with pytest.raises(OverflowError,
                       match=r"^the value shifted by eps = 0\.0625 overflows the float range$"):
        eps_limit_comparison(x, phi, space)


# The seven profile lines of the det-mix benchmark plus the superpower flip.
_EPS_PROFILES = (
    "name=psi-prime",
    "name=exp-neg-psi-prime-flip scale=1",
    "name=exp-neg-psi-prime-flip scale=2",
    "name=projection kernel=0.5",
    "name=projection kernel=0.25",
    "kind=power a=0.75",
    "kind=power a=1 b=-2",
    "name=exp-neg-psi-prime-flip scale=-1",
)


def _outcome(fn):
    try:
        return fn()
    except Exception as exc:  # the refusal itself is the outcome compared
        return type(exc), str(exc)


@pytest.mark.parametrize("space", ["L1", "Linf"])
@pytest.mark.parametrize("trace", ["integral:1", "integral:2.5", "singular:psi-log"])
@pytest.mark.parametrize("line", _EPS_PROFILES)
def test_eps_values_match_the_unmemoised_reference(line, trace, space):
    x, phi, sp = parse_profile_spec(line), parse_trace(trace), parse_space(space)

    def reference():
        det_phi_with_branch(x, phi, sp)
        return [eps_term_reference(x, phi, 2.0 ** -k).hex() for k in range(4, 31)]

    got = _outcome(lambda: [v.hex() for v in eps_limit_comparison(x, phi, sp).values])
    assert got == _outcome(reference)


def _counted(p: SpectralProfile):
    """p with an evaluator that counts its calls per point (the audit's excluded)."""
    calls = collections.Counter()

    def ev(t):
        calls[t] += 1
        return p.evaluator(t)

    q = SpectralProfile(name=p.name, evaluator=ev, tail_at_0=p.tail_at_0,
                        kernel_mass=p.kernel_mass, antiderivative=p.antiderivative,
                        log_plus=p.log_plus, log_minus=p.log_minus)
    calls.clear()
    return q, calls


@pytest.mark.parametrize("trace", ["integral:1", "integral:2.5", "singular:psi-log"])
@pytest.mark.parametrize("scale", [1.0, 2.0, -1.0])
def test_eps_sequence_reads_its_input_once_per_point(trace, scale):
    phi, space = parse_trace(trace), space_lp(1.0)
    x = exp_flip_profile(psi_prime_profile(), scale)
    if scale > 0.0:
        y, calls = _counted(x)
    else:
        # a superpower input is read through its registered log+
        lp, calls = _counted(x.log_plus)
        y = SpectralProfile(name=x.name, evaluator=x.evaluator, tail_at_0=SUPERPOWER,
                            log_plus=lp, log_minus=x.log_minus)
    values = eps_limit_comparison(y, phi, space).values
    assert values == eps_limit_comparison(x, phi, space).values
    once = dict(calls)
    assert once and max(once.values()) == 1
    # the memo lives for one call only: a second call reads every point again
    eps_limit_comparison(y, phi, space)
    assert calls == {t: 2 for t in once}


class _Refused(Exception):
    pass


@pytest.mark.parametrize("scale", [1.0, -1.0])
def test_eps_memo_stores_no_raise(scale):
    # the eps terms of one comparison share one memo: a point at which the
    # input raises raises again at every read and is never stored, while every
    # point read before it is read once
    x = exp_flip_profile(psi_prime_profile(), scale)
    # the first shifted audit reads the input at s, or for a superpower x its
    # log+ at 1 - s
    base = x if scale > 0.0 else x.log_plus
    s = spaces._PROFILE_GRID[5]
    bad = s if scale > 0.0 else 1.0 - s
    calls = collections.Counter()

    def read(t):
        calls[t] += 1
        if t == bad:
            raise _Refused(t)
        return base.evaluator(t)

    seen = {}
    for k in (4, 5, 6):
        with pytest.raises(_Refused):
            dets._eps_term_profile(x, read, seen, integral_trace(1.0), 2.0 ** -k)
    assert calls[bad] == 3 and bad not in seen
    assert len(seen) == 5 and all(calls[t] == 1 for t in seen)


# ---- separating witness ----

def test_witness_scenario_l2_vs_l1():
    rep = separating_witness_scenario(space_lp(2.0), space_lp(1.0), power_profile(0.75))
    assert rep.det_large == math.exp(-4.0)
    assert rep.branch_large == 1
    assert rep.det_small == 0.0
    assert rep.branch_small == 2
    assert rep.integral_t == 4.0


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
            + str(int(certified_membership(space, profile, Membership.MEMBER)))
            + str(int(certified_membership(space, profile, Membership.NOT_MEMBER))))


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


# Every space kind crossed with boundary-hugging tails, recorded from the five
# rule functions the table replaced, but for the bounded PowerTail(0, 0): it is
# decided as BOUNDED is, a certified member of every space with its log+ (MM10),
# where those rules gave Linf an uncertified member (MM00) and M(impostor) an
# undecidable verdict.  A code is "text*n" for n repeats.
def _ulps(x):
    return (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))


_NEAR_ONE = (1.0,) + tuple(x for e in (1.0 - 1e-12, 1.0 + 1e-12, 1.0 - 1e-9, 1.0 + 1e-9)
                           for x in _ulps(e))
_NEAR_B_EDGES = (-2.0, -1.0) + tuple(
    x for e in (-2.0 - 1e-12, -2.0 + 1e-12, -1.0 - 1e-12, -1.0 + 1e-12) for x in _ulps(e))
_PS = (1.0, 0.5, 1.5, 2.0)
_DECISION_TAILS = (
    [BOUNDED, SUPERPOWER, "unknown", PowerTail(0.0, 0.0), PowerTail(0.0, 1.0),
     PowerTail(0.5), PowerTail(1.5)]
    # p*a (a itself for p = 1) against 1, then p*b on the boundary p*a = 1
    + [PowerTail(x / p, b / p) for p in _PS for x in _NEAR_ONE for b in (0.0, -3.0)]
    + [PowerTail(1.0 / p, b / p) for p in _PS for b in _NEAR_B_EDGES]
)
_DECISION_SPACES = {
    "L0.5": space_lp(0.5), "L1": space_lp(1.0), "L2": space_lp(2.0), "Lp:1.5": space_lp(1.5),
    "Linf": space_linf(), "Llog": space_llog(), "M(psi-log)": space_marcinkiewicz(),
    "impostor": space_marcinkiewicz(PsiFn("psi-log", math.sqrt)),
}
# (space, with a registered log+ of the same tail) -> membership, log+
# membership, strict member, strict non-member, one code per tail
_RECORDED_DECISIONS = {
    ("L0.5", False): (
        "MM10 NU01 UU00 MM10*30 NM00 MM00*3 NM00 MM00 NM00 MM00 NM00 MM00 "
        "NM00 MM00 NM00*2 MM10*2 MM00*4 NM00*4 NM01*2 MM10*66 MM00 NM00 "
        "MM00*7 NM00*5 MM10*28"
    ),
    ("L0.5", True): (
        "MM10 NN01 UU00 MM10*30 NN00 MM00*3 NN00 MM00 NN00 MM00 NN00 MM00 "
        "NN00 MM00 NN00*2 MM10*2 MM00*4 NN00*4 NN01*2 MM10*66 MM00 NN00 "
        "MM00*7 NN00*5 MM10*28"
    ),
    ("L1", False): (
        "MM10 NU01 UU00 MM10*3 NM01 NM00 MM00*3 NM00 MM00 NM00 MM00 NM00 "
        "MM00 NM00 MM00 NM00*2 MM10*2 MM00*4 NM00*4 NM01*28 MM10*52 MM00 "
        "NM00 MM00*7 NM00*5 NM01*14 MM10*28"
    ),
    ("L1", True): (
        "MM10 NN01 UU00 MM10*3 NN01 NN00 MM00*3 NN00 MM00 NN00 MM00 NN00 "
        "MM00 NN00 MM00 NN00*2 MM10*2 MM00*4 NN00*4 NN01*28 MM10*52 MM00 "
        "NN00 MM00*7 NN00*5 NN01*14 MM10*28"
    ),
    ("L2", False): (
        "MM10 NU01 UU00 MM10*2 NM00 NM01*79 NM00 MM00*3 NM00 MM00 NM00 MM00 "
        "NM00 MM00 NM00 MM00 NM00*2 MM10*2 MM00*4 NM00*4 NM01*44 MM00 NM00 "
        "MM00*7 NM00*5"
    ),
    ("L2", True): (
        "MM10 NN01 UU00 MM10*2 NN00 NN01*79 NN00 MM00*3 NN00 MM00 NN00 MM00 "
        "NN00 MM00 NN00 MM00 NN00*2 MM10*2 MM00*4 NN00*4 NN01*44 MM00 NN00 "
        "MM00*7 NN00*5"
    ),
    ("Lp:1.5", False): (
        "MM10 NU01 UU00 MM10*3 NM01*53 NM00 MM00*3 NM00 MM00 NM00 MM00 NM00 "
        "MM00 NM00 MM00 NM00*2 MM10*2 MM00*4 NM00*4 NM01*2 MM10*26 NM01*28 "
        "MM00 NM00 MM00*7 NM00*5 MM10*14"
    ),
    ("Lp:1.5", True): (
        "MM10 NN01 UU00 MM10*3 NN01*53 NN00 MM00*3 NN00 MM00 NN00 MM00 NN00 "
        "MM00 NN00 MM00 NN00*2 MM10*2 MM00*4 NN00*4 NN01*2 MM10*26 NN01*28 "
        "MM00 NN00 MM00*7 NN00*5 MM10*14"
    ),
    ("Linf", False): (
        "MM10 NU01 UU00 MM10 NN01*163"
    ),
    ("Linf", True): (
        "MM10 NN01 UU00 MM10 NN01*163"
    ),
    ("Llog", False): (
        "MM10 UU00*2 MM10*164"
    ),
    ("Llog", True): (
        "MM10 NU00 UU00 MM10*3 NM10*2 MM10*3 NM10 MM10 NM10 MM10 NM10 MM10 "
        "NM10 MM10 NM10*2 MM10*6 NM10*32 MM10*53 NM10 MM10*7 NM10*19 "
        "MM10*28"
    ),
    ("M(psi-log)", False): (
        "MM10 NU01 UU00 MM10*3 NM01 NM00 MM00*3 NM00 MM00 NM00 MM00 NM00 "
        "MM00 NM00 MM00 NM00*2 MM10*2 MM00*4 NM00*4 NM01*28 MM10*52 MM00 "
        "NM00 MM00*5 NM00*7 NM01*14 MM10*28"
    ),
    ("M(psi-log)", True): (
        "MM10 NN01 UU00 MM10*3 NN01 NN00 MM00*3 NN00 MM00 NN00 MM00 NN00 "
        "MM00 NN00 MM00 NN00*2 MM10*2 MM00*4 NN00*4 NN01*28 MM10*52 MM00 "
        "NN00 MM00*5 NN00*7 NN01*14 MM10*28"
    ),
    ("impostor", False): (
        "MM10 NU01 UU00 MM10 UU00*163"
    ),
    ("impostor", True): (
        "MM10 NN01 UU00 MM10 UU00*163"
    ),
}
# integral trace, then profile_integral on (0, 0.5): D diverges, F finite
_RECORDED_INTEGRABILITY = (
    "FF DD FF*4 DD*2 FF*3 DD FF DD FF DD FF DD FF DD*2 FF*6 DD*32 FF*53 "
    "DD FF*7 DD*19 FF*28"
)


def _expand(codes):
    out = []
    for token in codes.split():
        code, _, n = token.partition("*")
        out += [code] * int(n or 1)
    return out


def _tail_profile(tail, with_log_plus):
    return SpectralProfile(name=f"tail {tail}", evaluator=lambda t: 1.0, tail_at_0=tail,
                           log_plus=_tail_profile(tail, False) if with_log_plus else None)


@pytest.mark.parametrize("key", list(_RECORDED_DECISIONS), ids=str)
def test_decisions_unchanged_on_every_space(key):
    name, with_log_plus = key
    space = _DECISION_SPACES[name]
    got = [_decisions(space, _tail_profile(t, with_log_plus)) for t in _DECISION_TAILS]
    want = _expand(_RECORDED_DECISIONS[key])
    assert len(want) == len(_DECISION_TAILS)
    assert [(t, g, w) for t, g, w in zip(_DECISION_TAILS, got, want) if g != w] == []


def _integrability(tail):
    p = _tail_profile(tail, False)
    out = ""
    for call in (lambda: eval_functional(PHI1, p), lambda: profile_integral(p, 0.0, 0.5)):
        try:
            call()
            out += "F"
        except DivergenceError:
            out += "D"
    return out


def test_integrability_unchanged():
    want = _expand(_RECORDED_INTEGRABILITY)
    assert len(want) == len(_DECISION_TAILS)
    got = [_integrability(t) for t in _DECISION_TAILS]
    assert [(t, g, w) for t, g, w in zip(_DECISION_TAILS, got, want) if g != w] == []


@pytest.mark.parametrize("b", [0.0, -1.0, -3.0])
@pytest.mark.parametrize("a", [0.0, -0.0], ids=["+0", "-0"])
@pytest.mark.parametrize("name", list(_DECISION_SPACES))
def test_a_bounded_power_tail_reads_as_bounded(name, a, b):
    # t^0 log^b with b <= 0 is a bounded function: every question it meets
    # gets the answer BOUNDED gets, with or without a registered log+
    space = _DECISION_SPACES[name]
    for with_log_plus in (False, True):
        got = _decisions(space, _tail_profile(PowerTail(a, b), with_log_plus))
        assert got == _decisions(space, _tail_profile(BOUNDED, with_log_plus)), with_log_plus
    assert _integrability(PowerTail(a, b)) == _integrability(BOUNDED)
