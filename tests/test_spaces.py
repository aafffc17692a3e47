"""Function spaces and spectral profiles: audits, membership rules, parsing.

The membership rules are symbolic; each rule family is checked here against a
numeric integrability oracle (growth of truncated integrals as the lower
endpoint shrinks) before the symbolic answer is frozen.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from specdet.spaces import (
    BOUNDED,
    SUPERPOWER,
    DivergenceError,
    Membership,
    PowerTail,
    PsiFn,
    SpectralProfile,
    constant_profile,
    dilate2_profile,
    elog_membership,
    exp_flip_profile,
    marcinkiewicz_functional,
    membership,
    parse_profile_spec,
    parse_space,
    power_profile,
    profile_integral,
    projection_profile,
    psi_log,
    psi_prime_profile,
    scale_profile,
    space_linf,
    space_llog,
    space_lp,
    space_marcinkiewicz,
)
from specdet.stepfn import GridFn


def _truncated_integrals(fn, exponents=(4, 7, 10)):
    """Integrals over (10^-e, 1); their growth pattern separates L1 from its complement."""
    out = []
    for e in exponents:
        # divergent probes trip scipy's accuracy warning by design
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            val, _ = quad(fn, 10.0 ** -e, 1.0, epsabs=1e-13, epsrel=1e-11, limit=400)
        out.append(val)
    return out


def _oracle_integrable(fn) -> bool:
    vals = _truncated_integrals(fn)
    # convergent: successive truncations settle; divergent: they keep growing
    return abs(vals[2] - vals[1]) <= 0.05 * abs(vals[1]) + 1e-9


# ---- psi functions ----

def test_psi_log_values_and_audit():
    psi = psi_log()
    assert psi.name == "psi-log"
    assert psi(1.0) == 0.5
    assert psi(math.exp(2.0 - 4.0)) == pytest.approx(0.25, rel=1e-14)


def test_psi_audit_rejects_bad_shapes():
    with pytest.raises(ValueError):
        space_marcinkiewicz(PsiFn("square", lambda t: t * t))  # convex
    with pytest.raises(ValueError):
        space_marcinkiewicz(PsiFn("offset", lambda t: 1.0 + t))  # not -> 0
    with pytest.raises(ValueError):
        space_marcinkiewicz(PsiFn("negative", lambda t: -t))
    with pytest.raises(ValueError):
        space_marcinkiewicz(PsiFn("decreasing", lambda t: 1.0 / (1.0 + t)))


def test_psi_sqrt_passes_audit():
    # concave, increasing, psi(0+) = 0: admissible but not the log one
    space = space_marcinkiewicz(PsiFn("sqrt", math.sqrt))
    assert space.psi.name == "sqrt"


# ---- space factories and parsing ----

def test_space_names():
    assert space_lp(1.0).name == "L1"
    assert space_lp(2.0).name == "L2"
    assert space_lp(1.5).name == "Lp:1.5"
    assert space_linf().name == "Linf"
    assert space_llog().name == "Llog"
    assert space_marcinkiewicz().name == "M(psi-log)"


def test_space_lp_validation():
    with pytest.raises(ValueError):
        space_lp(0.0)
    with pytest.raises(ValueError):
        space_lp(-2.0)
    with pytest.raises(ValueError):
        space_lp(math.inf)


def test_parse_space_round_trips():
    assert parse_space("l1") == space_lp(1.0)
    assert parse_space("L2") == space_lp(2.0)
    assert parse_space("lp:3") == space_lp(3.0)
    assert parse_space("LINF") == space_linf()
    assert parse_space("llog") == space_llog()
    # marcinkiewicz spaces carry a psi closure, so compare by printed name
    assert parse_space("marcinkiewicz").name == "M(psi-log)"
    assert parse_space("m-psi-log").name == "M(psi-log)"
    assert parse_space("mpsi").name == "M(psi-log)"


def test_parse_space_unknown_lists_menu():
    with pytest.raises(ValueError) as exc:
        parse_space("l-weird")
    msg = str(exc.value)
    assert "L1" in msg and "marcinkiewicz" in msg
    with pytest.raises(ValueError):
        parse_space("lp:zero")


# ---- profile construction and audit ----

def test_constant_profile():
    p = constant_profile(2.5)
    assert p(0.3) == 2.5
    assert profile_integral(p, 0.0, 1.0) == 2.5
    assert p.tail_at_0 == BOUNDED


def test_profile_rejects_evaluation_outside_domain():
    p = constant_profile(1.0)
    for t in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            p(t)


def test_power_profile_values():
    p = power_profile(0.75)
    assert p(0.25) == pytest.approx(0.25 ** -0.75, rel=1e-14)
    assert p.tail_at_0 == PowerTail(0.75, 0.0)
    q = power_profile(0.0, 2.0)
    assert q(0.1) == pytest.approx((1.0 - math.log(0.1)) ** 2, rel=1e-12)


def test_power_profile_log_factor_monotone():
    # b < 0 needs the shifted log base to stay nonincreasing near t = 1
    p = power_profile(0.5, -3.0)
    grid = np.geomspace(1e-12, 1.0 - 1e-9, 20000)
    vals = np.array([p(float(t)) for t in grid])
    assert np.all(np.diff(vals) <= 1e-12 * (1.0 + np.abs(vals[1:])))


def test_power_profile_validation():
    with pytest.raises(ValueError):
        power_profile(-0.5)
    with pytest.raises(ValueError):
        power_profile(0.0, -1.0)  # increasing near 0
    with pytest.raises(ValueError):
        power_profile(0.5, 0.0, scale=0.0)


def test_audit_rejects_increasing_profile():
    with pytest.raises(ValueError):
        SpectralProfile(name="rising", evaluator=lambda t: t)


def test_audit_rejects_negative_profile():
    with pytest.raises(ValueError):
        SpectralProfile(name="negative", evaluator=lambda t: -1.0)


def test_audit_rejects_inconsistent_kernel():
    # declared kernel mass must force the evaluator to vanish near 1
    with pytest.raises(ValueError):
        SpectralProfile(name="fullrank", evaluator=lambda t: 1.0, kernel_mass=0.5)


def test_audit_rejects_nonfinite_values():
    with pytest.raises(ValueError):
        SpectralProfile(name="blowup", evaluator=lambda t: math.inf if t < 1e-5 else 1.0)
    with pytest.raises(ValueError):
        SpectralProfile(name="hole", evaluator=lambda t: math.nan if t > 0.9 else 1.0)


def _recording(fn, seen):
    def ev(t):
        seen.append(t)
        return fn(t)
    return ev


def test_audit_evaluates_the_geomspace_grid():
    seen = []
    SpectralProfile(name="rec", evaluator=_recording(lambda t: 1.0, seen))
    assert seen == list(np.geomspace(1e-9, 1.0 - 1e-9, 64))
    seen.clear()
    SpectralProfile(name="rec", evaluator=_recording(lambda t: 1.0 / t, seen),
                    tail_at_0=SUPERPOWER)
    assert seen == list(np.geomspace(1e-2, 1.0 - 1e-9, 64))
    seen.clear()
    space_marcinkiewicz(PsiFn("rec", _recording(math.sqrt, seen)))
    # 64 grid points, then the probes near the origin and at 1/2
    assert seen == list(np.geomspace(1e-15, 1.0 - 1e-6, 64)) + [1e-300, 0.5]
    assert all(type(t) is float for t in seen)


def test_audit_allows_overflow_only_for_superpower_tails():
    blowup = lambda t: math.inf if t < 0.05 else 1.0 / t
    SpectralProfile(name="overflow", evaluator=blowup, tail_at_0=SUPERPOWER)
    with pytest.raises(ValueError, match="finite"):
        SpectralProfile(name="overflow", evaluator=blowup)
    with pytest.raises(ValueError, match="nonnegative"):
        SpectralProfile(name="nan", evaluator=lambda t: math.nan, tail_at_0=SUPERPOWER)


@pytest.mark.parametrize("evaluator, kernel, message", [
    (lambda t: -1e-300, 0.0, "nonnegative"),
    (lambda t: 1.0 if t < 0.5 else -0.5, 0.0, "nonnegative"),
    (lambda t: math.nan if t > 0.9 else 1.0, 0.0, "nonnegative"),
    (lambda t: math.inf if t < 1e-5 else 1.0, 0.0, "finite"),
    (lambda t: t, 0.0, "nonincreasing"),
    (lambda t: 1.0 if t < 0.5 else 1.0 + 3e-9, 0.0, "nonincreasing"),
    (lambda t: 1.0, 0.5, "kernel_mass"),
])
def test_audit_rejections(evaluator, kernel, message):
    with pytest.raises(ValueError, match=message):
        SpectralProfile(name="bad", evaluator=evaluator, kernel_mass=kernel)


def _numpy_audit_verdict(vals, superpower):
    # the array form of the audit's value checks, kept as the reference
    vals = np.array(vals)
    if np.any(np.isnan(vals)) or np.any(vals < 0.0):
        return "nonnegative"
    if not superpower and not np.all(np.isfinite(vals)):
        return "finite"
    slack = 1e-9 * (1.0 + np.abs(vals[:-1]))
    finite = np.isfinite(vals[:-1])
    if np.any(vals[1:][finite] > (vals[:-1] + slack)[finite]):
        return "nonincreasing"
    return "ok"


def test_audit_matches_the_array_reference():
    rng = np.random.default_rng(7)
    special = [0.0, -0.0, math.inf, math.nan, -1e-300, 5e-324, 1e308]
    for trial in range(400):
        superpower = bool(trial % 2)
        grid = list(np.geomspace(1e-2 if superpower else 1e-9, 1.0 - 1e-9, 64))
        vals = np.sort(rng.exponential(1.0, 64))[::-1]
        # near-flat runs put some rises right at the 1e-9 relative slack
        k = rng.integers(0, 63)
        vals[k + 1] = vals[k] * (1.0 + rng.choice([0.5e-9, 1e-9, 2e-9, 3e-9]))
        hits = rng.integers(0, 64, rng.integers(0, 3))
        vals[hits] = rng.choice(special, len(hits))
        table = dict(zip(grid, vals.tolist()))
        expected = _numpy_audit_verdict(vals, superpower)
        try:
            SpectralProfile(name="ref", evaluator=table.__getitem__,
                            tail_at_0=SUPERPOWER if superpower else BOUNDED)
            got = "ok"
        except ValueError as exc:
            got = str(exc).split(" must be ")[1].split()[0]
        assert got == expected, (trial, vals)


def test_audit_tolerates_rises_within_the_slack():
    # 1 -> 1 + 1e-9 is inside the relative slack 1e-9 * (1 + 1)
    SpectralProfile(name="flat", evaluator=lambda t: 1.0 if t < 0.5 else 1.0 + 1e-9)


# ---- psi-prime profile: exact antiderivative oracle ----

def test_psi_prime_antiderivative_against_quad():
    p = psi_prime_profile()
    oracle, err = quad(p.evaluator, 0.25, 0.75, epsabs=1e-14, epsrel=1e-12)
    exact = profile_integral(p, 0.25, 0.75)
    assert exact == pytest.approx(oracle, abs=max(1e-12, 10 * err))


def test_psi_prime_head_integral_is_psi_exactly():
    # int_0^t psi'(u) du = psi(t) = 1 / (2 - log t), bit for bit with scale 1
    p = psi_prime_profile()
    psi = psi_log()
    for k in (1, 5, 13, 30, 40):
        t = 2.0 ** -k
        assert profile_integral(p, 0.0, t) / psi(t) == 1.0
    q = psi_prime_profile(scale=2.0)
    assert profile_integral(q, 0.0, 2.0 ** -10) / psi(2.0 ** -10) == 2.0


def test_power_profile_antiderivative_against_quad():
    p = power_profile(0.75)
    oracle, err = quad(p.evaluator, 0.0, 1.0, epsabs=1e-13, epsrel=1e-11, limit=400)
    assert profile_integral(p, 0.0, 1.0) == 4.0
    assert oracle == pytest.approx(4.0, abs=max(1e-9, 10 * err))


def test_profile_integral_quad_fallback():
    # a log factor disables the closed form, forcing the quadrature path
    p = power_profile(0.5, 1.0)
    direct, _ = quad(p.evaluator, 0.1, 0.9, epsabs=1e-13, epsrel=1e-11, limit=400)
    assert profile_integral(p, 0.1, 0.9) == pytest.approx(direct, rel=1e-9)


def test_profile_integral_divergent_raises():
    p = power_profile(1.5)
    with pytest.raises(DivergenceError):
        profile_integral(p, 0.0, 1.0)
    # away from 0 the integral exists: int_0.5^1 t^-1.5 dt = 2 sqrt(2) - 2
    assert profile_integral(p, 0.5, 1.0) == pytest.approx(2.0 * (0.5 ** -0.5) - 2.0, rel=1e-9)


def test_profile_integral_bounds_validation():
    p = constant_profile(1.0)
    with pytest.raises(ValueError):
        profile_integral(p, -0.1, 0.5)
    with pytest.raises(ValueError):
        profile_integral(p, 0.7, 0.3)


# ---- exp-flip family ----

def test_exp_flip_positive_c_is_bounded():
    base = psi_prime_profile()
    x = exp_flip_profile(base, 1.0)
    assert x.tail_at_0 == BOUNDED
    for t in (0.1, 0.5, 0.9):
        assert x(t) == pytest.approx(math.exp(-base.evaluator(1.0 - t)), rel=1e-14)
    assert x.log_plus is not None and x.log_minus is not None
    assert x.log_plus(0.3) == 0.0
    assert x.log_minus(0.3) == pytest.approx(base.evaluator(0.3), rel=1e-14)


def test_exp_flip_negative_c_is_superpower():
    base = power_profile(0.5)
    x = exp_flip_profile(base, -1.0)
    assert x.tail_at_0 == SUPERPOWER
    assert x(0.5) == pytest.approx(math.exp(0.5 ** -0.5), rel=1e-13)
    assert x.log_plus is not None
    assert x.log_plus(0.2) == pytest.approx(0.2 ** -0.5, rel=1e-13)
    assert x.log_minus(0.2) == 0.0


def test_exp_flip_zero_c_is_constant_one():
    x = exp_flip_profile(psi_prime_profile(), 0.0)
    assert x(0.5) == 1.0


def test_exp_flip_rejections():
    with pytest.raises(ValueError):
        exp_flip_profile(projection_profile(0.5), 1.0)  # kernel in the base
    with pytest.raises(ValueError):
        exp_flip_profile(constant_profile(1.0), -1.0)  # unbounded flip needs a power base


# ---- other profile constructors ----

def test_scale_profile_paths():
    p = power_profile(0.75)
    assert scale_profile(p, 1.0) is p
    q = scale_profile(p, 3.0)
    assert q(0.5) == pytest.approx(3.0 * p(0.5), rel=1e-14)
    assert q.tail_at_0 == p.tail_at_0
    r = scale_profile(psi_prime_profile(), 2.0)
    assert profile_integral(r, 0.0, 0.25) == pytest.approx(2.0 * psi_log()(0.25), rel=1e-14)
    s = scale_profile(constant_profile(2.0), 2.0)
    assert s(0.9) == 4.0
    with pytest.raises(ValueError):
        scale_profile(p, 0.0)
    with pytest.raises(ValueError):
        scale_profile(p, -1.0)


def test_scale_profile_generic_keeps_kernel():
    p = projection_profile(0.25)
    q = scale_profile(p, 5.0)
    assert q.kernel_mass == 0.25
    assert q(0.5) == 5.0
    assert q(0.9) == 0.0


def test_projection_profile():
    p = projection_profile(0.5)
    assert p(0.25) == 1.0
    assert p(0.75) == 0.0
    assert p.kernel_mass == 0.5
    assert profile_integral(p, 0.0, 1.0) == 0.5
    assert profile_integral(p, 0.0, 0.25) == 0.25
    assert p.log_plus is not None and p.log_plus(0.1) == 0.0
    # trivial kernels are the constant profile's business, not this family's
    for bad in (1.0, -0.1, 0.0):
        with pytest.raises(ValueError):
            projection_profile(bad)


def test_dilate2_profile_values_and_integral():
    base = power_profile(0.5)
    d = dilate2_profile(base)
    for t in (0.2, 0.5, 0.9):
        assert d(t) == pytest.approx(base(t / 2.0), rel=1e-14)
    assert profile_integral(d, 0.0, 0.5) == pytest.approx(2.0 * profile_integral(base, 0.0, 0.25), rel=1e-13)
    oracle, _ = quad(d.evaluator, 0.1, 0.9, epsabs=1e-13, epsrel=1e-11)
    assert profile_integral(d, 0.1, 0.9) == pytest.approx(oracle, rel=1e-9)


def test_dilate2_profile_kernel_mapping():
    assert dilate2_profile(projection_profile(0.7)).kernel_mass == pytest.approx(0.4, abs=1e-15)
    assert dilate2_profile(projection_profile(0.3)).kernel_mass == 0.0


# ---- profile spec lines ----

def test_parse_profile_spec_builtins():
    p = parse_profile_spec("name=psi-prime")
    assert p(0.5) == pytest.approx(psi_prime_profile()(0.5), rel=1e-14)
    q = parse_profile_spec("name=exp-neg-psi-prime-flip scale=1")
    assert q(0.5) == pytest.approx(exp_flip_profile(psi_prime_profile(), 1.0)(0.5), rel=1e-14)
    r = parse_profile_spec("name=projection kernel=0.5")
    assert r.kernel_mass == 0.5
    s = parse_profile_spec("kind=power a=0.75")
    assert s(0.3) == pytest.approx(0.3 ** -0.75, rel=1e-14)
    t = parse_profile_spec("kind=power a=0.5 b=1 scale=2")
    assert t(0.3) == pytest.approx(2.0 * power_profile(0.5, 1.0)(0.3), rel=1e-14)


def test_parse_profile_spec_errors():
    for line in ("", "name", "name=unknown-profile", "kind=wavelet a=1", "a=0.5 oops=1", "kind=power a=abc"):
        with pytest.raises(ValueError):
            parse_profile_spec(line)


# ---- membership: symbolic rules vs integrability oracles ----

def test_membership_lp_against_oracle():
    p75 = power_profile(0.75)
    # L1: t^-0.75 integrable; L2: (t^-0.75)^2 = t^-1.5 not
    assert _oracle_integrable(p75.evaluator)
    assert not _oracle_integrable(lambda t: p75.evaluator(t) ** 2)
    assert membership(space_lp(1.0), p75) is Membership.MEMBER
    assert membership(space_lp(2.0), p75) is Membership.NOT_MEMBER


def test_membership_lp_boundary_exponent():
    # p*a = 1 exactly: bare power diverges, b <= -1 - eps decides membership
    boundary = power_profile(1.0)
    assert not _oracle_integrable(boundary.evaluator)
    assert membership(space_lp(1.0), boundary) is Membership.NOT_MEMBER
    helped = power_profile(1.0, -2.0)
    assert _oracle_integrable(helped.evaluator)
    assert membership(space_lp(1.0), helped) is Membership.MEMBER
    marginal = power_profile(1.0, -1.0)
    assert not _oracle_integrable(marginal.evaluator)
    assert membership(space_lp(1.0), marginal) is Membership.NOT_MEMBER
    # the same boundary geometry scaled into L2
    assert membership(space_lp(2.0), power_profile(0.5, -2.0)) is Membership.MEMBER
    assert membership(space_lp(2.0), power_profile(0.5)) is Membership.NOT_MEMBER


def test_membership_linf():
    assert membership(space_linf(), constant_profile(3.0)) is Membership.MEMBER
    assert membership(space_linf(), power_profile(0.3)) is Membership.NOT_MEMBER
    assert membership(space_linf(), power_profile(0.0, 2.0)) is Membership.NOT_MEMBER


def test_membership_marcinkiewicz_psi_log():
    space = space_marcinkiewicz()
    # psi-prime: sup of head integral over psi is exactly 1
    assert membership(space, psi_prime_profile()) is Membership.MEMBER
    assert membership(space, power_profile(0.9)) is Membership.MEMBER
    assert membership(space, power_profile(1.1)) is Membership.NOT_MEMBER
    assert membership(space, power_profile(1.0, -2.0)) is Membership.MEMBER
    assert membership(space, power_profile(1.0, -1.0)) is Membership.NOT_MEMBER
    assert membership(space, power_profile(1.0, 1.0)) is Membership.NOT_MEMBER


def test_membership_marcinkiewicz_oracle_cross_check():
    # sup_t (int_0^t f) / psi(t) finite iff membership; probe the sup numerically
    psi = psi_log()
    member = psi_prime_profile()
    ratios_member = [profile_integral(member, 0.0, 2.0 ** -k) / psi(2.0 ** -k) for k in range(2, 30, 4)]
    assert max(ratios_member) <= 1.0 + 1e-12
    # the non-member's head integral itself diverges: truncations keep growing
    loser = power_profile(1.0, -1.0)
    with pytest.raises(DivergenceError):
        profile_integral(loser, 0.0, 0.5)
    tails = [quad(loser.evaluator, 10.0 ** -e, 0.5, epsabs=1e-12, epsrel=1e-10, limit=400)[0] for e in (4, 8, 12)]
    assert tails[1] - tails[0] > 0.1 and tails[2] - tails[1] > 0.1


def test_membership_custom_psi_power_is_undecidable():
    space = space_marcinkiewicz(PsiFn("sqrt", math.sqrt))
    assert membership(space, power_profile(0.5)) is Membership.UNDECIDABLE
    assert membership(space, GridFn([1.0, 0.5])) is Membership.MEMBER


def test_psi_log_is_one_object():
    assert psi_log() is psi_log()
    assert space_marcinkiewicz().psi is psi_log()
    assert parse_space("marcinkiewicz") == space_marcinkiewicz()


def test_psi_log_rules_are_not_inherited_by_name():
    # t^-0.75 has an unbounded M(sqrt) norm (4 t^0.25 / t^0.5 -> inf), so a
    # psi that merely borrows the name must not be answered by psi-log rules
    impostor = space_marcinkiewicz(PsiFn("psi-log", math.sqrt))
    assert impostor.name == "M(psi-log)"
    assert membership(impostor, power_profile(0.75)) is Membership.UNDECIDABLE
    assert elog_membership(impostor, power_profile(0.75)) is Membership.UNDECIDABLE
    assert membership(space_marcinkiewicz(), power_profile(0.75)) is Membership.MEMBER


def test_membership_superpower_rules():
    x = exp_flip_profile(power_profile(0.5), -1.0)
    assert membership(space_lp(1.0), x) is Membership.NOT_MEMBER
    assert membership(space_linf(), x) is Membership.NOT_MEMBER
    assert membership(space_marcinkiewicz(), x) is Membership.NOT_MEMBER


def test_membership_llog_is_exponential_l1():
    # Llog holds f iff log+ f is integrable
    assert membership(space_llog(), power_profile(0.75)) is Membership.MEMBER
    assert membership(space_llog(), constant_profile(10.0)) is Membership.MEMBER
    slow = exp_flip_profile(power_profile(0.5), -1.0)
    assert membership(space_llog(), slow) is Membership.MEMBER
    fast = exp_flip_profile(power_profile(2.0), -1.0)
    assert membership(space_llog(), fast) is Membership.NOT_MEMBER


def test_membership_gridfn_always_member():
    g = GridFn([5.0, 1.0, 0.0])
    for space in (space_lp(1.0), space_linf(), space_llog(), space_marcinkiewicz()):
        assert membership(space, g) is Membership.MEMBER


# ---- exponential-log membership ----

def test_elog_membership_bounded_and_grid():
    assert elog_membership(space_lp(1.0), GridFn([2.0, 1.0])) is Membership.MEMBER
    assert elog_membership(space_lp(1.0), constant_profile(7.0)) is Membership.MEMBER


def test_elog_membership_uses_log_plus_decomposition():
    # e^(t^-0.5) has log+ = t^-0.5: in Lp exactly when p/2 < 1
    x = exp_flip_profile(power_profile(0.5), -1.0)
    assert elog_membership(space_lp(1.0), x) is Membership.MEMBER
    assert elog_membership(space_lp(1.5), x) is Membership.MEMBER
    assert elog_membership(space_lp(2.0), x) is Membership.NOT_MEMBER
    y = exp_flip_profile(power_profile(2.0), -1.0)
    assert elog_membership(space_lp(1.0), y) is Membership.NOT_MEMBER
    assert elog_membership(space_linf(), y) is Membership.NOT_MEMBER
    # iterating the log tames any power tail, so the log-closed space keeps y
    assert elog_membership(space_llog(), y) is Membership.MEMBER


def test_elog_membership_power_tails():
    p = power_profile(0.75)
    assert elog_membership(space_linf(), p) is Membership.NOT_MEMBER
    assert elog_membership(space_lp(2.0), p) is Membership.MEMBER
    assert elog_membership(space_llog(), p) is Membership.MEMBER
    assert elog_membership(space_marcinkiewicz(), p) is Membership.MEMBER
    custom = space_marcinkiewicz(PsiFn("sqrt", math.sqrt))
    assert elog_membership(custom, p) is Membership.UNDECIDABLE


# ---- marcinkiewicz functional ----

def test_marcinkiewicz_functional_gridfn_hand_case():
    # f = (2, 1) on halves: int_0^t / psi(t) at t = 1/2 is 1 / psi(1/2)
    f = GridFn([2.0, 1.0])
    psi = psi_log()
    assert marcinkiewicz_functional(psi, f, 0.5) == pytest.approx(1.0 / psi(0.5), rel=1e-14)


def test_marcinkiewicz_functional_psi_prime_is_one():
    psi = psi_log()
    for t in (0.5, 0.125, 2.0 ** -20):
        assert marcinkiewicz_functional(psi, psi_prime_profile(), t) == 1.0


def test_marcinkiewicz_functional_divergent_profile():
    with pytest.raises(DivergenceError):
        marcinkiewicz_functional(psi_log(), power_profile(1.5), 0.5)
