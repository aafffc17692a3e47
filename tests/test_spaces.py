"""Function spaces and spectral profiles: audits, membership rules, parsing.

The membership rules are symbolic; each rule family is checked here against a
numeric integrability oracle (growth of truncated integrals as the lower
endpoint shrinks) before the symbolic answer is frozen.
"""

import importlib.machinery
import math
import re
import sys
import types
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from specdet import spaces
from specdet.spaces import (
    BOUNDED,
    SUPERPOWER,
    DivergenceError,
    Membership,
    PowerTail,
    PsiFn,
    QuadratureError,
    SpectralProfile,
    constant_profile,
    elog_membership,
    exp_flip_profile,
    membership,
    parse_profile_spec,
    parse_space,
    power_profile,
    profile_integral,
    projection_profile,
    psi_log,
    psi_prime_profile,
    space_linf,
    space_llog,
    space_lp,
    space_marcinkiewicz,
)
from specdet.traces import eval_functional, integral_trace, singular_trace
from spaces_reference import audit_profile_reference


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


@pytest.mark.parametrize("ratio, admitted", [(0.04, True), (0.06, False)])
def test_psi_origin_test_admits_by_the_ratio_psi_0_to_psi_half(ratio, admitted):
    # psi(t) = t^p is concave and increasing and psi(1e-300) / psi(1/2) is
    # ratio; the origin test refuses a psi whose ratio exceeds 0.05
    p = math.log(ratio) / math.log(1e-300 / 0.5)
    if admitted:
        assert PsiFn("power", lambda t: t ** p).name == "power"
    else:
        with pytest.raises(ValueError, match="does not approach 0 at the origin"):
            PsiFn("power", lambda t: t ** p)


def test_psi_concavity_slack_is_relative_rounding_only():
    # a convex kink of 1e-9 in slope at one audit point is refused; the
    # audit's slack only forgives the rounding of straight and concave psi
    kink = spaces._PSI_GRID[32]
    with pytest.raises(ValueError, match="must be concave"):
        PsiFn("kink", lambda t: t + 1e-9 * max(t - kink, 0.0))
    assert PsiFn("identity", lambda t: t).name == "identity"
    assert PsiFn("psi-log", psi_log().fn).name == "psi-log"


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


def test_constant_profile_fields_and_log_parts():
    z = constant_profile(0.0)
    assert (z.name, z.kernel_mass, z.log_plus, z.log_minus) == ("const(0)", 0.999, None, None)
    p = constant_profile(0.5)
    assert (p.name, p.kernel_mass) == ("const(0.5)", 0.0)
    # the log parts are bare constants: no kernel mass, no log split of their own
    for part, c in ((p.log_plus, 0.0), (p.log_minus, -math.log(0.5))):
        assert (part.name, part.kernel_mass) == (f"const({c:g})", 0.0)
        assert part.log_plus is None and part.log_minus is None
        assert part(0.3) == c and part.antiderivative(0.5) == 0.5 * c
    one = constant_profile(1.0)
    assert one.name == "const(1)" and one.log_plus(0.5) == 0.0
    assert math.copysign(1.0, one.log_minus(0.5)) == -1.0  # max(-0.0, 0.0)


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
    # power_profile checks a before PowerTail would
    with pytest.raises(ValueError, match=r"^a must be nonnegative \(profiles are nonincreasing\)$"):
        power_profile(-0.5)
    with pytest.raises(ValueError):
        power_profile(0.0, -1.0)  # increasing near 0
    with pytest.raises(ValueError):
        power_profile(0.5, 0.0, scale=0.0)


@pytest.mark.parametrize("a, b", [(-1.0, 0.0), (-1e-300, 0.0), (math.nan, 0.0), (0.5, math.nan),
                                  (math.inf, 0.0), (0.5, math.inf), (0.5, -math.inf)])
def test_power_tail_rejects_a_vanishing_or_nan_exponent(a, b):
    # t^|a| vanishes at 0, which no nonincreasing nonnegative profile does;
    # an infinite exponent is no tail class
    with pytest.raises(ValueError, match="tail exponent"):
        PowerTail(a, b)


def test_power_profile_rejects_an_infinite_exponent():
    # identically 0 on (0, 1), so it must not declare the tail PowerTail(0.5, -inf)
    with pytest.raises(ValueError, match="^tail exponent b must be finite, got -inf$"):
        power_profile(0.5, -math.inf)


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: power_profile(0.5, scale=math.inf), "scale must be finite, got inf", id="power-inf"),
    pytest.param(lambda: power_profile(0.5, scale=math.nan), "scale must be finite, got nan", id="power-nan"),
    pytest.param(lambda: psi_prime_profile(math.nan), "scale must be finite, got nan", id="psi-prime-nan"),
    pytest.param(lambda: psi_prime_profile(math.inf), "scale must be finite, got inf", id="psi-prime-inf"),
    pytest.param(lambda: exp_flip_profile(psi_prime_profile(), math.nan), "c must be finite, got nan",
                 id="flip-nan"),
    pytest.param(lambda: exp_flip_profile(psi_prime_profile(), math.inf), "c must be finite, got inf",
                 id="flip-inf"),
    pytest.param(lambda: exp_flip_profile(psi_prime_profile(), -math.inf), "c must be finite, got -inf",
                 id="flip-neg-inf"),
])
def test_profile_constructors_name_a_non_finite_parameter(build, message):
    # nan passes `scale <= 0.0`; without the check the audit blamed the
    # profile's values, or the flip blamed its rescaled base
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def test_power_tail_accepts_the_boundary_exponents():
    assert PowerTail(0.0, -3.0).a == 0.0 and PowerTail(-0.0).a == 0.0


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


@pytest.mark.parametrize("grid, lo, hi", [
    ("_PROFILE_GRID", 1e-9, 1.0 - 1e-9),
    ("_SUPERPOWER_GRID", 1e-2, 1.0 - 1e-9),
    ("_PSI_GRID", 1e-15, 1.0 - 1e-6),
])
def test_audit_grid_literals_are_numpy_geomspace_bit_for_bit(grid, lo, hi):
    # numpy's recipe in plain floats: libm's pow may differ from numpy's
    # power by one ulp at a few points, never more, and the ends are exact
    points = getattr(spaces, grid)
    assert len(points) == 64 and all(type(t) is float for t in points)
    assert points[0] == lo and points[-1] == hi
    assert all(s < t for s, t in zip(points, points[1:]))
    expected = np.geomspace(lo, hi, 64).tolist()
    assert all(abs(t - e) <= math.ulp(e) for t, e in zip(points, expected))


def test_audit_evaluates_the_geomspace_grid():
    seen = []
    SpectralProfile(name="rec", evaluator=_recording(lambda t: 1.0, seen))
    assert seen == list(spaces._PROFILE_GRID)
    seen.clear()
    SpectralProfile(name="rec", evaluator=_recording(lambda t: 1.0 / t, seen),
                    tail_at_0=SUPERPOWER)
    assert seen == list(spaces._SUPERPOWER_GRID)
    seen.clear()
    psi = PsiFn("rec", _recording(math.sqrt, seen))
    # 64 grid points, then the probes near the origin and at 1/2
    assert seen == list(spaces._PSI_GRID) + [1e-300, 0.5]
    assert all(type(t) is float for t in seen)
    # a PsiFn is audited once, when it is made: the space and the trace
    # built on it evaluate it no further
    seen.clear()
    space_marcinkiewicz(psi)
    singular_trace(psi)
    assert seen == []


def test_audit_allows_overflow_only_for_superpower_tails():
    blowup = lambda t: math.inf if t < 0.05 else 1.0 / t
    SpectralProfile(name="overflow", evaluator=blowup, tail_at_0=SUPERPOWER)
    with pytest.raises(ValueError, match="finite"):
        SpectralProfile(name="overflow", evaluator=blowup)
    with pytest.raises(ValueError, match="nonnegative"):
        SpectralProfile(name="nan", evaluator=lambda t: math.nan, tail_at_0=SUPERPOWER)


def test_audit_counts_a_raised_overflow_as_inf():
    # float ** raises OverflowError past the float range instead of returning inf
    raising = lambda t: t ** -400.0 if t < 0.05 else 1.0 / t
    SpectralProfile(name="overflow", evaluator=raising, tail_at_0=SUPERPOWER)
    with pytest.raises(ValueError, match="must be finite on the audit grid"):
        SpectralProfile(name="overflow", evaluator=raising)
    with pytest.raises(ValueError, match="must be finite on the audit grid"):
        power_profile(400.0)


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
        grid = list(spaces._SUPERPOWER_GRID if superpower else spaces._PROFILE_GRID)
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


# Values the one-pass audit must treat as the three-pass reference does; the
# two strings make the evaluator raise instead of returning.
_AUDIT_SPECIAL = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                  2.2250738585072014e-308, 1e308, -1e308, "overflow", "zero-division")


@st.composite
def _audit_cases(draw):
    """(superpower, 64 grid values, kernel mass, value at the kernel probe)."""
    vals = draw(st.lists(st.floats(0.0, 1e308), min_size=64, max_size=64))
    if draw(st.booleans()):
        vals.sort(reverse=True)
    # a rise at, just inside or just past the 1e-9 relative slack
    k = draw(st.integers(0, 62))
    vals[k + 1] = vals[k] * (1.0 + draw(st.sampled_from((0.0, 0.5e-9, 1e-9, 2e-9, 3e-9))))
    for i, v in draw(st.lists(st.tuples(st.integers(0, 63), st.sampled_from(_AUDIT_SPECIAL)),
                              max_size=3)):
        vals[i] = v
    kernel = draw(st.sampled_from((0.0, 0.25, 0.5)))
    probe_value = draw(st.sampled_from((0.0, -0.0, 5e-324, 1.0, math.nan)))
    return draw(st.booleans()), vals, kernel, probe_value


def _table_evaluator(table):
    def ev(t):
        v = table[t]
        if v == "overflow":
            raise OverflowError("drawn overflow")
        if v == "zero-division":
            raise ZeroDivisionError("drawn division by zero")
        return v
    return ev


def _audit_outcome(audit, p):
    try:
        audit(p)
    except Exception as exc:  # the refusal itself is the outcome compared
        return type(exc), str(exc)
    return None


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(_audit_cases())
def test_one_pass_audit_matches_the_three_pass_reference(case):
    superpower, vals, kernel, probe_value = case
    grid = spaces._SUPERPOWER_GRID if superpower else spaces._PROFILE_GRID
    table = {1.0 - 0.5 * kernel: probe_value, **dict(zip(grid, vals))}
    p = types.SimpleNamespace(name="drawn", evaluator=_table_evaluator(table),
                              tail_at_0=SUPERPOWER if superpower else BOUNDED,
                              kernel_mass=kernel)
    assert _audit_outcome(spaces._audit_profile, p) == _audit_outcome(audit_profile_reference, p)


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


def test_profile_integral_calls_the_module_quad_binding(monkeypatch):
    # profile_integral looks quad up in the module on every call, and quad
    # never rebinds itself, so a wrapper bound to spaces.quad (as the
    # benchmark's tracer binds one) sees every call, not just the first
    calls = []
    real = spaces.quad

    def counting_quad(func, a, b, **kwargs):
        calls.append((a, b))
        return real(func, a, b, **kwargs)

    monkeypatch.setattr(spaces, "quad", counting_quad)
    p = power_profile(0.5, 1.0)
    for lo, hi in ((0.1, 0.9), (0.2, 0.8)):
        assert profile_integral(p, lo, hi) == real(p.evaluator, lo, hi, epsabs=1e-14, epsrel=1e-10,
                                                   limit=200)[0]
    profile_integral(power_profile(0.75), 0.1, 0.9)   # exact: no quadrature
    assert calls == [(0.1, 0.9), (0.2, 0.8)]


def test_profile_integral_divergent_raises():
    p = power_profile(1.5)
    with pytest.raises(DivergenceError):
        profile_integral(p, 0.0, 1.0)
    # away from 0 the integral exists: int_0.5^1 t^-1.5 dt = 2 sqrt(2) - 2
    assert profile_integral(p, 0.5, 1.0) == pytest.approx(2.0 * (0.5 ** -0.5) - 2.0, rel=1e-9)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_a_non_finite_antiderivative_refuses(value):
    # the antiderivative's value is no integral; it was returned as one
    q = SpectralProfile(name="q", evaluator=lambda t: 1.0, antiderivative=lambda t: value)
    for call, interval in ((lambda: profile_integral(q, 0.0, 0.5), "(0.0, 0.5)"),
                           (lambda: eval_functional(integral_trace(1.0), q), "(0.0, 1.0)")):
        message = f"profile 'q' gives the integral {value!r} on {interval}"
        with pytest.raises(DivergenceError, match=re.escape(message) + "$"):
            call()


# every constructor that registers an antiderivative, the generic scaled one
# included; the ids are fixed labels so the test ids stay put
_EXACT_PROFILES = [
    pytest.param(constant_profile(2.0), id="constant"),
    pytest.param(power_profile(0.75), id="power0"),
    pytest.param(power_profile(0.5, 0.0, 3.0), id="power1"),
    pytest.param(psi_prime_profile(7.0), id="psi-prime"),
    pytest.param(projection_profile(0.25), id="projection"),
]


@pytest.mark.parametrize("p", _EXACT_PROFILES)
def test_quadrature_agrees_with_antiderivative_or_refuses(p):
    bare = replace(p, antiderivative=None)
    refused = []
    intervals = [(0.0, 2.0 ** -k) for k in range(0, 41, 4)] + [(0.25, 0.75), (2.0 ** -30, 2.0 ** -10)]
    for lo, hi in intervals:
        try:
            value = profile_integral(bare, lo, hi)
        except QuadratureError:
            refused.append((lo, hi))
            continue
        assert value == pytest.approx(profile_integral(p, lo, hi), rel=1e-9)
    # psi' = 1/(t (2 - log t)^2) defeats the adaptive rule from 0; under the
    # old silent fallback the head integral came out 0.4% to 4.5% low
    assert refused == ([iv for iv in intervals if iv[0] == 0.0] if p.name.startswith("psi-prime") else [])


def test_quadrature_warning_is_a_refusal():
    # power(1, -2) is psi'; without its antiderivative quad must integrate it
    bare = replace(power_profile(1.0, -2.0), antiderivative=None)
    with pytest.raises(QuadratureError, match=r"on \(0\.0, 9\.094947017729282e-13\) is unreliable: "
                       r"The maximum number of subdivisions \(200\) has been achieved\."):
        profile_integral(bare, 0.0, 2.0 ** -40)


# ---- spaces.quad against scipy.integrate.quad ----

_QUAD_ARGS = dict(epsabs=1e-14, epsrel=1e-10, limit=200)


def _same_as_scipy(func, lo, hi, **kwargs):
    """spaces.quad and scipy's quad with full_output=1 agree bit for bit, warning text included.

    scipy's third element is the info dict, which spaces.quad does not build.
    """
    args = {**_QUAD_ARGS, **kwargs}
    mine = spaces.quad(func, lo, hi, **args)
    theirs = quad(func, lo, hi, **args, full_output=1)
    assert [float(v).hex() for v in mine[:2]] == [float(v).hex() for v in theirs[:2]]
    assert mine[2:] == theirs[3:]
    return mine


def _eps_parts(x, eps):
    """log+(x + eps) and log-(x + eps), rearranged as dets' eps-shifted sequence builds them."""
    def log_plus(s):
        y = x.evaluator(s) + eps
        return math.log(y) if y > 1.0 else 0.0

    def log_minus(s):
        y = x.evaluator(1.0 - s) + eps
        return 0.0 if y >= 1.0 else -math.log(y)

    return log_plus, log_minus


@pytest.mark.parametrize("line", ["name=exp-neg-psi-prime-flip", "name=exp-neg-psi-prime-flip scale=2",
                                  "name=projection kernel=0.5"])
@pytest.mark.parametrize("k", [4, 17, 30])
def test_quad_matches_scipy_on_the_eps_compare_integrands(line, k):
    # (0, 1) is the integral trace's interval, (0, 2^-36) and (0, 2^-40) are
    # windows of the singular trace
    x = parse_profile_spec(line)
    for part in _eps_parts(x, 2.0 ** -k):
        for lo, hi in ((0.0, 1.0), (0.0, 2.0 ** -36), (0.0, 2.0 ** -40)):
            assert len(_same_as_scipy(part, lo, hi)) == 2


@pytest.mark.parametrize("func, hi, kwargs, text", [
    pytest.param(replace(psi_prime_profile(), antiderivative=None).evaluator, 2.0 ** -40, {},
                 "The maximum number of subdivisions (200)", id="1-bare-psi-prime"),
    pytest.param(lambda t: math.nan, 1.0, {}, "The occurrence of roundoff error", id="2-nan"),
    pytest.param(lambda t: 1.0 / abs(t - 1.0 / 3.0), 1.0, {}, "Extremely bad integrand", id="3-pole"),
    pytest.param(lambda t: t ** -0.99, 1.0, {"epsabs": 1e-300, "epsrel": 1e-14},
                 "The algorithm does not converge", id="4-extrapolation"),
    pytest.param(lambda t: t ** -2.0, 1.0, {}, "The integral is probably divergent", id="5-divergent"),
])
def test_quad_warns_with_scipys_text(func, hi, kwargs, text):
    assert _same_as_scipy(func, 0.0, hi, **kwargs)[2].startswith(text)


def test_quad_warning_table_holds_the_qagse_warning_codes():
    # qagse's ier is 0 to 6: 0 is success and 6 invalid input, which raises;
    # scipy's text for 7 belongs to its weighted Fourier routine only
    assert sorted(spaces._QUADPACK_WARNINGS) == [1, 2, 3, 4, 5]


def test_quad_raises_as_scipy_does():
    def overflowing(t):
        return math.exp(1e3 / t)

    raised = []
    for fn in (spaces.quad, quad):
        with pytest.raises(OverflowError) as exc:
            fn(overflowing, 0.0, 1.0, **_QUAD_ARGS)
        raised.append((type(exc.value), str(exc.value)))
        # QUADPACK's invalid-input code, here from a limit below 1
        with pytest.raises(ValueError):
            fn(overflowing, 0.0, 1.0, **{**_QUAD_ARGS, "limit": 0})
    assert raised[0] == raised[1] == (OverflowError, "math range error")


def test_quad_without_the_extension_names_its_directory(monkeypatch):
    monkeypatch.delitem(sys.modules, "scipy.integrate._quadpack", raising=False)
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing"])
    spaces._qagse.cache_clear()
    try:
        with pytest.raises(ImportError, match=r"^no QUADPACK extension _quadpack in .*integrate$"):
            spaces.quad(math.exp, 0.0, 1.0, **_QUAD_ARGS)
    finally:
        spaces._qagse.cache_clear()


@pytest.mark.parametrize("b, scale", [(-2.0, 1.0), (-3.0, 1.0), (-2.5, 3.0), (-1.5, 0.2)])
def test_power_at_a_one_integrates_in_closed_form(b, scale):
    # int_0^t s^-1 (m - log s)^b ds = (m - log t)^(b+1) / -(b+1), m = max(1, -b)
    p = power_profile(1.0, b, scale)
    assert p.antiderivative is not None
    m = max(1.0, -b)
    assert profile_integral(p, 0.0, 1.0) == pytest.approx(scale * m ** (b + 1.0) / -(b + 1.0), rel=1e-15)
    bare = replace(p, antiderivative=None)
    for lo, hi in [(0.25, 0.75), (2.0 ** -30, 2.0 ** -10), (1e-6, 1.0)]:
        assert profile_integral(p, lo, hi) == pytest.approx(profile_integral(bare, lo, hi), rel=1e-9)


@pytest.mark.parametrize("a, b", [(1.0, -1.0), (1.0, -0.5), (1.0, 2.0), (0.999, -2.0), (0.5, -2.0)])
def test_power_registers_no_antiderivative_without_a_closed_form(a, b):
    assert power_profile(a, b).antiderivative is None


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

def test_rescale_paths():
    p = power_profile(0.75)
    # a flip by |c| = 1 reads the base itself as its log part
    assert exp_flip_profile(p, 1.0).log_minus is p
    assert exp_flip_profile(p, -1.0).log_plus is p
    q = p.rescale(3.0)
    assert q(0.5) == pytest.approx(3.0 * p(0.5), rel=1e-14)
    assert q.tail_at_0 == p.tail_at_0
    r = psi_prime_profile().rescale(2.0)
    assert profile_integral(r, 0.0, 0.25) == pytest.approx(2.0 * psi_log()(0.25), rel=1e-14)
    s = constant_profile(2.0).rescale(2.0)
    assert s(0.9) == 4.0


def _assert_same_profile(p, q):
    """Same name, kernel mass and tail, and bit-equal evaluator and antiderivative."""
    assert (p.name, p.kernel_mass, p.tail_at_0) == (q.name, q.kernel_mass, q.tail_at_0)
    ts = spaces._PROFILE_GRID if p.tail_at_0 != SUPERPOWER else spaces._SUPERPOWER_GRID
    assert [float(p.evaluator(t)).hex() for t in ts] == [float(q.evaluator(t)).hex() for t in ts]
    assert (p.antiderivative is None) == (q.antiderivative is None)
    if p.antiderivative is not None:
        assert [p.antiderivative(t).hex() for t in ts] == [q.antiderivative(t).hex() for t in ts]


# (profile, its constructor at a multiplied parameter): k * profile in closed form
_RESCALABLE = [
    (constant_profile(2.5), lambda k: constant_profile(2.5 * k)),
    (constant_profile(0.0), lambda k: constant_profile(0.0 * k)),
    (power_profile(0.75), lambda k: power_profile(0.75, 0.0, 1.0 * k)),
    (power_profile(0.5, 2.0, 1.5), lambda k: power_profile(0.5, 2.0, 1.5 * k)),
    (power_profile(1.0, -2.0, 0.3), lambda k: power_profile(1.0, -2.0, 0.3 * k)),
    (psi_prime_profile(), lambda k: psi_prime_profile(1.0 * k)),
    (psi_prime_profile(2.5), lambda k: psi_prime_profile(2.5 * k)),
]


@pytest.mark.parametrize("k", [3.0, 7.0, 0.1])
@pytest.mark.parametrize("p, direct", _RESCALABLE, ids=lambda v: getattr(v, "name", ""))
def test_rescale_is_the_constructor_at_the_multiplied_parameter(p, direct, k):
    _assert_same_profile(p.rescale(k), direct(k))


@pytest.mark.parametrize("k", [3.0, 7.0, 0.1])
def test_exp_flip_log_part_is_the_rescaled_base(k):
    p = power_profile(0.75)
    _assert_same_profile(exp_flip_profile(p, k).log_minus, p.rescale(k))
    _assert_same_profile(exp_flip_profile(p, -k).log_plus, p.rescale(k))


def test_exp_flip_refuses_a_base_without_rescale():
    p = SpectralProfile(name="bare", evaluator=lambda t: 2.0)
    assert p.rescale is None
    assert exp_flip_profile(p, 1.0).log_minus is p
    with pytest.raises(ValueError, match=r"profile 'bare' registers no rescale"):
        exp_flip_profile(p, 5.0)
    u = SpectralProfile(name="bare-power", evaluator=lambda t: t ** -0.5, tail_at_0=PowerTail(0.5))
    assert exp_flip_profile(u, -1.0).log_plus is u
    with pytest.raises(ValueError, match=r"profile 'bare-power' registers no rescale"):
        exp_flip_profile(u, -5.0)
    # the earlier refusals win: a kernel in the base, then a bounded base under c < 0
    with pytest.raises(ValueError, match="no kernel"):
        exp_flip_profile(projection_profile(0.25), 5.0)
    with pytest.raises(ValueError, match="unbounded power-class base"):
        exp_flip_profile(p, -5.0)


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


def _parse_outcome(line):
    try:
        return parse_profile_spec(line)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("builtin", list(spaces._BUILTINS))
def test_builtin_line_without_keys_equals_its_defaults_written_out(builtin):
    _build, defaults = spaces._BUILTINS[builtin]
    bare = f"name={builtin}"
    full = bare + "".join(f" {key}={value!r}" for key, value in defaults.items())
    got, want = _parse_outcome(bare), _parse_outcome(full)
    if builtin == "projection":
        # the default kernel 0.0 is refused: a projection line must give it
        assert got == want == "kernel mass must lie in (0, 1)"
    else:
        _assert_same_profile(got, want)


@pytest.mark.parametrize("line", [
    "kind=power a=0.75 sclae=2",                     # unknown key
    "name=psi-prime kernel=0.3",                     # key the builtin never reads
    "name=projection kernel=0.5 scale=2",
    "name=exp-neg-psi-prime-flip a=1",
    "kind=power a=0.5 kernel=0.1",
    "kind=power a=0.5 a=0.9",                        # repeated key
    "name=psi-prime name=projection kernel=0.5",
    "kind=power KIND=power a=0.5",
    "kind=power name=psi-prime",                     # name contradicts kind
])
def test_parse_profile_spec_rejects_unknown_unused_and_repeated_keys(line):
    with pytest.raises(ValueError):
        parse_profile_spec(line)


@pytest.mark.parametrize("line, key", [
    ("kind=power a=0.5 b=-inf", "b"),                # identically 0, yet a power tail
    ("kind=power a=nan", "a"),
    ("kind=power a=0.5 scale=inf", "scale"),
    ("name=psi-prime scale=-Infinity", "scale"),
    ("name=exp-neg-psi-prime-flip scale=nan", "scale"),
    ("name=projection kernel=NaN", "kernel"),
])
def test_parse_profile_spec_rejects_non_finite_values(line, key):
    with pytest.raises(ValueError, match=rf"key '{key}' must be finite"):
        parse_profile_spec(line)


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
    # a PsiFn equals only itself: not even psi-log's own function inherits them
    twin = space_marcinkiewicz(PsiFn("psi-log", psi_log().fn))
    assert twin != space_marcinkiewicz()
    assert membership(twin, power_profile(0.75)) is Membership.UNDECIDABLE


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


# ---- exponential-log membership ----

def test_elog_membership_bounded_and_grid():
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
    # t^0 log^b with b <= 0 is bounded, and so is its log+
    for b in (0.0, -1.0):
        flat = SpectralProfile(name="flat", evaluator=lambda t: 1.0, tail_at_0=PowerTail(0.0, b))
        assert membership(space_linf(), flat) is Membership.MEMBER
        assert elog_membership(space_linf(), flat) is Membership.MEMBER
        assert elog_membership(custom, flat) is Membership.MEMBER
