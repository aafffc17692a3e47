"""Symmetric function spaces on (0, 1) and closed-form spectral profiles.

Membership of a profile in a space is decided by tail metadata carried on the
profile, never by eyeballing floats.  A bounded tail at 0 (BOUNDED, or a
PowerTail t^0 log^b with b <= 0) is in every space, a superpower tail in none,
and a growing PowerTail is decided by one rule table keyed by the space's kind
and psi (the Marcinkiewicz row is psi_log()'s only): a verdict (or
Undecidable) and the margin by which the deciding exponent clears its
boundary.  log+ of a profile reads the same rows through its own tail class,
and Llog is L1 of log+.  membership, elog_membership, the integrability check
of profile_integral and the integral trace (the L1 row) and the strict witness
certificates all read it.

A profile integral is exact through a registered antiderivative; otherwise
adaptive quadrature computes it and a quadrature warning is a refusal.  That
quadrature is one call of QUADPACK's qagse at fixed tolerances, from scipy's
compiled _quadpack extension, loaded by itself on the first call of quad,
never through scipy.integrate; a process whose profiles all have
antiderivatives (and every matrix or verify run) loads no scipy module at all.

The module imports the standard library only.  The audit grids are 64-point
plain-float geomspaces and the PsiFn audit runs on plain floats, so a profile
loads no numpy; the first quadrature does (the _quadpack extension imports it).
"""

from __future__ import annotations

import enum
import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Tuple


__all__ = [
    "Membership",
    "Refusal",
    "DivergenceError",
    "MembershipUndecidableError",
    "QuadratureError",
    "PsiFn",
    "psi_log",
    "SymmetricSpace",
    "space_lp",
    "space_linf",
    "space_llog",
    "space_marcinkiewicz",
    "parse_space",
    "PowerTail",
    "BOUNDED",
    "SUPERPOWER",
    "SpectralProfile",
    "constant_profile",
    "power_profile",
    "psi_prime_profile",
    "exp_flip_profile",
    "projection_profile",
    "parse_profile_spec",
    "membership",
    "elog_membership",
    "certified_membership",
    "profile_integral",
]

# Comparison slack for the power-rule boundary p*a = 1.  Exponents this close
# to the boundary are treated as sitting on it.
_RULE_EPS = 1e-12


# Audit points, each a 64-point plain-float geomspace (numpy's recipe, libm's pow):
# ordinary profiles, superpower profiles (which may overflow closer to 0), psi functions.
def _geomspace(lo: float, hi: float) -> Tuple[float, ...]:
    a, b = math.log10(lo), math.log10(hi)
    return (lo, *(10.0 ** (k * ((b - a) / 63) + a) for k in range(1, 63)), hi)


_PROFILE_GRID = _geomspace(1e-9, 1.0 - 1e-9)
_SUPERPOWER_GRID = _geomspace(1e-2, 1.0 - 1e-9)
_PSI_GRID = _geomspace(1e-15, 1.0 - 1e-6)


class Membership(enum.Enum):
    MEMBER = "member"
    NOT_MEMBER = "not-member"
    UNDECIDABLE = "undecidable"


class Refusal(Exception):
    """A computation declines to give a value it cannot certify.

    The first base of every refusal class of the library; the command line
    maps each Refusal to exit 1.
    """


class DivergenceError(Refusal, ValueError):
    """An integral required by a functional is infinite, or not a number."""


class MembershipUndecidableError(Refusal, ValueError):
    """No registered rule decides the membership question; refusing to guess."""


class QuadratureError(Refusal, ValueError):
    """Adaptive quadrature warned that its value may be inaccurate."""


def _exp(x: float) -> float:
    """exp(x), +inf past the float range where math.exp raises."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


# ---- Marcinkiewicz parameter functions ----

@dataclass(frozen=True, eq=False)
class PsiFn:
    """Concave increasing parameter function with psi(0+) = 0, audited when made."""

    name: str
    fn: Callable[[float], float]

    def __post_init__(self):
        vals = [float(self.fn(t)) for t in _PSI_GRID]
        if not all(math.isfinite(v) and v > 0.0 for v in vals):
            raise ValueError(f"psi {self.name!r} must be finite and positive on (0, 1)")
        rises = [b - a for a, b in zip(vals, vals[1:])]
        if any(d <= 0.0 for d in rises):
            raise ValueError(f"psi {self.name!r} must be strictly increasing")
        slopes = [d / (b - a) for d, a, b in zip(rises, _PSI_GRID, _PSI_GRID[1:])]
        if any(s1 - s0 > 1e-12 * s0 for s0, s1 in zip(slopes, slopes[1:])):
            raise ValueError(f"psi {self.name!r} must be concave")
        if self.fn(1e-300) > 0.05 * self.fn(0.5):
            raise ValueError(f"psi {self.name!r} does not approach 0 at the origin")

    def __call__(self, t: float) -> float:
        return self.fn(t)


_PSI_LOG = PsiFn("psi-log", lambda t: 1.0 / (2.0 - math.log(t)))


def psi_log() -> PsiFn:
    """psi(t) = 1/(2 - log t); the exact antiderivative of 1/(t*(2 - log t)^2).

    Always the same object: the psi-log membership rules are keyed on it, so
    another PsiFn that merely carries the name does not inherit them.
    """
    return _PSI_LOG


# ---- spaces ----

@dataclass(frozen=True)
class SymmetricSpace:
    """One of: Lp (0 < p < inf), Linf, Llog, Marcinkiewicz(psi)."""

    kind: str
    p: Optional[float] = None
    psi: Optional[PsiFn] = None

    @property
    def name(self) -> str:
        if self.kind == "lp":
            p = self.p
            return f"L{p:g}" if p in (1.0, 2.0) else f"Lp:{p:g}"
        if self.kind == "linf":
            return "Linf"
        if self.kind == "llog":
            return "Llog"
        return f"M({self.psi.name})"


def space_lp(p: float) -> SymmetricSpace:
    p = float(p)
    if not (p > 0.0 and math.isfinite(p)):
        raise ValueError("p must be a positive finite number")
    return SymmetricSpace("lp", p=p)


def space_linf() -> SymmetricSpace:
    return SymmetricSpace("linf")


def space_llog() -> SymmetricSpace:
    return SymmetricSpace("llog")


def space_marcinkiewicz(psi: Optional[PsiFn] = None) -> SymmetricSpace:
    return SymmetricSpace("marcinkiewicz", psi=psi or psi_log())


def parse_space(text: str) -> SymmetricSpace:
    s = text.strip().lower()
    if s == "l1":
        return space_lp(1.0)
    if s == "l2":
        return space_lp(2.0)
    if s.startswith("lp:"):
        return space_lp(float(s[3:]))
    if s == "linf":
        return space_linf()
    if s == "llog":
        return space_llog()
    if s in ("marcinkiewicz", "m-psi-log", "mpsi"):
        return space_marcinkiewicz()
    raise ValueError(
        f"unknown space {text!r}; choose L1, L2, Lp:<p>, Linf, Llog, or marcinkiewicz"
    )


# ---- profiles ----

@dataclass(frozen=True)
class PowerTail:
    """Behaviour C * t^(-a) * log(.)^b as t -> 0+.

    a >= 0: a nonincreasing nonnegative profile cannot vanish at 0 like t^|a|.
    Both exponents are finite: an infinite one is no tail class.
    """

    a: float
    b: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.a < math.inf:
            raise ValueError(f"tail exponent a must be finite and nonnegative, got {self.a!r}")
        if not math.isfinite(self.b):
            raise ValueError(f"tail exponent b must be finite, got {self.b!r}")


BOUNDED = "bounded"
# Grows faster than every power of 1/t as t -> 0 (e.g. exp of an unbounded
# profile); in particular not integrable near 0.
SUPERPOWER = "superpower"


@dataclass(frozen=True, eq=False)
class SpectralProfile:
    """Closed-form nonincreasing nonnegative function on (0, 1).

    evaluator is the function itself (profiles are their own decreasing
    rearrangement).  It must be a pure function of t: the eps-shifted
    sequence of dets.eps_limit_comparison reads it through a memo, which
    would hand back a stale value if a second call at the same t could
    differ.  antiderivative, when registered, is the exact map
    t -> int_0^t evaluator and is what makes Marcinkiewicz functionals and
    integral traces exact instead of quadrature-approximate.  log_plus and
    log_minus, when registered, are the decreasing rearrangements of
    log+ evaluator and log- evaluator, ready for trace evaluation.
    rescale, when registered, maps k > 0 to the closed form of k * profile
    (the profile's own constructor at the multiplied parameter);
    exp_flip_profile reads it for the log split of a flip with |c| != 1 and
    refuses a profile that registers none.
    """

    name: str
    evaluator: Callable[[float], float]
    tail_at_0: object = BOUNDED  # PowerTail | BOUNDED | SUPERPOWER | other: unknown, undecidable
    kernel_mass: float = 0.0
    antiderivative: Optional[Callable[[float], float]] = None
    log_plus: Optional["SpectralProfile"] = None
    log_minus: Optional["SpectralProfile"] = None
    rescale: Optional[Callable[[float], "SpectralProfile"]] = None

    def __post_init__(self):
        if not (0.0 <= self.kernel_mass < 1.0):
            raise ValueError("kernel_mass must lie in [0, 1)")
        _audit_profile(self)

    def __call__(self, t: float) -> float:
        t = float(t)
        if not 0.0 < t < 1.0:
            raise ValueError(f"evaluation point {t} outside (0, 1)")
        return float(self.evaluator(t))


def _audit_profile(p: SpectralProfile) -> None:
    # one pass over plain floats.  Every point is evaluated before any verdict, so an exception the
    # evaluator raises at a later point still wins over a failed check.
    ts = _PROFILE_GRID if p.tail_at_0 != SUPERPOWER else _SUPERPOWER_GRID
    negative = infinite = rising = False
    prev = math.inf
    for t in ts:
        try:
            v = float(p.evaluator(t))
        except OverflowError:
            # float ** raises one where float * returns inf
            v = math.inf
        if not v >= 0.0:
            negative = True  # below 0 or NaN
        elif v == math.inf:
            infinite = True
        # a rise above 1e-9 * (1 + previous value) fails; after an overflow
        # to +inf (allowed for superpower tails) the bound is +inf, as it is
        # before the first point
        if v > prev + 1e-9 * (1.0 + prev):
            rising = True
        prev = v
    if negative:
        raise ValueError(f"profile {p.name!r} must be nonnegative on the audit grid")
    if p.tail_at_0 != SUPERPOWER and infinite:
        raise ValueError(f"profile {p.name!r} must be finite on the audit grid")
    if rising:
        raise ValueError(f"profile {p.name!r} must be nonincreasing")
    if p.kernel_mass > 0.0:
        probe = 1.0 - 0.5 * p.kernel_mass
        if p.evaluator(probe) != 0.0:
            raise ValueError(
                f"profile {p.name!r} declares kernel_mass {p.kernel_mass} "
                f"but does not vanish at t={probe}"
            )


def _constant(c: float, kernel_mass: float = 0.0,
              log_plus: Optional[SpectralProfile] = None,
              log_minus: Optional[SpectralProfile] = None) -> SpectralProfile:
    return SpectralProfile(
        name=f"const({c:g})",
        evaluator=lambda t, _c=c: _c,
        tail_at_0=BOUNDED,
        kernel_mass=kernel_mass,
        antiderivative=lambda t, _c=c: _c * t,
        log_plus=log_plus,
        log_minus=log_minus,
        rescale=lambda k, _c=c: constant_profile(_c * k),
    )


def constant_profile(c: float) -> SpectralProfile:
    c = float(c)
    if c < 0.0 or not math.isfinite(c):
        raise ValueError("constant must be finite and nonnegative")
    if c == 0.0:
        return _constant(c, kernel_mass=0.999)
    # a positive constant has the trivial log split; registering it keeps
    # determinants of constant profiles on the generic path.  The parts are
    # bare constants: no kernel mass and no log split of their own.
    lp = _constant(max(math.log(c), 0.0))
    lm = _constant(max(-math.log(c), 0.0))
    return _constant(c, log_plus=lp, log_minus=lm)


def power_profile(a: float, b: float = 0.0, scale: float = 1.0) -> SpectralProfile:
    """scale * t^(-a) * log(C/t)^b with log C = max(1, |b|/a), nonincreasing by design."""
    a = float(a)
    b = float(b)
    scale = float(scale)
    if a < 0.0:
        raise ValueError("a must be nonnegative (profiles are nonincreasing)")
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    if not math.isfinite(scale):
        raise ValueError(f"scale must be finite, got {scale!r}")
    if a == 0.0 and b < 0.0:
        raise ValueError("a = 0 with b < 0 is increasing near 1")
    m = 1.0 if b == 0.0 or a == 0.0 else max(1.0, abs(b) / a)

    def ev(t, _a=a, _b=b, _s=scale, _m=m):
        out = _s * t ** (-_a)
        if _b != 0.0:
            out *= (_m - math.log(t)) ** _b
        return out

    anti = None
    if b == 0.0 and a < 1.0:
        anti = lambda t, _a=a, _s=scale: _s * t ** (1.0 - _a) / (1.0 - _a)
    elif a == 1.0 and b < -1.0:
        # d/dt (m - log t)^(b+1) = -(b+1) t^-1 (m - log t)^b, and it vanishes at 0
        anti = lambda t, _b=b, _s=scale, _m=m: _s * (_m - math.log(t)) ** (_b + 1.0) / (-(_b + 1.0))
    return SpectralProfile(
        name=f"power(a={a:g},b={b:g},scale={scale:g})",
        evaluator=ev,
        tail_at_0=PowerTail(a, b),
        antiderivative=anti,
        rescale=lambda k, _a=a, _b=b, _s=scale: power_profile(_a, _b, _s * k),
    )


def psi_prime_profile(scale: float = 1.0) -> SpectralProfile:
    """scale/(t*(2 - log t)^2); its integral from 0 to t is exactly scale/(2 - log t)."""
    scale = float(scale)
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    if not math.isfinite(scale):
        raise ValueError(f"scale must be finite, got {scale!r}")
    return SpectralProfile(
        name=f"psi-prime(x{scale:g})" if scale != 1.0 else "psi-prime",
        evaluator=lambda t, _s=scale: _s / (t * (2.0 - math.log(t)) ** 2),
        tail_at_0=PowerTail(1.0, -2.0),
        antiderivative=lambda t, _s=scale: _s / (2.0 - math.log(t)),
        rescale=lambda k, _s=scale: psi_prime_profile(_s * k),
    )


def exp_flip_profile(base: SpectralProfile, c: float = 1.0,
                     name: Optional[str] = None) -> SpectralProfile:
    """mu of exp(-c*T) where T is the positive operator with mu(T) = base.

    The operator representative is exp(-c*base(1-t)); for c > 0 that is
    already the rearranged profile (bounded by 1, decaying where base blows
    up), for c < 0 the rearrangement is exp(|c|*base(t)).  The registered log
    decompositions are exact: log- rearranges to c*base for c > 0, log+ to
    |c|*base for c < 0.  |c|*base is base itself for |c| = 1 and otherwise
    the base's registered rescale, so a base without one refuses.
    """
    c = float(c)
    if not math.isfinite(c):
        raise ValueError(f"c must be finite, got {c!r}")
    if base.kernel_mass > 0.0:
        raise ValueError("exp-flip base must be strictly positive (no kernel)")
    if c == 0.0:
        return constant_profile(1.0)
    tail = base.tail_at_0
    if c < 0.0 and (not isinstance(tail, PowerTail) or _bounded(tail)):
        raise ValueError("exp-flip with negative coefficient needs an unbounded power-class base")
    k = abs(c)
    if k != 1.0 and base.rescale is None:
        raise ValueError(f"profile {base.name!r} registers no rescale")
    scaled = base if k == 1.0 else base.rescale(k)
    zero = constant_profile(0.0)
    if c > 0.0:
        ev = lambda t, _f=base.evaluator, _c=c: _exp(-_c * _f(1.0 - t))
        default, tail = f"exp(-{c:g}*{base.name}(1-t))", BOUNDED
        log_plus, log_minus = zero, scaled
    else:
        ev = lambda t, _f=base.evaluator, _k=k: _exp(_k * _f(t))
        default, tail = f"exp({k:g}*{base.name})", SUPERPOWER
        log_plus, log_minus = scaled, zero
    return SpectralProfile(name=name or default, evaluator=ev, tail_at_0=tail,
                           log_plus=log_plus, log_minus=log_minus)


def projection_profile(kernel: float) -> SpectralProfile:
    """Indicator of (0, 1-kernel): mu of a projection of trace 1-kernel."""
    kernel = float(kernel)
    if not 0.0 < kernel < 1.0:
        raise ValueError("kernel mass must lie in (0, 1)")
    edge = 1.0 - kernel
    return SpectralProfile(
        name=f"projection(kernel={kernel:g})",
        evaluator=lambda t, _e=edge: 1.0 if t < _e else 0.0,
        tail_at_0=BOUNDED,
        kernel_mass=kernel,
        antiderivative=lambda t, _e=edge: min(t, _e),
        log_plus=constant_profile(0.0),
    )


# builtin name -> (constructor, {key: default}): the keys each builtin reads
# besides name and kind, passed to the constructor by name.  projection's
# default kernel 0.0 lies outside (0, 1), so a line must give it.
_BUILTINS = {
    "psi-prime": (psi_prime_profile, {"scale": 1.0}),
    "exp-neg-psi-prime-flip": (
        lambda scale: exp_flip_profile(psi_prime_profile(), c=scale,
                                       name="exp-neg-psi-prime-flip"),
        {"scale": 1.0},
    ),
    "projection": (projection_profile, {"kernel": 0.0}),
    "power": (power_profile, {"a": 0.0, "b": 0.0, "scale": 1.0}),
}


def parse_profile_spec(line: str) -> SpectralProfile:
    """Parse a profile line: name=<id> kind=<builtin|power> a= b= kernel= scale=.

    Builtins: psi-prime (scale), exp-neg-psi-prime-flip (scale is the
    exponent coefficient), projection (kernel is the kernel mass), power (a,
    b, scale).  kind=power is a shorthand for the power builtin.  An omitted
    key takes its _BUILTINS default.  A key that is unknown, repeated, or not
    read by the chosen builtin is an error, and so is a value that is not a
    finite number.
    """
    fields = {}
    for token in line.split():
        key, sep, value = token.partition("=")
        if not sep:
            raise ValueError(f"malformed profile token {token!r} (expected key=value)")
        key = key.strip().lower()
        if key in fields:
            raise ValueError(f"profile key {key!r} is given more than once")
        fields[key] = value.strip()
    kind = fields.pop("kind", "builtin")
    name = fields.pop("name", None)
    if kind.lower() == "power":
        if name is not None and name.lower() != "power":
            raise ValueError(f"kind=power does not take name={name!r}")
        name = "power"
    elif kind.lower() != "builtin":
        raise ValueError(f"unknown profile kind {kind!r}")
    builtin = (name or "").lower()
    if builtin not in _BUILTINS:
        raise ValueError(f"unknown builtin profile {name!r}; builtins: {tuple(_BUILTINS)}")
    build, defaults = _BUILTINS[builtin]
    for key in fields:
        if key not in defaults:
            raise ValueError(f"profile {builtin} does not take {key!r}; it takes {', '.join(defaults)}")
    parsed = {key: float(value) for key, value in fields.items()}
    for key, value in parsed.items():
        # nan fails no range check written as a comparison like `a < 0.0`;
        # checked before any constructor runs, so the message names the key
        if not math.isfinite(value):
            raise ValueError(f"profile {builtin} key {key!r} must be finite, got {fields[key]!r}")
    return build(**{**defaults, **parsed})


# ---- integrals of profiles ----

# QUADPACK's documentation of dqagse's error code ier, one line for each
# warning; 0 is success, and 6 (invalid input) needs tolerances quad never passes
_QAGSE_WARNINGS = {
    1: "the maximum number of subdivisions allowed has been achieved",
    2: "roundoff error prevents the requested tolerance from being achieved",
    3: "extremely bad integrand behaviour occurs at some points of the interval",
    4: "the algorithm does not converge: roundoff error in the extrapolation table",
    5: "the integral is probably divergent, or slowly convergent",
}


@functools.cache
def _qagse():
    """QUADPACK's qagse from scipy's _quadpack extension, loaded by file path.

    Importing scipy.integrate runs its __init__, which loads the ODE solvers,
    sparse, linalg, special and optimize; the extension alone loads only the
    few scipy._lib modules of its callback support.  It is registered under
    its own name, so a later import of scipy.integrate reuses it.  numpy is
    imported first because the extension loads numpy's C API: when numpy
    cannot be imported, the extension writes a line of its own to stderr and
    raises a vaguer error, where the import raises numpy's ImportError alone.
    """
    name = "scipy.integrate._quadpack"
    module = sys.modules.get(name)
    if module is None:
        import numpy
        scipy = importlib.util.find_spec("scipy")
        if scipy is None:
            raise ImportError("scipy is not installed", name="scipy")
        directory = os.path.join(scipy.submodule_search_locations[0], "integrate")
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(directory, "_quadpack" + suffix)
            if os.path.isfile(path):
                break
        else:
            raise ImportError(f"no QUADPACK extension _quadpack in {directory}", name=name)
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return module._qagse


def quad(func, a, b):
    """int_a^b func for finite a < b by QUADPACK's qagse: (value, abserr, ier).

    One call of _qagse (see there for why) at absolute tolerance 1e-14,
    relative tolerance 1e-10 and at most 200 subdivisions.  scipy.integrate.quad
    calls the same routine for a finite interval, so value and abserr are its
    floats at those tolerances.  ier is 0 on success and 1 to 5 for a warning
    (_QAGSE_WARNINGS); an exception of func propagates.  Module-level, so
    instrumentation can rebind spaces.quad.  Tried on scipy 1.17.1 only.
    """
    return _qagse()(func, a, b, (), 0, 1e-14, 1e-10, 200)


def profile_integral(p: SpectralProfile, lo: float, hi: float) -> float:
    """int_lo^hi of the profile; exact via the registered antiderivative when present.

    An antiderivative whose difference is not finite refuses (DivergenceError).
    Otherwise adaptive quadrature computes it, and a quadrature warning is a
    refusal (QuadratureError), not a value.
    """
    if not 0.0 <= lo <= hi <= 1.0:
        raise ValueError("bounds must satisfy 0 <= lo <= hi <= 1")
    if lo == hi:
        return 0.0
    if p.antiderivative is not None:
        flo = 0.0 if lo == 0.0 else p.antiderivative(lo)
        val = p.antiderivative(hi) - flo
        if not math.isfinite(val):
            raise DivergenceError(f"the antiderivative of profile {p.name!r} gives the integral "
                                  f"{val!r} on ({float(lo)!r}, {float(hi)!r})")
        return val
    if lo == 0.0 and _tail_rule(_L1, p.tail_at_0)[0] is Membership.NOT_MEMBER:
        raise DivergenceError(f"profile {p.name!r} is not integrable near 0")
    # a nonzero ier, QUADPACK's warning, means the value may be off by more
    # than its estimate
    value, _, ier = quad(p.evaluator, lo, hi)
    if ier:
        raise QuadratureError(f"quadrature of profile {p.name!r} on ({float(lo)!r}, {float(hi)!r}) "
                              f"is unreliable: QUADPACK qagse code {ier}, {_QAGSE_WARNINGS[ier]}")
    return float(value)


# ---- the membership rule table ----

_M, _N, _U = Membership.MEMBER, Membership.NOT_MEMBER, Membership.UNDECIDABLE
_L1 = space_lp(1.0)

# Mathematical witness certificates must clear the integrability boundary by
# at least this much in the exponent; boundary profiles are rejected.
_WITNESS_MARGIN = 1e-9


def _edge(x: float, on_edge: Membership) -> Tuple[Membership, float]:
    """Member below the boundary x = 1, not above it, on_edge within _RULE_EPS of it."""
    if x < 1.0 - _RULE_EPS:
        return _M, 1.0 - x
    if x > 1.0 + _RULE_EPS:
        return _N, x - 1.0
    return on_edge, 0.0


def _bounded(tail) -> bool:
    """BOUNDED, or a power tail t^0 log^b with b <= 0: the one place that rule lives."""
    return tail == BOUNDED or (isinstance(tail, PowerTail) and tail.a == 0.0 and tail.b <= 0.0)


# (space kind, space psi) -> the rule (space, PowerTail) giving the verdict and
# the margin by which the deciding exponent clears its boundary (p*a against 1
# in Lp, a against 1 in M(psi-log)): +inf where no exponent is compared, 0 on
# the boundary.  A space without a row leaves power tails undecidable.  The
# Marcinkiewicz row holds for psi-log only, matched by identity: int_0^t mu /
# psi(t) stays bounded exactly when mu is integrable with at least one spare
# log power.
_RULES = {
    ("lp", None): lambda s, t: _edge(s.p * t.a, _M if s.p * t.b < -1.0 - _RULE_EPS else _N),
    ("linf", None): lambda s, t: (_N, math.inf),  # bounded tails never reach a row
    ("marcinkiewicz", _PSI_LOG): lambda s, t: _edge(t.a, _M if t.b <= -2.0 + _RULE_EPS else _N),
}


def _log_plus_tail(tail):
    """The tail class of log+ f, None if unknown: a growing power tail gives a*log(1/t)."""
    if _bounded(tail):
        return BOUNDED
    return PowerTail(0.0, 1.0) if isinstance(tail, PowerTail) else None


def _tail_rule(space: SymmetricSpace, tail) -> Tuple[Membership, float]:
    """The table's verdict and margin for a tail_at_0 in space; Llog is L1 of log+."""
    if space.kind == "llog":
        space, tail = _L1, _log_plus_tail(tail)
    # a bounded tail is a member of every space; a superpower tail is not
    # integrable near 0, so it is in none
    if _bounded(tail):
        return _M, math.inf
    if tail == SUPERPOWER:
        return _N, math.inf
    rule = _RULES.get((space.kind, space.psi))
    if rule is None or not isinstance(tail, PowerTail):
        return _U, math.inf
    return rule(space, tail)


def certified_membership(space: SymmetricSpace, t: SpectralProfile, verdict: Membership) -> bool:
    """The tail row of t in space gives verdict with a margin beyond _WITNESS_MARGIN.

    The margin is tested in the exponent's own float form, x < 1 - w or
    x > 1 + w (near the boundary x = 1 -+ margin exactly): abs(x - 1) > w
    would certify a = 1 + 1e-9 outside L1.
    """
    got, margin = _tail_rule(space, t.tail_at_0)
    if got is not verdict:
        return False
    if verdict is Membership.MEMBER:
        return 1.0 - margin < 1.0 - _WITNESS_MARGIN
    return 1.0 + margin > 1.0 + _WITNESS_MARGIN


def membership(space: SymmetricSpace, f) -> Membership:
    """Decide whether mu-class membership holds; Undecidable rather than guessed."""
    if space.kind == "llog":
        return elog_membership(_L1, f)
    return _tail_rule(space, f.tail_at_0)[0]


def elog_membership(space: SymmetricSpace, f) -> Membership:
    """Membership of log+ f, the entry ticket to the determinant domain."""
    if f.log_plus is not None:
        return membership(space, f.log_plus)
    return _tail_rule(space, _log_plus_tail(f.tail_at_0))[0]
