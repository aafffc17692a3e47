"""Symmetric function spaces on (0, 1) and closed-form spectral profiles.

Membership of a profile in a space is decided by tail metadata carried on the
profile, never by eyeballing floats: the oracle either applies a registered
rule (power-class integrability, boundedness, a registered antiderivative for
Marcinkiewicz norms) or answers Undecidable.  Grid functions are bounded, and
every nonzero symmetric space contains the bounded functions, so they are
always members.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np
from scipy.integrate import quad

from .stepfn import GridFn, decreasing_rearrangement, integrate

__all__ = [
    "Membership",
    "DivergenceError",
    "MembershipUndecidableError",
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
    "scale_profile",
    "dilate2_profile",
    "parse_profile_spec",
    "membership",
    "elog_membership",
    "marcinkiewicz_functional",
    "profile_integral",
]

# Comparison slack for the power-rule boundary p*a = 1.  Exponents this close
# to the boundary are treated as sitting on it.
_RULE_EPS = 1e-12

_AUDIT_POINTS = 64


def _audit_grid(lo: float, hi: float) -> Tuple[float, ...]:
    return tuple(np.geomspace(lo, hi, _AUDIT_POINTS).tolist())


# Audit points, built once: ordinary profiles, superpower profiles (which may
# overflow closer to 0), and psi functions.
_PROFILE_GRID = _audit_grid(1e-9, 1.0 - 1e-9)
_SUPERPOWER_GRID = _audit_grid(1e-2, 1.0 - 1e-9)
_PSI_GRID = _audit_grid(1e-15, 1.0 - 1e-6)


class Membership(enum.Enum):
    MEMBER = "member"
    NOT_MEMBER = "not-member"
    UNDECIDABLE = "undecidable"


class DivergenceError(ValueError):
    """An integral required by a functional is infinite."""


class MembershipUndecidableError(ValueError):
    """No registered rule decides the membership question; refusing to guess."""


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


# ---- Marcinkiewicz parameter functions ----

@dataclass(frozen=True)
class PsiFn:
    """Concave increasing parameter function with psi(0+) = 0."""

    name: str
    fn: Callable[[float], float]

    def __call__(self, t: float) -> float:
        return self.fn(t)


_PSI_LOG = PsiFn("psi-log", lambda t: 1.0 / (2.0 - math.log(t)))


def psi_log() -> PsiFn:
    """psi(t) = 1/(2 - log t); the exact antiderivative of 1/(t*(2 - log t)^2).

    Always the same object: the psi-log membership rules are keyed on it, so
    another PsiFn that merely carries the name does not inherit them.
    """
    return _PSI_LOG


def _audit_psi(psi: PsiFn) -> None:
    vals = np.array([psi(t) for t in _PSI_GRID])
    if not np.all(np.isfinite(vals)) or np.any(vals <= 0.0):
        raise ValueError(f"psi {psi.name!r} must be finite and positive on (0, 1)")
    if np.any(np.diff(vals) <= 0.0):
        raise ValueError(f"psi {psi.name!r} must be strictly increasing")
    slopes = np.diff(vals) / np.diff(_PSI_GRID)
    if np.any(np.diff(slopes) > 1e-12 * slopes[:-1]):
        raise ValueError(f"psi {psi.name!r} must be concave")
    if psi(1e-300) > 0.05 * psi(0.5):
        raise ValueError(f"psi {psi.name!r} does not approach 0 at the origin")


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
    psi = psi or psi_log()
    _audit_psi(psi)
    return SymmetricSpace("marcinkiewicz", psi=psi)


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
    """Behaviour C * t^(-a) * log(.)^b as t -> 0+."""

    a: float
    b: float = 0.0


BOUNDED = "bounded"
# Grows faster than every power of 1/t as t -> 0 (e.g. exp of an unbounded
# profile); in particular not integrable near 0.
SUPERPOWER = "superpower"


@dataclass(frozen=True, eq=False)
class SpectralProfile:
    """Closed-form nonincreasing nonnegative function on (0, 1).

    evaluator is the function itself (profiles are their own decreasing
    rearrangement).  antiderivative, when registered, is the exact map
    t -> int_0^t evaluator and is what makes Marcinkiewicz functionals and
    integral traces exact instead of quadrature-approximate.  log_plus and
    log_minus, when registered, are the decreasing rearrangements of
    log+ evaluator and log- evaluator, ready for trace evaluation.
    """

    name: str
    evaluator: Callable[[float], float]
    tail_at_0: object = BOUNDED          # PowerTail | "bounded" | "superpower"
    tail_at_1: str = "decays-to-zero"    # "positive-limit" | "decays-to-zero" | "vanishes-on-interval"
    kernel_mass: float = 0.0
    antiderivative: Optional[Callable[[float], float]] = None
    log_plus: Optional["SpectralProfile"] = None
    log_minus: Optional["SpectralProfile"] = None
    family: str = "custom"
    params: Tuple = ()

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
    # plain floats: 64 points are too few for numpy calls to pay off
    ts = _PROFILE_GRID if p.tail_at_0 != SUPERPOWER else _SUPERPOWER_GRID
    vals = [float(p.evaluator(t)) for t in ts]
    if any(math.isnan(v) or v < 0.0 for v in vals):
        raise ValueError(f"profile {p.name!r} must be nonnegative on the audit grid")
    if p.tail_at_0 != SUPERPOWER and math.inf in vals:
        raise ValueError(f"profile {p.name!r} must be finite on the audit grid")
    # a rise above 1e-9 * (1 + previous value) fails; after an overflow to
    # +inf (allowed for superpower tails) the bound is +inf
    if any(cur > prev + 1e-9 * (1.0 + prev) for prev, cur in zip(vals, vals[1:])):
        raise ValueError(f"profile {p.name!r} must be nonincreasing")
    if p.kernel_mass > 0.0:
        probe = 1.0 - 0.5 * p.kernel_mass
        if p.evaluator(probe) != 0.0:
            raise ValueError(
                f"profile {p.name!r} declares kernel_mass {p.kernel_mass} "
                f"but does not vanish at t={probe}"
            )


def constant_profile(c: float, name: Optional[str] = None) -> SpectralProfile:
    c = float(c)
    if c < 0.0 or not math.isfinite(c):
        raise ValueError("constant must be finite and nonnegative")
    p = SpectralProfile(
        name=name or f"const({c:g})",
        evaluator=lambda t, _c=c: _c,
        tail_at_0=BOUNDED,
        tail_at_1="positive-limit" if c > 0.0 else "vanishes-on-interval",
        kernel_mass=0.0 if c > 0.0 else 0.999,
        antiderivative=lambda t, _c=c: _c * t,
        family="constant",
        params=(c,),
    )
    # a positive constant has the trivial log split; registering it here
    # keeps determinants of constant profiles on the generic path
    if c > 0.0 and p.log_plus is None:
        lp = max(math.log(c), 0.0)
        lm = max(-math.log(c), 0.0)
        object.__setattr__(p, "log_plus", _plain_constant(lp))
        object.__setattr__(p, "log_minus", _plain_constant(lm))
    return p


def _plain_constant(c: float) -> SpectralProfile:
    # bare constant carrier for log components; no recursive log fields
    return SpectralProfile(
        name=f"const({c:g})",
        evaluator=lambda t, _c=c: _c,
        tail_at_0=BOUNDED,
        tail_at_1="positive-limit" if c > 0.0 else "vanishes-on-interval",
        kernel_mass=0.0,
        antiderivative=lambda t, _c=c: _c * t,
        family="constant",
        params=(c,),
    )


def power_profile(a: float, b: float = 0.0, scale: float = 1.0,
                  name: Optional[str] = None) -> SpectralProfile:
    """scale * t^(-a) * log(C/t)^b with log C = max(1, |b|/a), nonincreasing by design."""
    a = float(a)
    b = float(b)
    scale = float(scale)
    if a < 0.0:
        raise ValueError("a must be nonnegative (profiles are nonincreasing)")
    if scale <= 0.0:
        raise ValueError("scale must be positive")
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
    return SpectralProfile(
        name=name or f"power(a={a:g},b={b:g},scale={scale:g})",
        evaluator=ev,
        tail_at_0=BOUNDED if (a == 0.0 and b <= 0.0) else PowerTail(a, b),
        tail_at_1="positive-limit",
        antiderivative=anti,
        family="power",
        params=(a, b, scale),
    )


def psi_prime_profile(scale: float = 1.0) -> SpectralProfile:
    """scale/(t*(2 - log t)^2); its integral from 0 to t is exactly scale/(2 - log t)."""
    scale = float(scale)
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    return SpectralProfile(
        name=f"psi-prime(x{scale:g})" if scale != 1.0 else "psi-prime",
        evaluator=lambda t, _s=scale: _s / (t * (2.0 - math.log(t)) ** 2),
        tail_at_0=PowerTail(1.0, -2.0),
        tail_at_1="positive-limit",
        antiderivative=lambda t, _s=scale: _s / (2.0 - math.log(t)),
        family="psi-prime",
        params=(scale,),
    )


def scale_profile(p: SpectralProfile, c: float) -> SpectralProfile:
    """c * p for c > 0; tail class and membership behaviour are unchanged."""
    c = float(c)
    if c <= 0.0:
        raise ValueError("scaling constant must be positive")
    if c == 1.0:
        return p
    if p.family == "constant":
        return constant_profile(p.params[0] * c)
    if p.family == "power":
        a, b, s = p.params
        return power_profile(a, b, s * c)
    if p.family == "psi-prime":
        return psi_prime_profile(p.params[0] * c)
    anti = None
    if p.antiderivative is not None:
        anti = lambda t, _f=p.antiderivative, _c=c: _c * _f(t)
    return SpectralProfile(
        name=f"{c:g}*{p.name}",
        evaluator=lambda t, _f=p.evaluator, _c=c: _c * _f(t),
        tail_at_0=p.tail_at_0,
        tail_at_1=p.tail_at_1,
        kernel_mass=p.kernel_mass,
        antiderivative=anti,
        family="scaled",
        params=(p.family, p.params, c),
    )


def exp_flip_profile(base: SpectralProfile, c: float = 1.0,
                     name: Optional[str] = None) -> SpectralProfile:
    """mu of exp(-c*T) where T is the positive operator with mu(T) = base.

    The operator representative is exp(-c*base(1-t)); for c > 0 that is
    already the rearranged profile (bounded by 1, decaying where base blows
    up), for c < 0 the rearrangement is exp(|c|*base(t)).  The registered log
    decompositions are exact: log- rearranges to c*base for c > 0, log+ to
    |c|*base for c < 0.
    """
    c = float(c)
    if base.kernel_mass > 0.0:
        raise ValueError("exp-flip base must be strictly positive (no kernel)")
    if c == 0.0:
        return constant_profile(1.0)
    unbounded = isinstance(base.tail_at_0, PowerTail) and (
        base.tail_at_0.a > 0.0 or base.tail_at_0.b > 0.0
    )
    zero = constant_profile(0.0)
    if c > 0.0:
        ev = lambda t, _f=base.evaluator, _c=c: _exp(-_c * _f(1.0 - t))
        return SpectralProfile(
            name=name or f"exp(-{c:g}*{base.name}(1-t))",
            evaluator=ev,
            tail_at_0=BOUNDED,
            tail_at_1="decays-to-zero" if unbounded else "positive-limit",
            log_plus=zero,
            log_minus=scale_profile(base, c),
            family="exp-flip",
            params=(base.family, base.params, c),
        )
    if not unbounded:
        raise ValueError("exp-flip with negative coefficient needs an unbounded power-class base")
    k = -c
    ev = lambda t, _f=base.evaluator, _k=k: _exp(_k * _f(t))
    return SpectralProfile(
        name=name or f"exp({k:g}*{base.name})",
        evaluator=ev,
        tail_at_0=SUPERPOWER,
        tail_at_1="positive-limit",
        log_plus=scale_profile(base, k),
        log_minus=zero,
        family="exp-flip",
        params=(base.family, base.params, c),
    )


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
        tail_at_1="vanishes-on-interval",
        kernel_mass=kernel,
        antiderivative=lambda t, _e=edge: min(t, _e),
        log_plus=constant_profile(0.0),
        family="projection",
        params=(kernel,),
    )


def dilate2_profile(p: SpectralProfile) -> SpectralProfile:
    """t -> p(t/2); same tail class at 0, exact antiderivative 2*F(t/2)."""
    anti = None
    if p.antiderivative is not None:
        anti = lambda t, _f=p.antiderivative: 2.0 * _f(t / 2.0)
    return SpectralProfile(
        name=f"D2({p.name})",
        evaluator=lambda t, _f=p.evaluator: _f(t / 2.0),
        tail_at_0=p.tail_at_0,
        tail_at_1="positive-limit" if p.kernel_mass < 0.5 else p.tail_at_1,
        kernel_mass=max(0.0, 2.0 * p.kernel_mass - 1.0),
        antiderivative=anti,
        family="dilate2",
        params=(p.family, p.params),
    )


_BUILTINS = ("psi-prime", "exp-neg-psi-prime-flip", "projection", "power")


def parse_profile_spec(line: str) -> SpectralProfile:
    """Parse a profile line: name=<id> kind=<builtin|power> a= b= kernel= scale=.

    Builtins: psi-prime, exp-neg-psi-prime-flip (scale is the exponent
    coefficient), projection (kernel is the kernel mass), power (a, b, scale).
    kind=power is a shorthand for the power builtin.
    """
    fields = {}
    for token in line.split():
        key, sep, value = token.partition("=")
        if not sep:
            raise ValueError(f"malformed profile token {token!r} (expected key=value)")
        fields[key.strip().lower()] = value.strip()
    kind = fields.get("kind", "builtin").lower()
    name = fields.get("name", "").lower()
    a = float(fields.get("a", "0"))
    b = float(fields.get("b", "0"))
    kernel = float(fields.get("kernel", "0"))
    scale = float(fields.get("scale", "1"))
    if kind == "power" or (kind == "builtin" and name == "power"):
        return power_profile(a, b, scale)
    if kind != "builtin":
        raise ValueError(f"unknown profile kind {fields.get('kind')!r}")
    if name == "psi-prime":
        return psi_prime_profile(scale)
    if name == "exp-neg-psi-prime-flip":
        return exp_flip_profile(psi_prime_profile(), c=scale, name="exp-neg-psi-prime-flip")
    if name == "projection":
        return projection_profile(kernel)
    raise ValueError(f"unknown builtin profile {fields.get('name')!r}; builtins: {_BUILTINS}")


# ---- integrals of profiles ----

def _integrable_near_zero(p: SpectralProfile):
    """True / False / None (unknown) for int_0 of the profile."""
    tail = p.tail_at_0
    if tail == BOUNDED:
        return True
    if tail == SUPERPOWER:
        return False
    if isinstance(tail, PowerTail):
        if tail.a < 1.0 - _RULE_EPS:
            return True
        if tail.a > 1.0 + _RULE_EPS:
            return False
        return tail.b < -1.0 - _RULE_EPS
    return None


def profile_integral(p: SpectralProfile, lo: float, hi: float) -> float:
    """int_lo^hi of the profile; exact via the registered antiderivative when present."""
    if not 0.0 <= lo <= hi <= 1.0:
        raise ValueError("bounds must satisfy 0 <= lo <= hi <= 1")
    if lo == hi:
        return 0.0
    if p.antiderivative is not None:
        flo = 0.0 if lo == 0.0 else p.antiderivative(lo)
        return p.antiderivative(hi) - flo
    if lo == 0.0 and _integrable_near_zero(p) is False:
        raise DivergenceError(f"profile {p.name!r} is not integrable near 0")
    # full_output=1 keeps scipy from printing roundoff warnings for endpoint
    # singularities that the adaptive rule already handles
    out = quad(p.evaluator, lo, hi, epsabs=1e-14, epsrel=1e-10, limit=200, full_output=1)
    return float(out[0])


def marcinkiewicz_functional(psi: PsiFn, f, t: float) -> float:
    """(1/psi(t)) * int_0^t of the decreasing rearrangement of f."""
    t = float(t)
    if not 0.0 < t <= 1.0:
        raise ValueError("t must lie in (0, 1]")
    if isinstance(f, GridFn):
        return integrate(decreasing_rearrangement(f), 0.0, t) / psi(t)
    if _integrable_near_zero(f) is False:
        raise DivergenceError(f"profile {f.name!r} is not integrable near 0")
    return profile_integral(f, 0.0, t) / psi(t)


# ---- the membership oracle ----

def _power_in_lp(tail: PowerTail, p: float) -> Membership:
    pa = p * tail.a
    pb = p * tail.b
    if pa < 1.0 - _RULE_EPS:
        return Membership.MEMBER
    if pa > 1.0 + _RULE_EPS:
        return Membership.NOT_MEMBER
    return Membership.MEMBER if pb < -1.0 - _RULE_EPS else Membership.NOT_MEMBER


def _power_in_mpsi_log(tail: PowerTail) -> Membership:
    # Rules specific to psi(t) = 1/(2 - log t): int_0^t mu / psi(t) stays
    # bounded exactly when mu is integrable with at least one spare log power.
    if tail.a < 1.0 - _RULE_EPS:
        return Membership.MEMBER
    if tail.a > 1.0 + _RULE_EPS:
        return Membership.NOT_MEMBER
    return Membership.MEMBER if tail.b <= -2.0 + _RULE_EPS else Membership.NOT_MEMBER


def membership(space: SymmetricSpace, f) -> Membership:
    """Decide whether mu-class membership holds; Undecidable rather than guessed."""
    if isinstance(f, GridFn):
        return Membership.MEMBER
    tail = f.tail_at_0
    if space.kind == "llog":
        return elog_membership(space_lp(1.0), f)
    if tail == BOUNDED:
        return Membership.MEMBER
    if isinstance(tail, PowerTail):
        if space.kind == "lp":
            return _power_in_lp(tail, space.p)
        if space.kind == "linf":
            bounded = tail.a == 0.0 and tail.b <= 0.0
            return Membership.MEMBER if bounded else Membership.NOT_MEMBER
        if space.kind == "marcinkiewicz":
            if space.psi is _PSI_LOG:
                return _power_in_mpsi_log(tail)
            return Membership.UNDECIDABLE
    if tail == SUPERPOWER:
        if space.kind in ("lp", "linf"):
            return Membership.NOT_MEMBER
        if space.kind == "marcinkiewicz":
            # not integrable near 0, so the functional is infinite
            return Membership.NOT_MEMBER
    return Membership.UNDECIDABLE


def elog_membership(space: SymmetricSpace, f) -> Membership:
    """Membership of log+ f, the entry ticket to the determinant domain."""
    if isinstance(f, GridFn):
        return Membership.MEMBER
    if f.log_plus is not None:
        return membership(space, f.log_plus)
    tail = f.tail_at_0
    if tail == BOUNDED:
        return Membership.MEMBER
    if isinstance(tail, PowerTail):
        # log+ f grows like a * log(1/t): the (a=0, b=1) class.
        if space.kind == "linf":
            return Membership.NOT_MEMBER
        if space.kind == "llog":
            return Membership.MEMBER
        if space.kind == "lp":
            return Membership.MEMBER
        if space.kind == "marcinkiewicz":
            if space.psi is _PSI_LOG:
                return Membership.MEMBER
            return Membership.UNDECIDABLE
    return Membership.UNDECIDABLE
