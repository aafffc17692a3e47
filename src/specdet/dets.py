"""Generalized determinants attached to positive trace functionals.

For a matrix model X and a trace phi the determinant is
exp(phi(log+ mu(X)) - phi(log- mu(X))) when the kernel is trivial and the
negative log part is summable; it is 0 when the negative part escapes the
space with trivial kernel (branch 2) or when the kernel is nontrivial
(branch 3).  The evaluation never regularizes silently: epsilon-shifted
values are computed only by the explicit comparison helper, which reports
the shifted sequence next to the exact value so discontinuities of the
epsilon limit are visible instead of averaged away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .stepfn import GridFn, decreasing_rearrangement
from .spaces import (
    BOUNDED,
    SUPERPOWER,
    Membership,
    MembershipUndecidableError,
    PowerTail,
    SpectralProfile,
    SymmetricSpace,
    constant_profile,
    elog_membership,
    exp_flip_profile,
    membership,
    power_profile,
    projection_profile,
    psi_log,
    psi_prime_profile,
    scale_profile,
    space_lp,
)
from .traces import TraceFunctional, eval_functional, integral_trace
from .matmodel import MatrixOperator

__all__ = [
    "DetDomainError",
    "UnsupportedProfileError",
    "UnsupportedProductError",
    "det_phi",
    "det_phi_with_branch",
    "MultiplicativityReport",
    "det_multiplicativity_check",
    "commuting_profile_product",
    "EpsComparison",
    "eps_limit_comparison",
    "WitnessReport",
    "separating_witness_scenario",
]

# Mathematical witness certificates must clear the integrability boundary by
# at least this much in the exponent; boundary profiles are rejected.
_WITNESS_MARGIN = 1e-9


class DetDomainError(ValueError):
    """The input is outside the determinant domain for the given space."""


class UnsupportedProfileError(ValueError):
    """The profile lacks the registered data needed for an exact answer."""


class UnsupportedProductError(ValueError):
    """No exact commuting-product rule is registered for this profile pair."""


def _log_plus(x: float) -> float:
    return math.log(x) if x > 1.0 else 0.0


def _log_minus(x: float) -> float:
    if x >= 1.0:
        return 0.0
    if x <= 0.0:
        return math.inf
    return -math.log(x)


def _det_grid(mu: GridFn, phi: TraceFunctional) -> Tuple[float, int]:
    v = decreasing_rearrangement(mu).values
    if v[-1] == 0.0:
        return 0.0, 3
    return math.exp(eval_functional(phi, GridFn(np.log(v)), signed=True)), 1


def det_phi_with_branch(x, phi: TraceFunctional,
                        space: Optional[SymmetricSpace] = None) -> Tuple[float, int]:
    """Determinant value and the branch taken: 1 exact, 2 escaping log-, 3 kernel.

    Matrix models and grid functions are bounded, so the space argument is
    only consulted for profiles, where membership of log+ (domain entry) and
    log- (branch 1 vs 2) is decided by the registered rules.
    """
    if isinstance(x, MatrixOperator):
        s = x.singular_values
        if s[-1] == 0.0:
            return 0.0, 3
        return math.exp(eval_functional(phi, GridFn(np.log(s)), signed=True)), 1
    if isinstance(x, GridFn):
        if np.any(x.values < 0.0):
            raise ValueError("grid input to a determinant must be nonnegative data")
        return _det_grid(x, phi)
    if not isinstance(x, SpectralProfile):
        raise TypeError(f"cannot take a determinant of {type(x).__name__}")
    if space is None:
        raise ValueError("profile determinants need the ambient space")
    entry = elog_membership(space, x)
    if entry is Membership.UNDECIDABLE:
        raise MembershipUndecidableError(
            f"cannot certify log+ membership of {x.name!r} in {space.name}"
        )
    if entry is Membership.NOT_MEMBER:
        raise DetDomainError(
            f"{x.name!r} is outside the determinant domain for {space.name}: "
            "log+ of the profile is not a member"
        )
    if x.kernel_mass > 0.0:
        return 0.0, 3
    if x.log_plus is None or x.log_minus is None:
        raise UnsupportedProfileError(
            f"profile {x.name!r} has no registered log decomposition"
        )
    lower = membership(space, x.log_minus)
    if lower is Membership.UNDECIDABLE:
        raise MembershipUndecidableError(
            f"cannot certify log- membership of {x.name!r} in {space.name}"
        )
    if lower is Membership.NOT_MEMBER:
        return 0.0, 2
    val = math.exp(eval_functional(phi, x.log_plus) - eval_functional(phi, x.log_minus))
    return val, 1


def det_phi(x, phi: TraceFunctional, space: Optional[SymmetricSpace] = None) -> float:
    return det_phi_with_branch(x, phi, space)[0]


@dataclass(frozen=True)
class MultiplicativityReport:
    det_ab: float
    det_a: float
    det_b: float
    product: float
    rel_discrepancy: float


def det_multiplicativity_check(a: MatrixOperator, b: MatrixOperator,
                               phi: Optional[TraceFunctional] = None) -> MultiplicativityReport:
    """Compare det(ab) against det(a) det(b) for a matrix pair."""
    phi = phi or integral_trace(1.0)
    det_ab = det_phi(a.matmul(b), phi)
    det_a = det_phi(a, phi)
    det_b = det_phi(b, phi)
    product = det_a * det_b
    scale = max(abs(det_ab), abs(product), 1e-300)
    return MultiplicativityReport(det_ab, det_a, det_b, product,
                                  abs(det_ab - product) / scale)


def _rebuild(family: str, params: Tuple) -> SpectralProfile:
    if family == "constant":
        return constant_profile(*params)
    if family == "power":
        return power_profile(*params)
    if family == "psi-prime":
        return psi_prime_profile(*params)
    if family == "projection":
        return projection_profile(*params)
    raise UnsupportedProductError(f"cannot rebuild profile family {family!r}")


def commuting_profile_product(f: SpectralProfile, g: SpectralProfile) -> SpectralProfile:
    """Pointwise product of two profiles as commuting multiplication operators.

    Only exactly-representable products are formed; anything else raises
    UnsupportedProductError rather than returning an approximation.
    """
    if f.family == "constant":
        c = f.params[0]
        return constant_profile(0.0) if c == 0.0 else scale_profile(g, c)
    if g.family == "constant":
        return commuting_profile_product(g, f)
    if f.family == "power" and g.family == "power":
        a1, b1, s1 = f.params
        a2, b2, s2 = g.params
        if b1 == 0.0 and b2 == 0.0:
            return power_profile(a1 + a2, 0.0, s1 * s2)
        raise UnsupportedProductError("power products with log factors are not registered")
    if f.family == "exp-flip" and g.family == "exp-flip":
        bf, pf, cf = f.params
        bg, pg, cg = g.params
        if bf == bg and pf == pg:
            return exp_flip_profile(_rebuild(bf, pf), cf + cg)
        raise UnsupportedProductError("exp-flip products need a common base profile")
    if f.family == "projection" and g.family == "projection":
        return projection_profile(max(f.params[0], g.params[0]))
    raise UnsupportedProductError(
        f"no exact product rule for families {f.family!r} x {g.family!r}"
    )


@dataclass(frozen=True)
class EpsComparison:
    """Exact determinant next to its epsilon-shifted sequence."""

    det_value: float
    branch: int
    epsilons: List[float] = field(default_factory=list)
    values: List[float] = field(default_factory=list)
    limit: Optional[float] = None
    converged: bool = False
    agree: Optional[bool] = None


def _eps_term_matrix(x: MatrixOperator, phi: TraceFunctional, eps: float) -> float:
    shifted = np.log(x.singular_values + eps)
    return math.exp(eval_functional(phi, GridFn(shifted), signed=True))


def _eps_profiles(x: SpectralProfile, eps: float) -> Tuple[SpectralProfile, SpectralProfile]:
    if x.tail_at_0 == SUPERPOWER:
        if x.log_plus is None:
            raise UnsupportedProfileError(
                f"profile {x.name!r} grows too fast for direct shifted logs and "
                "has no registered log+"
            )
        # log(x + eps) = logaddexp(log x, log eps) where x >= 1
        lp = SpectralProfile(
            name=f"log+({x.name}+{eps:g})",
            evaluator=lambda s, _f=x.log_plus.evaluator, _l=math.log(eps):
                float(np.logaddexp(_f(s), _l)),
            tail_at_0=x.log_plus.tail_at_0,
            tail_at_1="positive-limit",
            family="shifted-log",
        )
        lm = constant_profile(0.0)
        return lp, lm
    lp = SpectralProfile(
        name=f"log+({x.name}+{eps:g})",
        evaluator=lambda s, _f=x.evaluator, _e=eps: _log_plus(_f(s) + _e),
        tail_at_0=BOUNDED,
        tail_at_1="positive-limit",
        family="shifted-log",
    )
    lm = SpectralProfile(
        name=f"log-({x.name}+{eps:g})",
        evaluator=lambda s, _f=x.evaluator, _e=eps: _log_minus(_f(1.0 - s) + _e),
        tail_at_0=BOUNDED,
        tail_at_1="positive-limit",
        family="shifted-log",
    )
    return lp, lm


def _eps_term_profile(x: SpectralProfile, phi: TraceFunctional, eps: float) -> float:
    lp, lm = _eps_profiles(x, eps)
    return math.exp(eval_functional(phi, lp) - eval_functional(phi, lm))


def eps_limit_comparison(x, phi: TraceFunctional,
                         space: Optional[SymmetricSpace] = None,
                         k_min: int = 4, k_max: int = 30,
                         window: int = 5, agree_tol: float = 1e-6) -> EpsComparison:
    """Exact determinant next to det-like values of the eps-shifted input.

    The shifted sequence uses eps = 2^-k for k_min <= k <= k_max.  The limit
    is declared converged when the last `window` values agree to agree_tol;
    `agree` then records whether that limit matches the exact value, which by
    design it need not.
    """
    if not (1 <= k_min < k_max):
        raise ValueError("need 1 <= k_min < k_max")
    det_value, branch = det_phi_with_branch(x, phi, space)
    epsilons = [2.0 ** (-k) for k in range(k_min, k_max + 1)]
    if isinstance(x, MatrixOperator):
        values = [_eps_term_matrix(x, phi, e) for e in epsilons]
    elif isinstance(x, SpectralProfile):
        values = [_eps_term_profile(x, phi, e) for e in epsilons]
    elif isinstance(x, GridFn):
        mu = decreasing_rearrangement(x).values
        values = [
            math.exp(eval_functional(phi, GridFn(np.log(mu + e)), signed=True))
            for e in epsilons
        ]
    else:
        raise TypeError(f"cannot run the comparison on {type(x).__name__}")
    tail = values[-window:]
    spread = max(tail) - min(tail)
    converged = spread <= agree_tol * max(1.0, abs(tail[-1]))
    limit = tail[-1] if converged else None
    agree = None
    if converged:
        agree = abs(limit - det_value) <= agree_tol * max(1.0, abs(det_value))
    return EpsComparison(det_value, branch, epsilons, values, limit, converged, agree)


# ---- the two-space separation scenario ----

def _strictly_member(space: SymmetricSpace, t: SpectralProfile) -> bool:
    tail = t.tail_at_0
    if tail == BOUNDED:
        return True
    if isinstance(tail, PowerTail):
        if space.kind == "lp":
            return space.p * tail.a < 1.0 - _WITNESS_MARGIN
        if space.kind == "llog":
            return True
        if space.kind == "marcinkiewicz" and space.psi is psi_log():
            return tail.a < 1.0 - _WITNESS_MARGIN
    return False


def _strictly_not_member(space: SymmetricSpace, t: SpectralProfile) -> bool:
    tail = t.tail_at_0
    if tail == SUPERPOWER:
        return space.kind in ("lp", "linf", "marcinkiewicz")
    if isinstance(tail, PowerTail):
        if space.kind == "lp":
            return space.p * tail.a > 1.0 + _WITNESS_MARGIN
        if space.kind == "linf":
            return tail.a > 0.0 or tail.b > 0.0
        if space.kind == "marcinkiewicz" and space.psi is psi_log():
            return tail.a > 1.0 + _WITNESS_MARGIN
    return False


@dataclass(frozen=True)
class WitnessReport:
    witness_name: str
    small_space: str
    large_space: str
    integral_t: float
    det_small: float
    branch_small: int
    det_large: float
    branch_large: int


def separating_witness_scenario(small_space: SymmetricSpace,
                                large_space: SymmetricSpace,
                                t: SpectralProfile,
                                phi_small: Optional[TraceFunctional] = None,
                                phi_large: Optional[TraceFunctional] = None) -> WitnessReport:
    """Exhibit x = exp(-t) whose determinant is positive over the large space
    and zero (branch 2) over the small one.

    The witness profile t must clear both membership boundaries by a strict
    margin: certified inside the large space, certified outside the small
    one.  Boundary or undecidable witnesses are rejected, never eyeballed.
    """
    if not _strictly_member(large_space, t):
        raise DetDomainError(
            f"{t.name!r} is not a certified strict member of {large_space.name}; "
            "refusing a boundary witness"
        )
    if not _strictly_not_member(small_space, t):
        raise DetDomainError(
            f"{t.name!r} is not certified to escape {small_space.name} strictly; "
            "refusing a boundary witness"
        )
    x = exp_flip_profile(t, 1.0)
    phi_small = phi_small or integral_trace(1.0)
    phi_large = phi_large or integral_trace(1.0)
    det_large, br_large = det_phi_with_branch(x, phi_large, large_space)
    det_small, br_small = det_phi_with_branch(x, phi_small, small_space)
    integral_t = eval_functional(phi_large, t)
    return WitnessReport(
        witness_name=t.name,
        small_space=small_space.name,
        large_space=large_space.name,
        integral_t=integral_t,
        det_small=det_small,
        branch_small=br_small,
        det_large=det_large,
        branch_large=br_large,
    )
