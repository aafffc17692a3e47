"""Generalized determinants attached to positive trace functionals.

For a matrix model X and a trace phi the determinant is
exp(phi(log+ mu(X)) - phi(log- mu(X))) when the kernel is trivial and the
negative log part is summable; it is 0 when the negative part escapes the
space with trivial kernel (branch 2) or when the kernel is nontrivial
(branch 3).  The evaluation never regularizes silently: epsilon-shifted
values are computed only by the explicit comparison helper, which reports
the shifted sequence next to the exact value so discontinuities of the
epsilon limit are visible instead of averaged away.  A branch-1 value
outside the float range refuses: exp overflowing raises OverflowError, and
exp of a finite exponent returning 0.0 raises FloatingPointError, since a
silent zero would read like branch 3.  An eps-shifted value that overflows
raises an OverflowError naming its eps; one that underflows is 0.0, since a
shifted value is no determinant.

On a profile x the shifted sequence builds, for each of its 27 epsilons, the
audited profiles log+(x + eps) and log-(x + eps) (for a superpower x, the
bounded rest log1p(eps / x) beside the registered log+ x).  They read x (or
log+ x) at the same points for every eps, the audit grid and the quadrature
nodes of the same intervals, so one comparison reads x through one dict per
call, keyed by the point, made when the call starts and dropped when it
returns.

Both entry points admit their input through one helper, which tests for a
profile first; numpy and the grid and matrix layers (stepfn, matmodel) are
imported past that test, so a profile determinant loads none of them.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from .spaces import (
    BOUNDED,
    SUPERPOWER,
    Membership,
    MembershipUndecidableError,
    Refusal,
    SpectralProfile,
    SymmetricSpace,
    certified_membership,
    elog_membership,
    exp_flip_profile,
    membership,
)
from .traces import TraceFunctional, eval_functional, integral_trace

if TYPE_CHECKING:
    from .matmodel import MatrixOperator
    from .stepfn import GridFn

__all__ = [
    "DetDomainError",
    "UnsupportedProfileError",
    "det_phi",
    "det_phi_with_branch",
    "MultiplicativityReport",
    "det_multiplicativity_check",
    "EpsComparison",
    "eps_limit_comparison",
    "WitnessReport",
    "separating_witness_scenario",
]

# The eps-shifted sequence of eps_limit_comparison.
_EPS_K_MIN = 4
_EPS_K_MAX = 30
_EPS_WINDOW = 5
_EPS_AGREE_TOL = 1e-6

# The trace of the multiplicativity check and of the witness scenario.
_PHI1 = integral_trace(1.0)


class DetDomainError(Refusal, ValueError):
    """The input is outside the determinant domain for the given space."""


class UnsupportedProfileError(Refusal, ValueError):
    """The profile lacks the registered data needed for an exact answer."""


def _exp(log_value: float, what: str) -> float:
    """exp(log_value), refusing a NaN exponent and any value past the float range.

    The exponent may itself be infinite when a trace overflowed: +inf refuses
    as an overflow, -inf gives 0.0 like a finite exponent below the range.
    """
    if math.isnan(log_value):
        raise FloatingPointError(f"the log of {what} is not a number")
    if log_value < math.inf:
        with suppress(OverflowError):
            return math.exp(log_value)
    raise OverflowError(f"{what} overflows the float range")


def _exp_det(log_det: float) -> float:
    """exp of a branch-1 log-determinant.

    A zero refuses too, since branch 1 never has the value 0 and a silent
    zero would read like the kernel branch.
    """
    val = _exp(log_det, "the determinant")
    if val == 0.0:
        raise FloatingPointError("the determinant underflows the float range")
    return val


def _exp_eps(log_value: float, eps: float) -> float:
    """exp of the log of an eps-shifted value; below the float range it is 0.0."""
    return _exp(log_value, f"the value shifted by eps = {eps:g}")


def _log_det_grid(mu: GridFn, phi: TraceFunctional) -> float:
    """phi(log mu) for a positive grid mu, in any cell order: eval_functional rearranges."""
    import numpy as np

    from .stepfn import GridFn

    return eval_functional(phi, GridFn(np.log(mu.values)))


def _admitted(x):
    """A profile or grid function as it is, a matrix model as its mu; else TypeError."""
    if isinstance(x, SpectralProfile):
        return x
    from .matmodel import MatrixOperator, mu_matrix
    from .stepfn import GridFn

    if isinstance(x, MatrixOperator):
        return mu_matrix(x)
    if isinstance(x, GridFn):
        return x
    raise TypeError(f"cannot take a determinant of {type(x).__name__}")


def _decided(verdict: Membership, part: str, x: SpectralProfile,
             space: SymmetricSpace) -> Membership:
    """The membership verdict on the log part of x, refused when no rule decided it."""
    if verdict is Membership.UNDECIDABLE:
        raise MembershipUndecidableError(f"cannot certify {part} membership of {x.name!r} "
                                         f"in {space.name}")
    return verdict


def det_phi_with_branch(x, phi: TraceFunctional,
                        space: Optional[SymmetricSpace] = None) -> Tuple[float, int]:
    """Determinant value and the branch taken: 1 exact, 2 escaping log-, 3 kernel.

    Grid functions are bounded, so the space argument is only consulted for
    profiles, where membership of log+ (domain entry) and log- (branch 1 vs 2)
    is decided by the registered rules.
    """
    x = _admitted(x)
    if not isinstance(x, SpectralProfile):
        import numpy as np

        if np.any(x.values < 0.0):
            raise ValueError("grid input to a determinant must be nonnegative data")
        if x.values.min() == 0.0:
            return 0.0, 3
        return _exp_det(_log_det_grid(x, phi)), 1
    if space is None:
        raise ValueError("profile determinants need the ambient space")
    if _decided(elog_membership(space, x), "log+", x, space) is Membership.NOT_MEMBER:
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
    if _decided(membership(space, x.log_minus), "log-", x, space) is Membership.NOT_MEMBER:
        return 0.0, 2
    return _exp_det(eval_functional(phi, x.log_plus) - eval_functional(phi, x.log_minus)), 1


def det_phi(x, phi: TraceFunctional, space: Optional[SymmetricSpace] = None) -> float:
    return det_phi_with_branch(x, phi, space)[0]


@dataclass(frozen=True)
class MultiplicativityReport:
    det_ab: float
    det_a: float
    det_b: float
    product: float
    rel_discrepancy: float


def det_multiplicativity_check(a: MatrixOperator, b: MatrixOperator) -> MultiplicativityReport:
    """Compare det(ab) against det(a) det(b) for a matrix pair, under integral:1."""
    det_ab = det_phi(a.matmul(b), _PHI1)
    det_a = det_phi(a, _PHI1)
    det_b = det_phi(b, _PHI1)
    product = det_a * det_b
    scale = max(abs(det_ab), abs(product), 1e-300)
    return MultiplicativityReport(det_ab, det_a, det_b, product,
                                  abs(det_ab - product) / scale)


@dataclass(frozen=True)
class EpsComparison:
    """Exact determinant next to its epsilon-shifted sequence."""

    det_value: float
    branch: int
    epsilons: List[float]
    values: List[float]
    limit: Optional[float]
    converged: bool
    agree: Optional[bool]


def _eps_term_profile(x: SpectralProfile, read: Callable[[float], float],
                      seen: Dict[float, float], phi: TraceFunctional, eps: float) -> float:
    """exp(phi(log+(x + eps)) - phi(log-(x + eps))) for a profile x.

    read is the evaluator the shifted profiles read: that of x, or for a
    superpower x that of its registered log+.  seen maps a point to the value
    read returned there; each shifted evaluator looks the point up inline and
    calls read only on a miss.  Only a value is stored, so a point at which
    read raises raises again at every read.
    """
    if x.tail_at_0 == SUPERPOWER:
        # x >= 1, so log(x + eps) = log+ x + log1p(eps / x): phi takes the
        # registered log+ exactly, plus the bounded rest, rearranged
        def rest(s, log1p=math.log1p, exp=math.exp):
            t = 1.0 - s
            try:
                v = seen[t]
            except KeyError:
                v = seen[t] = read(t)
            return log1p(eps * exp(-v))

        rest_p = SpectralProfile(name=f"log1p({eps:g}/{x.name})", evaluator=rest,
                                 tail_at_0=BOUNDED)
        return _exp_eps(eval_functional(phi, x.log_plus) + eval_functional(phi, rest_p), eps)

    def log_plus(s, log=math.log):
        try:
            v = seen[s]
        except KeyError:
            v = seen[s] = read(s)
        y = v + eps
        return log(y) if y > 1.0 else 0.0

    def log_minus(s, log=math.log):
        t = 1.0 - s
        try:
            v = seen[t]
        except KeyError:
            v = seen[t] = read(t)
        y = v + eps
        return 0.0 if y >= 1.0 else -log(y)

    lp = SpectralProfile(name=f"log+({x.name}+{eps:g})", evaluator=log_plus,
                         tail_at_0=BOUNDED)
    lm = SpectralProfile(name=f"log-({x.name}+{eps:g})", evaluator=log_minus,
                         tail_at_0=BOUNDED)
    return _exp_eps(eval_functional(phi, lp) - eval_functional(phi, lm), eps)


def eps_limit_comparison(x, phi: TraceFunctional,
                         space: Optional[SymmetricSpace] = None) -> EpsComparison:
    """Exact determinant next to det-like values of the eps-shifted input.

    The shifted sequence uses eps = 2^-k for 4 <= k <= 30.  The limit is
    declared converged when the last five values agree to 1e-6 (relative
    above 1); `agree` then records whether that limit matches the exact
    value, which by design it need not.
    """
    x = _admitted(x)
    det_value, branch = det_phi_with_branch(x, phi, space)
    epsilons = [2.0 ** (-k) for k in range(_EPS_K_MIN, _EPS_K_MAX + 1)]
    if isinstance(x, SpectralProfile):
        # det_phi_with_branch admitted x, so a superpower x has a registered
        # log+: the table knows no tail class for log+ of a superpower tail
        base = x.log_plus if x.tail_at_0 == SUPERPOWER else x
        # evaluators are pure, so a memo hit is the float a call would
        # return; the memo is this call's alone
        seen: Dict[float, float] = {}
        values = [_eps_term_profile(x, base.evaluator, seen, phi, e) for e in epsilons]
    else:
        from .stepfn import GridFn

        # _admitted refused every other type, so x is a GridFn; x + e is
        # positive, so the branch-1 formula applies to it
        values = [_exp_eps(_log_det_grid(GridFn(x.values + e), phi), e) for e in epsilons]
    tail = values[-_EPS_WINDOW:]
    spread = max(tail) - min(tail)
    converged = spread <= _EPS_AGREE_TOL * max(1.0, abs(tail[-1]))
    limit = tail[-1] if converged else None
    agree = None
    if converged:
        agree = abs(limit - det_value) <= _EPS_AGREE_TOL * max(1.0, abs(det_value))
    return EpsComparison(det_value, branch, epsilons, values, limit, converged, agree)


# ---- the two-space separation scenario ----

@dataclass(frozen=True)
class WitnessReport:
    integral_t: float
    det_small: float
    branch_small: int
    det_large: float
    branch_large: int


def separating_witness_scenario(small_space: SymmetricSpace,
                                large_space: SymmetricSpace,
                                t: SpectralProfile) -> WitnessReport:
    """Exhibit x = exp(-t) whose determinant is positive over the large space
    and zero (branch 2) over the small one, both under integral:1.

    The witness profile t must clear both membership boundaries by a strict
    margin: certified inside the large space, certified outside the small
    one.  Boundary or undecidable witnesses are rejected, never eyeballed.
    """
    if not certified_membership(large_space, t, Membership.MEMBER):
        raise DetDomainError(
            f"{t.name!r} is not a certified strict member of {large_space.name}; "
            "refusing a boundary witness"
        )
    if not certified_membership(small_space, t, Membership.NOT_MEMBER):
        raise DetDomainError(
            f"{t.name!r} is not certified to escape {small_space.name} strictly; "
            "refusing a boundary witness"
        )
    x = exp_flip_profile(t, 1.0)
    det_large, br_large = det_phi_with_branch(x, _PHI1, large_space)
    det_small, br_small = det_phi_with_branch(x, _PHI1, small_space)
    integral_t = eval_functional(_PHI1, t)
    return WitnessReport(
        integral_t=integral_t,
        det_small=det_small,
        branch_small=br_small,
        det_large=det_large,
        branch_large=br_large,
    )
