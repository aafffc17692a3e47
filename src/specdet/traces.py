"""Positive trace functionals on rearranged data.

Two families are provided.  The integral family sends f to c times the head
integral of f* at 1, c * int_0^1 f*, which on an n x n matrix model
reproduces c * (normalized trace); for a profile that integral is
spaces.profile_integral, the one place that refuses a non-integrable tail.
The singular family evaluates lim_{t->0} (1/psi(t)) int_0^t f* along a
dyadic scheme and is the model of a trace supported at the origin: it picks
out the psi-slope of the tail.  Its limit is 0 on a bounded function, but the
scheme stops at t = 2^-40 and leaves up to sup|f| * 2^-40 / psi(2^-40), about
2.7e-11 * sup|f| for psi-log.
Both are linear, so a signed grid function f is evaluated as
phi(f+) - phi(f-), with each part rearranged on its own
(stepfn.signed_parts).  The dyadic extrapolation either stabilizes within a
declared window or the evaluation refuses with NonConvergentError; it never
silently averages an oscillation or returns a non-finite ratio.  The window
(the last five dyadic points) is evaluated first; the earlier points are
computed only when the scheme refuses, to fill the sampled tail the refusal
carries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .stepfn import GridFn, integrate, signed_parts
from .matmodel import MatrixOperator, lambda_matrix
from .spaces import PsiFn, Refusal, SpectralProfile, profile_integral, psi_log

__all__ = [
    "TraceFunctional",
    "integral_trace",
    "singular_trace",
    "parse_trace",
    "NonConvergentError",
    "eval_functional",
    "eval_on_operator",
]


# The singular family's dyadic scheme: t_k = 2^-k for _K_MIN <= k <= _K_MAX,
# converged when the last five ratios spread at most _DELTA_CONV.
_K_MIN = 8
_K_MAX = 40
_DELTA_CONV = 1e-6


class NonConvergentError(Refusal, ArithmeticError):
    """The dyadic extrapolation did not stabilize; carries the sampled tail."""

    def __init__(self, message: str, values: Sequence[float]):
        super().__init__(message)
        self.values = list(values)


@dataclass(frozen=True)
class TraceFunctional:
    """kind 'integral' (weight c >= 0) or 'singular' (Marcinkiewicz limit for a PsiFn)."""

    kind: str
    c: float = 1.0
    psi: Optional[PsiFn] = None

    def __post_init__(self):
        if self.kind not in ("integral", "singular"):
            raise ValueError(f"unknown trace kind {self.kind!r}")
        if self.kind == "integral" and not (self.c >= 0.0 and math.isfinite(self.c)):
            raise ValueError("integral trace weight must be finite and nonnegative")
        # a PsiFn audited itself when it was made
        if self.kind == "singular" and not isinstance(self.psi, PsiFn):
            raise ValueError("singular trace needs a psi function")

    @property
    def name(self) -> str:
        if self.kind == "integral":
            return f"integral:{self.c:g}"
        return f"singular:{self.psi.name}"


def integral_trace(c: float = 1.0) -> TraceFunctional:
    return TraceFunctional("integral", c=float(c))


def singular_trace(psi: Optional[PsiFn] = None) -> TraceFunctional:
    return TraceFunctional("singular", psi=psi or psi_log())


def parse_trace(text: str) -> TraceFunctional:
    s = text.strip().lower()
    if s.startswith("integral:"):
        return integral_trace(float(s[len("integral:"):]))
    if s == "integral":
        return integral_trace(1.0)
    if s == "singular:psi-log":
        return singular_trace()
    raise ValueError(
        f"unknown trace {text!r}; choose integral:<c> or singular:psi-log"
    )


def _head_integral(f, t: float) -> float:
    """int_0^t of an already-nonincreasing argument."""
    if isinstance(f, GridFn):
        return integrate(f, 0.0, t)
    return profile_integral(f, 0.0, t)


def _dyadic_limit(phi: TraceFunctional, f) -> float:
    """lim (1/psi(t)) int_0^t f along t_k = 2^-k, _K_MIN <= k <= _K_MAX.

    Only the last five ratios decide convergence and give the value, so they
    are evaluated first; the earlier ratios are computed only for a refusal,
    whose sampled tail carries every ratio in k order.  Each ratio depends on
    its own k alone, so the order of evaluation changes no bit of the result.
    """
    def ratio(k: int) -> float:
        t_k = 2.0 ** (-k)
        return _head_integral(f, t_k) / phi.psi(t_k)

    first = _K_MAX - 4
    window = [ratio(k) for k in range(first, _K_MAX + 1)]
    # max and min read a NaN by its position, so only a finite window has a spread
    finite = all(map(math.isfinite, window))
    spread = max(window) - min(window)
    if finite and spread <= _DELTA_CONV:
        return window[-1]
    problem = f"spread {spread:.3e} exceeds {_DELTA_CONV:.1e}" if finite else "holds a non-finite ratio"
    raise NonConvergentError(
        f"dyadic scheme for {phi.name} did not stabilize: last window {problem}",
        [ratio(k) for k in range(_K_MIN, first)] + window,
    )


def _eval_nonincreasing(phi: TraceFunctional, f) -> float:
    """phi on data already in decreasing-rearrangement form."""
    if phi.kind == "integral":
        return phi.c * _head_integral(f, 1.0)
    return _dyadic_limit(phi, f)


def eval_functional(phi: TraceFunctional, f) -> float:
    """Evaluate the trace functional on a grid function or registered profile.

    A trace is linear, so a grid function is evaluated through its signed
    parts: phi(f) = phi(f+) - phi(f-), each part rearranged on its own.  On
    nonnegative data f- is zero and the result is phi(f+) exactly.
    """
    if isinstance(f, SpectralProfile):
        return _eval_nonincreasing(phi, f)
    if not isinstance(f, GridFn):
        raise TypeError(f"cannot evaluate a trace on {type(f).__name__}")
    pos, neg = signed_parts(f)
    return _eval_nonincreasing(phi, pos) - _eval_nonincreasing(phi, neg)


def eval_on_operator(phi: TraceFunctional, a) -> float:
    """phi applied to a self-adjoint matrix model through its eigenvalue data.

    Only integral functionals act nontrivially on matrix models: every matrix
    function is bounded, so a singular functional's limit is 0 on it, and the
    dyadic scheme would return only its residue, up to about 2.7e-11 * sup|f|.
    Asking for a singular trace here is a usage error, not a zero.
    """
    if not isinstance(a, MatrixOperator):
        raise TypeError("eval_on_operator expects a MatrixOperator")
    if not a.self_adjoint:
        raise ValueError("operator trace evaluation requires a self-adjoint input")
    if phi.kind != "integral":
        raise ValueError(
            "singular functionals vanish on matrix models; evaluate them on "
            "profiles or grid functions instead"
        )
    return eval_functional(phi, lambda_matrix(a))
