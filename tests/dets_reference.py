"""Reference implementations that the fast determinant paths must match bit for bit.

``eps_term_reference`` is one term of the eps-shifted sequence of
``dets.eps_limit_comparison`` as it was computed before the sequence read its
input through one memo per call: every shifted profile calls the input's own
evaluator (or that of its registered log+) afresh.
"""

import math

from specdet.dets import UnsupportedProfileError
from specdet.spaces import BOUNDED, SUPERPOWER, SpectralProfile
from specdet.traces import eval_functional


def eps_term_reference(x, phi, eps):
    """exp(phi(log+(x + eps)) - phi(log-(x + eps))) for a profile x."""
    if x.tail_at_0 == SUPERPOWER:
        if x.log_plus is None:
            raise UnsupportedProfileError(
                f"profile {x.name!r} grows too fast for direct shifted logs and "
                "has no registered log+"
            )
        rest = SpectralProfile(
            name=f"log1p({eps:g}/{x.name})",
            evaluator=lambda s, _f=x.log_plus.evaluator, _e=eps:
                math.log1p(_e * math.exp(-_f(1.0 - s))),
            tail_at_0=BOUNDED,
        )
        return math.exp(eval_functional(phi, x.log_plus) + eval_functional(phi, rest))
    lp = SpectralProfile(
        name=f"log+({x.name}+{eps:g})",
        evaluator=lambda s, _f=x.evaluator, _e=eps: math.log(y) if (y := _f(s) + _e) > 1.0 else 0.0,
        tail_at_0=BOUNDED,
    )
    lm = SpectralProfile(
        name=f"log-({x.name}+{eps:g})",
        evaluator=lambda s, _f=x.evaluator, _e=eps: 0.0 if (y := _f(1.0 - s) + _e) >= 1.0 else -math.log(y),
        tail_at_0=BOUNDED,
    )
    return math.exp(eval_functional(phi, lp) - eval_functional(phi, lm))
