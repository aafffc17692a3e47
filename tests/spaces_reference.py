"""Reference implementations that the fast profile paths must match exactly.

``audit_profile_reference`` is the profile audit as it ran before it became
one pass over the grid: evaluate every point (a raised OverflowError counts
as +inf), then check the whole list three times, for nonnegative, finite and
nonincreasing values, and finally probe the declared kernel.
"""

import math

from specdet.spaces import _PROFILE_GRID, _SUPERPOWER_GRID, SUPERPOWER


def audit_values_reference(evaluator, ts):
    vals = []
    for t in ts:
        try:
            vals.append(float(evaluator(t)))
        except OverflowError:
            vals.append(math.inf)
    return vals


def audit_profile_reference(p):
    ts = _PROFILE_GRID if p.tail_at_0 != SUPERPOWER else _SUPERPOWER_GRID
    vals = audit_values_reference(p.evaluator, ts)
    if any(math.isnan(v) or v < 0.0 for v in vals):
        raise ValueError(f"profile {p.name!r} must be nonnegative on the audit grid")
    if p.tail_at_0 != SUPERPOWER and math.inf in vals:
        raise ValueError(f"profile {p.name!r} must be finite on the audit grid")
    if any(cur > prev + 1e-9 * (1.0 + prev) for prev, cur in zip(vals, vals[1:])):
        raise ValueError(f"profile {p.name!r} must be nonincreasing")
    if p.kernel_mass > 0.0:
        probe = 1.0 - 0.5 * p.kernel_mass
        if p.evaluator(probe) != 0.0:
            raise ValueError(
                f"profile {p.name!r} declares kernel_mass {p.kernel_mass} "
                f"but does not vanish at t={probe}"
            )
