"""Reference implementations that the fast step-function paths must match bit for bit.

``integrate_reference`` is the per-cell loop that ``stepfn.integrate`` used
before it took its full-cell terms from one array product; run pair by pair,
it is also the reference for ``stepfn.integrals``.  ``values_at_reference`` is the
per-point snap rule, on either side of a node, that ``GridFn.values_at``
(and through it ``GridFn.__call__``) applies to a whole array.
``rows_reference`` builds check rows one scalar ``_ok`` at a time, the way
the suites did before they computed margins over arrays.
``signed_eval_reference`` is the clip, rearrange and subtract formula that
evaluated a trace on a signed grid before ``stepfn.signed_parts`` existed,
with each part sorted by Python's own ``sorted`` rather than by stepfn,
and ``mu_pos_part_reference`` / ``mu_neg_part_reference`` are the parts of
an eigenvalue function as they were once read off the cached eigenvalues.
"""

import math

import numpy as np

from specdet import traces
from specdet.stepfn import _SNAP, MonotoneStepFn
from specdet.verify import CheckRow, _ok


def integrate_reference(f, a, b):
    a = float(a)
    b = float(b)
    if not (0.0 <= a <= b <= 1.0):
        raise ValueError(f"integration bounds ({a}, {b}) must satisfy 0 <= a <= b <= 1")
    if a == b:
        return 0.0
    n = f.n_cells
    v = f.values
    k0 = max(int(math.floor(a * n)), 0)
    k1 = min(int(math.ceil(b * n)), n)
    terms = []
    for k in range(k0, k1):
        lo = a if a > k / n else k / n
        hi = b if b < (k + 1) / n else (k + 1) / n
        if hi > lo:
            terms.append(v[k] * (hi - lo))
    return math.fsum(terms)


def values_at_reference(f, ts, left=False):
    out = []
    for t in ts:
        t = float(t)
        if not 0.0 < t < 1.0:
            raise ValueError(f"evaluation point {t} outside (0, 1)")
        n = f.n_cells
        x = t * n
        k = round(x)
        if abs(x - k) <= _SNAP and 1 <= k <= n - 1:
            idx = k - 1 if left else k
        else:
            idx = min(int(math.floor(x)), n - 1)
        out.append(float(f.values[idx]))
    return np.array(out, dtype=float)


def rows_reference(name, seed, trial, n, tol, ts, quantities, bounds):
    rows = []
    for t, q, b in zip(ts, quantities, bounds):
        margin, ok = _ok(float(q), float(b), tol)
        rows.append(CheckRow(name, seed, trial, n, float(t), float(q), float(b), margin, ok))
    return rows


def _rearranged_part(values):
    """max(x, 0) for each x, as +0.0 where x <= 0, sorted nonincreasingly."""
    return MonotoneStepFn(sorted((x if x > 0.0 else 0.0 for x in values), reverse=True))


def signed_eval_reference(phi, f):
    v = f.values.tolist()
    pos = _rearranged_part(v)
    neg = _rearranged_part([-x for x in v])
    return traces._eval_nonincreasing(phi, pos) - traces._eval_nonincreasing(phi, neg)


def mu_pos_part_reference(a):
    return MonotoneStepFn(np.clip(a.eigenvalues, 0.0, None))


def mu_neg_part_reference(a):
    return MonotoneStepFn(np.clip(-a.eigenvalues, 0.0, None)[::-1])
