"""Reference implementations that the fast step-function paths must match bit for bit.

``integrate_reference`` is the per-cell loop that ``stepfn.integrate`` used
before it cached its full-cell terms, and ``values_at_reference`` is the
per-point ``GridFn.__call__`` path that ``GridFn.values_at`` batches.
``rows_reference`` builds check rows one scalar ``_ok`` at a time, the way
the suites did before they computed margins over arrays.
"""

import math

import numpy as np

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


def values_at_reference(f, ts):
    return np.array([f(t) for t in ts], dtype=float)


def rows_reference(name, seed, trial, n, tol, ts, quantities, bounds):
    rows = []
    for t, q, b in zip(ts, quantities, bounds):
        margin, ok = _ok(float(q), float(b), tol)
        rows.append(CheckRow(name, seed, trial, n, float(t), float(q), float(b), margin, ok))
    return rows
