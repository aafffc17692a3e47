"""Exact calculus of step functions on the open unit interval.

Everything downstream (singular value functions, eigenvalue functions,
averaging transforms) is a piecewise-constant function on a uniform grid of
``n`` cells ``((k-1)/n, k/n)``.  Integrals of such functions are finite sums
and are computed exactly (compensated with ``math.fsum``), which is what lets
the verification checks assert cancellations at the 1e-10 level instead of
chasing quadrature error.  Each ``integrals`` call computes the grid's
full-cell terms ``values[k] * ((k+1)/n - k/n)`` once and shares them among its
intervals.  Queries come in batches: ``values_at`` evaluates a grid at
many points, ``integrals`` integrates it over many intervals and
``psi_values`` gives the averaging transform at many points, each in one
call; ``integrate`` and ``psi_eval`` are their one-element cases.

Grids are right-continuous, like the singular value function mu(t; T):
at an interior node a query returns the value of the cell to its right.
``values_at(ts, left=True)`` gives the left limit there instead.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "GridFn",
    "MonotoneStepFn",
    "signed_parts",
    "integrals",
    "integrate",
    "psi_values",
    "psi_eval",
    "dilate2",
]

# Refinement guard: binary operations resample to the least common multiple of
# the two grids, which is exact but must stay bounded.
_MAX_CELLS = 1 << 20

# Boundary snap tolerance in units of one cell width.  Evaluation points that
# land within this distance of an interior grid node are treated as sitting on
# the node, so the one-sided limit is taken there.
_SNAP = 1e-9


class GridFn:
    """Real step function on (0, 1) over ``n_cells`` equal cells.

    The value on the open cell ``((k-1)/n, k/n)`` is ``values[k-1]``.  The
    function is right-continuous: at an interior node ``k/n`` it takes the
    next cell's value, ``values[k]``, and ``values_at(ts, left=True)`` reads
    the left limit ``values[k-1]``.  Instances are immutable.  Sums and
    differences are between grids, on their least common refinement; a
    number enters only as ``c - f``.
    """

    __slots__ = ("_values",)

    def __init__(self, values):
        arr = np.array(values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("values must be a nonempty one dimensional array")
        if arr.size > _MAX_CELLS:
            raise ValueError(f"grid of {arr.size} cells exceeds the {_MAX_CELLS} cell cap")
        if not np.all(np.isfinite(arr)):
            raise ValueError("cell values must be finite")
        arr.setflags(write=False)
        self._values = arr

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def n_cells(self) -> int:
        return self._values.size

    def __call__(self, t: float) -> float:
        return float(self.values_at((t,))[0])

    def values_at(self, ts, left: bool = False) -> np.ndarray:
        """The value at each point of ts.

        A point within _SNAP cell widths of an interior node sits on the
        node, where the value is the right limit, or the left one if left.
        """
        x = np.asarray(ts, dtype=float)
        inside = (x > 0.0) & (x < 1.0)
        if not np.all(inside):
            raise ValueError(f"evaluation point {x[~inside][0]} outside (0, 1)")
        n = self.n_cells
        x = x * n
        k = np.rint(x)
        idx = np.minimum(np.floor(x), n - 1)
        snapped = (np.abs(x - k) <= _SNAP) & (k >= 1) & (k <= n - 1)
        idx[snapped] = k[snapped] - 1 if left else k[snapped]
        return self._values[idx.astype(np.intp)]

    def resampled(self, m: int) -> np.ndarray:
        """Values on the refinement with m cells; m must be a multiple of n_cells."""
        n = self.n_cells
        if m % n != 0:
            raise ValueError(f"{m} is not a multiple of {n}")
        return np.repeat(self._values, m // n)

    def _binary(self, other, op):
        if not isinstance(other, GridFn):
            return NotImplemented
        m = math.lcm(self.n_cells, other.n_cells)
        if m > _MAX_CELLS:
            raise ValueError("common refinement exceeds the cell cap")
        return GridFn(op(self.resampled(m), other.resampled(m)))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __rsub__(self, other):
        if not isinstance(other, (int, float)):
            return NotImplemented
        return GridFn(float(other) - self._values)

    def __neg__(self):
        return GridFn(-self._values)

    def __repr__(self):
        return f"{type(self).__name__}(n_cells={self.n_cells})"


class MonotoneStepFn(GridFn):
    """Nonincreasing step function; the shape of singular value functions.

    Construction validates monotonicity exactly (the producers sort, so no
    tolerance is needed).
    """

    __slots__ = ()

    def __init__(self, values):
        super().__init__(values)
        v = self.values
        if v.size > 1 and not np.all(np.diff(v) <= 0.0):
            raise ValueError("values must be nonincreasing")


def signed_parts(f: GridFn) -> tuple[MonotoneStepFn, MonotoneStepFn]:
    """(f+, f-): the decreasing rearrangements of max(f, 0) and max(-f, 0).

    f = f+ - f- before rearrangement, so a linear functional that only sees
    rearranged data evaluates f as phi(f+) - phi(f-).  np.abs keeps -0.0
    out of both parts, however np.clip treats a signed zero.
    """
    v = f.values
    return tuple(MonotoneStepFn(np.sort(np.abs(np.clip(w, 0.0, None)), kind="stable")[::-1])
                 for w in (v, -v))


def integrals(f: GridFn, los, his) -> list:
    """Exact integral of f over each (a, b) of zip(los, his), 0 <= a <= b <= 1.

    Each integral is a finite sum of value*length terms, accumulated with
    math.fsum so the result is the correctly rounded value of the exact real
    sum.  The whole-cell terms are computed once per call and shared by
    every interval; only the partial cells at either end are computed per
    interval.
    The first pair out of bounds raises ValueError.
    """
    n = f.n_cells
    v = f.values
    nodes = np.arange(n + 1) / n
    cells = (v * (nodes[1:] - nodes[:-1])).tolist()
    out = []
    for a, b in zip(los, his):
        a = float(a)
        b = float(b)
        if not (0.0 <= a <= b <= 1.0):
            raise ValueError(f"integration bounds ({a}, {b}) must satisfy 0 <= a <= b <= 1")
        if a == b:
            out.append(0.0)
            continue
        k0 = max(int(math.floor(a * n)), 0)
        k1 = min(int(math.ceil(b * n)), n)
        # Cell k is whole when a <= k/n and (k+1)/n <= b; both tests are
        # monotone in k, so the whole cells are one run [w0, w1) in [k0, k1).
        w0 = k0
        while w0 < k1 and w0 / n < a:
            w0 += 1
        w1 = k1
        while w1 > w0 and w1 / n > b:
            w1 -= 1
        terms = cells[w0:w1]
        for k in (*range(k0, w0), *range(w1, k1)):
            lo = a if a > k / n else k / n
            hi = b if b < (k + 1) / n else (k + 1) / n
            if hi > lo:
                terms.append(float(v[k]) * (hi - lo))
        out.append(math.fsum(terms))
    return out


def integrate(f: GridFn, a: float, b: float) -> float:
    """Exact integral of f over (a, b), 0 <= a <= b <= 1; see integrals."""
    return integrals(f, (a,), (b,))[0]


def psi_values(f: GridFn, ts) -> list:
    """Averaging transform (Psi f)(t) = (1/t) * int_t^{1-t} f at each t of ts.

    Zero for t >= 1/2; the first t outside (0, 1] raises ValueError.
    """
    ts = [float(t) for t in ts]
    for t in ts:
        if not 0.0 < t <= 1.0:
            raise ValueError(f"transform argument {t} outside (0, 1]")
    inner = [t for t in ts if t < 0.5]
    windows = iter(integrals(f, inner, [1.0 - t for t in inner]))
    return [next(windows) / t if t < 0.5 else 0.0 for t in ts]


def psi_eval(f: GridFn, t: float) -> float:
    """Averaging transform (Psi f)(t) = (1/t) * int_t^{1-t} f, zero for t >= 1/2."""
    return psi_values(f, (t,))[0]


def dilate2(f: GridFn) -> GridFn:
    """Dilation (D2 f)(t) = f(t/2), exactly representable on the same grid."""
    n = f.n_cells
    vals = np.repeat(f.values, 2)[:n]
    return type(f)(vals)
