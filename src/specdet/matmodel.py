"""Finite matrix models over the normalized trace tau = tr/n.

MatrixOperator wraps an immutable complex square matrix.  Its spectral data
(singular values, the hermiticity decision, and the eigenvalues when the
matrix is self-adjoint) is computed on first read and then cached, so an
operator that nothing inspects costs no decomposition and one that is read
still costs at most one of each.  Every step function the checks consume is
derived from those cached arrays, so inequalities compare numbers produced by
a single decomposition rather than by repeated, slightly different solves.
The eigenvectors are not cached: functional_calculus builds all the
functions it is given from one eigh and drops the vectors when it returns,
so an operator that is transformed before its eigenvalues are read is
decomposed once and holds no n x n basis afterwards.
A decomposition whose result leaves the float range refuses with LinAlgError.
ginibre and hermitian_gaussian draw the seeded matrices of the verify suites.

Copy policy: an operator built from a caller's array copies it, so a later
write by the caller moves neither its entries nor its spectra, and the
caller's array stays writable.  An array the library has just computed (a
loaded file, a sum, difference, scalar multiple or product, a functional
calculus result, a sampler draw) is referenced by nothing else, so its
operator keeps that array itself instead of a second copy; it is still
checked and made read-only.
"""

from __future__ import annotations

import math
from typing import Callable, Tuple

import numpy as np

from .stepfn import MonotoneStepFn

__all__ = [
    "MatrixOperator",
    "ginibre",
    "hermitian_gaussian",
    "haar_unitary",
    "identity",
    "mu_matrix",
    "lambda_matrix",
    "functional_calculus",
    "op_exp",
    "pos_part",
    "neg_part",
    "save_matrix",
    "load_matrix",
]

# Relative hermiticity tolerance, with an absolute floor so the zero matrix
# is admitted.  Matrices that miss the tolerance are rejected, never
# symmetrized.
HERMITICITY_RTOL = 1e-12
_HERMITICITY_FLOOR = 1e-300


def _require_finite(result: np.ndarray, what: str) -> None:
    """Refuse a decomposition of finite entries that left the float range."""
    if not np.all(np.isfinite(result)):
        raise np.linalg.LinAlgError(f"the {what} of the matrix overflow the float range")


class MatrixOperator:
    """Immutable n x n complex matrix with lazily computed, cached spectral data.

    Construction only validates the entries.  singular_values (nonincreasing)
    come from one SVD on first read.  eigenvalues (nonincreasing) come from
    one eigh on first read and exist exactly when the matrix passes the
    hermiticity test max|A - A*| <= 1e-12 * ||A|| (floor 1e-300); an exactly
    hermitian matrix passes without the SVD.  The eigenvectors of that eigh
    are returned to its caller and not kept.

    The entries are copied into a read-only complex128 array, so the caller
    may go on writing to the array it passed.  The library passes _owned=True
    for an array it has just built and shares with no one: that array is
    checked the same way and made read-only, but not copied.
    """

    __slots__ = ("_a", "_svals", "_eigs", "_self_adjoint")

    def __init__(self, entries, *, _owned=False):
        if _owned:
            a = np.asarray(entries, dtype=np.complex128)
        else:
            a = np.array(entries, dtype=np.complex128)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
            raise ValueError("entries must form a nonempty square matrix")
        # the raveled float view is every real and imaginary part, read in
        # one pass
        if not np.isfinite(a.ravel("K").view(np.float64)).all():
            raise ValueError("entries must be finite")
        a.setflags(write=False)
        self._a = a
        self._svals = None
        self._self_adjoint = None
        self._eigs = None

    def _svd(self) -> np.ndarray:
        if self._svals is None:
            sv = np.linalg.svd(self._a, compute_uv=False)
            _require_finite(sv, "singular values")
            sv.setflags(write=False)
            self._svals = sv
        return self._svals

    def _eigh(self) -> Tuple[np.ndarray, np.ndarray]:
        """Run one eigh: the cached eigenvalues and a fresh, writable basis.

        The basis belongs to the caller and is not kept.  The eigenvalues of
        the first run are cached; a later run returns them, not its own.
        """
        if not self.self_adjoint:
            raise ValueError("matrix is not self-adjoint at the hermiticity tolerance")
        w, v = np.linalg.eigh(self._a)
        _require_finite(w, "eigenvalues")
        _require_finite(v, "eigenvectors")
        w = w[::-1].copy()
        v = v[:, ::-1].copy()
        if self._eigs is None:
            w.setflags(write=False)
            self._eigs = w
        return self._eigs, v

    @property
    def entries(self) -> np.ndarray:
        return self._a

    @property
    def self_adjoint(self) -> bool:
        if self._self_adjoint is None:
            a = self._a
            dev = float(np.max(np.abs(a - a.conj().T)))
            # the tolerance has a positive floor, so dev == 0 needs no SVD
            self._self_adjoint = dev == 0.0 or dev <= max(
                _HERMITICITY_FLOOR, HERMITICITY_RTOL * float(self._svd()[0]))
        return self._self_adjoint

    @property
    def singular_values(self) -> np.ndarray:
        return self._svd()

    @property
    def eigenvalues(self) -> np.ndarray:
        if self._eigs is None:
            self._eigh()
        return self._eigs

    @property
    def norm(self) -> float:
        return float(self._svd()[0])

    @property
    def tau(self) -> float:
        """Normalized trace tr/n (real part; exact for self-adjoint input)."""
        return float(np.trace(self._a).real) / self._a.shape[0]

    def matmul(self, other: "MatrixOperator") -> "MatrixOperator":
        return MatrixOperator(self._a @ other._a, _owned=True)

    def __add__(self, other):
        if isinstance(other, MatrixOperator):
            return MatrixOperator(self._a + other._a, _owned=True)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, MatrixOperator):
            return MatrixOperator(self._a - other._a, _owned=True)
        return NotImplemented

    def __neg__(self):
        return MatrixOperator(-self._a, _owned=True)

    def __mul__(self, c):
        if isinstance(c, (int, float)):
            return MatrixOperator(self._a * float(c), _owned=True)
        return NotImplemented

    __rmul__ = __mul__

    def __repr__(self):
        sa = "self-adjoint" if self.self_adjoint else "general"
        return f"MatrixOperator(n={self._a.shape[0]}, {sa})"


def identity(n: int) -> MatrixOperator:
    return MatrixOperator(np.eye(n, dtype=np.complex128), _owned=True)


# ---- step functions from cached spectral data ----

def mu_matrix(a: MatrixOperator) -> MonotoneStepFn:
    """Singular value function: the singular values as a right-continuous step function."""
    return MonotoneStepFn(a.singular_values)


def lambda_matrix(a: MatrixOperator) -> MonotoneStepFn:
    """Eigenvalue function of a self-adjoint matrix (eigenvalues, nonincreasing)."""
    return MonotoneStepFn(a.eigenvalues)


# ---- functional calculus ----

def functional_calculus(a: MatrixOperator,
                        *fns: Callable[[np.ndarray], np.ndarray]) -> Tuple[MatrixOperator, ...]:
    """Apply real functions to a self-adjoint matrix, all from one eigh.

    Returns one operator per function, in order.  The eigenvectors live only
    for this call, so a caller that wants several functions of one matrix
    passes them together: a second call decomposes the matrix again.
    """
    w, v = a._eigh()
    scaled = [v * np.asarray(fn(w), dtype=float) for fn in fns]
    # the basis is this call's own, so V* is formed in place; v.T then has
    # the values and the layout of a fresh v.conj().T, and each product
    # below is bitwise the one of (v * f(w)) @ v.conj().T
    np.conjugate(v, out=v)
    out = []
    while scaled:
        # each v * f(w) is dropped once its product is formed
        out.append(MatrixOperator(scaled.pop(0) @ v.T, _owned=True))
    return tuple(out)


def _positive(w: np.ndarray) -> np.ndarray:
    return np.clip(w, 0.0, None)


def _negative(w: np.ndarray) -> np.ndarray:
    return np.clip(-w, 0.0, None)


def op_exp(a: MatrixOperator) -> MatrixOperator:
    return functional_calculus(a, np.exp)[0]


def pos_part(a: MatrixOperator) -> MatrixOperator:
    return functional_calculus(a, _positive)[0]


def neg_part(a: MatrixOperator) -> MatrixOperator:
    return functional_calculus(a, _negative)[0]


# ---- seeded samplers ----

def _ginibre(rng: np.random.Generator, n: int, scale: float) -> np.ndarray:
    # (re + 1j * im) * c built in one array: IEEE addition commutes, so the
    # bits are those of that expression
    re = rng.standard_normal((n, n))
    g = 1j * rng.standard_normal((n, n))
    g += re
    g *= scale / math.sqrt(2.0 * n)
    return g


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: QR of a draw of ginibre's recipe, phase-corrected."""
    g = _ginibre(rng, n, 1.0)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def ginibre(seed: int, n: int) -> MatrixOperator:
    """Ginibre matrix of size n, complex Gaussian entries of variance 1/n."""
    return MatrixOperator(_ginibre(np.random.default_rng(seed), n, 1.0), _owned=True)


def hermitian_gaussian(seed: int, n: int) -> MatrixOperator:
    """(g + g*)/2 for a Ginibre g of entry variance 2/n: exactly hermitian."""
    g = _ginibre(np.random.default_rng(seed), n, math.sqrt(2.0))
    h = g + g.conj().T
    h /= 2.0
    return MatrixOperator(h, _owned=True)


# ---- plain-text persistence ----

def save_matrix(a: MatrixOperator, path: str) -> None:
    """Write: first line n, then n rows of n "re,im" pairs, row-major, 17 significant digits."""
    entries = a.entries
    rows = [str(entries.shape[0])]
    rows.extend(" ".join(f"{z.real:.17g},{z.imag:.17g}" for z in row) for row in entries)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(rows) + "\n")


def load_matrix(path: str) -> MatrixOperator:
    """Read a matrix file in the save_matrix format, in any whitespace layout.

    The file is streamed line by line: the first token is n >= 1, every later
    token one re,im pair.  Each line's pairs go through one float64
    conversion (the same correctly rounded parse as float()), and the buffer
    grows with the entries actually read, never with the header's n.
    """
    n = total = None
    count = 0
    chunks = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            toks = line.split()
            if n is None and toks:
                try:
                    n = int(toks[0])
                except ValueError:
                    raise ValueError(f"{path}: first token must be the dimension") from None
                if n < 1:
                    raise ValueError(f"{path}: dimension must be at least 1, got {n}")
                total = n * n
                toks = toks[1:]
            if not toks:
                continue
            for k, tok in enumerate(toks):
                if tok.count(",") != 1:
                    raise ValueError(f"{path}: entry {count + k} is not a re,im pair: {tok!r}")
            if count + len(toks) > total:
                raise ValueError(f"{path}: expected {total} entries, found more")
            try:
                chunks.append(np.array(",".join(toks).split(","), dtype=np.float64))
            except ValueError as exc:
                raise ValueError(
                    f"{path}: entries {count}..{count + len(toks) - 1}: {exc}"
                ) from None
            count += len(toks)
    if n is None:
        raise ValueError(f"{path}: empty matrix file")
    if count != total:
        raise ValueError(f"{path}: expected {total} entries, found {count}")
    # the (re, im) float pairs are complex128 in memory; re + 1j*im would
    # turn a -0.0 real part into +0.0
    return MatrixOperator(np.concatenate(chunks).view(np.complex128).reshape(n, n), _owned=True)
