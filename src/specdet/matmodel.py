"""Finite matrix models over the normalized trace tau = tr/n.

MatrixOperator wraps an immutable complex square matrix.  Its spectral data
(singular values, the hermiticity decision, and the eigensystem when the
matrix is self-adjoint) is computed on first read and then cached, so an
operator that nothing inspects costs no decomposition and one that is read
still costs at most one of each.  Every step function the checks consume is
derived from those cached arrays, so inequalities compare numbers produced by
a single decomposition rather than by repeated, slightly different solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .stepfn import GridFn, MonotoneStepFn

__all__ = [
    "MatrixOperator",
    "EnsembleSpec",
    "ENSEMBLE_KINDS",
    "sample",
    "haar_unitary",
    "identity",
    "mu_matrix",
    "lambda_matrix",
    "mu_pos_part",
    "mu_neg_part",
    "functional_calculus",
    "op_exp",
    "op_log",
    "pos_part",
    "neg_part",
    "spectral_projection",
    "abs_spectral_projection",
    "polar_abs",
    "truncate_at_level",
    "fk_det",
    "fk_det_eps",
    "save_matrix",
    "load_matrix",
]

# Relative hermiticity tolerance, with an absolute floor so the zero matrix
# is admitted.  Matrices that miss the tolerance are rejected, never
# symmetrized.
HERMITICITY_RTOL = 1e-12
_HERMITICITY_FLOOR = 1e-300

ENSEMBLE_KINDS = (
    "iid-complex-gaussian",
    "hermitian-gaussian",
    "diagonal-with-prescribed-spectrum",
    "haar-unitary-conjugate",
)


class MatrixOperator:
    """Immutable n x n complex matrix with lazily computed, cached spectral data.

    Construction only validates the entries.  singular_values (nonincreasing)
    come from one SVD on first read.  eigenvalues (nonincreasing) and the
    matching eigenvector basis come from one eigh on first read and exist
    exactly when the matrix passes the hermiticity test
    max|A - A*| <= 1e-12 * ||A|| (floor 1e-300); an exactly hermitian matrix
    passes without the SVD.
    """

    __slots__ = ("_a", "_n", "_svals", "_eigs", "_eigvecs", "_self_adjoint")

    def __init__(self, entries):
        a = np.array(entries, dtype=np.complex128)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
            raise ValueError("entries must form a nonempty square matrix")
        if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
            raise ValueError("entries must be finite")
        a.setflags(write=False)
        self._a = a
        self._n = a.shape[0]
        self._svals = None
        self._self_adjoint = None
        self._eigs = None
        self._eigvecs = None

    def _svd(self) -> np.ndarray:
        if self._svals is None:
            sv = np.linalg.svd(self._a, compute_uv=False)
            sv.setflags(write=False)
            self._svals = sv
        return self._svals

    def _eigh(self) -> Tuple[np.ndarray, np.ndarray]:
        if self._eigs is None:
            if not self.self_adjoint:
                raise ValueError("matrix is not self-adjoint at the hermiticity tolerance")
            w, v = np.linalg.eigh(self._a)
            w = w[::-1].copy()
            v = v[:, ::-1].copy()
            w.setflags(write=False)
            v.setflags(write=False)
            # eigenvalues last: a reader that sees them also sees their vectors
            self._eigvecs = v
            self._eigs = w
        return self._eigs, self._eigvecs

    @property
    def n(self) -> int:
        return self._n

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
        return self._eigh()[0]

    @property
    def norm(self) -> float:
        return float(self._svd()[0])

    @property
    def tau(self) -> float:
        """Normalized trace tr/n (real part; exact for self-adjoint input)."""
        return float(np.trace(self._a).real) / self._n

    def matmul(self, other: "MatrixOperator") -> "MatrixOperator":
        return MatrixOperator(self._a @ other._a)

    def __add__(self, other):
        if isinstance(other, MatrixOperator):
            return MatrixOperator(self._a + other._a)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, MatrixOperator):
            return MatrixOperator(self._a - other._a)
        return NotImplemented

    def __neg__(self):
        return MatrixOperator(-self._a)

    def __mul__(self, c):
        if isinstance(c, (int, float)):
            return MatrixOperator(self._a * float(c))
        return NotImplemented

    __rmul__ = __mul__

    def __repr__(self):
        sa = "self-adjoint" if self.self_adjoint else "general"
        return f"MatrixOperator(n={self._n}, {sa})"


def identity(n: int) -> MatrixOperator:
    return MatrixOperator(np.eye(n, dtype=np.complex128))


# ---- step functions from cached spectral data ----

def mu_matrix(a: MatrixOperator) -> MonotoneStepFn:
    """Singular value function: the singular values as a right-continuous step function."""
    return MonotoneStepFn(a.singular_values)


def lambda_matrix(a: MatrixOperator) -> MonotoneStepFn:
    """Eigenvalue function of a self-adjoint matrix (eigenvalues, nonincreasing)."""
    return MonotoneStepFn(a.eigenvalues)


def mu_pos_part(a: MatrixOperator) -> MonotoneStepFn:
    """mu of the positive part, taken from the cached eigenvalues of `a` itself."""
    w = a.eigenvalues
    return MonotoneStepFn(np.clip(w, 0.0, None))


def mu_neg_part(a: MatrixOperator) -> MonotoneStepFn:
    """mu of the negative part, taken from the cached eigenvalues of `a` itself."""
    w = a.eigenvalues
    return MonotoneStepFn(np.clip(-w, 0.0, None)[::-1])


# ---- functional calculus ----

def functional_calculus(a: MatrixOperator, fn: Callable[[np.ndarray], np.ndarray]) -> MatrixOperator:
    """Apply a real function to a self-adjoint matrix through its eigensystem."""
    w, v = a._eigh()
    fw = np.asarray(fn(w), dtype=float)
    return MatrixOperator((v * fw) @ v.conj().T)


def op_exp(a: MatrixOperator) -> MatrixOperator:
    return functional_calculus(a, np.exp)


def op_log(a: MatrixOperator) -> MatrixOperator:
    w = a.eigenvalues
    if float(w[-1]) <= 0.0:
        raise ValueError("log requires a strictly positive matrix")
    return functional_calculus(a, np.log)


def pos_part(a: MatrixOperator) -> MatrixOperator:
    return functional_calculus(a, lambda w: np.clip(w, 0.0, None))


def neg_part(a: MatrixOperator) -> MatrixOperator:
    return functional_calculus(a, lambda w: np.clip(-w, 0.0, None))


def spectral_projection(a: MatrixOperator, lo: float, hi: float) -> MatrixOperator:
    """Spectral projection 1_[lo, hi](a) for self-adjoint a."""
    return functional_calculus(a, lambda w: ((w >= lo) & (w <= hi)).astype(float))


def abs_spectral_projection(a: MatrixOperator, c: float) -> MatrixOperator:
    """1_[0, c](|a|) for self-adjoint a, via the indicator of |eigenvalue| <= c."""
    return functional_calculus(a, lambda w: (np.abs(w) <= c).astype(float))


def polar_abs(a: MatrixOperator) -> MatrixOperator:
    """|a| = (a* a)^(1/2) assembled from the singular value decomposition."""
    _, s, vh = np.linalg.svd(a.entries)
    return MatrixOperator((vh.conj().T * s) @ vh)


def truncate_at_level(a: MatrixOperator, c: float) -> MatrixOperator:
    """min(a+, c) - min(a-, c), i.e. the spectrum clipped to [-c, c]."""
    c = float(c)
    if c < 0.0:
        raise ValueError("truncation level must be nonnegative")
    return functional_calculus(a, lambda w: np.clip(w, -c, c))


# ---- determinants ----

def fk_det(a: MatrixOperator) -> float:
    """(prod sigma_k)^(1/n), computed as exp(mean log sigma); 0 when singular."""
    s = a.singular_values
    if float(s[-1]) == 0.0:
        return 0.0
    return math.exp(math.fsum(np.log(s)) / a.n)


def fk_det_eps(a: MatrixOperator, eps: float) -> float:
    """exp(tau(log(|a| + eps))) = (prod (sigma_k + eps))^(1/n), eps > 0."""
    eps = float(eps)
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    return math.exp(math.fsum(np.log(a.singular_values + eps)) / a.n)


# ---- ensembles ----

@dataclass(frozen=True)
class EnsembleSpec:
    """Deterministic recipe for one random matrix.

    kind: one of ENSEMBLE_KINDS.  spectrum is required by the diagonal and
    haar-unitary-conjugate kinds and must have length n.  Sampling the same
    spec twice yields bitwise identical matrices.
    """

    kind: str
    n: int
    scale: float = 1.0
    seed: int = 0
    spectrum: Optional[Tuple[float, ...]] = None

    def __post_init__(self):
        if self.kind not in ENSEMBLE_KINDS:
            raise ValueError(f"unknown ensemble kind {self.kind!r}; choose from {ENSEMBLE_KINDS}")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise ValueError("scale must be positive and finite")
        if self.kind in ("diagonal-with-prescribed-spectrum", "haar-unitary-conjugate"):
            if self.spectrum is None:
                raise ValueError(f"{self.kind} requires a prescribed spectrum")
            if len(self.spectrum) != self.n:
                raise ValueError("spectrum length must equal n")
            object.__setattr__(self, "spectrum", tuple(float(x) for x in self.spectrum))


def _ginibre(rng: np.random.Generator, n: int, scale: float) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return g * (scale / math.sqrt(2.0 * n))


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: QR of a Ginibre draw with phase correction."""
    g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def sample(spec: EnsembleSpec) -> MatrixOperator:
    """Draw the matrix described by spec (seeded, deterministic)."""
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "iid-complex-gaussian":
        return MatrixOperator(_ginibre(rng, spec.n, spec.scale))
    if spec.kind == "hermitian-gaussian":
        g = _ginibre(rng, spec.n, spec.scale * math.sqrt(2.0))
        return MatrixOperator((g + g.conj().T) / 2.0)
    if spec.kind == "diagonal-with-prescribed-spectrum":
        return MatrixOperator(np.diag(np.asarray(spec.spectrum, dtype=float)).astype(np.complex128))
    if spec.kind == "haar-unitary-conjugate":
        u = haar_unitary(spec.n, rng)
        d = np.asarray(spec.spectrum, dtype=float)
        return MatrixOperator((u * d) @ u.conj().T)
    raise AssertionError("unreachable")


# ---- plain-text persistence ----

def save_matrix(a: MatrixOperator, path: str) -> None:
    """Write: first line n, then n rows of n "re,im" pairs, row-major, 17 significant digits."""
    rows = [str(a.n)]
    for i in range(a.n):
        rows.append(" ".join(f"{z.real:.17g},{z.imag:.17g}" for z in a.entries[i]))
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
    return MatrixOperator(np.concatenate(chunks).view(np.complex128).reshape(n, n))
