"""Randomized verification suites for the step-function inequalities.

Every suite draws matrix models from seeded ensembles, evaluates one exact
inequality on a deterministic grid of evaluation points, and emits one row
per comparison: quantity, bound, margin = bound - quantity, and a pass flag
with tolerance tol * (1 + |bound|).  Seeds for each (check, trial, slot) are
derived with BLAKE2b so results are bit-stable across processes and across
thread counts; rows are assembled in a fixed order regardless of execution
order.  ``CheckRow`` is a NamedTuple, so a row is a tuple of its nine
fields.  A check integrates or transforms a grid at all of its points in one
``stepfn.integrals`` or ``stepfn.psi_values`` call.  Nothing here retries or
resamples on failure: a violated bound stays in the report.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from dataclasses import asdict, dataclass, field
from itertools import repeat
from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from .stepfn import (
    GridFn,
    dilate2,
    integrals,
    psi_values,
    signed_parts,
)
from .matmodel import (
    MatrixOperator,
    _ginibre,
    _negative,
    _positive,
    functional_calculus,
    ginibre,
    hermitian_gaussian,
    lambda_matrix,
    mu_matrix,
    op_exp,
)

__all__ = [
    "CheckRow",
    "CheckReport",
    "SuiteConfig",
    "SuiteResult",
    "SUITE_NAMES",
    "DEFAULT_TOLERANCES",
    "run_check",
    "run_suite",
    "rows_to_csv",
    "result_to_json",
]

_DEFAULT_TOL = 1e-8
# Exact-cancellation checks run at a tighter tolerance.
DEFAULT_TOLERANCES: Dict[str, float] = {
    "majorization": 1e-10,
    "split-psi-vanishing": 1e-10,
}

# Guard around support-projection thresholds so grid points sitting exactly
# on a derived cutoff are never claimed by the exact-zero regime.
_CUTOFF_GUARD = 1e-12


class CheckRow(NamedTuple):
    check_name: str
    seed: int
    trial: int
    n: int
    t: float
    quantity: float
    bound: float
    margin: float
    ok: bool


@dataclass
class CheckReport:
    trials: int
    worst_margin: float
    violations: int
    passed: bool
    runtime_ms: float
    rows: List[CheckRow] = field(default_factory=list)


@dataclass(frozen=True)
class SuiteConfig:
    suites: Tuple[str, ...]
    n: int = 64
    trials: int = 100
    seed: int = 42
    tol_overrides: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        for key, tol in self.tol_overrides.items():
            if key not in SUITE_NAMES and key != "default":
                raise ValueError(
                    f"unknown tolerance target {key!r}; suites: {', '.join(SUITE_NAMES)}"
                )
            # NaN fails every row and +inf passes every row, whatever the margins
            if math.isnan(tol) or tol == math.inf:
                raise ValueError(f"tolerance for {key!r} is {'NaN' if math.isnan(tol) else '+inf'}")
        if not 2 <= self.n <= 512:
            raise ValueError("n must lie in [2, 512]")
        if self.trials < 0:
            raise ValueError("trials must be nonnegative")
        menu = ", ".join(SUITE_NAMES)
        if not self.suites:
            raise ValueError(f"no suite given; choose from {menu}")
        for i, name in enumerate(self.suites):
            if name not in SUITE_NAMES:
                raise ValueError(f"unknown suite {name!r}; choose from {menu}")
            if name in self.suites[:i]:
                raise ValueError(f"suite {name!r} is given more than once")

    def tolerance(self, check: str) -> float:
        if check in self.tol_overrides:
            return self.tol_overrides[check]
        if "default" in self.tol_overrides:
            return self.tol_overrides["default"]
        return DEFAULT_TOLERANCES.get(check, _DEFAULT_TOL)


@dataclass
class SuiteResult:
    config: SuiteConfig
    reports: Dict[str, CheckReport]
    # whole run_suite wall time; each report's runtime_ms sums per-job time
    wall_ms: float

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports.values())

    @property
    def rows(self) -> List[CheckRow]:
        out: List[CheckRow] = []
        for name in self.config.suites:
            out.extend(self.reports[name].rows)
        return out


# ---- sampling ----

def _trial_seed(master: int, check: str, trial: int, slot: str) -> int:
    digest = hashlib.blake2b(
        f"{master}:{check}:{trial}:{slot}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def _psd(seed: int, n: int) -> MatrixOperator:
    g = _ginibre(np.random.default_rng(seed), n, 1.0)
    w = g @ g.conj().T
    h = w + w.conj().T
    h /= 2.0
    return MatrixOperator(h, _owned=True)


def _ok(quantity, bound, tol: float):
    """Margin and pass flag; elementwise when quantity and bound are arrays."""
    margin = bound - quantity
    return margin, margin >= -tol * (1.0 + abs(bound))


def _rows(name, seed, trial, n, tol, ts, quantities, bounds) -> List[CheckRow]:
    """One row per point, with margins and flags computed over whole arrays.

    ``tolist`` hands the rows Python floats and bools, whose ``repr`` the CSV
    relies on.
    """
    q = np.asarray(quantities, dtype=float)
    b = np.asarray(bounds, dtype=float)
    margin, ok = _ok(q, b, tol)
    return list(map(CheckRow._make, zip(
        repeat(name), repeat(seed), repeat(trial), repeat(n),
        np.asarray(ts, dtype=float).tolist(), q.tolist(), b.tolist(),
        margin.tolist(), ok.tolist())))


def _boundary_ts(n: int, frac: float) -> List[float]:
    return [k / n for k in range(1, n + 1) if k / n < frac]


def _midpoint_ts(n: int, frac: float) -> List[float]:
    return [(k - 0.5) / n for k in range(1, n + 1) if (k - 0.5) / n < frac]


def _half_grid(n: int) -> List[float]:
    """Cell boundaries, then cell midpoints, below 1/2."""
    return _boundary_ts(n, 0.5) + _midpoint_ts(n, 0.5)


# ---- the checks ----

def _check_product_log_integral(n, t_op, s_op):
    """|int_{2t}^{1-2t} (log mu(e^T e^S) - lam T - lam S)| <= 8t(mu(t,T)+mu(t,S)), t < 1/4."""
    prod = op_exp(t_op).matmul(op_exp(s_op))
    g = GridFn(np.log(prod.singular_values)) - lambda_matrix(t_op) - lambda_matrix(s_op)
    mu_t, mu_s = mu_matrix(t_op), mu_matrix(s_op)
    ts = [k / (2 * n) for k in range(1, n // 2)] or [0.125]
    q = np.abs(integrals(g, [2 * t for t in ts], [1.0 - 2 * t for t in ts]))
    return ts, q, 8.0 * np.array(ts) * (mu_t.values_at(ts) + mu_s.values_at(ts))


def _check_product_log_pointwise(n, t_op, s_op):
    """Two-sided pointwise bound on log mu(u, e^T e^S) for every u in (0,1).

    Upper: mu(u/2,T) + mu(u/2,S); lower: -mu~((1-u)/2,T) - mu~((1-u)/2,S),
    where mu~ is the left limit of mu.  Both read the dilations D2 mu of
    stepfn.dilate2, (D2 mu)(u) = mu(u/2), at u and (left limit) at 1-u.  Both
    are emitted as rows with margin = bound - quantity, the lower side negated.
    """
    prod = op_exp(t_op).matmul(op_exp(s_op))
    logmu = GridFn(np.log(prod.singular_values))
    d_t, d_s = dilate2(mu_matrix(t_op)), dilate2(mu_matrix(s_op))
    us = np.array(_midpoint_ts(n, 1.0) + _boundary_ts(n, 1.0))
    q_hi = logmu.values_at(us)
    b_hi = d_t.values_at(us) + d_s.values_at(us)
    vs = 1.0 - us
    b_lo = d_t.values_at(vs, left=True) + d_s.values_at(vs, left=True)
    # each u gives its upper row, then its lower row
    return (np.repeat(us, 2), np.column_stack((q_hi, -q_hi)).ravel(),
            np.column_stack((b_hi, b_lo)).ravel())


def _check_majorization(n, t_op, s_op):
    """int_0^t mu(T+S) <= int_0^t (mu T + mu S) <= int_0^{2t} mu(T+S) for positive T, S."""
    mu_sum = mu_matrix(t_op + s_op)
    mu_parts = mu_matrix(t_op) + mu_matrix(s_op)
    ts = [k / n for k in range(1, n // 2 + 1)]
    zeros = [0.0] * len(ts)
    # the heads of mu_sum at ts and at 2 * ts, from one call
    heads_sum = integrals(mu_sum, zeros * 2, ts + [2 * t for t in ts])
    head_sum, head_sum_2t = heads_sum[:len(ts)], heads_sum[len(ts):]
    head_parts = integrals(mu_parts, zeros, ts)
    # each t gives the lower comparison, then the upper one
    return (np.repeat(ts, 2), np.column_stack((head_sum, head_parts)).ravel(),
            np.column_stack((head_parts, head_sum_2t)).ravel())


def _check_sum_psi_bound(n, t_op, s_op):
    """|int_t^{1-t} (mu(T+S) - mu T - mu S)| <= 4t mu(t,T+S) for positive T, S, t < 1/2."""
    mu_sum = mu_matrix(t_op + s_op)
    h = mu_sum - mu_matrix(t_op) - mu_matrix(s_op)
    ts = _half_grid(n)
    q = np.abs(integrals(h, ts, [1.0 - t for t in ts]))
    return ts, q, 4.0 * np.array(ts) * mu_sum.values_at(ts)


def _split_threshold(w: np.ndarray, n: int) -> Tuple[int, int, float]:
    """Strictly positive/negative counts and the exact-vanishing cutoff."""
    p = int(np.sum(w > 0.0))
    m = int(np.sum(w < 0.0))
    if p == 0 or m == 0:
        return p, m, 0.5
    t0 = p / n
    return p, m, min(t0, 1.0 - t0)


def _check_split_psi_vanishing(n, t_op):
    """Psi(lambda(T) - mu(T+) + mu(T-)) vanishes below the support cutoff.

    Below t* = min(t0, 1 - t0), t0 the trace of the support of T+, the value
    is an exact cancellation of shared eigenvalue floats (identically 0.0 at
    power-of-2 n); above it the function is still bounded by 2*norm/t*, which
    is emitted as a final sup row at t = 0.5.
    """
    h = _psi_tpm(t_op)
    _p, _m, t_star = _split_threshold(t_op.eigenvalues, n)
    ts = [t for t in _boundary_ts(n, 0.5) if t < t_star - _CUTOFF_GUARD]
    # the half grid opens with the boundary points in increasing order, so
    # the rows of ts are the first len(ts) of its pass
    psi = [abs(x) for x in psi_values(h, _half_grid(n))]
    b_sup = 2.0 * t_op.norm / max(t_star, 1.0 / n)
    return ts + [0.5], psi[:len(ts)] + [max(psi)], [0.0] * len(ts) + [b_sup]


def _psi_tpm(x: MatrixOperator) -> GridFn:
    lam = lambda_matrix(x)
    pos, neg = signed_parts(lam)
    return lam - pos + neg


def _check_sum_psi_composite(n, t_op, s_op):
    """|Psi(lam T + lam S - lam(T+S))(t)| <= 12 mu(t,A) + C_T + C_S + C_{T+S}.

    A = (T+S)+ + T- + S- = (T+S)- + T+ + S+ is positive; the C terms are the
    grid sups of the split combinations for each operator.  The float
    identity between the two decompositions of A is asserted as a row at
    t = 0.  Each operator's two parts come from one eigh, run before its
    eigenvalues are read, and each n x n matrix is dropped once it has been
    used.
    """
    ts_op = t_op + s_op
    ts_pos, ts_neg = functional_calculus(ts_op, _positive, _negative)
    lam_ts, psi_ts = lambda_matrix(ts_op), _psi_tpm(ts_op)
    del ts_op
    # a1 = ((T+S)+ + T-) + S- and a2 = ((T+S)- + T+) + S+: the identity row's
    # bits depend on this association order
    t_pos, t_neg = functional_calculus(t_op, _positive, _negative)
    a1 = ts_pos + t_neg
    del ts_pos, t_neg
    a2 = ts_neg + t_pos
    del ts_neg, t_pos
    s_pos, s_neg = functional_calculus(s_op, _positive, _negative)
    a1 = a1 + s_neg
    del s_neg
    a2 = a2 + s_pos
    del s_pos
    ident_gap = float(np.max(np.abs(a1.entries - a2.entries)))
    del a2
    mu_a = mu_matrix(a1)
    del a1
    g = lambda_matrix(t_op) + lambda_matrix(s_op) - lam_ts
    grid = _half_grid(n)
    c_sum = sum(
        max(map(abs, psi_values(h, grid)))
        for h in [_psi_tpm(t_op), _psi_tpm(s_op), psi_ts]
    )
    q = [abs(x) for x in psi_values(g, grid)]
    b = 12.0 * mu_a.values_at(grid) + c_sum
    return [0.0] + grid, [ident_gap] + q, np.concatenate(([0.0], b))


def _check_commutator_criterion(n, t_op):
    """|(1/r) tau(truncation of T at mu(r,T)) - Psi lambda(T)(r)| <= 2 mu(r,T).

    The truncation keeps the eigenvalues of modulus <= mu(r,T).  Rows cover
    r below the larger of the two support traces (all r < 1/2 when T is
    definite or kernel-free); hand-built kernels shrink the certified range.
    """
    w = t_op.eigenvalues
    lam = lambda_matrix(t_op)
    mu_t = mu_matrix(t_op)
    p, m, _ = _split_threshold(w, n)
    if p > 0 and m > 0:
        r_max = max(p, m) / n - _CUTOFF_GUARD
    else:
        r_max = 0.5
    rs = [r for r in _half_grid(n) if r < r_max]
    cuts = mu_t.values_at(rs)
    # the truncation at cut keeps the eigenvalues with |w| <= cut: a prefix
    # of w stably sorted by modulus, whose fsum is that of the masked w
    modulus = np.abs(w)
    order = np.argsort(modulus, kind="stable")
    kept = np.searchsorted(modulus[order], cuts, side="right").tolist()
    by_modulus = w[order].tolist()
    q = [abs(math.fsum(by_modulus[:k]) / n / r - psi)
         for r, k, psi in zip(rs, kept, psi_values(lam, rs))]
    return rs, q, 2.0 * cuts


def _check_standard_inequalities(n, a_op, b_op):
    """mu(s+t, A+B) <= mu(s,A) + mu(t,B) and mu(s+t, AB) <= mu(s,A) mu(t,B).

    Scanned over the full index range at both cell boundaries and interiors;
    one worst-margin row is emitted per inequality family.
    """
    a = a_op.singular_values
    b = b_op.singular_values
    v_sum = (a_op + b_op).singular_values
    v_prod = a_op.matmul(b_op).singular_values
    ts, q, bounds = [], [], []
    # boundary family: s = i/n, t = j/n with i, j >= 1, i + j <= n - 1 (empty
    # at n = 2); interior family: s, t at cell midpoints, s + t = (i + j + 1)/n
    for first, shift in ((1, 0), (0, 1)):
        i = np.arange(first, n)
        jj, ii = np.meshgrid(i, i)
        mask = (ii + jj + shift) <= n - 1
        ii, jj = ii[mask], jj[mask]
        kk = ii + jj + shift
        for lhs, rhs in ((v_sum[kk], a[ii] + b[jj]), (v_prod[kk], a[ii] * b[jj])):
            if kk.size:
                worst = int(np.argmin(rhs - lhs))
                ts.append(kk[worst] / n)
                q.append(lhs[worst])
                bounds.append(rhs[worst])
    return ts, q, bounds


def _check_log_closure(n, a_op, b_op):
    """log(1 + mu(A+B)) and log(1 + mu(AB)) <= log(1 + D2 mu A) + log(1 + D2 mu B).

    Cellwise on the model grid; D2 f(t) = f(t/2) is the exact two-fold
    dilation of stepfn.dilate2.
    """
    da = dilate2(mu_matrix(a_op)).values
    db = dilate2(mu_matrix(b_op)).values
    bound_cells = np.log1p(da) + np.log1p(db)
    v_sum = np.log1p((a_op + b_op).singular_values)
    v_prod = np.log1p(a_op.matmul(b_op).singular_values)
    # each cell gives its sum row, then its product row
    return (np.repeat((np.arange(n) + 0.5) / n, 2),
            np.column_stack((v_sum, v_prod)).ravel(), np.repeat(bound_cells, 2))


# name -> (check, sampler, slots): run_check draws one operator per slot, in
# slot order, and the check returns (points, quantities, bounds), one per row
_CHECKS: Dict[str, Tuple[Callable, Callable[[int, int], MatrixOperator], str]] = {
    "product-log-integral": (_check_product_log_integral, hermitian_gaussian, "AB"),
    "product-log-pointwise": (_check_product_log_pointwise, hermitian_gaussian, "AB"),
    "majorization": (_check_majorization, _psd, "AB"),
    "sum-psi-bound": (_check_sum_psi_bound, _psd, "AB"),
    "split-psi-vanishing": (_check_split_psi_vanishing, hermitian_gaussian, "A"),
    "sum-psi-composite": (_check_sum_psi_composite, hermitian_gaussian, "AB"),
    "commutator-criterion": (_check_commutator_criterion, hermitian_gaussian, "A"),
    "standard-inequalities": (_check_standard_inequalities, ginibre, "AB"),
    "log-closure": (_check_log_closure, ginibre, "AB"),
}

SUITE_NAMES = tuple(_CHECKS)


def run_check(name: str, n: int, master_seed: int, trial: int, tol: float) -> List[CheckRow]:
    """The rows of one trial of one check; each row carries the slot-A seed."""
    if name not in _CHECKS:
        raise ValueError(f"unknown check {name!r}; choose from {SUITE_NAMES}")
    check, sampler, slots = _CHECKS[name]
    seeds = [_trial_seed(master_seed, name, trial, slot) for slot in slots]
    ts, quantities, bounds = check(n, *(sampler(seed, n) for seed in seeds))
    return _rows(name, seeds[0], trial, n, tol, ts, quantities, bounds)


def _thread_count() -> int:
    """Worker threads from ``SPECDET_THREADS`` (default 1); ValueError unless an integer >= 1."""
    raw = os.environ.get("SPECDET_THREADS", "1")
    try:
        count = int(raw)
    except ValueError:
        count = 0
    if count < 1:
        raise ValueError(f"SPECDET_THREADS must be an integer >= 1, got {raw!r}")
    return count


def run_suite(config: SuiteConfig) -> SuiteResult:
    wall_start = time.perf_counter()
    jobs = [(name, trial) for name in config.suites for trial in range(config.trials)]

    def _one(job):
        name, trial = job
        start = time.perf_counter()
        rows = run_check(name, config.n, config.seed, trial, config.tolerance(name))
        return rows, (time.perf_counter() - start) * 1000.0

    workers = min(_thread_count(), max(1, len(jobs)))
    if workers > 1:
        # imported here: a serial run loads no thread pool
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_one, jobs))
    else:
        outcomes = [_one(job) for job in jobs]

    # outcomes follow job order, so each suite's trials are one slice
    reports: Dict[str, CheckReport] = {}
    for i, name in enumerate(config.suites):
        per_check = outcomes[i * config.trials:(i + 1) * config.trials]
        rows = [row for trial_rows, _ in per_check for row in trial_rows]
        violations = sum(1 for r in rows if not r.ok)
        worst = min((r.margin for r in rows), default=math.inf)
        reports[name] = CheckReport(
            trials=config.trials,
            worst_margin=worst,
            violations=violations,
            passed=violations == 0,
            runtime_ms=math.fsum(ms for _, ms in per_check),
            rows=rows,
        )
    return SuiteResult(config=config, reports=reports,
                       wall_ms=(time.perf_counter() - wall_start) * 1000.0)


# ---- serialization ----

_CSV_HEADER = "check_name,seed,trial,n,t_or_r,quantity,bound,margin,pass"


def rows_to_csv(rows: Sequence[CheckRow]) -> str:
    """Deterministic CSV; floats use shortest round-trip formatting."""
    lines = [_CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.check_name},{r.seed},{r.trial},{r.n},"
            f"{r.t!r},{r.quantity!r},{r.bound!r},{r.margin!r},"
            f"{'true' if r.ok else 'false'}"
        )
    return "\n".join(lines) + "\n"


def result_to_json(result: SuiteResult) -> str:
    import json

    payload = {
        "config": asdict(result.config),
        "passed": result.passed,
        "wall_ms": result.wall_ms,
        "reports": {},
    }
    for name in result.config.suites:
        rep = result.reports[name]
        entry = {
            "trials": rep.trials,
            "n": result.config.n,
            "rows": len(rep.rows),
            "worst_margin": None if math.isinf(rep.worst_margin) else rep.worst_margin,
            "violations": rep.violations,
            "passed": rep.passed,
            "runtime_ms": rep.runtime_ms,
        }
        if rep.rows:
            worst = min(rep.rows, key=lambda r: r.margin)
            entry["worst_row"] = {
                "seed": worst.seed,
                "trial": worst.trial,
                "t_or_r": worst.t,
                "quantity": worst.quantity,
                "bound": worst.bound,
                "margin": worst.margin,
                "pass": worst.ok,
            }
        payload["reports"][name] = entry
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
