"""Verification harness: check rows, determinism, serialization, tolerances."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import specdet
from specdet import stepfn, verify
from specdet.matmodel import MatrixOperator, mu_matrix, op_exp
from specdet.stepfn import GridFn, integrate, psi_eval
from specdet.verify import (
    DEFAULT_TOLERANCES,
    SUITE_NAMES,
    CheckRow,
    SuiteConfig,
    result_to_json,
    rows_to_csv,
    run_check,
    run_suite,
)


def _quick_config(**kw):
    base = dict(suites=SUITE_NAMES, n=8, trials=2, seed=11)
    base.update(kw)
    return SuiteConfig(**base)


# ---- configuration ----

def test_suite_names_are_the_nine_checks():
    assert len(SUITE_NAMES) == 9
    assert len(set(SUITE_NAMES)) == 9


def test_config_validation():
    with pytest.raises(ValueError):
        SuiteConfig(suites=("majorization",), n=1)
    with pytest.raises(ValueError):
        SuiteConfig(suites=("majorization",), n=513)
    with pytest.raises(ValueError):
        SuiteConfig(suites=("majorization",), trials=-1)
    with pytest.raises(ValueError):
        SuiteConfig(suites=("nonsense",))
    with pytest.raises(ValueError, match="no suite given"):
        SuiteConfig(suites=())
    with pytest.raises(ValueError, match="unknown tolerance target 'majorizaton'; suites: "):
        SuiteConfig(suites=("majorization",), tol_overrides={"majorizaton": -1.0})
    with pytest.raises(ValueError, match="^suite 'majorization' is given more than once$"):
        SuiteConfig(suites=("majorization", "log-closure", "majorization"))
    for key in ("default", "majorization"):
        for tol, what in ((math.nan, "NaN"), (math.inf, r"\+inf")):
            with pytest.raises(ValueError, match=f"^tolerance for '{key}' is {what}$"):
                SuiteConfig(suites=("majorization",), tol_overrides={key: tol})


def test_tolerance_resolution():
    cfg = SuiteConfig(suites=SUITE_NAMES)
    assert cfg.tolerance("majorization") == DEFAULT_TOLERANCES["majorization"]
    assert cfg.tolerance("split-psi-vanishing") == DEFAULT_TOLERANCES["split-psi-vanishing"]
    assert cfg.tolerance("log-closure") == 1e-8
    cfg2 = SuiteConfig(suites=SUITE_NAMES, tol_overrides={"log-closure": 1e-5})
    assert cfg2.tolerance("log-closure") == 1e-5
    cfg3 = SuiteConfig(suites=SUITE_NAMES, tol_overrides={"default": 1e-4})
    assert cfg3.tolerance("log-closure") == 1e-4
    assert cfg3.tolerance("majorization") == 1e-4


def test_majorization_fails_a_row_short_by_1e_9_at_its_default_tolerance(monkeypatch):
    # majorization compares exact cancellations, so its default tolerance
    # sits below the general 1e-8: a row short by 1e-9 fails there and
    # would pass at 1e-8
    def check(n, t_op, s_op):
        return [0.5], [1e-9], [0.0]

    monkeypatch.setitem(verify._CHECKS, "majorization", (check, lambda seed, n: None, "AB"))
    for overrides, ok in (({}, False), ({"default": 1e-8}, True)):
        result = run_suite(SuiteConfig(suites=("majorization",), n=2, trials=1,
                                       tol_overrides=overrides))
        [row] = result.rows
        assert (row.margin, row.ok) == (-1e-9, ok)


def _tol(name):
    return SuiteConfig(suites=(name,)).tolerance(name)


def test_run_check_unknown_name():
    with pytest.raises(ValueError, match="unknown check"):
        run_check("bogus", 8, 0, 0, 1e-8)


# ---- frozen hand cases for the quantities the checks compare ----

def test_split_vanishing_hand_case():
    # T = diag(1, -1): lambda - mu(pos) + mu(neg) = (1, -1), whose symmetric
    # window integrals cancel exactly
    t_op = MatrixOperator(np.diag([1.0, -1.0]).astype(complex))
    lam = GridFn(t_op.eigenvalues)
    mu_p = GridFn(np.clip(t_op.eigenvalues, 0.0, None))
    mu_m = GridFn(np.clip(-t_op.eigenvalues, 0.0, None)[::-1])
    h = lam - mu_p + mu_m
    assert np.array_equal(h.values, [1.0, -1.0])
    for t in (0.125, 0.25, 0.4375):
        assert psi_eval(h, t) == 0.0


def test_commutator_hand_case():
    # T = diag(2, -1), r = 1/4: truncated trace 1/2, averaged eigenvalues 1
    t_op = MatrixOperator(np.diag([2.0, -1.0]).astype(complex))
    mu = mu_matrix(t_op)
    r = 0.25
    cut = mu(r)
    assert cut == 2.0
    w = t_op.eigenvalues
    tau_trunc = math.fsum(w[np.abs(w) <= cut]) / 2
    assert tau_trunc == 0.5
    lam = GridFn(w)
    assert psi_eval(lam, r) == 1.0
    quantity = abs(tau_trunc / r - psi_eval(lam, r))
    assert quantity == 1.0
    assert quantity <= 2.0 * mu(r)


def test_commutator_truncation_keeps_the_ties_at_the_cut():
    # every cut mu(r) = 3, 2, 1 equals some |w|, four times at 1, and
    # dropping the ties at the cut would change each truncated sum
    w = [3.0, 1.0, 1.0, 0.5, -0.5, -0.5, -1.0, -2.0]
    t_op = MatrixOperator(np.diag(w).astype(complex))
    ev = t_op.eigenvalues
    assert sorted(ev.tolist()) == sorted(w)
    rs, q, bounds = verify._check_commutator_criterion(8, t_op)
    cuts = mu_matrix(t_op).values_at(rs)
    assert set(cuts.tolist()) == {3.0, 2.0, 1.0}
    assert np.array_equal(bounds, 2.0 * cuts)
    lam = GridFn(ev)
    masked = [abs(math.fsum(ev[np.abs(ev) <= cut]) / 8 / r - psi_eval(lam, r))
              for r, cut in zip(rs, cuts.tolist())]
    assert [x.hex() for x in q] == [x.hex() for x in masked]


def test_majorization_hand_case():
    # T = diag(2, 0), S = diag(0, 2): head integrals 1 <= 2 <= 2 at t = 1/2
    t_op = MatrixOperator(np.diag([2.0, 0.0]).astype(complex))
    s_op = MatrixOperator(np.diag([0.0, 2.0]).astype(complex))
    mu_sum = mu_matrix(t_op + s_op)
    parts = mu_matrix(t_op) + mu_matrix(s_op)
    assert integrate(mu_sum, 0.0, 0.5) == 1.0
    assert integrate(parts, 0.0, 0.5) == 2.0
    assert integrate(mu_sum, 0.0, 1.0) == 2.0


def test_product_log_pointwise_hand_case():
    # commuting diagonal exponentials make log mu(e^T e^S) = lambda(T) + lambda(S)
    t_op = MatrixOperator(np.diag([1.0, -1.0]).astype(complex))
    s_op = MatrixOperator(np.diag([0.5, -0.5]).astype(complex))
    prod = op_exp(t_op).matmul(op_exp(s_op))
    log_mu = np.log(prod.singular_values)
    assert np.allclose(log_mu, [1.5, -1.5], atol=1e-12)


# ---- check row structure ----

def test_rows_have_consistent_margin():
    for name in SUITE_NAMES:
        rows = run_check(name, 8, 17, 0, _tol(name))
        assert rows, name
        for r in rows:
            assert r.check_name == name
            assert r.margin == r.bound - r.quantity
            assert isinstance(r.ok, bool)
            assert 0.0 <= r.t <= 1.0 or r.t == 0.0


def test_all_checks_pass_at_small_scale():
    result = run_suite(_quick_config())
    assert result.passed
    for name in SUITE_NAMES:
        rep = result.reports[name]
        assert rep.violations == 0
        assert rep.passed
        assert rep.runtime_ms >= 0.0
        assert math.isfinite(rep.worst_margin)


def test_composite_check_carries_identity_row():
    rows = run_check("sum-psi-composite", 8, 23, 1, _tol("sum-psi-composite"))
    identity_rows = [r for r in rows if r.t == 0.0 and r.bound == 0.0]
    assert len(identity_rows) == 1
    # decompositions built from different groupings agree to rounding
    assert abs(identity_rows[0].quantity) <= 1e-12


def test_split_check_zero_rows_below_threshold():
    rows = run_check("split-psi-vanishing", 8, 29, 3, _tol("split-psi-vanishing"))
    below = [r for r in rows if r.bound == 0.0]
    sup_rows = [r for r in rows if r.bound != 0.0]
    assert len(sup_rows) == 1
    for r in below:
        assert abs(r.quantity) <= 1e-10


def test_forced_failure_with_negative_tolerance():
    # margin >= -tol * (1 + |bound|) is unsatisfiable once tol < 0 and
    # the margin is smaller than |tol|, so this manufactures violations
    for tol in (-10.0, -math.inf):
        cfg = SuiteConfig(suites=("majorization",), n=8, trials=1, seed=11,
                          tol_overrides={"majorization": tol})
        result = run_suite(cfg)
        assert not result.passed
        assert result.reports["majorization"].violations > 0
        assert json.loads(result_to_json(result))["passed"] is False


# ---- determinism ----

def test_run_suite_deterministic_across_calls():
    a = run_suite(_quick_config())
    b = run_suite(_quick_config())
    assert rows_to_csv(a.rows) == rows_to_csv(b.rows)


def test_run_suite_deterministic_across_thread_counts(monkeypatch):
    serial = rows_to_csv(run_suite(_quick_config()).rows)
    monkeypatch.setenv("SPECDET_THREADS", "4")
    threaded = rows_to_csv(run_suite(_quick_config()).rows)
    assert serial == threaded


@pytest.mark.parametrize("n", [7, 16])
def test_lazy_spectra_match_eager_decomposition(monkeypatch, n):
    # decomposing every operator at construction, as an eager model would,
    # must not move a byte of the report
    config = _quick_config(n=n, trials=2)
    lazy = rows_to_csv(run_suite(config).rows)
    construct = MatrixOperator.__init__

    def eager_init(self, entries, **kwargs):
        construct(self, entries, **kwargs)
        self.singular_values
        if self.self_adjoint:
            self.eigenvalues

    monkeypatch.setattr(MatrixOperator, "__init__", eager_init)
    assert rows_to_csv(run_suite(config).rows) == lazy


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(SUITE_NAMES), n=st.integers(2, 40), trials=st.integers(1, 3),
       seed=st.integers(0, 2**63))
@example(name="majorization", n=8, trials=2, seed=11)
def test_trial_rows_are_independent_of_surrounding_trials(name, n, trials, seed):
    # rows for trial k must not depend on how many trials surround it, and
    # run_check alone must reproduce them
    config = _quick_config(suites=(name,), n=n, trials=trials, seed=seed)
    rows = run_suite(config).rows
    for trial in range(trials):
        solo = run_check(name, n, seed, trial, config.tolerance(name))
        assert rows_to_csv(solo) == rows_to_csv([r for r in rows if r.trial == trial])


def test_different_seeds_give_different_rows():
    a = run_suite(_quick_config(suites=("majorization",), seed=1, trials=1))
    b = run_suite(_quick_config(suites=("majorization",), seed=2, trials=1))
    assert rows_to_csv(a.rows) != rows_to_csv(b.rows)


# ---- empty runs ----

def test_zero_trials_passes_with_no_rows():
    result = run_suite(_quick_config(trials=0))
    assert result.passed
    assert result.rows == []
    payload = json.loads(result_to_json(result))
    assert payload["passed"] is True
    for name in SUITE_NAMES:
        assert payload["reports"][name]["worst_margin"] is None
        assert payload["reports"][name]["rows"] == 0
        # an empty sum of trial times is the float 0.0, like every other runtime
        assert isinstance(payload["reports"][name]["runtime_ms"], float)
    assert rows_to_csv(result.rows) == "check_name,seed,trial,n,t_or_r,quantity,bound,margin,pass\n"


# ---- serialization ----

def test_csv_format_and_round_trip():
    result = run_suite(_quick_config(suites=("standard-inequalities",), trials=1))
    text = rows_to_csv(result.rows)
    lines = text.strip().split("\n")
    assert lines[0] == "check_name,seed,trial,n,t_or_r,quantity,bound,margin,pass"
    assert len(lines) == 1 + len(result.rows)
    for line, row in zip(lines[1:], result.rows):
        fields = line.split(",")
        assert fields[0] == row.check_name
        assert int(fields[1]) == row.seed and int(fields[2]) == row.trial
        assert int(fields[3]) == row.n
        # repr round-trips every float exactly
        assert float(fields[4]) == row.t
        assert float(fields[5]) == row.quantity
        assert float(fields[6]) == row.bound
        assert float(fields[7]) == row.margin
        assert fields[8] in ("true", "false")


def test_json_structure():
    result = run_suite(_quick_config(suites=("log-closure", "majorization"), trials=1))
    payload = json.loads(result_to_json(result))
    assert payload["config"]["n"] == 8
    assert payload["config"]["suites"] == ["log-closure", "majorization"]
    rep = payload["reports"]["log-closure"]
    assert set(rep) >= {"trials", "n", "rows", "worst_margin", "violations", "passed", "runtime_ms", "worst_row"}
    assert rep["violations"] == 0
    assert rep["worst_row"]["margin"] == rep["worst_margin"]
    assert payload["wall_ms"] == result.wall_ms > 0.0


def test_rows_order_follows_suite_order():
    cfg = _quick_config(suites=("log-closure", "majorization"), trials=1)
    rows = run_suite(cfg).rows
    names = [r.check_name for r in rows]
    switch = names.index("majorization")
    assert all(x == "log-closure" for x in names[:switch])
    assert all(x == "majorization" for x in names[switch:])


# ---- identity with the per-point and per-cell references ----

def test_row_fields_are_python_scalars():
    # a numpy scalar would print as np.float64(...) under repr
    for row in run_suite(_quick_config(n=9, trials=1)).rows:
        for value in tuple(row)[4:8]:
            assert type(value) is float
        assert type(row.ok) is bool


def test_rows_are_immutable_and_read_as_the_dataclass_rows_did():
    row = CheckRow("majorization", 12, 0, 8, 0.125, 1.0, 2.0, 1.0, True)
    with pytest.raises(AttributeError):
        row.margin = 0.0
    # the repr and the hash of the frozen dataclass rows this type replaced
    assert repr(row) == (
        "CheckRow(check_name='majorization', seed=12, trial=0, n=8, t=0.125, "
        "quantity=1.0, bound=2.0, margin=1.0, ok=True)")
    assert hash(row) == hash(("majorization", 12, 0, 8, 0.125, 1.0, 2.0, 1.0, True))


@pytest.mark.parametrize("n", [7, 16, 37])
def test_csv_bytes_equal_with_the_references_swapped_in(monkeypatch, n):
    from stepfn_reference import integrate_reference, rows_reference, values_at_reference

    config = _quick_config(n=n, trials=3, seed=42)
    fast = rows_to_csv(run_suite(config).rows)
    intervals = []

    def integrals_reference(f, los, his):
        pairs = list(zip(los, his))
        intervals.extend(pairs)
        return [integrate_reference(f, a, b) for a, b in pairs]

    monkeypatch.setattr(stepfn, "integrals", integrals_reference)   # psi_values' binding
    monkeypatch.setattr(verify, "integrals", integrals_reference)
    monkeypatch.setattr(GridFn, "values_at", values_at_reference)
    monkeypatch.setattr(verify, "_rows", rows_reference)
    assert rows_to_csv(run_suite(config).rows) == fast
    # the suites reached the reference, so the bytes above compare something
    assert len(intervals) > 0


# ---- golden report digests ----

# SHA-256 of `specdet verify --suite all --n N --trials T --seed S` stdout,
# keyed by numpy's OpenBLAS version and the kernel core in use; the bytes
# depend on both, so any other BLAS set-up skips
_GOLDEN_CSV_SHA256 = {
    "0.3.31.188.0/Haswell": {
        (37, 5, 7): "729aeeb43153331d914df46b6eee6d317d9d5d40cde102fd571d9fc960c65613",
        (64, 3, 42): "aba2368da55e0aaddb9e317b974b750a9e81ce8fcf4c915dc7aa3a390f400d13",
        # verify._CUTOFF_GUARD changes rows at n = 39 (not at 37 or 64), so
        # this digest moves when the guard is 0
        (39, 3, 42): "3cc88008d031dfaef001dfd3325a09d10a72d808109393cf639bcf54afaa0b92",
        # the decomposition-bound sizes, where a reordered matmul or a
        # changed memory layout of an eigenvector temporary moves bytes
        (256, 1, 3): "4b18b89ab0d43e2df453b3ab86af79ecfdf15df0156cab4d7dd36790a4cc7030",
        (512, 1, 3): "129f930754490f0f31e8a51273b147fb0c8c420943a8567320ae362f162df912",
    },
}

_GOLDEN_RUN = """
import contextlib, ctypes, glob, hashlib, io, json, os, sys
import numpy
from specdet.cli import main


def blas_key():
    libdir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "libscipy_openblas*.so")):
        lib = ctypes.CDLL(path)
        suffix = "64_" if "openblas64" in os.path.basename(path) else ""
        try:
            core = getattr(lib, "scipy_openblas_get_corename" + suffix)
            config = getattr(lib, "scipy_openblas_get_config" + suffix)
        except AttributeError:
            continue
        core.argtypes = config.argtypes = []
        core.restype = config.restype = ctypes.c_char_p
        return config().decode().split()[1] + "/" + core().decode()
    return None


digests = {}
for n, trials, seed in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["verify", "--suite", "all", "--n", str(n), "--trials", str(trials),
                     "--seed", str(seed)])
    assert code == 0, code
    digests[f"{n},{trials},{seed}"] = hashlib.sha256(out.getvalue().encode()).hexdigest()
print(json.dumps({"key": blas_key(), "digests": digests}))
"""


def _assert_golden(shapes):
    src = os.path.dirname(os.path.dirname(os.path.abspath(specdet.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "SPECDET_THREADS"}
    env.update(PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OPENBLAS_CORETYPE="Haswell")
    run = subprocess.run([sys.executable, "-c", _GOLDEN_RUN, json.dumps(shapes)],
                         capture_output=True, text=True, timeout=300, env=env, check=True)
    report = json.loads(run.stdout)
    golden = _GOLDEN_CSV_SHA256.get(report["key"])
    if golden is None:
        pytest.skip(f"no digests recorded for BLAS set-up {report['key']}")
    for shape in shapes:
        assert report["digests"][",".join(map(str, shape))] == golden[shape], shape


def test_golden_csv_digests():
    _assert_golden([(37, 5, 7), (64, 3, 42), (39, 3, 42)])


def test_golden_csv_digests_at_large_n():
    # about 6 s: one trial of every suite at n = 256 and at n = 512
    _assert_golden([(256, 1, 3), (512, 1, 3)])
