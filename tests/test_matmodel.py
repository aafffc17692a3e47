"""Matrix models: spectral step functions, determinants, ensembles, persistence."""

import math
import sys
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from specdet import matmodel
from specdet.cli import main
from specdet.matmodel import (
    ENSEMBLE_KINDS,
    EnsembleSpec,
    MatrixOperator,
    abs_spectral_projection,
    fk_det,
    fk_det_eps,
    functional_calculus,
    haar_unitary,
    identity,
    lambda_matrix,
    load_matrix,
    mu_matrix,
    mu_neg_part,
    mu_pos_part,
    neg_part,
    op_exp,
    op_log,
    polar_abs,
    pos_part,
    sample,
    save_matrix,
    spectral_projection,
    truncate_at_level,
)
from specdet.stepfn import integrate, left_continuous_version
from specdet.verify import run_check


def _hermitian(n: int, seed: int) -> MatrixOperator:
    return sample(EnsembleSpec(kind="hermitian-gaussian", n=n, seed=seed))


def _ginibre(n: int, seed: int) -> MatrixOperator:
    return sample(EnsembleSpec(kind="iid-complex-gaussian", n=n, seed=seed))


# ---- construction ----

def test_rejects_nonsquare_and_nonfinite():
    with pytest.raises(ValueError):
        MatrixOperator(np.ones((2, 3)))
    with pytest.raises(ValueError):
        MatrixOperator(np.zeros((0, 0)))
    with pytest.raises(ValueError):
        MatrixOperator(np.array([[math.inf]]))
    with pytest.raises(ValueError):
        MatrixOperator(np.array([[1.0 + math.nan * 1j]]))


def test_entries_read_only():
    a = identity(2)
    with pytest.raises(ValueError):
        a.entries[0, 0] = 5.0


def test_hermiticity_detection():
    g = np.random.default_rng(0).standard_normal((4, 4)) + 1j * np.random.default_rng(1).standard_normal((4, 4))
    sym = MatrixOperator((g + g.conj().T) / 2.0)
    assert sym.self_adjoint
    skew = MatrixOperator(g + np.diag([0.0, 0.0, 0.0, 1e-3]))
    assert not skew.self_adjoint
    with pytest.raises(ValueError):
        skew.eigenvalues


def test_sampled_hermitian_is_exactly_hermitian():
    a = _hermitian(8, 5).entries
    assert float(np.max(np.abs(a - a.conj().T))) == 0.0


# ---- lazy spectral data ----

@pytest.fixture
def lapack_calls(monkeypatch):
    """Count the svd/eigh calls matmodel makes."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(matmodel.np.linalg, "svd", counted("svd", np.linalg.svd))
    monkeypatch.setattr(matmodel.np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    return calls


def test_construction_and_arithmetic_run_no_decomposition(lapack_calls):
    h = _hermitian(6, 1)
    g = _ginibre(6, 2)
    ops = [h + g, h - g, -h, 2.0 * g, g * 3, h.matmul(g), identity(6)]
    assert all(op.n == 6 for op in ops)
    assert h.entries.shape == (6, 6) and math.isfinite(g.tau)
    assert lapack_calls == Counter()


def test_repeated_reads_decompose_at_most_once(lapack_calls):
    g = _ginibre(6, 3)
    for _ in range(3):
        assert not g.self_adjoint
        assert g.norm == g.singular_values[0]
        with pytest.raises(ValueError):
            g.eigenvalues
    assert lapack_calls == Counter(svd=1)

    h = _hermitian(6, 4)
    for _ in range(3):
        assert h.self_adjoint
        h.eigenvalues
    assert lapack_calls == Counter(svd=1, eigh=1)
    for _ in range(3):
        assert h.norm == h.singular_values[0]
    assert lapack_calls == Counter(svd=2, eigh=1)
    # the cached arrays are shared with every reader, so they are read-only
    assert not any(x.flags.writeable for x in (*h._eigh(), h.singular_values))


def test_concurrent_first_reads_agree():
    ref = _hermitian(24, 12)
    expected_w, expected_s = ref.eigenvalues, ref.singular_values
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            op = MatrixOperator(ref.entries)
            seen = []

            def read():
                w, v = op._eigh()
                seen.append((op.self_adjoint, w, v, op.singular_values))

            threads = [threading.Thread(target=read) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert len(seen) == 4
            for sa, w, v, s in seen:
                assert sa
                assert np.array_equal(w, expected_w)
                assert np.array_equal(s, expected_s)
                assert np.allclose((v * w) @ v.conj().T, ref.entries, atol=1e-12)
    finally:
        sys.setswitchinterval(switch)


def test_composite_check_decomposes_only_what_it_reads(lapack_calls):
    # 13 operators per trial; mu(A) needs one svd, the three hermitian
    # inputs one eigh each, and exact hermiticity needs no svd
    run_check("sum-psi-composite", 8, 42, 0)
    assert lapack_calls == Counter(svd=1, eigh=3)


def test_invalid_entries_still_raise_at_construction(lapack_calls):
    for bad in (np.ones((2, 3)), np.zeros((0, 0)), np.array([[math.inf]]),
                np.array([[1.0, math.nan], [0.0, 1.0]])):
        with pytest.raises(ValueError):
            MatrixOperator(bad)
    assert lapack_calls == Counter()


def _eager_hermiticity(entries) -> bool:
    """The hermiticity decision as it was made eagerly at construction."""
    a = np.array(entries, dtype=np.complex128)
    sv = np.linalg.svd(a, compute_uv=False)
    tol = max(matmodel._HERMITICITY_FLOOR, matmodel.HERMITICITY_RTOL * float(sv[0]))
    return float(np.max(np.abs(a - a.conj().T))) <= tol


def test_hermiticity_decision_at_the_tolerance():
    # dev = |d|, ||A|| = 1 + O(d): the tolerance sits at 1e-12 to within 1e-24
    for d, expected in ((0.99e-12, True), (1.01e-12, False)):
        entries = np.array([[1.0, d], [0.0, 1.0]], dtype=complex)
        assert _eager_hermiticity(entries) is expected
        assert MatrixOperator(entries).self_adjoint is expected
    # dev = ||A|| = d: the absolute floor 1e-300 decides
    for d, expected in ((0.5e-300, True), (2e-300, False)):
        entries = np.array([[0.0, d], [0.0, 0.0]], dtype=complex)
        assert _eager_hermiticity(entries) is expected
        assert MatrixOperator(entries).self_adjoint is expected


def test_exactly_hermitian_needs_no_svd(lapack_calls):
    zero = MatrixOperator(np.zeros((3, 3)))
    assert zero.self_adjoint
    assert _hermitian(6, 7).self_adjoint
    assert (_hermitian(6, 8) + _hermitian(6, 9)).self_adjoint
    assert lapack_calls == Counter()
    assert np.array_equal(zero.eigenvalues, np.zeros(3))
    assert _eager_hermiticity(np.zeros((3, 3)))


def test_hermiticity_decision_matches_eager_rule():
    rng = np.random.default_rng(5)
    decisions = set()
    for _ in range(20):
        g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        entries = (g + g.conj().T) / 2.0 + 10.0 ** -rng.uniform(9, 15) * g
        decision = MatrixOperator(entries).self_adjoint
        assert decision is _eager_hermiticity(entries)
        decisions.add(decision)
    assert decisions == {True, False}


# ---- spectral data vs numpy oracles ----

def test_singular_values_match_svd_oracle():
    a = _ginibre(12, 3)
    oracle = np.linalg.svd(a.entries, compute_uv=False)
    assert np.array_equal(a.singular_values, oracle)
    assert np.all(np.diff(a.singular_values) <= 0.0)
    assert a.norm == oracle[0]


def test_eigenvalues_match_eigh_oracle():
    # eigvalsh takes a different LAPACK path than eigh, so allow ulp noise
    a = _hermitian(10, 4)
    oracle = np.linalg.eigvalsh(a.entries)[::-1]
    assert np.allclose(a.eigenvalues, oracle, rtol=0.0, atol=1e-13)
    assert np.all(np.diff(a.eigenvalues) <= 0.0)


def test_tau_is_normalized_trace():
    a = _hermitian(6, 9)
    assert a.tau == pytest.approx(float(np.trace(a.entries).real) / 6, abs=1e-15)


def test_mu_and_lambda_functions_share_cached_floats():
    a = _hermitian(8, 2)
    assert np.array_equal(mu_matrix(a).values, a.singular_values)
    assert np.array_equal(lambda_matrix(a).values, a.eigenvalues)
    w = a.eigenvalues
    assert np.array_equal(mu_pos_part(a).values, np.clip(w, 0.0, None))
    assert np.array_equal(mu_neg_part(a).values, np.clip(-w, 0.0, None)[::-1])


def test_mu_of_hermitian_is_sorted_abs_eigenvalues():
    a = _hermitian(8, 13)
    assert np.allclose(
        mu_matrix(a).values,
        np.sort(np.abs(a.eigenvalues))[::-1],
        rtol=1e-12,
        atol=1e-13,
    )


# ---- functional calculus ----

def test_parts_decompose_and_are_positive():
    a = _hermitian(6, 21)
    p = pos_part(a)
    m = neg_part(a)
    assert np.allclose((p - m).entries, a.entries, atol=1e-13)
    assert p.eigenvalues[-1] >= -1e-14
    assert m.eigenvalues[-1] >= -1e-14
    # the parts multiply to zero
    assert float(np.max(np.abs(p.matmul(m).entries))) <= 1e-13


def test_exp_log_roundtrip():
    a = _hermitian(6, 22)
    b = op_log(op_exp(a))
    assert np.allclose(b.entries, a.entries, atol=1e-12)
    with pytest.raises(ValueError):
        op_log(a - a)  # zero matrix is not strictly positive


def test_spectral_projection_counts_eigenvalues():
    a = _hermitian(16, 8)
    w = a.eigenvalues
    lo, hi = float(w[10]), float(w[3])
    p = spectral_projection(a, lo, hi)
    count = int(np.sum((w >= lo) & (w <= hi)))
    assert p.tau == pytest.approx(count / 16, abs=1e-13)
    assert np.allclose(p.matmul(p).entries, p.entries, atol=1e-12)


def test_abs_projection_mass_at_mu_level():
    # tau(1_[0, c_k](|T|)) >= 1 - k/n when c_k is the (k+1)-th largest |eigenvalue|;
    # levels come from the same eigen-data the projection uses, so this is exact
    a = _hermitian(16, 15)
    levels = np.sort(np.abs(a.eigenvalues))[::-1]
    for k in range(1, 16):
        p = abs_spectral_projection(a, float(levels[k]))
        assert p.tau >= 1.0 - k / 16.0 - 1e-13


def test_polar_abs_has_singular_value_spectrum():
    a = _ginibre(9, 30)
    b = polar_abs(a)
    assert b.self_adjoint
    assert np.allclose(b.eigenvalues, a.singular_values, atol=1e-12)
    assert np.allclose(b.matmul(b).entries, (a.entries.conj().T @ a.entries), atol=1e-11)


def test_truncation_kills_mu_beyond_level():
    # T minus its truncation at mu(t, T) has mu(t, .) = 0
    a = _hermitian(16, 44)
    mu = mu_matrix(a)
    for k in (1, 4, 9):
        t = k / 16.0
        trunc = truncate_at_level(a, mu(t))
        rest = a - trunc
        assert mu_matrix(rest)(t) <= 1e-13
        assert trunc.norm <= mu(t) + 1e-13


def test_functional_calculus_identity():
    a = _hermitian(5, 1)
    b = functional_calculus(a, lambda w: w)
    assert np.allclose(b.entries, a.entries, atol=1e-13)


# ---- inversion flip for products of exponentials ----

def test_product_exponential_inversion_flip():
    # mu(u, e^T e^S) * mu-tilde(1-u, e^-S e^-T) = 1 at cell midpoints
    n = 8
    t_op = _hermitian(n, 101)
    s_op = _hermitian(n, 102)
    prod = op_exp(t_op).matmul(op_exp(s_op))
    inv = op_exp(-1.0 * s_op).matmul(op_exp(-1.0 * t_op))
    mu_p = mu_matrix(prod)
    mu_i = left_continuous_version(mu_matrix(inv))
    for k in range(n):
        u = (k + 0.5) / n
        assert mu_p(u) * mu_i(1.0 - u) == pytest.approx(1.0, rel=1e-10)


# ---- determinants ----

def test_fk_det_matches_slogdet_oracle():
    for seed in range(8):
        a = _ginibre(10, seed)
        sign, logabs = np.linalg.slogdet(a.entries)
        assert abs(sign) == pytest.approx(1.0, rel=1e-12)
        assert fk_det(a) == pytest.approx(math.exp(logabs / 10), rel=1e-11)


def test_fk_det_identity_and_scaling():
    assert fk_det(identity(7)) == 1.0
    a = 3.0 * identity(4)
    assert fk_det(a) == pytest.approx(3.0, rel=1e-14)


def test_fk_det_singular_is_zero():
    a = MatrixOperator(np.diag([2.0, 1.0, 0.0]).astype(complex))
    assert fk_det(a) == 0.0


def test_fk_det_eps_validates_and_decreases_to_det():
    a = _ginibre(6, 77)
    with pytest.raises(ValueError):
        fk_det_eps(a, 0.0)
    with pytest.raises(ValueError):
        fk_det_eps(a, -1e-9)
    vals = [fk_det_eps(a, 2.0 ** -k) for k in range(4, 44, 4)]
    assert all(x >= y for x, y in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(fk_det(a), rel=1e-9)


def test_fk_det_eps_on_singular_matrix_decays():
    spectrum = (2.0, 1.0) + (0.0,) * 6
    a = sample(EnsembleSpec(kind="diagonal-with-prescribed-spectrum", n=8, spectrum=spectrum))
    assert fk_det(a) == 0.0
    # three quarters of the spectrum vanishes, so det_eps ~ eps^(3/4)
    assert fk_det_eps(a, 2.0 ** -40) == pytest.approx((2.0 * 1.0 * (2.0 ** -40) ** 6) ** 0.125, rel=1e-12)


# ---- ensembles ----

def test_ensemble_spec_validation():
    with pytest.raises(ValueError):
        EnsembleSpec(kind="bogus", n=4)
    with pytest.raises(ValueError):
        EnsembleSpec(kind="iid-complex-gaussian", n=0)
    with pytest.raises(ValueError):
        EnsembleSpec(kind="iid-complex-gaussian", n=4, scale=0.0)
    with pytest.raises(ValueError):
        EnsembleSpec(kind="diagonal-with-prescribed-spectrum", n=4)
    with pytest.raises(ValueError):
        EnsembleSpec(kind="haar-unitary-conjugate", n=4, spectrum=(1.0, 2.0))


def test_sampling_is_deterministic():
    for kind in ENSEMBLE_KINDS:
        spectrum = (3.0, 1.0, -1.0, -2.0) if "spectrum" in kind or kind.startswith(("diagonal", "haar")) else None
        spec = EnsembleSpec(kind=kind, n=4, seed=12, spectrum=spectrum)
        a = sample(spec)
        b = sample(spec)
        assert np.array_equal(a.entries, b.entries)
        c = sample(EnsembleSpec(kind=kind, n=4, seed=13, spectrum=spectrum))
        if kind != "diagonal-with-prescribed-spectrum":
            assert not np.array_equal(a.entries, c.entries)


def test_diagonal_ensemble_realizes_spectrum():
    spec = EnsembleSpec(kind="diagonal-with-prescribed-spectrum", n=4, spectrum=(3.0, 1.0, -1.0, -2.0))
    a = sample(spec)
    assert np.array_equal(a.eigenvalues, [3.0, 1.0, -1.0, -2.0])


def test_haar_conjugate_preserves_spectrum():
    spectrum = (5.0, 2.0, 0.5, -1.0, -4.0)
    a = sample(EnsembleSpec(kind="haar-unitary-conjugate", n=5, seed=6, spectrum=spectrum))
    assert a.self_adjoint
    assert np.allclose(a.eigenvalues, sorted(spectrum, reverse=True), atol=1e-12)
    assert not np.allclose(a.entries, np.diag(spectrum), atol=1e-3)


def test_haar_unitary_is_unitary():
    u = haar_unitary(8, np.random.default_rng(17))
    assert np.allclose(u @ u.conj().T, np.eye(8), atol=1e-12)


def test_ginibre_scale():
    a = sample(EnsembleSpec(kind="iid-complex-gaussian", n=64, seed=1, scale=2.0))
    b = sample(EnsembleSpec(kind="iid-complex-gaussian", n=64, seed=1, scale=1.0))
    assert np.allclose(a.entries, 2.0 * b.entries, atol=1e-15)


# ---- persistence ----

def test_save_load_roundtrip_is_exact(tmp_path):
    a = _ginibre(7, 91)
    path = str(tmp_path / "m.mat")
    save_matrix(a, path)
    b = load_matrix(path)
    assert np.array_equal(a.entries, b.entries)


def test_load_matrix_format_errors(tmp_path):
    p = tmp_path / "bad.mat"
    p.write_text("")
    with pytest.raises(ValueError):
        load_matrix(str(p))
    p.write_text("x\n")
    with pytest.raises(ValueError):
        load_matrix(str(p))
    p.write_text("2\n1,0 2,0\n3,0\n")
    with pytest.raises(ValueError):
        load_matrix(str(p))
    p.write_text("1\n5\n")
    with pytest.raises(ValueError):
        load_matrix(str(p))


_MALFORMED = {
    "two commas": "1\n1,2,3\n",
    "no comma": "2\n1,0 2,0 3,0 4\n",
    "empty real part": "1\n,1\n",
    "empty imaginary part": "1\n1,\n",
    "too many entries": "1\n1,0 2,0\n",
    "too few entries": "2\n1,0 2,0 3,0\n",
    "header only": "2\n",
    "n = 0": "0\n",
    "n < 0": "-1\n1,0\n",
    "bad number": "1\n1,x\n",
}


@pytest.mark.parametrize("text", list(_MALFORMED.values()), ids=list(_MALFORMED))
def test_load_matrix_rejects_malformed_files(tmp_path, capsys, text):
    p = tmp_path / "bad.mat"
    p.write_text(text)
    with pytest.raises(ValueError):
        load_matrix(str(p))
    assert main(["det", "--input", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_load_matrix_names_the_entry_that_is_not_a_pair(tmp_path):
    p = tmp_path / "bad.mat"
    p.write_text("2\n1,0 2,0\n3,0 4,0,0\n")
    with pytest.raises(ValueError, match=r"entry 3 is not a re,im pair: '4,0,0'"):
        load_matrix(str(p))
    # reading stops at the first entry past n^2, before the bad token
    p.write_text("1\n1,0 2,0\n3,0,0\n")
    with pytest.raises(ValueError, match="expected 1 entries, found more"):
        load_matrix(str(p))


def test_load_matrix_huge_header_fails_without_allocating(tmp_path):
    p = tmp_path / "huge.mat"
    p.write_text("100000000\n1,0\n")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="expected 10000000000000000 entries, found 1"):
            load_matrix(str(p))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _old_parse(tokens):
    # the per-token parse the streaming loader replaced
    flat = np.empty(len(tokens), dtype=np.complex128)
    for i, tok in enumerate(tokens):
        re_s, _, im_s = tok.partition(",")
        flat[i] = complex(float(re_s), float(im_s))
    return flat


def test_load_matrix_layouts_and_old_parse_agree_bit_for_bit(tmp_path):
    rng = np.random.default_rng(2024)
    n = 9
    special = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
               -1.7976931348623157e308, 2.2250738585072014e-308, 1.0]
    parts = rng.standard_normal(2 * n * n) * 10.0 ** rng.integers(-300, 300, 2 * n * n)
    parts[rng.choice(2 * n * n, 40, replace=False)] = rng.choice(special, 40)
    parts[0], parts[3] = -0.0, -0.0    # a -0.0 real and a -0.0 imaginary part
    spell = [repr, lambda x: f"{x:.17g}", lambda x: f"{x:.25e}", lambda x: f"{x:+.3E}"]
    tokens = [
        f"{spell[rng.integers(4)](float(re))},{spell[rng.integers(4)](float(im))}"
        for re, im in zip(parts[0::2], parts[1::2])
    ]
    expected = _old_parse(tokens).reshape(n, n)
    layouts = {
        "one line": f"{n} " + " ".join(tokens) + "\n",
        "one per line": "\n".join([str(n)] + tokens),
        "ragged": f"\n\n  {n}\t" + "".join(
            tok + rng.choice([" ", "\t", "\n", "  \n\n", "\r\n"]) for tok in tokens),
    }
    for name, text in layouts.items():
        path = tmp_path / "m.mat"
        path.write_text(text)
        loaded = load_matrix(str(path)).entries
        assert loaded.tobytes() == expected.tobytes(), name
    assert math.copysign(1.0, loaded[0, 0].real) == -1.0
    assert math.copysign(1.0, loaded[0, 1].imag) == -1.0


# ---- mu calculus spot checks used by the verification suites ----

def test_mu_sum_head_integral_domination():
    # int_0^t mu(T+S) <= int_0^t (mu T + mu S) for positive T, S
    n = 8
    for seed in range(5):
        t_op = _hermitian(n, 300 + seed)
        s_op = _hermitian(n, 400 + seed)
        t_pos, s_pos = pos_part(t_op), pos_part(s_op)
        mu_sum = mu_matrix(t_pos + s_pos)
        parts = mu_matrix(t_pos) + mu_matrix(s_pos)
        for k in range(1, n + 1):
            t = k / n
            assert integrate(mu_sum, 0.0, t) <= integrate(parts, 0.0, t) + 1e-12
