"""Matrix models: spectral step functions, seeded samplers, persistence."""

import math
import sys
import threading
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from specdet import matmodel
from specdet.cli import main
from specdet.dets import det_phi, eps_limit_comparison
from specdet.matmodel import (
    MatrixOperator,
    functional_calculus,
    ginibre,
    haar_unitary,
    hermitian_gaussian,
    lambda_matrix,
    load_matrix,
    mu_matrix,
    op_exp,
    op_signed_parts,
    save_matrix,
    wishart,
)
from specdet.stepfn import GridFn, integrate, signed_parts
from specdet.traces import integral_trace
from specdet.verify import SUITE_NAMES, SuiteConfig, run_check
from stepfn_reference import mu_neg_part_reference, mu_pos_part_reference


# ---- construction ----

def test_rejects_nonsquare_and_nonfinite():
    with pytest.raises(ValueError):
        MatrixOperator(np.ones((2, 3)))
    with pytest.raises(ValueError):
        MatrixOperator(np.zeros((0, 0)))
    for bad in (math.nan, math.inf, -math.inf):
        for entry in (complex(bad, 1.0), complex(1.0, bad)):
            a = np.ones((3, 3), dtype=complex)
            a[2, 1] = entry
            # a Fortran-ordered input gives a Fortran-ordered copy
            for entries in (a, np.asfortranarray(a), a.T):
                with pytest.raises(ValueError, match="entries must be finite"):
                    MatrixOperator(entries)


def test_entries_read_only():
    a = MatrixOperator(np.eye(2))
    with pytest.raises(ValueError):
        a.entries[0, 0] = 5.0


# ---- copy policy ----

def test_operator_keeps_its_entries_and_spectra_after_the_caller_writes():
    # a caller's array is copied: writing to it afterwards moves neither the
    # entries nor the spectra, which are computed only on first read
    g = ginibre(29, 7).entries
    caller = g + g.conj().T
    kept = caller.copy()
    a = MatrixOperator(caller)
    caller[...] = 0.0
    caller[0, 1] = 1e300
    assert np.array_equal(a.entries, kept)
    reference = MatrixOperator(kept)
    assert a.singular_values.tobytes() == reference.singular_values.tobytes()
    assert a.eigenvalues.tobytes() == reference.eigenvalues.tobytes()


def test_the_callers_array_stays_writable():
    caller = np.eye(3, dtype=np.complex128)
    a = MatrixOperator(caller)
    assert caller.flags.writeable and not a.entries.flags.writeable
    caller[1, 1] = 5.0
    assert a.entries[1, 1] == 1.0


def test_operators_the_library_builds_are_read_only_and_checked(tmp_path):
    a, b = hermitian_gaussian(3, 5), ginibre(4, 5)
    path = str(tmp_path / "b.mat")
    save_matrix(b, path)
    built = [a + b, a - b, -a, 2.0 * a, a.matmul(b), op_exp(a), *op_signed_parts(a),
             a, b, wishart(5, 5), load_matrix(path)]
    assert not any(op.entries.flags.writeable for op in built)
    huge = MatrixOperator(np.full((2, 2), 1e308))
    for overflow in (lambda: huge + huge, lambda: huge * 10.0, lambda: huge.matmul(huge)):
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="entries must be finite"):
            overflow()


def test_hermiticity_detection():
    g = np.random.default_rng(0).standard_normal((4, 4)) + 1j * np.random.default_rng(1).standard_normal((4, 4))
    sym = MatrixOperator((g + g.conj().T) / 2.0)
    assert sym.self_adjoint
    skew = MatrixOperator(g + np.diag([0.0, 0.0, 0.0, 1e-3]))
    assert not skew.self_adjoint
    with pytest.raises(ValueError):
        skew.eigenvalues


def test_sampled_hermitian_is_exactly_hermitian():
    a = hermitian_gaussian(5, 8).entries
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
    h = hermitian_gaussian(1, 6)
    g = ginibre(2, 6)
    ops = [h + g, h - g, -h, 2.0 * g, g * 3, h.matmul(g), MatrixOperator(np.eye(6))]
    assert all(op.entries.shape == (6, 6) for op in ops)
    assert h.entries.shape == (6, 6) and math.isfinite(g.tau)
    assert lapack_calls == Counter()


def test_repeated_reads_decompose_at_most_once(lapack_calls):
    g = ginibre(3, 6)
    for _ in range(3):
        assert not g.self_adjoint
        assert g.norm == g.singular_values[0]
        with pytest.raises(ValueError):
            g.eigenvalues
    assert lapack_calls == Counter(svd=1)

    h = hermitian_gaussian(4, 6)
    for _ in range(3):
        assert h.self_adjoint
        h.eigenvalues
    assert lapack_calls == Counter(svd=1, eigh=1)
    for _ in range(3):
        assert h.norm == h.singular_values[0]
    assert lapack_calls == Counter(svd=2, eigh=1)

    # functional calculus first, then the eigenvalues: still one eigh
    k = hermitian_gaussian(5, 6)
    functional_calculus(k, np.exp, matmodel._positive)
    for _ in range(3):
        k.eigenvalues
    assert lapack_calls == Counter(svd=2, eigh=2)


def test_cached_spectra_are_read_only():
    # the cached arrays are shared with every reader
    h = hermitian_gaussian(4, 6)
    functional_calculus(h, np.exp)
    for x in (h.eigenvalues, h.singular_values):
        assert not x.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 0.0


def test_concurrent_first_reads_agree():
    ref = hermitian_gaussian(12, 24)
    fns = (lambda w: w, np.exp)
    expected = [x.entries for x in functional_calculus(ref, *fns)]
    expected_w, expected_s = ref.eigenvalues, ref.singular_values
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            op = MatrixOperator(ref.entries)
            seen = []

            def read():
                results = functional_calculus(op, *fns)
                seen.append((op.self_adjoint, op.eigenvalues, op.singular_values, results))

            threads = [threading.Thread(target=read) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert len(seen) == 4
            for sa, w, s, results in seen:
                assert sa
                assert np.array_equal(w, expected_w)
                assert np.array_equal(s, expected_s)
                for got, want in zip(results, expected):
                    assert got.entries.tobytes() == want.tobytes()
            assert np.allclose(expected[0], ref.entries, atol=1e-12)
    finally:
        sys.setswitchinterval(switch)


def test_composite_check_decomposes_only_what_it_reads(lapack_calls):
    # 13 operators per trial; mu(A) needs one svd, the three hermitian
    # inputs one eigh each, and exact hermiticity needs no svd
    name = "sum-psi-composite"
    run_check(name, 8, 42, 0, SuiteConfig(suites=(name,)).tolerance(name))
    assert lapack_calls == Counter(svd=1, eigh=3)


def test_no_check_decomposes_an_operator_twice(monkeypatch):
    # an operator's entries array is the input of each of its decompositions,
    # so the same array reaching one routine twice is a second decomposition;
    # the lists keep every input alive, so no two of them share an id
    inputs = {"svd": [], "eigh": []}

    def recorded(name, fn):
        def wrapper(a, *args, **kwargs):
            inputs[name].append(a)
            return fn(a, *args, **kwargs)
        return wrapper

    for name in inputs:
        monkeypatch.setattr(matmodel.np.linalg, name, recorded(name, getattr(np.linalg, name)))
    for check in SUITE_NAMES:
        for name in inputs:
            inputs[name].clear()
        run_check(check, 8, 42, 0, SuiteConfig(suites=(check,)).tolerance(check))
        for name, arrays in inputs.items():
            assert len({id(a) for a in arrays}) == len(arrays), (check, name)


def test_decomposition_outside_the_float_range_refuses():
    # finite entries whose singular values and eigenvalues overflow to inf;
    # the matrix is exactly hermitian, so eigh runs without the svd
    a = np.full((2, 2), 1e308)
    with pytest.raises(np.linalg.LinAlgError, match="singular values of the matrix overflow"):
        MatrixOperator(a).singular_values
    with pytest.raises(np.linalg.LinAlgError, match="eigenvalues of the matrix overflow"):
        MatrixOperator(a).eigenvalues


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
    tol = max(matmodel._HERMITICITY_FLOOR, matmodel._HERMITICITY_RTOL * float(sv[0]))
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
    assert hermitian_gaussian(7, 6).self_adjoint
    assert (hermitian_gaussian(8, 6) + hermitian_gaussian(9, 6)).self_adjoint
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
    a = ginibre(3, 12)
    oracle = np.linalg.svd(a.entries, compute_uv=False)
    assert np.array_equal(a.singular_values, oracle)
    assert np.all(np.diff(a.singular_values) <= 0.0)
    assert a.norm == oracle[0]


def test_eigenvalues_match_eigh_oracle():
    # eigvalsh takes a different LAPACK path than eigh, so allow ulp noise
    a = hermitian_gaussian(4, 10)
    oracle = np.linalg.eigvalsh(a.entries)[::-1]
    assert np.allclose(a.eigenvalues, oracle, rtol=0.0, atol=1e-13)
    assert np.all(np.diff(a.eigenvalues) <= 0.0)


def test_tau_is_normalized_trace():
    a = hermitian_gaussian(9, 6)
    assert a.tau == pytest.approx(float(np.trace(a.entries).real) / 6, abs=1e-15)


def test_mu_and_lambda_functions_share_cached_floats():
    a = hermitian_gaussian(2, 8)
    assert np.array_equal(mu_matrix(a).values, a.singular_values)
    assert np.array_equal(lambda_matrix(a).values, a.eigenvalues)


def test_signed_parts_of_lambda_are_the_parts_read_off_the_eigenvalues():
    ops = [hermitian_gaussian(seed, n) for n, seed in ((1, 0), (2, 1), (8, 2), (33, 3), (64, 4))]
    ops += [MatrixOperator(np.diag(d).astype(complex))
            for d in ([0.0, -0.0, 1.0], [-0.0, -0.0], [2.0, -0.0, 0.0, -3.0], [-1.0, -1.0])]
    for a in ops:
        pos, neg = signed_parts(lambda_matrix(a))
        assert pos.values.tobytes() == mu_pos_part_reference(a).values.tobytes()
        assert neg.values.tobytes() == mu_neg_part_reference(a).values.tobytes()


def test_mu_of_hermitian_is_sorted_abs_eigenvalues():
    a = hermitian_gaussian(13, 8)
    assert np.allclose(
        mu_matrix(a).values,
        np.sort(np.abs(a.eigenvalues))[::-1],
        rtol=1e-12,
        atol=1e-13,
    )


# ---- functional calculus ----

def test_parts_decompose_and_are_positive():
    a = hermitian_gaussian(21, 6)
    p, m = op_signed_parts(a)
    assert np.allclose((p - m).entries, a.entries, atol=1e-13)
    assert p.eigenvalues[-1] >= -1e-14
    assert m.eigenvalues[-1] >= -1e-14
    # the parts multiply to zero
    assert float(np.max(np.abs(p.matmul(m).entries))) <= 1e-13


def test_functional_calculus_identity():
    a = hermitian_gaussian(1, 5)
    (b,) = functional_calculus(a, lambda w: w)
    assert np.allclose(b.entries, a.entries, atol=1e-13)


def test_functional_calculus_builds_all_its_functions_from_one_eigh(lapack_calls):
    a = hermitian_gaussian(31, 9)
    parts = functional_calculus(a, matmodel._positive, matmodel._negative, np.exp)
    a.eigenvalues
    assert lapack_calls == Counter(eigh=1)
    # each result is bitwise the same function called with fewer others on a
    # fresh copy: op_signed_parts gives the first two from one eigh
    singles = op_signed_parts(MatrixOperator(a.entries))
    assert lapack_calls == Counter(eigh=2)
    singles += (op_exp(MatrixOperator(a.entries)),)
    assert lapack_calls == Counter(eigh=3)
    for got, single in zip(parts, singles, strict=True):
        assert got.entries.tobytes() == single.entries.tobytes()


def test_no_eigenvector_array_outlives_the_call(monkeypatch):
    refs = []

    class Basis(np.ndarray):
        # views and copies of a basis are recorded; arithmetic on one gives
        # plain arrays, so the results of the calculus are not bases
        def __array_finalize__(self, obj):
            if isinstance(obj, Basis):
                refs.append(weakref.ref(self))

        def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
            def plain(xs):
                return tuple(x.view(np.ndarray) if isinstance(x, Basis) else x for x in xs)
            if out is not None:
                kwargs["out"] = plain(out)
            return getattr(ufunc, method)(*plain(inputs), **kwargs)

    eigh = np.linalg.eigh

    def watched_eigh(a):
        w, v = eigh(a)
        v = v.view(Basis)
        refs.append(weakref.ref(v))
        return w, v

    a = hermitian_gaussian(32, 12)
    expected = [x.entries for x in functional_calculus(MatrixOperator(a.entries), np.exp,
                                                        matmodel._positive)]
    monkeypatch.setattr(matmodel.np.linalg, "eigh", watched_eigh)
    results = functional_calculus(a, np.exp, matmodel._positive)
    a.eigenvalues
    b = hermitian_gaussian(33, 12)
    b.eigenvalues
    # eigh's basis, its reversed view and that view's copy, per decomposition
    assert len(refs) >= 6
    assert all(ref() is None for ref in refs)
    assert [x.entries.tobytes() for x in results] == [x.tobytes() for x in expected]


# ---- inversion flip for products of exponentials ----

def test_product_exponential_inversion_flip():
    # mu(u, e^T e^S) * mu-tilde(1-u, e^-S e^-T) = 1 at cell midpoints
    n = 8
    t_op = hermitian_gaussian(101, n)
    s_op = hermitian_gaussian(102, n)
    prod = op_exp(t_op).matmul(op_exp(s_op))
    inv = op_exp(-1.0 * s_op).matmul(op_exp(-1.0 * t_op))
    mu_p = mu_matrix(prod)
    mu_i = mu_matrix(inv)
    for k in range(n):
        u = (k + 0.5) / n
        mu_i_left = mu_i.values_at([1.0 - u], left=True)[0]
        assert mu_p(u) * mu_i_left == pytest.approx(1.0, rel=1e-10)


# ---- the Fuglede–Kadison determinant: det_phi under tau ----

TAU = integral_trace(1.0)


def _fk_det_eps(a: MatrixOperator, eps: float) -> float:
    return det_phi(GridFn(a.singular_values + eps), TAU)


def test_fk_det_eps_validates_and_decreases_to_det():
    a = ginibre(77, 6)
    cmp = eps_limit_comparison(a, TAU)
    # the comparison shifts only by positive eps, and its values are the
    # eps-shifted FK determinants of the grid formula
    assert all(e > 0.0 for e in cmp.epsilons)
    assert all(e > f for e, f in zip(cmp.epsilons, cmp.epsilons[1:]))
    for e, v in zip(cmp.epsilons, cmp.values):
        assert v == pytest.approx(_fk_det_eps(a, e), rel=1e-13)
    vals = [_fk_det_eps(a, 2.0 ** -k) for k in range(4, 44, 4)]
    assert all(x >= y for x, y in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(det_phi(a, TAU), rel=1e-9)


def test_fk_det_eps_on_singular_matrix_decays():
    a = MatrixOperator(np.diag((2.0, 1.0) + (0.0,) * 6))
    assert det_phi(a, TAU) == 0.0
    # three quarters of the spectrum vanishes, so det_eps ~ eps^(3/4)
    assert _fk_det_eps(a, 2.0 ** -40) == pytest.approx((2.0 * 1.0 * (2.0 ** -40) ** 6) ** 0.125, rel=1e-12)


def test_diagonal_ensemble_realizes_spectrum():
    # diagonal inputs are built directly; their eigenvalues are the spectrum
    a = MatrixOperator(np.diag([3.0, 1.0, -1.0, -2.0]))
    assert np.array_equal(a.eigenvalues, [3.0, 1.0, -1.0, -2.0])
    b = MatrixOperator(np.diag([-2.0, 1.0, 3.0, -1.0]))
    assert np.array_equal(b.eigenvalues, [3.0, 1.0, -1.0, -2.0])
    assert np.array_equal(b.singular_values, [3.0, 2.0, 1.0, 1.0])


# ---- seeded samplers ----

def _recipe(seed: int, n: int, scale: float) -> np.ndarray:
    """The Gaussian draw written out: two standard normal blocks, then the scale."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return g * (scale / math.sqrt(2.0 * n))


def _same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    """Same layout and the same 64-bit words, so signed zeros count too."""
    return x.strides == y.strides and np.array_equal(x.view(np.uint64), y.view(np.uint64))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=1, max_value=64))
@example(3, 1)
@example(3, 7)
@example(3, 64)
def test_samplers_match_the_written_out_recipe_bytewise(seed, n):
    # the draws are built in place; these are the expressions they replaced
    g = _recipe(seed, n, 1.0)
    assert _same_bits(ginibre(seed, n).entries, g)
    w = g @ g.conj().T
    assert _same_bits(wishart(seed, n).entries, (w + w.conj().T) / 2.0)
    g = _recipe(seed, n, math.sqrt(2.0))
    assert _same_bits(hermitian_gaussian(seed, n).entries, (g + g.conj().T) / 2.0)


def test_psd_builds_one_operator(monkeypatch):
    # the Ginibre factor is drawn as an array, not read off an operator
    built = []
    init = MatrixOperator.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(MatrixOperator, "__init__", counting_init)
    op = wishart(3, 7)
    assert built == [op]


def test_sampling_is_deterministic():
    for sampler in (ginibre, hermitian_gaussian):
        a = sampler(12, 4)
        assert np.array_equal(a.entries, sampler(12, 4).entries)
        assert not np.array_equal(a.entries, sampler(13, 4).entries)


def test_haar_unitary_is_unitary():
    u = haar_unitary(8, np.random.default_rng(17))
    assert np.allclose(u @ u.conj().T, np.eye(8), atol=1e-12)


# ---- persistence ----

def test_save_load_roundtrip_is_exact(tmp_path):
    a = ginibre(91, 7)
    path = str(tmp_path / "m.mat")
    save_matrix(a, path)
    b = load_matrix(path)
    assert np.array_equal(a.entries, b.entries)


# Finite doubles where a decimal round trip is hardest: signed zeros, the
# subnormal range and its edges, the ends of the float range.
_PARTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     2.225073858507201e-308, -1e-310, 1e308, -1e308,
                     1.7976931348623157e308, -1.7976931348623157e308)),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.tuples(_PARTS, _PARTS), min_size=n * n, max_size=n * n)))
def test_save_load_roundtrip_is_bitwise_over_random_entries(tmp_path_factory, pairs):
    n = math.isqrt(len(pairs))
    a = MatrixOperator(np.array([complex(re, im) for re, im in pairs]).reshape(n, n))
    path = str(tmp_path_factory.mktemp("roundtrip") / "m.mat")
    save_matrix(a, path)
    b = load_matrix(path)
    # bytes, not values: -0.0 == 0.0 would hide a lost sign
    assert b.entries.tobytes() == a.entries.tobytes()


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
        t_op = hermitian_gaussian(300 + seed, n)
        s_op = hermitian_gaussian(400 + seed, n)
        t_pos, s_pos = op_signed_parts(t_op)[0], op_signed_parts(s_op)[0]
        mu_sum = mu_matrix(t_pos + s_pos)
        parts = mu_matrix(t_pos) + mu_matrix(s_pos)
        for k in range(1, n + 1):
            t = k / n
            assert integrate(mu_sum, 0.0, t) <= integrate(parts, 0.0, t) + 1e-12
