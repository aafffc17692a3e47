"""Trace functionals: the integral family and the dyadic singular family."""

import dataclasses
import math

import numpy as np
import pytest

from specdet import traces
from specdet.dets import eps_limit_comparison
from specdet.matmodel import MatrixOperator, ginibre, haar_unitary, hermitian_gaussian
from specdet.spaces import (
    _PSI_GRID,
    DivergenceError,
    PowerTail,
    PsiFn,
    QuadratureError,
    SpectralProfile,
    constant_profile,
    parse_profile_spec,
    parse_space,
    power_profile,
    profile_integral,
    psi_log,
    psi_prime_profile,
)
from specdet.stepfn import GridFn, MonotoneStepFn, integrate
from specdet.traces import (
    NonConvergentError,
    TraceFunctional,
    eval_functional,
    eval_on_operator,
    integral_trace,
    parse_trace,
    singular_trace,
)

_LN2 = math.log(2.0)
_K_TOP = 59


def _oscillating_profile() -> SpectralProfile:
    """Dyadic staircase whose head-integral over psi ratio never settles.

    On [2^-(k+1), 2^-k) the value is psi'(2^-k) boosted by 1.5 on even k >= 4.
    The boost alternates block weights, so the dyadic ratios drift by far more
    than the convergence window tolerates while the function stays monotone.
    """
    def weight(k: int) -> float:
        return 1.5 if (k >= 4 and k % 2 == 0) else 1.0

    def level(k: int) -> float:
        t = 2.0 ** -k
        return weight(k) / (t * (2.0 - math.log(t)) ** 2)

    vals = [level(k) for k in range(_K_TOP + 1)]
    block = [vals[k] * 2.0 ** -(k + 1) for k in range(_K_TOP + 1)]
    # suffix[k] = integral over (2^-(k+1), 2^-k) and everything above... summed tail
    suffix = [0.0] * (_K_TOP + 2)
    for k in range(_K_TOP, -1, -1):
        suffix[k] = suffix[k + 1] + block[k]
    floor_val = vals[_K_TOP]
    floor_edge = 2.0 ** -(_K_TOP + 1)

    def cell(t: float) -> int:
        return min(int(math.floor(-math.log2(t))), _K_TOP)

    def evaluator(t: float) -> float:
        return vals[cell(t)]

    def antiderivative(t: float) -> float:
        if t <= floor_edge:
            return floor_val * t
        k = cell(t)
        lo = 2.0 ** -(k + 1)
        return suffix[k + 1] + floor_val * floor_edge + vals[k] * (t - lo)

    return SpectralProfile(
        name="alternating-dyadic-staircase",
        evaluator=evaluator,
        tail_at_0=PowerTail(1.0, -2.0),
        antiderivative=antiderivative,
    )


# ---- construction and parsing ----

def test_trace_functional_validation():
    with pytest.raises(ValueError):
        TraceFunctional(kind="bogus")
    with pytest.raises(ValueError):
        integral_trace(-1.0)
    with pytest.raises(ValueError):
        integral_trace(math.inf)
    with pytest.raises(ValueError):
        TraceFunctional(kind="singular", psi=None)
    # a bare callable has passed no audit
    with pytest.raises(ValueError, match="needs a psi function"):
        TraceFunctional(kind="singular", psi=math.sqrt)


@pytest.mark.parametrize("name, fn, message", [
    ("neg", lambda t: -1.0, "must be finite and positive"),
    ("convex", lambda t: t * t, "must be concave"),
])
def test_singular_trace_audits_its_psi(name, fn, message):
    # an unaudited negative psi made the "positive" trace of [1, 0.5] negative;
    # the PsiFn refuses when it is made, before any trace can take it
    with pytest.raises(ValueError, match=message):
        singular_trace(PsiFn(name, fn))
    with pytest.raises(ValueError, match=message):
        TraceFunctional("singular", psi=PsiFn(name, fn))


def test_trace_names():
    assert integral_trace(1.0).name == "integral:1"
    assert integral_trace(2.5).name == "integral:2.5"
    assert singular_trace().name == "singular:psi-log"


def test_parse_trace():
    assert parse_trace("integral").c == 1.0
    assert parse_trace("integral:3").c == 3.0
    assert parse_trace("INTEGRAL:0.5").c == 0.5
    assert parse_trace("singular:psi-log").kind == "singular"
    for bad in ("", "weird", "integral:x", "integral:-1", "singular:other"):
        with pytest.raises(ValueError):
            parse_trace(bad)


# ---- integral functional on step functions ----

def test_integral_trace_is_scaled_mean():
    # power-of-two grid keeps every width exact, so the value is the exact mean
    v = np.array([2.0, -3.0, 1.0, 0.0])
    f = GridFn(v)
    assert eval_functional(integral_trace(1.0), f) == 0.0
    g = GridFn(np.abs(v))
    assert eval_functional(integral_trace(1.0), g) == 1.5
    assert eval_functional(integral_trace(2.0), g) == 3.0


def test_integral_trace_rearrangement_invariance():
    rng = np.random.default_rng(5)
    v = rng.random(64)
    a = eval_functional(integral_trace(1.0), GridFn(v))
    b = eval_functional(integral_trace(1.0), GridFn(np.sort(v)[::-1]))
    assert a == b


def test_signed_eval_matches_part_difference():
    rng = np.random.default_rng(9)
    v = rng.standard_normal(32)
    phi = integral_trace(1.0)
    whole = eval_functional(phi, GridFn(v))
    pos = eval_functional(phi, GridFn(np.clip(v, 0.0, None)))
    neg = eval_functional(phi, GridFn(np.clip(-v, 0.0, None)))
    assert whole == pytest.approx(pos - neg, abs=1e-15)


def test_negative_grid_evaluates_to_the_part_difference():
    # phi(f) = phi(f+) - phi(f-); on two cells of width 1/2 every term is exact
    phi = integral_trace(1.0)
    f = GridFn([1.0, -0.5])
    assert eval_functional(phi, f) == 0.25
    assert eval_functional(phi, f) == (eval_functional(phi, GridFn([1.0, 0.0]))
                                       - eval_functional(phi, GridFn([0.0, 0.5])))
    assert eval_functional(phi, -f) == -0.25


def test_eval_additivity_on_grids():
    rng = np.random.default_rng(31)
    f = GridFn(rng.standard_normal(16))
    g = GridFn(rng.standard_normal(16))
    phi = integral_trace(1.0)
    assert eval_functional(phi, f + g) == pytest.approx(
        eval_functional(phi, f) + eval_functional(phi, g), abs=1e-14
    )


def test_integral_trace_on_profile():
    assert eval_functional(integral_trace(1.0), power_profile(0.75)) == 4.0
    assert eval_functional(integral_trace(0.5), power_profile(0.75)) == 2.0


# The seven profile lines of the det-mix benchmark.
_DET_MIX_PROFILES = (
    "name=psi-prime",
    "name=exp-neg-psi-prime-flip scale=1",
    "name=exp-neg-psi-prime-flip scale=2",
    "name=projection kernel=0.5",
    "name=projection kernel=0.25",
    "kind=power a=0.75",
    "kind=power a=1 b=-2",
)


def _outcome(fn, *args):
    try:
        return fn(*args).hex()
    except (DivergenceError, QuadratureError) as exc:  # the same refusal, or none
        return f"{type(exc).__name__}: {exc}"


def test_integral_trace_is_c_times_the_head_integral_at_one():
    profiles = []
    for spec in _DET_MIX_PROFILES:
        p = parse_profile_spec(spec)
        profiles += [q for q in (p, p.log_plus, p.log_minus) if q is not None]
    rng = np.random.default_rng(2024)
    grids = [MonotoneStepFn(np.sort(rng.random(n) * scale)[::-1])
             for n in (1, 2, 7, 64, 257) for scale in (1e-3, 1.0, 3e5)]
    grids.append(GridFn(np.zeros(5)))
    for c in (1.0, 2.5, 0.0, 1e-7):
        phi = integral_trace(c)
        for p in profiles:
            assert _outcome(eval_functional, phi, p) == _outcome(
                lambda q: c * profile_integral(q, 0.0, 1.0), p), (c, p.name)
        for g in grids:
            assert eval_functional(phi, g).hex() == (c * integrate(g, 0.0, 1.0)).hex()


def test_integral_trace_of_a_non_integrable_profile_refuses():
    with pytest.raises(DivergenceError, match="not integrable"):
        eval_functional(integral_trace(1.0), power_profile(1.5))


# ---- integral functional on operators ----

def test_integral_trace_recovers_tau():
    phi = integral_trace(1.0)
    worst = 0.0
    for seed in range(40):
        a = hermitian_gaussian(seed, 24)
        worst = max(worst, abs(eval_on_operator(phi, a) - a.tau))
    assert worst <= 1e-12


def test_integral_trace_unitary_conjugation_invariance():
    phi = integral_trace(1.0)
    a = hermitian_gaussian(7, 32)
    u = haar_unitary(32, np.random.default_rng(8))
    b = MatrixOperator(u @ a.entries @ u.conj().T)
    assert abs(eval_on_operator(phi, b) - eval_on_operator(phi, a)) <= 1e-10


def test_symmetric_spectrum_traces_to_zero():
    a = MatrixOperator(np.diag([2.0, 1.0, -1.0, -2.0]))
    assert eval_on_operator(integral_trace(1.0), a) == 0.0


def test_eval_on_operator_rejections():
    g = ginibre(0, 4)
    with pytest.raises(ValueError):
        eval_on_operator(integral_trace(1.0), g)  # not self-adjoint
    h = hermitian_gaussian(0, 4)
    with pytest.raises(ValueError):
        eval_on_operator(singular_trace(), h)
    with pytest.raises(TypeError):
        eval_on_operator(integral_trace(1.0), GridFn([1.0]))


def _per_part_reference(phi, a):
    """phi(mu(a+)) - phi(mu(a-)) from the cached eigenvalues, part by part."""
    w = a.eigenvalues
    pos = MonotoneStepFn(np.clip(w, 0.0, None))
    neg = MonotoneStepFn(np.clip(-w, 0.0, None)[::-1])
    return traces._eval_nonincreasing(phi, pos) - traces._eval_nonincreasing(phi, neg)


def test_eval_on_operator_equals_the_per_part_split_bit_for_bit():
    ops = [hermitian_gaussian(i, 2 + (126 * i) // 199) for i in range(200)]
    ops += [MatrixOperator(np.diag(d).astype(complex))
            for d in ([0.0, -0.0, 1.0], [-0.0, -0.0], [2.0, -0.0, 0.0, -3.0])]
    for c in (1.0, 2.5, 0.0):
        phi = integral_trace(c)
        for a in ops:
            assert eval_on_operator(phi, a).hex() == _per_part_reference(phi, a).hex()


# ---- singular functional ----

def test_singular_trace_exact_on_psi_prime():
    # head integral of psi' is psi itself, so every dyadic ratio is exactly 1
    assert eval_functional(singular_trace(), psi_prime_profile()) == 1.0
    assert eval_functional(singular_trace(), psi_prime_profile().rescale(3.0)) == 3.0


def test_singular_trace_vanishes_on_bounded_grids():
    phi = singular_trace()
    worst = 0.0
    for seed in range(20):
        v = np.random.default_rng(1000 + seed).random(48) * 5.0
        worst = max(worst, abs(eval_functional(phi, GridFn(v))))
    assert worst <= 1e-6


def test_singular_trace_vanishes_on_identity_matrix_profile():
    # log of the identity spectrum is the zero grid
    assert eval_functional(singular_trace(), GridFn(np.zeros(8))) == 0.0


def test_singular_trace_nonconvergent_fixture():
    profile = _oscillating_profile()
    phi = singular_trace()
    with pytest.raises(NonConvergentError) as exc:
        eval_functional(phi, profile)
    ratios = exc.value.values
    assert len(ratios) == 33  # k = 8..40
    window = ratios[-5:]
    assert max(window) - min(window) > 1e-3  # far past the 1e-6 gate
    assert all(math.isfinite(r) for r in ratios)


def test_power_one_minus_two_takes_psi_prime_values():
    # t^-1 (2 - log t)^-2 is psi'; its closed-form head makes both traces exact
    p = power_profile(1.0, -2.0)
    assert eval_functional(integral_trace(1.0), p) == 0.5
    assert abs(eval_functional(singular_trace(), p) - 1.0) <= 1e-12


def test_singular_trace_refuses_an_inaccurate_head_integral():
    # quad warns at the first window point, 2^-36; without the check the
    # window's ratios come out 4% to 4.5% below the exact 1 and the scheme
    # refuses with NonConvergentError instead
    bare = dataclasses.replace(power_profile(1.0, -2.0), antiderivative=None)
    with pytest.raises(QuadratureError, match=r"on \(0\.0, 1\.4551915228366852e-11\)"):
        eval_functional(singular_trace(), bare)


def test_singular_trace_statement_carries_spread():
    try:
        eval_functional(singular_trace(), _oscillating_profile())
    except NonConvergentError as exc:
        assert "did not stabilize" in str(exc)
    else:
        pytest.fail("expected NonConvergentError")


_WINDOW = tuple(2.0 ** -k for k in range(36, 41))


def _nan_psi(nan_at):
    """psi_log, but NaN at the points nan_at accepts; its audit grid holds none of the window's."""
    fn = psi_log().fn
    return PsiFn("nan-psi", lambda t: math.nan if nan_at(t) else fn(t))


@pytest.mark.parametrize("nan_at", [
    lambda t: t in _WINDOW,  # the whole window k = 36..40
    lambda t: t == 2.0 ** -37,  # one NaN among finite ratios: max and min read past it
], ids=["window", "one-ratio"])
def test_singular_trace_refuses_a_non_finite_ratio(nan_at):
    # the NaN comes from psi: a NaN integral refuses before any ratio is formed
    assert not set(_WINDOW) & set(_PSI_GRID)
    with pytest.raises(NonConvergentError, match="last window holds a non-finite ratio$") as exc:
        eval_functional(singular_trace(_nan_psi(nan_at)), constant_profile(1.0))
    assert "spread" not in str(exc.value)
    assert len(exc.value.values) == 33 and any(map(math.isnan, exc.value.values))


def test_oscillating_fixture_is_honest():
    # the fixture itself must be a valid profile: audited monotone and exactly integrable
    p = _oscillating_profile()
    grid = np.geomspace(1e-9, 1.0 - 1e-9, 400)
    vals = np.array([p(float(t)) for t in grid])
    assert np.all(np.diff(vals) <= 1e-12 * (1.0 + np.abs(vals[1:])))
    from scipy.integrate import quad
    for lo, hi in ((0.3, 0.9), (0.01, 0.5), (2.0 ** -12, 2.0 ** -6)):
        oracle, err = quad(p.evaluator, lo, hi, epsabs=1e-13, epsrel=1e-11, limit=400,
                           points=None)
        assert p.antiderivative(hi) - p.antiderivative(lo) == pytest.approx(oracle, rel=1e-7)


# ---- window-first evaluation against the eager scheme ----

def _eager_dyadic_limit(phi, f):
    """Reference: every dyadic ratio in k order, then the window test."""
    ratios = []
    for k in range(8, 41):
        t_k = 2.0 ** (-k)
        ratios.append(traces._head_integral(f, t_k) / phi.psi(t_k))
    window = ratios[-5:]
    if not all(math.isfinite(r) for r in window):
        raise NonConvergentError(
            f"dyadic scheme for {phi.name} did not stabilize: last window "
            "holds a non-finite ratio",
            ratios,
        )
    if max(window) - min(window) > 1e-6:
        raise NonConvergentError(
            f"dyadic scheme for {phi.name} did not stabilize: last window "
            f"spread {max(window) - min(window):.3e} exceeds 1.0e-06",
            ratios,
        )
    return window[-1]


def _refusal(phi, f, limit):
    with pytest.raises(NonConvergentError) as exc:
        limit(phi, f)
    return str(exc.value), exc.value.values


@pytest.fixture
def head_calls(monkeypatch):
    calls = []
    real = traces._head_integral

    def counted(f, t):
        calls.append(t)
        return real(f, t)

    monkeypatch.setattr(traces, "_head_integral", counted)
    return calls


def test_converged_evaluation_reads_only_the_window(head_calls):
    phi = singular_trace()
    assert eval_functional(phi, psi_prime_profile()) == 1.0
    assert head_calls == [2.0 ** -k for k in range(36, 41)]
    grid = GridFn([3.0, 1.0, 0.5])
    expected = _eager_dyadic_limit(phi, grid)
    head_calls.clear()
    assert eval_functional(phi, grid) == expected
    # a grid is evaluated as phi(f+) - phi(f-): each part reads its window only
    assert head_calls == [2.0 ** -k for k in range(36, 41)] * 2


def test_refusal_evaluates_every_dyadic_point_once(head_calls):
    phi = singular_trace()
    with pytest.raises(NonConvergentError):
        eval_functional(phi, _oscillating_profile())
    assert sorted(head_calls) == sorted(2.0 ** -k for k in range(8, 41))


@pytest.mark.parametrize("f", [
    _oscillating_profile(),
    # a large head cell: the ratios 1e6 * 2^-k / psi(2^-k) still spread
    # 3.7e-4 across the window k = 36..40
    GridFn([1e6, 1.0]),
], ids=["oscillating", "grid"])
def test_refusal_matches_eager_scheme(f):
    phi = singular_trace()
    message, values = _refusal(phi, f, traces._dyadic_limit)
    assert (message, values) == _refusal(phi, f, _eager_dyadic_limit)
    assert len(values) == 33


def _det_outcome(x, space):
    try:
        cmp = eps_limit_comparison(x, singular_trace(), space)
    except NonConvergentError as exc:
        return type(exc).__name__, str(exc), [v.hex() for v in exc.values]
    except ValueError as exc:  # domain, membership and unsupported-profile refusals
        return type(exc).__name__, str(exc)
    return cmp.det_value.hex(), cmp.branch, [v.hex() for v in cmp.values], cmp.limit


@pytest.mark.parametrize("spec", [
    "name=psi-prime",
    "name=exp-neg-psi-prime-flip scale=1",
    "name=exp-neg-psi-prime-flip scale=2",
    "name=projection kernel=0.5",
    "name=projection kernel=0.25",
    "kind=power a=0.75",
    "kind=power a=1 b=-2",
])
def test_eps_comparison_matches_eager_scheme(spec, monkeypatch):
    x = parse_profile_spec(spec)
    spaces = [parse_space(s) for s in ("L1", "L2", "Lp:0.5", "Linf", "Llog", "marcinkiewicz")]
    window_first = [_det_outcome(x, space) for space in spaces]
    monkeypatch.setattr(traces, "_dyadic_limit", _eager_dyadic_limit)
    assert window_first == [_det_outcome(x, space) for space in spaces]
