"""Property tests of the step-function layer against its references.

``integrate`` must return the bits of the per-cell reference loop,
``integrals`` those of the loop per interval, ``psi_values`` those of
per-point ``psi_eval``, and ``GridFn.values_at`` the values of per-point
``__call__``, on grids of 1 to 512 cells, on both sides of a node.  Points
are drawn where the rules can drift apart: on nodes, one ulp either side of
a node, at midpoints and quarter points (k/(2n)), at the edges of the node
snap window, and at random.
A trace on a signed grid must return the bits (or the refusal) of the clip,
rearrange and subtract formula it replaced, under integral:c and singular.
The remaining properties are those of the exact calculus itself: refinement
to the least common multiple, additivity at split points, invariance under
decreasing rearrangement, and serial against threaded runs of the suites.
"""

import math
import os
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specdet.stepfn import (
    GridFn,
    _SNAP,
    integrals,
    integrate,
    psi_eval,
    psi_values,
    signed_parts,
)
from specdet.traces import NonConvergentError, eval_functional, integral_trace, singular_trace
from specdet.verify import SUITE_NAMES, SuiteConfig, rows_to_csv, run_suite
from stepfn_reference import integrate_reference, signed_eval_reference, values_at_reference

_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)
_EPS = sys.float_info.epsilon


def _point(n):
    """A point of [0, 1] where the grid of n cells is hardest to get right."""
    node = st.integers(0, n)
    return st.one_of(
        node.map(lambda k: k / n),
        st.tuples(node, st.sampled_from((-math.inf, math.inf))).map(
            lambda p: math.nextafter(p[0] / n, p[1])),
        st.integers(0, n - 1).map(lambda k: (k + 0.5) / n),
        st.integers(0, 2 * n).map(lambda k: k / (2 * n)),
        st.tuples(node, st.sampled_from((-1.5, -1.0, -0.5, 0.5, 1.0, 1.5))).map(
            lambda p: (p[0] + p[1] * _SNAP) / n),
        st.floats(0.0, 1.0),
    ).filter(lambda t: 0.0 <= t <= 1.0)


def _values(rng, n, kind):
    if kind == "normal":
        return rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
    if kind == "integers":
        return rng.integers(-3, 4, n).astype(float)
    # signed zeros between small values
    return np.where(rng.random(n) < 0.5, -0.0, rng.standard_normal(n))


@st.composite
def _grids(draw, max_cells=512):
    n = draw(st.integers(1, max_cells))
    kind = draw(st.sampled_from(("normal", "integers", "zeros")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return GridFn(_values(rng, n, kind))


@st.composite
def _grid_and_bounds(draw, size=2):
    """A grid and up to eight sorted tuples of points on it."""
    f = draw(_grids())
    point = _point(f.n_cells)
    tuples = draw(st.lists(st.tuples(*[point] * size), min_size=1, max_size=8))
    return f, [tuple(sorted(p)) for p in tuples]


@st.composite
def _grid_and_points(draw):
    f = draw(_grids())
    ts = draw(st.lists(_point(f.n_cells).filter(lambda t: 0.0 < t < 1.0), max_size=40))
    return f, ts


# ---- identity with the references ----

@_SETTINGS
@given(_grid_and_bounds())
def test_integrate_matches_reference_bits(case):
    f, pairs = case
    # several queries per grid; each call builds the full-cell terms afresh
    for a, b in pairs:
        assert integrate(f, a, b).hex() == integrate_reference(f, a, b).hex(), (a, b)


def test_integrate_matches_reference_on_all_structured_pairs():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 7, 12, 16):
        f = GridFn(rng.standard_normal(n))
        pts = sorted({p for k in range(n + 1) for p in (
            k / n, k / (2 * n), math.nextafter(k / n, 0.0), math.nextafter(k / n, 1.0),
            (k + _SNAP) / n, (k - _SNAP) / n,
        ) if 0.0 <= p <= 1.0})
        for i, a in enumerate(pts):
            for b in pts[i:]:
                assert integrate(f, a, b).hex() == integrate_reference(f, a, b).hex(), (n, a, b)


@st.composite
def _grid_and_intervals(draw):
    """A grid of 1 to 70 cells and sorted pairs on it, (0, 1) and an a == b among them."""
    f = draw(_grids(max_cells=70))
    point = _point(f.n_cells)
    pairs = draw(st.lists(st.tuples(point, point).map(sorted), max_size=30))
    a = draw(point)
    return f, draw(st.permutations([*pairs, (0.0, 1.0), (a, a)]))


@_SETTINGS
@given(_grid_and_intervals())
def test_integrals_match_the_reference_per_interval(case):
    f, pairs = case
    got = integrals(f, [a for a, _ in pairs], [b for _, b in pairs])
    assert [x.hex() for x in got] == [integrate_reference(f, a, b).hex() for a, b in pairs]


@_SETTINGS
@given(_grids(max_cells=70), st.data())
def test_psi_values_match_pointwise_psi_eval(f, data):
    point = _point(f.n_cells).filter(lambda t: t > 0.0)
    ts = data.draw(st.permutations([*data.draw(st.lists(point, max_size=30)), 0.5, 1.0]))
    got = [x.hex() for x in psi_values(f, ts)]
    assert got == [psi_eval(f, t).hex() for t in ts]
    assert got == [(integrate_reference(f, t, 1.0 - t) / t if t < 0.5 else 0.0).hex()
                   for t in ts]


@pytest.mark.parametrize("los, his", [
    ([0.1, 0.6, 0.9], [0.2, 0.5, 0.3]),
    ([0.0, -0.5], [1.0, 0.5]),
    ([0.25, 0.5], [0.5, 1.5]),
    ([0.25, math.nan], [0.5, 0.5]),
])
def test_integrals_raise_the_message_of_the_first_bad_interval(los, his):
    f = GridFn([1.0, 2.0, 3.0])
    bad = next((a, b) for a, b in zip(los, his) if not 0.0 <= a <= b <= 1.0)
    with pytest.raises(ValueError) as single:
        integrate(f, *bad)
    assert str(single.value) == f"integration bounds {bad} must satisfy 0 <= a <= b <= 1"
    with pytest.raises(ValueError) as batched:
        integrals(f, los, his)
    assert str(batched.value) == str(single.value)


@pytest.mark.parametrize("ts, bad", [([0.25, 0.0, -1.0], 0.0), ([0.75, 1.5], 1.5),
                                     ([math.nan], math.nan)])
def test_psi_values_raise_the_message_of_the_first_bad_point(ts, bad):
    f = GridFn([1.0, 2.0, 3.0])
    for call in (lambda: psi_eval(f, bad), lambda: psi_values(f, ts)):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == f"transform argument {bad} outside (0, 1]"


@_SETTINGS
@given(_grid_and_points())
def test_values_at_matches_pointwise_calls(case):
    f, ts = case
    for left in (False, True):
        batched = f.values_at(ts, left=left)
        assert batched.dtype == np.float64 and batched.shape == (len(ts),)
        expected = values_at_reference(f, ts, left=left)
        assert [v.hex() for v in batched.tolist()] == [v.hex() for v in expected], left


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.1, math.nan])
def test_values_at_rejects_what_call_rejects(bad):
    f = GridFn([3.0, 2.0, 1.0])
    with pytest.raises(ValueError, match=r"outside \(0, 1\)"):
        f(bad)
    with pytest.raises(ValueError, match=r"outside \(0, 1\)"):
        f.values_at([0.5, bad])


def _outcome(evaluate, phi, f):
    """The bits of evaluate(phi, f), or the refusal it raises with its sampled tail."""
    try:
        return evaluate(phi, f).hex()
    except NonConvergentError as exc:
        return str(exc), [v.hex() for v in exc.values]


@_SETTINGS
@given(_grids(), st.sampled_from((0.0, 1.0, 2.5, 1e-3)))
def test_eval_functional_matches_the_clip_rearrange_subtract_formula(f, c):
    for phi in (integral_trace(c), singular_trace()):
        assert _outcome(eval_functional, phi, f) == _outcome(signed_eval_reference, phi, f)


# ---- properties of the exact calculus ----

@_SETTINGS
@given(_grids(max_cells=64), _grids(max_cells=64))
def test_refinement_to_the_lcm(f, g):
    m = math.lcm(f.n_cells, g.n_cells)
    h = f + g
    assert h.n_cells == m
    assert np.array_equal(h.values, f.resampled(m) + g.resampled(m))
    mids = (np.arange(m) + 0.5) / m
    assert np.array_equal(h.values_at(mids), f.values_at(mids) + g.values_at(mids))
    # the same function on a finer grid: node rounding moves each cell width
    # by at most one eps, so the integrals agree to (m + n + 2) eps relative
    fine = GridFn(f.resampled(m))
    assert np.array_equal(fine.values_at(mids), f.values_at(mids))
    scale = integrate(GridFn(np.abs(f.values)), 0.0, 1.0)
    assert abs(integrate(fine, 0.0, 1.0) - integrate(f, 0.0, 1.0)) <= (m + f.n_cells + 2) * _EPS * scale


@_SETTINGS
@given(_grid_and_bounds(size=3))
def test_integrate_is_additive_at_split_points(case):
    f, triples = case
    abs_f = GridFn(np.abs(f.values))
    vmax = float(np.max(np.abs(f.values)))
    for a, b, c in triples:
        whole = integrate(f, a, c)
        split = integrate(f, a, b) + integrate(f, b, c)
        # each side is correctly rounded, each partial width is rounded once,
        # and a bound within one ulp of a node may drop a sliver of one cell
        assert abs(whole - split) <= 4 * _EPS * (integrate(abs_f, a, c) + vmax), (a, b, c)


@_SETTINGS
@given(_grids())
def test_integral_is_invariant_under_the_rearrangement_of_signed_parts(f):
    n = f.n_cells
    abs_f = GridFn(np.abs(f.values))
    before = integrate(abs_f, 0.0, 1.0)
    after = integrate(signed_parts(abs_f)[0], 0.0, 1.0)
    if n & (n - 1) == 0:
        # every cell width is exactly 1/n, so both sums have the same terms
        assert after.hex() == before.hex()
    else:
        # each width (k+1)/n - k/n is off by at most one eps from 1/n
        assert abs(after - before) <= (n + 2) * _EPS * before


# ---- threads ----

def test_concurrent_integrate_on_a_shared_grid_matches_reference():
    rng = np.random.default_rng(11)
    values = rng.standard_normal(509)
    queries = [tuple(sorted(rng.random(2))) for _ in range(200)]
    expected = [integrate_reference(GridFn(values), a, b) for a, b in queries]
    f = GridFn(values)
    start = threading.Barrier(4)
    results = [None] * 4

    def work(slot):
        start.wait(timeout=30)
        results[slot] = [integrate(f, a, b) for a, b in queries]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    for got in results:
        assert [x.hex() for x in got] == [x.hex() for x in expected]


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 16), trials=st.integers(1, 3), seed=st.integers(0, 2**31),
       suites=st.lists(st.sampled_from(SUITE_NAMES), min_size=1, max_size=9, unique=True))
def test_serial_and_threaded_runs_give_the_same_bytes(n, trials, seed, suites):
    config = SuiteConfig(suites=tuple(suites), n=n, trials=trials, seed=seed)
    env = {k: v for k, v in os.environ.items() if k != "SPECDET_THREADS"}
    with mock.patch.dict(os.environ, env, clear=True):
        serial = rows_to_csv(run_suite(config).rows)
    with mock.patch.dict(os.environ, {"SPECDET_THREADS": "2"}):
        threaded = rows_to_csv(run_suite(config).rows)
    assert threaded == serial
