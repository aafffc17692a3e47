"""Step function layer: grids, one-sided limits, exact integrals, transforms."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from specdet.stepfn import (
    GridFn,
    MonotoneStepFn,
    decreasing_rearrangement,
    dilate2,
    integrate,
    psi_eval,
)


# ---- construction and validation ----

def test_gridfn_rejects_bad_shapes():
    with pytest.raises(ValueError):
        GridFn([])
    with pytest.raises(ValueError):
        GridFn([[1.0, 2.0]])
    with pytest.raises(ValueError):
        GridFn([1.0, math.nan])
    with pytest.raises(ValueError):
        GridFn([1.0, math.inf])


def test_gridfn_values_are_read_only():
    f = GridFn([3.0, 1.0])
    with pytest.raises(ValueError):
        f.values[0] = 5.0


def test_gridfn_cell_cap():
    GridFn(np.zeros(1 << 20))
    with pytest.raises(ValueError):
        GridFn(np.zeros((1 << 20) + 1))


def test_monotone_rejects_increasing():
    MonotoneStepFn([2.0, 2.0, 1.0])
    with pytest.raises(ValueError):
        MonotoneStepFn([1.0, 2.0])


# ---- evaluation and one-sided limits ----

def test_call_interior_points():
    f = GridFn([3.0, 2.0, 1.0])
    assert f(0.1) == 3.0
    assert f(0.5) == 2.0
    assert f(0.9) == 1.0


def test_call_rejects_endpoints():
    f = GridFn([1.0])
    for t in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            f(t)


def test_right_convention_at_nodes():
    f = GridFn([3.0, 2.0, 1.0])
    assert f(1.0 / 3.0) == 2.0
    assert f(2.0 / 3.0) == 1.0


def test_left_convention_at_nodes():
    g = GridFn([3.0, 2.0, 1.0])
    assert g.values_at([1.0 / 3.0, 2.0 / 3.0], left=True).tolist() == [3.0, 2.0]
    # interior points are unaffected by the flag
    assert g.values_at([0.5], left=True).tolist() == [2.0]


def test_node_snap_window():
    # 1/3 is not an exact float; evaluation within 1e-9 of a node snaps to it
    f = GridFn([3.0, 2.0, 1.0])
    assert f(1.0 / 3.0 + 1e-10) == 2.0
    assert f(1.0 / 3.0 - 1e-10) == 2.0
    assert f(1.0 / 3.0 + 1e-7) == 2.0 and f(1.0 / 3.0 - 1e-7) == 3.0


# ---- arithmetic on the common refinement ----

def test_binary_ops_refine_to_lcm():
    f = GridFn([1.0, 2.0])
    g = GridFn([10.0, 20.0, 30.0])
    h = f + g
    assert h.n_cells == 6
    assert np.array_equal(h.values, [11.0, 11.0, 21.0, 22.0, 32.0, 32.0])


def test_binary_ops_scalars_and_neg():
    f = GridFn([1.0, -2.0])
    assert np.array_equal((1.0 - f).values, [0.0, 3.0])
    assert np.array_equal((-f).values, [-1.0, 2.0])
    assert np.array_equal((f - f).values, [0.0, 0.0])
    # a number minus a grid is c - values bit for bit, signs of zero included
    z = GridFn([0.0, -0.0, -2.0])
    for c in (0.0, -0.0, 2.5):
        bits = [v.hex() for v in (c - z.values).tolist()]
        assert [v.hex() for v in (c - z).values.tolist()] == bits, c
    # a number enters only as c - f, and grids are added or subtracted, not multiplied
    for op in (lambda: f + 1.0, lambda: 1.0 + f, lambda: f - 1.0, lambda: 3.0 * f, lambda: f * f):
        with pytest.raises(TypeError):
            op()


def test_monotone_difference_is_plain_gridfn():
    # differences of nonincreasing functions need not be monotone
    a = MonotoneStepFn([3.0, 1.0])
    b = MonotoneStepFn([3.0, 0.0])
    d = a - b
    assert type(d) is GridFn
    assert np.array_equal(d.values, [0.0, 1.0])


def test_refinement_cell_cap():
    f = GridFn(np.ones(2047))
    g = GridFn(np.ones(2048))
    with pytest.raises(ValueError):
        f + g  # lcm = 2047 * 2048 > 2^20


def test_resampled_requires_multiple():
    f = GridFn([1.0, 2.0])
    assert np.array_equal(f.resampled(4), [1.0, 1.0, 2.0, 2.0])
    with pytest.raises(ValueError):
        f.resampled(3)


# ---- rearrangement ----

def test_decreasing_rearrangement_matches_sort_oracle():
    rng = np.random.default_rng(11)
    v = rng.standard_normal(37)
    r = decreasing_rearrangement(GridFn(v))
    assert isinstance(r, MonotoneStepFn)
    assert np.array_equal(r.values, np.sort(np.abs(v))[::-1])


def test_rearrangement_of_monotone_nonneg_is_identity():
    v = np.array([5.0, 3.0, 3.0, 0.5])
    assert np.array_equal(decreasing_rearrangement(GridFn(v)).values, v)


# ---- integration ----

def test_integrate_full_interval_exact():
    # widths 1/4 are exact binary floats, so the sum is exact
    f = GridFn([2.0, 4.0, -1.0, 0.5])
    assert integrate(f, 0.0, 1.0) == (2.0 + 4.0 - 1.0 + 0.5) / 4.0


def test_integrate_partial_cells_hand_case():
    f = GridFn([2.0, 4.0])
    assert integrate(f, 0.25, 0.75) == 2.0 * 0.25 + 4.0 * 0.25
    assert integrate(f, 0.0, 0.5) == 1.0
    assert integrate(f, 0.5, 0.5) == 0.0


def test_integrate_additivity_exact():
    rng = np.random.default_rng(7)
    f = GridFn(rng.standard_normal(16))
    whole = integrate(f, 0.0, 1.0)
    split = integrate(f, 0.0, 0.375) + integrate(f, 0.375, 1.0)
    assert whole == pytest.approx(split, abs=1e-15)


def test_integrate_against_quad_oracle():
    f = GridFn([3.0, -1.0, 2.0, 5.0, 0.0])
    nodes = [k / 5.0 for k in range(6)]
    oracle, _ = quad(f, 0.21, 0.93, points=nodes, limit=200)
    assert integrate(f, 0.21, 0.93) == pytest.approx(oracle, abs=1e-12)


def test_integrate_bounds_validation():
    f = GridFn([1.0])
    for a, b in ((-0.1, 0.5), (0.5, 1.1), (0.7, 0.3)):
        with pytest.raises(ValueError):
            integrate(f, a, b)


# ---- averaging transform ----

def test_psi_eval_constant_function():
    # (Psi c)(t) = c * (1 - 2t) / t for t < 1/2
    f = GridFn([3.0, 3.0, 3.0, 3.0])
    t = 0.25
    assert psi_eval(f, t) == 3.0 * (1.0 - 2.0 * t) / t
    assert psi_eval(f, 0.5) == 0.0
    assert psi_eval(f, 0.75) == 0.0
    assert psi_eval(f, 1.0) == 0.0


def test_psi_eval_domain():
    f = GridFn([1.0])
    with pytest.raises(ValueError):
        psi_eval(f, 0.0)
    with pytest.raises(ValueError):
        psi_eval(f, 1.5)


def test_psi_eval_odd_symmetry_cancellation():
    # values antisymmetric about 1/2 integrate to exactly zero on (t, 1-t)
    f = GridFn([1.0, 2.0, -2.0, -1.0])
    for t in (0.125, 0.25, 0.375):
        assert psi_eval(f, t) == 0.0


# ---- dilation ----

def test_dilate2_repeats_values():
    f = GridFn([4.0, 3.0, 2.0, 1.0])
    d = dilate2(f)
    assert np.array_equal(d.values, [4.0, 4.0, 3.0, 3.0])


def test_dilate2_is_halved_argument():
    v = np.sort(np.random.default_rng(3).random(8))[::-1]
    f = MonotoneStepFn(v)
    d = dilate2(f)
    assert isinstance(d, MonotoneStepFn)
    for k in range(8):
        t = (k + 0.5) / 8.0
        assert d(t) == f(t / 2.0)


def test_dilate2_odd_size():
    f = GridFn([5.0, 4.0, 3.0])
    assert np.array_equal(dilate2(f).values, [5.0, 5.0, 4.0])
