import math

import numpy as np
import pytest

import quatode as qo
from quatode import CoefficientSet, Quaternion
from quatode.commutative import (
    CommutativeSolver,
    check_proportionality,
    commutative_solve,
    variation_of_constants,
)
from quatode.quat import I, ONE

from support import ROTATING_AXES, ratio123_closed_form

RATIO123 = CoefficientSet.from_strings("t^2", "t", "2*t", "3*t")
# the unit pure quaternion (i + 2j + 3k) / sqrt(14), RATIO123's direction
S14 = 1.0 / math.sqrt(14.0)
I_123 = Quaternion(0.0, S14, 2.0 * S14, 3.0 * S14)
ZERO = Quaternion(0.0, 0.0, 0.0, 0.0)


def _field(x, y):
    """x + y I_123, an element of the complex-like field span{1, I_123}."""
    return Quaternion(x, y * I_123.x, y * I_123.y, y * I_123.z)


def _off_field(q):
    """Distance from q to the plane span{1, I_123}."""
    v, d = q.to_array()[1:], I_123.to_array()[1:]
    return math.hypot(*(v - np.dot(v, d) * d))


def test_detects_fixed_ratio():
    rep = check_proportionality(RATIO123, 0.0, 1.0)
    assert rep.is_proportional
    assert not rep.degenerate
    assert rep.max_deviation <= 1e-9
    d = rep.direction
    assert d.w == 0.0
    assert abs(qo.norm(d) - 1.0) <= 1e-12
    for got, want in zip((d.x, d.y, d.z), (I_123.x, I_123.y, I_123.z)):
        assert got == pytest.approx(want, abs=1e-12)


def test_rejects_rotating_axis():
    c = CoefficientSet.pure(*ROTATING_AXES)
    rep = check_proportionality(c, 0.0, 2.0)
    assert not rep.is_proportional
    assert rep.max_deviation > 1e-2


def test_degenerate_zero_imaginary_part():
    c = CoefficientSet.from_strings("sin(t)", "0", "0", "0")
    rep = check_proportionality(c, 0.0, 2.0)
    assert rep.is_proportional
    assert rep.degenerate
    assert rep.direction == ZERO


def test_loose_tol_still_tests_a_nonzero_imaginary_part():
    # the picard_long benchmark problem at seed 7: |a_im| stays under 2,
    # and a loose threshold (10) once also declared it zero, degenerate
    # with deviation 0
    c = CoefficientSet.from_strings(
        "(-0.006801) + (0.255403)*sin((0.561193)*t + (1.188136))",
        "(0.292255) + (0.697279)*sin((0.975086)*t + (6.238113))",
        "(0.281423) + (0.693034)*sin((1.37623)*t + (1.551414))",
        "(0.293695) + (0.711292)*sin((1.795351)*t + (5.314723))")
    rep = check_proportionality(c, 0.0, np.linspace(0.0, 30.0, 30001))
    assert not rep.degenerate
    assert abs(qo.norm(rep.direction) - 1.0) <= 1e-12
    assert rep.max_deviation == pytest.approx(0.995, abs=1e-3)
    # a tiny imaginary part is still a line, not zero
    tiny = CoefficientSet.from_strings("0", "1e-12*t", "0", "0")
    rep = check_proportionality(tiny, 0.0, 1.0)
    assert rep.is_proportional and not rep.degenerate
    assert rep.direction == I


def test_check_preconditions():
    with pytest.raises(ValueError):
        check_proportionality(RATIO123, 1.0, 0.0)


def test_ratio123_matches_hand_expansion():
    # frozen closed form for q' = (t^2 + t(i+2j+3k)) q, q(0) = i
    for t in (0.0, 0.3, 0.7, 1.0):
        got = commutative_solve(RATIO123, I, t, I_123)
        assert qo.norm(got - ratio123_closed_form(t)) <= 1e-9


def test_scalar_only_coefficient():
    c = CoefficientSet.from_strings("t^2", "0", "0", "0")
    got = commutative_solve(c, ONE, 1.5, ZERO)
    assert got.w == pytest.approx(math.exp(1.5 ** 3 / 3.0), rel=1e-12)
    assert (got.x, got.y, got.z) == (0.0, 0.0, 0.0)


def test_constant_coefficient_vs_rk4():
    c = CoefficientSet.from_strings("0", "1", "2", "3")
    rep = check_proportionality(c, 0.0, 0.5)
    assert rep.is_proportional
    got = commutative_solve(c, ONE, 0.5, rep.direction)
    ref = qo.oracle_integrate(c, 0.0, 0.5, ONE, step=1e-3).endpoint()
    assert qo.norm(got - ref) <= 1e-8


def test_commutation_holds_end_to_end():
    # proportional coefficients commute with their antiderivative everywhere
    for t in np.linspace(0.0, 2.0, 100):
        a = RATIO123.quaternion_at(t)
        A = RATIO123.antiderivative_quaternion(t)
        assert qo.norm(qo.mul(a, A) - qo.mul(A, a)) <= 1e-9


def test_noncommuting_counterpart():
    c = CoefficientSet.pure(*ROTATING_AXES)
    worst = 0.0
    for t in np.linspace(0.0, 2.0, 100):
        a = c.quaternion_at(t)
        A = c.antiderivative_quaternion(t)
        worst = max(worst, qo.norm(qo.mul(a, A) - qo.mul(A, a)))
    assert worst > 1e-2


def test_field_closure():
    rng = np.random.default_rng(17)
    for _ in range(200):
        x1, y1, x2, y2 = rng.uniform(-3, 3, 4)
        if abs(x2) + abs(y2) < 1e-3:
            continue
        w1, w2 = _field(x1, y1), _field(x2, y2)
        # w2^-1 = conj(w2) / |w2|^2
        n2 = qo.norm(w2) ** 2
        w2_inv = Quaternion(w2.w / n2, -w2.x / n2, -w2.y / n2, -w2.z / n2)
        assert qo.norm(qo.mul(w2, w2_inv) - ONE) <= 1e-12
        assert _off_field(qo.mul(w1, w2)) <= 1e-12
        assert _off_field(qo.mul(w1, w2_inv)) <= 1e-12


def test_solution_residual_by_finite_difference():
    unit = CommutativeSolver(I_123).sample
    h = 1e-5
    for t in (0.2, 0.6, 1.0):
        qm, q, qp = variation_of_constants(RATIO123, unit, I,
                                           np.array([t - h, t, t + h]))
        deriv = Quaternion.from_array((qp - qm) * (1.0 / (2 * h)))
        rhs = qo.mul(RATIO123.quaternion_at(t), Quaternion.from_array(q))
        assert qo.norm(deriv - rhs) <= 1e-6


def test_solution_stays_in_field_iff_it_starts_there():
    q0_in = _field(0.5, 2.0)
    for t in (0.3, 1.0):
        inside = commutative_solve(RATIO123, q0_in, t, I_123)
        assert _off_field(inside) <= 1e-10
    # starting at i (outside the plane span{1, I}) the solution leaves it
    outside = commutative_solve(RATIO123, I, 1.0, I_123)
    assert _off_field(outside) > 0.1


def _forced(a, f, q0, ts, direction):
    """q' = a q + f through the closed-form unit solution."""
    return variation_of_constants(a, CommutativeSolver(direction).sample, q0,
                                  ts, forcing=f)


def test_variation_of_constants_homogeneous_limit():
    forcing = CoefficientSet.from_strings("0", "0", "0", "0")
    got = Quaternion.from_array(
        _forced(RATIO123, forcing, I, [1.0], I_123)[0])
    want = commutative_solve(RATIO123, I, 1.0, I_123)
    assert qo.norm(got - want) <= 1e-9


def test_variation_of_constants_pure_integration():
    zero = CoefficientSet.from_strings("0", "0", "0", "0")
    ones = CoefficientSet.from_strings("1", "0", "0", "0")
    got = Quaternion.from_array(_forced(zero, ones, ZERO, [2.0], ZERO)[0])
    assert qo.norm(got - Quaternion(2, 0, 0, 0)) <= 1e-9


def test_variation_of_constants_scalar_ode():
    # scalar oracle: y' = y + 1, y(0) = 0 has y(1) = e - 1
    a = CoefficientSet.from_strings("1", "0", "0", "0")
    f = CoefficientSet.from_strings("1", "0", "0", "0")
    got = Quaternion.from_array(_forced(a, f, ZERO, [1.0], ZERO)[0])
    assert got.w == pytest.approx(math.e - 1.0, abs=1e-9)
    assert abs(got.x) + abs(got.y) + abs(got.z) == 0.0


def test_variation_of_constants_decaying_scalar_part():
    # y' = -2y + 1, y(0) = 0 on [0, 30]: the integrand e^{2s} grows by e^60
    # and every node must still match y = (1 - e^{-2t}) / 2
    a = CoefficientSet.from_strings("-2", "0", "0", "0")
    f = CoefficientSet.from_strings("1", "0", "0", "0")
    ts = np.linspace(0.0, 30.0, 3001)
    got = _forced(a, f, ZERO, ts, ZERO)
    assert np.max(np.abs(got[:, 0] + np.expm1(-2 * ts) / 2)) <= 1e-12
    assert not got[:, 1:].any()


def test_long_oscillatory_coefficient():
    # a = sin(100 t)(i + 2j) on [0, 200] at step 1e-3: G = sqrt(5)
    # (1 - cos(100 t)) / 100 takes more panels than the fixed floor
    c = CoefficientSet.from_strings("0", "sin(100*t)", "2*sin(100*t)", "0")
    ts = np.linspace(0.0, 200.0, 200001)
    rep = check_proportionality(c, 0.0, ts)
    assert rep.is_proportional
    got = variation_of_constants(c, CommutativeSolver(rep.direction).sample,
                                 ONE, ts)
    g = math.sqrt(5.0) * (1 - np.cos(100 * ts)) / 100
    d = np.array([rep.direction.x, rep.direction.y, rep.direction.z])
    want = np.column_stack([np.cos(g), np.sin(g)[:, None] * d])
    assert np.max(np.abs(got - want)) <= 1e-12
