import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import quatode as qo
from quatode import PhaseTriple, Quaternion, atan2x, compose, decompose
from quatode.phase import compose_arrays, wrap_angle
from quatode.quat import I, ONE


def test_atan2x_branches():
    assert atan2x(1.0, 1.0) == pytest.approx(math.pi / 4, abs=0)
    assert atan2x(1.0, 0.0) == math.pi / 2
    assert atan2x(-1.0, 0.0) == -math.pi / 2
    assert atan2x(-1.0, -1.0) == pytest.approx(-3 * math.pi / 4)
    assert atan2x(1.0, -1.0) == pytest.approx(3 * math.pi / 4)
    assert atan2x(0.0, -1.0) == pytest.approx(math.pi)
    assert atan2x(0.0, 2.0) == 0.0


def test_atan2x_both_zero():
    with pytest.raises(qo.BothZeroError):
        atan2x(0.0, 0.0)


def test_wrap_angle():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-0.5) == -0.5


def test_compose_trivial():
    assert compose(PhaseTriple(0, 0, 0)) == ONE
    assert qo.norm(compose(PhaseTriple(math.pi / 2, 0, 0)) - I) < 1e-15


def test_compose_generic_is_unit():
    p = PhaseTriple(math.pi / 6, math.pi / 8, -math.pi / 5)
    q = compose(p)
    assert abs(qo.norm(q) - 1.0) <= 1e-12
    r = decompose(q)
    assert qo.norm(compose(r) - q) <= 1e-12


def test_compose_arrays_matches_scalar():
    rng = np.random.default_rng(2)
    th = rng.uniform(-3, 3, (50, 3))
    bulk = compose_arrays(th[:, 0], th[:, 1], th[:, 2])
    for n in range(50):
        q = compose(PhaseTriple(*th[n]))
        assert np.array_equal(bulk[n], q.to_array())


def test_decompose_identity():
    assert decompose(ONE) == PhaseTriple(0.0, 0.0, 0.0)


def test_decompose_i():
    p = decompose(I)
    assert qo.norm(compose(p) - I) <= 1e-12
    assert p.theta1 == pytest.approx(math.pi / 2)
    assert p.theta2 == 0.0
    assert p.theta3 == 0.0


def test_decompose_minus_one_hits_wrap_boundary():
    p = decompose(Quaternion(-1, 0, 0, 0))
    assert p.theta1 == pytest.approx(math.pi)
    assert qo.norm(compose(p) - Quaternion(-1, 0, 0, 0)) <= 1e-12


def test_decompose_singular_convention():
    # built exactly on the singular band: theta3 folds into theta1
    q = compose(PhaseTriple(math.pi / 6, math.pi / 4, 0.0))
    p = decompose(q)
    assert p.theta2 == math.pi / 4
    assert p.theta3 == 0.0
    assert p.theta1 == pytest.approx(math.pi / 6, abs=1e-12)
    assert qo.norm(compose(p) - q) <= 1e-12


def test_decompose_rejects_non_unit():
    with pytest.raises(qo.NotUnitError):
        decompose(Quaternion(1.0, 1.0, 0.0, 0.0))


def _in_canonical_ranges(p: PhaseTriple) -> bool:
    return (-math.pi < p.theta1 <= math.pi
            and -math.pi / 4 <= p.theta2 <= math.pi / 4
            and -math.pi / 2 < p.theta3 <= math.pi / 2)


def test_round_trip_regular_band():
    rng = np.random.default_rng(101)
    checked = 0
    while checked < 2000:
        v = rng.normal(size=4)
        v /= np.linalg.norm(v)
        q = Quaternion(*v)
        if abs(2 * (q.w * q.y + q.x * q.z)) > 0.99:
            continue
        checked += 1
        p = decompose(q)
        assert _in_canonical_ranges(p)
        assert qo.norm(compose(p) - q) <= 1e-10


def test_round_trip_singular_band():
    rng = np.random.default_rng(202)
    for n in range(500):
        th1 = rng.uniform(-math.pi, math.pi)
        th3 = rng.uniform(-math.pi / 2, math.pi / 2)
        sign = 1.0 if n % 2 == 0 else -1.0
        q = compose(PhaseTriple(th1, sign * math.pi / 4, th3))
        p = decompose(q)
        assert p.theta3 == 0.0
        assert abs(p.theta2) == math.pi / 4
        assert _in_canonical_ranges(p)
        assert qo.norm(compose(p) - q) <= 1e-10


@given(parts=st.tuples(*(st.floats(-1, 1, allow_nan=False) for _ in range(4))))
def test_round_trip_property(parts):
    n = math.sqrt(sum(v * v for v in parts))
    if n < 1e-2:
        return
    q = Quaternion(*(v / n for v in parts))
    if abs(2 * (q.w * q.y + q.x * q.z)) > 0.99:
        return
    p = decompose(q)
    assert _in_canonical_ranges(p)
    assert qo.norm(compose(p) - q) <= 1e-10
