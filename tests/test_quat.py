import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quatode as qo
from quatode import Quaternion
from quatode.quat import (_DETECTION_TOL, I, J, K, ONE, mul_arrays,
                          norm_arrays)

from support import series_exp

component = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
quaternions = st.builds(Quaternion, component, component, component,
                        component)


def test_basis_relations():
    minus_one = Quaternion(-1, 0, 0, 0)
    assert qo.mul(I, I) == minus_one
    assert qo.mul(J, J) == minus_one
    assert qo.mul(K, K) == minus_one
    assert qo.mul(qo.mul(I, J), K) == minus_one
    assert qo.mul(I, J) == K
    assert qo.mul(J, K) == I
    assert qo.mul(K, I) == J
    assert qo.mul(J, I) == -K


def test_mul_identity():
    q = Quaternion(0.3, -1.2, 4.0, 2.5)
    assert qo.mul(q, ONE) == q
    assert qo.mul(ONE, q) == q


def test_mul_hand_expansion():
    # (1+i)(1+j) = 1 + j + i + ij = 1 + i + j + k, expanded by the
    # component formula by hand
    got = qo.mul(Quaternion(1, 1, 0, 0), Quaternion(1, 0, 1, 0))
    assert got == Quaternion(1, 1, 1, 1)


def test_mul_overflow_raises():
    big = Quaternion(1e308, 0, 0, 0)
    with pytest.raises(qo.NonFiniteError):
        qo.mul(big, big)


def test_constructor_rejects_non_finite():
    with pytest.raises(qo.NonFiniteError):
        Quaternion(math.nan, 0, 0, 0)
    with pytest.raises(qo.NonFiniteError):
        Quaternion(0, math.inf, 0, 0)


def test_conj():
    assert qo.conj(Quaternion(1, 2, 3, 4)) == Quaternion(1, -2, -3, -4)


def test_norm_one():
    assert qo.norm(ONE) == 1.0


def test_inverse_of_i():
    inv = qo.inverse(I)
    assert inv == -I
    assert qo.norm(qo.mul(I, inv) - ONE) == 0.0


def test_inverse_zero_raises():
    with pytest.raises(qo.DivisionByZeroError):
        qo.inverse(Quaternion(0, 0, 0, 0))


def test_exp_zero():
    assert qo.exp_q(Quaternion(0, 0, 0, 0)) == ONE


def test_exp_pi_k():
    got = qo.exp_q(Quaternion(0, 0, 0, math.pi))
    assert qo.norm(got - Quaternion(-1, 0, 0, 0)) < 1e-15


def test_exp_quarter_turn_matches_series():
    q = Quaternion(0, math.pi / 2, 0, 0)
    closed = qo.exp_q(q)
    assert qo.norm(closed - series_exp(q, 25)) <= 1e-12
    assert qo.norm(closed - I) <= 1e-12


def test_exp_overflow_raises():
    with pytest.raises(qo.NonFiniteError):
        qo.exp_q(Quaternion(1e9, 0, 0, 0))


def test_commutes_examples():
    # parallel imaginary parts (and scalar parts are irrelevant)
    assert qo.commutes(Quaternion(2, 3, 0, 0), Quaternion(5, -7, 0, 0))
    assert not qo.commutes(I, J)
    assert qo.commutes(Quaternion(1, 1, 2, 3), Quaternion(4, 2, 4, 6))


def test_norm_multiplicativity_bulk():
    rng = np.random.default_rng(7)
    ps = rng.uniform(-10, 10, (10_000, 4))
    qs = rng.uniform(-10, 10, (10_000, 4))
    lhs = norm_arrays(mul_arrays(ps, qs))
    rhs = norm_arrays(ps) * norm_arrays(qs)
    rel = np.abs(lhs - rhs) / np.maximum(1.0, rhs)
    assert float(np.max(rel)) <= 1e-12


@given(p=quaternions, q=quaternions)
def test_norm_multiplicativity(p, q):
    assert abs(qo.norm(qo.mul(p, q)) - qo.norm(p) * qo.norm(q)) \
        <= 1e-12 * max(1.0, qo.norm(p) * qo.norm(q))


@given(q=quaternions)
def test_inverse_roundtrip(q):
    if qo.norm(q) < 1e-3:
        return
    left = qo.mul(qo.inverse(q), q)
    right = qo.mul(q, qo.inverse(q))
    assert qo.norm(left - ONE) <= 1e-12
    assert qo.norm(right - ONE) <= 1e-12


@settings(max_examples=200)
@given(q=st.builds(Quaternion,
                   st.floats(-1.5, 1.5), st.floats(-1.5, 1.5),
                   st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)))
def test_exp_closed_form_vs_series(q):
    # norm(q) <= 3 inside this box, where 25 series terms reach 1e-12
    closed = qo.exp_q(q)
    series = series_exp(q, 25)
    for a, b in zip(closed.to_array(), series.to_array()):
        assert abs(a - b) <= 1e-12


@given(p=quaternions, q=quaternions)
def test_commutes_agrees_with_direct_commutator(p, q):
    direct = qo.norm(qo.mul(p, q) - qo.mul(q, p))
    # the commutator equals twice the cross product of the imaginary parts
    scale = max(1.0, p.vec.norm() * q.vec.norm())
    assert qo.commutes(p, q) == (direct <= 2.0 * _DETECTION_TOL * scale)


def test_norm_zero_only_for_zero():
    # denormal components must not underflow the norm to zero
    tiny = Quaternion(1e-300, 0, 0, 0)
    assert qo.norm(tiny) == 1e-300
    assert qo.norm(Quaternion(0, 0, 0, 0)) == 0.0
    inv = qo.inverse(tiny)
    assert qo.norm(qo.mul(inv, tiny) - ONE) <= 1e-12


def test_pure_vec_embedding():
    v = qo.PureVec(1.0, -2.0, 0.5)
    assert v.as_quaternion() == Quaternion(0, 1.0, -2.0, 0.5)
    assert v.norm() == math.sqrt(1 + 4 + 0.25)


def test_mul_arrays_matches_scalar_mul():
    rng = np.random.default_rng(3)
    ps = rng.normal(size=(64, 4))
    qs = rng.normal(size=(64, 4))
    bulk = mul_arrays(ps, qs)
    for n in range(64):
        one = qo.mul(Quaternion.from_array(ps[n]),
                     Quaternion.from_array(qs[n]))
        assert np.allclose(bulk[n], one.to_array(), atol=0, rtol=0)
