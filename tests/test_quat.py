import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quatode as qo
from quatode import Quaternion, _kernels
from quatode.quat import I, J, K, ONE, mul_arrays, norm_arrays

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
    assert qo.mul(J, I) == Quaternion(0, 0, 0, -1)


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


def test_norm_one():
    assert qo.norm(ONE) == 1.0


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


def test_norm_multiplicativity_bulk():
    rng = np.random.default_rng(7)
    ps = rng.uniform(-10, 10, (10_000, 4))
    qs = rng.uniform(-10, 10, (10_000, 4))
    lhs = norm_arrays(mul_arrays(ps, qs))
    rhs = norm_arrays(ps) * norm_arrays(qs)
    rel = np.abs(lhs - rhs) / np.maximum(1.0, rhs)
    assert float(np.max(rel)) <= 1e-12


def test_norm_arrays_keeps_the_bits_of_the_summed_squares():
    # the plain norms are sqrt(np.sum(q*q, -1)) bit for bit, written into
    # ``out`` when it is given, a strided column included
    rng = np.random.default_rng(11)
    qs = rng.standard_normal((4096, 4)) * 10.0 ** rng.uniform(-3, 3, (4096, 4))
    want = np.sqrt(np.sum(qs * qs, axis=-1))
    assert np.array_equal(norm_arrays(qs), want)
    rows = np.zeros((4096, 3))
    norm_arrays(qs, out=rows[:, 1])
    assert np.array_equal(rows[:, 1], want)
    assert not rows[:, [0, 2]].any()
    assert norm_arrays(qs[0]) == want[0]


@given(p=quaternions, q=quaternions)
def test_norm_multiplicativity(p, q):
    assert abs(qo.norm(qo.mul(p, q)) - qo.norm(p) * qo.norm(q)) \
        <= 1e-12 * max(1.0, qo.norm(p) * qo.norm(q))


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


def test_norm_zero_only_for_zero():
    # denormal components must not underflow the norm to zero
    tiny = Quaternion(1e-300, 0, 0, 0)
    assert qo.norm(tiny) == 1e-300
    assert qo.norm(Quaternion(0, 0, 0, 0)) == 0.0


def test_norm_is_norm_arrays_on_one_row():
    rng = np.random.default_rng(13)
    qs = rng.standard_normal((64, 4)) * 10.0 ** rng.uniform(-300, 300, (64, 1))
    qs = np.vstack([qs, np.zeros(4), [5e-324, 0.0, 0.0, 0.0]])
    bulk = norm_arrays(qs)
    for n in range(len(qs)):
        assert qo.norm(Quaternion.from_array(qs[n])) == bulk[n]


def test_mul_arrays_matches_scalar_mul():
    rng = np.random.default_rng(3)
    ps = rng.normal(size=(64, 4))
    qs = rng.normal(size=(64, 4))
    bulk = mul_arrays(ps, qs)
    # the kernels' product on the same complex pairs
    kernel = _kernels._mul(ps, qs)
    for n in range(64):
        one = qo.mul(Quaternion.from_array(ps[n]),
                     Quaternion.from_array(qs[n]))
        assert np.allclose(bulk[n], one.to_array(), atol=0, rtol=0)
        assert np.allclose(kernel[n], one.to_array(), atol=0, rtol=0)


def _sixteen_terms(p, q):
    """The componentwise Hamilton product, the reference for the pairs."""
    pw, px, py, pz = np.moveaxis(p, -1, 0)
    qw, qx, qy, qz = np.moveaxis(q, -1, 0)
    return np.stack([pw * qw - px * qx - py * qy - pz * qz,
                     pw * qx + px * qw + py * qz - pz * qy,
                     pw * qy - px * qz + py * qw + pz * qx,
                     pw * qz + px * qy - py * qx + pz * qw], axis=-1)


_UNITS = {"1": ONE, "i": I, "j": J, "k": K}
_TABLE = {  # row times column, with the sign
    ("1", "1"): "+1", ("1", "i"): "+i", ("1", "j"): "+j", ("1", "k"): "+k",
    ("i", "1"): "+i", ("i", "i"): "-1", ("i", "j"): "+k", ("i", "k"): "-j",
    ("j", "1"): "+j", ("j", "i"): "-k", ("j", "j"): "-1", ("j", "k"): "+i",
    ("k", "1"): "+k", ("k", "i"): "+j", ("k", "j"): "-i", ("k", "k"): "-1",
}


def test_unit_table_holds_exactly_in_every_product():
    ps = np.stack([_UNITS[a].to_array() for a, _ in _TABLE])
    qs = np.stack([_UNITS[b].to_array() for _, b in _TABLE])
    want = np.stack([(1.0 if v[0] == "+" else -1.0) * _UNITS[v[1]].to_array()
                     for v in _TABLE.values()])
    assert np.array_equal(mul_arrays(ps, qs), want)
    assert np.array_equal(_kernels._mul(ps, qs), want)
    for n, (a, b) in enumerate(_TABLE):
        got = qo.mul(_UNITS[a], _UNITS[b]).to_array()
        assert np.array_equal(got, want[n]), (a, b)


def test_pair_product_is_within_four_ulps_of_the_sixteen_terms():
    rng = np.random.default_rng(11)
    scale = 10.0 ** rng.uniform(-3, 3, (20_000, 1))
    ps = rng.normal(size=(20_000, 4)) * scale
    qs = rng.normal(size=(20_000, 4)) * scale[::-1]
    want = _sixteen_terms(ps, qs)
    ulp = np.spacing(norm_arrays(ps) * norm_arrays(qs))[:, None]
    for got in (mul_arrays(ps, qs), _kernels._mul(ps, qs)):
        assert np.all(np.abs(got - want) <= 4.0 * ulp)


def test_a_row_has_the_same_bits_alone_shifted_and_strided():
    # the RK4 block joins and the one-row scalar mul rely on this
    rng = np.random.default_rng(5)
    ps = rng.normal(size=(37, 4))
    qs = rng.normal(size=(37, 4))
    bulk = mul_arrays(ps, qs).tobytes()
    row = 4 * 8
    for n in range(37):
        for product in (mul_arrays, _kernels._mul):
            alone = product(ps[n], qs[n]).tobytes()
            assert alone == bulk[n * row:(n + 1) * row]
    for shift in (1, 2, 3):
        for product in (mul_arrays, _kernels._mul):
            got = product(ps[shift:], qs[shift:])
            assert got.tobytes() == bulk[shift * row:]
    wide_p = np.zeros((37, 3, 4))
    wide_q = np.zeros((74, 4))
    wide_p[:, 1], wide_q[1::2] = ps, qs
    assert _kernels._mul(wide_p[:, 1], wide_q[1::2]).tobytes() == bulk
    assert mul_arrays(wide_p[:, 1], wide_q[1::2]).tobytes() == bulk
    # one operand broadcast, as the RK4 block start and the anchors are
    for n in (0, 17):
        one = mul_arrays(ps, qs[n])
        for m in range(37):
            assert one[m].tobytes() == mul_arrays(ps[m], qs[n]).tobytes()
