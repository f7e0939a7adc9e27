import itertools
import math

import numpy as np
import pytest

import quatode as qo
from quatode import quadrature
from quatode.quadrature import (
    Antiderivative,
    adaptive_simpson,
    barycentric,
    chebyshev_rule,
    piecewise,
    resolved,
)


def test_cubic_exactness():
    # Simpson integrates cubics exactly; only round-off remains
    rng = np.random.default_rng(11)
    for _ in range(50):
        c = rng.uniform(-3, 3, 4)
        a, b = sorted(rng.uniform(-2, 2, 2))
        if b - a < 1e-3:
            continue

        def poly(t):
            return ((c[3] * t + c[2]) * t + c[1]) * t + c[0]

        exact = sum(c[k] * (b ** (k + 1) - a ** (k + 1)) / (k + 1)
                    for k in range(4))
        assert adaptive_simpson(poly, a, b) == pytest.approx(exact, abs=1e-13)


def test_orientation_and_empty_interval():
    assert adaptive_simpson(math.sin, 1.0, 1.0) == 0.0
    fwd = adaptive_simpson(math.sin, 0.0, 2.0)
    assert adaptive_simpson(math.sin, 2.0, 0.0) == -fwd


def test_smooth_integral_vs_closed_form():
    got = adaptive_simpson(lambda t: math.sin(2.0 * t), 0.0, math.pi / 2)
    assert got == pytest.approx(1.0, abs=1e-12)


def test_depth_cap_raises():
    # deterministic "noise" integrand: alternates sign on every call, so
    # refinement never settles
    flip = itertools.count()

    def noise(t):
        return 1.0 if next(flip) % 2 == 0 else -1.0

    with pytest.raises(qo.QuadratureError):
        adaptive_simpson(noise, 0.0, 1.0)


def test_antiderivative_basics():
    one = Antiderivative(np.ones_like, 0.0, 2.0)
    assert one(0.0) == 0.0  # exact by construction
    assert one(2.0) == pytest.approx(2.0, abs=1e-14)

    # degree-16 polynomials are integrated exactly on a single panel
    rng = np.random.default_rng(11)
    c = rng.uniform(-3, 3, 7)
    poly = np.polynomial.Polynomial(c)
    for t0 in (0.0, -1.3, 0.4):
        anti = Antiderivative(poly, t0, 2.5)
        assert anti.panels == 1
        assert anti(t0) == 0.0
        ts = np.linspace(t0, 2.5, 97)
        want = poly.integ(lbnd=t0)(ts)
        assert np.max(np.abs(anti(ts) - want)) <= 1e-12

    # an array reach covers times on both sides of t0
    ramp = Antiderivative(lambda t: t, 0.0, np.array([-2.0, 1.0]))
    assert ramp(0.0) == 0.0
    assert ramp(-2.0) == pytest.approx(2.0, abs=1e-14)
    assert ramp(1.0) == pytest.approx(0.5, abs=1e-14)
    assert ramp(np.zeros((2, 3))).shape == (2, 3)


def test_antiderivative_sin_closed_form():
    # closed-form oracle: integral of sin(2s) from 0 to t is (1-cos(2t))/2
    anti = Antiderivative(lambda t: np.sin(2.0 * t), 0.0, 10.0)
    assert anti(0.0) == 0.0
    ts = np.linspace(0.0, 10.0, 1001)
    assert np.max(np.abs(anti(ts) - (1 - np.cos(2 * ts)) / 2)) <= 1e-14


def test_antiderivative_additivity():
    def f(s):
        return np.exp(-s) * np.cos(3 * s)

    anti = Antiderivative(f, 0.0, 3.0)
    rng = np.random.default_rng(5)
    for _ in range(20):
        t1, t2 = sorted(rng.uniform(0, 3, 2))
        piece = Antiderivative(f, t1, t2)(t2)
        assert anti(t2) == pytest.approx(anti(t1) + piece, abs=1e-15)


def test_quaternion_valued_integrand():
    def f(s):
        return np.stack([np.cos(s), np.sin(s), s, np.ones_like(s)], axis=-1)

    ts = np.linspace(0.0, 4.0, 401)
    got = Antiderivative(f, 0.0, 4.0)(ts)
    want = np.stack([np.sin(ts), 1 - np.cos(ts), ts ** 2 / 2, ts], axis=-1)
    assert got.shape == (401, 4)
    assert np.max(np.abs(got - want)) <= 1e-14


def test_project_integrates_combinations_on_the_same_panels():
    def f(t):
        return np.stack([np.sin(t), np.cos(3.0 * t), t], axis=-1)

    anti = Antiderivative(f, 1.0, np.array([0.0, 4.0]))  # t0 inside
    assert np.array_equal(anti.samples, f(anti.nodes.ravel()).reshape(
        anti.nodes.shape + (3,)))
    m = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, -1.0]])
    pair, column = anti.project(m), anti.project(np.eye(3)[2])
    ts = np.linspace(0.0, 4.0, 97)
    assert np.max(np.abs(pair(ts) - anti(ts) @ m)) <= 1e-14
    assert column(ts) == pytest.approx(0.5 * ts * ts - 0.5, abs=1e-14)
    assert np.all(pair(1.0) == 0.0) and column(1.0) == 0.0
    assert pair.panels == anti.panels
    assert np.array_equal(pair.samples, anti.samples @ m)


def test_nested_case_one_integral():
    # case I, a = (r sin 2ct, c, r cos 2ct): theta3 = int a3 / cos(2 A2)
    # is r t exactly, across the removable zeros of cos(2 c t)
    c, r = 1.03, 0.8
    inner = Antiderivative(lambda s: np.full_like(s, c), 0.0, 3.0)
    outer = Antiderivative(
        lambda s: r * np.cos(2 * c * s) / np.cos(2 * inner(s)), 0.0, 3.0)
    ts = np.linspace(0.0, 3.0, 3001)
    assert np.max(np.abs(outer(ts) - r * ts)) <= 1e-14


def test_non_finite_integrand_raises():
    with pytest.raises(qo.QuadratureError):
        Antiderivative(lambda t: np.where(t > 0.3, np.nan, 1.0), 0.0, 1.0)


def test_panel_cap_raises():
    with pytest.raises(qo.QuadratureError):
        Antiderivative(lambda t: np.sin(1e6 * t), 0.0, 1.0)


def test_panel_cap_grows_with_output_times():
    # sin(100 s) on [0, 200] needs 8192 panels: more than the fixed floor,
    # fewer than the 200001 output times a default-step solve asks for
    def f(s):
        return np.sin(100 * s)

    with pytest.raises(qo.QuadratureError):
        Antiderivative(f, 0.0, 200.0)
    ts = np.linspace(0.0, 200.0, 200001)
    got = Antiderivative(f, 0.0, ts)(ts)
    assert np.max(np.abs(got - (1 - np.cos(100 * ts)) / 100)) <= 1e-13


def test_growing_integrand_resolved_where_small():
    # e^{2s} on [0, 30] grows by e^60; each panel is resolved against its
    # own values, so the early times keep their relative accuracy
    ts = np.linspace(0.0, 30.0, 301)
    got = Antiderivative(lambda s: np.exp(2 * s), 0.0, 30.0)(ts)
    want = np.expm1(2 * ts) / 2
    assert np.max(np.abs(got[1:] / want[1:] - 1)) <= 1e-13


def _spike(centre):
    # 1 + 1e4 / (1 + 1e8 (s - centre)^2), whose antiderivative is
    # s + atan(1e4 (s - centre))
    return lambda s: 1.0 + 1e4 / (1.0 + 1e8 * (s - centre) ** 2)


_POLE = 0.4999


def _narrow_share(anti):
    """The share of max|f| x width on panels under 1e4 ulps of 1, the
    scale of [0, 1]."""
    width = np.diff(anti.breaks)
    mass = np.abs(anti.samples).max(axis=1) * width
    return mass[width < 1e4 * np.spacing(1.0)].sum() / mass.sum()


@pytest.mark.parametrize("f, integrable", [
    (lambda s: 1 / (s - _POLE) ** 2, False),
    (lambda s: 1 / (s - _POLE), False),
    (lambda s: 1 / np.sqrt(np.abs(s - _POLE)), True),
    (lambda s: np.log(np.abs(s - _POLE)), True),
    (lambda s: 1 / ((s - _POLE) ** 2 + 1e-8), True),
    (lambda s: 1 + 1e4 / (1 + 1e6 * (s - 0.25) ** 2), True),
], ids=["pole", "reciprocal", "inverse-sqrt", "log", "lorentzian", "spike"])
def test_an_integrand_without_an_integral_raises(monkeypatch, f, integrable):
    # the share of the narrow panels lies two orders of magnitude or more
    # from the 1e-3 threshold on either side
    with monkeypatch.context() as m:
        m.setattr(quadrature, "_NARROW_SHARE", math.inf)
        share = _narrow_share(Antiderivative(f, 0.0, 1.0))
    if integrable:
        assert share <= 1e-5
        Antiderivative(f, 0.0, 1.0)
    else:
        assert share >= 0.1
        with pytest.raises(qo.QuadratureError,
                           match="not integrable near t=") as exc:
            Antiderivative(f, 0.0, 1.0)
        t = float(str(exc.value).rpartition("=")[2])
        assert abs(t - _POLE) <= 1e-12


@pytest.mark.parametrize("lo, hi", [(1e12, 1000000000001.0),
                                    (0.5, 0.5000000000001)],
                         ids=["far-from-zero", "narrow"])
def test_a_span_under_the_narrow_width_is_integrable(lo, hi):
    # the whole span is under 1e4 ulps of its scale; its one panel, never
    # split, carries all the mass and is still not a sign of divergence
    anti = Antiderivative(np.ones_like, lo, hi)
    assert anti.panels == 1
    assert anti(hi) == pytest.approx(hi - lo, rel=1e-12, abs=0)


def test_a_pole_far_from_zero_still_raises():
    pole = 1000000000000.49
    with pytest.raises(qo.QuadratureError,
                       match="not integrable near t=") as exc:
        Antiderivative(lambda s: 1 / (s - pole) ** 2, 1e12, 1000000000001.0)
    t = float(str(exc.value).rpartition("=")[2])
    assert abs(t - pole) <= 0.05


def test_spike_far_from_zero_is_resolved_to_the_rounding_of_t():
    # near t = 1e6 the node times are rounded by ulp(1e6) = 1.2e-10, which
    # moves f by up to 1e-6 of its peak; the noise floor of the rule scales
    # with |t|, so the panels stop splitting at that noise
    lo, hi = 1e6 - 1e-3, 1e6 + 1e-3
    anti = Antiderivative(_spike(1e6), lo, hi)
    ts = np.linspace(lo, hi, 2001)
    want = (ts - lo) + (np.arctan(1e4 * (ts - 1e6)) + np.arctan(10.0))
    bound = (1.0 + 1e4) * np.spacing(1e6)
    assert np.max(np.abs(anti(ts) - want)) <= bound


def test_spike_needs_few_panels():
    anti = Antiderivative(_spike(50.0), 49.999, 50.001)
    assert anti.panels <= 100
    ts = np.linspace(49.999, 50.001, 2001)
    want = (ts - 49.999) + (np.arctan(1e4 * (ts - 50.0)) + np.arctan(10.0))
    assert np.max(np.abs(anti(ts) - want)) <= (1.0 + 1e4) * np.spacing(50.0)


def test_outside_interval_raises():
    anti = Antiderivative(np.cos, 0.0, 1.0)
    with pytest.raises(ValueError):
        anti(np.array([0.5, 1.5]))


def test_sampling_cost_independent_of_output_count():
    nodes = [0]

    def f(s):
        nodes[0] += len(s)
        return np.cos(5 * s) * np.exp(-s)

    counts = []
    for n in (301, 30001):
        nodes[0] = 0
        ts = np.linspace(0.0, 3.0, n)
        values = Antiderivative(f, 0.0, ts)(ts)
        assert len(values) == n
        counts.append(nodes[0])
    assert counts[1] <= counts[0]


@pytest.mark.parametrize("n", [16, 32, 64, 128])
def test_chebyshev_rule_is_exact_on_its_degree(n):
    # p = T_n + x^3 has degree n: the rule must integrate and interpolate it
    # exactly, and the resolution rule must see T_n in its tail
    def p(x):
        return np.cos(n * np.arccos(x)) + x ** 3

    def big_p(x):  # an antiderivative of p
        return (np.cos((n + 1) * np.arccos(x)) / (2 * (n + 1))
                - np.cos((n - 1) * np.arccos(x)) / (2 * (n - 1))
                + 0.25 * x ** 4)

    rule = chebyshev_rule(n)
    assert rule.x[0] == -1.0 and rule.x[-1] == 1.0
    want = big_p(rule.x) - big_p(-1.0)
    assert np.max(np.abs(rule.integrate @ p(rule.x) - want)) <= 1e-14
    xs = np.linspace(-1.0, 1.0, 1001)
    got, piece = piecewise(np.array([-1.0, 1.0]), p(rule.x)[None, :, None], xs)
    assert np.max(np.abs(got[:, 0] - p(xs))) <= 1e-13
    assert np.all(piece == 0)
    assert not resolved(p(rule.x)[None], 2.0, -1.0, 1.0, 0.0)[0]
    assert resolved(rule.x[None] ** 3, 2.0, -1.0, 1.0, 0.0)[0]
    with pytest.raises(ValueError):
        rule.integrate[0, 0] = 1.0  # tables are shared, so read-only


def test_coefficient_set_antiderivative():
    c = qo.CoefficientSet.from_strings("1", "t", "sin(2*t)", "0")
    assert c.antiderivative(0, 2.0) == pytest.approx(2.0, abs=1e-13)
    assert c.antiderivative(1, 2.0) == pytest.approx(2.0, abs=1e-13)
    assert c.antiderivative(2, math.pi / 2) == pytest.approx(1.0, abs=1e-12)
    assert c.antiderivative(3, 5.0) == 0.0
    assert c.antiderivative(2, 0.0) == 0.0


def _node_loop(values, x, which):
    """Reference: the barycentric formula one node at a time, as the
    evaluator computed it before its dense chunked kernel."""
    rule = chebyshev_rule(values.shape[1] - 1)
    num = np.zeros((len(x), values.shape[2]))
    den = np.zeros(len(x))
    node = np.full(len(x), -1)
    for j, (xj, wj) in enumerate(zip(rule.x, rule.bary)):
        d = x - xj
        node[d == 0.0] = j
        w = wj / np.where(d == 0.0, 1.0, d)
        den += w
        num += w[:, None] * values[which, j]
    out = num / den[:, None]
    exact = node >= 0
    out[exact] = values[which[exact], node[exact]]
    return out


@pytest.mark.parametrize("n", [16, 32, 64, 128])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_barycentric_kernel_matches_the_node_loop(n, k):
    chunk = quadrature._CHUNK
    rule = chebyshev_rule(n)
    rng = np.random.default_rng(100 * n + k)
    values = rng.normal(size=(7, n + 1, k)) * 10.0 ** rng.uniform(-3, 3, 7)[
        :, None, None]
    scale = np.max(np.abs(values))
    for m in (0, 1, chunk - 1, chunk, chunk + 1, 2 * chunk + 3):
        x = rng.uniform(-1.0, 1.0, m)
        if m >= 8:  # both ends, interior nodes and their neighbours
            x[:4] = [-1.0, 1.0, rule.x[1], rule.x[n // 2]]
            x[4:8] = np.nextafter(rule.x[[1, 1, n // 2 + 1, -2]],
                                  [-2.0, 2.0, 2.0, -2.0])
            x[-3:] = rule.x[[0, 2, -1]]  # in the last chunk
        which = rng.integers(0, len(values), m)
        got = barycentric(values, x, which)
        assert got.shape == (m, k)
        assert np.max(np.abs(got - _node_loop(values, x, which)),
                      initial=0.0) <= 1e-14 * scale
        hit = np.isin(x, rule.x)
        node = np.searchsorted(rule.x, x[hit])
        assert np.array_equal(got[hit], values[which[hit], node])


@pytest.mark.parametrize("n", [16, 32])
def test_barycentric_rows_do_not_depend_on_their_place(n):
    # a point gives the same bits in any chunk, at any offset in it, and
    # evaluated on its own; the last chunk is 7 rows long
    m = 2 * quadrature._CHUNK + 7
    rng = np.random.default_rng(n)
    values = rng.normal(size=(5, n + 1, 3))
    x = rng.uniform(-1.0, 1.0, m)
    which = rng.integers(0, len(values), m)
    got = barycentric(values, x, which)
    alone = np.concatenate([barycentric(values, x[i:i + 1], which[i:i + 1])
                            for i in range(m)])
    assert np.array_equal(got, alone)
    shifted = barycentric(values, np.roll(x, 3), np.roll(which, 3))
    assert np.array_equal(shifted, np.roll(got, 3, axis=0))


def test_antiderivative_is_zero_at_t0_first_among_many_times():
    # t0 leads ts, and the copy of t0 that __call__ interpolates last
    # lands in another chunk; both must give the same bits
    t0 = 0.3
    ts = np.concatenate([[t0], np.linspace(-1.0, 5.0,
                                           3 * quadrature._CHUNK + 1)])
    anti = Antiderivative(lambda s: np.stack(
        [np.cos(3.0 * s), np.exp(-s)], axis=-1), t0, ts)
    got = anti(ts)
    assert np.all(got[0] == 0.0)
    want = np.stack([(np.sin(3.0 * ts) - np.sin(3.0 * t0)) / 3.0,
                     np.exp(-t0) - np.exp(-ts)], axis=-1)
    assert np.max(np.abs(got - want)) <= 1e-13
