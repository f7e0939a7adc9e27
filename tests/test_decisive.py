import math
import time
import tracemalloc

import numpy as np
import numpy.polynomial.chebyshev as cheb
import pytest

import quatode as qo
from quatode import CoefficientSet, PhaseTriple, PicardConfig, Quaternion
from quatode import _kernels, decisive, expr
from quatode.commutative import check_proportionality
from quatode.decisive import (
    picard_solve,
    solve_segmented,
    try_special_case,
)
from quatode.phase import compose_arrays
from quatode.quadrature import chebyshev_rule, piecewise
from quatode.quat import I, ONE, mul_arrays

from support import (
    DRIFTING_JK,
    DRIFTING_KJ,
    ROTATING_AXES,
    drifting_jk_exact,
    drifting_kj_exact,
    random_pure_coeffs,
    ratio123_closed_form,
    rotating_axes_exact,
    sample_exact,
    sup_deviation,
)

C_ROT = CoefficientSet.pure(*ROTATING_AXES)
C_JK = CoefficientSet.pure(*DRIFTING_JK)
C_KJ = CoefficientSet.pure(*DRIFTING_KJ)


def _split_solve(c, t0, t_end, q0, ts):
    """q' = a(t) q at ``ts``: the Picard unit solution of the imaginary
    part, with the scalar gain and q0 applied by the variation of
    constants."""
    sol = solve_segmented(c, t0, t_end, ONE)
    return qo.variation_of_constants(c, lambda s, a: sol.sample(s), q0, ts,
                                     t0)


# ---------------------------------------------------------------------------
# right-hand side
# ---------------------------------------------------------------------------

def test_rhs_at_origin_returns_coefficients():
    c = CoefficientSet.pure("sin(t)", "t^2", "cos(t)")
    ts = np.array([0.0, 0.7, 2.0])
    f = _kernels.angle_rates(np.zeros((3, 3)), c.sample(ts, (1, 2, 3)))
    want = [[math.sin(t), t * t, math.cos(t)] for t in ts.tolist()]
    assert np.allclose(f, want, atol=0)


def test_rhs_along_known_solution():
    # on the rotating-axes problem the angles (0, t, t) solve the system,
    # so f there must be (0, 1, 1)
    ts = np.array([0.1, 0.3])
    theta = np.column_stack([np.zeros(2), ts, ts])
    f = _kernels.angle_rates(theta, C_ROT.sample(ts, (1, 2, 3)))
    assert np.allclose(f, [[0.0, 1.0, 1.0]] * 2, atol=1e-14)


# ---------------------------------------------------------------------------
# picard window
# ---------------------------------------------------------------------------

def test_picard_zero_coefficients():
    c = CoefficientSet.pure("0", "0", "0")
    res = picard_solve(c, 0.0, PicardConfig(a=1.0))
    assert res.h == 1.0  # M = 0 leaves the whole radius
    assert np.all(res.thetas == 0.0)
    assert res.iterations <= 2


def test_picard_requires_time_radius():
    with pytest.raises(TypeError):
        PicardConfig()


def test_picard_window_bound_and_box():
    cfg = PicardConfig(a=2.0)
    res = picard_solve(C_JK, 0.0, cfg)
    assert res.h > 0.0
    assert res.h == pytest.approx(min(cfg.a, 0.9 * cfg.b / res.m_bound),
                                  rel=0, abs=0)
    radii = np.sqrt(np.sum(res.thetas ** 2, axis=1))
    assert float(np.max(radii)) <= cfg.b


def test_picard_drifting_jk_phases():
    # the exact angles for this family are (t, 0, -t^2/2)
    res = picard_solve(C_JK, 0.0, PicardConfig(a=2.0))
    want = np.stack([res.ts, np.zeros_like(res.ts), -0.5 * res.ts ** 2],
                    axis=-1)
    assert float(np.max(np.abs(res.thetas - want))) <= 1e-9


def test_picard_vs_oracle_random():
    rng = np.random.default_rng(31)
    for _ in range(3):
        c = random_pure_coeffs(rng)
        res = picard_solve(c, 0.0, PicardConfig(a=1.0))
        qs = qo.compose(PhaseTriple(*res.thetas[-1]))
        ref = qo.oracle_integrate(c, 0.0, float(res.ts[-1]), ONE,
                                  step=1e-3).endpoint()
        assert qo.norm(qs - ref) <= 1e-6


def test_picard_diffs_nonincreasing_after_first():
    res = picard_solve(C_ROT, 0.0, PicardConfig(a=3.0))
    d = res.diffs
    assert all(b <= a + 1e-15 for a, b in zip(d[1:], d[2:]))


def test_picard_iteration_cap(monkeypatch):
    monkeypatch.setattr(decisive, "_MAX_ITER", 2)
    with pytest.raises(qo.NoConvergenceError):
        picard_solve(C_ROT, 0.0, PicardConfig(a=3.0))


def _window(c, t0, t1):
    """One window [t0, t1] through ``decisive._iterate``, as the chain
    runs it: a :class:`PicardResult` or the reason it was rejected."""
    return decisive._iterate(c, np.array([t0]), np.array([t1]))[0]


def test_picard_explicit_width_keeps_every_check(monkeypatch):
    cfg = PicardConfig(a=2.0)
    first = picard_solve(C_JK, 0.0, cfg)
    same = _window(C_JK, 0.0, first.h)
    assert same.h == first.h
    assert np.array_equal(same.thetas, first.thetas)
    # a window wider than criterion 9's may still stay in the box
    wide = _window(C_JK, 0.0, 4.0 * first.h)
    assert wide.h == 4.0 * first.h and wide.h > first.h
    assert float(np.max(np.linalg.norm(wide.thetas, axis=1))) <= cfg.b
    assert _window(C_JK, 0.0, 1.0) == "iterate escaped the Picard box"
    monkeypatch.setattr(decisive, "_MAX_ITER", 2)
    with pytest.raises(qo.NoConvergenceError):
        _window(C_JK, 0.0, first.h)


def test_explicit_width_bound_comes_from_the_nodes(monkeypatch):
    calls = []
    original = expr.eval_array

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(expr, "eval_array", counted)
    res = _window(C_JK, 0.5, 0.7)
    assert len(res.ts) == 17 and len(calls) == 3  # a1..a3 at the nodes once
    a = C_JK.sample(res.ts, (1, 2, 3))
    speed = float(np.max(np.linalg.norm(a, axis=1)))
    # the corner bound includes the center th = 0, where |f| = |a|
    assert res.m_bound >= speed
    assert res.m_bound == decisive._corner_bound(a, PicardConfig.b)


# ---------------------------------------------------------------------------
# segmented continuation
# ---------------------------------------------------------------------------

def test_segmented_rotating_axes():
    sol = solve_segmented(C_ROT, 0.0, 3.0, ONE)
    ts = np.linspace(0.0, 3.0, 601)
    dev = sup_deviation(sol.sample(ts), sample_exact(rotating_axes_exact, ts))
    assert dev <= 1e-6
    assert len(sol.segments) > 1  # the span genuinely needs chaining
    # joints are continuous: each anchor equals the previous segment's end
    anchors = [Quaternion.from_array(a) for a in sol.anchors]
    for prev, anchor, cur in zip(sol.segments, anchors, anchors[1:]):
        end = qo.mul(qo.compose(PhaseTriple(*prev.thetas[-1])), anchor)
        assert qo.norm(end - cur) <= 1e-9


def test_anchors_are_the_prefix_products_of_the_end_turns():
    sol = solve_segmented(C_ROT, 0.0, 3.0, ONE)
    assert sol.anchors.shape == (len(sol.segments), 4)
    assert np.array_equal(sol.anchors[0], [1.0, 0.0, 0.0, 0.0])
    ends = np.array([s.thetas[-1] for s in sol.segments[:-1]])
    turns = compose_arrays(*ends.T)
    assert np.array_equal(sol.anchors[1:], _kernels.prefix_products(turns)[0])


def test_segmented_single_axis_rotation():
    c = CoefficientSet.pure("1", "0", "0")
    sol = solve_segmented(c, 0.0, 2.0, ONE)
    ts = np.array([0.0, 0.5, 1.7, 2.0])
    want = np.column_stack([np.cos(ts), np.sin(ts), 0 * ts, 0 * ts])
    assert sup_deviation(sol.sample(ts), want) <= 1e-8


def test_segmented_drifting_kj():
    sol = solve_segmented(C_KJ, 0.0, 2.0, ONE)
    ts = np.linspace(0.0, 2.0, 401)
    dev = sup_deviation(sol.sample(ts), sample_exact(drifting_kj_exact, ts))
    assert dev <= 1e-6


def test_segmented_carries_initial_value():
    q0 = Quaternion(0.5, -0.5, 0.5, 0.5)
    sol = solve_segmented(C_JK, 0.0, 2.0, q0)
    ts = np.linspace(0.0, 2.0, 201)
    want = np.stack([qo.mul(drifting_jk_exact(t), q0).to_array()
                     for t in ts])
    assert sup_deviation(sol.sample(ts), want) <= 1e-6


def test_segmented_norm_conservation():
    rng = np.random.default_rng(13)
    for _ in range(5):
        c = random_pure_coeffs(rng)
        sol = solve_segmented(c, 0.0, 2.0, ONE)
        qs = sol.sample(np.linspace(0.0, 2.0, 400))
        assert float(np.max(np.abs(np.linalg.norm(qs, axis=1) - 1.0))) \
            <= 1e-9


def test_segmented_residual():
    sol = solve_segmented(C_ROT, 0.0, 3.0, ONE)
    ts = np.linspace(0.0, 3.0, 3001)
    traj = qo.Trajectory(ts, sol.sample(ts))
    assert np.nanmax(qo.residual_profile(traj, C_ROT)) <= 1e-5


def _about_i(angle: np.ndarray) -> np.ndarray:
    """e^{i angle} as quaternion rows."""
    zero = np.zeros_like(angle)
    return np.stack([np.cos(angle), np.sin(angle), zero, zero], axis=-1)


@pytest.mark.parametrize("strings, t_end, exact", [
    (ROTATING_AXES, 3.0, rotating_axes_exact),
    (DRIFTING_JK, 2.0, drifting_jk_exact),
])
def test_segmented_matches_exact_solution(strings, t_end, exact):
    sol = solve_segmented(CoefficientSet.pure(*strings), 0.0, t_end, ONE)
    ts = np.linspace(0.0, t_end, 2001)
    assert sup_deviation(sol.sample(ts), sample_exact(exact, ts)) <= 1e-11


def test_degree_escalation_resolves_fast_coefficient():
    # a window as wide as 0.9 b / M holds several periods of sin(100 t),
    # which 17 Lobatto nodes cannot resolve; the exact solution of
    # q' = a1 i q is e^{i A1}
    c = CoefficientSet.pure("3*sin(100*t)", "0", "0")
    sol = solve_segmented(c, 0.0, 5.0, ONE)
    assert max(len(s.ts) for s in sol.segments) > 17
    ts = np.linspace(0.0, 5.0, 5001)
    want = _about_i(0.03 * (1.0 - np.cos(100.0 * ts)))
    assert sup_deviation(sol.sample(ts), want) <= 1e-9


def test_unresolved_window_is_halved_not_accepted():
    c = CoefficientSet.pure("sin(1000*t)", "0", "0")
    with pytest.raises(qo.SingularTheta2Error, match="not resolved"):
        picard_solve(c, 0.0, PicardConfig(a=0.5))
    sol = solve_segmented(c, 0.0, 0.5, ONE)
    first_h = 0.9 * PicardConfig.b / sol.segments[0].m_bound
    assert sol.retries >= 1
    assert all(s.t_end - s.t_start < 0.5 * first_h for s in sol.segments)
    ts = np.linspace(0.0, 0.5, 5001)
    want = _about_i((1.0 - np.cos(1000.0 * ts)) / 1000.0)
    assert sup_deviation(sol.sample(ts), want) <= 1e-11


# a1 = 1 + 100/(1 + 100 (t-9)^2): the exact solution is e^{i A1} with
# A1 = t + 10 (atan(10 (t-9)) + atan(90))
C_SPIKE = CoefficientSet.pure("1 + 100/(1 + 100*(t-9)^2)", "0", "0")


def _spike_exact(ts):
    return _about_i(ts + 10.0 * (np.arctan(10.0 * (ts - 9.0))
                                 + np.arctan(90.0)))


def test_window_grows_past_criterion_9():
    sol = solve_segmented(C_ROT, 0.0, 3.0, ONE)
    first_h = picard_solve(C_ROT, 0.0, PicardConfig(a=3.0)).h
    assert len(sol.segments) <= 15
    assert max(s.t_end - s.t_start for s in sol.segments) > first_h
    ts = np.linspace(0.0, 3.0, 2001)
    dev = sup_deviation(sol.sample(ts), sample_exact(rotating_axes_exact, ts))
    assert dev <= 1e-11


def test_spike_ahead_does_not_shrink_earlier_windows():
    sol = solve_segmented(C_SPIKE, 0.0, 10.0, ONE)
    # criterion 9 over the whole span sees the spike at t = 9
    over_span = picard_solve(C_SPIKE, 0.0, PicardConfig(a=10.0)).h
    assert sol.segments[0].t_end > 10.0 * over_span
    assert len(sol.segments) <= 200
    ts = np.linspace(0.0, 10.0, 20001)
    assert sup_deviation(sol.sample(ts), _spike_exact(ts)) <= 1e-11


def test_narrow_spike_on_a_long_span_still_solves():
    # near t = 0.25 the windows are about 5e-5 wide, under 1e-6 of the span
    c = CoefficientSet.pure("1 + 1e4/(1 + 1e6*(t-0.25)^2)", "0", "0")
    sol = solve_segmented(c, 0.0, 100.0, ONE)
    assert min(s.t_end - s.t_start for s in sol.segments) < 1e-4
    ts = np.concatenate([np.linspace(0.0, 100.0, 20001),
                         np.linspace(0.24, 0.26, 4001)])
    want = _about_i(ts + 10.0 * (np.arctan(1000.0 * (ts - 0.25))
                                 + np.arctan(250.0)))
    assert sup_deviation(sol.sample(ts), want) <= 1e-11


def test_narrow_spike_at_a_large_time_solves():
    # at t = 50 the node times carry rounding of ulp(50) = 7e-15, which
    # moves f by up to 1e-10 of its peak: a tail test fixed at 1e-13 of
    # max |f| accepted no window near the spike, the rounding floor does
    c = CoefficientSet.pure("1 + 1e4/(1 + 1e8*(t-50)^2)", "0", "0")
    sol = solve_segmented(c, 0.0, 100.0, ONE)
    ts = np.concatenate([np.linspace(0.0, 100.0, 20001),
                         np.linspace(49.99, 50.01, 4001)])
    want = _about_i(ts + np.arctan(1e4 * (ts - 50.0)) + np.arctan(5e5))
    # e^{i A1} at float times is itself conditioned to max |a1| ulp(50)
    bound = 10.0 * (1.0 + 1e4) * np.spacing(50.0)
    assert sup_deviation(sol.sample(ts), want) <= bound
    # with a2 = 1 the angles couple; the chain must still pass the spike
    c = CoefficientSet.pure("1 + 1e4/(1 + 1e8*(t-50)^2)", "1", "0")
    sol = solve_segmented(c, 0.0, 100.0, ONE)
    assert sol.t_end == 100.0
    norms = np.linalg.norm(sol.sample(ts), axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-12


C_POLE = CoefficientSet.pure("1/(t-0.5)^2", "1/(t-0.5)^2", "0")


def test_pole_is_a_domain_error():
    # the plan reads the integral of the coefficient over [0, 1], one of
    # whose Lobatto nodes lands on the pole, so the chain never starts
    with pytest.raises(qo.DivisionByZeroError,
                       match=r"^division by zero at t=0\.5 in "):
        solve_segmented(C_POLE, 0.0, 1.0, ONE)


@pytest.mark.parametrize("c, t_end",
                         [(C_SPIKE, 10.0), (C_ROT, 3.0), (C_POLE, 0.45)])
def test_rejected_window_attempts_are_bounded(monkeypatch, c, t_end):
    windows = []
    original = decisive._iterate

    def counted(c, starts, ends):
        windows.append(len(starts))
        return original(c, starts, ends)

    monkeypatch.setattr(decisive, "_iterate", counted)
    sol = solve_segmented(c, 0.0, t_end, ONE)
    rejected = sum(windows) - len(sol.segments)
    assert rejected == sol.retries
    assert rejected <= 0.25 * len(sol.segments)


# a generic coefficient with a scalar part on [0, 30]
C_LONG = CoefficientSet.from_strings(
    "(-0.006801) + (0.255403)*sin((0.561193)*t + (1.188136))",
    "(0.292255) + (0.697279)*sin((0.975086)*t + (6.238113))",
    "(0.281423) + (0.693034)*sin((1.37623)*t + (1.551414))",
    "(0.293695) + (0.711292)*sin((1.795351)*t + (5.314723))")


def test_chain_reuses_the_integral_detection_built(monkeypatch):
    # the plan reads the integral already built over the output times, so
    # the windows sample the coefficient once per Lobatto degree; the
    # chain that grew windows one at a time made 420 evaluations here
    ts = np.linspace(0.0, 30.0, 30001)
    C_LONG.integral(0.0, ts)
    calls = []
    original = expr.eval_array

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(expr, "eval_array", counted)
    sol = solve_segmented(C_LONG, 0.0, ts, ONE)
    assert len(calls) <= 12
    assert sol.t_end == 30.0


@pytest.mark.parametrize("c, t_end, message", [
    # |a_im| near 1.4e9 needs windows of about 4e-10
    (CoefficientSet.pure("1e9", "1e9*sin(t)", "0"), 1.0, "under 1e-08"),
    # |a_im| = 1e5 on [0, 100] needs about 1.8e7 windows
    (CoefficientSet.pure("1e5", "0", "0"), 100.0, "more than 4096"),
], ids=["narrow", "many"])
def test_window_bounds_stall_before_allocating(c, t_end, message):
    c.integral(0.0, t_end)
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(qo.StalledSegmentError, match=message) as exc:
            solve_segmented(c, 0.0, t_end, ONE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak <= 2**20
    assert "np.float64" not in str(exc.value)  # times print as plain floats


@pytest.mark.parametrize("t_end, message", [
    (1e-7, r"under 2e-08 wide \(rejected\)"),
    (1.0, "more than 4096"),
], ids=["narrow", "many"])
def test_split_windows_are_bounded(monkeypatch, t_end, message):
    # every window rejected: the halves of [0, 1e-7] reach the stall floor
    # in four rounds, those of [0, 1] outnumber the cap in eleven
    monkeypatch.setattr(decisive, "_iterate",
                        lambda c, starts, ends: ["rejected"] * len(starts))
    with pytest.raises(qo.StalledSegmentError, match=message) as exc:
        solve_segmented(C_ROT, 0.0, t_end, ONE)
    assert "np.float64" not in str(exc.value)


def test_every_node_of_every_segment_stays_in_the_box():
    # the box |th| <= b keeps |th2| <= b < pi/4, away from the singularity
    b = PicardConfig.b
    for c, t_end in ((C_ROT, 3.0), (C_SPIKE, 10.0)):
        sol = solve_segmented(c, 0.0, t_end, ONE)
        for seg in sol.segments:
            assert float(np.max(np.linalg.norm(seg.thetas, axis=1))) <= b


def test_window_under_the_advance_floor_may_finish_the_span():
    # windows grown in width from t0 fall 9.5e-9 short of this t_end,
    # under the stall floor 1e-8; the planned ones end exactly on it
    t_end = 2.13760853767395
    sol = solve_segmented(C_ROT, 0.0, t_end, ONE)
    assert sol.t_end == t_end
    ts = np.linspace(0.0, t_end, 2001)
    dev = sup_deviation(sol.sample(ts), sample_exact(rotating_axes_exact, ts))
    assert dev <= 1e-11


@pytest.mark.parametrize("strings, t_end, degrees", [
    (("0.3*cos(t)", *ROTATING_AXES), 3.0, 1),
    (("0", "3*sin(100*t)", "0", "0"), 5.0, 2),
], ids=["scalar_part", "mixed_degree"])
def test_sample_matches_segment_phases_on_unsorted_times(strings, t_end,
                                                         degrees):
    c = CoefficientSet.from_strings(*strings)
    sol = solve_segmented(c, 0.0, t_end, ONE)
    assert len({len(s.ts) for s in sol.segments}) >= degrees
    joints = [s.t_start for s in sol.segments] + [sol.t_end]
    ts = np.concatenate([joints, np.linspace(0.0, t_end, 97)])
    ts = np.random.default_rng(5).permutation(ts)
    gain = c.integral(0.0, ts).project(np.eye(4)[0])
    want = []
    for t in ts:  # a joint belongs to the segment it starts
        k = [k for k, s in enumerate(sol.segments) if s.t_start <= t][-1]
        seg = sol.segments[k]
        theta = piecewise(np.array([seg.t_start, seg.t_end]),
                          seg.thetas[None], np.array([t]))[0]
        q = mul_arrays(mul_arrays(compose_arrays(*theta.T), sol.anchors[k]),
                       I.to_array())[0]
        want.append(math.exp(float(gain(t))) * q)
    got = qo.variation_of_constants(c, lambda s, a: sol.sample(s), I, ts)
    assert sup_deviation(got, np.stack(want)) <= 1e-14


def test_sample_on_reversed_times_equals_the_forward_result():
    # runs of one segment come in the other order, row for row the same
    sol = solve_segmented(C_ROT, 0.0, 3.0, ONE)
    ts = np.linspace(0.0, 3.0, 3001)
    assert len(sol.segments) > 1
    assert np.array_equal(sol.sample(ts[::-1]), sol.sample(ts)[::-1])


def test_theorem_identity_reproduces_coefficients():
    # the computed angles must reproduce a1..a3 through the pre-inversion
    # form of the angle system; th' comes from differentiating each
    # segment's Chebyshev interpolant
    sol = solve_segmented(C_ROT, 0.0, 3.0, ONE)
    worst = 0.0
    for seg in sol.segments:
        th, ts = seg.thetas, seg.ts
        rule = chebyshev_rule(len(ts) - 1)
        coeffs = rule.to_coeffs @ th
        dth = cheb.chebval(rule.x, cheb.chebder(coeffs)).T
        dth *= 2.0 / (seg.t_end - seg.t_start)
        s1, c1 = np.sin(2 * th[:, 0]), np.cos(2 * th[:, 0])
        s2, c2 = np.sin(2 * th[:, 1]), np.cos(2 * th[:, 1])
        lhs1 = dth[:, 0] + dth[:, 2] * s2
        lhs2 = dth[:, 1] * c1 - dth[:, 2] * s1 * c2
        lhs3 = dth[:, 1] * s1 + dth[:, 2] * c1 * c2
        lhs = np.column_stack([lhs1, lhs2, lhs3])
        worst = max(worst, float(np.max(np.abs(
            lhs - C_ROT.sample(ts, (1, 2, 3))))))
    assert worst <= 1e-9


def test_sample_outside_interval_raises():
    sol = solve_segmented(C_JK, 0.0, 1.0, ONE)
    with pytest.raises(ValueError, match=r"interval \[0\.0, 1\.0\]"):
        sol.sample(np.array([1.5]))
    with pytest.raises(ValueError):
        sol.sample(np.array([0.5, 2.0]))


def test_sample_peak_memory_is_bounded():
    # a generic coefficient with a scalar part on [0, 30], sampled on the
    # 30001-node default grid: 64 windows of 17 to 33 nodes.  Evaluated one
    # node at a time for every point the peak was 5.50 MiB; the chunked
    # kernel's is 4.67 MiB.
    c = C_LONG
    ts = np.linspace(0.0, 30.0, 30001)
    sol = solve_segmented(c, 0.0, 30.0, ONE)
    q0 = Quaternion(0.624771, -0.12724, -0.709517, 0.300095)
    # the first call imports numpy.ma (np.unique), which the peak of the
    # kernel must not count
    sol.sample(ts[:3])
    tracemalloc.start()
    try:
        qs = qo.variation_of_constants(c, lambda s, a: sol.sample(s), q0, ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert qs.shape == (30001, 4)
    assert peak <= 5 * 2**20


# ---------------------------------------------------------------------------
# scalar split
# ---------------------------------------------------------------------------

def test_scalar_split_pure_exponential():
    c = CoefficientSet.from_strings("1", "0", "0", "0")
    ts = np.array([0.5, 1.0, 2.0])
    want = np.exp(ts - 0.5)[:, None] * ONE.to_array()
    assert sup_deviation(_split_solve(c, 0.5, 2.0, ONE, ts), want) <= 1e-9


def test_scalar_split_matches_commutative_route():
    c = CoefficientSet.from_strings("t^2", "t", "2*t", "3*t")
    ts = np.array([0.25, 0.6, 1.0])
    want = np.stack([ratio123_closed_form(t).to_array() for t in ts])
    assert sup_deviation(_split_solve(c, 0.0, 1.0, I, ts), want) <= 1e-6


def test_scalar_split_norm_growth():
    # norm evolves exactly as the scalar gain e^{t^2/2} while the
    # imaginary part only rotates
    c = CoefficientSet.from_strings("t", "sin(2*t)", "1", "cos(2*t)")
    ts = np.array([0.5, 1.0, 2.0])
    norms = np.linalg.norm(_split_solve(c, 0.0, 2.0, ONE, ts), axis=1)
    assert norms == pytest.approx(np.exp(0.5 * ts * ts), rel=1e-8)


# ---------------------------------------------------------------------------
# frozen-angle special cases
# ---------------------------------------------------------------------------

def test_special_case_detection():
    assert try_special_case(C_ROT, 0.0, 3.0).case == "I"
    assert try_special_case(C_JK, 0.0, 2.0).case == "II"
    assert try_special_case(C_KJ, 0.0, 2.0).case == "III"


@pytest.mark.parametrize("strings, t_end, proportional, case", [
    # a1 = 1 beside a small a2: family II's defect is a2 cos 2A1
    (("1", "4e-10", "0"), 3.0, True, "II"),
    (("1", "2e-9", "0"), 3.0, True, None),
    (("1", "4e-10*cos(3*t)", "0"), 3.0, True, "II"),
    # a shipped family off by a constant, on the scale of its pair (a1, a3)
    (("sin(2*t) + 5e-10", "1", "cos(2*t)"), 3.0, False, "I"),
    (("sin(2*t) + 3e-9", "1", "cos(2*t)"), 3.0, False, None),
    (("1", "t*sin(2*t) + 8e-10", "-t*cos(2*t)"), 2.0, False, "II"),
    # the same family scaled to a1 = 100 and 5e-8 off: II's defect is
    # 5e-8 cos^2(200 t) on its pair (a2, a3), not on |a_im| ~ 100
    (("100", "t*sin(200*t) + 5e-8*cos(200*t)", "-t*cos(200*t)"), 3.0,
     False, None),
    # ROADMAP item 6's reproduction on [0, 100], which both detectors admit
    # at the pointwise threshold; item 6's integral bound is to reject it
    (("1", "4.5e-10*cos(2*t)", "0"), 100.0, True, "II"),
    # the frozen angle's cos 2A crosses 0 inside the span
    (ROTATING_AXES, 3.0, False, "I"),
    (DRIFTING_KJ, 2.0, False, "III"),
], ids=["const_4e-10", "const_2e-9", "cos3t_4e-10", "rot_5e-10", "rot_3e-9",
        "jk_8e-10", "jk_a1_100", "item6", "rot_cos_0", "kj_cos_0"])
def test_detection_near_the_threshold(strings, t_end, proportional, case):
    # the decisions within a few _DETECTION_TOL of the threshold
    c = CoefficientSet.pure(*strings)
    assert check_proportionality(c, 0.0, t_end).is_proportional is proportional
    special = try_special_case(c, 0.0, t_end)
    assert (None if special is None else special.case) == case


def test_special_case_no_match():
    c = CoefficientSet.pure("1", "1", "1")
    assert try_special_case(c, 0.0, 2.0) is None


def test_special_case_rotating_axes_closed_form():
    sc = try_special_case(C_ROT, 0.0, 3.0)
    ts = np.linspace(0.0, 3.0, 301)
    dev = sup_deviation(sc.sample(ts), sample_exact(rotating_axes_exact, ts))
    assert dev <= 1e-9
    # angles are (0, t, t) for this family
    th1, th2, th3 = sc.theta(np.array([1.3]))[0]
    assert th1 == 0.0
    assert th2 == pytest.approx(1.3, abs=1e-11)
    assert th3 == pytest.approx(1.3, abs=1e-9)


def test_special_case_drifting_jk_closed_form():
    sc = try_special_case(C_JK, 0.0, 2.0)
    ts = np.linspace(0.0, 2.0, 201)
    dev = sup_deviation(sc.sample(ts), sample_exact(drifting_jk_exact, ts))
    assert dev <= 1e-9


def test_special_case_agrees_with_picard_window():
    res = picard_solve(C_KJ, 0.0, PicardConfig(a=2.0))
    sc = try_special_case(C_KJ, 0.0, 2.0)
    qs_picard = qo.compose(PhaseTriple(*res.thetas[-1]))
    qs_exact = Quaternion.from_array(sc.sample(res.ts[-1:])[0])
    assert qo.norm(qs_picard - qs_exact) <= 1e-6


def test_special_case_nonzero_start():
    # the family defects are relative to the interval start, so shift
    # the rotating-axes family to start at t0 = 0.5
    c = CoefficientSet.pure("sin(2*(t-0.5))", "1", "cos(2*(t-0.5))")
    sc = try_special_case(c, 0.5, 2.0)
    assert sc is not None and sc.case == "I"
    got = sc.sample(np.array([0.5, 1.0, 2.0]))
    assert qo.norm(Quaternion.from_array(got[0]) - ONE) <= 1e-12  # y(t0) = 1
    for t, row in zip((1.0, 2.0), got[1:]):
        want = qo.mul(qo.exp_q(Quaternion(0, 0, t - 0.5, 0)),
                      qo.exp_q(Quaternion(0, 0, 0, t - 0.5)))
        assert qo.norm(Quaternion.from_array(row) - want) <= 1e-9


@pytest.mark.parametrize("path", ["commutative", "special", "picard",
                                  "forced"])
def test_variation_of_constants_rows_do_not_depend_on_their_block(path):
    # two block joins crossed; reversed, each row lands in another block
    ts = np.linspace(0.0, 3.0, 2 * _kernels.RK4_BLOCK + 7)
    forcing = None
    if path == "commutative":
        c = CoefficientSet.from_strings("t^2", "t", "2*t", "3*t")
        report = qo.check_proportionality(c, 0.0, ts)
        assert report.is_proportional
        unit = qo.CommutativeSolver(report.direction).sample
    elif path == "special":
        c, special = C_ROT, try_special_case(C_ROT, 0.0, ts)
        assert special is not None
        unit = lambda s, a: special.sample(s)
    else:
        c, sol = C_LONG, solve_segmented(C_LONG, 0.0, ts, ONE)
        unit = lambda s, a: sol.sample(s)
        if path == "forced":
            forcing = CoefficientSet.from_strings("1", "sin(t)", "0",
                                                  "cos(3*t)")
    q0 = Quaternion(0.5, -0.5, 0.5, 0.5)
    whole = qo.variation_of_constants(c, unit, q0, ts, 0.0, forcing)
    flipped = qo.variation_of_constants(c, unit, q0, ts[::-1], 0.0, forcing)
    assert np.all(np.isfinite(whole))
    assert np.array_equal(flipped[::-1], whole)
