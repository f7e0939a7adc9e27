import math

import numpy as np
import pytest

import quatode as qo
from quatode import CoefficientSet, Quaternion, Trajectory
from quatode._kernels import RK4_BLOCK
from quatode.oracle import oracle_integrate, output_pass, residual_profile
from quatode.quat import ONE, mul_arrays, norm_arrays

from support import (ROTATING_AXES, rk4_stepwise, rotating_axes_exact,
                     sample_exact)

C_ROT = CoefficientSet.pure(*ROTATING_AXES)
FORCING = CoefficientSet.from_strings("1", "sin(t)", "0", "cos(3*t)")
# nodes of a grid that crosses two block joins and does not end on one
JOINS = 2 * RK4_BLOCK + 7


def residual(traj, c):
    """Largest interior-node defect of the trajectory."""
    return float(np.nanmax(residual_profile(traj, c)))


def test_single_axis_rotation():
    c = CoefficientSet.from_strings("0", "1", "0", "0")
    traj = oracle_integrate(c, 0.0, math.pi / 2, ONE, step=1e-3)
    end = traj.endpoint()
    want = Quaternion(math.cos(traj.ts[-1]), math.sin(traj.ts[-1]), 0, 0)
    assert qo.norm(end - want) <= 1e-10


def test_rotating_axes_closed_form():
    traj = oracle_integrate(C_ROT, 0.0, 3.0, ONE, step=1e-3)
    dev = np.max(np.linalg.norm(
        traj.qs[::100] - sample_exact(rotating_axes_exact, traj.ts[::100]),
        axis=1))
    assert dev <= 1e-8


def test_fourth_order_convergence():
    # halving the step cuts the endpoint error ~16x
    errs = {}
    for step in (2e-3, 1e-3):
        traj = oracle_integrate(C_ROT, 0.0, 3.0, ONE, step=step)
        errs[step] = qo.norm(traj.endpoint() - rotating_axes_exact(3.0))
    ratio = errs[2e-3] / errs[1e-3]
    assert 12.0 <= ratio <= 20.0


def test_norm_conserved_for_pure_imaginary():
    traj = oracle_integrate(C_ROT, 0.0, 2.0, ONE, step=1e-3)
    assert float(np.max(np.abs(traj.norms() - 1.0))) <= 1e-8


def test_blowup_detection():
    # a huge scalar part overflows the state quickly
    c = CoefficientSet.from_strings("1e6", "0", "0", "0")
    with pytest.raises(qo.BlowupError):
        oracle_integrate(c, 0.0, 1.0, ONE, step=1e-3)


def test_residual_on_exact_samples():
    ts = np.arange(0.0, 2.0 + 1e-12, 1e-3)
    traj = Trajectory(ts, sample_exact(rotating_axes_exact, ts))
    assert residual(traj, C_ROT) <= 1e-5


def test_residual_is_fourth_order():
    # the defect of exact samples is the stencil's truncation: halving the
    # step divides it by about 2^4
    def worst(step):
        ts = np.arange(0.0, 2.0 + 1e-12, step)
        return residual(Trajectory(ts, sample_exact(rotating_axes_exact, ts)),
                        C_ROT)

    coarse, fine = worst(0.02), worst(0.01)
    assert 12.0 <= coarse / fine <= 20.0
    assert worst(1e-3) <= 1e-10


@pytest.mark.parametrize("nodes,degree", [(3, 2), (4, 2), (5, 4), (11, 4)])
def test_residual_stencils_are_exact_on_their_degree(nodes, degree):
    # q' = f with q a polynomial: the five-point stencils differentiate
    # quartics exactly, the central difference of 3 or 4 nodes quadratics
    zero = CoefficientSet.from_strings("0", "0", "0", "0")
    if degree == 4:
        q, dq = ("t^4", "t^3 - t", "2*t^2", "1"), ("4*t^3", "3*t^2 - 1",
                                                   "4*t", "0")
    else:
        q, dq = ("t^2", "3*t - 1", "2*t^2", "1"), ("2*t", "3", "4*t", "0")
    ts = np.linspace(0.0, 1.0, nodes)
    qs = CoefficientSet.from_strings(*q).sample(ts)
    got = residual_profile(Trajectory(ts, qs), zero,
                           CoefficientSet.from_strings(*dq))
    assert np.isnan(got[[0, -1]]).all()
    assert np.max(got[1:-1]) <= 1e-12


def test_residual_zero_for_constant_solution():
    zero = CoefficientSet.from_strings("0", "0", "0", "0")
    ts = np.linspace(0.0, 1.0, 101)
    traj = Trajectory(ts, np.tile([1.0, 0.0, 0.0, 0.0], (101, 1)))
    assert residual(traj, zero) == 0.0
    traj = Trajectory(ts, np.tile([0.1, -1 / 3, 2 / 7, 1e-3], (101, 1)))
    assert residual(traj, zero) == 0.0


def test_residual_flags_corrupted_node():
    ts = np.arange(0.0, 2.0 + 1e-12, 1e-3)
    qs = sample_exact(rotating_axes_exact, ts)
    qs[500, 1] += 1e-3  # one bad node propagates as delta/step
    traj = Trajectory(ts, qs)
    assert residual(traj, C_ROT) >= 1e-1


def test_residual_needs_three_nodes():
    traj = Trajectory(np.array([0.0, 1.0]), np.zeros((2, 4)))
    with pytest.raises(ValueError):
        residual(traj, C_ROT)


@pytest.mark.parametrize("forcing", [None, FORCING],
                         ids=["unforced", "forced"])
def test_oracle_deviation_matches_the_whole_reference(forcing):
    q0 = Quaternion(0.5, -0.5, 0.5, 0.5)
    ref = oracle_integrate(C_ROT, 0.0, (JOINS - 1) * 1e-3, q0, 1e-3, forcing)
    assert len(ref) == JOINS
    rng = np.random.default_rng(5)
    qs = ref.qs + rng.normal(scale=1e-9, size=ref.qs.shape)
    want = float(np.max(norm_arrays(ref.qs - qs)))
    got = output_pass(ref.ts, lambda rows: qs[rows], C_ROT, q0, forcing,
                      verify=True)[1]
    assert got == want


@pytest.mark.parametrize("forcing", [None, FORCING],
                         ids=["unforced", "forced"])
def test_oracle_blocks_join_like_one_stepwise_run(forcing):
    # the oracle's blocks are one kernel scan each, joined at their last
    # rows; stepwise RK4 on the same half-step tables has no joins.  The
    # two differ by rounding only (3.2e-13 unforced, 1.7e-13 forced)
    q0 = Quaternion(0.5, -0.5, 0.5, 0.5)
    traj = oracle_integrate(C_ROT, 0.0, (JOINS - 1) * 1e-3, q0, 1e-3,
                            forcing)
    assert len(traj) == JOINS
    half_ts = np.linspace(traj.ts[0], traj.ts[-1], 2 * JOINS - 1)
    want = rk4_stepwise(C_ROT.sample(half_ts), q0.to_array(), traj.step,
                        None if forcing is None else forcing.sample(half_ts))
    scale = np.linalg.norm(want, axis=1)
    assert np.max(np.linalg.norm(traj.qs - want, axis=1) / scale) <= 1e-12


@pytest.mark.parametrize("t0", [0.0, 1000.0, 1e6])
def test_oracle_steps_by_the_grid_spacing(t0):
    # exp(i (t - t0)) solves a = i exactly.  Far from 0 the grid's first
    # interval is rounded to ulp(t0); stepping by it instead of the mean
    # spacing drifts over the 10000 steps (2.4e-10 at 1000, 4.7e-7 at 1e6)
    c = CoefficientSet.from_strings("0", "1", "0", "0")
    ts = qo.uniform_grid(t0, t0 + 10.0, 1e-3)
    exact = np.zeros((len(ts), 4))
    exact[:, 0], exact[:, 1] = np.cos(ts - t0), np.sin(ts - t0)
    dev = output_pass(ts, lambda rows: exact[rows], c, verify=True)[1]
    assert dev <= 1e-12 + 10 * math.ulp(t0)


@pytest.mark.parametrize("t0, span, step", [(0.0, 1.0, 1e-2),
                                             (1e6, 10.0, 1e-3),
                                             (1e12, 1.0, 1e-2)])
def test_oracle_steps_each_interval_by_its_width(t0, span, step):
    # exp(i (t - t0)) solves a = i exactly, and RK4 is off by span h^4 / 120
    # on it.  Nodes far from 0 are rounded to ulp(t): a mean step would
    # add that rounding as a phase (5.9e-5 at 1e12, 5.8e-11 at 1e6)
    c = CoefficientSet.from_strings("0", "1", "0", "0")
    ts = qo.uniform_grid(t0, t0 + span, step)
    exact = np.zeros((len(ts), 4))
    exact[:, 0], exact[:, 1] = np.cos(ts - t0), np.sin(ts - t0)
    dev = output_pass(ts, lambda rows: exact[rows], c, verify=True)[1]
    assert dev <= 1.5 * span * step**4 / 120


def _whole_residual(traj, c, forcing):
    """residual_profile's stencils and defect over the whole grid at once,
    in the same order of operations."""
    q, ts = traj.qs, traj.ts
    deriv = np.empty((len(q) - 2, 4))
    deriv[1:-1] = 8.0 * (q[3:-1] - q[1:-3]) - (q[4:] - q[:-4])
    ends = np.array([3.0, 13.0, -5.0, 1.0])
    deriv[0] = ends @ np.diff(q[:5], axis=0)
    deriv[-1] = ends @ np.diff(q[-5:], axis=0)[::-1]
    deriv /= 12.0 * traj.step
    rhs = mul_arrays(c.sample(ts[1:-1]), q[1:-1])
    if forcing is not None:
        rhs = rhs + forcing.sample(ts[1:-1])
    return np.concatenate([[np.nan], norm_arrays(deriv - rhs), [np.nan]])


@pytest.mark.parametrize("nodes", [5, 6, RK4_BLOCK + 3, JOINS])
@pytest.mark.parametrize("forcing", [None, FORCING],
                         ids=["unforced", "forced"])
def test_residual_blocks_join_like_the_whole_grid(nodes, forcing):
    # RK4_BLOCK + 3 nodes leave node n - 2 alone in the last block
    ts = np.linspace(0.0, 2.0, nodes)
    qs = np.random.default_rng(6).uniform(-1.0, 1.0, (nodes, 4))
    traj = Trajectory(ts, qs)
    got = residual_profile(traj, C_ROT, forcing)
    assert np.array_equal(got, _whole_residual(traj, C_ROT, forcing),
                          equal_nan=True)


@pytest.mark.parametrize("t0, t_end, nodes", [
    (0.0, 3.0, JOINS), (-1.5, 2.0 / 3.0, RK4_BLOCK + 2),
    (1e12, 1000000000001.0, 101)], ids=["joins", "odd", "far"])
def test_half_step_tables_are_rows_of_one_linspace(monkeypatch, t0, t_end,
                                                   nodes):
    # each block makes its own half-step times; joined, they are the
    # half-step grid bit for bit, and its even rows are the nodes, so the
    # residual can read the oracle's table
    seen = []
    sample = C_ROT.sample
    monkeypatch.setattr(C_ROT, "sample",
                        lambda times: seen.append(times) or sample(times))
    ts = np.linspace(t0, t_end, nodes)
    zeros = np.zeros((nodes, 4))
    output_pass(ts, lambda rows: zeros[rows], C_ROT, verify=True)
    half = np.linspace(t0, t_end, 2 * nodes - 1)
    assert len(seen) == -(-(nodes - 1) // RK4_BLOCK)
    assert np.array_equal(
        np.concatenate([t[:-1] for t in seen[:-1]] + seen[-1:]), half)
    assert np.array_equal(half[::2], ts)
