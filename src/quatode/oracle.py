"""Independent ground truth for the quaternion linear ODE.

The equation q' = a(t) q + f(t) is, on components, the 4-D real linear
system q_vec' = M(t) q_vec + f_vec with

    M(t) = [[a0, -a1, -a2, -a3],
            [a1,  a0, -a3,  a2],
            [a2,  a3,  a0, -a1],
            [a3, -a2,  a1,  a0]].

The scalar part contributes a0 * I and the imaginary part a skew-symmetric
block (``M + M^T = 2 a0 I``), which is why the norm is conserved when
a0 = 0 and f = 0.  Integrating this system with plain fixed-step RK4, forcing
included, gives a reference solution that shares no code path with the
phase-angle and closed-form solvers beyond the quaternion and coefficient
primitives, so agreement between them is meaningful evidence.  Each RK4
step is an affine map q -> P q + r, and ``_kernels.rk4_integrate`` composes
those maps with a prefix scan rather than stepping in a loop.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import _kernels
from .coeffs import CoefficientSet
from .errors import BlowupError
from .quat import Quaternion, mul_arrays, norm_arrays
from .trajectory import Trajectory, uniform_grid

__all__ = ["oracle_integrate", "residual_profile"]


def oracle_integrate(c: CoefficientSet, t0: float, t_end: float,
                     q0: Quaternion, step: float = 1e-3,
                     forcing: Optional[CoefficientSet] = None) -> Trajectory:
    """Classical RK4 with fixed step on the 4-vector form of
    q' = a q + f (``f = 0`` when ``forcing`` is None)."""
    ts = uniform_grid(t0, t_end, step)
    dt = ts[1] - ts[0]
    # coefficients at every step start/midpoint/end: the half-step grid
    half_ts = np.linspace(t0, ts[-1], 2 * (len(ts) - 1) + 1)
    f = None if forcing is None else _columns(forcing, half_ts)
    qs = _kernels.rk4_integrate(_columns(c, half_ts), q0.to_array(), dt, f)
    if not np.all(np.isfinite(qs)):
        raise BlowupError("RK4 state became non-finite")
    return Trajectory(ts, qs)


def _columns(c: CoefficientSet, ts: np.ndarray) -> np.ndarray:
    """``c.sample(ts)`` as the ``.T`` view of a component-major table, the
    layout ``rk4_integrate`` reads without a copy."""
    return np.stack([c.eval_array(ell, ts) for ell in range(4)]).T


def residual_profile(traj: Trajectory, c: CoefficientSet,
                     forcing: Optional[CoefficientSet] = None) -> np.ndarray:
    """Pointwise defect |q'(t) - a(t) q(t) - f(t)| (``f = 0`` when
    ``forcing`` is None) with q' by five-point differences of order h^4
    (Fornberg 1988): (1, -8, 0, 8, -1) / 12h on inner nodes, and
    (-3, -10, 18, -6, 1) / 12h on nodes 0-4 for node 1, mirrored for
    node n - 2.  Grids of 3 or 4 nodes take central differences.

    Endpoints come back as NaN.  The stencils are taken on differences of
    q, so a constant q has a derivative of exactly 0.
    """
    if len(traj) < 3:
        raise ValueError("need at least 3 nodes for central differences")
    q, dt = traj.qs, traj.step
    if len(q) < 5:
        deriv = (q[2:] - q[:-2]) / (2.0 * dt)
    else:
        deriv = np.empty((len(q) - 2, 4))
        inner = deriv[1:-1]  # in place: one temporary the size of q
        np.subtract(q[3:-1], q[1:-3], out=inner)
        inner *= 8.0
        inner -= q[4:] - q[:-4]
        ends = np.array([3.0, 13.0, -5.0, 1.0])  # (-3, -10, 18, -6, 1) on diffs
        deriv[0] = ends @ np.diff(q[:5], axis=0)
        deriv[-1] = ends @ np.diff(q[-5:], axis=0)[::-1]
        deriv /= 12.0 * dt
    rhs = mul_arrays(c.sample(traj.ts[1:-1]), traj.qs[1:-1])
    if forcing is not None:
        rhs = rhs + forcing.sample(traj.ts[1:-1])
    out = np.full(len(traj), np.nan)
    out[1:-1] = norm_arrays(deriv - rhs)
    return out
