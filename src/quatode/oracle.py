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
those maps with a prefix scan rather than stepping in a loop.  It is called
once per ``RK4_BLOCK`` steps with that block's coefficient table, which
:meth:`CoefficientSet.sample` fills row-major as the kernel reads it, so the
tables do not grow with the grid, and :func:`oracle_deviation` compares
each block as it comes instead of keeping the reference trajectory.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import _kernels
from ._kernels import RK4_BLOCK
from .coeffs import CoefficientSet
from .errors import BlowupError
from .quat import Quaternion, mul_arrays, norm_arrays
from .trajectory import Trajectory, uniform_grid

__all__ = ["oracle_deviation", "oracle_integrate", "residual_profile"]


def oracle_integrate(c: CoefficientSet, t0: float,
                     reach: float | np.ndarray, q0: Quaternion,
                     step: float = 1e-3,
                     forcing: Optional[CoefficientSet] = None) -> Trajectory:
    """Classical RK4 from node to node of a uniform grid on the 4-vector
    form of q' = a q + f (``f = 0`` when ``forcing`` is None).  ``reach``
    is the far end, for the grid ``uniform_grid(t0, reach, step)``, or
    that uniform grid itself, which is then integrated on and ``step``
    unused."""
    ts = (uniform_grid(t0, reach, step) if np.ndim(reach) == 0
          else np.asarray(reach, dtype=float))
    qs = np.empty((len(ts), 4))
    for start, block in _rk4_blocks(c, ts, q0, forcing):
        qs[start:start + len(block)] = block
    return Trajectory(ts, qs)


def oracle_deviation(c: CoefficientSet, traj: Trajectory, q0: Quaternion,
                     forcing: Optional[CoefficientSet] = None) -> float:
    """The largest norm of the difference between ``traj.qs`` and the RK4
    solution from ``q0`` on ``traj.ts``, a uniform grid: equal to
    ``max(norm(oracle_integrate(...).qs - traj.qs))`` on the grid
    ``oracle_integrate`` builds, without holding that trajectory."""
    dev = 0.0
    for start, block in _rk4_blocks(c, traj.ts, q0, forcing):
        rows = traj.qs[start:start + len(block)]
        dev = max(dev, float(np.max(norm_arrays(block - rows))))
    return dev


def _rk4_blocks(c: CoefficientSet, ts: np.ndarray, q0: Quaternion,
                forcing: Optional[CoefficientSet]):
    """The RK4 solution on the uniform grid ``ts``, one kernel call per
    ``RK4_BLOCK`` steps: yields each block's first row number and its
    rows, the first of which repeats the last of the block before.  The
    coefficient (and forcing) tables are sampled per block, from the
    half-step grid of the stage times, row-major as ``rk4_integrate``
    reads them, and each step is as wide as its interval of ``ts``: far
    from t = 0 the nodes are rounded to ulp(t), which a mean step would
    integrate as a phase error.  A non-finite state raises
    :class:`BlowupError`."""
    steps = len(ts) - 1
    # coefficients at every step start/midpoint/end: the half-step grid
    half_ts = np.linspace(ts[0], ts[-1], 2 * steps + 1)
    q = q0.to_array()
    for start in range(0, steps, RK4_BLOCK):
        stop = min(start + RK4_BLOCK, steps)
        rows = slice(2 * start, 2 * stop + 1)
        f = None if forcing is None else forcing.sample(half_ts[rows])
        block = _kernels.rk4_integrate(c.sample(half_ts[rows]), q,
                                       np.diff(ts[start:stop + 1]), f)
        if not np.all(np.isfinite(block)):
            raise BlowupError("RK4 state became non-finite")
        yield start, block
        q = block[-1]


def residual_profile(traj: Trajectory, c: CoefficientSet,
                     forcing: Optional[CoefficientSet] = None) -> np.ndarray:
    """Pointwise defect |q'(t) - a(t) q(t) - f(t)| (``f = 0`` when
    ``forcing`` is None) with q' by five-point differences of order h^4
    (Fornberg 1988): (1, -8, 0, 8, -1) / 12h on inner nodes, and
    (-3, -10, 18, -6, 1) / 12h on nodes 0-4 for node 1, mirrored for
    node n - 2.  Grids of 3 or 4 nodes take central differences.

    Endpoints come back as NaN.  The stencils are taken on differences of
    q, so a constant q has a derivative of exactly 0.  The inner nodes go
    ``RK4_BLOCK`` at a time, each block reading two rows of q past either
    end, so only the result is as long as the grid.
    """
    if len(traj) < 3:
        raise ValueError("need at least 3 nodes for central differences")
    ts, q = traj.ts, traj.qs
    out = np.full(len(traj), np.nan)
    for start in range(1, len(traj) - 1, RK4_BLOCK):
        rows = slice(start, min(start + RK4_BLOCK, len(traj) - 1))
        rhs = mul_arrays(c.sample(ts[rows]), q[rows])
        if forcing is not None:
            rhs = rhs + forcing.sample(ts[rows])
        out[rows] = norm_arrays(_derivative(q, rows, traj.step) - rhs)
    return out


def _derivative(q: np.ndarray, rows: slice, dt: float) -> np.ndarray:
    """q' at the inner nodes ``rows`` (1 to n - 2) by the stencils of
    :func:`residual_profile`."""
    n, s, e = len(q), rows.start, rows.stop
    if n < 5:
        return (q[s + 1:e + 1] - q[s - 1:e - 1]) / (2.0 * dt)
    deriv = np.empty((e - s, 4))
    lo, hi = max(s, 2), min(e, n - 2)  # the nodes of the inner stencil
    inner = deriv[lo - s:hi - s]  # in place: one temporary the size of it
    np.subtract(q[lo + 1:hi + 1], q[lo - 1:hi - 1], out=inner)
    inner *= 8.0
    inner -= q[lo + 2:hi + 2] - q[lo - 2:hi - 2]
    ends = np.array([3.0, 13.0, -5.0, 1.0])  # (-3, -10, 18, -6, 1) on diffs
    if s == 1:
        deriv[0] = ends @ np.diff(q[:5], axis=0)
    if e == n - 1:
        deriv[-1] = ends @ np.diff(q[-5:], axis=0)[::-1]
    deriv /= 12.0 * dt
    return deriv
