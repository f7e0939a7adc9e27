"""Independent ground truth for the quaternion linear ODE.

The equation q' = a(t) q is, on components, the 4-D real linear system
q_vec' = M(t) q_vec with

    M(t) = [[a0, -a1, -a2, -a3],
            [a1,  a0, -a3,  a2],
            [a2,  a3,  a0, -a1],
            [a3, -a2,  a1,  a0]].

The scalar part contributes a0 * I and the imaginary part a skew-symmetric
block (``M + M^T = 2 a0 I``), which is why the norm is conserved when
a0 = 0.  Integrating this system with plain fixed-step RK4 gives a reference
solution that shares no code path with the phase-angle solver beyond the
quaternion and coefficient primitives, so agreement between the two is
meaningful evidence.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import _kernels
from .coeffs import CoefficientSet
from .errors import BlowupError
from .quat import Quaternion, mul_arrays, norm_arrays
from .trajectory import Trajectory, uniform_grid

__all__ = ["build_matrix", "oracle_integrate", "residual", "residual_profile"]


def build_matrix(c: CoefficientSet, t: float) -> np.ndarray:
    """Sample the 4x4 system matrix M(t)."""
    a0, a1, a2, a3 = (c.eval(ell, t) for ell in range(4))
    return np.array(
        [
            [a0, -a1, -a2, -a3],
            [a1, a0, -a3, a2],
            [a2, a3, a0, -a1],
            [a3, -a2, a1, a0],
        ]
    )


def oracle_integrate(c: CoefficientSet, t0: float, t_end: float,
                     q0: Quaternion, step: float = 1e-3) -> Trajectory:
    """Classical RK4 with fixed step on the 4-vector form of the ODE."""
    ts = uniform_grid(t0, t_end, step)
    dt = ts[1] - ts[0]
    # coefficients at every step start/midpoint/end: the half-step grid
    half_ts = np.linspace(t0, ts[-1], 2 * (len(ts) - 1) + 1)
    coeff = c.sample(half_ts)
    qs = _kernels.rk4_integrate(coeff, q0.to_array(), dt)
    if not np.all(np.isfinite(qs)):
        raise BlowupError("RK4 state became non-finite")
    return Trajectory(ts, qs)


def residual_profile(traj: Trajectory, c: CoefficientSet,
                     forcing: Optional[CoefficientSet] = None) -> np.ndarray:
    """Pointwise defect |q'(t) - a(t) q(t) - f(t)| with q' by central
    differences (``f = 0`` when ``forcing`` is None).

    Endpoints have no centered difference and come back as NaN.
    """
    if len(traj) < 3:
        raise ValueError("need at least 3 nodes for central differences")
    dt = traj.step
    deriv = (traj.qs[2:] - traj.qs[:-2]) / (2.0 * dt)
    rhs = mul_arrays(c.sample(traj.ts[1:-1]), traj.qs[1:-1])
    if forcing is not None:
        rhs = rhs + forcing.sample(traj.ts[1:-1])
    out = np.full(len(traj), np.nan)
    out[1:-1] = norm_arrays(deriv - rhs)
    return out


def residual(traj: Trajectory, c: CoefficientSet) -> float:
    """Largest interior-node defect of the trajectory."""
    return float(np.nanmax(residual_profile(traj, c)))
