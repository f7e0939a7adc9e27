"""Hot numeric kernels.

* ``picard_sweep`` -- one Chebyshev-Picard iteration of the 3-D angle
  system on a window's 17 to 129 Lobatto nodes: f along the current
  iterate, integrated with the Clenshaw-Curtis matrix.  A few small numpy
  operations, with no compiled twin.
* ``rk4_integrate`` -- classical fixed-step RK4 on the equivalent 4-D real
  linear system, driven by coefficient values pretabulated on the half-step
  grid (the stage times of every step), as an ``@njit(cache=True)`` kernel
  and a pure-numpy fallback with identical semantics.  numba is used when
  importable; ``QUATODE_NUMBA=0`` (or ``false``/``off``/``no``) forces
  numpy.  ``benchmarks/bench_kernels.py`` times one against the other.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = [
    "HAVE_NUMBA",
    "angle_rates",
    "backend_name",
    "picard_sweep",
    "rk4_integrate",
    "rk4_integrate_numpy",
]

_FLAG = os.environ.get("QUATODE_NUMBA", "").strip().lower()
_NUMBA_DISABLED = _FLAG in {"0", "false", "off", "no"}

try:
    if _NUMBA_DISABLED:
        raise ImportError
    from numba import njit

    HAVE_NUMBA = True
except ImportError:
    HAVE_NUMBA = False


def backend_name() -> str:
    return "numba" if HAVE_NUMBA else "numpy"


def angle_rates(theta, a):
    """f(t, theta) of the 3-D angle system, row by row: ``theta`` holds
    angles and ``a`` the coefficients a1..a3, both shape ``(n, 3)``."""
    s1 = np.sin(2.0 * theta[:, 0])
    c1 = np.cos(2.0 * theta[:, 0])
    tn2 = np.tan(2.0 * theta[:, 1])
    inv_c2 = 1.0 / np.cos(2.0 * theta[:, 1])
    a1, a2, a3 = a.T
    f = np.empty_like(a)
    f[:, 0] = a1 + s1 * tn2 * a2 - c1 * tn2 * a3
    f[:, 1] = c1 * a2 + s1 * a3
    f[:, 2] = (-s1 * a2 + c1 * a3) * inv_c2
    return f


def picard_sweep(theta, a, integrate):
    """One Picard update at a window's nodes: ``integrate`` maps node
    values to their integrals from the window start.  Returns the new
    angles and f along the current iterate ``theta``."""
    f = angle_rates(theta, a)
    return integrate @ f, f


# ---------------------------------------------------------------------------
# RK4, numpy implementation
# ---------------------------------------------------------------------------

def rk4_integrate_numpy(coeff, q0, dt):
    """Fixed-step RK4 for the 4-D real system q' = M(t) q.

    ``coeff`` has shape ``(2*N + 1, 4)``: the four coefficients sampled at
    ``t0 + m*dt/2``, so row ``2n`` is the start of step ``n``, ``2n + 1`` its
    midpoint and ``2n + 2`` its end.  Returns the ``(N + 1, 4)`` trajectory.
    """
    dt = float(dt)  # plain-float state: overflow becomes inf, not a warning
    n_steps = (coeff.shape[0] - 1) // 2
    out = np.empty((n_steps + 1, 4))
    w, x, y, z = (float(v) for v in q0)
    out[0] = w, x, y, z
    half = 0.5 * dt
    sixth = dt / 6.0
    for n in range(n_steps):
        a = coeff[2 * n]
        b = coeff[2 * n + 1]
        c = coeff[2 * n + 2]
        k1 = _amul_np(a, w, x, y, z)
        k2 = _amul_np(b, w + half * k1[0], x + half * k1[1],
                      y + half * k1[2], z + half * k1[3])
        k3 = _amul_np(b, w + half * k2[0], x + half * k2[1],
                      y + half * k2[2], z + half * k2[3])
        k4 = _amul_np(c, w + dt * k3[0], x + dt * k3[1],
                      y + dt * k3[2], z + dt * k3[3])
        w += sixth * (k1[0] + 2.0 * (k2[0] + k3[0]) + k4[0])
        x += sixth * (k1[1] + 2.0 * (k2[1] + k3[1]) + k4[1])
        y += sixth * (k1[2] + 2.0 * (k2[2] + k3[2]) + k4[2])
        z += sixth * (k1[3] + 2.0 * (k2[3] + k3[3]) + k4[3])
        out[n + 1, 0] = w
        out[n + 1, 1] = x
        out[n + 1, 2] = y
        out[n + 1, 3] = z
    return out


def _amul_np(a, w, x, y, z):
    # Hamilton product a * q written out on components
    a0, a1, a2, a3 = float(a[0]), float(a[1]), float(a[2]), float(a[3])
    return (
        a0 * w - a1 * x - a2 * y - a3 * z,
        a1 * w + a0 * x - a3 * y + a2 * z,
        a2 * w + a3 * x + a0 * y - a1 * z,
        a3 * w - a2 * x + a1 * y + a0 * z,
    )


# ---------------------------------------------------------------------------
# RK4, numba implementation
# ---------------------------------------------------------------------------

if HAVE_NUMBA:

    @njit(cache=True)
    def rk4_integrate_numba(coeff, q0, dt):  # pragma: no cover
        n_steps = (coeff.shape[0] - 1) // 2
        out = np.empty((n_steps + 1, 4))
        w = q0[0]
        x = q0[1]
        y = q0[2]
        z = q0[3]
        out[0, 0] = w
        out[0, 1] = x
        out[0, 2] = y
        out[0, 3] = z
        half = 0.5 * dt
        sixth = dt / 6.0
        for n in range(n_steps):
            a0 = coeff[2 * n, 0]
            a1 = coeff[2 * n, 1]
            a2 = coeff[2 * n, 2]
            a3 = coeff[2 * n, 3]
            b0 = coeff[2 * n + 1, 0]
            b1 = coeff[2 * n + 1, 1]
            b2 = coeff[2 * n + 1, 2]
            b3 = coeff[2 * n + 1, 3]
            c0 = coeff[2 * n + 2, 0]
            c1 = coeff[2 * n + 2, 1]
            c2 = coeff[2 * n + 2, 2]
            c3 = coeff[2 * n + 2, 3]

            k1w = a0 * w - a1 * x - a2 * y - a3 * z
            k1x = a1 * w + a0 * x - a3 * y + a2 * z
            k1y = a2 * w + a3 * x + a0 * y - a1 * z
            k1z = a3 * w - a2 * x + a1 * y + a0 * z

            uw = w + half * k1w
            ux = x + half * k1x
            uy = y + half * k1y
            uz = z + half * k1z
            k2w = b0 * uw - b1 * ux - b2 * uy - b3 * uz
            k2x = b1 * uw + b0 * ux - b3 * uy + b2 * uz
            k2y = b2 * uw + b3 * ux + b0 * uy - b1 * uz
            k2z = b3 * uw - b2 * ux + b1 * uy + b0 * uz

            uw = w + half * k2w
            ux = x + half * k2x
            uy = y + half * k2y
            uz = z + half * k2z
            k3w = b0 * uw - b1 * ux - b2 * uy - b3 * uz
            k3x = b1 * uw + b0 * ux - b3 * uy + b2 * uz
            k3y = b2 * uw + b3 * ux + b0 * uy - b1 * uz
            k3z = b3 * uw - b2 * ux + b1 * uy + b0 * uz

            uw = w + dt * k3w
            ux = x + dt * k3x
            uy = y + dt * k3y
            uz = z + dt * k3z
            k4w = c0 * uw - c1 * ux - c2 * uy - c3 * uz
            k4x = c1 * uw + c0 * ux - c3 * uy + c2 * uz
            k4y = c2 * uw + c3 * ux + c0 * uy - c1 * uz
            k4z = c3 * uw - c2 * ux + c1 * uy + c0 * uz

            w += sixth * (k1w + 2.0 * (k2w + k3w) + k4w)
            x += sixth * (k1x + 2.0 * (k2x + k3x) + k4x)
            y += sixth * (k1y + 2.0 * (k2y + k3y) + k4y)
            z += sixth * (k1z + 2.0 * (k2z + k3z) + k4z)
            out[n + 1, 0] = w
            out[n + 1, 1] = x
            out[n + 1, 2] = y
            out[n + 1, 3] = z
        return out

    rk4_integrate = rk4_integrate_numba
else:
    rk4_integrate = rk4_integrate_numpy


def warmup() -> None:
    """Trigger JIT compilation (or cache load) of the RK4 kernel."""
    rk4_integrate(np.zeros((5, 4)), np.array([1.0, 0.0, 0.0, 0.0]), 0.5)
