"""Hot numeric kernels.

* ``picard_sweep`` -- one Chebyshev-Picard iteration of the 3-D angle
  system on a window's 17 to 129 Lobatto nodes: f along the current
  iterate, integrated with the Clenshaw-Curtis matrix.  A few small numpy
  operations.
* ``rk4_integrate`` -- classical fixed-step RK4 for q' = a q + f, driven
  by coefficient (and forcing) values pretabulated on the half-step grid,
  the stage times of every step.  The equation is linear, so one RK4 step
  is the affine quaternion map q -> P q + r, and the trajectory is the
  inclusive prefix composition of those maps (Blelloch 1990, *Prefix sums
  and their applications*): a Hillis-Steele scan of ``mul_arrays`` passes,
  run in blocks of ``RK4_BLOCK`` steps so temporaries do not grow with the
  step count.
"""

from __future__ import annotations

import numpy as np

from .quat import mul_arrays

__all__ = [
    "RK4_BLOCK",
    "angle_rates",
    "backend_name",
    "picard_sweep",
    "rk4_integrate",
]

RK4_BLOCK = 4096  # steps composed per scan


def backend_name() -> str:
    """Name of the array library the kernels run on."""
    return "numpy"


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
# RK4 as an affine prefix scan
# ---------------------------------------------------------------------------

def rk4_integrate(coeff, q0, dt, forcing=None):
    """Fixed-step RK4 for q' = a(t) q + f(t) on quaternions.

    ``coeff`` has shape ``(2*N + 1, 4)``: the coefficient sampled at
    ``t0 + m*dt/2``, so row ``2n`` is the start of step ``n``, ``2n + 1`` its
    midpoint and ``2n + 2`` its end.  ``forcing``, if given, is f sampled on
    the same grid (zero otherwise).  Returns the ``(N + 1, 4)`` trajectory;
    overflow becomes inf or NaN in it, not a warning.
    """
    coeff = np.asarray(coeff, dtype=float)
    # f = 0 as a zero-stride view, so an unforced run allocates nothing more
    f = (np.broadcast_to(0.0, coeff.shape) if forcing is None
         else np.asarray(forcing, dtype=float))
    dt = float(dt)
    n_steps = (coeff.shape[0] - 1) // 2
    out = np.empty((n_steps + 1, 4))
    out[0] = q0
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(0, n_steps, RK4_BLOCK):
            e = min(s + RK4_BLOCK, n_steps)
            p, r = _step_maps(coeff[2 * s:2 * e + 1], f[2 * s:2 * e + 1], dt)
            k = 1
            while k < len(p):  # later maps compose on the left
                r[k:] += mul_arrays(p[k:], r[:-k])
                p[k:] = mul_arrays(p[k:], p[:-k])
                k *= 2
            out[s + 1:e + 1] = mul_arrays(p, out[s]) + r
    return out


def _step_maps(coeff, f, dt):
    """Each step's RK4 map q -> P q + r from its three stage rows."""
    a, b, c = coeff[:-1:2], coeff[1::2], coeff[2::2]
    fa, fb, fc = f[:-1:2], f[1::2], f[2::2]
    k2 = mul_arrays(b, _one_plus(0.5 * dt * a))
    k3 = mul_arrays(b, _one_plus(0.5 * dt * k2))
    k4 = mul_arrays(c, _one_plus(dt * k3))
    r2 = 0.5 * dt * mul_arrays(b, fa) + fb
    r3 = 0.5 * dt * mul_arrays(b, r2) + fb
    r4 = dt * mul_arrays(c, r3) + fc
    p = _one_plus(dt / 6.0 * (a + 2.0 * (k2 + k3) + k4))
    r = dt / 6.0 * (fa + 2.0 * (r2 + r3) + r4)
    return p, r


def _one_plus(x):
    """1 + x for a fresh quaternion array ``x``, in place."""
    x[:, 0] += 1.0
    return x
