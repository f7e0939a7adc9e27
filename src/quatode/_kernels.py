"""Hot numeric kernels.

* ``picard_sweep`` -- one Chebyshev-Picard iteration of the 3-D angle
  system on a batch of windows of 17 to 129 Lobatto nodes each: f along
  the current iterates, integrated with the Clenshaw-Curtis matrix.  A few
  numpy operations over the whole batch.
* ``rk4_integrate`` -- classical RK4 for q' = a q + f, each step of a
  given width, driven by coefficient (and forcing) values pretabulated on
  the half-step grid, the stage times of every step.  The equation is
  linear, so one RK4 step is the affine quaternion map q -> P q + r, and
  the trajectory is the inclusive prefix composition of those maps
  (Blelloch 1990, *Prefix sums and their applications*): a Hillis-Steele
  scan of Hamilton-product passes, one per call: the oracle does the
  blocking.  The maps and the scan hold quaternions row-major, as
  ``(n, 4)`` float arrays whose products run on their ``(n, 2)``
  complex-pair views (``quat._hamilton``, four complex multiplies per
  product), and an unforced run has no r to build or compose.
"""

from __future__ import annotations

import numpy as np

from .quat import _hamilton

__all__ = [
    "RK4_BLOCK",
    "angle_rates",
    "backend_name",
    "picard_sweep",
    "prefix_products",
    "rk4_integrate",
]

RK4_BLOCK = 4096  # steps per kernel call; rows per block of per-node stages


def backend_name() -> str:
    """Name of the array library the kernels run on."""
    return "numpy"


def angle_rates(theta, a):
    """f(t, theta) of the 3-D angle system, row by row: ``theta`` holds
    angles and ``a`` the coefficients a1..a3, both shape ``(..., 3)``."""
    s1 = np.sin(2.0 * theta[..., 0])
    c1 = np.cos(2.0 * theta[..., 0])
    tn2 = np.tan(2.0 * theta[..., 1])
    inv_c2 = 1.0 / np.cos(2.0 * theta[..., 1])
    a1, a2, a3 = a[..., 0], a[..., 1], a[..., 2]
    f = np.empty_like(a)
    f[..., 0] = a1 + s1 * tn2 * a2 - c1 * tn2 * a3
    f[..., 1] = c1 * a2 + s1 * a3
    f[..., 2] = (-s1 * a2 + c1 * a3) * inv_c2
    return f


def picard_sweep(theta, a, integrate):
    """One Picard update of W windows, ``theta`` and ``a`` shaped
    ``(W, n + 1, 3)``: ``integrate`` maps node values on [-1, 1] to their
    integrals from -1.  Returns the new angles and f along ``theta``."""
    f = angle_rates(theta, a)
    return integrate @ f, f


# ---------------------------------------------------------------------------
# RK4 as an affine prefix scan
# ---------------------------------------------------------------------------

def rk4_integrate(coeff, q0, dt, forcing=None):
    """Classical RK4 for q' = a(t) q + f(t) on quaternions, as one scan.

    ``coeff`` has shape ``(2*N + 1, 4)``: the coefficient sampled on the
    half-step grid, so row ``2n`` is the start of step ``n``, ``2n + 1`` its
    midpoint and ``2n + 2`` its end.  ``dt`` holds the ``(N,)`` widths of
    the steps.  ``forcing``, if given, is f sampled on the same grid.  The
    N maps are composed in one scan, whose temporaries grow with N: the
    oracle bounds them by blocking.  The maps and the scan work on
    row-major ``(n, 4)`` arrays, whose strided row views of a C-contiguous
    table are its complex pairs in place, so it is read without a copy.
    Unforced, the forcing chain r is skipped.  Returns the C-contiguous
    ``(N + 1, 4)`` trajectory; overflow becomes inf or NaN in it, not a
    warning.
    """
    coeff = np.ascontiguousarray(coeff, dtype=float)
    f = None if forcing is None else np.ascontiguousarray(forcing, dtype=float)
    out = np.empty((len(dt) + 1, 4))
    out[0] = q0
    with np.errstate(over="ignore", invalid="ignore"):
        p, r = prefix_products(*_step_maps(
            coeff, f, np.repeat(dt, 4).reshape(-1, 4)))
        out[1:] = _mul(p, out[0])
        # + 0.0 unforced too: it turns -0.0 into +0.0, as r = 0 would
        out[1:] += 0.0 if r is None else r
    return out


def prefix_products(p, r=None):
    """The inclusive prefix composition of the affine maps q -> p_n q + r_n,
    later maps on the left, in place by a Hillis-Steele scan: row n of
    ``p`` becomes ``p_n ... p_0`` (and of ``r``, the map's offset).  ``p``
    and ``r`` are row-major ``(n, 4)`` arrays; with ``r`` None only the
    running Hamilton product of ``p`` is taken."""
    k = 1
    while k < len(p):
        if r is not None:
            r[k:] += _mul(p[k:], r[:-k])
        p[k:] = _mul(p[k:], p[:-k])
        k *= 2
    return p, r


def _step_maps(coeff, f, dt):
    """Each step's RK4 map q -> P q + r from its three stage rows of the
    ``(2n + 1, 4)`` tables and its width, repeated along its row of the
    ``(n, 4)`` ``dt`` so that each product with it runs on contiguous
    rows; r is None when ``f`` is."""
    a, b, c = coeff[:-1:2], coeff[1::2], coeff[2::2]
    k2 = _mul(b, _one_plus(_halved(dt * a)))
    k3 = _mul(b, _one_plus(_halved(dt * k2)))
    k4 = _mul(c, _one_plus(dt * k3))
    p = _one_plus(_sixth(dt * (a + 2.0 * (k2 + k3) + k4)))
    if f is None:
        return p, None
    fa, fb, fc = f[:-1:2], f[1::2], f[2::2]
    r2 = _halved(dt * _mul(b, fa)) + fb
    r3 = _halved(dt * _mul(b, r2)) + fb
    r4 = dt * _mul(c, r3) + fc
    return p, _sixth(dt * (fa + 2.0 * (r2 + r3) + r4))


def _mul(p, q):
    """Hamilton product of row-major quaternion arrays, ``(n, 4)`` each
    (or ``(4,)`` for one quaternion), whose rows are contiguous: their
    complex-pair views go to ``quat._hamilton`` without a copy."""
    return _hamilton(p.view(complex), q.view(complex)).view(float)


def _one_plus(x):
    """1 + x for a fresh row-major quaternion array ``x``, in place."""
    x[..., 0] += 1.0
    return x


def _halved(x):
    """x / 2 for a fresh array ``x``, in place: scaling the products with
    the widths in place holds no second ``(n, 4)`` array of them."""
    x *= 0.5
    return x


def _sixth(x):
    """x / 6 for a fresh array ``x``, in place."""
    x /= 6.0
    return x
