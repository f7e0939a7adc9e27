"""Piecewise-Chebyshev antiderivatives, plus a scalar adaptive Simpson rule.

:class:`Antiderivative` integrates a vectorized integrand once over a whole
interval: each panel is sampled at ``_N + 1`` Chebyshev-Lobatto points and
bisected until its trailing Chebyshev coefficients are negligible, the panel
integrals come from the Clenshaw-Curtis integration matrix, and one cumsum
joins the panels.  Values at arbitrary times then cost one barycentric
interpolation each (Trefethen, *Approximation Theory and Approximation
Practice*, ch. 5 and 19), so sampling N output times is O(N) with a cost
independent of the integrand.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import QuadratureError

__all__ = ["adaptive_simpson", "Antiderivative"]

_N = 16                  # polynomial degree on each panel
_TAIL = 3                # trailing coefficients that must be negligible
_TOL = 1e-15             # panel acceptance, see _resolve
_MAX_PANELS = 1 << 12
_SLACK = 1e-9            # tolerated excursion past the ends when evaluating

# Lobatto nodes in increasing order (node 0 is the panel's left end) and the
# Chebyshev polynomials T_k at them, k = 0 .. _N + 1
_X = np.sin(0.5 * np.pi * np.arange(-_N, _N + 1, 2) / _N)
_T = np.cos(np.outer(np.arccos(_X), np.arange(_N + 2)))
_TO_COEFFS = np.linalg.inv(_T[:, :-1])


def _integrated_chebyshev(k: int) -> np.ndarray:
    """The integral of T_k over [-1, x_j] at every node."""
    if k == 0:
        return _T[:, 1] + 1.0
    if k == 1:
        return 0.25 * (_T[:, 2] - 1.0)
    up, down = 0.5 / (k + 1), 0.5 / (k - 1)
    return (up * _T[:, k + 1] - down * _T[:, k - 1]
            - (-1.0) ** (k + 1) * (up - down))


# row j maps node values to the integral of their interpolant over [-1, x_j]
_INTEGRATE = np.stack([_integrated_chebyshev(k) for k in range(_N + 1)],
                      axis=-1) @ _TO_COEFFS
_INTEGRATE[0] = 0.0
_BARY = (-1.0) ** np.arange(_N + 1)
_BARY[[0, -1]] *= 0.5


class Antiderivative:
    """``A(t) = integral of f from t0 to t``, built once and then sampled.

    ``f`` maps a 1-D array of times to an array of values with that length
    as its first axis; the values may be scalars, quaternions or any fixed
    trailing shape.  ``t_end`` is the far end of the interval, or an array
    of times the antiderivative must cover (the interval is then the hull of
    ``t0`` and those times).  ``A(t0) = 0`` holds exactly.

    Raises :class:`QuadratureError` when ``f`` returns a non-finite value
    or the interval needs more panels than the larger of ``_MAX_PANELS``
    and the number of times in ``t_end``: a caller that asks for N output
    times may spend one panel on each.
    """

    def __init__(self, f: Callable[[np.ndarray], np.ndarray], t0: float,
                 t_end: float | np.ndarray):
        t0 = float(t0)
        reach = np.asarray(t_end, dtype=float)
        lo, hi = min(t0, float(reach.min())), max(t0, float(reach.max()))
        if not math.isfinite(hi - lo):
            raise ValueError("interval ends must be finite")
        if hi == lo:  # still sample f once, for its value shape
            hi = lo + _SLACK * max(1.0, abs(lo))
        self.t0, self.lo, self.hi = t0, lo, hi
        self._breaks, panels = _resolve(f, lo, hi,
                                        max(_MAX_PANELS, reach.size))
        self._shape = panels.shape[2:]
        panels = panels.reshape(len(panels), _N + 1, -1)
        local = np.einsum("ij,pjk->pik", _INTEGRATE, panels)
        local *= 0.5 * np.diff(self._breaks)[:, None, None]
        local[1:] += np.cumsum(local[:-1, -1], axis=0)[:, None]
        self._values = local  # A at every panel node, shape (P, _N + 1, K)
        self._origin = self._raw(np.array([t0]))[0]

    @property
    def panels(self) -> int:
        return len(self._breaks) - 1

    def __call__(self, ts) -> np.ndarray:
        """``A`` at each time of ``ts``; shape ``ts.shape + value shape``."""
        ts = np.asarray(ts, dtype=float)
        flat = ts.reshape(-1)
        if flat.size and (flat.min() < self.lo - _SLACK
                          or flat.max() > self.hi + _SLACK):
            raise ValueError(
                f"times outside the integrated interval "
                f"[{self.lo!r}, {self.hi!r}]")
        out = self._raw(flat) - self._origin
        return out.reshape(ts.shape + self._shape)

    def _raw(self, ts: np.ndarray) -> np.ndarray:
        """Barycentric interpolation on each time's panel, one node at a
        time so the temporaries stay the size of ``ts``."""
        p = np.clip(np.searchsorted(self._breaks, ts, side="right") - 1,
                    0, self.panels - 1)
        a, b = self._breaks[p], self._breaks[p + 1]
        x = ((ts - a) - (b - ts)) / (b - a)
        num = np.zeros((len(ts), self._values.shape[2]))
        den = np.zeros(len(ts))
        node = np.full(len(ts), -1)
        for j in range(_N + 1):
            d = x - _X[j]
            node[d == 0.0] = j
            w = _BARY[j] / np.where(d == 0.0, 1.0, d)
            den += w
            num += w[:, None] * self._values[p, j]
        out = num / den[:, None]
        exact = node >= 0
        out[exact] = self._values[p[exact], node[exact]]
        return out


def _resolve(f, lo: float, hi: float,
             max_panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Bisect [lo, hi] until every panel is resolved.

    A panel of width h is resolved once h times its Chebyshev tail (the
    largest of its last ``_TAIL`` coefficients) is at most ``_TOL`` times
    the largest |f| on its own nodes times ``hi - lo``.  That bounds the
    panel's share of the integral error relative to its own values, so an
    integrand that grows by orders of magnitude across the interval is
    resolved as finely where it is small as where it is large; and since
    the bound loosens as h halves, rounding noise in ``f`` cannot keep a
    panel splitting.  Returns the breakpoints and ``f`` at each panel's
    nodes, shape ``(panels, _N + 1, *value shape)``; each bisection level
    is one call of ``f``.
    """
    done_a: list[np.ndarray] = []
    done_vals: list[np.ndarray] = []
    a, b = np.array([lo]), np.array([hi])
    while a.size:
        if sum(map(len, done_a)) + a.size > max_panels:
            raise QuadratureError(
                f"integrand not resolved by {max_panels} panels on "
                f"[{lo!r}, {hi!r}]")
        nodes = (0.5 * (a + b))[:, None] + (0.5 * (b - a))[:, None] * _X
        vals = np.asarray(f(nodes.reshape(-1)), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise QuadratureError("integrand returned a non-finite value")
        vals = vals.reshape(nodes.shape + vals.shape[1:])
        scale = np.abs(vals).reshape(len(a), -1).max(axis=1)
        tail = np.einsum("kj,pj...->pk...", _TO_COEFFS[-_TAIL:], vals)
        tail = np.abs(tail).reshape(len(a), -1).max(axis=1)
        ok = tail * (b - a) <= _TOL * scale * (hi - lo)
        done_a.append(a[ok])
        done_vals.append(vals[ok])
        mid = 0.5 * (a + b)[~ok]
        a, b = (np.concatenate([a[~ok], mid]),
                np.concatenate([mid, b[~ok]]))
    starts = np.concatenate(done_a)
    order = np.argsort(starts, kind="stable")
    return np.append(starts[order], hi), np.concatenate(done_vals)[order]


def adaptive_simpson(f: Callable[[float], float], a: float, b: float,
                     tol: float = 1e-12, max_depth: int = 40) -> float:
    """Integrate ``f`` over ``[a, b]`` to absolute tolerance ``tol``.

    Classic recursive Simpson refinement with Richardson correction.  Raises
    :class:`QuadratureError` if the interval needs more than ``max_depth``
    halvings.
    """
    if a == b:
        return 0.0
    if b < a:
        return -adaptive_simpson(f, b, a, tol, max_depth)
    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _refine(f, a, b, fa, fm, fb, whole, tol, max_depth)


def _refine(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    err = left + right - whole
    if not math.isfinite(err):
        raise QuadratureError("non-finite Simpson estimate")
    if abs(err) <= 15.0 * tol:
        return left + right + err / 15.0
    if depth <= 0:
        raise QuadratureError(
            f"quadrature did not converge on [{a!r}, {b!r}]")
    half = 0.5 * tol
    return (_refine(f, a, m, fa, flm, fm, left, half, depth - 1)
            + _refine(f, m, b, fm, frm, fb, right, half, depth - 1))
