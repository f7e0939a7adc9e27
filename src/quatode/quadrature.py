"""Chebyshev-Lobatto tables, one resolution rule, one piecewise evaluator
and piecewise-Chebyshev antiderivatives; ``adaptive_simpson`` is a scalar
adapter over them.

:func:`resolved` judges the panels here and the Picard windows, against a
noise floor scaled by |t| over the piece width as Chebfun's ``hscale`` is
(Driscoll, Hale and Trefethen, *Chebfun Guide*, 2014); :func:`piecewise`
samples the antiderivatives and the chained Picard solution by barycentric
interpolation (Berrut and Trefethen 2004), which :func:`barycentric`
evaluates for a block of points at a time as one weight-matrix product
with each point's node values.  :class:`Antiderivative` bisects
panels until resolved and joins their Clenshaw-Curtis integrals by one
cumsum (Trefethen, *ATAP* ch. 5 and 19), so N output times cost O(N).
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import QuadratureError

# adaptive_simpson is a scalar adapter over Antiderivative
__all__ = ["adaptive_simpson", "Antiderivative", "ChebyshevRule",
           "barycentric", "chebyshev_rule", "piecewise", "resolved",
           "stack_pieces"]

_N = 16                  # polynomial degree on each panel
_TAIL = 3                # trailing coefficients that must be negligible
_TOL = 1e-15             # noise floor per unit of |t| / width, see resolved
_MAX_PANELS = 1 << 12
_SLACK = 1e-9            # tolerated excursion past the ends when evaluating
_CHUNK = 1024            # points per weight matrix in barycentric
_NARROW = 1e4            # a panel under this many ulps of the scale ...
_NARROW_SHARE = 1e-3     # ... may carry at most this share of the mass


@dataclass(frozen=True)
class ChebyshevRule:
    """Tables for interpolants of degree n on the n + 1 Lobatto points."""

    x: np.ndarray          # nodes in increasing order; node 0 is -1
    to_coeffs: np.ndarray  # node values -> Chebyshev coefficients
    integrate: np.ndarray  # row j: node values -> integral over [-1, x_j]
    bary: np.ndarray       # barycentric weights


@functools.lru_cache(maxsize=8)
def chebyshev_rule(n: int) -> ChebyshevRule:
    """The read-only tables of degree ``n``, built once per degree."""
    x = np.sin(0.5 * np.pi * np.arange(-n, n + 1, 2) / n)
    cheb = np.cos(np.outer(np.arccos(x), np.arange(n + 2)))  # T_k(x_j)
    to_coeffs = np.linalg.inv(cheb[:, :-1])
    # column k: an antiderivative of T_k at the nodes, from
    # 2 int T_k = T_{k+1}/(k+1) - T_{k-1}/(k-1)  (k >= 2)
    anti = cheb[:, 1:] / (2.0 * np.arange(1, n + 2))
    anti[:, 2:] -= cheb[:, 1:n] / (2.0 * np.arange(1, n))
    anti[:, 0] *= 2.0
    integrate = (anti - anti[0]) @ to_coeffs
    bary = (-1.0) ** np.arange(n + 1)
    bary[[0, -1]] *= 0.5
    for table in (x, to_coeffs, integrate, bary):
        table.flags.writeable = False
    return ChebyshevRule(x, to_coeffs, integrate, bary)


def resolved(values: np.ndarray, width, lo, hi, tol: float) -> np.ndarray:
    """Whether each of P interpolants, node values ``(P, n + 1, ...)`` on
    pieces ``width`` wide in [lo, hi], has its last ``_TAIL`` Chebyshev
    coefficients within ``max(tol, _TOL * max(hi - lo, |lo|, |hi|) / width)``
    of its largest |value|; ``width``, ``lo`` and ``hi`` are numbers or one
    per piece.  The second term is the noise of nodes rounded by ulp(t); it
    loosens as pieces shrink, so noise cannot keep one splitting, and with
    ``tol = 0`` on a whole interval it bounds a panel's share of the
    integral error relative to its own values."""
    rule = chebyshev_rule(values.shape[1] - 1)
    tail = np.einsum("kj,pj...->pk...", rule.to_coeffs[-_TAIL:], values)
    axes = tuple(range(1, values.ndim))
    tail, scale = np.abs(tail).max(axis=axes), np.abs(values).max(axis=axes)
    floor = _TOL * np.maximum(hi - lo, np.maximum(abs(lo), abs(hi))) / width
    return tail <= np.maximum(tol, floor) * scale


def barycentric(values: np.ndarray, x: np.ndarray,
                which: np.ndarray) -> np.ndarray:
    """Evaluate Chebyshev interpolants at local coordinates ``x`` in [-1, 1].

    ``values`` holds P interpolants by their Lobatto node values, shape
    ``(P, n + 1, K)``; ``which`` picks each point's interpolant.  Returns
    ``(len(x), K)``, exact at the nodes.

    ``_CHUNK`` points at a time, the ``(m, n + 1)`` weights
    ``bary / (x - x_j)`` meet each point's node values in one matrix
    product and are divided by their row sums.  Each row is computed on
    its own, so a point's value does not depend on where it stands in
    ``x``, and the temporaries stay ``_CHUNK`` rows long.  A NaN in ``x``
    comes out NaN.
    """
    rule = chebyshev_rule(values.shape[1] - 1)
    out = np.empty((len(x), values.shape[2]))
    with np.errstate(divide="ignore", invalid="ignore"):
        for s in range(0, len(x), _CHUNK):
            d = x[s:s + _CHUNK, None] - rule.x
            w = rule.bary / d
            num = (w[:, None] @ values[which[s:s + _CHUNK]])[:, 0]
            den = np.einsum("mj->m", w)  # row sums; 2-3x faster than sum()
            out[s:s + _CHUNK] = num / den[:, None]
            # a point on a node has an infinite weight there and came out
            # NaN: it takes the node value instead
            odd = np.flatnonzero(~np.isfinite(den))
            row, node = np.nonzero(d[odd] == 0.0)
            out[s + odd[row]] = values[which[s + odd[row]], node]
    return out


def stack_pieces(pieces: list) -> tuple[np.ndarray, list]:
    """P pieces of ``(n_p + 1, K)`` Lobatto node values grouped for
    :func:`piecewise`, one group per degree: each piece's place within its
    group, and per group a mask of its pieces and their stacked values."""
    sizes = np.array([len(p) for p in pieces])
    rank = np.empty(len(pieces), dtype=int)
    groups = []
    for size in np.unique(sizes):
        group = sizes == size
        rank[group] = np.arange(np.count_nonzero(group))
        groups.append((group, np.stack([p for p, g in zip(pieces, group)
                                        if g])))
    return rank, groups


def piecewise(breaks: np.ndarray, pieces, ts: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
    """A piecewise Chebyshev interpolant at ``ts``, and each time's piece.

    ``breaks`` holds the P + 1 increasing ends (a break starts its piece);
    ``pieces`` the Lobatto node values, one ``(P, n + 1, K)`` array or
    pieces of several degrees as :func:`stack_pieces` groups them,
    evaluated by one :func:`barycentric` pass per degree.  A time over
    ``_SLACK`` past either end is a ``ValueError``."""
    if ts.size and (ts.min() < breaks[0] - _SLACK
                    or ts.max() > breaks[-1] + _SLACK):
        raise ValueError(
            f"times outside the interval [{breaks[0]!r}, {breaks[-1]!r}]")
    idx = np.clip(np.searchsorted(breaks, ts, side="right") - 1,
                  0, len(breaks) - 2)
    a, b = breaks[idx], breaks[idx + 1]
    x = ((ts - a) - (b - ts)) / (b - a)
    if isinstance(pieces, np.ndarray):
        return barycentric(pieces, x, idx), idx
    rank, groups = pieces
    out = np.empty((len(ts), groups[0][1].shape[2]))
    for group, values in groups:
        pick = np.flatnonzero(group[idx])
        out[pick] = barycentric(values, x[pick], rank[idx[pick]])
    return out, idx


_RULE = chebyshev_rule(_N)


class Antiderivative:
    """``A(t) = integral of f from t0 to t``, built once and then sampled.

    ``f`` maps a 1-D array of times to an array of values with that length
    as its first axis; the values may be scalars, quaternions or any fixed
    trailing shape.  ``t_end`` is the far end of the interval, or an array
    of times the antiderivative must cover (the interval is then the hull of
    ``t0`` and those times).  ``A(t0) = 0`` holds exactly.  ``breaks``,
    ``nodes`` and ``samples`` hold the panel ends, where ``f`` was sampled
    and its values there, and :meth:`project` integrates linear
    combinations of its components without sampling ``f`` again.

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
        self.breaks, self.samples = _resolve(f, lo, hi,
                                              max(_MAX_PANELS, reach.size))
        self._shape = self.samples.shape[2:]
        panels = self.samples.reshape(len(self.samples), _N + 1, -1)
        local = np.einsum("ij,pjk->pik", _RULE.integrate, panels)
        local *= 0.5 * np.diff(self.breaks)[:, None, None]
        local[1:] += np.cumsum(local[:-1, -1], axis=0)[:, None]
        self._values = local  # A at every panel node, shape (P, _N + 1, K)
        self._t0 = t0

    @property
    def panels(self) -> int:
        return len(self.breaks) - 1

    @property
    def nodes(self) -> np.ndarray:
        """The resolved panels' Lobatto nodes, shape ``(panels, _N + 1)``;
        ``samples`` holds ``f`` there, shape ``nodes.shape + value shape``."""
        return _lobatto(self.breaks[:-1], self.breaks[1:])

    def project(self, m) -> "Antiderivative":
        """The antiderivative of ``f @ m`` on the same panels, from the
        integrals already taken: ``m`` has the flattened value size as its
        first axis, and the rest of its shape is the new value shape."""
        m = np.asarray(m, dtype=float)
        flat = m.reshape(len(m), -1)
        out = copy.copy(self)
        out._shape = m.shape[1:]
        out._values = self._values @ flat
        out.samples = (self.samples.reshape(self._values.shape) @ flat
                       ).reshape(self._values.shape[:2] + out._shape)
        return out

    def __call__(self, ts) -> np.ndarray:
        """``A`` at each time of ``ts``; shape ``ts.shape + value shape``.
        The integral from the interval's start is interpolated at t0 in the
        same pass, and point by point, so ``A(t0) = 0`` exactly."""
        ts = np.asarray(ts, dtype=float)
        out = piecewise(self.breaks, self._values,
                        np.append(ts.reshape(-1), self._t0))[0]
        return (out[:-1] - out[-1]).reshape(ts.shape + self._shape)


def _lobatto(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The ``_N + 1`` Lobatto nodes of each panel [a, b], one row each."""
    return (0.5 * (a + b))[:, None] + (0.5 * (b - a))[:, None] * _RULE.x


def _resolve(f, lo: float, hi: float,
             max_panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Bisect [lo, hi] until :func:`resolved` accepts every panel, each
    against its own values, so an integrand that grows by orders of
    magnitude is resolved as finely where it is small as where it is large.
    Returns the breakpoints and ``f`` at each panel's nodes, shape
    ``(panels, _N + 1, *value shape)``; one call of ``f`` per level.

    The noise floor stops the bisection toward a singularity at panels a
    few hundred ulps wide.  Where such panels, under ``_NARROW`` ulps of
    the interval's scale (not of t, so a pole near 0 counts too), carry
    over ``_NARROW_SHARE`` of the total max|f| x width, the integral
    diverges: on [0, 1], ``1/(t-c)^2`` reads 1.0 of it and ``1/(t-c)``
    0.59, while ``1/sqrt|t-c|`` reads 2.7e-6.  The call then raises
    :class:`QuadratureError` naming the narrowest panel's t.  A panel
    never split is never narrow, however few ulps the interval spans."""
    done_a: list[np.ndarray] = []
    done_vals: list[np.ndarray] = []
    a, b = np.array([lo]), np.array([hi])
    while a.size:
        if sum(map(len, done_a)) + a.size > max_panels:
            raise QuadratureError(
                f"integrand not resolved by {max_panels} panels on "
                f"[{lo!r}, {hi!r}]")
        nodes = _lobatto(a, b)
        vals = np.asarray(f(nodes.reshape(-1)), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise QuadratureError("integrand returned a non-finite value")
        vals = vals.reshape(nodes.shape + vals.shape[1:])
        ok = resolved(vals, b - a, lo, hi, 0.0)
        done_a.append(a[ok])
        done_vals.append(vals[ok])
        mid = 0.5 * (a + b)[~ok]
        a, b = (np.concatenate([a[~ok], mid]),
                np.concatenate([mid, b[~ok]]))
    starts = np.concatenate(done_a)
    order = np.argsort(starts, kind="stable")
    breaks = np.append(starts[order], hi)
    vals = np.concatenate(done_vals)[order]
    width = np.diff(breaks)
    mass = np.abs(vals.reshape(len(width), -1)).max(axis=1) * width
    narrow = width < _NARROW * np.spacing(max(hi - lo, abs(lo), abs(hi)))
    narrow &= width < hi - lo
    if mass[narrow].sum() > _NARROW_SHARE * mass.sum():
        k = int(np.argmin(width))
        t = float(0.5 * (breaks[k] + breaks[k + 1]))
        raise QuadratureError(f"integrand is not integrable near t={t!r}")
    return breaks, vals


# Kept only because the benchmark's tracer (solvebench/spans.py) patches it
# by name; ROADMAP item 5 deletes it together with that patch.
def adaptive_simpson(f: Callable[[float], float], a: float, b: float
                     ) -> float:
    """The integral of the scalar ``f`` over ``[a, b]``: one
    :class:`Antiderivative` from ``a``, read at ``b``."""
    return float(Antiderivative(
        lambda s: np.array([f(t) for t in s.tolist()]), a, b)(b))
