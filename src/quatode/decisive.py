"""Phase-angle solver for the pure-imaginary-coefficient problem
y' = a_im(t) y, y(t0) = 1.

Writing the unit-norm solution as e^{i*th1(t)} e^{j*th2(t)} e^{k*th3(t)}
turns the quaternion ODE into a real 3-D nonautonomous system for the
angles (singular where |th2| reaches pi/4):

    th1' = a1 + sin(2 th1) tan(2 th2) a2 - cos(2 th1) tan(2 th2) a3
    th2' = cos(2 th1) a2 + sin(2 th1) a3
    th3' = -sin(2 th1)/cos(2 th2) a2 + cos(2 th1)/cos(2 th2) a3

with th(t0) = (0, 0, 0).  On a window of width h = min(a, 0.9 b / M),
where M bounds |f| over the window and the box |th| <= b < pi/4, Picard
iteration converges to the unique local solution (criterion 9); longer
spans are covered by restarting at the window end and chaining the partial
solutions by right multiplication (if u(t) solves the unit problem from t1
and Q = q(t1), then q(t) = u(t) Q continues the solution).  A window
restarts its angles at zero, so once its ends are fixed it depends on no
other: the chain plans all windows from the coefficient's shared integral
and iterates them as one batch, splitting in half for the next batch any
whose iterate leaves the box or whose f is not resolved.  Every accepted
window passed the same checks: convergence, the box at every node and f
resolved; the box keeps |th2| <= b < pi/4, so th2 needs no guard.

Inside a window the iterates live on Chebyshev-Lobatto nodes, each sweep
integrates f with the Clenshaw-Curtis matrix and the degree doubles until
``quadrature.resolved`` accepts f, whose tail test is shared with the
antiderivatives (Bai and Junkins 2011; Trefethen, *ATAP* ch. 19).

Three families of coefficients admit exact solutions of the decisive system
with one angle frozen at zero; ``try_special_case`` detects them and skips
Picard entirely:

    I   : a1 = a3 tan(2 A2)  ->  th = (0, A2, int a3 / cos(2 A2))
    II  : a2 = -a3 tan(2 A1) ->  th = (A1, 0, int a3 / cos(2 A1))
    III : a3 = a2 tan(2 A1)  ->  th = (A1, int a2 / cos(2 A1), 0)

where A_l is the antiderivative of a_l started at t0.

These solvers give the unit solution U of the imaginary part alone; the
real gain e^{A0} commutes with everything, so ``propagator`` pairs U with
A0(t) - A0(t0) and ``commutative.variation_of_constants`` solves
q' = a(t) q + f(t) from the pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, ClassVar, Optional

import numpy as np

from . import _kernels
from .coeffs import CoefficientSet
from .errors import (NoConvergenceError, SingularTheta2Error,
                     StalledSegmentError)
from .phase import PhaseTriple, compose, compose_arrays
from .quadrature import (_MAX_PANELS, Antiderivative, barycentric,
                         chebyshev_rule, piecewise, resolved, stack_pieces)
from .quat import _DETECTION_TOL, ONE, Quaternion, mul, mul_arrays

__all__ = ["PicardConfig", "PicardResult", "SegmentedSolution",
           "SpecialCaseSolution", "picard_solve", "propagator",
           "solve_segmented", "try_special_case"]

_QUARTER_PI = 0.25 * math.pi
_H_SAFETY = 0.9
_MIN_ADVANCE = 1e-8
_DEGREE = 16          # Lobatto degree every window starts at
_MAX_DEGREE = 128     # past it an unresolved window is split, not accepted
_TAIL_TOL = 1e-13     # tail of f accepted relative to max |f|, see resolved
_SHARE = 0.8          # most of the box b a planned window's |a_im| spends
_TOL = 1e-11          # change between sweeps at which a window has converged
_MAX_ITER = 200       # sweeps of one window over all its Lobatto degrees


@dataclass(frozen=True)
class PicardConfig:
    """``a`` is criterion 9's time radius, the span ``picard_solve``
    samples M over.  ``b``, the box radius for the angles, is fixed under
    pi/4 so tan(2 th2) is bounded on the box."""

    b: ClassVar[float] = _QUARTER_PI - 0.1
    a: Optional[float] = None


def _corner_bound(coeffs: np.ndarray, b: float) -> np.ndarray:
    """Bound max |f| over the box |th| <= b from coefficient rows a1..a3,
    shape ``(..., n, 3)``, one bound per leading index: the angles are
    sampled at the four (th1, th2) corners of the box and the center (f
    does not depend on th3), which errs on the large side."""
    corners = b * np.array([(0, 0, 0), (-1, -1, 0), (-1, 1, 0), (1, -1, 0),
                            (1, 1, 0)], dtype=float)
    f = _kernels.angle_rates(
        corners.reshape((5,) + (1,) * (coeffs.ndim - 1) + (3,)),
        np.broadcast_to(coeffs, (5,) + coeffs.shape))
    return np.max(np.sqrt(np.sum(f * f, axis=-1)), axis=(0, -1))


@dataclass
class PicardResult:
    """Converged iterate on one window [t0, t0 + h], which is also one
    segment of a chained solution: ``anchor`` is the value of the global
    unit solution at ``t_start``, and on the window that solution is
    compose(theta(t)) * anchor."""

    ts: np.ndarray           # (n,) Lobatto nodes, ts[0] = t0, ts[-1] = t0 + h
    thetas: np.ndarray       # (n, 3)
    iterations: int          # sweeps over all degrees tried
    diffs: list[float]       # sup-norm change per sweep
    h: float
    m_bound: float           # corner bound M over the window: at 64 times
                             # for criterion 9's width, else at the nodes
    anchor: Quaternion = ONE

    @property
    def t_start(self) -> float:
        return float(self.ts[0])

    @property
    def t_end(self) -> float:
        return float(self.ts[-1])

    def phase_at(self, t: float) -> PhaseTriple:
        theta = piecewise(np.array([self.t_start, self.t_end]),
                          self.thetas[None], np.array([float(t)]))[0]
        return PhaseTriple(*theta[0])


def picard_solve(c: CoefficientSet, t0: float, cfg: PicardConfig
                 ) -> PicardResult:
    """Chebyshev-Picard iteration for the angle system with unit data on
    criterion 9's window [t0, t0 + h], h = ``min(cfg.a, 0.9 b / M)``, M the
    corner bound at 64 times of [t0, t0 + cfg.a], by :func:`_iterate`.
    Raises :class:`SingularTheta2Error` with the reason if the window is
    rejected."""
    if cfg.a is None:
        raise ValueError("cfg.a (time radius) must be set for criterion 9")
    m_bound = float(_corner_bound(
        c.sample_imag(np.linspace(t0, t0 + cfg.a, 64)), cfg.b))
    h = min(cfg.a, _H_SAFETY * cfg.b / m_bound) if m_bound else cfg.a
    res = _iterate(c, np.array([t0]), np.array([t0 + h]))[0]
    if isinstance(res, str):
        raise SingularTheta2Error(res)
    return replace(res, m_bound=m_bound)


def _iterate(c: CoefficientSet, starts: np.ndarray, ends: np.ndarray
             ) -> list:
    """Chebyshev-Picard iteration from unit data on the windows
    [starts[w], ends[w]] as one ``(W, n + 1, 3)`` batch: per degree one
    sample of a1..a3, then sweeps with the shared Clenshaw-Curtis matrix
    scaled by h / 2 per window, each window until it converges or leaves
    the box.  A converged window is accepted if ``quadrature.resolved``
    accepts f on its ends, else it goes on at twice the degree up to
    ``_MAX_DEGREE``.  Returns each window's :class:`PicardResult` or the
    reason it was rejected; raises :class:`NoConvergenceError` at
    ``_MAX_ITER`` sweeps."""
    b, h = PicardConfig.b, ends - starts
    out: list = [None] * len(starts)
    diffs: list[list[float]] = [[] for _ in out]
    live = np.arange(len(starts))
    theta = np.zeros((len(live), _DEGREE + 1, 3))
    while live.size:
        rule = chebyshev_rule(theta.shape[1] - 1)
        ts = starts[live, None] + 0.5 * h[live, None] * (rule.x + 1.0)
        ts[:, -1] = ends[live]  # exactly, so the windows abut
        a = c.sample_imag(ts.ravel()).reshape(theta.shape)
        f = np.empty_like(a)
        run = np.arange(len(live))  # rows of the batch still sweeping
        while run.size:
            if max(len(diffs[w]) for w in live[run]) >= _MAX_ITER:
                raise NoConvergenceError(
                    f"Picard iteration did not reach tol={_TOL} "
                    f"within {_MAX_ITER} iterations")
            new, f[run] = _kernels.picard_sweep(theta[run], a[run],
                                                rule.integrate)
            new *= 0.5 * h[live[run], None, None]
            radius2 = np.max(np.einsum("wij,wij->wi", new, new), axis=1)
            change = np.max(np.abs(new - theta[run]), axis=(1, 2))
            theta[run], inside = new, radius2 <= b * b
            for w, r2 in zip(live[run[~inside]], radius2[~inside]):
                out[w] = ("iterate escaped the Picard box" if math.isfinite(r2)
                          else "iterate left the regular region")
            for w, d in zip(live[run[inside]], change[inside]):
                diffs[w].append(float(d))
            run = run[inside][change[inside] > _TOL]
        ok = np.array([out[w] is None for w in live])
        ok[ok] = resolved(f[ok], h[live[ok]], starts[live[ok]],
                          ends[live[ok]], _TAIL_TOL)
        for k, m in zip(np.flatnonzero(ok), _corner_bound(a[ok], b)):
            w = live[k]
            out[w] = PicardResult(ts[k], theta[k], len(diffs[w]), diffs[w],
                                  float(h[w]), float(m))
        more = np.array([out[w] is None for w in live])
        live, theta, nodes = live[more], theta[more], theta.shape[1]
        if nodes > _MAX_DEGREE:
            for w in live:
                out[w] = (f"f not resolved by {nodes} Lobatto nodes on the "
                          f"window [{starts[w]!r}, {ends[w]!r}]")
            break
        x = chebyshev_rule(2 * (nodes - 1)).x
        theta = barycentric(theta, np.tile(x, len(live)), np.repeat(
            np.arange(len(live)), len(x))).reshape(len(live), len(x), 3)
    return out


@dataclass
class SegmentedSolution:
    """Solution of y' = a_im(t) y assembled from chained Picard windows:
    the unit solution (value 1 at the global start) is evaluated per
    segment and right-multiplied by ``q0``."""

    segments: list[PicardResult]
    q0: Quaternion
    retries: int = 0  # windows rejected and split in half

    @property
    def t_end(self) -> float:
        return self.segments[-1].t_end

    @property
    def iterations(self) -> list[int]:
        return [s.iterations for s in self.segments]

    def diagnostics(self) -> dict:
        """Segment count, rejected windows (``retries``), then
        min/median/max over the windows of their width ``h``, bound
        ``m_bound``, nodes, sweeps and last contraction (last change over
        the one before it; None when no window has one)."""
        segs = self.segments
        figures = {
            "h": [s.t_end - s.t_start for s in segs],
            "m_bound": [s.m_bound for s in segs],
            "nodes": [len(s.ts) for s in segs],
            "iterations": self.iterations,
            "last_contraction": [s.diffs[-1] / s.diffs[-2] for s in segs
                                 if len(s.diffs) > 1 and s.diffs[-2] > 0.0],
        }
        out: dict = {"segments": len(segs), "retries": self.retries}
        for key, values in figures.items():
            out[key] = None if not values else dict(zip(
                ("min", "median", "max"),
                np.percentile(values, [0, 50, 100]).tolist()))
        return out

    @cached_property
    def _tables(self) -> tuple:
        """The segments' breaks, their angle tables grouped by
        ``quadrature.stack_pieces`` and their anchors times ``q0``: built
        on the first :meth:`sample`, which is called once per block."""
        segs = self.segments
        breaks = np.array([s.t_start for s in segs] + [self.t_end])
        anchors = mul_arrays(np.stack([s.anchor.to_array() for s in segs]),
                             self.q0.to_array())
        return breaks, stack_pieces([s.thetas for s in segs]), anchors

    def sample(self, ts: np.ndarray) -> np.ndarray:
        """The solution at each time of ``ts``, in any order: the angles
        come from ``quadrature.piecewise`` over the segments."""
        breaks, pieces, anchors = self._tables
        theta, idx = piecewise(breaks, pieces, np.asarray(ts, dtype=float))
        unit = compose_arrays(theta[:, 0], theta[:, 1], theta[:, 2])
        return mul_arrays(unit, anchors[idx])


def _plan(integral: Antiderivative, t0: float, t_end: float,
          cap: int) -> np.ndarray:
    """Breaks of windows over [t0, t_end] that share equally, at most
    ``_SHARE`` b each, the integral of every panel's largest |a_im| at its
    nodes.  Raises :class:`StalledSegmentError` before allocating them if
    one would be under ``_MIN_ADVANCE`` wide or more than ``cap`` needed."""
    speed = np.max(np.linalg.norm(integral.samples[..., 1:], axis=-1), axis=1)
    load = np.append(0.0, np.cumsum(speed * np.diff(integral.breaks)))
    lo, hi = np.interp([t0, t_end], integral.breaks, load)
    n = max(1.0, np.ceil((hi - lo) / (_SHARE * PicardConfig.b)))
    if n > 1 and (hi - lo) / n < _MIN_ADVANCE * speed.max():
        raise StalledSegmentError(
            f"cannot advance past t={integral.breaks[np.argmax(speed)]!r}: "
            f"a window there would be under {_MIN_ADVANCE} wide")
    if n > cap:
        raise StalledSegmentError(f"[{t0!r}, {t_end!r}] needs {n:.3e} "
                                  f"Picard windows, more than {cap}")
    ends = np.interp(np.linspace(lo, hi, int(n) + 1)[1:-1], load,
                     integral.breaks)
    return np.concatenate([[t0], ends, [t_end]])


def solve_segmented(c: CoefficientSet, t0: float, t_end: float,
                    q0: Quaternion, ts: Optional[np.ndarray] = None
                    ) -> SegmentedSolution:
    """Chain Picard windows across [t0, t_end] for y' = a_im(t) y (a1..a3
    only; see :func:`propagator` for the general equation).

    :func:`_plan` lays the windows out from ``c.integral`` over the hull of
    t0 and ``ts``, the times the solution will be sampled at, so the
    integral detection built is reused (over [t0, t_end] without ``ts``).
    They are iterated as one batch, each rejected one split in half for
    the next, and chained by ``anchor``, the running product of the
    windows before each.  At most the larger of the integral's panel cap
    and ``len(ts)`` windows, none under ``_MIN_ADVANCE`` wide, are made.
    """
    if not t_end > t0:
        raise ValueError("t_end must exceed t0")
    reach = t_end if ts is None else ts
    cap = max(_MAX_PANELS, np.size(reach))
    breaks = _plan(c.integral(t0, reach), t0, t_end, cap)
    starts, ends = breaks[:-1], breaks[1:]
    segments: list[PicardResult] = []
    retries = 0
    while starts.size:
        results = _iterate(c, starts, ends)
        segments += [r for r in results if not isinstance(r, str)]
        failed = [k for k, r in enumerate(results) if isinstance(r, str)]
        starts, ends = starts[failed], ends[failed]
        mids = 0.5 * (starts + ends)
        retries += len(failed)
        if np.any(mids - starts < _MIN_ADVANCE):
            k = int(np.argmin(mids - starts))
            raise StalledSegmentError(
                f"cannot advance past t={starts[k]!r}: the window there is "
                f"under {2 * _MIN_ADVANCE} wide ({results[failed[k]]})")
        if len(segments) + 2 * len(failed) > cap:
            raise StalledSegmentError(f"[{t0!r}, {t_end!r}] needs more "
                                      f"than {cap} Picard windows")
        starts, ends = np.append(starts, mids), np.append(mids, ends)
    segments.sort(key=lambda s: s.t_start)
    anchor = ONE
    for k, res in enumerate(segments):
        segments[k] = replace(res, anchor=anchor)
        anchor = mul(compose(PhaseTriple(*res.thetas[-1])), anchor)
    return SegmentedSolution(segments, q0, retries=retries)


def propagator(c: CoefficientSet, t0: float, ts: np.ndarray,
               unit: Callable[[np.ndarray], np.ndarray]) -> Callable:
    """The propagator ``s -> (A0(s) - A0(t0), unit(s))`` of q' = a(t) q,
    given ``unit``, the solution of y' = a_im(t) y from y(t0) = 1 at an
    array of times.  A0 is read from ``c.integral`` over the hull of t0 and
    ``ts``, the quadrature detection built."""
    gain = c.integral(t0, ts).project(np.eye(4)[0])
    return lambda s: (gain(s), unit(s))


# ---------------------------------------------------------------------------
# Corollary special cases
# ---------------------------------------------------------------------------

@dataclass
class SpecialCaseSolution:
    """Exact unit solution compose(theta(t)) of y' = a_im(t) y, y(t0) = 1,
    for one of the three frozen-angle coefficient families; ``theta`` maps
    an array of times to the angles, shape ``(len(ts), 3)``."""

    case: str  # "I", "II" or "III"
    theta: Callable[[np.ndarray], np.ndarray]

    def sample(self, ts: np.ndarray) -> np.ndarray:
        th = self.theta(np.asarray(ts, dtype=float))
        return compose_arrays(th[:, 0], th[:, 1], th[:, 2])


def _frozen_angle(case: str, c: CoefficientSet, t0: float,
                  reach: float | np.ndarray, integral: Antiderivative,
                  num_ell: int, slots: tuple[int, int]
                  ) -> SpecialCaseSolution:
    """Solution whose angle ``slots[0]`` (th1 or th2) is A1 or A2 from
    ``integral``, the antiderivative of all four components started at t0,
    whose angle ``slots[1]`` is the integral from t0 of
    a_num / cos(2 * that angle), and whose third angle stays zero.  Where
    the matching identity holds the integrand's zeros of the denominator
    are removable; an exact float zero is sidestepped by a tiny nudge."""
    angle = integral.project(np.eye(4)[1 + slots[0]])

    def ratio(s: np.ndarray) -> np.ndarray:
        den = np.cos(2.0 * angle(s))
        zero = den == 0.0
        if zero.any():
            s = np.where(zero, s + 1e-12, s)
            den = np.cos(2.0 * angle(s))
        return c.eval_array(num_ell, s) / den

    outer = Antiderivative(ratio, t0, reach)

    def theta(ts: np.ndarray) -> np.ndarray:
        out = np.zeros((len(ts), 3))
        out[:, slots[0]] = angle(ts)
        out[:, slots[1]] = outer(ts)
        return out

    return SpecialCaseSolution(case, theta)


def try_special_case(c: CoefficientSet, t0: float, t_end: float,
                     ts: Optional[np.ndarray] = None
                     ) -> Optional[SpecialCaseSolution]:
    """Detect the frozen-angle families; None when nothing fits.

    Each identity is tested at the panel nodes of ``c.integral``, which
    resolve every component of the coefficient, skipping nodes where the
    relevant |cos(2 A_l)| is below 1e-6 (the identity degenerates there).
    Matching is scaled-absolute:
    |lhs - rhs| <= ``_DETECTION_TOL`` * max(1, |lhs|, |rhs|).
    The integral spans [t0, t_end], or the hull of t0 and ``ts``, the times
    the solution will be sampled at, when given; those may spend up to one
    panel each.  The matched solution reads its A1 or A2 from the same
    integral.
    """
    reach = t_end if ts is None else ts
    integral = c.integral(t0, reach)
    _, a1, a2, a3 = integral.samples.reshape(-1, 4).T
    A1, A2 = integral.project(np.eye(4)[:, 1:3])(integral.nodes.ravel()).T

    def matches(lhs, rhs, cos_vals) -> bool:
        usable = np.abs(cos_vals) >= 1e-6
        if not usable.any():
            return False
        lhs, rhs = lhs[usable], rhs[usable]
        scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
        return bool(np.all(np.abs(lhs - rhs) <= _DETECTION_TOL * scale))

    if matches(a1, a3 * np.tan(2.0 * A2), np.cos(2.0 * A2)):
        return _frozen_angle("I", c, t0, reach, integral, 3, (1, 2))
    cos2A1 = np.cos(2.0 * A1)
    if matches(a2, -a3 * np.tan(2.0 * A1), cos2A1):
        return _frozen_angle("II", c, t0, reach, integral, 3, (0, 2))
    if matches(a3, a2 * np.tan(2.0 * A1), cos2A1):
        return _frozen_angle("III", c, t0, reach, integral, 2, (0, 1))
    return None
