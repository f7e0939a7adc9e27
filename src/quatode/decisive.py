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
Picard entirely.  Rotating one coefficient pair by twice th_l = A_l, the
antiderivative of a_l started at t0, must make one component zero:

    I   : a1 cos 2A2 - a3 sin 2A2 = 0  ->  th = (0, A2, int a3 / cos(2 A2))
    II  : a2 cos 2A1 + a3 sin 2A1 = 0  ->  th = (A1, 0, int a3 / cos(2 A1))
    III : a3 cos 2A1 - a2 sin 2A1 = 0  ->  th = (A1, int a2 / cos(2 A1), 0)

That component, the family's defect, is the rate of the angle frozen at
zero in the system above, with any 1/cos(2 th2) cleared; where cos 2A != 0
the families are the identities a1 = a3 tan(2 A2), a2 = -a3 tan(2 A1)
and a3 = a2 tan(2 A1).

These solvers give the unit solution U of the imaginary part alone; the
real gain e^{A0} commutes with everything, so ``commutative.solution``
forms it from the shared integral and solves q' = a(t) q + f(t) from U.
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
# compose is not called here, but solvebench's tracer wraps it by name
from .phase import compose, compose_arrays
from .quadrature import (Antiderivative, barycentric, chebyshev_rule,
                         piecewise, resolved, stack_pieces)
from .quat import (_DETECTION_TOL, ONE, Quaternion, _detection_gap,
                   mul_arrays, norm_arrays)

__all__ = ["PicardConfig", "PicardResult", "SegmentedSolution",
           "SpecialCaseSolution", "picard_solve", "solve_segmented",
           "try_special_case"]

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
    """``a``, required, is criterion 9's time radius, the span
    ``picard_solve`` samples M over.  ``b``, the box radius for the angles,
    is fixed under pi/4 so tan(2 th2) is bounded on the box."""

    b: ClassVar[float] = _QUARTER_PI - 0.1
    a: float


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
    return np.max(norm_arrays(f), axis=(0, -1))


@dataclass
class PicardResult:
    """Converged iterate on one window [t0, t0 + h] from unit data: the
    angles of the unit solution that starts at ``t_start``, which is also
    one segment of a chained solution."""

    ts: np.ndarray           # (n,) Lobatto nodes, ts[0] = t0, ts[-1] = t0 + h
    thetas: np.ndarray       # (n, 3)
    iterations: int          # sweeps over all degrees tried
    diffs: list[float]       # sup-norm change per sweep
    h: float
    m_bound: float           # corner bound M over the window: at 64 times
                             # for criterion 9's width, else at the nodes

    @property
    def t_start(self) -> float:
        return float(self.ts[0])

    @property
    def t_end(self) -> float:
        return float(self.ts[-1])


def picard_solve(c: CoefficientSet, t0: float, cfg: PicardConfig
                 ) -> PicardResult:
    """Chebyshev-Picard iteration for the angle system with unit data on
    criterion 9's window [t0, t0 + h], h = ``min(cfg.a, 0.9 b / M)``, M the
    corner bound at 64 times of [t0, t0 + cfg.a], by :func:`_iterate`.
    Raises :class:`SingularTheta2Error` with the reason if the window is
    rejected."""
    m_bound = float(_corner_bound(
        c.sample(np.linspace(t0, t0 + cfg.a, 64), (1, 2, 3)), cfg.b))
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
        a = c.sample(ts, (1, 2, 3))
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
                          f"window [{starts[w]}, {ends[w]}]")
            break
        x = chebyshev_rule(2 * (nodes - 1)).x
        theta = barycentric(theta, np.tile(x, len(live)), np.repeat(
            np.arange(len(live)), len(x))).reshape(len(live), len(x), 3)
    return out


@dataclass
class SegmentedSolution:
    """Solution of y' = a_im(t) y assembled from chained Picard windows: on
    segment p the unit solution (1 at the global start) is
    compose(theta(t)) * anchors[p], row 0 of the ``(P, 4)`` ``anchors``
    exactly 1, and it is right-multiplied by ``q0``."""

    segments: list[PicardResult]
    anchors: np.ndarray
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
        ``quadrature.stack_pieces`` and the anchors times ``q0``: built on
        the first :meth:`sample`, which is called once per block."""
        segs = self.segments
        breaks = np.array([s.t_start for s in segs] + [self.t_end])
        return (breaks, stack_pieces([s.thetas for s in segs]),
                mul_arrays(self.anchors, self.q0.to_array()))

    def sample(self, ts: np.ndarray) -> np.ndarray:
        """The solution at each time of ``ts``, in any order, at the price
        of one product call per run of times in one segment (a forcing
        integral's quadrature passes its nodes level by level): the angles
        come from ``quadrature.piecewise`` over the segments."""
        breaks, pieces, anchors = self._tables
        theta, idx = piecewise(breaks, pieces, np.asarray(ts, dtype=float))
        unit = compose_arrays(theta[:, 0], theta[:, 1], theta[:, 2])
        return mul_arrays(unit, anchors[idx])


def _plan(integral: Antiderivative, t0: float, t_end: float) -> np.ndarray:
    """Breaks of windows over [t0, t_end] that share equally, at most
    ``_SHARE`` b each, the integral of every panel's largest |a_im| at its
    nodes.  Raises :class:`StalledSegmentError` before allocating them if
    one would be under ``_MIN_ADVANCE`` wide or more than the integral's
    ``max_panels`` needed."""
    speed = np.max(norm_arrays(integral.samples[..., 1:]), axis=1)
    load = np.append(0.0, np.cumsum(speed * np.diff(integral.breaks)))
    lo, hi = np.interp([t0, t_end], integral.breaks, load)
    n = max(1.0, np.ceil((hi - lo) / (_SHARE * PicardConfig.b)))
    if n > 1 and (hi - lo) / n < _MIN_ADVANCE * speed.max():
        raise StalledSegmentError(
            f"cannot advance past t={integral.breaks[np.argmax(speed)]}: "
            f"a window there would be under {_MIN_ADVANCE} wide")
    if n > integral.max_panels:
        raise StalledSegmentError(f"[{t0}, {t_end}] needs {n:.3e} Picard "
                                  f"windows, more than {integral.max_panels}")
    ends = np.interp(np.linspace(lo, hi, int(n) + 1)[1:-1], load,
                     integral.breaks)
    return np.concatenate([[t0], ends, [t_end]])


def solve_segmented(c: CoefficientSet, t0: float,
                    reach: float | np.ndarray, q0: Quaternion
                    ) -> SegmentedSolution:
    """Chain Picard windows across [t0, t_end], t_end the largest time of
    ``reach``, for y' = a_im(t) y (a1..a3 only; ``commutative.solution``
    solves the general equation from it).

    :func:`_plan` lays the windows out from ``c.integral(t0, reach)``,
    which reads the span as :meth:`CoefficientSet.integral` does, so the
    integral detection built is reused.  They are iterated as one batch,
    each rejected one split in half for the next, and chained by the
    ``anchors`` array, row p the running product of the windows before
    segment p: one ``compose_arrays`` call turns the windows' end angles
    into rotations, and ``_kernels.prefix_products`` multiplies them up in
    place.  At most the integral's ``max_panels`` windows, none under
    ``_MIN_ADVANCE`` wide, are made.
    """
    t_end = float(np.max(reach))
    if not t_end > t0:
        raise ValueError("t_end must exceed t0")
    integral = c.integral(t0, reach)
    cap = integral.max_panels
    breaks = _plan(integral, t0, t_end)
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
                f"cannot advance past t={starts[k]}: the window there is "
                f"under {2 * _MIN_ADVANCE} wide ({results[failed[k]]})")
        if len(segments) + 2 * len(failed) > cap:
            raise StalledSegmentError(f"[{t0}, {t_end}] needs more "
                                      f"than {cap} Picard windows")
        starts, ends = np.append(starts, mids), np.append(mids, ends)
    segments.sort(key=lambda s: s.t_start)
    last = np.array([s.thetas[-1] for s in segments])[:-1]
    anchors = np.vstack([ONE.to_array(), compose_arrays(*last.T)])
    _kernels.prefix_products(anchors[1:])
    return SegmentedSolution(segments, anchors, q0, retries=retries)


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


# The families I, II, III as (case, ell, p, num, sign): th_ell = A_ell, the
# defect is a_p cos 2A_ell + sign a_num sin 2A_ell, and th_num integrates
# a_num / cos 2A_ell.
_FAMILIES = (("I", 2, 1, 3, -1.0), ("II", 1, 2, 3, 1.0),
             ("III", 1, 3, 2, -1.0))


def try_special_case(c: CoefficientSet, t0: float, reach: float | np.ndarray
                     ) -> Optional[SpecialCaseSolution]:
    """Detect the frozen-angle families, tried in the order of
    ``_FAMILIES``; None when nothing fits.

    A family fits where its defect (the module docstring) is at most
    ``_DETECTION_TOL`` on the scale of the pair (a_p, a_num) it is formed
    from (``quat._detection_gap``) at every panel node of
    ``c.integral(t0, reach)``, which resolve every component of the
    coefficient; the defect has no tan and no division, so no node is
    skipped, and a_ell, which it reads only through A_ell, cannot loosen it.  The span is read as
    :meth:`CoefficientSet.integral` reads it.  The solution reads th_ell =
    A_ell from the same integral; th_num integrates a_num / cos 2A_ell,
    whose denominator's zeros are removable where the defect vanishes and
    never met exactly: no double comes within 4.6e-19 of an odd multiple
    of pi/2.  A non-finite ratio makes ``Antiderivative`` raise
    ``QuadratureError``, not return a wrong value.
    """
    integral = c.integral(t0, reach)
    a = integral.samples.reshape(-1, 4)
    turn = 2.0 * integral.at_nodes().reshape(-1, 4)
    for case, ell, p, num, sign in _FAMILIES:
        defect = (a[:, p] * np.cos(turn[:, ell])
                  + sign * a[:, num] * np.sin(turn[:, ell]))
        size = norm_arrays(a[:, [p, num]])
        if _detection_gap(np.abs(defect), size) <= _DETECTION_TOL:
            break
    else:
        return None
    angle = integral.project(np.eye(4)[ell])
    outer = Antiderivative(lambda s: c.sample(s, (num,))[..., 0]
                           / np.cos(2.0 * angle(s)), t0, reach)

    def theta(ts: np.ndarray) -> np.ndarray:
        out = np.zeros((len(ts), 3))
        out[:, ell - 1] = angle(ts)
        out[:, num - 1] = outer(ts)
        return out

    return SpecialCaseSolution(case, theta)
