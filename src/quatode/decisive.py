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
and Q = q(t1), then q(t) = u(t) Q continues the solution).  M is sampled at
the box corners, where tan(2b) inflates it, so criterion 9 is only the
chain's first width: a window accepted on its first attempt lets the next
one widen, no further than would bring the angles to 0.7 b at the speed
they just showed, and a window whose iterate leaves the box or whose f is
not resolved is retried at half the width.  Every accepted window passed
the same checks: convergence, the box at every node and f resolved.  The
box keeps |th2| <= b < pi/4 at every node, so th2 needs no guard of its
own.

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
from typing import Callable, ClassVar, Optional

import numpy as np

from . import _kernels
from .coeffs import CoefficientSet
from .errors import (
    NoConvergenceError,
    SingularTheta2Error,
    StalledSegmentError,
)
from .phase import PhaseTriple, compose, compose_arrays
from .quadrature import (Antiderivative, barycentric, chebyshev_rule,
                         piecewise, resolved)
from .quat import ONE, Quaternion, mul, mul_arrays

__all__ = [
    "PicardConfig",
    "PicardResult",
    "SegmentedSolution",
    "SpecialCaseSolution",
    "picard_solve",
    "propagator",
    "solve_segmented",
    "try_special_case",
]

_QUARTER_PI = 0.25 * math.pi
_H_SAFETY = 0.9
_MIN_ADVANCE = 1e-8
_DEGREE = 16          # Lobatto degree every window starts at
_MAX_DEGREE = 128     # past it an unresolved window is split, not accepted
_TAIL_TOL = 1e-13     # tail of f accepted relative to max |f|, see resolved
_GROWTH = 2.0         # most a window may widen over the one before it
_LOAD_TARGET = 0.7    # share of the box a window aims its angles at
_TOL = 1e-11          # change between sweeps at which a window has converged
_MAX_ITER = 200       # sweeps of one window over all its Lobatto degrees


@dataclass(frozen=True)
class PicardConfig:
    """``a`` is criterion 9's time radius, the span M is sampled over when
    ``picard_solve`` is given no width.  ``b``, the box radius for the
    angles, is fixed under pi/4 so tan(2 th2) is bounded on the box."""

    b: ClassVar[float] = _QUARTER_PI - 0.1
    a: Optional[float] = None


def _corner_bound(coeffs: np.ndarray, b: float) -> float:
    """Bound max |f| over the box |th| <= b from coefficient rows a1..a3.

    The angles are sampled at the four (th1, th2) corners of the box plus
    the center; f does not depend on th3.  Corners of the cube contain the
    Euclidean ball, so the estimate errs on the large side.
    """
    corners = [(0.0, 0.0, 0.0)] + [(s1 * b, s2 * b, 0.0) for s1 in (-1.0, 1.0)
                                   for s2 in (-1.0, 1.0)]
    f = _kernels.angle_rates(np.repeat(corners, len(coeffs), axis=0),
                             np.tile(coeffs, (len(corners), 1)))
    return float(np.max(np.sqrt(np.sum(f * f, axis=1))))


def _criterion_width(c: CoefficientSet, t0: float,
                     cfg: PicardConfig) -> tuple[float, float]:
    """Criterion 9: ``h = min(a, 0.9 b / M)`` with M the corner bound over
    64 times of [t0, t0 + a]; returns h and M."""
    if cfg.a is None:
        raise ValueError("cfg.a (time radius) must be set for criterion 9")
    m_bound = _corner_bound(
        c.sample_imag(np.linspace(t0, t0 + cfg.a, 64)), cfg.b)
    if m_bound == 0.0:
        return cfg.a, m_bound
    return min(cfg.a, _H_SAFETY * cfg.b / m_bound), m_bound


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


def picard_solve(c: CoefficientSet, t0: float, cfg: PicardConfig,
                 h: Optional[float] = None) -> PicardResult:
    """Chebyshev-Picard iteration for the angle system with unit data.

    The window is [t0, t0 + h]; without ``h`` it takes criterion 9's
    width ``min(cfg.a, 0.9 b / M)``.  A converged iterate is accepted once
    the Chebyshev tail of f is at most ``_TAIL_TOL`` of max |f|, or the
    rounding floor of times near t0 + h where that is larger
    (``quadrature.resolved``); otherwise the degree doubles.  Raises
    :class:`NoConvergenceError` at the iteration cap and
    :class:`SingularTheta2Error` if an iterate escapes the box or f is
    unresolved at degree ``_MAX_DEGREE`` (the chain then halves h).
    """
    m_bound = None
    if h is None:
        h, m_bound = _criterion_width(c, t0, cfg)
    elif not h > 0.0:
        raise ValueError("window width h must be positive")
    degree = _DEGREE
    theta = np.zeros((degree + 1, 3))
    diffs: list[float] = []
    while True:
        rule = chebyshev_rule(degree)
        ts = t0 + 0.5 * h * (rule.x + 1.0)
        a = c.sample_imag(ts)
        integrate = 0.5 * h * rule.integrate
        for _ in range(_MAX_ITER - len(diffs)):
            new, f = _kernels.picard_sweep(theta, a, integrate)
            radius2 = float(np.max(np.einsum("ij,ij->i", new, new)))
            if not math.isfinite(radius2):
                raise SingularTheta2Error("iterate left the regular region")
            if radius2 > cfg.b * cfg.b:
                raise SingularTheta2Error("iterate escaped the Picard box")
            diffs.append(float(np.max(np.abs(new - theta))))
            theta = new
            if diffs[-1] <= _TOL:
                break
        else:
            raise NoConvergenceError(
                f"Picard iteration did not reach tol={_TOL} "
                f"within {_MAX_ITER} iterations")
        if resolved(f[None], h, t0, t0 + h, _TAIL_TOL)[0]:
            if m_bound is None:
                m_bound = _corner_bound(a, cfg.b)
            return PicardResult(ts, theta, len(diffs), diffs, h, m_bound)
        if degree >= _MAX_DEGREE:
            raise SingularTheta2Error(
                f"f not resolved by {degree + 1} Lobatto nodes on the "
                f"window [{t0!r}, {t0 + h!r}]")
        degree *= 2
        x = chebyshev_rule(degree).x
        theta = barycentric(theta[None], x, np.zeros(len(x), dtype=int))


@dataclass
class SegmentedSolution:
    """Solution of y' = a_im(t) y assembled from chained Picard windows.

    The unit solution (value 1 at the global start) is evaluated per
    segment and right-multiplied by ``q0``.
    """

    segments: list[PicardResult]
    q0: Quaternion
    retries: int = 0  # window attempts rejected and retried narrower

    @property
    def t_start(self) -> float:
        return self.segments[0].t_start

    @property
    def t_end(self) -> float:
        return self.segments[-1].t_end

    @property
    def iterations(self) -> list[int]:
        return [s.iterations for s in self.segments]

    def diagnostics(self) -> dict:
        """Segment count, rejected window attempts (``retries``), then
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

    def sample(self, ts: np.ndarray) -> np.ndarray:
        """The solution at each time of ``ts``, in any order: the angles
        come from ``quadrature.piecewise`` over the segments."""
        segs = self.segments
        ts = np.asarray(ts, dtype=float)
        theta, idx = piecewise(
            np.array([s.t_start for s in segs] + [self.t_end]),
            [s.thetas for s in segs], ts)
        unit = compose_arrays(theta[:, 0], theta[:, 1], theta[:, 2])
        anchors = mul_arrays(np.stack([s.anchor.to_array() for s in segs]),
                             self.q0.to_array())
        return mul_arrays(unit, anchors[idx])


def solve_segmented(c: CoefficientSet, t0: float, t_end: float,
                    q0: Quaternion) -> SegmentedSolution:
    """Chain Picard windows across [t0, t_end] for y' = a_im(t) y.

    Only the imaginary coefficient components are used (see
    :func:`propagator` for the general equation); every window runs at
    ``PicardConfig()``.  The first window takes criterion 9's width over
    the whole span, doubled while criterion 9 over the doubled width still
    admits all of it, so a coefficient that is large only far ahead does
    not shrink it.  A window accepted on its first attempt lets the next
    one widen by ``_GROWTH``; one accepted after a retry keeps its width
    for the next.  Either is cut to the width that, at the angles' speed
    just observed, would use ``_LOAD_TARGET`` of the box radius b: the
    angles speed up toward the box edge, so aiming below criterion 9's 0.9
    keeps widened windows inside the box.  A window that escapes the box
    or is not resolved is retried at half the width.  The next window
    restarts the angles at zero and carries the accumulated value in its
    ``anchor``.  An attempt narrower than ``_MIN_ADVANCE`` that would not
    finish the span raises :class:`StalledSegmentError`.
    """
    if not t_end > t0:
        raise ValueError("t_end must exceed t0")
    cfg = PicardConfig()
    h = _criterion_width(c, t0, PicardConfig(a=t_end - t0))[0]
    while (2.0 * h <= t_end - t0 and _criterion_width(
            c, t0, PicardConfig(a=2.0 * h))[0] == 2.0 * h):
        h *= 2.0
    segments: list[PicardResult] = []
    anchor = ONE
    t_cur = t0
    retries = 0
    reason = "none"
    while t_cur < t_end - 1e-12:
        h = min(h, t_end - t_cur)
        first_try = True
        while True:
            if h < _MIN_ADVANCE and h < t_end - t_cur:
                raise StalledSegmentError(
                    f"cannot advance past t={t_cur!r}: the next window is "
                    f"{h!r} wide, under {_MIN_ADVANCE} (last rejection: "
                    f"{reason})")
            try:
                res = picard_solve(c, t_cur, cfg, h)
                break
            except SingularTheta2Error as exc:
                retries += 1
                first_try = False
                reason = str(exc)
                h *= 0.5
        segments.append(replace(res, anchor=anchor))
        anchor = mul(compose(PhaseTriple(*res.thetas[-1])), anchor)
        t_cur = res.t_end
        grow = _GROWTH if first_try else 1.0
        # the largest share of the box radius the angles used; at their
        # speed a width res.h / load would use all of it
        load = float(np.max(np.linalg.norm(res.thetas, axis=1))) / cfg.b
        h = (min(grow * res.h, _LOAD_TARGET * res.h / load) if load > 0.0
             else grow * res.h)
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
    t0: float
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
    a_num / cos(2 * that angle), and whose third angle stays zero.

    Where the matching identity holds the integrand's zeros of the
    denominator are removable; an exact float zero is sidestepped by a tiny
    nudge.  The inner antiderivative is simply evaluated at the outer's
    quadrature nodes.
    """
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

    return SpecialCaseSolution(case, t0, theta)


def try_special_case(c: CoefficientSet, t0: float, t_end: float,
                     tol: float = 1e-9,
                     ts: Optional[np.ndarray] = None
                     ) -> Optional[SpecialCaseSolution]:
    """Detect the frozen-angle families; None when nothing fits.

    Each identity is tested at the panel nodes of ``c.integral``, which
    resolve every component of the coefficient, skipping nodes where the
    relevant |cos(2 A_l)| is below 1e-6 (the identity degenerates there).
    Matching is scaled-absolute: |lhs - rhs| <= tol * max(1, |lhs|, |rhs|).
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
        gap = np.abs(lhs[usable] - rhs[usable])
        scale = np.maximum(1.0, np.maximum(np.abs(lhs[usable]),
                                           np.abs(rhs[usable])))
        return bool(np.all(gap <= tol * scale))

    cos2A2 = np.cos(2.0 * A2)
    if matches(a1, a3 * np.tan(2.0 * A2), cos2A2):
        return _frozen_angle("I", c, t0, reach, integral, 3, (1, 2))
    cos2A1 = np.cos(2.0 * A1)
    if matches(a2, -a3 * np.tan(2.0 * A1), cos2A1):
        return _frozen_angle("II", c, t0, reach, integral, 3, (0, 2))
    if matches(a3, a2 * np.tan(2.0 * A1), cos2A1):
        return _frozen_angle("III", c, t0, reach, integral, 2, (0, 1))
    return None
