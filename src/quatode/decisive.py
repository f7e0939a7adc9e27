"""Phase-angle solver for the pure-imaginary-coefficient problem
y' = a_im(t) y, y(t0) = 1.

Writing the unit-norm solution as e^{i*th1(t)} e^{j*th2(t)} e^{k*th3(t)}
turns the quaternion ODE into a real 3-D nonautonomous system for the
angles (singular where |th2| reaches pi/4):

    th1' = a1 + sin(2 th1) tan(2 th2) a2 - cos(2 th1) tan(2 th2) a3
    th2' = cos(2 th1) a2 + sin(2 th1) a3
    th3' = -sin(2 th1)/cos(2 th2) a2 + cos(2 th1)/cos(2 th2) a3

with th(t0) = (0, 0, 0).  On a window of width h = min(a, 0.9 b / M),
where M bounds |f| over the box |th| <= b < pi/4, Picard iteration
converges to the unique local solution; longer spans are covered by
restarting at the window end and chaining the partial solutions by right
multiplication (if u(t) solves the unit problem from t1 and Q = q(t1), then
q(t) = u(t) Q continues the solution).

Three families of coefficients admit exact solutions of the decisive system
with one angle frozen at zero; ``try_special_case`` detects them and skips
Picard entirely:

    I   : a1 = a3 tan(2 A2)  ->  th = (0, A2, int a3 / cos(2 A2))
    II  : a2 = -a3 tan(2 A1) ->  th = (A1, 0, int a3 / cos(2 A1))
    III : a3 = a2 tan(2 A1)  ->  th = (A1, int a2 / cos(2 A1), 0)

where A_l is the antiderivative of a_l started at t0.

A general coefficient with nonzero scalar part splits multiplicatively:
``scalar_split_solve`` returns e^{A0(t) - A0(t0)} times the pure-imaginary
solution, which solves q' = a(t) q.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from . import _kernels
from .coeffs import CoefficientSet
from .errors import (
    NoConvergenceError,
    SingularTheta2Error,
    StalledSegmentError,
)
from .phase import PhaseTriple, compose, compose_arrays
from .quadrature import Antiderivative
from .quat import ONE, Quaternion, mul, mul_arrays

__all__ = [
    "PicardConfig",
    "PicardResult",
    "Segment",
    "SegmentedSolution",
    "SpecialCaseSolution",
    "decisive_rhs",
    "picard_solve",
    "solve_segmented",
    "scalar_split_solve",
    "try_special_case",
]

_QUARTER_PI = 0.25 * math.pi
_H_SAFETY = 0.9
_MIN_ADVANCE = 1e-8


@dataclass(frozen=True)
class PicardConfig:
    """Knobs for one Picard window.

    ``b`` is the box radius for the angles (must stay under pi/4 so
    tan(2 th2) is bounded on the box); ``a`` the time radius of the window
    (``None`` lets the segmented driver use the remaining span);
    ``grid_step`` the iterate grid spacing (``None`` = window/2048);
    ``theta2_guard`` ends a segment early once |th2| reaches it.
    """

    b: float = _QUARTER_PI - 0.1
    a: Optional[float] = None
    grid_step: Optional[float] = None
    tol: float = 1e-11
    max_iter: int = 200
    theta2_guard: float = _QUARTER_PI - 0.1

    def __post_init__(self):
        if not 0.0 < self.b < _QUARTER_PI:
            raise ValueError("box radius must lie in (0, pi/4)")
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")


def decisive_rhs(t: float, theta: PhaseTriple,
                 c: CoefficientSet) -> np.ndarray:
    """Right-hand side f(t, theta) of the 3-D angle system."""
    if abs(theta.theta2) >= _QUARTER_PI - 1e-12:
        raise SingularTheta2Error(
            f"theta2 = {theta.theta2!r} is at the pi/4 singularity")
    a1 = c.eval(1, t)
    a2 = c.eval(2, t)
    a3 = c.eval(3, t)
    s1 = math.sin(2.0 * theta.theta1)
    c1 = math.cos(2.0 * theta.theta1)
    tn2 = math.tan(2.0 * theta.theta2)
    ic2 = 1.0 / math.cos(2.0 * theta.theta2)
    return np.array([
        a1 + s1 * tn2 * a2 - c1 * tn2 * a3,
        c1 * a2 + s1 * a3,
        (-s1 * a2 + c1 * a3) * ic2,
    ])


def _estimate_sup_f(c: CoefficientSet, t0: float, a: float,
                    b: float) -> float:
    """Bound max |f| over the window x box by sampling.

    Time is sampled on a 64-point grid; the angles at the eight box corners
    plus the center.  Corners of the cube contain the Euclidean ball, so the
    estimate errs on the large side, which only shortens the window.
    """
    ts = np.linspace(t0, t0 + a, 64)
    a1 = c.eval_array(1, ts)
    a2 = c.eval_array(2, ts)
    a3 = c.eval_array(3, ts)
    worst = 0.0
    corners = [(0.0, 0.0)]
    corners += [(s1 * b, s2 * b) for s1 in (-1.0, 1.0) for s2 in (-1.0, 1.0)]
    # f does not depend on th3, so the corner sweep only needs (th1, th2)
    for th1, th2 in corners:
        s1 = math.sin(2.0 * th1)
        c1 = math.cos(2.0 * th1)
        tn2 = math.tan(2.0 * th2)
        ic2 = 1.0 / math.cos(2.0 * th2)
        f1 = a1 + s1 * tn2 * a2 - c1 * tn2 * a3
        f2 = c1 * a2 + s1 * a3
        f3 = (-s1 * a2 + c1 * a3) * ic2
        worst = max(worst, float(np.max(np.sqrt(f1 * f1 + f2 * f2
                                                + f3 * f3))))
    return worst


@dataclass
class PicardResult:
    """Converged iterate on one window [t0, t0 + h]."""

    ts: np.ndarray           # (n,)
    thetas: np.ndarray       # (n, 3)
    iterations: int
    diffs: list[float]       # sup-norm change per iteration
    h: float
    m_bound: float           # the sampled bound M used for h


def picard_solve(c: CoefficientSet, t0: float,
                 cfg: PicardConfig) -> PicardResult:
    """Picard iteration for the angle system with unit initial data.

    Raises :class:`NoConvergenceError` at the iteration cap and
    :class:`SingularTheta2Error` if an iterate escapes the box.
    """
    if cfg.a is None:
        raise ValueError("cfg.a (time radius) must be set for picard_solve")
    m_bound = _estimate_sup_f(c, t0, cfg.a, cfg.b)
    if m_bound > 0.0:
        h = min(cfg.a, _H_SAFETY * cfg.b / m_bound)
    else:
        h = cfg.a
    if cfg.grid_step is None:
        n = 2048
    else:
        n = max(8, int(math.ceil(h / cfg.grid_step)))
    ts = np.linspace(t0, t0 + h, n + 1)
    dt = ts[1] - ts[0]
    a1 = c.eval_array(1, ts)
    a2 = c.eval_array(2, ts)
    a3 = c.eval_array(3, ts)
    th1 = np.zeros(n + 1)
    th2 = np.zeros(n + 1)
    th3 = np.zeros(n + 1)
    diffs: list[float] = []
    for it in range(1, cfg.max_iter + 1):
        n1, n2, n3 = _kernels.picard_sweep(th1, th2, th3, a1, a2, a3, dt)
        if not (np.all(np.isfinite(n1)) and np.all(np.isfinite(n2))
                and np.all(np.isfinite(n3))):
            raise SingularTheta2Error("iterate left the regular region")
        if float(np.max(n1 * n1 + n2 * n2 + n3 * n3)) > cfg.b * cfg.b:
            raise SingularTheta2Error("iterate escaped the Picard box")
        diff = max(float(np.max(np.abs(n1 - th1))),
                   float(np.max(np.abs(n2 - th2))),
                   float(np.max(np.abs(n3 - th3))))
        diffs.append(diff)
        th1, th2, th3 = n1, n2, n3
        if diff <= cfg.tol:
            thetas = np.stack([th1, th2, th3], axis=-1)
            return PicardResult(ts, thetas, it, diffs, h, m_bound)
    raise NoConvergenceError(
        f"Picard iteration did not reach tol={cfg.tol} "
        f"within {cfg.max_iter} iterations")


@dataclass
class Segment:
    """One Picard window of a chained solution.

    ``anchor`` is the value of the global unit solution at ``t_start``; on
    the segment the unit solution is compose(theta(t)) * anchor.
    """

    t_start: float
    t_end: float
    ts: np.ndarray
    thetas: np.ndarray
    anchor: Quaternion
    iterations: int
    diffs: list[float] = field(default_factory=list)

    def phase_at(self, t: float) -> PhaseTriple:
        cols = [np.interp(t, self.ts, self.thetas[:, k]) for k in range(3)]
        return PhaseTriple(*map(float, cols))


@dataclass
class SegmentedSolution:
    """Solution of q' = a(t) q assembled from chained Picard windows.

    The unit solution (value 1 at the global start) is evaluated per
    segment and right-multiplied by ``q0``; ``log_gain`` (when present)
    maps an array of times to the scalar exponent A0(t) - A0(t0)
    contributed by the scalar part of the coefficient.
    """

    segments: list[Segment]
    q0: Quaternion
    log_gain: Optional[Callable[[np.ndarray], np.ndarray]] = None

    @property
    def t_start(self) -> float:
        return self.segments[0].t_start

    @property
    def t_end(self) -> float:
        return self.segments[-1].t_end

    @property
    def iterations(self) -> list[int]:
        return [s.iterations for s in self.segments]

    def _segment_for(self, t: float) -> Segment:
        if not (self.t_start - 1e-9 <= t <= self.t_end + 1e-9):
            raise ValueError(f"t={t!r} outside the solved interval")
        starts = [s.t_start for s in self.segments]
        idx = bisect.bisect_right(starts, t) - 1
        return self.segments[max(idx, 0)]

    def at(self, t: float) -> Quaternion:
        seg = self._segment_for(t)
        q = mul(mul(compose(seg.phase_at(t)), seg.anchor), self.q0)
        if self.log_gain is not None:
            q = math.exp(float(self.log_gain(t))) * q
        return q

    def sample(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        out = np.empty((len(ts), 4))
        done = np.zeros(len(ts), dtype=bool)
        for seg in self.segments:
            mask = (~done & (ts >= seg.t_start - 1e-9)
                    & (ts <= seg.t_end + 1e-9))
            if not mask.any():
                continue
            sub = ts[mask]
            th = [np.interp(sub, seg.ts, seg.thetas[:, k]) for k in range(3)]
            unit = compose_arrays(*th)
            rhs = mul(seg.anchor, self.q0).to_array()
            out[mask] = mul_arrays(unit, rhs)
            done |= mask
        if not done.all():
            raise ValueError("some sample times fall outside the solution")
        if self.log_gain is not None:
            out = out * np.exp(self.log_gain(ts))[:, None]
        return out


def solve_segmented(c: CoefficientSet, t0: float, t_end: float,
                    q0: Quaternion,
                    cfg: PicardConfig = PicardConfig()) -> SegmentedSolution:
    """Chain Picard windows across [t0, t_end] for y' = a_im(t) y.

    Only the imaginary coefficient components are used (see
    :func:`scalar_split_solve` for the general equation).  A segment ends at
    its window end or earlier where |th2| reaches the guard; the next
    window restarts the angles at zero and carries the accumulated value in
    the anchor.  If a window still escapes the box (the sampled bound M was
    too small), it is retried with half the time radius.
    """
    if not t_end > t0:
        raise ValueError("t_end must exceed t0")
    segments: list[Segment] = []
    anchor = ONE
    t_cur = t0
    while t_cur < t_end - 1e-12:
        a_rad = t_end - t_cur
        if cfg.a is not None:
            a_rad = min(a_rad, cfg.a)
        while True:
            try:
                res = picard_solve(c, t_cur, replace(cfg, a=a_rad))
                break
            except SingularTheta2Error:
                a_rad *= 0.5
                if a_rad < _MIN_ADVANCE:
                    raise StalledSegmentError(
                        f"cannot advance past t={t_cur!r}: every window "
                        "escapes the Picard box") from None
        ts, thetas = res.ts, res.thetas
        hit = np.nonzero(np.abs(thetas[:, 1]) >= cfg.theta2_guard)[0]
        if hit.size:
            cut = int(hit[0])
            if cut == 0:
                raise StalledSegmentError(
                    f"theta2 guard violated at the start of the window "
                    f"t={t_cur!r}")
            ts, thetas = ts[:cut + 1], thetas[:cut + 1]
        joint = float(ts[-1])
        if joint - t_cur < _MIN_ADVANCE:
            raise StalledSegmentError(
                f"segment at t={t_cur!r} advanced less than {_MIN_ADVANCE}")
        segments.append(Segment(t_cur, joint, ts, thetas, anchor,
                                res.iterations, res.diffs))
        anchor = mul(compose(PhaseTriple(*thetas[-1])), anchor)
        t_cur = joint
    return SegmentedSolution(segments, q0)


def scalar_split_solve(c: CoefficientSet, t0: float, t_end: float,
                       q0: Quaternion,
                       cfg: PicardConfig = PicardConfig(),
                       ts: Optional[np.ndarray] = None
                       ) -> SegmentedSolution:
    """Solve the general q' = a(t) q by the scalar/imaginary split.

    The real solution e^{A0(t) - A0(t0)} of the scalar part commutes with
    everything, so multiplying it onto the pure-imaginary solution solves
    the full equation.  ``ts``, the times the solution will be sampled at,
    lets the antiderivative of a0 spend up to one panel per time.
    """
    sol = solve_segmented(c, t0, t_end, q0, cfg)
    log_gain = Antiderivative(lambda s: c.eval_array(0, s), t0,
                              t_end if ts is None else ts)
    return SegmentedSolution(sol.segments, sol.q0, log_gain=log_gain)


# ---------------------------------------------------------------------------
# Corollary special cases
# ---------------------------------------------------------------------------

@dataclass
class SpecialCaseSolution:
    """Exact solution q(t) = compose(theta(t)) * q0 for one of the three
    frozen-angle coefficient families; ``theta`` maps an array of times to
    the angles, shape ``(len(ts), 3)``."""

    case: str  # "I", "II" or "III"
    t0: float
    theta: Callable[[np.ndarray], np.ndarray]

    def phase_at(self, t: float) -> PhaseTriple:
        return PhaseTriple(*map(float, self.theta(np.array([t]))[0]))

    def at(self, t: float, q0: Quaternion = ONE) -> Quaternion:
        return mul(compose(self.phase_at(t)), q0)

    def sample(self, ts: np.ndarray, q0: Quaternion = ONE) -> np.ndarray:
        th = self.theta(np.asarray(ts, dtype=float))
        unit = compose_arrays(th[:, 0], th[:, 1], th[:, 2])
        return mul_arrays(unit, q0.to_array())


def _frozen_angle(case: str, c: CoefficientSet, t0: float,
                  reach: float | np.ndarray, rel: Antiderivative, num_ell: int,
                  slots: tuple[int, int]) -> SpecialCaseSolution:
    """Solution whose angle ``slots[0]`` is column ``slots[0]`` of ``rel``
    (A1 or A2 started at t0), whose angle ``slots[1]`` is the integral from
    t0 of a_num / cos(2 * that angle), and whose third angle stays zero.

    Where the matching identity holds the integrand's zeros of the
    denominator are removable; an exact float zero is sidestepped by a tiny
    nudge.  The inner antiderivative is simply evaluated at the outer's
    quadrature nodes.
    """

    def angle(s: np.ndarray) -> np.ndarray:
        return rel(s)[:, slots[0]]

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
                     tol: float = 1e-9, n_check: int = 128,
                     ts: Optional[np.ndarray] = None
                     ) -> Optional[SpecialCaseSolution]:
    """Detect the frozen-angle families on a grid; None when nothing fits.

    Each identity is tested at ``n_check`` points, skipping points where the
    relevant |cos(2 A_l)| is below 1e-6 (the identity degenerates there).
    Matching is scaled-absolute: |lhs - rhs| <= tol * max(1, |lhs|, |rhs|).
    A1 and A2 come from one antiderivative over [t0, t_end], which the
    matched solution keeps.  ``ts``, the times the solution will be sampled
    at, lets each antiderivative spend up to one panel per time.
    """
    reach = t_end if ts is None else ts
    grid = np.linspace(t0, t_end, n_check)
    a1 = c.eval_array(1, grid)
    a2 = c.eval_array(2, grid)
    a3 = c.eval_array(3, grid)
    rel = Antiderivative(
        lambda s: np.stack([c.eval_array(1, s), c.eval_array(2, s)], axis=-1),
        t0, reach)
    A1, A2 = rel(grid).T

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
        return _frozen_angle("I", c, t0, reach, rel, 3, (1, 2))
    cos2A1 = np.cos(2.0 * A1)
    if matches(a2, -a3 * np.tan(2.0 * A1), cos2A1):
        return _frozen_angle("II", c, t0, reach, rel, 3, (0, 2))
    if matches(a3, a2 * np.tan(2.0 * A1), cos2A1):
        return _frozen_angle("III", c, t0, reach, rel, 2, (0, 1))
    return None
