"""Independent ground truth for the quaternion linear ODE.

The equation q' = a(t) q + f(t) is, on components, the 4-D real linear
system q_vec' = M(t) q_vec + f_vec with

    M(t) = [[a0, -a1, -a2, -a3],
            [a1,  a0, -a3,  a2],
            [a2,  a3,  a0, -a1],
            [a3, -a2,  a1,  a0]].

The scalar part contributes a0 * I and the imaginary part a skew-symmetric
block (``M + M^T = 2 a0 I``), which is why the norm is conserved when
a0 = 0 and f = 0.  Integrating this system with plain fixed-step RK4, forcing
included, gives a reference solution that shares no code path with the
phase-angle and closed-form solvers beyond the quaternion and coefficient
primitives, so agreement between them is meaningful evidence.  Each RK4
step is an affine map q -> P q + r, and ``_kernels.rk4_integrate`` composes
those maps with a prefix scan rather than stepping in a loop.  Every walk
over an output grid is :func:`output_pass`, ``RK4_BLOCK`` steps a block, so
no table or temporary grows with the grid.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Optional

import numpy as np

from . import _kernels
from ._kernels import RK4_BLOCK
from .coeffs import CoefficientSet
from .errors import BlowupError
from .quat import ONE, Quaternion, mul_arrays, norm_arrays
from .trajectory import Trajectory, uniform_grid

__all__ = ["oracle_integrate", "output_pass", "residual_profile"]


def oracle_integrate(c: CoefficientSet, t0: float, reach: float,
                     q0: Quaternion, step: float = 1e-3,
                     forcing: Optional[CoefficientSet] = None) -> Trajectory:
    """Classical RK4 from node to node of the grid ``uniform_grid(t0,
    reach, step)`` on the 4-vector form of q' = a q + f (``f = 0`` when
    ``forcing`` is None)."""
    ts = uniform_grid(t0, reach, step)
    qs = np.empty((len(ts), 4))
    output_pass(ts, None, c, q0, forcing, qs=qs)
    return Trajectory(ts, qs)


def residual_profile(traj: Trajectory, c: CoefficientSet,
                     forcing: Optional[CoefficientSet] = None) -> np.ndarray:
    """Pointwise defect |q'(t) - a(t) q(t) - f(t)| (``f = 0`` when
    ``forcing`` is None) with q' by five-point differences of order h^4
    (Fornberg 1988): (1, -8, 0, 8, -1) / 12h on inner nodes, and
    (-3, -10, 18, -6, 1) / 12h on nodes 0-4 for node 1, mirrored for
    node n - 2.  Grids of 3 or 4 nodes take central differences.

    Endpoints come back as NaN.  The stencils are taken on differences of
    q, so a constant q has a derivative of exactly 0.  The nodes go block
    by block through :func:`output_pass`, so only the result is as long
    as the grid.
    """
    if len(traj) < 3:
        raise ValueError("need at least 3 nodes for central differences")
    out = np.empty(len(traj))

    def keep(rows: slice, qs: np.ndarray, res: np.ndarray) -> None:
        out[rows] = res

    output_pass(traj.ts, lambda rows: traj.qs[rows], c, forcing=forcing,
                write=keep)
    return out


def output_pass(ts: np.ndarray, solution: Optional[Callable] = None,
                c: Optional[CoefficientSet] = None, q0: Quaternion = ONE,
                forcing: Optional[CoefficientSet] = None, verify: bool = False,
                qs: Optional[np.ndarray] = None,
                write: Optional[Callable] = None,
                timings: Optional[dict] = None) -> tuple[float, float]:
    """One pass over the grid ``ts``, ``RK4_BLOCK`` steps a block, each
    sharing its first row with the one before.  A block's rows come from
    ``solution``, a map from slices of ``ts`` to rows, or if it is None
    from RK4 on ``c`` and ``forcing`` from ``q0``, which ``verify``
    compares with them.  They go to ``qs``, and with their residuals, two
    rows behind, to ``write(rows, qs, residuals)``.  Returns the largest
    residual (NaN if none) and deviation (0 unless ``verify``), and adds
    each stage's seconds to ``timings``, a table's to the stage that reads
    it whole.  A block samples its tables once: where RK4 runs, on its
    rows of ``linspace(ts[0], ts[-1], 2 * len(ts) - 1)``, whose even rows
    are a uniform ``ts`` bit for bit.  Each RK4 step is as wide as its
    interval (far from t = 0 the nodes are rounded to ulp(t)), and a
    non-finite state raises :class:`BlowupError`."""
    rk4 = solution is None or verify
    stencil = None if write is None else _Stencil(ts)
    timings = {} if timings is None else timings
    q, deviation = q0.to_array(), 0.0
    clock = time.perf_counter()

    def lap(stage):
        nonlocal clock
        now = time.perf_counter()
        timings[stage] = timings.get(stage, 0.0) + now - clock
        clock = now

    def block(rows):  # the rows and their a q + f; the tables die here
        nonlocal q, deviation
        got = None if solution is None else solution(rows)
        lap("solve")
        if rk4 or stencil is not None:
            times = ts[rows]
            if rk4:  # made as np.linspace makes them
                times = np.arange(2 * rows.start, 2 * rows.stop - 1,
                                  dtype=float)
                times *= (ts[-1] - ts[0]) / (2 * (len(ts) - 1))
                times += ts[0]
                if rows.stop == len(ts):
                    times[-1] = ts[-1]
            a = c.sample(times)
            f = None if forcing is None else forcing.sample(times)
        if rk4:
            ref = _kernels.rk4_integrate(a, q, np.diff(ts[rows]), f)
            if not np.all(np.isfinite(ref)):
                raise BlowupError("RK4 state became non-finite")
            q = ref[-1].copy()  # not a view that keeps the block
            if got is None:
                got = ref
                lap("solve")
            else:
                deviation = max(deviation,
                                float(np.max(norm_arrays(ref - got))))
                lap("oracle")
        if stencil is None:
            return got, None
        nodes = slice(None, None, 2 if rk4 else 1)
        rhs = mul_arrays(a[nodes], got)
        return got, rhs if f is None else rhs + f[nodes]

    steps = max(len(ts) - 1, 1)
    for start in range(0, steps, RK4_BLOCK):
        rows = slice(start, min(start + RK4_BLOCK, steps) + 1)
        got, rhs = block(rows)
        if qs is not None:
            qs[rows] = got
        if stencil is not None:
            done = stencil(got, rhs)
            del got, rhs  # before the CSV's temporaries come
            lap("residual")
            write(*done)
            lap("csv")
    return (math.nan if stencil is None else stencil.max_residual), deviation


class _Stencil:
    """The residuals of :func:`residual_profile` on the grid ``ts``, fed
    its rows in blocks as :func:`output_pass` makes them, with their
    a q + f.  A call returns the rows that now have all their stencil
    (all but the last two fed, until the grid ends) as a slice of the
    grid, their q and their residuals, and holds the rows it still
    needs."""

    def __init__(self, ts: np.ndarray):
        self.n, self.dt = len(ts), float(ts[1] - ts[0])
        self.lo = self.done = 0  # the first row of q held; the next row due
        self.q = self.rhs = None
        self.max_residual = math.nan

    def __call__(self, q: np.ndarray, rhs: np.ndarray
                 ) -> tuple[slice, np.ndarray, np.ndarray]:
        if self.done:  # the block's first row is the last one held
            q = np.concatenate([self.q, q[1:]])
            rhs = np.concatenate([self.rhs, rhs[1:]])
        lo, first = self.lo, self.done
        due = self.n if lo + len(q) == self.n else lo + len(q) - 2
        res = np.full(due - first, np.nan)
        inner = slice(max(first, 1), min(due, self.n - 1))
        res[inner.start - first:inner.stop - first] = norm_arrays(
            _derivative(q, lo, inner, self.n, self.dt)
            - rhs[inner.start - first:inner.stop - first])
        self.max_residual = float(np.fmax.reduce(res,
                                                 initial=self.max_residual))
        self.lo, self.done = max(due - 2, 0), due
        self.q, self.rhs = q[self.lo - lo:].copy(), rhs[due - first:].copy()
        return slice(first, due), q[first - lo:due - lo], res


def _derivative(q: np.ndarray, lo: int, rows: slice, n: int,
                dt: float) -> np.ndarray:
    """q' at the inner nodes ``rows`` (1 to n - 2) of an n-node grid by
    the stencils of :func:`residual_profile`, ``q`` being its rows from
    ``lo`` on."""
    s, e = rows.start - lo, rows.stop - lo
    if n < 5:
        return (q[s + 1:e + 1] - q[s - 1:e - 1]) / (2.0 * dt)
    deriv = np.empty((e - s, 4))
    a, b = max(s, 2 - lo), min(e, n - 2 - lo)  # the inner stencil's nodes
    inner = deriv[a - s:b - s]  # in place: one temporary the size of it
    np.subtract(q[a + 1:b + 1], q[a - 1:b - 1], out=inner)
    inner *= 8.0
    inner -= q[a + 2:b + 2] - q[a - 2:b - 2]
    ends = np.array([3.0, 13.0, -5.0, 1.0])  # (-3, -10, 18, -6, 1) on diffs
    if rows.start == 1:
        deriv[0] = ends @ np.diff(q[:5], axis=0)
    if rows.stop == n - 1:
        deriv[-1] = ends @ np.diff(q[-5:], axis=0)[::-1]
    deriv /= 12.0 * dt
    return deriv
