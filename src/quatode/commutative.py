"""Commutativity detection, the closed-form propagator and the variation of
constants that assembles every strategy's solution.

A coefficient a(t) commutes with its antiderivative exactly when the three
imaginary components keep a fixed ratio, i.e. the imaginary part stays on a
fixed line through the origin.  In that case a(t) = a0(t) + g(t) * I for a
fixed unit pure quaternion I, every value lives in the complex-like field
{x + y*I}, and the homogeneous problem has the exponential solution

    q(t) = e^{A0(t)} exp(I * G(t)) * q(0),      G(t) = integral of g,

even when q(0) itself is outside the field (the exponential factor is inside
it, and right-multiplication by q(0) preserves the solution property).

Every strategy's fundamental solution is Y = e^{A0} U with U a unit
quaternion, exp(I G) here and the phase-angle solution otherwise, and
:func:`variation_of_constants` turns it into q = Y [q0 + int Y^-1 f]
(Kou and Xia 2018, *Stud. Appl. Math.* 141).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._kernels import RK4_BLOCK
from .coeffs import CoefficientSet
from .errors import NonFiniteError
from .quadrature import Antiderivative
from .quat import _DETECTION_TOL, Quaternion, mul_arrays

__all__ = [
    "ProportionalityReport",
    "check_proportionality",
    "CommutativeSolver",
    "commutative_solve",
    "variation_of_constants",
]

@dataclass(frozen=True)
class ProportionalityReport:
    """Outcome of the test for proportional imaginary components.

    ``direction`` is the common line (unit pure quaternion, sign of the
    largest sample); ``max_deviation`` is the worst scaled cross-product
    norm ``|a_im(t) x direction| / max(1, |a_im(t)|)`` over the resolved
    panel nodes.  A coefficient whose imaginary part is exactly 0 at every
    node is reported proportional and ``degenerate`` with direction 0.
    """

    is_proportional: bool
    direction: Quaternion
    max_deviation: float
    degenerate: bool = False


def check_proportionality(c: CoefficientSet, t0: float, t_end: float,
                          ts: Optional[np.ndarray] = None
                          ) -> ProportionalityReport:
    """Test collinearity of the imaginary part at the panel nodes of
    ``c.integral``, which resolve every component of the coefficient, so
    no feature the solve resolves can fall between the tested times.

    The integral spans [t0, t_end], or the hull of t0 and ``ts``, the times
    the solution will be sampled at, when given; those may spend up to one
    panel each.  The reference direction is the largest-norm sample (never
    a ratio of small components, so 0/0 points cannot poison the test).
    ``_DETECTION_TOL`` bounds that deviation only, never the norm of the
    samples.
    """
    if not t_end > t0:
        raise ValueError("t_end must exceed t0")
    integral = c.integral(t0, t_end if ts is None else ts)
    vecs = integral.samples[..., 1:].reshape(-1, 3)
    norms = np.sqrt(np.sum(vecs * vecs, axis=1))
    top = int(np.argmax(norms))
    if norms[top] == 0.0:
        return ProportionalityReport(True, Quaternion(0.0, 0.0, 0.0, 0.0),
                                     0.0, degenerate=True)
    d = vecs[top] / norms[top]
    cross = np.cross(vecs, d)
    dev = np.sqrt(np.sum(cross * cross, axis=1)) / np.maximum(1.0, norms)
    max_dev = float(np.max(dev))
    return ProportionalityReport(max_dev <= _DETECTION_TOL,
                                 Quaternion(0.0, *d.tolist()), max_dev)


class CommutativeSolver:
    """Closed-form solver for a proportional coefficient set.

    Its propagator reads ``(A0, G)`` from ``c.integral`` over the output
    grid, the quadrature detection already built, so a whole output grid
    costs at most one vectorized quadrature plus O(1) per node.
    """

    def __init__(self, c: CoefficientSet, direction: Quaternion,
                 t0: float = 0.0):
        self.coeffs = c
        self.t0 = t0
        self._dir = np.array([direction.x, direction.y, direction.z])

    def propagator(self, ts) -> Callable:
        """``s -> (A0(s) - A0(t0), exp(I (G(s) - G(t0))))`` for s in the
        hull of t0 and ``ts``, with g the imaginary part along the
        direction; both columns come from one projection of ``c.integral``
        over that hull."""
        rates = np.column_stack([np.eye(4)[0], np.append(0.0, self._dir)])
        exponent = self.coeffs.integral(self.t0, ts).project(rates)

        def propagate(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            a0, g = exponent(s).T
            return a0, np.column_stack([np.cos(g),
                                        np.sin(g)[:, None] * self._dir])

        return propagate

    def sample(self, ts: np.ndarray, q0: Quaternion) -> np.ndarray:
        return variation_of_constants(self.propagator(ts), q0, ts, self.t0)


def commutative_solve(c: CoefficientSet, q0: Quaternion, t: float,
                      direction: Quaternion, t0: float = 0.0) -> Quaternion:
    """One-shot exponential solution at time ``t``.

    ``direction`` must come from a passing :func:`check_proportionality`
    (the degenerate direction 0 is accepted: the gain term then vanishes
    and the solution reduces to ``e^{A0(t)} q0``).
    """
    sol = CommutativeSolver(c, direction, t0)
    return Quaternion.from_array(sol.sample(np.array([t]), q0)[0])


def variation_of_constants(propagator: Callable, q0: Quaternion, ts,
                           t0: float = 0.0,
                           forcing: Optional[CoefficientSet] = None
                           ) -> np.ndarray:
    """The solution of q' = a q + f, q(t0) = q0, at each time of ``ts``,
    shape ``(len(ts), 4)``; without ``forcing``, of q' = a q.

    ``propagator`` is a strategy's homogeneous solution: it maps times s
    in the hull of ``t0`` and ``ts`` to ``(A0(s) - A0(t0), U(s))``, U the
    unit quaternion with U(t0) = 1.  The gain e^{+-A0} is formed here and
    nowhere else, and raises :class:`NonFiniteError` where it overflows,
    as does a solution whose product with q0 (or with the forcing
    integral) overflows although the gain fits.  The forcing's integrand
    ``e^{-A0} conj(U) f`` gets one antiderivative over the hull of ``t0``
    and ``ts``.  The rows are filled ``RK4_BLOCK`` times at a time, each
    row on its own, so no temporary grows with ``len(ts)``; the first
    block that overflows raises.
    """
    def fundamental(s: np.ndarray, inverse: bool = False) -> np.ndarray:
        a0, unit = propagator(s)
        with np.errstate(over="ignore"):
            gain = np.exp(-a0 if inverse else a0)
        if not np.all(np.isfinite(gain)):
            raise NonFiniteError("exp overflow in the scalar part")
        conj = [1.0, -1.0, -1.0, -1.0] if inverse else 1.0
        return unit * (gain[:, None] * conj)

    integral = None if forcing is None else Antiderivative(
        lambda s: mul_arrays(fundamental(s, inverse=True),
                             forcing.sample(s)), t0, ts)
    q = np.empty((len(ts), 4))
    for start in range(0, len(ts), RK4_BLOCK):
        rows = slice(start, start + RK4_BLOCK)
        y = fundamental(ts[rows])
        rhs = q0.to_array()
        if integral is not None:
            rhs = rhs + integral(ts[rows])
        with np.errstate(over="ignore", invalid="ignore"):
            q[rows] = mul_arrays(y, rhs)
        if not np.all(np.isfinite(q[rows])):
            raise NonFiniteError("the solution overflows a double")
    return q
