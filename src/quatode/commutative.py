"""Commutativity detection and the closed-form exponential solver.

A coefficient a(t) commutes with its antiderivative exactly when the three
imaginary components keep a fixed ratio, i.e. the imaginary part stays on a
fixed line through the origin.  In that case a(t) = a0(t) + g(t) * I for a
fixed unit pure quaternion I, every value lives in the complex-like field
{x + y*I}, and the initial value problem has the exponential solution

    q(t) = exp(A0(t) + I * G(t)) * q(0),      G(t) = integral of g,

even when q(0) itself is outside the field (the exponential factor is inside
it, and right-multiplication by q(0) preserves the solution property).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .coeffs import CoefficientSet
from .errors import NonFiniteError
from .quadrature import Antiderivative
from .quat import PureVec, Quaternion, mul, mul_arrays, norm

__all__ = [
    "ProportionalityReport",
    "ComplexLikeUnit",
    "check_proportionality",
    "CommutativeSolver",
    "commutative_solve",
    "variation_of_constants",
    "field_projection_residual",
]


@dataclass(frozen=True)
class ProportionalityReport:
    """Outcome of the test for proportional imaginary components.

    ``direction`` is the common line (unit vector, sign of the largest
    sample); ``max_deviation`` is the worst scaled cross-product norm
    ``|a_im(t) x direction| / max(1, |a_im(t)|)`` over the resolved panel
    nodes.  A coefficient whose imaginary part vanishes at every node is
    reported proportional and ``degenerate`` with the zero direction.
    """

    is_proportional: bool
    direction: PureVec
    max_deviation: float
    degenerate: bool = False


@dataclass(frozen=True)
class ComplexLikeUnit:
    """A unit pure quaternion I; as a quaternion it satisfies I^2 = -1."""

    vec: PureVec

    def __post_init__(self):
        q = self.vec.as_quaternion()
        sq = mul(q, q)
        if norm(sq - Quaternion(-1.0, 0.0, 0.0, 0.0)) > 1e-12:
            raise ValueError("direction is not a unit pure quaternion")

    def as_quaternion(self) -> Quaternion:
        return self.vec.as_quaternion()


def check_proportionality(c: CoefficientSet, t0: float, t_end: float,
                          tol: float = 1e-9,
                          ts: Optional[np.ndarray] = None
                          ) -> ProportionalityReport:
    """Test collinearity of the imaginary part at the panel nodes of
    ``c.integral``, which resolve every component of the coefficient, so
    no feature the solve resolves can fall between the tested times.

    The integral spans [t0, t_end], or the hull of t0 and ``ts``, the times
    the solution will be sampled at, when given; those may spend up to one
    panel each.  The reference direction is the largest-norm sample (never
    a ratio of small components, so 0/0 points cannot poison the test).
    """
    if not t_end > t0:
        raise ValueError("t_end must exceed t0")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    integral = c.integral(t0, t_end if ts is None else ts)
    vecs = integral.samples[..., 1:].reshape(-1, 3)
    norms = np.sqrt(np.sum(vecs * vecs, axis=1))
    top = int(np.argmax(norms))
    if norms[top] <= tol:
        return ProportionalityReport(True, PureVec(0.0, 0.0, 0.0), 0.0,
                                     degenerate=True)
    d = vecs[top] / norms[top]
    cross = np.cross(vecs, d)
    dev = np.sqrt(np.sum(cross * cross, axis=1)) / np.maximum(1.0, norms)
    max_dev = float(np.max(dev))
    return ProportionalityReport(max_dev <= tol,
                                 PureVec(*(float(v) for v in d)), max_dev)


class CommutativeSolver:
    """Closed-form solver for a proportional coefficient set.

    Sampling a grid reads ``(A0, G)`` from ``c.integral`` over it, the
    quadrature detection already built, so a whole output grid costs at
    most one vectorized quadrature plus O(1) per node.
    """

    def __init__(self, c: CoefficientSet, direction: PureVec,
                 t0: float = 0.0):
        self.coeffs = c
        self.direction = direction
        self.t0 = t0
        self._dir = np.array([direction.x, direction.y, direction.z])

    def exponent_integral(self, ts) -> Antiderivative:
        """``(A0(t) - A0(t0), G(t) - G(t0))`` over the hull of t0 and ts,
        with g the imaginary part along the direction."""
        rates = np.column_stack([np.eye(4)[0], np.append(0.0, self._dir)])
        return self.coeffs.integral(self.t0, ts).project(rates)

    def field_exp(self, gains: np.ndarray) -> np.ndarray:
        """``exp(A0 + I G) = e^A0 (cos G + I sin G)`` for rows ``(A0, G)``."""
        with np.errstate(over="ignore"):
            ew = np.exp(gains[:, 0])
        if not np.all(np.isfinite(ew)):
            raise NonFiniteError("exp overflow in the scalar part")
        s = ew * np.sin(gains[:, 1])
        return np.column_stack([ew * np.cos(gains[:, 1]),
                                s[:, None] * self._dir])

    def at(self, t: float, q0: Quaternion) -> Quaternion:
        return Quaternion.from_array(self.sample(np.array([t]), q0)[0])

    def sample(self, ts: np.ndarray, q0: Quaternion) -> np.ndarray:
        gains = self.exponent_integral(ts)(ts)
        return mul_arrays(self.field_exp(gains), q0.to_array())


def commutative_solve(c: CoefficientSet, q0: Quaternion, t: float,
                      direction: PureVec, t0: float = 0.0) -> Quaternion:
    """One-shot exponential solution at time ``t``.

    ``direction`` must come from a passing :func:`check_proportionality`
    (the degenerate zero vector is accepted: the gain term then vanishes and
    the solution reduces to ``e^{A0(t)} q0``).
    """
    return CommutativeSolver(c, direction, t0).at(t, q0)


def variation_of_constants(c: CoefficientSet, forcing: CoefficientSet,
                           q0: Quaternion, ts: np.ndarray,
                           direction: PureVec,
                           t0: float = 0.0) -> np.ndarray:
    """Nonhomogeneous solution q' = a q + f in the commutative case.

    Returns, for each time of ``ts`` (shape ``(len(ts), 4)``),
    ``exp(E(t)) { q0 + integral_t0^t exp(-E(s)) f(s) ds }`` with
    ``E = A - A(t0)``.  The exponent comes from ``c.integral`` and the
    quaternion-valued integrand gets one antiderivative, both over the
    hull of ``t0`` and ``ts``.
    """
    solver = CommutativeSolver(c, direction, t0)
    exponent = solver.exponent_integral(ts)

    def integrand(s: np.ndarray) -> np.ndarray:
        return mul_arrays(solver.field_exp(-exponent(s)), forcing.sample(s))

    integral = Antiderivative(integrand, t0, ts)
    return mul_arrays(solver.field_exp(exponent(ts)),
                      q0.to_array() + integral(ts))


def field_projection_residual(q: Quaternion, unit: ComplexLikeUnit) -> float:
    """Distance from q to the plane span{1, I} (both unit, orthogonal)."""
    iq = unit.as_quaternion()
    along_one = q.w
    along_i = (q.w * iq.w + q.x * iq.x + q.y * iq.y + q.z * iq.z)
    rem = q - Quaternion(along_one, 0.0, 0.0, 0.0) - along_i * iq
    return norm(rem)
