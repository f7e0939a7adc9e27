"""Commutativity detection, the closed-form unit solution and the variation
of constants that assembles every strategy's solution.

A coefficient a(t) commutes with its antiderivative exactly when the three
imaginary components keep a fixed ratio, i.e. the imaginary part stays on a
fixed line through the origin.  In that case a(t) = a0(t) + g(t) * I for a
fixed unit pure quaternion I, every value lives in the complex-like field
{x + y*I}, and the homogeneous problem has the exponential solution

    q(t) = e^{A0(t)} exp(I * G(t)) * q(0),      G(t) = integral of g,

even when q(0) itself is outside the field (the exponential factor is inside
it, and right-multiplication by q(0) preserves the solution property).

Every strategy's fundamental solution is Y = e^{A0} U with U a unit
quaternion, exp(I G) here and the phase-angle solution otherwise.  The real
gain commutes with everything, so only U depends on the strategy:
:func:`solution` reads one row of the shared integral per time, forms
e^{A0} from it and hands it to the strategy's unit map, and turns Y into
q = Y [q0 + int Y^-1 f] (Kou and Xia 2018, *Stud. Appl. Math.* 141).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .coeffs import CoefficientSet
from .errors import NonFiniteError
from .oracle import output_pass
from .quadrature import Antiderivative
from .quat import (_DETECTION_TOL, Quaternion, _detection_gap, mul_arrays,
                   norm_arrays)

__all__ = [
    "ProportionalityReport",
    "check_proportionality",
    "CommutativeSolver",
    "commutative_solve",
    "solution",
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


def check_proportionality(c: CoefficientSet, t0: float,
                          reach: float | np.ndarray) -> ProportionalityReport:
    """Test collinearity of the imaginary part at the panel nodes of
    ``c.integral(t0, reach)``, which resolve every component of the
    coefficient, so no feature the solve resolves can fall between the
    tested times.

    The span is read as :meth:`CoefficientSet.integral` reads it.  The
    reference direction is the largest-norm sample (never a ratio of small
    components, so 0/0 points cannot poison the test).  A node's defect is
    |a_im x direction|, on the scale max(1, |a_im|) of the components it
    is formed from (``quat._detection_gap``); ``_DETECTION_TOL`` bounds that
    deviation only, never the norm of the samples, which
    ``quat.norm_arrays`` forms without over- or underflow.
    """
    if not np.max(reach) > t0:
        raise ValueError("t_end must exceed t0")
    integral = c.integral(t0, reach)
    vecs = integral.samples[..., 1:].reshape(-1, 3)
    norms = norm_arrays(vecs)
    top = int(np.argmax(norms))
    if norms[top] == 0.0:
        return ProportionalityReport(True, Quaternion(0.0, 0.0, 0.0, 0.0),
                                     0.0, degenerate=True)
    d = vecs[top] / norms[top]
    max_dev = _detection_gap(norm_arrays(np.cross(vecs, d)), norms)
    return ProportionalityReport(max_dev <= _DETECTION_TOL,
                                 Quaternion(0.0, *d.tolist()), max_dev)


class CommutativeSolver:
    """Closed-form unit solution exp(I G) of a proportional coefficient set
    with imaginary part g(t) I, as the unit map of :func:`solution`: G is
    read from the same row of ``c.integral`` as the gain."""

    def __init__(self, direction: Quaternion):
        self._dir = np.array([direction.x, direction.y, direction.z])

    def sample(self, ts: np.ndarray, a: np.ndarray) -> np.ndarray:
        """exp(I G) at the times ``ts``, G = ``a[:, 1:] @ I``, where ``a``
        holds the integral of a(t) from t0 at those times."""
        g = a[:, 1:] @ self._dir
        return np.column_stack([np.cos(g), np.sin(g)[:, None] * self._dir])


def commutative_solve(c: CoefficientSet, q0: Quaternion, t: float,
                      direction: Quaternion, t0: float = 0.0) -> Quaternion:
    """One-shot exponential solution at time ``t``.

    ``direction`` must come from a passing :func:`check_proportionality`
    (the degenerate direction 0 is accepted: the gain term then vanishes
    and the solution reduces to ``e^{A0(t)} q0``).
    """
    unit = CommutativeSolver(direction).sample
    return Quaternion.from_array(
        variation_of_constants(c, unit, q0, np.array([t]), t0)[0])


def variation_of_constants(c: CoefficientSet, unit: Callable,
                           q0: Quaternion, ts, t0: float = 0.0,
                           forcing: Optional[CoefficientSet] = None
                           ) -> np.ndarray:
    """The solution of q' = a q + f, q(t0) = q0, at each time of ``ts``,
    shape ``(len(ts), 4)``; without ``forcing``, of q' = a q.  The rows of
    :func:`solution` are taken block by block by ``oracle.output_pass``,
    so no temporary grows with ``len(ts)``; the first block that overflows
    raises."""
    q = np.empty((len(ts), 4))
    output_pass(ts, solution(c, unit, q0, ts, t0, forcing), qs=q)
    return q


def solution(c: CoefficientSet, unit: Callable, q0: Quaternion, ts,
             t0: float = 0.0, forcing: Optional[CoefficientSet] = None
             ) -> Callable:
    """The solution of q' = a q + f, q(t0) = q0 (q' = a q without
    ``forcing``) on the times ``ts``, as a map from a slice of ``ts`` to
    its rows.  Each row is computed on its own, so a row has the same bits
    in any slice.

    Y = e^{A0} U: at times s in the hull of ``t0`` and ``ts``, the row
    ``a`` of ``c.integral(t0, ts)`` is interpolated once, on all four
    columns.  The gain e^{+-A0} is formed here from column 0, and nowhere
    else, and ``unit(s, a)``, a strategy's unit map, gives U, the unit
    quaternion with U(t0) = 1.  A gain that overflows raises
    :class:`NonFiniteError`, as does a solution whose product with q0 (or
    with the forcing integral) overflows although the gain fits.  The
    forcing's integrand ``e^{-A0} conj(U) f`` gets one antiderivative over
    the hull of ``t0`` and ``ts``, built here.
    """
    exponent = c.integral(t0, ts)

    def fundamental(s: np.ndarray, inverse: bool = False) -> np.ndarray:
        a = exponent(s)
        with np.errstate(over="ignore"):
            gain = np.exp(-a[:, 0] if inverse else a[:, 0])
        if not np.all(np.isfinite(gain)):
            raise NonFiniteError("exp overflow in the scalar part")
        conj = [1.0, -1.0, -1.0, -1.0] if inverse else 1.0
        return unit(s, a) * (gain[:, None] * conj)

    integral = None if forcing is None else Antiderivative(
        lambda s: mul_arrays(fundamental(s, inverse=True),
                             forcing.sample(s)), t0, ts)

    def rows(block: slice) -> np.ndarray:
        s = ts[block]
        y = fundamental(s)
        rhs = q0.to_array()
        if integral is not None:
            rhs = rhs + integral(s)
        with np.errstate(over="ignore", invalid="ignore"):
            q = mul_arrays(y, rhs)
        if not np.all(np.isfinite(q)):
            raise NonFiniteError("the solution overflows a double")
        return q

    return rows
