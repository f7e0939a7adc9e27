"""Coefficient sets: the four scalar functions a0(t)..a3(t) of a quaternion
linear ODE, tabulated on grids by :meth:`CoefficientSet.sample`, the one way
the program reads a(t), with numeric antiderivatives ``A_l(t) = integral
from t0 (by default 0) to t of a_l``."""

from __future__ import annotations

import numpy as np

from . import expr as ex
from .quadrature import Antiderivative
from .quat import Quaternion

__all__ = ["CoefficientSet"]


class CoefficientSet:
    """Four time-dependent scalar coefficients given as parsed expressions.

    The expressions are fixed and read only through :meth:`sample`, whose
    ``components`` picks the columns: all four for the oracle and the
    quadrature, a1..a3 for the Picard windows, one numerator for a
    frozen-angle integrand.  The antiderivatives come from
    :meth:`integral`, which keeps the last one it built, so detection and
    the solve of one problem share a single quadrature of all four
    components.
    """

    def __init__(self, a0: ex.Expr, a1: ex.Expr, a2: ex.Expr, a3: ex.Expr):
        self.exprs = (a0, a1, a2, a3)
        self._last: tuple = (None, None)

    @classmethod
    def from_strings(cls, a0: str, a1: str, a2: str,
                     a3: str) -> "CoefficientSet":
        return cls(*(ex.parse(s) for s in (a0, a1, a2, a3)))

    @classmethod
    def pure(cls, a1: str, a2: str, a3: str) -> "CoefficientSet":
        """Coefficient set with zero scalar part."""
        return cls.from_strings("0", a1, a2, a3)

    # -- pointwise evaluation -------------------------------------------

    def quaternion_at(self, t: float) -> Quaternion:
        """a(t) as a quaternion."""
        return Quaternion.from_array(self.sample(np.array([t]))[0])

    def sample(self, ts: np.ndarray, components=range(4)) -> np.ndarray:
        """The ``components`` (indices into a0..a3) on a grid, as a
        row-major table of shape ``ts.shape + (len(components),)``, filled
        one column at a time by ``expr.eval_array``."""
        ts = np.asarray(ts, dtype=float)
        table = np.empty(ts.shape + (len(components),))
        for col, ell in enumerate(components):
            table[..., col] = ex.eval_array(self.exprs[ell], ts)
        return table

    # -- antiderivatives -------------------------------------------------

    def integral(self, t0: float, reach: float | np.ndarray
                 ) -> Antiderivative:
        """``Antiderivative(self.sample, t0, reach)``: the integral of all
        four components from ``t0``, resolved over the hull of ``t0`` and
        ``reach``.  The last one built is returned again for the same
        ``t0``, hull and number of times, which is all it depends on."""
        reach = np.asarray(reach, dtype=float)
        key = (float(t0), float(reach.min()), float(reach.max()), reach.size)
        if self._last[0] != key:
            self._last = (key, Antiderivative(self.sample, t0, reach))
        return self._last[1]

    def antiderivative(self, ell: int, t: float) -> float:
        """A_ell(t), the integral of a_ell from 0 to t (A_ell(0) = 0)."""
        return float(self.antiderivative_array(ell, np.array([t]))[0])

    def antiderivative_array(self, ell: int, ts: np.ndarray) -> np.ndarray:
        """A_ell at each time of ``ts``, from :meth:`integral` over the hull
        of 0 and ``ts``."""
        return self.integral(0.0, ts).project(np.eye(4)[ell])(ts)

    def antiderivative_quaternion(self, t: float) -> Quaternion:
        """A(t) = A0(t) + A1(t) i + A2(t) j + A3(t) k."""
        return Quaternion.from_array(self.integral(0.0, t)(t))
