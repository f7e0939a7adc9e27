"""Exact quaternion arithmetic.

Quaternions are stored scalar-first, ``q = w + x*i + y*j + z*k``, with the
usual Hamilton rules ``i^2 = j^2 = k^2 = ijk = -1``.  Every operation either
returns a quaternion with finite components or raises
:class:`~quatode.errors.NonFiniteError`; NaN and infinity never propagate
silently.

Besides the scalar :class:`Quaternion` value type there are a few vectorized
helpers (``mul_arrays``, ``norm_arrays``) operating on ``(..., 4)`` float
arrays; the solvers use those on whole trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivisionByZeroError, NonFiniteError

__all__ = [
    "Quaternion",
    "PureVec",
    "ONE",
    "I",
    "J",
    "K",
    "mul",
    "conj",
    "norm",
    "inverse",
    "exp_q",
    "commutes",
    "mul_arrays",
    "norm_arrays",
]


def _require_finite(*values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise NonFiniteError("operation produced a non-finite component")


@dataclass(frozen=True, slots=True)
class PureVec:
    """Imaginary part of a quaternion viewed as a 3-vector."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        _require_finite(self.x, self.y, self.z)

    def cross(self, other: "PureVec") -> "PureVec":
        return PureVec(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )

    def norm(self) -> float:
        # hypot keeps tiny/huge components from under- or overflowing the
        # squared sum, preserving norm(v) = 0 iff v = 0
        return math.hypot(self.x, self.y, self.z)

    def scaled(self, s: float) -> "PureVec":
        return PureVec(s * self.x, s * self.y, s * self.z)

    def normalized(self) -> "PureVec":
        n = self.norm()
        if n == 0.0:
            raise DivisionByZeroError("cannot normalize the zero vector")
        return self.scaled(1.0 / n)

    def as_quaternion(self) -> "Quaternion":
        return Quaternion(0.0, self.x, self.y, self.z)


@dataclass(frozen=True, slots=True)
class Quaternion:
    """Immutable quaternion ``w + x*i + y*j + z*k`` with finite components."""

    w: float
    x: float
    y: float
    z: float

    def __post_init__(self):
        _require_finite(self.w, self.x, self.y, self.z)

    @property
    def vec(self) -> PureVec:
        """Imaginary part as a 3-vector."""
        return PureVec(self.x, self.y, self.z)

    def to_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z], dtype=float)

    @classmethod
    def from_array(cls, a) -> "Quaternion":
        w, x, y, z = (float(v) for v in a)
        return cls(w, x, y, z)

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            return mul(self, other)
        if isinstance(other, (int, float)):
            return Quaternion(self.w * other, self.x * other,
                              self.y * other, self.z * other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            # real scalars commute with everything
            return self.__mul__(other)
        return NotImplemented


ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
I = Quaternion(0.0, 1.0, 0.0, 0.0)
J = Quaternion(0.0, 0.0, 1.0, 0.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


def mul(p: Quaternion, q: Quaternion) -> Quaternion:
    """Hamilton product ``p * q``.

    Componentwise this is the scalar/vector split
    ``(p0*q0 - pv.qv) + p0*qv + q0*pv + pv x qv``.
    """
    return Quaternion(
        p.w * q.w - p.x * q.x - p.y * q.y - p.z * q.z,
        p.w * q.x + p.x * q.w + p.y * q.z - p.z * q.y,
        p.w * q.y - p.x * q.z + p.y * q.w + p.z * q.x,
        p.w * q.z + p.x * q.y - p.y * q.x + p.z * q.w,
    )


def conj(q: Quaternion) -> Quaternion:
    """Conjugate: negate the imaginary part."""
    return Quaternion(q.w, -q.x, -q.y, -q.z)


def norm(q: Quaternion) -> float:
    """Euclidean norm ``sqrt(w^2 + x^2 + y^2 + z^2)``.

    Computed with ``hypot`` so the squared sum cannot under- or overflow:
    the norm is zero exactly when all components are.
    """
    return math.hypot(q.w, q.x, q.y, q.z)


def inverse(q: Quaternion) -> Quaternion:
    """Multiplicative inverse ``conj(q) / |q|^2``.

    Dividing by the norm twice (instead of by the squared norm once) keeps
    the inverse of very small or very large quaternions representable.

    Raises
    ------
    DivisionByZeroError
        If ``q`` is the zero quaternion.
    """
    n = norm(q)
    if n == 0.0:
        raise DivisionByZeroError("zero quaternion has no inverse")
    return Quaternion(q.w / n / n, -q.x / n / n, -q.y / n / n, -q.z / n / n)


def exp_q(q: Quaternion) -> Quaternion:
    """Quaternion exponential in closed form.

    ``exp(w + v) = e^w (cos|v| + (v/|v|) sin|v|)`` where ``v`` is the
    imaginary part; for ``|v| = 0`` the result is the real ``e^w``.  The
    closed form stays accurate for large ``|v|`` where a truncated power
    series would not.
    """
    try:
        ew = math.exp(q.w)
    except OverflowError:
        raise NonFiniteError("exp overflow in the scalar part") from None
    r = math.hypot(q.x, q.y, q.z)
    if r == 0.0:
        return Quaternion(ew, 0.0, 0.0, 0.0)
    s = ew * math.sin(r) / r
    return Quaternion(ew * math.cos(r), s * q.x, s * q.y, s * q.z)


# The one threshold of the commutation tests, here and in both detectors
# (commutative and decisive): the properties they test are exact, so it
# only absorbs rounding.
_DETECTION_TOL = 1e-9


def commutes(p: Quaternion, q: Quaternion) -> bool:
    """Do ``p`` and ``q`` commute?

    True iff the cross product of the imaginary parts vanishes within
    ``_DETECTION_TOL`` relative to their sizes:
    ``|pv x qv| <= _DETECTION_TOL * max(1, |pv| * |qv|)``.  The scaling
    keeps the test insensitive to the overall magnitude of the inputs.
    """
    pv, qv = p.vec, q.vec
    scale = max(1.0, pv.norm() * qv.norm())
    return pv.cross(qv).norm() <= _DETECTION_TOL * scale


def mul_arrays(p, q) -> np.ndarray:
    """Hamilton product of quaternion arrays.

    ``p`` and ``q`` are broadcast-compatible arrays with last axis 4
    (scalar-first).  Returns the componentwise Hamilton product; used for
    whole-trajectory products where scalar :func:`mul` would be too slow.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    pw, px, py, pz = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    qw, qx, qy, qz = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    return np.stack(
        [
            pw * qw - px * qx - py * qy - pz * qz,
            pw * qx + px * qw + py * qz - pz * qy,
            pw * qy - px * qz + py * qw + pz * qx,
            pw * qz + px * qy - py * qx + pz * qw,
        ],
        axis=-1,
    )


def norm_arrays(q) -> np.ndarray:
    """Euclidean norms along the last (component) axis."""
    q = np.asarray(q, dtype=float)
    return np.sqrt(np.sum(q * q, axis=-1))
