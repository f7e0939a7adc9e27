"""Exact quaternion arithmetic.

Quaternions are stored scalar-first, ``q = w + x*i + y*j + z*k``, with the
usual Hamilton rules ``i^2 = j^2 = k^2 = ijk = -1``.  Every operation either
returns a quaternion with finite components or raises
:class:`~quatode.errors.NonFiniteError`; NaN and infinity never propagate
silently.

:class:`Quaternion` is the one scalar value type; a pure quaternion, such as
the fixed direction I of a commutative coefficient, is one with ``w = 0``.
Besides it there are a few vectorized helpers (``mul_arrays``,
``norm_arrays``) operating on ``(..., 4)`` float arrays; the solvers use
those on whole trajectories, and scalar :func:`mul` and :func:`norm` are
each the helper on one row.

The Hamilton product is written out once, in ``_hamilton``, on complex
pairs: the Cayley-Dickson split ``q = (w + x i) + (y + z i) j`` is the
memory of a row-major ``(..., 4)`` array viewed as ``(..., 2)`` complex128,
and ``p q = (p1 q1 - p2 conj(q2)) + (p1 q2 + p2 conj(q1)) j`` takes four
complex multiplies.  :func:`mul_arrays` and the RK4 kernel call it on
such views, and scalar :func:`mul` goes through :func:`mul_arrays` on one
row: numpy's complex loop fuses a multiply and a subtract (FMA) where
Python's ``complex`` rounds both, so only the one path gives ``mul`` and
``mul_arrays`` the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError

__all__ = [
    "Quaternion",
    "ONE",
    "I",
    "J",
    "K",
    "mul",
    "norm",
    "exp_q",
    "mul_arrays",
    "norm_arrays",
]


def _require_finite(*values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise NonFiniteError("operation produced a non-finite component")


@dataclass(frozen=True, slots=True)
class Quaternion:
    """Immutable quaternion ``w + x*i + y*j + z*k`` with finite components."""

    w: float
    x: float
    y: float
    z: float

    def __post_init__(self):
        _require_finite(self.w, self.x, self.y, self.z)

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


ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
I = Quaternion(0.0, 1.0, 0.0, 0.0)
J = Quaternion(0.0, 0.0, 1.0, 0.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


def _hamilton(p, q):
    """Hamilton product ``p * q`` of complex-pair arrays, ``(..., 2)``
    complex128 and broadcast-compatible: ``(p1 q1 - p2 conj(q2),
    p1 q2 + p2 conj(q1))``.  Every multiply runs in numpy's array loop, so
    a row's bits do not depend on its neighbours, offset or stride."""
    p1, p2, q1, q2 = p[..., 0], p[..., 1], q[..., 0], q[..., 1]
    out = np.empty(np.broadcast(p, q).shape, dtype=complex)
    first, second = out[..., 0], out[..., 1]
    np.multiply(p1, q1, out=first)
    first -= p2 * q2.conj()
    np.multiply(p1, q2, out=second)
    second += p2 * q1.conj()
    return out


def mul(p: Quaternion, q: Quaternion) -> Quaternion:
    """Hamilton product ``p * q``, bit for bit the row of
    :func:`mul_arrays`."""
    with np.errstate(over="ignore", invalid="ignore"):
        return Quaternion.from_array(mul_arrays(p.to_array(), q.to_array()))


def norm(q: Quaternion) -> float:
    """Euclidean norm ``sqrt(w^2 + x^2 + y^2 + z^2)``, bit for bit the row
    of :func:`norm_arrays`."""
    return float(norm_arrays(q.to_array()))


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


# The one threshold of the commutation tests in both detectors (commutative
# and decisive): the properties they test are exact, so it only absorbs
# rounding.
_DETECTION_TOL = 1e-9


def mul_arrays(p, q) -> np.ndarray:
    """Hamilton product of quaternion arrays.

    ``p`` and ``q`` are broadcast-compatible arrays with last axis 4
    (scalar-first).  Each is made C-contiguous (a copy only if it is not)
    and viewed as ``(..., 2)`` complex pairs for :func:`_hamilton`; the
    product comes back as a ``(..., 4)`` float view in the same row order.
    """
    return _hamilton(_pairs(p), _pairs(q)).view(float)


def _pairs(q) -> np.ndarray:
    """A ``(..., 4)`` quaternion array as ``(..., 2)`` complex pairs
    ``(w + x i, y + z i)``: the C-contiguous float array, viewed."""
    return np.ascontiguousarray(q, dtype=float).view(complex)


def norm_arrays(q, out=None) -> np.ndarray:
    """Euclidean norms along the last (component) axis, into ``out`` if it
    is given.  The squares are summed left to right, the order in which
    ``np.sum`` adds four terms, at half its cost.  A row whose plain
    ``sqrt(sum(q*q))`` may have over- or underflowed, outside [1e-150,
    1e150], is rescaled by its largest |component|, so a norm is zero
    exactly when all components are; every other row keeps the plain
    result's bits."""
    q = np.asarray(q, dtype=float)
    if out is None:
        out = np.empty(q.shape[:-1])
    w, x, y, z = (q[..., i] for i in range(4))
    with np.errstate(over="ignore"):
        np.multiply(w, w, out=out)
        out += x * x
        out += y * y
        out += z * z
        np.sqrt(out, out=out)
        far = (out > 1e150) | (out < 1e-150)
        if far.any():
            rows = q[far]
            scale = np.max(np.abs(rows), axis=-1, keepdims=True)
            scale[(scale == 0.0) | np.isinf(scale)] = 1.0
            out[far] = np.sqrt(np.sum((rows / scale) ** 2, -1)) * scale[:, 0]
    return out
