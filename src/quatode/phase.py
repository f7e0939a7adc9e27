"""Phase-angle representation of unit quaternions.

Every unit quaternion factors as ``q = e^{i*th1} e^{j*th2} e^{k*th3}`` with
``th1 in (-pi, pi]``, ``th2 in [-pi/4, pi/4]`` and ``th3 in (-pi/2, pi/2]``.
The factorization is unique except on the band ``th2 = +-pi/4``, where only
``th1 +- th3`` is determined; there we follow the usual engineering
convention and set ``th3 = 0``.

``decompose`` treats ``|sin(2*th2)| >= 1 - SINGULAR_EPS`` as singular
(``SINGULAR_EPS = 1e-9``): the arcsin recovering ``th2`` has unbounded
derivative at the band edge, so snapping to the corner keeps ``th1`` and
``th3`` well conditioned there.

Only this i-j-k factor ordering is implemented.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BothZeroError, NotUnitError
from .quat import Quaternion, norm

__all__ = [
    "PhaseTriple",
    "atan2x",
    "wrap_angle",
    "compose",
    "compose_arrays",
    "decompose",
    "SINGULAR_EPS",
]

SINGULAR_EPS = 1e-9

_QUARTER_PI = 0.25 * math.pi


@dataclass(frozen=True, slots=True)
class PhaseTriple:
    """The three phase angles (radians); canonical ranges as in the module
    docstring, though :func:`compose` accepts any values."""

    theta1: float
    theta2: float
    theta3: float


def atan2x(b: float, a: float) -> float:
    """Quadrant-aware arctangent of b/a, piecewise by the sign of ``a``.

    arctan(b/a) for a > 0; +-pi/2 (sign of b) for a = 0;
    arctan(b/a) - pi for a < 0, b < 0; arctan(b/a) + pi for a < 0, b >= 0.
    Raises :class:`BothZeroError` when both arguments vanish.
    """
    if a == 0.0 and b == 0.0:
        raise BothZeroError("atan2x(0, 0) is undefined")
    if a > 0.0:
        return math.atan(b / a)
    if a == 0.0:
        return math.copysign(0.5 * math.pi, b)
    if b < 0.0:
        return math.atan(b / a) - math.pi
    return math.atan(b / a) + math.pi


def wrap_angle(x: float) -> float:
    """Reduce an angle into (-pi, pi] by adding or subtracting 2*pi."""
    r = math.remainder(x, 2.0 * math.pi)  # lands in [-pi, pi]
    if r == -math.pi:
        r = math.pi
    return r


def compose(p: PhaseTriple) -> Quaternion:
    """The product e^{i*th1} e^{j*th2} e^{k*th3}, for any angle values:
    :func:`compose_arrays` on one row, so bit for bit its row.  It differs
    from the product of the three axis exponentials by at most a few ulps.
    """
    return Quaternion.from_array(
        compose_arrays([p.theta1], [p.theta2], [p.theta3])[0])


def compose_arrays(th1, th2, th3) -> np.ndarray:
    """e^{i*th1} e^{j*th2} e^{k*th3} for angle arrays, expanded in closed
    form; returns ``(n, 4)``:
    ``(c1c2c3 - s1s2s3, s1c2c3 + c1s2s3, c1s2c3 - s1c2s3, s1s2c3 + c1c2s3)``.
    """
    c1, s1 = np.cos(th1), np.sin(th1)
    c2, s2 = np.cos(th2), np.sin(th2)
    c3, s3 = np.cos(th3), np.sin(th3)
    return np.stack(
        [
            c1 * c2 * c3 - s1 * s2 * s3,
            s1 * c2 * c3 + c1 * s2 * s3,
            c1 * s2 * c3 - s1 * c2 * s3,
            s1 * s2 * c3 + c1 * c2 * s3,
        ],
        axis=-1,
    )


def decompose(q: Quaternion) -> PhaseTriple:
    """Recover the phase triple of a unit quaternion.

    Raises :class:`NotUnitError` unless ``| |q| - 1 | <= 1e-9``.  Inside the
    singular band the triple is returned with ``theta2 = +-pi/4`` and
    ``theta3 = 0``.  The result always recomposes to ``+q`` (never ``-q``);
    when the raw angle formulas land on the opposite sign, ``theta1`` is
    shifted by pi.
    """
    if abs(norm(q) - 1.0) > 1e-9:
        raise NotUnitError(f"quaternion has norm {norm(q)!r}, expected 1")
    s = 2.0 * (q.w * q.y + q.x * q.z)  # equals sin(2*theta2)
    s = max(-1.0, min(1.0, s))
    if abs(s) < 1.0 - SINGULAR_EPS:
        th2 = 0.5 * math.asin(s)
        th3 = 0.5 * atan2x(2.0 * (q.w * q.z - q.x * q.y),
                           q.w * q.w + q.x * q.x - q.y * q.y - q.z * q.z)
        if th3 <= -0.5 * math.pi:
            # rounding can land exactly on the excluded -pi/2 endpoint;
            # adding pi stays within the product (the theta1 formula below
            # subtracts th3, so theta1 co-rotates by pi mod 2pi)
            th3 += math.pi
    else:
        th2 = math.copysign(_QUARTER_PI, s)
        th3 = 0.0
    if th2 > -_QUARTER_PI:
        th1 = wrap_angle(
            atan2x(q.w + q.x + q.y + q.z, q.w - q.x + q.y - q.z)
            - _QUARTER_PI - th3)
    else:  # the singular band at theta2 = -pi/4
        th1 = wrap_angle(
            atan2x(q.w + q.x - q.y - q.z, q.w - q.x - q.y + q.z)
            - _QUARTER_PI)
    triple = PhaseTriple(th1, th2, th3)
    r = compose(triple)
    if norm(r - q) > norm(r + q):  # raw formulas produced -q
        triple = PhaseTriple(wrap_angle(th1 + math.pi), th2, th3)
    return triple
