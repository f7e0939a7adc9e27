"""Shared problem definitions and independent oracles for the test suite."""

from __future__ import annotations

import math

import numpy as np

import quatode as qo
from quatode import CoefficientSet, Quaternion
from quatode.quat import mul_arrays

# Three benchmark coefficient sets with known closed-form solutions, one per
# frozen-angle family (imaginary components only; scalar part is zero).
ROTATING_AXES = ("sin(2*t)", "1", "cos(2*t)")      # q = e^{j t} e^{k t}
DRIFTING_JK = ("1", "t*sin(2*t)", "-t*cos(2*t)")   # q = e^{i t} e^{-k t^2/2}
DRIFTING_KJ = ("1", "t*cos(2*t)", "t*sin(2*t)")    # q = e^{i t} e^{j t^2/2}


def rotating_axes_exact(t: float) -> Quaternion:
    return qo.mul(qo.exp_q(Quaternion(0, 0, t, 0)),
                  qo.exp_q(Quaternion(0, 0, 0, t)))


def drifting_jk_exact(t: float) -> Quaternion:
    return qo.mul(qo.exp_q(Quaternion(0, t, 0, 0)),
                  qo.exp_q(Quaternion(0, 0, 0, -0.5 * t * t)))


def drifting_kj_exact(t: float) -> Quaternion:
    return qo.mul(qo.exp_q(Quaternion(0, t, 0, 0)),
                  qo.exp_q(Quaternion(0, 0, 0.5 * t * t, 0)))


def ratio123_closed_form(t: float) -> Quaternion:
    """Hand-expanded solution of q' = (t^2 + t(i+2j+3k)) q, q(0) = i.

    The coefficient's imaginary part keeps the fixed ratio 1:2:3, so the
    solution is e^{t^3/3} e^{I sqrt(14) t^2 / 2} i with
    I = (i+2j+3k)/sqrt(14); multiplying out I*i gives the expansion below.
    """
    s14 = math.sqrt(14.0)
    g = math.exp(t ** 3 / 3.0)
    ph = 0.5 * s14 * t * t
    return Quaternion(
        -g * math.sin(ph) / s14,
        g * math.cos(ph),
        3.0 * g * math.sin(ph) / s14,
        -2.0 * g * math.sin(ph) / s14,
    )


def pure_coeffs(strings) -> CoefficientSet:
    return CoefficientSet.pure(*strings)


def random_pure_coeffs(rng: np.random.Generator) -> CoefficientSet:
    """A smooth bounded pure-imaginary coefficient set (trig family)."""

    def component() -> str:
        c0 = rng.uniform(-0.8, 0.8)
        c1 = rng.uniform(-1.0, 1.0)
        w = rng.uniform(0.3, 2.5)
        ph = rng.uniform(0.0, 2.0 * math.pi)
        return f"{c0!r} + {c1!r}*sin({w!r}*t + {ph!r})"

    return CoefficientSet.pure(component(), component(), component())


def series_exp(q: Quaternion, terms: int = 25) -> Quaternion:
    """Truncated power-series exponential, the independent oracle for exp_q."""
    acc = qo.ONE
    term = qo.ONE
    for n in range(1, terms):
        term = qo.mul(term, q) * (1.0 / n)
        acc = acc + term
    return acc


def sup_deviation(qs_a: np.ndarray, qs_b: np.ndarray) -> float:
    return float(np.max(np.sqrt(np.sum((qs_a - qs_b) ** 2, axis=1))))


def sample_exact(fn, ts) -> np.ndarray:
    return np.stack([fn(t).to_array() for t in ts])


def rk4_stepwise(coeff, q0, dt, forcing=None) -> np.ndarray:
    """Per-step RK4 for q' = a q + f on the half-step grid of stage values,
    the reference for the kernel's prefix-scan form."""
    f = np.zeros_like(coeff) if forcing is None else forcing
    out = [np.asarray(q0, dtype=float)]
    for n in range((len(coeff) - 1) // 2):
        a, b, c = coeff[2 * n:2 * n + 3]
        fa, fb, fc = f[2 * n:2 * n + 3]
        q = out[-1]
        k1 = mul_arrays(a, q) + fa
        k2 = mul_arrays(b, q + 0.5 * dt * k1) + fb
        k3 = mul_arrays(b, q + 0.5 * dt * k2) + fb
        k4 = mul_arrays(c, q + dt * k3) + fc
        out.append(q + dt / 6.0 * (k1 + 2.0 * (k2 + k3) + k4))
    return np.array(out)
