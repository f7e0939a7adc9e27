"""Seeded problem generators for the solve benchmark.

Every problem carries the expression strings the program reads from its
``.prob`` file and, beside them, numpy callables for the same coefficient
and forcing.  The references are built from those callables and from each
family's exact solution; nothing here imports quatode, so a reference never
shares code with the solver it checks.

The aliasing case ``a = i + sin(256 pi t) j`` is deliberately absent: its
correct answer costs more than the wrong one ``auto`` gives at the seed, so a
fix would read as a slowdown here.  Regression tests cover it instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

WORKLOADS = ("closed_forms", "picard_long", "forced_coarse")

Fn = Callable[[np.ndarray], np.ndarray]


@dataclass
class Problem:
    """One initial value problem q' = a(t) q + f(t), q(0) = q0, on [0, t_end].

    ``coeff`` and ``forcing`` map a time array of shape ``(n,)`` to the
    ``(n, 4)`` component values; ``exact`` (closed-form families only) maps
    it to the ``(n, 4)`` solution.  Problems without ``exact`` are checked
    against a high-accuracy ODE integration made at set-up.  ``tol`` is the
    largest sup-norm deviation accepted, at least 30 times the error the
    solver reaches on that family.
    """

    name: str
    a: tuple[str, str, str, str]
    coeff: Fn
    t_end: float
    step: float
    q0: tuple[float, float, float, float]
    f: Optional[tuple[str, str, str, str]] = None
    forcing: Optional[Fn] = None
    exact: Optional[Fn] = None
    tol: float = 1e-9

    def prob_text(self) -> str:
        lines = [f"a{k} = {s}" for k, s in enumerate(self.a)]
        if self.f is not None:
            lines += [f"f{k} = {s}" for k, s in enumerate(self.f)]
        lines += ["t0 = 0", f"t_end = {self.t_end!r}", f"step = {self.step!r}",
                  "q0 = " + " ".join(repr(v) for v in self.q0)]
        return "\n".join(lines) + "\n"

    def grid(self) -> np.ndarray:
        n = int(round(self.t_end / self.step))
        return np.linspace(0.0, self.t_end, n + 1)


# -- quaternion arithmetic on (n, 4) arrays, scalar first -----------------

def qmul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    pw, px, py, pz = np.moveaxis(p, -1, 0)
    qw, qx, qy, qz = np.moveaxis(q, -1, 0)
    return np.stack([
        pw * qw - px * qx - py * qy - pz * qz,
        pw * qx + px * qw + py * qz - pz * qy,
        pw * qy - px * qz + py * qw + pz * qx,
        pw * qz + px * qy - py * qx + pz * qw,
    ], axis=-1)


def axis_exp(axis, angle: np.ndarray) -> np.ndarray:
    """exp(angle * u) for a unit pure axis u = (ux, uy, uz)."""
    s = np.sin(angle)
    return np.stack([np.cos(angle), axis[0] * s, axis[1] * s, axis[2] * s],
                    axis=-1)


_I, _J, _K = (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)


def _num(x: float) -> str:
    """Parenthesized literal that the problem parser reads back exactly."""
    return f"({x!r})"


def _rounded(rng: np.random.Generator, lo: float, hi: float) -> float:
    return round(float(rng.uniform(lo, hi)), 6)


def _unit(rng: np.random.Generator, size: int) -> tuple[float, ...]:
    v = rng.normal(size=size)
    v /= np.linalg.norm(v)
    return tuple(round(float(x), 6) for x in v)


def _stack(*cols: Fn) -> Fn:
    return lambda ts: np.stack([c(ts) for c in cols], axis=-1)


def _zero(ts):
    return np.zeros_like(ts)


# -- closed-form families ---------------------------------------------------

def commutative(name: str, alpha: float, u: tuple[float, float, float],
                q0, t_end: float) -> Problem:
    """a = alpha t^2 + t u (u any pure vector): the fixed-ratio family.

    With g = |u| t and unit axis n = u/|u|, the solution is
    exp(alpha t^3/3) exp(n |u| t^2/2) q0.
    """
    un = float(np.linalg.norm(u))
    axis = tuple(c / un for c in u)
    a0 = f"{_num(alpha)}*t^2"
    a = (a0,) + tuple(f"{_num(c)}*t" for c in u)

    def coeff(ts):
        return np.stack([alpha * ts * ts] + [c * ts for c in u], axis=-1)

    def exact(ts):
        gain = np.exp(alpha * ts ** 3 / 3.0)
        return gain[:, None] * qmul(axis_exp(axis, 0.5 * un * ts * ts), q0)

    return Problem(name, a, coeff, t_end, 1e-3, q0, exact=exact)


def _scalar_part(alpha: float, beta: float):
    """a0 = alpha cos(beta t) and its antiderivative (a0 = 0 for alpha = 0)."""
    if alpha == 0.0:
        return "0", _zero, _zero
    return (f"{_num(alpha)}*cos({_num(beta)}*t)",
            lambda ts: alpha * np.cos(beta * ts),
            lambda ts: alpha / beta * np.sin(beta * ts))


def case_one(name: str, r: float, c: float, q0, t_end: float,
             alpha: float = 0.0, beta: float = 1.0) -> Problem:
    """a = (r sin 2ct, c, r cos 2ct): q = e^{A0} e^{j c t} e^{k r t} q0."""
    a0, a0_fn, a0_int = _scalar_part(alpha, beta)
    a = (a0, f"{_num(r)}*sin({_num(2 * c)}*t)", _num(c),
         f"{_num(r)}*cos({_num(2 * c)}*t)")
    coeff = _stack(a0_fn, lambda ts: r * np.sin(2 * c * ts),
                   lambda ts: np.full_like(ts, c),
                   lambda ts: r * np.cos(2 * c * ts))

    def exact(ts):
        unit = qmul(axis_exp(_J, c * ts), axis_exp(_K, r * ts))
        return np.exp(a0_int(ts))[:, None] * qmul(unit, q0)

    return Problem(name, a, coeff, t_end, 1e-3, q0, exact=exact)


def case_two(name: str, r: float, c: float, q0, t_end: float,
             alpha: float = 0.0, beta: float = 1.0) -> Problem:
    """a = (c, r t sin 2ct, -r t cos 2ct).

    q = e^{A0} e^{i c t} e^{-k r t^2/2} q0.
    """
    a0, a0_fn, a0_int = _scalar_part(alpha, beta)
    a = (a0, _num(c), f"{_num(r)}*t*sin({_num(2 * c)}*t)",
         f"{_num(-r)}*t*cos({_num(2 * c)}*t)")
    coeff = _stack(a0_fn, lambda ts: np.full_like(ts, c),
                   lambda ts: r * ts * np.sin(2 * c * ts),
                   lambda ts: -r * ts * np.cos(2 * c * ts))

    def exact(ts):
        unit = qmul(axis_exp(_I, c * ts), axis_exp(_K, -0.5 * r * ts * ts))
        return np.exp(a0_int(ts))[:, None] * qmul(unit, q0)

    return Problem(name, a, coeff, t_end, 1e-3, q0, exact=exact)


def case_three(name: str, r: float, c: float, q0, t_end: float,
               alpha: float = 0.0, beta: float = 1.0) -> Problem:
    """a = (c, r t cos 2ct, r t sin 2ct).

    q = e^{A0} e^{i c t} e^{j r t^2/2} q0.
    """
    a0, a0_fn, a0_int = _scalar_part(alpha, beta)
    a = (a0, _num(c), f"{_num(r)}*t*cos({_num(2 * c)}*t)",
         f"{_num(r)}*t*sin({_num(2 * c)}*t)")
    coeff = _stack(a0_fn, lambda ts: np.full_like(ts, c),
                   lambda ts: r * ts * np.cos(2 * c * ts),
                   lambda ts: r * ts * np.sin(2 * c * ts))

    def exact(ts):
        unit = qmul(axis_exp(_I, c * ts), axis_exp(_J, 0.5 * r * ts * ts))
        return np.exp(a0_int(ts))[:, None] * qmul(unit, q0)

    return Problem(name, a, coeff, t_end, 1e-3, q0, exact=exact)


ONE = (1.0, 0.0, 0.0, 0.0)


def shipped() -> list[Problem]:
    """The four problems of ``problems/*.prob``, in their families."""
    return [
        commutative("proportional", 1.0, (1.0, 2.0, 3.0),
                    (0.0, 1.0, 0.0, 0.0), 1.0),
        case_one("rotating_axes", 1.0, 1.0, ONE, 3.0),
        case_two("drifting_jk", 1.0, 1.0, ONE, 2.0),
        case_three("drifting_kj", 1.0, 1.0, ONE, 2.0),
    ]


def closed_forms(rng: np.random.Generator) -> list[Problem]:
    """Shipped problems plus two seeded members of each family."""
    out = shipped()
    for n in range(2):
        out.append(commutative(
            f"commutative_{n}", _rounded(rng, 0.35, 0.45), _unit(rng, 3),
            _unit(rng, 4), 1.5))
        for family, label in ((case_one, "case_I"), (case_two, "case_II"),
                              (case_three, "case_III")):
            out.append(family(
                f"{label}_{n}", _rounded(rng, 0.95, 1.05),
                _rounded(rng, 0.95, 1.05), _unit(rng, 4), 2.0,
                alpha=_rounded(rng, 0.18, 0.22), beta=_rounded(rng, 0.9, 1.1)))
    return out


# -- generic and forced problems (reference: high-accuracy integration) -------

def _trig(rng: np.random.Generator, amp, freq, offset):
    """offset + amp sin(freq t + phase), each drawn from its seeded range."""
    A = _rounded(rng, *amp)
    w = _rounded(rng, *freq)
    p = _rounded(rng, 0.0, 2 * np.pi)
    b = _rounded(rng, *offset)
    text = f"{_num(b)} + {_num(A)}*sin({_num(w)}*t + {_num(p)})"
    return text, (lambda ts: b + A * np.sin(w * ts + p))


def picard_long(rng: np.random.Generator) -> list[Problem]:
    """Generic trig coefficients with a scalar part, on [0, 30].

    The four components have independent seeded frequencies and phases, so
    the imaginary part keeps no fixed ratio and fits none of the
    frozen-angle families: ``auto`` falls through to Picard.
    """
    comps = [_trig(rng, (0.24, 0.26), (0.55, 0.65), (-0.01, 0.01))]
    # distinct frequencies sweep the components' relative phase over the
    # horizon, so the Picard window count depends little on the seed
    comps += [_trig(rng, (0.68, 0.72), (w, w + 0.05), (0.28, 0.32))
              for w in (0.95, 1.35, 1.75)]
    a = tuple(text for text, _ in comps)
    coeff = _stack(*(fn for _, fn in comps))
    return [Problem("generic_0", a, coeff, 30.0, 1e-3, _unit(rng, 4),
                    tol=1e-7)]


def forced_coarse(rng: np.random.Generator) -> list[Problem]:
    """a = c t u on a fixed unit axis u, trig forcing f, on [0, 3] at step 0.1.

    Rate, forcing amplitude and frequency barely vary with the seed: the
    solver's node doubling makes its work jump with them.
    """
    out = []
    for n in range(3):
        c = _rounded(rng, 0.98, 1.02)
        u = _unit(rng, 3)
        a = ("0",) + tuple(f"{_num(c * x)}*t" for x in u)
        comps = [_trig(rng, (0.75, 0.75), (1.0, 1.0), (-0.3, 0.3))
                 for _ in range(4)]
        f = tuple(text for text, _ in comps)
        coeff = _stack(_zero, *(lambda ts, cx=c * x: cx * ts for x in u))
        out.append(Problem(f"forced_{n}", a, coeff, 3.0, 0.1, _unit(rng, 4),
                           f=f, forcing=_stack(*(fn for _, fn in comps)),
                           tol=1e-8))
    return out


def generate(workload: str, seed: int) -> list[Problem]:
    """The problems of ``workload``; the same seed gives the same problems."""
    make = {"closed_forms": closed_forms, "picard_long": picard_long,
            "forced_coarse": forced_coarse}[workload]
    return make(np.random.default_rng([seed, WORKLOADS.index(workload)]))
