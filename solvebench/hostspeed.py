"""A fixed reference computation that tracks the speed of the host.

On a shared machine the same pass can take 30% longer for minutes at a
time.  Timing this fixed mix of work between solves, in the same process,
measures that drift, so pass times can be referred to a nominal host speed.
It mirrors the solver's three kinds of work: interpreted float code
(recursive Simpson quadrature), numpy array arithmetic and number
formatting.  It shares no code with quatode, so no change to the program
can change its time.
"""

from __future__ import annotations

import math
import time

import numpy as np

_X = np.linspace(0.0, 1.0, 2049)


def _simpson(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
        return left + right
    return (_simpson(f, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1)
            + _simpson(f, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1))


def _integrand(s: float) -> float:
    return math.sin(3.0 * s) * math.exp(-s)


def sample() -> float:
    """Wall seconds of one run of the fixed mix (a few ms)."""
    start = time.perf_counter()
    f = _integrand
    for b in (1.0, 2.0):
        _simpson(f, 0.0, b, f(0.0), f(0.5 * b), f(b), 0.0, 1e-13, 30)
    y = _X
    for k in range(12):
        y = np.cumsum(np.sin(_X * k) * np.tan(0.3 * _X) + np.cos(y)) / 2049.0
    ",".join(format(v, ".17g") for v in y[:600])
    return time.perf_counter() - start
