"""Sampled solutions on a uniform time grid."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quat import Quaternion, norm_arrays

__all__ = ["Trajectory", "grid_intervals", "uniform_grid"]


def grid_intervals(t0: float, t_end: float, step: float) -> float:
    """The number of intervals of ``uniform_grid(t0, t_end, step)``,
    counted without building the grid; ``inf`` if the span overflows."""
    ratio = (t_end - t0) / step
    if math.isinf(ratio):
        return ratio
    n = round(ratio) if abs(ratio - round(ratio)) < 1e-6 else math.ceil(ratio)
    return max(n, 1)


def uniform_grid(t0: float, t_end: float, step: float) -> np.ndarray:
    """Uniform grid from t0 to t_end with nominal spacing ``step``.

    The count is rounded so the grid lands exactly on ``t_end``; when
    ``step`` divides the span (the usual case) the spacing is ``step``.
    """
    if not t_end > t0:
        raise ValueError("t_end must exceed t0")
    if not step > 0.0:
        raise ValueError("step must be positive")
    return np.linspace(t0, t_end, grid_intervals(t0, t_end, step) + 1)


@dataclass
class Trajectory:
    """Quaternion samples ``qs[i]`` at times ``ts[i]`` (scalar-first rows)."""

    ts: np.ndarray  # (n,)
    qs: np.ndarray  # (n, 4)

    def __post_init__(self):
        self.ts = np.asarray(self.ts, dtype=float)
        self.qs = np.asarray(self.qs, dtype=float)
        if self.qs.shape != (self.ts.shape[0], 4):
            raise ValueError("qs must have shape (len(ts), 4)")

    def __len__(self) -> int:
        return self.ts.shape[0]

    @property
    def step(self) -> float:
        return float(self.ts[1] - self.ts[0]) if len(self) > 1 else 0.0

    def norms(self) -> np.ndarray:
        return norm_arrays(self.qs)

    def endpoint(self) -> Quaternion:
        return Quaternion.from_array(self.qs[-1])
