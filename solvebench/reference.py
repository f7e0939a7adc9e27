"""Compute the reference trajectories of one workload and save them as .npz.

Usage:  python3 solvebench/reference.py --workload NAME --seed N --out FILE

Closed-form problems use their family's exact solution; the others are
integrated as the 4-D real system q' = M(t) q + f(t) with scipy's DOP853 at
rtol 1e-12.  Run as its own process so that scipy's import time and memory
stay out of the benchmark process that times the solver.
"""

from __future__ import annotations

import argparse

import numpy as np
from scipy.integrate import solve_ivp

from workloads import Problem, generate, qmul


def integrate(p: Problem, ts: np.ndarray) -> np.ndarray:
    def rhs(t, q):
        tt = np.array([t])
        dq = qmul(p.coeff(tt)[0], q)
        if p.forcing is not None:
            dq = dq + p.forcing(tt)[0]
        return dq

    sol = solve_ivp(rhs, (0.0, p.t_end), np.array(p.q0, dtype=float),
                    method="DOP853", t_eval=ts, rtol=1e-12, atol=1e-14)
    if not sol.success:
        raise RuntimeError(f"{p.name}: reference integration failed: "
                           f"{sol.message}")
    return sol.y.T


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    refs = {}
    for p in generate(args.workload, args.seed):
        ts = p.grid()
        refs[p.name] = p.exact(ts) if p.exact is not None else integrate(p, ts)
    np.savez(args.out, **refs)


if __name__ == "__main__":
    main()
