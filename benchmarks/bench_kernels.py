#!/usr/bin/env python3
"""Time the numba RK4 kernel against its pure-numpy fallback.

Runs RK4 on a workload sized like a real solve (step 1e-3 over [0, 3]) and
prints a small table.  The numba row is skipped when numba is unavailable
or disabled via QUATODE_NUMBA=0.  The Picard sweep has no compiled twin.

Usage:  python benchmarks/bench_kernels.py [--repeat N]
"""

import argparse
import time

import numpy as np

from quatode import _kernels


def best_of(fn, repeat):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeat", type=int, default=7)
    args = parser.parse_args()

    rng = np.random.default_rng(0)

    # RK4 workload: 3000 steps of the 4-D system
    steps = 3000
    coeff = rng.uniform(-2.0, 2.0, (2 * steps + 1, 4))
    q0 = np.array([1.0, 0.0, 0.0, 0.0])
    rk_dt = 1e-3

    rows = []
    r_np = best_of(lambda: _kernels.rk4_integrate_numpy(coeff, q0, rk_dt),
                   args.repeat)
    rows.append(("rk4_integrate", "numpy", r_np, 1.0))

    if _kernels.HAVE_NUMBA:
        _kernels.warmup()
        r_nb = best_of(lambda: _kernels.rk4_integrate_numba(coeff, q0, rk_dt),
                       args.repeat)
        rows.append(("rk4_integrate", "numba", r_nb, r_np / r_nb))
    else:
        print("numba unavailable or disabled; numpy results only\n")

    print(f"{'kernel':<15} {'backend':<8} {'best (ms)':>10} {'speedup':>8}")
    for name, backend, secs, speedup in rows:
        print(f"{name:<15} {backend:<8} {secs * 1e3:>10.3f} {speedup:>7.1f}x")


if __name__ == "__main__":
    main()
