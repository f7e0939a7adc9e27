import numpy as np
import pytest

from quatode import _kernels
from quatode.quadrature import chebyshev_rule

from support import rk4_stepwise


def test_backend_selected():
    assert _kernels.backend_name() == "numpy"


def test_picard_sweep_zero_angles_integrates_coefficients():
    # with all angles zero f reduces to (a1, a2, a3), and the window's
    # Clenshaw-Curtis matrix integrates a polynomial of its degree exactly
    rule = chebyshev_rule(16)
    h = 1.5
    ts = 0.5 * h * (rule.x + 1.0)
    a = np.stack([1.0 + 2.0 * ts - 3.0 * ts ** 5, ts ** 16,
                  -0.5 * ts ** 3], axis=-1)
    want = np.stack([ts + ts ** 2 - 0.5 * ts ** 6, ts ** 17 / 17.0,
                     -0.125 * ts ** 4], axis=-1)
    theta, f = _kernels.picard_sweep(np.zeros_like(a), a,
                                     0.5 * h * rule.integrate)
    assert np.array_equal(f, a)
    assert np.max(np.abs(theta - want)) <= 1e-14 * np.max(np.abs(want))
    assert np.all(theta[0] == 0.0)


def test_rk4_matches_stepwise_reference():
    # two block joins crossed, and the run does not end on one
    steps = 2 * _kernels.RK4_BLOCK + 7
    rng = np.random.default_rng(2)
    coeff = rng.uniform(-2, 2, (2 * steps + 1, 4))
    forcing = rng.uniform(-2, 2, (2 * steps + 1, 4))
    q0 = np.array([0.5, -0.5, 0.5, 0.5])
    dt = 1e-3
    for f in (None, forcing):
        got = _kernels.rk4_integrate(coeff, q0, dt, f)
        want = rk4_stepwise(coeff, q0, dt, f)
        assert got.shape == (steps + 1, 4)
        assert np.array_equal(got[0], q0)
        scale = np.linalg.norm(want, axis=1)
        assert np.max(np.linalg.norm(got - want, axis=1) / scale) <= 1e-13


def test_rk4_scalar_exponential():
    # q' = q with q(0) = 1: RK4 tracks e^t to ~h^4
    steps = 100
    coeff = np.zeros((2 * steps + 1, 4))
    coeff[:, 0] = 1.0
    out = _kernels.rk4_integrate(coeff, np.array([1.0, 0, 0, 0]),
                                 1.0 / steps)
    assert out[-1, 0] == pytest.approx(np.e, abs=1e-9)
    assert np.all(out[:, 1:] == 0.0)
