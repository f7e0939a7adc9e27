import numpy as np
import pytest

from quatode import _kernels
from quatode.quadrature import chebyshev_rule


def test_backend_selected():
    assert _kernels.backend_name() in ("numba", "numpy")
    assert _kernels.backend_name() == (
        "numba" if _kernels.HAVE_NUMBA else "numpy")


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


@pytest.mark.skipif(not _kernels.HAVE_NUMBA, reason="numba not available")
def test_rk4_backends_agree():
    rng = np.random.default_rng(2)
    coeff = rng.uniform(-2, 2, (201, 4))
    q0 = np.array([0.5, -0.5, 0.5, 0.5])
    ref = _kernels.rk4_integrate_numpy(coeff, q0, 1e-2)
    jit = _kernels.rk4_integrate_numba(coeff, q0, 1e-2)
    assert np.allclose(ref, jit, rtol=0, atol=1e-13)


def test_rk4_scalar_exponential():
    # q' = q with q(0) = 1: RK4 tracks e^t to ~h^4
    steps = 100
    coeff = np.zeros((2 * steps + 1, 4))
    coeff[:, 0] = 1.0
    out = _kernels.rk4_integrate_numpy(coeff, np.array([1.0, 0, 0, 0]),
                                       1.0 / steps)
    assert out[-1, 0] == pytest.approx(np.e, abs=1e-9)
    assert np.all(out[:, 1:] == 0.0)


def test_warmup_runs():
    _kernels.warmup()
