import tracemalloc

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
    # one scan over more than two oracle blocks of steps, not a power of 2
    steps = 2 * _kernels.RK4_BLOCK + 7
    rng = np.random.default_rng(2)
    coeff = rng.uniform(-2, 2, (2 * steps + 1, 4))
    forcing = rng.uniform(-2, 2, (2 * steps + 1, 4))
    q0 = np.array([0.5, -0.5, 0.5, 0.5])
    for f in (None, forcing):
        got = _kernels.rk4_integrate(coeff, q0, np.full(steps, 1e-3), f)
        want = rk4_stepwise(coeff, q0, 1e-3, f)
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
                                 np.full(steps, 1.0 / steps))
    assert out[-1, 0] == pytest.approx(np.e, abs=1e-9)
    assert np.all(out[:, 1:] == 0.0)


def _signed_zero_probe():
    # q' = (-1 - 2i) q from q0 = -1 on [0, 2]: the j and k components are
    # zeros whose sign depends on how the last step is added up
    steps = 2000
    coeff = np.zeros((2 * steps + 1, 4))
    coeff[:, 0], coeff[:, 1] = -1.0, -2.0
    return coeff, np.array([-1.0, 0.0, 0.0, 0.0]), np.full(steps, 1e-3)


def _random_problem():
    steps = _kernels.RK4_BLOCK + 5
    rng = np.random.default_rng(3)
    return (rng.uniform(-2, 2, (2 * steps + 1, 4)),
            np.array([0.5, -0.5, 0.5, 0.5]), np.full(steps, 1e-3))


@pytest.mark.parametrize("problem", [_signed_zero_probe, _random_problem],
                         ids=["signed-zero", "random"])
def test_rk4_bytes_do_not_depend_on_forcing_or_layout(problem):
    # tobytes, so that the sign of a zero counts
    coeff, q0, dt = problem()
    got = _kernels.rk4_integrate(coeff, q0, dt)
    assert got.flags.c_contiguous and got.shape == (len(coeff) // 2 + 1, 4)
    zero = _kernels.rk4_integrate(coeff, q0, dt, np.zeros_like(coeff))
    assert got.tobytes() == zero.tobytes()
    columns = np.ascontiguousarray(coeff.T)
    view = _kernels.rk4_integrate(columns.T, q0, dt)
    assert view.flags.c_contiguous and got.tobytes() == view.tobytes()


def test_rk4_signed_zero_probe_writes_no_negative_zero():
    coeff, q0, dt = _signed_zero_probe()
    out = _kernels.rk4_integrate(coeff, q0, dt)
    assert np.all(out[:, 2:] == 0.0)
    assert not np.any(np.signbit(out[:, 2:]))


def _rk4_peak(table):
    """The traced peak of one kernel call on ``table``, which exists
    before tracing starts."""
    dt = np.full(len(table) // 2, 1e-4)
    tracemalloc.start()
    try:
        _kernels.rk4_integrate(table, np.array([1.0, 0, 0, 0]), dt)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_rk4_reads_a_row_major_table_without_copying_it():
    # at one oracle block the scan's temporaries exceed the table, so the
    # peak alone does not show a copy; the same table in column-major
    # order must be copied, which a row-major one must not be
    steps = _kernels.RK4_BLOCK
    table = np.random.default_rng(4).uniform(-1, 1, (2 * steps + 1, 4))
    gap = _rk4_peak(np.asfortranarray(table)) - _rk4_peak(table)
    assert gap >= 0.5 * table.nbytes
