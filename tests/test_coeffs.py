import numpy as np
import pytest

from quatode import CoefficientSet, expr

from support import ROTATING_AXES

C_SCALAR = CoefficientSet.from_strings("0.3*cos(t)", *ROTATING_AXES)


@pytest.mark.parametrize("components", [range(4), (1, 2, 3), (2,)],
                         ids=["all", "imag", "one"])
@pytest.mark.parametrize("shape", [(7,), (3, 5)], ids=["1d", "2d"])
def test_sample_is_eval_array_column_by_column(components, shape):
    ts = np.linspace(-1.0, 2.0, int(np.prod(shape))).reshape(shape)
    table = C_SCALAR.sample(ts, components)
    assert table.shape == shape + (len(components),)
    assert table.flags.c_contiguous
    for col, ell in enumerate(components):
        want = expr.eval_array(C_SCALAR.exprs[ell], ts)
        assert np.array_equal(table[..., col], want)


def test_sample_defaults_to_all_four_components():
    ts = np.linspace(0.0, 1.0, 5)
    assert np.array_equal(C_SCALAR.sample(ts), C_SCALAR.sample(ts, range(4)))
