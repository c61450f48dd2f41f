import math

import numpy as np
import pytest
from scipy.special import sici

from theta_shift.quadrature import alternating_tail


@pytest.mark.parametrize("v0", [0.5, 2.0, 7.3, 40.0])
def test_complex_tail_against_sine_cosine_integrals(v0):
    # int_{v0}^inf e^{iv}/v dv = -Ci(v0) + i(pi/2 - Si(v0)), in one pass
    si, ci = sici(v0)
    val, err = alternating_tail(lambda v: np.exp(1j * v) / v, v0)
    assert type(val) is complex
    assert type(err) is float
    assert abs(val - complex(-ci, 0.5 * math.pi - si)) <= 1e-10


def test_real_tail_returns_python_float():
    si, ci = sici(2.0)
    val, err = alternating_tail(lambda v: np.cos(v) / v, 2.0)
    assert type(val) is float
    assert type(err) is float
    assert val == pytest.approx(-ci, abs=1e-10)
