import math

import numpy as np
import pytest
from scipy.special import sici

from theta_shift.quadrature import alternating_tail, gl_cumulative, gl_nodes, gl_panels


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


def test_unconverged_tail_raises():
    # 1/v^2 does not oscillate, so the averaging cannot reach tol in 40 panels
    with pytest.raises(RuntimeError, match=r"v0=1 unconverged after 40 panels: "
                                           r"error estimate .* >= tol 1e-11"):
        alternating_tail(lambda v: 1.0 / v**2, 1.0, max_panels=40)


@pytest.mark.parametrize("n", [8, 24])
def test_panels_complex_integrand(n):
    # int_0^3 e^{(1+2i)x} dx = (e^{3(1+2i)} - 1) / (1+2i), over uneven panels
    z = 1 + 2j
    val = gl_panels(lambda x: np.exp(z * x), [0.0, 0.4, 1.0, 2.2, 3.0], n)
    assert type(val) is complex
    assert abs(val - (np.exp(3 * z) - 1) / z) <= 1e-12 * abs(val)


def test_panels_real_integrand_returns_python_float():
    val = gl_panels(np.sin, np.linspace(0.0, math.pi, 5))
    assert type(val) is float
    assert val == pytest.approx(2.0, abs=1e-14)


@pytest.mark.parametrize("n", [8, 16, 24])
def test_cumulative_matrix_integrates_polynomials_exactly(n):
    # int_{-1}^{x_i} s^k ds at every node, for each degree the interpolant carries
    x, w = gl_nodes(n)
    cum = gl_cumulative(n)
    for k in range(n):
        exact = (x ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1)
        assert np.max(np.abs(cum @ x**k - exact)) <= 4e-15
    assert gl_cumulative(n) is cum and gl_nodes(n)[0] is x
    assert not (cum.flags.writeable or x.flags.writeable or w.flags.writeable)
