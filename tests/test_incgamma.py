import mpmath as mp
import numpy as np
import pytest

from theta_shift.specfun.incgamma import im_upper_gamma_imag_axis, upper_gamma_imag_axis

mp.mp.dps = 30


@pytest.mark.parametrize("a", [-1.9, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 1.9])
def test_against_reference(a):
    zs = np.array([0.05, 0.7, 3.0, 7.9, 8.1, 20.0, 150.0, 3000.0])
    got = upper_gamma_imag_axis(a, zs)
    for z, g in zip(zs, got):
        ref = complex(mp.gammainc(mp.mpf(a), -1j * mp.mpf(z), mp.inf))
        assert abs(g - ref) <= 1e-8 * max(abs(ref), 1e-12)


@pytest.mark.parametrize("a", [-1.9, -0.5, 0.5, 1.9])
def test_continued_fraction_on_mixed_array(a):
    # one array from the crossover, where the fraction needs ~25 steps, to
    # z = 3000, where it needs 3: no element may stop before it converges
    zs = np.array([3000.0, 8.0, 900.0, 8.5, 40.0, 10.0, 150.0, 12.0])
    got = upper_gamma_imag_axis(a, zs)
    for z, g in zip(zs, got):
        ref = complex(mp.gammainc(mp.mpf(a), -1j * mp.mpf(z), mp.inf))
        assert abs(g - ref) <= 1e-12 * abs(ref)


def test_imag_part_is_tail_sine_integral():
    # Im Gamma(a, -iz) = int_z^inf sin(u - pi a/2) u^{a-1} du for a < 1
    a, z = 0.5, 6.0
    ref = mp.quadosc(lambda u: mp.sin(u - mp.pi * a / 2) * u ** (a - 1),
                     [z, mp.inf], period=2 * mp.pi)
    got = im_upper_gamma_imag_axis(a, np.array([z]))[0]
    assert got == pytest.approx(float(ref), rel=1e-10)


def test_rejects_nonpositive_z():
    with pytest.raises(ValueError):
        upper_gamma_imag_axis(0.5, np.array([0.0]))
