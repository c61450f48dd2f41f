import mpmath as mp
import numpy as np
import pytest

from theta_shift.specfun.incgamma import (
    _cf_depth,
    im_upper_gamma_imag_axis,
    upper_gamma_imag_axis,
)

mp.mp.dps = 30


@pytest.mark.parametrize("a", [-1.9, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 1.9])
def test_against_reference(a):
    zs = np.array([0.05, 0.7, 3.0, 7.9, 8.1, 20.0, 150.0, 3000.0])
    got = upper_gamma_imag_axis(a, zs)
    for z, g in zip(zs, got):
        ref = complex(mp.gammainc(mp.mpf(a), -1j * mp.mpf(z), mp.inf))
        assert abs(g - ref) <= 1e-12 * max(abs(ref), 1e-12)


@pytest.mark.parametrize("a", [-1.9, -0.5, 0.5, 1.9])
def test_continued_fraction_on_mixed_array(a):
    # one array from the crossover, where the fraction needs ~25 steps, to
    # z = 3000, where it needs 3: no element may stop before it converges
    zs = np.array([3000.0, 8.0, 900.0, 8.5, 40.0, 10.0, 150.0, 12.0])
    got = upper_gamma_imag_axis(a, zs)
    for z, g in zip(zs, got):
        ref = complex(mp.gammainc(mp.mpf(a), -1j * mp.mpf(z), mp.inf))
        assert abs(g - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("a", [-1.9, -1.0, -0.9995, -0.5, 0.0, 0.5, 1.9])
def test_array_equals_elementwise(a, rng):
    # series, recurrence, exp1, the mpmath sliver and the fraction, each
    # element to its own depth, shuffled into one 2-D array
    z = rng.permutation(np.concatenate([np.geomspace(1e-3, 1.999, 13), [2.0],
                                        np.geomspace(2.001, 5000.0, 26)])).reshape(5, 8)
    got = upper_gamma_imag_axis(a, z)
    assert got.shape == z.shape and got.dtype == np.complex128
    each = np.array([[upper_gamma_imag_axis(a, v)[0] for v in row] for row in z])
    assert np.array_equal(got, each)


def _lentz_steps(a, z):
    """Steps until the Lentz loop's factor is within 4 ulp of 1."""
    x = -1j * z
    b = x + 1.0 - a
    c, d = 1e300, 1.0 / b
    for i in range(1, 1000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        c = b + an / c
        d = 1.0 / d
        if abs(d * c - 1.0) < 4.0 * np.finfo(np.float64).eps:
            return i
    raise AssertionError(f"no convergence at a={a}, z={z}")


def test_depth_covers_lentz_convergence():
    # the bottom-up fraction runs D(z) levels; the Lentz loop it replaced
    # stopped after its step count, which D exceeds by 2 or more on (-2, 2)
    zs = np.geomspace(2.0, 3000.0, 90)
    depth = _cf_depth(zs)
    slack = min(int(d) - _lentz_steps(a, float(z))
                for a in np.linspace(-1.99, 1.99, 57) for z, d in zip(zs, depth))
    assert slack >= 2


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
