import math

import mpmath as mp
import numpy as np
import pytest

from theta_shift.specfun.besselj import bessel_J_imag_order

mp.mp.dps = 30


class TestBesselJ:
    def test_order_zero_small_argument(self):
        # J_0(q) -> 1 as q -> 0+
        for q in (1e-8, 1e-4, 1e-2):
            v = bessel_J_imag_order(0.0, q)
            assert v.imag == pytest.approx(0.0, abs=1e-15)
            assert v.real == pytest.approx(1.0, abs=2.5 * (q / 2) ** 2)

    def test_nonpositive_argument_rejected(self):
        with pytest.raises(ValueError):
            bessel_J_imag_order(1.0, 0.0)
        with pytest.raises(ValueError):
            bessel_J_imag_order(1.0, -2.0)

    def test_conjugate_symmetry_random(self, rng):
        # J_{-2it}(q) = conj(J_{2it}(q)), termwise in the series
        for _ in range(1000):
            t = float(rng.uniform(-3, 3))
            q = float(np.exp(rng.uniform(np.log(1e-3), np.log(120.0))))
            a = bessel_J_imag_order(t, q)
            b = bessel_J_imag_order(-t, q)
            assert abs(a.conjugate() - b) <= 1e-10 * max(abs(a), 1e-12)

    def test_against_reference(self):
        # the last two points sit on the Hankel edge 16 t^2 = q just above
        # q = 14, where its optimal truncation is worst
        points = [(t, q) for t in (0.0, 0.05, 0.5, 1.0, 2.0, 5.0)
                  for q in (1e-3, 0.3, 2.0, 13.9, 14.1, 24.9, 25.1, 40.0, 200.0)]
        worst = 0.0
        for t, q in points + [(0.93, 14.01), (1.2, 23.1)]:
            got = bessel_J_imag_order(t, q)
            ref = complex(mp.besselj(2j * mp.mpf(t), mp.mpf(q)))
            worst = max(worst, abs(got - ref) / max(abs(ref), 1e-30))
        assert worst <= 1e-8

    def test_uniform_envelope_with_reported_constant(self):
        # |J_{2it}(q)| <= C cosh(pi t) min(q^{-1/2}, 1 + |log q|)
        c_max = 0.0
        for t in (0.0, 0.1, 0.5, 1.0, 2.0, 3.0):
            for q in (1e-3, 0.05, 0.5, 1.0, 3.0, 10.0, 30.0, 100.0):
                J = bessel_J_imag_order(t, q)
                env = math.cosh(math.pi * t) * min(q ** -0.5, 1 + abs(math.log(q)))
                c_max = max(c_max, abs(J) / env)
        assert math.isfinite(c_max)
        assert c_max <= 1.0  # empirical constant is ~0.8

    def test_conjugate_difference_envelope(self):
        # |J_{2it}(q) - J_{-2it}(q)| against |sinh(pi t)| min(q^{-1/2}, 1+|log q|):
        # the empirical constant is ~1.6 (it exceeds 1 near t = 0 at large q),
        # so the assertion uses constant 2 and the max is reported
        c_max = 0.0
        for t in (0.01, 0.1, 0.5, 1.0, 2.0, 3.0):
            for q in (1e-3, 0.05, 0.5, 1.0, 3.0, 10.0, 30.0, 100.0):
                J = bessel_J_imag_order(t, q)
                diff = 2.0 * abs(J.imag)   # |J_{2it} - J_{-2it}|
                env = abs(math.sinh(math.pi * t)) * min(q ** -0.5, 1 + abs(math.log(q)))
                c_max = max(c_max, diff / env)
        assert 1.0 < c_max <= 2.0
