import math

import numpy as np
import pytest

from theta_shift.harness.suites import GATES
from theta_shift.specfun import oscillatory
from theta_shift.specfun.oscillatory import (
    I_kappa,
    I_kappa_contour_check,
    _j_moment_head,
    g_kappa,
    g_kappa_t,
)


class TestIKappa:
    def test_domain(self):
        with pytest.raises(ValueError):
            I_kappa(2.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            I_kappa(-2.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            I_kappa(0.5, 0.0, 1.0)

    def test_finite_at_t_zero(self):
        for kap in (0.5, -0.5, 1.2):
            v = I_kappa(kap, 2.0, 0.0)
            assert math.isfinite(v)

    def test_contour_oracle_spot(self):
        # dual route against direct contour integration with a K-Bessel
        a = I_kappa(0.5, 2.0, 1.0)
        b = I_kappa_contour_check(0.5, 2.0, 1.0)
        assert a == pytest.approx(b, rel=1e-5)

    @pytest.mark.parametrize("kap,om,t", [(1.5, 3.0, 0.7), (-0.5, 2.0, 1.0),
                                          (-1.2, 0.8, 0.5), (-1.9, 0.01, 0.5),
                                          (-0.5, 0.05, 0.5)])
    def test_contour_oracle_more(self, kap, om, t):
        # below omega = 1 at kappa <= 0 the tail's integrand is steep, not
        # oscillatory: pi-panels from q = omega miss by 7.6 times the value at
        # (-1.9, 0.01, 0.5) and by 26% at (-0.5, 0.05, 0.5)
        assert I_kappa(kap, om, t) == pytest.approx(
            I_kappa_contour_check(kap, om, t), rel=1e-6)

    def test_moment_series_raises_when_unconverged(self):
        # q0 is at most 0.25 in use; at q0 = 100 the 62nd term is still 6e38
        with pytest.raises(RuntimeError, match=r"t=1, q0=100 unconverged after 62 terms"):
            _j_moment_head(0.5, 1.0, 100.0)

    def test_continuity_in_kappa(self):
        mid = I_kappa(0.5, 2.0, 1.0)
        lo = I_kappa(0.5 - 1e-6, 2.0, 1.0)
        hi = I_kappa(0.5 + 1e-6, 2.0, 1.0)
        assert abs(lo - mid) <= 1e-4 * max(1.0, abs(mid))
        assert abs(hi - mid) <= 1e-4 * max(1.0, abs(mid))

    def test_one_sided_limits_agree_at_zero(self):
        for t in (0.5, 1.0):
            left = I_kappa(-1e-6, 2.0, t)
            right = I_kappa(1e-6, 2.0, t)
            at0 = I_kappa(0.0, 2.0, t)
            assert left == pytest.approx(at0, rel=1e-4)
            assert right == pytest.approx(at0, rel=1e-4)


class TestGKappa:
    def test_zero_at_T_zero(self):
        assert g_kappa(0.5, 2.0, 0.0) == 0.0
        assert g_kappa_t(-0.5, 2.0, 0.0) == 0.0

    @pytest.mark.parametrize("kap,om,T", [(0.5, 2.0, 1.5), (-0.5, 2.0, 1.5),
                                          (1.3, 0.7, 2.0), (-1.3, 1.2, 1.0),
                                          (0.5, 0.3, 1.0), (-0.5, 0.05, 0.5),
                                          (-1.5, 0.05, 0.5), (1.6, 1e-3, 40.0),
                                          (-1.9, 1e-3, 2.0)])
    def test_dual_routes(self, kap, om, T):
        # c7's gate is about 58 times the worst gap measured over its spots, 8.6e-11.
        # B's head is integrated by parts with its boundary term at xi = 0 for
        # kappa > 0 and at the head's end for kappa <= 0; at the last two spots
        # the other end misses by 4.1e-5 and 6.1e-8.  G is 4e-5 and 1.5e-5
        # there, so approx's default abs of 1e-12 would forgive the second
        assert g_kappa(kap, om, T) == pytest.approx(g_kappa_t(kap, om, T), rel=GATES["c7"], abs=0)

    @pytest.mark.parametrize("kap", [0.5, -0.5])
    def test_one_head_point_of_the_incomplete_gamma(self, kap, monkeypatch):
        sizes = []
        real = oscillatory.im_upper_gamma_imag_axis

        def spy(a, z):
            sizes.append(np.size(z))
            return real(a, z)

        monkeypatch.setattr(oscillatory, "im_upper_gamma_imag_axis", spy)
        g_kappa(kap, 3.0, 20.0)
        # beside the one head point, the tails' batches of 40 pi-panels x 16 nodes
        assert sizes.count(1) == 1
        assert set(sizes) == {1, 640}

    def test_incomplete_gamma_read_from_z_4_at_nonpositive_kappa(self, monkeypatch):
        # v_c = sqrt(omega^2 + 16 (2T + 1)^2) >= 4: incgamma's a <= 0 range
        # starts at its crossover z = 2
        zmins = []
        real = oscillatory.im_upper_gamma_imag_axis

        def spy(a, z):
            zmins.append(np.min(z))
            return real(a, z)

        monkeypatch.setattr(oscillatory, "im_upper_gamma_imag_axis", spy)
        for kap, om, T in [(-0.5, 1e-3, 0.01), (0.0, 1e-3, 0.01), (-1.9, 0.05, 2.0),
                           (-1.5, 3.0, 0.01), (-0.5, 50.0, 10.0)]:
            g_kappa(kap, om, T)
        assert min(zmins) >= 4.0

    def test_dual_route_larger_parameters(self):
        # a heavier spot: the xi-route at moderate omega against the
        # definitional t-quadrature
        a = g_kappa(0.5, 12.0, 4.0)
        b = g_kappa_t(0.5, 12.0, 4.0)
        assert a == pytest.approx(b, rel=GATES["c7"])

    def test_large_omega_ratio_bounded(self):
        for kap in (0.5, -0.5):
            for om in (1.0, 10.0, 100.0):
                for T in (1.0, 20.0, 50.0):
                    g = g_kappa(kap, om, T)
                    assert abs(g) / math.sqrt(om) < 10.0

    def test_small_omega_ratio_bounded(self):
        for kap in (0.5, -0.5):
            for om in (1e-3, 1e-2, 0.3, 1.0):
                for T in (1.0, 10.0, 50.0):
                    g = g_kappa(kap, om, T)
                    assert abs(g) / (om * (1 + abs(math.log(om)))) < 12.0

    def test_near_edge_kappa(self):
        for kap in (1.5 * (1 - 1e-3), -1.5 * (1 - 1e-3)):
            v = g_kappa(kap, 3.0, 2.0)
            assert math.isfinite(v)
