import math

import numpy as np
import pytest

from theta_shift.specfun.oscillatory import (
    I_kappa,
    I_kappa_contour_check,
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
                                          (-1.2, 0.8, 0.5)])
    def test_contour_oracle_more(self, kap, om, t):
        assert I_kappa(kap, om, t) == pytest.approx(
            I_kappa_contour_check(kap, om, t), rel=1e-6)

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
                                          (0.5, 0.3, 1.0)])
    def test_dual_routes(self, kap, om, T):
        # 5e-9 is about 58 times the worst gap measured over c7's spots, 8.6e-11
        assert g_kappa(kap, om, T) == pytest.approx(g_kappa_t(kap, om, T), rel=5e-9)

    def test_dual_route_larger_parameters(self):
        # a heavier spot: the xi-route at moderate omega against the
        # definitional t-quadrature
        a = g_kappa(0.5, 12.0, 4.0)
        b = g_kappa_t(0.5, 12.0, 4.0)
        assert a == pytest.approx(b, rel=5e-9)

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
