import pytest

from theta_shift.harness.suites import GATES
from theta_shift.specfun import whittaker
from theta_shift.specfun.mellin import direct_G, mellin_barnes_G


GRID = [
    (1, 1, 2, 5, 1.0),
    (1, 1, 2, 5, 2.0),
    (3, -1, 2, 5, 1.0),
    (4, -2, 2, 5, 2.0),
    (2, 2, 4, 9, 1.0),
    (5, -2, 3, 9, 2.0),
]


class TestDualRoute:
    @pytest.mark.parametrize("n1,n2,m,k,t", GRID)
    def test_contour_equals_direct(self, n1, n2, m, k, t):
        kappa = k - 0.5
        g = mellin_barnes_G(n1, n2, m, k, t, 0.4 * kappa / 2).real
        d = direct_G(n1, n2, m, k, t)
        assert g == pytest.approx(d, rel=GATES["c8"], abs=0)

    @pytest.mark.parametrize("n1,n2,m,k,t", GRID)
    def test_contour_shift_invariance(self, n1, n2, m, k, t):
        kappa = k - 0.5
        g1 = mellin_barnes_G(n1, n2, m, k, t, 0.25 * kappa / 2).real
        g2 = mellin_barnes_G(n1, n2, m, k, t, 0.75 * kappa / 2).real
        assert g1 == pytest.approx(g2, rel=GATES["c8-shift"], abs=0)

    @pytest.mark.parametrize("n1,n2,m,k,t", GRID)
    def test_direct_meets_contour_at_suite_points(self, n1, n2, m, k, t):
        # mellin_suite's points and contour; the worst measured is 2.55e-13 at
        # (1, 1, 2, 5, 2.0), where the part below 1/decay cancels 85% of the rest
        kappa = k - 0.5
        g = mellin_barnes_G(n1, n2, m, k, t, 0.3 * kappa / 2).real
        assert direct_G(n1, n2, m, k, t) == pytest.approx(g, rel=2.5e-12, abs=0)

    def test_imaginary_spectral_parameter(self):
        # the Maass-lift shape: second Whittaker parameter 1/4
        g = mellin_barnes_G(1, 1, 2, 5, -0.25j, 0.5).real
        d = direct_G(1, 1, 2, 5, -0.25j)
        assert g == pytest.approx(d, rel=1e-10, abs=0)


class TestWhittakerNodes:
    def test_miller_above_twice_t(self, monkeypatch):
        # nodes below 2t = 2 are the 1F1 series' under its envelope certificate,
        # the nodes above Miller's recurrence's; no ODE is solved
        millers = []
        miller = whittaker._miller

        def miller_spy(eta, t, ys, depth):
            millers.append(ys)
            return miller(eta, t, ys, depth)

        def no_ode(*args):
            raise AssertionError("ODE solved at mu = i")

        monkeypatch.setattr(whittaker, "_miller", miller_spy)
        monkeypatch.setattr(whittaker, "whittaker_solution", no_ode)
        direct_G(1, 1, 2, 5, 1.0)
        assert millers and all(ys.min() > 2.0 for ys in millers)


class TestDomain:
    def test_strip_enforced(self):
        kappa = 5 - 0.5
        with pytest.raises(ValueError):
            mellin_barnes_G(1, 1, 2, 5, 1.0, kappa / 2 + 0.1)
        with pytest.raises(ValueError):
            mellin_barnes_G(1, 1, 2, 5, 1.0, -0.1)

    def test_consistency_constraints(self):
        with pytest.raises(ValueError):
            mellin_barnes_G(1, 2, 2, 5, 1.0, 0.5)   # m != n1 + n2
        with pytest.raises(ValueError):
            mellin_barnes_G(1, 0, 1, 5, 1.0, 0.5)   # n2 = 0
        with pytest.raises(ValueError):
            mellin_barnes_G(-1, 3, 2, 5, 1.0, 0.5)  # n1 < 0

    def test_imaginary_t_shrinks_strip(self):
        # kappa/2 = 2.25, |Im t| = 1.5 -> strip (0, 0.75)
        with pytest.raises(ValueError):
            mellin_barnes_G(1, 1, 2, 5, 1.5j, 1.0)
        mellin_barnes_G(1, 1, 2, 5, 1.5j, 0.5)

    @pytest.mark.parametrize("t", [2.25j, -3.0j])
    def test_divergent_direct_integral_refused(self, t):
        # kappa/2 = 2.25: near 0 the integrand is ~ y^(1.25 - |Im t|), not integrable
        with pytest.raises(ValueError, match="diverges at 0"):
            direct_G(1, 1, 2, 5, t)
