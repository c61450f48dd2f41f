import pytest

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
        assert g == pytest.approx(d, rel=1e-9, abs=0)

    @pytest.mark.parametrize("n1,n2,m,k,t", GRID)
    def test_contour_shift_invariance(self, n1, n2, m, k, t):
        kappa = k - 0.5
        g1 = mellin_barnes_G(n1, n2, m, k, t, 0.25 * kappa / 2).real
        g2 = mellin_barnes_G(n1, n2, m, k, t, 0.75 * kappa / 2).real
        assert g1 == pytest.approx(g2, rel=5e-12, abs=0)

    def test_imaginary_spectral_parameter(self):
        # the Maass-lift shape: second Whittaker parameter 1/4
        g = mellin_barnes_G(1, 1, 2, 5, -0.25j, 0.5).real
        d = direct_G(1, 1, 2, 5, -0.25j)
        assert g == pytest.approx(d, rel=1e-10, abs=0)


class TestWhittakerNodes:
    def test_ode_only_above_twice_t(self, monkeypatch):
        # nodes below 2t = 2 are the 1F1 series' under its envelope certificate
        solves = []
        solution = whittaker.whittaker_solution

        def solution_spy(eta, mu, y_min, y_max):
            solves.append(y_min)
            return solution(eta, mu, y_min, y_max)

        monkeypatch.setattr(whittaker, "whittaker_solution", solution_spy)
        direct_G(1, 1, 2, 5, 1.0)
        assert len(solves) == 1 and solves[0] > 2.0


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
