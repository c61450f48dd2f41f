import math

import numpy as np
import pytest

from theta_shift.arith import trivial_character
from theta_shift.harness.suites import GATES
from theta_shift.modforms.forms import CuspForm
from theta_shift.modforms.residual import (
    remark_closed_form,
    remark_inner_product,
    residual_constant,
    residual_constant_duplication,
    sym2_residue_estimate,
)
from theta_shift.modforms.sums import fit_exponent, shifted_sum, shifted_sum_scan
from theta_shift.specfun import whittaker


class TestShiftedSum:
    def test_empty_sum(self, eta7_small):
        s = shifted_sum(eta7_small, 5, [2.0])  # X^2 = 4 < 5
        assert s[0] == 0.0

    def test_single_center_term(self, eta7_small):
        h = 9
        s = shifted_sum(eta7_small, h, [3.0])  # X^2 = h exactly
        assert s[0] == pytest.approx(eta7_small.A(9))

    def test_enumerated_example(self, eta7_small):
        f = eta7_small
        s = shifted_sum(f, 1, [3.0])
        manual = f.A(1) + 2 * (f.A(2) + f.A(5) + f.A(10))
        assert s[0] == pytest.approx(manual)

    def test_incremental_equals_scan(self, eta7_small):
        f = eta7_small
        for h in (1, 3, 7):
            xs, cum = shifted_sum_scan(f, h, 540.0)
            assert np.array_equal(shifted_sum(f, h, xs), cum)

    def test_step_function_constant_between_jumps(self, eta7_small):
        f = eta7_small
        s = shifted_sum(f, 1, [10.04, 10.09])  # no n^2+1 in (10.04^2, 10.09^2]
        assert s[0] == s[1]

    def test_overflowing_X_rejected(self, eta7_small):
        with np.errstate(all="raise"):
            with pytest.raises(ValueError, match=r"X = 1e\+300 is too large"):
                shifted_sum(eta7_small, 1, [4.0, 1e300])

    def test_coefficient_shortage_names_requirement(self, eta7_small):
        with pytest.raises(IndexError, match=r"n\^2\+h"):
            shifted_sum(eta7_small, 1, [1e6])


class TestFitExponent:
    def test_pure_power_law(self):
        xs = np.geomspace(10, 1e4, 12)
        assert fit_exponent(xs, xs ** 0.75, 0.0) == pytest.approx(0.75, abs=0.01)

    def test_power_law_with_main_term(self):
        xs = np.geomspace(10, 1e4, 12)
        assert fit_exponent(xs, 2 * xs + xs ** 0.6, 2.0) == pytest.approx(0.6, abs=0.02)

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            fit_exponent(np.arange(1.0, 6.0), np.ones(5), 0.0)

    @pytest.mark.parametrize("column", ["X", "S"])
    def test_non_finite_row_refused(self, column):
        # the residual mask used to drop such a row and fit the rest
        xs = 2.0 ** np.arange(5, 13)
        S = xs ** 0.7
        (xs if column == "X" else S)[3] = np.nan
        with pytest.raises(ValueError, match="row 4 of 8"):
            fit_exponent(xs, S, 0.0)

    def test_exact_cancellation_skipped(self):
        xs = np.geomspace(10, 1e4, 12)
        S = 2 * xs
        S[3] += xs[3] ** 0.5
        with pytest.raises(ValueError):
            fit_exponent(xs, S, 2.0)


def _synthetic_form(M: int, weight: int, squares_value):
    coeffs = np.zeros(M)
    coeffs[0] = 1.0
    top = math.isqrt(M)
    ns = np.arange(1, top + 1)
    coeffs[ns * ns - 1] = squares_value(ns)
    return CuspForm(level=4, weight=weight, character=trivial_character(4),
                    coeffs=coeffs)


class TestSym2Estimate:
    def test_pure_main_term(self):
        # a(n^2) = n^{k-1} makes P(Y) the harmonic sum: slope 1
        f = _synthetic_form(10**6, 3, lambda ns: ns.astype(float) ** 2)
        Rhat, quality = sym2_residue_estimate(f, np.unique(np.geomspace(30, 900, 20).astype(int)))
        assert Rhat == pytest.approx(math.pi**2 / 6, rel=0.02)
        assert quality < 0.05

    def test_zero_squares(self):
        f = _synthetic_form(10**4, 3, lambda ns: np.where(ns == 1, 1.0, 0.0))
        Rhat, _ = sym2_residue_estimate(f, np.array([10, 30, 50, 90]))
        assert Rhat == pytest.approx(0.0, abs=1e-12)

    def test_real_form_positive(self, eta7_small):
        Rhat, quality = sym2_residue_estimate(
            eta7_small, np.unique(np.geomspace(30, 540, 16).astype(int)))
        assert Rhat > 0
        assert math.isfinite(quality)

    def test_coefficient_shortage(self, eta7_small):
        with pytest.raises(IndexError):
            sym2_residue_estimate(eta7_small, np.array([10, 10**5]))

    @pytest.mark.parametrize("grid", [[40], [40, 90]])
    def test_fewer_than_three_points_rejected(self, eta7_small, grid):
        with pytest.raises(ValueError, match="at least 3 distinct Y"):
            sym2_residue_estimate(eta7_small, np.array(grid))


class TestResidualConstant:
    def test_vanishing_when_level_does_not_divide(self, eta7_small):
        assert residual_constant(eta7_small, 1, 1.0) == 0.0
        assert residual_constant(eta7_small, 3, 1.0) == 0.0

    def test_nonzero_case_k3(self, eta7_small):
        # k=3, N=28, h=7: sign (-1)^1, Gamma(-1/2) = -2 sqrt(pi) in the
        # denominator, collapsing to 2^{5/2} / zeta(2)
        val = residual_constant(eta7_small, 7, 1.0)
        assert val == pytest.approx(2 ** 2.5 / (math.pi**2 / 6), rel=1e-12)

    def test_two_routes_agree(self, eta7_small):
        for h in (7, 28, 63):
            for R in (0.25, 1.0, 3.7):
                a = residual_constant(eta7_small, h, R)
                b = residual_constant_duplication(eta7_small, h, R)
                assert a == pytest.approx(b, rel=1e-12)

    def test_homogeneous_in_R(self, eta7_small):
        base = residual_constant(eta7_small, 7, 1.0)
        assert residual_constant(eta7_small, 7, 2.5) == pytest.approx(2.5 * base, rel=1e-12)

    def test_even_weight_vanishes(self):
        f = _synthetic_form(100, 4, lambda ns: ns.astype(float) ** 3)
        assert residual_constant(f, 1, 1.0) == 0.0

    def test_wrong_character_vanishes(self):
        # level 28 with trivial character instead of the quadratic one
        f = CuspForm(level=28, weight=3, character=trivial_character(28),
                     coeffs=np.ones(100))
        assert residual_constant(f, 7, 1.0) == 0.0

    def test_non_squarefree_level_vanishes(self, eta7_small):
        f = CuspForm(level=36, weight=3, character=trivial_character(36),
                     coeffs=np.ones(100))
        assert residual_constant(f, 9, 1.0) == 0.0


class TestRemarkValue:
    def test_k5_value(self):
        cf = remark_closed_form(5)
        assert cf == pytest.approx(-3.0 / (64 * math.pi**2), rel=1e-14)
        assert cf == pytest.approx(-4.7494e-3, rel=1e-4)
        assert remark_inner_product(5) == pytest.approx(cf, rel=GATES["c9"], abs=0)

    def test_k9_value(self):
        assert remark_inner_product(9) == pytest.approx(remark_closed_form(9),
                                                        rel=GATES["c9"], abs=0)

    def test_k13_value(self):
        assert remark_inner_product(13) == pytest.approx(remark_closed_form(13),
                                                         rel=GATES["c9"], abs=0)

    def test_k5_solves_no_ode(self):
        # W_{9/4,1/4} is one terminating 1F1 term, certified at every node
        before = whittaker._solve_scaled.cache_info()
        remark_inner_product(5)
        assert whittaker._solve_scaled.cache_info() == before

    def test_sign_pattern(self):
        assert remark_closed_form(5) < 0    # sin(3 pi / 2) = -1
        assert remark_closed_form(9) > 0

    def test_domain(self):
        with pytest.raises(ValueError):
            remark_inner_product(7)   # 7 = 3 mod 4
        with pytest.raises(ValueError):
            remark_inner_product(4)
