import math
import time
import warnings

import mpmath as mp
import numpy as np
import pytest

from theta_shift.harness import suites
from theta_shift.specfun import whittaker
from theta_shift.specfun.whittaker import (
    whittaker_W,
    whittaker_W_grid,
    whittaker_l2_norm,
    whittaker_lower_bound_check,
    whittaker_norm_closed_form,
    whittaker_solution,
    whittaker_uniform_ratio,
    whittaker_uniform_ratio_grid,
)

mp.mp.dps = 25


class TestClosedForms:
    def test_exponential_reduction(self):
        for y in (0.3, 1.0, 5.0, 20.0):
            assert whittaker_W(0.0, 0.5, y) == pytest.approx(
                math.exp(-y / 2), rel=1e-12)

    def test_residual_spectrum_shape(self):
        # W_{b+1/2, b}(y) = e^{-y/2} y^{b+1/2} at b = 1/4
        b = 0.25
        for y in (0.2, 1.7, 9.0):
            assert whittaker_W(b + 0.5, b, y) == pytest.approx(
                math.exp(-y / 2) * y ** (b + 0.5), rel=1e-12)

    def test_against_reference_imaginary_parameter(self):
        for (eta, t, y) in [(1.25, 1.0, 0.4), (1.25, 2.0, 3.0), (-1.25, 2.0, 0.7),
                            (0.25, 5.0, 6.0), (2.25, 3.0, 1.0)]:
            got = whittaker_W(eta, 1j * t, y)
            ref = complex(mp.whitw(eta, 1j * t, y))
            assert abs(ref.imag) < 1e-20 * abs(ref)
            assert got == pytest.approx(ref.real, rel=5e-12)

    def test_against_reference_real_parameter(self):
        for (eta, mu, y) in [(2.25, 0.25, 0.9), (-2.25, 0.25, 2.0), (4.25, 0.25, 4.0)]:
            got = whittaker_W(eta, mu, y)
            ref = float(mp.whitw(eta, mu, y))
            assert got == pytest.approx(ref, rel=5e-12)


class TestDomain:
    def test_mixed_mu_rejected(self):
        with pytest.raises(ValueError):
            whittaker_W(0.5, 0.3 + 0.4j, 1.0)
        with pytest.raises(ValueError, match="real or purely imaginary"):
            whittaker_W_grid(0.5, 0.3 + 0.4j, [1.0])
        with pytest.raises(ValueError, match="real or purely imaginary"):
            whittaker_solution(0.5, 0.3 + 0.4j, 1.0, 2.0)

    def test_nonpositive_y_rejected(self):
        for y in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="argument must be positive"):
                whittaker_W(0.5, 0.25, y)

    @pytest.fixture(scope="class")
    def edge_solution(self):
        return whittaker_solution(-20.0, 250j, 1e-3, 2e-3)

    def test_below_solver_floor_raises(self, edge_solution):
        # v = W e^{y/2} y^{-eta} is 7.4e-282 here, under atol = 1e-280: W was off by 1.7e-5
        with pytest.raises(ValueError, match=r"eta=-20, y=0\.001 is below the solver floor"):
            edge_solution.w_values(1e-3)

    def test_just_above_solver_floor_is_accurate(self, edge_solution):
        # v is 6.6e-276 here, above the floor of 1e-276
        with mp.workdps(40):
            ref = float(mp.re(mp.whitw(-20, 250j, 2e-3)))
        assert abs(edge_solution.w_values(2e-3)[0] - ref) <= 1e-9 * abs(ref)

    @pytest.mark.parametrize("eta, mu", [(0.0, 0.5), (-1.25, 2j)])
    def test_tiny_y_is_accurate(self, eta, mu):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = whittaker_W(eta, mu, 1e-8)
        ref = complex(mp.whitw(eta, mu, 1e-8)).real
        assert abs(got - ref) <= 1e-8 * abs(ref)


class TestNormIdentity:
    @pytest.mark.parametrize("eta", [0.25, -0.25, 1.25, -1.25])
    @pytest.mark.parametrize("t", [1.0, 2.0, 5.0, 10.0])
    def test_quadrature_vs_closed_form(self, eta, t):
        q = whittaker_l2_norm(eta, t)
        cf = whittaker_norm_closed_form(eta, t)
        assert q == pytest.approx(cf, rel=1e-11, abs=0)

    @pytest.mark.parametrize("eta", [1.25, -1.25])
    def test_quadrature_vs_closed_form_t40(self, eta):
        # 60 + 468 head panels; the tail's solve starts near 4 t^2 = 6400
        q = whittaker_l2_norm(eta, 40.0)
        cf = whittaker_norm_closed_form(eta, 40.0)
        assert q == pytest.approx(cf, rel=1e-11, abs=0)

    @pytest.mark.parametrize("eta", [20.0, -20.0])
    @pytest.mark.parametrize("t", [1.0, 20.0])
    def test_quadrature_vs_closed_form_strong_eta(self, eta, t):
        q = whittaker_l2_norm(eta, t)
        assert q == pytest.approx(whittaker_norm_closed_form(eta, t), rel=1e-11, abs=0)

    @pytest.fixture
    def routes(self, monkeypatch):
        """Head nodes the series refuses under its envelope rule, per call; the
        nodes Miller's recurrence serves, per call; and the ODE solves
        requested, as (y_min, y_max)."""
        refused, millers, solves = [], [], []
        series, miller, solution = whittaker._series, whittaker._miller, whittaker.whittaker_solution

        def series_spy(eta, mu2, ys, envelope=False):
            ws, certified = series(eta, mu2, ys, envelope)
            if envelope:
                refused.append(ys[~certified])
            return ws, certified

        def miller_spy(eta, t, ys, depth):
            millers.append(ys)
            return miller(eta, t, ys, depth)

        def solution_spy(eta, mu, y_min, y_max):
            solves.append((y_min, y_max))
            return solution(eta, mu, y_min, y_max)

        monkeypatch.setattr(whittaker, "_series", series_spy)
        monkeypatch.setattr(whittaker, "_miller", miller_spy)
        monkeypatch.setattr(whittaker, "whittaker_solution", solution_spy)
        return refused, millers, solves

    def test_refused_head_nodes_go_to_the_ode(self, routes):
        # near y = 4 = 2t the sum cancels by more than 1e3 against its largest term;
        # the ODE serves those nodes alone, and Miller's recurrence the 960 tail nodes
        refused, millers, solves = routes
        q = whittaker_l2_norm(20.0, 2.0)
        assert q == pytest.approx(whittaker_norm_closed_form(20.0, 2.0), rel=1e-11, abs=0)
        (nodes,) = refused
        assert 0 < nodes.size < 10
        assert solves == [(nodes.min(), nodes.max())]
        (tail,) = millers
        assert tail.size == 960 and tail.min() > 4.0

    @pytest.mark.parametrize("eta", [1.25, -1.25])
    def test_envelope_rule_certifies_every_head_node(self, routes, eta):
        # the pointwise rule would refuse nodes near the zeros of W
        refused, millers, solves = routes
        ts = (1.0, 2.0, 5.0, 10.0, 20.0, 40.0)
        for t in ts:
            whittaker_l2_norm(eta, t)
        assert len(refused) == 6 and all(nodes.size == 0 for nodes in refused)
        assert solves == []
        assert [(tail.size, tail.min() > 2.0 * t) for tail, t in zip(millers, ts)] == [
            (960, True)] * 6   # one Miller call per tail

    @pytest.mark.parametrize("eta, bound", [(1.25, 3e-13), (-1.25, 3e-13), (2.25, 3e-13),
                                            (-2.25, 3e-13), (4.25, 3e-13), (-4.25, 3e-12)])
    def test_envelope_certified_nodes_against_mpmath(self, eta, bound):
        # a node the envelope rule certifies may sit near a zero of W, so its error
        # is taken against the largest 40-digit |W| in a +-10% y-window: the nodes
        # are a grid of ratio 1.1 over the head's [0.05, 2t], each window a node and
        # its two neighbours.  Measured worst 1.05e-13 (eta = -2.25, t = 2); at
        # eta = -4.25, 2.1e-12 at t = 2, y = 3.64, a node the pointwise rule also
        # certifies, within the series' 4.1e-12 relative
        for t in (1.0, 2.0, 5.0, 10.0):
            ys = np.geomspace(0.05, 2.0 * t, round(math.log(40.0 * t) / math.log(1.1)) + 1)
            with mp.workdps(40):
                ref = np.array([float(mp.re(mp.whitw(eta, 1j * t, y))) for y in ys])
            ws, certified = whittaker._series(eta, -t * t, ys, envelope=True)
            window = np.maximum.reduce([np.abs(ref[:-2]), np.abs(ref[1:-1]), np.abs(ref[2:])])
            inner = certified[1:-1]
            assert inner.sum() >= 0.9 * inner.size
            assert np.all(np.abs(ws - ref)[1:-1][inner] <= bound * window[inner]), t


class TestUniformRatio:
    def test_matches_scalar(self):
        r1 = whittaker_uniform_ratio(1.25, 2.0, 1.5)
        r2 = whittaker_uniform_ratio_grid(1.25, 2.0, [1.5])[0]
        assert r1 == pytest.approx(r2, rel=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            whittaker_uniform_ratio(1.25, 0.5, 0.3)   # t < 1
        with pytest.raises(ValueError):
            whittaker_uniform_ratio(1.25, 2.0, 3.5)   # y > 1.5 t

    def test_bounded_near_zero(self):
        # refinement grid toward y -> 0+ stays bounded
        t = 5.0
        ys = np.geomspace(1e-4, 0.5, 25) * t
        r = whittaker_uniform_ratio_grid(1.25, t, ys)
        assert np.all(np.isfinite(r))
        assert r.max() < 10.0

    def test_finite_sup_both_signs(self):
        for eta in (1.25, -1.25):
            sup = 0.0
            for t in (1.0, 2.0, 5.0, 10.0, 20.0, 40.0):
                ys = np.array([0.1, 0.5, 1.0, 1.4]) * t
                sup = max(sup, whittaker_uniform_ratio_grid(eta, t, ys).max())
            assert math.isfinite(sup)


class TestLowerBound:
    def test_strictly_positive(self):
        v = whittaker_lower_bound_check(1.25, 5.0, 1.0 / (8 * math.pi))
        assert v > 0

    def test_band_across_t(self):
        vals = [whittaker_lower_bound_check(1.25, t, 1.0 / (8 * math.pi))
                for t in (1.0, 3.0, 10.0, 30.0)]
        assert min(vals) > 0
        assert max(vals) / min(vals) < 10.0

    def test_monotone_in_alpha(self):
        # enlarging the domain (smaller alpha) never decreases the integral
        t = 4.0
        big = whittaker_lower_bound_check(1.25, t, 0.5 / (8 * math.pi))
        small = whittaker_lower_bound_check(1.25, t, 1.0 / (8 * math.pi))
        assert big >= small

    def test_pinned_value(self):
        # pinned from a quadrature state carried along the ODE; the series head
        # over [15, 60] plus the Miller tail over [60, 152] reproduce it to 1.4e-12
        v = whittaker_lower_bound_check(-1.25, 30.0, 1.0 / (8 * math.pi))
        assert v == pytest.approx(25.55578817564735, rel=1e-10)

    @pytest.mark.parametrize("eta, t, ref", [
        (1.25, 1.0, 30.960308178826921), (-1.25, 2.0, 19.438815315017428),
        (-1.25, 5.0, 24.291861018232426)])
    def test_against_mpmath_quadrature(self, eta, t, ref):
        # ref: 20-digit mp.quad of 4 pi re(whitw)^2 / u^2 from t/2, recomputed here
        with mp.workdps(20):
            integral = mp.quad(lambda u: mp.re(mp.whitw(eta, 1j * t, u)) ** 2 / u ** 2,
                               [mp.mpf(t) / 2, 2 * t, 4 * t + 20, mp.inf])
            value = float(4 * mp.pi * integral / (mp.mpf(t) ** (2 * eta - 1) * mp.exp(-mp.pi * t)))
        assert value == pytest.approx(ref, rel=1e-14)
        assert whittaker_lower_bound_check(eta, t, 1.0 / (8 * math.pi)) == pytest.approx(
            value, rel=1e-11)

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            whittaker_lower_bound_check(1.25, 2.0, 0.5)  # above 3/(8 pi)


class TestOdeConsistency:
    @pytest.mark.parametrize("eta, t, ys", [
        (1.25, 2.0, np.linspace(0.5, 8.0, 31)),
        (-1.25, 5.0, np.linspace(10.0, 18.0, 9)[1:]),
        (1.25, 20.0, np.linspace(40.0, 72.0, 9)[1:]),
        (0.0, 1.0, np.linspace(2.0, 3.6, 9)[1:]),
    ], ids=["t2-both-routes", "t5-above-2t", "t20-above-2t", "t1-above-2t"])
    def test_grid_against_mpmath(self, eta, t, ys):
        # the series below 2t, Miller's recurrence above it, where it serves every point
        got = whittaker_W_grid(eta, 1j * t, ys)
        with mp.workdps(40):
            ref = np.array([float(mp.re(mp.whitw(eta, 1j * t, y))) for y in ys])
        assert np.all(np.abs(got - ref) <= 1e-11 * np.abs(ref))

    def test_real_output_on_grid(self):
        vals = whittaker_W_grid(1.25, 2j, np.linspace(0.5, 10.0, 40))
        assert vals.dtype == np.float64
        assert np.all(np.isfinite(vals))


class TestWorkingRange:
    @pytest.mark.parametrize("eta, mu, name", [
        (20.5, 2j, "eta"), (-100.0, 5j, "eta"), (0.0, 250.5j, "mu"), (1.0, 1e160j, "mu"),
        (1.0, 30.5, "mu"), (math.nan, 1j, "eta")])
    def test_outside_refused(self, eta, mu, name):
        with pytest.raises(ValueError, match=rf"needs \|{name}\| <="):
            whittaker_W(eta, mu, 1.0)

    @pytest.mark.parametrize("eta, mu, y", [(-20.0, 250j, 1.0), (20.0, 5j, 7.5), (1.0, 30.0, 2.0)])
    def test_edges_accurate(self, eta, mu, y):
        with mp.workdps(40):
            ref = float(mp.re(mp.whitw(eta, mu, y)))
        assert whittaker_W(eta, mu, y) == pytest.approx(ref, rel=1e-8)


class TestSeriesRoute:
    """Below the turning point, imaginary mu: the 1F1 series against the ODE
    solve and 40-digit mpmath."""

    @pytest.mark.parametrize("eta", [1.25, -1.25])
    def test_against_ode_and_mpmath_on_c5_grid(self, eta):
        # the grid of whittaker_ratio_suite at its doubled resolution
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for i, t in enumerate(np.geomspace(1.0, 40.0, 12)):
                ys = np.linspace(0.02, 1.5, 24) * t
                series, certified = whittaker._series(eta, -t * t, ys)
                assert certified.all()
                assert np.array_equal(whittaker_W_grid(eta, 1j * t, ys), series)
                ode = whittaker_solution(eta, 1j * t, ys.min(), ys.max()).w_values(ys)
                assert np.max(np.abs(series - ode)) <= 1e-10 * np.max(np.abs(ode))
                if i % 2 == 0:
                    with mp.workdps(40):
                        ref = np.array([float(mp.re(mp.whitw(eta, 1j * t, y))) for y in ys])
                    assert np.all(np.abs(series - ref) <= 5e-12 * np.abs(ref))

    @pytest.mark.parametrize("eta, t, ys", [(-20.0, 1.0, [1.5, 2.0]), (-20.0, 250.0, [500.0])])
    def test_uncertified_points_go_to_the_ode(self, eta, t, ys):
        # cond = 4.6e6 and 1.2e8 at t = 1, 5e14 at t = 250
        ys = np.array(ys)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, certified = whittaker._series(eta, -t * t, ys)
            got = whittaker_W_grid(eta, 1j * t, ys)
        assert not certified.any()
        assert np.array_equal(got, whittaker_solution(eta, 1j * t, ys.min(), ys.max()).w_values(ys))
        with mp.workdps(40):
            for y, w in zip(ys, got):
                assert w == pytest.approx(float(mp.re(mp.whitw(eta, 1j * t, y))), rel=1e-8)

    def test_points_above_twice_t_go_to_miller(self, monkeypatch):
        def no_ode(*args):
            raise AssertionError("ODE solved at mu = 2i")

        monkeypatch.setattr(whittaker, "whittaker_solution", no_ode)
        ys = np.array([1.0, 3.0, 6.0])
        got = whittaker_W_grid(1.25, 2j, ys)
        assert got[:2].tolist() == whittaker._series(1.25, -4.0, ys[:2])[0].tolist()
        assert got[2] == whittaker._miller(1.25, 2.0, ys[2:],
                                           whittaker._miller_depth(1.25, 2.0, ys[2:]))[0]


class TestRealMuSeries:
    """Real mu, 2 mu not an integer: the two-term 1F1 series at any y, against
    40-digit mpmath; 2 mu an integer and refused points go to the ODE."""

    ETAS = (0.0, 1.25, -1.25, 2.25, -2.25, 4.25, -4.25, 6.25, -6.25, 20.0, -20.0)

    @pytest.mark.parametrize("eta, mu, y", [
        (2.25, 0.25, 1e-100), (2.25, 0.25, 1e-40), (-2.25, 0.25, 1e-130)])
    def test_tiny_y_in_milliseconds(self, eta, mu, y):
        # the ODE stopped at its step size, missed by 1.2e-11, or ran past a minute
        t0 = time.perf_counter()
        got = whittaker_W(eta, mu, y)
        elapsed = time.perf_counter() - t0
        with mp.workdps(40):
            ref = float(mp.whitw(eta, mu, y))
        assert got == pytest.approx(ref, rel=5e-12)
        assert elapsed < 0.1

    @pytest.mark.parametrize("mu, bound", [(0.25, 1e-11), (0.3, 1e-11), (1.7, 1e-11),
                                           (29.3, 3e-11)])
    def test_certified_points_within_stated_bound(self, mu, bound):
        ys = np.geomspace(1e-8, 60.0, 25)
        n_certified = 0
        for eta in self.ETAS:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                ws, certified = whittaker._series(eta, mu * mu, ys)
            n_certified += certified.sum()
            with mp.workdps(40):
                ref = np.array([float(mp.whitw(eta, mu, y)) for y in ys[certified]])
            assert np.all(np.abs(ws[certified] - ref) <= bound * np.abs(ref))
        assert n_certified >= 0.8 * ys.size * len(self.ETAS)

    @pytest.mark.parametrize("mu", [0.5, 1.0, 10.0, 5.0, 30.0])
    def test_integer_two_mu_goes_to_the_ode(self, monkeypatch, mu):
        def no_series(*args, **kwargs):
            raise AssertionError("series tried at an integer 2 mu")

        monkeypatch.setattr(whittaker, "_series", no_series)
        ys = np.array([0.5, 2.0, 7.0])
        got = whittaker_W_grid(1.25, mu, ys)
        assert np.array_equal(got, whittaker_solution(1.25, mu, 0.5, 7.0).w_values(ys))

    @pytest.mark.parametrize("eta, mu, y", [(-20.0, 29.3, 1e-300), (20.0, 29.3, 1e-300),
                                            (0.0, 0.3, 800.0), (-6.25, 12.6, 1500.0)])
    def test_overflow_refused_quietly(self, eta, mu, y):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, certified = whittaker._series(eta, mu * mu, np.array([y]))
        assert not certified.any()

    def test_refused_point_served_by_the_ode(self):
        ys = np.array([1.0, 800.0])
        got = whittaker_W_grid(0.0, 0.3, ys)
        assert got[0] == whittaker._series(0.0, 0.09, ys[:1])[0][0]
        assert got[1] == whittaker_solution(0.0, 0.3, 800.0, 800.0).w_values(800.0)[0]
        with mp.workdps(40):
            assert got[1] == pytest.approx(float(mp.whitw(0, 0.3, 800)), rel=1e-8)


class TestMillerRoute:
    """Imaginary mu above the turning point: Miller's recurrence in a for
    U(a, b, y), against deeper runs of itself and 40-digit mpmath."""

    ETAS = (0.0, 1.25, -1.25, 2.25, -2.25, 4.25, -4.25, 20.0, -20.0)
    TS = (1.0, 2.0, 5.0, 10.0, 40.0, 150.0, 250.0)

    @staticmethod
    def tail_ys(eta, t, n):
        """n points log-spaced from 2t to the top of the c4 tail."""
        y_hi = math.pi * t + 40.0 + 4.0 * abs(eta) * math.log(t + 2.0)
        return np.geomspace(2.0 * t, y_hi, n)

    def test_depth_covers_convergence(self):
        # N(y) / 1.2 levels already reach 1e-15 of a run four times as deep, so
        # N(y) is at least 1.2 times the smallest depth that reaches 1e-15
        for eta in self.ETAS:
            for t in self.TS:
                ys = self.tail_ys(eta, t, 12)
                depth = whittaker._miller_depth(eta, t, ys)
                ref = whittaker._miller(eta, t, ys, 4 * depth)
                got = whittaker._miller(eta, t, ys, (depth / 1.2).astype(np.int64))
                assert np.all(np.abs(got - ref) <= 1e-15 * np.abs(ref)), (eta, t)

    @pytest.mark.parametrize("eta", [0.0, 1.25, -1.25, 20.0, -20.0])
    def test_against_mpmath(self, eta):
        for t in (1.0, 5.0, 40.0, 150.0):
            ys = self.tail_ys(eta, t, 4)[1:]
            got = whittaker_W_grid(eta, 1j * t, ys)
            with mp.workdps(40):
                ref = np.array([float(mp.re(mp.whitw(eta, 1j * t, y))) for y in ys])
            assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref)), t

    def test_underflow_point(self):
        # W = 1.5e-281 while e^{-y/2} = e^{-750} alone underflows: W in one exponent.
        # ref: 40-digit mp.whitw(20, 250j, 1500), 2 s to recompute
        ref = 1.4950772391234801e-281
        assert whittaker_W(20.0, 250j, 1500.0) == pytest.approx(ref, rel=1e-13, abs=0)

    def test_past_max_depth_goes_to_the_ode(self):
        # at t = 0.01 the depth just above 2t is 17700 levels, past the 4000 cap
        ys = np.array([0.03, 5.0])
        assert whittaker._miller_depth(0.0, 0.01, ys)[0] > whittaker._MILLER_MAX_DEPTH
        got = whittaker_W_grid(0.0, 0.01j, ys)
        assert got[0] == whittaker_solution(0.0, 0.01j, 0.03, 0.03).w_values(0.03)[0]
        with mp.workdps(40):
            ref = [float(mp.re(mp.whitw(0, 0.01j, y))) for y in ys]
        assert got.tolist() == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("y", [1e4, 1e12, 1e300])
    def test_far_tail_is_zero(self, y):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert whittaker_W_grid(-20.0, 1j, [y]).tolist() == [0.0]

    def test_norm_and_mellin_suites_solve_no_ode(self):
        before = whittaker._solve_scaled.cache_info()
        assert suites.whittaker_norm_suite()[3] and suites.mellin_suite()[3]
        assert whittaker._solve_scaled.cache_info() == before
