import math

import mpmath as mp
import numpy as np
import pytest

from theta_shift.specfun import besselj
from theta_shift.specfun.besselj import bessel_J_imag_order
from theta_shift.specfun.gammafun import log_gamma

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
        for bad in (0.0, -2.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="argument must be positive and finite"):
                bessel_J_imag_order(1.0, np.array([[3.0, 20.0], [bad, 50.0]]))

    def test_array_equals_elementwise_across_branches(self, rng):
        # Miller (q <= 14, and 14 < q < 12 t^2 at |t| <= 6) and Hankel
        # (12 t^2 <= q) interleaved in one 2-D array
        for t in (0.0, 0.5, -1.1, 3.0):
            q = rng.permutation(np.concatenate([
                np.geomspace(1e-3, 14.0, 25), np.linspace(14.01, 12 * t * t, 6)[1:-1],
                np.geomspace(max(12 * t * t, 14.01), 400.0, 15)]))
            q = q[: q.size - q.size % 2].reshape(2, -1)
            got = bessel_J_imag_order(t, q)
            assert got.shape == q.shape and got.dtype == np.complex128
            each = np.array([[bessel_J_imag_order(t, float(v)) for v in row] for row in q])
            assert np.array_equal(got, each)

    def test_return_types(self):
        for q in (2.0, 30.0, np.float64(30.0), np.array(30.0), 5):
            assert type(bessel_J_imag_order(1.3, q)) is complex
        for q in ([2.0, 30.0], np.array([2.0]), np.ones((2, 3))):
            got = bessel_J_imag_order(1.3, q)
            assert isinstance(got, np.ndarray) and got.shape == np.shape(q)
            assert got.dtype == np.complex128

    def test_mpmath_only_between_series_and_hankel(self, monkeypatch):
        # Miller's recurrence serves the band 14 < q < 12 t^2 up to |t| = 6;
        # mpmath only the band beyond it
        seen = []
        real_besselj = mp.besselj

        def spy(nu, z):
            seen.append((float(mp.im(nu)) / 2.0, float(z)))
            return real_besselj(nu, z)

        monkeypatch.setattr(mp, "besselj", spy)
        expected = []
        for t in (0.2, 1.0, 1.5, 4.0, 6.0, -6.0, 6.5, -7.0):
            q = np.concatenate([np.linspace(0.5, 14.0, 9), np.geomspace(14.001, 300.0, 25)])
            bessel_J_imag_order(t, q)
            expected += [(t, float(v)) for v in q
                         if 14.0 < v < 12.0 * t * t and abs(t) > besselj._MILLER_MAX_T]
        assert seen == expected
        assert len(expected) > 0

    def test_miller_band_against_mpmath(self):
        # 12 q per t across 14 < q < 12 t^2, against 40 digits beyond the
        # 0.9 q that mpmath's series loses; measured worst 1.8e-14 at |t| <= 3
        # and 5.8e-11 up to t = 6: the error grows about tenfold per unit t
        worst = {3.0: 0.0, 6.0: 0.0}
        for t in np.concatenate([np.linspace(1.08, 6.0, 13), [-2.5, -6.0]]):
            q = np.linspace(14.0, 12.0 * t * t, 13)[1:]
            got = besselj._miller(t, q)
            for v, g in zip(q, got):
                with mp.workdps(40 + int(0.9 * v)):
                    ref = complex(mp.besselj(2j * mp.mpf(t), mp.mpf(v)))
                key = 3.0 if abs(t) <= 3.0 else 6.0
                worst[key] = max(worst[key], abs(g - ref) / abs(ref))
        print(f"worst relative error of Miller's recurrence: {worst}")
        assert worst[3.0] <= 1e-13
        assert worst[6.0] <= 2e-10

    def test_miller_rescales_below_the_band(self):
        # Miller serves q <= 14 at every t; from q = 0.5 on it starts above level 16
        # and rescales.  The leading factor (q/2)^nu / Gamma(nu + 1) is divided out on
        # both sides: the rounding of its phase 2t log(q/2), common to every route,
        # reaches 1.5e-14 at t = 3 and 3.9e-13 at t = 50.  Measured worst 1.1e-15
        q = np.array([1e-8, 1e-6, 1e-3, 0.5, 5.0, 14.0])
        for t in (0.0, 0.5, -3.0, 10.0, 50.0):
            nu = 2j * t
            got = besselj._miller(t, q) / np.exp(nu * np.log(q / 2.0) - log_gamma(nu + 1.0))
            with mp.workdps(40):
                mu = 2j * mp.mpf(t)
                ref = np.array([complex(mp.besselj(mu, v) * mp.gamma(1 + mu) / (mp.mpf(v) / 2) ** mu)
                                for v in q])
            assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref)), t

    def test_depth_covers_convergence_below_the_band(self, monkeypatch):
        # N(q) / 1.2 levels already reach a run four times as deep, so N(q) is at
        # least 1.2 times the smallest depth that does, as for Whittaker's Miller
        # depth.  The gap is measured against max(|J_nu|, |J_(nu+1)|), since near a
        # zero of J_nu both runs round at a few 1e-15 of |J_nu|, and it is bounded
        # at 1.5e-15: from t = 1 to 6 the runs from 3N and 4N already differ by up to
        # 1.2e-15 by rounding alone.  Measured: N/1.2 within 1.05e-15, N/1.5 off by
        # up to 5.1e-13
        q = np.geomspace(2.1e-8, 14.0, 60)
        depth = besselj._depth
        for t in (0.0, 0.01, 0.3, 1.0, 2.0, 3.0, 6.0, 10.0, 50.0):
            with mp.workdps(20):
                amp = np.array([float(max(abs(mp.besselj(2j * t + n, v)) for n in (0, 1)))
                                for v in q])
            monkeypatch.setattr(besselj, "_depth", lambda q: 4 * depth(q))
            ref = besselj._miller(t, q)
            monkeypatch.setattr(besselj, "_depth", lambda q: np.floor(depth(q) / 1.2))
            got = besselj._miller(t, q)
            assert np.all(np.abs(got - ref) <= 1.5e-15 * amp), t

    def test_mpmath_never_below_fourteen(self, monkeypatch):
        # at |t| > 6 mpmath serves the band 14 < q < 12 t^2, and Miller every q <= 14
        seen = []
        boosted = besselj._series_boosted
        monkeypatch.setattr(besselj, "_series_boosted",
                            lambda t, q: seen.append(q) or boosted(t, q))
        q = np.concatenate([np.geomspace(1e-8, 14.0, 25), [14.5, 30.0]])
        for t in (6.5, -7.0, 10.0, 50.0):
            assert np.all(np.isfinite(bessel_J_imag_order(t, q)))
        assert sorted(set(seen)) == [14.5, 30.0]

    def test_conjugate_symmetry_random(self, rng):
        # J_{-2it}(q) = conj(J_{2it}(q)), termwise in the series
        for _ in range(1000):
            t = float(rng.uniform(-3, 3))
            q = float(np.exp(rng.uniform(np.log(1e-3), np.log(120.0))))
            a = bessel_J_imag_order(t, q)
            b = bessel_J_imag_order(-t, q)
            assert abs(a.conjugate() - b) <= 1e-10 * max(abs(a), 1e-12)

    def test_against_reference(self):
        # the extra points sit just above q = 14 on the old Hankel edge
        # 16 t^2 = q and on the current one 12 t^2 = q, where its optimal
        # truncation is worst
        points = [(t, q) for t in (0.0, 0.05, 0.5, 1.0, 2.0, 5.0)
                  for q in (1e-3, 0.3, 2.0, 13.9, 14.1, 24.9, 25.1, 40.0, 200.0)]
        edge = [(t, 12.0 * t * t) for t in (1.081, 1.09, 1.2, 1.5, 2.0, 3.0)]
        worst = 0.0
        for t, q in points + [(0.93, 14.01), (1.2, 23.1)] + edge:
            got = bessel_J_imag_order(t, q)
            ref = complex(mp.besselj(2j * mp.mpf(t), mp.mpf(q)))
            worst = max(worst, abs(got - ref) / max(abs(ref), 1e-30))
        assert worst <= 1e-8

    def test_hankel_edge_band_against_boosted_mpmath(self):
        # the band 12 t^2 <= q < 16 t^2, q > 14, that the Hankel expansion
        # took over from mpmath.  Its truncation error peaks where the band
        # meets q = 14 (smallest term ~4e-11 at t = 1.08, ~1e-19 from t = 2
        # on), so (t, q) is dense below t = 3; above, one point per t on the
        # edge, since the reference costs ~q^2 (4 s at q = 1728)
        grid = [(t, q) for t in np.linspace(0.94, 3.0, 24, endpoint=False)
                for q in np.linspace(max(12.0 * t * t, 14.0 + 1e-9), 16.0 * t * t, 8,
                                     endpoint=False)]
        worst = 0.0
        for t, q in grid + [(t, 12.0 * t * t) for t in (3.0, 6.0, 12.0)]:
                got = bessel_J_imag_order(t, q)
                with mp.workdps(40 + int(0.9 * q)):
                    ref = complex(mp.besselj(2j * mp.mpf(t), mp.mpf(q)))
                worst = max(worst, abs(got - ref) / abs(ref))
        print(f"worst relative error on the 12t^2 <= q < 16t^2 band: {worst:.2e}")
        assert worst <= 1e-10

    def test_value_beyond_double_range_raises(self):
        # |J_(2it)(q)| grows like e^(pi t): at t = 1e9 it overflows a double
        with pytest.raises(RuntimeError, match=r"t=1e\+09, q=20 leaves double range"):
            bessel_J_imag_order(1e9, 20.0)

    def test_hankel_truncation_above_target_raises(self):
        # at t = 3, q = 15 the first term already grows: no truncation
        # reaches the 1e-8 target
        with pytest.raises(RuntimeError, match=r"t=3, q=15 .* above the 1e-08"):
            besselj._hankel(3.0, np.array([40.0, 15.0]))

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


def test_boosted_band_bounded_in_q():
    # mpmath's cost grows with its 0.9 q digits: q = 100000 at t = 100 ran for over 20 s
    assert np.isfinite(bessel_J_imag_order(100.0, 500.0))
    with pytest.raises(ValueError, match=r"q=2000.5 needs mpmath beyond its limit q <= 2000"):
        bessel_J_imag_order(100.0, np.array([3.0, 2000.5]))
    # the Hankel branch above 12 t^2 has no such limit
    assert np.isfinite(bessel_J_imag_order(1.0, 1e5))
