import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from theta_shift import expsums
from theta_shift.arith import char_from_kronecker, inverse_mod, kronecker, trivial_character
from theta_shift.expsums import (
    kloosterman_factored,
    kloosterman_grid,
    kloosterman_naive,
    random_admissible_tuple,
    salie_naive,
    salie_values,
    verify_weil,
    weil_ratio_grid,
)
from theta_shift.harness.suites import default_characters

CHI4 = trivial_character(4)


def phi(c):
    return sum(1 for d in range(1, c + 1) if math.gcd(d, c) == 1)


class TestKloostermanNaive:
    def test_two_term_example(self):
        res = kloosterman_naive(0, 0, 4, 1, CHI4)
        assert abs(res.value - (1 + 1j)) < 1e-14

    def test_bound_field(self):
        res = kloosterman_naive(1, 1, 4, 1, CHI4)
        # 4 tau(4) gcd(1,1,4)^(1/2) 4^(1/2) 4^(1/2) = 4*3*1*2*2
        assert res.bound == pytest.approx(48.0)
        assert abs(res.value) <= res.bound

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            kloosterman_naive(0, 0, 6, 1, CHI4)   # 4 does not divide 6
        with pytest.raises(ValueError):
            kloosterman_naive(0, 0, 4, 2, CHI4)   # even ell
        chi12 = char_from_kronecker(12, 12)
        with pytest.raises(ValueError):
            kloosterman_naive(0, 0, 8, 1, chi12)  # lcm(4,12)=12 does not divide 8

    @given(st.integers(-50, 50), st.integers(-50, 50), st.integers(1, 10),
           st.sampled_from([1, 3, 5, -1]))
    @settings(max_examples=60, deadline=None)
    def test_conjugation_symmetry(self, m, n, cc, ell):
        c = 4 * cc
        a = kloosterman_naive(m, n, c, ell, CHI4).value
        b = kloosterman_naive(-m, -n, c, -ell, CHI4).value
        assert abs(a.conjugate() - b) < 1e-10 * phi(c)

    def test_grid_matches_pointwise(self):
        chi = char_from_kronecker(12, 12)
        grid = kloosterman_grid(12, 3, chi)
        for m in range(12):
            for n in range(12):
                assert abs(grid[m, n] - kloosterman_naive(m, n, 12, 3, chi).value) < 1e-10


class TestSalie:
    def test_character_sum_vanishes(self):
        assert abs(salie_naive(0, 0, 7, trivial_character(7)).value) < 1e-12

    def test_gauss_sum_magnitude(self):
        for (p, n) in ((7, 3), (11, 1), (13, 5)):
            res = salie_naive(0, n, p, trivial_character(p))
            assert abs(abs(res.value) - math.sqrt(p)) < 1e-10

    def test_prime_power_bound_example(self):
        res = salie_naive(1, 1, 9, trivial_character(9))
        assert res.bound == pytest.approx(9.0)  # tau(9) * 1 * 3 * 1
        assert abs(res.value) <= res.bound

    def test_v2_domain(self):
        with pytest.raises(ValueError):
            salie_naive(0, 1, 14, trivial_character(7))  # v2 = 1
        salie_naive(0, 1, 28, trivial_character(7))      # v2 = 2: fine

    def test_batch_matches_pointwise(self):
        chi = trivial_character(9)
        pairs = np.array([(0, 0), (1, 2), (3, 3), (9, 9)])
        vals = salie_values(9, chi, pairs)
        for (m, n), v in zip(pairs, vals):
            assert abs(v - salie_naive(int(m), int(n), 9, chi).value) < 1e-12


class TestFactored:
    def test_pure_two_power_reduces_to_naive(self):
        for c in (4, 8, 64):
            a = kloosterman_naive(3, 5, c, 1, CHI4).value
            b = kloosterman_factored(3, 5, c, 1, CHI4).value
            assert abs(a - b) < 1e-12

    def test_mixed_modulus(self):
        a = kloosterman_naive(1, 2, 36, 1, CHI4).value
        b = kloosterman_factored(1, 2, 36, 1, CHI4).value
        assert abs(a - b) <= 1e-8 * phi(36)

    @given(st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_random_tuples_match(self, seed):
        rng = np.random.default_rng(seed)
        chars = [CHI4, char_from_kronecker(12, 12), char_from_kronecker(-7, 28)]
        m, n, c, ell, chi = random_admissible_tuple(rng, 2000, chars)
        a = kloosterman_naive(m, n, c, ell, chi).value
        b = kloosterman_factored(m, n, c, ell, chi).value
        assert abs(a - b) <= 1e-8 * phi(c)

    def test_bezout_freedom(self):
        # shifting rbar by multiples of s (and sbar to match) leaves the
        # factored identity unchanged
        c, ell = 5 * 16, 1
        m, n = 3, 11
        s, r = 16, 5
        chi = CHI4
        base = kloosterman_naive(m, n, c, ell, chi).value
        for shift in (-2, -1, 0, 1, 3):
            rbar = inverse_mod(r, s) + shift * s
            sbar = (1 - rbar * r) // s
            assert rbar * r + sbar * s == 1
            left = salie_naive(m * sbar, n * sbar, r, trivial_character(1)).value
            right = kloosterman_naive(m * rbar, n * rbar, s, ell + r - 1, CHI4).value
            assert abs(left * right - base) < 1e-8 * phi(c)


class TestMultiplicativityRelations:
    def test_kloosterman_twist_relation(self, rng):
        # K(m,n;rs;chi) = S(m sbar, n sbar; r; chi_r) K_{ell+r-1}(m rbar, n rbar; s; chi_s)
        from theta_shift.arith import char_factor

        cases = [(3, 16, CHI4), (9, 64, char_from_kronecker(12, 576)),
                 (7, 4, char_from_kronecker(-7, 28)), (25, 8, CHI4)]
        for r, s, chi in cases:
            c = r * s
            if c % math.lcm(4, chi.modulus) != 0:
                continue
            chi_r, chi_s = char_factor(chi, r, s)
            rbar = inverse_mod(r, s)
            sbar = (1 - rbar * r) // s
            for _ in range(5):
                m = int(rng.integers(-3 * c, 3 * c))
                n = int(rng.integers(-3 * c, 3 * c))
                for ell in (1, 3):
                    lhs = kloosterman_naive(m, n, c, ell, chi).value
                    rhs = (salie_naive(m * sbar, n * sbar, r, chi_r).value
                           * kloosterman_naive(m * rbar, n * rbar, s, ell + r - 1, chi_s).value)
                    assert abs(lhs - rhs) < 1e-8 * phi(c)

    def test_salie_twist_relation(self, rng):
        from theta_shift.arith import char_factor

        cases = [(9, 25, trivial_character(1)), (7, 9, trivial_character(7)),
                 (4, 45, trivial_character(1)), (25, 49, trivial_character(35))]
        for r, s, chi in cases:
            c = r * s
            if c % chi.modulus != 0 or ((c & -c).bit_length() - 1) == 1:
                continue
            chi_r, chi_s = char_factor(chi, r, s)
            rbar = inverse_mod(r, s)
            sbar = (1 - rbar * r) // s
            for _ in range(5):
                m = int(rng.integers(-2 * c, 2 * c))
                n = int(rng.integers(-2 * c, 2 * c))
                lhs = salie_naive(m, n, c, chi).value
                rhs = (salie_naive(m * sbar, n * sbar, r, chi_r).value
                       * salie_naive(m * rbar, n * rbar, s, chi_s).value)
                assert abs(lhs - rhs) < 1e-8 * phi(c)


class TestWeil:
    def test_degenerate_gcd_saturation(self):
        r = verify_weil(0, 0, 4, 1, CHI4)
        assert r == pytest.approx(math.sqrt(2) / 96.0)

    def test_small_exhaustive(self):
        for c in (4, 8, 12, 16):
            for ell in (1, 3):
                assert weil_ratio_grid(c, ell, CHI4) <= 1.0

    def test_random_batch(self, rng):
        for _ in range(50):
            m, n, c, ell, chi = random_admissible_tuple(rng, 512, [CHI4])
            assert verify_weil(m, n, c, ell, chi) <= 1.0


def _scalar_sum_table(c, chi, ell=None):
    """Reference route: the twist tables by per-unit scalar loops."""
    units = np.array([d for d in range(c) if math.gcd(d, c) == 1], dtype=np.int64)
    invs = np.array([inverse_mod(int(d), c) for d in units], dtype=np.int64)
    chiv = np.conjugate(np.array([complex(chi(int(d))) for d in units]))
    if ell is None:
        kron = np.array([kronecker(int(d), c) for d in units], dtype=np.float64)
        return units, invs, chiv * kron
    eps = np.array([1 if d % 4 == 1 else (1, 1j, -1, -1j)[ell % 4] for d in units])
    kron = np.array([kronecker(c, int(d)) for d in units], dtype=np.float64)
    return units, invs, eps * chiv * kron


class TestTwistTablesAreExactIntegersSoSumsAreBitStable:
    """Every table entry is an integer or a power of i, so the vector tables
    equal the scalar ones exactly and every sum is unchanged bit for bit."""

    CHARS = default_characters()

    @staticmethod
    def _both_routes(monkeypatch, fn):
        vector = fn()
        with monkeypatch.context() as mp:
            mp.setattr(expsums, "_sum_table", _scalar_sum_table)
            scalar = fn()
        return vector, scalar

    @staticmethod
    def _same_table(c, chi, ell=None):
        got = expsums._sum_table(c, chi, ell)
        ref = _scalar_sum_table(c, chi, ell)
        for a, b in zip(got, ref):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("c", [4, 36, 4096, 10_000])
    def test_kloosterman_naive_and_factored(self, monkeypatch, c):
        for chi in self.CHARS:
            step = math.lcm(4, chi.modulus)
            cc = max(step, c - c % step)
            for ell in (1, 3, -1):
                self._same_table(cc, chi, ell)
            for fn in (kloosterman_naive, kloosterman_factored):
                for m, n, ell in ((0, 0, 1), (1, 1, 3), (-7, 12, -1), (cc + 5, 2 * cc - 3, 5)):
                    vec, ref = self._both_routes(monkeypatch, lambda: fn(m, n, cc, ell, chi).value)
                    assert vec == ref

    @pytest.mark.parametrize("c", [12, 120])
    def test_kloosterman_grid(self, monkeypatch, c):
        for chi in self.CHARS:
            if c % math.lcm(4, chi.modulus):
                continue
            for ell in (1, 3):
                vec, ref = self._both_routes(monkeypatch, lambda: kloosterman_grid(c, ell, chi))
                assert vec.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("c, chi", [
        (1, trivial_character(1)),
        (3**5, trivial_character(1)),
        (3**5, char_from_kronecker(-3, 3)),
        (5**3, char_from_kronecker(5, 5)),
        (4913, trivial_character(1)),
        (28, trivial_character(1)),
        (28, char_from_kronecker(-7, 28)),
    ])
    def test_salie_values(self, monkeypatch, rng, c, chi):
        self._same_table(c, chi)
        pairs = rng.integers(-3 * c, 3 * c, size=(25, 2))
        vec, ref = self._both_routes(monkeypatch, lambda: salie_values(c, chi, pairs))
        assert vec.tobytes() == ref.tobytes()
