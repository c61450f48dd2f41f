import ast
import cmath
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from theta_shift import expsums
from theta_shift.arith import (
    char_from_kronecker,
    char_from_table,
    inverse_mod,
    kronecker,
    primes_upto,
    trivial_character,
)
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


@pytest.mark.parametrize("c", [0, -3, -4])
def test_modulus_below_one_rejected(c):
    # at c < 0 the unit table's square-and-multiply loop would never end; the
    # bounds read 0.0 or -4.0 at even c and failed inside divisor_count otherwise
    chi = trivial_character(1)
    evaluations = [lambda: kloosterman_naive(1, 1, c, 1, CHI4),
                   lambda: kloosterman_factored(1, 1, c, 1, CHI4),
                   lambda: salie_naive(1, 1, c, chi),
                   lambda: salie_values(c, chi, np.array([(1, 2)]))]
    for bound in (expsums.weil_bound, expsums.salie_bound):
        for m, n in ((1, 2), (np.array([1, 0]), np.array([2, 5]))):
            evaluations.append(lambda bound=bound, m=m, n=n: bound(m, n, c, chi))
    for evaluate in evaluations:
        with pytest.raises(ValueError, match=f"modulus must be >= 1, got c={c}"):
            evaluate()


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
        pairs = np.array([(1, 1)])
        with pytest.raises(ValueError, match=r"v2\(c\) != 1"):
            salie_values(6, trivial_character(3), pairs)
        with pytest.raises(ValueError, match=r"need N \| c"):
            salie_values(9, trivial_character(7), pairs)

    def test_batch_matches_pointwise(self):
        chi = trivial_character(9)
        pairs = np.array([(0, 0), (1, 2), (3, 3), (9, 9)])
        vals = salie_values(9, chi, pairs)
        for (m, n), v in zip(pairs, vals):
            assert abs(v - salie_naive(int(m), int(n), 9, chi).value) < 1e-12


class TestSalieTransformMatchesDirectSums:
    """salie_values takes every pair with a unit entry from Salie's closed form
    at odd c when chi is 1 on the units of c, and from one length-c transform
    otherwise; pointwise direct summation is the second route.  The transform
    stays the reference the closed form is held to, at the Jacobi twist too."""

    @staticmethod
    def _check(rng, c, chi):
        p = min(d for d in range(2, c + 1) if c % d == 0)
        pairs = np.array([(1, 0), (1, 1), (-1, c - 1), (0, 1), (p, 1), (p, -1), (0, 0),
                          (p, p), (c, c), (p, 2 * p), (1, p), (p, 0), (0, -p),
                          *rng.integers(-3 * c, 3 * c, (12, 2))])
        branch = {"m" if math.gcd(int(m), c) == 1 else "n" if math.gcd(int(n), c) == 1
                  else "neither" for m, n in pairs}
        assert branch == {"m", "n", "neither"}
        got = salie_values(c, chi, pairs)
        for (m, n), v in zip(pairs, got):
            assert abs(v - expsums._direct_sum(int(m), int(n), c, chi)) <= 1e-12 * math.sqrt(c)

    def test_odd_prime_powers(self, rng):
        for p in (int(p) for p in primes_upto(1000) if p % 2 == 1):
            for c in (p**a for a in range(1, 10) if p**a <= 1000):
                for chi in (trivial_character(1), char_from_kronecker(p if p % 4 == 1 else -p, p)):
                    self._check(rng, c, chi)

    @pytest.mark.parametrize("c, chi", [
        (28, trivial_character(1)),
        (28, char_from_kronecker(-7, 28)),
        (1024, trivial_character(1)),
        (1024, char_from_kronecker(8, 8)),
        (1024, char_from_kronecker(-4, 4)),
        (3996, trivial_character(1)),
        (3996, char_from_kronecker(12, 12)),
        (625, char_from_table(5, [0, 1, 1j, -1j, -1])),   # order 4: chi(2) = i
        (225, trivial_character(1)),        # odd composite squares: S(0, 0) = phi(c)
        (441, trivial_character(1)),
        (1155, trivial_character(1)),       # 3 * 5 * 7 * 11
        (1155, trivial_character(105)),     # principal mod N > 1: the closed form too
        (1155, char_from_kronecker(5, 5)),  # a quadratic chi on a composite c: the transform
    ])
    def test_other_moduli_and_characters(self, rng, c, chi):
        self._check(rng, c, chi)

    @pytest.mark.parametrize("c, chi", [(4999, trivial_character(1)),
                                        (4999, trivial_character(4999)),
                                        (3**7, trivial_character(3))])
    def test_jacobi_batches_make_no_fft(self, monkeypatch, rng, c, chi):
        def refuse(*args, **kwargs):
            raise AssertionError("called")

        pairs = np.array([(0, 0), (1, 0), (0, 1), (5, 7), *rng.integers(-3 * c, 3 * c, (20, 2))])
        with monkeypatch.context() as mp:
            mp.setattr(np.fft, "ifft", refuse)
            mp.setattr(np.fft, "fft", refuse)
            if primes_upto(c)[-1] == c:   # every pair but (0, 0) has a unit entry: no inverses
                mp.setattr(expsums, "unit_table", refuse)
            got = salie_values(c, chi, pairs)
        assert np.allclose(got, expsums._salie_transform(c, chi, pairs), rtol=0,
                           atol=1e-12 * math.sqrt(c))

    def test_transform_at_the_jacobi_twist(self, rng):
        # every odd prime power <= 5000, at the structured pairs of suite c3
        chi = trivial_character(1)
        for p in (int(p) for p in primes_upto(5000) if p % 2 == 1):
            for c in (p**a for a in range(1, 9) if p**a <= 5000):
                pairs = np.array([(0, 0), (0, 1), (1, 0), (1, 1), (p, 1), (p, p), (c, c),
                                  *rng.integers(-2 * c, 2 * c + 1, (5, 2))])
                units, invs, w = expsums._sum_table(c, chi)
                m, n = pairs[:, 0] % c, pairs[:, 1] % c
                direct = expsums._roots(c)[expsums._phase(m[:, None], n[:, None], c,
                                                          units, invs)] @ w
                transform = expsums._salie_transform(c, chi, pairs)
                assert np.max(np.abs(transform - direct)) <= 1e-12 * math.sqrt(c)
                assert np.max(np.abs(salie_values(c, chi, pairs) - transform)) \
                    <= 1e-12 * math.sqrt(c)


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


CHI_M7 = char_from_kronecker(-7, 28)


class TestSumsDependOnResiduesOnly:
    """m and n enter every sum and bound mod c only, however large they are:
    each is reduced before it meets an int64 table."""

    @pytest.mark.parametrize("fn", [kloosterman_naive, kloosterman_factored])
    def test_kloosterman(self, fn):
        assert fn(5 + 9996 * 10**14, 7, 9996, 1, CHI_M7) == fn(5, 7, 9996, 1, CHI_M7)
        assert fn(1 - 9996 * 10**30, 1 + 9996 * 10**20, 9996, 1, CHI_M7) == fn(
            1, 1, 9996, 1, CHI_M7)

    def test_salie_naive(self):
        chi = trivial_character(1)
        assert salie_naive(5 + 4999 * 10**15, 7, 4999, chi) == salie_naive(5, 7, 4999, chi)
        assert salie_naive(5, -7 * 4999 * 10**15, 4999, chi) == salie_naive(5, 0, 4999, chi)

    @pytest.mark.parametrize("c, chi", [
        (4999, trivial_character(1)),
        (3**5, char_from_kronecker(-3, 3)),
        (5**5, char_from_kronecker(5, 5)),
    ])
    def test_salie_values(self, rng, c, chi):
        pairs = rng.integers(-3 * c, 3 * c, size=(25, 2))
        for shift in (c * 10**14, -c * 10**14):
            got = salie_values(c, chi, pairs + shift)
            assert got.tobytes() == salie_values(c, chi, pairs).tobytes()


class TestBoundsOnArrays:
    """weil_bound and salie_bound take int arrays m, n and give, element by
    element, exactly the scalar call's value."""

    @pytest.mark.parametrize("bound, c, chi", [
        (expsums.weil_bound, 96, char_from_kronecker(12, 12)),
        (expsums.weil_bound, 9996, CHI_M7),
        (expsums.salie_bound, 3**5, char_from_kronecker(-3, 3)),
        (expsums.salie_bound, 4999, trivial_character(1)),
        (expsums.salie_bound, 3 * 5 * 7 * 11, trivial_character(1)),
        (expsums.salie_bound, 8, trivial_character(1)),      # even c: phi(c)
        (expsums.salie_bound, 28, CHI_M7),
        (expsums.salie_bound, 1, trivial_character(1)),
    ])
    def test_array_equals_scalar_calls(self, rng, bound, c, chi):
        ms = np.array([0, 0, 1, -1, c, -c, 3 * c, 2, -2 * c + 6, *rng.integers(-5 * c, 5 * c, 20)])
        ns = np.array([0, 1, 0, -1, c, 2 * c, -c, 3, 4 * c + 9, *rng.integers(-5 * c, 5 * c, 20)])
        got = bound(ms, ns, c, chi)
        assert got.shape == ms.shape
        for m, n, b in zip(ms, ns, got):
            scalar = bound(int(m), int(n), c, chi)
            assert type(scalar) is float
            assert b == scalar
        # broadcasting, as the exhaustive grid uses it
        grid = bound(ms[:, None], ns[None, :], c, chi)
        assert grid.shape == (len(ms), len(ns))
        assert grid[3, 5] == bound(int(ms[3]), int(ns[5]), c, chi)


def test_factored_path_computes_no_salie_bound(monkeypatch):
    # the prime-power leaves need only the sum; the value is the one pinned before
    # the leaves stopped going through salie_naive
    def refuse(*args):
        raise AssertionError("salie_bound called")

    monkeypatch.setattr(expsums, "salie_bound", refuse)
    assert kloosterman_factored(5, 7, 9996, 1, CHI_M7).value == 0j
    assert kloosterman_factored(1, 1, 9996, 1, CHI_M7).value == complex(
        -169.92206697575682, 169.92206697575722)


def test_only_the_bounds_count_divisors():
    # tau(c) enters only the two bound formulas; a call anywhere else would be a second copy
    src = Path(expsums.__file__).resolve().parent
    calls = []

    def visit(node, path, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call) and "divisor_count" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            calls.append(f"{path.relative_to(src)}:{where}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, path, where)

    for path in sorted(src.rglob("*.py")):
        visit(ast.parse(path.read_text()), path, "<module>")
    assert [c for c in calls if c.rsplit(":", 1)[0] not in
            ("expsums.py:weil_bound", "expsums.py:salie_bound")] == []
