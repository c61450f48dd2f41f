import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from theta_shift.arith import (
    _cipolla,
    DirichletCharacter,
    char_factor,
    char_from_kronecker,
    char_from_table,
    divisor_count,
    epsilon_d,
    inverse_mod,
    kronecker,
    kronecker_array,
    primes_upto,
    sqrt_mod,
    trivial_character,
    unit_mask,
    unit_table,
)


class TestKronecker:
    def test_known_values(self):
        assert kronecker(2, 7) == 1       # 7 = -1 mod 8
        assert kronecker(-1, 3) == -1     # 3 = 3 mod 4
        assert kronecker(4, 3) == 1       # (2/3)^2

    def test_legendre_agreement(self):
        # against Euler's criterion at odd primes
        for p in (3, 5, 7, 11, 13, 97):
            for a in range(1, p):
                euler = pow(a, (p - 1) // 2, p)
                expected = 1 if euler == 1 else -1
                assert kronecker(a, p) == expected

    def test_edge_cases(self):
        assert kronecker(1, 0) == 1
        assert kronecker(-1, 0) == 1
        assert kronecker(5, 0) == 0
        assert kronecker(-3, -1) == -1
        assert kronecker(3, -1) == 1
        assert kronecker(6, 2) == 0
        assert kronecker(7, 2) == 1   # 7 = -1 mod 8
        assert kronecker(3, 2) == -1  # 3 mod 8

    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6),
           st.integers(-10**4, 10**4))
    @settings(max_examples=200)
    def test_multiplicative_in_numerator(self, a, b, n):
        assert kronecker(a, n) * kronecker(b, n) == kronecker(a * b, n)

    @given(st.integers(-10**6, 10**6), st.integers(-10**4, 10**4),
           st.integers(-10**4, 10**4))
    @settings(max_examples=200)
    def test_multiplicative_in_denominator(self, a, m, n):
        assert kronecker(a, m) * kronecker(a, n) == kronecker(a, m * n)


class TestEpsilon:
    def test_values(self):
        assert epsilon_d(1) == 1
        assert epsilon_d(3) == 1j
        assert epsilon_d(7) == 1j
        assert epsilon_d(-3) == 1   # -3 = 1 mod 4
        assert epsilon_d(-1) == 1j

    def test_even_rejected(self):
        with pytest.raises(ValueError):
            epsilon_d(4)

    def test_square_is_sign_character(self):
        for d in range(1, 100001, 2):
            assert epsilon_d(d) ** 2 == kronecker(-1, d)


class TestCharacters:
    def test_trivial(self):
        chi = char_from_kronecker(1, 12)
        assert chi.conductor == 1
        assert all(chi(d) == (1 if math.gcd(d, 12) == 1 else 0) for d in range(12))

    def test_kronecker_12_mod_576(self):
        chi = char_from_kronecker(12, 576)
        assert chi.conductor == 12

    def test_kronecker_minus7_mod_28(self):
        chi = char_from_kronecker(-7, 28)
        assert chi.conductor == 7

    def test_values_are_read_only(self):
        table = np.array([0, 1, 0, -1])
        chi = char_from_table(4, table)
        table[3] = 1   # the character holds its own copy
        assert chi(3) == -1
        with pytest.raises(ValueError, match="read-only"):
            chi.values[3] = 1

    def test_non_periodic_rejected(self):
        with pytest.raises(ValueError):
            char_from_kronecker(2, 3)  # (2/.) has period 8, not 3

    @pytest.mark.parametrize("D, N, d", [(101, 4, 19), (-199, 3, 11)])
    def test_agreement_on_two_periods_of_n_is_not_enough(self, D, N, d):
        # (D/.) agrees with a character mod N on 0..2N-1 but differs at d
        assert all(kronecker(D, e) == kronecker(D, e % N) for e in range(2 * N)
                   if math.gcd(e, N) == 1)
        assert kronecker(D, d) != kronecker(D, d % N)
        with pytest.raises(ValueError, match=rf"D={D} is not periodic mod {N}"):
            char_from_kronecker(D, N)

    def test_zero_and_long_periods_rejected(self):
        with pytest.raises(ValueError, match="not a character"):
            char_from_kronecker(0, 4)
        # refused before any table is built
        with pytest.raises(ValueError, match="needs a common period of 4000000000000000000004"):
            char_from_kronecker(10**21 + 1, 4)

    def test_every_accepted_pair_is_its_symbol(self):
        # each accepted (D, N) equals (D/d) at every unit d below two common periods
        # and is a character on every unit pair
        accepted = 0
        for N in range(3, 61):
            for D in range(-200, 201):
                try:
                    chi = char_from_kronecker(D, N)
                except ValueError:
                    continue
                chi.validate(exhaustive=True)
                assert all(chi(d) == kronecker(D, d) for d in range(2 * _common_period(D, N))
                           if math.gcd(d, N) == 1)
                accepted += 1
        assert accepted == 703

    def test_full_multiplicativity_exhaustive(self):
        # every unit pair, for all constructed characters at N <= 1000
        for N in (1, 2, 4, 7, 12, 28, 60, 576, 1000):
            for D in (1, 12, -7, -4):
                try:
                    chi = char_from_kronecker(D, N)
                except ValueError:
                    continue
                chi.validate(exhaustive=True)
                units = [d for d in range(N) if math.gcd(d, max(N, 1)) == 1]
                for d in units[:40]:
                    for e in units[:40]:
                        assert chi((d * e) % max(N, 1)) == chi(d) * chi(e)

    def test_bad_table_rejected(self):
        with pytest.raises(ValueError):
            char_from_table(4, (0, 1, 0, 2))  # non-unit value
        with pytest.raises(ValueError):
            char_from_table(4, (0, 1, 1, 1))  # nonzero at even residue


class TestCharFactor:
    def test_trivial_split(self):
        chi = trivial_character(4)
        a, b = char_factor(chi, 1, 4)
        assert a.modulus == 1 and b.modulus == 4
        assert b.conductor == 1

    def test_576_split(self):
        chi = char_from_kronecker(12, 576)
        a, b = char_factor(chi, 9, 64)
        assert a.modulus == 9 and b.modulus == 64
        for d in range(576):
            if math.gcd(d, 576) == 1:
                assert abs(chi(d) - a(d) * b(d)) < 1e-12

    def test_mod_12_idempotents(self):
        chi = char_from_kronecker(12, 12)
        a, b = char_factor(chi, 3, 4)
        for d in range(12):
            if math.gcd(d, 12) == 1:
                assert abs(chi(d) - a(d) * b(d)) < 1e-12

    def test_bad_split_rejected(self):
        chi = trivial_character(12)
        with pytest.raises(ValueError):
            char_factor(chi, 6, 4)   # not coprime
        with pytest.raises(ValueError):
            char_factor(chi, 5, 2)   # 12 does not divide 10

    @given(st.integers(0, 10**6))
    @settings(max_examples=100)
    def test_random_splits_reconstruct(self, seed):
        rng = np.random.default_rng(seed)
        Ns = [4, 12, 28, 36, 60, 144, 576]
        N = int(Ns[rng.integers(0, len(Ns))])
        D = int([1, 12, -7, -4][rng.integers(0, 4)])
        try:
            chi = char_from_kronecker(D, N)
        except ValueError:
            return
        # random coprime split with N | r*s
        v2 = (N & -N).bit_length() - 1
        s = (1 << v2) * int(rng.integers(1, 4))
        r = (N >> v2) * int(rng.integers(1, 4))
        if math.gcd(r, s) != 1:
            return
        a, b = char_factor(chi, r, s)
        a.validate(exhaustive=True)   # each factor is a character, zero off its units
        b.validate(exhaustive=True)
        for d in range(N):
            if math.gcd(d, N) == 1:
                assert abs(complex(chi(d)) - complex(a(d)) * complex(b(d))) < 1e-12


def _common_period(D, N):
    """lcm of N and the period of d -> (D/d): |D| for D = 0, 1 mod 4, else 4|D|."""
    return math.lcm(N, abs(D) if D % 4 in (0, 1) else 4 * abs(D))


def _scalar_char_from_kronecker(D, N):
    """Reference route: char_from_kronecker by one scalar symbol per residue
    of one common period of the table and the symbol."""
    if D == 0:
        raise ValueError("(0/.) is not a character")
    vals = [kronecker(D, d) if math.gcd(d, N) == 1 else 0 for d in range(N)]
    for d in range(N, _common_period(D, N)):
        if math.gcd(d, N) == 1 and kronecker(D, d) != vals[d % N]:
            raise ValueError(f"(D/.) with D={D} is not periodic mod {N}")
    chi = DirichletCharacter(modulus=N, values=vals, label=f"({D}/.) mod {N}")
    chi.validate()
    return chi


def _scalar_conductor(chi):
    """Least f | N such that chi(a) depends only on a mod f on the units mod N."""
    N = chi.modulus
    for f in range(1, N + 1):
        first = {}
        if N % f == 0 and all(first.setdefault(a % f, complex(chi(a))) == complex(chi(a))
                              for a in range(N) if math.gcd(a, N) == 1):
            return f


class TestVectorRoutes:
    """The whole-array symbol, inverses and character tables against the
    scalar `kronecker` and `inverse_mod`."""

    def test_symbol_on_small_square(self):
        xs = np.arange(-300, 301)
        ref = np.array([[kronecker(a, n) for n in range(-300, 301)] for a in range(-300, 301)])
        for i, x in enumerate(range(-300, 301)):
            assert np.array_equal(kronecker_array(x, xs), ref[i, :])
            assert np.array_equal(kronecker_array(xs, x), ref[:, i])

    @pytest.mark.parametrize("c", [4096, 2401, 9999, 10_000])
    def test_symbol_over_a_full_period(self, c):
        # (c/.) has period dividing 4c, (./c) period c
        d = np.arange(-4 * c, 4 * c)
        assert np.array_equal(kronecker_array(c, d), [kronecker(c, int(x)) for x in d])
        d = np.arange(-c, c)
        assert np.array_equal(kronecker_array(d, c), [kronecker(int(x), c) for x in d])

    def test_symbol_at_a_large_prime(self):
        # primes above the Legendre-table size go through Euler's criterion
        p = 1_000_003
        d = np.arange(-2000, 2000)
        for a in (p, -p, 4 * p, 3 * p):
            assert np.array_equal(kronecker_array(a, d), [kronecker(a, int(x)) for x in d])
            assert np.array_equal(kronecker_array(d, a), [kronecker(int(x), a) for x in d])

    @pytest.mark.parametrize("c", [1, 2, 5, 12, 4096, 4999, 9996, 10_000])
    def test_inverses(self, c):
        units, invs = unit_table(c)
        if c == 1:
            assert units.tolist() == [0] and invs.tolist() == [0]
            return
        assert units.tolist() == [d for d in range(c) if math.gcd(d, c) == 1]
        assert invs.tolist() == [inverse_mod(int(d), c) for d in units]

    def test_char_from_kronecker_matches_scalar_route(self):
        accepted = 0
        for D in range(-60, 61):
            for N in range(1, 130):
                try:
                    ref = _scalar_char_from_kronecker(D, N)
                except ValueError as exc:
                    with pytest.raises(ValueError, match=re.escape(str(exc))):
                        char_from_kronecker(D, N)
                    continue
                chi = char_from_kronecker(D, N)
                assert chi.values.tobytes() == ref.values.tobytes()
                assert chi.label == ref.label
                assert chi.conductor == _scalar_conductor(chi)
                accepted += 1
        assert accepted == 1041

    @pytest.mark.parametrize("N, values, exhaustive, message", [
        (5, (0, -1, 1, 1, 1), False, "character must take value 1 at d = 1"),
        (7, (0, 1, 1, 1, 1, 0.5, 1), False, "non-unit value at coprime residue 5"),
        (10, (0, 1, 0, 2, 1, 0, 0, 1, 0, 1), False, "non-unit value at coprime residue 3"),
        (6, (0, 1, 0, 1, 0, 1), False, "nonzero value at non-coprime residue 3"),
        (5, (0, 1, 1, -1, 1), False, "multiplicativity fails at (2,3)"),
        ("flip50", None, False, "multiplicativity fails at (34,49)"),
        ("flip50", None, True, "multiplicativity fails at (2,25)"),
        ("i52", None, False, "multiplicativity fails at (4,13)"),
        ("i52", None, True, "multiplicativity fails at (2,26)"),
        (5, (0, 1, math.nan, 1, 1), False, "non-unit value at coprime residue 2"),
    ])
    def test_validate_messages(self, N, values, exhaustive, message):
        # the first failing residue or pair, in the order of the per-pair scan;
        # mod 101 the default check samples every third of the 100 units
        if isinstance(N, str):
            values = [kronecker(d, 101) for d in range(101)]
            if N == "flip50":
                values[50] = -values[50]
            else:
                values[52] = 1j
            N = 101
        chi = DirichletCharacter(modulus=N, values=tuple(values))
        with pytest.raises(ValueError, match=re.escape(message)):
            chi.validate(exhaustive=exhaustive)


def test_unit_mask_equals_gcd_scan():
    for n in [*range(1, 3001), 4999, 9996, 2**16]:
        assert np.array_equal(unit_mask(n), np.gcd(np.arange(n), n) == 1), n
    for n in (0, -5):
        with pytest.raises(ValueError, match="modulus must be positive"):
            unit_mask(n)


def test_inverse_mod():
    assert inverse_mod(3, 10) == 7
    assert inverse_mod(1, 1) == 0
    assert inverse_mod(-3, 10) == 3
    assert inverse_mod(13, 10) == 7
    with pytest.raises(ValueError, match="^2 is not invertible mod 4$"):
        inverse_mod(2, 4)


def test_divisor_count():
    assert divisor_count(1) == 1
    assert divisor_count(4) == 3
    assert divisor_count(28) == 6
    assert divisor_count(5000) == 20
    for n in range(1, 400):
        assert divisor_count(n) == sum(1 for d in range(1, n + 1) if n % d == 0)
    with pytest.raises(ValueError):
        divisor_count(0)


def test_primes_upto():
    for n in (0, 1, 2, 3, 10, 97, 300):
        direct = [p for p in range(2, n + 1) if all(p % d for d in range(2, math.isqrt(p) + 1))]
        assert primes_upto(n).tolist() == direct


class TestSqrtMod:
    def test_every_class_mod_every_odd_prime_below_2_12(self):
        ps = primes_upto(2**12)[1:]
        p = np.repeat(ps, ps)
        a = np.arange(p.size) - np.repeat(np.cumsum(ps) - ps, ps)   # 0..p-1 for each p
        r = sqrt_mod(a, p)
        squares = np.zeros(p.size, dtype=bool)
        for start, q in zip(np.cumsum(ps) - ps, ps):
            squares[start + np.arange(q) ** 2 % q] = True
        # a root exactly at the squares, and a true one; -1 flags every non-square
        assert np.array_equal(r >= 0, squares)
        assert np.all(r[~squares] == -1)
        ok = r >= 0
        assert np.all((r[ok] * r[ok] - a[ok]) % p[ok] == 0)
        assert np.all(2 * r <= p)

    @pytest.mark.parametrize("p", [4294967291, 4294967279, 4294967231, 2**31 - 1])
    def test_primes_near_2_32(self, p):
        # the products of residues near 2^32 fill uint64: an overflow would give a wrong root
        a = np.concatenate([np.random.default_rng(p).integers(0, p, 3000),
                            [p - 1, p - 2, 1, 4, (p - 1) // 2]])
        r = sqrt_mod(a, p)
        for x, y in zip(a.tolist(), r.tolist()):
            is_square = pow(x, (p - 1) // 2, p) == 1 or x == 0
            assert (y >= 0) == is_square
            if is_square:
                assert y * y % p == x and 2 * y <= p

    def test_three_mod_four_equals_cipolla(self):
        # p = 3 (mod 4) takes a^((p+1)/4); Cipolla's root, normalized, must equal it
        # at every class of every such prime below 2^12, and at 4294967291
        ps = [q for q in primes_upto(2**12).tolist() if q % 4 == 3]
        big = 4294967291
        a_big = np.random.default_rng(5).integers(0, big, 3000)
        p = np.concatenate([np.repeat(ps, ps), np.full(a_big.size, big)])
        a = np.concatenate([np.arange(q) for q in ps] + [a_big])
        r = sqrt_mod(a, p)
        # non-residues still read -1: squares by tabulation below 2^12, Euler at big
        square = np.concatenate([np.isin(np.arange(q), np.arange(q) ** 2 % q) for q in ps]
                                + [[pow(int(x), (big - 1) // 2, big) <= 1 for x in a_big]])
        assert np.array_equal(r >= 0, square)
        assert np.all(r[~square] == -1)
        sq = r > 0
        A, P = a[sq].astype(np.uint64), p[sq].astype(np.uint64)
        c = _cipolla(A, P)
        assert np.array_equal(r[sq], np.minimum(c, P - c).astype(np.int64))

    def test_zero_and_two(self):
        assert sqrt_mod([0, 0, 0], [2, 3, 4294967291]).tolist() == [0, 0, 0]
        assert sqrt_mod([0, 1, 2, 3, -1], 2).tolist() == [0, 1, 0, 1, 1]
        assert sqrt_mod(-7, np.array([2, 7, 11, 13])).tolist() == [1, 0, 2, -1]
        assert sqrt_mod(np.array([[4, 5], [9, 3]]), 7).tolist() == [[2, -1], [3, -1]]

    @pytest.mark.parametrize("p", [0, 1, -3, 2**32, 2**32 + 15])
    def test_modulus_out_of_range_rejected(self, p):
        with pytest.raises(ValueError, match=r"prime moduli 2 <= p < 2\^32"):
            sqrt_mod(1, p)
