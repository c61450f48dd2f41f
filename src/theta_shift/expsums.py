"""Twisted half-integral Kloosterman sums and Dirichlet-twisted Salie sums.

Evaluation is exact direct summation over units in double-precision
complex arithmetic; identity checks downstream use tolerance
1e-8 * phi(c).  A factored fast path peels the modulus into its 2-part
(a Kloosterman factor) and odd prime powers (Salie factors) through the
twisted multiplicativity relations, and agrees with the naive sum to
rounding.

Pure functions over immutable inputs; sweeps parallelize freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import (
    DirichletCharacter,
    char_factor,
    divisor_count,
    factorize,
    inverse_mod,
    kronecker_array,
    trivial_character,
    unit_table,
)

_I_POW = (1, 1j, -1, -1j)


@dataclass(frozen=True)
class ExpSumResult:
    """A complex sum value with its parameters and the applicable bound."""

    value: complex
    m: int
    n: int
    c: int
    ell: int | None
    character: DirichletCharacter
    bound: float

    @property
    def ratio(self) -> float:
        return abs(self.value) / self.bound if self.bound > 0 else math.inf


def _sum_table(c: int, chi: DirichletCharacter, ell: int | None = None):
    """Units d mod c, their inverses a (a*d = 1 mod c) and the summand weights.

    With ell=None the weights are the Salie twist conj(chi(d)) (d/c); with
    an odd ell they are the Kloosterman twist eps_d^ell conj(chi(d)) (c/d).
    Every factor but chi is an exact integer or a power of i, so the
    weights do not depend on how the tables are built.
    """
    units, invs = unit_table(c)
    chiv = np.conjugate(chi.array()[units % chi.modulus])
    if ell is None:
        return units, invs, chiv * kronecker_array(units, c)
    # eps_d^ell depends on d mod 4 and ell mod 4 only
    eps = np.where(units % 4 == 1, _I_POW[0], _I_POW[ell % 4])
    return units, invs, eps * chiv * kronecker_array(c, units)


def _roots(c: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(c) / c)


def _check_kloosterman_domain(c: int, ell: int, chi: DirichletCharacter) -> None:
    N = chi.modulus
    if c % math.lcm(4, N) != 0:
        raise ValueError(f"need lcm(4, N) | c; got c={c}, N={N}")
    if ell % 2 == 0:
        raise ValueError(f"ell must be odd, got {ell}")


def weil_bound(m: int, n: int, c: int, chi: DirichletCharacter) -> float:
    """4 tau(c) (m,n,c)^(1/2) c^(1/2) N^(1/2) with N the character modulus."""
    g = math.gcd(math.gcd(m, n), c)
    return 4.0 * divisor_count(c) * math.sqrt(g) * math.sqrt(c) * math.sqrt(chi.modulus)


def kloosterman_naive(m: int, n: int, c: int, ell: int, chi: DirichletCharacter) -> ExpSumResult:
    """Direct summation of the eps_d^ell (c/d) twisted Kloosterman sum."""
    _check_kloosterman_domain(c, ell, chi)
    units, invs, w = _sum_table(c, chi, ell)
    val = complex(np.sum(w * _roots(c)[(m * invs + n * units) % c]))
    return ExpSumResult(val, m, n, c, ell, chi, weil_bound(m, n, c, chi))


def salie_bound(m: int, n: int, c: int, chi: DirichletCharacter) -> float:
    """tau(c) (m,n,c)^(1/2) c^(1/2) cond^(1/2) for odd c; phi(c) otherwise.

    The prime-power bound extends multiplicatively to all odd c; at
    even c only the trivial term-count bound is claimed.
    """
    if c % 2 == 1:
        g = math.gcd(math.gcd(m, n), c)
        return divisor_count(c) * math.sqrt(g) * math.sqrt(c) * math.sqrt(chi.conductor)
    return float(_phi(c))


def _phi(c: int) -> int:
    out = c
    for p, _ in factorize(c):
        out -= out // p
    return out


def salie_naive(m: int, n: int, c: int, chi: DirichletCharacter) -> ExpSumResult:
    """Direct summation of the (d/c)-twisted Salie sum."""
    N = chi.modulus
    if c % N != 0:
        raise ValueError(f"need N | c; got c={c}, N={N}")
    v2 = (c & -c).bit_length() - 1
    if v2 == 1:
        raise ValueError(f"Salie sums need v2(c) != 1, got c={c}")
    if c == 1:
        return ExpSumResult(1.0 + 0j, m, n, 1, None, chi, 1.0)
    units, invs, w = _sum_table(c, chi)
    val = complex(np.sum(w * _roots(c)[(m * invs + n * units) % c]))
    return ExpSumResult(val, m, n, c, None, chi, salie_bound(m, n, c, chi))


def _salie_factored_value(m: int, n: int, c: int, chi: DirichletCharacter) -> complex:
    """Salie value at odd c via prime-power splitting (multiplicativity)."""
    fac = factorize(c)
    if len(fac) <= 1:
        return salie_naive(m, n, c, chi).value
    p, e = fac[0]
    r = p**e
    s = c // r
    rbar = inverse_mod(r, s)
    sbar = inverse_mod(s, r)
    chi_r, chi_s = char_factor(chi, r, s)
    left = salie_naive(m * sbar, n * sbar, r, chi_r).value
    right = _salie_factored_value(m * rbar, n * rbar, s, chi_s)
    return left * right


def kloosterman_factored(m: int, n: int, c: int, ell: int, chi: DirichletCharacter) -> ExpSumResult:
    """Fast path: split off the 2-part as a Kloosterman factor, then break
    the odd Salie cofactor into prime powers.

    The Bezout cofactors are canonicalized to least nonnegative residues;
    the identity is invariant under the residual integer freedom.
    """
    _check_kloosterman_domain(c, ell, chi)
    v2 = (c & -c).bit_length() - 1
    s = 1 << v2
    r = c // s
    if r == 1:
        return kloosterman_naive(m, n, c, ell, chi)
    rbar = inverse_mod(r, s)          # 0 <= rbar < s
    sbar = inverse_mod(s, r)
    chi_r, chi_s = char_factor(chi, r, s)
    salie_part = _salie_factored_value(m * sbar, n * sbar, r, chi_r)
    kloos_part = kloosterman_naive(m * rbar, n * rbar, s, ell + r - 1, chi_s).value
    val = salie_part * kloos_part
    return ExpSumResult(val, m, n, c, ell, chi, weil_bound(m, n, c, chi))


def verify_weil(m: int, n: int, c: int, ell: int, chi: DirichletCharacter) -> float:
    """|K| over its Weil-type bound; the contract is ratio <= 1 + tol."""
    res = kloosterman_naive(m, n, c, ell, chi)
    return abs(res.value) / res.bound


def kloosterman_grid(c: int, ell: int, chi: DirichletCharacter) -> np.ndarray:
    """All values K_ell(m, n; c; chi) as a c-by-c array (m rows, n columns).

    Two small matrix products instead of c^2 direct sums; used by the
    exhaustive bound sweeps.
    """
    _check_kloosterman_domain(c, ell, chi)
    units, invs, w = _sum_table(c, chi, ell)
    roots = _roots(c)
    ms = np.arange(c)
    E_a = roots[(ms[:, None] * invs[None, :]) % c]      # (c, phi)
    E_d = roots[(units[:, None] * ms[None, :]) % c]     # (phi, c)
    return (E_a * w[None, :]) @ E_d


def salie_values(c: int, chi: DirichletCharacter, pairs: np.ndarray) -> np.ndarray:
    """Salie sums at an array of (m, n) pairs for one modulus."""
    N = chi.modulus
    if c % N != 0 or ((c & -c).bit_length() - 1) == 1:
        raise ValueError("inadmissible Salie modulus")
    units, invs, w = _sum_table(c, chi)
    idx = (pairs[:, 0:1] * invs[None, :] + pairs[:, 1:2] * units[None, :]) % c
    return _roots(c)[idx] @ w


def weil_ratio_grid(c: int, ell: int, chi: DirichletCharacter) -> float:
    """Max |K|/bound over all m, n mod c."""
    grid = np.abs(kloosterman_grid(c, ell, chi))
    ms = np.arange(c)
    g = np.gcd(np.gcd.outer(ms, ms), c)
    bound = 4.0 * divisor_count(c) * np.sqrt(g.astype(float)) * math.sqrt(c) * math.sqrt(chi.modulus)
    return float(np.max(grid / bound))


def random_admissible_tuple(rng: np.random.Generator, max_c: int, characters=None):
    """Draw (m, n, c, ell, chi) with lcm(4, N) | c <= max_c."""
    if characters is None:
        characters = [trivial_character(4)]
    chi = characters[rng.integers(0, len(characters))]
    step = math.lcm(4, chi.modulus)
    kmax = max_c // step
    if kmax < 1:
        raise ValueError("max_c too small for this character")
    c = step * int(rng.integers(1, kmax + 1))
    m = int(rng.integers(-2 * max_c, 2 * max_c + 1))
    n = int(rng.integers(-2 * max_c, 2 * max_c + 1))
    ell = int(2 * rng.integers(0, 4) + 1) * int(rng.choice([-1, 1]))
    return m, n, c, ell, chi
