"""Twisted half-integral Kloosterman sums and Dirichlet-twisted Salie sums.

A single sum is direct summation over units in double-precision
complex arithmetic; identity checks downstream use tolerance
1e-8 * phi(c).  A factored fast path peels the modulus into its 2-part
(a Kloosterman factor) and odd prime powers (Salie factors) through the
twisted multiplicativity relations, sums each factor directly, and
agrees with the naive sum to rounding.

A batch of Salie sums at one modulus (`salie_values`) takes one of
three routes, pair by pair:

- Closed form, at odd c with chi = 1 on every unit of c, so that the
  weight is the Jacobi symbol (d/c): S(m, n) = eps_c sqrt(c) (m/c) R(mn)
  for a unit m, with R(r) = sum_{y^2 = r (c)} e(2y/c), and (n/c) in place
  of (m/c) for a unit n (Salie 1932; Iwaniec, Topics in Classical
  Automorphic Forms, Lemma 4.9).  One O(c) table of R, no inverses and
  no FFT.  Against direct summation it agrees to 1.5e-14 sqrt(c) at
  every odd prime power c <= 5000, and to 1e-14 sqrt(c) at odd
  composite c.
- Transform, at every other admissible c and chi.  The weight
  psi(d) = conj(chi(d)) (d/c) is a character mod c, so substituting
  d -> m d gives S(m, n) = psi(m) S(1, mn) for a unit m, and
  d -> -n^-1 d^-1 gives S(m, n) = psi(-1) conj(psi(n) S(1, mn)) for a
  unit n; the transform T(x) = S(1, x) for every x mod c is one length-c
  FFT, O(c log c).  Against direct summation it agrees to 3e-14 sqrt(c)
  at every odd prime power c <= 5000.
- Direct summation, under either route, for the pairs where neither
  entry is a unit.  Under the closed form that leaves only composite c,
  such as (p, p) at p^a with a >= 2: S(0, 0) is the character sum of
  (d/c), phi(c) at square c and 0 otherwise.

Pure functions over immutable inputs; sweeps parallelize freely.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .arith import (
    DirichletCharacter,
    char_factor,
    divisor_count,
    epsilon_d,
    factorize,
    inverse_mod,
    kronecker_array,
    unit_mask,
    unit_table,
)

_I_POW = (1, 1j, -1, -1j)


@dataclass(frozen=True)
class ExpSumResult:
    """A complex sum value with the applicable bound."""

    value: complex
    bound: float

    @property
    def ratio(self) -> float:
        return abs(self.value) / self.bound


def _sum_table(c: int, chi: DirichletCharacter, ell: int | None = None):
    """Units d mod c, their inverses a (a*d = 1 mod c) and the summand weights.

    With ell=None the weights are the Salie twist conj(chi(d)) (d/c); with
    an odd ell they are the Kloosterman twist eps_d^ell conj(chi(d)) (c/d).
    Every factor but chi is an exact integer or a power of i, so the
    weights do not depend on how the tables are built.
    """
    units, invs = unit_table(c)
    chiv = np.conjugate(chi.values[units % chi.modulus])
    if ell is None:
        return units, invs, chiv * kronecker_array(units, c)
    # eps_d^ell depends on d mod 4 and ell mod 4 only
    eps = np.where(units % 4 == 1, _I_POW[0], _I_POW[ell % 4])
    return units, invs, eps * chiv * kronecker_array(c, units)


@functools.lru_cache(maxsize=8)
def _roots(c: int) -> np.ndarray:
    """e(k/c) for k = 0..c-1, read-only, kept for the last 8 moduli."""
    roots = np.exp(2j * np.pi * np.arange(c) / c)
    roots.flags.writeable = False
    return roots


def _phase(m, n, c: int, units: np.ndarray, invs: np.ndarray) -> np.ndarray:
    """(m a + n d) mod c; m and n are reduced first, so no int64 product wraps."""
    return (m % c * invs + n % c * units) % c


def _direct_sum(m: int, n: int, c: int, chi: DirichletCharacter, ell: int | None = None) -> complex:
    """The twisted sum at one (m, n): w(d) e((m a + n d) / c) summed over _sum_table."""
    units, invs, w = _sum_table(c, chi, ell)
    return complex(np.sum(w * _roots(c)[_phase(m, n, c, units, invs)]))


def _check_modulus(c: int) -> None:
    if c < 1:
        raise ValueError(f"modulus must be >= 1, got c={c}")


def _check_kloosterman_domain(c: int, ell: int, chi: DirichletCharacter) -> None:
    _check_modulus(c)
    if c % math.lcm(4, chi.modulus) != 0:
        raise ValueError(f"need lcm(4, N) | c; got c={c}, N={chi.modulus}")
    if ell % 2 == 0:
        raise ValueError(f"ell must be odd, got {ell}")


def _check_salie_domain(c: int, chi: DirichletCharacter) -> None:
    _check_modulus(c)
    if c % chi.modulus != 0:
        raise ValueError(f"need N | c; got c={c}, N={chi.modulus}")
    if c & -c == 2:   # v2(c) = 1
        raise ValueError(f"Salie sums need v2(c) != 1, got c={c}")


def _sqrt_bound(lead: float, m, n, c: int, level: int):
    """lead (m,n,c)^(1/2) c^(1/2) level^(1/2), the gcd taken on the residues of
    m and n: by math for ints (a float), by numpy for int arrays (an array)."""
    xp = np if isinstance(m, np.ndarray) or isinstance(n, np.ndarray) else math
    return lead * xp.sqrt(xp.gcd(xp.gcd(m % c, n % c), c)) * math.sqrt(c) * math.sqrt(level)


def weil_bound(m, n, c: int, chi: DirichletCharacter):
    """4 tau(c) (m,n,c)^(1/2) c^(1/2) N^(1/2) with N the character modulus:
    a float for ints m, n, an array of their broadcast shape for int arrays."""
    _check_modulus(c)
    return _sqrt_bound(4.0 * divisor_count(c), m, n, c, chi.modulus)


def kloosterman_naive(m: int, n: int, c: int, ell: int, chi: DirichletCharacter) -> ExpSumResult:
    """Direct summation of the eps_d^ell (c/d) twisted Kloosterman sum."""
    _check_kloosterman_domain(c, ell, chi)
    return ExpSumResult(_direct_sum(m, n, c, chi, ell), weil_bound(m, n, c, chi))


def salie_bound(m, n, c: int, chi: DirichletCharacter):
    """tau(c) (m,n,c)^(1/2) c^(1/2) cond^(1/2) for odd c; phi(c) otherwise.

    The prime-power bound extends multiplicatively to all odd c; at
    even c only the trivial term-count bound is claimed.  m and n as in
    weil_bound.
    """
    _check_modulus(c)
    if c % 2 == 1:
        return _sqrt_bound(divisor_count(c), m, n, c, chi.conductor)
    return _sqrt_bound(float(_phi(c)), m, n, 1, 1)   # phi(c), shaped like m and n


def _phi(c: int) -> int:
    out = c
    for p, _ in factorize(c):
        out -= out // p
    return out


def salie_naive(m: int, n: int, c: int, chi: DirichletCharacter) -> ExpSumResult:
    """Direct summation of the (d/c)-twisted Salie sum."""
    _check_salie_domain(c, chi)
    return ExpSumResult(_direct_sum(m, n, c, chi), salie_bound(m, n, c, chi))


def _salie_factored_value(m: int, n: int, c: int, chi: DirichletCharacter) -> complex:
    """Salie value at odd c via prime-power splitting (multiplicativity)."""
    fac = factorize(c)
    if len(fac) <= 1:
        return _direct_sum(m, n, c, chi)
    r = fac[0][0] ** fac[0][1]
    s = c // r
    rbar = inverse_mod(r, s)
    sbar = inverse_mod(s, r)
    chi_r, chi_s = char_factor(chi, r, s)
    left = _direct_sum(m * sbar, n * sbar, r, chi_r)
    return left * _salie_factored_value(m * rbar, n * rbar, s, chi_s)


def kloosterman_factored(m: int, n: int, c: int, ell: int, chi: DirichletCharacter) -> ExpSumResult:
    """Fast path: split off the 2-part as a Kloosterman factor, then break
    the odd Salie cofactor into prime powers.

    The Bezout cofactors are canonicalized to least nonnegative residues;
    the identity is invariant under the residual integer freedom.
    """
    _check_kloosterman_domain(c, ell, chi)
    s = c & -c   # the 2-part
    r = c // s
    if r == 1:
        return kloosterman_naive(m, n, c, ell, chi)
    rbar = inverse_mod(r, s)          # 0 <= rbar < s
    sbar = inverse_mod(s, r)
    chi_r, chi_s = char_factor(chi, r, s)
    salie_part = _salie_factored_value(m * sbar, n * sbar, r, chi_r)
    kloos_part = _direct_sum(m * rbar, n * rbar, s, chi_s, ell + r - 1)
    return ExpSumResult(salie_part * kloos_part, weil_bound(m, n, c, chi))


def verify_weil(m: int, n: int, c: int, ell: int, chi: DirichletCharacter) -> float:
    """|K| over its Weil-type bound; the contract is ratio <= 1 + tol."""
    return kloosterman_naive(m, n, c, ell, chi).ratio


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
    """Salie sums at an array of (m, n) pairs for one modulus: by Salie's
    closed form where c is odd and chi is 1 on every unit of c, by the
    length-c transform otherwise (see the module docstring)."""
    _check_salie_domain(c, chi)
    if c % 2 == 1 and np.all(chi.values[unit_mask(chi.modulus)] == 1):
        return _salie_jacobi(c, chi, pairs)
    return _salie_transform(c, chi, pairs)


def _salie_jacobi(c: int, chi: DirichletCharacter, pairs: np.ndarray) -> np.ndarray:
    """Salie sums at odd c where chi is 1 on the units of c, so that the twist
    is the Jacobi symbol (d/c): the closed form of the module docstring.

    R(r) is real, as y and -y enter together.  The sum is symmetric under
    d -> d^-1, so a unit n serves as well as a unit m.  Pairs where neither
    entry is a unit, (0, 0) aside, are summed directly.
    """
    m, n = pairs[:, 0] % c, pairs[:, 1] % c
    y = np.arange(c)
    r = np.bincount(y * y % c, weights=np.cos(4 * np.pi * y / c), minlength=c)
    unit = unit_mask(c)
    m_unit, n_unit = unit[m], unit[n]
    sym = kronecker_array(np.where(m_unit, m, n), c)
    out = complex(epsilon_d(c)) * math.sqrt(c) * (sym * r[m * n % c])
    zero = (m == 0) & (n == 0)
    out[zero] = _phi(c) if math.isqrt(c) ** 2 == c else 0
    rest = ~(m_unit | n_unit | zero)
    if rest.any():
        units, invs, w = _sum_table(c, chi)
        out[rest] = _roots(c)[_phase(m[rest, None], n[rest, None], c, units, invs)] @ w
    return out


def _salie_transform(c: int, chi: DirichletCharacter, pairs: np.ndarray) -> np.ndarray:
    """Salie sums at any admissible c and chi: pairs with a unit entry from
    the transform T(x) = S(1, x), the rest by direct summation."""
    units, invs, w = _sum_table(c, chi)
    roots = _roots(c)
    psi = np.zeros(c, dtype=np.complex128)
    psi[units] = w
    f = np.zeros(c, dtype=np.complex128)
    f[units] = w * roots[invs]
    m, n = pairs[:, 0] % c, pairs[:, 1] % c
    # T(x) = sum_d psi(d) e((d^-1 + x d) / c), an unscaled inverse DFT
    t = np.fft.ifft(f, norm="forward")[m * n % c]
    m_unit, n_unit = psi[m] != 0, psi[n] != 0
    out = np.where(m_unit, psi[m] * t, psi[-1 % c] * np.conjugate(psi[n] * t))
    rest = ~(m_unit | n_unit)
    out[rest] = roots[_phase(m[rest, None], n[rest, None], c, units, invs)] @ w
    return out


def weil_ratio_grid(c: int, ell: int, chi: DirichletCharacter) -> float:
    """Max |K|/bound over all m, n mod c."""
    ms = np.arange(c)
    bound = weil_bound(ms[:, None], ms[None, :], c, chi)
    return float(np.max(np.abs(kloosterman_grid(c, ell, chi)) / bound))


def random_admissible_tuple(rng: np.random.Generator, max_c: int, characters):
    """Draw (m, n, c, ell, chi) with lcm(4, N) | c <= max_c."""
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
