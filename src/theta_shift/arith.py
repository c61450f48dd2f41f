"""Exact integer and character arithmetic for exponential sums.

Provides the extended Kronecker symbol, the Gauss-sign unit attached to
odd integers, and Dirichlet characters stored as explicit value tables,
together with CRT factorization of a character over coprime moduli.
The symbol and the unit/inverse tables also come as whole-array numpy
routes (`kronecker_array`, `unit_table`) for building sum tables; the
scalar routines stay for pointwise callers and as the tests' reference.

All objects are immutable after construction and every function is pure,
so everything here is safe for unrestricted concurrent use.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np


def kronecker(a: int, n: int) -> int:
    """Extended Kronecker symbol (a/n) on all integer pairs.

    Completely multiplicative in both arguments, agrees with the
    Legendre symbol for odd prime n, and follows the usual extension:
    (a/-1) is the sign of a, (a/2) is 0 for even a and depends on
    a mod 8 otherwise, and (a/0) is 1 iff a = +-1.
    """
    if n == 0:
        return 1 if a in (1, -1) else 0
    k = 1
    if n < 0:
        n = -n
        if a < 0:
            k = -k
    v = 0
    while n % 2 == 0:
        n //= 2
        v += 1
    if v > 0:
        if a % 2 == 0:
            return 0
        if v % 2 == 1 and a % 8 in (3, 5):
            k = -k
    a %= n
    # binary-style reciprocity loop on the odd part
    while a != 0:
        v = 0
        while a % 2 == 0:
            a //= 2
            v += 1
        if v % 2 == 1 and n % 8 in (3, 5):
            k = -k
        if a % 4 == 3 and n % 4 == 3:
            k = -k
        a, n = n % a, a
    return k if n == 1 else 0


def kronecker_array(a, n) -> np.ndarray:
    """Elementwise Kronecker symbol (a/n), equal to `kronecker` at every pair.

    One argument is a Python int and the other an integer array.  The
    fixed argument is factored once: each odd prime p of it contributes a
    Legendre table (the squares mod p), indexed by the array argument mod
    p, either directly (fixed n) or through quadratic reciprocity (fixed
    a); the 2-part and the sign follow the extended definition.
    """
    if np.ndim(a) == 0:
        return _kronecker_fixed_top(int(a), np.asarray(n, dtype=np.int64))
    return _kronecker_fixed_bottom(np.asarray(a, dtype=np.int64), int(n))


def _kronecker_fixed_bottom(a: np.ndarray, n: int) -> np.ndarray:
    if n == 0:
        return (np.abs(a) == 1).astype(np.int64)
    out = np.where((n < 0) & (a < 0), -1, 1)
    n = abs(n)
    v = (n & -n).bit_length() - 1
    if v > 0:
        out[a % 2 == 0] = 0
        if v % 2 == 1:
            out[(a % 8 == 3) | (a % 8 == 5)] *= -1
    for p, e in factorize(n >> v):
        out *= _legendre(a % p, p) ** e
    return out


def _kronecker_fixed_top(a: int, n: np.ndarray) -> np.ndarray:
    out = np.where((n < 0) & (a < 0), -1, 1)
    n = np.abs(n)
    low = n & -n
    m = np.where(n > 0, n // np.maximum(low, 1), 1)   # odd part (1 at n = 0)
    # (a/2)^v: zero for even a; -1 for a = 3, 5 mod 8 when v is odd
    odd_v = (low & 0x2AAAAAAAAAAAAAAA) != 0
    if a % 2 == 0:
        out[low > 1] = 0
    elif a % 8 in (3, 5):
        out[odd_v] *= -1
    # Jacobi (a/m) on the odd part m
    if a == 0:
        out[m != 1] = 0
    else:
        w = (abs(a) & -abs(a)).bit_length() - 1
        odd = abs(a) >> w
        if a < 0:
            out[m % 4 == 3] *= -1
        if w % 2 == 1:
            out[(m % 8 == 3) | (m % 8 == 5)] *= -1
        if odd % 4 == 3:
            out[m % 4 == 3] *= -1
        for p, e in factorize(odd):
            out *= _legendre(m % p, p) ** e
    out[n == 0] = 1 if a in (1, -1) else 0
    return out


def _legendre(r: np.ndarray, p: int) -> np.ndarray:
    """(r/p) for residues 0 <= r < p at an odd prime p."""
    if p > max(1 << 16, r.size):
        # Euler's criterion on Python ints: no table larger than the input
        return np.array([1 if pow(int(x), (p - 1) // 2, p) == 1 else -1 if x else 0
                         for x in r], dtype=np.int64)
    table = np.full(p, -1, dtype=np.int64)
    table[0] = 0
    k = np.arange(1, (p + 1) // 2)
    table[k * k % p] = 1
    return table[r]


def unit_mask(n: int) -> np.ndarray:
    """Boolean array over the residues 0..n-1 of n >= 1: True where gcd(d, n) = 1.

    A sieve over the primes of n: every multiple of each prime is struck out.
    """
    if n < 1:
        raise ValueError("modulus must be positive")
    mask = np.ones(n, dtype=bool)
    for p, _ in factorize(n):
        mask[::p] = False
    return mask


@functools.lru_cache(maxsize=8)
def unit_table(c: int):
    """Units d mod c in increasing order with their inverses, as read-only
    int64 arrays, kept for the last 8 moduli.

    The inverse of d is d^(phi(c)-1) mod c (Euler), by square-and-multiply
    over the whole array; exact while (c-1)^2 fits in int64.  At c = 1 the
    single residue 0 is returned, with inverse 0.
    """
    if c < 1:
        raise ValueError(f"modulus must be >= 1, got c={c}")
    units = np.flatnonzero(unit_mask(c))
    e = len(units) - 1
    invs = np.full(len(units), 1 % c, dtype=np.int64)
    b = units % c
    while e:
        if e & 1:
            invs = invs * b % c
        b = b * b % c
        e >>= 1
    units.flags.writeable = invs.flags.writeable = False
    return units, invs


def epsilon_d(d: int) -> complex:
    """Gauss-sign unit: 1 for d = 1 mod 4, i for d = 3 mod 4."""
    if d % 2 == 0:
        raise ValueError(f"epsilon_d requires odd d, got {d}")
    return 1 if d % 4 == 1 else 1j


@dataclass(frozen=True, eq=False)
class DirichletCharacter:
    """A Dirichlet character mod N given by its full value table.

    values[d] is the character at the residue d, zero when gcd(d, N) > 1,
    held as one read-only complex128 array that readers index directly.
    The table representation keeps factorization and conductor logic as
    plain table surgery, which is all we need at desk-scale moduli.
    """

    modulus: int
    values: np.ndarray = field(repr=False)
    label: str = ""

    def __post_init__(self):
        if self.modulus <= 0:
            raise ValueError("modulus must be positive")
        vals = np.array(self.values, dtype=np.complex128)
        if vals.shape != (self.modulus,):
            raise ValueError("value table length must equal the modulus")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @functools.cached_property
    def conductor(self) -> int:
        """Least f | N with chi = 1 on the units = 1 mod f."""
        n = self.modulus
        d = np.arange(n)
        off = d[unit_mask(n) & (np.abs(self.values - 1) >= 1e-9)] - 1
        return next((int(f) for f in d[n % (d + 1) == 0] + 1 if not np.any(off % f == 0)), n)

    def __call__(self, d: int) -> complex:
        return self.values[d % self.modulus]

    def validate(self, exhaustive: bool = False) -> None:
        """Check the table is a genuine character (multiplicative, unit values).

        Multiplicativity runs over a 32x32 stratified unit sample by
        default (construction-time guard); exhaustive=True sweeps every
        unit pair, which the property tests use at small moduli.
        """
        n = self.modulus
        vals = self.values
        if vals[1 % n] != 1:
            raise ValueError("character must take value 1 at d = 1")
        coprime = unit_mask(n)
        non_unit = coprime & ~(np.abs(np.abs(vals) - 1.0) <= 1e-12)   # nan too
        stray = ~coprime & (vals != 0)
        bad = non_unit | stray
        if bad.any():
            d = int(np.argmax(bad))
            if non_unit[d]:
                raise ValueError(f"non-unit value at coprime residue {d}")
            raise ValueError(f"nonzero value at non-coprime residue {d}")
        units = np.flatnonzero(coprime)
        if not exhaustive and len(units) > 32:
            step = max(1, len(units) // 32)
            units = units[::step]
        for d in units:
            broken = np.abs(vals[d * units % n] - vals[d] * vals[units]) > 1e-9
            if broken.any():
                raise ValueError(f"multiplicativity fails at ({d},{units[np.argmax(broken)]})")


def trivial_character(n: int) -> DirichletCharacter:
    return DirichletCharacter(modulus=n, values=unit_mask(n),
                              label=f"trivial mod {n}")


_PERIOD_CAP = 1 << 20   # the longest common period char_from_kronecker tabulates


def char_from_kronecker(D: int, N: int) -> DirichletCharacter:
    """Tabulate d -> (D/d) as a character mod N.

    On d >= 0 the symbol has period P = |D| for D = 0, 1 mod 4 and 4|D|
    otherwise, so the table is compared with it at every unit of one common
    period L = lcm(N, P); ValueError when they differ, at D = 0, or when
    L exceeds _PERIOD_CAP.  A table that passes is a character: the symbol
    is completely multiplicative in d, and a zero at a unit d would differ
    from the symbol at some d + kN prime to D.
    """
    if N <= 0:
        raise ValueError("modulus must be positive")
    if D == 0:
        raise ValueError("(0/.) is not a character")
    L = math.lcm(N, abs(D) if D % 4 in (0, 1) else 4 * abs(D))
    if L > _PERIOD_CAP:
        raise ValueError(f"(D/.) with D={D} mod {N} needs a common period of {L}, "
                         f"above {_PERIOD_CAP}")
    sym = kronecker_array(D, np.arange(L)).reshape(L // N, N)   # one row per N residues
    units = unit_mask(N)
    if np.any(sym[:, units] != sym[0, units]):
        raise ValueError(f"(D/.) with D={D} is not periodic mod {N}")
    return DirichletCharacter(modulus=N, values=np.where(units, sym[0], 0),
                              label=f"({D}/.) mod {N}")


def char_from_table(N: int, values) -> DirichletCharacter:
    chi = DirichletCharacter(modulus=N, values=values)
    chi.validate()
    return chi


def char_factor(chi: DirichletCharacter, r: int, s: int):
    """Split chi mod N into chi_r mod gcd(N,r) times chi_s mod gcd(N,s).

    Requires gcd(r, s) = 1 and N | r*s; then N = gcd(N,r) * gcd(N,s) and
    the CRT idempotents give chi(d) = chi_r(d) * chi_s(d) on units mod N.
    """
    if math.gcd(r, s) != 1:
        raise ValueError(f"r={r}, s={s} are not coprime")
    N = chi.modulus
    if (r * s) % N != 0:
        raise ValueError(f"N={N} does not divide r*s={r * s}")
    nr, ns = math.gcd(N, r), math.gcd(N, s)

    def component(nf: int, ng: int) -> DirichletCharacter:
        # chi_f(d) = chi(d') with d' = d mod nf, d' = 1 mod ng: d' = 1 + ng k, ng k = d-1 mod nf
        d = np.arange(nf)
        dp = (1 + ng * ((d - 1) * pow(ng, -1, nf) % nf)) % N
        vals = np.where(unit_mask(nf), chi.values[dp], 0)
        return DirichletCharacter(modulus=nf, values=vals)

    return component(nr, ns), component(ns, nr)


def inverse_mod(a: int, n: int) -> int:
    if math.gcd(a, n) != 1:
        raise ValueError(f"{a} is not invertible mod {n}")
    return pow(a, -1, n)


def _pow_mod(b: np.ndarray, e: np.ndarray, m: np.ndarray) -> np.ndarray:
    """b^e mod m elementwise, by square-and-multiply on uint64 arrays with b < m < 2^32."""
    out = np.ones_like(b)
    e = e.copy()
    while e.any():
        out = np.where(e & 1 == 1, out * b % m, out)
        b = b * b % m
        e >>= 1
    return out


def _cipolla(A: np.ndarray, P: np.ndarray) -> np.ndarray:
    """A square root of each square A mod the odd prime P (uint64, A < P < 2^32).

    For t with w = t^2 - A a non-square (Euler's criterion), the root is
    (t + sqrt(w))^((P+1)/2) in F_P[sqrt(w)].  Every product is of two
    residues < 2^32, so uint64 holds it exactly.
    """
    t, w = np.zeros_like(A), np.zeros_like(A)
    pending = np.arange(A.size)
    s = np.uint64(1)
    while pending.size:   # about two tries per modulus
        cand = (s * s % P[pending] + P[pending] - A[pending]) % P[pending]
        found = _pow_mod(cand, (P[pending] - 1) // 2, P[pending]) == P[pending] - 1
        t[pending[found]], w[pending[found]] = s, cand[found]
        pending = pending[~found]
        s += np.uint64(1)
    # (x + y sqrt(w))^e by square-and-multiply in F_P[sqrt(w)]
    x, y, rx, ry, e = t, np.ones_like(A), np.ones_like(A), np.zeros_like(A), (P + 1) // 2
    while e.any():
        odd = e & 1 == 1
        rx, ry = (np.where(odd, (rx * x % P + ry * y % P * w % P) % P, rx),
                  np.where(odd, (rx * y % P + ry * x % P) % P, ry))
        x, y = (x * x % P + y * y % P * w % P) % P, 2 * x % P * y % P
        e >>= 1
    return rx


def sqrt_mod(a, p) -> np.ndarray:
    """A square root r of a mod p, 0 <= r <= p/2, elementwise over the prime moduli
    p < 2^32; -1 where a is not a square mod p.

    p = 3 (mod 4) takes r = a^((p+1)/4) directly; only p = 1 (mod 4) runs
    the non-residue search of Cipolla's algorithm (`_cipolla`).
    """
    a, p = np.broadcast_arrays(np.asarray(a, dtype=np.int64), np.asarray(p, dtype=np.int64))
    if p.size and (p.min() < 2 or p.max() >= 2**32):
        raise ValueError("sqrt_mod needs prime moduli 2 <= p < 2^32")
    A = (a % p).astype(np.uint64).ravel()
    P = p.astype(np.uint64).ravel()
    root = np.where((P == 2) | (A == 0), A.astype(np.int64), -1)
    todo = np.flatnonzero((root < 0) & (_pow_mod(A, (P - 1) // 2, P) == 1))
    A, P = A[todo], P[todo]
    r = np.empty_like(A)
    easy = P % 4 == 3
    r[easy] = _pow_mod(A[easy], (P[easy] + 1) // 4, P[easy])
    r[~easy] = _cipolla(A[~easy], P[~easy])
    root[todo] = np.minimum(r, P - r).astype(np.int64)
    return root.reshape(a.shape)


def divisor_count(n: int) -> int:
    """tau(n), the number of positive divisors."""
    if n <= 0:
        raise ValueError("divisor_count needs n >= 1")
    return math.prod(e + 1 for _, e in factorize(n))


def factorize(n: int) -> list:
    """Prime factorization as a list of (p, e) pairs."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def primes_upto(n: int) -> np.ndarray:
    """The primes p <= n, ascending, by the sieve of Eratosthenes."""
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p:: p] = False
    return np.nonzero(sieve)[0]

