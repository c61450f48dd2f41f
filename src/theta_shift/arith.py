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


def unit_table(c: int):
    """Units d mod c in increasing order with their inverses, as int64 arrays.

    The inverse of d is d^(phi(c)-1) mod c (Euler), by square-and-multiply
    over the whole array; exact while (c-1)^2 fits in int64.  At c = 1 the
    single residue 0 is returned, with inverse 0.
    """
    units = np.flatnonzero(np.gcd(np.arange(c), c) == 1)
    e = len(units) - 1
    invs = np.full(len(units), 1 % c, dtype=np.int64)
    b = units % c
    while e:
        if e & 1:
            invs = invs * b % c
        b = b * b % c
        e >>= 1
    return units, invs


def epsilon_d(d: int) -> complex:
    """Gauss-sign unit: 1 for d = 1 mod 4, i for d = 3 mod 4."""
    if d % 2 == 0:
        raise ValueError(f"epsilon_d requires odd d, got {d}")
    return 1 if d % 4 == 1 else 1j


@dataclass(frozen=True)
class Residue:
    """An integer reduced into [0, modulus)."""

    value: int
    modulus: int

    def __post_init__(self):
        if self.modulus <= 0:
            raise ValueError("modulus must be positive")
        object.__setattr__(self, "value", self.value % self.modulus)


@dataclass(frozen=True)
class DirichletCharacter:
    """A Dirichlet character mod N given by its full value table.

    values[d] is the character at the residue d, zero when gcd(d, N) > 1.
    The table representation keeps factorization and conductor logic as
    plain table surgery, which is all we need at desk-scale moduli.
    """

    modulus: int
    values: tuple = field(repr=False)
    conductor: int = 0
    is_even: bool = True
    label: str = ""

    def __post_init__(self):
        n = self.modulus
        if n <= 0:
            raise ValueError("modulus must be positive")
        if len(self.values) != n:
            raise ValueError("value table length must equal the modulus")
        if self.conductor == 0:
            object.__setattr__(self, "conductor", _conductor(n, self.values))
        object.__setattr__(self, "is_even", abs(complex(self(n - 1)) - 1) < 1e-9)

    def __call__(self, d: int) -> complex:
        return self.values[d % self.modulus]

    def array(self) -> np.ndarray:
        """The value table as a complex128 array."""
        return np.array(self.values, dtype=np.complex128)

    def conj(self, d: int) -> complex:
        v = self.values[d % self.modulus]
        return v.conjugate() if isinstance(v, complex) else v

    @property
    def is_trivial(self) -> bool:
        return self.conductor == 1

    def validate(self, exhaustive: bool = False) -> None:
        """Check the table is a genuine character (multiplicative, unit values).

        Multiplicativity runs over a 32x32 stratified unit sample by
        default (construction-time guard); exhaustive=True sweeps every
        unit pair, which the property tests use at small moduli.
        """
        n = self.modulus
        vals = self.array()
        if vals[1 % n] != 1:
            raise ValueError("character must take value 1 at d = 1")
        coprime = np.gcd(np.arange(n), n) == 1
        non_unit = coprime & (np.abs(np.abs(vals) - 1.0) > 1e-12)
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


def _conductor(n: int, values) -> int:
    """Least modulus f | n through which the character factors."""
    for f in sorted(_divisors(n)):
        # induced by a character mod f iff chi(a) = 1 whenever a = 1 mod f
        if all(
            abs(complex(values[a]) - 1) < 1e-9
            for a in range(1, n, f)
            if math.gcd(a, n) == 1
        ):
            return f
    return n


def _divisors(n: int) -> list:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return out


def trivial_character(n: int) -> DirichletCharacter:
    vals = tuple(1 if math.gcd(d, n) == 1 else 0 for d in range(n))
    return DirichletCharacter(modulus=n, values=vals, label=f"trivial mod {n}")


def char_from_kronecker(D: int, N: int) -> DirichletCharacter:
    """Tabulate d -> (D/d) as a character mod N.

    Raises ValueError when the map is not periodic mod N (checked
    directly on one full extra period) or not multiplicative on units.
    """
    if N <= 0:
        raise ValueError("modulus must be positive")
    d = np.arange(2 * N)
    vals = np.where(np.gcd(d, N) == 1, kronecker_array(D, d), 0)
    if np.any(vals[N:] != vals[:N]):
        raise ValueError(f"(D/.) with D={D} is not periodic mod {N}")
    chi = DirichletCharacter(modulus=N, values=tuple(vals[:N].tolist()),
                             label=f"({D}/.) mod {N}")
    chi.validate()
    return chi


def char_from_table(N: int, values) -> DirichletCharacter:
    chi = DirichletCharacter(modulus=N, values=tuple(values))
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
        # chi_f(d) = chi(d') with d' = d mod nf, d' = 1 mod ng
        if nf == 1:
            return trivial_character(1)
        _, inv_ng, _ = _ext_gcd(ng, nf)
        vals = []
        for d in range(nf):
            if math.gcd(d, nf) != 1:
                vals.append(0)
                continue
            # d' = 1 + ng * k with ng*k = d-1 mod nf
            k = ((d - 1) * inv_ng) % nf
            dp = (1 + ng * k) % N if N > 1 else 0
            vals.append(chi(dp))
        return DirichletCharacter(modulus=nf, values=tuple(vals))

    return component(nr, ns), component(ns, nr)


def _ext_gcd(a: int, b: int):
    """Return (g, x, y) with a*x + b*y = g = gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def inverse_mod(a: int, n: int) -> int:
    if n == 1:
        return 0
    g, x, _ = _ext_gcd(a % n, n)
    if g != 1:
        raise ValueError(f"{a} is not invertible mod {n}")
    return x % n


def divisor_count(n: int) -> int:
    """tau(n), the number of positive divisors."""
    if n <= 0:
        raise ValueError("divisor_count needs n >= 1")
    count = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            count *= e + 1
        d += 1
    if n > 1:
        count *= 2
    return count


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


def serialize_character(chi: DirichletCharacter) -> dict:
    """Structured record: kronecker form when labeled as one, else a table."""
    label = chi.label
    if label.startswith("(") and "/.) mod" in label:
        D = int(label[1:label.index("/")])
        return {"modulus": chi.modulus, "kronecker_discriminant": D}
    table = [(complex(v).real, complex(v).imag) for v in chi.values]
    return {"modulus": chi.modulus, "value_table": table}


def deserialize_character(rec: dict) -> DirichletCharacter:
    if "kronecker_discriminant" in rec:
        return char_from_kronecker(rec["kronecker_discriminant"], rec["modulus"])
    vals = []
    for re, im in rec["value_table"]:
        vals.append(complex(re, im) if im else (int(re) if re == int(re) else re))
    return char_from_table(rec["modulus"], vals)
