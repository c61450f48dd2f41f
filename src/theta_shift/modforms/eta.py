"""q-expansion of the weight-3 eta product q prod (1-q^n)^3 (1-q^{7n})^3.

This is the dihedral level-7 form with character chi = (-7/.), the
workhorse of the experiments.  Two independent routes give its integer
coefficients a(n).

The dense scatter, `eta_cubed_pair_coeffs`, builds a(1..M).  Cubes of the
eta factor expand by the classical alternating-triangular series
prod (1-q^n)^3 = sum_{a>=0} (-1)^a (2a+1) q^{a(a+1)/2}, so

    a(n) = sum over 1 + a(a+1)/2 + 7 b(b+1)/2 = n of
           (-1)^(a+b) (2a+1)(2b+1),

one vectorized scatter per b (indices within one b are distinct, so
fancy-index addition is safe).

The sieve, `eta_cubed_pair_squares`, gives a(j^2 + h) for j = 0..J, the
only pattern the shifted sums and the symmetric square read.  The form has
CM by Q(sqrt(-7)), so a is multiplicative with

    a(p) = u^2 - 2p where u^2 + 7w^2 = 4p  (chi(p) = 1, Cornacchia),
    a(p) = 0  (chi(p) = -1),   a(7) = -7,
    a(p^(k+1)) = a(p) a(p^k) - chi(p) p^2 a(p^(k-1)).

Every prime p <= sqrt(J^2 + h) dividing some j^2 + h is found from the
roots of r^2 = -h (mod p), along j = +-r (mod p); what is left of j^2 + h
is 1 or one prime q.  Moduli stay below 2^32, so `sqrt_mod` and the
Cornacchia steps are exact in 64-bit integers.

What does not change between requests is built once per interpreter: the
sieve keeps its last 8 (h, J) rows and `eta7_cusp_form_on_demand` one form,
both read-only, so a repeated CLI request pays for none of it again.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ..arith import char_from_kronecker, kronecker_array, primes_upto, sqrt_mod
from .forms import CuspForm

_SQUARES_MAX = 2**32   # a(j^2 + h) by the sieve reaches this n: moduli stay below 2^32
_DENSE_M = 20_000      # the sieve form's dense table: a(1), and Deligne's check to p = 20000


def eta_cubed_pair_coeffs(M: int) -> np.ndarray:
    """Integer coefficients a(1..M)."""
    if M < 1:
        raise ValueError("M must be >= 1")
    out = np.zeros(M + 1, dtype=np.int64)
    amax = (math.isqrt(8 * M + 1) + 1) // 2
    ar = np.arange(amax + 1, dtype=np.int64)
    tri = ar * (ar + 1) // 2
    wa = np.where(ar % 2 == 0, 2 * ar + 1, -(2 * ar + 1))
    b = 0
    while True:
        base = 1 + 7 * b * (b + 1) // 2
        if base > M:
            break
        wb = (2 * b + 1) if b % 2 == 0 else -(2 * b + 1)
        idx = base + tri
        sel = idx <= M
        out[idx[sel]] += wa[sel] * wb
        b += 1
    return out[1:]


def _a_prime(p: np.ndarray) -> np.ndarray:
    """a(p) at each prime p < 2^32, by Cornacchia's algorithm for u^2 + 7w^2 = 4p
    (Cohen, A Course in Computational Algebraic Number Theory, Alg. 1.5.3)."""
    split = np.flatnonzero(np.isin(p % 7, (1, 2, 4)))   # (-7/p) = (p/7) = 1, p = 2 included
    P = p[split]
    x0 = sqrt_mod(-7, P)
    b = np.where(x0 % 2 == 1, x0, P - x0)       # u = -7 = 1 (mod 2)
    a = 2 * P
    bound = np.sqrt(4.0 * P).astype(np.int64)   # floor(2 sqrt(p)): exact, as 4p < 2^34
    live = np.flatnonzero(b > bound)
    while live.size:
        a[live], b[live] = b[live], a[live] % b[live]
        live = live[b[live] > bound[live]]
    w2 = (4 * P - b * b) // 7
    w = np.sqrt(w2).round().astype(np.int64)
    if np.any(b * b + 7 * w * w != 4 * P):
        raise ArithmeticError("Cornacchia's algorithm found no u^2 + 7w^2 = 4p at a split prime")
    out = np.where(p == 7, -7, 0)
    out[split] = b * b - 2 * P
    return out


@functools.lru_cache(maxsize=8)
def eta_cubed_pair_squares(h: int, J: int) -> np.ndarray:
    """a(j^2 + h) for j = 0..J as a read-only int64 array, kept for the last 8
    (h, J), with a(0) = 0, the constant term of a cusp form; needs h >= 0 and
    J^2 + h <= 2^32.

    The roots of r^2 = -h (mod p), one `sqrt_mod` call over every prime
    p <= sqrt(J^2 + h), give every hit j = +-r (mod p) as one index array.
    The valuations e of all hits are taken together, with a(p^e) from the
    Hecke recurrence, and both fold in with `np.multiply.at`.  The
    cofactor n / prod p^e is 1 or a prime q, and a(q) comes from `_a_prime`.
    """
    if h < 0 or J < 0:
        raise ValueError(f"a(j^2 + h) needs h >= 0 and J >= 0, got h = {h}, J = {J}")
    if J * J + h > _SQUARES_MAX:
        raise ValueError(f"a(j^2 + h) needs j^2 + h <= 2^32, got {J * J + h}")
    j = np.arange(J + 1, dtype=np.int64)
    n = j * j + h
    ps = primes_upto(math.isqrt(J * J + h))
    roots = sqrt_mod(-h, ps)
    ps, roots = ps[roots >= 0], roots[roots >= 0]
    ap_ps = _a_prime(ps)
    # one residue class j = r (mod p) per root: r, and p - r unless 2r = 0 (mod p)
    second = np.flatnonzero(2 * roots % ps != 0)
    which = np.concatenate([np.arange(ps.size), second])
    r_cls = np.concatenate([roots, ps[second] - roots[second]])
    p_cls = ps[which]
    counts = np.maximum((J - r_cls) // p_cls + 1, 0)
    cls = np.repeat(np.arange(p_cls.size), counts)
    step = np.arange(cls.size) - np.repeat(np.cumsum(counts) - counts, counts)
    hit_j = r_cls[cls] + p_cls[cls] * step
    keep = n[hit_j] > 0                         # n = 0 (j = 0, h = 0) has no factorization
    hit_j, prime = hit_j[keep], which[cls[keep]]
    p, ap, chi = ps[prime], ap_ps[prime], kronecker_array(-7, ps)[prime]
    # p^e exactly dividing n at each hit, and a(p^e) by the Hecke recurrence
    pe, rest = p.copy(), n[hit_j] // p
    ape, prev = ap.copy(), np.ones_like(p)
    live = np.flatnonzero(rest % p == 0)
    while live.size:
        rest[live] //= p[live]
        pe[live] *= p[live]
        ape[live], prev[live] = (ap[live] * ape[live] - chi[live] * p[live] ** 2 * prev[live],
                                 ape[live])
        live = live[rest[live] % p[live] == 0]
    out = np.ones(J + 1, dtype=np.int64)
    smooth = np.ones(J + 1, dtype=np.int64)
    np.multiply.at(out, hit_j, ape)
    np.multiply.at(smooth, hit_j, pe)
    q = n // smooth
    big = np.flatnonzero(q > 1)
    out[big] *= _a_prime(q[big])
    out[n == 0] = 0
    out.flags.writeable = False
    return out


def _eta7(coeffs, **squares) -> CuspForm:
    return CuspForm(level=28, weight=3, character=char_from_kronecker(-7, 28), coeffs=coeffs,
                    label="eta(z)^3 eta(7z)^3, level 7 lifted to 28", **squares)


def eta7_cusp_form(M: int) -> CuspForm:
    """The weight-3, level-7 dihedral form, lifted to level 28."""
    return _eta7(eta_cubed_pair_coeffs(M).astype(np.float64))


@functools.cache
def eta7_cusp_form_on_demand() -> CuspForm:
    """The same form, one per interpreter: a(j^2 + h) from the sieve for
    j^2 + h <= 2^32, any other a(n) from the read-only dense table to n = 20000."""
    coeffs = eta_cubed_pair_coeffs(_DENSE_M).astype(np.float64)
    coeffs.flags.writeable = False
    return _eta7(coeffs, squares=eta_cubed_pair_squares, squares_max=_SQUARES_MAX)
