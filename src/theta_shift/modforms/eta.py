"""q-expansion of the weight-3 eta product q prod (1-q^n)^3 (1-q^{7n})^3.

Cubes of the eta factor expand by the classical alternating-triangular
series prod (1-q^n)^3 = sum_{a>=0} (-1)^a (2a+1) q^{a(a+1)/2}, so the
product has integer coefficients

    a(n) = sum over 1 + a(a+1)/2 + 7 b(b+1)/2 = n of
           (-1)^(a+b) (2a+1)(2b+1).

Two routes read this identity.  `eta_cubed_pair_coeffs` builds the dense
table a(1..M) by one vectorized scatter per b (indices within one b are
distinct, so fancy-index addition is safe).  `eta_cubed_pair_at` gives
a(n) at chosen n only, by testing 8(n - 1 - 7 b(b+1)/2) + 1 for a square
at every b; the shifted sums read a(n^2 + h), a few thousand entries of a
table of ~1.7e7.  This is the dihedral level-7 form with character
(-7/.), the workhorse of the experiments.
"""

from __future__ import annotations

import math

import numpy as np

from ..arith import char_from_kronecker
from .forms import CuspForm

_BLOCK = 256       # at most this many n per vectorized pass
_CELLS = 2**20     # at most this many (n, b) cells per pass: 8 MB per float64 temporary
# a(n) on demand stops here.  A sum to X reads ~X entries of ~sqrt(2 X^2 / 7) cells each,
# ~0.27 M cells in all for n ~ X^2: at this n, sym2 --ymax 65535 takes 15 s on a 2-core
# host.  Below it 8n + 1 < 2^53, so float64 sqrt finds squares exactly, and one n has at
# most 35,032 values of b, so one pass of _CELLS holds a block's whole b-range.
_MAX_N = 2**32


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


def _b_count(n) -> int:
    """Number of b >= 0 with 28 b^2 <= 8(n - 1) + 1, a superset of those with
    7 b(b+1)/2 <= n - 1."""
    return math.isqrt((8 * (int(n) - 1) + 1) // 28) + 1


def eta_cubed_pair_at(ns) -> np.ndarray:
    """a(n) at each integer 1 <= n <= 2^32 of `ns`, as float64 holding exact integers.

    n - 1 = a(a+1)/2 + 7 b(b+1)/2 holds iff s = 8(n - 1 - 7 b(b+1)/2) + 1 is
    the square of 2a + 1, and (-1)^a (2a+1) is +sqrt(s) when sqrt(s) = 1 mod 4,
    else -sqrt(s).  The distinct n are taken in sorted blocks, each scanning
    every b its largest n allows in one pass of at most _CELLS (n, b) cells:
    fewer n per block as n grows.
    """
    ns = np.asarray(ns)
    if ns.dtype.kind not in "iu":
        raise TypeError(f"n must be integers, got dtype {ns.dtype}")
    uniq, inverse = np.unique(ns.astype(np.int64), return_inverse=True)
    if uniq.size:
        if uniq[0] < 1:
            raise ValueError(f"a(n) needs n >= 1, got n = {int(uniq[0])}")
        if uniq[-1] > _MAX_N:
            raise ValueError(f"a(n) on demand needs n <= 2^32, got n = {int(uniq[-1])}")
    out = np.zeros(uniq.size)
    lo = 0
    while lo < uniq.size:
        hi = min(lo + _BLOCK, uniq.size)
        hi = min(hi, lo + max(1, _CELLS // _b_count(uniq[hi - 1])))
        b = np.arange(_b_count(uniq[hi - 1]))
        s = (8.0 * (uniq[lo:hi] - 1) + 1.0)[:, None] - (28 * b * (b + 1)).astype(np.float64)
        root = np.maximum(s, 0.0)
        np.floor(np.sqrt(root, out=root), out=root)
        rows, b_hit = np.nonzero(root * root == s)
        k = root[rows, b_hit]
        sign = np.where((k % 4 == 1) == (b_hit % 2 == 0), 1.0, -1.0)
        out[lo:hi] = np.bincount(rows, sign * k * (2 * b_hit + 1), minlength=hi - lo)
        lo = hi
    return out[inverse].reshape(ns.shape)


class _CoeffsOnDemand:
    """Read-only stand-in for the float64 array a(1..2^32): indexing with an
    int or an int array computes just those entries."""

    dtype = np.dtype(np.float64)

    def __len__(self) -> int:
        return _MAX_N

    def __getitem__(self, idx):
        return eta_cubed_pair_at(np.asarray(idx) + 1)[()]   # a scalar for an int index


def _eta7(coeffs) -> CuspForm:
    return CuspForm(level=28, weight=3, character=char_from_kronecker(-7, 28), coeffs=coeffs,
                    label="eta(z)^3 eta(7z)^3, level 7 lifted to 28")


def eta7_cusp_form(M: int) -> CuspForm:
    """The weight-3, level-7 dihedral form, lifted to level 28."""
    return _eta7(eta_cubed_pair_coeffs(M).astype(np.float64))


def eta7_cusp_form_on_demand() -> CuspForm:
    """The same form, computing a(n) only where it is read (n <= 2^32)."""
    return _eta7(_CoeffsOnDemand())
