"""q-expansion of the weight-3 eta product q prod (1-q^n)^3 (1-q^{tn})^3.

Cubes of the eta factor expand by the classical alternating-triangular
series prod (1-q^n)^3 = sum_{a>=0} (-1)^a (2a+1) q^{a(a+1)/2}, so the
product has integer coefficients

    a(n) = sum over 1 + a(a+1)/2 + t b(b+1)/2 = n of
           (-1)^(a+b) (2a+1)(2b+1).

Two routes read this identity.  `eta_cubed_pair_coeffs` builds the dense
table a(1..M) by one vectorized scatter per b (indices within one b are
distinct, so fancy-index addition is safe).  `eta_cubed_pair_at` gives
a(n) at chosen n only, for t = 7, by testing 8(n - 1 - 7 b(b+1)/2) + 1
for a square at every b; the shifted sums read a(n^2 + h), a few thousand
entries of a table of ~1.7e7.  t = 7 gives the dihedral level-7 form with
character (-7/.), the workhorse of the experiments.
"""

from __future__ import annotations

import math

import numpy as np

from ..arith import char_from_kronecker
from .forms import CuspForm

# float64 holds every 8(n-1)+1 below this exactly, so sqrt finds its squares
_EXACT_LIMIT = 2**53
_BLOCK = 256       # at most this many n per vectorized pass
_CELLS = 2**20     # at most this many (n, b) cells per pass: 8 MB per float64 temporary
# a sum to X reads ~X entries of ~sqrt(2 X^2 / 7) cells each, ~0.27 M cells in all
# for M = X^2: at this M, sym2 --ymax 65535 takes 15 s on a 2-core host
_ON_DEMAND_MAX_M = 2**32


def eta_cubed_pair_coeffs(M: int, t: int = 7) -> np.ndarray:
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
        base = 1 + t * b * (b + 1) // 2
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
    """a(n) for t = 7 at each integer n >= 1 of `ns`, as float64 holding exact integers.

    n - 1 = a(a+1)/2 + 7 b(b+1)/2 holds iff s = 8(n - 1 - 7 b(b+1)/2) + 1 is
    the square of 2a + 1, and (-1)^a (2a+1) is +sqrt(s) when sqrt(s) = 1 mod 4,
    else -sqrt(s).  The distinct n are taken in sorted blocks, so each block
    scans only the b its largest n allows, and a pass holds at most _CELLS
    (n, b) cells: fewer n per block as n grows, and b in slices for one n.
    """
    ns = np.asarray(ns)
    if ns.dtype.kind not in "iu":
        raise TypeError(f"n must be integers, got dtype {ns.dtype}")
    uniq, inverse = np.unique(ns.astype(np.int64), return_inverse=True)
    if uniq.size:
        if uniq[0] < 1:
            raise ValueError(f"a(n) needs n >= 1, got n = {int(uniq[0])}")
        if 8 * int(uniq[-1]) + 1 >= _EXACT_LIMIT:
            raise ValueError(f"a(n) needs 8n + 1 < 2^53 for an exact square test, "
                             f"got n = {int(uniq[-1])}")
    out = np.zeros(uniq.size)
    lo = 0
    while lo < uniq.size:
        hi = min(lo + _BLOCK, uniq.size)
        hi = min(hi, lo + max(1, _CELLS // _b_count(uniq[hi - 1])))
        s_n = 8.0 * (uniq[lo:hi] - 1) + 1.0
        n_b = _b_count(uniq[hi - 1])
        step = max(1, _CELLS // s_n.size)
        for b0 in range(0, n_b, step):
            b = np.arange(b0, min(b0 + step, n_b))
            s = s_n[:, None] - (28 * b * (b + 1)).astype(np.float64)
            root = np.maximum(s, 0.0)
            np.floor(np.sqrt(root, out=root), out=root)
            rows, cols = np.nonzero(root * root == s)
            k = root[rows, cols]
            b_hit = b[cols]
            sign = np.where((k % 4 == 1) == (b_hit % 2 == 0), 1.0, -1.0)
            out[lo:hi] += np.bincount(rows, sign * k * (2 * b_hit + 1), minlength=s_n.size)
        lo = hi
    return out[inverse].reshape(ns.shape)


class _CoeffsOnDemand:
    """Read-only stand-in for the float64 array a(1..M): indexing with an
    int or an int array computes just those entries."""

    dtype = np.dtype(np.float64)

    def __init__(self, M: int):
        self.M = M

    def __len__(self) -> int:
        return self.M

    def __getitem__(self, idx):
        idx = np.asarray(idx)
        if idx.size and (idx.min() < 0 or idx.max() >= self.M):
            raise IndexError(f"index outside [0, {self.M}) of the coefficient array")
        return eta_cubed_pair_at(idx + 1)[()]   # a scalar for an int index


def _eta7(coeffs) -> CuspForm:
    return CuspForm(level=28, weight=3, character=char_from_kronecker(-7, 28), coeffs=coeffs,
                    label="eta(z)^3 eta(7z)^3, level 7 lifted to 28")


def eta7_cusp_form(M: int) -> CuspForm:
    """The weight-3, level-7 dihedral form, lifted to level 28."""
    return _eta7(eta_cubed_pair_coeffs(M, t=7).astype(np.float64))


def eta7_cusp_form_on_demand(M: int) -> CuspForm:
    """The same form, computing a(n) only where it is read (n <= M)."""
    if M > _ON_DEMAND_MAX_M:
        raise ValueError(f"eta7 coefficients on demand stop at n = 2^32 (--xmax or --ymax "
                         f"below 65536), got M = {M}")
    return _eta7(_CoeffsOnDemand(M))
