"""Shifted convolution sums and exponent fits.

The sharp-cutoff sum counts n over all of Z with the square-counting
weight, S(X) = A(h) + 2 sum_{n >= 1, n^2 + h <= X^2} A(n^2 + h), which
is the partial-sum reading of the shifted Dirichlet series under Perron
inversion.
"""

from __future__ import annotations

import math

import numpy as np

from .forms import CuspForm


def shifted_sum(f: CuspForm, h: int, X_grid) -> np.ndarray:
    """Exact partial sums S(X) on an increasing grid, accumulated once."""
    if h <= 0:
        raise ValueError("shift h must be positive")
    X_grid = np.atleast_1d(np.asarray(X_grid, dtype=np.float64))
    if np.any(np.diff(X_grid) <= 0):
        raise ValueError("X grid must be strictly increasing")
    if not np.all(np.abs(X_grid) < 2.0**511):   # X^2 and the fuzz below stay finite
        raise ValueError(f"X = {np.max(np.abs(X_grid)):g} is too large: X^2 overflows a double")
    n_needed = math.isqrt(max(int(X_grid[-1] ** 2) - h, 0))
    if n_needed * n_needed + h > f.n_coeffs:
        raise IndexError(
            f"need coefficients to n^2+h = {n_needed**2 + h} > M = {f.n_coeffs}")
    # relative fuzz keeps jump points X = sqrt(n^2 + h) inclusive
    lim = X_grid * X_grid * (1.0 + 8e-16) - h
    ns, cum = _partial_sums(f, h, math.isqrt(max(int(lim[-1]), 0)))
    return np.real(cum[np.searchsorted(ns * ns, lim, side="right")])


def _partial_sums(f: CuspForm, h: int, n_max: int):
    """ns = 1..n_max and the running sums A(h), A(h) + 2 A(1 + h), ...,
    accumulated left to right, so cum[j] is S after the terms n <= j."""
    ns = np.arange(1, n_max + 1)
    a = f.a_squares(h, n_max)
    e = (f.weight - 1) / 2.0
    # as f.A would normalize: Python's pow at the scalar n = h, numpy's on the array
    A = a[1:] / (ns * ns + h).astype(np.float64) ** e
    return ns, np.cumsum(np.concatenate(([a[0] / float(h) ** e], 2.0 * A)))


def shifted_sum_scan(f: CuspForm, h: int, X_max: float):
    """S evaluated at every jump point n^2 + h <= X_max^2 (step function)."""
    ns, cum = _partial_sums(f, h, math.isqrt(max(int(X_max * X_max - h), 0)))
    xs = np.sqrt(ns.astype(np.float64) ** 2 + h)
    return xs, cum[1:]


def fit_exponent(xs, S, c: float) -> float:
    """Least-squares slope of log|S(X) - c X| against log X.

    Raises ValueError on a non-finite X or S, naming the first such row.
    """
    xs, S = np.asarray(xs, dtype=np.float64), np.asarray(S)
    if len(xs) < 8:
        raise ValueError("need at least 8 rows for a stable exponent fit")
    bad = np.flatnonzero(~(np.isfinite(xs) & np.isfinite(S)))
    if bad.size:
        i = bad[0]
        raise ValueError(f"the fit needs finite X and S: row {i + 1} of {len(xs)} has "
                         f"X = {xs[i]:g}, S = {S[i]:g}")
    resid = np.abs(S - c * xs)
    keep = resid > 1e-12
    if keep.sum() < 2:
        raise ValueError("degenerate grid: residuals vanish")
    slope, _ = np.polyfit(np.log(xs[keep]), np.log(resid[keep]), 1)
    return float(slope)
