"""Jacobi theta series and numerical verification of its weight-1/2
multiplier on Gamma_0(4).

The transformation reads theta(g z) = eps_d^{-1} (c/d) (cz+d)^{1/2}
theta(z) with the principal branch square root and the extended
Kronecker symbol; the residual function below measures the defect of
that identity directly from truncated series on both sides.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from ..arith import epsilon_d, inverse_mod, kronecker


def theta_series(z: complex) -> complex:
    """theta(z) = sum_n e(n^2 z), truncated once terms drop below 1e-18."""
    if z.imag <= 0:
        raise ValueError("z must lie in the upper half plane")
    total = 1.0 + 0j
    n = 1
    while True:
        term = 2.0 * cmath.exp(2j * cmath.pi * n * n * z)
        total += term
        if abs(term) < 1e-18:
            return total
        n += 1
        if n > 10**7:
            raise RuntimeError("theta series failed to converge (Im z too small)")


def theta_multiplier(gamma) -> complex:
    """eps_d^{-1} (c/d) for gamma in Gamma_0(4)."""
    a, b, c, d = _check_gamma(gamma)
    return kronecker(c, d) / epsilon_d(d)


def _check_gamma(gamma):
    a, b, c, d = gamma
    if a * d - b * c != 1:
        raise ValueError(f"matrix {gamma} has determinant != 1")
    if c % 4 != 0:
        raise ValueError(f"matrix {gamma} is not in Gamma_0(4)")
    return a, b, c, d


def theta_transform_residual(gamma, z: complex) -> float:
    """|theta(gz) - eps_d^{-1}(c/d)(cz+d)^{1/2} theta(z)|."""
    a, b, c, d = _check_gamma(gamma)
    cz_d = c * z + d
    gz = (a * z + b) / cz_d
    lhs = theta_series(gz)
    rhs = theta_multiplier(gamma) * cmath.sqrt(cz_d) * theta_series(z)
    return abs(lhs - rhs)


def random_gamma0_matrix(rng: np.random.Generator, max_entry: int = 50):
    """Uniform-ish member of Gamma_0(4) with all entries <= max_entry.

    Draws (c, d) coprime with 4 | c, then picks the inverse
    representative a that keeps b = (ad-1)/c small.
    """
    while True:
        c = 4 * int(rng.integers(-(max_entry // 4), max_entry // 4 + 1))
        d = int(rng.integers(-max_entry + 1, max_entry))
        if c == 0:
            if d in (1, -1):
                b = int(rng.integers(-max_entry + 1, max_entry))
                return (d, b, 0, d)
            continue
        if d == 0 or math.gcd(abs(c), abs(d)) != 1:
            continue
        a = inverse_mod(d, abs(c))
        if a > abs(c) // 2:
            a -= abs(c)
        b = (a * d - 1) // c
        if abs(a) <= max_entry and abs(b) <= max_entry:
            return (a, b, c, d)
