"""Residual-spectrum main-term constant and its ingredients.

The constant multiplying X in the shifted-sum asymptotic (split off the
residual spectrum) is a pure gamma-factor package times the symmetric
square residue; it vanishes outside a narrow dihedral regime (odd
weight, square-free odd N/4, quadratic character attached to N/4, and
N | 4h).  Two algebraically equal evaluations are kept: the literal
gamma product and the duplication-formula simplification; their
agreement is asserted in tests.
"""

from __future__ import annotations

import math

import numpy as np

from ..arith import factorize, kronecker_array, unit_mask
from ..specfun.mellin import direct_G
from .forms import CuspForm, r1

ZETA2 = math.pi * math.pi / 6.0


def _is_squarefree(n: int) -> bool:
    return all(e == 1 for _, e in factorize(n))


def residual_conditions(f: CuspForm) -> list:
    """Unmet structural conditions for a nonzero residual constant."""
    problems = []
    if f.weight % 2 == 0:
        problems.append("weight must be odd")
    n4 = f.level // 4
    if n4 % 2 == 0 or not _is_squarefree(n4):
        problems.append("N/4 must be odd and square-free")
    else:
        units = np.flatnonzero(unit_mask(f.level))
        diff = f.character.values[units] - kronecker_array(units, n4)
        if np.max(np.abs(diff)) >= 1e-9:
            problems.append("character must be (./(N/4))")
    return problems


def residual_constant(f: CuspForm, h: int, R: float) -> float:
    """Main-term constant from the residual spectrum, given the symmetric
    square residue R; zero whenever a structural condition fails."""
    if h <= 0:
        raise ValueError("h must be positive")
    if residual_conditions(f):
        return 0.0
    if (4 * h) % f.level != 0:
        return 0.0
    k = f.weight
    r1_val = r1(4 * h // f.level)
    if r1_val == 0:
        return 0.0
    sign = -1.0 if (k - 1) // 2 % 2 == 1 else 1.0
    front = 2.0 ** (k / 2.0) * math.sqrt(math.pi) * sign * r1_val / (
        ZETA2 * math.gamma((k + 1) / 2.0))
    gammas = math.gamma(0.5) / (math.gamma(k / 2.0) * math.gamma(1.0 - k / 2.0))
    return front * gammas * R


def residual_constant_duplication(f: CuspForm, h: int, R: float) -> float:
    """Same constant through the duplication-formula simplification
    2^{k/2} r1(4h/N) R / (zeta(2) Gamma((k+1)/2)); the reflection identity
    collapses the sign and the gamma pair."""
    if h <= 0:
        raise ValueError("h must be positive")
    if residual_conditions(f) or (4 * h) % f.level != 0:
        return 0.0
    k = f.weight
    r1_val = r1(4 * h // f.level)
    return 2.0 ** (k / 2.0) * r1_val * R / (ZETA2 * math.gamma((k + 1) / 2.0))


def sym2_residue_estimate(f: CuspForm, Y_grid) -> tuple:
    """Log-slope estimate of the symmetric square residue.

    P(Y) = sum_{n <= Y} a(n^2) / n^k grows like (R / zeta(2)) log Y when
    the symmetric square L-function has a pole; returns (R_hat, quality)
    with quality the rms fit residual (smaller is better).  For eta7 at
    M = 1.69e7, R_hat is 0.21% from the exact residue, so it is not the
    source of the main-term gap that `main_term_gate` reports.
    """
    top = int(Y_grid[-1])   # checked before the int64 cast, which a huge Y would overflow
    if top * top > f.n_coeffs:
        raise IndexError(f"need a(n^2) to n={top}, i.e. M >= {top * top}")
    Y_grid = np.atleast_1d(np.asarray(Y_grid, dtype=np.int64))
    if np.any(np.diff(Y_grid) <= 0) or Y_grid[0] < 2:
        raise ValueError("Y grid must be increasing with Y >= 2")
    if len(Y_grid) < 3:
        raise ValueError(f"need at least 3 distinct Y for the log-slope fit, got {len(Y_grid)}")
    ns = np.arange(1, top + 1)
    terms = np.real(f.a_squares(0, top)[1:]) / ns.astype(np.float64) ** f.weight
    P = np.cumsum(terms)
    pts = P[Y_grid - 1]
    logs = np.log(Y_grid.astype(np.float64))
    slope, intercept = np.polyfit(logs, pts, 1)
    fitted = slope * logs + intercept
    quality = float(np.sqrt(np.mean((pts - fitted) ** 2)) / max(abs(slope), 1e-30))
    return float(ZETA2 * slope), quality


def remark_inner_product(k: int) -> float:
    """The explicit nonvanishing inner product at level 576, weight k = 1 mod 4.

    Quadrature route: the unfolded coefficient sum collapses to the
    single pair n1 = n2^2 = 1, giving 4 (4 pi)^{-1/4} times the
    y-integral of y^{k/2-3/4} e^{-6 pi y} W_{kappa/2, 1/4}(4 pi y) dy/y
    (factor 4 = r1(1) times the two signs of n2).  Equals
    2^{11/2-5k/2} pi^{1/2-k/2} Gamma(k-1) sin(pi (k+1)/4).
    """
    if k < 5 or k % 4 != 1:
        raise ValueError("k must be >= 5 with k = 1 mod 4")
    integral = direct_G(1, 1, 2, k, -0.25j)
    return 4.0 * (4.0 * math.pi) ** (-0.25) * integral


def remark_closed_form(k: int) -> float:
    if k < 5 or k % 4 != 1:
        raise ValueError("k must be >= 5 with k = 1 mod 4")
    return (2.0 ** (5.5 - 2.5 * k) * math.pi ** (0.5 - k / 2.0)
            * math.gamma(k - 1.0) * math.sin(math.pi * (k + 1) / 4.0))
