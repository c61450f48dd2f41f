"""Upper incomplete gamma on the imaginary axis: Im Gamma(a, -i z).

This is the oscillatory tail integral Im int_z^inf u^{a-1} e^{iu} du
(equivalently int_z^inf sin(u - pi a / 2) u^{a-1} du up to bookkeeping)
that drives the closed reduction of the Bessel-kernel integrals.
Series below the crossover, continued fraction above, with the a <= 0
range reached by the upward recurrence.  Vectorized in z.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import exp1

_CROSSOVER = 8.0
_CF_ITERS = 220
_TINY = 1e-300
# a tighter test than a few ulps never fires in double precision
_STOP = 4.0 * np.finfo(np.float64).eps


def _lower_gamma_series(a: float, x: np.ndarray) -> np.ndarray:
    """gamma(a, x) for complex x, |x| < ~20, a > 0, by the stable P-series."""
    term = np.ones_like(x) / a
    total = term.copy()
    for n in range(1, 200):
        term = term * x / (a + n)
        total += term
        if np.all(np.abs(term) <= 1e-18 * np.abs(total)):
            break
    return total * np.exp(a * np.log(x) - x)


def _upper_gamma_cf(a: float, x: np.ndarray) -> np.ndarray:
    """Gamma(a, x) by the Lentz continued fraction, |x| >= ~10, any a.

    An element stops once its step factor is within _STOP of 1 (3 to 27
    steps for |x| >= 8); the rest go on without it, so no element pays
    for the slowest one or gathers rounding from steps past convergence.
    """
    b = x + 1.0 - a
    c = np.full_like(x, 1.0 / _TINY)
    d = 1.0 / b
    h = d.copy()
    live = np.arange(x.size)
    for i in range(1, _CF_ITERS):
        an = -i * (i - a)
        b = b + 2.0
        d = an * d + b
        d[np.abs(d) < _TINY] = _TINY
        c = b + an / c
        c[np.abs(c) < _TINY] = _TINY
        d = 1.0 / d
        delta = d * c
        h[live] *= delta
        going = np.abs(delta - 1.0) >= _STOP
        if not going.any():
            break
        if not going.all():
            live, b, c, d = live[going], b[going], c[going], d[going]
    return np.exp(-x + a * np.log(x)) * h


def upper_gamma_imag_axis(a: float, z) -> np.ndarray:
    """Gamma(a, -i z) for real a in (-2, 2) and z > 0 (complex output)."""
    z = np.atleast_1d(np.asarray(z, dtype=np.float64))
    if np.any(z <= 0):
        raise ValueError("z must be positive")
    x = -1j * z
    out = np.empty(z.shape, dtype=np.complex128)
    hi = z >= _CROSSOVER
    if hi.any():
        out[hi] = _upper_gamma_cf(a, x[hi])
    lo = ~hi
    if lo.any():
        out[lo] = _upper_gamma_small(a, x[lo])
    return out


def _upper_gamma_small(a: float, xl: np.ndarray) -> np.ndarray:
    """Gamma(a, x) for |x| below the CF crossover, a in (-2, 2).

    Series for a > 0, upward recurrence below, with exp1 anchoring the
    integer landings at a = 0 and a = -1.  Arguments within 2e-3 of a
    nonpositive integer (but not equal to it) hit a cancellation sliver
    and are delegated to mpmath.
    """
    if a == 0.0:
        return exp1(xl)
    near_int = abs(a - round(a)) < 2e-3 and round(a) <= 0 and a != round(a)
    if near_int:
        import mpmath as mp
        return np.array(
            [complex(mp.gammainc(mp.mpf(a), complex(v), mp.inf)) for v in xl],
            dtype=np.complex128,
        )
    if a > 0:
        return math.gamma(a) - _lower_gamma_series(a, xl)
    return (_upper_gamma_small(a + 1.0, xl) - np.exp(a * np.log(xl) - xl)) / a


def im_upper_gamma_imag_axis(a: float, z) -> np.ndarray:
    """E(a, z) = Im Gamma(a, -i z), vectorized over z > 0."""
    return np.imag(upper_gamma_imag_axis(a, z))
