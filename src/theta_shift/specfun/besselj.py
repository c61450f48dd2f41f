"""J-Bessel function of purely imaginary order 2it.

Ascending power series up to q = 14 and the large-argument (Hankel)
expansion above, which together cover the kernel integrals.  Two
well-known numerical potholes are patched rather than ignored:

* the alternating series loses ~q/2.3 digits to cancellation, so it is
  summed in doubles only up to q = 14;
* the Hankel expansion needs q large compared to the order squared, so
  it is used only where 16 t^2 <= q; for q > 14 with 16 t^2 > q the
  evaluation goes to mpmath at boosted precision.

At the edge 16 t^2 = q, q just above 14, the Hankel expansion's optimal
truncation leaves about 1e-11 relative error; everything stays within
the 1e-8 relative target.
"""

from __future__ import annotations

import cmath
import math

from .gammafun import log_gamma

_SERIES_FAST_MAX = 14.0


def _series_double(t: float, q: float) -> complex:
    """Ascending series in complex doubles; good to ~1e-11 for q <= 14."""
    nu = 2j * t
    # leading factor (q/2)^nu / Gamma(nu + 1)
    term = cmath.exp(nu * math.log(q / 2.0) - log_gamma(nu + 1.0))
    total = term
    k = 0
    q24 = 0.25 * q * q
    while True:
        k += 1
        term *= -q24 / (k * (nu + k))
        total += term
        if abs(term) < 1e-18 * max(abs(total), 1e-30) or k > 200:
            break
    return total


def _series_boosted(t: float, q: float) -> complex:
    """mpmath at boosted precision, where neither double route is accurate."""
    import mpmath as mp

    digits_lost = int(q * 0.9) + 6
    with mp.workdps(16 + digits_lost):
        return complex(mp.besselj(2j * mp.mpf(t), mp.mpf(q)))


def _hankel(t: float, q: float) -> complex:
    """Large-argument expansion; requires q >> (2t)^2."""
    nu2_4 = -16.0 * t * t  # 4 nu^2 with nu = 2it
    # a_k = prod_{j<=k} (4 nu^2 - (2j-1)^2) / (k! 8^k), all real here
    terms = [1.0]
    ak = 1.0
    for k in range(1, 160):
        ak *= (nu2_4 - (2 * k - 1) ** 2) / (k * 8.0 * q)
        if abs(ak) > abs(terms[-1]) or abs(ak) < 1e-19:
            break  # past the optimal truncation point, or converged
        terms.append(ak)
    P = sum(terms[0::2][i] * (-1) ** i for i in range(len(terms[0::2])))
    Q = sum(terms[1::2][i] * (-1) ** i for i in range(len(terms[1::2])))
    chi = q - math.pi / 4.0 - 1j * math.pi * t
    return math.sqrt(2.0 / (math.pi * q)) * (
        cmath.cos(chi) * P - cmath.sin(chi) * Q
    )


def bessel_J_imag_order(t: float, q: float) -> complex:
    """J_{2it}(q) for real t and q > 0."""
    if q <= 0:
        raise ValueError(f"argument must be positive, got q={q}")
    if q <= _SERIES_FAST_MAX:
        return _series_double(t, q)
    if 16.0 * t * t <= q:
        return _hankel(t, q)
    return _series_boosted(t, q)

