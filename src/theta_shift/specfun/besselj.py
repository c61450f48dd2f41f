"""J-Bessel function of purely imaginary order 2it.

One array function over q: the ascending power series up to q = 14 and
the large-argument (Hankel) expansion above, each run in numpy on the
q it serves, which together cover the kernel integrals.  Two well-known
numerical potholes are patched rather than ignored:

* the alternating series loses ~q/2.3 digits to cancellation, so it is
  summed in doubles only up to q = 14;
* the Hankel expansion needs q large compared to the order squared, so
  it is used only where 12 t^2 <= q; for q > 14 with 12 t^2 > q the
  evaluation goes to mpmath at boosted precision, one q at a time, up to
  q = 2000 (0.9 q digits: about 1 s at q = 1000, 5 s at q = 2000).

At the edge 12 t^2 = q, q just above 14, the Hankel expansion's optimal
truncation leaves a few 1e-11 relative error; everything stays within
the 1e-8 relative target, and a truncation that cannot meet it raises.
"""

from __future__ import annotations

import math

import numpy as np

from .gammafun import log_gamma

_SERIES_FAST_MAX = 14.0
_HANKEL_MIN_Q_OVER_T2 = 12.0
_BOOSTED_MAX_Q = 2000.0
_TARGET = 1e-8


def _series_double(t: float, q: np.ndarray) -> np.ndarray:
    """Ascending series in complex doubles; good to ~1e-11 for q <= 14.

    An element stops once its term falls below 1e-18 of its running
    total (or after 201 terms); the rest go on without it.
    """
    nu = 2j * t
    # leading factor (q/2)^nu / Gamma(nu + 1)
    term = np.exp(nu * np.log(q / 2.0) - log_gamma(nu + 1.0))
    total = term.copy()
    q24 = 0.25 * q * q
    live = np.arange(q.size)
    for k in range(1, 202):
        term = term * (-q24 / (k * (nu + k)))
        total[live] += term
        going = np.abs(term) >= 1e-18 * np.maximum(np.abs(total[live]), 1e-30)
        if not going.any():
            break
        if not going.all():
            live, term, q24 = live[going], term[going], q24[going]
    return total


def _series_boosted(t: float, q: float) -> complex:
    """mpmath at boosted precision, where neither double route is accurate."""
    import mpmath as mp

    digits_lost = int(q * 0.9) + 6
    with mp.workdps(16 + digits_lost):
        return complex(mp.besselj(2j * mp.mpf(t), mp.mpf(q)))


def _hankel(t: float, q: np.ndarray) -> np.ndarray:
    """Large-argument expansion; requires q >> (2t)^2.

    Each element sums a_k = prod_{j<=k} (4 nu^2 - (2j-1)^2) / (k! (8q)^k),
    all real here, up to its smallest term (optimal truncation) or until
    the terms drop below 1e-19.  Raises RuntimeError when the term that
    stopped an element's truncation exceeds the 1e-8 relative target.
    """
    nu2_4 = -16.0 * t * t  # 4 nu^2 with nu = 2it
    P = np.ones_like(q)
    Q = np.zeros_like(q)
    stop = np.zeros_like(q)
    ak = np.ones_like(q)
    prev = np.ones_like(q)
    live = np.arange(q.size)
    ql = q
    for k in range(1, 160):
        ak = ak * ((nu2_4 - (2 * k - 1) ** 2) / (k * 8.0 * ql))
        mag = np.abs(ak)
        done = (mag > prev) | (mag < 1e-19)
        stop[live[done]] = mag[done]
        keep = ~done
        live, ak, prev, ql = live[keep], ak[keep], mag[keep], ql[keep]
        if not live.size:
            break
        # P = a_0 - a_2 + a_4 - ..., Q = a_1 - a_3 + a_5 - ...
        sign = -1.0 if (k // 2) % 2 else 1.0
        if k % 2:
            Q[live] += sign * ak
        else:
            P[live] += sign * ak
    stop[live] = prev
    bad = stop > _TARGET
    if bad.any():
        i = int(np.argmax(bad))
        raise RuntimeError(
            f"Hankel expansion of J_(2it) at t={t:g}, q={q[i]:g} stops at a term "
            f"{stop[i]:.2e}, above the {_TARGET:g} relative target")
    chi = q - math.pi / 4.0 - 1j * math.pi * t
    return np.sqrt(2.0 / (math.pi * q)) * (np.cos(chi) * P - np.sin(chi) * Q)


def bessel_J_imag_order(t: float, q):
    """J_{2it}(q) for real t and finite q > 0.

    A scalar q gives a Python complex; an array q gives a complex ndarray
    of the same shape, each branch evaluated on its elements at once.
    Raises RuntimeError when a value leaves double range, and ValueError
    at a q above 2000 that only mpmath could serve.
    """
    qa = np.asarray(q, dtype=np.float64)
    flat = qa.ravel()
    bad = ~((flat > 0) & np.isfinite(flat))
    if bad.any():
        raise ValueError(f"argument must be positive and finite, got q={flat[bad][0]:g}")
    out = np.empty(flat.shape, dtype=np.complex128)
    series = flat <= _SERIES_FAST_MAX
    hankel = ~series & (_HANKEL_MIN_Q_OVER_T2 * t * t <= flat)
    boosted = ~(series | hankel)
    beyond = boosted & (flat > _BOOSTED_MAX_Q)
    if beyond.any():
        raise ValueError(f"J_(2it) at t={t:g}, q={flat[beyond][0]:g} needs mpmath beyond "
                         f"its limit q <= {_BOOSTED_MAX_Q:g} (for q < 12 t^2)")
    if series.any():
        out[series] = _series_double(t, flat[series])
    if hankel.any():
        out[hankel] = _hankel(t, flat[hankel])
    for i in np.flatnonzero(boosted):
        out[i] = _series_boosted(t, float(flat[i]))
    overflow = ~np.isfinite(out)
    if overflow.any():
        raise RuntimeError(f"J_(2it) at t={t:g}, q={flat[overflow][0]:g} leaves double range")
    if qa.ndim == 0:
        return complex(out[0])
    return out.reshape(qa.shape)
