"""J-Bessel function of purely imaginary order 2it.

One array function over q, served by three routes, each on its own q:

* Miller's backward recurrence up to q = 14 at every t, and on the band
  14 < q < 12 t^2 for |t| <= 6, each element from its own measured depth:
  1.5 q + 11 q^(1/3) + 6 up to q = 14 (1.2 times what meets a run four
  times as deep), q + 10 q^(1/3) + 30 on the band, and 0 up to q = 2e-8,
  where J is its leading term (q/2)^(2it) / Gamma(1 + 2it) to rounding.
  Against 40-digit mpmath, up to q = 14 it is within 4e-15 relative at
  t <= 1 and 1.5e-14 at t = 2, then held by the rounding of the phase
  2t log(q/2) (3.9e-13 at t = 50); on the band within 3e-14 at |t| <= 3,
  5e-12 at t = 5 and 8e-11 at t = 6;
* the large-argument (Hankel) expansion where 12 t^2 <= q above q = 14.
  At the edge 12 t^2 = q, q just above 14, its optimal truncation leaves
  a few 1e-11 relative error; one that misses the 1e-8 target raises;
* mpmath at boosted precision (0.9 q digits, one q at a time) on the band
  at |t| > 6, up to q = 2000 (about 1 s at q = 1000, 5 s at q = 2000).
"""

from __future__ import annotations

import math

import numpy as np

from .gammafun import log_gamma
from .recurrence import miller

_MILLER_ANY_T_MAX_Q = 14.0
_LEADING_MAX_Q = 2e-8
_HANKEL_MIN_Q_OVER_T2 = 12.0
_MILLER_MAX_T = 6.0
_BOOSTED_MAX_Q = 2000.0
_TARGET = 1e-8


def _depth(q: np.ndarray) -> np.ndarray:
    """Miller's start level per element (module docstring)."""
    c = np.cbrt(q)
    rule = np.where(q <= _MILLER_ANY_T_MAX_Q, 1.5 * q + 11.0 * c + 6.0, q + 10.0 * c + 30.0)
    return np.where(q <= _LEADING_MAX_Q, 0.0, np.ceil(rule))


def _miller(t: float, q: np.ndarray) -> np.ndarray:
    """J_nu(q), nu = 2it, by recurrence.miller on f_(k-1) = (2 (nu + k) / q)
    f_k - f_(k+1), each element from its own _depth(q).  DLMF 10.23.15 over
    Gamma(nu + 1), (q/2)^nu / Gamma(nu + 1) = sum_m w_m J_(nu+2m)(q) with
    w_0 = 1 and w_m = (nu + 2m) Gamma(nu + m) / (m! Gamma(nu + 1)), fixes
    the scale without the pole of Gamma(nu) at t = 0 (Gautschi 1967)."""
    nu = 2j * t
    depth = _depth(q)
    # w_m = (nu + 2m) prod_(0<j<m) (nu + j) / m! for m >= 1
    m = np.arange(depth.max() // 2 + 1.0)
    ratio = (nu + m - 1.0) / np.maximum(m, 1.0)
    ratio[:2] = 1.0
    w = np.zeros(2 * m.size, dtype=np.complex128)
    w[::2] = (nu + 2.0 * m) * np.cumprod(ratio)
    w[0] = 1.0
    # x = 2/q, complex so that the step multiplies without a cast
    f0 = miller(2.0 / q + 0j, depth, lambda k, x, f, f_up: (nu + k) * x * f - f_up, w)
    return f0 * np.exp(nu * np.log(q / 2.0) - log_gamma(nu + 1.0))


def _series_boosted(t: float, q: float) -> complex:
    """mpmath at boosted precision, for the band beyond Miller's |t| <= 6."""
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
    above = flat > _MILLER_ANY_T_MAX_Q
    hankel = above & (_HANKEL_MIN_Q_OVER_T2 * t * t <= flat)
    recur = ~hankel
    boosted = np.flatnonzero(above & recur) if abs(t) > _MILLER_MAX_T else []
    beyond = flat[boosted][flat[boosted] > _BOOSTED_MAX_Q]
    if beyond.size:
        raise ValueError(f"J_(2it) at t={t:g}, q={beyond[0]:g} needs mpmath beyond "
                         f"its limit q <= {_BOOSTED_MAX_Q:g} (for q < 12 t^2)")
    recur[boosted] = False
    if hankel.any():
        out[hankel] = _hankel(t, flat[hankel])
    if recur.any():
        out[recur] = _miller(t, flat[recur])
    for i in boosted:
        out[i] = _series_boosted(t, float(flat[i]))
    overflow = ~np.isfinite(out)
    if overflow.any():
        raise RuntimeError(f"J_(2it) at t={t:g}, q={flat[overflow][0]:g} leaves double range")
    if qa.ndim == 0:
        return complex(out[0])
    return out.reshape(qa.shape)
