"""J-Bessel function of purely imaginary order 2it.

One array function over q, served by three numpy routes, each run on
the q it serves:

* the ascending power series up to q = 14; it loses ~q/2.3 digits to
  cancellation, so it stops there;
* the large-argument (Hankel) expansion where 12 t^2 <= q, which needs q
  large compared to the order squared.  At the edge 12 t^2 = q, q just
  above 14, its optimal truncation leaves a few 1e-11 relative error,
  and a truncation that cannot meet the 1e-8 target raises;
* Miller's backward recurrence on the band 14 < q < 12 t^2 for
  |t| <= 6.  Against 40-digit mpmath it is within 3e-14 relative at
  |t| <= 3, 3e-13 at t = 4, 5e-12 at t = 5 and 8e-11 at t = 6.

mpmath at boosted precision (0.9 q digits, one q at a time) serves only
the band at |t| > 6, up to q = 2000 (about 1 s at q = 1000, 5 s at
q = 2000).
"""

from __future__ import annotations

import math

import numpy as np

from .gammafun import log_gamma

_SERIES_FAST_MAX = 14.0
_HANKEL_MIN_Q_OVER_T2 = 12.0
_MILLER_MAX_T = 6.0
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


def _miller(t: float, q: np.ndarray) -> np.ndarray:
    """J_nu(q), nu = 2it, by Miller's backward recurrence (Gautschi 1967).

    From f_N = 1, f_(N+1) = 0 at each element's own start N(q) = q +
    10 q^(1/3) + 30, rounded up to even, the recurrence
    f_(k-1) = (2 (nu + k) / q) f_k - f_(k+1) runs down to f_0, which is
    proportional to J_nu(q).  DLMF 10.23.15 divided by Gamma(nu + 1),
    (q/2)^nu / Gamma(nu + 1) = sum_m w_m J_(nu+2m)(q) with w_0 = 1 and
    w_m = (nu + 2m) Gamma(nu + m) / (m! Gamma(nu + 1)), fixes the scale
    without the pole of Gamma(nu) at t = 0.  Elements are sorted by q, so
    the ones started by level k are a prefix.
    """
    nu = 2j * t
    order = np.argsort(-q, kind="stable")
    qs = q[order]
    start = np.ceil(qs + 10.0 * np.cbrt(qs) + 30.0).astype(np.int64)
    start += start % 2
    top = int(start[0])
    # live[k] elements have started at level k
    live = np.searchsorted(-start, -np.arange(top + 2), side="right").tolist()
    # w_m / (nu + 2m) = prod_(j<m) (nu + j) / m!, the factor nu of j = 0 left out
    m = np.arange(1, top // 2 + 1)
    ratio = (nu + m - 1.0) / m
    ratio[0] = 1.0
    w = np.concatenate([[1.0], (nu + 2.0 * m) * np.cumprod(ratio)])
    two_over_q = 2.0 / qs
    f = np.zeros(qs.size, dtype=np.complex128)       # f_k
    f_up = np.zeros(qs.size, dtype=np.complex128)    # f_(k+1)
    s = np.zeros(qs.size, dtype=np.complex128)
    for k in range(top, 0, -1):
        n = live[k]
        f[live[k + 1]:n] = 1.0
        if k % 2 == 0:
            s[:n] += w[k // 2] * f[:n]
            if k % 16 == 0:   # rescale against overflow, each element on its own
                big = np.abs(f[:n]) > 1e100
                for a in (f, f_up, s):
                    a[:n][big] *= 1e-100
        f_up[:n] = (nu + k) * two_over_q[:n] * f[:n] - f_up[:n]
        f, f_up = f_up, f
    s += f
    out = np.empty_like(f)
    out[order] = f / s * np.exp(nu * np.log(qs / 2.0) - log_gamma(nu + 1.0))
    return out


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
    series = flat <= _SERIES_FAST_MAX
    hankel = ~series & (_HANKEL_MIN_Q_OVER_T2 * t * t <= flat)
    band = ~(series | hankel)
    beyond = band & (flat > _BOOSTED_MAX_Q)
    if beyond.any():
        raise ValueError(f"J_(2it) at t={t:g}, q={flat[beyond][0]:g} needs mpmath beyond "
                         f"its limit q <= {_BOOSTED_MAX_Q:g} (for q < 12 t^2)")
    if series.any():
        out[series] = _series_double(t, flat[series])
    if hankel.any():
        out[hankel] = _hankel(t, flat[hankel])
    if abs(t) <= _MILLER_MAX_T:
        if band.any():
            out[band] = _miller(t, flat[band])
    else:
        for i in np.flatnonzero(band):
            out[i] = _series_boosted(t, float(flat[i]))
    overflow = ~np.isfinite(out)
    if overflow.any():
        raise RuntimeError(f"J_(2it) at t={t:g}, q={flat[overflow][0]:g} leaves double range")
    if qa.ndim == 0:
        return complex(out[0])
    return out.reshape(qa.shape)
