"""The triple-product y-integral against a Whittaker kernel, as a
Mellin-Barnes contour integral, with the direct quadrature as an
independent second route.

For coefficients n1 >= 0, n2 != 0, m = n1 + n2 and spectral data (k, t),
the object is

    int_0^inf y^{k/2 - 3/4} e^{-2 pi (n1 + m) y}
              W_{sgn(n2) kappa/2, it}(4 pi |n2| y) dy / y,

kappa = k - 1/2.  The contour form integrates gamma-factor ratios along
a vertical line inside 0 < Re w < kappa/2 - |Im t|; the integrand decays
like e^{-pi(|v| - |t|)} past |Im w| = |t|, which sets the truncation.

The direct route takes W at its quadrature nodes from the Whittaker node
evaluator under its envelope certificate.  At real t (mu = it) the 1F1
series serves the nodes below 2t and Miller's recurrence the nodes above;
no ODE is solved.  At imaginary t (real mu) the series is tried at every
node; at the level-576 inner product W is one terminating 1F1 term
(1/2 + mu - eta = -2, -4, -6 for k = 5, 9, 13), and the ODE serves only
the nodes near its zeros, 0, 3 and 29 of some 1600.  Certified real-mu values are
within 2.7e-11 of 40-digit mpmath (whittaker module).

The piece int_0^{y_lo} is dropped.  As y -> 0 the integrand is at most
C a^{1/2-s} y^e, e = nu - 1/2 - s, s = |Re mu|, nu = k/2 - 3/4, where C is
the sum of the moduli of W's two leading coefficients
Gamma(+-2 mu) / Gamma(1/2 +- mu - eta) (DLMF 13.14.19); so y_lo is set
where C a^{1/2-s} y_lo^{e+1} / (e+1) is 1e-16 of the integral above 1/decay,
then moved down to 1e-16 of |G| where the part below 1/decay cancels some
of it.
"""

from __future__ import annotations

import math

import numpy as np

from ..quadrature import gl_panels
from .gammafun import log_gamma, log_gamma_vec
from .whittaker import _w_nodes

# the contour is cut where the integrand's decay bound falls below this
_ABS_TOL = 1e-10


def _validate(n1: int, n2: int, m: int, k: int, t: complex) -> None:
    if n1 < 0:
        raise ValueError("n1 must be >= 0")
    if n2 == 0:
        raise ValueError("n2 must be nonzero")
    if m <= 0:
        raise ValueError("m must be positive")
    if m != n1 + n2:
        raise ValueError(f"need m = n1 + n2, got {n1} + {n2} != {m}")
    if k < 3:
        raise ValueError("weight k must be >= 3")
    t = complex(t)
    if abs(t.real) * abs(t.imag) > 1e-14:
        raise ValueError("spectral parameter must be real or purely imaginary")


def mellin_barnes_G(n1: int, n2: int, m: int, k: int, t: complex, re_w: float) -> complex:
    """Contour-integral evaluation along Re w = re_w."""
    _validate(n1, n2, m, k, t)
    t = complex(t)
    kappa = k - 0.5
    strip_top = kappa / 2.0 - abs(t.imag)
    if not 0.0 < re_w < strip_top:
        raise ValueError(f"re_w must lie in (0, {strip_top}), got {re_w}")
    if n2 > 0:
        if n1 == 0:
            raise ValueError("contour form needs n1 >= 1 when n2 > 0")
        log_ratio = math.log(n2 / n1)
        pole_shift = 0.5
    else:
        log_ratio = math.log(abs(n2) / m)
        pole_shift = float(k)
    log_front = -(k / 2.0 - 0.75) * math.log(4.0 * math.pi * abs(n2))

    def integrand(v: np.ndarray) -> np.ndarray:
        w = re_w + 1j * v
        lg = (log_gamma_vec(kappa / 2.0 + 1j * t - w)
              + log_gamma_vec(kappa / 2.0 - 1j * t - w)
              + log_gamma_vec(w)
              - log_gamma_vec(pole_shift - w)
              + w * log_ratio + log_front)
        return np.exp(lg)

    tt = abs(t.real) + abs(t.imag)
    v_max = tt + max(12.0, (math.log(1.0 / _ABS_TOL) + k * math.log(2.0 + tt)) / math.pi + 6.0)
    # conjugate symmetry: integral = (1/pi) Re int_0^Vmax
    edges = np.concatenate([
        np.linspace(0.0, tt + 2.0, max(8, int(2 * (tt + 2)))),
        np.linspace(tt + 2.0, v_max, max(8, int(v_max - tt))),
    ])
    edges = np.unique(edges)
    return complex(gl_panels(integrand, edges, 32).real / math.pi, 0.0)


def direct_G(n1: int, n2: int, m: int, k: int, t: complex) -> float:
    """Direct y-quadrature of the defining integral (Whittaker route)."""
    _validate(n1, n2, m, k, t)
    t = complex(t)
    kappa = k - 0.5
    if not abs(t.imag) < kappa / 2.0:   # the integrand's power at 0 is y^(kappa/2 - 1 - |Im t|)
        raise ValueError(f"the y-integral diverges at 0 unless |Im t| < {kappa / 2.0}, got t={t}")
    eta = kappa / 2.0 if n2 > 0 else -kappa / 2.0
    mu = 1j * t.real if t.imag == 0 else complex(-t.imag, 0.0)
    a = 4.0 * math.pi * abs(n2)
    p = 2.0 * math.pi * (n1 + m)
    decay = p + 0.5 * a  # true exponential rate of the integrand
    nu = k / 2.0 - 0.75
    y_mid = 1.0 / decay
    y_hi = (65.0 + 8.0 * math.log1p(abs(eta) + abs(mu))) / decay

    def f(ys: np.ndarray) -> np.ndarray:
        w = _w_nodes(eta, mu, a * ys, envelope=True)
        return ys ** (nu - 1.0) * np.exp(-p * ys) * w

    def log_panels(lo: float, hi: float, least: int) -> float:
        n = max(least, math.ceil(2.0 * math.log10(hi / lo)))
        return gl_panels(f, np.geomspace(lo, hi, n + 1), 32)

    # linear panels past 1/decay, log-spaced ones below it down to y_lo
    body = gl_panels(f, np.linspace(y_mid, y_hi, 40), 32)
    y_lo = _cutoff(eta, mu, a, nu, abs(body))
    total = body + log_panels(y_lo, y_mid, 11)
    # where the head cancels part of the body, |G| < |body| moves y_lo down
    y_last = _cutoff(eta, mu, a, nu, abs(total))
    if y_last < y_lo:
        total += log_panels(y_last, y_lo, 1)
    return total


def _cutoff(eta: float, mu: complex, a: float, nu: float, scale: float) -> float:
    """y_lo at which the dropped int_0^{y_lo} is 1e-16 of scale (module
    docstring).  mu is nudged by 1e-8 off 2 mu in Z, where Gamma(+-2 mu) has
    a pole and W a log term; the nudged C, about 1e8 / |Gamma(1/2 - eta)|,
    bounds that term from above and only lowers y_lo."""
    s = abs(mu.real)
    mu = complex(s + 1e-8, mu.imag)
    c = sum(math.exp((log_gamma(2.0 * sign * mu) - log_gamma(0.5 + sign * mu - eta)).real)
            for sign in (1.0, -1.0))
    e = nu - 0.5 - s
    return (1e-16 * scale * (e + 1.0) / (c * a ** (0.5 - s))) ** (1.0 / (e + 1.0))
