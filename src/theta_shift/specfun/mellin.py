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
evaluator under its envelope certificate: the 1F1 series wherever it
certifies, one ODE solve over the rest.  At real t (mu = it) the ODE
serves only the nodes above 2t.  At imaginary t (real mu) the series is
tried at every node; at the level-576 inner product W is one terminating
1F1 term (1/2 + mu - eta = -2, -4, -6 for k = 5, 9, 13), and the ODE
serves only the nodes near its zeros, 0, 3 and 30 of 1600.  Certified
real-mu values are within 2.7e-11 of 40-digit mpmath (whittaker module).
"""

from __future__ import annotations

import math

import numpy as np

from ..quadrature import gl_panels
from .gammafun import log_gamma_vec
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
    eta = kappa / 2.0 if n2 > 0 else -kappa / 2.0
    mu = 1j * t.real if t.imag == 0 else complex(-t.imag, 0.0)
    a = 4.0 * math.pi * abs(n2)
    p = 2.0 * math.pi * (n1 + m)
    decay = p + 0.5 * a  # true exponential rate of the integrand
    nu = k / 2.0 - 0.75
    y_hi = (65.0 + 8.0 * math.log1p(abs(eta) + abs(mu))) / decay
    y_lo = 1e-7

    def f(ys: np.ndarray) -> np.ndarray:
        w = _w_nodes(eta, mu, a * ys, envelope=True)
        return ys ** (nu - 1.0) * np.exp(-p * ys) * w

    # log-spaced panels near 0 (integrand ~ y^{nu - 1/2}), linear past 1/decay
    edges = np.concatenate([np.geomspace(y_lo, 1.0 / decay, 12),
                            np.linspace(1.0 / decay, y_hi, 40)[1:]])
    return gl_panels(f, edges, 32)
