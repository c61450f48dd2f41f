"""The Bessel-kernel oscillatory integrals I_kappa(omega, t) and their
t-average G_kappa(omega, T).

I_kappa is evaluated through its J-Bessel reduction: a finite integral
over (0, omega) for kappa > 0 and a tail integral over (omega, inf) for
kappa <= 0, of sinh/cosh-weighted combinations of J_{+-2it}.  The tail
takes geometric panels below q = 1, where q^(kappa-1) J is steep, and the
alternating rule from max(omega, 1).  Near t = 0 the sinh denominator is
removable; evaluation averages t = +-1e-4.

G_kappa has two routes:

* g_kappa_t: direct adaptive quadrature of t * I_kappa over [0, T];
* g_kappa: the double-integral form, reduced by one integration by
  parts in q to

      G = omega * A + kappa * omega^{1-kappa} * B,
      A = int (tanh xi / xi)(1 - cos 2T xi) sin(omega cosh xi - pi kappa / 2) dxi,
      B = int (sinh xi / xi)(1 - cos 2T xi) cosh(xi)^{-1-kappa}
              * Im Gamma(kappa, -i omega cosh xi) dxi,

  one formula for the whole range kappa in (-2, 2).  The xi-head is
  integrated on panels resolving the local frequency 2T + omega sinh xi;
  past that the substitution v = omega cosh xi turns both pieces into
  unit-frequency oscillatory tails handled by the alternating rule.

  B's head is integrated by parts once more, since E(u) = Im Gamma(kappa, -iu)
  has the elementary derivative -u^(kappa-1) sin(u - pi kappa / 2)
  (DLMF 8.8.13): the head then needs E at one point, not at every node.
  The boundary term sits where E is small against the weight's mass: at
  xi = 0 for kappa > 0, where E(omega) ~ omega^kappa, and at the head's
  end for kappa <= 0, where E(v) ~ v^(kappa-1).  At the other end it
  cancels: g_kappa(1.95, 1e-3, 40) would read 1.08e-6 for 7.26e-7.
"""

from __future__ import annotations

import math

import numpy as np

from ..quadrature import alternating_tail, gl_cumulative, gl_nodes, gl_panels, panel_nodes
from .besselj import bessel_J_imag_order
from .gammafun import log_gamma
from .incgamma import im_upper_gamma_imag_axis

_T_FLOOR = 1e-4
# error estimate at which the g_kappa tails stop
_TAIL_TOL = 1e-10


def _check_kappa(kappa: float) -> None:
    if not -2.0 < kappa < 2.0:
        raise ValueError(f"kappa must lie in (-2, 2), got {kappa}")


def _j_moment_head(kappa: float, t: float, q0: float) -> complex:
    """int_0^q0 J_{2it}(q) q^(kappa-1) dq from the ascending series, termwise.

    Raises RuntimeError if 62 terms leave the last above 1e-16 of the sum:
    the callers keep q0 <= 0.25, where about 10 terms suffice."""
    nu = 2j * t
    total = 0.0 + 0.0j
    coef = np.exp(-nu * math.log(2.0) - log_gamma(nu + 1.0))
    k = 0
    while True:
        expo = kappa + 2 * k + nu
        term = coef * q0**(kappa + 2 * k) * np.exp(nu * math.log(q0)) / expo
        total += term
        if abs(term) < 1e-16 * max(1.0, abs(total)):
            break
        if k > 60:
            raise RuntimeError(f"J moment series at t={t:g}, q0={q0:g} unconverged after "
                               f"{k + 1} terms: last term {abs(term):.3e}")
        k += 1
        coef *= -0.25 / (k * (nu + k))
    return complex(total)


def _j_moment_integrand(kappa: float, t: float):
    """q -> J_{2it}(q) q^(kappa-1) on a node array, one J call per batch."""
    return lambda q: bessel_J_imag_order(t, q) * q ** (kappa - 1.0)


def _j_moment_panels(kappa: float, t: float, a: float, b: float) -> complex:
    """int_a^b J_{2it}(q) q^(kappa-1) dq on geometric-then-unit panels."""
    edges = [a]
    x = a
    while x < min(b, 1.0):
        x = min(2.0 * x, min(b, 1.0))
        edges.append(x)
    while x < b:
        x = min(x + 1.0, b)
        edges.append(x)
    return complex(gl_panels(_j_moment_integrand(kappa, t), edges, 24))


def _j_moment_tail(kappa: float, t: float, omega: float) -> complex:
    """int_omega^inf J_{2it}(q) q^(kappa-1) dq, oscillation-accelerated from
    q = max(omega, 1).  Below q = 1 the integrand is steep, not oscillatory,
    and takes the geometric panels."""
    val, _ = alternating_tail(_j_moment_integrand(kappa, t), max(omega, 1.0),
                              max_panels=320, n=12)
    if omega < 1.0:
        val += _j_moment_panels(kappa, t, omega, 1.0)
    return val


def I_kappa(kappa: float, omega: float, t: float) -> float:
    """The pre-trace-formula kernel integral, real-valued."""
    _check_kappa(kappa)
    if omega <= 0:
        raise ValueError(f"omega must be positive, got {omega}")
    if abs(t) < _T_FLOOR:
        return 0.5 * (_I_kappa_at(kappa, omega, _T_FLOOR)
                      + _I_kappa_at(kappa, omega, -_T_FLOOR))
    return _I_kappa_at(kappa, omega, t)


def _I_kappa_at(kappa: float, omega: float, t: float) -> float:
    if kappa > 0:
        q0 = min(omega, 0.25)
        C = _j_moment_head(kappa, t, q0)
        if omega > q0:
            C += _j_moment_panels(kappa, t, q0, omega)
        sign = -1.0
    else:
        C = _j_moment_tail(kappa, t, omega)
        sign = 1.0
    val = (math.cos(math.pi * kappa / 2.0) / math.cosh(math.pi * t) * C.real
           + math.sin(math.pi * kappa / 2.0) / math.sinh(math.pi * t) * C.imag)
    return sign * 2.0 * math.pi * omega ** (1.0 - kappa) * val


def g_kappa_t(kappa: float, omega: float, T: float) -> float:
    """G by its definition: composite t-quadrature of t * I_kappa."""
    _check_kappa(kappa)
    if T < 0:
        raise ValueError("T must be nonnegative")
    if T == 0:
        return 0.0
    n_panels = max(3, int(math.ceil(T * 2)))
    return gl_panels(lambda ts: np.array([tt * I_kappa(kappa, omega, tt) for tt in ts]),
                     np.linspace(0.0, T, n_panels + 1), 16)


def g_kappa(kappa: float, omega: float, T: float) -> float:
    """G via the reduced double-integral form (fast route)."""
    _check_kappa(kappa)
    if omega <= 0:
        raise ValueError(f"omega must be positive, got {omega}")
    if T < 0:
        raise ValueError("T must be nonnegative")
    if T == 0:
        return 0.0
    half_pk = 0.5 * math.pi * kappa
    xi_c = math.asinh(4.0 * (2.0 * T + 1.0) / omega)
    v_c = omega * math.cosh(xi_c)

    # panels sized to the local frequency 2T + omega*sinh(xi)
    edges = [0.0]
    x = 0.0
    while x < xi_c:
        freq = 2.0 * T + omega * math.sinh(x) + 1.0
        x = min(x + math.pi / freq, xi_c)
        edges.append(x)
    xi, halfs = panel_nodes(edges, 16)
    w = gl_nodes(16)[1]

    def head(f):   # the head integral of f, given at the nodes
        return np.sum(halfs * (f @ w)).item()

    ch, sh = np.cosh(xi), np.sinh(xi)
    damp = (1.0 - np.cos(2.0 * T * xi)) / xi
    osc = np.sin(omega * ch - half_pk)
    A = head(damp * (sh / ch) * osc)
    # B's head by parts against its weight m = damp sinh cosh^(-1-kappa) >= 0:
    # d/dxi E(omega cosh xi) = -omega^kappa cosh^(kappa-1) sinh * osc.  The
    # boundary term sits where E is small against m's mass, and the mass on
    # the far side of each node is summed from that side, free of cancellation
    m = damp * sh * ch ** (-1.0 - kappa)
    totals = halfs * (m @ w)
    mass = totals.sum().item()
    dE = omega ** kappa * ch ** (kappa - 1.0) * sh * osc
    cum = gl_cumulative(16)
    if kappa > 0:   # E(omega) ~ omega^kappa at small omega
        right = halfs[:, None] * (m @ cum[::-1, ::-1].T) \
            + np.append(np.cumsum(totals[:0:-1])[::-1], 0.0)[:, None]
        B = mass * im_upper_gamma_imag_axis(kappa, omega).item() - head(right * dE)
    else:           # E(v_c) ~ v_c^(kappa-1)
        left = halfs[:, None] * (m @ cum.T) \
            + np.append(0.0, np.cumsum(totals[:-1]))[:, None]
        B = mass * im_upper_gamma_imag_axis(kappa, v_c).item() + head(left * dE)

    def a_tail(v):
        xi = np.arccosh(v / omega)
        return (1.0 - np.cos(2.0 * T * xi)) * np.sin(v - half_pk) / (v * xi)

    def b_tail(v):
        xi = np.arccosh(v / omega)
        return (1.0 - np.cos(2.0 * T * xi)) * (omega / v) ** (1.0 + kappa) \
            * im_upper_gamma_imag_axis(kappa, v) / (omega * xi)

    ta, _ = alternating_tail(a_tail, v_c, max_panels=1600, tol=_TAIL_TOL)
    tb, _ = alternating_tail(b_tail, v_c, max_panels=1600, tol=_TAIL_TOL)
    A += ta
    B += tb
    return omega * A + kappa * omega ** (1.0 - kappa) * B


def I_kappa_contour_check(kappa: float, omega: float, t: float) -> float:
    """Independent oracle: direct contour integration of the defining
    integral over the unit semicircle, using an external K-Bessel."""
    import mpmath as mp

    f = lambda phi: mp.besselk(2j * t, omega * mp.e ** (1j * phi)) * mp.e ** (1j * kappa * phi)
    val = 2 * omega * mp.quad(f, [-mp.pi / 2, 0, mp.pi / 2])
    return float(mp.re(val))
