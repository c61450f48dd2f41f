"""Whittaker W function for real or purely imaginary second parameter.

Three routes, tried in this order; the ODE is the last resort.

The first is the convergent 1F1 series of DLMF 13.14.33 with 13.14.2,

    W = sum over +- of Gamma(-+2 mu) / Gamma(1/2 -+ mu - eta)
            e^{-y/2} y^{1/2 +- mu} 1F1(1/2 +- mu - eta; 1 +- 2 mu; y),

one term recurrence per 1F1 over all ys.  For imaginary mu = it the two
terms are complex conjugates, so W is twice the real part of one; it is
tried at y <= 2|t|, below the turning point.  For real mu with 2 mu not
an integer it is tried at every y; a term whose 1/Gamma sits at a pole is
exactly 0, and when 1/2 + mu - eta is a nonpositive integer the other 1F1
terminates (DLMF 13.18), as at the level-576 inner product.  Each point is
certified by the cancellation the sum suffers,

    cond = sum over terms of |coef pref| max(max|term|, |1F1|) / |W|,

pref = e^{-y/2} y^{1/2 +- mu}.  A point with cond above 1e3, a 1F1 still
unconverged after 1000 terms, or a non-finite W goes to the ODE below.

The second, for imaginary mu = it at y > 2t, is Miller's backward
recurrence in a for U(a, b, y) (Temme, Numer. Math. 41 (1983); Gil,
Segura and Temme 2007, ch. 4), with W = e^{-y/2} y^{mu+1/2} U(a, b, y),
a = 1/2 + mu - eta, b = 1 + 2 mu (DLMF 13.14.3).  U(a+n, b, y) is the
minimal solution of DLMF 13.3.7; with w_n = (a)_n (a-b+1)_n / n! the
products F_n = w_n U(a+n) obey

    F_{n-1} = [(2a + 2n + y - b) n F_n - n (n+1) F_{n+1}] / ((a+n-1)(a-b+n)),

whose coefficients are real at mu = it: 2a - b = -2 eta and
(a+n-1)(a-b+n) = (n - 1/2 - eta)^2 + t^2.  The Laplace integral of U
fixes the scale, sum_n F_n = y^{-a} for Re a > 0.  Where Re a < 1 the sum
starts at the first m with Re a + m >= 1 instead,

    sum_n F_{m+n} (m+n)! / n! = y^{-a-m} |(a)_m|^2,

so with f_n the recurrence run from f_N = 1, f_{N+1} = 0,

    W = e^{-y/2} y^{eta-m} |(a)_m|^2 f_0 / sum_n f_{m+n} (m+n)! / n!,

real, in one exponent.  Each node starts at its own depth N(y), set by
measurement (_miller_depth); the loop is recurrence.miller, shared with
J_{2it}.

The last route integrates the Whittaker equation inward from asymptotic
initial data; it serves real mu where the series refuses or 2 mu is an
integer, series refusals below 2t at mu = it, and, at small t, nodes just
above 2t whose Miller depth would pass _MILLER_MAX_DEPTH.
Working with the scaled unknown v = W e^{y/2} y^{-eta} keeps everything
real and inside double range even at spectral parameters around t ~ 40
(where W itself sits near e^{-pi t / 2}):

    v'' = (1 - 2 eta / y) v' - ((eta - 1/2)^2 - mu^2) / y^2 * v,
    v(inf) = 1.

The start point is pushed out far enough that the asymptotic tail
series reaches machine accuracy before its divergent stage; inward
integration is stable because the contaminating solution decays in that
direction.  One solve serves many targets.

The start y0 grows like 4 |mu|^2, far above where W turns (near 2 |mu|)
and oscillates.  The solve runs in two legs split at

    y_join = max(3 |mu|, 1.1 y_top + 10),

y_top being the largest target:

* upper leg, y0 -> y_join: LSODA (stiff-capable) over the smooth
  stretch where an explicit method is held back by the equation's
  unit-rate decaying mode;
* lower leg, y_join -> y_end: DOP853 with dense output, where the
  targets are.

When y_join >= y0 the DOP853 leg alone runs from y0.

One private node evaluator, `_w_nodes`, serves every caller with these
routes.  `whittaker_W_grid` certifies each series point against |W|.  The
integrals over W values (`_squared_integral`, `mellin.direct_G`) certify
against the envelope instead, the modulus of the complex sum (for real
mu, |W| again), so nodes near W's oscillation zeros pass.  The squared
integrals int_a^inf W(u)^2 u^{-k} du are Gauss-Legendre quadrature over
`_w_nodes` values: the series below 2t, Miller above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import solve_ivp

from ..quadrature import gl_panels
from .gammafun import digamma, log_gamma
from .recurrence import miller

# Against 40-digit mpmath W(4.25, 0.25, 4) is off by 3.9e-12 (7.3e-12 at 1e-12
# and 1e-13); LSODA at 1e-14 stops with "Unexpected istate".
_RTOL = 3e-13
_RTOL_UPPER = 3e-14
# Four orders above the solver's atol = 1e-280, set by measurement against
# 40-digit mpmath.  At eta = -20, mu in {150i, 200i, 250i}, every |v| >= 1e-276
# kept W within 1.1e-9 of its local envelope; at mu = 250i the error grows
# like 2e-285/|v| below it (1.7e-5 at |v| = 7.4e-282, y = 1e-3).  At
# eta = -1.25, mu = 250i it stays under 4e-9 down to |v| = 2e-287; at eta >= 0
# and at real mu = 30, |v| did not come near the floor.
_V_FLOOR = 1e-276
# Working range, measured against 40-digit mpmath at eta in {0, +-1.25, +-20},
# y in {0.01, 1, |mu|, 1.5 |mu|}: within 1e-8 of the local envelope inside it.
# Beyond it v sinks to the atol floor, y0 runs away, or the tail overflows.
_ETA_MAX = 20.0
_IMAG_MU_MAX = 250.0
_REAL_MU_MAX = 30.0
# Where the 1F1 series certifies a point.  Against 40-digit mpmath at
# imaginary mu: eta in {0, +-1.25, +-20}, t in {1, 40, 150, 250}, 1e-8 <= y <= 2t,
# every point with cond <= 1e3 was within 4.1e-12 relative (6.3e-13 of the local
# envelope); beyond it the error grows like cond * 1e-15 (4.5e-11 at cond 4e4).
# At real mu: eta in {0, +-1.25, +-2.25, +-4.25, +-6.25, +-20}, 100 y log-spaced
# over [1e-8, 60], every certified point was within 6.9e-12 relative for twelve mu
# in [0.1, 3.3] and within 2.7e-11 for mu in {7.7, 12.6, 29.3}, where the
# coefficients' rounding, |log coef| * 1e-16 (3.5e-14 at mu = 29.3), meets cond.
_SERIES_TERMS = 1000
_SERIES_COND = 1e3
# Miller's depth N(y) (_miller_depth).  At eta in {0, +-1.25, +-2.25, +-4.25, +-20},
# t in {1, 2, 5, 10, 40, 150, 250} and 40 y log-spaced from 2t to the c4 tail's y_hi,
# it is at least 1.2 times the smallest depth on a 10%-step ladder that stays within
# 1e-15 of a 12000-level run, whose largest is 1570 at (-20, 1, y = 2).  On that
# (eta, t) grid, 5 y each, every node is within 7.5e-14 of 40-digit mpmath (2.4e-14
# at t <= 40); the floor is the rounding of W's one exponent, near -650 at t = 250.
# Above _MILLER_MAX_DEPTH, reached just above 2t at t < 0.07 (eta >= 0) to t < 0.54
# (eta = -20), the ODE serves.
_MILLER_MAX_DEPTH = 4000


def _asymptotic_v(eta: float, mu2: float, y0: float):
    """Tail series v ~ sum a_s y^-s and its derivative at y0, or None if the
    series cannot reach machine accuracy before diverging."""
    a = 1.0
    v = 1.0
    dv = 0.0
    for s in range(1, 120):
        a *= (mu2 - (eta - s + 0.5) ** 2) / s
        term = a * y0 ** (-s)
        v += term
        dv += -s * a * y0 ** (-s - 1)
        if abs(term) < 1e-17:
            return v, dv
        if abs(term) > 1e6:
            return None
    return None if abs(term) > 1e-15 else (v, dv)


def _start_point(eta: float, mu2: float, y_max_target: float) -> float:
    return max(40.0 + 2.0 * abs(eta) * math.log(max(y_max_target, math.e)),
               4.0 * (abs(mu2) + eta * eta + 1.0),
               1.1 * y_max_target + 10.0)


@dataclass
class WhittakerSolution:
    """Dense inward solution of the scaled equation over [y_end, dense_top]."""

    eta: float
    mu2: float
    dense_top: float
    y_end: float
    _dense: object

    def w_values(self, ys) -> np.ndarray:
        ys = np.atleast_1d(np.asarray(ys, dtype=np.float64))
        slack = 1e-9 * max(1.0, self.y_end)
        if np.any(ys < self.y_end - slack) or np.any(ys > self.dense_top):
            raise ValueError("target outside solved range")
        v = self._state(ys)[0]
        # one exponent, as y^eta alone can overflow where W does not
        return np.sign(v) * np.exp(-0.5 * ys + self.eta * np.log(ys) + np.log(np.abs(v)))

    def _state(self, ys):
        """The dense state at ys; raises where v has sunk toward the solver's atol."""
        state = self._dense(ys)
        low = np.atleast_1d(ys)[np.atleast_1d(np.abs(state[0]) < _V_FLOOR)]
        if low.size:
            raise ValueError(f"Whittaker W at eta={self.eta:g}, y={low.max():g} is below the "
                             f"solver floor: |W e^(y/2) y^(-eta)| < {_V_FLOOR:g}")
        return state


def _leg(rhs, y_start: float, y_stop: float, state, **opts):
    sol = solve_ivp(rhs, (y_start, y_stop), state, **opts)
    if not sol.success:
        raise RuntimeError(f"Whittaker integration failed: {sol.message}")
    return sol


@lru_cache(maxsize=256)
def _solve_scaled(eta: float, mu2: float, y_end: float, y_top: float) -> WhittakerSolution:
    y0 = _start_point(eta, mu2, y_top)
    state = _asymptotic_v(eta, mu2, y0)
    while state is None:
        y0 *= 1.5
        state = _asymptotic_v(eta, mu2, y0)
    coeff = (eta - 0.5) ** 2 - mu2

    def rhs(y, s):
        v, dv = s
        return dv, (1.0 - 2.0 * eta / y) * dv - coeff / (y * y) * v

    y_start = y0
    y_join = max(3.0 * math.sqrt(abs(mu2)), 1.1 * y_top + 10.0)
    if y_join < y0:
        state = _leg(rhs, y0, y_join, state, method="LSODA", rtol=_RTOL_UPPER, atol=1e-280,
                     first_step=1e-3).y[:, -1]
        y_start = y_join
    low = _leg(rhs, y_start, y_end, state, method="DOP853", rtol=_RTOL, atol=1e-280,
               dense_output=True, first_step=y_start * 1e-3)
    return WhittakerSolution(eta, mu2, y_start, y_end, low.sol)


def _mu2_of(mu: complex) -> float:
    """mu^2 for mu real or purely imaginary; any other mu is rejected."""
    mu = complex(mu)
    if abs(mu.real) * abs(mu.imag) > 1e-14:
        raise ValueError(f"mu must be real or purely imaginary, got {mu}")
    return mu.real**2 - mu.imag**2


def _params(eta: float, mu: complex) -> tuple[float, float]:
    """(eta, mu^2); raises ValueError outside |eta| <= 20 and |mu| <= 250
    (imaginary) or 30 (real)."""
    if not abs(eta) <= _ETA_MAX:
        raise ValueError(f"Whittaker W needs |eta| <= {_ETA_MAX:g}, got eta={eta}")
    kind, mu_max = ("real", _REAL_MU_MAX) if complex(mu).imag == 0 else ("imaginary", _IMAG_MU_MAX)
    if not abs(mu) <= mu_max:
        raise ValueError(f"Whittaker W needs |mu| <= {mu_max:g} for {kind} mu, got mu={mu}")
    return float(eta), _mu2_of(mu)


def whittaker_solution(eta: float, mu: complex, y_min: float, y_max: float) -> WhittakerSolution:
    """The inward ODE solve down to y_min; raises ValueError outside the working range."""
    return _solve_scaled(*_params(eta, mu), float(y_min), float(y_max))


def _at_pole(x: complex) -> bool:
    """Whether Gamma has a pole at x, so that 1/Gamma(x) = 0."""
    return x.imag == 0.0 and x.real <= 0.0 and x.real == int(x.real)


def _kummer(a, b, ys: np.ndarray):
    """1F1(a; b; ys) by its term recurrence, each point stopped at a term below
    1e-17 of its sum; and each point's largest term, inf where the series is
    still unconverged after _SERIES_TERMS terms.  For real a and b a point
    stops only from k >= max(-a, -b, y) on: before, a factor a + k or b + k
    near zero can make a term small that the next terms outgrow."""
    sums = np.ones(ys.size, dtype=np.result_type(a, ys))
    peaks = np.full(ys.size, np.inf)
    k_min = np.zeros(ys.size) if isinstance(a, complex) else np.maximum(ys, max(-a, -b))
    idx, y, k_min, term, total, peak = (np.arange(ys.size), ys, k_min, sums, sums,
                                        np.ones(ys.size))
    for k in range(_SERIES_TERMS):
        term = term * ((a + k) / ((b + k) * (k + 1)) * y)
        total = total + term
        size = np.abs(term)
        peak = np.maximum(peak, size)
        done = (size < 1e-17 * np.abs(total)) & (k_min <= k)
        if done.any():
            sums[idx[done]], peaks[idx[done]] = total[done], peak[done]
            idx, y, k_min, term, total, peak = (x[~done] for x in (idx, y, k_min, term, total,
                                                                    peak))
            if not idx.size:
                break
    sums[idx] = total
    return sums, peaks


def _series(eta: float, mu2: float, ys: np.ndarray, envelope: bool = False):
    """W_{eta,mu}(ys), mu^2 = mu2, by the 1F1 series (module docstring), for
    mu = it, t > 0, or real mu with 2 mu not an integer; and the mask of the
    points it certifies: cond <= _SERIES_COND against |W|, or with envelope
    against the modulus of the complex sum."""
    if mu2 < 0:   # the two terms are conjugate: twice the real part of one
        weight, mus = 2.0, (complex(0.0, math.sqrt(-mu2)),)
    else:
        weight, mus = 1.0, (math.sqrt(mu2), -math.sqrt(mu2))
    total = np.zeros(ys.size, dtype=np.complex128)
    log_bound = np.full(ys.size, -np.inf)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for mu in mus:
            if _at_pole(0.5 - mu - eta):
                continue
            sums, peaks = _kummer(0.5 + mu - eta, 1.0 + 2.0 * mu, ys)
            log_outer = (log_gamma(-2.0 * mu) - log_gamma(0.5 - mu - eta)
                         + (0.5 + mu) * np.log(ys) - 0.5 * ys)
            z = weight * np.exp(log_outer + np.log(sums.astype(np.complex128)))
            total = total + (z if mu2 < 0 else z.real)
            scale = np.maximum(peaks, np.abs(sums))
            log_bound = np.logaddexp(log_bound, math.log(weight) + log_outer.real + np.log(scale))
        ws = total.real
        log_ref = np.log(np.abs(total if envelope else ws))
        return ws, np.isfinite(ws) & (log_bound - log_ref <= math.log(_SERIES_COND))


def _miller_depth(eta: float, t: float, ys: np.ndarray) -> np.ndarray:
    """Miller's start level per node, N(y) = ((23 + 2.1 max(0, -eta))^2 +
    (1.55 t)^2) / y + 70, set by measurement (see _MILLER_MAX_DEPTH)."""
    return np.ceil(((23.0 + 2.1 * max(0.0, -eta)) ** 2 + (1.55 * t) ** 2) / ys + 70.0)


def _miller(eta: float, t: float, ys: np.ndarray, depth: np.ndarray) -> np.ndarray:
    """W_{eta,it}(ys) by recurrence.miller in a, from each node's depth (module docstring)."""
    # W underflows to 0 well before y = 4000 at |eta| <= 20, t <= 250 (e^{-y/2} y^20
    # alone is e^{-1834} there); the clip keeps larger y from overflowing the levels
    yv = np.minimum(ys, 4000.0)
    m = max(0, math.ceil(eta + 0.5))   # the first m with Re a + m >= 1
    k = np.arange(int(depth.max()) + 1, dtype=np.float64)
    den = (k - 0.5 - eta) ** 2 + t * t     # (a+k-1)(a-b+k)
    lin, quad = k / den, k * (k + 1.0) / den
    shift = 2.0 * k - 2.0 * eta
    weight = np.ones(k.size)           # k! / (k-m)!, 0 below m
    for j in range(m):
        weight *= np.maximum(k - j, 0.0)
    ratio = miller(yv, depth, lambda n, y, f, f_up: (y + shift[n]) * (lin[n] * f) - quad[n] * f_up,
                   weight)
    # |(a)_m|^2 <= 62900^21 ~ 6e100 at |eta| <= 20, t <= 250
    ratio *= math.prod((j + 0.5 - eta) ** 2 + t * t for j in range(m))
    with np.errstate(divide="ignore"):
        return np.sign(ratio) * np.exp(-0.5 * yv + (eta - m) * np.log(yv) + np.log(np.abs(ratio)))


def _w_nodes(eta: float, mu: complex, ys: np.ndarray, envelope: bool = False) -> np.ndarray:
    """W_{eta,mu} over positive ys (module docstring): the 1F1 series wherever
    it certifies (against |W|, or with envelope against the modulus of the
    complex sum, which passes the zeros of W's oscillation), Miller's
    recurrence at mu = it above 2t, then one ODE solve over the rest only.
    The series is tried at y <= 2t for mu = it, and at every y for real mu
    with 2 mu not an integer."""
    eta, mu2 = _params(eta, mu)
    ws = np.empty_like(ys)
    miller = np.zeros(ys.size, dtype=bool)
    if mu2 < 0:
        t = math.sqrt(-mu2)
        tried = ys <= 2.0 * t
        depth = np.zeros(ys.size)
        depth[~tried] = _miller_depth(eta, t, ys[~tried])
        miller = ~tried & (depth <= _MILLER_MAX_DEPTH)
        if miller.any():
            ws[miller] = _miller(eta, t, ys[miller], depth[miller])
    else:
        two_mu = 2.0 * math.sqrt(mu2)
        tried = np.full(ys.size, two_mu != round(two_mu))
    ode = ~tried & ~miller
    if tried.any():
        ws[tried], certified = _series(eta, mu2, ys[tried], envelope)
        ode[tried] = ~certified
    if ode.any():
        rest = ys[ode]
        ws[ode] = whittaker_solution(eta, mu, rest.min(), rest.max()).w_values(rest)
    return ws


def whittaker_W(eta: float, mu: complex, y: float) -> float:
    """W_{eta,mu}(y) at one positive y, real-valued in both parameter regimes."""
    return float(whittaker_W_grid(eta, mu, y)[0])


def whittaker_W_grid(eta: float, mu: complex, ys) -> np.ndarray:
    """W_{eta,mu} over positive ys: each point the 1F1 series certifies
    against |W| comes from it (imaginary mu = it at y <= 2|t|, real mu with
    2 mu not an integer at any y), imaginary mu above 2|t| from Miller's
    recurrence, and every other point from one inward ODE solve over their
    range."""
    ys = np.atleast_1d(np.asarray(ys, dtype=np.float64))
    if not np.all(ys > 0):   # nan too
        raise ValueError(f"argument must be positive, got y={ys[~(ys > 0)][0]}")
    return _w_nodes(eta, mu, ys)


def whittaker_uniform_ratio(eta: float, t: float, y: float) -> float:
    """|W_{eta,it}(y)| / (t^{eta-1/2} e^{-pi t/2} y^{1/2}).

    Bounded by a constant depending only on eta throughout 0 < y <= 1.5 t.
    """
    return float(whittaker_uniform_ratio_grid(eta, t, y)[0])


def whittaker_uniform_ratio_grid(eta: float, t: float, ys) -> np.ndarray:
    """whittaker_uniform_ratio over many y at one (eta, t), through whittaker_W_grid:
    on y <= 1.5 t the 1F1 series serves every point it certifies."""
    ys = np.atleast_1d(np.asarray(ys, dtype=np.float64))
    if t < 1:
        raise ValueError("t must be >= 1")
    if not np.all((ys > 0) & (ys <= 1.5 * t)):
        raise ValueError("y must lie in (0, 1.5 t]")
    ws = whittaker_W_grid(eta, 1j * t, ys)
    denom = np.exp((eta - 0.5) * math.log(t) - 0.5 * math.pi * t + 0.5 * np.log(ys))
    return np.abs(ws) / denom


def _squared_integral(eta: float, t: float, a: float, k: int) -> float:
    """int_a^inf W_{eta,it}(u)^2 u^{-k} du, 0 <= a < 2t, by 16-point panels on
    _w_nodes values.

    Head: in log u over [max(a, 1e-30), 2t], 60 plus one per cycle of W ~
    cos(t log u), under the series' envelope certificate.  Tail: 60 panels
    over [2t, y_hi], Miller's nodes, where u^{2 eta} e^{-u} is far below the
    integral.
    """
    lo, top = max(a, 1e-30), 2.0 * t
    y_hi = math.pi * t + 40.0 + 4.0 * abs(eta) * math.log(t + 2.0)

    def head(s):
        u = np.exp(s)
        w = _w_nodes(eta, 1j * t, u, envelope=True)
        return w * w * u ** (1 - k)

    n_head = 60 + math.ceil(t * math.log(top / lo) / (2.0 * math.pi))
    return (gl_panels(head, np.linspace(math.log(lo), math.log(top), n_head + 1), 16)
            + gl_panels(lambda u: _w_nodes(eta, 1j * t, u) ** 2 * u ** -k,
                        np.linspace(top, y_hi, 61), 16))


def whittaker_lower_bound_check(eta: float, t: float, alpha: float) -> float:
    """(int_{alpha t}^inf W_{eta,it}(4 pi y)^2 dy / y^2) / (t^{2 eta - 1} e^{-pi t})."""
    if t < 1:
        raise ValueError("t must be >= 1")
    if not 0 < alpha <= 3.0 / (8.0 * math.pi):
        raise ValueError("alpha must lie in (0, 3/(8 pi)]")
    # int_{alpha t}^inf W(4 pi y)^2 dy/y^2 = 4 pi int_{4 pi alpha t}^inf W(u)^2 du/u^2
    integral = 4.0 * math.pi * _squared_integral(eta, t, 4.0 * math.pi * alpha * t, 2)
    return integral / math.exp((2.0 * eta - 1.0) * math.log(t) - math.pi * t)


def whittaker_l2_norm(eta: float, t: float) -> float:
    """int_0^inf W_{eta,it}(u)^2 du/u (scale-invariant, so the 4 pi in the
    usual normalization drops out), t > 0.  W^2/u is bounded near 0, so the
    piece below 1e-30 is dropped."""
    return _squared_integral(eta, t, 0.0, 1)


def whittaker_norm_closed_form(eta: float, t: float) -> float:
    """GR 7.611(4): int_0^inf W_{eta,it}(u)^2 du/u in closed form,
    (pi / sin(2 pi i t)) (psi(1/2-eta+it) - psi(1/2-eta-it))
        / (Gamma(1/2-eta+it) Gamma(1/2-eta-it)),
    evaluated on a log scale to survive the e^{-pi t} decay."""
    z = complex(0.5 - eta, t)
    im_psi = digamma(z).imag
    log_abs_gamma2 = 2.0 * log_gamma(z).real
    # sin(2 pi i t) = i sinh(2 pi t);  the i's cancel against psi's 2i Im
    log_sinh = 2.0 * math.pi * t + math.log1p(-math.exp(-4.0 * math.pi * t)) - math.log(2.0)
    return 2.0 * math.pi * im_psi * math.exp(-log_sinh - log_abs_gamma2)

