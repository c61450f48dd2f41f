"""Seeded verification suites behind the CLI commands and the acceptance
tests.  Each suite returns (rows, summary_lines, ok): CSV-ready rows, a
human-readable report with one pass/fail line per property, and the
hard-assertion verdict.
"""

from __future__ import annotations

import math
import time

import numpy as np

from ..arith import char_from_kronecker, trivial_character
from ..expsums import (
    _phi,
    kloosterman_factored,
    kloosterman_naive,
    random_admissible_tuple,
    salie_bound,
    salie_values,
    weil_ratio_grid,
)
from ..modforms.forms import CuspForm
from ..modforms.residual import (
    remark_closed_form,
    remark_inner_product,
    residual_constant,
    sym2_residue_estimate,
)
from ..modforms.sums import fit_exponent, shifted_sum
from ..modforms.theta import random_gamma0_matrix, theta_transform_residual
from ..quadrature import DEFAULT_SPEC
from ..specfun.besselj import bessel_J_imag_order
from ..specfun.mellin import direct_G, mellin_barnes_G
from ..specfun.oscillatory import g_kappa, g_kappa_t
from ..specfun.whittaker import (
    whittaker_l2_norm,
    whittaker_lower_bound_check,
    whittaker_norm_closed_form,
    whittaker_uniform_ratio_grid,
)
from .config import item_rng


def default_characters():
    return [
        trivial_character(4),
        char_from_kronecker(12, 12),
        char_from_kronecker(-7, 28),
        char_from_kronecker(-4, 4),
    ]


def verify_mult_suite(seed: int = 7, trials: int = 200, max_c: int = 10_000):
    """Factored evaluation equals direct summation, tuple by tuple."""
    chars = default_characters()

    def one(i):
        rng = item_rng(seed, i)
        m, n, c, ell, chi = random_admissible_tuple(rng, max_c, chars)
        naive = kloosterman_naive(m, n, c, ell, chi)
        fact = kloosterman_factored(m, n, c, ell, chi)
        dev = abs(naive.value - fact.value)
        return (m, n, c, ell, chi.label, naive.value.real, naive.value.imag,
                dev, dev / (1e-8 * _phi(c)))

    t0 = time.time()
    rows = [one(i) for i in range(trials)]
    elapsed = time.time() - t0
    worst = max(r[8] for r in rows)
    ok = worst <= 1.0
    lines = [
        f"{'PASS' if ok else 'FAIL'} twisted multiplicativity: factored == naive "
        f"on {trials} random tuples (c <= {max_c}); "
        f"max deviation {worst:.3e} of the 1e-8*phi(c) budget [{elapsed:.1f}s]",
    ]
    return rows, lines, ok


def weil_sweep_suite(seed: int = 11, trials: int = 1000, max_c: int = 4096,
                     exhaustive_max: int = 128):
    """Square-root cancellation bound for the twisted Kloosterman sums."""
    chars = [trivial_character(4), char_from_kronecker(12, 12)]
    rows = []
    t0 = time.time()
    worst_ex = 0.0
    for chi in chars:
        step = math.lcm(4, chi.modulus)
        for c in range(step, exhaustive_max + 1, step):
            for ell in (1, 3):
                r = weil_ratio_grid(c, ell, chi)
                rows.append(("exhaustive", c, ell, chi.label, r))
                worst_ex = max(worst_ex, r)

    def one(i):
        rng = item_rng(seed, i)
        m, n, c, ell, chi = random_admissible_tuple(rng, max_c, chars)
        res = kloosterman_naive(m, n, c, ell, chi)
        return ("random", c, ell, chi.label, abs(res.value) / res.bound)

    rnd = [one(i) for i in range(trials)]
    rows.extend(rnd)
    worst_rnd = max(r[4] for r in rnd)
    elapsed = time.time() - t0
    ok = worst_ex <= 1.0 and worst_rnd <= 1.0
    lines = [
        f"{'PASS' if worst_ex <= 1.0 else 'FAIL'} square-root cancellation bound, exhaustive sweep "
        f"c <= {exhaustive_max}, all (m, n), ell in {{1,3}}: max ratio {worst_ex:.4f}",
        f"{'PASS' if worst_rnd <= 1.0 else 'FAIL'} same bound on {trials} random tuples "
        f"(c <= {max_c}): max ratio {worst_rnd:.4f} [{elapsed:.1f}s total]",
    ]
    return rows, lines, ok


def salie_bound_suite(pmax: int = 5000, seed: int = 13, pairs_per_modulus: int = 40):
    """Prime-power bound for the quadratic-twisted sums at odd moduli."""
    rows = []
    t0 = time.time()
    worst = 0.0
    sieve = np.ones(pmax + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(math.isqrt(pmax)) + 1):
        if sieve[p]:
            sieve[p * p:: p] = False
    primes = [int(p) for p in np.nonzero(sieve)[0] if p % 2 == 1]
    idx = 0
    for p in primes:
        alpha = 1
        while p**alpha <= pmax:
            c = p**alpha
            for chi in (trivial_character(1), char_from_kronecker(p, p) if p % 4 == 1
                        else char_from_kronecker(-p, p)):
                if c % chi.modulus != 0:
                    continue
                rng = item_rng(seed, idx)
                idx += 1
                structured = [(0, 0), (0, 1), (1, 0), (1, 1), (p, 1), (p, p), (c, c)]
                extra = rng.integers(-2 * c, 2 * c + 1, size=(pairs_per_modulus, 2))
                pairs = np.array(structured + [tuple(x) for x in extra], dtype=np.int64)
                vals = salie_values(c, chi, pairs)
                for (m, n), v in zip(pairs, vals):
                    b = salie_bound(int(m), int(n), c, chi)
                    ratio = abs(v) / b
                    worst = max(worst, ratio)
                    if ratio > 0.5:
                        rows.append((c, int(m), int(n), chi.label, abs(v), b, ratio))
            alpha += 1
    elapsed = time.time() - t0
    ok = worst <= 1.0 + 1e-9
    lines = [
        f"{'PASS' if ok else 'FAIL'} quadratic-twist prime-power bound, odd p^a <= {pmax}, "
        f"trivial and quadratic characters: max ratio {worst:.4f} [{elapsed:.1f}s]",
    ]
    return rows, lines, ok


def whittaker_norm_suite(etas=(1.25, -1.25), ts=(1.0, 2.0, 5.0, 10.0), tol=1e-6):
    """Squared-norm identity: quadrature against the digamma closed form."""
    rows = []
    worst = 0.0
    t0 = time.time()
    for eta in etas:
        for t in ts:
            q = whittaker_l2_norm(eta, t)
            cf = whittaker_norm_closed_form(eta, t)
            rel = abs(q - cf) / abs(cf)
            worst = max(worst, rel)
            rows.append((eta, t, q, cf, rel))
    ok = worst <= tol
    lines = [
        f"{'PASS' if ok else 'FAIL'} Whittaker squared-norm identity at eta in {etas}, "
        f"t in {ts}: max rel err {worst:.2e} (tol {tol:.0e}) [{time.time()-t0:.1f}s]",
    ]
    return rows, lines, ok


def whittaker_ratio_suite(etas=(1.25, -1.25), n_t: int = 6, n_y: int = 12):
    """Uniform decay-envelope ratio: finite sup, stable under grid doubling."""
    rows = []
    t0 = time.time()
    sups = {}
    for dbl in (1, 2):
        sup = 0.0
        ts = np.geomspace(1.0, 40.0, n_t * dbl)
        fracs = np.linspace(0.02, 1.5, n_y * dbl)
        for eta in etas:
            for t in ts:
                r = whittaker_uniform_ratio_grid(eta, float(t), fracs * float(t))
                sup = max(sup, float(np.max(r)))
                if dbl == 1:
                    rows.extend(
                        (eta, float(t), float(y), float(v))
                        for y, v in zip(fracs * float(t), r)
                    )
        sups[dbl] = sup
    drift = abs(sups[2] - sups[1]) / sups[1]
    ok = math.isfinite(sups[2]) and drift < 0.05
    lines = [
        f"{'PASS' if ok else 'FAIL'} uniform Whittaker envelope: sup ratio {sups[1]:.4f}, "
        f"doubled-grid sup {sups[2]:.4f} (drift {drift:.2%}, needs < 5%) "
        f"[{time.time()-t0:.1f}s]",
    ]
    return rows, lines, ok


def whittaker_lower_suite(etas=(1.25, -1.25), ts=(1.0, 2.0, 5.0, 10.0, 30.0)):
    """Positive lower envelope of the tail-integral ratio across t."""
    alpha = 1.0 / (8.0 * math.pi)
    rows = []
    ok = True
    lines = []
    t0 = time.time()
    for eta in etas:
        vals = [whittaker_lower_bound_check(eta, t, alpha) for t in ts]
        rows.extend((eta, t, v) for t, v in zip(ts, vals))
        lo, hi = min(vals), max(vals)
        good = lo > 0 and hi / lo < 10.0
        ok = ok and good
        lines.append(
            f"{'PASS' if good else 'FAIL'} tail-integral lower bound at eta={eta}: "
            f"ratios in [{lo:.4f}, {hi:.4f}], spread x{hi/lo:.2f} (floor > 0, spread < 10)"
        )
    lines[-1] += f" [{time.time()-t0:.1f}s]"
    return rows, lines, ok


def oscillatory_map_suite(kappas=(0.5, -0.5), n_omega: int = 8, n_T: int = 6,
                          dual_route_tol: float = 1e-4):
    """Boundedness and grid stability of G, plus a dual-route spot check."""
    rows = []
    t0 = time.time()
    sups_large = {}
    sups_small = {}
    for dbl in (1, 2):
        sup_l = 0.0
        sup_s = 0.0
        for kap in kappas:
            for om in np.geomspace(1.0, 100.0, n_omega * dbl):
                for T in np.geomspace(1.0, 50.0, n_T * dbl):
                    g = g_kappa(kap, float(om), float(T))
                    r = abs(g) / math.sqrt(om)
                    sup_l = max(sup_l, r)
                    if dbl == 1:
                        rows.append((kap, float(om), float(T), g, r))
            for om in np.geomspace(1e-3, 1.0, max(4, n_omega // 2) * dbl):
                for T in np.geomspace(1.0, 50.0, max(3, n_T // 2) * dbl):
                    g = g_kappa(kap, float(om), float(T))
                    r = abs(g) / (om * (1.0 + abs(math.log(om))))
                    sup_s = max(sup_s, r)
                    if dbl == 1:
                        rows.append((kap, float(om), float(T), g, r))
        sups_large[dbl] = sup_l
        sups_small[dbl] = sup_s
    drift_l = abs(sups_large[2] - sups_large[1]) / sups_large[1]
    drift_s = abs(sups_small[2] - sups_small[1]) / sups_small[1]
    spots = [(0.5, 2.0, 1.5), (-0.5, 2.0, 1.5), (1.5, 0.7, 2.0), (-1.5, 1.2, 1.0)]
    worst_dual = 0.0
    for kap, om, T in spots:
        a, b = g_kappa(kap, om, T), g_kappa_t(kap, om, T)
        worst_dual = max(worst_dual, abs(a - b) / max(abs(b), 1e-12))
    elapsed = time.time() - t0
    ok = (math.isfinite(sups_large[2]) and drift_l < 0.10
          and math.isfinite(sups_small[2]) and drift_s < 0.10
          and worst_dual <= dual_route_tol)
    lines = [
        f"{'PASS' if drift_l < 0.10 else 'FAIL'} oscillatory kernel t-average, omega >= 1: "
        f"sup |G|/omega^(1/2) = {sups_large[1]:.4f}, doubled-grid drift {drift_l:.2%}",
        f"{'PASS' if drift_s < 0.10 else 'FAIL'} same, omega <= 1 with omega(1+|log omega|): "
        f"sup = {sups_small[1]:.4f}, drift {drift_s:.2%}",
        f"{'PASS' if worst_dual <= dual_route_tol else 'FAIL'} dual-route agreement on "
        f"{len(spots)} spots: worst rel {worst_dual:.2e} (tol {dual_route_tol:.0e}) "
        f"[{elapsed:.1f}s]",
    ]
    return rows, lines, ok


def mellin_suite(tol: float = 1e-6):
    """Contour-integral route against direct quadrature, plus shift invariance."""
    grid = [
        (1, 1, 2, 5, 1.0), (1, 1, 2, 5, 2.0), (3, -1, 2, 5, 1.0),
        (4, -2, 2, 5, 2.0), (2, 2, 4, 9, 1.0), (5, -2, 3, 9, 2.0),
    ]
    rows = []
    worst = 0.0
    worst_shift = 0.0
    t0 = time.time()
    for (n1, n2, m, k, t) in grid:
        kappa = k - 0.5
        g1 = mellin_barnes_G(n1, n2, m, k, t, 0.3 * kappa / 2).real
        g2 = mellin_barnes_G(n1, n2, m, k, t, 0.7 * kappa / 2).real
        d = direct_G(n1, n2, m, k, t)
        rel = abs(g1 - d) / abs(d)
        shift = abs(g1 - g2) / abs(g1)
        worst = max(worst, rel)
        worst_shift = max(worst_shift, shift)
        rows.append((n1, n2, m, k, t, g1, d, rel, shift))
    ok = worst <= tol and worst_shift <= tol
    lines = [
        f"{'PASS' if worst <= tol else 'FAIL'} contour vs direct quadrature on "
        f"{len(grid)} points (both signs, k in {{5,9}}, t in {{1,2}}): worst rel {worst:.2e}",
        f"{'PASS' if worst_shift <= tol else 'FAIL'} contour-shift invariance: "
        f"worst rel {worst_shift:.2e} [{time.time()-t0:.1f}s]",
    ]
    return rows, lines, ok


def bessel_bound_suite(tol_constant: float = 2.0):
    """Uniform J-bound and conjugate-difference bound on a (t, q) grid.

    The difference bound is asserted with an explicit constant 2 (the
    empirical sup constant is ~1.6); the max constants are reported.
    """
    ts = [0.01, 0.1, 0.5, 1.0, 2.0, 3.0]
    qs = [1e-3, 0.05, 0.5, 1.0, 3.0, 10.0, 25.0, 60.0, 120.0]
    rows = []
    c_abs = 0.0
    c_diff = 0.0
    for t in ts:
        for q in qs:
            J = bessel_J_imag_order(t, q)
            env = min(q ** -0.5, 1.0 + abs(math.log(q)))
            ra = abs(J) / (math.cosh(math.pi * t) * env)
            rd = 2.0 * abs(J.imag) / (abs(math.sinh(math.pi * t)) * env)
            c_abs = max(c_abs, ra)
            c_diff = max(c_diff, rd)
            rows.append((t, q, ra, rd))
    ok = c_abs <= tol_constant and c_diff <= tol_constant
    lines = [
        f"{'PASS' if ok else 'FAIL'} uniform J-envelopes: max |J| constant {c_abs:.3f}, "
        f"max conjugate-difference constant {c_diff:.3f} (asserted <= {tol_constant})",
    ]
    return rows, lines, ok


def theta_suite(seed: int = 5, trials: int = 100, z: complex = 0.3 + 1.1j,
                tol: float = 1e-8):
    """Weight-1/2 multiplier consistency on random level-4 matrices."""
    def one(i):
        rng = item_rng(seed, i)
        g = random_gamma0_matrix(rng)
        return (*g, theta_transform_residual(g, z))

    t0 = time.time()
    rows = [one(i) for i in range(trials)]
    worst = max(r[4] for r in rows)
    ok = worst <= tol
    lines = [
        f"{'PASS' if ok else 'FAIL'} weight-1/2 multiplier: {trials} random matrices, "
        f"max residual {worst:.2e} (tol {tol:.0e}) [{time.time()-t0:.1f}s]",
    ]
    return rows, lines, ok


def remark_suite(ks=(5, 9), tol: float = 1e-6):
    """The explicit level-576 inner product against its closed form."""
    rows = []
    worst = 0.0
    t0 = time.time()
    for k in ks:
        q = remark_inner_product(k)
        cf = remark_closed_form(k)
        rel = abs(q - cf) / abs(cf)
        worst = max(worst, rel)
        rows.append((k, q, cf, rel))
    ok = worst <= tol
    lines = [
        f"{'PASS' if ok else 'FAIL'} explicit inner-product value at k in {ks}: "
        f"worst rel err {worst:.2e} (tol {tol:.0e}) [{time.time()-t0:.1f}s]",
    ]
    return rows, lines, ok


def shifted_sum_experiment(f: CuspForm, h: int, x_lo_exp: int = 5, x_hi_exp: int = 12,
                           one_sided: bool = False):
    """Dyadic sharp-cutoff sum; returns the series plus per-point rows."""
    grid = [2.0**j for j in range(x_lo_exp, x_hi_exp + 1)]
    n_top = math.isqrt(int(grid[-1]) ** 2 - h)
    if n_top * n_top + h > f.n_coeffs:
        grid = [x for x in grid if x * x - h <= f.n_coeffs]
    series = shifted_sum(f, h, grid, one_sided=one_sided)
    rows = [(x, s, s / x) for x, s in series.rows]
    return series, rows


def exponent_gate(f: CuspForm, h: int = 1, cap: float = 0.85, min_points: int = 5):
    """Main-term-free slope check on the dyadic window."""
    series, rows = shifted_sum_experiment(f, h)
    xs = series.xs()
    slope = fit_exponent(series, 0.0)
    # top-of-range slope on the last few octaves, reported alongside
    mask = xs >= 2.0 ** 8
    top = ShiftedSumSeriesView(series, mask)
    top_slope = float(np.polyfit(np.log(top.xs()), np.log(np.abs(top.values())), 1)[0]) \
        if mask.sum() >= 2 else math.nan
    ok = slope <= cap and len(xs) >= min_points
    lines = [
        f"{'PASS' if ok else 'FAIL'} sharp-cutoff exponent (h={h}, {len(xs)} dyadic points "
        f"up to X={int(xs[-1])}): slope {slope:.3f} (cap {cap}); "
        f"top-window slope {top_slope:.3f}",
    ]
    return rows, lines, ok, slope


class ShiftedSumSeriesView:
    """Row-masked view duck-typing ShiftedSumSeries for the fitter."""

    def __init__(self, series, mask):
        self.rows = [r for r, m in zip(series.rows, mask) if m]
        self.h = series.h

    def xs(self):
        return np.array([x for x, _ in self.rows])

    def values(self):
        return np.array([s for _, s in self.rows])


def main_term_gate(f: CuspForm, h: int = 7, stab_tol: float = 0.10,
                   inform_band: float = 0.25):
    """Main-term stabilization plus the informational residue comparison."""
    series, rows = shifted_sum_experiment(f, h)
    (x1, s1), (x2, s2) = series.rows[-2], series.rows[-1]
    c_top, c_prev = s2 / x2, s1 / x1
    var = abs(c_top - c_prev) / abs(c_top)
    ok = var < stab_tol and abs(c_top) > 0
    y_top = min(4000, math.isqrt(f.n_coeffs) - 1)
    r_hat, quality = sym2_residue_estimate(f, np.unique(np.geomspace(40, y_top, 24).astype(int)))
    c_est = residual_constant(f, h, r_hat)
    dev = abs(c_est - c_top) / abs(c_top) if c_top else math.inf
    flag = "within" if dev <= inform_band else "OUTSIDE (slow convergence)"
    lines = [
        f"{'PASS' if ok else 'FAIL'} main-term stabilization (h={h}): S/X = {c_top:.5f}, "
        f"top-two variation {var:.2%} (needs < {stab_tol:.0%}), nonzero",
        f"INFO  residue-route comparison: slope estimate R = {r_hat:.4f} "
        f"(quality {quality:.3f}) gives c = {c_est:.4f}; observed {c_top:.4f}; "
        f"deviation {dev:.1%}, {flag} the {inform_band:.0%} band",
    ]
    return rows, lines, ok
