"""Acceptance gate: every numbered criterion at its stated tolerance,
one printed pass/fail line each.  Criteria 1-10 are timed and their
total must stay under the 15-minute budget (criterion 13).
"""

import math
import time

import numpy as np
import pytest

from theta_shift.harness import suites
from theta_shift.modforms.sums import fit_exponent

_TIMES: dict = {}


def _record(number: int, label: str, ok: bool, detail: str, elapsed: float):
    _TIMES[number] = elapsed
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {verdict} {label}: {detail} ({elapsed:.1f}s)")
    assert ok, f"criterion {number}: {label}: {detail}"


def test_criterion_01_twisted_multiplicativity():
    t0 = time.monotonic()
    _, rows, lines, ok = suites.verify_mult_suite(seed=7, trials=200, max_c=10_000)
    elapsed = time.monotonic() - t0
    worst = max(r[8] for r in rows)
    ok = ok and elapsed < 60.0
    _record(1, "factored equals naive on 200 seeded tuples, c <= 1e4",
            ok, f"max deviation {worst:.2e} of the 1e-8*phi(c) budget, "
                f"runtime {elapsed:.1f}s < 60s", elapsed)


def test_criterion_02_square_root_cancellation_bound():
    t0 = time.monotonic()
    _, rows, lines, ok = suites.weil_sweep_suite(seed=11, trials=1000, max_c=4096,
                                                 exhaustive_max=128)
    elapsed = time.monotonic() - t0
    worst = max(r[4] for r in rows)
    ok = ok and elapsed < 300.0
    _record(2, "exhaustive c <= 128 sweep plus 1e3 random tuples, c <= 4096",
            ok, f"max ratio {worst:.4f} <= 1, runtime {elapsed:.1f}s < 300s", elapsed)


def test_criterion_03_salie_prime_power_bound():
    t0 = time.monotonic()
    _, rows, lines, ok = suites.salie_bound_suite(pmax=5000)
    elapsed = time.monotonic() - t0
    _record(3, "prime-power bound for all odd p^a <= 5000, both characters",
            ok, lines[0], elapsed)


def test_criterion_04_whittaker_norm_identity():
    t0 = time.monotonic()
    _, rows, lines, ok = suites.whittaker_norm_suite()
    elapsed = time.monotonic() - t0
    worst = max(r[4] for r in rows)
    ok = ok and worst <= 1e-11
    _record(4, "squared-norm identity at eta = +-5/4, t in {1,2,5,10}",
            ok, f"max rel err {worst:.2e} <= 1e-11", elapsed)


def test_criterion_05_uniform_ratio_stability():
    t0 = time.monotonic()
    _, rows, lines, ok = suites.whittaker_ratio_suite()
    elapsed = time.monotonic() - t0
    _record(5, "uniform envelope sup over t in [1,40], y in (0, 1.5t]",
            ok, lines[0].split("envelope: ")[1], elapsed)


def test_criterion_06_lower_bound_floor():
    t0 = time.monotonic()
    _, rows, lines, ok = suites.whittaker_lower_suite()
    elapsed = time.monotonic() - t0
    vals = [r[2] for r in rows]
    _record(6, "tail-integral ratio positive with spread < 10 over t in [1,30]",
            ok, f"floor {min(vals):.3f} > 0, spread x{max(vals)/min(vals):.2f}", elapsed)


def test_criterion_07_oscillatory_bound_map():
    t0 = time.monotonic()
    _, rows, lines, ok = suites.oscillatory_map_suite(kappas=(0.5, -0.5))
    elapsed = time.monotonic() - t0
    _record(7, "kernel t-average bounded and grid-stable in both regimes",
            ok, " | ".join(line.split(" ", 1)[1] for line in lines), elapsed)


def test_criterion_08_contour_vs_direct():
    t0 = time.monotonic()
    _, rows, lines, ok = suites.mellin_suite()
    elapsed = time.monotonic() - t0
    worst = max(r[7] for r in rows)
    shift = max(r[8] for r in rows)
    ok = ok and worst <= 1e-9 and shift <= 5e-12
    _record(8, "triple-product integral: contour vs direct on 6 points",
            ok, f"max rel {worst:.2e} <= 1e-9, shift invariance {shift:.2e} <= 5e-12", elapsed)


def test_criterion_09_explicit_inner_product():
    t0 = time.monotonic()
    _, rows, lines, ok = suites.remark_suite(ks=(5, 9))
    elapsed = time.monotonic() - t0
    k5 = next(r for r in rows if r[0] == 5)
    worst = max(r[3] for r in rows)
    ok = ok and elapsed < 10.0 and worst <= 1e-10
    ok = ok and abs(k5[2] + 3.0 / (64 * math.pi**2)) < 1e-12
    _record(9, "level-576 inner product equals -3/(64 pi^2) at k=5, also k=9",
            ok, f"worst rel err {worst:.2e} <= 1e-10, "
                f"runtime {elapsed:.1f}s < 10s", elapsed)


def test_criterion_10_theta_multiplier():
    t0 = time.monotonic()
    _, rows, lines, ok = suites.theta_suite(seed=5, trials=100)
    elapsed = time.monotonic() - t0
    worst = max(r[4] for r in rows)
    ok = ok and worst <= 1e-8
    _record(10, "weight-1/2 multiplier on 100 random level-4 matrices",
            ok, f"max residual {worst:.2e} <= 1e-8", elapsed)


def test_criterion_11_sharp_cutoff_exponent(eta7_big):
    from conftest import BUILD_SECONDS

    t0 = time.monotonic()
    _, rows, lines, ok = suites.exponent_gate(eta7_big)
    elapsed = time.monotonic() - t0 + BUILD_SECONDS.get("eta7_big", 0.0)
    xs, S, _ = np.array(rows).T
    slope = fit_exponent(xs, S, 0.0)
    ok = ok and slope <= 0.85 and len(rows) >= 5 and elapsed < 300.0
    _record(11, "main-term-free exponent at h=1 on the dyadic window",
            ok, f"slope {slope:.3f} <= 0.85 over {len(rows)} points, "
                f"runtime {elapsed:.1f}s < 300s incl. coefficient generation",
            elapsed)


def test_criterion_12_main_term_stabilization(eta7_big):
    t0 = time.monotonic()
    _, rows, lines, ok = suites.main_term_gate(eta7_big, h=7)
    elapsed = time.monotonic() - t0
    info = lines[1]
    _record(12, "main-term case h=7 stabilizes; residue route logged",
            ok, lines[0].split(": ", 1)[1] + " || " + info, elapsed)


def test_criterion_13_suite_runtime_budget():
    measured = {k: v for k, v in _TIMES.items() if 1 <= k <= 10}
    assert len(measured) == 10, "criteria 1-10 must run before the budget check"
    total = sum(measured.values())
    ok = total < 900.0
    print(f"[criterion 13] {'PASS' if ok else 'FAIL'} deterministic suite "
          f"(criteria 1-10) total {total:.1f}s < 900s on this host")
    assert ok
