"""Acceptance gate: every numbered criterion runs its suite, which states
its own gates (`suites.GATES`) and verdicts, and each suite line prints as
`[criterion NN] PASS ...`.  Criteria 1-10 are timed, and their total must
stay under the 15-minute budget (criterion 13).
"""

import inspect
import time

from conftest import BUILD_SECONDS
from theta_shift.harness import suites

BUDGET = 900.0   # seconds, criteria 1-10 together
_TIMES: dict = {}

# number, test name, what the criterion shows, suite call, runtime cap in seconds.
# A call's parameters name the fixtures it takes; their build time counts
# against its cap.
CRITERIA = [
    (1, "twisted_multiplicativity", "factored equals naive on 200 seeded tuples, c <= 1e4",
     lambda: suites.verify_mult_suite(seed=7, trials=200, max_c=10_000), 60.0),
    (2, "square_root_cancellation_bound",
     "exhaustive c <= 128 sweep plus 1e3 random tuples, c <= 4096",
     lambda: suites.weil_sweep_suite(seed=11, trials=1000, max_c=4096, exhaustive_max=128),
     300.0),
    (3, "salie_prime_power_bound", "prime-power bound for all odd p^a <= 5000, both characters",
     lambda: suites.salie_bound_suite(pmax=5000), BUDGET),
    (4, "whittaker_norm_identity", "squared-norm identity at eta = +-5/4, t in {1,2,5,10}",
     suites.whittaker_norm_suite, BUDGET),
    (5, "uniform_ratio_stability", "uniform envelope sup over t in [1,40], y in (0, 1.5t]",
     suites.whittaker_ratio_suite, BUDGET),
    (6, "lower_bound_floor", "tail-integral ratio positive with spread < 10 over t in [1,30]",
     suites.whittaker_lower_suite, BUDGET),
    (7, "oscillatory_bound_map", "kernel t-average bounded and grid-stable in both regimes",
     lambda: suites.oscillatory_map_suite(kappas=(0.5, -0.5)), BUDGET),
    (8, "contour_vs_direct", "triple-product integral: contour vs direct on 6 points",
     suites.mellin_suite, BUDGET),
    (9, "explicit_inner_product", "level-576 inner product equals -3/(64 pi^2) at k=5, also k=9",
     lambda: suites.remark_suite(ks=(5, 9)), 10.0),
    (10, "theta_multiplier", "weight-1/2 multiplier on 100 random level-4 matrices",
     lambda: suites.theta_suite(seed=5, trials=100), BUDGET),
    (11, "sharp_cutoff_exponent", "main-term-free exponent at h=1 on the dyadic window",
     lambda eta7_big: suites.exponent_gate(eta7_big), 300.0),
    (12, "main_term_stabilization", "main-term case h=7 stabilizes; residue route logged",
     lambda eta7_big: suites.main_term_gate(eta7_big, h=7), BUDGET),
]


def _criterion(number, label, call, cap):
    def test(request):
        fixtures = inspect.signature(call).parameters
        args = [request.getfixturevalue(name) for name in fixtures]
        t0 = time.monotonic()
        _, _, lines, ok = call(*args)
        elapsed = time.monotonic() - t0 + sum(BUILD_SECONDS.get(name, 0.0) for name in fixtures)
        _TIMES[number] = elapsed
        for line in lines:
            print(f"[criterion {number:2d}] {line}")
        timely = elapsed < cap
        print(f"[criterion {number:2d}] {'PASS' if timely else 'FAIL'} {label}: "
              f"runtime {elapsed:.1f}s < {cap:g}s")
        assert ok and timely, f"criterion {number}: {label}"
    return test


# one test per row, under the criterion's own test name
for _number, _name, _label, _call, _cap in CRITERIA:
    globals()[f"test_criterion_{_number:02d}_{_name}"] = _criterion(_number, _label, _call, _cap)


def test_criterion_13_suite_runtime_budget():
    measured = {k: v for k, v in _TIMES.items() if 1 <= k <= 10}
    assert len(measured) == 10, "criteria 1-10 must run before the budget check"
    total = sum(measured.values())
    ok = total < BUDGET
    print(f"[criterion 13] {'PASS' if ok else 'FAIL'} deterministic suite "
          f"(criteria 1-10) total {total:.1f}s < {BUDGET:g}s on this host")
    assert ok
