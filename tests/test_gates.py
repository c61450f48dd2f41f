"""Every dual-route gate in `suites.GATES` fires: with its checked route
moved to 0.9 of the tolerance its line reads PASS, at 1.1 FAIL.  And a
route that returns 0 makes its suite print FAIL instead of raising.
"""

import dataclasses

import numpy as np
import pytest

from theta_shift.expsums import _phi
from theta_shift.harness import suites
from theta_shift.harness.cli import main
from theta_shift.harness.suites import GATES


def _relative(route, x):
    return lambda *args: route(*args) * (1.0 + x)


def _absolute(route, x):
    return lambda *args: route(*args) + x


def _budget_gap(route, x):
    """Moves the sum by x*phi(c), c being every sum route's third argument."""
    def moved(*args):
        res = route(*args)
        return dataclasses.replace(res, value=res.value + x * _phi(args[2]))
    return moved


def _right_contour(route, x):
    """Moves the contour integral only on the contour right of re w = kappa/4."""
    def moved(n1, n2, m, k, t, re_w):
        g = route(n1, n2, m, k, t, re_w)
        return g * (1.0 + x) if re_w > (k - 0.5) / 4 else g
    return moved


# gate -> (checked route on `suites`, how a gap of x moves it, small suite call,
# text that marks the gate's line)
FIRES = {
    "c1": ("kloosterman_factored", _budget_gap,
           lambda: suites.verify_mult_suite(trials=3, max_c=200), "twisted multiplicativity"),
    "c3": ("salie_naive", _budget_gap,
           lambda: suites.salie_bound_suite(pmax=30), "batch values == direct summation"),
    "c4": ("whittaker_l2_norm", _relative,
           suites.whittaker_norm_suite, "Whittaker squared-norm identity"),
    "c7": ("g_kappa_t", _relative,
           lambda: suites.oscillatory_map_suite(n_omega=1, n_T=1), "dual-route agreement"),
    "c8": ("direct_G", _relative, suites.mellin_suite, "contour vs direct quadrature"),
    "c8-shift": ("mellin_barnes_G", _right_contour, suites.mellin_suite, "contour-shift invariance"),
    "c9": ("remark_inner_product", _relative, suites.remark_suite, "explicit inner-product value"),
    "c10": ("theta_transform_residual", _absolute,
            lambda: suites.theta_suite(trials=3), "weight-1/2 multiplier"),
}


def test_every_gate_has_a_firing_check():
    assert FIRES.keys() == GATES.keys()


@pytest.mark.parametrize("gate", GATES)
def test_gate_fires(gate, monkeypatch):
    name, move, run, marker = FIRES[gate]
    route = getattr(suites, name)
    for fraction, verdict in ((0.9, "PASS"), (1.1, "FAIL")):
        monkeypatch.setattr(suites, name, move(route, fraction * GATES[gate]))
        (line,) = [line for line in run()[2] if marker in line]
        assert line.startswith(f"{verdict} "), (fraction, line)


def _zero(*args):
    return 0.0


# (suite call, route on `suites`, the route's zero)
ZERO_ROUTES = [
    (suites.whittaker_norm_suite, "whittaker_l2_norm", _zero),
    (suites.whittaker_norm_suite, "whittaker_norm_closed_form", _zero),
    (suites.whittaker_ratio_suite, "whittaker_uniform_ratio_grid",
     lambda eta, t, ys: np.zeros(len(ys))),
    (suites.whittaker_lower_suite, "whittaker_lower_bound_check", _zero),
    (lambda: suites.oscillatory_map_suite(n_omega=1, n_T=1), "g_kappa", _zero),
    (lambda: suites.oscillatory_map_suite(n_omega=1, n_T=1), "g_kappa_t", _zero),
    (suites.mellin_suite, "direct_G", _zero),
    (suites.mellin_suite, "mellin_barnes_G", _zero),
    (suites.remark_suite, "remark_inner_product", _zero),
    (suites.remark_suite, "remark_closed_form", _zero),
]


@pytest.mark.parametrize("run, name, zero", ZERO_ROUTES, ids=[r[1] for r in ZERO_ROUTES])
def test_a_zero_route_fails_its_check(run, name, zero, monkeypatch):
    monkeypatch.setattr(suites, name, zero)
    _, _, lines, ok = run()
    assert not ok
    assert any(line.startswith("FAIL ") for line in lines)


def test_specfun_check_exits_one_on_zero_routes(tmp_path, capsys, monkeypatch):
    for _, name, zero in ZERO_ROUTES:
        monkeypatch.setattr(suites, name, zero)
    assert main(["specfun", "check", "--out", str(tmp_path)]) == 1
    assert "FAIL tail-integral lower bound" in capsys.readouterr().out
