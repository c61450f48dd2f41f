"""Every dual-route gate in `suites.GATES` fires: with its checked route
moved to 0.9 of the tolerance its line reads PASS, at 1.1 FAIL.  A route
that returns 0 makes its suite print FAIL instead of raising, and so does
a route that returns one NaN among finite values.
"""

import dataclasses
import itertools
import math

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


# a small call of each suite, by criterion; each passes on the library as it is
SUITES = {
    "c1": lambda: suites.verify_mult_suite(trials=3, max_c=200),
    "c2": lambda: suites.weil_sweep_suite(trials=3, max_c=200, exhaustive_max=24),
    "c3": lambda: suites.salie_bound_suite(pmax=30),
    "c4": suites.whittaker_norm_suite,
    "c5": suites.whittaker_ratio_suite,
    "c6": suites.whittaker_lower_suite,
    "c7": lambda: suites.oscillatory_map_suite(n_omega=2, n_T=2),
    "c8": suites.mellin_suite,
    "bessel": suites.bessel_bound_suite,
    "c9": suites.remark_suite,
    "c10": lambda: suites.theta_suite(trials=3),
}


@pytest.mark.parametrize("suite", SUITES)
def test_small_suite_call_passes(suite):
    # so that each FAIL below is the moved route's
    assert SUITES[suite]()[3]


# gate -> (checked route on `suites`, how a gap of x moves it, suite, text that
# marks the gate's line)
FIRES = {
    "c1": ("kloosterman_factored", _budget_gap, "c1", "twisted multiplicativity"),
    "c3": ("salie_naive", _budget_gap, "c3", "batch values == direct summation"),
    "c4": ("whittaker_l2_norm", _relative, "c4", "Whittaker squared-norm identity"),
    "c7": ("g_kappa_t", _relative, "c7", "dual-route agreement"),
    "c8": ("direct_G", _relative, "c8", "contour vs direct quadrature"),
    "c8-shift": ("mellin_barnes_G", _right_contour, "c8", "contour-shift invariance"),
    "c9": ("remark_inner_product", _relative, "c9", "explicit inner-product value"),
    "c10": ("theta_transform_residual", _absolute, "c10", "weight-1/2 multiplier"),
}


def test_every_gate_has_a_firing_check():
    assert FIRES.keys() == GATES.keys()


@pytest.mark.parametrize("gate", GATES)
def test_gate_fires(gate, monkeypatch):
    name, move, suite, marker = FIRES[gate]
    route = getattr(suites, name)
    for fraction, verdict in ((0.9, "PASS"), (1.1, "FAIL")):
        monkeypatch.setattr(suites, name, move(route, fraction * GATES[gate]))
        (line,) = [line for line in SUITES[suite]()[2] if marker in line]
        assert line.startswith(f"{verdict} "), (fraction, line)


def _zero(*args):
    return 0.0


# (suite, route on `suites`, the route's zero)
ZERO_ROUTES = [
    ("c4", "whittaker_l2_norm", _zero),
    ("c4", "whittaker_norm_closed_form", _zero),
    ("c5", "whittaker_uniform_ratio_grid", lambda eta, t, ys: np.zeros(len(ys))),
    ("c6", "whittaker_lower_bound_check", _zero),
    ("c7", "g_kappa", _zero),
    ("c7", "g_kappa_t", _zero),
    ("c8", "direct_G", _zero),
    ("c8", "mellin_barnes_G", _zero),
    ("c9", "remark_inner_product", _zero),
    ("c9", "remark_closed_form", _zero),
]


@pytest.mark.parametrize("suite, name, zero", ZERO_ROUTES, ids=[r[1] for r in ZERO_ROUTES])
def test_a_zero_route_fails_its_check(suite, name, zero, monkeypatch):
    monkeypatch.setattr(suites, name, zero)
    _, _, lines, ok = SUITES[suite]()
    assert not ok
    assert any(line.startswith("FAIL ") for line in lines)


def test_specfun_check_exits_one_on_zero_routes(tmp_path, capsys, monkeypatch):
    for _, name, zero in ZERO_ROUTES:
        monkeypatch.setattr(suites, name, zero)
    assert main(["specfun", "check", "--out", str(tmp_path)]) == 1
    assert "FAIL tail-integral lower bound" in capsys.readouterr().out


def _nan_on_second_call(route):
    """The route, with its second call's value NaN: one element of an array,
    the value of a sum result, else the whole value."""
    calls = itertools.count(1)

    def moved(*args):
        out = route(*args)
        if next(calls) != 2:
            return out
        if isinstance(out, np.ndarray):
            out = out.copy()
            out.flat[-1] = np.nan
            return out
        if dataclasses.is_dataclass(out):
            return dataclasses.replace(out, value=complex(math.nan))
        return math.nan
    return moved


# every route a suite reads from `suites`, with each suite that reads it
NAN_ROUTES = [
    ("c1", "kloosterman_naive"), ("c1", "kloosterman_factored"),
    ("c2", "weil_ratio_grid"), ("c2", "kloosterman_naive"),
    ("c3", "salie_values"), ("c3", "salie_naive"),
    ("c4", "whittaker_l2_norm"), ("c4", "whittaker_norm_closed_form"),
    ("c5", "whittaker_uniform_ratio_grid"),
    ("c6", "whittaker_lower_bound_check"),
    ("c7", "g_kappa"), ("c7", "g_kappa_t"),
    ("c8", "mellin_barnes_G"), ("c8", "direct_G"),
    ("bessel", "bessel_J_imag_order"),
    ("c9", "remark_inner_product"), ("c9", "remark_closed_form"),
    ("c10", "theta_transform_residual"),
]


@pytest.mark.parametrize("suite, name", NAN_ROUTES, ids=[f"{s}-{n}" for s, n in NAN_ROUTES])
def test_a_nan_route_fails_its_check(suite, name, monkeypatch):
    monkeypatch.setattr(suites, name, _nan_on_second_call(getattr(suites, name)))
    _, _, lines, ok = SUITES[suite]()
    assert not ok
    assert any(line.startswith("FAIL ") and "nan" in line for line in lines), lines
