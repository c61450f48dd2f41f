import ast
import cmath
import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from theta_shift.specfun import gammafun
from theta_shift.specfun.gammafun import (
    EULER_GAMMA,
    digamma,
    gamma,
    log_gamma,
    log_gamma_vec,
)

mp.mp.dps = 30

# the arguments the library evaluates: 1 + 2it (Whittaker norm, J_{2it} prefactor)
# and 1/2 - eta + it (Mellin-Barnes and oscillatory gamma ratios)
_T = np.linspace(0.0, 40.0, 161)
LIBRARY_POINTS = [complex(1.0, 2.0 * t) for t in _T] + [
    complex(0.5 - eta, t) for eta in (-1.25, -0.75, 0.75, 1.25) for t in _T]


@pytest.mark.parametrize("fn, ref_fn", [(log_gamma, mp.loggamma), (digamma, mp.digamma)],
                         ids=["log_gamma", "digamma"])
def test_library_points_against_mpmath(fn, ref_fn):
    for z in LIBRARY_POINTS:
        ref = complex(ref_fn(z))
        assert abs(fn(z) - ref) <= 5e-15 * max(abs(ref), 1.0), z


def test_only_gammafun_takes_gamma_from_scipy():
    # the tracer counts Gamma evaluations on gammafun's names; a second route would go uncounted
    names = {"gamma", "loggamma", "gammaln", "psi", "digamma"}
    here = Path(gammafun.__file__).resolve()
    src = here.parents[1]
    routes = [f"{path.relative_to(src)}:{node.lineno}" for path in sorted(src.rglob("*.py"))
              if path != here
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.ImportFrom) and node.module == "scipy.special"
              and names & {a.name for a in node.names}
              # a whole-module import reaches every name unseen
              or isinstance(node, ast.ImportFrom) and node.module == "scipy"
              and "special" in {a.name for a in node.names}
              or isinstance(node, ast.Import) and "scipy.special" in {a.name for a in node.names}]
    assert routes == []


class TestLogGamma:
    def test_half(self):
        assert log_gamma(0.5).real == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)
        assert log_gamma(0.5).imag == 0.0

    def test_factorial(self):
        assert log_gamma(5.0).real == pytest.approx(math.log(24.0), rel=1e-14)

    def test_identities_at_1_plus_10i(self):
        z = 1 + 10j
        # recurrence
        lhs = log_gamma(z + 1)
        rhs = log_gamma(z) + cmath.log(z)
        assert abs(lhs - rhs) < 1e-12 * abs(lhs)
        # reflection (branch-corrected via exp)
        prod = gamma(z) * gamma(1 - z)
        assert abs(prod - cmath.pi / cmath.sin(cmath.pi * z)) < 1e-12 * abs(prod)

    def test_against_reference_grid(self):
        rng = np.random.default_rng(1)
        for _ in range(150):
            x = rng.uniform(-999, 999)
            y = rng.uniform(-999, 999)
            if abs(y) < 0.05 and x <= 0:
                continue
            z = complex(x, y)
            ref = complex(mp.loggamma(z))
            assert abs(log_gamma(z) - ref) <= 1e-12 * abs(ref)

    def test_negative_real_axis_branch(self):
        ref = complex(mp.loggamma(-0.5))
        assert abs(log_gamma(-0.5) - ref) < 1e-13 * abs(ref)
        ref = complex(mp.loggamma(-3.25))
        assert abs(log_gamma(-3.25) - ref) < 1e-13 * abs(ref)

    def test_pole_raises(self):
        for z in (0, -1, -7):
            with pytest.raises(ValueError):
                log_gamma(z)

    def test_vectorized_matches_scalar(self):
        # scalar reference is mpmath: log_gamma and log_gamma_vec share scipy underneath
        rng = np.random.default_rng(2)
        z = rng.uniform(-40, 40, 64) + 1j * rng.uniform(-40, 40, 64)
        z = z[np.abs(z.imag) > 0.01]
        v = log_gamma_vec(z)
        ref = np.array([complex(mp.loggamma(w)) for w in z])
        assert np.max(np.abs(v - ref)) < 1e-11


class TestDigamma:
    def test_euler_mascheroni(self):
        assert digamma(1.0).real == pytest.approx(-EULER_GAMMA, rel=1e-13)

    def test_half(self):
        assert digamma(0.5).real == pytest.approx(-EULER_GAMMA - 2 * math.log(2), rel=1e-13)

    def test_recurrence_random(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            z = complex(rng.uniform(-50, 50), rng.uniform(-50, 50))
            if abs(z.imag) < 0.05 and z.real <= 0:
                continue
            lhs = digamma(z + 1) - digamma(z)
            assert abs(lhs - 1.0 / z) < 1e-10 * max(1.0, abs(1.0 / z))

    def test_against_reference(self):
        rng = np.random.default_rng(4)
        for _ in range(80):
            z = complex(rng.uniform(-200, 200), rng.uniform(-200, 200))
            if abs(z.imag) < 0.05 and z.real <= 0:
                continue
            ref = complex(mp.digamma(z))
            assert abs(digamma(z) - ref) <= 1e-10 * max(abs(ref), 1.0)

    def test_pole_raises(self):
        with pytest.raises(ValueError):
            digamma(-2)
