"""Every module imports on its own, and the light ones stay light."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(
    ".".join(p.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__")
    for p in (SRC / "theta_shift").rglob("*.py"))


def _run(code: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_in_fresh_interpreter(module):
    proc = _run(f"import {module}")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("module", [
    "theta_shift.specfun.besselj", "theta_shift.modforms.eta", "theta_shift.expsums"])
def test_light_module_leaves_ode_solver_unloaded(module):
    proc = _run(f"import sys, {module}; print(sorted(m for m in "
                "('scipy.integrate', 'theta_shift.specfun.whittaker') if m in sys.modules))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_incgamma_leaves_scipy_unloaded():
    # its series and continued fraction are numpy only
    proc = _run("import sys, theta_shift.specfun.incgamma; print('scipy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_whittaker_leaves_mpmath_unloaded():
    # mpmath is imported only inside the functions that call it, so loading the
    # Whittaker module (as every spectral-map set-up does) must not pull it in
    proc = _run("import sys, theta_shift.specfun.whittaker; print('mpmath' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
