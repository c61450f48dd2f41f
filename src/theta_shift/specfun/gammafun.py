"""Complex log-gamma and digamma on the principal branch, by scipy.special.

Arguments are cast to complex first: for a real negative input scipy's
`loggamma` returns nan, while for complex input it gives the principal
branch.  Each Gamma-function name stays a plain function of this module,
so tracers that wrap names here see every evaluation.
"""

from __future__ import annotations

import cmath

import numpy as np
from scipy.special import loggamma, psi

EULER_GAMMA = 0.5772156649015328606


def _pole_check(z: complex, name: str) -> None:
    if z.imag == 0.0 and z.real <= 0.0 and z.real == int(z.real):
        raise ValueError(f"{name} pole at z={z}")


def log_gamma(z: complex) -> complex:
    """Principal-branch log Gamma(z); raises at nonpositive integers."""
    z = complex(z)
    _pole_check(z, "log_gamma")
    return complex(loggamma(z))


def gamma(z: complex) -> complex:
    return cmath.exp(log_gamma(z))


def digamma(z: complex) -> complex:
    """psi(z); raises at nonpositive integers."""
    z = complex(z)
    _pole_check(z, "digamma")
    return complex(psi(z))


def log_gamma_vec(z: np.ndarray) -> np.ndarray:
    """Principal log-gamma over a complex array."""
    return loggamma(np.asarray(z, dtype=np.complex128))
