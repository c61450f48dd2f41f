"""The two workhorse quadrature rules used across the kernel.

This module owns the Gauss-Legendre panel rule: every panel integral in
the library goes through `_panel_integrals`.  `gl_panels` sums the
panels for smooth-by-construction integrands; `alternating_tail`
(pi-length panels plus iterated averaging of the partial sums) serves
integrands that decay only through unit-frequency oscillation.
"""

from __future__ import annotations

import math

import numpy as np

_GL_CACHE: dict = {}


def gl_nodes(n: int):
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


def _panel_integrals(f, edges, n: int) -> np.ndarray:
    """n-point Gauss-Legendre integral of f on each consecutive edge pair.

    f is called once, on every node of every panel; it may be real or
    complex valued.
    """
    edges = np.asarray(edges, dtype=np.float64)
    x, w = gl_nodes(n)
    mids = 0.5 * (edges[1:] + edges[:-1])
    halfs = 0.5 * (edges[1:] - edges[:-1])
    pts = (mids[:, None] + halfs[:, None] * x[None, :]).ravel()
    vals = np.asarray(f(pts))
    vals = vals.astype(np.result_type(vals, np.float64), copy=False).reshape(len(mids), n)
    return halfs * (vals @ w)


def gl_panels(f, edges, n: int = 24):
    """Sum of Gauss-Legendre panels over consecutive edge pairs (vectorized):
    a float for real f, a complex for complex f."""
    return np.sum(_panel_integrals(f, edges, n)).item()


def alternating_tail(f, v0: float, max_panels: int = 600, n: int = 16, tol: float = 1e-11):
    """Integral of f over [v0, inf) for unit-frequency oscillatory decay.

    Accumulates pi-length panels and applies up to ten rounds of
    averaging to the partial sums; returns (value, error_estimate).  The
    estimate is the spread of the last few accelerated values.  f may be
    real or complex valued: the value is a float for real f and a complex
    for complex f.  For complex f the estimate is the spread's modulus, a
    float that bounds the spread of each part, so one pass serves both.
    Raises RuntimeError when max_panels are spent with the estimate
    still at or above tol.
    """
    panels = []
    a = v0
    batch = 40
    est = math.inf
    for _ in range(max_panels // batch):
        edges = a + math.pi * np.arange(batch + 1)
        panels.extend(_panel_integrals(f, edges, n).tolist())
        a = edges[-1]
        s = np.cumsum(panels)
        lev = min(10, len(s) - 2)
        for _ in range(lev):
            s = 0.5 * (s[:-1] + s[1:])
        est = abs(s[-1] - s[-3]) + abs(s[-1] - s[-2]) if len(s) >= 3 else math.inf
        if est < tol:
            return s[-1].item(), float(est)
    raise RuntimeError(
        f"alternating tail from v0={v0:g} unconverged after {max_panels} panels: "
        f"error estimate {est:.3e} >= tol {tol:g}")
