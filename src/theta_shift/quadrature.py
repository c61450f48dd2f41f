"""The two workhorse quadrature rules used across the kernel.

This module owns the Gauss-Legendre panel rule: every panel integral in
the library goes through `_panel_integrals`.  `gl_panels` sums the
panels for smooth-by-construction integrands; `alternating_tail`
(pi-length panels plus iterated averaging of the partial sums) serves
integrands that decay only through unit-frequency oscillation.
`panel_nodes` and `gl_cumulative` serve a caller that needs the
integral's running value at each node, as integration by parts does.
"""

from __future__ import annotations

import functools
import math

import numpy as np


@functools.cache
def gl_nodes(n: int):
    """The n Gauss-Legendre nodes and weights on [-1, 1].  Read-only and cached."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@functools.cache
def gl_cumulative(n: int) -> np.ndarray:
    """The n x n matrix C with (C @ f)[i] = int_{-1}^{x_i} p, where p is
    the degree n - 1 interpolant of f at the n Gauss-Legendre nodes x_i;
    exact for polynomial f of degree below n.  Read-only and cached."""
    x, w = gl_nodes(n)
    vander = np.polynomial.legendre.legvander(x, n - 1)
    # Legendre coefficients of each nodal basis function, by the rule itself
    coef = (np.arange(n) + 0.5)[:, None] * vander.T * w
    cum = np.polynomial.legendre.legvander(x, n) @ np.polynomial.legendre.legint(coef, lbnd=-1)
    cum.setflags(write=False)
    return cum


def panel_nodes(edges, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n Gauss-Legendre nodes of each consecutive edge pair, one row
    per panel, and each panel's half-width."""
    edges = np.asarray(edges, dtype=np.float64)
    x, _ = gl_nodes(n)
    mids = 0.5 * (edges[1:] + edges[:-1])
    halfs = 0.5 * (edges[1:] - edges[:-1])
    return mids[:, None] + halfs[:, None] * x[None, :], halfs


def _panel_integrals(f, edges, n: int) -> np.ndarray:
    """n-point Gauss-Legendre integral of f on each consecutive edge pair.

    f is called once, on every node of every panel; it may be real or
    complex valued.
    """
    pts, halfs = panel_nodes(edges, n)
    vals = np.asarray(f(pts.ravel()))
    vals = vals.astype(np.result_type(vals, np.float64), copy=False).reshape(pts.shape)
    return halfs * (vals @ gl_nodes(n)[1])


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
