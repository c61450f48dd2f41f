"""Miller's algorithm (Gautschi, SIAM Rev. 9 (1967)) over elements that each
start at their own depth, for J_{2it} and Whittaker W; incgamma reads `levels`.
"""

from __future__ import annotations

import numpy as np


def levels(depth: np.ndarray) -> tuple[np.ndarray, list]:
    """(order, live): order sorts depth descending, stably, and live[k],
    k = 0 .. max depth + 1, is how many elements have depth >= k."""
    order = np.argsort(-depth, kind="stable")
    neg = -depth[order]   # ascending
    return order, np.searchsorted(neg, np.arange(0, neg[0] - 2, -1), side="right").tolist()


def miller(x: np.ndarray, depth: np.ndarray, step, weight: np.ndarray) -> np.ndarray:
    """f_0 / sum_k weight[k] f_k per element.  Each starts from f_N = 1,
    f_(N+1) = 0 at its own N = depth (at depth 0, f_0 = 1) and runs
    f_(k-1) = step(k, x, f_k, f_(k+1)), a new array, over a prefix of the
    elements sorted by levels, with those not yet started held at 0.  A
    zero weight[k] is skipped.  Every 16 levels each element's (f_k,
    f_(k+1), sum) is rescaled by its own max(|f_k|, |f_(k+1)|), which keeps
    a growth of up to 1e19 per level in range."""
    order, live = levels(depth)
    f = f_up = s = np.zeros(0, np.result_type(x, weight))
    w = weight.tolist()
    for k in range(len(live) - 2, -1, -1):
        n = live[k]
        if n > f.size:   # the elements started by level k // 2 join, at 0 until they start
            zeros = np.zeros(live[k // 2] - f.size, f.dtype)
            f, f_up, s = (np.concatenate([a, zeros]) for a in (f, f_up, s))
            xk = x[order[:f.size]]
        if live[k + 1] < n:
            f[live[k + 1]:n] = 1.0
        if w[k]:
            s += w[k] * f
        if k == 0:
            break
        if k % 16 == 0:
            scale = 1.0 / np.maximum(np.abs(f[:n]), np.abs(f_up[:n]))
            for a in (f, f_up, s):
                a[:n] *= scale
        f, f_up = step(k, xk, f, f_up), f
    out = np.empty_like(f)
    out[order] = f / s
    return out
