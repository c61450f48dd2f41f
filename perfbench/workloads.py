"""Seeded inputs and gated items for the three benchmark workloads.

Every workload pass is a fixed list of item kinds with fixed counts; the
seed and pass index only move the parameters inside each kind's range.
Parameters that drive cost (modulus, spectral parameter t, form size)
are stratified over their range, so every pass spans the whole range
and passes of different seeds cost about the same.

Each item calls the library's public API and is gated at the tolerance
the library itself states (module docstrings and the suites'
defaults); the benchmark chooses no tolerance.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import shutil
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from theta_shift import arith, expsums
from theta_shift.harness import cli
# bound here, outside theta_shift, so the tracer leaves the gate's
# read-back unwrapped and harness.* counts only the CLI's own CSV I/O
from theta_shift.harness.csvio import read_csv
from theta_shift.specfun import mellin, oscillatory, whittaker

WORKLOADS = ("expsum-sweep", "spectral-map", "cli-session")

# tolerances stated by the library
MULT_TOL = 1e-8              # expsums docstring: 1e-8 * phi(c)
SALIE_RATIO_TOL = 1.0 + 1e-9  # suites.salie_bound_suite
NORM_TOL = 1e-6              # suites.whittaker_norm_suite
ORACLE_TOL = 1e-4            # suites.oscillatory_map_suite, dual_route_tol
MELLIN_TOL = 1e-6            # suites.mellin_suite
REMARK_TOL = 1e-6            # suites.remark_suite
THETA_TOL = 1e-8             # suites.theta_suite
ULP = 2.0 ** -52

MAX_C = 10_000
SALIE_PMAX = 5000
EXHAUSTIVE_MAX = 128


@dataclass(frozen=True)
class Item:
    kind: str
    params: tuple


@dataclass
class Outcome:
    latency: float                 # seconds inside the library call(s)
    ok: bool
    fingerprint: str
    checks: list = field(default_factory=list)   # (tolerance, gap) dual-route pairs
    error: str = ""


# -- input generation ----------------------------------------------------------

def _rng(workload: str, seed: int, pass_index: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(workload), seed, pass_index])


def _strata(rng, lo: float, hi: float, n: int) -> list:
    """One uniform draw in each of n equal slices of [lo, hi], shuffled."""
    edges = np.linspace(lo, hi, n + 1)
    vals = edges[:-1] + rng.random(n) * np.diff(edges)
    return [float(v) for v in rng.permutation(vals)]


def _odd_prime_powers(limit: int) -> list:
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    out = []
    for p in np.nonzero(sieve)[0][1:]:
        c = int(p)
        while c <= limit:
            out.append((c, int(p)))
            c *= int(p)
    return sorted(out)


# the four default characters of the multiplicativity sweep, by (D, N);
# D = 0 stands for the trivial character mod N
CHARACTERS = ((0, 4), (12, 12), (-7, 28), (-4, 4))

# A pass is a fixed fraction of the acceptance suites at their defaults,
# kind by kind, so that each item kind's share of a pass follows the
# suites' own traffic instead of a chosen mix.  expsum-sweep is a tenth of
# c1-c3: verify_mult_suite (200 tuples), weil_sweep_suite (84 exhaustive
# grids, 1000 naive tuples at c <= 4096 with the first two characters) and
# salie_bound_suite (1398 batches: every odd prime power <= 5000, trivial
# and quadratic character).  spectral-map is half of c4, c5, c7 and c8:
# whittaker_norm_suite (8 norms), whittaker_ratio_suite (36 grids),
# oscillatory_map_suite (600 g_kappa points, 4 oracle spots) and
# mellin_suite (6 points).
EXPSUM_FRACTION = 10
SPECTRAL_FRACTION = 2
WEIL_MAX_C = 4096


def _tuple(rng, lo: float, hi: float, char: tuple, max_c: int = MAX_C) -> tuple:
    step = math.lcm(4, char[1])
    kmin = max(1, math.ceil(lo / step))
    kmax = max(kmin, min(max_c, int(hi)) // step)
    c = step * int(rng.integers(kmin, kmax + 1))
    m = int(rng.integers(-2 * max_c, 2 * max_c + 1))
    n = int(rng.integers(-2 * max_c, 2 * max_c + 1))
    ell = int(2 * rng.integers(0, 4) + 1) * int(rng.choice([-1, 1]))
    return m, n, c, ell, char


def _pick(rng, entries: list, n: int) -> list:
    """One random entry from each of n consecutive slices of entries."""
    edges = np.linspace(0, len(entries), n + 1).astype(int)
    return [entries[int(rng.integers(a, b))] for a, b in zip(edges[:-1], edges[1:])]


def _suite_weil_grids() -> list:
    """The (c, ell, character) grids of weil_sweep_suite's exhaustive part."""
    out = []
    for char in CHARACTERS[:2]:
        step = math.lcm(4, char[1])
        out += [(c, ell, char) for c in range(step, EXHAUSTIVE_MAX + 1, step) for ell in (1, 3)]
    return sorted(out)


def _suite_salie_moduli() -> list:
    """The (c, p, character) batches of salie_bound_suite, by modulus."""
    return [(c, p, which) for c, p in _odd_prime_powers(SALIE_PMAX)
            for which in ("trivial", "quadratic")]


def expsum_items(rng, scale: float) -> list:
    count = lambda suite_size: max(2, round(suite_size * scale / EXPSUM_FRACTION))
    items = []
    # c1: naive against factored, c stratified over (0, 1e4], characters rotating
    n_c1 = count(200)
    cs = np.linspace(0, MAX_C, n_c1 + 1)
    for i in range(n_c1):
        items.append(Item("kloosterman", _tuple(rng, cs[i], cs[i + 1], CHARACTERS[i % 4])))
    # c2: naive sums against the Weil bound, then the exhaustive grids
    n_c2 = count(1000)
    cs = np.linspace(0, WEIL_MAX_C, n_c2 + 1)
    for i in range(n_c2):
        items.append(Item("weil_tuple", _tuple(rng, cs[i], cs[i + 1], CHARACTERS[i % 2],
                                               WEIL_MAX_C)))
    for c, ell, char in _pick(rng, _suite_weil_grids(), count(84)):
        items.append(Item("weil_grid", (c, ell, char)))
    # c3: the suite's 7 structured pairs plus 40 random ones per batch
    for c, p, which in _pick(rng, _suite_salie_moduli(), count(1398)):
        structured = [(0, 0), (0, 1), (1, 0), (1, 1), (p, 1), (p, p), (c, c)]
        extra = rng.integers(-2 * c, 2 * c + 1, size=(40, 2))
        pairs = tuple(structured + [(int(a), int(b)) for a, b in extra])
        items.append(Item("salie", (c, p, which, pairs)))
    return [items[i] for i in rng.permutation(len(items))]


def _log_cells(rng, lo: float, hi: float, n: int) -> list:
    """One log-uniform draw in each of n log-equal cells of [lo, hi], in order."""
    edges = np.log(np.geomspace(lo, hi, n + 1))
    return [float(np.exp(rng.uniform(a, b))) for a, b in zip(edges[:-1], edges[1:])]


MELLIN_POINTS = ((1, 1, 2, 5, 1.0), (1, 1, 2, 5, 2.0), (3, -1, 2, 5, 1.0),
                 (4, -2, 2, 5, 2.0), (2, 2, 4, 9, 1.0), (5, -2, 3, 9, 2.0))  # mellin_suite


def spectral_items(rng, scale: float) -> list:
    count = lambda suite_size: max(1, round(suite_size * scale / SPECTRAL_FRACTION))
    sign = lambda i: 1.0 if i % 2 == 0 else -1.0
    eta = lambda i: sign(i) * float(rng.uniform(1.2, 1.3))   # the suites' eta = +-1.25
    items = []
    # c4, t in {1, 2, 5, 10}.  The norm identity is tightest at t = 1 with
    # negative eta: about 1.5 digits of headroom, against 3 at t = 10, rising
    # by 0.35 digits from t = 1 to 1.05.  So one item always sits at t = 1,
    # and tol_headroom_digits sees the same worst case in every pass.
    items.append(Item("whittaker_norm", (eta(1), 1.0)))
    for i, t in enumerate(_log_cells(rng, 2.0, 10.0, count(8) - 1)):
        items.append(Item("whittaker_norm", (eta(i), t)))
    # c5, t log-spaced over [1, 40]; a third of its grids have 12 targets,
    # the doubled grids 24; one solve serves all targets of a grid
    for i, t in enumerate(_log_cells(rng, 1.0, 40.0, count(36))):
        n_y = 12 if i % 3 == 0 else 24
        items.append(Item("whittaker_ratio_grid", (eta(int(rng.integers(0, 2))), t, n_y)))
    # c7, one jittered point per cell of the suite's (kappa, omega, T) grid:
    # 480 points with omega in [1, 100] and 120 with omega in [1e-3, 1],
    # kappa = +-0.5, T in [1, 50]
    n_T = max(1, round(12 * math.sqrt(scale)))
    for (om_lo, om_hi), n_om in (((1.0, 100.0), 10), ((1e-3, 1.0), 6)):
        n_om = max(1, round(n_om * math.sqrt(scale)))
        T_cells = n_T if om_lo >= 1.0 else max(1, round(5 * math.sqrt(scale)))
        for k in range(2):
            for omega in _log_cells(rng, om_lo, om_hi, n_om):
                for T in _log_cells(rng, 1.0, 50.0, T_cells):
                    items.append(Item("g_kappa", (sign(k) * float(rng.uniform(0.4, 0.6)),
                                                  omega, T)))
    # c7 dual-route spots, one of each sign.  The negative kappa spot is the
    # slow tail (about 5 s); it stays near the suite's (-0.5, 2, 1.5),
    # because its cost moves with T (t-panels, and J in the mpmath band).
    items.append(Item("g_kappa_oracle", (float(rng.uniform(0.4, 1.6)),
                                         float(rng.uniform(0.7, 2.0)),
                                         float(rng.uniform(1.0, 2.0)))))
    if scale >= 1:
        items.append(Item("g_kappa_oracle", (-float(rng.uniform(0.4, 0.6)),
                                             float(rng.uniform(1.8, 2.2)),
                                             float(rng.uniform(1.3, 1.5)))))
    # c8, one of each consecutive pair of the suite's points, t jittered
    for n1, n2, m, k, t in _pick(rng, list(MELLIN_POINTS), count(6)):
        items.append(Item("mellin", (n1, n2, m, k, t * float(rng.uniform(0.9, 1.1)))))
    return [items[i] for i in rng.permutation(len(items))]


def _char_flags(char: tuple) -> list:
    D, N = char
    return ["--char-mod", str(N)] + ([] if D == 0 else ["--char-kronecker", str(D)])


def cli_items(rng, scale: float) -> list:
    """Requests from a small pool: some repeat an earlier parameter set."""
    reqs = []
    n_tuples = max(1, round(3 * scale))
    cs = np.linspace(0, MAX_C, n_tuples + 1)
    for i in range(n_tuples):
        m, n, c, ell, char = _tuple(rng, cs[i], cs[i + 1], CHARACTERS[int(rng.integers(0, 4))])
        base = ["expsum", "eval", "--m", str(m), "--n", str(n), "--c", str(c),
                "--ell", str(ell)] + _char_flags(char)
        reqs.append(("expsum-eval", ("c", c), base))
        reqs.append(("expsum-eval", ("c", c), base + ["--factored"]))
    n_sets = max(1, round(3 * scale))
    for i, t in enumerate(sorted(_strata(rng, 1.0, 16.0, n_sets))):
        eta = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5))
        n_y = max(1, min(3, n_sets - i))   # each y is its own solve: fewer at large t
        ys = sorted(float(y) for y in rng.uniform(0.5, 1.5 * t, size=n_y))
        argv = ["specfun", "whittaker", "--eta", repr(eta), "--t", repr(t)]
        for y in ys:
            argv += ["--y", repr(y)]
        reqs += [("specfun-whittaker", ("whittaker", eta, t), argv)] * 2
    bessel = []
    for _ in range(2):
        t = float(rng.uniform(0.1, 3.0))
        argv = ["specfun", "bessel", "--t", repr(t)]
        for q in rng.uniform(0.1, 60.0, size=3):
            argv += ["--q", repr(float(q))]
        bessel.append(("specfun-bessel", ("bessel", t), argv))
    reqs += bessel + bessel[:1]
    h1, h2 = (int(h) for h in rng.choice([1, 2, 3, 5, 7], size=2, replace=False))
    for h, xmax in ((h1, 4096), (h1, 4096), (h2, 2048)):
        reqs.append(("shifted-sum", ("M", xmax * xmax + h),
                     ["shifted-sum", "--form", "eta7", "--h", str(h), "--xmin", "32",
                      "--xmax", str(xmax)]))
    for ymax in (4000, int(rng.integers(1000, 2001))):
        reqs.append(("sym2", ("M", ymax * ymax), ["sym2", "--form", "eta7", "--ymax", str(ymax)]))
    for _ in range(2):
        seed = int(rng.integers(0, 2**31))
        reqs.append(("theta-check", ("theta", seed),
                     ["theta-check", "--trials", "50", "--seed", str(seed)]))
    for _ in range(2):
        k = (5, 9, 13)[int(rng.integers(0, 3))]
        reqs.append(("remark-check", ("k", k), ["remark-check", "--k", str(k)]))
    order = rng.permutation(len(reqs))
    return [Item(reqs[i][0], (reqs[i][0], reqs[i][1], tuple(reqs[i][2]))) for i in order]


MAKERS = {"expsum-sweep": expsum_items, "spectral-map": spectral_items, "cli-session": cli_items}


def make_items(workload: str, seed: int, pass_index: int, scale: float = 1.0) -> list:
    return MAKERS[workload](_rng(workload, seed, pass_index), scale)


def repeat_share(items: list) -> float:
    """Share of cli-session requests whose parameter set appeared earlier."""
    seen = set()
    repeats = 0
    for item in items:
        key = item.params[1]
        repeats += key in seen
        seen.add(key)
    return repeats / len(items)


# -- execution -----------------------------------------------------------------

def _phi(c: int) -> int:
    out, n, d = c, c, 2
    while d * d <= n:
        if n % d == 0:
            out -= out // d
            while n % d == 0:
                n //= d
        d += 1
    return out - out // n if n > 1 else out


def _digest(*values) -> str:
    h = hashlib.sha256()
    for v in values:
        if isinstance(v, np.ndarray):
            h.update(np.ascontiguousarray(v).tobytes())
        elif isinstance(v, (bytes, str)):
            h.update(v.encode() if isinstance(v, str) else v)
        else:
            z = complex(v)
            h.update(struct.pack("<dd", z.real, z.imag))
    return h.hexdigest()[:16]


def _rel_gap(a: float, b: float) -> float:
    """|a - b| / |b|, floored at one ulp: a smaller gap cannot be resolved."""
    return max(abs(a - b) / abs(b), ULP)


def _abs_gap(a: complex, b: complex) -> float | None:
    """|a - b| floored at one ulp of the larger; None when both are zero."""
    scale = max(abs(a), abs(b))
    if scale == 0:
        return None
    return max(abs(a - b), ULP * scale)


class Context:
    """Per-pass state built in set-up: character tables, the Salie bounds
    the gate compares with (computed here, so that the traced run sees only
    the items' own library calls) and a scratch dir."""

    def __init__(self, workload: str, items: list, out_dir: str):
        self.workload = workload
        self.out_dir = out_dir
        self.chars = {}
        self.salie_bounds = {}
        for item in items:
            if item.kind in ("kloosterman", "weil_tuple", "weil_grid"):
                self._char(item.params[-1])
            elif item.kind == "salie":
                c, p, which, pairs = item.params
                chi = self._salie_char(p, which)
                self.salie_bounds[item.params] = np.array(
                    [expsums.salie_bound(m, n, c, chi) for m, n in pairs])
        self.pending = {}   # cli-session: first half of each naive/factored pair

    def _char(self, char: tuple):
        if char not in self.chars:
            D, N = char
            self.chars[char] = (arith.trivial_character(N) if D == 0
                                else arith.char_from_kronecker(D, N))
        return self.chars[char]

    def _salie_char(self, p: int, which: str):
        key = (p, which)
        if key not in self.chars:
            self.chars[key] = (arith.trivial_character(1) if which == "trivial"
                               else arith.char_from_kronecker(p if p % 4 == 1 else -p, p))
        return self.chars[key]


def run_item(ctx: Context, item: Item) -> Outcome:
    try:
        return RUNNERS[item.kind](ctx, *item.params)
    except Exception as exc:  # one failing item must not end the pass
        return Outcome(0.0, False, "", error=f"{type(exc).__name__}: {exc}")


def _kloosterman(ctx, m, n, c, ell, char):
    chi = ctx.chars[char]
    t0 = time.perf_counter()
    naive = expsums.kloosterman_naive(m, n, c, ell, chi)
    fact = expsums.kloosterman_factored(m, n, c, ell, chi)
    latency = time.perf_counter() - t0
    tol = MULT_TOL * _phi(c)
    dev = abs(naive.value - fact.value)
    gap = _abs_gap(naive.value, fact.value)
    ok = dev <= tol and abs(naive.value) <= naive.bound
    return Outcome(latency, ok, _digest(naive.value, fact.value, naive.bound),
                   [] if gap is None else [(tol, gap)])


def _weil_tuple(ctx, m, n, c, ell, char):
    chi = ctx.chars[char]
    t0 = time.perf_counter()
    res = expsums.kloosterman_naive(m, n, c, ell, chi)
    latency = time.perf_counter() - t0
    return Outcome(latency, abs(res.value) <= res.bound, _digest(res.value, res.bound))


def _weil_grid(ctx, c, ell, char):
    chi = ctx.chars[char]
    t0 = time.perf_counter()
    ratio = expsums.weil_ratio_grid(c, ell, chi)
    latency = time.perf_counter() - t0
    return Outcome(latency, ratio <= 1.0, _digest(ratio))


def _salie(ctx, c, p, which, pairs):
    chi = ctx.chars[(p, which)]
    arr = np.array(pairs, dtype=np.int64)
    t0 = time.perf_counter()
    vals = expsums.salie_values(c, chi, arr)
    latency = time.perf_counter() - t0
    worst = float(np.max(np.abs(vals) / ctx.salie_bounds[(c, p, which, pairs)]))
    return Outcome(latency, worst <= SALIE_RATIO_TOL, _digest(vals))


def _whittaker_norm(ctx, eta, t):
    t0 = time.perf_counter()
    q = whittaker.whittaker_l2_norm(eta, t)
    cf = whittaker.whittaker_norm_closed_form(eta, t)
    latency = time.perf_counter() - t0
    rel = abs(q - cf) / abs(cf)
    return Outcome(latency, rel <= NORM_TOL, _digest(q, cf), [(NORM_TOL, _rel_gap(q, cf))])


def _whittaker_ratio_grid(ctx, eta, t, n_y):
    fracs = np.linspace(0.02, 1.5, n_y)   # as in suites.whittaker_ratio_suite
    t0 = time.perf_counter()
    r = whittaker.whittaker_uniform_ratio_grid(eta, t, fracs * t)
    latency = time.perf_counter() - t0
    # the envelope ratio is bounded (the suite asserts a finite sup)
    return Outcome(latency, bool(np.all(np.isfinite(r))), _digest(r))


def _g_kappa(ctx, kappa, omega, T):
    t0 = time.perf_counter()
    g = oscillatory.g_kappa(kappa, omega, T)
    latency = time.perf_counter() - t0
    return Outcome(latency, math.isfinite(g), _digest(g))


def _g_kappa_oracle(ctx, kappa, omega, T):
    t0 = time.perf_counter()
    a = oscillatory.g_kappa(kappa, omega, T)
    b = oscillatory.g_kappa_t(kappa, omega, T)
    latency = time.perf_counter() - t0
    rel = abs(a - b) / max(abs(b), 1e-12)
    return Outcome(latency, rel <= ORACLE_TOL, _digest(a, b),
                   [(ORACLE_TOL, max(rel, ULP))])


def _mellin(ctx, n1, n2, m, k, t):
    kappa = k - 0.5
    t0 = time.perf_counter()
    g1 = mellin.mellin_barnes_G(n1, n2, m, k, t, 0.3 * kappa / 2).real
    g2 = mellin.mellin_barnes_G(n1, n2, m, k, t, 0.7 * kappa / 2).real
    d = mellin.direct_G(n1, n2, m, k, t)
    latency = time.perf_counter() - t0
    rel = abs(g1 - d) / abs(d)
    shift = abs(g1 - g2) / abs(g1)
    return Outcome(latency, rel <= MELLIN_TOL and shift <= MELLIN_TOL, _digest(g1, g2, d),
                   [(MELLIN_TOL, _rel_gap(g1, d)), (MELLIN_TOL, _rel_gap(g2, g1))])


def _cli(ctx, command, key, argv):
    out = ctx.out_dir
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        status = cli.main(list(argv) + ["--out", out])
    latency = time.perf_counter() - t0
    text = buf.getvalue()
    path = os.path.join(out, f"{command}.csv")
    checks = []
    ok = status == 0
    if command == "sym2":   # prints its estimate, writes no CSV
        fp = _digest(text)
        ok = ok and "residue estimate" in text
    else:
        with open(path, "rb") as fh:
            fp = _digest(fh.read())
        meta, header, rows = read_csv(path)
        ok = ok and meta.get("command") == command and len(rows) > 0
        col = lambda name: [float(r[header.index(name)]) for r in rows]
        if command == "expsum-eval":
            value = complex(col("re")[0], col("im")[0])
            ok = ok and col("ratio")[0] <= 1.0
            c = int(rows[0][header.index("c")])
            other = ctx.pending.pop(key, None)
            if other is None:
                ctx.pending[key] = value
            else:
                tol = MULT_TOL * _phi(c)
                ok = ok and abs(value - other) <= tol
                gap = _abs_gap(value, other)
                if gap is not None:
                    checks.append((tol, gap))
        elif command == "remark-check":
            rel = max(col("rel_err"))
            checks.append((REMARK_TOL, max(rel, ULP)))
            ok = ok and rel <= REMARK_TOL
        elif command == "theta-check":
            res = max(col("residual"))
            checks.append((THETA_TOL, max(res, ULP)))
            ok = ok and res <= THETA_TOL
        os.remove(path)
    return Outcome(latency, ok, fp, checks)


RUNNERS = {
    "kloosterman": _kloosterman,
    "weil_tuple": _weil_tuple,
    "weil_grid": _weil_grid,
    "salie": _salie,
    "whittaker_norm": _whittaker_norm,
    "whittaker_ratio_grid": _whittaker_ratio_grid,
    "g_kappa": _g_kappa,
    "g_kappa_oracle": _g_kappa_oracle,
    "mellin": _mellin,
}
RUNNERS.update({cmd: _cli for cmd in ("expsum-eval", "specfun-whittaker", "specfun-bessel",
                                      "shifted-sum", "sym2", "theta-check", "remark-check")})


def reset_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path, exist_ok=True)
