"""Span tracing of theta_shift from outside the library.

The tracer wraps the public functions at each layer boundary.  The
library binds names with ``from ... import``, so installing a wrapper
rebinds every module-level name in ``theta_shift.*`` that refers to the
original function (and the attribute on its defining module), not only
the definition.  ``uninstall`` restores each binding it changed.

Each call records a span (id, name, start, end, parent id, item index)
in memory; self time is the span minus the time of its child spans.
Functions called hundreds of thousands of times per pass (``HOT``) are
aggregated into counters instead of stored spans, and their self times
carry the wrapper's own cost, so they are reported as overhead-inflated.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

MARK = "__perfbench_wrapper__"


@dataclass(frozen=True)
class Target:
    layer: str
    module: str
    attr: str  # "name" or "Class.method"
    name: str
    hot: bool = False


def _t(layer, module, names, prefix, hot=False):
    return [Target(layer, module, n, f"{prefix}.{n.split('.')[-1]}", hot) for n in names]


TARGETS = (
    _t("arith", "theta_shift.arith", ["kronecker", "inverse_mod"], "arith", hot=True)
    + [Target("arith", "theta_shift.arith", "DirichletCharacter.__call__", "arith.char_eval", True)]
    + _t("arith", "theta_shift.arith",
         ["char_from_kronecker", "char_from_table", "trivial_character", "char_factor",
          "divisor_count", "factorize", "epsilon_d"], "arith")
    + _t("expsums", "theta_shift.expsums",
         ["kloosterman_naive", "kloosterman_factored", "salie_naive", "salie_values",
          "kloosterman_grid", "weil_ratio_grid", "weil_bound", "salie_bound", "verify_weil"],
         "expsums")
    + _t("besselj", "theta_shift.specfun.besselj", ["bessel_J_imag_order"], "besselj", hot=True)
    + _t("incgamma", "theta_shift.specfun.incgamma",
         ["upper_gamma_imag_axis", "im_upper_gamma_imag_axis"], "incgamma")
    + _t("gammafun", "theta_shift.specfun.gammafun", ["log_gamma"], "gammafun", hot=True)
    + _t("gammafun", "theta_shift.specfun.gammafun", ["digamma", "gamma", "log_gamma_vec"],
         "gammafun")
    + _t("whittaker", "theta_shift.specfun.whittaker",
         ["whittaker_solution", "whittaker_W", "whittaker_W_grid", "whittaker_uniform_ratio",
          "whittaker_uniform_ratio_grid", "whittaker_lower_bound_check", "whittaker_l2_norm",
          "whittaker_norm_closed_form"], "whittaker")
    + _t("whittaker", "theta_shift.specfun.whittaker", ["solve_ivp"], "whittaker")
    + _t("oscillatory", "theta_shift.specfun.oscillatory",
         ["g_kappa", "g_kappa_t", "I_kappa", "I_kappa_contour_check"], "oscillatory")
    + _t("mellin", "theta_shift.specfun.mellin", ["mellin_barnes_G", "direct_G"], "mellin")
    + _t("quadrature", "theta_shift.quadrature", ["alternating_tail", "gl_panels"], "quadrature")
    + _t("modforms", "theta_shift.modforms.eta", ["eta_cubed_pair_coeffs", "eta7_cusp_form"],
         "modforms")
    + _t("modforms", "theta_shift.modforms.sums", ["shifted_sum", "shifted_sum_scan"], "modforms")
    + _t("modforms", "theta_shift.modforms.residual",
         ["sym2_residue_estimate", "remark_inner_product", "remark_closed_form"], "modforms")
    + _t("modforms", "theta_shift.modforms.theta", ["theta_transform_residual"], "modforms")
    + _t("modforms", "theta_shift.modforms.forms", ["load_form", "save_form"], "modforms")
    + _t("harness", "theta_shift.harness.cli", ["main"], "harness")
    + _t("harness", "theta_shift.harness.suites",
         ["theta_suite", "remark_suite", "shifted_sum_experiment"], "harness")
    + _t("harness", "theta_shift.harness.csvio", ["write_csv", "read_csv"], "harness")
    + _t("mpmath", "mpmath", ["besselj", "besselk", "gammainc", "quad"], "mpmath")
)

# the integrand callbacks handed to the quadrature rules, so that
# quadrature self time excludes the evaluation of the function itself
INTEGRAND = Target("integrand", "", "", "quadrature.integrand")

HOT_NAMES = tuple(t.name for t in TARGETS if t.hot)
LAYER_OF = {t.name: t.layer for t in TARGETS + [INTEGRAND]}


def _resolve(target: Target):
    """(owner, attribute, original) for a target."""
    mod = importlib.import_module(target.module)
    if "." in target.attr:
        cls_name, meth = target.attr.split(".")
        cls = getattr(mod, cls_name)
        return cls, meth, cls.__dict__[meth]
    return mod, target.attr, getattr(mod, target.attr)


class Tracer:
    """Wraps the TARGETS, records spans and per-layer counters."""

    def __init__(self):
        self.stack = []      # frames: [target, child_time, span_id, hook data]
        self.spans = []      # (id, name, start, end, parent_id, item)
        self.item = -1
        self.fn = defaultdict(lambda: [0, 0.0, 0.0])   # name -> calls, incl, self
        self.layer_outer = defaultdict(lambda: [0, 0.0])  # outermost calls, incl
        self.counters = defaultdict(float)
        self.solves = []     # (|mu|, steps) per Whittaker ODE solve
        self._patched = []   # (owner, attribute, original)
        self._next_id = 0
        self._last_mu = None
        self._tail_signature = None

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        for target in TARGETS:
            owner, attr, orig = _resolve(target)
            wrapper = self.wrap(orig, target)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                self._patched.append((owner, attr, orig))
                continue
            for mname, mod in list(sys.modules.items()):
                if mod is None or not (mname == target.module or mname.startswith("theta_shift")):
                    continue
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, orig))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    # -- recording ----------------------------------------------------------
    def wrap(self, fn, target: Target):
        wrapper = self._wrap_hot(fn, target) if target.hot else self._wrap_span(fn, target)
        setattr(wrapper, MARK, True)
        return wrapper

    def _wrap_hot(self, fn, target: Target):
        """Counts and times only: no span record, no hooks."""
        stack = self.stack
        perf = time.perf_counter
        st = self.fn[target.name]
        outer = self.layer_outer[target.layer]
        layer = target.layer
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [target, 0.0, stack[-1][2] if stack else None, None]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                stack.pop()
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[1]
                parent_layer = stack[-1][0].layer if stack else None
                if stack:
                    stack[-1][1] += dur
                if parent_layer != layer:
                    outer[0] += 1
                    outer[1] += dur
                    if parent_layer == "expsums":
                        counters["expsums.table_s"] += dur

        return wrapper

    def _wrap_span(self, fn, target: Target):
        stack = self.stack
        close = self._close
        perf = time.perf_counter
        pre = {"quadrature.alternating_tail": self._pre_tail,
               "quadrature.gl_panels": self._pre_integrand,
               "whittaker.whittaker_solution": self._pre_solution}.get(target.name)
        if target.name == "quadrature.alternating_tail":
            self._tail_signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            extra = None
            if pre is not None:
                args, kwargs, extra = pre(args, kwargs)
            frame = [target, 0.0, self._next_id, extra]
            self._next_id += 1
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                close(frame, t0, perf(), args, None)
                raise
            close(frame, t0, perf(), args, result)
            return result

        return wrapper

    def _pre_integrand(self, args, kwargs):
        if "f" in kwargs:
            kwargs = dict(kwargs, f=self.wrap(kwargs["f"], INTEGRAND))
        else:
            args = (self.wrap(args[0], INTEGRAND),) + tuple(args[1:])
        return args, kwargs, None

    def _pre_tail(self, args, kwargs):
        """Keep the requested tolerance, to flag tails that return unconverged."""
        bound = self._tail_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        args, kwargs, _ = self._pre_integrand(args, kwargs)
        return args, kwargs, bound.arguments["tol"]

    def _pre_solution(self, args, kwargs):
        self._last_mu = args[1] if len(args) > 1 else kwargs["mu"]
        return args, kwargs, None

    def _close(self, frame, t0, t1, args, result) -> None:
        stack = self.stack
        stack.pop()
        target, child, span_id, extra = frame
        dur = t1 - t0
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[1] += dur
        st = self.fn[target.name]
        st[0] += 1
        st[1] += dur
        st[2] += dur - child
        outermost = parent is None or parent[0].layer != target.layer
        if outermost:
            lo = self.layer_outer[target.layer]
            lo[0] += 1
            lo[1] += dur
        self.spans.append((span_id, target.name, t0, t1,
                           parent[2] if parent is not None else None, self.item))
        self._count(target, dur, parent, outermost, args, extra, result)

    def _under(self, name: str) -> bool:
        return any(f[0].name == name for f in self.stack)

    def _count(self, target, dur, parent, outermost, args, extra, result) -> None:
        """Counters that need arguments, results or ancestry."""
        c = self.counters
        name = target.name
        if target.layer == "arith" and parent is not None and parent[0].layer == "expsums":
            c["expsums.table_s"] += dur
        if result is None:
            return
        if name == "quadrature.integrand":
            if parent[0].name == "quadrature.alternating_tail":
                c["quadrature.tail.points"] += len(args[0])
        elif name == "quadrature.alternating_tail":
            if not result[1] < extra:
                c["quadrature.tail.unconverged"] += 1
        elif target.layer == "expsums" and outermost:
            if name in ("expsums.kloosterman_naive", "expsums.salie_naive"):
                c["expsums.sums"] += 1
                c["expsums.naive_s"] += dur
            elif name == "expsums.kloosterman_factored":
                c["expsums.sums"] += 1
                c["expsums.factored_s"] += dur
            elif name in ("expsums.kloosterman_grid", "expsums.weil_ratio_grid"):
                c["expsums.sums"] += int(args[0]) ** 2
            elif name == "expsums.salie_values":
                c["expsums.sums"] += len(args[2])
        elif target.layer == "incgamma" and outermost:
            c["incgamma.points"] += np.size(args[1])
            if self._under("oscillatory.g_kappa"):
                c["incgamma_under_g_kappa_s"] += dur
        elif name == "whittaker.solve_ivp":
            steps = len(result.t) - 1
            c["whittaker.ode_steps"] += steps
            c["whittaker.rhs_calls"] += result.nfev
            self.solves.append((abs(complex(self._last_mu)), steps))
        elif name == "modforms.eta_cubed_pair_coeffs":
            c["modforms.coeff_bytes_computed"] += result.nbytes
        elif name == "modforms.eta7_cusp_form":
            c["modforms.coeff_bytes_computed"] += result.coeffs.nbytes
        elif name == "harness.write_csv":
            c["harness.csv.bytes"] += os.path.getsize(result)
        elif name == "mpmath.besselj" and self._under("oscillatory.g_kappa_t"):
            c["mpmath_besselj_under_g_kappa_t_s"] += dur

    # -- output -------------------------------------------------------------
    def snapshot(self) -> dict:
        """Plain-data totals of one traced pass."""
        layer_self = defaultdict(float)
        for name, (_, _, self_s) in self.fn.items():
            layer_self[LAYER_OF.get(name, name)] += self_s
        return {
            "fn": {k: list(v) for k, v in self.fn.items()},
            "layer_self": layer_self,
            "layer_outer": {k: list(v) for k, v in self.layer_outer.items()},
            "counters": dict(self.counters),
            "solves": self.solves,
        }

    def write_spans(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start", "end", "parent", "item"],
                                 "aggregated_hot": list(HOT_NAMES)}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def installed_wrappers() -> list:
    """Names of every traced binding still wrapped (empty after uninstall)."""
    found = []
    for target in TARGETS:
        owner, attr, val = _resolve(target)
        if getattr(val, MARK, False):
            found.append(f"{target.module}.{attr}")
    for mname, mod in list(sys.modules.items()):
        if mod is None or not mname.startswith("theta_shift"):
            continue
        for key, val in vars(mod).items():
            if getattr(val, MARK, False):
                found.append(f"{mname}.{key}")
    return sorted(set(found))


def wrapper_cost_ns(calls: int = 20000) -> tuple:
    """(total, inner) nanoseconds one hot wrapper adds per call on this host.

    ``inner`` falls inside the wrapped call's own span; the rest lands in
    the caller's self time.
    """
    def noop(x):
        return x

    probe = Tracer()
    target = Target("probe", "", "", "probe", hot=True)
    wrapped = probe.wrap(noop, target)
    perf = time.perf_counter
    total = math.inf
    inner = math.inf
    for _ in range(3):
        before = probe.fn["probe"][1]
        t0 = perf()
        for i in range(calls):
            noop(i)
        t1 = perf()
        for i in range(calls):
            wrapped(i)
        t2 = perf()
        raw = (t1 - t0) / calls
        total = min(total, ((t2 - t1) / calls - raw) * 1e9)
        inner = min(inner, ((probe.fn["probe"][1] - before) / calls - raw) * 1e9)
    return total, max(inner, 0.0)


# -- per-layer metrics ----------------------------------------------------------

# name -> (unit, better); per traced pass.  BENCHMARK.json lists the same names.
PER_LAYER = {
    "arith.kronecker.calls": ("count", "lower"),
    "arith.kronecker.self_s": ("s", "lower"),
    "arith.inverse_mod.calls": ("count", "lower"),
    "arith.inverse_mod.self_s": ("s", "lower"),
    "arith.char_eval.calls": ("count", "lower"),
    "arith.self_s": ("s", "lower"),
    "expsums.sums": ("count", "higher"),
    "expsums.table_s": ("s", "lower"),
    "expsums.self_s": ("s", "lower"),
    "expsums.naive_s": ("s", "lower"),
    "expsums.factored_s": ("s", "lower"),
    "besselj.calls": ("count", "lower"),
    "besselj.self_s": ("s", "lower"),
    "besselj.mpmath_calls": ("count", "lower"),
    "besselj.mpmath_share": ("ratio", "lower"),
    "incgamma.calls": ("count", "lower"),
    "incgamma.points": ("count", "lower"),
    "incgamma.self_s": ("s", "lower"),
    "incgamma.us_per_point": ("us", "lower"),
    "gammafun.calls": ("count", "lower"),
    "gammafun.self_s": ("s", "lower"),
    "whittaker.requests": ("count", "lower"),
    "whittaker.solves": ("count", "lower"),
    "whittaker.cache_hit_ratio": ("ratio", "higher"),
    "whittaker.ode_steps": ("count", "lower"),
    "whittaker.rhs_calls": ("count", "lower"),
    "whittaker.steps_per_solve": ("count", "lower"),
    "whittaker.solve_s": ("s", "lower"),
    "oscillatory.g_kappa.calls": ("count", "lower"),
    "oscillatory.g_kappa.s": ("s", "lower"),
    "oscillatory.g_kappa_t.calls": ("count", "lower"),
    "oscillatory.g_kappa_t.s": ("s", "lower"),
    "oscillatory.self_s": ("s", "lower"),
    "mellin.contour.calls": ("count", "lower"),
    "mellin.contour.s": ("s", "lower"),
    "mellin.direct.calls": ("count", "lower"),
    "mellin.direct.s": ("s", "lower"),
    "quadrature.tail.calls": ("count", "lower"),
    "quadrature.tail.points": ("count", "lower"),
    "quadrature.self_s": ("s", "lower"),
    "quadrature.tail.unconverged": ("count", "lower"),
    "modforms.coeff_build.calls": ("count", "lower"),
    "modforms.coeff_build_s": ("s", "lower"),
    "modforms.coeff_bytes_computed": ("B", "lower"),
    "modforms.shifted_sum_s": ("s", "lower"),
    "modforms.sym2_s": ("s", "lower"),
    "modforms.theta_s": ("s", "lower"),
    "harness.requests": ("count", "lower"),
    "harness.self_s": ("s", "lower"),
    "harness.csv.bytes": ("B", "lower"),
    "harness.csv_s": ("s", "lower"),
    "mpmath.calls": ("count", "lower"),
    "mpmath.s": ("s", "lower"),
    "trace_overhead": ("ratio", "lower"),
}

# self times that carry the hot wrappers' cost: the part inside each hot
# call's span, or the part its caller's span absorbs
OVERHEAD_INFLATED = ("arith.kronecker.self_s", "arith.inverse_mod.self_s", "arith.self_s",
                     "expsums.self_s", "besselj.self_s", "gammafun.self_s",
                     "oscillatory.self_s")


class Totals:
    """Sums of several traced passes' snapshots, read per pass."""

    def __init__(self, snaps: list):
        self.n = len(snaps)
        self.fn = defaultdict(lambda: [0, 0.0, 0.0])
        self.layer_self = defaultdict(float)
        self.layer_outer = defaultdict(lambda: [0, 0.0])
        self.counters = defaultdict(float)
        self.solves = []
        for s in snaps:
            for k, v in s["fn"].items():
                self.fn[k] = [a + b for a, b in zip(self.fn[k], v)]
            for k, v in s["layer_self"].items():
                self.layer_self[k] += v
            for k, v in s["layer_outer"].items():
                self.layer_outer[k] = [a + b for a, b in zip(self.layer_outer[k], v)]
            for k, v in s["counters"].items():
                self.counters[k] += v
            self.solves.extend(s["solves"])

    def calls(self, *names):
        return sum(self.fn[n][0] for n in names) / self.n

    def incl(self, *names):
        return sum(self.fn[n][1] for n in names) / self.n

    def self_s(self, name):
        return self.fn[name][2] / self.n

    def layer(self, layer):
        return self.layer_self[layer] / self.n

    def outer(self, layer):
        calls, secs = self.layer_outer[layer]
        return calls / self.n, secs / self.n

    def count(self, key):
        return self.counters[key] / self.n


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(snaps: list) -> dict:
    """Every PER_LAYER metric except trace_overhead, per traced pass."""
    t = Totals(snaps)
    gammafun = [n.name for n in TARGETS if n.layer == "gammafun"]
    mp_names = [n.name for n in TARGETS if n.layer == "mpmath"]
    requests = t.calls("whittaker.whittaker_solution")
    solves = t.calls("whittaker.solve_ivp")
    inc_calls, inc_s = t.outer("incgamma")
    points = t.count("incgamma.points")
    return {
        "arith.kronecker.calls": t.calls("arith.kronecker"),
        "arith.kronecker.self_s": t.self_s("arith.kronecker"),
        "arith.inverse_mod.calls": t.calls("arith.inverse_mod"),
        "arith.inverse_mod.self_s": t.self_s("arith.inverse_mod"),
        "arith.char_eval.calls": t.calls("arith.char_eval"),
        "arith.self_s": t.layer("arith"),
        "expsums.sums": t.count("expsums.sums"),
        "expsums.table_s": t.count("expsums.table_s"),
        "expsums.self_s": t.layer("expsums"),
        "expsums.naive_s": t.count("expsums.naive_s"),
        "expsums.factored_s": t.count("expsums.factored_s"),
        "besselj.calls": t.calls("besselj.bessel_J_imag_order"),
        "besselj.self_s": t.layer("besselj"),
        "besselj.mpmath_calls": t.calls("mpmath.besselj"),
        "besselj.mpmath_share": _ratio(t.incl("mpmath.besselj"),
                                       t.incl("besselj.bessel_J_imag_order")),
        "incgamma.calls": inc_calls,
        "incgamma.points": points,
        "incgamma.self_s": t.layer("incgamma"),
        "incgamma.us_per_point": _ratio(inc_s * 1e6, points),
        "gammafun.calls": t.calls(*gammafun),
        "gammafun.self_s": t.layer("gammafun"),
        "whittaker.requests": requests,
        "whittaker.solves": solves,
        "whittaker.cache_hit_ratio": 1.0 - solves / requests if requests else 0.0,
        "whittaker.ode_steps": t.count("whittaker.ode_steps"),
        "whittaker.rhs_calls": t.count("whittaker.rhs_calls"),
        "whittaker.steps_per_solve": _ratio(t.count("whittaker.ode_steps"), solves),
        "whittaker.solve_s": t.incl("whittaker.solve_ivp"),
        "oscillatory.g_kappa.calls": t.calls("oscillatory.g_kappa"),
        "oscillatory.g_kappa.s": t.incl("oscillatory.g_kappa"),
        "oscillatory.g_kappa_t.calls": t.calls("oscillatory.g_kappa_t"),
        "oscillatory.g_kappa_t.s": t.incl("oscillatory.g_kappa_t"),
        "oscillatory.self_s": t.layer("oscillatory"),
        "mellin.contour.calls": t.calls("mellin.mellin_barnes_G"),
        "mellin.contour.s": t.incl("mellin.mellin_barnes_G"),
        "mellin.direct.calls": t.calls("mellin.direct_G"),
        "mellin.direct.s": t.incl("mellin.direct_G"),
        "quadrature.tail.calls": t.calls("quadrature.alternating_tail"),
        "quadrature.tail.points": t.count("quadrature.tail.points"),
        "quadrature.self_s": t.layer("quadrature"),
        "quadrature.tail.unconverged": t.count("quadrature.tail.unconverged"),
        "modforms.coeff_build.calls": t.calls("modforms.eta7_cusp_form"),
        "modforms.coeff_build_s": t.incl("modforms.eta7_cusp_form"),
        "modforms.coeff_bytes_computed": t.count("modforms.coeff_bytes_computed"),
        "modforms.shifted_sum_s": t.incl("modforms.shifted_sum", "modforms.shifted_sum_scan"),
        "modforms.sym2_s": t.incl("modforms.sym2_residue_estimate"),
        "modforms.theta_s": t.incl("modforms.theta_transform_residual"),
        "harness.requests": t.calls("harness.main"),
        "harness.self_s": t.layer("harness"),
        "harness.csv.bytes": t.count("harness.csv.bytes"),
        "harness.csv_s": t.incl("harness.write_csv", "harness.read_csv"),
        "mpmath.calls": t.calls(*mp_names),
        "mpmath.s": t.outer("mpmath")[1],
    }


def reconcile(snaps: list, traced_wall: float, total_ns: float, inner_ns: float) -> list:
    """Traced shares next to the attributions the ROADMAP baseline makes."""
    t = Totals(snaps)
    lines = []
    if t.outer("arith")[0]:
        arith_s = t.outer("arith")[1]
        arith_hot = t.calls("arith.kronecker", "arith.inverse_mod", "arith.char_eval")
        net = ((arith_s - arith_hot * inner_ns * 1e-9)
               / (traced_wall - t.calls(*HOT_NAMES) * total_ns * 1e-9))
        lines.append(f"arith share of item time: {arith_s / traced_wall:.3f} traced, "
                     f"{net:.3f} net of wrapper cost (ROADMAP: >= ~0.90 on expsum-sweep)")
    osc = t.incl("oscillatory.g_kappa", "oscillatory.g_kappa_t")
    if osc:
        lines.append(
            f"g_kappa_t oracle share of oscillatory time: {t.incl('oscillatory.g_kappa_t') / osc:.3f}; "
            f"mpmath besselj under the oracle: "
            f"{t.count('mpmath_besselj_under_g_kappa_t_s') / osc:.3f} (ROADMAP: together ~half)")
    if t.incl("oscillatory.g_kappa"):
        lines.append(f"incgamma share of g_kappa: "
                     f"{t.count('incgamma_under_g_kappa_s') / t.incl('oscillatory.g_kappa'):.3f} "
                     f"(ROADMAP: the CF carries most of it)")
    if t.solves:
        mu, steps = max(t.solves)
        lines.append(f"ODE steps of the largest-t Whittaker solve (t = {mu:.1f}): {steps} "
                     f"(ROADMAP: ~10k per t = 40 solve)")
    return lines
