"""Command-line front end: seeded verification suites, special-function
grids, and the shifted-sum experiment pipeline.

Two-word module verbs (`expsum eval`, `specfun whittaker`, ...) fold
into single subcommands, so both spellings work.  Each command is one
row of `COMMANDS`, naming a handler or a suite; either returns (header,
rows, lines, ok), and a command with a header writes a schema-versioned
CSV.  Every run prints a human-readable summary, whose `artifact:` line
carries the command's wall time; the exit status is 1 iff a hard
assertion fails and 2 on bad input or a failed solve.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import math
import os
import sys
import time

import numpy as np

from ..arith import char_from_kronecker, trivial_character
from ..expsums import kloosterman_factored, kloosterman_naive, salie_naive
from ..modforms.eta import eta7_cusp_form, eta7_cusp_form_on_demand
from ..modforms.forms import load_form, save_form
from ..modforms.residual import sym2_residue_estimate
from ..modforms.sums import fit_exponent
from ..specfun.besselj import bessel_J_imag_order
from ..specfun.whittaker import whittaker_W_grid
from . import suites
from .csvio import read_csv, write_csv

_TWO_WORD = {"expsum", "specfun"}


def _normalize_argv(argv):
    if len(argv) >= 2 and argv[0] in _TWO_WORD and not argv[1].startswith("-"):
        return [f"{argv[0]}-{argv[1]}"] + list(argv[2:])
    return list(argv)


def _seed(text: str) -> int:
    seed = int(text)
    if not 0 <= seed < 2**64:
        raise argparse.ArgumentTypeError(f"seed must fit in 64 bits, got {seed}")
    return seed


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError("must be finite")
    return value


def _character(args):
    if args.char_kronecker is not None:
        return char_from_kronecker(args.char_kronecker, args.char_mod)
    return trivial_character(args.char_mod)


def _load(name: str):
    if name == "eta7":
        return eta7_cusp_form_on_demand()
    f = load_form(name)
    for note in f.notes:
        print(f"note: {note}", file=sys.stderr)
    return f


# -- handlers: args -> (CSV header or None, rows, summary lines, ok) ---------------
# Suites are looked up on the module at call time, so wrappers installed
# on `suites` attributes see every call.

def _run_suite(args):
    """A suite row: call the suite it names with every given option it takes."""
    suite = getattr(suites, args.suite)
    params = inspect.signature(suite).parameters
    return suite(**{k: tuple(v) if isinstance(v, list) else v
                    for k, v in vars(args).items() if k in params and v is not None})


def _expsum_eval(args):
    if args.salie and (args.factored or args.ell is not None):
        raise ValueError("--salie takes neither --factored nor --ell")
    chi = _character(args)
    if args.salie:
        res, ell = salie_naive(args.m, args.n, args.c, chi), ""
    else:
        ell = 1 if args.ell is None else args.ell
        fn = kloosterman_factored if args.factored else kloosterman_naive
        res = fn(args.m, args.n, args.c, ell, chi)
    rows = [(args.m, args.n, args.c, ell, chi.label,
             res.value.real, res.value.imag, res.bound, res.ratio)]
    lines = [f"value = {res.value:.12g}, bound = {res.bound:.6g}, ratio = {res.ratio:.6f}"]
    return ["m", "n", "c", "ell", "char", "re", "im", "bound", "ratio"], rows, lines, True


def _specfun_check(args):
    """Six suites in one CSV: the union of their columns, blank where a suite has none."""
    header, named, all_lines, ok = ["suite"], [], [], True
    for name, suite in (("norm", suites.whittaker_norm_suite),
                        ("ratio", suites.whittaker_ratio_suite),
                        ("lower", suites.whittaker_lower_suite),
                        ("bessel", suites.bessel_bound_suite),
                        ("mellin", suites.mellin_suite),
                        ("remark", suites.remark_suite)):
        cols, rows, lines, good = suite()
        header += [c for c in cols if c not in header]
        named += [dict(zip(cols, r), suite=name) for r in rows]
        all_lines += lines
        ok = ok and good
    return header, [tuple(r.get(c, "") for c in header) for r in named], all_lines, ok


def _specfun_whittaker(args):
    if (args.t is None) == (args.mu is None):
        raise ValueError("exactly one of --t / --mu is required")
    mu = 1j * args.t if args.t is not None else args.mu
    ys = sorted(args.y)
    rows = [(args.eta, str(mu), y, w)
            for y, w in zip(ys, whittaker_W_grid(args.eta, mu, ys).tolist())]
    lines = [f"W({args.eta},{mu})({y}) = {w:.12e}" for *_, y, w in rows]
    return ["eta", "mu", "y", "W"], rows, lines, True


def _specfun_bessel(args):
    rows = []
    for t in args.t:
        for q, v in zip(args.q, bessel_J_imag_order(t, args.q)):
            rows.append((t, q, v.real, v.imag))
    lines = [f"J_(2*{t}i)({q}) = {re:.12e} + {im:.12e} i" for t, q, re, im in rows]
    return ["t", "q", "re", "im"], rows, lines, True


def _shifted_sum(args):
    if args.xmin < 1:
        raise ValueError(f"--xmin must be at least 1, got {args.xmin:g}")
    if args.xmin > args.xmax:
        raise ValueError(f"--xmin must not exceed --xmax, got {args.xmin:g} > {args.xmax:g}")
    lo = math.ceil(math.log2(args.xmin))
    hi = int(math.log2(args.xmax))
    if lo > hi:
        raise ValueError(f"no power of two lies in [--xmin, --xmax] = "
                         f"[{args.xmin:g}, {args.xmax:g}]")
    f = _load(args.form)
    rows = suites.shifted_sum_experiment(f, args.h, x_lo_exp=lo, x_hi_exp=hi)
    lines = [f"X={x:g}: S={s:.8f} S/X={sx:.8f}" for x, s, sx in rows]
    return ["X", "S", "S_over_X"], rows, lines, True


def _fit(args):
    _, header, data = read_csv(args.infile)
    for col in ("X", "S"):
        if col not in header:
            raise ValueError(f"{args.infile}: no column {col!r} (columns: {', '.join(header)})")
    xs = np.array([float(r[header.index("X")]) for r in data])
    ss = np.array([float(r[header.index("S")]) for r in data])
    slope = fit_exponent(xs, ss, args.c)
    return None, None, [f"slope of log|S - {args.c} X| vs log X: {slope:.4f}"], True


def _sym2(args):
    if args.ymax <= 40:
        raise ValueError(f"--ymax must exceed 40 (the fit starts at Y = 40), got {args.ymax}")
    r_hat, quality = sym2_residue_estimate(_load(args.form), suites.sym2_fit_grid(args.ymax))
    return None, None, [f"symmetric-square residue estimate: {r_hat:.6f} "
                        f"(fit quality {quality:.4f})"], True


def _gen_form(args):
    save_form(args.file, eta7_cusp_form(args.M))
    return None, None, [f"wrote {args.file} with M={args.M} coefficients"], True


# name -> (help, aliases, arguments as (flag, add_argument keywords), handler
# or suite name); a suite row's option dests are parameters of that suite, and
# its options carry no default, so an option left out takes the suite's own
COMMANDS = {
    "expsum-eval": ("evaluate one twisted sum", (), (
        ("--m", dict(type=int, required=True)),
        ("--n", dict(type=int, required=True)),
        ("--c", dict(type=int, required=True)),
        ("--ell", dict(type=int, help="Kloosterman sums only; default 1")),
        ("--char-kronecker", dict(type=int, help="discriminant D for the character (D/.)")),
        ("--char-mod", dict(type=int, default=4)),
        ("--salie", dict(action="store_true", help="evaluate the (d/c)-twisted variant")),
        ("--factored", dict(action="store_true")),
    ), _expsum_eval),
    "expsum-sweep": ("random bound sweep", (), (
        ("--trials", dict(type=int)),
        ("--max-c", dict(type=int)),
        ("--exhaustive-max", dict(type=int)),
    ), "weil_sweep_suite"),
    "verify-mult": ("factored vs naive agreement", ("expsum-verify-mult",), (
        ("--trials", dict(type=int)),
        ("--max-c", dict(type=int)),
    ), "verify_mult_suite"),
    "salie-bounds": ("prime-power bound sweep", (), (
        ("--pmax", dict(type=int)),
    ), "salie_bound_suite"),
    "specfun-check": ("kernel identity suite", (), (), _specfun_check),
    "specfun-whittaker": ("point or ratio-grid values", (), (
        ("--eta", dict(type=_finite, required=True)),
        ("--t", dict(type=_finite, help="imaginary second parameter it")),
        ("--mu", dict(type=_finite, help="real second parameter")),
        ("--y", dict(type=_finite, action="append", required=True)),
    ), _specfun_whittaker),
    "specfun-bessel": ("J of imaginary order on a grid", (), (
        ("--t", dict(type=_finite, action="append", required=True)),
        ("--q", dict(type=_finite, action="append", required=True)),
    ), _specfun_bessel),
    "oscillatory-map": ("G-kernel bound map", ("specfun-oscillatory",), (
        ("--n-omega", dict(type=int)),
        ("--n-T", dict(type=int)),
        ("--kappa", dict(dest="kappas", metavar="KAPPA", type=_finite, action="append")),
    ), "oscillatory_map_suite"),
    "specfun-mellin-barnes": ("contour vs direct checks", (), (), "mellin_suite"),
    "theta-check": ("weight-1/2 multiplier residuals", (), (
        ("--trials", dict(type=int)),
    ), "theta_suite"),
    "shifted-sum": ("sharp-cutoff experiment", (), (
        ("--form", dict(required=True, help="coefficient file, or 'eta7'")),
        ("--h", dict(type=int, required=True)),
        ("--xmax", dict(type=_finite, default=4096.0)),
        ("--xmin", dict(type=_finite, default=32.0)),
    ), _shifted_sum),
    "fit": ("exponent fit of a shifted-sum CSV", (), (
        ("--in", dict(dest="infile", required=True)),
        ("--c", dict(type=_finite, default=0.0, help="main-term constant to subtract")),
    ), _fit),
    "sym2": ("symmetric-square residue estimate", (), (
        ("--form", dict(required=True)),
        ("--ymax", dict(type=int, default=4000)),
    ), _sym2),
    "remark-check": ("explicit inner-product value", (), (
        ("--k", dict(dest="ks", metavar="K", type=int, action="append")),
    ), "remark_suite"),
    "gen-form": ("write the eta7 coefficient file", (), (
        ("--M", dict(type=int, default=100000)),
        ("--file", dict(required=True)),
    ), _gen_form),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command tree, built on the first call and reused: a parse reads it
    without changing it."""
    top = argparse.ArgumentParser(
        prog="theta-shift",
        description="exponential-sum, special-function, and shifted-sum checks",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for name, (help_text, aliases, arguments, handler) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text, aliases=list(aliases))
        p.add_argument("--seed", type=_seed, default=0)
        p.add_argument("--out", default="out", help="artifact directory")
        for flag, kwargs in arguments:
            p.add_argument(flag, **kwargs)
        if isinstance(handler, str):
            p.set_defaults(name=name, handler=_run_suite, suite=handler)
        else:
            p.set_defaults(name=name, handler=handler)
    return top


def main(argv=None) -> int:
    argv = _normalize_argv(sys.argv[1:] if argv is None else list(argv))
    args = _parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        header, rows, lines, ok = args.handler(args)
        if header is not None:
            path = os.path.join(args.out, f"{args.name}.csv")
            write_csv(path, args.name, args.seed, header, rows)
            lines = lines + [f"artifact: {path} ({time.perf_counter() - t0:.1f}s)"]
    except (ValueError, IndexError, OSError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
