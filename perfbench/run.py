"""theta-shift benchmark: seeded cold-start workloads, gated, one command.

    python3 perfbench/run.py --workload expsum-sweep --seed 1 --seconds 30 --trace 0

A run is a sequence of passes, one after another.  A pass is a fixed
list of items (see workloads.py) run closed loop by one client in a
fresh interpreter, because every CLI call and acceptance run starts
cold.  Passes start while the next one is expected to end within
``--seconds``; there is always at least one.

--trace 0 prints the end-to-end metrics; --trace 1 runs each pass twice,
untraced and traced on the same inputs, checks that both give identical
item results, and prints the per-layer metrics.  The last line of
standard output is one JSON object; the exit status is nonzero when an
item fails its gate, and 2 when the library sources are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("expsum-sweep", "spectral-map", "cli-session")
MIN_SETUP_SAMPLES = 12
HARD_LIMIT_S = 170.0   # a run must end within 180 s


class PassFailed(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env.pop("THETA_SHIFT_THREADS", None)   # the default: serial sweeps
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"                     # one thread, BLAS included
    return env


def spawn(args, start: float, pass_index: int, trace: bool = False,
          setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--pass-index", str(pass_index)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    remaining = HARD_LIMIT_S - (time.monotonic() - start)
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=_env(), cwd=ROOT,
                              timeout=max(remaining, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"pass {pass_index} exceeded the {HARD_LIMIT_S:.0f} s limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"pass {pass_index} exited {proc.returncode}: {proc.stderr[-2000:]}")
    rec = json.loads(lines[-1])
    rec["setup_s"] = rec["t_ready"] - t_spawn
    rec["process_s"] = time.monotonic() - t_spawn
    return rec


def run_passes(args, start: float, trace: bool) -> list:
    """Passes (or untraced/traced pairs) while the next fits in --seconds;
    at least two untraced passes, so that a median is never one sample."""
    rounds = []
    while True:
        i = len(rounds)
        rnd = [spawn(args, start, i)]
        if trace:
            rnd.append(spawn(args, start, i, trace=True))
        rounds.append(rnd)
        elapsed = time.monotonic() - start
        typical = statistics.median(sum(p["process_s"] for p in r) for r in rounds)
        if elapsed + typical > args.seconds and (trace or len(rounds) >= 2):
            return rounds


def quantile(values: list, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def headroom(items: list) -> float:
    gaps = [math.log10(tol / gap) for it in items for tol, gap in it["checks"]]
    return min(gaps) if gaps else math.nan


def metadata() -> list:
    import importlib.metadata as md
    versions = []
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            versions.append(f"{pkg} {md.version(pkg)}")
        except md.PackageNotFoundError:
            versions.append(f"{pkg} missing")
    return [f"host: python {platform.python_version()}, {', '.join(versions)}, "
            f"nproc {os.cpu_count()}, threads 1, THETA_SHIFT_THREADS unset"]


def summarize_items(passes: list) -> tuple:
    items = [it for p in passes for it in p["items"]]
    failed = [it for it in items if not it["ok"]]
    kinds, busy = {}, {}
    for it in items:
        kinds[it["kind"]] = kinds.get(it["kind"], 0) + 1
        busy[it["kind"]] = busy.get(it["kind"], 0.0) + it["latency"]
    total = sum(busy.values()) or 1.0
    lines = [f"items: {len(items)} over {len(passes)} passes; per kind "
             + ", ".join(f"{k} {v}" for k, v in sorted(kinds.items())),
             "share of item time per kind: "
             + ", ".join(f"{k} {busy[k] / total:.3f}" for k in sorted(kinds))]
    lines.append(f"error_rate = {len(failed) / len(items):.6g} ({len(failed)} of {len(items)})")
    for it in failed[:10]:
        lines.append(f"FAILED {it['kind']}: {it['error'] or 'gate not met'}")
    return items, failed, lines


def untraced(args, start: float) -> tuple:
    passes = [r[0] for r in run_passes(args, start, trace=False)]
    setups = [p["setup_s"] for p in passes]
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(spawn(args, start, 0, setup_only=True)["setup_s"])
    items, failed, lines = summarize_items(passes)
    lat_ms = [it["latency"] * 1e3 for it in items]
    metrics = {
        "wall_s": (statistics.median(p["wall"] for p in passes), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "item_p50_ms": (quantile(lat_ms, 50), "ms"),
        "item_p90_ms": (quantile(lat_ms, 90), "ms"),
        "peak_rss_mb": (statistics.median(p["rss_kb"] / 1024 for p in passes), "MB"),
        "tol_headroom_digits": (statistics.median(headroom(p["items"]) for p in passes),
                                "digits"),
    }
    if args.workload == "cli-session":
        lines.append(f"repeated parameter sets: {passes[0]['repeat_share']:.3f} of requests")
    lines.append("setup_s samples: " + ", ".join(f"{s:.3f}" for s in setups))
    lines.append("wall_s per pass: " + ", ".join(f"{p['wall']:.3f}" for p in passes))
    return metrics, len(items), len(failed), lines


def traced(args, start: float) -> tuple:
    sys.path.insert(0, str(HERE))
    import tracer as tr

    rounds = run_passes(args, start, trace=True)
    plain = [r[0] for r in rounds]
    with_trace = [r[1] for r in rounds]
    items, failed, lines = summarize_items(plain + with_trace)
    mismatched = sum(a["fp"] != b["fp"]
                     for u, t in zip(plain, with_trace)
                     for a, b in zip(u["items"], t["items"]))
    left = sorted({w for t in with_trace for w in t["trace"]["left_installed"]})
    snaps = [t["trace"] for t in with_trace]
    values = tr.layer_metrics(snaps)
    values["trace_overhead"] = statistics.median(t["wall"] / u["wall"] - 1.0
                                                 for u, t in zip(plain, with_trace))
    metrics = {name: (values[name], unit) for name, (unit, _) in tr.PER_LAYER.items()}
    total_ns = statistics.median(s["wrapper_ns"][0] for s in snaps)
    inner_ns = statistics.median(s["wrapper_ns"][1] for s in snaps)
    traced_wall = statistics.mean(t["wall"] for t in with_trace)
    lines.append(f"traced vs untraced item results: {mismatched} differ")
    lines.append(f"wrappers left installed after the traced passes: {left or 'none'}")
    lines.append(f"overhead-inflated (hot wrapper {total_ns:.0f} ns per call, "
                 f"{inner_ns:.0f} ns of it inside the call's span): "
                 + ", ".join(tr.OVERHEAD_INFLATED))
    lines.extend(tr.reconcile(snaps, traced_wall, total_ns, inner_ns))
    return metrics, len(items), len(failed) + mismatched + len(left), lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "theta_shift" / "__init__.py").is_file():
        print(f"error: no theta_shift sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.monotonic()
    try:
        metrics, attempted, failed, lines = (traced if args.trace else untraced)(args, start)
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in metadata() + lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
