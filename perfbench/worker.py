"""Run one workload pass in this interpreter and print its record as JSON.

    python3 perfbench/worker.py --workload spectral-map --seed 1 --pass-index 0 [--trace]

run.py starts one fresh interpreter per pass, so every pass pays the
import and set-up a CLI user pays.  The record's ``t_ready`` is the
system-wide monotonic clock at the first item, which run.py compares
with the moment it started this process.
"""

import time  # noqa: I001  first, so nothing precedes the clock

import argparse
import json
import os
import resource
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / ".out"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import workloads as wl

    items = wl.make_items(args.workload, args.seed, args.pass_index)
    scratch = OUT / f"cli-{os.getpid()}"
    wl.reset_dir(str(scratch))
    ctx = wl.Context(args.workload, items, str(scratch))
    t_ready = time.monotonic()
    if args.setup_only:
        shutil.rmtree(scratch, ignore_errors=True)
        print(json.dumps({"t_ready": t_ready}))
        return 0

    tracer = None
    if args.trace:
        import tracer as tr
        wrapper_ns = tr.wrapper_cost_ns()
        tracer = tr.Tracer()
        tracer.install()
    results = []
    try:
        t0 = time.perf_counter()
        for i, item in enumerate(items):
            if tracer is not None:
                tracer.item = i
            out = wl.run_item(ctx, item)
            results.append({"kind": item.kind, "latency": out.latency, "ok": bool(out.ok),
                            "fp": out.fingerprint, "error": out.error,
                            "checks": [(float(tol), float(gap)) for tol, gap in out.checks]})
        wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)

    record = {
        "t_ready": t_ready,
        "wall": wall,
        "items": results,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "repeat_share": wl.repeat_share(items) if args.workload == "cli-session" else None,
    }
    if tracer is not None:
        spans = OUT / f"spans-{args.workload}-seed{args.seed}-pass{args.pass_index}.jsonl"
        tracer.write_spans(str(spans))
        record["trace"] = tracer.snapshot()
        record["trace"]["wrapper_ns"] = wrapper_ns
        record["trace"]["left_installed"] = tr.installed_wrappers()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
