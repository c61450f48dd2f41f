"""Self-tests of the benchmark.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import collections
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402

TINY = 0.1


def _run_pass(workload: str, seed: int, scratch: Path) -> list:
    items = wl.make_items(workload, seed, 0, TINY)
    wl.reset_dir(str(scratch))
    ctx = wl.Context(workload, items, str(scratch))
    try:
        return [wl.run_item(ctx, item) for item in items]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_tiny_pass_meets_every_gate(workload):
    outcomes = _run_pass(workload, 3, HERE / ".out" / "test-smoke")
    assert outcomes
    assert [o.error for o in outcomes if not o.ok] == []
    assert all(o.latency > 0 for o in outcomes)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_seed_moves_inputs_not_item_counts(workload):
    a = wl.make_items(workload, 1, 0)
    b = wl.make_items(workload, 2, 0)
    assert collections.Counter(i.kind for i in a) == collections.Counter(i.kind for i in b)
    assert a != b
    assert a == wl.make_items(workload, 1, 0)


def test_traced_pass_restores_bindings_and_values():
    from theta_shift import arith, expsums

    original = arith.kronecker
    plain = _run_pass("expsum-sweep", 5, HERE / ".out" / "test-plain")
    tr = tracer.Tracer()
    tr.install()
    try:
        assert getattr(expsums.kronecker, tracer.MARK, False)
        assert getattr(arith.DirichletCharacter.__call__, tracer.MARK, False)
        traced = _run_pass("expsum-sweep", 5, HERE / ".out" / "test-traced")
    finally:
        tr.uninstall()
    assert tracer.installed_wrappers() == []
    assert expsums.kronecker is original and arith.kronecker is original
    assert [o.fingerprint for o in traced] == [o.fingerprint for o in plain]
    metrics = tracer.layer_metrics([tr.snapshot()])
    assert metrics["arith.kronecker.calls"] > 0
    assert metrics["expsums.sums"] > 0


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(tracer.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_s", "setup_s", "item_p50_ms", "item_p90_ms", "peak_rss_mb", "tol_headroom_digits"}


def test_without_library_sources_run_fails_without_result():
    bare = HERE / ".out" / "test-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli-session",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
