"""Every binding the benchmark tracer wraps must exist in the library,
and every other public name in the library must be read by it.

`perfbench/run.py --trace 1` resolves each entry of `perfbench/tracer.py`
`TARGETS` by name; a deleted or renamed function would otherwise fail
only there.  The tracer module is loaded read-only and installs nothing.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
SRC = ROOT / "src"

# public names that only the tests read, each the reference route of a check
TEST_ROUTES = {
    "theta_shift.harness.suites.exponent_gate": "acceptance criterion 11",
    "theta_shift.harness.suites.main_term_gate": "acceptance criterion 12",
    "theta_shift.modforms.residual.residual_constant_duplication":
        "second route for the main-term constant",
    "theta_shift.specfun.gammafun.EULER_GAMMA": "reference value for digamma(1) and digamma(1/2)",
}


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while being built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_target_resolves(tracer):
    assert tracer.TARGETS
    for target in tracer.TARGETS:
        owner, attr, original = tracer._resolve(target)
        assert callable(original), f"{target.module}.{target.attr}"
    assert tracer.installed_wrappers() == []


def _public_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            names = []
        yield from (n for n in names if not n.startswith("_"))


def _reads(tree):
    """Names the code loads, attributes it takes, and strings it holds
    (getattr keys); docstrings are left out."""
    bodies = [tree.body] + [n.body for n in ast.walk(tree)
                            if isinstance(n, (ast.FunctionDef, ast.ClassDef))]
    docs = {id(b[0].value) for b in bodies
            if b and isinstance(b[0], ast.Expr) and isinstance(b[0].value, ast.Constant)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in docs:
            yield node.value


def test_no_dead_public_names(tracer):
    trees = {".".join(p.relative_to(SRC).with_suffix("").parts): ast.parse(p.read_text())
             for p in sorted(SRC.rglob("*.py"))}
    read = {name for tree in trees.values() for name in _reads(tree)}
    targets = {f"{t.module}.{t.attr.split('.')[0]}" for t in tracer.TARGETS}
    unread = [f"{module}.{name}" for module, tree in trees.items()
              for name in _public_names(tree) if name not in read]
    assert sorted(set(unread) - targets) == sorted(TEST_ROUTES)
