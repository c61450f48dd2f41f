"""Every binding the benchmark tracer wraps must exist in the library.

`perfbench/run.py --trace 1` resolves each entry of `perfbench/tracer.py`
`TARGETS` by name; a deleted or renamed function would otherwise fail
only there.  The tracer module is loaded read-only and installs nothing.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
