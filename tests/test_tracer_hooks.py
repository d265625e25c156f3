"""Every function the benchmark's per-layer recorder wraps still exists.

The recorder in perfbench/tracer.py skips a missing function and only a
traced benchmark run reports its metrics as never fired; this test makes
a deleted or renamed hook fail the test suite instead.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, attr) for module, attr, *_ in tracer.WRAPPED]


@pytest.mark.parametrize("module,attr", _wrapped())
def test_wrapped_function_exists(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
