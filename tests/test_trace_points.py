"""The benchmark tracer's attachment points exist where it looks for them.

``perfbench/spans.py`` times the library by replacing module and class
attributes named in ``TRACE_POINTS``. A refactor that moves one of those
calls breaks the traced benchmark run; this test catches it in the fast
suite.
"""

import importlib.util
from pathlib import Path

import pytest

import limfb

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACE_POINTS = _load_spans().TRACE_POINTS


@pytest.mark.parametrize("owner_path, attr, name", TRACE_POINTS,
                         ids=[point[2] for point in TRACE_POINTS])
def test_trace_point_resolves(owner_path, attr, name):
    owner = limfb
    for part in owner_path.split("."):
        owner = getattr(owner, part)
    assert attr in owner.__dict__, f"{name}: {owner_path}.{attr} is gone"
    assert callable(owner.__dict__[attr])
