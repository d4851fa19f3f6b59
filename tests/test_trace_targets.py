"""The names the benchmark's tracer wraps must exist in the package.

The tracer (``perfbench/tracing.py``) looks each target up by module and
attribute name only when a traced run installs it, so a renamed or deleted
function would break ``perfbench/run.py --trace 1`` and nothing else.  This
test reads the tracer's own target lists, so it follows them when they
change.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()
TARGETS = ([(mod, attr) for mod, attr, *_ in tracing._FUNCTIONS + tracing._COUNTED]
           + [(mod, f"{cls}.{attr}") for mod, cls, attr, *_ in tracing._METHODS]
           + [("twindual.cache", "MatrixCache.get_or_build")])


@pytest.mark.parametrize("module,path", TARGETS, ids=[f"{m}.{p}" for m, p in TARGETS])
def test_trace_target_resolves(module, path):
    obj = importlib.import_module(module)
    for attr in path.split("."):
        obj = getattr(obj, attr)
    assert callable(obj)
