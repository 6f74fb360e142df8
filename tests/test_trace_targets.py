"""Every function the benchmark's tracer patches still exists.

``perfbench/tracing.py`` wraps the functions named in its ``TRACED`` table by
(module, attribute path).  A refactor that renames or deletes one of them
would break the traced benchmark run; this test fails first.  The tracer
module is loaded by path and never installed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("module, path", _traced(), ids=lambda x: x)
def test_traced_target_exists(module, path):
    owner = importlib.import_module(f"loccgate.{module}")
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
