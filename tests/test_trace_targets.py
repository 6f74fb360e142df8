"""The benchmark's traced run still finds what it traces.

``perfbench/tracing.py`` wraps the functions named in its ``TRACED`` table by
(module, attribute path).  A refactor that renames or deletes one of them
would break the traced benchmark run; the first test fails first.  A
refactor that stops calling one that a workload's report requires (a cache
that skips it, say) would too; the second test runs one traced cycle of the
worker in a subprocess.  The perfbench modules are loaded by path and
never changed.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, path", _load("tracing").TRACED, ids=lambda x: x)
def test_traced_target_exists(module, path):
    owner = importlib.import_module(f"loccgate.{module}")
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


@pytest.mark.parametrize("workload", ["batch", "verify"])
def test_traced_run_records_every_expected_span(workload):
    """One traced cycle of the worker calls every function its workload's report needs.

    ``perfbench/run.py`` refuses a traced run in which a name of
    ``EXPECTED_SPANS`` was never called; the tracer lists such names with
    zero calls, so the call count is what is asserted.
    """
    expected = _load("run").EXPECTED_SPANS[workload]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "worker.py"), "--workload", workload,
         "--seed", "1", "--cycles", "1", "--trace"],
        capture_output=True, text=True, cwd=ROOT, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["errors"] == []
    spans = result["trace"]["spans"]
    assert [name for name in expected if spans.get(name, [0])[0] < 1] == []
