"""Smoke runs of the experiment scripts: each exits 0 and prints its header."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import loccgate

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(loccgate.__file__).resolve().parents[1])


@pytest.mark.parametrize(
    "script, args, header",
    [
        pytest.param("run_cost_curve.py", ["--steps", "3"], "theta p h e_bar markov", id="cost_curve"),
        pytest.param("run_error_decay.py", ["--n", "64", "128"], "theta=0.5 delta=0.4", id="error_decay"),
        pytest.param("run_protocol_demo.py", [], "heralded branch data: success prob", id="protocol_demo"),
        pytest.param("run_batch_demo.py", ["--n", "1"], "n=1 delta=2.6: weight", id="batch_demo"),
    ],
)
def test_script_runs(script, args, header):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    first = " ".join(result.stdout.splitlines()[0].split())
    assert first.startswith(header), result.stdout


def test_batch_demo_verdict_allows_rounding_above_a_zero_bound():
    spec = importlib.util.spec_from_file_location("run_batch_demo", ROOT / "scripts" / "run_batch_demo.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    assert demo.verdict(2.2e-16, 0.0) == "ok"
    assert demo.verdict(1e-6, 0.0) == "VIOLATED"
