"""In-memory spans around loccgate's public functions.

``install()`` wraps each function in ``TRACED`` and rebinds every name under
which a loaded ``loccgate`` module holds it, so calls made through a module
attribute (``engine.run_exhaustive``) and through a name imported into
another module (``protocols.run_exhaustive``) are both recorded.  Methods are
patched on their classes.

A span's self time is its duration minus the time covered by its child
spans.  Spans are aggregated as they close: per name, the call count, total
time and self time.  A few hooks also read the results, for counts that are
measured where the work happens (leaves, kernel sizes, typical weights).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

# (module, attribute path) of every traced public function; the span name is
# "<module>.<attribute path>".
TRACED = (
    ("protocols", "build_heralded"),
    ("protocols", "build_composite"),
    ("protocols", "build_controlled_phase"),
    ("protocols", "build_clifford"),
    ("protocols", "nielsen_dilution"),
    ("protocols", "build_batch"),
    ("protocols", "batch_error"),
    ("model", "clifford_conjugation_table"),
    ("engine", "run_exhaustive"),
    ("engine", "validate_program"),
    ("engine", "LocalInstrument.validate_on"),
    ("engine", "ProtocolStep.resolve"),
    ("engine", "protocol_error"),
    ("engine", "ledger"),
    ("engine", "program_to_json"),
    ("qmath", "apply_on_factors"),
    ("qmath", "factor_pure_state"),
    ("qmath", "reduced_density"),
    ("qmath", "von_neumann_entropy"),
    ("analysis", "typical_set"),
    ("analysis", "error_budget"),
    ("analysis", "cesaro_fixed_state"),
    ("analysis", "round_trip_channel"),
    ("analysis", "break_even_theta"),
)

PRUNE_NORM2 = 1e-12  # engine.PRUNE_PROB: branches at or below this are dropped
MARKER = "\nperfbench-trace "  # precedes a traced CLI run's report on stderr


class Tracer:
    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts = {
            "leaves": 0,
            "kernel_max_dim": 0,
            "kernel_bytes": 0,
            "kernel_useful": 0,
            "max_weight_excess": 0.0,
        }
        self._child_time: list[float] = []

    def wrap(self, name: str, fn, hook=None):
        stat = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._child_time
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                child = stack.pop()
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - child
                if stack:
                    stack[-1] += duration
            if hook is not None:
                start = clock()
                hook(args, result)
                if stack:  # hook time belongs to no span
                    stack[-1] += clock() - start
            return result

        return traced

    # result hooks ---------------------------------------------------------

    def _on_run_exhaustive(self, args, tree):
        self.counts["leaves"] += len(tree.leaves)

    def _on_apply_on_factors(self, args, out):
        vec, _, _, op = args[:4]
        c = self.counts
        c["kernel_max_dim"] = max(c["kernel_max_dim"], int(np.size(vec)))
        # computed, not measured: input vector + operator read, output written
        c["kernel_bytes"] += 16 * (2 * int(np.size(vec)) + int(np.size(op)))
        if float(np.vdot(out, out).real) > PRUNE_NORM2:
            c["kernel_useful"] += 1

    def _on_typical_set(self, args, tset):
        c = self.counts
        c["max_weight_excess"] = max(c["max_weight_excess"], tset.weight - 1.0)

    def report(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}


def install() -> Tracer:
    """Patch every traced function in the loaded loccgate package."""
    tracer = Tracer()
    hooks = {
        "engine.run_exhaustive": tracer._on_run_exhaustive,
        "qmath.apply_on_factors": tracer._on_apply_on_factors,
        "analysis.typical_set": tracer._on_typical_set,
    }
    for mod_name, _ in TRACED:
        importlib.import_module(f"loccgate.{mod_name}")
    modules = [m for n, m in sys.modules.items() if n == "loccgate" or n.startswith("loccgate.")]
    for mod_name, path in TRACED:
        name = f"{mod_name}.{path}"
        owner = sys.modules[f"loccgate.{mod_name}"]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapped = tracer.wrap(name, original, hooks.get(name))
        if outer:
            setattr(owner, attr, wrapped)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
    return tracer


def merge(into: dict, other: dict) -> None:
    """Add one tracer report into another (used for traced CLI subprocesses)."""
    for name, (calls, total, self_s) in other["spans"].items():
        stat = into["spans"].setdefault(name, [0, 0.0, 0.0])
        stat[0] += calls
        stat[1] += total
        stat[2] += self_s
    for key, value in other["counts"].items():
        if key in ("kernel_max_dim", "max_weight_excess"):
            into["counts"][key] = max(into["counts"][key], value)
        else:
            into["counts"][key] += value


def empty_report() -> dict:
    return Tracer().report()
