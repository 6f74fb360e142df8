"""One closed-loop run of one workload, in a fresh process.

Usage (run.py sets PYTHONPATH to the checkout's src and pins BLAS threads):
  python perfbench/worker.py --workload W --seed N --cycles C [--seconds S]
                             [--trace] [--inject-wrong-target]

One client issues operations back to back with no think time.  With
``--seconds S`` it runs whole cycles until S seconds have passed, reusing the
C generated cycles in order if it runs out; without it, it runs exactly C
cycles, so two runs with one seed make the same calls.  In-process workloads
run one extra cycle first, untimed, so lazy set-up is done before timing.

An operation's latency covers the program calls only; its correctness check
runs after the clock stops.  An exception or a failed check counts the
operation as failed.  Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CLI_TIMEOUT_S = 120
MAX_ERRORS = 5


class CliRunner:
    """Runs one CLI command per operation as a fresh subprocess."""

    def __init__(self, traced: bool):
        if traced:
            self.prefix = [sys.executable, str(HERE / "cli_traced.py")]
            self.trace = tracing.empty_report()
        else:
            self.prefix = [sys.executable, "-m", "loccgate.cli"]
            self.trace = None
        self.output_bytes = 0

    def __call__(self, kind: str, argv: list) -> dict:
        proc = subprocess.run(self.prefix + argv, capture_output=True, cwd=ROOT, timeout=CLI_TIMEOUT_S)
        stderr = proc.stderr.decode(errors="replace")
        if self.trace is not None:
            stderr, _, report = stderr.rpartition(tracing.MARKER)
            tracing.merge(self.trace, json.loads(report))
        self.output_bytes += len(proc.stdout)
        return {"returncode": proc.returncode, "stdout": proc.stdout, "stderr": stderr}


def blas_info() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.CYCLES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cycles", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--inject-wrong-target", action="store_true",
                        help="self-test: give the first verify operation a wrong target gate")
    args = parser.parse_args()

    warm, *cycles = workloads.make_cycles(args.workload, args.seed, args.cycles + 1)
    if args.inject_wrong_target:
        kind, p = cycles[0][0]
        if kind != "composite":
            parser.error("--inject-wrong-target needs the verify workload")
        p["target"] = workloads.zz_gate(p["theta"] + 0.05)

    tracer = None
    if args.workload == "cli":
        run_op = CliRunner(args.trace)
        check = workloads.CliChecker(ROOT / "src" / "loccgate" / "schemas")
    else:
        run_op, check = workloads.IN_PROCESS[args.workload]
        for kind, p in warm:
            run_op(kind, p)
        if args.trace:
            tracer = tracing.install()

    records, errors = [], []
    clock = time.perf_counter
    start = clock()
    done = 0
    while True:
        for kind, p in cycles[done % len(cycles)]:
            latency = None
            begin = clock()
            try:
                out = run_op(kind, p)
                latency = clock() - begin
                check(kind, p, out)
                ok = True
            except Exception as exc:  # any failure counts against this operation only
                if latency is None:
                    latency = clock() - begin
                ok = False
                if len(errors) < MAX_ERRORS:
                    errors.append(f"{kind}: {type(exc).__name__}: {exc}")
            records.append([kind, latency, ok])
        done += 1
        if args.seconds is None:
            if done == len(cycles):
                break
        elif clock() - start >= args.seconds:
            break

    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    result = {
        "records": records,
        "errors": errors,
        "cycles": done,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "numpy": np.__version__,
        "blas": blas_info(),
    }
    if args.trace:
        result["trace"] = run_op.trace if tracer is None else tracer.report()
        result["output_bytes"] = getattr(run_op, "output_bytes", 0)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
