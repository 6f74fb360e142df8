"""loccgate benchmark: one run of one workload.

Usage, from the root of a checkout:
  python3 perfbench/run.py --workload {cli,verify,batch,analysis} --seed N
                           --seconds S --trace {0,1}

The code under test is the checkout's ``src/loccgate``, imported through
PYTHONPATH (the package need not be installed).  Every child process gets
OPENBLAS_NUM_THREADS=1 and OMP_NUM_THREADS=1.  Caches cannot be dropped and
CPUs cannot be pinned on the machines this runs on, so runs share the CPU
with whatever else is running; medians over many operations absorb most of it.

--trace 0: set-up is timed in fresh interpreters, then a fresh worker runs
the workload closed-loop for S seconds; prints the end-to-end metrics.
--trace 1: a fixed list of cycles runs once untraced and once traced, each in
a fresh worker, and import time is broken down per package; prints the
per-layer metrics.  Call counts repeat exactly for a given seed and S.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# On a shared 2-vCPU VM each core runs in slow phases of a few seconds, up to
# 1.5x slower for numpy-heavy work.  A latency quantile taken from the middle
# of one kind's samples jumps between the two speeds with the share of slow
# time in a run; one taken low or high in a kind's samples does not.  The
# cycles are laid out so that the median and the tail fall there (see
# workloads.py), and throughput, a mean, moves only with that share.
#
# Nominal cycle lengths (s) of the code this benchmark was written against, on
# a 2-CPU x86 box, numpy 2.4 on OpenBLAS with one thread.  They size the
# generated inputs and the traced run.  A timed in-process run stops on the
# clock, at the end of the cycle in which S seconds pass.  A cli cycle is about
# as long as a run, so a clock-based stop would flip between one and two
# cycles (10 or 20 samples) on load noise; cli instead always runs
# max(2, ceil(S / cycle_s)) whole cycles, a length fixed by the benchmark and
# equal on every commit.  Four of its commands take no seeded argument, so
# the second cycle repeats them and checks their output is byte-identical.
WORKLOADS = {
    "cli": {
        "imports": "import loccgate.cli",
        "cycle_s": 16.0,
        "why": "What users run: ten README commands, one process each; interpreter start "
        "and the scipy import dominate.",
    },
    # Not in BENCHMARK.json: on the shared VM its latencies drifted by up to
    # 0.28 (quartile spread over ten 22 s runs) with the host's core speed,
    # beyond any allowed bound.  Its layers are still traced inside cli, and
    # it stays runnable for work on the builders and the diagnostics path.
    "verify": {
        "imports": "import loccgate.protocols, loccgate.analysis",
        "cycle_s": 0.8,
        "why": "Every builder, then protocol_error, diagnostics-on run_exhaustive, ledger, "
        "rounds and JSON: small states, many programs, no import cost on top.",
    },
    "batch": {
        "imports": "import loccgate.protocols, loccgate.analysis",
        "cycle_s": 0.45,
        "why": "build_batch + batch_error at n = 2 (3 in 5) and n = 1: a 4096-dim state, "
        "deep transcript-conditioned tree, diagnostics off.",
    },
    "analysis": {
        "imports": "import loccgate.protocols, loccgate.analysis",
        "cycle_s": 0.3,
        "why": "Closed-form kernels with no engine work: error_budget up to n = 2^20, "
        "Markov costs, break-even angle, cost curve.",
    },
}
GENERATED_HEADROOM = 10  # inputs for a program up to this much faster than nominal
SETUP_PROBES = 5
IMPORT_PROBES = 3
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "throughput_ops_s": "ops/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "ok_frac": "1",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# traced functions reported with calls and self time, and with self time only
CALLS_AND_SELF = (
    "protocols.build_heralded",
    "protocols.build_composite",
    "protocols.build_controlled_phase",
    "protocols.build_clifford",
    "protocols.nielsen_dilution",
    "protocols.build_batch",
    "protocols.batch_error",
    "model.clifford_conjugation_table",
    "engine.run_exhaustive",
    "engine.validate_program",
    "engine.LocalInstrument.validate_on",
    "engine.ProtocolStep.resolve",
    "qmath.apply_on_factors",
    "qmath.factor_pure_state",
    "qmath.reduced_density",
    "qmath.von_neumann_entropy",
    "analysis.typical_set",
    "analysis.cesaro_fixed_state",
)
SELF_ONLY = (
    "engine.protocol_error",
    "engine.ledger",
    "engine.program_to_json",
    "analysis.error_budget",
    "analysis.round_trip_channel",
    "analysis.break_even_theta",
)
CLI_KINDS = (
    "simulate_u_theta",
    "simulate_clifford",
    "simulate_qutrit_cz",
    "cost_curve",
    "markov_cost",
    "typicality",
    "export_protocol",
)
IMPORT_PACKAGES = ("scipy", "numpy", "click", "loccgate")

# Functions each workload is known to call; a traced run that records no span
# for one of them fails, so a missed call site cannot read as zero.
EXPECTED_SPANS = {
    "verify": (
        "protocols.build_heralded", "protocols.build_composite", "protocols.build_controlled_phase",
        "protocols.build_clifford", "protocols.nielsen_dilution", "model.clifford_conjugation_table",
        "engine.run_exhaustive", "engine.validate_program", "engine.LocalInstrument.validate_on",
        "engine.ProtocolStep.resolve", "engine.protocol_error", "engine.ledger",
        "engine.program_to_json", "qmath.apply_on_factors", "qmath.factor_pure_state",
        "qmath.reduced_density", "qmath.von_neumann_entropy",
    ),
    "batch": (
        "protocols.build_batch", "protocols.batch_error", "protocols.build_heralded",
        "engine.run_exhaustive", "engine.validate_program", "engine.LocalInstrument.validate_on",
        "engine.ProtocolStep.resolve", "qmath.apply_on_factors", "qmath.factor_pure_state",
        "analysis.typical_set", "analysis.error_budget",
    ),
    "analysis": (
        "analysis.typical_set", "analysis.error_budget", "analysis.cesaro_fixed_state",
        "analysis.round_trip_channel", "analysis.break_even_theta", "qmath.von_neumann_entropy",
    ),
    "cli": (
        "protocols.build_composite", "protocols.build_heralded", "protocols.build_clifford",
        "model.clifford_conjugation_table", "engine.run_exhaustive", "engine.protocol_error",
        "engine.ledger", "engine.program_to_json", "qmath.apply_on_factors",
        "qmath.factor_pure_state", "analysis.typical_set", "analysis.error_budget",
        "analysis.cesaro_fixed_state", "analysis.round_trip_channel", "analysis.break_even_theta",
    ),
}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_child(cmd: list, timeout: float = CHILD_TIMEOUT_S) -> tuple[bytes, bytes]:
    """Run a child in its own process group; kill the group if it overruns."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise BenchError(f"{cmd[1:3]} exited {proc.returncode}: {err.decode(errors='replace')[-2000:]}")
    return out, err


def time_setup(workload: str) -> list[float]:
    """Wall time of fresh interpreters doing the workload's imports."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        run_child([sys.executable, "-c", WORKLOADS[workload]["imports"]])
        samples.append(time.perf_counter() - start)
    return samples


def import_breakdown(workload: str) -> dict:
    """Median self import time per top-level package, from -X importtime."""
    samples = []
    for _ in range(IMPORT_PROBES):
        _, err = run_child([sys.executable, "-X", "importtime", "-c", WORKLOADS[workload]["imports"]])
        per = dict.fromkeys(("total",) + IMPORT_PACKAGES, 0)
        for line in err.decode().splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            self_us, _, name = line[len("import time:"):].split("|")
            top = name.strip().split(".")[0]
            per["total"] += int(self_us)
            if top in per:
                per[top] += int(self_us)
        samples.append(per)
    return {f"import.{k}_s": statistics.median(s[k] for s in samples) / 1e6 for k in samples[0]}


def run_worker(workload: str, seed: int, cycles: int, seconds: float | None = None,
               trace: bool = False, extra: tuple = ()) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--cycles", str(cycles)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    if trace:
        cmd.append("--trace")
    out, _ = run_child(cmd + list(extra))
    return json.loads(out.decode().strip().splitlines()[-1])


def throughput(records: list) -> float:
    """Operations per second of program time (the checks between operations excluded)."""
    return len(records) / sum(r[1] for r in records)


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    With ten samples or fewer no percentile qualifies; the minimum is reported.
    """
    ordered = sorted(latencies)
    idx = max(len(ordered) - 11, 0)
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


def end_to_end(result: dict, setup: list[float]) -> tuple[dict, dict]:
    records = result["records"]
    latencies = [r[1] for r in records]
    failed = sum(1 for r in records if not r[2])
    tail_s, tail_pct = tail(latencies)
    values = {
        "throughput_ops_s": throughput(records),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_s,
        "ok_frac": (len(records) - failed) / len(records),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    info = {"samples": len(records), "tail_percentile": round(tail_pct, 2),
            "setup_samples_s": setup, "cycles": result["cycles"]}
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}, info


def per_layer(workload: str, base: dict, traced: dict, imports: dict) -> dict:
    spans, counts = traced["trace"]["spans"], traced["trace"]["counts"]
    missing = [n for n in EXPECTED_SPANS[workload] if spans.get(n, [0])[0] == 0]
    if missing:
        raise BenchError(f"traced {workload} run recorded no span for {missing}")

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def self_s(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    def ratio(a, b):
        return a / b if b else 0.0

    records = traced["records"]
    m = {k: (v, "s") for k, v in imports.items()}
    for kind in CLI_KINDS:
        lat = [r[1] for r in records if r[0] == kind] if workload == "cli" else []
        m[f"cli.{kind}.latency_s"] = (statistics.median(lat) if lat else 0.0, "s")
    m["cli.output_bytes"] = (traced["output_bytes"], "B")
    for name in CALLS_AND_SELF:
        m[f"{name}.calls"] = (calls(name), "count")
    for name in CALLS_AND_SELF + SELF_ONLY:
        m[f"{name}.self_s"] = (self_s(name), "s")
    runs = calls("engine.run_exhaustive")
    kernel = calls("qmath.apply_on_factors")
    m["engine.run_exhaustive.leaves"] = (counts["leaves"], "count")
    m["engine.run_exhaustive.calls_per_op"] = (ratio(runs, len(records)), "count")
    m["engine.validate_on_per_leaf"] = (
        ratio(calls("engine.LocalInstrument.validate_on"), counts["leaves"]), "count")
    m["qmath.apply_on_factors.max_dim"] = (counts["kernel_max_dim"], "count")
    m["qmath.apply_on_factors.bytes_computed"] = (counts["kernel_bytes"], "B")
    m["qmath.apply_on_factors.useful_frac"] = (ratio(counts["kernel_useful"], kernel), "1")
    m["analysis.typical_set.max_weight_excess"] = (counts["max_weight_excess"], "1")
    m["trace.overhead_frac"] = (1.0 - throughput(records) / throughput(base["records"]), "1")
    return {k: {"value": v, "unit": u} for k, (v, u) in sorted(m.items())}


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref
    return ref


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "loccgate" / "cli.py").is_file():
        print(f"no loccgate sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]

    if args.trace:
        cycles = max(1, round(args.seconds / 2 / spec["cycle_s"]))
        imports = import_breakdown(args.workload)
        base = run_worker(args.workload, args.seed, cycles)
        result = run_worker(args.workload, args.seed, cycles, trace=True)
        metrics = per_layer(args.workload, base, result, imports)
        info = {"cycles": cycles, "samples": len(result["records"])}
    else:
        setup = time_setup(args.workload)
        if args.workload == "cli":
            result = run_worker("cli", args.seed, max(2, math.ceil(args.seconds / spec["cycle_s"])))
        else:
            cycles = math.ceil(args.seconds / spec["cycle_s"] * GENERATED_HEADROOM)
            result = run_worker(args.workload, args.seed, cycles, seconds=args.seconds)
        metrics, info = end_to_end(result, setup)

    failed = sum(1 for r in result["records"] if not r[2])
    info.update(
        workload=args.workload, why=spec["why"], seed=args.seed, seconds=args.seconds,
        trace=args.trace, git_sha=git_sha(), nproc=os.cpu_count(), python=sys.version.split()[0],
        numpy=result["numpy"], blas=result["blas"], blas_threads=1,
        loop="closed, one client, no think time, fresh worker process",
        caveat="page cache not dropped (needs root); CPUs not pinned (both cores of the "
        "shared VM drift together, so pinning buys nothing)",
        errors=result["errors"],
    )
    print("# " + json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": len(result["records"]),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        sys.exit(1)
