"""Self-test of the benchmark itself.

Usage, from the root of a checkout:  python3 perfbench/selftest.py

1. Every workload, at a tiny length, prints every end-to-end metric named in
   BENCHMARK.json with its unit, and no operation fails.
2. The verify workload with one operation given a wrong target gate reports
   ok_frac < 1 (fail_frac > 0), so the checks are not vacuous.
3. A traced run prints every per-layer metric, and two traced runs with one
   seed report identical counts.

Exits 0 when all hold; prints what failed otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run

SEED = 7


def bench(workload: str, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect(ok: bool, what: str, failures: list) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failures: list[str] = []

    for w in spec["workloads"]:
        res = bench(w["name"], 1, 0)
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        expect(got == e2e, f"{w['name']}: end-to-end metrics and units match BENCHMARK.json", failures)
        expect(res["failed"] == 0 and res["correct"], f"{w['name']}: no operation failed", failures)

    result = run.run_worker("verify", SEED, 1, extra=("--inject-wrong-target",))
    metrics, _ = run.end_to_end(result, [1.0])
    expect(metrics["ok_frac"]["value"] < 1.0,
           f"verify with a wrong target gate: ok_frac {metrics['ok_frac']['value']:.3f} < 1 "
           f"({result['errors'][:1]})", failures)

    first, second = bench("verify", 2, 1), bench("verify", 2, 1)
    got = {k: v["unit"] for k, v in first["metrics"].items()}
    expect(got == layer, "traced verify: per-layer metrics and units match BENCHMARK.json", failures)
    counts = [k for k, u in layer.items() if u in ("count", "B")]
    same = all(first["metrics"][k]["value"] == second["metrics"][k]["value"] for k in counts)
    expect(same, f"two traced verify runs with seed {SEED} give identical counts ({len(counts)})", failures)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
