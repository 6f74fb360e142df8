"""End-to-end batched runs against the analytic error budget.

Simulates the full multi-copy protocol (typical-subspace resource, per-copy
heralded gates, Bell-pool corrections) and checks the observed infidelity
against the budget eps_n + 2 eps'_n.  n = 3 is exact and opt-in: an 18-qubit
exhaustive run whose 1000 transcripts merge into 8 output states, so
batch_error takes about 0.03 s (on a 2-CPU x86 VM).
"""

import argparse
import time

import numpy as np

from loccgate import protocols
from loccgate.model import random_pure_state
from loccgate.systems import ALICE, BOB, SystemLayout

# batch_error rounds at about 1e-14.  Where the analytic bound is exactly 0
# (n = 1 and a delta so wide that every sequence is typical) the simulated
# error reads 0 or a few 1e-16, so a verdict allows this much above the bound.
ROUNDING_FLOOR = 1e-12


def verdict(err: float, bound: float) -> str:
    """"ok" when the simulated error is within the analytic bound up to rounding, else "VIOLATED"."""
    return "ok" if err <= bound + ROUNDING_FLOOR else "VIOLATED"


def run_one(theta: float, n: int, delta: float, seed: int) -> None:
    plan = protocols.build_batch(theta, n, delta)
    factors = [(f"A{i+1}", 2, ALICE) for i in range(n)] + [
        (f"B{i+1}", 2, BOB) for i in range(n)
    ]
    inp = random_pure_state(SystemLayout(factors), np.random.default_rng(seed))
    start = time.perf_counter()
    err = protocols.batch_error(plan, inp)
    elapsed = time.perf_counter() - start
    print(
        f"n={n} delta={delta}: weight {plan.typical_weight:.4f}, budget "
        f"{plan.bell_budget:.3f} ebits, pool {plan.correction_bell_count} pairs; "
        f"simulated err {err:.6f} <= bound {plan.error_bound:.6f} [{verdict(err, plan.error_bound)}] ({elapsed:.1f}s)"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--theta", type=float, default=0.5)
    parser.add_argument("--n", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    # delta large enough for a non-empty typical set at these tiny n
    deltas = {1: 2.6, 2: 1.2, 3: 0.7}
    for n in args.n:
        if n not in deltas:
            print(f"n={n}: no runnable demonstration (simulation cap is 3)")
            continue
        run_one(args.theta, n, deltas[n], args.seed)


if __name__ == "__main__":
    main()
