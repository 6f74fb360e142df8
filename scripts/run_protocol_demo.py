"""Build, validate, and exhaustively simulate each protocol once.

For every builder, from one run on the Choi input: worst infidelity over a
few random referee-purified inputs, the Choi-input infidelity, the
communication round profile, and the entanglement ledger.
"""

import argparse
import math

import numpy as np

from loccgate import analysis, engine, protocols
from loccgate.model import (
    GateSpec,
    cnot_gate,
    qudit_cz_gate,
    random_pure_state,
    random_referee_state,
    swap_gate,
    zz_phase_gate,
)
from loccgate.systems import ALICE, BOB, REFEREE, SystemLayout


def show(name, program, target, inputs, rng):
    tree = engine.run_exhaustive(program, engine.choi_input(program))
    worst = 0.0
    for _ in range(inputs):
        if len(target.labels) == 2 and target.matrix.shape[0] == 9:
            lay = SystemLayout([("A", 3, ALICE), ("B", 3, BOB), ("R", 9, REFEREE)])
            inp = random_pure_state(lay, rng)
        else:
            inp = random_referee_state(rng)
        worst = max(worst, engine.protocol_error(program, target, inp, tree=tree))
    prof = engine.classify_rounds(program)
    led = engine.ledger(program, tree)
    gap = engine.entanglement_monotonicity_gap(tree)
    print(
        f"{name:<22} worst err {worst:9.2e}   choi err {engine.choi_error(program, target, tree):9.2e}   "
        f"rounds {prof.round_count}/{prof.kind}   "
        f"ebits {led.expected_ebits:8.5f}   monotonicity gap {gap:+.3e}"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--theta", type=float, default=0.5)
    parser.add_argument("--inputs", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    rng = np.random.default_rng(args.seed)
    theta = args.theta

    heralded = protocols.build_heralded(theta, math.sqrt(theta))
    print(
        f"heralded branch data: success prob {heralded.success_prob:.6f}, "
        f"failure angle {heralded.failure_angle:+.6f}"
    )
    show("heralded (no retry)", heralded.program, zz_phase_gate(theta), args.inputs, rng)
    show(
        "controlled phase",
        protocols.build_controlled_phase(0.8),
        protocols.controlled_phase_target(0.8),
        args.inputs,
        rng,
    )
    show("composite retry", protocols.build_composite(theta), zz_phase_gate(theta), args.inputs, rng)
    for name, gate in (("clifford cnot", cnot_gate()), ("clifford swap", swap_gate()),
                       ("clifford qutrit-cz", qudit_cz_gate(3))):
        show(name, protocols.build_clifford(gate), GateSpec(gate.matrix, ("A", "B")), 1, rng)

    print()
    point = analysis.expected_ebits(theta)
    print(
        f"analysis at theta={theta}: e_bar = {point.e_bar:.6f} "
        f"(p = {point.p_theta:.6f}, h = {point.h_theta:.6f}); "
        f"channel cost = {analysis.markovianizing_cost(zz_phase_gate(theta)):.6f}"
    )


if __name__ == "__main__":
    main()
