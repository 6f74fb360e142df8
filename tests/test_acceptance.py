"""Acceptance suite: every headline behavior at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS line per
criterion; any failure shows up as a normal pytest assertion failure.
"""

import math
import time

import numpy as np
import pytest

from loccgate import analysis, engine, protocols, qmath
from loccgate.engine import classify_rounds, ledger, protocol_error, run_exhaustive, trees_equal
from loccgate.model import (
    GateSpec,
    cnot_gate,
    gate_entanglement,
    haar_unitary,
    qudit_cz_gate,
    random_density,
    random_pure_state,
    random_referee_state,
    swap_gate,
    zz_phase_gate,
)
from loccgate.systems import ALICE, BOB, REFEREE, SystemLayout

RNG = np.random.default_rng(271828)


def report(num: int, text: str) -> None:
    print(f"[criterion {num:2d}] PASS: {text}")


def cz_gate_2():
    return GateSpec(np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex))


def test_criterion_1_heralded_branch_probabilities():
    start = time.perf_counter()
    thetas = np.linspace(0.1, math.pi / 2, 10)
    alphas = np.linspace(0.1, 1.4, 10)
    probe = random_referee_state(RNG)
    worst = 0.0
    for theta in thetas:
        for alpha in alphas:
            h = protocols.build_heralded(float(theta), float(alpha))
            tree = run_exhaustive(h.program, probe)
            simulated = sum(
                l.probability for l in tree.leaves if dict(l.transcript)["h_meas_b"] == "success"
            )
            formula = math.sin(alpha) ** 2 / (2 * (1 - math.cos(theta) * math.cos(alpha)))
            worst = max(worst, abs(simulated - formula))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed < 5.0
    report(1, f"10x10 grid, worst |sim - formula| = {worst:.2e}, {elapsed:.2f}s < 5s")


def test_criterion_2_heralded_branch_actions():
    theta, alpha = 0.6, 0.9
    h = protocols.build_heralded(theta, alpha)
    assert abs(abs(h.failure_angle) - protocols.failure_angle(theta, alpha)) <= 1e-9
    success_target = zz_phase_gate(theta)
    failure_target = zz_phase_gate(h.failure_angle)
    worst_s, worst_f = 0.0, 0.0
    for _ in range(50):
        inp = random_referee_state(RNG)
        tree = run_exhaustive(h.program, inp)
        for leaf in tree.leaves:
            kind = dict(leaf.transcript)["h_meas_b"]
            target = success_target if kind == "success" else failure_target
            infid = 1 - abs(inp.apply_unitary(target.matrix, ("A", "B")).overlap(leaf.state)) ** 2
            if kind == "success":
                worst_s = max(worst_s, infid)
            else:
                worst_f = max(worst_f, infid)
    assert worst_s <= 1e-10
    assert worst_f <= 1e-10
    report(
        2,
        f"50 inputs: success infid {worst_s:.1e}, failure is the over-rotation "
        f"(|angle| gap {abs(abs(h.failure_angle) - protocols.failure_angle(theta, alpha)):.1e})",
    )


def test_criterion_3_controlled_phase_exactness():
    phi = 0.77
    prog = protocols.build_controlled_phase(phi)
    target = protocols.controlled_phase_target(phi)
    worst = 0.0
    tree = None
    for _ in range(10):
        inp = random_referee_state(RNG)
        tree = run_exhaustive(prog, inp)
        assert len(tree.leaves) == 4  # both intermediate branches, deterministically exact
        expected = inp.apply_unitary(target.matrix, ("A", "B"))
        for leaf in tree.leaves:
            worst = max(worst, 1 - abs(expected.overlap(leaf.state)) ** 2)
    led = ledger(prog, tree)
    prof = classify_rounds(prog)
    assert worst <= 1e-10
    assert engine.choi_error(prog, target, run_exhaustive(prog, engine.choi_input(prog))) <= 1e-9
    assert led.expected_ebits == pytest.approx(1.0, abs=1e-9)
    assert (prof.round_count, prof.kind) == (2, "b")
    report(3, f"deterministic, worst infid {worst:.1e}, 1 ebit, rounds (2, b)")


def test_criterion_4_composite_protocol():
    worst_err, worst_ebit_gap, worst_choi = 0.0, 0.0, 0.0
    for theta in (0.1, 0.3, 0.7, math.pi / 2):
        prog = protocols.build_composite(theta)
        target = zz_phase_gate(theta)
        choi_tree = run_exhaustive(prog, engine.choi_input(prog))
        worst_choi = max(worst_choi, engine.choi_error(prog, target, choi_tree))
        tree = None
        for _ in range(4):
            inp = random_referee_state(RNG)
            worst_err = max(worst_err, protocol_error(prog, target, inp))
            tree = run_exhaustive(prog, inp)
        led = ledger(prog, tree)
        worst_ebit_gap = max(
            worst_ebit_gap, abs(led.expected_ebits - analysis.expected_ebits(theta).e_bar)
        )
        prof = classify_rounds(prog)
        assert (prof.round_count, prof.kind) == (3, "c")
    assert worst_err <= 1e-9
    assert worst_choi <= 1e-9
    assert worst_ebit_gap <= 1e-9
    report(
        4,
        f"end-to-end worst infid {worst_err:.1e}, Choi infid {worst_choi:.1e}, "
        f"ledger matches 1 - p + h to {worst_ebit_gap:.1e}, rounds (3, c)",
    )


def test_criterion_5_cost_threshold_against_round_lower_bound():
    start = time.perf_counter()
    threshold = analysis.break_even_theta()
    assert threshold is not None
    grid = np.linspace(1e-4, math.pi / 2, 1000)
    below = [float(t) for t in grid if t < threshold]
    above = [float(t) for t in grid if t > threshold]
    assert all(analysis.CostCurvePoint.at(t).e_bar < 1.0 for t in below)
    assert all(analysis.CostCurvePoint.at(t).e_bar > 1.0 for t in above)
    worst_cost_gap = max(
        abs(analysis.markovianizing_cost(zz_phase_gate(t)) - 1.0) for t in below
    )
    elapsed = time.perf_counter() - start
    assert worst_cost_gap <= 1e-6
    assert elapsed < 30.0
    report(
        5,
        f"threshold {threshold:.6f}: three-round cost < 1 below it while the "
        f"two-round bound stays 1 (gap {worst_cost_gap:.1e}), {elapsed:.1f}s < 30s",
    )


def test_criterion_6_round_trip_channel_closed_form():
    worst = 0.0
    for theta in (0.2, 0.6, 1.2):
        ch = analysis.round_trip_channel(zz_phase_gate(theta))
        for k in range(2):
            for l in range(2):
                unit = np.zeros((2, 2), dtype=complex)
                unit[k, l] = 1.0
                from loccgate.model import SZ

                expect = 0.5 * (
                    (1 + math.cos(theta) ** 2) * unit + math.sin(theta) ** 2 * SZ @ unit @ SZ
                )
                worst = max(worst, float(np.max(np.abs(ch.apply(unit) - expect))))
    fixed = analysis.cesaro_fixed_state(analysis.round_trip_channel(zz_phase_gate(0.5)))
    fixed_gap = float(np.max(np.abs(fixed - np.diag([0.5, 0, 0, 0.5]))))
    assert worst <= 1e-10
    assert fixed_gap <= 1e-8
    report(6, f"closed form on basis to {worst:.1e}; fixed state dephased pair to {fixed_gap:.1e}")


def test_criterion_7_clifford_protocols():
    gates = [
        ("cnot", cnot_gate(), 2),
        ("cz", cz_gate_2(), 2),
        ("swap", swap_gate(), 2),
        ("qutrit-cz", qudit_cz_gate(3), 3),
    ]
    summary = []
    for name, gate, d in gates:
        prog = protocols.build_clifford(gate)
        lay = SystemLayout([("A", d, ALICE), ("B", d, BOB), ("R", d * d, REFEREE)])
        inp = random_pure_state(lay, RNG)
        tree = run_exhaustive(prog, inp)
        assert len(tree.leaves) == d**4  # every branch present
        expected = inp.apply_unitary(gate.matrix, ("A", "B"))
        renames = prog.renames
        worst = max(
            1 - abs(expected.overlap(l.state.renamed(renames))) ** 2 for l in tree.leaves
        )
        assert worst <= 1e-10
        assert engine.choi_error(prog, gate, run_exhaustive(prog, engine.choi_input(prog))) <= 1e-9
        led = ledger(prog, tree)
        assert led.expected_ebits == pytest.approx(gate_entanglement(gate), abs=1e-9)
        assert classify_rounds(prog).kind == "d"
        seq = engine.serialize_simultaneous(prog)
        prof = classify_rounds(seq)
        assert (prof.round_count, prof.kind) == (2, "b")
        assert trees_equal(tree, run_exhaustive(seq, inp))
        summary.append(f"{name}: infid {worst:.0e}, K={led.expected_ebits:.3f}")
    report(7, "; ".join(summary) + "; d -> b serialization preserves leaves")


def test_criterion_8_typicality_and_fast_convergence():
    start = time.perf_counter()
    theta, delta = 0.5, 0.4
    lam = analysis.resource_spectrum(theta)
    worst_enum = 0.0
    for n in range(1, 13):
        gap = abs(
            analysis.typical_set(n, delta, lam).weight
            - analysis.enumerate_typical_weight(n, delta, lam)
        )
        worst_enum = max(worst_enum, gap)
    assert worst_enum <= 1e-12

    ns = [2**k for k in range(6, 15)]
    reports = [analysis.error_budget(n, delta, theta) for n in ns]
    slope_n, _, r2_n = analysis.log_linear_fit(ns, [r.log_epsilon_n for r in reports])
    slope_p, _, r2_p = analysis.log_linear_fit(ns, [r.log_epsilon_prime for r in reports])
    assert slope_n < 0 and r2_n > 0.99
    assert slope_p < 0 and r2_p > 0.99

    weighted = [n**4 * analysis.error_budget(n, delta, theta).total_error for n in (64, 256, 1024, 4096)]
    assert all(b < a for a, b in zip(weighted, weighted[1:]))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(
        8,
        f"enum gap {worst_enum:.1e}; decay fits R^2 = {r2_n:.4f}/{r2_p:.4f}; "
        f"n^4 x total strictly decreasing; {elapsed:.1f}s < 10s",
    )


def test_criterion_9_dilution():
    checked = 0
    for k in (1, 2, 3):
        for _ in range(3):
            target = np.sort(RNG.dirichlet(np.ones(2**k)))[::-1]
            prog = protocols.nielsen_dilution(target, k)
            tree = run_exhaustive(prog)
            for leaf in tree.leaves:
                got = qmath.schmidt_coefficients(leaf.state, ["a"])
                assert np.max(np.abs(got - target)) <= 1e-9
            checked += 1
    with pytest.raises(ValueError):
        protocols.nielsen_dilution([0.2] * 5, 2)  # support too large for two pairs
    report(9, f"{checked} random targets reached exactly for k <= 3; unreachable target rejected")


def test_criterion_10_property_suites():
    # complete positivity and trace preservation across random gates
    for _ in range(50):
        analysis.round_trip_channel(GateSpec(haar_unitary(4, RNG)))  # validates CPTP on build

    # strong subadditivity on random tripartite states
    lay = SystemLayout([("P", 2, ALICE), ("Q", 2, BOB), ("S", 2, REFEREE)])
    worst_cqmi = 0.0
    for _ in range(200):
        rho = random_density(8, RNG)
        val = qmath.cqmi(rho, lay, ["P"], ["Q"], ["S"])
        worst_cqmi = min(worst_cqmi, val)
        assert val >= -1e-8

    # entanglement never grows on average, for every protocol we can simulate
    probes = []
    h = protocols.build_heralded(0.5, 0.8)
    probes.append((h.program, random_referee_state(RNG)))
    probes.append((protocols.build_controlled_phase(0.9), random_referee_state(RNG)))
    probes.append((protocols.build_composite(0.7), random_referee_state(RNG)))
    probes.append(
        (
            protocols.build_clifford(cnot_gate()),
            random_pure_state(
                SystemLayout([("A", 2, ALICE), ("B", 2, BOB), ("R", 4, REFEREE)]), RNG
            ),
        )
    )
    probes.append((protocols.nielsen_dilution([0.5, 0.2, 0.2, 0.1], 2), None))
    plan = protocols.build_batch(0.5, 2, 1.2)
    probes.append(
        (
            plan.program,
            random_pure_state(
                SystemLayout(
                    [("A1", 2, ALICE), ("A2", 2, ALICE), ("B1", 2, BOB), ("B2", 2, BOB)]
                ),
                RNG,
            ),
        )
    )
    worst_gap = math.inf
    for prog, inp in probes:
        tree = run_exhaustive(prog, inp)
        gap = engine.entanglement_monotonicity_gap(tree)
        worst_gap = min(worst_gap, gap)
        assert gap >= -1e-8
    report(
        10,
        f"50 random channels CPTP; min CQMI {worst_cqmi:.1e} >= -1e-8 over 200 states; "
        f"monotonicity gap >= {worst_gap:.1e} over {len(probes)} protocols",
    )
