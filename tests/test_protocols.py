import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loccgate import analysis, engine, protocols, qmath
from loccgate.engine import classify_rounds, ledger, protocol_error, run_exhaustive, trees_equal
from loccgate.model import (
    GateSpec,
    bell_pair,
    cnot_gate,
    gate_entanglement,
    qudit_cz_gate,
    random_pure_state,
    random_referee_state,
    swap_gate,
    zz_phase_gate,
)
from loccgate.systems import ALICE, BOB, REFEREE, SystemLayout


def branch_probability(tree, key, outcome):
    return sum(l.probability for l in tree.leaves if dict(l.transcript)[key] == outcome)


# ---------------------------------------------------------------- heralded (two-round, probabilistic)


def test_heralded_success_probability_matches_formula(rng):
    for theta in (0.2, 0.8, math.pi / 2):
        for alpha in (0.3, 1.0):
            h = protocols.build_heralded(theta, alpha)
            tree = run_exhaustive(h.program, random_referee_state(rng))
            simulated = branch_probability(tree, "h_meas_b", "success")
            formula = math.sin(alpha) ** 2 / (2 * (1 - math.cos(theta) * math.cos(alpha)))
            assert simulated == pytest.approx(formula, abs=1e-10)
            assert h.success_prob == pytest.approx(formula, abs=1e-12)


def test_heralded_alpha_equals_theta_gives_half():
    h = protocols.build_heralded(0.7, 0.7)
    assert h.success_prob == pytest.approx(0.5, abs=1e-12)


def test_heralded_branch_actions(rng):
    theta, alpha = 0.6, 0.9
    h = protocols.build_heralded(theta, alpha)
    success_target = zz_phase_gate(theta)
    failure_target = zz_phase_gate(h.failure_angle)
    for _ in range(5):
        inp = random_referee_state(rng)
        tree = run_exhaustive(h.program, inp)
        for leaf in tree.leaves:
            kind = dict(leaf.transcript)["h_meas_b"]
            target = success_target if kind == "success" else failure_target
            expected = inp.apply_unitary(target.matrix, ("A", "B"))
            assert abs(expected.overlap(leaf.state)) ** 2 > 1 - 1e-10


def test_failure_angle_formula_and_fit_agree():
    theta, alpha = 0.4, math.sqrt(0.4)
    h = protocols.build_heralded(theta, alpha)
    assert abs(h.failure_angle) == pytest.approx(protocols.failure_angle(theta, alpha), abs=1e-9)


def test_failure_angle_alpha_equals_theta():
    assert protocols.failure_angle(0.8, 0.8) == pytest.approx(0.8, abs=1e-12)


def test_failure_angle_monotone_in_alpha():
    theta = 0.5
    values = [protocols.failure_angle(theta, a) for a in np.linspace(0.1, 1.4, 12)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_heralded_round_profile_is_two_alternating():
    h = protocols.build_heralded(0.5, 0.6)
    prof = classify_rounds(h.program)
    assert (prof.round_count, prof.kind) == (2, "b")


def test_heralded_ledger_charges_resource_entropy(rng):
    alpha = 0.8
    h = protocols.build_heralded(0.5, alpha)
    led = ledger(h.program, run_exhaustive(h.program, random_referee_state(rng)))
    assert led.expected_ebits == pytest.approx(
        qmath.binary_entropy(math.cos(alpha / 2) ** 2), abs=1e-9
    )


def test_heralded_alone_has_positive_error(rng):
    theta = 0.3
    h = protocols.build_heralded(theta, math.sqrt(theta))
    err = protocol_error(h.program, zz_phase_gate(theta), random_referee_state(rng))
    p = h.success_prob
    assert err > 1e-3
    # mixture fidelity: success branch contributes p, failure branch the overlap
    assert err < 1 - p


# ---------------------------------------------------------------- controlled phase (deterministic)


@given(st.floats(-2.5, 2.5))
@settings(max_examples=10, deadline=None)
def test_controlled_phase_exact_on_both_branches(phi):
    prog = protocols.build_controlled_phase(phi)
    rng = np.random.default_rng(99)
    inp = random_referee_state(rng)
    tree = run_exhaustive(prog, inp)
    assert len(tree.leaves) == 4
    expected = inp.apply_unitary(protocols.controlled_phase_target(phi).matrix, ("A", "B"))
    for leaf in tree.leaves:
        assert abs(expected.overlap(leaf.state)) ** 2 > 1 - 1e-10


def test_controlled_phase_consumes_one_bell(rng):
    prog = protocols.build_controlled_phase(0.9)
    led = ledger(prog, run_exhaustive(prog, random_referee_state(rng)))
    assert led.expected_ebits == pytest.approx(1.0, abs=1e-9)


def test_controlled_phase_round_profile(rng):
    prof = classify_rounds(protocols.build_controlled_phase(0.4))
    assert (prof.round_count, prof.kind) == (2, "b")
    # Bob talks first: the two rounds run b->a then a->b
    assert prof.directions == ("b->a", "a->b")


def test_dressing_identity_at_zero():
    d = protocols.local_dressing(0.0)
    np.testing.assert_allclose(d.v_a.matrix, np.eye(2), atol=1e-12)
    assert d.controlled_angle == 0.0


@given(st.floats(-3.0, 3.0))
@settings(max_examples=25, deadline=None)
def test_dressing_reconstructs_zz_gate(phi):
    d = protocols.local_dressing(phi)
    lhs = np.kron(d.v_a.matrix, d.v_b.matrix) @ protocols.controlled_phase_target(d.controlled_angle).matrix
    rhs = np.exp(1j * d.phase) * zz_phase_gate(phi).matrix
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_dressing_factors_are_single_qubit():
    d = protocols.local_dressing(1.3)
    assert d.v_a.matrix.shape == (2, 2)
    assert d.v_b.matrix.shape == (2, 2)


# ---------------------------------------------------------------- composite retry protocol


@pytest.mark.parametrize("theta", [0.1, 0.3, 0.7, math.pi / 2])
def test_composite_exact_on_all_branches(theta, rng):
    prog = protocols.build_composite(theta)
    target = zz_phase_gate(theta)
    for _ in range(3):
        inp = random_referee_state(rng)
        assert protocol_error(prog, target, inp) < 1e-9


def test_composite_expected_ebits_matches_curve(rng):
    for theta in (0.2, 0.5, 1.1):
        prog = protocols.build_composite(theta)
        led = ledger(prog, run_exhaustive(prog, random_referee_state(rng)))
        assert led.expected_ebits == pytest.approx(analysis.expected_ebits(theta).e_bar, abs=1e-9)


def test_composite_round_profile_three_alternating():
    prof = classify_rounds(protocols.build_composite(0.5))
    assert (prof.round_count, prof.kind) == (3, "c")


def test_composite_monotonicity_diagnostic(rng):
    prog = protocols.build_composite(0.6)
    tree = run_exhaustive(prog, random_referee_state(rng))
    assert engine.entanglement_monotonicity_gap(tree) >= -1e-8


# ---------------------------------------------------------------- clifford protocol


@pytest.mark.parametrize("gate_fn", [cnot_gate, swap_gate])
def test_clifford_protocol_exact_qubits(gate_fn, rng):
    gate = gate_fn()
    prog = protocols.build_clifford(gate)
    lay = SystemLayout([("A", 2, ALICE), ("B", 2, BOB), ("R", 4, REFEREE)])
    inp = random_pure_state(lay, rng)
    assert protocol_error(prog, GateSpec(gate.matrix, ("A", "B")), inp) < 1e-10
    tree = run_exhaustive(prog, inp)
    assert len(tree.leaves) == 16
    for leaf in tree.leaves:
        assert leaf.probability == pytest.approx(1 / 16, abs=1e-10)


def test_clifford_protocol_ledger_and_rounds(rng):
    gate = cnot_gate()
    prog = protocols.build_clifford(gate)
    lay = SystemLayout([("A", 2, ALICE), ("B", 2, BOB), ("R", 4, REFEREE)])
    inp = random_pure_state(lay, rng)
    led = ledger(prog, run_exhaustive(prog, inp))
    assert led.expected_ebits == pytest.approx(gate_entanglement(gate), abs=1e-9)
    prof = classify_rounds(prog)
    assert (prof.round_count, prof.kind) == (1, "d")


def test_clifford_serialization_preserves_tree(rng):
    prog = protocols.build_clifford(cnot_gate())
    seq = engine.serialize_simultaneous(prog)
    assert classify_rounds(seq).kind == "b"
    lay = SystemLayout([("A", 2, ALICE), ("B", 2, BOB), ("R", 4, REFEREE)])
    inp = random_pure_state(lay, rng)
    assert trees_equal(run_exhaustive(prog, inp), run_exhaustive(seq, inp))


def test_clifford_rejects_non_clifford_gate():
    with pytest.raises(ValueError, match="Clifford"):
        protocols.build_clifford(zz_phase_gate(0.3))


# ---------------------------------------------------------------- dilution


def test_dilution_uniform_target_is_identity():
    prog = protocols.nielsen_dilution([0.25] * 4, 2)
    assert len(prog.steps) == 0


def test_dilution_reaches_target_spectrum():
    target = [0.4, 0.3, 0.2, 0.1]
    prog = protocols.nielsen_dilution(target, 2)
    tree = run_exhaustive(prog)
    for leaf in tree.leaves:
        np.testing.assert_allclose(
            qmath.schmidt_coefficients(leaf.state, ["a"]), target, atol=1e-9
        )
    assert tree.total_probability() == pytest.approx(1.0, abs=1e-9)


def test_dilution_product_target_disentangles():
    prog = protocols.nielsen_dilution([1.0, 0.0], 1)
    tree = run_exhaustive(prog)
    for leaf in tree.leaves:
        coeffs = qmath.schmidt_coefficients(leaf.state, ["a"])
        assert coeffs[0] == pytest.approx(1.0, abs=1e-9)


def test_dilution_rejects_unreachable_target():
    with pytest.raises(ValueError, match="majorized"):
        protocols.nielsen_dilution([0.2] * 5, 2)


def test_dilution_entropy_never_exceeds_k(rng):
    for _ in range(5):
        raw = np.sort(rng.dirichlet(np.ones(4)))[::-1]
        prog = protocols.nielsen_dilution(raw, 2)
        tree = run_exhaustive(prog)
        for leaf in tree.leaves:
            ent = qmath.entanglement_entropy(leaf.state, ["a"])
            assert ent <= 2.0 + 1e-9
            assert ent == pytest.approx(qmath.shannon_entropy(raw), abs=1e-9)


def test_dilution_is_one_round_forward():
    prog = protocols.nielsen_dilution([0.5, 0.3, 0.1, 0.1], 2)
    prof = classify_rounds(prog)
    assert (prof.round_count, prof.kind) == (1, "a")


# ---------------------------------------------------------------- batched protocol


def test_batch_budget_fields():
    plan = protocols.build_batch(0.5, 4, 0.2)
    p = analysis.success_probability(0.5)
    h = qmath.binary_entropy(analysis.resource_spectrum(0.5)[0])
    assert plan.bell_budget == pytest.approx(4 * (1 - p + h + 0.4), abs=1e-12)
    assert plan.dilution_ebits == pytest.approx(4 * (h + 0.2), abs=1e-12)
    assert plan.program is None  # n = 4 exceeds the simulation cap


def test_batch_rejects_empty_typical_set():
    with pytest.raises(ValueError, match="typical"):
        protocols.build_batch(0.5, 3, 0.2)


def test_batch_single_copy_matches_composite(rng):
    theta = 0.5
    plan = protocols.build_batch(theta, 1, 2.6)
    assert plan.typical_count == 2  # both single-bit strings typical
    comp = protocols.build_composite(theta)

    lay1 = SystemLayout([("A1", 2, ALICE), ("B1", 2, BOB), ("R", 4, REFEREE)])
    inp1 = random_pure_state(lay1, rng)
    inp_comp = inp1.renamed({"A1": "A", "B1": "B"})

    err_batch = protocols.batch_error(plan, inp1)
    err_comp = protocol_error(comp, zz_phase_gate(theta), inp_comp)
    assert err_batch < 1e-9 and err_comp < 1e-9

    tree_b = run_exhaustive(plan.program, inp1)
    tree_c = run_exhaustive(comp, inp_comp)
    assert sorted(l.probability for l in tree_b.leaves) == pytest.approx(
        sorted(l.probability for l in tree_c.leaves), abs=1e-9
    )
    led_b = ledger(plan.program, tree_b)
    led_c = ledger(comp, tree_c)
    assert led_b.expected_ebits == pytest.approx(led_c.expected_ebits, abs=1e-9)


def test_batch_single_copy_follows_composite_outcomes(rng):
    # One idle convention: a slot's steps give the composite's outcomes leaf by leaf.
    theta = 0.5
    plan = protocols.build_batch(theta, 1, 2.6)
    comp = protocols.build_composite(theta)
    inp1 = random_pure_state(SystemLayout([("A1", 2, ALICE), ("B1", 2, BOB), ("R", 4, REFEREE)]), rng)
    tree_b = run_exhaustive(plan.program, inp1)
    tree_c = run_exhaustive(comp, inp1.renamed({"A1": "A", "B1": "B"}))
    assert len(tree_b.leaves) == len(tree_c.leaves)
    for leaf_b, leaf_c in zip(tree_b.leaves, tree_c.leaves):
        assert [o for _, o in leaf_b.transcript] == [o for _, o in leaf_c.transcript]
        assert leaf_b.probability == pytest.approx(leaf_c.probability, abs=1e-12)


def test_batch_two_copies_error_within_analytic_bound(rng):
    theta, n, delta = 0.5, 2, 1.2
    plan = protocols.build_batch(theta, n, delta)
    assert plan.typical_count == 3
    lay = SystemLayout(
        [("A1", 2, ALICE), ("A2", 2, ALICE), ("B1", 2, BOB), ("B2", 2, BOB)]
    )
    for _ in range(3):
        inp = random_pure_state(lay, rng)
        err = protocols.batch_error(plan, inp)
        assert 0.0 < err <= plan.error_bound
    prof = classify_rounds(plan.program)
    assert (prof.round_count, prof.kind) == (3, "c")


def test_batch_program_passes_validation():
    plan = protocols.build_batch(0.5, 2, 1.2)
    assert engine.validate_program(plan.program) is None


# ---------------------------------------------------------------- composition round structure


def test_heralded_then_correction_composes_to_three_rounds():
    h = protocols.build_heralded(0.5, 0.7)
    p2 = protocols.build_controlled_phase(0.3, labels=("a2", "b2"))
    merged = engine.compose_merge(h.program, p2)
    prof = classify_rounds(merged)
    # a->b, b->a merged with b->a, a->b
    assert (prof.round_count, prof.kind) == (3, "c")


def test_dilution_heralded_correction_compose_to_three_rounds():
    dil = protocols.nielsen_dilution([0.4, 0.3, 0.2, 0.1], 2, labels=("da", "db"))
    h = protocols.build_heralded(0.5, 0.7)
    p2 = protocols.build_controlled_phase(0.3, labels=("a2", "b2"))
    merged = engine.compose_merge(engine.compose_merge(dil, h.program), p2)
    prof = classify_rounds(merged)
    assert (prof.round_count, prof.kind) == (3, "c")


@pytest.mark.slow
def test_batch_three_copies_error_within_analytic_bound(rng):
    # 18-qubit exhaustive tree; takes about half a minute
    theta, n, delta = 0.5, 3, 0.7
    plan = protocols.build_batch(theta, n, delta)
    lay = SystemLayout(
        [(f"A{i}", 2, ALICE) for i in (1, 2, 3)] + [(f"B{i}", 2, BOB) for i in (1, 2, 3)]
    )
    inp = random_pure_state(lay, rng)
    err = protocols.batch_error(plan, inp)
    assert 0.0 < err <= plan.error_bound
    prof = classify_rounds(plan.program)
    assert (prof.round_count, prof.kind) == (3, "c")
