import hashlib
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loccgate import analysis, engine, protocols, qmath
from loccgate.engine import classify_rounds, ledger, protocol_error, run_exhaustive, trees_equal
from loccgate.model import (
    I2,
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


def test_fitted_failure_angle_bits_on_a_thousand_angles():
    """The fitted angle's bits, recorded while every build made its probe and fit states afresh.

    They fix the CLI output; ``build_heralded`` now builds those states once
    per process and leaves its probe's entropies uncomputed.
    """
    thetas = np.random.default_rng(2026).uniform(1e-3, math.pi - 1e-3, size=1000)
    text = "\n".join(
        protocols.build_heralded(t, math.sqrt(t)).failure_angle.hex() for t in map(float, thetas)
    )
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "303f024500f5904fd208f142813f6931247f11d7f9b64d50aa2ed605eba85ba2"


def test_heralded_build_computes_no_entropy_and_no_eigh(monkeypatch):
    """The probe's fit reads one leaf's state; no leaf diagnostic is computed for it."""
    calls = []
    for owner, name in ((qmath, "von_neumann_entropy"), (np.linalg, "eigh")):
        inner = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, _inner=inner, _name=name: calls.append(_name) or _inner(*a))
    protocols.build_heralded(0.5, 0.7)
    assert calls == []


def test_failure_angle_alpha_equals_theta():
    assert protocols.failure_angle(0.8, 0.8) == pytest.approx(0.8, abs=1e-12)


def test_failure_angle_monotone_in_alpha():
    theta = 0.5
    values = [protocols.failure_angle(theta, a) for a in np.linspace(0.1, 1.4, 12)]
    assert all(b > a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("theta", [1e-17, 1e-300])
def test_heralded_rejects_angle_whose_failure_branch_is_pruned(theta):
    # the failed branch falls below engine.PRUNE_PROB: a domain error, not an engine fault
    alpha = math.sqrt(theta)
    with pytest.raises(ValueError, match=f"theta {theta!r}, alpha {alpha!r}"):
        protocols.build_heralded(theta, alpha)


@pytest.mark.parametrize("theta", [math.inf, math.nan])
def test_heralded_rejects_a_non_finite_theta_by_name(theta):
    with pytest.raises(ValueError, match="theta .* must be positive and finite"):
        protocols.build_heralded(theta, 0.5)


@pytest.mark.parametrize("theta", [0.05, 0.5, 1.2, 1.5])
def test_heralded_probe_walks_only_the_fitted_transcript(monkeypatch, theta):
    """One build makes 6 kernel calls and 1 leaf factoring.

    A walk of the probe's whole tree made 10 and 4: every transcript of
    the herald, each leaf factored, for one leaf's state.  The first build
    in a process also makes the fit's reference states, once; it is made
    before counting.
    """
    protocols.build_heralded(0.3, math.sqrt(0.3))
    calls = []
    for name in ("apply_on_factors", "factor_pure_state"):
        inner = getattr(qmath, name)
        monkeypatch.setattr(qmath, name, lambda *a, _inner=inner, _name=name: calls.append(_name) or _inner(*a))
    protocols.build_heralded(theta, math.sqrt(theta))
    assert (calls.count("apply_on_factors"), calls.count("factor_pure_state")) == (6, 1)


def test_heralded_fit_residual_stays_an_engine_error(monkeypatch):
    monkeypatch.setattr(protocols, "fit_zz_rotation", lambda state: (0.0, 1.0))
    with pytest.raises(engine.EngineError, match="not a ZZ rotation"):
        protocols.build_heralded(0.5, 0.7)


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
@settings(max_examples=10)
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
@settings(max_examples=25)
def test_dressing_reconstructs_zz_gate(phi):
    d = protocols.local_dressing(phi)
    lhs = np.kron(d.v_a.matrix, I2) @ protocols.controlled_phase_target(d.controlled_angle).matrix
    rhs = np.exp(1j * d.phase) * zz_phase_gate(phi).matrix
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_dressing_factors_are_single_qubit():
    d = protocols.local_dressing(1.3)
    assert d.v_a.matrix.shape == (2, 2)


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


@pytest.mark.parametrize("k", [7, 8, 100])
def test_dilution_rejects_k_beyond_the_size_cap_before_building(k):
    # the 2^k x 2^k pair exceeds the layout cap: no 2^k-sized array may be built first
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exceeds cap"):
        protocols.nielsen_dilution([0.5, 0.5], k)
    assert time.perf_counter() - start < 0.1


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


def test_build_batch_reuses_its_typical_set(monkeypatch):
    calls = []
    typical_set = analysis.typical_set

    def counted(*args):
        calls.append(args)
        return typical_set(*args)

    monkeypatch.setattr(analysis, "typical_set", counted)
    plan = protocols.build_batch(0.5, 2, 1.2)
    assert plan.omega is not None
    assert len(calls) == 1  # the plan's own, handed on to error_budget


def test_build_batch_leaves_the_typical_count_unsummed():
    # the exact count sums big integers along every typical run: quadratic in n
    plan = protocols.build_batch(0.3, 2**20, 0.0894)
    assert "count" not in vars(plan.typical_set)


def _step_instruments(program):
    """Step name -> the set of distinct instruments in its table."""
    return {step.name: set(step.table.values()) for step in program.steps}


def _angle_dependent(name):
    """The herald measurement, the controlled rotation and the dressing depend on theta."""
    return name.endswith(("_rot", "_dress")) or (name.startswith("s") and name.endswith("_meas_b"))


def test_batch_programs_share_exactly_the_angle_independent_instruments():
    first, second = (protocols.build_batch(theta, 2, 1.2).program for theta in (0.5, 0.9))
    a, b = _step_instruments(first), _step_instruments(second)
    assert a.keys() == b.keys()
    assert sum(map(_angle_dependent, a)) == 2 + 2 * 2  # two heralds; rot and dress in two slots
    for name in a:
        if not _angle_dependent(name):
            assert a[name] == b[name], name
            continue
        active = {inst for inst in a[name] if inst.outcomes != ("skip",)}
        assert active and active.isdisjoint(b[name]), name
    cz = first.steps[0].table[()]
    assert first.steps[0].name == "s1_cz_a" and second.steps[0].table[()] is cz
    with pytest.raises(engine.EngineError, match="owned by bob"):
        cz.validate_on(SystemLayout([("a1", 2, BOB), ("A1", 2, ALICE)]))
    # each distinct active instrument of a gated step is built once: slot 0's
    # rotation acts on the first failed copy, A1 or A2, over three active entries
    rot = {s.name: s.table for s in first.steps}["p0_rot"]
    assert sum(inst.outcomes != ("skip",) for inst in rot.values()) == 3
    assert len({i for i in rot.values() if i.outcomes != ("skip",)}) == 2
    # the angle-independent steps themselves are kept per structure
    for one, other in zip(first.steps, second.steps):
        assert (one is other) is not _angle_dependent(one.name), one.name
    # both rebind the program kept for (n, pool) = (2, 2), only at the angle-dependent
    # steps, and share its record; the Bell pool is the kept program's
    kept = protocols._kept_batch(2, 2)
    for prog in (first, second):
        assert prog._record is kept._record
        rebuilt = {one.name for one, other in zip(prog.steps, kept.steps) if one is not other}
        assert rebuilt == {name for name in a if _angle_dependent(name)}
        assert all(one is other for one, other in zip(prog.resources[1:], kept.resources[1:]))
        assert prog.resources[0] is not kept.resources[0]
    # within one build the herald, the rotation and the dressing are each one
    # set of Kraus operators, moved onto every copy and slot
    for kind in ("_meas_b", "_rot", "_dress"):
        moved = {
            inst for name, insts in a.items() if _angle_dependent(name) and name.endswith(kind)
            for inst in insts if inst.outcomes != ("skip",)
        }
        assert len(moved) == (2 if kind == "_meas_b" else 3), kind
        assert len({id(inst.branches) for inst in moved}) == 1, kind


def test_no_builder_cache_is_keyed_on_an_angle():
    caches = {name: fn for name, fn in vars(protocols).items() if hasattr(fn, "cache_info")}
    # the kept programs are the one sharing layer; the others are keyed on labels or on nothing
    assert caches.keys() == {
        "_kept_batch", "_kept_heralded", "_kept_composite", "_kept_controlled_phase",
        "_reference", "_probe", "_zz_probe",
    }
    assert not {"_batch_frame", "_heralded_frame", "_controlled_phase_frame"} & vars(protocols).keys()
    thetas = np.random.default_rng(31).uniform(0.05, math.pi / 2, size=50)
    builders = {
        "batch-n1": lambda theta: protocols.build_batch(theta, 1, 2.6),  # pool = n at every angle
        "batch-n2": lambda theta: protocols.build_batch(theta, 2, 1.2),
        "heralded": lambda theta: protocols.build_heralded(theta, 0.8),
        "composite": protocols.build_composite,
        "controlled_phase": protocols.build_controlled_phase,
    }
    for name, build in builders.items():
        build(float(thetas[0]))
        misses = {cache: fn.cache_info().misses for cache, fn in caches.items()}
        for theta in thetas[1:]:
            build(float(theta))
        assert {cache: fn.cache_info().misses for cache, fn in caches.items()} == misses, name


def test_a_second_build_checks_and_plans_nothing_again(monkeypatch, rng):
    """After one build and error of a structure, the next at another theta reuses its check and walk plans."""
    inp = random_pure_state(SystemLayout([("A1", 2, ALICE), ("A2", 2, ALICE), ("B1", 2, BOB), ("B2", 2, BOB)]), rng)
    protocols.batch_error(protocols.build_batch(0.5, 2, 1.2), inp)
    records = [protocols._kept_batch(2, 2)._record, protocols._kept_heralded()._record]
    plans = [dict(record.plans) for record in records]
    assert all(plans)
    checks, made = [], []
    first_violation, plan = engine._first_violation, engine._Plan
    monkeypatch.setattr(engine, "_first_violation", lambda *args: checks.append(args) or first_violation(*args))
    monkeypatch.setattr(engine, "_Plan", lambda: made.append(1) or plan())
    second = protocols.build_batch(0.9, 2, 1.2)
    err = protocols.batch_error(second, inp)
    assert checks == [] and made == []
    assert [dict(record.plans) for record in records] == plans
    assert engine.validate_program(second.program) is None and 0.0 < err <= second.error_bound


@pytest.mark.parametrize(
    "theta, n, delta, name",
    [
        (0.5, 2, math.inf, "delta"),
        (0.5, 2, math.nan, "delta"),
        (0.5, 2, 0.0, "delta"),
        (0.5, 1.5, 1.2, "n"),
        (0.5, 0, 1.2, "n"),
        (-0.5, 2, 1.2, "theta"),
        (math.nan, 2, 1.2, "theta"),
        (0.0, 2, 1.2, "theta"),
    ],
)
def test_build_batch_rejects_a_bad_input_by_name(theta, n, delta, name):
    with pytest.raises(ValueError, match=f"^{name} "):
        protocols.build_batch(theta, n, delta)


def test_instruments_hold_read_only_kraus_operators():
    program = protocols.build_batch(0.5, 2, 1.2).program
    for instruments in _step_instruments(program).values():
        for inst in instruments:
            for _, kraus in inst.branches:
                assert not kraus.flags.writeable
                with pytest.raises(ValueError):
                    kraus[0, 0] = 2.0


def test_clifford_fixes_are_built_once_per_correction_value():
    # Alice's fix reads (p', q') and Bob's (r', s'): 9 values each of 81 table entries
    program = protocols.build_clifford(qudit_cz_gate(3))
    instruments = _step_instruments(program)
    tables = {s.name: s.table for s in program.steps}
    for name in ("cl_fix_a", "cl_fix_b"):
        assert len(tables[name]) == 81
        assert len(instruments[name]) == 9
        assert len({inst.branches[0][1].tobytes() for inst in instruments[name]}) == 9


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
    # 18-qubit exhaustive run, walked on cores of at most 2^12 entries with
    # its 1000 transcripts merged into 8 states; batch_error takes about
    # 0.03 s on a 2-CPU x86 VM
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
