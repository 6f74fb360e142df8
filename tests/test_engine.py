import json
import math

import numpy as np
import pytest

from loccgate import engine, protocols, qmath
from loccgate.engine import (
    CausalityViolation,
    EngineError,
    LocalInstrument,
    ProtocolProgram,
    ProtocolStep,
    classify_rounds,
    compose_merge,
    ledger,
    program_from_json,
    program_to_json,
    projective_instrument,
    protocol_error,
    run_exhaustive,
    serialize_simultaneous,
    trees_equal,
    unitary_instrument,
    validate_program,
)
from loccgate.model import (
    GateSpec,
    SZ,
    bell_pair,
    cnot_gate,
    qudit_cz_gate,
    random_pure_state,
    swap_gate,
)
from loccgate.systems import ALICE, BOB, REFEREE, PureState, SystemLayout

PLUS = np.array([1.0, 1.0]) / math.sqrt(2)
MINUS = np.array([1.0, -1.0]) / math.sqrt(2)


def qubit_layout(*spec):
    return SystemLayout([(lb, 2, owner) for lb, owner in spec])


def plus_state(layout):
    vec = np.full(layout.dim, 1.0 / math.sqrt(layout.dim), dtype=complex)
    return PureState(layout, vec)


# ---------------------------------------------------------------- instruments


def test_instrument_requires_completeness():
    lay = qubit_layout(("A", ALICE))
    inst = LocalInstrument(ALICE, ("A",), [("only", np.diag([1.0, 0.5]))])
    with pytest.raises(EngineError, match="completeness"):
        inst.validate_on(lay)


def test_instrument_rejects_foreign_factor():
    lay = qubit_layout(("A", ALICE), ("B", BOB))
    inst = unitary_instrument(ALICE, ("B",), np.eye(2))
    with pytest.raises(EngineError, match="owned"):
        inst.validate_on(lay)


def test_instrument_rejects_referee_party():
    with pytest.raises(EngineError):
        LocalInstrument(REFEREE, ("R",), [("x", np.eye(2))])


# ---------------------------------------------------------------- validation


def test_single_local_step_is_valid():
    lay = qubit_layout(("A", ALICE))
    prog = ProtocolProgram(lay, steps=[ProtocolStep("u", ALICE, instrument=unitary_instrument(ALICE, ("A",), SZ))])
    assert validate_program(prog) is None


def test_conditioning_without_message_is_flagged():
    lay = qubit_layout(("A", ALICE), ("B", BOB))
    steps = [
        ProtocolStep(
            "meas_a", ALICE,
            instrument=projective_instrument(ALICE, ("A",), {"p": PLUS, "m": MINUS}),
            sends_message=False,
        ),
        ProtocolStep(
            "bob", BOB,
            instrument_fn=lambda v: unitary_instrument(BOB, ("B",), SZ if v["meas_a"] == "m" else np.eye(2)),
            condition_on=("meas_a",),
        ),
    ]
    violation = validate_program(ProtocolProgram(lay, steps=steps))
    assert isinstance(violation, CausalityViolation)
    assert violation.step_name == "bob"


def test_condition_must_reference_earlier_step():
    lay = qubit_layout(("A", ALICE))
    steps = [
        ProtocolStep(
            "a", ALICE,
            instrument_fn=lambda v: unitary_instrument(ALICE, ("A",), np.eye(2)),
            condition_on=("later",),
        ),
    ]
    violation = validate_program(ProtocolProgram(lay, steps=steps))
    assert violation is not None and "earlier" in violation.reason


def test_simultaneous_needs_cross_direction_independence():
    lay = qubit_layout(("A", ALICE), ("B", BOB))
    meas = lambda party, lb: projective_instrument(party, (lb,), {"p": PLUS, "m": MINUS})
    good = ProtocolProgram(
        lay,
        steps=[
            ProtocolStep("ma", ALICE, instrument=meas(ALICE, "A"), sends_message=True),
            ProtocolStep("mb", BOB, instrument=meas(BOB, "B"), sends_message=True,
                         simultaneous_with_prev=True),
        ],
    )
    assert validate_program(good) is None
    bad = ProtocolProgram(
        lay,
        steps=[
            ProtocolStep("ma", ALICE, instrument=meas(ALICE, "A"), sends_message=True),
            ProtocolStep(
                "mb", BOB,
                instrument_fn=lambda v: meas(BOB, "B"),
                condition_on=("ma",),
                sends_message=True,
                simultaneous_with_prev=True,
            ),
        ],
    )
    violation = validate_program(bad)
    assert violation is not None and "simultaneous" in violation.reason


# ---------------------------------------------------------------- simulation


def test_empty_program_single_leaf(rng):
    lay = qubit_layout(("A", ALICE))
    st = random_pure_state(lay, rng)
    tree = run_exhaustive(ProtocolProgram(lay), st)
    assert len(tree.leaves) == 1
    leaf = tree.leaves[0]
    assert leaf.probability == pytest.approx(1.0)
    assert abs(abs(leaf.state.overlap(st)) - 1.0) < 1e-12


def test_projective_measurement_of_plus_state():
    lay = qubit_layout(("A", ALICE))
    prog = ProtocolProgram(
        lay,
        steps=[
            ProtocolStep(
                "m", ALICE,
                instrument=projective_instrument(
                    ALICE, ("A",), {"zero": np.array([1.0, 0]), "one": np.array([0, 1.0])}
                ),
            )
        ],
    )
    tree = run_exhaustive(prog, plus_state(lay))
    probs = sorted(l.probability for l in tree.leaves)
    assert probs == pytest.approx([0.5, 0.5])


def test_zero_probability_branches_pruned():
    lay = qubit_layout(("A", ALICE))
    st = PureState(lay, [1.0, 0.0])
    prog = ProtocolProgram(
        lay,
        steps=[
            ProtocolStep(
                "m", ALICE,
                instrument=projective_instrument(
                    ALICE, ("A",), {"zero": np.array([1.0, 0]), "one": np.array([0, 1.0])}
                ),
            )
        ],
    )
    tree = run_exhaustive(prog, st)
    assert len(tree.leaves) == 1
    assert dict(tree.leaves[0].transcript)["m"] == "zero"


def test_leaf_probabilities_sum_to_one(rng):
    lay = qubit_layout(("A", ALICE), ("B", BOB))
    steps = [
        ProtocolStep("ma", ALICE, instrument=projective_instrument(ALICE, ("A",), {"p": PLUS, "m": MINUS}), sends_message=True),
        ProtocolStep("mb", BOB, instrument=projective_instrument(BOB, ("B",), {"p": PLUS, "m": MINUS}), sends_message=True),
    ]
    tree = run_exhaustive(ProtocolProgram(lay, steps=steps), random_pure_state(lay, rng))
    assert tree.total_probability() == pytest.approx(1.0, abs=1e-9)
    rho = tree.average_output()
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-9)


def test_referee_factors_cannot_be_touched(rng):
    lay = SystemLayout([("A", 2, ALICE), ("R", 2, REFEREE)])
    prog = ProtocolProgram(
        lay, steps=[ProtocolStep("bad", ALICE, instrument=unitary_instrument(ALICE, ("R",), SZ))]
    )
    assert validate_program(prog) is not None
    with pytest.raises(EngineError):
        run_exhaustive(prog, random_pure_state(lay, rng))


def test_unknown_label_is_a_violation_not_a_key_error(rng):
    lay = qubit_layout(("A", ALICE))
    prog = ProtocolProgram(lay, steps=[ProtocolStep("u", ALICE, instrument=unitary_instrument(ALICE, ("Z",), SZ))])
    violation = validate_program(prog)
    assert isinstance(violation, CausalityViolation)
    assert "unknown label 'Z'" in violation.reason
    with pytest.raises(EngineError, match="unknown label 'Z'"):
        run_exhaustive(prog, random_pure_state(lay, rng))


def test_conditioned_instrument_on_unknown_label_raises_engine_error(rng):
    lay = qubit_layout(("A", ALICE), ("B", BOB))
    steps = [
        ProtocolStep("ma", ALICE, instrument=projective_instrument(ALICE, ("A",), {"p": PLUS, "m": MINUS}), sends_message=True),
        ProtocolStep("fix", BOB, instrument_fn=lambda v: unitary_instrument(BOB, ("Z",), SZ), condition_on=("ma",)),
    ]
    with pytest.raises(EngineError, match="unknown label 'Z'"):
        run_exhaustive(ProtocolProgram(lay, steps=steps), random_pure_state(lay, rng))


def test_initial_state_extras_must_be_referee(rng):
    lay = qubit_layout(("A", ALICE))
    prog = ProtocolProgram(lay)
    bad_lay = qubit_layout(("A", ALICE), ("X", BOB))
    with pytest.raises(EngineError, match="referee"):
        run_exhaustive(prog, random_pure_state(bad_lay, rng))


def test_consumed_labels_factor_out(rng):
    lay = qubit_layout(("A", ALICE), ("anc", ALICE))
    steps = [
        ProtocolStep(
            "m", ALICE,
            instrument=projective_instrument(
                ALICE, ("anc",), {"zero": np.array([1.0, 0]), "one": np.array([0, 1.0])}
            ),
        )
    ]
    prog = ProtocolProgram(lay, steps=steps, consumed=("anc",))
    tree = run_exhaustive(prog, random_pure_state(lay, rng))
    for leaf in tree.leaves:
        assert leaf.state.layout.labels == ("A",)


# ---------------------------------------------------------------- rounds


def _msg(name, party, label, simultaneous=False):
    return ProtocolStep(
        name, party,
        instrument=projective_instrument(party, (label,), {"p": PLUS, "m": MINUS}),
        sends_message=True,
        simultaneous_with_prev=simultaneous,
    )


def test_no_message_program_is_type_other():
    lay = qubit_layout(("A", ALICE))
    prof = classify_rounds(
        ProtocolProgram(lay, steps=[ProtocolStep("u", ALICE, instrument=unitary_instrument(ALICE, ("A",), SZ))])
    )
    assert (prof.round_count, prof.kind) == (0, "other")


def test_one_directed_round_is_type_a():
    lay = qubit_layout(("A", ALICE), ("A2", ALICE))
    prof = classify_rounds(
        ProtocolProgram(lay, steps=[_msg("m1", ALICE, "A"), _msg("m2", ALICE, "A2")])
    )
    assert (prof.round_count, prof.kind) == (1, "a")


def test_alternating_rounds_classify_b_and_c():
    lay = qubit_layout(("A", ALICE), ("B", BOB), ("A2", ALICE))
    two = ProtocolProgram(lay, steps=[_msg("m1", ALICE, "A"), _msg("m2", BOB, "B")])
    assert classify_rounds(two).kind == "b"
    three = ProtocolProgram(
        lay, steps=[_msg("m1", ALICE, "A"), _msg("m2", BOB, "B"), _msg("m3", ALICE, "A2")]
    )
    assert classify_rounds(three).kind == "c"


def test_simultaneous_pair_is_type_d():
    lay = qubit_layout(("A", ALICE), ("B", BOB))
    prog = ProtocolProgram(
        lay, steps=[_msg("ma", ALICE, "A"), _msg("mb", BOB, "B", simultaneous=True)]
    )
    prof = classify_rounds(prog)
    assert (prof.round_count, prof.kind) == (1, "d")
    assert prof.directions == ("both",)


def test_classification_ignores_silent_steps():
    lay = qubit_layout(("A", ALICE), ("B", BOB))
    base = [_msg("m1", ALICE, "A"), _msg("m2", BOB, "B")]
    with_silent = [
        base[0],
        ProtocolStep("u", ALICE, instrument=unitary_instrument(ALICE, ("A",), SZ)),
        base[1],
    ]
    a = classify_rounds(ProtocolProgram(lay, steps=base))
    b = classify_rounds(ProtocolProgram(lay, steps=with_silent))
    assert (a.round_count, a.kind) == (b.round_count, b.kind)


def test_serialize_simultaneous_preserves_tree(rng):
    lay = qubit_layout(("A", ALICE), ("B", BOB))
    prog = ProtocolProgram(
        lay, steps=[_msg("ma", ALICE, "A"), _msg("mb", BOB, "B", simultaneous=True)]
    )
    seq = serialize_simultaneous(prog)
    assert classify_rounds(seq).kind == "b"
    st = random_pure_state(lay, rng)
    assert trees_equal(run_exhaustive(prog, st), run_exhaustive(seq, st))


def test_serialize_leaves_sequential_programs_alone():
    lay = qubit_layout(("A", ALICE), ("B", BOB))
    prog = ProtocolProgram(lay, steps=[_msg("ma", ALICE, "A"), _msg("mb", BOB, "B")])
    assert serialize_simultaneous(prog) is prog


# ---------------------------------------------------------------- composition


def test_compose_concatenates_and_merges_rounds():
    lay1 = qubit_layout(("A", ALICE), ("B", BOB))
    first = ProtocolProgram(lay1, steps=[_msg("m1", ALICE, "A")])
    lay2 = qubit_layout(("A", ALICE), ("A2", ALICE), ("B", BOB))
    second = ProtocolProgram(lay2, steps=[_msg("m2", ALICE, "A2"), _msg("m3", BOB, "B")])
    merged = compose_merge(first, second)
    prof = classify_rounds(merged)
    assert (prof.round_count, prof.kind) == (2, "b")


def test_compose_with_empty_program_keeps_profile():
    lay = qubit_layout(("A", ALICE), ("B", BOB))
    prog = ProtocolProgram(lay, steps=[_msg("m1", ALICE, "A"), _msg("m2", BOB, "B")])
    merged = compose_merge(prog, ProtocolProgram(qubit_layout(("A", ALICE))))
    before, after = classify_rounds(prog), classify_rounds(merged)
    assert (before.round_count, before.kind) == (after.round_count, after.kind)


def test_compose_rejects_resource_conflicts():
    res = bell_pair(2, ("a", "b"))
    lay = SystemLayout([("a", 2, ALICE), ("b", 2, BOB)])
    first = ProtocolProgram(lay, resources=(res,))
    second = ProtocolProgram(lay, resources=(res,))
    with pytest.raises(EngineError, match="conflict"):
        compose_merge(first, second)


# ---------------------------------------------------------------- accounting


def test_ledger_fully_consumed_bell_costs_one():
    lay = SystemLayout([("a", 2, ALICE), ("b", 2, BOB)])
    steps = [
        ProtocolStep(
            "ma", ALICE,
            instrument=projective_instrument(ALICE, ("a",), {"0": np.array([1.0, 0]), "1": np.array([0, 1.0])}),
            sends_message=True,
        ),
        ProtocolStep(
            "mb", BOB,
            instrument=projective_instrument(BOB, ("b",), {"0": np.array([1.0, 0]), "1": np.array([0, 1.0])}),
        ),
    ]
    prog = ProtocolProgram(lay, resources=(bell_pair(2, ("a", "b")),), steps=steps, consumed=("a", "b"))
    tree = run_exhaustive(prog)
    led = ledger(prog, tree)
    assert led.resource_ebits == pytest.approx(1.0)
    assert led.expected_ebits == pytest.approx(1.0, abs=1e-9)


def test_ledger_untouched_bell_costs_nothing(rng):
    lay = SystemLayout([("A", 2, ALICE), ("a", 2, ALICE), ("b", 2, BOB)])
    prog = ProtocolProgram(
        lay,
        resources=(bell_pair(2, ("a", "b")),),
        steps=[ProtocolStep("u", ALICE, instrument=unitary_instrument(ALICE, ("A",), SZ))],
    )
    inp = random_pure_state(SystemLayout([("A", 2, ALICE)]), rng)
    led = ledger(prog, run_exhaustive(prog, inp))
    assert led.expected_ebits == pytest.approx(0.0, abs=1e-9)


def test_ledger_no_resources_is_zero(rng):
    lay = qubit_layout(("A", ALICE))
    prog = ProtocolProgram(lay)
    led = ledger(prog, run_exhaustive(prog, random_pure_state(lay, rng)))
    assert led.resource_ebits == 0.0
    assert led.expected_ebits == 0.0


def test_ledger_rejects_one_sided_resource():
    lay = SystemLayout([("x", 2, ALICE), ("y", 2, ALICE)])
    res = bell_pair(2, ("x", "y"), (ALICE, ALICE))
    prog = ProtocolProgram(lay, resources=(res,))
    with pytest.raises(EngineError, match="bipartite"):
        ledger(prog, run_exhaustive(prog))


def test_protocol_error_identity_is_zero(rng):
    lay = qubit_layout(("A", ALICE), ("B", BOB))
    prog = ProtocolProgram(lay)
    st = random_pure_state(lay, rng)
    assert protocol_error(prog, GateSpec(np.eye(4), ("A", "B")), st) == pytest.approx(0.0, abs=1e-12)


def test_protocol_error_detects_label_mismatch(rng):
    lay = qubit_layout(("A", ALICE), ("B", BOB))
    prog = ProtocolProgram(lay, consumed=("B",))
    st = PureState(lay, np.kron(np.array([1.0, 0]), np.array([1.0, 0])))
    with pytest.raises(EngineError, match="labels"):
        protocol_error(prog, GateSpec(np.eye(4), ("A", "B")), st)


def test_monotonicity_gap_nonnegative_for_measurement(rng):
    lay = qubit_layout(("A", ALICE), ("B", BOB))
    steps = [
        ProtocolStep("ma", ALICE, instrument=projective_instrument(ALICE, ("A",), {"p": PLUS, "m": MINUS}), sends_message=True),
    ]
    prog = ProtocolProgram(lay, steps=steps)
    tree = run_exhaustive(prog, random_pure_state(lay, rng))
    assert engine.entanglement_monotonicity_gap(tree) >= -1e-8


# ---------------------------------------------------------------- json


def test_json_roundtrip_preserves_semantics(rng):
    lay = qubit_layout(("A", ALICE), ("B", BOB))
    steps = [
        ProtocolStep("ma", ALICE, instrument=projective_instrument(ALICE, ("A",), {"p": PLUS, "m": MINUS}), sends_message=True),
        ProtocolStep(
            "fix", BOB,
            instrument_fn=lambda v: unitary_instrument(BOB, ("B",), SZ if v["ma"] == "m" else np.eye(2)),
            condition_on=("ma",),
        ),
    ]
    prog = ProtocolProgram(lay, steps=steps)
    doc = program_to_json(prog)
    text = json.dumps(doc, sort_keys=True)
    clone = program_from_json(json.loads(text))
    st = random_pure_state(lay, rng)
    assert trees_equal(run_exhaustive(prog, st), run_exhaustive(clone, st))


@pytest.mark.parametrize(
    "path, value",
    [
        (("steps", 2, "name"), None),
        (("layout",), None),
        (("steps", 2, "condition_on"), 5),
        (("layout", 0, "owner"), "carol"),
        (("resources", 0, "amplitudes", "re", 0), 3.0),
    ],
    ids=["missing-step-name", "missing-layout", "condition-on-not-a-list", "unknown-owner", "wrong-norm-amplitude"],
)
def test_program_from_json_rejects_malformed_documents(path, value):
    """One mutation of an exported document each; value None deletes the entry."""
    text = json.dumps(program_to_json(protocols.build_controlled_phase(0.7)))
    program_from_json(json.loads(text))  # the exported document itself loads
    doc = json.loads(text)
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    if value is None:
        del node[last]
    else:
        node[last] = value
    with pytest.raises(EngineError, match="malformed protocol document"):
        program_from_json(doc)


def test_json_export_is_deterministic():
    lay = qubit_layout(("A", ALICE))
    prog = ProtocolProgram(lay, steps=[ProtocolStep("u", ALICE, instrument=unitary_instrument(ALICE, ("A",), SZ))])
    a = json.dumps(program_to_json(prog), sort_keys=True)
    b = json.dumps(program_to_json(prog), sort_keys=True)
    assert a == b


# ---------------------------------------------------------------- oracle


def _svd_factor(vec, dims, keep):
    psi = np.moveaxis(vec.reshape(dims), keep, range(len(keep)))
    mat = psi.reshape(math.prod(dims[p] for p in keep), -1)
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    assert s[0] ** 2 >= 1.0 - engine.LEAF_PURITY_TOL
    out = u[:, 0]
    mags = np.abs(out)
    pivot = out[int(np.argmax(mags >= mags.max() - qmath.PIVOT_TIE_TOL))]
    return out * (abs(pivot) / pivot)


def reference_tree(program, initial=None):
    """Recursive walk with resolve + validate_on at every node and SVD leaves."""
    sim_layout, vec0 = engine._build_initial(program, initial)
    dims = sim_layout.dims
    keep = [i for i, f in enumerate(sim_layout.factors) if f.label not in program.consumed]
    out_layout = SystemLayout([sim_layout.factors[i] for i in keep], dim_cap=None)
    res = [
        (sim_layout.positions(r.layout.labels),
         [j for j, f in enumerate(r.layout.factors) if f.owner is ALICE])
        for r in program.resources
    ]
    leaves = []

    def walk(idx, vec, prob, transcript):
        if idx == len(program.steps):
            remaining = tuple(engine._residual_entanglement(vec, dims, p, a) for p, a in res)
            state = PureState(out_layout, _svd_factor(vec, dims, keep))
            leaves.append(engine.Leaf(transcript, prob, state, remaining, None))
            return
        step = program.steps[idx]
        inst = step.resolve(dict(transcript))
        inst.validate_on(sim_layout)
        pos = sim_layout.positions(inst.labels)
        for outcome, kraus in inst.branches:
            here = transcript + ((step.name, outcome),)
            if len(inst.branches) == 1 and engine._is_identity(kraus):
                walk(idx + 1, vec, prob, here)
                continue
            child = qmath.apply_on_factors(vec, dims, pos, kraus)
            p = float(np.vdot(child, child).real)
            if p > engine.PRUNE_PROB:
                walk(idx + 1, child / math.sqrt(p), prob * p, here)

    walk(0, vec0, 1.0, ())
    return engine.BranchTree(tuple(leaves), 0.0)


ORACLE_BUILDERS = {
    "heralded": lambda: protocols.build_heralded(0.5, 0.7).program,
    "composite": lambda: protocols.build_composite(0.4),
    "controlled-phase": lambda: protocols.build_controlled_phase(0.3),
    "clifford-cnot": lambda: protocols.build_clifford(cnot_gate()),
    "clifford-swap": lambda: protocols.build_clifford(swap_gate()),
    "clifford-qutrit-cz": lambda: protocols.build_clifford(qudit_cz_gate(3)),
    "dilution-k3": lambda: protocols.nielsen_dilution([0.3, 0.2, 0.2, 0.1, 0.1, 0.05, 0.05], 3),
    "batch-n1": lambda: protocols.build_batch(0.5, 1, 2.6).program,
    "batch-n2": lambda: protocols.build_batch(0.5, 2, 1.2).program,
}


@pytest.mark.parametrize("builder", sorted(ORACLE_BUILDERS))
def test_engine_matches_reference_walk(builder, rng):
    program = ORACLE_BUILDERS[builder]()
    inputs = [program.layout.factor(lb) for lb in program.input_labels]
    initial = None
    if inputs:
        initial = random_pure_state(SystemLayout(inputs + [("R", 2, REFEREE)], dim_cap=None), rng)
    tree = run_exhaustive(program, initial)
    ref = reference_tree(program, initial)
    assert trees_equal(tree, ref, tol=1e-10)
    assert [l.transcript for l in tree.leaves] == [l.transcript for l in ref.leaves]
    assert ledger(program, tree) == ledger(program, ref)


# ---------------------------------------------------------------- resolution cache


def _fix_program(fn):
    lay = qubit_layout(("A", ALICE), ("B", BOB))
    steps = [
        ProtocolStep("ma", ALICE, instrument=projective_instrument(ALICE, ("A",), {"p": PLUS, "m": MINUS}), sends_message=True),
        ProtocolStep("mb", BOB, instrument=projective_instrument(BOB, ("B",), {"p": PLUS, "m": MINUS})),
        ProtocolStep("fix", BOB, instrument_fn=fn, condition_on=("ma",)),
    ]
    return ProtocolProgram(lay, steps=steps), lay


def test_conditioned_instrument_breaking_completeness_raises(rng):
    def fn(v):
        if v["ma"] == "m":
            return LocalInstrument(BOB, ("B",), [("half", 0.5 * np.eye(2))])
        return unitary_instrument(BOB, ("B",), np.eye(2))

    prog, lay = _fix_program(fn)
    with pytest.raises(EngineError, match="completeness"):
        run_exhaustive(prog, random_pure_state(lay, rng))


def test_instrument_fn_runs_once_per_condition_values(rng):
    calls = []

    def fn(v):
        calls.append(dict(v))
        return unitary_instrument(BOB, ("B",), SZ if v["ma"] == "m" else np.eye(2))

    prog, lay = _fix_program(fn)
    tree = run_exhaustive(prog, random_pure_state(lay, rng))
    assert len(tree.leaves) == 4  # each condition value reached twice
    assert sorted(c["ma"] for c in calls) == ["m", "p"]
    calls.clear()
    run_exhaustive(prog, random_pure_state(lay, rng))
    assert len(calls) == 2  # the cache lives for one run
