import dataclasses
import functools
import json
import math
import re

import numpy as np
import pytest
from click.testing import CliRunner

import oracles
from loccgate import engine, protocols, qmath
from loccgate.cli import main
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
    tabulate,
    trees_equal,
    unitary_instrument,
    validate_program,
)
from loccgate.model import (
    GateSpec,
    SZ,
    bell_pair,
    cnot_gate,
    haar_unitary,
    qudit_cz_gate,
    random_pure_state,
    swap_gate,
    zz_phase_gate,
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


def test_incomplete_instrument_raises_on_every_validate_on():
    """The deviation is worked out once, when the instrument is built; the check still runs on every call."""
    inst = LocalInstrument(ALICE, ("A",), [("only", np.diag([1.0, 0.5]))])
    for lay in (qubit_layout(("A", ALICE)), qubit_layout(("B", BOB), ("A", ALICE)), qubit_layout(("A", ALICE))):
        with pytest.raises(EngineError, match=r"completeness violated \(deviation 7\.500e-01\)"):
            inst.validate_on(lay)


def test_instrument_checks_shapes_before_completeness():
    inst = LocalInstrument(ALICE, ("A",), [("x", np.eye(2)), ("y", np.zeros((4, 4)))])
    with pytest.raises(EngineError, match="branch 'y' has shape"):
        inst.validate_on(qubit_layout(("A", ALICE)))
    with pytest.raises(EngineError, match="completeness"):
        LocalInstrument(ALICE, ("A",), []).validate_on(qubit_layout(("A", ALICE)))


def test_shared_identity_still_checks_its_owner_on_each_layout():
    idle = engine.identity_instrument(ALICE, ("a",), 2)
    assert engine.identity_instrument(BOB, ("a",), 2) is not idle
    idle.validate_on(qubit_layout(("a", ALICE)))
    for _ in range(2):
        with pytest.raises(EngineError, match="owned by bob"):
            idle.validate_on(qubit_layout(("a", BOB)))
    idle.validate_on(qubit_layout(("a", ALICE)))


def test_moved_instrument_shares_its_kraus_data_and_checks_its_new_labels(rng):
    meas = projective_instrument(BOB, ("x",), {"p": PLUS, "m": MINUS})
    moved = meas.on(("b",))
    assert moved is not meas and (moved.party, moved.labels, meas.labels) == (BOB, ("b",), ("x",))
    assert moved.branches is meas.branches and moved._cuts is meas._cuts
    assert (moved._deviation, moved._identity, moved.outcomes) == (meas._deviation, meas._identity, meas.outcomes)
    with pytest.raises(EngineError, match="owned by alice"):
        meas.on(("A",)).validate_on(qubit_layout(("A", ALICE), ("b", BOB)))
    # a run with the moved instrument has the bits of one with a freshly built one
    lay = qubit_layout(("A", ALICE), ("B", BOB), ("a", ALICE), ("b", BOB))
    fresh = projective_instrument(BOB, ("b",), {"p": PLUS, "m": MINUS})
    initial = random_pure_state(qubit_layout(("A", ALICE), ("B", BOB)), rng)
    leaves = []
    for inst in (moved, fresh):
        prog = ProtocolProgram(
            lay, resources=(bell_pair(2, ("a", "b")),), consumed=("a", "b"),
            steps=[ProtocolStep("m", BOB, {(): inst}, sends_message=True)],
        )
        leaves.append([*run_exhaustive(prog, initial).leaves, *engine.output_mixture(prog, initial).leaves])
    assert len(leaves[0]) == 4
    for x, y in zip(*leaves):
        assert (x.transcript, x.probability) == (y.transcript, y.probability)
        assert x.state.vector.tobytes() == y.state.vector.tobytes()


def test_instrument_outcomes_are_stored_once():
    inst = projective_instrument(ALICE, ("A",), {"p": PLUS, "m": MINUS})
    assert inst.outcomes == ("p", "m") and inst.outcomes is inst.outcomes


def test_instrument_rejects_foreign_factor():
    lay = qubit_layout(("A", ALICE), ("B", BOB))
    inst = unitary_instrument(ALICE, ("B",), np.eye(2))
    with pytest.raises(EngineError, match="owned"):
        inst.validate_on(lay)


def test_instrument_rejects_referee_party():
    with pytest.raises(EngineError):
        LocalInstrument(REFEREE, ("R",), [("x", np.eye(2))])


def test_step_rejects_referee_party():
    with pytest.raises(EngineError, match="steps belong to Alice or Bob"):
        ProtocolStep("referee", REFEREE, {})


# ---------------------------------------------------------------- validation


def test_single_local_step_is_valid():
    lay = qubit_layout(("A", ALICE))
    prog = ProtocolProgram(lay, steps=[ProtocolStep("u", ALICE, {(): unitary_instrument(ALICE, ("A",), SZ)})])
    assert validate_program(prog) is None


def test_conditioning_without_message_is_flagged():
    lay = qubit_layout(("A", ALICE), ("B", BOB))
    meas_a = ProtocolStep(
        "meas_a", ALICE,
        {(): projective_instrument(ALICE, ("A",), {"p": PLUS, "m": MINUS})},
        sends_message=False,
    )
    steps = [
        meas_a,
        ProtocolStep(
            "bob", BOB,
            tabulate((meas_a,), lambda m: unitary_instrument(BOB, ("B",), SZ if m == "m" else np.eye(2))),
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
            {("x",): unitary_instrument(ALICE, ("A",), np.eye(2))},
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
            ProtocolStep("ma", ALICE, {(): meas(ALICE, "A")}, sends_message=True),
            ProtocolStep("mb", BOB, {(): meas(BOB, "B")}, sends_message=True,
                         simultaneous_with_prev=True),
        ],
    )
    assert validate_program(good) is None
    ma = ProtocolStep("ma", ALICE, {(): meas(ALICE, "A")}, sends_message=True)
    bad = ProtocolProgram(
        lay,
        steps=[
            ma,
            ProtocolStep(
                "mb", BOB,
                tabulate((ma,), lambda _: meas(BOB, "B")),
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
                {(): projective_instrument(
                    ALICE, ("A",), {"zero": np.array([1.0, 0]), "one": np.array([0, 1.0])}
                )},
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
                {(): projective_instrument(
                    ALICE, ("A",), {"zero": np.array([1.0, 0]), "one": np.array([0, 1.0])}
                )},
            )
        ],
    )
    tree = run_exhaustive(prog, st)
    assert len(tree.leaves) == 1
    assert dict(tree.leaves[0].transcript)["m"] == "zero"


def _herald_after_z():
    """Step m measures Z; step h measures the same qubit, so h = fail is pruned under m = 0 and certain under m = 1."""
    lay = qubit_layout(("A", ALICE))
    z = {"0": np.array([1.0, 0]), "1": np.array([0, 1.0])}
    herald = {"ok": z["0"], "fail": z["1"]}
    prog = ProtocolProgram(
        lay,
        steps=[
            ProtocolStep("m", ALICE, {(): projective_instrument(ALICE, ("A",), z)}),
            ProtocolStep("h", ALICE, {(): projective_instrument(ALICE, ("A",), herald)}),
        ],
    )
    return prog, PureState(lay, [0.6, 0.8j])


def test_path_run_returns_the_full_trees_first_matching_leaf():
    prog, st = _herald_after_z()
    (leaf,) = run_exhaustive(prog, st, _path=("h", "fail")).leaves
    assert leaf.transcript == (("m", "1"), ("h", "fail"))
    full = next(l for l in run_exhaustive(prog, st).leaves if dict(l.transcript)["h"] == "fail")
    assert leaf.transcript == full.transcript
    assert leaf.probability.hex() == full.probability.hex()
    assert leaf.state.vector.tobytes() == full.state.vector.tobytes()
    assert (leaf.resource_sources, leaf.alice_source) == (None, None)


def test_path_run_with_no_matching_leaf_returns_none():
    prog, st = _herald_after_z()
    assert run_exhaustive(prog, st, _path=("h", "lost")).leaves == ()


def test_leaf_probabilities_sum_to_one(rng):
    lay = qubit_layout(("A", ALICE), ("B", BOB))
    steps = [
        ProtocolStep("ma", ALICE, {(): projective_instrument(ALICE, ("A",), {"p": PLUS, "m": MINUS})}, sends_message=True),
        ProtocolStep("mb", BOB, {(): projective_instrument(BOB, ("B",), {"p": PLUS, "m": MINUS})}, sends_message=True),
    ]
    tree = run_exhaustive(ProtocolProgram(lay, steps=steps), random_pure_state(lay, rng))
    assert tree.total_probability() == pytest.approx(1.0, abs=1e-9)
    rho = oracles.average_output(tree)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-9)


def test_referee_factors_cannot_be_touched(rng):
    lay = SystemLayout([("A", 2, ALICE), ("R", 2, REFEREE)])
    prog = ProtocolProgram(
        lay, steps=[ProtocolStep("bad", ALICE, {(): unitary_instrument(ALICE, ("R",), SZ)})]
    )
    assert validate_program(prog) is not None
    with pytest.raises(EngineError):
        run_exhaustive(prog, random_pure_state(lay, rng))


def test_unknown_label_is_a_violation_not_a_key_error(rng):
    lay = qubit_layout(("A", ALICE))
    prog = ProtocolProgram(lay, steps=[ProtocolStep("u", ALICE, {(): unitary_instrument(ALICE, ("Z",), SZ)})])
    violation = validate_program(prog)
    assert isinstance(violation, CausalityViolation)
    assert "unknown label 'Z'" in violation.reason
    with pytest.raises(EngineError, match="unknown label 'Z'"):
        run_exhaustive(prog, random_pure_state(lay, rng))


def test_conditioned_instrument_on_unknown_label_raises_engine_error(rng):
    lay = qubit_layout(("A", ALICE), ("B", BOB))
    ma = ProtocolStep("ma", ALICE, {(): projective_instrument(ALICE, ("A",), {"p": PLUS, "m": MINUS})}, sends_message=True)
    steps = [
        ma,
        ProtocolStep("fix", BOB, tabulate((ma,), lambda _: unitary_instrument(BOB, ("Z",), SZ)), condition_on=("ma",)),
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
            {(): projective_instrument(
                ALICE, ("anc",), {"zero": np.array([1.0, 0]), "one": np.array([0, 1.0])}
            )},
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
        {(): projective_instrument(party, (label,), {"p": PLUS, "m": MINUS})},
        sends_message=True,
        simultaneous_with_prev=simultaneous,
    )


def test_no_message_program_is_type_other():
    lay = qubit_layout(("A", ALICE))
    prof = classify_rounds(
        ProtocolProgram(lay, steps=[ProtocolStep("u", ALICE, {(): unitary_instrument(ALICE, ("A",), SZ)})])
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
        ProtocolStep("u", ALICE, {(): unitary_instrument(ALICE, ("A",), SZ)}),
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


def test_serialize_names_what_makes_the_program_invalid():
    lay = qubit_layout(("A", ALICE), ("B", BOB))
    incomplete = LocalInstrument(BOB, ("B",), [("half", 0.5 * np.eye(2))])
    prog = ProtocolProgram(lay, steps=[
        _msg("ma", ALICE, "A"),
        ProtocolStep("mb", BOB, {(): incomplete}, sends_message=True, simultaneous_with_prev=True),
    ])
    with pytest.raises(EngineError, match=r"invalid program: .*Kraus completeness violated"):
        serialize_simultaneous(prog)


def test_classify_rounds_rejects_an_invalid_program():
    # Bob's reply reads Alice's message, so it cannot be simultaneous with it:
    # no round profile, as no run or export
    lay = qubit_layout(("A", ALICE), ("B", BOB))
    ma = _msg("ma", ALICE, "A")
    reply = tabulate((ma,), lambda _: projective_instrument(BOB, ("B",), {"p": PLUS, "m": MINUS}))
    mb = ProtocolStep("mb", BOB, reply, condition_on=("ma",), sends_message=True, simultaneous_with_prev=True)
    with pytest.raises(EngineError, match=r"invalid program: .*declared simultaneous but 'mb' reads 'ma'"):
        classify_rounds(ProtocolProgram(lay, steps=[ma, mb]))


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
            {(): projective_instrument(ALICE, ("a",), {"0": np.array([1.0, 0]), "1": np.array([0, 1.0])})},
            sends_message=True,
        ),
        ProtocolStep(
            "mb", BOB,
            {(): projective_instrument(BOB, ("b",), {"0": np.array([1.0, 0]), "1": np.array([0, 1.0])})},
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
        steps=[ProtocolStep("u", ALICE, {(): unitary_instrument(ALICE, ("A",), SZ)})],
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
        ProtocolStep("ma", ALICE, {(): projective_instrument(ALICE, ("A",), {"p": PLUS, "m": MINUS})}, sends_message=True),
    ]
    prog = ProtocolProgram(lay, steps=steps)
    tree = run_exhaustive(prog, random_pure_state(lay, rng))
    assert engine.entanglement_monotonicity_gap(tree) >= -1e-8


# ---------------------------------------------------------------- json


def _toy_program(fix=lambda m: unitary_instrument(BOB, ("B",), SZ if m == "m" else np.eye(2))):
    """Alice measures A in the X basis and tells Bob, who applies Z to B on "m"; ``fix`` fills his table."""
    lay = qubit_layout(("A", ALICE), ("B", BOB))
    ma = ProtocolStep("ma", ALICE, {(): projective_instrument(ALICE, ("A",), {"p": PLUS, "m": MINUS})}, sends_message=True)
    return ProtocolProgram(lay, steps=[ma, ProtocolStep("fix", BOB, tabulate((ma,), fix), condition_on=("ma",))])


ROUNDTRIP_BUILDERS = {  # the toy program, each export-protocol kind at its defaults, batch n = 1
    "toy": _toy_program,
    "heralded": lambda: protocols.build_heralded(0.5, math.sqrt(0.5)).program,
    "controlled-phase": lambda: protocols.build_controlled_phase(0.5),
    "composite": lambda: protocols.build_composite(0.5),
    "clifford": lambda: protocols.build_clifford(cnot_gate()),
    "dilution": lambda: protocols.nielsen_dilution([0.4, 0.3, 0.2, 0.1], 2),
    "batch-n1": lambda: protocols.build_batch(0.5, 1, 2.6).program,
}


@pytest.mark.parametrize("builder", list(ROUNDTRIP_BUILDERS))
def test_json_roundtrip_preserves_semantics(builder):
    prog = ROUNDTRIP_BUILDERS[builder]()
    doc = program_to_json(prog)
    text = json.dumps(doc, sort_keys=True)
    clone = program_from_json(json.loads(text))
    st = engine.choi_input(prog)
    tree, clone_tree = run_exhaustive(prog, st), run_exhaustive(clone, st)
    assert trees_equal(tree, clone_tree)
    assert ledger(prog, tree) == ledger(clone, clone_tree)


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


def _controlled_phase_document(mutate):
    """The exported controlled-phase program, with ``mutate`` applied to c_fix_a's cases."""
    doc = program_to_json(protocols.build_controlled_phase(0.7))
    (step,) = [s for s in doc["steps"] if s["name"] == "c_fix_a"]
    assert [case["condition"] for case in step["cases"]] == [{"c_meas_b": "zero"}, {"c_meas_b": "one"}]
    mutate(step["cases"])
    return doc


def test_program_from_json_with_a_case_deleted_fails_at_compile():
    """The document loads; the program check rejects it, and so every export and run."""
    program = program_from_json(_controlled_phase_document(lambda cases: cases.pop()))
    reason = "step 'c_fix_a' on {'c_meas_b': 'one'}: no instrument"
    assert validate_program(program).reason == reason
    message = re.escape(reason)
    with pytest.raises(EngineError, match=message):
        program_to_json(program)
    with pytest.raises(EngineError, match=message):
        run_exhaustive(program, engine.choi_input(program))


def test_program_from_json_with_another_partys_case_fails_at_load():
    def hand_to_bob(cases):
        cases[1]["instrument"]["party"] = "bob"

    message = re.escape("step 'c_fix_a' on {'c_meas_b': 'one'}: instrument of bob in a step of alice")
    with pytest.raises(EngineError, match=message):
        program_from_json(_controlled_phase_document(hand_to_bob))


def test_program_from_json_with_a_case_twice_fails_at_load():
    with pytest.raises(EngineError, match="step 'c_fix_a': two cases for one condition"):
        program_from_json(_controlled_phase_document(lambda cases: cases.append(cases[0])))


def test_program_to_json_exports_the_table_filled_at_build():
    calls = []

    def fix(m):
        calls.append(m)
        return unitary_instrument(BOB, ("B",), SZ if m == "m" else np.eye(2))

    prog = _toy_program(fix)
    assert calls == ["p", "m"]  # once per key, in the order of ma's outcomes
    doc = program_to_json(prog)
    assert calls == ["p", "m"]
    cases = doc["steps"][1]["cases"]
    assert [case["condition"] for case in cases] == [{"ma": "p"}, {"ma": "m"}]
    fix_step = prog.steps[1]
    assert [case["instrument"] for case in cases] == [
        engine._instrument_to_json(fix_step.table[o,]) for o in ("p", "m")
    ]


def test_batch_tables_are_filled_once_when_the_program_is_built(monkeypatch):
    filled = []  # per table built: the keys its fn was called on
    tabulate_once = engine.tabulate

    def counted(reads, fn):
        keys = []
        filled.append(keys)

        def logged(*key):
            keys.append(key)
            return fn(*key)

        table = tabulate_once(reads, logged)
        assert keys == list(table)  # once per key, in key order
        return table

    monkeypatch.setattr(protocols, "tabulate", counted)
    prog = protocols.build_batch(0.5, 1, 2.6).program
    made = sum(map(len, filled))
    doc = program_to_json(prog)
    run_exhaustive(prog, engine.choi_input(prog))
    engine.output_mixture(prog, engine.choi_input(prog))
    assert sum(map(len, filled)) == made  # no run or export calls a builder's fn again
    cases = sum(len(sdoc.get("cases", ())) for sdoc in doc["steps"])
    assert cases == sum(len(step.table) for step in prog.steps if step.condition_on)


@pytest.mark.parametrize("builder", list(ROUNDTRIP_BUILDERS))
def test_compiled_tables_cover_every_transcript(builder):
    """Each step's table, as checked by validate_program, holds every condition a transcript reaches."""
    prog = ROUNDTRIP_BUILDERS[builder]()
    steps = {step.name: step for step in prog.steps}
    assert validate_program(prog) is None
    for step in prog.steps:
        assert len(step.table) == math.prod(len(steps[k].outcomes) for k in step.condition_on)
    for leaf in oracles.unmerged_mixture(prog, engine.choi_input(prog)).leaves:
        seen = dict(leaf.transcript)
        for step in prog.steps:
            assert seen[step.name] in step.outcomes
            assert tuple(seen[k] for k in step.condition_on) in step.table


def test_program_keeps_its_validation_and_compiled_tables(monkeypatch):
    """validate_program checks each distinct instrument once per program, and no run or export again.

    A program that shares no record checks all of its instruments; one
    rebound from a kept program only those of the steps it rebound.
    """
    rebound = protocols.build_batch(0.5, 1, 2.6).program
    assert validate_program(rebound) is None  # the kept program's structure is checked
    prog = ProtocolProgram(rebound.layout, rebound.resources, rebound.steps, rebound.consumed, rebound.renames)
    checks = []
    validate_on = LocalInstrument.validate_on

    def counted(inst, layout):
        checks.append(inst)
        return validate_on(inst, layout)

    monkeypatch.setattr(LocalInstrument, "validate_on", counted)
    assert validate_program(prog) is None
    distinct = {inst for step in prog.steps for inst in step.table.values()}
    assert len(checks) == len(distinct) and set(checks) == distinct  # each instrument once
    program_to_json(prog)
    run_exhaustive(prog, engine.choi_input(prog))
    engine.output_mixture(prog, engine.choi_input(prog))
    assert validate_program(prog) is None
    assert len(checks) == len(distinct)  # the result is kept: no run or export checks again
    # a program rebound at another angle checks each distinct instrument of
    # its rebound steps once, and no run or export checks again
    again = protocols.build_batch(0.9, 1, 2.6).program
    rebuilt = [step for step, before in zip(again.steps, prog.steps) if step is not before]
    assert {step.name for step in rebuilt} == {"s1_meas_b", "p0_rot", "p0_dress"}
    ours = {inst for step in rebuilt for inst in step.table.values()}
    checks.clear()
    assert validate_program(again) is None
    assert len(checks) == len(ours) and set(checks) == ours
    program_to_json(again)
    run_exhaustive(again, engine.choi_input(again))
    engine.output_mixture(again, engine.choi_input(again))
    assert len(checks) == len(ours)
    with pytest.raises(TypeError):
        prog.steps[0].table[()] = None
    with pytest.raises(dataclasses.FrozenInstanceError):
        prog.steps[0].outcomes = ()
    bad = ProtocolProgram(qubit_layout(("A", ALICE)), steps=[
        ProtocolStep("u", ALICE, {(): LocalInstrument(ALICE, ("A",), [("half", 0.5 * np.eye(2))])})
    ])
    assert validate_program(bad) is validate_program(bad)
    assert "completeness" in validate_program(bad).reason


def _built_directly(program, swap):
    """``program`` with ``swap`` applied entry by entry, built as a new program that shares no record."""
    steps = [
        dataclasses.replace(step, table={key: swap.get(inst, inst) for key, inst in step.table.items()})
        for step in program.steps
    ]
    return ProtocolProgram(program.layout, program.resources, steps, program.consumed, program.renames)


def _leaf_bits(mixture):
    return [(l.transcript, l.probability, l.state.layout, l.state.vector.tobytes()) for l in mixture.leaves]


REBOUND_ENTRY_POINTS = {
    "run": lambda prog: run_exhaustive(prog, engine.choi_input(prog)),
    "mixture": lambda prog: engine.output_mixture(prog, engine.choi_input(prog)),
    "export": program_to_json,
    "rounds": classify_rounds,
}


@pytest.mark.parametrize("entry", list(REBOUND_ENTRY_POINTS))
def test_rebound_incomplete_instrument_gets_the_violation_of_a_direct_build(entry):
    """A rebound step that fails its check falls back to the full pass and its violation."""
    prog = protocols.build_controlled_phase(0.4)
    rot = {step.name: step for step in prog.steps}["c_rot"].table[()]
    half = LocalInstrument(ALICE, rot.labels, [("done", 0.5 * np.eye(4))])
    direct = validate_program(_built_directly(prog, {rot: half}))
    assert (direct.step_index, direct.step_name) == (3, "c_rot") and "completeness" in direct.reason
    rebound = prog.with_instruments({rot: half})
    assert rebound._record is prog._record  # same form: the record is shared
    with pytest.raises(EngineError, match="^" + re.escape(f"invalid program: {direct}") + "$"):
        REBOUND_ENTRY_POINTS[entry](rebound)
    assert validate_program(rebound) == direct
    # through the kept batch program, whose rotation copies sit in two slots
    kept = protocols._kept_batch(2, 2)
    ref = protocols._reference()[1]
    rebound = kept.with_instruments({ref: LocalInstrument(ALICE, ref.labels, [("done", 0.5 * np.eye(4))])})
    moved = {
        inst: rebound.steps[idx].table[key]
        for idx, step in enumerate(kept.steps) for key, inst in step.table.items()
        if inst._origin is ref
    }
    direct = validate_program(_built_directly(kept, moved))
    assert direct.step_name == "p0_rot" and "completeness" in direct.reason
    with pytest.raises(EngineError, match="^" + re.escape(f"invalid program: {direct}") + "$"):
        REBOUND_ENTRY_POINTS[entry](rebound)


def test_a_swap_that_changes_the_form_gets_its_own_record(rng):
    """A replacement with another identity flag or other labels makes a new program, walked as built directly."""
    kept = protocols._kept_controlled_phase(("a", "b"))
    ref = protocols._reference()[1]
    zero = protocols._rotation(0.0)
    assert zero._identity and not ref._identity  # a correction of exactly 0.0 gives this rotation
    flipped = protocols.build_controlled_phase(0.0)
    direct_flipped = ProtocolProgram(
        kept.layout, kept.resources,
        protocols._controlled_phase_steps(zero, "a", "b", "c_", {(): ("A", "B")}), kept.consumed,
    )
    prog = protocols.build_controlled_phase(0.3)
    rot = {step.name: step for step in prog.steps}["c_rot"].table[()]
    # the same controlled rotation with its two factors in the other order
    kraus = rot.branches[0][1].reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
    reordered = unitary_instrument(ALICE, rot.labels[::-1], kraus)
    relabelled = prog.with_instruments({rot: reordered})
    inp = random_pure_state(SystemLayout([("A", 2, ALICE), ("B", 2, BOB), ("R", 4, REFEREE)]), rng)
    for rebound, direct in ((flipped, direct_flipped), (relabelled, _built_directly(prog, {rot: reordered}))):
        assert rebound._record is not kept._record and rebound._record is not prog._record
        assert _leaf_bits(engine.output_mixture(rebound, inp)) == _leaf_bits(engine.output_mixture(direct, inp))
        assert _leaf_bits(run_exhaustive(rebound, inp)) == _leaf_bits(run_exhaustive(direct, inp))
    target = protocols.controlled_phase_target(0.3)
    assert protocol_error(relabelled, target, inp) <= 1e-12


def test_program_to_json_rejects_an_invalid_program():
    acausal = ProtocolProgram(qubit_layout(("A", ALICE), ("B", BOB)), steps=[
        ProtocolStep("ma", ALICE, {(): projective_instrument(ALICE, ("A",), {"p": PLUS, "m": MINUS})}),
        ProtocolStep("fix", BOB, {(o,): unitary_instrument(BOB, ("B",), np.eye(2)) for o in "pm"},
                     condition_on=("ma",)),
    ])
    incomplete = ProtocolProgram(qubit_layout(("A", ALICE)), steps=[
        ProtocolStep("u", ALICE, {(): LocalInstrument(ALICE, ("A",), [("half", 0.5 * np.eye(2))])})
    ])
    for prog, reason in [
        (acausal, "bob cannot see outcome of 'ma' (not broadcast)"),
        (incomplete, "Kraus completeness violated (deviation 7.500e-01)"),
    ]:
        assert validate_program(prog).reason == reason
        with pytest.raises(EngineError, match="invalid program: .*" + re.escape(reason)):
            program_to_json(prog)


def test_instruments_steps_and_programs_compare_and_hash_by_identity():
    a, b = (unitary_instrument(ALICE, ("A",), SZ) for _ in range(2))
    assert a == a and a != b
    assert {a: "a", b: "b"}[a] == "a" and hash(a) == hash(a)
    step = ProtocolStep("u", ALICE, {(): a})
    assert step == step and step != dataclasses.replace(step)
    assert len({step, dataclasses.replace(step)}) == 2
    first, second = (protocols.build_clifford(qudit_cz_gate(3)) for _ in range(2))
    assert first == first and first != second
    assert len({first, second}) == 2


def test_json_export_is_deterministic():
    lay = qubit_layout(("A", ALICE))
    prog = ProtocolProgram(lay, steps=[ProtocolStep("u", ALICE, {(): unitary_instrument(ALICE, ("A",), SZ)})])
    a = json.dumps(program_to_json(prog), sort_keys=True)
    b = json.dumps(program_to_json(prog), sort_keys=True)
    assert a == b


# ---------------------------------------------------------------- oracle


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
    program, initial = _oracle_case(builder, rng)
    tree = run_exhaustive(program, initial)
    ref = oracles.reference_tree(program, initial)
    assert trees_equal(tree, ref, tol=1e-10)
    assert [l.transcript for l in tree.leaves] == [l.transcript for l in ref.leaves]
    assert ledger(program, tree) == ledger(program, ref)


def _oracle_case(builder, rng):
    """A builder's program and a random state on its inputs and a referee qubit (None without inputs)."""
    program = ORACLE_BUILDERS[builder]()
    inputs = [program.layout.factor(lb) for lb in program.input_labels]
    if not inputs:
        return program, None
    return program, random_pure_state(SystemLayout(inputs + [("R", 2, REFEREE)], dim_cap=None), rng)


@functools.cache
def _choi_reference(builder):
    """The reference walk of a builder's program on its Choi input, made once (batch-n2's takes seconds)."""
    program = ORACLE_BUILDERS[builder]()
    return oracles.reference_tree(program, engine.choi_input(program))


@pytest.mark.parametrize("builder", sorted(ORACLE_BUILDERS))
def test_block_route_matches_reference_walk(builder, rng):
    program, initial = _oracle_case(builder, rng)
    tree = oracles.unmerged_mixture(program, initial)
    ref = oracles.reference_tree(program, initial)
    assert trees_equal(tree, ref, tol=engine.TREE_TOL)
    assert [l.transcript for l in tree.leaves] == [l.transcript for l in ref.leaves]
    assert tree.pruned_mass == pytest.approx(ref.pruned_mass, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("builder", sorted(ORACLE_BUILDERS))
def test_leaf_diagnostics_leave_states_alone(builder, rng):
    """The full-state walk with diagnostics and the block walk without agree to rounding.

    Mixture leaves carry no diagnostics, and the ledger and the gap refuse them.
    """
    program, initial = _oracle_case(builder, rng)
    on = run_exhaustive(program, initial)
    off = oracles.unmerged_mixture(program, initial)
    assert trees_equal(on, off, tol=engine.TREE_TOL)
    assert [l.transcript for l in on.leaves] == [l.transcript for l in off.leaves]
    assert isinstance(on.initial_alice_side_entropy, float)
    for leaf in on.leaves:
        assert leaf.resource_remaining is not None and leaf.alice_side_entropy is not None
    mixture = engine.output_mixture(program, initial)
    for leaf in mixture.leaves:
        assert leaf.resource_remaining is None and leaf.alice_side_entropy is None
    with pytest.raises(EngineError, match="without leaf diagnostics"):
        ledger(program, mixture)
    with pytest.raises(EngineError, match="without leaf diagnostics"):
        engine.entanglement_monotonicity_gap(mixture)


@pytest.mark.parametrize("builder", sorted(ORACLE_BUILDERS))
def test_diagnostics_run_keeps_the_full_state_probability_bits(builder, rng):
    """With diagnostics on, the walk is the full-state walk: leaf probabilities equal the oracle's bit for bit."""
    program, initial = _oracle_case(builder, rng)
    on = run_exhaustive(program, initial)
    ref = oracles.reference_tree(program, initial)
    assert [l.probability.hex() for l in on.leaves] == [l.probability.hex() for l in ref.leaves]


def _hex(values):
    return [v.hex() for v in values]


@pytest.mark.parametrize("choi", [False, True], ids=["seeded", "choi"])
@pytest.mark.parametrize("builder", sorted(ORACLE_BUILDERS))
def test_deferred_diagnostics_have_the_bits_of_the_eager_reference(builder, choi, rng):
    """Diagnostics computed on first read equal the oracle's, computed at each leaf, bit for bit."""
    program, initial = _oracle_case(builder, rng)
    if choi:
        initial = engine.choi_input(program)
    tree = run_exhaustive(program, initial)
    ref = _choi_reference(builder) if choi else oracles.reference_tree(program, initial)
    assert [l.transcript for l in tree.leaves] == [l.transcript for l in ref.leaves]
    for leaf, want in zip(tree.leaves, ref.leaves):
        assert _hex(leaf.resource_remaining) == _hex(want.resource_remaining)
        assert leaf.alice_side_entropy.hex() == want.alice_side_entropy.hex()
    assert tree.initial_alice_side_entropy.hex() == ref.initial_alice_side_entropy.hex()
    got, expected = ledger(program, tree), ledger(program, ref)
    assert list(got.per_branch) == list(expected.per_branch)
    assert _hex(got.per_branch.values()) == _hex(expected.per_branch.values())
    assert got.expected_ebits.hex() == expected.expected_ebits.hex()
    gap = engine.entanglement_monotonicity_gap
    assert gap(tree).hex() == gap(ref).hex()


def _counted(monkeypatch, owner, name):
    """Replace ``owner.name`` with a wrapper that counts its calls; returns the count list."""
    calls = []
    inner = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_diagnostics_are_computed_on_first_read_and_once(monkeypatch):
    program = protocols.build_composite(0.4)
    entropies = _counted(monkeypatch, qmath, "von_neumann_entropy")
    eighs = _counted(monkeypatch, np.linalg, "eigh")
    tree = run_exhaustive(program, engine.choi_input(program))
    assert (len(entropies), len(eighs)) == (0, 0)
    leaf = tree.leaves[0]
    first = leaf.alice_side_entropy
    assert leaf.alice_side_entropy is first and len(entropies) == 1
    tree.initial_alice_side_entropy
    tree.initial_alice_side_entropy
    assert len(entropies) == 2
    pure = sum(not isinstance(src, float) for src in leaf.resource_sources)
    assert pure > 0
    remaining = leaf.resource_remaining
    assert leaf.resource_remaining is remaining
    assert (len(entropies), len(eighs)) == (2 + pure, pure)


def test_tree_leaves_keep_no_array_the_size_of_the_joint_state():
    """On the qutrit-cz Choi run (81 leaves), a leaf keeps reduced densities, never the joint state."""
    program = protocols.build_clifford(qudit_cz_gate(3))
    choi = engine.choi_input(program)
    joint = math.prod(choi.dims) * math.prod(math.prod(res.dims) for res in program.resources)
    assert joint == 6561
    tree = run_exhaustive(program, choi)
    assert len(tree.leaves) == 81

    def arrays(obj):
        if isinstance(obj, np.ndarray):
            yield obj
        elif isinstance(obj, (tuple, list)):
            for item in obj:
                yield from arrays(item)
        elif dataclasses.is_dataclass(obj):
            for item in vars(obj).values():
                yield from arrays(item)

    for read in (False, True):
        if read:
            engine.entanglement_monotonicity_gap(tree)
            ledger(program, tree)
        sizes = [a.size for leaf in tree.leaves for a in arrays(leaf)]
        assert sizes and max(sizes) < joint
        assert max(a.size for a in arrays(tree.initial_alice_source)) < joint


# ---------------------------------------------------------------- block route


@pytest.fixture
def kernel_sizes(monkeypatch):
    """Entry count of the state each ``qmath.apply_on_factors`` call sees, in call order."""
    sizes = []
    apply = qmath.apply_on_factors

    def counted(vec, *args):
        sizes.append(np.size(vec))
        return apply(vec, *args)

    monkeypatch.setattr(qmath, "apply_on_factors", counted)
    return sizes


Z_BASIS = {"zero": np.array([1.0, 0.0]), "one": np.array([0.0, 1.0])}
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)


def _bell_program(steps, consumed=("a", "b")):
    """Inputs A (Alice) and B (Bob), a Bell pair on (a, b), and the given steps."""
    lay = qubit_layout(("A", ALICE), ("B", BOB), ("a", ALICE), ("b", BOB))
    return ProtocolProgram(lay, resources=(bell_pair(2, ("a", "b")),), steps=steps, consumed=consumed)


def _run_block_route(program, rng, kernel_sizes):
    """The unmerged block walk and its kernel sizes, level by level, after checking it against the reference walk."""
    initial = random_pure_state(qubit_layout(("A", ALICE), ("B", BOB), ("R", REFEREE)), rng)
    kernel_sizes.clear()
    tree = oracles.unmerged_mixture(program, initial)
    sizes = list(kernel_sizes)
    ref = oracles.reference_tree(program, initial)
    assert trees_equal(tree, ref, tol=engine.TREE_TOL)
    assert [l.transcript for l in tree.leaves] == [l.transcript for l in ref.leaves]
    return tree, sizes


def test_block_route_gated_skip_entries_attach_nothing(rng, kernel_sizes):
    steps = [
        ProtocolStep("m", ALICE, {(): projective_instrument(ALICE, ("A",), Z_BASIS)}, sends_message=True),
        ProtocolStep(
            "g", BOB, condition_on=("m",),
            table={("zero",): engine.identity_instrument(BOB, ("b",), 2), ("one",): unitary_instrument(BOB, ("b",), SZ)},
        ),
        ProtocolStep("h", BOB, {(): unitary_instrument(BOB, ("B",), HADAMARD)}),
    ]
    _, sizes = _run_block_route(_bell_program(steps), rng, kernel_sizes)
    # m on A, B and R: two branches; then g skips on "zero" and attaches the
    # pair on "one"; then h sees no pair on "zero" and the pair on "one"
    assert sizes == [8, 8, 32, 8, 32]


def test_block_route_rank_one_kraus_before_the_last_use_does_not_detach(rng, kernel_sizes):
    steps = [
        ProtocolStep("m", ALICE, {(): projective_instrument(ALICE, ("a",), Z_BASIS)}, sends_message=True),
        ProtocolStep("x", ALICE, {(): unitary_instrument(ALICE, ("a",), HADAMARD)}),
        ProtocolStep("h", BOB, {(): unitary_instrument(BOB, ("B",), HADAMARD)}),
    ]
    _, sizes = _run_block_route(_bell_program(steps), rng, kernel_sizes)
    # m attaches the pair; a stays through x, its last use (a unitary), and h
    assert sizes == [32] * 6
    _, sizes = _run_block_route(_bell_program([steps[0], steps[2]]), rng, kernel_sizes)
    # without x, m is a's last use and detaches it on both branches
    assert sizes == [32, 32, 16, 16]


def test_block_route_attaches_a_resource_with_a_kept_factor_at_the_start(rng, kernel_sizes):
    steps = [
        ProtocolStep("h", ALICE, {(): unitary_instrument(ALICE, ("A",), HADAMARD)}),
        ProtocolStep("m", ALICE, {(): projective_instrument(ALICE, ("a",), Z_BASIS)}),
    ]
    tree, sizes = _run_block_route(_bell_program(steps, consumed=("a",)), rng, kernel_sizes)
    assert sizes == [32, 32, 32]
    assert all(leaf.state.layout.labels == ("A", "B", "R", "b") for leaf in tree.leaves)


def test_block_route_never_attaches_an_untouched_resource(rng, kernel_sizes):
    steps = [
        ProtocolStep("m", ALICE, {(): projective_instrument(ALICE, ("A",), Z_BASIS)}, sends_message=True),
        ProtocolStep("h", BOB, {(): unitary_instrument(BOB, ("B",), HADAMARD)}),
    ]
    tree, sizes = _run_block_route(_bell_program(steps), rng, kernel_sizes)
    assert sizes == [8, 8, 8, 8]
    assert all(leaf.state.layout.labels == ("A", "B", "R") for leaf in tree.leaves)


def test_block_route_detaches_after_a_rank_one_kraus_that_is_no_projector(rng, kernel_sizes):
    # reset a to |0>: K_0 = |0><0| and K_1 = |0><1|, each on (a, A) with a unitary on A
    reset = [("was0", np.outer([1.0, 0.0], [1.0, 0.0])), ("was1", np.outer([1.0, 0.0], [0.0, 1.0]))]
    steps = [
        ProtocolStep(
            "r", ALICE,
            {(): LocalInstrument(ALICE, ("a", "A"), [(o, np.kron(k, HADAMARD)) for o, k in reset])},
            sends_message=True,
        ),
        ProtocolStep("h", BOB, {(): unitary_instrument(BOB, ("B",), HADAMARD)}),
    ]
    _, sizes = _run_block_route(_bell_program(steps, consumed=("a",)), rng, kernel_sizes)
    # the pair (b kept) is there from the start; a leaves after r on both branches
    assert sizes == [32, 32, 16, 16]


@pytest.mark.parametrize("n, largest", [(1, 2**4), (2, 2**8)])
def test_batch_block_route_peak_size(n, largest, rng, kernel_sizes):
    plan = protocols.build_batch(0.5, n, {1: 2.6, 2: 1.2}[n])
    lay = SystemLayout([(f"A{i}", 2, ALICE) for i in range(1, n + 1)] + [(f"B{i}", 2, BOB) for i in range(1, n + 1)])
    inp = random_pure_state(lay, rng)
    kernel_sizes.clear()  # build_batch's heralded fit runs the full-state walk
    protocols.batch_error(plan, inp)
    assert max(kernel_sizes) == largest


# ---------------------------------------------------------------- output mixture


@pytest.mark.parametrize("choi", [False, True], ids=["seeded", "choi"])
@pytest.mark.parametrize("builder", sorted(ORACLE_BUILDERS))
def test_output_mixture_matches_the_tree_and_the_reference_walk(builder, choi, rng):
    """The merged walk against the same block walk unmerged, and against the full-state oracle."""
    program, initial = _oracle_case(builder, rng)
    if choi:
        initial = engine.choi_input(program)
    mixture = engine.output_mixture(program, initial)
    rho = oracles.average_output(mixture)
    unmerged = oracles.unmerged_mixture(program, initial)
    for tree in (unmerged, _choi_reference(builder) if choi else oracles.reference_tree(program, initial)):
        assert np.max(np.abs(rho - oracles.average_output(tree))) <= 1e-12
        total = sum(l.probability for l in tree.leaves)
        assert abs(sum(l.probability for l in mixture.leaves) - total) <= 1e-12
        assert abs(mixture.pruned_mass - tree.pruned_mass) <= 1e-12
    assert mixture.merge_distance <= engine.MERGE_TOL


def _batch_input(n, rng):
    return random_pure_state(
        SystemLayout([(f"A{i}", 2, ALICE) for i in range(1, n + 1)] + [(f"B{i}", 2, BOB) for i in range(1, n + 1)]),
        rng,
    )


@pytest.mark.parametrize("n, delta", [(1, 2.6), (2, 1.2), (3, 0.7)])
def test_batch_error_matches_the_unmerged_oracle(n, delta, rng):
    plan = protocols.build_batch(0.7, n, delta)
    inp = _batch_input(n, rng)
    assert abs(protocols.batch_error(plan, inp) - oracles.unmerged_batch_error(plan, inp)) <= 1e-12


@pytest.mark.parametrize("n, delta, groups, calls", [(1, 2.6, 1, 16), (2, 1.2, 4, 61), (3, 0.7, 8, 191)])
def test_batch_output_mixture_groups_and_kernel_calls(n, delta, groups, calls, rng, kernel_sizes):
    """1000 transcripts at n = 3 hold 8 states up to phase: corrections undo the outcomes they read."""
    plan = protocols.build_batch(0.7, n, delta)
    inp = _batch_input(n, rng)
    kernel_sizes.clear()  # build_batch's heralded fit runs the full-state walk
    mixture = engine.output_mixture(plan.program, inp)
    assert (len(mixture.leaves), len(kernel_sizes)) == (groups, calls)
    assert mixture.merge_distance <= engine.MERGE_TOL


def _reset_program(read_later):
    """Alice measures A in Z and resets it to |0>; then Bob applies Z to B, on outcome "one" if ``read_later``."""
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    m = ProtocolStep("m", ALICE, {(): projective_instrument(ALICE, ("A",), Z_BASIS)}, sends_message=True)
    reset = tabulate((m,), lambda o: unitary_instrument(ALICE, ("A",), flip if o == "one" else np.eye(2)))
    if read_later:
        z = tabulate((m,), lambda o: unitary_instrument(BOB, ("B",), SZ if o == "one" else np.eye(2)))
        last = ProtocolStep("z", BOB, z, condition_on=("m",))
    else:
        last = ProtocolStep("z", BOB, {(): unitary_instrument(BOB, ("B",), SZ)})
    steps = [m, ProtocolStep("reset", ALICE, reset, condition_on=("m",)), last]
    return ProtocolProgram(qubit_layout(("A", ALICE), ("B", BOB)), steps=steps)


@pytest.mark.parametrize("read_later, groups", [(True, 2), (False, 1)])
def test_output_mixture_keeps_apart_equal_branches_whose_outcome_is_read_later(read_later, groups, rng):
    # A starts in a product with (B, R), so both branches of m hold |0> (x) phi after the reset
    program = _reset_program(read_later)
    initial = PureState(qubit_layout(("A", ALICE)), PLUS).tensor(
        random_pure_state(qubit_layout(("B", BOB), ("R", REFEREE)), rng)
    )
    mixture = engine.output_mixture(program, initial)
    assert (len(mixture.leaves), mixture.merged_nodes) == (groups, 2 - groups)
    ref = oracles.reference_tree(program, initial)
    assert np.max(np.abs(oracles.average_output(mixture) - oracles.average_output(ref))) <= 1e-12


# ---------------------------------------------------------------- conditioned tables


def _fix_program(fn):
    """Alice measures A and tells Bob; Bob measures B, then applies ``fn({"ma": outcome})``."""
    lay = qubit_layout(("A", ALICE), ("B", BOB))
    ma = ProtocolStep("ma", ALICE, {(): projective_instrument(ALICE, ("A",), {"p": PLUS, "m": MINUS})}, sends_message=True)
    steps = [
        ma,
        ProtocolStep("mb", BOB, {(): projective_instrument(BOB, ("B",), {"p": PLUS, "m": MINUS})}),
        ProtocolStep("fix", BOB, tabulate((ma,), lambda m: fn({"ma": m})), condition_on=("ma",)),
    ]
    return ProtocolProgram(lay, steps=steps), lay


def test_conditioned_instrument_breaking_completeness_raises(rng):
    def fn(v):
        if v["ma"] == "m":
            return LocalInstrument(BOB, ("B",), [("half", 0.5 * np.eye(2))])
        return unitary_instrument(BOB, ("B",), np.eye(2))

    prog, lay = _fix_program(fn)
    for _ in range(2):  # the kept violation raises on every run
        with pytest.raises(EngineError, match="completeness"):
            run_exhaustive(prog, random_pure_state(lay, rng))


def test_conditioned_instrument_is_checked_before_the_walk(rng, monkeypatch):
    def fn(v):
        if v["ma"] == "m":
            return LocalInstrument(BOB, ("B",), [("half", 0.5 * np.eye(2))])
        return unitary_instrument(BOB, ("B",), np.eye(2))

    prog, lay = _fix_program(fn)
    applied = []
    apply = qmath.apply_on_factors

    def counted(*args, **kwargs):
        applied.append(args[2])
        return apply(*args, **kwargs)

    monkeypatch.setattr(qmath, "apply_on_factors", counted)
    with pytest.raises(EngineError, match="completeness") as info:
        run_exhaustive(prog, random_pure_state(lay, rng))
    assert applied == []
    assert "step 'fix' on {'ma': 'm'}" in str(info.value)


def test_table_entry_no_transcript_reaches_is_rejected_at_compile():
    """The program check rejects a table entry for an impossible condition, and so every export and run."""
    toy = _toy_program()
    ma, fix = toy.steps
    extra = dataclasses.replace(fix, table={**fix.table, ("q",): fix.table["p",]})
    prog = ProtocolProgram(toy.layout, steps=[ma, extra])
    reason = "step 'fix' has instruments for conditions its reads cannot produce"
    assert validate_program(prog).reason == reason
    for export_or_run in (program_to_json, lambda p: run_exhaustive(p, plus_state(p.layout))):
        with pytest.raises(EngineError, match=reason):
            export_or_run(prog)


def test_tabulate_calls_fn_once_per_key_when_the_program_is_built(rng):
    calls = []

    def fn(v):
        calls.append(v["ma"])
        return unitary_instrument(BOB, ("B",), SZ if v["ma"] == "m" else np.eye(2))

    prog, lay = _fix_program(fn)
    assert calls == ["p", "m"]  # at build, in the order of ma's outcomes
    tree = run_exhaustive(prog, random_pure_state(lay, rng))
    assert len(tree.leaves) == 4  # each condition value reached twice
    engine.output_mixture(prog, random_pure_state(lay, rng))
    oracles.unmerged_mixture(prog, random_pure_state(lay, rng))
    program_from_json(program_to_json(prog))
    assert calls == ["p", "m"]  # no run or export calls it again


# ---------------------------------------------------------------- pruning


def _dribble_program(count):
    """A Z measurement of a qubit, then ``count`` outcomes of probability 5e-13 each and the rest."""
    eps = 5e-13
    branches = [("rest", math.sqrt(1.0 - count * eps) * np.eye(2))]
    branches += [(f"d{i}", math.sqrt(eps) * np.eye(2)) for i in range(count)]
    lay = qubit_layout(("A", ALICE))
    steps = [
        ProtocolStep("m", ALICE, {(): projective_instrument(ALICE, ("A",), {"0": np.array([1.0, 0]), "1": np.array([0, 1.0])})}),
        ProtocolStep("dribble", ALICE, {(): LocalInstrument(ALICE, ("A",), branches)}),
    ]
    return ProtocolProgram(lay, steps=steps), lay


def test_pruned_mass_is_counted(rng):
    prog, lay = _dribble_program(1)
    tree = run_exhaustive(prog, random_pure_state(lay, rng))
    assert [dict(l.transcript)["dribble"] for l in tree.leaves] == ["rest", "rest"]
    # one pruned branch under each outcome of "m", weighted by its probability
    assert tree.pruned_mass == pytest.approx(5e-13, rel=1e-9, abs=0.0)


def test_pruned_mass_over_budget_raises_at_its_step(rng):
    prog, lay = _dribble_program(3000)  # 1.5e-9 in branches below PRUNE_PROB
    with pytest.raises(EngineError, match="pruned probability mass .* at step 'dribble'"):
        run_exhaustive(prog, random_pure_state(lay, rng))


# ---------------------------------------------------------------- channel reduction


def _exported_composite():
    result = CliRunner().invoke(main, ["export-protocol", "composite", "--theta", "0.5"])
    assert result.exit_code == 0, result.output
    return program_from_json(json.loads(result.output))


def _twisted_toy_program():
    """The toy program after a fixed unitary on A that is not symmetric, so K_t^T != K_t."""
    twist = unitary_instrument(ALICE, ("A",), haar_unitary(2, np.random.default_rng(3)))
    toy = _toy_program()
    return ProtocolProgram(toy.layout, steps=(ProtocolStep("twist", ALICE, {(): twist}), *toy.steps))


CHANNEL_CASES = {  # name -> (program builder, target gate, local dimension)
    **{
        f"composite-{theta:.3f}": (lambda t=theta: protocols.build_composite(t), zz_phase_gate(theta), 2)
        for theta in (0.1, 0.5, math.pi / 2)
    },
    "heralded": (lambda: protocols.build_heralded(0.5, 0.7).program, zz_phase_gate(0.5), 2),
    "controlled-phase": (
        lambda: protocols.build_controlled_phase(0.3), protocols.controlled_phase_target(0.3), 2
    ),
    "clifford-cnot": (lambda: protocols.build_clifford(cnot_gate()), cnot_gate(), 2),
    "clifford-swap": (lambda: protocols.build_clifford(swap_gate()), swap_gate(), 2),
    "clifford-qutrit-cz": (lambda: protocols.build_clifford(qudit_cz_gate(3)), qudit_cz_gate(3), 3),
    "exported-composite": (_exported_composite, zz_phase_gate(0.5), 2),
    "twisted-toy": (_twisted_toy_program, GateSpec(haar_unitary(4, np.random.default_rng(4))), 2),
}


@pytest.mark.parametrize("case", list(CHANNEL_CASES))
def test_reduced_error_matches_direct_run(case, rng):
    build, target, d = CHANNEL_CASES[case]
    program = build()
    choi = engine.choi_input(program)
    tree = run_exhaustive(program, choi)
    layouts = [
        SystemLayout([("A", d, ALICE), ("B", d, BOB), ("R", d * d, REFEREE)]),
        SystemLayout([("A", d, ALICE), ("B", d, BOB), ("R", d * d, REFEREE)]),
        SystemLayout([("R1", 2, REFEREE), ("A", d, ALICE), ("B", d, BOB), ("R2", d, REFEREE)]),
    ]
    for i, layout in enumerate(layouts):
        inp = random_pure_state(layout, rng)
        direct = oracles.direct_protocol_error(program, target, inp)
        assert abs(protocol_error(program, target, inp, tree=tree) - direct) <= 1e-12
        if i == 0:  # without a tree, protocol_error makes the Choi-input run itself
            assert abs(protocol_error(program, target, inp) - direct) <= 1e-12
    choi_err = engine.choi_error(program, target, tree)
    assert abs(choi_err - oracles.direct_protocol_error(program, target, choi)) <= 1e-12


def test_choi_input_is_maximally_entangled_with_a_fresh_referee():
    program = protocols.build_clifford(qudit_cz_gate(3))
    choi = engine.choi_input(program)
    assert choi.layout.labels == ("A", "B", "R") and choi.dims == (3, 3, 9)
    rho = oracles._moveaxis_reduced_density(choi.vector, choi.dims, choi.layout.positions(["A", "B"]))
    assert np.allclose(rho, np.eye(9) / 9, atol=1e-15)
    taken = ProtocolProgram(SystemLayout([("R", 2, ALICE), ("a", 2, ALICE)]), resources=())
    assert engine.choi_input(taken).layout.labels == ("R", "a", "R_")
    assert engine.choi_input(protocols.nielsen_dilution([0.5, 0.5], 1)) is None


def test_protocol_error_rejects_a_tree_from_another_input(rng):
    program = protocols.build_controlled_phase(0.3)
    inp = random_pure_state(SystemLayout([("A", 2, ALICE), ("B", 2, BOB), ("Q", 2, REFEREE)]), rng)
    with pytest.raises(EngineError, match="not those of a run on"):
        protocol_error(program, protocols.controlled_phase_target(0.3), inp, tree=run_exhaustive(program, inp))
