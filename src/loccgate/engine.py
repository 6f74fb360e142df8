"""Executable two-party LOCC protocols.

A protocol is an ordered list of steps.  Each step names a party, carries a
local instrument (a list of Kraus branches on factors that party owns), and
may broadcast its outcome to the other party.  Instruments may be functions
of the classical transcript visible to their party; the dependence is
declared via ``condition_on`` step names so causality can be checked without
running anything.

Simulation is exhaustive: every branch of every instrument is followed,
yielding a tree of leaves with exact post-selected states.  Referee-owned
factors can never be acted on, because instruments must act on factors owned
by their party.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import qmath
from .model import GateSpec
from .systems import ALICE, BOB, REFEREE, Owner, PureState, SystemLayout

KRAUS_TOL = 1e-10
PRUNE_PROB = 1e-12
NODE_NORM_TOL = 1e-8
LEAF_PURITY_TOL = 1e-9


class EngineError(Exception):
    pass


@dataclass(frozen=True)
class CausalityViolation:
    """First step at which a program reads something its party cannot see."""

    step_index: int
    step_name: str
    reason: str


@dataclass(frozen=True, init=False)
class LocalInstrument:
    """Kraus branches applied by one party to factors it owns."""

    party: Owner
    labels: tuple[str, ...]
    branches: tuple[tuple[str, np.ndarray], ...]

    def __init__(self, party: Owner, labels: Sequence[str], branches):
        if party not in (ALICE, BOB):
            raise EngineError(f"instruments belong to Alice or Bob, not {party}")
        frozen = []
        for outcome, kraus in branches:
            mat = np.asarray(kraus, dtype=complex).copy()
            mat.setflags(write=False)
            frozen.append((str(outcome), mat))
        outcomes = [o for o, _ in frozen]
        if len(set(outcomes)) != len(outcomes):
            raise EngineError(f"duplicate outcome labels {outcomes}")
        object.__setattr__(self, "party", party)
        object.__setattr__(self, "labels", tuple(labels))
        object.__setattr__(self, "branches", tuple(frozen))

    @property
    def outcomes(self) -> tuple[str, ...]:
        return tuple(o for o, _ in self.branches)

    def validate_on(self, layout: SystemLayout) -> None:
        dim = 1
        for lb in self.labels:
            try:
                f = layout.factor(lb)
            except KeyError as exc:
                raise EngineError(exc.args[0]) from None
            if f.owner is not self.party:
                raise EngineError(
                    f"instrument of {self.party.value} acts on {lb!r} owned by {f.owner.value}"
                )
            dim *= f.dim
        total = np.zeros((dim, dim), dtype=complex)
        for outcome, kraus in self.branches:
            if kraus.shape != (dim, dim):
                raise EngineError(
                    f"branch {outcome!r} has shape {kraus.shape}, expected {(dim, dim)}"
                )
            total += kraus.conj().T @ kraus
        dev = float(np.max(np.abs(total - np.eye(dim))))
        if dev > KRAUS_TOL:
            raise EngineError(f"Kraus completeness violated (deviation {dev:.3e})")


def unitary_instrument(party: Owner, labels: Sequence[str], matrix: np.ndarray) -> LocalInstrument:
    return LocalInstrument(party, labels, [("done", matrix)])


def identity_instrument(party: Owner, labels: Sequence[str], dim: int) -> LocalInstrument:
    """The instrument of a step that does nothing on this branch; its outcome is "skip"."""
    return LocalInstrument(party, labels, [("skip", np.eye(dim, dtype=complex))])


def projective_instrument(
    party: Owner, labels: Sequence[str], basis: Mapping[str, np.ndarray]
) -> LocalInstrument:
    """Rank-one projective measurement onto the given (normalized) vectors."""
    branches = []
    for outcome, vec in basis.items():
        v = np.asarray(vec, dtype=complex).reshape(-1)
        v = v / np.linalg.norm(v)
        branches.append((outcome, np.outer(v, v.conj())))
    return LocalInstrument(party, labels, branches)


InstrumentFn = Callable[[Mapping[str, str]], LocalInstrument]


@dataclass(frozen=True)
class ProtocolStep:
    """One local instrument, optionally transcript-conditioned and broadcast.

    ``simultaneous_with_prev`` declares that this message is exchanged in the
    same round as the nearest preceding message step, which must go in the
    opposite direction and must not feed into this one.

    An ``instrument_fn`` must be a pure function of the values of its
    ``condition_on`` steps: ``run_exhaustive`` calls it once per distinct
    tuple of those values in a run and reuses the result at every node
    that has them.
    """

    name: str
    party: Owner
    instrument: LocalInstrument | None = None
    instrument_fn: InstrumentFn | None = None
    condition_on: tuple[str, ...] = ()
    sends_message: bool = False
    simultaneous_with_prev: bool = False

    def __post_init__(self):
        if (self.instrument is None) == (self.instrument_fn is None):
            raise EngineError(f"step {self.name!r}: exactly one of instrument/instrument_fn")
        if self.instrument_fn is not None and not self.condition_on:
            raise EngineError(f"step {self.name!r}: conditioned instrument declares no keys")
        if self.instrument is not None and self.condition_on:
            raise EngineError(f"step {self.name!r}: fixed instrument cannot declare conditions")

    def resolve(self, visible: Mapping[str, str]) -> LocalInstrument:
        if self.instrument is not None:
            return self.instrument
        inst = self.instrument_fn({k: visible[k] for k in self.condition_on})
        if inst.party is not self.party:
            raise EngineError(f"step {self.name!r} resolved to another party's instrument")
        return inst


@dataclass(frozen=True, init=False)
class ProtocolProgram:
    """Layout, pre-shared resources, ordered steps, and end-of-protocol bookkeeping.

    ``consumed`` labels are measured out or discarded when the protocol ends;
    ``output_renames`` maps surviving labels to the logical systems they
    stand for (used when the output lives on different factors than the
    input, as in teleportation-style protocols).
    """

    layout: SystemLayout
    resources: tuple[PureState, ...]
    steps: tuple[ProtocolStep, ...]
    consumed: frozenset[str]
    output_renames: tuple[tuple[str, str], ...]

    def __init__(
        self,
        layout: SystemLayout,
        resources: Sequence[PureState] = (),
        steps: Sequence[ProtocolStep] = (),
        consumed: Iterable[str] = (),
        output_renames: Mapping[str, str] | None = None,
    ):
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "resources", tuple(resources))
        object.__setattr__(self, "steps", tuple(steps))
        object.__setattr__(self, "consumed", frozenset(consumed))
        object.__setattr__(
            self, "output_renames", tuple(sorted((output_renames or {}).items()))
        )
        names = [s.name for s in self.steps]
        if len(set(names)) != len(names):
            raise EngineError(f"duplicate step names: {names}")
        seen: set[str] = set()
        for res in self.resources:
            for f in res.layout.factors:
                if f.label in seen:
                    raise EngineError(f"resource label {f.label!r} declared twice")
                seen.add(f.label)
                have = layout.factor(f.label)
                if (have.dim, have.owner) != (f.dim, f.owner):
                    raise EngineError(f"resource factor {f.label!r} disagrees with layout")
        unknown = self.consumed - set(layout.labels)
        if unknown:
            raise EngineError(f"consumed labels {sorted(unknown)} not in layout")

    @property
    def resource_labels(self) -> frozenset[str]:
        return frozenset(f.label for res in self.resources for f in res.layout.factors)

    @property
    def input_labels(self) -> tuple[str, ...]:
        res = self.resource_labels
        return tuple(lb for lb in self.layout.labels if lb not in res)

    @property
    def renames(self) -> dict[str, str]:
        return dict(self.output_renames)


@dataclass(frozen=True)
class Leaf:
    """One exhaustive-simulation branch.

    ``resource_remaining`` holds, per declared resource, the entanglement (in
    ebits, across the resource's own Alice|Bob split) still present in those
    factors at the end of the branch; zero when the factors end up mixed or
    correlated with anything else.  ``alice_side_entropy`` is the entropy of
    the branch state reduced onto all Alice-owned factors, recorded before
    consumed factors are discarded.  Both are None when the tree was run
    without diagnostics.
    """

    transcript: tuple[tuple[str, str], ...]
    probability: float
    state: PureState
    resource_remaining: tuple[float, ...] | None
    alice_side_entropy: float | None


@dataclass(frozen=True)
class BranchTree:
    leaves: tuple[Leaf, ...]
    initial_alice_side_entropy: float

    def total_probability(self) -> float:
        return float(sum(leaf.probability for leaf in self.leaves))

    def average_output(self) -> np.ndarray:
        """Transcript-averaged density operator on the output labels."""
        rho = None
        for leaf in self.leaves:
            contrib = leaf.probability * leaf.state.density()
            rho = contrib if rho is None else rho + contrib
        return rho


def trees_equal(a: BranchTree, b: BranchTree, tol: float = 1e-10) -> bool:
    """Same leaf probabilities and states (up to the fixed phase convention)."""
    if len(a.leaves) != len(b.leaves):
        return False
    bySig_a = sorted(a.leaves, key=lambda l: l.transcript)
    bySig_b = sorted(b.leaves, key=lambda l: l.transcript)
    for la, lb in zip(bySig_a, bySig_b):
        if la.transcript != lb.transcript:
            return False
        if abs(la.probability - lb.probability) > tol:
            return False
        if set(la.state.layout.labels) != set(lb.state.layout.labels):
            return False
        other = lb.state.permuted(la.state.layout.labels)
        if np.max(np.abs(la.state.vector - other.vector)) > tol:
            return False
    return True


@dataclass(frozen=True)
class RoundProfile:
    """Communication rounds after merging same-direction and simultaneous sends."""

    round_count: int
    kind: str  # "a" | "b" | "c" | "d" | "other"
    directions: tuple[str, ...]  # "a->b" | "b->a" | "both"


@dataclass(frozen=True)
class EntanglementLedger:
    resource_ebits: float
    per_branch: Mapping[tuple[tuple[str, str], ...], float]
    expected_ebits: float


# ---------------------------------------------------------------------------
# validation


def _direction(party: Owner) -> str:
    return "a->b" if party is ALICE else "b->a"


def validate_program(program: ProtocolProgram) -> CausalityViolation | None:
    """Check transcript causality, ownership, and simultaneity declarations."""
    by_name: dict[str, int] = {}
    visible: dict[Owner, set[str]] = {ALICE: set(), BOB: set()}
    last_msg: int | None = None
    for idx, step in enumerate(program.steps):
        if step.party not in (ALICE, BOB):
            return CausalityViolation(idx, step.name, "step party must be Alice or Bob")
        for key in step.condition_on:
            if key not in by_name:
                return CausalityViolation(
                    idx, step.name, f"condition {key!r} does not name an earlier step"
                )
            if key not in visible[step.party]:
                return CausalityViolation(
                    idx,
                    step.name,
                    f"{step.party.value} cannot see outcome of {key!r} (not broadcast)",
                )
        if step.instrument is not None:
            try:
                step.instrument.validate_on(program.layout)
            except EngineError as exc:
                return CausalityViolation(idx, step.name, str(exc))
        if step.simultaneous_with_prev:
            if not step.sends_message:
                return CausalityViolation(
                    idx, step.name, "simultaneous flag on a step that sends no message"
                )
            if last_msg is None:
                return CausalityViolation(idx, step.name, "no preceding message to pair with")
            prev = program.steps[last_msg]
            if prev.party is step.party:
                return CausalityViolation(
                    idx, step.name, "simultaneous pair must cross directions"
                )
            prev_name = prev.name
            for mid in program.steps[last_msg + 1 : idx + 1]:
                if mid.party is step.party and prev_name in mid.condition_on:
                    return CausalityViolation(
                        idx,
                        step.name,
                        f"declared simultaneous but {mid.name!r} reads {prev_name!r}",
                    )
        by_name[step.name] = idx
        visible[step.party].add(step.name)
        if step.sends_message:
            visible[step.party.other].add(step.name)
            last_msg = idx
    return None


# ---------------------------------------------------------------------------
# simulation


def _build_initial(
    program: ProtocolProgram, initial: PureState | None
) -> tuple[SystemLayout, np.ndarray]:
    inputs = set(program.input_labels)
    if initial is None:
        if inputs:
            raise EngineError(f"program expects input factors {sorted(inputs)}")
        state: PureState | None = None
        for res in program.resources:
            state = res if state is None else state.tensor(res)
        if state is None:
            raise EngineError("nothing to simulate: no inputs and no resources")
        return state.layout, state.vector.copy()
    got = set(initial.layout.labels)
    missing = inputs - got
    if missing:
        raise EngineError(f"initial state is missing program inputs {sorted(missing)}")
    for f in initial.layout.factors:
        if f.label in inputs:
            have = program.layout.factor(f.label)
            if (have.dim, have.owner) != (f.dim, f.owner):
                raise EngineError(f"input factor {f.label!r} disagrees with program layout")
        elif f.owner is not REFEREE:
            raise EngineError(
                f"extra factor {f.label!r} in the initial state must be referee-owned"
            )
    if got & program.resource_labels:
        raise EngineError("initial state overlaps resource labels")
    state = initial
    for res in program.resources:
        state = state.tensor(res)
    return state.layout, state.vector.copy()


def run_exhaustive(
    program: ProtocolProgram,
    initial: PureState | None = None,
    *,
    leaf_diagnostics: bool = True,
) -> BranchTree:
    """Follow every instrument branch; leaves carry exact post-selected states.

    ``leaf_diagnostics=False`` skips the per-leaf entropy bookkeeping needed
    by the ledger and the monotonicity check; large batched runs use it when
    only output states matter.

    Each step is resolved once per distinct tuple of its ``condition_on``
    values, which relies on every ``instrument_fn`` being a pure function of
    those values.  A conditioned instrument is checked with ``validate_on``
    when it is first resolved, before it is applied.
    """
    violation = validate_program(program)
    if violation is not None:
        raise EngineError(f"invalid program: {violation}")
    sim_layout, vec0 = _build_initial(program, initial)
    dims = sim_layout.dims
    alice_pos = [i for i, f in enumerate(sim_layout.factors) if f.owner is ALICE]
    res_pos = []
    res_alice_local = []
    for res in program.resources:
        pos = sim_layout.positions(res.layout.labels)
        res_pos.append(pos)
        res_alice_local.append(
            [j for j, f in enumerate(res.layout.factors) if f.owner is ALICE]
        )
    keep_pos = [
        i for i, f in enumerate(sim_layout.factors) if f.label not in program.consumed
    ]
    out_layout = SystemLayout(
        [sim_layout.factors[i] for i in keep_pos], dim_cap=None
    )

    initial_alice_entropy = _entropy_of_positions(vec0, dims, alice_pos)
    leaves: list[Leaf] = []

    def finalize(vec: np.ndarray, prob: float, transcript: tuple) -> None:
        remaining = None
        alice_entropy = None
        if leaf_diagnostics:
            remaining = tuple(
                _residual_entanglement(vec, dims, pos, alice_local)
                for pos, alice_local in zip(res_pos, res_alice_local)
            )
            alice_entropy = _entropy_of_positions(vec, dims, alice_pos)
        try:
            out_vec = qmath.factor_pure_state(vec, dims, keep_pos, tol=LEAF_PURITY_TOL)
        except ValueError as exc:
            raise EngineError(f"at leaf {transcript}: {exc}") from exc
        leaves.append(
            Leaf(
                transcript=transcript,
                probability=prob,
                state=PureState(out_layout, out_vec),
                resource_remaining=remaining,
                alice_side_entropy=alice_entropy,
            )
        )

    # Every step appends exactly one transcript entry, so the value of a
    # condition is read at the index of the step it names.
    step_index = {step.name: idx for idx, step in enumerate(program.steps)}
    condition_idx = [
        tuple(step_index[k] for k in step.condition_on) for step in program.steps
    ]
    resolved: dict[tuple, tuple[LocalInstrument, list[int], bool]] = {}

    def resolve(step_idx: int, transcript: tuple) -> tuple[LocalInstrument, list[int], bool]:
        key = (step_idx, *(transcript[j][1] for j in condition_idx[step_idx]))
        hit = resolved.get(key)
        if hit is not None:
            return hit
        step = program.steps[step_idx]
        inst = step.resolve(dict(transcript))
        # Fixed instruments were checked by validate_program against
        # program.layout, and _build_initial makes sim_layout agree with it
        # (dim and owner) on every label a fixed instrument can name.  A
        # conditioned one is checked here, once per distinct instrument.
        if step.instrument is None:
            inst.validate_on(sim_layout)
        identity = len(inst.branches) == 1 and _is_identity(inst.branches[0][1])
        hit = resolved[key] = (inst, sim_layout.positions(inst.labels), identity)
        return hit

    n_steps = len(program.steps)
    # Depth-first walk over an explicit stack.  A node's vector is released
    # when the next pop rebinds ``vec``, before any child is expanded; a
    # child leaves the stack when its subtree starts.  Children are pushed in
    # reverse so that leaves come out in branch order.
    stack: list[tuple[int, np.ndarray, float, tuple]] = [(0, vec0, 1.0, ())]
    del vec0
    while stack:
        step_idx, vec, prob, transcript = stack.pop()
        if step_idx == n_steps:
            finalize(vec, prob, transcript)
            continue
        inst, positions, identity = resolve(step_idx, transcript)
        name = program.steps[step_idx].name
        if identity:
            stack.append((step_idx + 1, vec, prob, transcript + ((name, inst.branches[0][0]),)))
            continue
        branch_total = 0.0
        children = []
        for outcome, kraus in inst.branches:
            child = qmath.apply_on_factors(vec, dims, positions, kraus)
            p = float(np.vdot(child, child).real)
            branch_total += p
            if p <= PRUNE_PROB:
                continue
            child /= math.sqrt(p)
            children.append((step_idx + 1, child, prob * p, transcript + ((name, outcome),)))
        if abs(branch_total - 1.0) > NODE_NORM_TOL:
            raise EngineError(f"norm drift {branch_total - 1.0:.3e} at step {name!r}")
        stack.extend(reversed(children))
    total = sum(l.probability for l in leaves)
    if abs(total - 1.0) > 1e-9:
        raise EngineError(f"leaf probabilities sum to {total}")
    return BranchTree(tuple(leaves), initial_alice_entropy)


def _is_identity(kraus: np.ndarray) -> bool:
    n = kraus.shape[0]
    if kraus.shape != (n, n):
        return False
    return bool(np.array_equal(kraus, np.eye(n)))


def _entropy_of_positions(vec: np.ndarray, dims, positions) -> float:
    if not positions:
        return 0.0
    rho = qmath.reduced_density(vec, dims, positions)
    return qmath.von_neumann_entropy(rho)


def _residual_entanglement(vec: np.ndarray, dims, positions, alice_local) -> float:
    """Ebits left inside a resource's factors, across its own Alice|Bob split.

    Only meaningful when the factors end in a pure state of their own;
    anything mixed or still correlated with the rest counts as consumed.
    """
    rho = qmath.reduced_density(vec, dims, positions)
    purity = float(np.trace(rho @ rho).real)
    if purity < 1.0 - LEAF_PURITY_TOL:
        return 0.0
    w, v = np.linalg.eigh(rho)
    local = v[:, -1]
    sub_dims = [dims[p] for p in positions]
    if not alice_local or len(alice_local) == len(positions):
        return 0.0
    red = qmath.reduced_density(local, sub_dims, alice_local)
    return qmath.von_neumann_entropy(red)


# ---------------------------------------------------------------------------
# round structure


def classify_rounds(program: ProtocolProgram) -> RoundProfile:
    """Collapse consecutive same-direction sends; merge declared simultaneous pairs."""
    rounds: list[str] = []
    for step in program.steps:
        if not step.sends_message:
            continue
        direction = _direction(step.party)
        if step.simultaneous_with_prev and rounds and rounds[-1] not in ("both", direction):
            rounds[-1] = "both"
        elif rounds and rounds[-1] == direction:
            continue
        else:
            rounds.append(direction)
    kind = "other"
    if not rounds:
        kind = "other"
    elif rounds == ["both"]:
        kind = "d"
    elif all(r != "both" for r in rounds):
        alternating = all(rounds[i] != rounds[i + 1] for i in range(len(rounds) - 1))
        if alternating and len(rounds) == 1:
            kind = "a"
        elif alternating and len(rounds) == 2:
            kind = "b"
        elif alternating and len(rounds) == 3:
            kind = "c"
    return RoundProfile(len(rounds), kind, tuple(rounds))


def compose_merge(first: ProtocolProgram, second: ProtocolProgram) -> ProtocolProgram:
    """Sequential composition; round merging happens in classification.

    Shared non-resource factors must agree; resource labels must be fresh.
    The second program's conditions may reference the first's step names.
    """
    merged = list(first.layout.factors)
    have = {f.label: f for f in merged}
    second_resources = second.resource_labels
    for f in second.layout.factors:
        if f.label in have:
            if f.label in second_resources or f.label in first.resource_labels:
                raise EngineError(f"resource label {f.label!r} conflicts across programs")
            if (have[f.label].dim, have[f.label].owner) != (f.dim, f.owner):
                raise EngineError(f"factor {f.label!r} disagrees between programs")
        else:
            merged.append(f)
            have[f.label] = f
    renames = dict(first.output_renames)
    renames.update(dict(second.output_renames))
    return ProtocolProgram(
        layout=SystemLayout(merged, dim_cap=None),
        resources=first.resources + second.resources,
        steps=first.steps + second.steps,
        consumed=first.consumed | second.consumed,
        output_renames=renames,
    )


def serialize_simultaneous(program: ProtocolProgram) -> ProtocolProgram:
    """Turn declared simultaneous exchanges into sequential two-round form.

    The linear step order already serializes the exchange (the second sender
    simply waits one round); since the declaration requires independence,
    clearing the flags changes the round profile but not the branch tree.
    """
    if not any(s.simultaneous_with_prev for s in program.steps):
        return program
    violation = validate_program(program)
    if violation is not None:
        raise EngineError(f"messages not independent: {violation}")
    steps = [
        ProtocolStep(
            name=s.name,
            party=s.party,
            instrument=s.instrument,
            instrument_fn=s.instrument_fn,
            condition_on=s.condition_on,
            sends_message=s.sends_message,
            simultaneous_with_prev=False,
        )
        for s in program.steps
    ]
    return ProtocolProgram(
        layout=program.layout,
        resources=program.resources,
        steps=steps,
        consumed=program.consumed,
        output_renames=program.renames,
    )


# ---------------------------------------------------------------------------
# accounting


def ledger(program: ProtocolProgram, tree: BranchTree) -> EntanglementLedger:
    """Ebit accounting from the branch tree.

    Each declared resource starts with its entanglement across the Alice|Bob
    split of its own factors.  A branch is charged the difference between
    that and whatever entanglement survives in those factors at the branch's
    end, so resources returned intact cost nothing on that branch.
    """
    initial: list[float] = []
    for res in program.resources:
        alice = [lb for lb in res.layout.labels if res.layout.factor(lb).owner is ALICE]
        bob = [lb for lb in res.layout.labels if res.layout.factor(lb).owner is BOB]
        if not alice or not bob:
            raise EngineError(
                f"resource on {res.layout.labels} is not bipartite across Alice|Bob"
            )
        initial.append(qmath.entanglement_entropy(res, alice))
    per_branch: dict = {}
    expected = 0.0
    for leaf in tree.leaves:
        if leaf.resource_remaining is None:
            raise EngineError("tree was simulated without leaf diagnostics")
        cost = sum(
            max(e0 - rem, 0.0) for e0, rem in zip(initial, leaf.resource_remaining)
        )
        per_branch[leaf.transcript] = cost
        expected += leaf.probability * cost
    return EntanglementLedger(
        resource_ebits=float(sum(initial)),
        per_branch=per_branch,
        expected_ebits=float(expected),
    )


def protocol_error(
    program: ProtocolProgram, target: GateSpec, initial: PureState
) -> float:
    """1 - F between the target-rotated input and the averaged protocol output."""
    tree = run_exhaustive(program, initial)
    expected = initial.apply_unitary(target.matrix, target.labels)
    renames = program.renames
    fid = 0.0
    for leaf in tree.leaves:
        out = leaf.state.renamed(renames) if renames else leaf.state
        if set(out.layout.labels) != set(expected.layout.labels):
            raise EngineError(
                f"output labels {out.layout.labels} do not match target "
                f"input labels {expected.layout.labels}"
            )
        amp = expected.overlap(out)
        fid += leaf.probability * float(abs(amp) ** 2)
    return max(0.0, 1.0 - fid)


def entanglement_monotonicity_gap(tree: BranchTree) -> float:
    """Initial Alice-side entropy minus the branch-averaged final value.

    Non-negative (up to numerics) for every valid LOCC program: averaging
    pure-state entanglement over measurement branches can only shrink it.
    """
    if any(l.alice_side_entropy is None for l in tree.leaves):
        raise EngineError("tree was simulated without leaf diagnostics")
    final = sum(l.probability * l.alice_side_entropy for l in tree.leaves)
    return float(tree.initial_alice_side_entropy - final)


# ---------------------------------------------------------------------------
# JSON form


def _matrix_to_json(mat: np.ndarray) -> dict:
    arr = np.asarray(mat, dtype=complex)
    return {
        "rows": arr.shape[0],
        "cols": arr.shape[1] if arr.ndim == 2 else 1,
        "re": [float(x) for x in arr.real.reshape(-1)],
        "im": [float(x) for x in arr.imag.reshape(-1)],
    }


def _matrix_from_json(doc: dict) -> np.ndarray:
    re = np.asarray(doc["re"], dtype=float)
    im = np.asarray(doc["im"], dtype=float)
    return (re + 1j * im).reshape(doc["rows"], doc["cols"])


def _instrument_to_json(inst: LocalInstrument) -> dict:
    return {
        "party": inst.party.value,
        "labels": list(inst.labels),
        "branches": [
            {"outcome": o, "kraus": _matrix_to_json(k)} for o, k in inst.branches
        ],
    }


def _instrument_from_json(doc: dict) -> LocalInstrument:
    return LocalInstrument(
        Owner(doc["party"]),
        tuple(doc["labels"]),
        [(b["outcome"], _matrix_from_json(b["kraus"])) for b in doc["branches"]],
    )


def possible_outcomes(program: ProtocolProgram) -> dict[str, tuple[str, ...]]:
    """Outcome alphabet of every step, resolving conditions combinatorially."""
    table: dict[str, tuple[str, ...]] = {}
    for step in program.steps:
        if step.instrument is not None:
            table[step.name] = step.instrument.outcomes
            continue
        outcomes: list[str] = []
        domains = [table[k] for k in step.condition_on]
        for combo in itertools.product(*domains):
            inst = step.resolve(dict(zip(step.condition_on, combo)))
            for o in inst.outcomes:
                if o not in outcomes:
                    outcomes.append(o)
        table[step.name] = tuple(outcomes)
    return table


def program_to_json(program: ProtocolProgram) -> dict:
    """Flat JSON document; conditioned instruments are expanded case by case."""
    alphabet = possible_outcomes(program)
    steps = []
    for step in program.steps:
        doc = {
            "name": step.name,
            "party": step.party.value,
            "sends_message": step.sends_message,
            "simultaneous_with_prev": step.simultaneous_with_prev,
            "condition_on": list(step.condition_on),
        }
        if step.instrument is not None:
            doc["instrument"] = _instrument_to_json(step.instrument)
        else:
            cases = []
            domains = [alphabet[k] for k in step.condition_on]
            for combo in itertools.product(*domains):
                assignment = dict(zip(step.condition_on, combo))
                inst = step.resolve(assignment)
                cases.append(
                    {"condition": assignment, "instrument": _instrument_to_json(inst)}
                )
            doc["cases"] = cases
        steps.append(doc)
    return {
        "format": "loccgate-protocol",
        "version": 1,
        "layout": [
            {"label": f.label, "dim": f.dim, "owner": f.owner.value}
            for f in program.layout.factors
        ],
        "resources": [
            {
                "factors": [
                    {"label": f.label, "dim": f.dim, "owner": f.owner.value}
                    for f in res.layout.factors
                ],
                "amplitudes": _matrix_to_json(res.vector.reshape(-1, 1)),
            }
            for res in program.resources
        ],
        "steps": steps,
        "consumed": sorted(program.consumed),
        "output_renames": dict(program.output_renames),
    }


def _case_fn(cases: list[dict], condition_on: tuple[str, ...]) -> InstrumentFn:
    lookup = {
        tuple(case["condition"][k] for k in condition_on): _instrument_from_json(
            case["instrument"]
        )
        for case in cases
    }

    def fn(visible: Mapping[str, str]) -> LocalInstrument:
        key = tuple(visible[k] for k in condition_on)
        try:
            return lookup[key]
        except KeyError:
            raise EngineError(f"no serialized case for condition {key}") from None

    return fn


def program_from_json(doc: dict) -> ProtocolProgram:
    """Rebuild a program from :func:`program_to_json` output.

    A malformed document raises :class:`EngineError` naming what is wrong,
    not a bare KeyError, TypeError or ValueError.
    """
    if not isinstance(doc, dict) or doc.get("format") != "loccgate-protocol":
        raise EngineError("not a protocol document")
    try:
        return _program_from_json(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise EngineError(f"malformed protocol document: {type(exc).__name__}: {exc}") from exc


def _program_from_json(doc: dict) -> ProtocolProgram:
    layout = SystemLayout(
        [(f["label"], f["dim"], Owner(f["owner"])) for f in doc["layout"]], dim_cap=None
    )
    resources = []
    for res in doc["resources"]:
        sub = SystemLayout(
            [(f["label"], f["dim"], Owner(f["owner"])) for f in res["factors"]],
            dim_cap=None,
        )
        resources.append(PureState(sub, _matrix_from_json(res["amplitudes"]).reshape(-1)))
    steps = []
    for sdoc in doc["steps"]:
        condition_on = tuple(sdoc["condition_on"])
        if "instrument" in sdoc:
            steps.append(
                ProtocolStep(
                    name=sdoc["name"],
                    party=Owner(sdoc["party"]),
                    instrument=_instrument_from_json(sdoc["instrument"]),
                    sends_message=sdoc["sends_message"],
                    simultaneous_with_prev=sdoc["simultaneous_with_prev"],
                )
            )
        else:
            steps.append(
                ProtocolStep(
                    name=sdoc["name"],
                    party=Owner(sdoc["party"]),
                    instrument_fn=_case_fn(sdoc["cases"], condition_on),
                    condition_on=condition_on,
                    sends_message=sdoc["sends_message"],
                    simultaneous_with_prev=sdoc["simultaneous_with_prev"],
                )
            )
    return ProtocolProgram(
        layout=layout,
        resources=resources,
        steps=steps,
        consumed=doc["consumed"],
        output_renames=doc["output_renames"],
    )
