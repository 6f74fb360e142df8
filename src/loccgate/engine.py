"""Executable two-party LOCC protocols.

A protocol is an ordered list of steps.  Each step names a party, carries a
local instrument (a list of Kraus branches on factors that party owns), and
may broadcast its outcome to the other party.  A step chooses its instrument
from a table keyed by the outcomes of the earlier steps it reads, named in
``condition_on``, so causality can be checked without running anything.

Simulation is exhaustive: every branch of every instrument is followed,
yielding a tree of leaves with exact post-selected states, or, for
reductions over the output alone, a mixture in which branches that no later
step can tell apart are merged.  Referee-owned
factors can never be acted on, because instruments must act on factors owned
by their party.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import qmath
from .model import UNITARITY_TOL, GateSpec
from .systems import ALICE, BOB, REFEREE, Owner, PureState, SystemLayout

# largest entry of sum_k K_k^dagger K_k - I; for one branch that is the unitarity deviation
KRAUS_TOL = UNITARITY_TOL
PRUNE_PROB = 1e-12
NODE_NORM_TOL = 1e-8
LEAF_PURITY_TOL = qmath.LEAF_PURITY_TOL
# budget for the leaf probabilities' deviation from 1, and for the total
# probability mass a run may prune at PRUNE_PROB
LEAF_SUM_TOL = 1e-9
# trees_equal: leaf probabilities and state entries this close are equal
TREE_TOL = 1e-10
# output_mixture: node states this close entry by entry, once phase-aligned, merge
MERGE_TOL = 1e-12
# walk plans kept per program structure, one per (initial layout, merge)
WALK_PLANS = 8


class EngineError(Exception):
    pass


@dataclass(frozen=True)
class CausalityViolation:
    """The first step at which a program fails :func:`validate_program`, and why."""

    step_index: int
    step_name: str
    reason: str


@dataclass(frozen=True, init=False, eq=False)
class LocalInstrument:
    """Kraus branches applied by one party to factors it owns.

    Immutable, so one instrument may be shared by many steps and programs;
    ``==`` and ``hash`` go by identity, so instruments key dicts and sets.
    What depends on the Kraus operators alone is worked out once per set of
    Kraus operators: its completeness deviation and whether it is one
    identity branch when the instrument is built, its detach bras
    (:func:`_cuts`) on first use.  :meth:`on` moves an instrument onto
    other labels and shares all of these with it; the copy remembers the
    instrument it was first moved from, which
    :meth:`ProtocolProgram.with_instruments` replaces it through.
    ``validate_on`` still checks labels, owners and shapes against the
    layout on every call.
    """

    party: Owner
    labels: tuple[str, ...]
    branches: tuple[tuple[str, np.ndarray], ...]
    outcomes: tuple[str, ...] = field(init=False, repr=False)

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
        object.__setattr__(self, "outcomes", tuple(outcomes))
        object.__setattr__(self, "_deviation", _completeness_deviation(frozen))
        object.__setattr__(self, "_identity", len(frozen) == 1 and _is_identity(frozen[0][1]))
        object.__setattr__(self, "_cuts", {})
        object.__setattr__(self, "_origin", None)  # the instrument a moved copy comes from

    def on(self, labels: Sequence[str]) -> LocalInstrument:
        """A new instance on ``labels`` that shares the Kraus operators and all derived from them."""
        moved = object.__new__(LocalInstrument)
        moved.__dict__.update(self.__dict__)
        object.__setattr__(moved, "labels", tuple(labels))
        if self._origin is None:
            object.__setattr__(moved, "_origin", self)
        return moved

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
        for outcome, kraus in self.branches:
            if kraus.shape != (dim, dim):
                raise EngineError(
                    f"branch {outcome!r} has shape {kraus.shape}, expected {(dim, dim)}"
                )
        if self._deviation > KRAUS_TOL:
            raise EngineError(f"Kraus completeness violated (deviation {self._deviation:.3e})")


def _completeness_deviation(branches: Sequence[tuple[str, np.ndarray]]) -> float | None:
    """Largest entry of sum_k K_k^dagger K_k - I; None unless every K_k has one square shape.

    No branches deviate by 1, as from any identity.  Without one square
    shape ``validate_on`` fails on a branch's shape before it reads this.
    """
    shapes = {kraus.shape for _, kraus in branches}
    if not shapes:
        return 1.0
    shape = shapes.pop()
    if shapes or len(shape) != 2 or shape[0] != shape[1]:
        return None
    total = np.zeros(shape, dtype=complex)
    for _, kraus in branches:
        total += kraus.conj().T @ kraus
    return float(np.max(np.abs(total - np.eye(shape[0]))))


def unitary_instrument(party: Owner, labels: Sequence[str], matrix: np.ndarray) -> LocalInstrument:
    return LocalInstrument(party, labels, [("done", matrix)])


def identity_instrument(party: Owner, labels: Sequence[str], dim: int) -> LocalInstrument:
    """The instrument of a step that does nothing on this branch; its outcome is "skip".

    Each call builds a new instance; a builder shares one by holding it in
    the program it keeps.
    """
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


# a step's instrument per combination of the outcomes it reads
Table = Mapping[tuple[str, ...], LocalInstrument]


@dataclass(frozen=True, eq=False)
class ProtocolStep:
    """One local instrument per combination of the outcomes it reads, optionally broadcast.

    ``==`` and ``hash`` go by identity, as for :class:`LocalInstrument`.

    ``table`` maps the values of the ``condition_on`` steps, in that order,
    to the instrument applied on them; a fixed step reads nothing and has
    the one key ().  It is kept read-only, and every instrument in it must
    be the step party's.  ``outcomes`` is the step's alphabet: the distinct
    outcomes of its instruments, in key order.  :func:`validate_program`
    checks that the table covers every combination of the outcomes it
    reads, and nothing else (:func:`tabulate` builds such tables).  The
    party is Alice or Bob.

    ``simultaneous_with_prev`` declares that this message is exchanged in the
    same round as the nearest preceding message step, which must go in the
    opposite direction and must not feed into this one.
    """

    name: str
    party: Owner
    table: Table
    condition_on: tuple[str, ...] = ()
    sends_message: bool = False
    simultaneous_with_prev: bool = False
    outcomes: tuple[str, ...] = field(init=False, repr=False)

    def __post_init__(self):
        if self.party not in (ALICE, BOB):
            raise EngineError(f"step {self.name!r}: steps belong to Alice or Bob, not {self.party}")
        table = MappingProxyType(dict(self.table))
        if self.condition_on and () in table:
            raise EngineError(f"step {self.name!r}: fixed instrument cannot declare conditions")
        for key, inst in table.items():
            if inst.party is not self.party:
                raise EngineError(
                    f"step {self.name!r} on {dict(zip(self.condition_on, key))}: "
                    f"instrument of {inst.party.value} in a step of {self.party.value}"
                )
        object.__setattr__(self, "table", table)
        outcomes = (o for inst in table.values() for o in inst.outcomes)
        object.__setattr__(self, "outcomes", tuple(dict.fromkeys(outcomes)))

    def resolve(self, key: tuple[str, ...]) -> LocalInstrument:
        """The instrument applied when the ``condition_on`` steps gave the outcomes ``key``."""
        try:
            return self.table[key]
        except KeyError:
            raise EngineError(
                f"step {self.name!r} on {dict(zip(self.condition_on, key))}: no instrument"
            ) from None


def tabulate(reads: Sequence[ProtocolStep], fn: Callable[..., LocalInstrument]) -> Table:
    """The table of a step that reads the outcomes of the steps ``reads``.

    ``fn`` is called once per key, with the key's outcomes as arguments, on
    every combination of the reads' ``outcomes`` in ``itertools.product``
    order, reachable or not.
    """
    return {key: fn(*key) for key in itertools.product(*(step.outcomes for step in reads))}


@dataclass(frozen=True, init=False, eq=False)
class ProtocolProgram:
    """Layout, pre-shared resources, ordered steps, and end-of-protocol bookkeeping.

    ``consumed`` labels are measured out or discarded when the protocol ends;
    ``output_renames`` maps surviving labels to the logical systems they
    stand for (used when the output lives on different factors than the
    input, as in teleportation-style protocols).

    A program is immutable, so it is validated once: it keeps the result
    of :func:`validate_program`, which every run, mixture and export reads.
    ``==`` and ``hash`` go by identity, as for :class:`LocalInstrument`.

    Programs of one structure share a record: the verdict of the
    structural check on the steps of the program that made it, and the
    walk plans of :func:`run_exhaustive` and :func:`output_mixture`.  A
    program made by :meth:`with_instruments` shares its source's record
    and differs from that first program only at the steps it rebound, so
    a check and a walk redo only those.
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
        object.__setattr__(self, "_record", _Record(self.steps))
        # the indices of the steps whose tables differ from the record's steps
        object.__setattr__(self, "_changed", ())
        # validate_program's result, and the steps holding each instrument, kept after first use
        object.__setattr__(self, "_memo", {})

    def with_instruments(
        self,
        swap: Mapping[LocalInstrument, LocalInstrument],
        resources: Sequence[PureState] | None = None,
    ) -> ProtocolProgram:
        """This program with each instrument in ``swap`` replaced, and every copy moved from it.

        A copy that :meth:`LocalInstrument.on` moved from a key of ``swap``
        becomes the replacement moved onto the copy's labels; a table that
        holds one instrument at many keys holds one replacement at them.
        ``resources``, when given, replace the program's resources.

        Only the steps holding a replaced instrument are rebuilt.  The new
        program shares this one's record when every replacement keeps the
        party, labels, outcomes, Kraus shapes and identity flag of what it
        replaces, and every resource keeps its layout; its check then
        covers only the rebuilt steps (:func:`validate_program`).  Otherwise
        it is a new program with a record of its own, checked in full.
        """
        resources = self.resources if resources is None else tuple(resources)
        holders = self._memo.get("holders")
        if holders is None:
            holders = self._memo["holders"] = _holders(self.steps)
        made: dict[LocalInstrument, LocalInstrument] = {}
        tables = {}
        for idx in sorted({idx for inst in swap for idx in holders.get(inst, ())}):
            table = {}
            for key, inst in self.steps[idx].table.items():
                new = made.get(inst)
                if new is None:
                    new = made[inst] = _replacement(inst, swap)
                table[key] = new
            tables[idx] = table
        shared = len(resources) == len(self.resources) and all(
            new.layout == old.layout for new, old in zip(resources, self.resources)
        ) and all(_same_form(old, new) for old, new in made.items())
        if not shared:
            steps = [replace(step, table=tables[idx]) if idx in tables else step for idx, step in enumerate(self.steps)]
            return ProtocolProgram(self.layout, resources, steps, self.consumed, self.renames)
        steps = list(self.steps)
        for idx, table in tables.items():
            steps[idx] = object.__new__(ProtocolStep)
            steps[idx].__dict__.update(vars(self.steps[idx]), table=MappingProxyType(table))
        program = object.__new__(ProtocolProgram)
        program.__dict__.update(
            vars(self), resources=resources, steps=tuple(steps),
            _changed=tuple(sorted({*self._changed, *tables})), _memo={},
        )
        return program

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


_UNCHECKED = object()


class _Record:
    """What the programs of one structure share.

    ``steps`` are those of the program that made the record, and
    ``verdict`` is :func:`_first_violation` on them once computed.
    ``plans`` holds the walk plans (:class:`_Plan`) per (initial layout,
    merge), at most ``WALK_PLANS`` of them, built from ``steps``.
    """

    __slots__ = ("steps", "index", "verdict", "plans")

    def __init__(self, steps: tuple[ProtocolStep, ...]):
        self.steps = steps
        self.index = {step.name: idx for idx, step in enumerate(steps)}
        self.verdict = _UNCHECKED
        self.plans: dict = {}


def _holders(steps: Sequence[ProtocolStep]) -> dict[LocalInstrument, set[int]]:
    """Per instrument, and per instrument a held copy was moved from, the indices of the steps holding it."""
    holders: dict = {}
    for idx, step in enumerate(steps):
        for inst in step.table.values():
            for held in (inst, inst._origin):
                holders.setdefault(held, set()).add(idx)
    holders.pop(None, None)
    return holders


def _replacement(inst: LocalInstrument, swap: Mapping[LocalInstrument, LocalInstrument]) -> LocalInstrument:
    """What ``inst`` becomes under ``swap``: its replacement, or that of its origin moved onto its labels."""
    new = swap.get(inst)
    if new is not None:
        return new
    if inst._origin in swap:
        return swap[inst._origin].on(inst.labels)
    return inst


def _same_form(old: LocalInstrument, new: LocalInstrument) -> bool:
    """Whether ``new`` keeps everything of ``old`` that a program's structural check and walk plan read."""
    return (
        new.party is old.party
        and new.labels == old.labels
        and new.outcomes == old.outcomes
        and new._identity == old._identity
        and [k.shape for _, k in new.branches] == [k.shape for _, k in old.branches]
    )


@dataclass(frozen=True)
class Leaf:
    """One branch of :func:`run_exhaustive`, or one merged group of :func:`output_mixture`.

    ``resource_remaining`` holds, per declared resource, the entanglement (in
    ebits, across the resource's own Alice|Bob split) still present in those
    factors at the end of the branch; zero when the factors end up mixed or
    correlated with anything else.  ``alice_side_entropy`` is the entropy of
    the branch state reduced onto all Alice-owned factors, recorded before
    consumed factors are discarded.  Both are None on the leaves of an
    :class:`OutputMixture`, whose walk never holds the full state.

    A tree leaf keeps what they are computed from, never the joint state:
    ``resource_sources`` holds per resource its ebits when the leaf settles
    them (0.0 for mixed factors) or else the factors' pure reduced density,
    their dims and the indices of Alice's among them; ``alice_source`` holds
    the Alice-side entropy when settled or else the reduced density.  The
    eigendecompositions and entropies run on first read, and are kept.
    """

    transcript: tuple[tuple[str, str], ...]
    probability: float
    state: PureState
    resource_sources: tuple | None = field(default=None, repr=False, compare=False)
    alice_source: float | np.ndarray | None = field(default=None, repr=False, compare=False)

    @functools.cached_property
    def resource_remaining(self) -> tuple[float, ...] | None:
        if self.resource_sources is None:
            return None
        return tuple(
            src if isinstance(src, float) else _pure_resource_ebits(*src)
            for src in self.resource_sources
        )

    @functools.cached_property
    def alice_side_entropy(self) -> float | None:
        return _entropy_from(self.alice_source)


@dataclass(frozen=True)
class BranchTree:
    """Leaves of one :func:`run_exhaustive` run, one per transcript, each with its diagnostics.

    ``pruned_mass`` is the probability of the branches dropped at
    ``PRUNE_PROB``: the sum of their path probabilities.
    ``initial_alice_side_entropy`` is the entropy of the initial joint state
    reduced onto all Alice-owned factors; like a leaf's, it is computed on
    first read from ``initial_alice_source``, the entropy or that density.
    """

    leaves: tuple[Leaf, ...]
    initial_alice_source: float | np.ndarray = field(repr=False, compare=False)
    pruned_mass: float = 0.0

    @functools.cached_property
    def initial_alice_side_entropy(self) -> float:
        return _entropy_from(self.initial_alice_source)

    def total_probability(self) -> float:
        return float(sum(leaf.probability for leaf in self.leaves))


@dataclass(frozen=True)
class OutputMixture:
    """The output ensemble of one run, one leaf per group of merged branches.

    Made by :func:`output_mixture`.  ``pruned_mass`` is as in
    :class:`BranchTree`; ``merged_nodes`` counts the nodes merged into an
    earlier one, and ``merge_distance`` is the largest phase-aligned entry
    difference of such a merge, at most ``MERGE_TOL``.
    """

    leaves: tuple[Leaf, ...]
    pruned_mass: float
    merged_nodes: int
    merge_distance: float


def trees_equal(a: BranchTree, b: BranchTree, tol: float = TREE_TOL) -> bool:
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
    """The first step at which ``program`` breaks its causal order or its tables, or None.

    One pass over the steps checks, per step: that every condition names an
    earlier step whose outcome the step's party sees (its own, or
    broadcast); that its table holds one instrument for each combination of
    the ``outcomes`` of its ``condition_on`` steps, reachable or not, and
    nothing else; that each distinct instrument, fixed or conditioned,
    passes ``validate_on`` against the program layout; and its simultaneity
    declaration.  Every run, mixture and export calls it first, and the
    result is kept on the program, so only the first call checks.

    A program made by :meth:`ProtocolProgram.with_instruments` that shares
    its record checks only the steps it rebound: each table's coverage
    through :meth:`ProtocolStep.resolve` and ``validate_on`` once per
    distinct instrument, and reuses the record's verdict for the rest.
    When one of those steps fails, or the record's verdict is a violation,
    the full pass runs, so the violation is the one a program built
    directly would get.
    """
    memo = program._memo
    if "violation" not in memo:
        record = program._record
        if record.verdict is _UNCHECKED:
            record.verdict = _first_violation(program.layout, record.steps)
        if not program._changed:
            memo["violation"] = record.verdict
        elif record.verdict is None and _rebound_steps_pass(program):
            memo["violation"] = None
        else:
            memo["violation"] = _first_violation(program.layout, program.steps)
    return memo["violation"]


def _rebound_steps_pass(program: ProtocolProgram) -> bool:
    """Whether each step at ``program._changed`` covers its reads and holds valid instruments."""
    steps, index = program.steps, program._record.index
    checked: set[LocalInstrument] = set()
    try:
        for idx in program._changed:
            step = steps[idx]
            for key in itertools.product(*(steps[index[k]].outcomes for k in step.condition_on)):
                inst = step.resolve(key)
                if inst not in checked:
                    inst.validate_on(program.layout)
                    checked.add(inst)
    except EngineError:
        return False
    return True


def _require_valid(program: ProtocolProgram) -> None:
    """Raise :class:`EngineError` when :func:`validate_program` rejects ``program``."""
    violation = validate_program(program)
    if violation is not None:
        raise EngineError(f"invalid program: {violation}")


def _first_violation(
    layout: SystemLayout, program_steps: Sequence[ProtocolStep]
) -> CausalityViolation | None:
    steps: dict[str, ProtocolStep] = {}
    visible: dict[Owner, set[str]] = {ALICE: set(), BOB: set()}
    checked: set[LocalInstrument] = set()  # the instruments already validated
    last_msg: int | None = None
    for idx, step in enumerate(program_steps):
        for key in step.condition_on:
            if key not in steps:
                return CausalityViolation(
                    idx, step.name, f"condition {key!r} does not name an earlier step"
                )
            if key not in visible[step.party]:
                return CausalityViolation(
                    idx,
                    step.name,
                    f"{step.party.value} cannot see outcome of {key!r} (not broadcast)",
                )
        keys = list(itertools.product(*(steps[k].outcomes for k in step.condition_on)))
        for key in keys:
            try:
                inst = step.resolve(key)
            except EngineError as exc:
                return CausalityViolation(idx, step.name, str(exc))
            if inst in checked:
                continue
            try:
                inst.validate_on(layout)
            except EngineError as exc:
                where = f"step {step.name!r} on {dict(zip(step.condition_on, key))}: " if key else ""
                return CausalityViolation(idx, step.name, where + str(exc))
            checked.add(inst)
        if len(step.table) != len(keys):
            reason = f"step {step.name!r} has instruments for conditions its reads cannot produce"
            return CausalityViolation(idx, step.name, reason)
        if step.simultaneous_with_prev:
            if not step.sends_message:
                return CausalityViolation(
                    idx, step.name, "simultaneous flag on a step that sends no message"
                )
            if last_msg is None:
                return CausalityViolation(idx, step.name, "no preceding message to pair with")
            prev = program_steps[last_msg]
            if prev.party is step.party:
                return CausalityViolation(
                    idx, step.name, "simultaneous pair must cross directions"
                )
            prev_name = prev.name
            for mid in program_steps[last_msg + 1 : idx + 1]:
                if mid.party is step.party and prev_name in mid.condition_on:
                    return CausalityViolation(
                        idx,
                        step.name,
                        f"declared simultaneous but {mid.name!r} reads {prev_name!r}",
                    )
        steps[step.name] = step
        visible[step.party].add(step.name)
        if step.sends_message:
            visible[step.party.other].add(step.name)
            last_msg = idx
    return None


# ---------------------------------------------------------------------------
# simulation


def _check_initial(program: ProtocolProgram, initial: PureState) -> None:
    """The initial state holds every program input and nothing but referee factors besides."""
    inputs = set(program.input_labels)
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


def _cuts(inst: LocalInstrument, dims: tuple, ends: tuple) -> tuple:
    """Per branch of ``inst``, the factors in ``ends`` its range leaves on one line, and their bra.

    ``dims`` are the dimensions of the instrument's factors and ``ends``
    indices into them.  A branch's entry is None when it leaves none of
    them on a line, else (those indices, the Kronecker product of their
    :func:`_detach_bra` bras in that order).  Worked out once per
    instrument and (dims, ends), and kept on the instrument.
    """
    key = (dims, ends)
    hit = inst._cuts.get(key)
    if hit is None:
        cuts = []
        for _, kraus in inst.branches:
            bras = {i: _detach_bra(kraus, dims, i) for i in ends}
            bras = {i: bra for i, bra in bras.items() if bra is not None}
            if not bras:
                cuts.append(None)
                continue
            bra = functools.reduce(np.kron, bras.values())
            bra.setflags(write=False)
            cuts.append((tuple(bras), bra))
        hit = inst._cuts[key] = tuple(cuts)
    return hit


def _detach_bra(kraus: np.ndarray, dims: Sequence[int], i: int) -> np.ndarray | None:
    """<v| when the range of ``kraus`` on its i-th factor is the line through v, else None.

    ``kraus`` acts on factors of dimensions ``dims``; its output is then
    v (x) (something on the other factors) on every input.  The rank is
    counted as ``np.linalg.matrix_rank`` counts it, from one SVD.
    """
    mat = np.moveaxis(kraus.reshape(*dims, -1), i, 0).reshape(dims[i], -1)
    u, s, _ = np.linalg.svd(mat)
    if np.count_nonzero(s > s[0] * max(mat.shape) * np.finfo(s.dtype).eps) != 1:
        return None
    return u[:, 0].conj()


def run_exhaustive(program: ProtocolProgram, initial: PureState | None = None) -> BranchTree:
    """Follow every instrument branch; leaves carry exact post-selected states and diagnostics.

    The program is checked once, on its first run, mixture or export, and
    keeps the result (:func:`validate_program`): its causal order, every
    step's table against the outcomes it reads, and every instrument with
    ``validate_on``, before any walk starts.  Each node then looks its
    instrument up in its step's table.  What a walk needs besides the
    states (positions, table entries, condition getters) is planned once
    per program structure and initial layout and kept on the program's
    record; a program rebound by :meth:`ProtocolProgram.with_instruments`
    binds only the steps it rebound.

    A node holds the joint state of every factor: the initial state and all
    resources are tensored together at the start and nothing leaves,
    because the ledger's residual entanglement and the Alice-side entropies
    read the joint state, per leaf and initially.  A leaf takes from it
    only reduced densities and purities, and computes the entropies when
    they are first read (:class:`Leaf`).  The walk is depth first,
    one subtree at a time, so a run holds one path of states and their
    pending siblings, never a whole level.  It keeps one leaf per
    transcript, in branch order, which the ledger, :func:`trees_equal` and
    per-transcript reports read.  A reduction over the output ensemble
    alone takes :func:`output_mixture` instead.
    """
    leaves, initial_alice, pruned_mass, _, _ = _walk(program, initial, merge=False)
    return BranchTree(leaves, initial_alice, pruned_mass)


def output_mixture(program: ProtocolProgram, initial: PureState | None = None) -> OutputMixture:
    """The output ensemble of ``program`` on ``initial``, with indistinguishable branches merged.

    Checked as for :func:`run_exhaustive`, but a node holds a dense core
    over its live factors only.  A resource with a kept factor is tensored
    in at the start, any other at the first non-identity table entry
    that touches one of its factors; a consumed factor is contracted out
    after a Kraus operator whose range on it is one-dimensional, at the
    last step whose non-identity entries touch it.  Both are decided once
    per program structure and initial layout, from the tables, and kept
    with the walk's plan (see :func:`run_exhaustive`).  Leaves carry no
    diagnostics.

    The walk goes level by level.  After each step, a node that no later
    step can tell apart from an earlier node of its level
    (:func:`_merge_level`) is merged into it, so one subtree is walked with
    the summed probability.  In channel terms, proportional Kraus operators
    become one, and sum_t K_t rho K_t^dagger does not change.  Every node
    still passes the norm-drift and pruning checks, and the leaves the
    leaf-sum check.

    Each leaf stands for a group: its first transcript and state, with the
    group's summed probability.  A reduction that reads only probabilities
    and states, such as an averaged output or a channel, equals the one
    over :func:`run_exhaustive`'s tree to rounding and up to the merges: one
    merge of mass p moves a leaf-averaged fidelity by at most
    2 p sqrt(dim) ``MERGE_TOL``, dim being the merged core's size.
    """
    leaves, _, pruned_mass, merged_nodes, merge_distance = _walk(program, initial, merge=True)
    return OutputMixture(leaves, pruned_mass, merged_nodes, merge_distance)


class _Plan:
    """What every walk of one program structure from one initial layout shares; see :func:`_walk_plan`."""

    __slots__ = (
        "core_pos", "res_pos", "sim_dims", "keep_pos", "out_layout", "attached",
        "alice_pos", "res_alice_local", "names", "steps", "live", "views",
    )


def _entries(form: Mapping, getter: Callable | None, table: Table, sim_dims: tuple):
    """A step's walk entries: per key, (instrument, positions, identity flag, attach, cuts).

    ``form`` gives per key the instrument's positions, identity flag,
    attach pairs and the ends it cuts (:func:`_walk_plan`).  Each distinct
    instrument gets one entry.  Keys are as ``getter`` reads them off the
    outcomes so far; a fixed step, whose getter is None, gets its one entry.
    """
    made: dict = {}
    entries = {}
    for key, inst in table.items():
        entry = made.get(inst)
        if entry is None:
            positions, identity, attach, ends = form[key]
            cuts: tuple = (None,) * len(inst.branches)
            if ends:
                cuts = tuple(
                    None if cut is None else (tuple(positions[i] for i in cut[0]), cut[1])
                    for cut in _cuts(inst, tuple(sim_dims[p] for p in positions), ends)
                )
            entry = made[inst] = (inst, positions, identity, attach, cuts)
        if getter is None:
            return entry
        entries[key[0] if len(key) == 1 else key] = entry
    return entries


def _walk_plan(program: ProtocolProgram, initial: PureState | None, merge: bool) -> _Plan:
    """The walk plan of ``program``'s record from ``initial``'s layout, made on first use.

    Making one checks ``initial`` against the program (:func:`_check_initial`).
    The plan holds the positions, the resources attached at the start, the
    leaf bookkeeping, and per step its condition getter (an itemgetter of
    the outcomes so far; one index reads the bare outcome), the form of
    each table entry, and the entries of the record's steps; ``live`` holds
    per step the getter of a merge key's outcomes, and ``views`` a core's
    dims and indices as walks meet them.
    """
    record = program._record
    key = (None if initial is None else initial.layout, merge)
    plan = record.plans.get(key)
    if plan is not None:
        return plan
    if initial is None:
        if program.input_labels:
            raise EngineError(f"program expects input factors {sorted(program.input_labels)}")
        if not program.resources:
            raise EngineError("nothing to simulate: no inputs and no resources")
        sim_layout = SystemLayout((), dim_cap=None)
    else:
        _check_initial(program, initial)
        sim_layout = initial.layout
    plan = _Plan()
    plan.core_pos = tuple(range(len(sim_layout)))
    res_pos = []
    for res in program.resources:
        res_pos.append(tuple(range(len(sim_layout), len(sim_layout) + len(res.layout))))
        sim_layout = sim_layout.concat(res.layout, dim_cap=None)
    plan.res_pos = res_pos
    plan.sim_dims = sim_dims = sim_layout.dims
    consumed = {i for i, f in enumerate(sim_layout.factors) if f.label in program.consumed}
    plan.keep_pos = tuple(i for i in range(len(sim_dims)) if i not in consumed)
    plan.out_layout = SystemLayout([sim_layout.factors[i] for i in plan.keep_pos], dim_cap=None)
    # a resource with a kept factor joins the block core at the start, any other at its first use
    plan.attached = tuple(r for r, pos in enumerate(res_pos) if not merge or not consumed.issuperset(pos))
    for r in plan.attached:
        plan.core_pos += res_pos[r]
    plan.alice_pos = tuple(i for i, f in enumerate(sim_layout.factors) if f.owner is ALICE)
    plan.res_alice_local = [
        [j for j, f in enumerate(res.layout.factors) if f.owner is ALICE]
        for res in program.resources
    ]

    steps = record.steps
    # per step, its distinct instruments (a table may hold one many times) and their positions
    placed = [
        {inst: tuple(sim_layout.positions(inst.labels)) for inst in dict.fromkeys(step.table.values())}
        for step in steps
    ]
    # the last step at which a non-identity entry touches each factor
    last_use = {
        p: idx
        for idx, step_insts in enumerate(placed)
        for inst, positions in step_insts.items()
        if not inst._identity
        for p in positions
    }
    resource_of = {p: r for r, pos in enumerate(res_pos) for p in pos}
    # Every step appends exactly one outcome, so the value of a condition
    # is read at the index of the step it names.
    plan.names = tuple(step.name for step in steps)
    plan.steps = []
    for idx, step in enumerate(steps):
        shapes = {}
        for inst, positions in placed[idx].items():
            # attach: (resource, one factor of it this instrument touches);
            # ends: the consumed factors at their last use, which a branch
            # leaving them on one line contracts out (_cuts)
            attach: tuple = ()
            ends: tuple = ()
            if merge and not inst._identity:
                attach = tuple({resource_of[p]: p for p in positions if p in resource_of}.items())
                ends = tuple(i for i, p in enumerate(positions) if p in consumed and last_use[p] == idx)
            shapes[inst] = (positions, inst._identity, attach, ends)
        form = {key: shapes[inst] for key, inst in step.table.items()}
        reads = [record.index[k] for k in step.condition_on]
        getter = operator.itemgetter(*reads) if reads else None
        plan.steps.append((getter, form, _entries(form, getter, step.table, sim_dims)))
    # the last step that reads each step's outcome; a merge key holds the
    # outcomes of the executed steps that a later step reads
    last_read = {j: k for k, step in enumerate(steps) for j in map(record.index.get, step.condition_on)}
    plan.live = []
    for idx in range(len(steps)):
        live = [j for j, k in last_read.items() if j <= idx < k]
        plan.live.append(operator.itemgetter(*live) if live else None)
    plan.views = {}
    if len(record.plans) >= WALK_PLANS:
        del record.plans[next(iter(record.plans))]
    record.plans[key] = plan
    return plan


def _walk(
    program: ProtocolProgram, initial: PureState | None, merge: bool
) -> tuple[tuple[Leaf, ...], float | np.ndarray | None, float, int, float]:
    """The full-state walk of :func:`run_exhaustive`, or with ``merge`` that of :func:`output_mixture`.

    Returns the leaves, the source of the initial Alice-side entropy
    (:class:`BranchTree`; None with ``merge``), the pruned mass, the number
    of nodes merged and the largest merge distance.  The walk follows the
    plan kept on the program's record (:func:`_walk_plan`) and binds only
    the steps the program rebound (:meth:`ProtocolProgram.with_instruments`).
    """
    _require_valid(program)
    plan = _walk_plan(program, initial, merge)
    sim_dims, keep_pos, names, live = plan.sim_dims, plan.keep_pos, plan.names, plan.live
    core = None if initial is None else initial.vector
    for r in plan.attached:
        vec = program.resources[r].vector
        core = vec if core is None else np.outer(core, vec).reshape(-1)
    if core is None:  # every resource waits for its first use
        core = np.ones(1, dtype=complex)
    initial_alice = None if merge else _alice_source(core, sim_dims, plan.alice_pos)
    steps = plan.steps
    if program._changed:
        steps = list(steps)
        for idx in program._changed:
            getter, form, _ = steps[idx]
            steps[idx] = (getter, form, _entries(form, getter, program.steps[idx].table, sim_dims))

    views = plan.views

    def view(core_pos: tuple, positions: tuple) -> tuple[tuple, tuple, tuple]:
        """For a core over ``core_pos``: its dims, the indices of ``positions``, and the other positions."""
        key = (core_pos, positions)
        hit = views.get(key)
        if hit is None:
            hit = views[key] = (
                tuple(sim_dims[p] for p in core_pos),
                tuple(core_pos.index(p) for p in positions),
                tuple(p for p in core_pos if p not in positions),
            )
        return hit

    leaves: list[Leaf] = []

    def finalize(vec: np.ndarray, core_pos: tuple, prob: float, outcomes: tuple) -> None:
        transcript = tuple(zip(names, outcomes))
        dims, keep, _ = view(core_pos, keep_pos)
        resources = alice = None
        if not merge:  # the core is the full state, in layout order
            resources = tuple(
                _resource_source(vec, dims, pos, alice_local)
                for pos, alice_local in zip(plan.res_pos, plan.res_alice_local)
            )
            alice = _alice_source(vec, dims, plan.alice_pos)
        try:
            out_vec = qmath.factor_pure_state(vec, dims, keep)
        except ValueError as exc:
            raise EngineError(f"at leaf {transcript}: {exc}") from exc
        leaves.append(Leaf(transcript, prob, PureState(plan.out_layout, out_vec), resources, alice))

    n_steps = len(steps)
    pruned_mass = 0.0
    merged_nodes, merge_distance = 0, 0.0
    # Depth-first walk over a stack of node lists, each node a (core,
    # core positions, path probability, outcomes so far).  Without ``merge``
    # every list holds one node: children are pushed in reverse so that
    # leaves come out in branch order, a child leaves the stack when its
    # subtree starts, and a node's core is released when the loop over the
    # next popped list rebinds ``vec``, before any child is expanded.  With
    # ``merge`` a level's children are merged and pushed as one list, so
    # the walk goes level by level.
    stack: list[tuple[int, list]] = [(0, [(core, plan.core_pos, 1.0, ())])]
    del core
    while stack:
        step_idx, nodes = stack.pop()
        if step_idx == n_steps:
            for vec, core_pos, prob, outcomes in nodes:
                finalize(vec, core_pos, prob, outcomes)
            continue
        name = names[step_idx]
        getter, _, entries = steps[step_idx]
        children = []
        for vec, core_pos, prob, outcomes in nodes:
            inst, positions, identity, attach, cuts = entries if getter is None else entries[getter(outcomes)]
            if identity:
                children.append((vec, core_pos, prob, outcomes + (inst.branches[0][0],)))
                continue
            for r, p in attach:
                # a factor leaves the core only after its last use, so one this
                # entry touches is missing exactly when its resource is not attached
                if p not in core_pos:
                    vec = np.outer(vec, program.resources[r].vector).reshape(-1)
                    core_pos += plan.res_pos[r]
            dims, where, _ = view(core_pos, positions)
            branch_total = 0.0
            for (outcome, kraus), cut in zip(inst.branches, cuts):
                child = qmath.apply_on_factors(vec, dims, where, kraus)
                child_pos = core_pos
                if cut is not None:
                    _, gone, child_pos = view(core_pos, cut[0])
                    child = qmath.contract_factors(child, dims, gone, cut[1])
                p = float(np.vdot(child, child).real)
                branch_total += p
                if p <= PRUNE_PROB:
                    pruned_mass += prob * p
                    if pruned_mass > LEAF_SUM_TOL:
                        raise EngineError(
                            f"pruned probability mass {pruned_mass:.3e} exceeds "
                            f"{LEAF_SUM_TOL:g} at step {name!r}"
                        )
                    continue
                qmath.divide_by_real(child, math.sqrt(p))
                children.append((child, child_pos, prob * p, outcomes + (outcome,)))
            if abs(branch_total - 1.0) > NODE_NORM_TOL:
                raise EngineError(f"norm drift {branch_total - 1.0:.3e} at step {name!r}")
        if merge:
            children, merged, distance = _merge_level(children, live[step_idx])
            merged_nodes += merged
            merge_distance = max(merge_distance, distance)
            stack.append((step_idx + 1, children))
        else:
            stack.extend((step_idx + 1, [child]) for child in reversed(children))
    total = sum(l.probability for l in leaves)
    if abs(total - 1.0) > LEAF_SUM_TOL:
        raise EngineError(f"leaf probabilities sum to {total}")
    return tuple(leaves), initial_alice, pruned_mass, merged_nodes, merge_distance


def _merge_level(nodes: list, live: Callable | None) -> tuple[list, int, float]:
    """Merge each node into the first earlier one that no later step can tell it apart from.

    Nodes are alike when they hold the same core positions, drew the same
    outcomes where ``live`` reads them (at the executed steps that a later
    step reads; None reads none), and hold the same state up to a global
    phase: within ``MERGE_TOL`` by :func:`_phase_distance`.  Their subtrees
    are then equal up to that phase.  The first node keeps its core and
    outcomes and takes the other's probability.  Returns the kept nodes,
    the number merged and the largest distance of a merge.
    """
    kept: list = []
    firsts: dict = {}
    merged, farthest = 0, 0.0
    for node in nodes:
        vec, core_pos, prob, outcomes = node
        same_key = firsts.setdefault((core_pos, None if live is None else live(outcomes)), [])
        for i in same_key:
            first_vec, _, first_prob, first_outcomes = kept[i]
            distance = _phase_distance(first_vec, vec)
            if distance <= MERGE_TOL:
                kept[i] = (first_vec, core_pos, first_prob + prob, first_outcomes)
                merged += 1
                farthest = max(farthest, distance)
                break
        else:
            same_key.append(len(kept))
            kept.append(node)
    return kept, merged, farthest


def _phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Largest entry of |a - c b|, the unit phase c aligning b with a on a's largest-magnitude entry."""
    i = int(np.argmax(np.abs(a)))
    if b[i] == 0:
        return math.inf
    c = a[i] / b[i]
    return float(np.max(np.abs(a - (c / abs(c)) * b)))


def _is_identity(kraus: np.ndarray) -> bool:
    n = kraus.shape[0]
    if kraus.shape != (n, n):
        return False
    return bool(np.array_equal(kraus, np.eye(n)))


def _kept_density(vec: np.ndarray, dims, positions) -> np.ndarray:
    """The read-only reduced density of ``vec`` on ``positions``, as a leaf keeps it."""
    rho = qmath.reduced_density(vec, dims, positions)
    rho.setflags(write=False)
    return rho


def _alice_source(vec: np.ndarray, dims, positions) -> float | np.ndarray:
    """What a tree keeps for the entropy of ``vec`` on ``positions``: 0.0 for none, else the density."""
    return _kept_density(vec, dims, positions) if positions else 0.0


def _entropy_from(source: float | np.ndarray | None) -> float | None:
    return source if source is None or isinstance(source, float) else qmath.von_neumann_entropy(source)


def _resource_source(vec: np.ndarray, dims, positions, alice_local) -> float | tuple:
    """Ebits left inside a resource's factors, across its own Alice|Bob split, or what gives them.

    Only meaningful when the factors end in a pure state of their own;
    anything mixed or still correlated with the rest counts as consumed, and
    a resource with no such split holds none: both settle at 0.0.  A pure
    resource gives (its reduced density, its factor dims, ``alice_local``)
    for :func:`_pure_resource_ebits`.
    """
    if not alice_local or len(alice_local) == len(positions):
        return 0.0
    rho = _kept_density(vec, dims, positions)
    purity = float(np.trace(rho @ rho).real)
    if purity < 1.0 - LEAF_PURITY_TOL:
        return 0.0
    return rho, tuple(dims[p] for p in positions), alice_local


def _pure_resource_ebits(rho: np.ndarray, sub_dims, alice_local) -> float:
    """The entanglement of the pure state with density ``rho`` across ``alice_local``."""
    _, v = np.linalg.eigh(rho)
    red = qmath.reduced_density(v[:, -1], sub_dims, alice_local)
    return qmath.von_neumann_entropy(red)


# ---------------------------------------------------------------------------
# round structure


def classify_rounds(program: ProtocolProgram) -> RoundProfile:
    """Collapse consecutive same-direction sends; merge declared simultaneous pairs.

    A program that :func:`validate_program` rejects raises :class:`EngineError`.
    """
    _require_valid(program)
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
    if rounds == ["both"]:
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
    _require_valid(program)
    steps = [replace(s, simultaneous_with_prev=False) for s in program.steps]
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
            raise EngineError("leaves without leaf diagnostics (output_mixture makes none)")
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


def choi_input(program: ProtocolProgram) -> PureState | None:
    """Maximally entangled state of the program inputs and one referee factor.

    The state is sum_i |i>|i> / sqrt(D) over the joint basis of
    ``program.input_labels``, in that order, and a referee factor of their
    total dimension D.  A run on it fixes the program's channel; see
    :func:`protocol_error`.  A program without inputs gets None, the initial
    state ``run_exhaustive`` takes for it.
    """
    inputs = [program.layout.factor(lb) for lb in program.input_labels]
    if not inputs:
        return None
    referee = "R"
    while referee in program.layout:
        referee += "_"
    dim = math.prod(f.dim for f in inputs)
    layout = SystemLayout(inputs + [(referee, dim, REFEREE)], dim_cap=None)
    return PureState(layout, np.eye(dim).reshape(-1) / math.sqrt(dim))


def _branch_operators(
    program: ProtocolProgram, choi: PureState, tree: BranchTree | OutputMixture
) -> np.ndarray:
    """K_t = sqrt(D p_t) unvec(leaf_t) for every leaf of a run on ``choi``, as (T, D, D)."""
    first = tree.leaves[0].state.layout
    layout = first.renamed(program.renames)
    if set(layout.labels) != set(choi.layout.labels) or any(
        leaf.state.layout != first for leaf in tree.leaves
    ):
        raise EngineError(f"leaves on {layout.labels} are not those of a run on {choi.layout.labels}")
    perm = layout.positions(choi.layout.labels)
    if tuple(layout.dims[i] for i in perm) != choi.dims:
        raise EngineError(f"leaf dimensions {layout.dims} differ from the inputs' {choi.dims}")
    dim = choi.dims[-1]
    states = np.stack([leaf.state.vector for leaf in tree.leaves]).reshape(-1, *layout.dims)
    states = states.transpose(0, *(i + 1 for i in perm)).reshape(-1, dim, dim)
    probs = np.array([leaf.probability for leaf in tree.leaves])
    return states * np.sqrt(dim * probs)[:, None, None]


def _channel_error(
    program: ProtocolProgram, target: GateSpec, state: PureState, tree: BranchTree | None
) -> float:
    """1 - F of ``program``'s channel against ``target`` on ``state``; see :func:`protocol_error`.

    The channel comes from the leaves of ``tree``, a run on the Choi input.
    Without one, that run is :func:`output_mixture`'s: merged branches have
    proportional Kraus operators, whose sum K rho K^dagger the merged leaf
    carries whole, so the channel and the error are the same.
    """
    inputs = program.input_labels
    outputs = {
        program.renames.get(lb, lb) for lb in program.layout.labels if lb not in program.consumed
    }
    if outputs != set(inputs):
        raise EngineError(
            f"output labels {sorted(outputs)} do not match program input labels {sorted(inputs)}"
        )
    choi = choi_input(program)
    if choi is None:
        raise EngineError("program has no inputs, so it implements no gate")
    expected = state.apply_unitary(target.matrix, target.labels)
    if tree is None:
        tree = output_mixture(program, choi)
    ops = _branch_operators(program, choi, tree)
    order = inputs + tuple(lb for lb in state.layout.labels if lb not in inputs)
    dim = ops.shape[1]
    psi = state.permuted(order).vector.reshape(dim, -1)
    want = expected.permuted(order).vector.reshape(-1)
    amps = (ops @ psi).reshape(len(ops), -1) @ want.conj()
    return max(0.0, 1.0 - float(np.vdot(amps, amps).real))


def protocol_error(
    program: ProtocolProgram,
    target: GateSpec,
    initial: PureState,
    tree: BranchTree | None = None,
) -> float:
    """1 - F between the target-rotated input and the averaged protocol output.

    The protocol's channel comes from ``tree``, a run of ``program`` on
    ``choi_input(program)``, made here when it is omitted.  Leaf t of that
    run, with probability p_t and a state on the inputs (after
    ``output_renames``) and the referee, gives the branch operator
    K_t = sqrt(D p_t) unvec(leaf_t) from inputs to outputs, D being the
    inputs' total dimension.  On an input psi, branch t then has probability
    ||(K_t (x) I) psi||^2, and F = sum_t |<(U (x) I) psi, (K_t (x) I) psi>|^2.

    A branch pruned on the Choi input has p_t <= PRUNE_PROB there, and so
    p_t(psi) <= ||K_t||^2 <= Tr(K_t^dagger K_t) = D p_t <= D * PRUNE_PROB on
    any psi: the branches a run prunes carry at most D * ``pruned_mass`` of
    any input's probability.
    """
    _check_initial(program, initial)
    return _channel_error(program, target, initial, tree)


def choi_error(program: ProtocolProgram, target: GateSpec, tree: BranchTree) -> float:
    """1 - sum_t |Tr(U^dagger K_t) / D|^2: one minus the entanglement fidelity.

    This is :func:`protocol_error` on ``choi_input(program)`` itself, for
    <(U (x) I) Phi, (K_t (x) I) Phi> = Tr(U^dagger K_t) / D.  It is 0 exactly
    when the protocol's channel is the target gate (Choi-Jamiolkowski).
    """
    return _channel_error(program, target, choi_input(program), tree)


def entanglement_monotonicity_gap(tree: BranchTree) -> float:
    """Initial Alice-side entropy minus the branch-averaged final value.

    Non-negative (up to numerics) for every valid LOCC program: averaging
    pure-state entanglement over measurement branches can only shrink it.
    """
    if any(l.alice_side_entropy is None for l in tree.leaves):
        raise EngineError("leaves without leaf diagnostics (output_mixture makes none)")
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


def program_to_json(program: ProtocolProgram) -> dict:
    """Flat JSON document; conditioned instruments are expanded case by case.

    A program that :func:`validate_program` rejects raises :class:`EngineError`.
    """
    _require_valid(program)
    steps = []
    for step in program.steps:
        doc = {
            "name": step.name,
            "party": step.party.value,
            "sends_message": step.sends_message,
            "simultaneous_with_prev": step.simultaneous_with_prev,
            "condition_on": list(step.condition_on),
        }
        if not step.condition_on:
            doc["instrument"] = _instrument_to_json(step.table[()])
        else:
            doc["cases"] = [
                {
                    "condition": dict(zip(step.condition_on, key)),
                    "instrument": _instrument_to_json(inst),
                }
                for key, inst in step.table.items()
            ]
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
        if "instrument" in sdoc:  # ProtocolStep rejects a fixed step with conditions
            table = {(): _instrument_from_json(sdoc["instrument"])}
        else:
            table = {
                tuple(case["condition"][k] for k in condition_on): _instrument_from_json(case["instrument"])
                for case in sdoc["cases"]
            }
            if len(table) != len(sdoc["cases"]):
                raise EngineError(f"step {sdoc['name']!r}: two cases for one condition")
        steps.append(
            ProtocolStep(
                name=sdoc["name"],
                party=Owner(sdoc["party"]),
                table=table,
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
