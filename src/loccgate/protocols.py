"""Concrete protocol builders.

Builders return :class:`~loccgate.engine.ProtocolProgram` objects (plus
derived quantities) for:

* a heralded two-round implementation of the ZZ-phase gate from a partially
  entangled pair, exact on success and a known over-rotation on failure;
* a deterministic two-round controlled-phase protocol consuming one Bell
  pair;
* their composition, which retries the failed branch and is exact end to
  end in three rounds;
* the one-round (simultaneous-exchange) protocol for generalized Clifford
  gates;
* majorization-driven entanglement dilution;
* a batched multi-copy plan built on a typical-subspace resource.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from . import analysis, qmath
from .engine import (
    PRUNE_PROB,
    EngineError,
    LocalInstrument,
    ProtocolProgram,
    ProtocolStep,
    identity_instrument,
    output_mixture,
    projective_instrument,
    run_exhaustive,
    tabulate,
    unitary_instrument,
)
from .model import (
    CNOT_TARGET_FIRST,
    CZ,
    I2,
    P0,
    P1,
    SX,
    SZ,
    ZZ,
    CliffordTable,
    GateSpec,
    NotClifford,
    bell_pair,
    clifford_conjugation_table,
    controlled_z_rotation_gate,
    choi_resource_state,
    partial_bell_pair,
    weyl_operator,
    z_rotation,
    zz_phase_gate,
)
from .systems import ALICE, BOB, REFEREE, Owner, PureState, SystemLayout

FIT_RESIDUAL_TOL = 1e-8
# fit_zz_rotation: an overlap this small has no usable phase
FIT_OVERLAP_FLOOR = 1e-12
# local_dressing: largest entry deviation of the dressed gate from U(phi), up to phase
DRESSING_TOL = 1e-10
# _mixing_chain: spectrum coordinates this close are equal
MIXING_TOL = 1e-12
# nielsen_dilution: a mixing step whose pair of coordinates differs by less is skipped
DILUTION_STEP_FLOOR = 1e-15
PLUS = np.array([1.0, 1.0]) / math.sqrt(2)
MINUS = np.array([1.0, -1.0]) / math.sqrt(2)
X_BASIS = {"plus": PLUS, "minus": MINUS}
Z_BASIS = {"zero": np.array([1.0, 0.0]), "one": np.array([0.0, 1.0])}
# the herald's outcomes, in the order of its branches
HERALD_OUTCOMES = ("success", "failure")
# the angle-independent half of controlled_phase_target
_I_P0 = np.kron(I2, P0)
# the angle at which each kept program is built; every build rebinds its angle-dependent instruments
REFERENCE_THETA = 1.0


def failure_angle(theta: float, alpha: float) -> float:
    """Magnitude of the over-rotation left by the failed heralded branch.

    2 * arctan(tan^2(alpha/2) / tan(theta/2)), in (0, pi).
    """
    if theta == 0.0:
        raise ValueError("theta = 0 leaves the failure angle undefined")
    return 2.0 * math.atan(math.tan(alpha / 2) ** 2 / math.tan(theta / 2))


@functools.cache
def _probe(labels: tuple[str, ...]) -> PureState:
    """|Phi>_{A,RA} |Phi>_{B,RB} in the factor order ``labels``, built once per order.

    The input on which :func:`build_heralded` fits its failed branch, and
    the reference of :func:`fit_zz_rotation`; its vector is read-only.
    """
    return (
        bell_pair(2, ("A", "RA"), (ALICE, REFEREE))
        .tensor(bell_pair(2, ("B", "RB"), (BOB, REFEREE)))
        .permuted(labels)
    )


@functools.cache
def _zz_probe(labels: tuple[str, ...]) -> PureState:
    """(ZZ x I)|Phi>|Phi> in the factor order ``labels``, built once per order."""
    return _probe(labels).apply_unitary(ZZ, ("A", "B"))


def fit_zz_rotation(state: PureState) -> tuple[float, float]:
    """Fit a ZZ-phase angle to a state of the form (U_t x I)|Phi>|Phi>.

    Expects labels {A, B, RA, RB}.  Returns (signed angle, fit residual);
    the global phase is irrelevant and the cosine component is taken
    non-negative, so the angle lands in [-pi, pi].
    """
    ref, zz = _probe(state.layout.labels), _zz_probe(state.layout.labels)
    a = ref.overlap(state)
    b = zz.overlap(state)
    if abs(a) < FIT_OVERLAP_FLOOR:
        angle = math.pi
    else:
        sin_val = ((-1j) * b * np.conj(a)).real / abs(a)
        angle = 2.0 * math.atan2(sin_val, abs(a))
    recon = math.cos(angle / 2) * ref.vector + 1j * math.sin(angle / 2) * zz.vector
    overlap = np.vdot(recon, state.vector)
    phase = overlap / abs(overlap) if abs(overlap) > FIT_OVERLAP_FLOOR else 1.0
    residual = float(np.linalg.norm(state.vector - phase * recon))
    return angle, residual


def _heralded_steps(
    herald: LocalInstrument, a: str, b: str, sys_a: str, sys_b: str, prefix: str
) -> list[ProtocolStep]:
    """Heralded ZZ-phase steps on the resource pair (a, b), ending with ``herald`` moved onto b."""
    meas_a = ProtocolStep(
        f"{prefix}meas_a", ALICE, {(): projective_instrument(ALICE, (a,), X_BASIS)}, sends_message=True
    )
    fix_b = tabulate((meas_a,), lambda m: unitary_instrument(BOB, (b,), I2 if m == "plus" else SZ))
    return [
        ProtocolStep(f"{prefix}cz_a", ALICE, {(): unitary_instrument(ALICE, (a, sys_a), CZ)}),
        meas_a,
        ProtocolStep(f"{prefix}fix_b", BOB, fix_b, condition_on=(meas_a.name,)),
        ProtocolStep(f"{prefix}cz_b", BOB, {(): unitary_instrument(BOB, (b, sys_b), CZ)}),
        ProtocolStep(f"{prefix}meas_b", BOB, {(): herald.on((b,))}, sends_message=True),
    ]


def _herald(theta: float, alpha: float) -> LocalInstrument:
    """Bob's herald on "b": the measurement whose "success" branch leaves the theta gate exact."""
    c, s = math.cos(theta / 2) / math.cos(alpha / 2), math.sin(theta / 2) / math.sin(alpha / 2)
    if not math.isfinite(c * c + s * s):  # the herald measurement normalizes (c, s) by its norm
        raise ValueError(f"alpha {alpha!r} too small: the herald vector's norm overflows")
    chi = np.array([c, s])
    return projective_instrument(BOB, ("b",), dict(zip(HERALD_OUTCOMES, (chi, np.array([chi[1], -chi[0]])))))


def _rotation(phi: float) -> LocalInstrument:
    """Alice's controlled Z rotation by ``phi``, from "a" onto "A"."""
    return unitary_instrument(ALICE, ("a", "A"), controlled_z_rotation_gate(phi).matrix)


def _dress(dressing: Dressing) -> LocalInstrument:
    """Alice's dressing rotation ``v_a``, on "A"."""
    return unitary_instrument(ALICE, ("A",), dressing.v_a.matrix)


@functools.cache
def _reference() -> tuple[LocalInstrument, LocalInstrument, LocalInstrument]:
    """The herald, controlled rotation and dressing that the kept programs hold, at ``REFERENCE_THETA``."""
    return (
        _herald(REFERENCE_THETA, math.sqrt(REFERENCE_THETA)),
        _rotation(REFERENCE_THETA),
        _dress(local_dressing(REFERENCE_THETA)),
    )


def _rebinding(heralded: HeraldedProtocol, dressing: Dressing) -> dict[LocalInstrument, LocalInstrument]:
    """The swap that rebinds a kept program: the probe's herald, the correction's rotation and dressing."""
    herald, rot, dress = _reference()
    return {
        herald: heralded.program.steps[-1].table[()],
        rot: _rotation(dressing.controlled_angle),
        dress: _dress(dressing),
    }


@functools.cache
def _kept_heralded() -> ProtocolProgram:
    """The heralded program at ``REFERENCE_THETA``, which every :func:`build_heralded` rebinds."""
    layout = SystemLayout([("A", 2, ALICE), ("B", 2, BOB), ("a", 2, ALICE), ("b", 2, BOB)])
    return ProtocolProgram(
        layout=layout,
        resources=(partial_bell_pair(math.sqrt(REFERENCE_THETA), ("a", "b")),),
        steps=_heralded_steps(_reference()[0], "a", "b", "A", "B", "h_"),
        consumed=("a", "b"),
    )


@dataclass(frozen=True)
class HeraldedProtocol:
    """Two-round heralded gate implementation and its branch data."""

    program: ProtocolProgram
    success_prob: float
    failure_angle: float  # signed; magnitude obeys the closed form


def build_heralded(theta: float, alpha: float) -> HeraldedProtocol:
    """Heralded ZZ-phase gate from the partially entangled resource pair.

    On the success outcome the gate is applied exactly; on failure a
    ZZ-rotation by a different angle is applied instead.  The signed failure
    angle is recovered by fitting the simulated failed branch rather than
    trusting a sign convention.  At a theta so small that the run prunes
    the failed branch (below ``engine.PRUNE_PROB``) there is nothing to fit,
    and the angle is rejected with a ``ValueError``.

    The program is the kept one (:func:`_kept_heralded`) with its herald
    and resource rebound (:meth:`~loccgate.engine.ProtocolProgram.with_instruments`),
    so its check and its walk plan are those of every earlier build.
    """
    if not 0.0 < alpha < math.pi:
        raise ValueError(f"alpha {alpha} outside (0, pi)")
    if not 0.0 < theta < math.inf:
        raise ValueError(f"theta {theta!r} must be positive and finite")
    herald = _herald(theta, alpha)
    program = _kept_heralded().with_instruments(
        {_reference()[0]: herald}, (partial_bell_pair(alpha, ("a", "b")),)
    )

    # the full-state walk of the one transcript fitted, the first failed one in
    # branch order; its bits fix the fitted angle and, through it, the CLI output
    tree = run_exhaustive(program, _probe(("A", "B", "RA", "RB")), _path=("h_meas_b", "failure"))
    if not tree.leaves:  # the run pruned the failure branch
        raise ValueError(
            f"theta {theta!r}, alpha {alpha!r}: the failure branch has probability at most "
            f"{PRUNE_PROB:g}, so there is no failure angle to fit"
        )
    fitted, residual = fit_zz_rotation(tree.leaves[0].state)
    if residual > FIT_RESIDUAL_TOL:
        raise EngineError(f"failed branch is not a ZZ rotation (residual {residual:.2e})")
    return HeraldedProtocol(
        program=program,
        success_prob=analysis.success_probability(theta, alpha),
        failure_angle=fitted,
    )


def controlled_phase_target(phi: float) -> GateSpec:
    """I (x) |0><0| + exp(i phi Z) (x) |1><1| on (A, B): B controls A."""
    return GateSpec(_controlled_phase_matrix(phi))


def _controlled_phase_matrix(phi: float) -> np.ndarray:
    """The matrix of :func:`controlled_phase_target`, unchecked; the outer product is np.kron's."""
    return _I_P0 + np.multiply.outer(z_rotation(phi), P1).transpose(0, 2, 1, 3).reshape(4, 4)


# a gated step's route table (see _gated)
Routes = Mapping[tuple[str, ...], tuple[str, str] | None]


def _gated(
    name: str,
    party: Owner,
    idle_label: str,
    routes: Routes,
    route_on: tuple[str, ...],
    build: Callable[..., LocalInstrument],
    *,
    reads: tuple[ProtocolStep, ...] = (),
    sends_message: bool = False,
) -> ProtocolStep:
    """One step of a sequence that runs only on the branches its route table selects.

    The step's table reads the steps named in ``route_on``, then the
    ``reads`` steps.  ``routes`` gives, per combination of the ``route_on``
    outcomes in ``itertools.product`` order, the (Alice, Bob) systems to
    act on, or None where the sequence idles; ``build`` makes the
    instrument from those systems and the ``reads`` outcomes.  An idle step
    is a one-outcome identity on ``idle_label`` that still sends its
    message, so the round profile does not depend on the branch.  A step
    that reads no outcome gets a fixed instrument.  The table holds each
    distinct instrument once, however many keys share it.
    """
    built: dict = {None: identity_instrument(party, (idle_label,), 2)}
    table = {}
    for route_key, systems in routes.items():
        for read_key in itertools.product(*(step.outcomes for step in reads)):
            memo = None if systems is None else (*systems, *read_key)
            if memo not in built:
                built[memo] = build(*memo)
            table[(*route_key, *read_key)] = built[memo]
    return ProtocolStep(
        name, party, table,
        condition_on=(*route_on, *(step.name for step in reads)), sends_message=sends_message,
    )


def _controlled_phase_steps(
    rot: LocalInstrument, a: str, b: str, prefix: str, routes: Routes, route_on: tuple[str, ...] = ()
) -> list[ProtocolStep]:
    """Controlled-phase steps on the Bell pair (a, b), with Bob's system as control.

    Bob CNOTs his system onto b and measures b; Alice flips a to match, so a
    carries Bob's control bit, applies the controlled Z rotation ``rot`` (on
    any labels, moved onto a and her system) and measures a in the X basis;
    Bob undoes the phase kick-back.  See :func:`_gated` for ``routes`` and
    ``route_on``.
    """
    cnot = _gated(f"{prefix}cnot", BOB, b, routes, route_on,
                  lambda _sa, sys_b: unitary_instrument(BOB, (b, sys_b), CNOT_TARGET_FIRST))
    meas_b = _gated(f"{prefix}meas_b", BOB, b, routes, route_on,
                    lambda *_: projective_instrument(BOB, (b,), Z_BASIS), sends_message=True)
    fix_a = _gated(f"{prefix}fix_a", ALICE, a, routes, route_on,
                   lambda _sa, _sb, m: unitary_instrument(ALICE, (a,), SX if m == "one" else I2), reads=(meas_b,))
    rot_a = _gated(f"{prefix}rot", ALICE, a, routes, route_on, lambda sys_a, _sb: rot.on((a, sys_a)))
    meas_a = _gated(f"{prefix}meas_a", ALICE, a, routes, route_on,
                    lambda *_: projective_instrument(ALICE, (a,), X_BASIS), sends_message=True)
    fix_b = _gated(f"{prefix}fix_B", BOB, b, routes, route_on,
                   lambda _sa, sys_b, m: unitary_instrument(BOB, (sys_b,), SZ if m == "minus" else I2), reads=(meas_a,))
    return [cnot, meas_b, fix_a, rot_a, meas_a, fix_b]


@functools.lru_cache(maxsize=64)
def _kept_controlled_phase(labels: tuple[str, ...]) -> ProtocolProgram:
    """The controlled-phase program on the Bell pair ``labels`` at ``REFERENCE_THETA``, kept per labels."""
    a, b = labels
    layout = SystemLayout([("A", 2, ALICE), ("B", 2, BOB), (a, 2, ALICE), (b, 2, BOB)])
    return ProtocolProgram(
        layout=layout,
        resources=(bell_pair(2, (a, b)),),
        steps=_controlled_phase_steps(_reference()[1], a, b, "c_", {(): ("A", "B")}),
        consumed=(a, b),
    )


def build_controlled_phase(
    phi: float, labels: Sequence[str] = ("a", "b")
) -> ProtocolProgram:
    """Deterministic controlled-phase protocol consuming one Bell pair.

    Implements I (x) |0><0| + exp(i phi Z) (x) |1><1| on (A, B) exactly on
    both measurement branches; two rounds, Bob messaging first.  The
    program is the one kept per ``labels`` with its rotation rebound.
    """
    if not math.isfinite(phi):
        raise ValueError(f"non-finite angle {phi}")
    return _kept_controlled_phase(tuple(labels)).with_instruments({_reference()[1]: _rotation(phi)})


@dataclass(frozen=True)
class Dressing:
    """Alice's local rotation relating the controlled-phase gate to the ZZ family.

    (v_a (x) I) . ControlledPhase(controlled_angle) = e^{i phase} U(phi):
    Bob's side needs no rotation at any angle.
    """

    v_a: GateSpec
    controlled_angle: float
    phase: float


def local_dressing(phi: float) -> Dressing:
    """Factor the ZZ-phase gate into strictly local rotations and a controlled gate.

    Uses Z (x) |1><1| = (Z (x) I - Z (x) Z) / 2 to split the controlled
    phase into Alice's local Z rotation times a ZZ-family element, then
    verifies the factorization numerically instead of trusting the algebra.
    Every factor is diagonal, which is checked first, so the verification
    runs on the diagonals; Bob's factor is the identity, so v_a (x) I has
    each entry of Alice's diagonal twice.
    """
    v_a = GateSpec(z_rotation(phi / 2), labels=("A",))
    controlled_angle = -phi
    factors = (v_a.matrix, _controlled_phase_matrix(controlled_angle), zz_phase_gate(phi).matrix)
    diagonals = [np.diagonal(mat) for mat in factors]
    if any(np.count_nonzero(mat) != np.count_nonzero(diag) for mat, diag in zip(factors, diagonals)):
        raise EngineError("dressing verification needs diagonal factors")
    a, controlled, target = diagonals
    lhs = np.repeat(a, 2) * controlled
    phase = float(np.angle(np.vdot(target, lhs) / 4.0))
    dev = float(np.max(np.abs(lhs - np.exp(1j * phase) * target)))
    if dev > DRESSING_TOL:
        raise EngineError(f"dressing verification failed (deviation {dev:.2e})")
    return Dressing(v_a, controlled_angle, phase)


def build_composite(theta: float, alpha: float | None = None) -> ProtocolProgram:
    """Try the heralded gate, then correct the failed branch deterministically.

    The correction implements the ZZ rotation by theta minus the fitted
    failure angle via the controlled-phase protocol plus Alice's local
    dressing rotation, so the end-to-end action is the theta gate on every
    branch.  Three rounds; one Bell pair consumed only on failure.  The
    program is the kept one (:func:`_kept_composite`) with the herald, the
    rotation, the dressing and the heralded resource rebound.
    """
    if alpha is None:
        alpha = math.sqrt(theta)
    heralded = build_heralded(theta, alpha)
    dressing = local_dressing(theta - heralded.failure_angle)
    kept = _kept_composite()
    return kept.with_instruments(
        _rebinding(heralded, dressing), (heralded.program.resources[0], *kept.resources[1:])
    )


@functools.cache
def _kept_composite() -> ProtocolProgram:
    """The composite program at ``REFERENCE_THETA``, which every :func:`build_composite` rebinds."""
    herald, rot, dress = _reference()
    layout = SystemLayout(
        [("A", 2, ALICE), ("B", 2, BOB), ("a", 2, ALICE), ("b", 2, BOB), ("a2", 2, ALICE), ("b2", 2, BOB)]
    )
    on_failure = {("success",): None, ("failure",): ("A", "B")}
    route_on = ("h_meas_b",)
    steps = [
        *_heralded_steps(herald, "a", "b", "A", "B", "h_"),
        *_controlled_phase_steps(rot, "a2", "b2", "c_", on_failure, route_on),
        _gated("c_dress", ALICE, "A", on_failure, route_on, lambda sys_a, _sb: dress.on((sys_a,))),
    ]
    return ProtocolProgram(
        layout=layout,
        resources=(
            partial_bell_pair(math.sqrt(REFERENCE_THETA), ("a", "b")),
            bell_pair(2, ("a2", "b2")),
        ),
        steps=steps,
        consumed=("a", "b", "a2", "b2"),
    )


def build_clifford(gate: GateSpec, table: CliffordTable | None = None) -> ProtocolProgram:
    """One-round simultaneous-exchange protocol for a generalized Clifford gate.

    Both parties measure their input together with their half of the
    pre-rotated resource in the shifted maximally-entangled basis, exchange
    outcomes simultaneously, and undo the conjugated Pauli pair on the
    resource halves, which then carry the gate output.
    """
    if table is None:
        table = clifford_conjugation_table(gate)
    if isinstance(table, NotClifford):
        raise ValueError(f"gate is not generalized Clifford (first failure {table.failing_index})")
    d = gate.local_dim
    if table.d != d:
        raise ValueError("table dimension does not match the gate")
    resource = choi_resource_state(gate)
    layout = SystemLayout(
        [("A", d, ALICE), ("B", d, BOB)] + list(resource.layout.factors), dim_cap=None
    )
    bell = bell_pair(d).vector
    # outcome "p,q": the Bell state with W(p, q)^dagger on its first half
    basis = {
        f"{p},{q}": np.kron(weyl_operator(d, p, q).conj().T, np.eye(d)) @ bell
        for p in range(d)
        for q in range(d)
    }

    @functools.cache
    def weyl_fix(party: Owner, label: str, u: int, v: int) -> LocalInstrument:
        """W(u, v)^dagger on ``label``, built once per correction value."""
        return unitary_instrument(party, (label,), weyl_operator(d, u, v).conj().T)

    def corrections(out_a: str, out_b: str) -> tuple[int, int, int, int, float]:
        """The table entry (p', q', r', s', phase) for Alice's outcome "p,q" and Bob's "r,s"."""
        return table.lookup(*map(int, f"{out_a},{out_b}".split(",")))

    def fix_at(out_a: str, out_b: str) -> LocalInstrument:
        pp, qp, _, _, _ = corrections(out_a, out_b)
        return weyl_fix(ALICE, "At", pp, qp)

    def fix_bt(out_a: str, out_b: str) -> LocalInstrument:
        _, _, rp, sp, _ = corrections(out_a, out_b)
        return weyl_fix(BOB, "Bt", rp, sp)

    meas = (
        ProtocolStep(
            "cl_meas_a", ALICE, {(): projective_instrument(ALICE, ("A", "a"), basis)}, sends_message=True
        ),
        ProtocolStep(
            "cl_meas_b", BOB, {(): projective_instrument(BOB, ("B", "b"), basis)},
            sends_message=True, simultaneous_with_prev=True,
        ),
    )
    reads = ("cl_meas_a", "cl_meas_b")
    steps = [
        *meas,
        ProtocolStep("cl_fix_a", ALICE, tabulate(meas, fix_at), condition_on=reads),
        ProtocolStep("cl_fix_b", BOB, tabulate(meas, fix_bt), condition_on=reads),
    ]
    return ProtocolProgram(
        layout=layout,
        resources=(resource,),
        steps=steps,
        consumed=("A", "a", "B", "b"),
        output_renames={"At": "A", "Bt": "B"},
    )


# ---------------------------------------------------------------------------
# dilution


def _mixing_chain(target: np.ndarray, start: np.ndarray) -> list[tuple[int, int, np.ndarray]]:
    """Two-coordinate mixing steps carrying ``target`` down to ``start``.

    Both inputs descending, start majorized by target.  Returns a list of
    (j, l, next_vector): each next differs from the previous on the pair
    (j, l) and is closer to ``start``; at most len - 1 steps.
    """
    chain = []
    y = target.copy()
    for _ in range(len(y) * 2):
        diff = y - start
        if np.max(np.abs(diff)) <= MIXING_TOL:
            break
        j = int(np.max(np.nonzero(diff > MIXING_TOL)[0]))  # largest index with y > x
        later = np.nonzero(diff[j + 1 :] < -MIXING_TOL)[0]
        if later.size == 0:
            raise ValueError("majorization chain failed; inputs not comparable")
        l = j + 1 + int(later[0])
        delta = min(y[j] - start[j], start[l] - y[l])
        y = y.copy()
        y[j] -= delta
        y[l] += delta
        chain.append((j, l, y.copy()))
    else:
        raise ValueError("mixing chain did not terminate")
    return chain


def nielsen_dilution(
    target: Sequence[float], k: int, labels: Sequence[str] = ("a", "b")
) -> ProtocolProgram:
    """Exact conversion of a rank-2^k maximally entangled pair to a target spectrum.

    Realizes each two-coordinate spreading step as a two-outcome diagonal
    measurement by Alice with a permutation correction on Bob's side; the
    output state has Schmidt coefficients equal to the (descending) target
    on every branch.  Requires the uniform distribution on 2^k points to be
    majorized by the target.
    """
    if k < 1:
        raise ValueError(f"k = {k} must be at least 1")
    dim = 2**k
    a, b = labels
    layout = SystemLayout([(a, dim, ALICE), (b, dim, BOB)])  # the size cap rejects k >= 7 here
    tgt = qmath.as_distribution(target)
    padded = np.pad(tgt, (0, max(dim - tgt.size, 0)))
    uniform = np.full(dim, 1.0 / dim)
    if tgt.size > dim or not qmath.majorizes(uniform, padded):
        raise ValueError("uniform(2^k) is not majorized by the target spectrum")
    tgt = np.sort(padded)[::-1]

    chain = _mixing_chain(tgt, uniform)
    steps: list[ProtocolStep] = []
    # protocol direction runs the chain in reverse: spectrum z_{i+1} -> z_i
    specs = [tgt] + [z for (_, _, z) in chain]  # specs[i] reached after undoing i steps
    for t, idx in enumerate(range(len(chain) - 1, -1, -1)):
        j, l, _ = chain[idx]
        lam = specs[idx + 1]  # current (more mixed)
        lam_next = specs[idx]  # next (more spread)
        if abs(lam_next[j] - lam_next[l]) < DILUTION_STEP_FLOOR:
            continue
        p0 = 0.5 * (1.0 + (lam[j] - lam[l]) / (lam_next[j] - lam_next[l]))
        p1 = 1.0 - p0
        d0 = np.full(dim, math.sqrt(max(p0, 0.0)))
        d1 = np.full(dim, math.sqrt(max(p1, 0.0)))
        d0[j] = math.sqrt(p0 * lam_next[j] / lam[j]) if lam[j] > 0 else 0.0
        d0[l] = math.sqrt(p0 * lam_next[l] / lam[l]) if lam[l] > 0 else 0.0
        d1[j] = math.sqrt(p1 * lam_next[l] / lam[j]) if lam[j] > 0 else 0.0
        d1[l] = math.sqrt(p1 * lam_next[j] / lam[l]) if lam[l] > 0 else 0.0
        perm = np.eye(dim, dtype=complex)
        perm[[j, l]] = perm[[l, j]]
        m0 = np.diag(d0).astype(complex)
        m1 = perm @ np.diag(d1).astype(complex)
        meas = ProtocolStep(
            f"dil{t}_meas", ALICE, {(): LocalInstrument(ALICE, (a,), [("keep", m0), ("swap", m1)])},
            sends_message=True,
        )
        fix = tabulate(
            (meas,),
            lambda o: unitary_instrument(BOB, (b,), perm if o == "swap" else np.eye(dim, dtype=complex)),
        )
        steps += [meas, ProtocolStep(f"dil{t}_fix", BOB, fix, condition_on=(meas.name,))]
    return ProtocolProgram(
        layout=layout,
        resources=(bell_pair(dim, (a, b)),),
        steps=steps,
        consumed=(),
    )


# ---------------------------------------------------------------------------
# batched multi-copy protocol


MAX_BATCH_SIMULATION = 3


@dataclass(frozen=True)
class BatchPlan:
    """Resource budget and (for small n) a runnable batched program.

    The budget counts Bell pairs per the three-stage plan: dilute into the
    typical-subspace resource, run the heralded gate on every copy, then
    correct heralded failures from a Bell pool.  ``program`` is populated
    only for n <= MAX_BATCH_SIMULATION, where exhaustive simulation is
    tractable.
    """

    theta: float
    n: int
    delta: float
    entropy: float
    success_prob: float
    failure_angle: float
    bell_budget: float  # n * (1 - p + h + 2 delta)
    dilution_ebits: float  # n * (h + delta)
    dilution_bell_count: int
    correction_bell_count: int
    typical_weight: float
    typical_set: analysis.TypicalSet
    error_bound: float  # projection error + 2 * excess-failure probability
    omega: PureState | None
    program: ProtocolProgram | None

    @property
    def typical_count(self) -> int:
        """The exact number of typical sequences, summed on first read (``TypicalSet.count``)."""
        return self.typical_set.count


def typical_resource(tset: analysis.TypicalSet) -> PureState:
    """Typical-subspace projection of n copies of the heralded resource pair.

    ``tset`` is the typical set of the resource spectrum at n = ``tset.n``.
    The state lives on qubit factors a1..an (Alice) and b1..bn (Bob); its
    amplitudes are the renormalized product coefficients over typical
    bitstrings, with the per-copy i phase on each 1.
    """
    n = tset.n
    if not tset.runs:
        raise ValueError(
            f"typical set is empty at n={n}, delta={tset.delta}; enlarge delta"
        )
    lam0, lam1 = tset.probs
    factors = [(f"a{i+1}", 2, ALICE) for i in range(n)] + [
        (f"b{i+1}", 2, BOB) for i in range(n)
    ]
    layout = SystemLayout(factors, dim_cap=None)
    vec = np.zeros(layout.dim, dtype=complex)
    for x in range(2**n):
        if not tset.is_typical([(x >> i) & 1 for i in range(n)]):
            continue
        ones = bin(x).count("1")
        amp = (1j**ones) * math.sqrt(lam0 ** (n - ones) * lam1**ones / tset.weight)
        vec[x * (2**n) + x] = amp
    return PureState(layout, vec, normalize=True)


def build_batch(theta: float, n: int, delta: float) -> BatchPlan:
    """Plan (and for n <= 3 build) the batched multi-copy protocol.

    A call builds only what theta changes: the plan's numbers, the heralded
    probe, the typical resource and three instruments, each once (the
    herald, the controlled rotation and the dressing).  The program is the
    one kept per (n, pool) (:func:`_kept_batch`) with those rebound
    (:meth:`~loccgate.engine.ProtocolProgram.with_instruments`), which
    moves each onto its copies and slots; its check and its walk plans are
    those of every earlier build of that structure.

    theta must lie in (0, pi^2), so that the resource angle sqrt(theta)
    lies in (0, pi); n must be an integer at least 1 and delta positive
    and finite.  Anything else raises a ``ValueError`` naming the argument.
    """
    if not 0.0 < theta < math.pi**2:
        raise ValueError(f"theta {theta!r} outside (0, pi^2): sqrt(theta) must lie in (0, pi)")
    if not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError(f"n {n!r} must be an integer at least 1")
    if not 0.0 < delta < math.inf:
        raise ValueError(f"delta {delta!r} must be positive and finite")
    lam = analysis.resource_spectrum(theta)
    entropy = qmath.shannon_entropy(lam)
    p = analysis.success_probability(theta)
    tset = analysis.typical_set(n, delta, lam)
    report = analysis.error_budget(n, delta, theta, tset=tset)
    heralded = build_heralded(theta, math.sqrt(theta))
    correction = theta - heralded.failure_angle
    dressing = local_dressing(correction)

    bell_budget = n * (1.0 - p + entropy + 2.0 * delta)
    dilution_bells = math.ceil(n * (entropy + delta))
    pool = min(math.ceil(n * (1.0 - p + delta)), n)

    omega = typical_resource(tset) if n <= MAX_BATCH_SIMULATION else None
    program = None
    if omega is not None:
        kept = _kept_batch(n, pool)
        program = kept.with_instruments(_rebinding(heralded, dressing), (omega, *kept.resources[1:]))
    return BatchPlan(
        theta=theta,
        n=n,
        delta=delta,
        entropy=entropy,
        success_prob=p,
        failure_angle=heralded.failure_angle,
        bell_budget=bell_budget,
        dilution_ebits=n * (entropy + delta),
        dilution_bell_count=dilution_bells,
        correction_bell_count=pool,
        typical_weight=tset.weight,
        typical_set=tset,
        error_bound=report.total_error,
        omega=omega,
        program=program,
    )


@functools.cache
def _kept_batch(n: int, pool: int) -> ProtocolProgram:
    """The batched program at n copies and ``pool`` Bell pairs, at ``REFERENCE_THETA``; kept per (n, pool).

    Heralded gate on every copy; slot m of the Bell pool corrects the m-th
    failed copy, its route table sending it to that copy's (A_i, B_i).
    Every resource factor is consumed.  The typical resource, which every
    build replaces, is held as |0...0> on its layout.
    """
    herald, rot, dress = _reference()
    copies = range(1, n + 1)
    bells = tuple(bell_pair(2, (f"ba{m}", f"bb{m}")) for m in range(pool))
    typical = SystemLayout(
        [(f"a{i}", 2, ALICE) for i in copies] + [(f"b{i}", 2, BOB) for i in copies], dim_cap=None
    )
    layout = SystemLayout(
        [(f"A{i}", 2, ALICE) for i in copies] + [(f"B{i}", 2, BOB) for i in copies]
        + [*typical.factors, *(f for bell in bells for f in bell.layout.factors)],
        dim_cap=None,
    )
    routes = []
    for m in range(pool):
        table = {}
        for outcomes in itertools.product(HERALD_OUTCOMES, repeat=n):
            failed = [i for i, o in zip(copies, outcomes) if o == "failure"]
            table[outcomes] = (f"A{failed[m]}", f"B{failed[m]}") if m < len(failed) else None
        routes.append(table)
    shots = [_heralded_steps(herald, f"a{i}", f"b{i}", f"A{i}", f"B{i}", f"s{i}_") for i in copies]
    heralds = tuple(shot[-1].name for shot in shots)  # s{i}_meas_b
    slots = [
        [
            *_controlled_phase_steps(rot, f"ba{m}", f"bb{m}", f"p{m}_", routes[m], heralds),
            _gated(f"p{m}_dress", ALICE, f"ba{m}", routes[m], heralds, lambda sys_a, _sb: dress.on((sys_a,))),
        ]
        for m in range(pool)
    ]
    # Stage by stage (every copy's cz_a, then every copy's meas_a, ..., then
    # every slot's cnot, ...), so all copies share the three rounds.
    steps = [s for group in (shots, slots) for stage in zip(*group) for s in stage]
    placeholder = PureState(typical, np.eye(1, typical.dim, dtype=complex))
    return ProtocolProgram(
        layout=layout, resources=(placeholder, *bells), steps=steps, consumed=layout.labels[2 * n :]
    )


def batch_error(plan: BatchPlan, initial: PureState) -> float:
    """End-to-end infidelity of the batched program against per-pair theta gates.

    1 - sum_t p_t |<U psi|out_t>|^2 over :func:`engine.output_mixture`'s
    leaves, so branches that no later step can tell apart are walked once
    (at theta = 0.7 and n = 3, 8 groups for 1000 transcripts).
    """
    if plan.program is None:
        raise ValueError(f"no runnable program for n = {plan.n}")
    u = zz_phase_gate(plan.theta).matrix
    expected = initial
    for i in range(plan.n):
        expected = expected.apply_unitary(u, (f"A{i+1}", f"B{i+1}"))
    fid = 0.0
    for leaf in output_mixture(plan.program, initial).leaves:
        fid += leaf.probability * abs(expected.overlap(leaf.state)) ** 2
    return max(0.0, 1.0 - fid)
