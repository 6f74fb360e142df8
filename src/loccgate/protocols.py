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

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from . import analysis, qmath
from .engine import (
    EngineError,
    LocalInstrument,
    ProtocolProgram,
    ProtocolStep,
    identity_instrument,
    projective_instrument,
    run_exhaustive,
    unitary_instrument,
    validate_program,
)
from .model import (
    SX,
    SZ,
    CliffordTable,
    GateSpec,
    NotClifford,
    bell_pair,
    clifford_conjugation_table,
    cnot_target_first_gate,
    controlled_z_rotation_gate,
    cz_gate,
    choi_resource_state,
    partial_bell_pair,
    weyl_operator,
    z_rotation,
    zz_phase_gate,
)
from .systems import ALICE, BOB, REFEREE, Owner, PureState, SystemLayout

FIT_RESIDUAL_TOL = 1e-8
PLUS = np.array([1.0, 1.0]) / math.sqrt(2)
MINUS = np.array([1.0, -1.0]) / math.sqrt(2)
X_BASIS = {"plus": PLUS, "minus": MINUS}

# Reads transcript outcomes; returns the (Alice, Bob) systems a gated step
# acts on, or None where it idles.
Route = Callable[[Mapping[str, str]], tuple[str, str] | None]


def failure_angle(theta: float, alpha: float) -> float:
    """Magnitude of the over-rotation left by the failed heralded branch.

    2 * arctan(tan^2(alpha/2) / tan(theta/2)), in (0, pi).
    """
    if theta == 0.0:
        raise ValueError("theta = 0 leaves the failure angle undefined")
    return 2.0 * math.atan(math.tan(alpha / 2) ** 2 / math.tan(theta / 2))


def fit_zz_rotation(state: PureState) -> tuple[float, float]:
    """Fit a ZZ-phase angle to a state of the form (U_t x I)|Phi>|Phi>.

    Expects labels {A, B, RA, RB}.  Returns (signed angle, fit residual);
    the global phase is irrelevant and the cosine component is taken
    non-negative, so the angle lands in [-pi, pi].
    """
    ref = (
        bell_pair(2, ("A", "RA"), (ALICE, REFEREE))
        .tensor(bell_pair(2, ("B", "RB"), (BOB, REFEREE)))
        .permuted(state.layout.labels)
    )
    zz = ref.apply_unitary(np.kron(SZ, SZ), ("A", "B"))
    a = ref.overlap(state)
    b = zz.overlap(state)
    if abs(a) < 1e-12:
        angle = math.pi
    else:
        sin_val = ((-1j) * b * np.conj(a)).real / abs(a)
        angle = 2.0 * math.atan2(sin_val, abs(a))
    recon = math.cos(angle / 2) * ref.vector + 1j * math.sin(angle / 2) * zz.vector
    overlap = np.vdot(recon, state.vector)
    phase = overlap / abs(overlap) if abs(overlap) > 1e-12 else 1.0
    residual = float(np.linalg.norm(state.vector - phase * recon))
    return angle, residual


def _heralded_steps(
    theta: float, alpha: float, a: str, b: str, sys_a: str, sys_b: str, prefix: str
) -> list[ProtocolStep]:
    """Heralded ZZ-phase steps on the resource pair (a, b); see :func:`build_heralded`."""
    chi = np.array(
        [math.cos(theta / 2) / math.cos(alpha / 2), math.sin(theta / 2) / math.sin(alpha / 2)]
    )
    cz = cz_gate().matrix
    meas_a = f"{prefix}meas_a"

    def fix_b(visible: Mapping[str, str]) -> LocalInstrument:
        return unitary_instrument(BOB, (b,), np.eye(2, dtype=complex) if visible[meas_a] == "plus" else SZ)

    herald = {"success": chi, "failure": np.array([chi[1], -chi[0]])}
    return [
        ProtocolStep(f"{prefix}cz_a", ALICE, instrument=unitary_instrument(ALICE, (a, sys_a), cz)),
        ProtocolStep(meas_a, ALICE, instrument=projective_instrument(ALICE, (a,), X_BASIS), sends_message=True),
        ProtocolStep(f"{prefix}fix_b", BOB, instrument_fn=fix_b, condition_on=(meas_a,)),
        ProtocolStep(f"{prefix}cz_b", BOB, instrument=unitary_instrument(BOB, (b, sys_b), cz)),
        ProtocolStep(
            f"{prefix}meas_b", BOB, instrument=projective_instrument(BOB, (b,), herald), sends_message=True
        ),
    ]


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
    trusting a sign convention.
    """
    if not 0.0 < alpha < math.pi:
        raise ValueError(f"alpha {alpha} outside (0, pi)")
    if not 0.0 < theta:
        raise ValueError(f"theta {theta} must be positive")
    layout = SystemLayout(
        [("A", 2, ALICE), ("B", 2, BOB), ("a", 2, ALICE), ("b", 2, BOB)]
    )
    program = ProtocolProgram(
        layout=layout,
        resources=(partial_bell_pair(alpha, ("a", "b")),),
        steps=_heralded_steps(theta, alpha, "a", "b", "A", "B", "h_"),
        consumed=("a", "b"),
    )
    if (v := validate_program(program)) is not None:
        raise EngineError(f"heralded program invalid: {v}")

    probe = (
        bell_pair(2, ("A", "RA"), (ALICE, REFEREE))
        .tensor(bell_pair(2, ("B", "RB"), (BOB, REFEREE)))
        .permuted(("A", "B", "RA", "RB"))
    )
    tree = run_exhaustive(program, probe)
    fitted = None
    for leaf in tree.leaves:
        if dict(leaf.transcript)["h_meas_b"] == "failure":
            angle, residual = fit_zz_rotation(leaf.state)
            if residual > FIT_RESIDUAL_TOL:
                raise EngineError(f"failed branch is not a ZZ rotation (residual {residual:.2e})")
            fitted = angle
            break
    if fitted is None:
        raise EngineError("no failure branch found while fitting")
    return HeraldedProtocol(
        program=program,
        success_prob=analysis.success_probability(theta, alpha),
        failure_angle=fitted,
    )


def controlled_phase_target(phi: float) -> GateSpec:
    """I (x) |0><0| + exp(i phi Z) (x) |1><1| on (A, B): B controls A."""
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    return GateSpec(np.kron(np.eye(2, dtype=complex), p0) + np.kron(z_rotation(phi), p1))


def _gated(
    name: str,
    party: Owner,
    idle_label: str,
    route: Route,
    route_on: tuple[str, ...],
    build: Callable[[Mapping[str, str], str, str], LocalInstrument],
    *,
    reads: tuple[str, ...] = (),
    sends_message: bool = False,
) -> ProtocolStep:
    """One step of a sequence that runs only on the branches ``route`` selects.

    ``route`` reads the ``route_on`` outcomes and returns the (Alice, Bob)
    systems to act on, or None where the sequence idles; ``build`` makes the
    instrument from the visible outcomes and those systems.  An idle step is
    a one-outcome identity on ``idle_label`` that still sends its message, so
    the round profile does not depend on the branch.  A step that reads no
    outcome gets a fixed instrument.
    """

    def resolve(visible: Mapping[str, str]) -> LocalInstrument:
        systems = route(visible)
        if systems is None:
            return identity_instrument(party, (idle_label,), 2)
        return build(visible, *systems)

    condition_on = (*route_on, *reads)
    if not condition_on:
        return ProtocolStep(name, party, instrument=resolve({}), sends_message=sends_message)
    return ProtocolStep(
        name, party, instrument_fn=resolve, condition_on=condition_on, sends_message=sends_message
    )


def _controlled_phase_steps(
    phi: float, a: str, b: str, prefix: str, route: Route, route_on: tuple[str, ...] = ()
) -> list[ProtocolStep]:
    """Controlled-phase steps on the Bell pair (a, b), with Bob's system as control.

    Bob CNOTs his system onto b and measures b; Alice flips a to match, so a
    carries Bob's control bit, applies the controlled Z rotation from a to her
    system and measures a in the X basis; Bob undoes the phase kick-back.
    See :func:`_gated` for ``route`` and ``route_on``.
    """
    cnot = cnot_target_first_gate().matrix
    rot = controlled_z_rotation_gate(phi).matrix
    z_basis = {"zero": np.array([1.0, 0.0]), "one": np.array([0.0, 1.0])}
    meas_b, meas_a = f"{prefix}meas_b", f"{prefix}meas_a"

    def fix_a(visible: Mapping[str, str], _sys_a: str, _sys_b: str) -> LocalInstrument:
        return unitary_instrument(ALICE, (a,), SX if visible[meas_b] == "one" else np.eye(2, dtype=complex))

    def fix_b(visible: Mapping[str, str], _sys_a: str, sys_b: str) -> LocalInstrument:
        return unitary_instrument(BOB, (sys_b,), SZ if visible[meas_a] == "minus" else np.eye(2, dtype=complex))

    return [
        _gated(f"{prefix}cnot", BOB, b, route, route_on,
               lambda _v, _sa, sys_b: unitary_instrument(BOB, (b, sys_b), cnot)),
        _gated(meas_b, BOB, b, route, route_on,
               lambda *_: projective_instrument(BOB, (b,), z_basis), sends_message=True),
        _gated(f"{prefix}fix_a", ALICE, a, route, route_on, fix_a, reads=(meas_b,)),
        _gated(f"{prefix}rot", ALICE, a, route, route_on,
               lambda _v, sys_a, _sb: unitary_instrument(ALICE, (a, sys_a), rot)),
        _gated(meas_a, ALICE, a, route, route_on,
               lambda *_: projective_instrument(ALICE, (a,), X_BASIS), sends_message=True),
        _gated(f"{prefix}fix_B", BOB, b, route, route_on, fix_b, reads=(meas_a,)),
    ]


def build_controlled_phase(
    phi: float, labels: Sequence[str] = ("a", "b")
) -> ProtocolProgram:
    """Deterministic controlled-phase protocol consuming one Bell pair.

    Implements I (x) |0><0| + exp(i phi Z) (x) |1><1| on (A, B) exactly on
    both measurement branches; two rounds, Bob messaging first.
    """
    if not math.isfinite(phi):
        raise ValueError(f"non-finite angle {phi}")
    a, b = labels
    layout = SystemLayout([("A", 2, ALICE), ("B", 2, BOB), (a, 2, ALICE), (b, 2, BOB)])
    program = ProtocolProgram(
        layout=layout,
        resources=(bell_pair(2, (a, b)),),
        steps=_controlled_phase_steps(phi, a, b, "c_", lambda _v: ("A", "B")),
        consumed=(a, b),
    )
    if (v := validate_program(program)) is not None:
        raise EngineError(f"controlled-phase program invalid: {v}")
    return program


@dataclass(frozen=True)
class Dressing:
    """Local unitaries relating the controlled-phase gate to the ZZ family.

    (v_a (x) v_b) . ControlledPhase(controlled_angle) = e^{i phase} U(phi).
    """

    v_a: GateSpec
    v_b: GateSpec
    controlled_angle: float
    phase: float


def local_dressing(phi: float) -> Dressing:
    """Factor the ZZ-phase gate into strictly local rotations and a controlled gate.

    Uses Z (x) |1><1| = (Z (x) I - Z (x) Z) / 2 to split the controlled
    phase into a local Z rotation times a ZZ-family element, then verifies
    the factorization numerically instead of trusting the algebra.
    """
    v_a = GateSpec(z_rotation(phi / 2), labels=("A",))
    v_b = GateSpec(np.eye(2, dtype=complex), labels=("B",))
    controlled_angle = -phi
    lhs = np.kron(v_a.matrix, v_b.matrix) @ controlled_phase_target(controlled_angle).matrix
    target = zz_phase_gate(phi).matrix
    inner = np.trace(target.conj().T @ lhs) / 4.0
    phase = float(np.angle(inner))
    dev = float(np.max(np.abs(lhs - np.exp(1j * phase) * target)))
    if dev > 1e-10:
        raise EngineError(f"dressing verification failed (deviation {dev:.2e})")
    return Dressing(v_a, v_b, controlled_angle, phase)


def build_composite(theta: float, alpha: float | None = None) -> ProtocolProgram:
    """Try the heralded gate, then correct the failed branch deterministically.

    The correction implements the ZZ rotation by theta minus the fitted
    failure angle via the controlled-phase protocol plus Alice's local
    dressing rotation, so the end-to-end action is the theta gate on every
    branch.  Three rounds; one Bell pair consumed only on failure.
    """
    if alpha is None:
        alpha = math.sqrt(theta)
    heralded = build_heralded(theta, alpha)
    correction = theta - heralded.failure_angle
    dressing = local_dressing(correction)

    layout = SystemLayout(
        [("A", 2, ALICE), ("B", 2, BOB), ("a", 2, ALICE), ("b", 2, BOB), ("a2", 2, ALICE), ("b2", 2, BOB)]
    )

    def on_failure(visible: Mapping[str, str]) -> tuple[str, str] | None:
        return ("A", "B") if visible["h_meas_b"] == "failure" else None

    steps = [
        *heralded.program.steps,
        *_controlled_phase_steps(dressing.controlled_angle, "a2", "b2", "c_", on_failure, ("h_meas_b",)),
        _gated("c_dress", ALICE, "A", on_failure, ("h_meas_b",),
               lambda _v, sys_a, _sb: unitary_instrument(ALICE, (sys_a,), dressing.v_a.matrix)),
    ]
    program = ProtocolProgram(
        layout=layout,
        resources=(
            partial_bell_pair(alpha, ("a", "b")),
            bell_pair(2, ("a2", "b2")),
        ),
        steps=steps,
        consumed=("a", "b", "a2", "b2"),
    )
    if (v := validate_program(program)) is not None:
        raise EngineError(f"composite program invalid: {v}")
    return program


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

    def meas_basis(side_weyl_dagger: bool = True) -> dict[str, np.ndarray]:
        basis = {}
        for p in range(d):
            for q in range(d):
                mat = weyl_operator(d, p, q).conj().T
                basis[f"{p},{q}"] = np.kron(mat, np.eye(d)) @ bell
        return basis

    def fix_at(visible: Mapping[str, str]) -> LocalInstrument:
        p, q = map(int, visible["cl_meas_a"].split(","))
        r, s = map(int, visible["cl_meas_b"].split(","))
        pp, qp, _, _, _ = table.lookup(p, q, r, s)
        return unitary_instrument(ALICE, ("At",), weyl_operator(d, pp, qp).conj().T)

    def fix_bt(visible: Mapping[str, str]) -> LocalInstrument:
        p, q = map(int, visible["cl_meas_a"].split(","))
        r, s = map(int, visible["cl_meas_b"].split(","))
        _, _, rp, sp, _ = table.lookup(p, q, r, s)
        return unitary_instrument(BOB, ("Bt",), weyl_operator(d, rp, sp).conj().T)

    steps = [
        ProtocolStep(
            "cl_meas_a",
            ALICE,
            instrument=projective_instrument(ALICE, ("A", "a"), meas_basis()),
            sends_message=True,
        ),
        ProtocolStep(
            "cl_meas_b",
            BOB,
            instrument=projective_instrument(BOB, ("B", "b"), meas_basis()),
            sends_message=True,
            simultaneous_with_prev=True,
        ),
        ProtocolStep("cl_fix_a", ALICE, instrument_fn=fix_at, condition_on=("cl_meas_a", "cl_meas_b")),
        ProtocolStep("cl_fix_b", BOB, instrument_fn=fix_bt, condition_on=("cl_meas_a", "cl_meas_b")),
    ]
    program = ProtocolProgram(
        layout=layout,
        resources=(resource,),
        steps=steps,
        consumed=("A", "a", "B", "b"),
        output_renames={"At": "A", "Bt": "B"},
    )
    if (v := validate_program(program)) is not None:
        raise EngineError(f"clifford program invalid: {v}")
    return program


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
        if np.max(np.abs(diff)) <= 1e-12:
            break
        j = int(np.max(np.nonzero(diff > 1e-12)[0]))  # largest index with y > x
        later = np.nonzero(diff[j + 1 :] < -1e-12)[0]
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
    dim = 2**k
    tgt = qmath.as_distribution(target)
    padded = np.pad(tgt, (0, max(dim - tgt.size, 0)))
    uniform = np.full(dim, 1.0 / dim)
    if tgt.size > dim or not qmath.majorizes(uniform, padded):
        raise ValueError("uniform(2^k) is not majorized by the target spectrum")
    tgt = np.sort(padded)[::-1]

    chain = _mixing_chain(tgt, uniform)
    a, b = labels
    layout = SystemLayout([(a, dim, ALICE), (b, dim, BOB)], dim_cap=None)
    steps: list[ProtocolStep] = []
    # protocol direction runs the chain in reverse: spectrum z_{i+1} -> z_i
    specs = [tgt] + [z for (_, _, z) in chain]  # specs[i] reached after undoing i steps
    for t, idx in enumerate(range(len(chain) - 1, -1, -1)):
        j, l, _ = chain[idx]
        lam = specs[idx + 1]  # current (more mixed)
        lam_next = specs[idx]  # next (more spread)
        if abs(lam_next[j] - lam_next[l]) < 1e-15:
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
        steps.append(
            ProtocolStep(
                f"dil{t}_meas",
                ALICE,
                instrument=LocalInstrument(ALICE, (a,), [("keep", m0), ("swap", m1)]),
                sends_message=True,
            )
        )

        def fix(visible: Mapping[str, str], *, _perm=perm, _name=f"dil{t}_meas") -> LocalInstrument:
            mat = _perm if visible[_name] == "swap" else np.eye(dim, dtype=complex)
            return unitary_instrument(BOB, (b,), mat)

        steps.append(
            ProtocolStep(f"dil{t}_fix", BOB, instrument_fn=fix, condition_on=(f"dil{t}_meas",))
        )
    program = ProtocolProgram(
        layout=layout,
        resources=(bell_pair(dim, (a, b)),),
        steps=steps,
        consumed=(),
    )
    if (v := validate_program(program)) is not None:
        raise EngineError(f"dilution program invalid: {v}")
    return program


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
    typical_count: int
    error_bound: float  # projection error + 2 * excess-failure probability
    omega: PureState | None
    program: ProtocolProgram | None


def typical_resource(theta: float, n: int, delta: float) -> PureState:
    """Typical-subspace projection of n copies of the heralded resource pair.

    Lives on qubit factors a1..an (Alice) and b1..bn (Bob); amplitudes are
    the renormalized product coefficients over typical bitstrings, with the
    per-copy i phase on each 1.
    """
    tset = analysis.typical_set(n, delta, analysis.resource_spectrum(theta))
    if not tset.typical_counts:
        raise ValueError(
            f"typical set is empty at n={n}, delta={delta}; enlarge delta"
        )
    lam0, lam1 = tset.probs
    factors = [(f"a{i+1}", 2, ALICE) for i in range(n)] + [
        (f"b{i+1}", 2, BOB) for i in range(n)
    ]
    layout = SystemLayout(factors, dim_cap=None)
    vec = np.zeros(layout.dim, dtype=complex)
    for x in range(2**n):
        ones = bin(x).count("1")
        if ones not in tset.typical_counts:
            continue
        amp = (1j**ones) * math.sqrt(lam0 ** (n - ones) * lam1**ones / tset.weight)
        vec[x * (2**n) + x] = amp
    return PureState(layout, vec, normalize=True)


def build_batch(theta: float, n: int, delta: float) -> BatchPlan:
    """Plan (and for n <= 3 build) the batched multi-copy protocol."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if delta <= 0:
        raise ValueError("delta must be positive")
    lam = analysis.resource_spectrum(theta)
    entropy = qmath.shannon_entropy(lam)
    p = analysis.success_probability(theta)
    tset = analysis.typical_set(n, delta, lam)
    report = analysis.error_budget(n, delta, theta)
    heralded = build_heralded(theta, math.sqrt(theta))
    correction = theta - heralded.failure_angle
    dressing = local_dressing(correction)

    bell_budget = n * (1.0 - p + entropy + 2.0 * delta)
    dilution_bells = math.ceil(n * (entropy + delta))
    pool = min(math.ceil(n * (1.0 - p + delta)), n)

    omega = typical_resource(theta, n, delta) if n <= MAX_BATCH_SIMULATION else None
    program = None if omega is None else _batch_program(theta, n, pool, omega, dressing)
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
        typical_count=tset.count,
        error_bound=report.total_error,
        omega=omega,
        program=program,
    )


def _batch_program(
    theta: float, n: int, pool: int, omega: PureState, dressing: Dressing
) -> ProtocolProgram:
    """Heralded gate on every copy; slot m of the Bell pool corrects the m-th failure."""
    copies = range(1, n + 1)
    bells = [bell_pair(2, (f"ba{m}", f"bb{m}")) for m in range(pool)]
    resource_factors = [f for res in (omega, *bells) for f in res.layout.factors]
    layout = SystemLayout(
        [(f"A{i}", 2, ALICE) for i in copies] + [(f"B{i}", 2, BOB) for i in copies] + resource_factors,
        dim_cap=None,
    )
    heralds = tuple(f"s{i}_meas_b" for i in copies)
    shots = [
        _heralded_steps(theta, math.sqrt(theta), f"a{i}", f"b{i}", f"A{i}", f"B{i}", f"s{i}_")
        for i in copies
    ]

    def slot_route(m: int) -> Route:
        def route(visible: Mapping[str, str]) -> tuple[str, str] | None:
            failed = [i for i, key in zip(copies, heralds) if visible[key] == "failure"]
            return (f"A{failed[m]}", f"B{failed[m]}") if m < len(failed) else None
        return route

    dress = lambda _v, sys_a, _sb: unitary_instrument(ALICE, (sys_a,), dressing.v_a.matrix)
    slots = []
    for m in range(pool):
        route = slot_route(m)
        cp = _controlled_phase_steps(dressing.controlled_angle, f"ba{m}", f"bb{m}", f"p{m}_", route, heralds)
        slots.append([*cp, _gated(f"p{m}_dress", ALICE, f"ba{m}", route, heralds, dress)])
    # Stage by stage (every copy's cz_a, then every copy's meas_a, ..., then
    # every slot's cnot, ...), so all copies share the three rounds.
    steps = [s for group in (shots, slots) for stage in zip(*group) for s in stage]
    program = ProtocolProgram(
        layout=layout,
        resources=(omega, *bells),
        steps=steps,
        consumed=[f.label for f in resource_factors],
    )
    if (v := validate_program(program)) is not None:
        raise EngineError(f"batch program invalid: {v}")
    return program


def batch_error(plan: BatchPlan, initial: PureState) -> float:
    """End-to-end infidelity of the batched program against per-pair theta gates."""
    if plan.program is None:
        raise ValueError(f"no runnable program for n = {plan.n}")
    u = zz_phase_gate(plan.theta).matrix
    expected = initial
    for i in range(plan.n):
        expected = expected.apply_unitary(u, (f"A{i+1}", f"B{i+1}"))
    tree = run_exhaustive(plan.program, initial, leaf_diagnostics=False)
    fid = 0.0
    for leaf in tree.leaves:
        fid += leaf.probability * abs(expected.overlap(leaf.state)) ** 2
    return max(0.0, 1.0 - fid)
