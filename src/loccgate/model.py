"""Gate and state constructors, plus the generalized-Clifford recognizer."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import qmath
from .systems import ALICE, BOB, REFEREE, Owner, PureState, SystemLayout

UNITARITY_TOL = 1e-10
# a Pauli-pair coefficient of U W U+ this close to modulus 1 names W's image
CLIFFORD_TOL = 1e-8

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
P0 = np.diag([1.0, 0.0]).astype(complex)  # |0><0|
P1 = np.diag([0.0, 1.0]).astype(complex)  # |1><1|
# two-qubit gate matrices, built once; the first factor is the left Kronecker factor
I4 = np.kron(I2, I2)
ZZ = np.kron(SZ, SZ)
_P0_I = np.kron(P0, I2)
CZ = _P0_I + np.kron(P1, SZ)
CNOT = _P0_I + np.kron(P1, SX)
CNOT_TARGET_FIRST = np.kron(I2, P0) + np.kron(SX, P1)
SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
for _m in (I2, SX, SY, SZ, P0, P1, I4, ZZ, _P0_I, CZ, CNOT, CNOT_TARGET_FIRST, SWAP):
    _m.setflags(write=False)
del _m


@dataclass(frozen=True, init=False)
class GateSpec:
    """A unitary together with the labels of the factors it acts on."""

    matrix: np.ndarray
    labels: tuple[str, ...]

    def __init__(self, matrix, labels: Sequence[str] = ("A", "B")):
        mat = np.asarray(matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"gate matrix must be square, got {mat.shape}")
        dev = float(np.max(np.abs(mat.conj().T @ mat - np.eye(mat.shape[0]))))
        if not dev <= UNITARITY_TOL:  # also rejects NaN entries
            raise ValueError(f"matrix is not unitary (deviation {dev:.3e})")
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "labels", tuple(labels))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def local_dim(self) -> int:
        """Local dimension for a two-factor gate on equal-sized systems."""
        d = math.isqrt(self.dim)
        if d < 2 or d * d != self.dim or len(self.labels) != 2:
            raise ValueError("gate is not bipartite on two equal dimensions of at least 2")
        return d


def zz_phase_gate(theta: float, labels: Sequence[str] = ("A", "B")) -> GateSpec:
    """cos(theta/2) I (x) I + i sin(theta/2) Z (x) Z.

    The family is additive, zz_phase_gate(a) @ zz_phase_gate(b) acts as
    zz_phase_gate(a + b), so arbitrary angles are accepted; the physical
    input domain (0, pi/2] is enforced only by the CLI's one angle check, ``cli._angle``.
    """
    if not math.isfinite(theta):
        raise ValueError(f"non-finite angle {theta}")
    return GateSpec(math.cos(theta / 2) * I4 + 1j * math.sin(theta / 2) * ZZ, labels)


def cz_gate(labels: Sequence[str] = ("a", "A")) -> GateSpec:
    """|0><0| (x) I + |1><1| (x) Z, first factor as control."""
    return GateSpec(CZ, labels)


def cnot_gate(labels: Sequence[str] = ("A", "B")) -> GateSpec:
    """|0><0| (x) I + |1><1| (x) X, first factor as control."""
    return GateSpec(CNOT, labels)


def swap_gate(labels: Sequence[str] = ("A", "B")) -> GateSpec:
    return GateSpec(SWAP, labels)


def controlled_z_rotation_gate(phi: float, labels: Sequence[str] = ("a", "A")) -> GateSpec:
    """|0><0| (x) I + |1><1| (x) exp(i phi Z), first factor as control."""
    if not math.isfinite(phi):
        raise ValueError(f"non-finite angle {phi}")
    return GateSpec(_P0_I + np.kron(P1, z_rotation(phi)), labels)


def z_rotation(phi: float) -> np.ndarray:
    """exp(i phi Z) as a 2x2 matrix."""
    return np.diag(np.exp(1j * phi * np.array([1.0, -1.0])))


def qudit_cz_gate(d: int, labels: Sequence[str] = ("A", "B")) -> GateSpec:
    """Controlled phase gate diag(omega^{s t}) on two d-level systems."""
    omega = np.exp(2j * np.pi / d)
    phases = np.array([omega ** (s * t) for s in range(d) for t in range(d)])
    return GateSpec(np.diag(phases), labels)


def bell_pair(
    d: int = 2,
    labels: Sequence[str] = ("a", "b"),
    owners: Sequence[Owner] = (ALICE, BOB),
) -> PureState:
    """Maximally entangled pair sum_t |t t> / sqrt(d) on a two-factor layout."""
    if d < 2:
        raise ValueError(f"Schmidt rank {d} < 2")
    layout = SystemLayout([(labels[0], d, owners[0]), (labels[1], d, owners[1])])
    vec = np.zeros(d * d, dtype=complex)
    for t in range(d):
        vec[t * d + t] = 1.0 / math.sqrt(d)
    return PureState(layout, vec)


def partial_bell_pair(alpha: float, labels: Sequence[str] = ("a", "b")) -> PureState:
    """cos(alpha/2)|00> + i sin(alpha/2)|11> shared between Alice and Bob."""
    if not 0.0 < alpha < math.pi:
        raise ValueError(f"alpha {alpha} outside (0, pi): state would be degenerate")
    layout = SystemLayout([(labels[0], 2, ALICE), (labels[1], 2, BOB)])
    vec = np.array([math.cos(alpha / 2), 0.0, 0.0, 1j * math.sin(alpha / 2)], dtype=complex)
    return PureState(layout, vec)


def choi_resource_state(gate: GateSpec) -> PureState:
    """Gate applied to halves of two pairs: the one-round teleportation resource.

    Layout (At, Bt, a, b); At and a are Alice's, Bt and b Bob's.  The gate
    acts on (At, Bt), which also serve as the protocol's output systems.
    """
    d = gate.local_dim
    at_a = bell_pair(d, labels=("At", "a"), owners=(ALICE, ALICE))
    bt_b = bell_pair(d, labels=("Bt", "b"), owners=(BOB, BOB))
    psi = at_a.tensor(bt_b).permuted(("At", "Bt", "a", "b"))
    return psi.apply_unitary(gate.matrix, ("At", "Bt"))


def gate_entanglement(gate: GateSpec) -> float:
    """Entanglement entropy of the teleportation resource across Alice|Bob."""
    res = choi_resource_state(gate)
    return qmath.entanglement_entropy(res, ("At", "a"))


def weyl_operator(d: int, p: int, q: int) -> np.ndarray:
    """Generalized Pauli sum_t exp(2 pi i q t / d) |t - p mod d><t|."""
    if not (0 <= p < d and 0 <= q < d):
        raise ValueError(f"indices ({p}, {q}) outside range 0..{d - 1}")
    mat = np.zeros((d, d), dtype=complex)
    for t in range(d):
        mat[(t - p) % d, t] = np.exp(2j * np.pi * q * t / d)
    return mat


@dataclass(frozen=True)
class CliffordTable:
    """Conjugation table (p,q,r,s) -> (p',q',r',s', phase) for a bipartite gate."""

    d: int
    entries: Mapping[tuple[int, int, int, int], tuple[int, int, int, int, float]]

    def __post_init__(self):
        images = {v[:4] for v in self.entries.values()}
        if len(images) != len(self.entries):
            raise ValueError("conjugation table is not a bijection on index tuples")

    def lookup(self, p: int, q: int, r: int, s: int) -> tuple[int, int, int, int, float]:
        return self.entries[(p, q, r, s)]


@dataclass(frozen=True)
class NotClifford:
    """Recognizer outcome when some Pauli pair has no phased-Pauli image."""

    d: int
    failing_index: tuple[int, int, int, int]
    best_overlap: float


def clifford_conjugation_table(gate: GateSpec, tol: float = CLIFFORD_TOL) -> CliffordTable | NotClifford:
    """Search, for every Pauli pair W, a phased Pauli pair equal to U W U+.

    Decomposes each conjugate in the orthogonal Pauli-pair basis; since the
    squared coefficients sum to 1 for a unitary, a coefficient of modulus
    ~1 identifies the unique image.  Returns NotClifford at the first input
    pair with no such coefficient.
    """
    d = gate.local_dim
    if d > 8:
        raise ValueError("conjugation search is not supported beyond d = 8")
    weyls = [weyl_operator(d, p, q) for p in range(d) for q in range(d)]
    basis = np.stack(
        [np.kron(weyls[i], weyls[j]) for i in range(d * d) for j in range(d * d)]
    )
    u = gate.matrix
    entries: dict[tuple[int, int, int, int], tuple[int, int, int, int, float]] = {}
    for p in range(d):
        for q in range(d):
            for r in range(d):
                for s in range(d):
                    w = np.kron(weyls[p * d + q], weyls[r * d + s])
                    conj = u @ w @ u.conj().T
                    coeffs = np.einsum("nij,ij->n", basis.conj(), conj) / (d * d)
                    mags = np.abs(coeffs)
                    best = int(np.argmax(mags))
                    if abs(mags[best] - 1.0) > tol:
                        return NotClifford(d, (p, q, r, s), float(mags[best]))
                    if np.sum(np.abs(mags - 1.0) <= tol) > 1:
                        raise ValueError("multiple phased-Pauli images within tolerance")
                    left, right = divmod(best, d * d)
                    pp, qp = divmod(left, d)
                    rp, sp = divmod(right, d)
                    entries[(p, q, r, s)] = (pp, qp, rp, sp, float(np.angle(coeffs[best])))
    return CliffordTable(d, entries)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary: QR of a complex Ginibre matrix, phases fixed by diag(R).

    Mezzadri 2007, "How to generate random matrices from the classical compact
    groups".  Draws 2 dim^2 normals, real parts first; the golden tests pin
    the resulting bits for seeded generators.
    """
    if dim < 2:
        raise ValueError(f"dimension {dim} < 2")
    z = 1 / math.sqrt(2) * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    q, r = np.linalg.qr(z)
    d = r.diagonal()
    q *= (d / abs(d))[np.newaxis, :]
    return q


def random_pure_state(layout: SystemLayout, rng: np.random.Generator) -> PureState:
    vec = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
    return PureState(layout, vec, normalize=True)


def random_referee_state(
    rng: np.random.Generator,
    d_a: int = 2,
    d_b: int = 2,
    ref_dim: int | None = None,
) -> PureState:
    """Haar-random input on (A, B, R) with a referee purifying factor."""
    if ref_dim is None:
        ref_dim = d_a * d_b
    layout = SystemLayout([("A", d_a, ALICE), ("B", d_b, BOB), ("R", ref_dim, REFEREE)])
    return random_pure_state(layout, rng)


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank random density operator (Ginibre construction)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real
