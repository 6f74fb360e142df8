"""Dense linear algebra and entropic functionals for small multipartite systems.

All entropies are in bits.  Eigenvalues below ``EIG_CLAMP`` are treated as
exact zeros before logarithms; operators are required to be Hermitian up to
``HERM_TOL`` (and are symmetrized below that threshold).
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, Sequence

import numpy as np

from .systems import PureState, SystemLayout

EIG_CLAMP = 1e-12
HERM_TOL = 1e-10
SUM_TOL = 1e-10
PIVOT_TIE_TOL = 1e-12
# a leaf's kept factors count as pure when their leading Schmidt weight is
# at least 1 - LEAF_PURITY_TOL
LEAF_PURITY_TOL = 1e-9
# a conditional mutual information this far below 0 is entropy rounding, read as 0
CQMI_CLAMP = 1e-8


@functools.lru_cache(maxsize=1024)
def _factor_plan(
    dims: tuple[int, ...], positions: tuple[int, ...]
) -> tuple[tuple[int, ...] | None, tuple[int, ...], tuple[int, ...], int]:
    """(forward permutation, moved shape, inverse permutation, k) for ``positions``.

    The forward permutation puts the listed axes first, in the order given,
    and the others after them in order; it is None when that is the
    identity.  k is the joint dimension of the listed factors.
    """
    rest = tuple(i for i in range(len(dims)) if i not in positions)
    fwd = positions + rest
    inv = tuple(sorted(range(len(fwd)), key=fwd.__getitem__))
    moved = tuple(dims[i] for i in fwd)
    k = int(math.prod(dims[p] for p in positions))
    return (None if fwd == tuple(range(len(dims))) else fwd), moved, inv, k


def _factor_matrix(vec: np.ndarray, dims: Sequence[int], positions: Sequence[int]):
    """The (k, rest) matrix of ``vec`` with ``positions`` as its row index, and its plan."""
    dims = tuple(dims)
    plan = _factor_plan(dims, tuple(positions))
    fwd, _, _, k = plan
    psi = np.asarray(vec)
    if fwd is not None:
        psi = psi.reshape(dims).transpose(fwd)
    return psi.reshape(k, -1), plan


def apply_on_factors(
    vec: np.ndarray, dims: Sequence[int], positions: Sequence[int], op: np.ndarray
) -> np.ndarray:
    """Apply ``op`` to the listed tensor positions of a flat state vector.

    ``op`` must be ordered as the Kronecker product over ``positions`` in the
    order given.  Returns a flat vector; no normalization is performed.
    """
    mat, (fwd, moved, inv, k) = _factor_matrix(vec, dims, positions)
    if op.shape != (k, k):
        raise ValueError(f"operator shape {op.shape} does not match factors of dimension {k}")
    out = op @ mat
    if fwd is None:
        return out.reshape(-1)
    return out.reshape(moved).transpose(inv).reshape(-1)


def contract_factors(
    vec: np.ndarray, dims: Sequence[int], positions: Sequence[int], bra: np.ndarray
) -> np.ndarray:
    """<bra| on the listed tensor positions of a flat state vector.

    ``bra`` is ordered as the Kronecker product over ``positions`` in the
    order given.  Returns the flat vector over the other positions, in their
    order; no normalization is performed.
    """
    mat, _ = _factor_matrix(vec, dims, positions)
    return bra @ mat


def reduced_density(vec: np.ndarray, dims: Sequence[int], keep_positions: Sequence[int]) -> np.ndarray:
    """Reduced density operator of a pure state on the kept positions."""
    mat, _ = _factor_matrix(vec, dims, keep_positions)
    return mat @ mat.conj().T


def divide_by_real(vec: np.ndarray, s: float) -> None:
    """``vec /= s`` in place for a complex vector and a positive float, bit for bit.

    numpy's complex division by s + 0j computes (re + im*0, im - re*0) * (1/s).
    The product with (1/s) - 0j, (re*(1/s) - im*(-0), re*(-0) + im*(1/s)),
    agrees with it on every entry, the sign of each zero included, and is
    about 5x faster at 4096 entries.  Scaling the float64 view by 1/s would
    flip the sign of some zeros.
    """
    vec *= complex(1.0 / s, -0.0)


def partial_trace(rho: np.ndarray, layout: SystemLayout, keep: Iterable[str]) -> np.ndarray:
    """Trace out all factors except ``keep``; kept factors stay in layout order."""
    keep_set = set(keep)
    missing = keep_set - set(layout.labels)
    if missing:
        raise KeyError(f"unknown labels {sorted(missing)}")
    dims = layout.dims
    n = len(dims)
    keep_pos = [i for i in range(n) if layout.factors[i].label in keep_set]
    drop_pos = [i for i in range(n) if i not in keep_pos]
    k = int(math.prod(dims[i] for i in keep_pos))
    d = int(math.prod(dims[i] for i in drop_pos))
    x = np.asarray(rho).reshape(dims + dims)
    perm = keep_pos + drop_pos + [n + i for i in keep_pos] + [n + i for i in drop_pos]
    x = x.transpose(perm).reshape(k, d, k, d)
    return np.einsum("adbd->ab", x)


def _require_hermitian(rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho)
    asym = float(np.max(np.abs(rho - rho.conj().T))) if rho.size else 0.0
    if asym > HERM_TOL:
        raise ValueError(f"operator is not Hermitian (asymmetry {asym:.3e})")
    return (rho + rho.conj().T) / 2


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Shannon entropy (bits) of the eigenvalues of a Hermitian operator."""
    return shannon_entropy(np.linalg.eigvalsh(_require_hermitian(rho)))


def shannon_entropy(p: Sequence[float]) -> float:
    """-sum(p * log2 p), clamping p <= EIG_CLAMP to zero."""
    w = np.asarray(p, dtype=float)
    w = w[w > EIG_CLAMP]
    return float(-np.sum(w * np.log2(w))) if w.size else 0.0


def binary_entropy(x: float) -> float:
    """h(x) = -x log2 x - (1-x) log2(1-x), with h(0) = h(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary entropy argument {x} outside [0, 1]")
    return shannon_entropy([x, 1.0 - x])


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2."""
    rho = np.asarray(rho)
    sigma = np.asarray(sigma)
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch {rho.shape} vs {sigma.shape}")
    w, v = np.linalg.eigh(_require_hermitian(rho))
    w = np.clip(w, 0.0, None)
    sqrt_rho = (v * np.sqrt(w)) @ v.conj().T
    inner = sqrt_rho @ _require_hermitian(sigma) @ sqrt_rho
    mw = np.linalg.eigvalsh(inner)
    mw[mw < EIG_CLAMP] = 0.0  # sqrt would amplify eigenvalue noise
    val = float(np.sum(np.sqrt(mw)) ** 2)
    return min(max(val, 0.0), 1.0)


def _subsystem_entropy(rho: np.ndarray, layout: SystemLayout, labels: Iterable[str]) -> float:
    return von_neumann_entropy(partial_trace(rho, layout, labels))


def cqmi(
    rho: np.ndarray,
    layout: SystemLayout,
    part_p: Iterable[str],
    part_q: Iterable[str],
    part_r: Iterable[str],
) -> float:
    """Conditional mutual information I(P:Q|R) = S(PR) + S(QR) - S(R) - S(PQR)."""
    p, q, r = set(part_p), set(part_q), set(part_r)
    if p & q or p & r or q & r:
        raise ValueError("label sets must be pairwise disjoint")
    val = (
        _subsystem_entropy(rho, layout, p | r)
        + _subsystem_entropy(rho, layout, q | r)
        - _subsystem_entropy(rho, layout, r)
        - _subsystem_entropy(rho, layout, p | q | r)
    )
    if -CQMI_CLAMP <= val < 0.0:
        return 0.0
    return val


def schmidt_coefficients(state: PureState, cut_labels: Iterable[str]) -> np.ndarray:
    """Squared singular values across the cut, descending, summing to 1."""
    cut = set(cut_labels)
    missing = cut - set(state.layout.labels)
    if missing:
        raise KeyError(f"unknown labels {sorted(missing)}")
    left = [i for i, f in enumerate(state.layout.factors) if f.label in cut]
    mat, _ = _factor_matrix(state.vector, state.dims, left)
    s = np.linalg.svd(mat, compute_uv=False)
    return s**2


def entanglement_entropy(state: PureState, cut_labels: Iterable[str]) -> float:
    """Von Neumann entropy of the reduction onto ``cut_labels`` (bits)."""
    return shannon_entropy(schmidt_coefficients(state, cut_labels))


def as_distribution(weights: Sequence[float], tol: float = SUM_TOL) -> np.ndarray:
    """Validate and clean a probability vector (clamp tiny negatives)."""
    w = np.asarray(weights, dtype=float).copy()
    if not np.all(np.isfinite(w)):
        raise ValueError(f"non-finite weights {w[~np.isfinite(w)].tolist()} in probability vector")
    if np.any(w < -EIG_CLAMP):  # smaller negatives are rounding, clamped to 0
        raise ValueError(f"negative weight {w.min()} in probability vector")
    w[w < 0] = 0.0
    total = float(w.sum())
    if abs(total - 1.0) > tol:
        raise ValueError(f"probability vector sums to {total}, not 1")
    return w


def majorizes(p: Sequence[float], q: Sequence[float], tol: float = SUM_TOL) -> bool:
    """True iff p is majorized by q (every partial sum of sorted p <= that of q)."""
    pv = as_distribution(p)
    qv = as_distribution(q)
    n = max(pv.size, qv.size)
    pv = np.pad(pv, (0, n - pv.size))
    qv = np.pad(qv, (0, n - qv.size))
    ps = np.cumsum(np.sort(pv)[::-1])
    qs = np.cumsum(np.sort(qv)[::-1])
    return bool(np.all(ps <= qs + tol))


def factor_pure_state(
    vec: np.ndarray,
    dims: Sequence[int],
    keep_positions: Sequence[int],
    tol: float = LEAF_PURITY_TOL,
) -> np.ndarray:
    """Split off the pure factor on ``keep_positions``.

    Requires the kept factors to be in a product with the rest (leading
    Schmidt weight >= 1 - tol); raises otherwise.  The returned vector's
    global phase is fixed so its phase pivot is real positive, which makes
    branch outputs directly comparable.  The pivot is the first amplitude
    whose magnitude is within ``PIVOT_TIE_TOL`` of the largest, so float
    noise cannot move it between near-equal amplitudes.

    With M the k x rest matrix of ``vec`` (rows on the kept factors), a
    product state is M = a b^T and every column of M is a multiple of a.
    When rest = 1, ``vec`` holds the kept factors alone (a leaf of a
    program that consumes nothing, or of an output mixture whose walk
    contracted every consumed factor out): only the phase and the norm are
    fixed.  When k <= rest, the factor is read off
    the column c holding M's largest-magnitude entry, after one power step
    u ~ M M^dagger c that damps the other Schmidt components.  The weight
    |M^dagger u|^2 is a Rayleigh quotient, never above the leading Schmidt
    weight, so an entangled state is still rejected.  That is an argmax and
    three products over M, O(k rest), and no decomposition.  When k > rest, which only small
    leaves reach (the heralded fit's is 16 x 4), the SVD of M is kept: it
    fixes the bits of the fitted heralded failure angle and with them the
    CLI output.
    """
    mat, _ = _factor_matrix(vec, dims, keep_positions)
    if mat.shape[1] == 1:  # nothing else to split off
        out, weight = mat[:, 0], 1.0
    elif mat.shape[0] <= mat.shape[1]:
        col = mat[:, int(np.argmax(np.abs(mat))) % mat.shape[1]]
        out = mat @ (col.conj() @ mat).conj()
        out /= np.linalg.norm(out)
        proj = out.conj() @ mat
        weight = float(np.vdot(proj, proj).real)
    else:
        u, s, _ = np.linalg.svd(mat, full_matrices=False)
        weight, out = s[0] ** 2, u[:, 0]
    if weight < 1.0 - tol:
        raise ValueError(
            f"factors are still entangled with the rest (leading weight {weight:.6f})"
        )
    mags = np.abs(out)
    pivot = out[int(np.argmax(mags >= mags.max() - PIVOT_TIE_TOL))]
    out = out * (abs(pivot) / pivot)
    return out / np.linalg.norm(out)
