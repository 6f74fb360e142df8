"""Dense linear algebra and entropic functionals for small multipartite systems.

All entropies are in bits.  Eigenvalues below ``EIG_CLAMP`` are treated as
exact zeros before logarithms; operators are required to be Hermitian up to
``HERM_TOL`` (and are symmetrized below that threshold).
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .systems import PureState, SystemLayout

EIG_CLAMP = 1e-12
HERM_TOL = 1e-10
SUM_TOL = 1e-10
PIVOT_TIE_TOL = 1e-12


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product in declared factor order."""
    return np.kron(np.asarray(a), np.asarray(b))


def apply_on_factors(
    vec: np.ndarray, dims: Sequence[int], positions: Sequence[int], op: np.ndarray
) -> np.ndarray:
    """Apply ``op`` to the listed tensor positions of a flat state vector.

    ``op`` must be ordered as the Kronecker product over ``positions`` in the
    order given.  Returns a flat vector; no normalization is performed.
    """
    dims = tuple(dims)
    positions = list(positions)
    k = int(math.prod(dims[p] for p in positions))
    if op.shape != (k, k):
        raise ValueError(f"operator shape {op.shape} does not match factors of dimension {k}")
    psi = np.asarray(vec).reshape(dims)
    psi = np.moveaxis(psi, positions, range(len(positions)))
    moved_shape = psi.shape
    psi = op @ psi.reshape(k, -1)
    psi = psi.reshape(moved_shape)
    psi = np.moveaxis(psi, range(len(positions)), positions)
    return psi.reshape(-1)


def reduced_density(vec: np.ndarray, dims: Sequence[int], keep_positions: Sequence[int]) -> np.ndarray:
    """Reduced density operator of a pure state on the kept positions."""
    dims = tuple(dims)
    keep = list(keep_positions)
    psi = np.asarray(vec).reshape(dims)
    psi = np.moveaxis(psi, keep, range(len(keep)))
    k = int(math.prod(dims[p] for p in keep))
    mat = psi.reshape(k, -1)
    return mat @ mat.conj().T


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
    """-sum(lam * log2 lam) over eigenvalues, clamping lam <= 1e-12 to zero."""
    w = np.linalg.eigvalsh(_require_hermitian(rho))
    w = w[w > EIG_CLAMP]
    return float(-np.sum(w * np.log2(w))) if w.size else 0.0


def shannon_entropy(p: Sequence[float]) -> float:
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


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Tr |rho - sigma|: the sum of absolute eigenvalues of the difference."""
    rho = np.asarray(rho)
    sigma = np.asarray(sigma)
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch {rho.shape} vs {sigma.shape}")
    w = np.linalg.eigvalsh(_require_hermitian(rho - sigma))
    return float(np.sum(np.abs(w)))


def _subsystem_entropy(rho: np.ndarray, layout: SystemLayout, labels: Iterable[str]) -> float:
    return von_neumann_entropy(partial_trace(rho, layout, labels))


def mutual_information(
    rho: np.ndarray, layout: SystemLayout, part_p: Iterable[str], part_q: Iterable[str]
) -> float:
    """I(P:Q) = S(P) + S(Q) - S(PQ) in bits."""
    p, q = set(part_p), set(part_q)
    if p & q:
        raise ValueError(f"overlapping label sets {sorted(p & q)}")
    return (
        _subsystem_entropy(rho, layout, p)
        + _subsystem_entropy(rho, layout, q)
        - _subsystem_entropy(rho, layout, p | q)
    )


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
    if -1e-8 <= val < 0.0:
        return 0.0
    return val


def schmidt_coefficients(state: PureState, cut_labels: Iterable[str]) -> np.ndarray:
    """Squared singular values across the cut, descending, summing to 1."""
    cut = set(cut_labels)
    missing = cut - set(state.layout.labels)
    if missing:
        raise KeyError(f"unknown labels {sorted(missing)}")
    dims = state.dims
    left = [i for i, f in enumerate(state.layout.factors) if f.label in cut]
    psi = state.vector.reshape(dims)
    psi = np.moveaxis(psi, left, range(len(left)))
    k = int(math.prod(dims[i] for i in left))
    s = np.linalg.svd(psi.reshape(k, -1), compute_uv=False)
    return s**2


def entanglement_entropy(state: PureState, cut_labels: Iterable[str]) -> float:
    """Von Neumann entropy of the reduction onto ``cut_labels`` (bits)."""
    return shannon_entropy(schmidt_coefficients(state, cut_labels))


def as_distribution(weights: Sequence[float], tol: float = SUM_TOL) -> np.ndarray:
    """Validate and clean a probability vector (clamp tiny negatives)."""
    w = np.asarray(weights, dtype=float).copy()
    if np.any(w < -1e-12):
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
    vec: np.ndarray, dims: Sequence[int], keep_positions: Sequence[int], tol: float = 1e-9
) -> np.ndarray:
    """Split off the pure factor on ``keep_positions``.

    Requires the kept factors to be in a product with the rest (leading
    Schmidt weight >= 1 - tol); raises otherwise.  The returned vector's
    global phase is fixed so its phase pivot is real positive, which makes
    branch outputs directly comparable.  The pivot is the first amplitude
    whose magnitude is within ``PIVOT_TIE_TOL`` of the largest, so float
    noise cannot move it between near-equal amplitudes.

    When k <= rest, the case of every large leaf, the leading left singular
    vector of the k x rest matrix M is the leading eigenvector of the Gram
    matrix M M^dagger: one matrix product and a k x k ``eigh`` instead of an
    SVD of M.  When k > rest, which only small leaves reach (the heralded
    fit's is 16 x 4), the SVD is kept: the M^dagger M route moves such a
    leaf by an ulp or two, enough to shift the fitted heralded failure angle
    and with it the CLI output bytes.
    """
    dims = tuple(dims)
    keep = list(keep_positions)
    psi = np.asarray(vec).reshape(dims)
    psi = np.moveaxis(psi, keep, range(len(keep)))
    k = int(math.prod(dims[p] for p in keep))
    mat = psi.reshape(k, -1)
    if k <= mat.shape[1]:
        w, v = np.linalg.eigh(mat @ mat.conj().T)
        weight, out = w[-1], v[:, -1]
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
