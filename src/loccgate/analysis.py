"""Closed-form and combinatorial analysis: channel fixed points, cost curves,
typicality, and error decay.

The superoperator convention is row-major: a channel matrix ``S`` acts on
``rho.reshape(-1)`` and ``S[i*d + j, k*d + l]`` is the (i, j) component of
the image of the matrix unit ``|k><l|``.
"""

from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import qmath
from .model import GateSpec, bell_pair

CHANNEL_TP_TOL = 1e-8
CHANNEL_CP_TOL = 1e-8
CESARO_NULL_CUT = 1e-10  # singular values of S - I at or below this span its null spaces
CESARO_STATE_TOL = 1e-8  # the Cesaro limit may miss positivity and unit trace by this much
BREAK_EVEN_XTOL = 1e-10  # absolute tolerance of break_even_theta's bisection
BISECT_RTOL = 4 * np.finfo(float).eps
BISECT_MAXITER = 100
ROUNDOFF = np.finfo(float).eps / 2  # unit roundoff: |fl(x op y) - x op y| <= ROUNDOFF |x op y|
TYPICAL_EDGE_EPS = 1e-12  # absorbs float fuzz of log2 P(x^n) at the typical window's edges
CUTOFF_INTEGER_TOL = 1e-9  # n (p - delta) this close to an integer is that integer
# exp(x) is 0.0 below -745.13; log-pmf terms this far below their subset's
# maximum add exactly nothing, with ~55 nats to spare for rounding in the terms
EXP_UNDERFLOW_CUT = 800.0
# _pairwise_plan splits no node that holds at most this many window entries:
# below it, bounding the children costs about what their dropped terms save
PLAN_NODE = 2**11
# log(k!) below this comes from a 64 KB table built at import, so a binomial
# kernel at n < 2^13 (the CLI's default typicality rows, every simulated batch
# plan) slices it instead of evaluating lgam twice per error_budget
LOG_FACTORIAL_TABLE_SIZE = 2**13
# numpy's float64 add.reduce sums a contiguous array pairwise, and a node of
# at most this many entries in one pass (PW_BLOCKSIZE in numpy 2.4's loops)
PAIRWISE_BLOCK = 128
# that pass keeps this many accumulators, so a longer node splits its first
# half off at a multiple of this many entries
PAIRWISE_LANES = 8
# _sparse_pairwise_sum builds a node this short whole: zero-filling and summing
# 2^13 entries (64 KiB) costs about what the walk's Python steps do
DENSE_NODE = 2**13
# a log-pmf window is evaluated this many counts at a time: the temporaries of
# a block (64 KiB each) stay below glibc's 128 KiB mmap threshold, so they are
# reused from the heap instead of being mapped and faulted in on every call
PMF_BLOCK = 2**13


class AnalysisError(Exception):
    pass


# ---------------------------------------------------------------------------
# channels


@dataclass(frozen=True, init=False)
class ChannelMatrix:
    """Verified CPTP superoperator on a d-dimensional system.

    ``min_choi_eigenvalue`` is the smallest eigenvalue of the (symmetrized)
    Choi matrix, from the one spectrum the complete-positivity check takes.
    """

    matrix: np.ndarray
    d: int
    min_choi_eigenvalue: float

    def __init__(self, matrix: np.ndarray, d: int):
        mat = np.asarray(matrix, dtype=complex).copy()
        if mat.shape != (d * d, d * d):
            raise AnalysisError(f"superoperator shape {mat.shape} != {(d*d, d*d)}")
        s4 = mat.reshape(d, d, d, d)
        # trace preservation: Tr[E(|k><l|)] = delta_kl
        traces = np.einsum("iikl->kl", s4)
        tp_dev = float(np.max(np.abs(traces - np.eye(d))))
        if tp_dev > CHANNEL_TP_TOL:
            raise AnalysisError(f"channel is not trace preserving (deviation {tp_dev:.3e})")
        choi = np.einsum("ijkl->kilj", s4).reshape(d * d, d * d)
        min_eig = float(np.linalg.eigvalsh((choi + choi.conj().T) / 2).min())
        if min_eig < -CHANNEL_CP_TOL:
            raise AnalysisError(f"channel is not completely positive (min Choi eig {min_eig:.3e})")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "min_choi_eigenvalue", min_eig)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        out = self.matrix @ np.asarray(rho, dtype=complex).reshape(-1)
        return out.reshape(self.d, self.d)


def round_trip_channel(gate: GateSpec) -> ChannelMatrix:
    """Channel on one side induced by undoing and redoing the gate.

    tau -> Tr_{B RB}[ U ( Tr_B[ U+ (tau (x) I_B / d) U ] (x) Phi_d^{B RB} ) U+ ].
    The maximally mixed ancilla keeps the composition trace preserving.  All
    d^2 matrix units |k><l| go through at once, along a leading axis.
    """
    d = gate.local_dim
    u = gate.matrix
    bell = bell_pair(d).vector
    phi = np.outer(bell, bell.conj())  # on (B, RB)
    eye_b = np.eye(d, dtype=complex) / d
    units = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    # kron(tau, I_B / d) per unit, then U+ . U and the trace over B
    joint = (units[:, :, None, :, None] * eye_b[None, None, :, None, :]).reshape(-1, d * d, d * d)
    joint = u.conj().T @ joint @ u
    on_a = np.einsum("naibi->nab", joint.reshape(-1, d, d, d, d))
    # U (on_a (x) Phi) U+ on (A, B, RB), traced over (B, RB).  Phi is
    # supported on |m, m>, so at RB = RB' = m the conjugation meets nonzero
    # entries on_a[a1, a1'] Phi[(m, m), (m, m)] only through U's column
    # (a1, m) and U+'s row (a1', m).  The terms left out are exact zeros,
    # which leave a sum from +0 unchanged, so these two einsums keep the bits
    # of the dense conjugation "ab,xbmcn,cd->xamdn" and trace "xaibi->xab".
    g = on_a * phi.diagonal()[:: d + 1, None, None, None]  # [m, x, a1, a1']
    u4 = u.reshape(d, d, d, d).transpose(0, 2, 1, 3)  # [a, a1, B, m] = U[(a, B), (a1, m)]
    v4 = u.conj().T.reshape(d, d, d, d)  # [a1', m, a', B] = U+[(a1', m), (a', B)]
    images = np.einsum("xaABm->xaA", np.einsum("akBm,mxkl,lmAB->xaABm", u4, g, v4))
    return ChannelMatrix(images.reshape(d * d, d * d).T, d)


def cesaro_fixed_state(channel: ChannelMatrix) -> np.ndarray:
    """Long-run Cesaro mean of channel iterates on half a maximally entangled pair.

    On the doubled system (A, RA) the channel acts as T = S (x) id.  The
    peripheral spectrum of a channel is semisimple, so the Cesaro mean of
    S^k converges to the spectral projection onto ker(S - I),
    P_S = R (L+ R)^-1 L+, with R and L orthonormal bases of the right and
    left null spaces of S - I, both read off one d^2 x d^2 SVD.  Since
    T - I = (S - I) (x) id, the right and left null spaces of T - I are those
    of S - I tensored with the whole of RA, and the projection of T is
    P_S (x) id: the d^4 x d^4 lift is never formed.  P_S acts on the pair
    projector with its (A, A') indices in front, [(i, j), (b, b')], and the
    result is put back in [(i, b), (j, b')] order; it is checked to be a
    state.
    """
    d = channel.d
    bell = bell_pair(d).vector
    start = np.outer(bell, bell.conj())

    left, sing, right_h = np.linalg.svd(channel.matrix - np.eye(d * d))
    null = sing <= CESARO_NULL_CUT
    r = right_h[null].conj().T
    l_h = left[:, null].conj().T
    proj = r @ np.linalg.solve(l_h @ r, l_h)
    x = start.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)  # [(i, j), (b, b')]
    limit = (proj @ x).reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    limit = (limit + limit.conj().T) / 2
    evals = np.linalg.eigvalsh(limit)
    trace_dev = abs(float(np.trace(limit).real) - 1.0)
    if float(evals.min()) < -CESARO_STATE_TOL or trace_dev > CESARO_STATE_TOL:
        raise AnalysisError(
            f"Cesaro limit is not a state (min eigenvalue {evals.min():.3e}, trace deviation {trace_dev:.3e})"
        )
    return limit


def markovianizing_cost(gate: GateSpec) -> float:
    """Entropy (bits) of the Cesaro fixed state of the round-trip channel."""
    return qmath.von_neumann_entropy(cesaro_fixed_state(round_trip_channel(gate)))


# ---------------------------------------------------------------------------
# cost curve


def success_probability(theta: float, alpha: float | None = None) -> float:
    """Heralded-branch success probability sin^2(alpha) / (2 (1 - cos theta cos alpha)).

    Defaults to the alpha = sqrt(theta) resource choice.
    """
    if alpha is None:
        alpha = math.sqrt(theta)
    denom = 2.0 * (1.0 - math.cos(theta) * math.cos(alpha))
    if denom == 0.0:
        raise ValueError("success probability undefined at theta = alpha = 0")
    return math.sin(alpha) ** 2 / denom


def resource_spectrum(theta: float) -> tuple[float, float]:
    """Schmidt spectrum (cos^2, sin^2 of sqrt(theta)/2) of the resource pair."""
    x = math.cos(math.sqrt(theta) / 2) ** 2
    return (x, 1.0 - x)


@dataclass(frozen=True)
class CostCurvePoint:
    """Average ebit cost of the retry protocol at one angle."""

    theta: float
    p_theta: float
    h_theta: float
    e_bar: float

    @classmethod
    def at(cls, theta: float) -> "CostCurvePoint":
        p = success_probability(theta)
        h = qmath.binary_entropy(resource_spectrum(theta)[0])
        return cls(theta=theta, p_theta=p, h_theta=h, e_bar=1.0 - p + h)


def expected_ebits(theta: float) -> CostCurvePoint:
    if not 0.0 < theta <= math.pi / 2:
        raise ValueError(f"theta {theta} outside (0, pi/2]")
    return CostCurvePoint.at(theta)


def bisect(f: Callable[[float], float], a: float, b: float, xtol: float) -> float:
    """Root of f in [a, b] by bisection.

    Halves the step from a and moves a to the midpoint whenever f there has
    the sign of f(a) (or is 0); stops at a zero of f or once
    |step| < xtol + BISECT_RTOL |midpoint|, returning the midpoint.  Raises
    when f(a) and f(b) share a sign, or after BISECT_MAXITER steps.
    """
    a, b = float(a), float(b)
    fa, fb = f(a), f(b)
    if fa * fb > 0:
        raise ValueError("f(a) and f(b) must have different signs")
    if fa == 0:
        return a
    if fb == 0:
        return b
    step = b - a
    for _ in range(BISECT_MAXITER):
        step *= 0.5
        mid = a + step
        fm = f(mid)
        if fm * fa >= 0:
            a = mid
        if fm == 0 or abs(step) < xtol + BISECT_RTOL * abs(mid):
            return mid
    raise RuntimeError(f"bisection did not converge in {BISECT_MAXITER} steps, value is {a}")


def _e_bar_minus_one(thetas: np.ndarray) -> np.ndarray:
    """e_bar(theta) - 1 = h(theta) - p(theta) on an array, as CostCurvePoint.at forms it."""
    alpha = np.sqrt(thetas)
    denom = 2.0 * (1.0 - np.cos(thetas) * np.cos(alpha))
    if np.any(denom == 0.0):
        raise ValueError("success probability undefined at theta = alpha = 0")
    p = np.sin(alpha) ** 2 / denom
    x = np.cos(alpha / 2) ** 2  # resource_spectrum(theta)[0]
    # binary entropy of (x, 1 - x), each term clamped to 0 at or below EIG_CLAMP
    w = np.stack((x, 1.0 - x))
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(w > qmath.EIG_CLAMP, w * np.log2(w), 0.0)
    h = -(terms[0] + terms[1])
    return 1.0 - p + h - 1.0


def break_even_theta(
    grid_points: int = 1000, lo: float = 1e-4, hi: float = math.pi / 2
) -> float | None:
    """Smallest root of e_bar(theta) = 1, bracketed on a grid then bisected.

    Returns None when no sign change is found on the grid.
    """
    thetas = np.linspace(lo, hi, grid_points)
    values = _e_bar_minus_one(thetas)
    sign_change = np.nonzero(np.diff(np.sign(values)) != 0)[0]
    if sign_change.size == 0:
        return None
    i = int(sign_change[0])
    return bisect(
        lambda t: CostCurvePoint.at(t).e_bar - 1.0, thetas[i], thetas[i + 1], xtol=BREAK_EVEN_XTOL
    )


# ---------------------------------------------------------------------------
# typicality


@dataclass(frozen=True)
class TypicalSet:
    """Weak typicality data for a binary product distribution.

    Membership and weights are handled through the count of ones, never by
    enumerating the 2^n sequences.
    """

    n: int
    delta: float
    probs: tuple[float, float]
    entropy: float
    runs: tuple[tuple[int, int], ...]  # maximal [start, stop) ranges of typical counts
    weight: float
    complement: float  # 1 - weight, computed from the atypical side
    log_weight: float  # natural log
    log_complement: float

    @functools.cached_property
    def typical_counts(self) -> tuple[int, ...]:
        """Typical counts of ones, ascending (lazy)."""
        return tuple(k for start, stop in self.runs for k in range(start, stop))

    @functools.cached_property
    def count(self) -> int:
        """Exact number of typical sequences (big-integer arithmetic; lazy).

        Along a run, C(n, k + 1) = C(n, k) (n - k) / (k + 1) exactly.
        """
        total = 0
        for start, stop in self.runs:
            c = math.comb(self.n, start)
            for k in range(start, stop):
                total += c
                c = c * (self.n - k) // (k + 1)
        return total

    def is_typical(self, sequence: Sequence[int]) -> bool:
        if len(sequence) != self.n:
            raise ValueError(f"sequence length {len(sequence)} != n = {self.n}")
        k = int(sum(sequence))
        i = bisect_right(self.runs, (k, math.inf)) - 1
        return i >= 0 and k < self.runs[i][1]


# cephes lgam: log Gamma(x) = (x - 1/2) log x - x + log sqrt(2 pi) + A(1/x^2) / x
_LGAM_A = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
_LS2PI = 0.91893853320467274178


def _lgam(x: np.ndarray) -> np.ndarray:
    """cephes lgam at ascending integers x >= 13, in cephes' order of operations.

    The Stirling form plus A(1/x^2) / x below 1000, plus a three-term series
    up to 1e8 and nothing above.  np.log can differ from the C library log
    by an ulp, which moves a few values at x >= 9170 by an ulp-scale amount.
    """
    out = (x - 0.5) * np.log(x) - x + _LS2PI
    # positions of the first x >= 1000 and the first x > 1e8
    b1000, b1e8 = np.searchsorted(x, (1000.0, 1e8 + 0.5)).tolist()
    if b1000:  # empty on every call above the log-factorial table
        xs = x[:b1000]
        p = 1.0 / (xs * xs)
        poly = _LGAM_A[0]
        for c in _LGAM_A[1:]:
            poly = poly * p + c
        out[:b1000] += poly / xs
    xs = x[b1000:b1e8]
    p = 1.0 / (xs * xs)
    out[b1000:b1e8] += (
        (7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
        + 0.0833333333333333333333
    ) / xs
    return out


# log(k!) below LOG_FACTORIAL_TABLE_SIZE, built once: exact below k = 12
_LOG_FACTORIAL_TABLE = np.concatenate(
    (
        [math.log(float(math.factorial(k))) for k in range(12)],
        _lgam(np.arange(13.0, LOG_FACTORIAL_TABLE_SIZE + 1.0)),
    )
)
_LOG_FACTORIAL_TABLE.setflags(write=False)


def _log_factorial_range(k0: int, k1: int) -> np.ndarray:
    """log(k!) for k = k0..k1-1, as cephes lgam evaluates log Gamma(k + 1).

    Every entry depends on its k alone, so a range equals the same slice of
    a longer table.  A range inside the table is a read-only view of it.
    """
    if k1 <= LOG_FACTORIAL_TABLE_SIZE:
        return _LOG_FACTORIAL_TABLE[k0:k1]
    out = np.empty(k1 - k0)
    low = max(LOG_FACTORIAL_TABLE_SIZE - k0, 0)
    out[:low] = _LOG_FACTORIAL_TABLE[k0:]
    out[low:] = _lgam(np.arange(k0 + low + 1.0, k1 + 1.0))
    return out


def log_factorials(n: int) -> np.ndarray:
    """log(k!) for k = 0..n, as cephes lgam evaluates log Gamma(k + 1)."""
    return np.array(_log_factorial_range(0, n + 1))


def _sparse_pairwise_sum(
    size: int, spans: Sequence[tuple[int, int]], fill: Callable[[np.ndarray, int], None], lo: int = 0
) -> float:
    """np.add.reduce of a ``size``-entry float64 array, bit for bit, built only where it is nonzero.

    The array is +0.0 outside the disjoint, nonempty [start, stop) ``spans``
    and nowhere negative.  ``fill(out, lo)`` writes its entries lo..lo +
    out.size - 1 into ``out``, which holds zeros; ``lo`` places this node in
    a larger array, and every span meets the node.  numpy sums a node of n
    entries in one pass with PAIRWISE_LANES accumulators when n <=
    PAIRWISE_BLOCK, and otherwise as node(first h) + node(rest), h = n // 2
    rounded down to a multiple of PAIRWISE_LANES.  A node without span
    entries sums to +0.0, and x + 0.0 == x for x >= 0, so the walk enters
    only nodes that meet a span, and builds one when it is at most
    max(DENSE_NODE, PAIRWISE_BLOCK) entries (a node numpy sums in one pass
    is never split) or twice the span entries it holds: O(span entries +
    DENSE_NODE) memory, not O(size).  ``_pairwise_plan`` walks the same tree
    to choose the spans of the binomial sums.
    """
    if (
        size > max(DENSE_NODE, PAIRWISE_BLOCK)
        and 2 * sum([min(lo + size, stop) - max(lo, start) for start, stop in spans]) < size
    ):
        h = size // 2
        h -= h % PAIRWISE_LANES
        mid = lo + h
        left = [(start, stop) for start, stop in spans if start < mid]
        right = [(start, stop) for start, stop in spans if stop > mid]
        return (_sparse_pairwise_sum(h, left, fill, lo) if left else 0.0) + (
            _sparse_pairwise_sum(size - h, right, fill, mid) if right else 0.0
        )
    out = np.zeros(size)
    fill(out, lo)
    return np.add.reduce(out)


def _logsumexp_at(size: int, chunks: Sequence[tuple[int, np.ndarray]]) -> float:
    """logsumexp of a ``size``-term array known only on its disjoint chunks.

    Each chunk is (offset, values), and the chunks hold the maximum and its
    ties.  A term outside them either lies more than EXP_UNDERFLOW_CUT below
    the maximum, so its exp(a - a_max) is 0.0, or sits in a node of numpy's
    pairwise tree whose sum cannot change the float of its parent's
    (``_pairwise_plan``); either way the zero-filled array sums to the same
    bits as the full one.  numpy sums pairwise by position, so the exp terms
    are summed where they sit in the full array: ``_sparse_pairwise_sum``
    gives the zero-filled array's bits, and exp writes straight into its node
    buffers.  An array of at most DENSE_NODE terms is one node: one buffer
    and one reduce.
    """
    if size == 0:
        return -math.inf
    peaks = [np.maximum.reduce(v) for _, v in chunks]
    a_max = max(peaks)
    if not math.isfinite(a_max):  # all terms -inf, or an inf or nan term
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return float(np.log(sum([np.exp(v).sum() for _, v in chunks])))
    m = 0  # ties of the maximum, summed apart; each term is written once

    def fill(out: np.ndarray, lo: int) -> None:
        """exp(a - a_max) of terms lo.. into ``out``, ties of the maximum zeroed."""
        nonlocal m
        hi = lo + out.size
        for (offset, v), peak in zip(chunks, peaks):
            if offset < hi and lo < offset + v.size:  # slicing clips both stops
                part = v[max(lo - offset, 0) : hi - offset]
                dest = out[max(offset - lo, 0) : offset + v.size - lo]
                np.exp(part - a_max, out=dest)
                if peak == a_max:
                    ties = part == a_max
                    m += np.count_nonzero(ties)
                    dest[ties] = 0.0

    s = _sparse_pairwise_sum(size, [(offset, offset + v.size) for offset, v in chunks], fill)
    if s != 0:
        s = s / m
    return float(np.log1p(s) + np.log(m) + a_max)


def logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))) of a 1-D real array; -inf when a is empty.

    The maximum is factored out and its m ties are summed apart:
    log1p(sum(exp(a - a_max) over the rest) / m) + log(m) + a_max.
    A non-finite maximum gives log(sum(exp(a))) directly.
    """
    a = np.asarray(a, dtype=float).reshape(-1)
    return _logsumexp_at(a.size, [(0, a)])


def _log_binom_pmf(n: int, p1: float, k0: int, k1: int) -> np.ndarray:
    """log P(k) of Binomial(n, p1) for k = k0..k1-1.

    Each entry depends on its k alone, so a long range is evaluated
    PMF_BLOCK counts at a time into one output array.
    """
    if k1 - k0 > PMF_BLOCK:
        out = np.empty(k1 - k0)
        for b0 in range(k0, k1, PMF_BLOCK):
            b1 = min(b0 + PMF_BLOCK, k1)
            out[b0 - k0 : b1 - k0] = _log_binom_pmf(n, p1, b0, b1)
        return out
    log_p1 = math.log(p1) if p1 > 0 else -math.inf
    log_p0 = math.log1p(-p1) if p1 < 1 else -math.inf
    ks = np.arange(k0, k1)
    out = (
        _log_factorial_range(n, n + 1)[0]
        - _log_factorial_range(k0, k1)
        - _log_factorial_range(n - k1 + 1, n - k0 + 1)[::-1]
    )
    # 0 log 0 = 0: at p1 = 0 or 1 the certain count keeps log P = 0, not nan
    out += ks * log_p1 if p1 > 0 else np.where(ks == 0, 0.0, -math.inf)
    out += (n - ks) * log_p0 if p1 < 1 else np.where(ks == n, 0.0, -math.inf)
    return out


def _pairwise_plan(
    pieces: Sequence[tuple[int, int, int]],
    mode: int,
    var: float,
    est: Callable[[int], float],
    eta: float,
) -> list[tuple[int, int, int]]:
    """The counts whose exp(a - a_max) can change the float of their array's pairwise sum.

    The array has one term a(k) per count of the ``pieces`` (start, stop,
    position): counts start..stop-1 sit at positions position.. in order.  Some function F, nondecreasing up to ``mode`` and nonincreasing
    after it, is within ``eta`` of every a(k) and of every ``est(k)``, so on
    a piece the largest term is at the count c nearest the mode, and the
    terms fall away from it.  ``_logsumexp_at`` sums e(k) = exp(a(k) - a_max),
    ties of the maximum as 0.0, with numpy's pairwise tree over positions;
    ``top`` is the largest est at a piece's c, and a_max is within 2 eta of it.

    First each piece is cut to its underflow window: on each side of c, the
    first count found whose est is 4 eta below top - EXP_UNDERFLOW_CUT,
    searched from a normal estimate (``var`` is the variance); every term
    beyond it has e(k) = 0.0.  Then this walks the tree from the root, by
    ``_sparse_pairwise_sum``'s split rule, and drops a node whose (entries) x
    exp(largest est - L + 8 eta) < 2^-55, L being the largest est at a count
    of its sibling that cannot tie the maximum (est below top - 4 eta).  The
    sibling's sum is at least that e(k), a pairwise sum of non-negative
    floats being never below its largest term, and ulp(x) / 2 > x 2^-54; so
    the node sums below half an ulp of its sibling, fl(x + y) = x, and every
    kept sum keeps its bits.  The one bit to spare covers exp, the
    subtraction of a_max and the sum; the 8 eta cover a and est on both
    sides.  L counts only above top - 600: exp's absolute error in the
    subnormals, 2^-1074 a term, is then far below ulp(L) / 2.  No node that
    holds a_max or one of its ties is dropped.

    A node is not split when it holds at most max(PLAN_NODE, PAIRWISE_BLOCK)
    window entries (so never one numpy sums in one pass), or when its ests
    span at most 55 log 2, so that no part of it can be dropped; an array of
    at most PLAN_NODE terms is kept whole.  Returns the kept count ranges,
    ascending, in the same (start, stop, position) form.
    """
    size = sum(stop - start for start, stop, _ in pieces)
    if size <= PLAN_NODE:
        return list(pieces)
    peaks = [min(max(mode, start), stop - 1) for start, stop, _ in pieces]
    heights = [est(c) for c in peaks]
    top = max(heights)
    cut = top - EXP_UNDERFLOW_CUT - 4 * eta
    spans = []  # (position, start, stop, c) of each window
    for (start, stop, pos), c, height in zip(pieces, peaks, heights):
        fall = height - cut
        if fall < 0:  # every term of the piece underflows
            continue
        d = abs(c - mode)
        reach = int(math.sqrt(d * d + 2.0 * var * fall) - d) + 1
        # each side ends at the first count found below the cut; where log P is
        # concave the fall from c is convex in the distance x, so one at x with
        # fall f < the needed fall puts the cut no farther than x fall / f
        x = reach
        while x <= c - start:
            f = height - est(c - x)
            if f > fall:
                break
            x = int(x * fall / f if 2 * f > fall else 2 * x) + 1
        k0 = c - x + 1 if x <= c - start else start
        x = reach
        while x < stop - c:
            f = height - est(c + x)
            if f > fall:
                break
            x = int(x * fall / f if 2 * f > fall else 2 * x) + 1
        k1 = c + x if x < stop - c else stop
        spans.append((pos + k0 - start, k0, k1, c))
    if sum(stop - start for _, start, stop, _ in spans) <= PLAN_NODE:
        return [(start, stop, pos) for pos, start, stop, _ in spans]
    tie, floor, gap = top - 4 * eta, top - 600.0 + 4 * eta, 55 * math.log(2.0)
    memo = dict(zip(peaks, heights))

    def a_hat(k: int) -> float:
        a = memo.get(k)
        if a is None:
            a = memo[k] = est(k)
        return a

    untied: dict[int, list[int]] = {}

    def near(c: int, k0: int, k1: int) -> list[int]:
        """The counts nearest c on either side within [k0, k1), galloping, whose est
        cannot tie the maximum, or counts outside [k0, k1) where none is."""
        if c not in untied:
            untied[c] = []
            for sign in (-1, 1):
                step = 1
                while k0 <= c + sign * step < k1 and a_hat(c + sign * step) >= tie:
                    step *= 2
                untied[c].append(c + sign * step)
        return untied[c]

    def bounds(lo: int, hi: int) -> tuple[int, float, float, float]:
        """(entries, largest est, untied lower bound L, smallest est) of positions lo..hi-1."""
        entries, upper, lower, lowest = 0, -math.inf, -math.inf, math.inf
        for pos, start, stop, c in spans:
            k0 = start + lo - pos if lo > pos else start
            k1 = start + hi - pos if hi - pos < stop - start else stop
            if k0 < k1:
                a = a_hat(mode if k0 <= mode < k1 else (k0 if mode < k0 else k1 - 1))
                entries += k1 - k0
                if a > upper:
                    upper = a
                if a >= tie:  # the largest may tie the maximum: stand in the nearest untied counts
                    a = max([a_hat(k) for k in near(c, start, stop) if k0 <= k < k1], default=-math.inf)
                if a > lower:
                    lower = a
                a = a_hat(k0)
                if a < lowest:
                    lowest = a
                a = a_hat(k1 - 1)
                if a < lowest:
                    lowest = a
        return entries, upper, lower, lowest

    def kept_beside(node: tuple[int, float, float, float], sibling: tuple[int, float, float, float]) -> bool:
        lower = sibling[2]
        return node[0] > 0 and (lower < floor or math.log(node[0]) + node[1] - lower + gap + 8 * eta >= 0.0)

    kept: list[list[int]] = []
    first, last = spans[0][0], spans[-1][0] + spans[-1][2] - spans[-1][1]  # positions of the entries

    def walk(lo: int, width: int, node: tuple[int, float, float, float]) -> None:
        if node[0] <= max(PLAN_NODE, PAIRWISE_BLOCK) or node[1] - node[3] <= gap:
            if kept and kept[-1][1] == lo:
                kept[-1][1] = lo + width
            else:
                kept.append([lo, lo + width])
            return
        h = width // 2
        h -= h % PAIRWISE_LANES
        if lo + h <= first or last <= lo + h:  # one child holds every entry
            walk(lo + h, width - h, node) if lo + h <= first else walk(lo, h, node)
            return
        left, right = bounds(lo, lo + h), bounds(lo + h, lo + width)
        if kept_beside(left, right):
            walk(lo, h, left)
        if kept_beside(right, left):
            walk(lo + h, width - h, right)

    walk(0, size, bounds(0, size))
    rows = []
    for lo, hi in kept:
        for pos, start, stop, _ in spans:
            k0 = start + lo - pos if lo > pos else start
            k1 = start + hi - pos if hi - pos < stop - start else stop
            if k0 < k1:
                rows.append((k0, k1, pos + k0 - start))
    return rows


def _log_binom_sums(
    n: int, p1: float, segments: Sequence[tuple[int, int, int]], count: int
) -> list[float]:
    """logsumexp of log P(k), Binomial(n, p1), over each of ``count`` subsets of counts.

    ``segments`` are ascending, disjoint [start, stop) ranges of counts, each
    labelled with its subset.  Each result has the bits of logsumexp over
    the subset's terms in count order, and log P is evaluated only on the
    counts ``_pairwise_plan`` keeps, which decides from math.lgamma before
    anything is evaluated.  Its eta bounds the distance of both the
    evaluated log P and the math.lgamma estimate from the exact value with
    this p1's rounded logs: every intermediate of either lies within M =
    lgamma(n + 1) + n (|log p1| + |log(1 - p1)|), and a rounding count puts
    each within 2^-46 M of it (the mode's rounding adds less), so eta =
    2^-40 (M + 1) has a factor of 64 to spare.  At p1 = 0 or 1, log P is 0 at
    one count and -inf elsewhere, so each segment's count nearest the mode
    gives the sum.  The kept counts are evaluated one maximal run of
    touching counts at a time, and each run goes to ``_logsumexp_at`` at its
    position in its subset's count-ordered array, which sums it with that
    array's bits without building the array: memory is O(sqrt(n)), not O(n).
    """
    mode = min(math.floor((n + 1) * p1), n)
    sizes = [0] * count
    rows = []  # (start, stop, subset, position) of every count range to evaluate
    for start, stop, i in segments:
        rows.append((start, stop, i, sizes[i]))
        sizes[i] += stop - start
    if not 0.0 < p1 < 1.0:
        nearest = [min(max(mode, start), stop - 1) for start, stop, _, _ in rows]
        rows = [(c, c + 1, i, pos + c - start) for c, (start, _, i, pos) in zip(nearest, rows)]
    elif max(sizes) > PLAN_NODE:  # else every subset is kept whole, and no estimate is needed
        lgn, lp1, lp0 = math.lgamma(n + 1.0), math.log(p1), math.log1p(-p1)
        eta = 2.0**-40 * (lgn + n * (abs(lp1) + abs(lp0)) + 1.0)

        def est(k: int) -> float:
            return lgn - math.lgamma(k + 1.0) - math.lgamma(n - k + 1.0) + k * lp1 + (n - k) * lp0

        planned = []
        for i in range(count):
            own = [(start, stop, pos) for start, stop, j, pos in rows if j == i]
            plan = _pairwise_plan(own, mode, n * p1 * (1.0 - p1), est, eta)
            planned += [(k0, k1, i, pos) for k0, k1, pos in plan]
        rows = sorted(planned)
    chunks: list[list[tuple[int, np.ndarray]]] = [[] for _ in range(count)]
    g = 0  # one evaluation per maximal run of touching counts
    for j in range(1, len(rows) + 1):
        if j == len(rows) or rows[j][0] != rows[j - 1][1]:
            s0 = rows[g][0]
            span = _log_binom_pmf(n, p1, s0, rows[j - 1][1])
            for k0, k1, i, pos in rows[g:j]:
                chunks[i].append((pos, span[k0 - s0 : k1 - s0]))
            g = j
    return [_logsumexp_at(size, own) for size, own in zip(sizes, chunks)]


def _typical_runs(
    n: int, lam0: float, lam1: float, lo: float, hi: float
) -> tuple[tuple[int, int], ...]:
    """Maximal [start, stop) runs of the counts k with lo <= log2 P(x^n) <= hi.

    log2 P = (n - k) log2 lam0 + k log2 lam1 is linear in k, so the runs are
    one interval up to rounding.  Outside [o0, o1) the test fails and inside
    [i0, i1) it holds whatever the rounding; it is evaluated only on the
    bands between, in Python floats, whose products, sums and comparisons
    round as numpy's do.
    """
    if not lo <= hi:  # nan bounds: nothing is typical
        return ()
    if lam1 in (0.0, 1.0):
        # degenerate spectrum: log2 P is 0 for the certain count c, -inf for the rest
        c = n if lam1 == 1.0 else 0
        if lo > -math.inf:
            return ((c, c + 1),) if lo <= 0.0 <= hi else ()
        rest = tuple((start, stop) for start, stop in ((0, c), (c + 1, n + 1)) if start < stop)
        return ((0, n + 1),) if 0.0 <= hi else rest
    a0, a1 = math.log2(lam0), math.log2(lam1)
    slope = a1 - a0
    # bounds the rounding of log2 P at any k and of the edge arithmetic below
    finite = (abs(lo) if lo > -math.inf else 0.0) + (abs(hi) if hi < math.inf else 0.0)
    fuzz = 8 * ROUNDOFF * (n * (abs(a0) + abs(a1)) + finite)
    if slope == 0.0:  # uniform spectrum: every k has the same exact log2 P
        o0, o1 = (0, n + 1) if lo - fuzz <= n * a0 <= hi + fuzz else (0, 0)
        i0, i1 = (0, n + 1) if lo + fuzz <= n * a0 <= hi - fuzz else (0, 0)
    else:
        # real k where log2 P equals lo - fuzz, hi + fuzz, lo + fuzz and hi - fuzz,
        # clamped to [-1, n + 1] and ordered by k
        x0, x1, y0, y1 = [
            min(max((c - n * a0) / slope, -1.0), n + 1.0)
            for c in (lo - fuzz, hi + fuzz, lo + fuzz, hi - fuzz)
        ]
        if slope < 0:
            x0, x1, y0, y1 = x1, x0, y1, y0
        o0, o1 = max(0, math.floor(x0) - 1), min(n + 1, math.floor(x1) + 2)
        i0, i1 = max(o0, math.ceil(y0) + 1), min(o1, math.floor(y1))
    if i0 >= i1:  # no certain interior: test the whole outer range
        i0 = i1 = o1
    runs: list[list[int]] = []
    for k in itertools.chain(range(o0, i0), range(i0, i0 + (i0 < i1)), range(i1, o1)):
        interior = k == i0 < i1  # i0 stands for the whole interior, where the test holds
        if interior or lo <= (n - k) * a0 + k * a1 <= hi:
            stop = i1 if interior else k + 1
            if runs and runs[-1][1] == k:
                runs[-1][1] = stop
            else:
                runs.append([k, stop])
    return tuple(map(tuple, runs))


def typical_set(n: int, delta: float, probs: Sequence[float]) -> TypicalSet:
    """Sequences whose product probability is within 2^{+-n delta} of 2^{-nH}."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if delta <= 0:
        raise ValueError("delta must be positive")
    lam = qmath.as_distribution(probs)
    if lam.size != 2:
        raise ValueError("only binary spectra are supported")
    lam0, lam1 = float(lam[0]), float(lam[1])
    entropy = qmath.shannon_entropy(lam)
    runs = _typical_runs(
        n,
        lam0,
        lam1,
        -n * (entropy + delta) - TYPICAL_EDGE_EPS,
        -n * (entropy - delta) + TYPICAL_EDGE_EPS,
    )
    segments, prev = [], 0  # subset 0 is the typical counts, 1 the rest
    for start, stop in runs:
        if start > prev:
            segments.append((prev, start, 1))
        segments.append((start, stop, 0))
        prev = stop
    if prev <= n:
        segments.append((prev, n + 1, 1))
    log_weight, log_complement = _log_binom_sums(n, lam1, segments, 2)
    return TypicalSet(
        n=n,
        delta=delta,
        probs=(lam0, lam1),
        entropy=entropy,
        runs=runs,
        weight=float(math.exp(log_weight)) if log_weight > -math.inf else 0.0,
        complement=float(math.exp(log_complement)) if log_complement > -math.inf else 0.0,
        log_weight=log_weight,
        log_complement=log_complement,
    )


def enumerate_typical_weight(n: int, delta: float, probs: Sequence[float]) -> float:
    """Brute-force check of the typical weight; only sensible for small n."""
    if n > 20:
        raise ValueError("enumeration beyond n = 20 is deliberately unsupported")
    tset = typical_set(n, delta, probs)
    lam0, lam1 = tset.probs
    total = 0.0
    for x in range(2**n):
        ones = bin(x).count("1")
        if tset.is_typical([(x >> i) & 1 for i in range(n)]):
            total += lam0 ** (n - ones) * lam1**ones
    return total


@dataclass(frozen=True)
class TypicalityReport:
    """Error budget of the batched protocol at block length n."""

    theta: float
    n: int
    delta: float
    entropy: float
    typical_weight: float
    epsilon_n: float  # trace-distance error of the typical projection
    epsilon_prime: float  # probability of too many heralded failures
    total_error: float  # epsilon_n + 2 epsilon_prime
    dilution_ebits: float  # n (H + delta)
    log_epsilon_n: float  # natural logs, finite even when the floats underflow
    log_epsilon_prime: float
    hoeffding_epsilon_prime: float


def _log_excess_failure(n: int, delta: float, theta: float) -> float:
    p = success_probability(theta)
    cutoff = n * (p - delta)
    if cutoff <= 0.0:  # no success count lies below it; also keeps cutoff = -inf out of round()
        return -math.inf
    k_max = (
        math.ceil(cutoff - 1.0)
        if abs(cutoff - round(cutoff)) > CUTOFF_INTEGER_TOL
        else int(round(cutoff)) - 1
    )
    k_max = min(k_max, n)
    if k_max < 0:
        return -math.inf
    return _log_binom_sums(n, p, [(0, k_max + 1, 0)], 1)[0]


def error_budget(
    n: int, delta: float, theta: float, *, tset: TypicalSet | None = None
) -> TypicalityReport:
    """Error budget at block length n; ``tset``, when the caller already holds
    it, is ``typical_set(n, delta, resource_spectrum(theta))``."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if not delta > 0:  # also nan, which would reach round() in _log_excess_failure
        raise ValueError(f"delta {delta!r} must be positive")
    if tset is None:
        tset = typical_set(n, delta, resource_spectrum(theta))
    elif (tset.n, tset.delta) != (n, delta):
        raise ValueError(f"typical set is for (n, delta) = {(tset.n, tset.delta)}, not {(n, delta)}")
    log_eps_prime = _log_excess_failure(n, delta, theta)
    eps_prime = math.exp(log_eps_prime) if log_eps_prime > -math.inf else 0.0
    eps_n = 2.0 * math.sqrt(max(tset.complement, 0.0))
    log_eps_n = (
        math.log(2.0) + 0.5 * tset.log_complement
        if tset.log_complement > -math.inf
        else -math.inf
    )
    try:
        hoeffding = math.exp(-2.0 * delta**2 * n)
    except OverflowError:  # delta**2 beyond the float range: the bound is exp(-inf)
        hoeffding = 0.0
    return TypicalityReport(
        theta=theta,
        n=n,
        delta=delta,
        entropy=tset.entropy,
        typical_weight=tset.weight,
        epsilon_n=eps_n,
        epsilon_prime=eps_prime,
        total_error=eps_n + 2.0 * eps_prime,
        dilution_ebits=n * (tset.entropy + delta),
        log_epsilon_n=log_eps_n,
        log_epsilon_prime=log_eps_prime,
        hoeffding_epsilon_prime=hoeffding,
    )


def log_linear_fit(ns: Sequence[int], log_values: Sequence[float]) -> tuple[float, float, float]:
    """Least-squares fit log v = a n + b; returns (a, b, r_squared)."""
    x = np.asarray(ns, dtype=float)
    y = np.asarray(log_values, dtype=float)
    if np.any(~np.isfinite(y)):
        raise ValueError("fit requires finite log values")
    a, b = np.polyfit(x, y, 1)
    pred = a * x + b
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(a), float(b), r2
