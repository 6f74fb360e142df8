"""Closed-form and combinatorial analysis: channel fixed points, cost curves,
typicality, and error decay.

The superoperator convention is row-major: a channel matrix ``S`` acts on
``rho.reshape(-1)`` and ``S[i*d + j, k*d + l]`` is the (i, j) component of
the image of the matrix unit ``|k><l|``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import qmath
from .model import GateSpec, bell_pair

CHANNEL_TP_TOL = 1e-8
CHANNEL_CP_TOL = 1e-8
CESARO_MAX_TERMS = 10**6
BISECT_RTOL = 4 * np.finfo(float).eps
BISECT_MAXITER = 100


class AnalysisError(Exception):
    pass


# ---------------------------------------------------------------------------
# channels


@dataclass(frozen=True, init=False)
class ChannelMatrix:
    """Verified CPTP superoperator on a d-dimensional system."""

    matrix: np.ndarray
    d: int

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
        eigs = np.linalg.eigvalsh((choi + choi.conj().T) / 2)
        if float(eigs.min()) < -CHANNEL_CP_TOL:
            raise AnalysisError(f"channel is not completely positive (min Choi eig {eigs.min():.3e})")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "d", d)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        out = self.matrix @ np.asarray(rho, dtype=complex).reshape(-1)
        return out.reshape(self.d, self.d)

    def choi(self) -> np.ndarray:
        s4 = self.matrix.reshape(self.d, self.d, self.d, self.d)
        return np.einsum("ijkl->kilj", s4).reshape(self.d * self.d, self.d * self.d)


def superoperator_from_map(apply_fn: Callable[[np.ndarray], np.ndarray], d: int) -> np.ndarray:
    cols = []
    for k in range(d):
        for l in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[k, l] = 1.0
            cols.append(apply_fn(unit).reshape(-1))
    return np.stack(cols, axis=1)


def apply_channel_to_factor(
    channel: ChannelMatrix, rho: np.ndarray, dims: Sequence[int], position: int
) -> np.ndarray:
    """Apply the channel to one tensor factor of a multipartite operator."""
    dims = tuple(dims)
    d = dims[position]
    if d != channel.d:
        raise AnalysisError(f"factor dimension {d} != channel dimension {channel.d}")
    n = len(dims)
    x = np.asarray(rho, dtype=complex).reshape(dims + dims)
    x = np.moveaxis(x, (position, n + position), (0, 1))
    rest = x.shape[2:]
    s4 = channel.matrix.reshape(d, d, d, d)
    x = np.einsum("ijkl,kl...->ij...", s4, x)
    x = np.moveaxis(x.reshape((d, d) + rest), (0, 1), (position, n + position))
    total = int(np.prod(dims))
    return x.reshape(total, total)


def round_trip_channel(gate: GateSpec) -> ChannelMatrix:
    """Channel on one side induced by undoing and redoing the gate.

    tau -> Tr_{B RB}[ U ( Tr_B[ U+ (tau (x) I_B / d) U ] (x) Phi_d^{B RB} ) U+ ].
    The maximally mixed ancilla keeps the composition trace preserving.
    """
    d = gate.local_dim
    u = gate.matrix
    bell = bell_pair(d).vector
    phi = np.outer(bell, bell.conj())  # on (B, RB)
    eye_b = np.eye(d, dtype=complex) / d

    def apply_fn(tau: np.ndarray) -> np.ndarray:
        joint = u.conj().T @ np.kron(tau, eye_b) @ u
        on_a = _trace_second(joint, d, d)
        big = np.kron(on_a, phi)  # factors (A, B, RB)
        big = _apply_two_site(u, big, (d, d, d), (0, 1))
        return _trace_out_rest(big, (d, d, d), keep=0)

    return ChannelMatrix(superoperator_from_map(apply_fn, d), d)


def _trace_second(rho: np.ndarray, d1: int, d2: int) -> np.ndarray:
    x = rho.reshape(d1, d2, d1, d2)
    return np.einsum("aibi->ab", x)


def _trace_out_rest(rho: np.ndarray, dims: Sequence[int], keep: int) -> np.ndarray:
    dims = tuple(dims)
    n = len(dims)
    x = rho.reshape(dims + dims)
    x = np.moveaxis(x, (keep, n + keep), (0, 1))
    k = dims[keep]
    rest = int(np.prod(dims)) // k
    x = x.reshape(k, k, rest, rest)
    return np.einsum("abii->ab", x)


def _apply_two_site(u: np.ndarray, rho: np.ndarray, dims: Sequence[int], sites: tuple[int, int]) -> np.ndarray:
    dims = tuple(dims)
    total = int(np.prod(dims))
    vec_cols = []
    # conjugate via the vector embedding on both sides
    x = rho.reshape(dims + dims)
    n = len(dims)
    i, j = sites
    x = np.moveaxis(x, (i, j, n + i, n + j), (0, 1, n, n + 1))
    moved = x.shape
    dd = dims[i] * dims[j]
    x = x.reshape(dd, total // dd, dd, total // dd)
    x = np.einsum("ab,bmcn,cd->amdn", u, x, u.conj().T)
    x = x.reshape(moved)
    x = np.moveaxis(x, (0, 1, n, n + 1), (i, j, n + i, n + j))
    return x.reshape(total, total)


def cesaro_fixed_state(channel: ChannelMatrix, tol: float = 1e-8) -> np.ndarray:
    """Long-run Cesaro mean of channel iterates on half a maximally entangled pair.

    Works on the doubled system (A, RA): only the fixed sector (eigenvalue
    exactly 1) survives Cesaro averaging, so the limit is the eigenvalue-1
    spectral projection of the lifted superoperator applied to the pair
    projector.  Falls back to explicit running means when the spectral
    decomposition is ill conditioned.
    """
    d = channel.d
    dims = (d, d)
    bell = bell_pair(d).vector
    start = np.outer(bell, bell.conj())

    lifted = superoperator_from_map(
        lambda rho: apply_channel_to_factor(channel, rho, dims, 0), d * d
    )
    try:
        w, v = np.linalg.eig(lifted)
        cond = np.linalg.cond(v)
        if cond > 1e10:
            raise np.linalg.LinAlgError("eigenbasis ill conditioned")
        coeffs = np.linalg.solve(v, start.reshape(-1))
        sel = np.abs(w - 1.0) <= 1e-10
        limit = (v[:, sel] @ coeffs[sel]).reshape(d * d, d * d)
        limit = (limit + limit.conj().T) / 2
        evals = np.linalg.eigvalsh(limit)
        if float(evals.min()) < -1e-8 or abs(float(np.trace(limit).real) - 1.0) > 1e-8:
            raise np.linalg.LinAlgError("projected limit is not a state")
        return limit
    except np.linalg.LinAlgError:
        pass

    # iterative fallback: running Cesaro mean of channel iterates
    current = start
    mean = np.zeros_like(start)
    prev_mean = None
    for k in range(1, CESARO_MAX_TERMS + 1):
        current = apply_channel_to_factor(channel, current, dims, 0)
        mean = mean + (current - mean) / k
        if k % 64 == 0:
            if prev_mean is not None and float(np.max(np.abs(mean - prev_mean))) < tol:
                return (mean + mean.conj().T) / 2
            prev_mean = mean.copy()
    raise AnalysisError(f"Cesaro iteration did not settle within {CESARO_MAX_TERMS} terms")


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


def break_even_theta(
    grid_points: int = 1000, lo: float = 1e-4, hi: float = math.pi / 2
) -> float | None:
    """Smallest root of e_bar(theta) = 1, bracketed on a grid then bisected.

    Returns None when no sign change is found on the grid.
    """
    thetas = np.linspace(lo, hi, grid_points)
    values = np.array([CostCurvePoint.at(t).e_bar - 1.0 for t in thetas])
    sign_change = np.nonzero(np.diff(np.sign(values)) != 0)[0]
    if sign_change.size == 0:
        return None
    i = int(sign_change[0])
    return bisect(lambda t: CostCurvePoint.at(t).e_bar - 1.0, thetas[i], thetas[i + 1], xtol=1e-10)


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
    typical_counts: tuple[int, ...]
    weight: float
    complement: float  # 1 - weight, computed from the atypical side
    log_weight: float  # natural log
    log_complement: float

    @functools.cached_property
    def count(self) -> int:
        """Exact number of typical sequences (big-integer arithmetic; lazy)."""
        return int(sum(math.comb(self.n, k) for k in self.typical_counts))

    def is_typical(self, sequence: Sequence[int]) -> bool:
        if len(sequence) != self.n:
            raise ValueError(f"sequence length {len(sequence)} != n = {self.n}")
        return int(sum(sequence)) in set(self.typical_counts)


# cephes lgam: log Gamma(x) = (x - 1/2) log x - x + log sqrt(2 pi) + A(1/x^2) / x
_LGAM_A = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
_LS2PI = 0.91893853320467274178
_LOG_FACTORIAL_SMALL = np.array([math.log(float(math.factorial(k))) for k in range(12)])


def log_factorials(n: int) -> np.ndarray:
    """log(k!) for k = 0..n, as cephes lgam evaluates log Gamma(k + 1).

    A table of log(k!) below x = k + 1 = 13, the Stirling form with the
    cephes correction above, in cephes' order of operations.
    np.log can differ from the C library log by an ulp, which moves a few
    entries at x >= 9170 by an ulp-scale amount.
    """
    x = np.arange(1.0, n + 2.0)  # out[k] = lgam(x[k])
    out = (x - 0.5) * np.log(x) - x + _LS2PI
    out[:12] = _LOG_FACTORIAL_SMALL[: n + 1]
    mid = slice(12, 999)  # 13 <= x < 1000: polynomial correction
    xs = x[mid]
    p = 1.0 / (xs * xs)
    poly = _LGAM_A[0]
    for c in _LGAM_A[1:]:
        poly = poly * p + c
    out[mid] += poly / xs
    far = slice(999, 10**8)  # 1000 <= x <= 1e8: three-term series; none above
    xs = x[far]
    p = 1.0 / (xs * xs)
    out[far] += (
        (7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
        + 0.0833333333333333333333
    ) / xs
    return out


def logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))) of a 1-D real array; -inf when a is empty.

    The maximum is factored out and its m ties are summed apart:
    log1p(sum(exp(a - a_max) over the rest) / m) + log(m) + a_max.
    A non-finite result is recomputed directly as log(sum(exp(a))).
    """
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return -math.inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = a.max()
        ties = a == a_max
        m = np.float64(np.count_nonzero(ties))
        e = np.exp(a - a_max)
        e[ties] = 0.0
        s = e.sum()
        if s != 0:
            s = s / m
        out = np.log1p(s) + np.log(m) + a_max
        if not np.isfinite(out):
            out = np.log(np.exp(a).sum())
    return float(out)


def _log_binom_pmf(lf: np.ndarray, k_max: int, p1: float) -> np.ndarray:
    """log P(k) of Binomial(n, p1) for k = 0..k_max, from lf = log_factorials(n)."""
    n = lf.size - 1
    log_p1 = math.log(p1) if p1 > 0 else -math.inf
    log_p0 = math.log1p(-p1) if p1 < 1 else -math.inf
    ks = np.arange(k_max + 1)
    out = lf[n] - lf[: k_max + 1] - lf[n - k_max :][::-1]
    # 0 log 0 = 0: at p1 = 0 or 1 the certain count keeps log P = 0, not nan
    out += ks * log_p1 if p1 > 0 else np.where(ks == 0, 0.0, -math.inf)
    out += (n - ks) * log_p0 if p1 < 1 else np.where(ks == n, 0.0, -math.inf)
    return out


def typical_set(
    n: int, delta: float, probs: Sequence[float], *, lf: np.ndarray | None = None
) -> TypicalSet:
    """Sequences whose product probability is within 2^{+-n delta} of 2^{-nH}.

    ``lf`` is ``log_factorials(n)``, for a caller that has built it already.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if delta <= 0:
        raise ValueError("delta must be positive")
    lam = qmath.as_distribution(probs)
    if lam.size != 2:
        raise ValueError("only binary spectra are supported")
    lam0, lam1 = float(lam[0]), float(lam[1])
    entropy = qmath.shannon_entropy(lam)
    ks = np.arange(n + 1)
    if lam1 in (0.0, 1.0):
        # degenerate spectrum: the single sequence has probability 1 = 2^{-n 0}
        log2_prob = np.where(ks == (n if lam1 == 1.0 else 0), 0.0, -np.inf)
    else:
        log2_prob = (n - ks) * math.log2(lam0) + ks * math.log2(lam1)
    eps = 1e-12  # absorb float fuzz at the window edges
    typical = (log2_prob >= -n * (entropy + delta) - eps) & (
        log2_prob <= -n * (entropy - delta) + eps
    )
    if lf is None:
        lf = log_factorials(n)
    log_pmf = _log_binom_pmf(lf, n, lam1)
    log_weight = logsumexp(log_pmf[typical])
    log_complement = logsumexp(log_pmf[~typical])
    return TypicalSet(
        n=n,
        delta=delta,
        probs=(lam0, lam1),
        entropy=entropy,
        typical_counts=tuple(ks[typical].tolist()),
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


def projection_error(n: int, delta: float, theta: float) -> float:
    """Exact trace distance 2 sqrt(1 - w) between the projected and ideal resources."""
    tset = typical_set(n, delta, resource_spectrum(theta))
    return 2.0 * math.sqrt(max(tset.complement, 0.0))


def excess_failure_prob(n: int, delta: float, theta: float) -> float:
    """Exact lower binomial tail: fewer than n (p - delta) heralded successes."""
    return math.exp(_log_excess_failure(n, delta, theta, log_factorials(n)))


def _log_excess_failure(n: int, delta: float, theta: float, lf: np.ndarray) -> float:
    p = success_probability(theta)
    cutoff = n * (p - delta)
    k_max = math.ceil(cutoff - 1.0) if abs(cutoff - round(cutoff)) > 1e-9 else int(round(cutoff)) - 1
    k_max = min(k_max, n)
    if k_max < 0:
        return -math.inf
    return logsumexp(_log_binom_pmf(lf, k_max, p))


def error_budget(n: int, delta: float, theta: float) -> TypicalityReport:
    if n < 1:
        raise ValueError("n must be at least 1")
    lf = log_factorials(n)  # shared by the typical set and the failure tail
    tset = typical_set(n, delta, resource_spectrum(theta), lf=lf)
    log_eps_prime = _log_excess_failure(n, delta, theta, lf)
    eps_prime = math.exp(log_eps_prime) if log_eps_prime > -math.inf else 0.0
    eps_n = 2.0 * math.sqrt(max(tset.complement, 0.0))
    log_eps_n = (
        math.log(2.0) + 0.5 * tset.log_complement
        if tset.log_complement > -math.inf
        else -math.inf
    )
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
        hoeffding_epsilon_prime=math.exp(-2.0 * delta**2 * n),
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
