"""Reference implementations the tests judge the package against.

Each function is a slower or more direct form of one production function,
or a helper that only tests call; its docstring's first line names the
production function it judges.  Test modules ``import oracles`` (pytest's
default ``prepend`` import mode puts ``tests/`` on ``sys.path``), and import
no other test module.
"""

import math
from unittest import mock

import numpy as np

from loccgate import analysis, engine, qmath
from loccgate.analysis import AnalysisError, resource_spectrum, success_probability
from loccgate.model import GateSpec, bell_pair, zz_phase_gate
from loccgate.qmath import _require_hermitian, _subsystem_entropy
from loccgate.systems import ALICE, BOB, REFEREE, PureState, SystemLayout


# ---------------------------------------------------------------- engine


def _svd_factor(vec, dims, keep):
    """Judges `qmath.factor_pure_state`: the kept factor from a full SVD, with its phase pivot."""
    psi = np.moveaxis(vec.reshape(dims), keep, range(len(keep)))
    mat = psi.reshape(math.prod(dims[p] for p in keep), -1)
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    assert s[0] ** 2 >= 1.0 - engine.LEAF_PURITY_TOL
    out = u[:, 0]
    mags = np.abs(out)
    pivot = out[int(np.argmax(mags >= mags.max() - qmath.PIVOT_TIE_TOL))]
    return out * (abs(pivot) / pivot)


def residual_entanglement(vec, dims, positions, alice_local):
    """Judges `engine.Leaf.resource_remaining`: the ebits left in a resource, computed eagerly.

    The numpy calls of the engine's leaf and first-read halves together, in
    their order, so the value has the engine's bits: 0.0 unless the
    resource's factors end in a pure state of their own and split across
    Alice|Bob.
    """
    rho = qmath.reduced_density(vec, dims, positions)
    purity = float(np.trace(rho @ rho).real)
    if purity < 1.0 - engine.LEAF_PURITY_TOL:
        return 0.0
    _, v = np.linalg.eigh(rho)
    if not alice_local or len(alice_local) == len(positions):
        return 0.0
    red = qmath.reduced_density(v[:, -1], [dims[p] for p in positions], alice_local)
    return qmath.von_neumann_entropy(red)


def alice_side_entropy(vec, dims, positions):
    """Judges `engine.Leaf.alice_side_entropy` and `engine.BranchTree.initial_alice_side_entropy`, eagerly."""
    if not positions:
        return 0.0
    return qmath.von_neumann_entropy(qmath.reduced_density(vec, dims, positions))


def reference_tree(program, initial=None):
    """Judges `engine.run_exhaustive`: a recursive full-state walk, the step's table + validate_on per node, SVD leaves.

    The initial state and every resource are tensored together at the start,
    and ``pruned_mass`` sums the path probabilities of the dropped branches.
    The diagnostics are computed eagerly, at each leaf and at the start,
    and handed to `engine.Leaf` and `engine.BranchTree` as settled floats.
    """
    state = initial
    if state is not None:
        engine._check_initial(program, initial)
    for res in program.resources:
        state = res if state is None else state.tensor(res)
    sim_layout, vec0 = state.layout, state.vector
    dims = sim_layout.dims
    keep = [i for i, f in enumerate(sim_layout.factors) if f.label not in program.consumed]
    out_layout = SystemLayout([sim_layout.factors[i] for i in keep], dim_cap=None)
    res = [
        (sim_layout.positions(r.layout.labels),
         [j for j, f in enumerate(r.layout.factors) if f.owner is ALICE])
        for r in program.resources
    ]
    alice = [i for i, f in enumerate(sim_layout.factors) if f.owner is ALICE]
    leaves = []
    pruned = [0.0]

    def walk(idx, vec, prob, transcript):
        if idx == len(program.steps):
            remaining = tuple(residual_entanglement(vec, dims, p, a) for p, a in res)
            state = PureState(out_layout, _svd_factor(vec, dims, keep))
            entropy = alice_side_entropy(vec, dims, alice)
            leaves.append(engine.Leaf(transcript, prob, state, remaining, entropy))
            return
        step = program.steps[idx]
        seen = dict(transcript)
        inst = step.table[tuple(seen[k] for k in step.condition_on)]
        inst.validate_on(sim_layout)
        pos = sim_layout.positions(inst.labels)
        for outcome, kraus in inst.branches:
            here = transcript + ((step.name, outcome),)
            if len(inst.branches) == 1 and engine._is_identity(kraus):
                walk(idx + 1, vec, prob, here)
                continue
            child = qmath.apply_on_factors(vec, dims, pos, kraus)
            p = float(np.vdot(child, child).real)
            if p > engine.PRUNE_PROB:
                walk(idx + 1, child / math.sqrt(p), prob * p, here)
            else:
                pruned[0] += prob * p

    walk(0, vec0, 1.0, ())
    initial_entropy = alice_side_entropy(vec0, dims, alice)
    return engine.BranchTree(tuple(leaves), initial_entropy, pruned[0])


def unmerged_mixture(program, initial=None):
    """Judges `engine.output_mixture`'s merging: the same block walk keeping every node, one leaf per transcript.

    `engine._merge_level` is patched to keep each node of a level, so the
    leaves come out in branch order, as in `engine.run_exhaustive`'s tree.
    """
    with mock.patch.object(engine, "_merge_level", lambda nodes, live: (nodes, 0, 0.0)):
        return engine.output_mixture(program, initial)


def direct_protocol_error(program, target, initial):
    """Judges `engine.protocol_error` by a run on ``initial`` itself: 1 - sum_t p_t |<U psi|out_t>|^2."""
    tree = unmerged_mixture(program, initial)
    expected = initial.apply_unitary(target.matrix, target.labels)
    fid = 0.0
    for leaf in tree.leaves:
        fid += leaf.probability * abs(expected.overlap(leaf.state.renamed(program.renames))) ** 2
    return max(0.0, 1.0 - fid)


def unmerged_batch_error(plan, initial):
    """Judges `protocols.batch_error`: the same infidelity summed over every leaf of `unmerged_mixture`."""
    u = zz_phase_gate(plan.theta).matrix
    expected = initial
    for i in range(plan.n):
        expected = expected.apply_unitary(u, (f"A{i+1}", f"B{i+1}"))
    tree = unmerged_mixture(plan.program, initial)
    fid = 0.0
    for leaf in tree.leaves:
        fid += leaf.probability * abs(expected.overlap(leaf.state)) ** 2
    return max(0.0, 1.0 - fid)


def average_output(tree):
    """Judges the leaves of `engine.run_exhaustive` and `engine.output_mixture`: their averaged density operator."""
    rho = None
    for leaf in tree.leaves:
        contrib = leaf.probability * leaf.state.density()
        rho = contrib if rho is None else rho + contrib
    return rho


# ---------------------------------------------------------------- qmath


def _moveaxis_kernel(vec, dims, positions, op):
    """Judges `qmath.apply_on_factors` bit for bit: the kernel as it was before permutation plans."""
    positions = list(positions)
    k = math.prod(dims[p] for p in positions)
    psi = np.moveaxis(np.asarray(vec).reshape(dims), positions, range(len(positions)))
    moved_shape = psi.shape
    psi = (op @ psi.reshape(k, -1)).reshape(moved_shape)
    return np.moveaxis(psi, range(len(positions)), positions).reshape(-1)


def _moveaxis_reduced_density(vec, dims, keep):
    """Judges `qmath.reduced_density` bit for bit, and the reductions of states the package builds."""
    psi = np.moveaxis(np.asarray(vec).reshape(dims), list(keep), range(len(keep)))
    mat = psi.reshape(math.prod(dims[p] for p in keep), -1)
    return mat @ mat.conj().T


def tensor_product(a, b):
    """The Kronecker product in declared factor order, the convention of `PureState.tensor`."""
    return np.kron(np.asarray(a), np.asarray(b))


def trace_distance(rho, sigma):
    """Judges `qmath.fidelity` (Fuchs-van de Graaf): Tr |rho - sigma|, the sum of absolute eigenvalues."""
    rho = np.asarray(rho)
    sigma = np.asarray(sigma)
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch {rho.shape} vs {sigma.shape}")
    w = np.linalg.eigvalsh(_require_hermitian(rho - sigma))
    return float(np.sum(np.abs(w)))


def mutual_information(rho, layout, part_p, part_q):
    """Judges `qmath.partial_trace` and `qmath.von_neumann_entropy`: I(P:Q) = S(P) + S(Q) - S(PQ), bits."""
    p, q = set(part_p), set(part_q)
    if p & q:
        raise ValueError(f"overlapping label sets {sorted(p & q)}")
    return (
        _subsystem_entropy(rho, layout, p)
        + _subsystem_entropy(rho, layout, q)
        - _subsystem_entropy(rho, layout, p | q)
    )


# ---------------------------------------------------------------- systems and model


def restrict(layout, labels):
    """Judges `SystemLayout`'s factor order: the sub-layout of ``labels``, in the layout's order."""
    keep = set(labels)
    missing = keep - set(layout.labels)
    if missing:
        raise KeyError(f"unknown labels {sorted(missing)}")
    return SystemLayout(
        [f for f in layout.factors if f.label in keep], dim_cap=None
    )


def adjoint(gate):
    """Judges `model.zz_phase_gate` at negative angles: the gate's adjoint on the same labels."""
    return GateSpec(gate.matrix.conj().T, gate.labels)


def inverse_choi_state(gate):
    """Judges `PureState.apply_unitary` and `qmath.entanglement_entropy`: U^dagger on two pairs.

    The adjoint of the gate applied to halves of two maximally entangled pairs.

    Layout (A, B, RA, RB) with RA, RB referee-held; the gate acts on (A, B).
    """
    d = gate.local_dim
    a_ra = bell_pair(d, labels=("A", "RA"), owners=(ALICE, REFEREE))
    b_rb = bell_pair(d, labels=("B", "RB"), owners=(BOB, REFEREE))
    psi = a_ra.tensor(b_rb).permuted(("A", "B", "RA", "RB"))
    return psi.apply_unitary(gate.matrix.conj().T, ("A", "B"))


# ---------------------------------------------------------------- analysis: channels


def superoperator_from_map(apply_fn, d):
    """Judges `analysis.ChannelMatrix`: the superoperator of a linear map, one matrix unit at a time."""
    cols = []
    for k in range(d):
        for l in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[k, l] = 1.0
            cols.append(apply_fn(unit).reshape(-1))
    return np.stack(cols, axis=1)


def apply_channel_to_factor(channel, rho, dims, position):
    """Judges `analysis.cesaro_fixed_state`: the channel applied to one factor of an operator."""
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


def per_unit_round_trip(gate):
    """Judges `analysis.round_trip_channel` bit for bit.

    The round-trip superoperator built one matrix unit at a time, with the
    dense conjugation of (A, B) by the gate."""
    d = gate.local_dim
    u = gate.matrix
    bell = bell_pair(d).vector
    phi = np.outer(bell, bell.conj())
    eye_b = np.eye(d, dtype=complex) / d

    def apply_fn(tau):
        joint = u.conj().T @ np.kron(tau, eye_b) @ u
        on_a = np.einsum("aibi->ab", joint.reshape(d, d, d, d))
        x = np.kron(on_a, phi).reshape(d * d, d, d * d, d)
        x = np.einsum("ab,bmcn,cd->amdn", u, x, u.conj().T).reshape((d,) * 6)
        x = np.moveaxis(x, (0, 3), (0, 1)).reshape(d, d, d * d, d * d)
        return np.einsum("abii->ab", x)

    return superoperator_from_map(apply_fn, d)


def per_unit_lifted(ch):
    """Judges the lift in `analysis.cesaro_fixed_state`: the channel on A of (A, RA), per matrix unit."""
    d = ch.d
    return superoperator_from_map(lambda rho: apply_channel_to_factor(ch, rho, (d, d), 0), d * d)


def lifted_cesaro_fixed_state(ch):
    """Judges `analysis.cesaro_fixed_state`: the projection from one SVD of the d^4 x d^4 lift T - I."""
    d = ch.d
    bell = bell_pair(d).vector
    start = np.outer(bell, bell.conj())
    left, sing, right_h = np.linalg.svd(per_unit_lifted(ch) - np.eye(d**4))
    null = sing <= analysis.CESARO_NULL_CUT
    r = right_h[null].conj().T
    l_h = left[:, null].conj().T
    limit = (r @ np.linalg.solve(l_h @ r, l_h) @ start.reshape(-1)).reshape(d * d, d * d)
    return (limit + limit.conj().T) / 2


# ---------------------------------------------------------------- analysis: full-array binomial kernels


def oracle_log_factorials(n):
    """Judges `analysis.log_factorials`: cephes lgam at every count up to n, in one array."""
    x = np.arange(1.0, n + 2.0)
    out = (x - 0.5) * np.log(x) - x + 0.91893853320467274178
    out[:12] = np.array([math.log(float(math.factorial(k))) for k in range(12)])[: n + 1]
    xs = x[12:999]
    p = 1.0 / (xs * xs)
    poly = 8.11614167470508450300e-4
    for c in (-5.95061904284301438324e-4, 7.93650340457716943945e-4, -2.77777777730099687205e-3, 8.33333333333331927722e-2):
        poly = poly * p + c
    out[12:999] += poly / xs
    xs = x[999 : 10**8]
    p = 1.0 / (xs * xs)
    out[999 : 10**8] += (
        (7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p + 0.0833333333333333333333
    ) / xs
    return out


def oracle_logsumexp(a):
    """Judges `analysis.logsumexp`: exp over every term."""
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


def oracle_log_binom_pmf(lf, k_max, p1):
    """Judges `analysis._log_binom_pmf`: every log-pmf term from 0 to k_max."""
    n = lf.size - 1
    log_p1 = math.log(p1) if p1 > 0 else -math.inf
    log_p0 = math.log1p(-p1) if p1 < 1 else -math.inf
    ks = np.arange(k_max + 1)
    out = lf[n] - lf[: k_max + 1] - lf[n - k_max :][::-1]
    out += ks * log_p1 if p1 > 0 else np.where(ks == 0, 0.0, -math.inf)
    out += (n - ks) * log_p0 if p1 < 1 else np.where(ks == n, 0.0, -math.inf)
    return out


def oracle_typical_set(n, delta, probs, lf=None):
    """Judges `analysis.typical_set`: membership and weights over all n + 1 counts."""
    lam = qmath.as_distribution(probs)
    lam0, lam1 = float(lam[0]), float(lam[1])
    entropy = qmath.shannon_entropy(lam)
    ks = np.arange(n + 1)
    if lam1 in (0.0, 1.0):
        log2_prob = np.where(ks == (n if lam1 == 1.0 else 0), 0.0, -np.inf)
    else:
        log2_prob = (n - ks) * math.log2(lam0) + ks * math.log2(lam1)
    typical = (log2_prob >= -n * (entropy + delta) - 1e-12) & (log2_prob <= -n * (entropy - delta) + 1e-12)
    lf = oracle_log_factorials(n) if lf is None else lf
    log_pmf = oracle_log_binom_pmf(lf, n, lam1)
    log_weight = oracle_logsumexp(log_pmf[typical])
    log_complement = oracle_logsumexp(log_pmf[~typical])
    return {
        "entropy": entropy,
        "typical_counts": tuple(ks[typical].tolist()),
        "weight": float(math.exp(log_weight)) if log_weight > -math.inf else 0.0,
        "complement": float(math.exp(log_complement)) if log_complement > -math.inf else 0.0,
        "log_weight": log_weight,
        "log_complement": log_complement,
    }


def oracle_log_excess_failure(n, delta, theta, lf):
    """Judges `analysis._log_excess_failure`: the lower binomial tail over every count."""
    p = success_probability(theta)
    cutoff = n * (p - delta)
    k_max = math.ceil(cutoff - 1.0) if abs(cutoff - round(cutoff)) > 1e-9 else int(round(cutoff)) - 1
    k_max = min(k_max, n)
    if k_max < 0:
        return -math.inf
    return oracle_logsumexp(oracle_log_binom_pmf(lf, k_max, p))


def oracle_error_budget(n, delta, theta):
    """Judges `analysis.error_budget`: every field, from the full-array kernels."""
    lf = oracle_log_factorials(n)
    tset = oracle_typical_set(n, delta, resource_spectrum(theta), lf)
    log_eps_prime = oracle_log_excess_failure(n, delta, theta, lf)
    eps_prime = math.exp(log_eps_prime) if log_eps_prime > -math.inf else 0.0
    eps_n = 2.0 * math.sqrt(max(tset["complement"], 0.0))
    log_eps_n = math.log(2.0) + 0.5 * tset["log_complement"] if tset["log_complement"] > -math.inf else -math.inf
    return {
        "theta": theta,
        "n": n,
        "delta": delta,
        "entropy": tset["entropy"],
        "typical_weight": tset["weight"],
        "epsilon_n": eps_n,
        "epsilon_prime": eps_prime,
        "total_error": eps_n + 2.0 * eps_prime,
        "dilution_ebits": n * (tset["entropy"] + delta),
        "log_epsilon_n": log_eps_n,
        "log_epsilon_prime": log_eps_prime,
        "hoeffding_epsilon_prime": math.exp(-2.0 * delta**2 * n),
    }
