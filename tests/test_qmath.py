import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from loccgate import analysis, protocols, qmath
from loccgate.model import SZ, bell_pair, partial_bell_pair, random_density, random_pure_state
from loccgate.systems import ALICE, BOB, REFEREE, PureState, SystemLayout


def _rand_mat(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


# ---------------------------------------------------------------- tensor


def test_tensor_identity_case():
    np.testing.assert_array_equal(oracles.tensor_product(np.eye(2), np.eye(2)), np.eye(4))


def test_tensor_sz_sz_diagonal():
    np.testing.assert_allclose(oracles.tensor_product(SZ, SZ), np.diag([1, -1, -1, 1]))


def test_tensor_index_formula_oracle(rng):
    a, b = _rand_mat(rng, 2), _rand_mat(rng, 2)
    out = oracles.tensor_product(a, b)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    assert out[i * 2 + k, j * 2 + l] == pytest.approx(a[i, j] * b[k, l])


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25)
def test_tensor_associative(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (_rand_mat(rng, 2) for _ in range(3))
    left = oracles.tensor_product(oracles.tensor_product(a, b), c)
    right = oracles.tensor_product(a, oracles.tensor_product(b, c))
    assert np.max(np.abs(left - right)) < 1e-12


# ---------------------------------------------------------------- partial trace


def test_partial_trace_bell_is_maximally_mixed():
    rho = bell_pair(2).density()
    lay = bell_pair(2).layout
    np.testing.assert_allclose(qmath.partial_trace(rho, lay, ["a"]), np.eye(2) / 2, atol=1e-12)


def test_partial_trace_product_recovers_factor(rng):
    lay = SystemLayout([("A", 2, ALICE), ("B", 3, BOB)])
    rho_a = random_density(2, rng)
    rho_b = random_density(3, rng)
    joint = np.kron(rho_a, rho_b)
    np.testing.assert_allclose(qmath.partial_trace(joint, lay, ["A"]), rho_a, atol=1e-12)


def test_partial_trace_matches_index_summation(rng):
    lay = SystemLayout([("q1", 2, ALICE), ("q2", 2, ALICE), ("q3", 2, BOB)])
    rho = random_density(8, rng)
    got = qmath.partial_trace(rho, lay, ["q1", "q3"])
    expect = np.zeros((4, 4), dtype=complex)
    for i1 in range(2):
        for i3 in range(2):
            for j1 in range(2):
                for j3 in range(2):
                    for k in range(2):
                        expect[i1 * 2 + i3, j1 * 2 + j3] += rho[
                            i1 * 4 + k * 2 + i3, j1 * 4 + k * 2 + j3
                        ]
    np.testing.assert_allclose(got, expect, atol=1e-12)
    np.testing.assert_allclose(np.trace(got), 1.0, atol=1e-12)


def test_partial_trace_unknown_label():
    lay = SystemLayout([("A", 2, ALICE)])
    with pytest.raises(KeyError):
        qmath.partial_trace(np.eye(2) / 2, lay, ["missing"])


# ---------------------------------------------------------------- entropies


def test_entropy_maximally_mixed_qubit():
    assert qmath.von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0)


def test_entropy_pure_projector(rng):
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    assert qmath.von_neumann_entropy(np.outer(v, v.conj())) == pytest.approx(0.0, abs=1e-10)


def test_entropy_resource_pair_matches_binary_entropy():
    alpha = 1.1
    st_ = partial_bell_pair(alpha)
    rho = oracles._moveaxis_reduced_density(st_.vector, st_.dims, st_.layout.positions(["a"]))
    assert qmath.von_neumann_entropy(rho) == pytest.approx(
        qmath.binary_entropy(math.cos(alpha / 2) ** 2), abs=1e-10
    )


def test_entropy_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        qmath.von_neumann_entropy(np.array([[0.5, 1.0], [0.0, 0.5]]))


def test_entropy_additive_on_products(rng):
    a, b = random_density(2, rng), random_density(3, rng)
    total = qmath.von_neumann_entropy(np.kron(a, b))
    assert total == pytest.approx(
        qmath.von_neumann_entropy(a) + qmath.von_neumann_entropy(b), abs=1e-8
    )


def test_entropy_range(rng):
    for _ in range(10):
        rho = random_density(4, rng)
        s = qmath.von_neumann_entropy(rho)
        assert -1e-10 <= s <= 2.0 + 1e-10


def test_binary_entropy_values():
    assert qmath.binary_entropy(0.5) == pytest.approx(1.0)
    assert qmath.binary_entropy(0.0) == 0.0
    assert qmath.binary_entropy(1.0) == 0.0
    small = qmath.binary_entropy(math.cos(math.sqrt(0.01) / 2) ** 2)
    assert 0.0 < small < 0.05
    with pytest.raises(ValueError):
        qmath.binary_entropy(1.5)


@given(st.floats(0.0, 1.0))
@settings(max_examples=50)
def test_binary_entropy_symmetric(x):
    assert qmath.binary_entropy(x) == pytest.approx(qmath.binary_entropy(1.0 - x), abs=1e-12)


# ---------------------------------------------------------------- fidelity / distance


def test_fidelity_identical(rng):
    rho = random_density(4, rng)
    assert qmath.fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)


def test_fidelity_orthogonal_pures():
    zero = np.diag([1.0, 0.0]).astype(complex)
    one = np.diag([0.0, 1.0]).astype(complex)
    assert qmath.fidelity(zero, one) == pytest.approx(0.0, abs=1e-12)


def test_fidelity_pure_overlap_oracle(rng):
    for _ in range(5):
        u = rng.normal(size=3) + 1j * rng.normal(size=3)
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        got = qmath.fidelity(np.outer(u, u.conj()), np.outer(v, v.conj()))
        assert got == pytest.approx(abs(np.vdot(u, v)) ** 2, abs=1e-9)


def test_fidelity_symmetric(rng):
    a, b = random_density(3, rng), random_density(3, rng)
    assert qmath.fidelity(a, b) == pytest.approx(qmath.fidelity(b, a), abs=1e-9)


def test_fidelity_dimension_mismatch():
    with pytest.raises(ValueError):
        qmath.fidelity(np.eye(2) / 2, np.eye(3) / 3)


def test_trace_distance_cases(rng):
    rho = random_density(3, rng)
    assert oracles.trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)
    zero = np.diag([1.0, 0.0]).astype(complex)
    one = np.diag([0.0, 1.0]).astype(complex)
    assert oracles.trace_distance(zero, one) == pytest.approx(2.0)


def test_trace_distance_pure_formula(rng):
    u = rng.normal(size=4) + 1j * rng.normal(size=4)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    got = oracles.trace_distance(np.outer(u, u.conj()), np.outer(v, v.conj()))
    assert got == pytest.approx(2 * math.sqrt(1 - abs(np.vdot(u, v)) ** 2), abs=1e-9)


def test_trace_distance_triangle(rng):
    a, b, c = (random_density(4, rng) for _ in range(3))
    assert oracles.trace_distance(a, c) <= oracles.trace_distance(a, b) + oracles.trace_distance(b, c) + 1e-10


def test_fuchs_van_de_graaf(rng):
    for _ in range(10):
        a, b = random_density(3, rng), random_density(3, rng)
        assert 1 - math.sqrt(qmath.fidelity(a, b)) <= 0.5 * oracles.trace_distance(a, b) + 1e-9


# ---------------------------------------------------------------- correlations


def test_mutual_information_product(rng):
    lay = SystemLayout([("A", 2, ALICE), ("B", 2, BOB)])
    rho = np.kron(random_density(2, rng), random_density(2, rng))
    assert oracles.mutual_information(rho, lay, ["A"], ["B"]) == pytest.approx(0.0, abs=1e-8)


def test_mutual_information_bell_pair():
    st_ = bell_pair(2)
    assert oracles.mutual_information(st_.density(), st_.layout, ["a"], ["b"]) == pytest.approx(2.0)


def test_mutual_information_classical_correlation():
    lay = SystemLayout([("A", 2, ALICE), ("B", 2, BOB)])
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 0.5
    rho[3, 3] = 0.5
    assert oracles.mutual_information(rho, lay, ["A"], ["B"]) == pytest.approx(1.0)


def test_mutual_information_overlap_rejected():
    lay = SystemLayout([("A", 2, ALICE), ("B", 2, BOB)])
    with pytest.raises(ValueError):
        oracles.mutual_information(np.eye(4) / 4, lay, ["A"], ["A"])


def test_cqmi_product_case(rng):
    lay = SystemLayout([("P", 2, ALICE), ("R", 2, REFEREE), ("Q", 2, BOB)])
    rho = np.kron(random_density(4, rng), random_density(2, rng))
    assert qmath.cqmi(rho, lay, ["P"], ["Q"], ["R"]) == pytest.approx(0.0, abs=1e-8)


def test_cqmi_ghz_is_one():
    lay = SystemLayout([("P", 2, ALICE), ("Q", 2, BOB), ("R", 2, REFEREE)])
    vec = np.zeros(8, dtype=complex)
    vec[0] = vec[7] = 1 / math.sqrt(2)
    rho = np.outer(vec, vec.conj())
    assert qmath.cqmi(rho, lay, ["P"], ["Q"], ["R"]) == pytest.approx(1.0)


def test_cqmi_nonnegative_on_random_states(rng):
    lay = SystemLayout([("P", 2, ALICE), ("Q", 2, BOB), ("R", 2, REFEREE)])
    for _ in range(25):
        rho = random_density(8, rng)
        assert qmath.cqmi(rho, lay, ["P"], ["Q"], ["R"]) >= -1e-8


# ---------------------------------------------------------------- schmidt / majorization


def test_schmidt_bell_uniform():
    np.testing.assert_allclose(qmath.schmidt_coefficients(bell_pair(2), ["a"]), [0.5, 0.5], atol=1e-12)


def test_schmidt_product_is_point_mass(rng):
    lay = SystemLayout([("A", 2, ALICE), ("B", 2, BOB)])
    va = rng.normal(size=2) + 1j * rng.normal(size=2)
    vb = rng.normal(size=2) + 1j * rng.normal(size=2)
    va, vb = va / np.linalg.norm(va), vb / np.linalg.norm(vb)
    st_ = PureState(lay, np.kron(va, vb))
    coeffs = qmath.schmidt_coefficients(st_, ["A"])
    assert coeffs[0] == pytest.approx(1.0, abs=1e-12)


def test_schmidt_resource_pair():
    alpha = 0.9
    got = qmath.schmidt_coefficients(partial_bell_pair(alpha), ["a"])
    np.testing.assert_allclose(
        got, [math.cos(alpha / 2) ** 2, math.sin(alpha / 2) ** 2], atol=1e-12
    )


def test_schmidt_sum_is_one(rng):
    lay = SystemLayout([("A", 4, ALICE), ("B", 4, BOB)])
    st_ = random_pure_state(lay, rng)
    assert qmath.schmidt_coefficients(st_, ["A"]).sum() == pytest.approx(1.0, abs=1e-10)


def test_majorizes_spec_cases():
    assert qmath.majorizes([0.25] * 4, [0.5, 0.3, 0.2])
    assert qmath.majorizes([0.5, 0.3, 0.2], [0.5, 0.3, 0.2])
    assert not qmath.majorizes([1.0, 0.0], [0.5, 0.5])


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=30)
def test_majorizes_preorder(seed):
    rng = np.random.default_rng(seed)
    dists = [rng.dirichlet(np.ones(4)) for _ in range(3)]
    for d in dists:
        assert qmath.majorizes(d, d)
    a, b, c = dists
    if qmath.majorizes(a, b) and qmath.majorizes(b, c):
        assert qmath.majorizes(a, c)


def test_as_distribution_clamps_and_validates():
    out = qmath.as_distribution([0.5, 0.5, -1e-13])
    assert out[2] == 0.0
    with pytest.raises(ValueError):
        qmath.as_distribution([0.5, 0.4])
    with pytest.raises(ValueError):
        qmath.as_distribution([0.9, 0.2, -0.1])


def test_as_distribution_rejects_non_finite_weights():
    # nan - 1 compares False with the sum tolerance, so nan must be caught before it
    for weights, named in (([math.nan, 0.5], "[nan]"), ([0.5, math.inf, -math.inf], "[inf, -inf]")):
        with pytest.raises(ValueError, match=f"non-finite weights {re.escape(named)}"):
            qmath.as_distribution(weights)
    with pytest.raises(ValueError, match="non-finite weights"):
        analysis.typical_set(4, 0.1, [math.nan, math.nan])


# ---------------------------------------------------------------- factoring


def test_factor_pure_state_splits_products(rng):
    u = rng.normal(size=4) + 1j * rng.normal(size=4)
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    u, v = u / np.linalg.norm(u), v / np.linalg.norm(v)
    vec = np.kron(u, v)
    out = qmath.factor_pure_state(vec, (2, 2, 2), [0, 1])
    assert abs(abs(np.vdot(out, u)) - 1.0) < 1e-10


@pytest.mark.parametrize("keep", [[0], [0, 1]])  # rank-one (k <= rest) and SVD (k > rest) routes
def test_factor_pure_state_phase_pivot_ignores_near_ties(rng, keep):
    # |u_0| and |u_1| tie up to float noise; the pivot must stay on index 0
    k = 2 ** len(keep)
    rest = rng.normal(size=8 // k) + 1j * rng.normal(size=8 // k)
    rest /= np.linalg.norm(rest)
    outs = []
    for noise in (-1e-15, 0.0, 1e-15):
        u = np.full(k, 0.1 + 0j)
        u[:2] = [0.5, (0.5 + noise) * 1j]
        u /= np.linalg.norm(u)
        out = qmath.factor_pure_state(np.kron(u, rest), (2, 2, 2), keep)
        assert out[0].real > 0 and abs(out[0].imag) < 1e-15
        outs.append(out)
    for out in outs[1:]:
        np.testing.assert_allclose(out, outs[0], atol=1e-12)


def test_factor_pure_state_rejects_entangled():
    vec = bell_pair(2).vector
    with pytest.raises(ValueError, match="entangled"):
        qmath.factor_pure_state(vec, (2, 2), [0])


# Magnitudes for random amplitudes: exact zeros and exact ties among generic values.
_magnitudes = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.01, 1.0))


@st.composite
def _product_states(draw):
    """(vec, dims, keep): a product of a state on ``keep`` and one on the rest, k <= rest."""
    dims = tuple(draw(st.lists(st.sampled_from([2, 3]), min_size=2, max_size=5)))
    order = draw(st.permutations(range(len(dims))))
    keep = tuple(order[: draw(st.integers(1, len(dims) - 1))])
    k = math.prod(dims[p] for p in keep)
    rest = math.prod(dims) // k
    assume(k <= rest)
    parts = []
    for size in (k, rest):
        mags = np.array(draw(st.lists(_magnitudes, min_size=size, max_size=size)))
        assume(mags.max() > 0)
        phases = np.array(draw(st.lists(st.floats(0.0, 2 * math.pi), min_size=size, max_size=size)))
        part = mags * np.exp(1j * phases)
        parts.append(part / np.linalg.norm(part))
    moved = [dims[p] for p in keep] + [d for i, d in enumerate(dims) if i not in keep]
    fwd = list(keep) + [i for i in range(len(dims)) if i not in keep]
    psi = np.outer(*parts).reshape(moved).transpose(np.argsort(fwd))
    return psi.reshape(-1), dims, keep


@given(_product_states())
@settings(max_examples=100)
def test_factor_pure_state_matches_svd_route_on_products(case):
    vec, dims, keep = case
    np.testing.assert_allclose(
        qmath.factor_pure_state(vec, dims, keep), oracles._svd_factor(vec, dims, list(keep)), rtol=0, atol=1e-12
    )


@pytest.mark.parametrize("keep", [[0], [0, 1]])  # rank-one (k <= rest) and SVD (k > rest) routes
def test_factor_pure_state_purity_tolerance_edges(rng, keep):
    # sqrt(1 - eps) a (x) b + sqrt(eps) a' (x) b': leading Schmidt weight 1 - eps
    k = 2 ** len(keep)
    a = np.linalg.qr(rng.normal(size=(k, 2)) + 1j * rng.normal(size=(k, 2)))[0].T
    b = np.linalg.qr(rng.normal(size=(8 // k, 2)) + 1j * rng.normal(size=(8 // k, 2)))[0].T
    tol = qmath.LEAF_PURITY_TOL
    for eps, accepted in ((tol / 2, True), (2 * tol, False)):
        vec = math.sqrt(1 - eps) * np.kron(a[0], b[0]) + math.sqrt(eps) * np.kron(a[1], b[1])
        if accepted:
            out = qmath.factor_pure_state(vec, (2, 2, 2), keep)
            assert abs(abs(np.vdot(out, a[0])) - 1.0) < 1e-12
        else:
            with pytest.raises(ValueError, match="entangled"):
                qmath.factor_pure_state(vec, (2, 2, 2), keep)


def test_batch_leaves_factor_without_eigh(monkeypatch, rng):
    # diagnostics off, nothing in the walk or at its 100 leaves diagonalizes
    plan = protocols.build_batch(0.5, 2, 1.2)
    initial = random_pure_state(
        SystemLayout([(f"A{i}", 2, ALICE) for i in (1, 2)] + [(f"B{i}", 2, BOB) for i in (1, 2)]), rng
    )
    calls = []
    eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    tree = oracles.unmerged_mixture(plan.program, initial)
    assert len(tree.leaves) == 100
    assert calls == []


# ---------------------------------------------------------------- kernel


def _kernel_cases(n_factors, rng):
    """(dims, positions) with 1-3 positions: identity, adjacent and non-adjacent."""
    dims = tuple(int(d) for d in rng.choice([2, 3], size=n_factors))
    for m in range(1, min(3, n_factors) + 1):
        yield dims, tuple(range(m))  # the identity permutation
        start = int(rng.integers(0, n_factors - m + 1))
        yield dims, tuple(int(p) for p in rng.permutation(range(start, start + m)))
        yield dims, tuple(int(p) for p in rng.choice(n_factors, size=m, replace=False))


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


@pytest.mark.parametrize("n_factors", range(1, 10))
def test_apply_on_factors_bit_identical_to_moveaxis_kernel(n_factors):
    rng = np.random.default_rng(1000 + n_factors)
    for dims, positions in _kernel_cases(n_factors, rng):
        k = math.prod(dims[p] for p in positions)
        vec = rng.normal(size=math.prod(dims)) + 1j * rng.normal(size=math.prod(dims))
        u, v = (rng.normal(size=k) + 1j * rng.normal(size=k) for _ in range(2))
        for op in (_rand_mat(rng, k), np.outer(u, v.conj())):  # dense and rank one
            got = qmath.apply_on_factors(vec, dims, positions, op)
            want = oracles._moveaxis_kernel(vec, dims, positions, op)
            assert np.array_equal(_bits(got), _bits(want)), (dims, positions)
        got = qmath.reduced_density(vec, dims, positions)
        assert np.array_equal(_bits(got), _bits(oracles._moveaxis_reduced_density(vec, dims, positions)))


@pytest.mark.parametrize("positions", [(0,), (1, 0), (2,)])
def test_apply_on_factors_rejects_wrong_operator_shape(positions):
    vec = np.zeros(8, dtype=complex)
    with pytest.raises(ValueError, match="does not match factors"):
        qmath.apply_on_factors(vec, (2, 2, 2), positions, np.eye(3))


def test_divide_by_real_bit_identical_to_division():
    from loccgate.engine import PRUNE_PROB

    vals = [0.0, -0.0, 1.5, -1.5, 1e-300, -1e-300, 5e-324, -5e-324]
    signed = np.array([complex(a, b) for a in vals for b in vals])
    rng = np.random.default_rng(7)
    for p in (PRUNE_PROB * (1 + 1e-9), PRUNE_PROB * 3, 0.3, 1.0, 1.0 - 1e-12, 1.0 + 1e-13):
        s = math.sqrt(p)
        for n in (1, 3, 7, 64, 4099):
            vec = rng.normal(size=n) + 1j * rng.normal(size=n)
            vec.real[rng.random(n) < 0.3] = -0.0
            vec.imag[rng.random(n) < 0.3] = -0.0
            vec.real[rng.random(n) < 0.2] = 0.0
            for x in (vec, signed):
                want = x.copy()
                want /= s
                got = x.copy()
                qmath.divide_by_real(got, s)
                assert np.array_equal(_bits(got), _bits(want)), (p, n)
