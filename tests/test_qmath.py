import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loccgate import qmath
from loccgate.model import SZ, bell_pair, partial_bell_pair, random_density, random_pure_state
from loccgate.systems import ALICE, BOB, REFEREE, PureState, SystemLayout


def _rand_mat(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


# ---------------------------------------------------------------- tensor


def test_tensor_identity_case():
    np.testing.assert_array_equal(qmath.tensor_product(np.eye(2), np.eye(2)), np.eye(4))


def test_tensor_sz_sz_diagonal():
    np.testing.assert_allclose(qmath.tensor_product(SZ, SZ), np.diag([1, -1, -1, 1]))


def test_tensor_index_formula_oracle(rng):
    a, b = _rand_mat(rng, 2), _rand_mat(rng, 2)
    out = qmath.tensor_product(a, b)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    assert out[i * 2 + k, j * 2 + l] == pytest.approx(a[i, j] * b[k, l])


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_tensor_associative(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (_rand_mat(rng, 2) for _ in range(3))
    left = qmath.tensor_product(qmath.tensor_product(a, b), c)
    right = qmath.tensor_product(a, qmath.tensor_product(b, c))
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
    rho = st_.reduced(["a"])
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
@settings(max_examples=50, deadline=None)
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
    assert qmath.trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)
    zero = np.diag([1.0, 0.0]).astype(complex)
    one = np.diag([0.0, 1.0]).astype(complex)
    assert qmath.trace_distance(zero, one) == pytest.approx(2.0)


def test_trace_distance_pure_formula(rng):
    u = rng.normal(size=4) + 1j * rng.normal(size=4)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    got = qmath.trace_distance(np.outer(u, u.conj()), np.outer(v, v.conj()))
    assert got == pytest.approx(2 * math.sqrt(1 - abs(np.vdot(u, v)) ** 2), abs=1e-9)


def test_trace_distance_triangle(rng):
    a, b, c = (random_density(4, rng) for _ in range(3))
    assert qmath.trace_distance(a, c) <= qmath.trace_distance(a, b) + qmath.trace_distance(b, c) + 1e-10


def test_fuchs_van_de_graaf(rng):
    for _ in range(10):
        a, b = random_density(3, rng), random_density(3, rng)
        assert 1 - math.sqrt(qmath.fidelity(a, b)) <= 0.5 * qmath.trace_distance(a, b) + 1e-9


# ---------------------------------------------------------------- correlations


def test_mutual_information_product(rng):
    lay = SystemLayout([("A", 2, ALICE), ("B", 2, BOB)])
    rho = np.kron(random_density(2, rng), random_density(2, rng))
    assert qmath.mutual_information(rho, lay, ["A"], ["B"]) == pytest.approx(0.0, abs=1e-8)


def test_mutual_information_bell_pair():
    st_ = bell_pair(2)
    assert qmath.mutual_information(st_.density(), st_.layout, ["a"], ["b"]) == pytest.approx(2.0)


def test_mutual_information_classical_correlation():
    lay = SystemLayout([("A", 2, ALICE), ("B", 2, BOB)])
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 0.5
    rho[3, 3] = 0.5
    assert qmath.mutual_information(rho, lay, ["A"], ["B"]) == pytest.approx(1.0)


def test_mutual_information_overlap_rejected():
    lay = SystemLayout([("A", 2, ALICE), ("B", 2, BOB)])
    with pytest.raises(ValueError):
        qmath.mutual_information(np.eye(4) / 4, lay, ["A"], ["A"])


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
@settings(max_examples=30, deadline=None)
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


# ---------------------------------------------------------------- factoring


def test_factor_pure_state_splits_products(rng):
    u = rng.normal(size=4) + 1j * rng.normal(size=4)
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    u, v = u / np.linalg.norm(u), v / np.linalg.norm(v)
    vec = np.kron(u, v)
    out = qmath.factor_pure_state(vec, (2, 2, 2), [0, 1])
    assert abs(abs(np.vdot(out, u)) - 1.0) < 1e-10


@pytest.mark.parametrize("keep", [[0], [0, 1]])  # Gram (k <= rest) and SVD (k > rest) routes
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
