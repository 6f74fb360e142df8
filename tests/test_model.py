import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from loccgate import qmath
from loccgate.model import (
    CliffordTable,
    GateSpec,
    NotClifford,
    SZ,
    bell_pair,
    choi_resource_state,
    clifford_conjugation_table,
    cnot_gate,
    gate_entanglement,
    haar_unitary,
    partial_bell_pair,
    qudit_cz_gate,
    swap_gate,
    weyl_operator,
    zz_phase_gate,
)


# ---------------------------------------------------------------- gates


def test_gate_spec_rejects_non_unitary():
    with pytest.raises(ValueError, match="unitary"):
        GateSpec(np.ones((2, 2)))


def test_zz_gate_zero_angle_is_identity():
    np.testing.assert_allclose(zz_phase_gate(0.0).matrix, np.eye(4), atol=1e-12)


def test_zz_gate_boundary_angle():
    got = zz_phase_gate(math.pi / 2).matrix
    expect = (np.eye(4) + 1j * np.kron(SZ, SZ)) / math.sqrt(2)
    np.testing.assert_allclose(got, expect, atol=1e-12)


def test_zz_gate_rejects_non_finite():
    with pytest.raises(ValueError):
        zz_phase_gate(float("nan"))


@given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
@settings(max_examples=40)
def test_zz_gate_additive(a, b):
    prod = zz_phase_gate(a).matrix @ zz_phase_gate(b).matrix
    assert np.max(np.abs(prod - zz_phase_gate(a + b).matrix)) < 1e-12


def test_zz_gate_adjoint_is_negative_angle():
    g = zz_phase_gate(0.7)
    np.testing.assert_allclose(oracles.adjoint(g).matrix, zz_phase_gate(-0.7).matrix, atol=1e-12)


def test_zz_gate_commutes_with_zz():
    g = zz_phase_gate(0.9).matrix
    zz = np.kron(SZ, SZ)
    np.testing.assert_array_equal(g @ zz, zz @ g)


# ---------------------------------------------------------------- states


def test_bell_pair_vector():
    np.testing.assert_allclose(
        bell_pair(2).vector, np.array([1, 0, 0, 1]) / math.sqrt(2), atol=1e-12
    )


def test_bell_pair_schmidt_uniform():
    for d in (2, 3, 4):
        np.testing.assert_allclose(
            qmath.schmidt_coefficients(bell_pair(d), ["a"]), np.full(d, 1 / d), atol=1e-12
        )


def test_bell_pair_rejects_small_rank():
    with pytest.raises(ValueError):
        bell_pair(1)


def test_partial_bell_pair_values():
    st_ = partial_bell_pair(math.pi / 2)
    np.testing.assert_allclose(
        st_.vector, np.array([1, 0, 0, 1j]) / math.sqrt(2), atol=1e-12
    )
    assert qmath.entanglement_entropy(st_, ["a"]) == pytest.approx(1.0)


def test_partial_bell_pair_entropy_matches_binary():
    alpha = 0.8
    st_ = partial_bell_pair(alpha)
    assert qmath.entanglement_entropy(st_, ["a"]) == pytest.approx(
        qmath.binary_entropy(math.cos(alpha / 2) ** 2)
    )


def test_partial_bell_pair_sqrt_theta_choice():
    theta = 0.25
    st_ = partial_bell_pair(math.sqrt(theta))
    assert st_.vector[0] == pytest.approx(math.cos(0.25))
    assert st_.vector[3] == pytest.approx(1j * math.sin(0.25))


def test_partial_bell_pair_rejects_degenerate():
    for bad in (0.0, math.pi):
        with pytest.raises(ValueError):
            partial_bell_pair(bad)


def test_inverse_choi_identity_is_double_bell():
    st_ = oracles.inverse_choi_state(GateSpec(np.eye(4)))
    expect = (
        bell_pair(2, ("A", "RA"), ("alice", "referee"))
        .tensor(bell_pair(2, ("B", "RB"), ("bob", "referee")))
        .permuted(("A", "B", "RA", "RB"))
    )
    assert abs(abs(st_.overlap(expect)) - 1.0) < 1e-12


def test_inverse_choi_cancellation():
    g = zz_phase_gate(0.6)
    st_ = oracles.inverse_choi_state(g).apply_unitary(g.matrix, ("A", "B"))
    expect = oracles.inverse_choi_state(GateSpec(np.eye(4)))
    assert abs(abs(st_.overlap(expect)) - 1.0) < 1e-12


def test_inverse_choi_entanglement_across_lab_cut():
    theta = 0.9
    st_ = oracles.inverse_choi_state(zz_phase_gate(theta))
    got = qmath.entanglement_entropy(st_, ("A", "RA"))
    assert got == pytest.approx(qmath.binary_entropy(math.cos(theta / 2) ** 2), abs=1e-10)
    coeffs = qmath.schmidt_coefficients(st_, ("A", "RA"))
    assert qmath.shannon_entropy(coeffs) == pytest.approx(got, abs=1e-10)


def test_resource_state_identity_has_no_cross_entanglement():
    assert gate_entanglement(GateSpec(np.eye(4))) == pytest.approx(0.0, abs=1e-10)


def test_resource_state_cnot_and_swap():
    assert gate_entanglement(cnot_gate()) == pytest.approx(1.0, abs=1e-10)
    assert gate_entanglement(swap_gate()) == pytest.approx(2.0, abs=1e-10)


# ---------------------------------------------------------------- weyl operators


def test_weyl_zero_index_is_identity():
    for d in (2, 3, 5):
        np.testing.assert_allclose(weyl_operator(d, 0, 0), np.eye(d), atol=1e-12)


def test_weyl_phase_operator_is_sigma_z():
    np.testing.assert_allclose(weyl_operator(2, 0, 1), SZ, atol=1e-12)


def test_weyl_direct_summation_oracle():
    d = 3
    for p in range(d):
        for q in range(d):
            got = weyl_operator(d, p, q)
            expect = np.zeros((d, d), dtype=complex)
            for t in range(d):
                expect[(t - p) % d, t] = np.exp(2j * np.pi * q * t / d)
            np.testing.assert_allclose(got, expect, atol=1e-12)


def test_weyl_out_of_range():
    with pytest.raises(ValueError):
        weyl_operator(2, 2, 0)


def test_weyl_unitary_and_traceless():
    d = 4
    for p in range(d):
        for q in range(d):
            w = weyl_operator(d, p, q)
            np.testing.assert_allclose(w.conj().T @ w, np.eye(d), atol=1e-12)
            if (p, q) != (0, 0):
                assert abs(np.trace(w)) < 1e-12


def test_weyl_group_law_up_to_phase(rng):
    d = 3
    for _ in range(10):
        p, q, pp, qp = rng.integers(0, d, size=4)
        prod = weyl_operator(d, p, q) @ weyl_operator(d, pp, qp)
        expect = weyl_operator(d, (p + pp) % d, (q + qp) % d)
        phase = np.exp(-2j * np.pi * q * pp / d)
        np.testing.assert_allclose(prod, phase * expect, atol=1e-12)


def test_weyl_hilbert_schmidt_orthogonal():
    d = 3
    ws = [weyl_operator(d, p, q) for p in range(d) for q in range(d)]
    gram = np.array([[np.trace(a.conj().T @ b) for b in ws] for a in ws])
    np.testing.assert_allclose(gram, d * np.eye(d * d), atol=1e-10)


# ---------------------------------------------------------------- clifford recognizer


def test_cnot_is_clifford_with_full_table():
    table = clifford_conjugation_table(cnot_gate())
    assert isinstance(table, CliffordTable)
    assert len(table.entries) == 16


def test_zz_gate_generic_angle_is_not_clifford():
    out = clifford_conjugation_table(zz_phase_gate(math.pi / 4))
    assert isinstance(out, NotClifford)


def test_zz_gate_boundary_is_clifford():
    # at the boundary angle the gate is a phased CZ
    out = clifford_conjugation_table(zz_phase_gate(math.pi / 2))
    assert isinstance(out, CliffordTable)


def test_identity_table_is_trivial():
    table = clifford_conjugation_table(GateSpec(np.eye(4)))
    assert isinstance(table, CliffordTable)
    for key, (pp, qp, rp, sp, phase) in table.entries.items():
        assert key == (pp, qp, rp, sp)
        assert abs(phase) < 1e-9


def test_table_entries_reproduce_conjugation():
    gate = cnot_gate()
    table = clifford_conjugation_table(gate)
    d = 2
    for (p, q, r, s), (pp, qp, rp, sp, phase) in table.entries.items():
        w = np.kron(weyl_operator(d, p, q), weyl_operator(d, r, s))
        img = np.kron(weyl_operator(d, pp, qp), weyl_operator(d, rp, sp))
        got = gate.matrix @ w @ gate.matrix.conj().T
        np.testing.assert_allclose(got, np.exp(1j * phase) * img, atol=1e-8)


def test_table_composes_like_squared_gate(rng):
    gate = qudit_cz_gate(3)
    table = clifford_conjugation_table(gate)
    d = 3
    u2 = gate.matrix @ gate.matrix
    for _ in range(8):
        p, q, r, s = (int(x) for x in rng.integers(0, d, size=4))
        p1, q1, r1, s1, ph1 = table.lookup(p, q, r, s)
        p2, q2, r2, s2, ph2 = table.lookup(p1, q1, r1, s1)
        w = np.kron(weyl_operator(d, p, q), weyl_operator(d, r, s))
        img = np.kron(weyl_operator(d, p2, q2), weyl_operator(d, r2, s2))
        got = u2 @ w @ u2.conj().T
        np.testing.assert_allclose(got, np.exp(1j * (ph1 + ph2)) * img, atol=1e-8)


def test_random_unitary_unitarity(rng):
    u = haar_unitary(4, rng)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-10)
