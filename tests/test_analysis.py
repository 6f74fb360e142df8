import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loccgate import analysis, qmath
from loccgate.analysis import (
    AnalysisError,
    ChannelMatrix,
    CostCurvePoint,
    break_even_theta,
    cesaro_fixed_state,
    enumerate_typical_weight,
    error_budget,
    excess_failure_prob,
    expected_ebits,
    log_linear_fit,
    markovianizing_cost,
    projection_error,
    resource_spectrum,
    round_trip_channel,
    success_probability,
    superoperator_from_map,
    typical_set,
)
from loccgate.model import GateSpec, SZ, haar_unitary, random_density, zz_phase_gate


# ---------------------------------------------------------------- channel


def test_identity_gate_gives_identity_channel(rng):
    ch = round_trip_channel(GateSpec(np.eye(4)))
    for _ in range(5):
        tau = random_density(2, rng)
        np.testing.assert_allclose(ch.apply(tau), tau, atol=1e-10)


def test_zz_gate_channel_closed_form(rng):
    theta = 0.8
    ch = round_trip_channel(zz_phase_gate(theta))
    for _ in range(10):
        tau = random_density(2, rng)
        expect = 0.5 * (
            (1 + math.cos(theta) ** 2) * tau + math.sin(theta) ** 2 * (SZ @ tau @ SZ)
        )
        np.testing.assert_allclose(ch.apply(tau), expect, atol=1e-10)


def test_channel_trace_preserving_for_random_gates(rng):
    for _ in range(5):
        ch = round_trip_channel(GateSpec(haar_unitary(4, rng)))
        for _ in range(4):
            tau = random_density(2, rng)
            assert np.trace(ch.apply(tau)).real == pytest.approx(1.0, abs=1e-9)


def test_channel_validation_rejects_non_tp():
    bad = 0.5 * np.eye(4)
    with pytest.raises(AnalysisError, match="trace"):
        ChannelMatrix(bad, 2)


def test_superoperator_builder_consistency(rng):
    # conjugation by a unitary, built from its action, applied via the matrix
    u = haar_unitary(2, rng)
    mat = superoperator_from_map(lambda t: u @ t @ u.conj().T, 2)
    ch = ChannelMatrix(mat, 2)
    tau = random_density(2, rng)
    np.testing.assert_allclose(ch.apply(tau), u @ tau @ u.conj().T, atol=1e-12)


# ---------------------------------------------------------------- fixed state


def test_identity_channel_fixes_the_pair():
    ch = round_trip_channel(GateSpec(np.eye(4)))
    fixed = cesaro_fixed_state(ch)
    bell = np.array([1, 0, 0, 1]) / math.sqrt(2)
    np.testing.assert_allclose(fixed, np.outer(bell, bell.conj()), atol=1e-8)
    assert qmath.von_neumann_entropy(fixed) == pytest.approx(0.0, abs=1e-8)


@pytest.mark.parametrize("theta", [0.1, 0.5, 1.0, math.pi / 2])
def test_zz_gate_fixed_state_is_dephased_pair(theta):
    fixed = cesaro_fixed_state(round_trip_channel(zz_phase_gate(theta)))
    expect = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    np.testing.assert_allclose(fixed, expect, atol=1e-8)


def test_spectral_and_iterative_cesaro_agree(rng):
    def iterate_mean(ch, terms=4000):
        bell = np.array([1, 0, 0, 1]) / math.sqrt(2)
        current = np.outer(bell, bell.conj())
        mean = np.zeros_like(current)
        for k in range(1, terms + 1):
            current = analysis.apply_channel_to_factor(ch, current, (2, 2), 0)
            mean = mean + (current - mean) / k
        return mean

    for _ in range(3):
        ch = round_trip_channel(GateSpec(haar_unitary(4, rng)))
        spectral = cesaro_fixed_state(ch)
        iterative = iterate_mean(ch)
        assert np.max(np.abs(spectral - iterative)) < 1e-3


@pytest.mark.parametrize("theta", [0.1, 0.5, 1.0, math.pi / 2])
def test_markovianizing_cost_is_one_for_zz_family(theta):
    assert markovianizing_cost(zz_phase_gate(theta)) == pytest.approx(1.0, abs=1e-6)


def test_markovianizing_cost_identity_is_zero():
    assert markovianizing_cost(GateSpec(np.eye(4))) == pytest.approx(0.0, abs=1e-8)


# ---------------------------------------------------------------- cost curve


def test_success_probability_alpha_equals_theta():
    assert success_probability(0.9, 0.9) == pytest.approx(0.5, abs=1e-12)


def test_success_probability_tends_to_one():
    values = [success_probability(t) for t in (1e-2, 1e-4, 1e-6)]
    assert values[0] < values[1] < values[2] < 1.0


def test_success_probability_rejects_degenerate_point():
    with pytest.raises(ValueError):
        success_probability(0.0, 0.0)


def test_cost_curve_point_identity():
    point = CostCurvePoint.at(0.7)
    assert point.e_bar == pytest.approx(1 - point.p_theta + point.h_theta, abs=1e-15)


def test_average_cost_vanishes_toward_zero_angle():
    values = [expected_ebits(t).e_bar for t in (1e-2, 1e-3, 1e-4)]
    assert values[0] > values[1] > values[2] > 0.0


def test_expected_ebits_domain():
    with pytest.raises(ValueError):
        expected_ebits(2.0)


def test_break_even_theta_separates_regimes():
    thr = break_even_theta()
    assert thr is not None and 0.0 < thr < math.pi / 2
    assert CostCurvePoint.at(thr).e_bar == pytest.approx(1.0, abs=1e-8)
    for t in np.linspace(1e-3, thr * 0.999, 50):
        assert CostCurvePoint.at(float(t)).e_bar < 1.0
    for t in np.linspace(thr * 1.001, math.pi / 2, 50):
        assert CostCurvePoint.at(float(t)).e_bar > 1.0


# ---------------------------------------------------------------- typicality


def test_uniform_spectrum_everything_typical():
    tset = typical_set(10, 0.05, (0.5, 0.5))
    assert tset.weight == pytest.approx(1.0, abs=1e-12)
    assert tset.count == 2**10
    assert tset.typical_counts == tuple(range(11))


@pytest.mark.parametrize("probs,count", [((1.0, 0.0), 0), ((0.0, 1.0), 8)])
def test_degenerate_spectrum_single_sequence_has_all_weight(probs, count):
    tset = typical_set(8, 0.5, probs)
    assert tset.typical_counts == (count,)
    assert (tset.weight, tset.log_weight, tset.complement) == (1.0, 0.0, 0.0)


def test_typical_weight_matches_enumeration():
    lam = resource_spectrum(0.5)
    for n in (4, 8, 12):
        for delta in (0.2, 0.5, 1.0):
            combinatorial = typical_set(n, delta, lam).weight
            enumerated = enumerate_typical_weight(n, delta, lam)
            assert combinatorial == pytest.approx(enumerated, abs=1e-12)


def test_typical_membership_is_count_based():
    tset = typical_set(6, 0.5, resource_spectrum(0.8))
    for k in range(7):
        seq = [1] * k + [0] * (6 - k)
        assert tset.is_typical(seq) == (k in tset.typical_counts)


def test_typical_weight_grows_with_n():
    lam = resource_spectrum(0.5)
    weights = [typical_set(n, 0.3, lam).weight for n in (10, 100, 1000, 10000)]
    assert all(b > a for a, b in zip(weights, weights[1:]))
    assert weights[-1] > 1 - 1e-10


def test_enumeration_guard():
    with pytest.raises(ValueError):
        enumerate_typical_weight(25, 0.1, (0.5, 0.5))


@given(st.integers(1, 12), st.floats(0.05, 1.5))
@settings(max_examples=20, deadline=None)
def test_typical_weight_combinatorial_equals_enumeration_property(n, delta):
    lam = resource_spectrum(0.73)
    assert typical_set(n, delta, lam).weight == pytest.approx(
        enumerate_typical_weight(n, delta, lam), abs=1e-12
    )


# ---------------------------------------------------------------- error budget


def test_projection_error_vanishes_with_wide_window():
    # delta wide enough that every sequence is typical
    assert projection_error(4, 5.0, 0.5) == pytest.approx(0.0, abs=1e-12)


def test_excess_failure_single_copy():
    theta = 0.5
    p = success_probability(theta)
    assert excess_failure_prob(1, p + 0.1, theta) == pytest.approx(0.0)
    assert excess_failure_prob(1, p / 2, theta) == pytest.approx(1 - p, abs=1e-12)


def test_error_budget_invariants():
    rep = error_budget(64, 0.4, 0.5)
    assert rep.epsilon_n == pytest.approx(2 * math.sqrt(1 - rep.typical_weight), abs=1e-12)
    assert rep.total_error == pytest.approx(rep.epsilon_n + 2 * rep.epsilon_prime, abs=1e-15)
    assert rep.dilution_ebits == pytest.approx(64 * (rep.entropy + 0.4), abs=1e-12)
    assert rep.epsilon_prime <= rep.hoeffding_epsilon_prime + 1e-12


def test_error_decay_is_exponential():
    ns = [2**k for k in range(6, 15)]
    reports = [error_budget(n, 0.4, 0.5) for n in ns]
    slope_n, _, r2_n = log_linear_fit(ns, [r.log_epsilon_n for r in reports])
    slope_p, _, r2_p = log_linear_fit(ns, [r.log_epsilon_prime for r in reports])
    assert slope_n < 0 and r2_n > 0.99
    assert slope_p < 0 and r2_p > 0.99


def test_fourth_power_weighted_error_decreases():
    ns = [64, 256, 1024, 4096]
    weighted = [n**4 * error_budget(n, 0.4, 0.5).total_error for n in ns]
    assert all(b < a for a, b in zip(weighted, weighted[1:]))


def test_log_epsilon_finite_when_float_underflows():
    rep = error_budget(2**14, 0.4, 0.5)
    assert rep.epsilon_prime == 0.0  # underflowed
    assert math.isfinite(rep.log_epsilon_prime)
    assert rep.log_epsilon_prime < -1000
