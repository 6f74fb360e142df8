"""Windowed binomial kernels against a full-array oracle, bit for bit.

``typical_set``, ``_log_excess_failure`` and ``logsumexp`` evaluate log-pmf
terms only where exp(a - a_max) can be nonzero.  The ``oracle_*`` kernels in
``oracles`` are the full-array form they replace: every log-factorial, every
log-pmf term and exp over every term.  Each float is compared by ``.hex()``.
"""

import dataclasses
import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from loccgate import analysis
from loccgate.analysis import resource_spectrum, success_probability


def bits(x):
    return x.hex() if isinstance(x, float) else x


def typical_set_bits(tset):
    fields = ("entropy", "weight", "complement", "log_weight", "log_complement", "typical_counts")
    if isinstance(tset, dict):
        return {k: bits(tset[k]) for k in fields}
    return {k: bits(getattr(tset, k)) for k in fields}


def budget_grid():
    rng = random.Random(20261018)
    ns = [1, 2, 3, 5, 64, 100, 999, 1000, 4096, 8191, 8192, 8193, 10**4, 65537, 2**20]
    cases = []
    for i in range(110):
        n = ns[i] if i < len(ns) else rng.choice(ns + [rng.randint(1, 5000), rng.randint(5000, 300000)])
        delta = rng.choice([rng.uniform(0.005, 0.45), rng.uniform(0.45, 3.0), 1e-9])
        theta = rng.choice([rng.uniform(1e-3, math.pi / 2), rng.uniform(1e-3, 0.05), math.pi / 2])
        cases.append((n, delta, theta))
    # 2^20 appears a few times more, with the workload's delta range
    cases += [(2**20, rng.uniform(0.02, 0.4), rng.uniform(0.01, math.pi / 2)) for _ in range(3)]
    return cases


@pytest.mark.parametrize("n, delta, theta", budget_grid())
def test_error_budget_matches_full_array_oracle(n, delta, theta):
    got = dataclasses.asdict(analysis.error_budget(n, delta, theta))
    assert {k: bits(v) for k, v in got.items()} == {k: bits(v) for k, v in oracles.oracle_error_budget(n, delta, theta).items()}
    probs = resource_spectrum(theta)
    assert typical_set_bits(analysis.typical_set(n, delta, probs)) == typical_set_bits(oracles.oracle_typical_set(n, delta, probs))


WALK_CASES = [
    (4096, 0.1, 0.5),
    (10000, 0.02, 0.01),
    (65537, 0.3, math.pi / 2),
    (2**20, 0.05, 0.5),
    (2**20, 0.4, 0.02),
]


@pytest.mark.parametrize("n, delta, theta", WALK_CASES)
def test_walk_alone_finds_every_window(monkeypatch, n, delta, theta):
    # the plan walks the pairwise tree down to one-pass blocks, so its drops alone decide each window
    monkeypatch.setattr(analysis, "PLAN_NODE", 0)
    got = dataclasses.asdict(analysis.error_budget(n, delta, theta))
    assert {k: bits(v) for k, v in got.items()} == {k: bits(v) for k, v in oracles.oracle_error_budget(n, delta, theta).items()}


EDGE_TYPICAL = {
    # no count is typical: the window falls between two counts
    "empty typical set": (4, 0.01, resource_spectrum(0.5)),
    # every count is typical
    "empty complement": (64, 5.0, resource_spectrum(0.5)),
    "theta = pi/2": (4096, 0.1, resource_spectrum(math.pi / 2)),
    "degenerate (1, 0)": (8, 0.5, (1.0, 0.0)),
    "degenerate (0, 1)": (4096, 0.5, (0.0, 1.0)),
    "degenerate, infinite delta": (5, math.inf, (1.0, 0.0)),
    "uniform spectrum": (65536, 0.1, (0.5, 0.5)),
    "near-uniform spectrum, tiny delta": (100000, 1e-14, (0.5 + 1e-13, 0.5 - 1e-13)),
    "near-uniform spectrum, delta at the rounding": (4096, 1e-9, (0.5 + 2**-40, 0.5 - 2**-40)),
    "heavy ones": (2**20, 0.05, (0.3, 0.7)),
    "rare ones": (2**20, 0.2, (0.999, 0.001)),
    "nan delta": (64, math.nan, resource_spectrum(0.5)),
}


@pytest.mark.parametrize("n, delta, probs", EDGE_TYPICAL.values(), ids=EDGE_TYPICAL.keys())
def test_typical_set_edge_cases_match_oracle(n, delta, probs):
    assert typical_set_bits(analysis.typical_set(n, delta, probs)) == typical_set_bits(oracles.oracle_typical_set(n, delta, probs))


def test_edge_cases_cover_what_they_name():
    assert analysis.typical_set(*EDGE_TYPICAL["empty typical set"]).runs == ()
    assert analysis.typical_set(*EDGE_TYPICAL["empty complement"]).runs == ((0, 65),)
    assert analysis.typical_set(*EDGE_TYPICAL["nan delta"]).runs == ()


P_HALF = success_probability(0.5)
EDGE_TAIL = {
    "k_max < 0": (64, P_HALF + 0.1, 0.5),
    "k_max = 0": (1, P_HALF / 2, 0.5),
    # delta < 0 pushes the cutoff past n, so k_max is clamped to n and the tail is everything
    "k_max = n": (64, -0.5, 0.5),
    "integer cutoff": (100, P_HALF - 37 / 100, 0.5),
    "theta = pi/2": (4096, 0.1, math.pi / 2),
    "2^20 far tail": (2**20, 0.3, 1.0),
}


@pytest.mark.parametrize("n, delta, theta", EDGE_TAIL.values(), ids=EDGE_TAIL.keys())
def test_excess_failure_edge_cases_match_oracle(n, delta, theta):
    want = oracles.oracle_log_excess_failure(n, delta, theta, oracles.oracle_log_factorials(n))
    assert analysis._log_excess_failure(n, delta, theta).hex() == want.hex()


def test_excess_failure_edge_cases_cover_what_they_name():
    assert analysis._log_excess_failure(*EDGE_TAIL["k_max < 0"]) == -math.inf
    assert analysis._log_excess_failure(*EDGE_TAIL["k_max = n"]) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("size", [1, 2, 7, 8, 9, 127, 128, 129, 8192, 100003])
@pytest.mark.parametrize("kind", ["spread", "ties", "inf", "nan", "all -inf"])
def test_logsumexp_matches_oracle(size, kind):
    a = np.random.default_rng(size).normal(size=size) * 300
    if kind == "ties":
        a[[0, size // 2, size - 1]] = a.max() + 1.0
    elif kind == "inf":
        a[0] = np.inf
    elif kind == "nan":
        a[-1] = np.nan
    elif kind == "all -inf":
        a[:] = -np.inf
    with np.errstate(invalid="ignore"):
        assert analysis.logsumexp(a).hex() == oracles.oracle_logsumexp(a).hex()


# sizes whose pairwise tree splits, and splits off a multiple of 8, in every way
SPARSE_SIZES = st.one_of(
    st.integers(0, 7),
    st.integers(8, analysis.PAIRWISE_BLOCK),
    st.just(analysis.PAIRWISE_BLOCK + 1),
    st.sampled_from([2**k + d for k in range(8, 21) for d in (-1, 0, 1)]),
    st.just(2**20 + 1),
)


@st.composite
def sparse_layouts(draw):
    """(size, spans, seed): 1-3 disjoint spans, their ends at 0, at size, or at and
    next to the node boundaries of numpy's pairwise tree along one root-to-leaf path."""
    size = draw(SPARSE_SIZES)
    marks, lo, hi = {0, size}, 0, size
    while hi - lo > analysis.PAIRWISE_BLOCK:
        h = (hi - lo) // 2
        h -= h % analysis.PAIRWISE_LANES
        marks.add(lo + h)
        lo, hi = (lo + h, hi) if draw(st.booleans()) else (lo, lo + h)
    near = sorted({min(max(x + d, 0), size) for x in marks for d in (-1, 0, 1)})
    k = draw(st.integers(1, 3))
    ends = draw(st.lists(st.sampled_from(near) | st.integers(0, size), min_size=2 * k, max_size=2 * k))
    ends.sort()
    spans = [(a, b) for a, b in zip(ends[::2], ends[1::2]) if a < b]
    return size, spans, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150)
@given(layout=sparse_layouts(), dense=st.sampled_from([8, analysis.PAIRWISE_BLOCK, analysis.DENSE_NODE]))
@example(layout=(2**20 - 1, [(524200, 524360)], 1), dense=analysis.PAIRWISE_BLOCK)  # spans the root split
@example(layout=(2**20 + 1, [(0, 3), (2**20 - 2, 2**20 + 1)], 1), dense=analysis.DENSE_NODE)
@example(layout=(2**10 + 1, [(3, 4), (1020, 1022)], 1), dense=8)  # never splits a one-pass node
def test_sparse_pairwise_sum_has_the_bits_of_add_reduce(layout, dense):
    """The walk sums exactly as np.add.reduce does over the whole array, and
    builds no node longer than DENSE_NODE (PAIRWISE_BLOCK if that is longer)
    or twice the span entries it holds.
    A change in numpy's summation order fails here instead of drifting the
    binomial kernels' bits."""
    size, spans, seed = layout
    rng = np.random.default_rng(seed)
    full = np.zeros(size)
    for a, b in spans:  # from 1e-300 to 1, most spread over a few decades
        full[a:b] = 10.0 ** -np.minimum(rng.exponential(rng.choice([0.1, 1.0, 30.0]), b - a), 300.0)
    built = []

    def fill(out, lo):
        held = 0
        for a, b in spans:
            a, b = max(a, lo), min(b, lo + out.size)
            if a < b:
                out[a - lo : b - lo] = full[a:b]
                held += b - a
        built.append((out.size, held))

    with mock.patch.object(analysis, "DENSE_NODE", dense):
        got = analysis._sparse_pairwise_sum(size, spans, fill)
    assert float(got).hex() == float(np.add.reduce(full)).hex()
    whole = max(dense, analysis.PAIRWISE_BLOCK)
    assert all(n <= whole or n <= 2 * held for n, held in built), built


def test_error_budget_memory_does_not_grow_with_n():
    # the binomial windows hold O(sqrt(n)) terms; no n-length array is built
    tracemalloc.start()
    try:
        analysis.error_budget(2**24, 0.2, 0.7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20, f"{peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("n, p1", [(30000, 0.3), (2**20, 0.7), (40000, 0.0), (40000, 1.0)])
def test_log_binom_pmf_blocks_match_the_full_array(n, p1):
    # a range of several PMF_BLOCK blocks with a ragged end, starting off a block boundary
    k0, k1 = 5, 5 + 3 * analysis.PMF_BLOCK + 7
    want = oracles.oracle_log_binom_pmf(oracles.oracle_log_factorials(n), n, p1)[k0:k1]
    assert analysis._log_binom_pmf(n, p1, k0, k1).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [0, 11, 12, 998, 999, 8191, 8192, 8193, 30000])
def test_log_factorials_match_full_table(n):
    assert np.array_equal(analysis.log_factorials(n), oracles.oracle_log_factorials(n))


@pytest.mark.parametrize("n", [10, 64, 1000])
def test_count_recurrence_equals_binomial_sum(n):
    for delta in (0.05, 0.3, 2.0):
        tset = analysis.typical_set(n, delta, resource_spectrum(0.7))
        assert tset.count == sum(math.comb(n, k) for k in tset.typical_counts)


def test_membership_reads_the_runs_not_the_counts():
    n = 2**16
    tset = analysis.typical_set(n, 0.05, resource_spectrum(0.5))
    (start, stop), = tset.runs
    for k in (0, start - 1, start, (start + stop) // 2, stop - 1, stop, n):
        assert tset.is_typical([1] * k + [0] * (n - k)) == (start <= k < stop)
    assert "typical_counts" not in vars(tset)  # built only on demand
