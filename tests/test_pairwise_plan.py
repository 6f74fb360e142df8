"""The pairwise-tree plan that picks which binomial terms to evaluate.

``_pairwise_plan`` drops a node of numpy's pairwise tree only where its sum
cannot change the float of its parent's.  Here it runs on log-concave term
arrays given in full, with exact estimates (eta = 0); the sum over the kept
counts is compared by ``.hex()`` with ``np.add.reduce`` of the whole array
and with ``oracles.oracle_logsumexp``.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from loccgate import analysis


def node_boundaries(size, path):
    """Split positions of numpy's pairwise tree along one root-to-leaf path (True: go right)."""
    marks, lo, hi = [], 0, size
    for right in path:
        if hi - lo <= analysis.PAIRWISE_BLOCK:
            break
        h = (hi - lo) // 2
        h -= h % analysis.PAIRWISE_LANES
        marks.append(lo + h)
        lo, hi = (lo + h, hi) if right else (lo, lo + h)
    return marks


def planned_sums(terms, pieces, mode, var):
    """(kept sum, full sum, kept logsumexp, full logsumexp, kept position ranges) of the
    subset the pieces cut from ``terms``.

    ``terms[k]`` is the term at count k; the subset is the pieces' counts in
    order.  Each kept range is filled from the full array, so only the choice
    of counts is under test."""
    a = np.concatenate([terms[start:stop] for start, stop, _ in pieces])
    size = a.size
    rows = analysis._pairwise_plan(pieces, mode, var, lambda k: float(terms[k]), 0.0)
    kept = [(pos, pos + stop - start) for start, stop, pos in rows]
    e = np.exp(a - a.max())
    e[a == a.max()] = 0.0  # ties of the maximum are summed apart, as _logsumexp_at does

    def fill(out, lo):
        for s0, s1 in kept:
            s0, s1 = max(s0, lo), min(s1, lo + out.size)
            if s0 < s1:
                out[s0 - lo : s1 - lo] = e[s0:s1]

    chunks = [(s0, a[s0:s1]) for s0, s1 in kept]
    return (
        float(analysis._sparse_pairwise_sum(size, kept, fill)),
        float(np.add.reduce(e)),
        analysis._logsumexp_at(size, chunks),
        oracles.oracle_logsumexp(a),
        kept,
    )


SIZES = st.one_of(
    st.integers(analysis.PAIRWISE_BLOCK + 1, 5000),
    st.sampled_from([2**k + d for k in range(8, 18) for d in (-1, 0, 1)]),
)


@st.composite
def gaussian_layouts(draw):
    """(counts, mu, sigma, gap): terms -(k - mu)^2 / 2 sigma^2 at counts 0..counts-1, the peak
    anywhere, at or next to a node boundary, or halfway between two counts (a tie
    at the maximum); gap, when not None, is a [g0, g1) range of counts left out,
    so the subset is two segments as a typical set's complement is."""
    counts = draw(SIZES)
    sigma = 10.0 ** draw(st.floats(0.0, 4.0))
    marks = node_boundaries(counts, draw(st.lists(st.booleans(), min_size=20, max_size=20)))
    mu = draw(
        st.one_of(
            st.floats(-0.5 * counts, 1.5 * counts),
            st.sampled_from(marks).flatmap(lambda m: st.sampled_from([m - 1, m - 0.5, m, m + 0.5, m + 1])),
        )
    )
    gap = None
    if draw(st.booleans()):
        g0 = draw(st.integers(1, counts - 2))
        gap = (g0, draw(st.integers(g0 + 1, counts - 1)))
    return counts, mu, sigma, gap


@settings(max_examples=150)
@given(layout=gaussian_layouts(), node=st.sampled_from([0, 512, analysis.PLAN_NODE]))
@example(layout=(2**16, 2**15 - 0.5, 1e4, None), node=0)  # a tie across the root split
@example(layout=(2**16 + 1, 2**15, 1.0, None), node=0)  # a one-count peak at the root split
@example(layout=(2**17 - 1, 65000.0, 300.0, (64000, 66000)), node=0)  # peaks at both ends of the gap
@example(layout=(2**17, 1e5, 1e4, (3, 2**17 - 3)), node=0)  # two short segments far apart
def test_plan_keeps_the_bits_of_the_full_array(layout, node):
    counts, mu, sigma, gap = layout
    terms = -0.5 * ((np.arange(counts) - mu) / sigma) ** 2
    if gap is None:
        pieces = [(0, counts, 0)]
    else:
        pieces = [(0, gap[0], 0), (gap[1], counts, gap[0])]
    mode = int(np.argmax(terms))
    with mock.patch.object(analysis, "PLAN_NODE", node):
        kept_sum, full_sum, kept_lse, full_lse, _ = planned_sums(terms, pieces, mode, sigma**2)
    assert kept_sum.hex() == full_sum.hex()
    assert kept_lse.hex() == full_lse.hex()


@pytest.mark.parametrize("side", [-5.0, -1e-9, 1e-9])
@pytest.mark.parametrize("u", [1.0, 20.0])
@pytest.mark.parametrize("node", [0, 512])
def test_drop_rule_at_its_threshold(side, u, node):
    """The root's left child sums to one term, e^-u: its peak, at its last
    count, is the maximum (summed apart as a tie), the count before it is -u
    and the rest fall steeply.  The right child's w terms are all -d, so it
    sums to its bound w e^-d.  It is dropped exactly when log(w) - d + u +
    55 log 2 < 0; d a hair past that puts its sum at 2^-55 e^-u, half an ulp
    of the left child's sum to within a factor of 2, and 5 nats short keeps a
    sum that would change the float.  Every side keeps the bits."""
    counts = 4096
    h = node_boundaries(counts, [False])[0]
    w = counts - h
    d = math.log(w) + u + 55 * math.log(2.0) + side
    k = np.arange(counts, dtype=float)
    terms = np.where(k < h - 1, -u - 1000.0 * (h - 2 - k), np.where(k < h, 0.0, -d))
    with mock.patch.object(analysis, "PLAN_NODE", node):
        kept_sum, full_sum, kept_lse, full_lse, kept = planned_sums(terms, [(0, counts, 0)], h - 1, 1.0)
    assert kept_sum.hex() == full_sum.hex()
    assert kept_lse.hex() == full_lse.hex()
    assert (max(s1 for _, s1 in kept) == h) == (side > 0)  # the right child goes exactly past the bound


# counts of log-pmf terms error_budget(2^20, delta, theta) evaluated before the
# pairwise plan, by the outward window walk
WALK_TERMS = {(0.05, 0.3): 39375, (0.2, 0.9): 46096, (0.35, 1.4): 55166}


@pytest.mark.parametrize("delta, theta", WALK_TERMS)
def test_error_budget_at_large_n_evaluates_at_most_half_the_walks_terms(delta, theta):
    """The window walk evaluated 39375, 46096 and 55166 log-pmf terms on these
    (delta, theta) at n = 2^20; the plan must need at most half of each."""
    terms = 0
    depth = 0
    pmf = analysis._log_binom_pmf

    def counting(n, p1, k0, k1):
        nonlocal terms, depth
        terms += (k1 - k0) * (depth == 0)  # a long range evaluates itself block by block
        depth += 1
        try:
            return pmf(n, p1, k0, k1)
        finally:
            depth -= 1

    with mock.patch.object(analysis, "_log_binom_pmf", counting):
        analysis.error_budget(2**20, delta, theta)
    assert 0 < terms <= WALK_TERMS[delta, theta] / 2
