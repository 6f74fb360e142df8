import numpy as np
import pytest

import oracles
from loccgate.systems import ALICE, BOB, REFEREE, PureState, SystemLayout


def test_layout_rejects_duplicate_labels():
    with pytest.raises(ValueError, match="duplicate"):
        SystemLayout([("A", 2, ALICE), ("A", 2, BOB)])


def test_layout_rejects_trivial_dimension():
    with pytest.raises(ValueError, match="dimension"):
        SystemLayout([("A", 1, ALICE)])


def test_layout_dim_cap_and_override():
    big = [(f"q{i}", 2, ALICE) for i in range(13)]
    with pytest.raises(ValueError, match="cap"):
        SystemLayout(big)
    assert SystemLayout(big, dim_cap=None).dim == 2**13


def test_layout_lookups():
    lay = SystemLayout([("A", 2, ALICE), ("B", 3, BOB), ("R", 4, REFEREE)])
    assert lay.dims == (2, 3, 4)
    assert lay.dim == 24
    assert lay.index("B") == 1
    assert lay.positions(["R", "A"]) == [2, 0]
    assert lay.owned(ALICE) == ("A",)
    assert oracles.restrict(lay, ["R", "A"]).labels == ("A", "R")
    with pytest.raises(KeyError):
        lay.index("nope")


def test_layout_label_map_keeps_lookup_values_and_messages():
    lay = SystemLayout([("A", 2, ALICE), ("B", 3, BOB)])
    assert lay.labels == ("A", "B") and lay.labels is lay.labels
    assert "B" in lay and "C" not in lay and ["A"] not in lay
    assert [lay.index(lb) for lb in lay.labels] == [0, 1]
    for bad in ("C", ["A"]):
        with pytest.raises(KeyError) as info:
            lay.positions(["A", bad])
        assert info.value.args[0] == f"unknown label {bad!r}; layout has ('A', 'B')"
    assert lay == SystemLayout([("A", 2, ALICE), ("B", 3, BOB)])
    assert hash(lay) == hash(SystemLayout([("A", 2, ALICE), ("B", 3, BOB)]))


def test_state_norm_enforced():
    lay = SystemLayout([("A", 2, ALICE)])
    with pytest.raises(ValueError, match="norm"):
        PureState(lay, [1.0, 1.0])
    st = PureState(lay, [1.0, 1.0], normalize=True)
    assert np.isclose(np.linalg.norm(st.vector), 1.0)


def test_state_vector_is_frozen():
    lay = SystemLayout([("A", 2, ALICE)])
    st = PureState(lay, [1.0, 0.0])
    with pytest.raises(ValueError):
        st.vector[0] = 0.0


def test_tensor_permute_rename_roundtrip(rng):
    lay_a = SystemLayout([("A", 2, ALICE)])
    lay_b = SystemLayout([("B", 3, BOB)])
    va = rng.normal(size=2) + 1j * rng.normal(size=2)
    vb = rng.normal(size=3) + 1j * rng.normal(size=3)
    st = PureState(lay_a, va, normalize=True).tensor(PureState(lay_b, vb, normalize=True))
    flipped = st.permuted(("B", "A"))
    assert flipped.layout.labels == ("B", "A")
    assert abs(abs(st.overlap(flipped)) - 1.0) < 1e-12
    renamed = st.renamed({"A": "X"})
    assert renamed.layout.labels == ("X", "B")
    np.testing.assert_allclose(renamed.vector, st.vector)


def test_reduced_of_product_state(rng):
    lay = SystemLayout([("A", 2, ALICE), ("B", 2, BOB)])
    va = rng.normal(size=2) + 1j * rng.normal(size=2)
    va /= np.linalg.norm(va)
    vec = np.kron(va, np.array([1.0, 0.0]))
    st = PureState(lay, vec)
    rho = oracles._moveaxis_reduced_density(st.vector, st.dims, st.layout.positions(["A"]))
    np.testing.assert_allclose(rho, np.outer(va, va.conj()), atol=1e-12)
