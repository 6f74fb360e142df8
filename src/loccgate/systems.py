"""Parties, tensor-factor layouts, and pure states.

Every simulated object lives on a :class:`SystemLayout`: an ordered list of
named factors, each owned by Alice, Bob, or an inaccessible referee.  The
list order fixes the Kronecker order of all vectors and matrices.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

NORM_TOL = 1e-10

# Dense simulation guard; callers that genuinely need more (batched runs)
# pass dim_cap=None explicitly.
DEFAULT_DIM_CAP = 2**12


class Owner(enum.Enum):
    ALICE = "alice"
    BOB = "bob"
    REFEREE = "referee"

    @property
    def other(self) -> "Owner":
        if self is Owner.ALICE:
            return Owner.BOB
        if self is Owner.BOB:
            return Owner.ALICE
        raise ValueError("referee systems have no counterpart")


ALICE = Owner.ALICE
BOB = Owner.BOB
REFEREE = Owner.REFEREE


@dataclass(frozen=True)
class Factor:
    """One named tensor factor."""

    label: str
    dim: int
    owner: Owner


def _as_factor(spec) -> Factor:
    if isinstance(spec, Factor):
        return spec
    label, dim, owner = spec
    if not isinstance(owner, Owner):
        owner = Owner(owner)
    return Factor(str(label), int(dim), owner)


@dataclass(frozen=True, init=False)
class SystemLayout:
    """Ordered tensor factors; order fixes the flattening convention.

    ``labels`` and ``dims`` are tuples built once, with a label-to-position
    map that ``index``, ``positions`` and ``in`` read.
    """

    factors: tuple[Factor, ...]

    def __init__(self, factors: Iterable, *, dim_cap: int | None = DEFAULT_DIM_CAP):
        factors = tuple(_as_factor(f) for f in factors)
        labels = tuple(f.label for f in factors)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "dims", tuple(f.dim for f in factors))
        object.__setattr__(self, "_index", {lb: i for i, lb in enumerate(labels)})
        if len(self._index) != len(labels):
            raise ValueError(f"duplicate labels in layout: {labels}")
        for f in factors:
            if f.dim < 2:
                raise ValueError(f"factor {f.label!r} has dimension {f.dim} < 2")
        if dim_cap is not None and self.dim > dim_cap:
            raise ValueError(
                f"total dimension {self.dim} exceeds cap {dim_cap}; "
                "pass dim_cap=None to override"
            )

    @property
    def dim(self) -> int:
        return int(math.prod(self.dims))

    def __len__(self) -> int:
        return len(self.factors)

    def __contains__(self, label: str) -> bool:
        try:
            return label in self._index
        except TypeError:  # an unhashable label names no factor
            return False

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except (KeyError, TypeError):
            raise KeyError(f"unknown label {label!r}; layout has {self.labels}") from None

    def factor(self, label: str) -> Factor:
        return self.factors[self.index(label)]

    def positions(self, labels: Iterable[str]) -> list[int]:
        """Positions of the given labels, in the order they are given."""
        return [self.index(lb) for lb in labels]

    def owned(self, owner: Owner) -> tuple[str, ...]:
        return tuple(f.label for f in self.factors if f.owner is owner)

    def concat(self, other: "SystemLayout", *, dim_cap: int | None = DEFAULT_DIM_CAP) -> "SystemLayout":
        return SystemLayout(self.factors + other.factors, dim_cap=dim_cap)

    def renamed(self, mapping: Mapping[str, str]) -> "SystemLayout":
        return SystemLayout(
            [Factor(mapping.get(f.label, f.label), f.dim, f.owner) for f in self.factors],
            dim_cap=None,
        )


@dataclass(frozen=True, init=False)
class PureState:
    """Normalized complex amplitude vector over a layout."""

    layout: SystemLayout
    vector: np.ndarray

    def __init__(self, layout: SystemLayout, vector, *, normalize: bool = False):
        vec = np.asarray(vector, dtype=complex).reshape(-1).copy()
        if vec.size != layout.dim:
            raise ValueError(f"vector length {vec.size} != layout dimension {layout.dim}")
        nrm = float(np.linalg.norm(vec))
        if normalize:
            if nrm == 0.0:
                raise ValueError("cannot normalize the zero vector")
            vec /= nrm
        elif abs(nrm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {nrm} deviates from 1 beyond {NORM_TOL}")
        vec.setflags(write=False)
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "vector", vec)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.layout.dims

    def density(self) -> np.ndarray:
        return np.outer(self.vector, self.vector.conj())

    def apply_unitary(self, matrix: np.ndarray, labels: Sequence[str]) -> "PureState":
        from .qmath import apply_on_factors

        pos = self.layout.positions(labels)
        out = apply_on_factors(self.vector, self.dims, pos, matrix)
        return PureState(self.layout, out)

    def tensor(self, other: "PureState") -> "PureState":
        layout = self.layout.concat(other.layout, dim_cap=None)
        return PureState(layout, np.kron(self.vector, other.vector))

    def permuted(self, new_label_order: Sequence[str]) -> "PureState":
        """Reorder factors; the label set must be unchanged."""
        if set(new_label_order) != set(self.layout.labels) or len(new_label_order) != len(self.layout):
            raise ValueError("permutation must use exactly the current labels")
        perm = self.layout.positions(new_label_order)
        psi = self.vector.reshape(self.dims).transpose(perm).reshape(-1)
        layout = SystemLayout([self.layout.factors[i] for i in perm], dim_cap=None)
        return PureState(layout, psi)

    def renamed(self, mapping: Mapping[str, str]) -> "PureState":
        return PureState(self.layout.renamed(mapping), self.vector)

    def overlap(self, other: "PureState") -> complex:
        """<self|other>, aligning the other state's factor order to ours."""
        if set(other.layout.labels) != set(self.layout.labels):
            raise ValueError("states live on different label sets")
        if other.layout.labels != self.layout.labels:
            other = other.permuted(self.layout.labels)
        return complex(np.vdot(self.vector, other.vector))
