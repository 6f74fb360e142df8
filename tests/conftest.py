import numpy as np
import pytest
from hypothesis import settings

from loccgate.systems import ALICE, BOB, REFEREE, SystemLayout

# One fixed example sequence per test, so a property failure reproduces on rerun;
# no per-example deadline, since simulation times vary with the machine.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def two_qubit_referee_layout():
    return SystemLayout([("A", 2, ALICE), ("B", 2, BOB), ("R", 4, REFEREE)])
