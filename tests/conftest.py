import numpy as np
import pytest
from hypothesis import settings

from anosovkit import spectra

# Deterministic, bounded property tests: the same examples on every run.
settings.register_profile("anosovkit", derandomize=True, deadline=None,
                          max_examples=60, database=None)
settings.load_profile("anosovkit")


@pytest.fixture(scope="session")
def cat_action():
    return spectra.validate_action([[[2, 1], [1, 1]]])


@pytest.fixture(scope="session")
def t3_action():
    m = [[0, 0, -1], [1, 0, 2], [0, 1, 1]]
    n = (np.array(m) @ np.array(m) - 2 * np.eye(3, dtype=int)).astype(int)
    return spectra.validate_action([m, n.tolist()], labels=["M", "N"])


@pytest.fixture(scope="session")
def phi3_action():
    return spectra.validate_action([[[0, -1], [1, -1]]])


@pytest.fixture(scope="session")
def identity_action():
    return spectra.validate_action([[[1, 0], [0, 1]]])


class Func:
    """Minimal functional record for chamber-level tests."""

    def __init__(self, coeffs, multiplicity=1):
        self.coeffs = tuple(coeffs)
        self.multiplicity = multiplicity
