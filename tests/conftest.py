import numpy as np
import pytest
from hypothesis import Phase, settings

# tests/fault_catalogue.py runs each fault's tests under this profile: whether a
# fault is caught does not depend on shrinking the failing example
settings.register_profile("catalogue", phases=[p for p in Phase if p != Phase.shrink])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_hermitian(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (m + m.conj().T) / 2
