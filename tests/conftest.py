import numpy as np
import pytest
from hypothesis import settings

# Tier-1 is deterministic: the same Hypothesis examples on every run, and no
# example database carried between runs
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(12345))


def make_rng(seed):
    return np.random.Generator(np.random.Philox(seed))
