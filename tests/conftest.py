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


def space_json(space):
    """The dataset JSON descriptor {"kind", "dim", "kappa"} of a space."""
    return {"kind": space.kind, "dim": space.dim, "kappa": space.kappa}


def dataset_json(ds):
    """The dataset JSON value of a WeightedDataset, ball included."""
    return {"space": space_json(ds.space), "points": ds.points.tolist(),
            "weights": ds.weights.tolist(),
            "ball": {"center": ds.ball_center.tolist(),
                     "radius": ds.ball_radius}}
