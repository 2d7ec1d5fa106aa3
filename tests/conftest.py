import math

import numpy as np
import pytest

from caralab import AnnulusConfig, SpaceConfig


@pytest.fixture
def acf():
    # The acceptance and demo setting: degree-2 proper maps on a 16-angle
    # grid.  Every family member certifies regardless of family size.
    return AnnulusConfig(R=4.0, family_degree=2, grid_density=2)


@pytest.fixture
def cfg(acf):
    return SpaceConfig(annulus=acf, sheets=12)


def random_disk_points(rng: np.random.Generator, n: int, max_radius: float = 0.95):
    r = max_radius * np.sqrt(rng.uniform(0.0, 1.0, n))
    th = rng.uniform(0.0, 2.0 * math.pi, n)
    return r * np.exp(1j * th)


def random_annulus_points(rng: np.random.Generator, R: float, n: int):
    # Keep a small safety margin off both boundary circles.
    r = rng.uniform(1.0 + 0.02 * (R - 1.0), R - 0.02 * (R - 1.0), n)
    th = rng.uniform(0.0, 2.0 * math.pi, n)
    return r * np.exp(1j * th)
