import cmath
import functools
import math
import types
from pathlib import Path

import numpy as np
import pytest

from caralab import AnnulusConfig, SpaceConfig


@pytest.fixture
def acf():
    # The acceptance and demo setting: degree-2 proper maps (grid_density is
    # accepted and not read).  Every family member certifies.
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


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name: str) -> types.ModuleType:
    """perfbench/<name>.py as a module, compiled from source: the perfbench
    package is not imported and no bytecode is written next to it."""
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


@functools.lru_cache(maxsize=None)
def near_circle_points(R: float, n: int = 4000) -> tuple:
    """Annulus points within 2e-15 of a boundary circle whose radial
    quotient rounds onto the unit circle: (inner, outer), where 1/w has
    modulus 1.0 for the inner ones and w/R for the outer ones.  Searched
    over n angles, a few ulps in from each circle."""
    inner, outer = [], []
    for k in range(n):
        t = 2.0 * math.pi * k / n
        for start, toward, quotient, hits in ((1.0, R, lambda w: 1.0 / w, inner),
                                              (R, 1.0, lambda w: w / R, outer)):
            r = math.nextafter(start, toward)
            while abs(r - start) <= 2e-15:
                w = cmath.rect(r, t)
                if 1.0 < abs(w) < R and abs(quotient(w)) >= 1.0:
                    hits.append(w)
                r = math.nextafter(r, toward)
    return inner, outer
