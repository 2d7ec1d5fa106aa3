"""Brackets and witnesses pinned bit for bit in tests/data/golden_brackets.json.

The file holds annulus brackets at R in {1.03, 1.5, 4, 10, 1e3} (random,
equal-modulus and next-to-a-circle pairs under three family settings) and
every glued-deep benchmark bracket at seeds 1, 3 and 7, each with its
inputs, so the test needs nothing but the file.  A change that claims to
keep every bound bit for bit must leave it passing untouched; only a change
meant to move a bound regenerates it:

    PYTHONPATH=src python tests/test_golden_brackets.py --write

which prints, before it overwrites the file, how many lower values, upper
values and witnesses moved, and the largest relative move.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from caralab import (
    AnnulusConfig,
    SpaceConfig,
    annulus_distance_bracket,
    format_point,
    glued_distance_bracket,
    parse_point,
)

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_brackets.json"

RADII = (1.03, 1.5, 4.0, 10.0, 1e3)
# (family_degree, grid_density): the default, the glued demo setting, and
# the radial quotients alone.
FAMILIES = ((2, 3), (2, 2), (1, 3))
GLUED_SEEDS = (1, 3, 7)
GLUED = dict(R=4.0, family_degree=2, grid_density=2, sheets=20)


def _record(br) -> dict:
    return {"lower": br.lower, "upper": br.upper,
            "lower_witness": br.lower_witness, "upper_witness": br.upper_witness}


def annulus_pairs(R: float, seed: int) -> list:
    """Random pairs, equal-modulus pairs, and pairs with an end 1e-6 or
    1e-12 of the width off the inner or the outer circle."""
    rng = np.random.default_rng([seed, int(R * 100)])
    log_R = math.log(R)

    def rect(r, t):
        return complex(r * math.cos(t), r * math.sin(t))

    pairs = []
    for i in range(12):
        r1, r2 = np.exp(log_R * rng.uniform(0.02, 0.98, 2))
        t1, t2 = rng.uniform(-math.pi, math.pi, 2)
        pairs.append((rect(r1, t1), rect(r1 if i % 3 == 0 else r2, t2)))
    for offset in (1e-6, 1e-12):
        for r in (1.0 + offset * (R - 1.0), R - offset * (R - 1.0)):
            t = rng.uniform(-math.pi, math.pi)
            mid = R ** rng.uniform(0.3, 0.7)
            pairs.append((rect(r, t), rect(mid, t + rng.uniform(-1.0, 1.0))))
    return pairs


def glued_pairs() -> list:
    """Every glued-deep benchmark pair at GLUED_SEEDS, as point texts."""
    from conftest import load_perfbench

    workloads = load_perfbench("workloads")
    seen, out = set(), []
    for seed in GLUED_SEEDS:
        work = workloads.GluedDeep(seed=seed, seconds=1.0)
        for p, q in work.pairs:
            key = (format_point(p), format_point(q))
            if key not in seen:
                seen.add(key)
                out.append(key)
    return out


def generate() -> dict:
    annulus = []
    for R in RADII:
        for degree, density in FAMILIES:
            cfg = AnnulusConfig(R=R, family_degree=degree, grid_density=density)
            for a, b in annulus_pairs(R, 0):
                annulus.append({"R": R, "family_degree": degree, "grid_density": density,
                                "a": [a.real, a.imag], "b": [b.real, b.imag],
                                **_record(annulus_distance_bracket(cfg, a, b))})
    cfg = glued_config()
    glued = []
    for ptext, qtext in glued_pairs():
        p, q = parse_point(cfg, ptext), parse_point(cfg, qtext)
        assert (format_point(p), format_point(q)) == (ptext, qtext)
        glued.append({"p": ptext, "q": qtext, **_record(glued_distance_bracket(cfg, p, q))})
    return {"glued_config": GLUED, "annulus": annulus, "glued": glued}


def dump(data: dict) -> str:
    """JSON text with one record per line; floats keep their repr."""
    parts = [f' "glued_config": {json.dumps(data["glued_config"])}']
    for key in ("annulus", "glued"):
        rows = ",\n  ".join(json.dumps(rec) for rec in data[key])
        parts.append(f' "{key}": [\n  {rows}\n ]')
    return "{\n" + ",\n".join(parts) + "\n}\n"


def glued_config() -> SpaceConfig:
    g = GLUED
    return SpaceConfig(AnnulusConfig(g["R"], g["family_degree"], g["grid_density"]), g["sheets"])


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_annulus_brackets_match_the_golden_file(golden):
    assert len(golden["annulus"]) == len(RADII) * len(FAMILIES) * 16
    for rec in golden["annulus"]:
        cfg = AnnulusConfig(rec["R"], rec["family_degree"], rec["grid_density"])
        a, b = complex(*rec["a"]), complex(*rec["b"])
        assert_matches(annulus_distance_bracket(cfg, a, b), rec)


def test_glued_deep_brackets_match_the_golden_file(golden):
    assert golden["glued_config"] == GLUED
    cfg = glued_config()
    assert len(golden["glued"]) >= 100
    for rec in golden["glued"]:
        p, q = parse_point(cfg, rec["p"]), parse_point(cfg, rec["q"])
        assert_matches(glued_distance_bracket(cfg, p, q), rec)


def assert_matches(br, rec: dict) -> None:
    got = _record(br)
    assert got == {k: rec[k] for k in got}, rec


def moves(old: dict, new: dict) -> list:
    """One line per section: how many records' lower values, upper values
    and witnesses differ between two golden documents, and the largest
    relative move of a bound.  Records pair up by position, so a section
    whose inputs changed is reported as such."""
    inputs = {"annulus": ("R", "family_degree", "grid_density", "a", "b"), "glued": ("p", "q")}
    lines = []
    for key, fields in inputs.items():
        before, after = old.get(key, []), new[key]
        if [[r[f] for f in fields] for r in before] != [[r[f] for f in fields] for r in after]:
            lines.append(f"{key}: inputs changed ({len(before)} -> {len(after)} records)")
            continue
        moved = {side: 0 for side in ("lower", "upper", "lower_witness", "upper_witness")}
        largest = 0.0
        for was, now in zip(before, after):
            for side in moved:
                moved[side] += was[side] != now[side]
            for side in ("lower", "upper"):
                if was[side] != now[side]:
                    largest = max(largest, abs(now[side] - was[side]) / max(abs(was[side]), 1e-300))
        counts = ", ".join(f"{side} {n}/{len(after)}" for side, n in moved.items())
        lines.append(f"{key}: moved {counts}; largest relative move {largest:.3g}")
    return lines


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: PYTHONPATH=src python {sys.argv[0]} --write")
    data = generate()
    if GOLDEN.exists():
        print("\n".join(moves(json.loads(GOLDEN.read_text()), data)))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(dump(data))
    print(f"wrote {GOLDEN}")
