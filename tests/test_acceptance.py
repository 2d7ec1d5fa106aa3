"""Acceptance gate: each test certifies one headline guarantee, prints a
single PASS/FAIL line, and enforces its runtime budget."""

import math
import time

import numpy as np
import pytest

from caralab import (
    AdmissibleFunction,
    AnnulusConfig,
    BoundConstants,
    SpaceConfig,
    annulus_distance_bracket,
    canonicalize,
    covering_map,
    disk_automorphism,
    glued_distance_bracket,
    mobius_distance,
    noncompactness_probe,
    preimage_moduli,
    preimage_point,
    verify_final_chain,
    verify_lower_bound_sweep,
    verify_one_over_e_products,
    verify_upper_bound_sweep,
)
from caralab.annulus import preimage_modulus_sq_formula
from caralab.cli import main
from caralab.sweeps import TWO_OVER_E, TWO_PI
from conftest import random_annulus_points, random_disk_points


def _gate(name: str, ok: bool, elapsed: float, limit: float):
    within = elapsed < limit
    verdict = "PASS" if (ok and within) else "FAIL"
    print(f"[{verdict}] {name} ({elapsed:.2f}s, budget {limit:g}s)")
    assert ok, name
    assert within, f"{name} exceeded {limit:g}s budget ({elapsed:.2f}s)"


def test_acceptance_01_covering_map_identity():
    t0 = time.perf_counter()
    ok = True
    for R in (1.5, 2.0, math.e, 4.0, 10.0):
        acf = AnnulusConfig(R=R)
        for m in (2, 3, 4, 10, 100, 10_000):
            w = covering_map(acf, preimage_point(m))
            target = R ** (1.0 - 1.0 / m)
            ok = ok and abs(abs(w) - target) <= 1e-9 * target
    _gate("covering-map identity |p(x(m))| = R^(1-1/m)", ok, time.perf_counter() - t0, 1.0)


def test_acceptance_02_modulus_formula():
    t0 = time.perf_counter()
    ms = np.arange(2, 100_001)
    err = np.max(np.abs(preimage_moduli(ms) ** 2 - preimage_modulus_sq_formula(ms)))
    ok = err <= 1e-12 and abs(preimage_point(2)) <= 1e-15
    _gate("modulus formula |x(m)|^2 = (1-sin(pi/m))/(1+sin(pi/m))", bool(ok),
          time.perf_counter() - t0, 5.0)


def test_acceptance_03_two_pi_limit():
    t0 = time.perf_counter()

    def value(m):
        s = math.sin(math.pi / m)
        return (m + 1.0) * 2.0 * s / (1.0 + s)

    ok = (
        abs(value(10_000) - TWO_PI) / TWO_PI < 1e-2
        and abs(value(1_000_000) - TWO_PI) / TWO_PI < 1e-4
    )
    _gate("limit (m+1)(1-|x(m)|^2) -> 2*pi", ok, time.perf_counter() - t0, 1.0)


def test_acceptance_04_upper_bound_sweep():
    t0 = time.perf_counter()
    res = verify_upper_bound_sweep(10 ** 6)
    ok = (
        res.passed
        and res.threshold_found is not None
        and res.worst_margin >= -1e-12
        and (res.threshold_found == 2 or "threshold minimal" in res.notes)
    )
    _gate(f"upper-bound sweep to 1e6 (m1={res.threshold_found})", ok,
          time.perf_counter() - t0, 10.0)


def test_acceptance_05_lower_bound_sweep():
    t0 = time.perf_counter()
    ok = True
    found = []
    for R in (1.5, 2.0, math.e, 10.0):
        res = verify_lower_bound_sweep(R, 10 ** 6)
        found.append(res.threshold_found)
        ok = ok and res.passed and res.threshold_found is not None and res.threshold_found >= 3
    _gate(f"lower-bound sweep to 1e6 over four radii (m2={found})", ok,
          time.perf_counter() - t0, 30.0)


def test_acceptance_06_final_chain():
    t0 = time.perf_counter()
    res = verify_final_chain(4.0, 20)
    K = BoundConstants.for_radius(4.0).K_of_R
    left = (1.0 - K / 2 ** 20) ** (2 ** 20)
    target = math.exp(-K)
    ok = (
        res.passed
        and res.threshold_found is not None
        and res.worst_margin >= -1e-12
        and abs(left - target) / target < 1e-2
    )
    _gate(f"final chain for R=4 up to n=20 (threshold n={res.threshold_found})", ok,
          time.perf_counter() - t0, 120.0)


def test_acceptance_07_noncompactness():
    t0 = time.perf_counter()
    blocks = verify_one_over_e_products(4.0, 20)
    acf = AnnulusConfig(R=4.0, family_degree=2, grid_density=2)
    rep = noncompactness_probe(SpaceConfig(annulus=acf, sheets=12), 12)
    ok = (
        blocks.passed
        and blocks.threshold_found is not None
        and rep.passed
        and rep.distinct_sheets >= 10
        and all(u <= TWO_OVER_E + 1e-12 for u in rep.upper_bounds)
        and rep.pairwise_lower_floor > 0.0
    )
    _gate(
        f"non-compactness: n0={blocks.threshold_found}, "
        f"{rep.distinct_sheets} sheets inside the 2/e ball",
        ok, time.perf_counter() - t0, 60.0,
    )


def test_acceptance_08_quotient_soundness():
    t0 = time.perf_counter()
    acf = AnnulusConfig(R=4.0, family_degree=2, grid_density=2)
    cfg = SpaceConfig(annulus=acf, sheets=12)
    rng = np.random.default_rng(2024)
    families = [
        AdmissibleFunction.pullback(lambda w: w / acf.R, "w/R"),
        AdmissibleFunction.pullback(lambda w: 1.0 / w, "1/w"),
    ] + [AdmissibleFunction.sheet_supported(t) for t in (1, 3, 7, 12)]
    worst = 0.0
    for _ in range(1000):
        F = families[int(rng.integers(0, len(families)))]
        n = int(rng.integers(1, cfg.sheets + 1))
        slot = int(rng.integers(1, 2 ** n + 1))
        c = acf.R ** (1.0 - 1.0 / (2 ** n + slot - 1))
        v_sheet = F.evaluate_on_representative(cfg, n, c)
        v_base = F.evaluate_on_representative(cfg, 0, c)
        worst = max(worst, abs(v_sheet - v_base))
    _gate(f"quotient soundness over 1000 identified evaluations (worst {worst:.2e})",
          worst <= 1e-12, time.perf_counter() - t0, 10.0)


def test_acceptance_09_bracket_consistency():
    t0 = time.perf_counter()
    acf = AnnulusConfig(R=4.0, family_degree=2, grid_density=2)
    cfg = SpaceConfig(annulus=acf, sheets=12)
    rng = np.random.default_rng(99)

    ok = True
    pts = random_annulus_points(rng, acf.R, 2000)
    for a, b in zip(pts[:1000], pts[1000:]):
        br = annulus_distance_bracket(acf, a, b)
        ok = ok and br.lower <= br.upper

    pts = random_annulus_points(rng, acf.R, 200)
    sheets = rng.integers(0, cfg.sheets + 1, 200)
    nest_ok = True
    for i in range(100):
        p = canonicalize(cfg, int(sheets[i]), pts[i])
        q = canonicalize(cfg, int(sheets[100 + i]), pts[100 + i])
        gb = glued_distance_bracket(cfg, p, q)
        ok = ok and gb.lower <= gb.upper
        if p.sheet == q.sheet:
            ab = annulus_distance_bracket(acf, p.coord, q.coord)
            nest_ok = nest_ok and gb.lower >= ab.lower - 1e-6 and gb.upper <= ab.upper + 1e-6
    _gate("bracket consistency on 1000 annulus + 100 glued pairs",
          ok and nest_ok, time.perf_counter() - t0, 120.0)


def test_acceptance_10_metric_axioms():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    pts = random_disk_points(rng, 3000, max_radius=0.9)
    phi = disk_automorphism(complex(0.2, -0.3), 1.0)
    ok = True
    for a, b, c in zip(pts[::3], pts[1::3], pts[2::3]):
        dab = mobius_distance(a, b)
        ok = ok and dab == mobius_distance(b, a)
        ok = ok and mobius_distance(a, a) == 0.0
        ok = ok and dab <= mobius_distance(a, c) + mobius_distance(c, b) + 1e-12
        ok = ok and abs(dab - mobius_distance(phi(a), phi(b))) <= 1e-12
    _gate("metric axioms on 1000 random triples", ok, time.perf_counter() - t0, 1.0)


def test_acceptance_11_determinism(tmp_path):
    t0 = time.perf_counter()
    f1, f2 = tmp_path / "run1.json", tmp_path / "run2.json"
    c1 = main(["verify-lemmas", "--out", str(f1)])
    c2 = main(["verify-lemmas", "--out", str(f2)])
    ok = c1 == 0 and c2 == 0 and f1.read_bytes() == f2.read_bytes()
    _gate("byte-identical verify-lemmas reports at default config", ok,
          time.perf_counter() - t0, 600.0)
