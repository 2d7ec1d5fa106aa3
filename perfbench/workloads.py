"""Inputs, operations and output checks of the three benchmark workloads.

Every input comes from a numpy generator seeded by the benchmark's --seed,
except a fixed set of pairs (drawn from WIDTH_SEED, indices width_idx) on
which bracket width is measured, so that width compares across runs and
commits.
"""

from __future__ import annotations

import math

import numpy as np

from caralab import (
    AdmissibleFunction,
    AnnulusConfig,
    GluePointIndex,
    SpaceConfig,
    annulus_distance_bracket,
    canonicalize,
    evaluate_admissible,
    glued_distance_bracket,
    mobius_distance,
    noncompactness_probe,
)

WIDTH_SEED = 0
DEEP_SHEET = 16
# Cross-sheet point pairs stay on sheets <= 12, the truncation the test suite
# exercises.  Deeper cross-sheet pairs can have a glue-path length above 19,
# whose tanh rounds to exactly 1.0, and glued_distance_bracket then raises;
# SATURATING below keeps that defect measured.  Sheets >= 16 enter through
# same-sheet pairs and through glue points against a deep sheet.
# One cycle of glued-deep sheet pairs (kind, p sheet, q sheet), a quarter
# each: same-sheet; cross-sheet with a sheet in 10..12; cross-sheet off
# sheet 0; and sheet 0 or a glue point on sheet n against another sheet.  Op
# cost depends mostly on the sheets, so the cycle is fixed and every run
# repeats one cost mix.  Its median falls inside a cluster of seven kinds
# that cost alike (a sheet-3 end, glue on sheet 19, same-sheet 19), where
# p50 does not jump between two cost levels from seed to seed.
CYCLE = [
    ("point", 3, 3), ("point", 1, 1), ("point", 16, 16), ("point", 7, 7), ("point", 19, 19),
    ("point", 4, 4), ("point", 17, 17), ("point", 18, 18), ("point", 20, 20), ("point", 10, 10),
    ("point", 12, 7), ("point", 10, 3), ("point", 11, 10), ("point", 12, 2), ("point", 11, 4),
    ("point", 12, 6), ("point", 10, 9), ("point", 11, 12), ("point", 10, 5), ("point", 9, 12),
    ("point", 8, 12), ("point", 12, 3), ("point", 11, 3), ("point", 6, 11), ("point", 9, 3),
    ("point", 3, 7), ("point", 10, 12), ("point", 5, 6), ("point", 11, 7), ("point", 8, 10),
    ("point", 0, 11), ("point", 0, 8), ("point", 0, 6), ("point", 0, 3), ("point", 0, 12),
    ("glue", 17, 16), ("glue", 18, 20), ("glue", 15, 19), ("glue", 8, 17), ("glue", 20, 18),
]
# Cross-sheet pairs on deep sheets whose glue-path upper bound rounds to 1.0,
# so that glued_distance_bracket raises ValueError on each at the commit that
# added the benchmark.  They are not timed; the traced run reports how many
# still raise.
SATURATING = [
    ((20, complex(-1.5400849955409701, -0.77434501702860459)),
     (16, complex(-3.0536061855001404, -1.4298323405652535))),
    ((19, complex(-1.06, 0.0)), (4, complex(-3.94, 0.0))),
    ((0, complex(-1.06, 0.0)), (16, complex(-3.94, 0.0))),
]
RADII = (1.5, 4.0, 10.0)
# The test-suite configuration (family_degree=2, grid_density=2) is the
# acceptance/demo setting for glued queries.
FAST = dict(family_degree=2, grid_density=2)
NONCOMPACT_SHEETS = 12


def annulus_point(rng, R: float, r: float = None) -> complex:
    # 2 % off both boundary circles, as in the test suite.
    if r is None:
        r = rng.uniform(1.0 + 0.02 * (R - 1.0), R - 0.02 * (R - 1.0))
    th = rng.uniform(0.0, 2.0 * math.pi)
    return complex(r * math.cos(th), r * math.sin(th))


def radial_value(R: float, a: complex, b: complex) -> float:
    """The radial-quotient lower bound max(d(a/R, b/R), d(1/a, 1/b))."""
    return max(mobius_distance(a / R, b / R), mobius_distance(1.0 / a, 1.0 / b))


def bracket_errors(lower, upper, witnesses, R: float, a: complex, b: complex) -> list:
    """0 <= lower <= upper < 1, non-empty witnesses, and lower at least the
    radial-quotient value recomputed with the public mobius_distance."""
    errs = []
    if not 0.0 <= lower <= upper < 1.0:
        errs.append(f"bracket out of order: [{lower!r}, {upper!r}]")
    if not all(witnesses):
        errs.append("empty witness")
    radial = radial_value(R, a, b)
    if lower < radial:
        errs.append(f"lower bound {lower!r} below radial quotient {radial!r}")
    return errs


def _errors(br, R: float, a: complex, b: complex) -> list:
    return bracket_errors(br.lower, br.upper, (br.lower_witness, br.upper_witness), R, a, b)


def noncompact_floor() -> tuple:
    """Pairwise lower floor of the 2/e-ball probe, as `glued noncompact --N 12`
    with --family-degree 2 --grid-density 2 reports it."""
    cfg = SpaceConfig(annulus=AnnulusConfig(R=4.0, **FAST), sheets=NONCOMPACT_SHEETS)
    rep = noncompactness_probe(cfg, NONCOMPACT_SHEETS)
    errs = [] if rep.passed else ["noncompactness probe did not pass"]
    return rep.pairwise_lower_floor, errs


class AnnulusDefault:
    """annulus_distance_bracket at the CLI defaults over R in {1.5, 4, 10}.

    Every third group of three ops (one per R) is an equal-modulus pair at a
    varied angle, the only pairs on which the mixed-product witness appears;
    the rest are random pairs.
    """

    name = "annulus-default"
    cycle = 9  # one op per R for each of the three pair kinds
    width_idx = range(cycle)  # the fixed first cycle, timed with the rest

    def __init__(self, seed: int, seconds: float):
        self.cfgs = {R: AnnulusConfig(R=R) for R in RADII}
        # A fixed and a seeded cycle, timed in passes of about 11 s; each
        # op's fastest pass counts, as on glued-deep.
        self.distinct = 2 * self.cycle
        self.passes = max(3, round(seconds / 11.0))
        self.pairs = self._pairs(WIDTH_SEED, self.cycle) + self._pairs(seed, self.cycle)

    @staticmethod
    def _pairs(seed: int, count: int) -> list:
        rng = np.random.default_rng([seed, 1])
        out = []
        for i in range(count):
            R = RADII[i % 3]
            if (i // 3) % 3 == 2:
                a = annulus_point(rng, R)
                t = rng.uniform(0.1, math.pi)
                b = a * complex(math.cos(t), math.sin(t))
            else:
                a, b = annulus_point(rng, R), annulus_point(rng, R)
            out.append((R, a, b))
        return out

    def warmup(self) -> None:
        R, a, b = self.pairs[0]
        annulus_distance_bracket(self.cfgs[R], a, b)

    def op(self, i: int):
        R, a, b = self.pairs[i]
        return annulus_distance_bracket(self.cfgs[R], a, b)

    def check(self, i: int, br) -> list:
        R, a, b = self.pairs[i]
        return _errors(br, R, a, b)

    def post_checks(self, results: dict) -> list:
        return []  # (op index, error) pairs

    def properties(self, indices: list) -> dict:
        pairs = [self.pairs[i] for i in indices]
        eq = sum(abs(abs(a) - abs(b)) <= 1e-12 * abs(a) for _, a, b in pairs)
        return {"annulus.equal_modulus_ratio": eq / len(indices)}


class GluedDeep:
    """glued_distance_bracket on SpaceConfig(R=4, sheets=20) at (2, 2).

    The timed CYCLE has the run's own order, coordinates and glue slots.
    """

    name = "glued-deep"
    cycle = len(CYCLE)
    width_idx = range(cycle, cycle + 20)  # fixed pairs after the timed cycle

    def __init__(self, seed: int, seconds: float):
        self.cfg = SpaceConfig(annulus=AnnulusConfig(R=4.0, **FAST), sheets=20)
        # One seeded cycle, timed in passes of about 7 s; each op's fastest
        # pass counts, which takes out most of a shared host's slow spells.
        self.distinct = self.cycle
        self.passes = max(3, round(seconds / 7.0))
        self.pairs = self._pairs(seed, self.cycle) + self._pairs(WIDTH_SEED, len(self.width_idx))

    def _pairs(self, seed: int, count: int) -> list:
        cfg, R = self.cfg, self.cfg.annulus.R
        rng = np.random.default_rng([seed, 2])

        def point(s):
            return canonicalize(cfg, s, annulus_point(rng, R))

        out = []
        while len(out) < count:
            for t in rng.permutation(len(CYCLE)):
                kind, s1, s2 = CYCLE[t]
                if kind == "glue":
                    glue = GluePointIndex(s1, int(rng.integers(1, 2 ** s1 + 1)))
                    p = canonicalize(cfg, 0, glue=glue)
                else:
                    p = point(s1)
                out.append((p, point(s2)))
        return out[:count]

    def warmup(self) -> None:
        # Fill the lru_caches: every sheet's Blaschke product and the
        # block-product threshold behind the 2/e cap.
        cfg = self.cfg
        for t in range(1, cfg.sheets + 1):
            pt = canonicalize(cfg, t, complex(cfg.annulus.sqrt_R, 0.5))
            evaluate_admissible(cfg, AdmissibleFunction.sheet_supported(t), pt)
        srt = cfg.annulus.sqrt_R
        glued_distance_bracket(cfg, canonicalize(cfg, 0, srt), canonicalize(cfg, cfg.sheets, srt))

    def op(self, i: int):
        p, q = self.pairs[i]
        return glued_distance_bracket(self.cfg, p, q)

    def check(self, i: int, br) -> list:
        p, q = self.pairs[i]
        return _errors(br, self.cfg.annulus.R, p.coord, q.coord)

    def post_checks(self, results: dict) -> list:
        """Same-sheet brackets nest in the annulus bracket (acceptance 09)."""
        errs = []
        for i, br in results.items():
            p, q = self.pairs[i]
            if p.sheet != q.sheet:
                continue
            ab = annulus_distance_bracket(self.cfg.annulus, p.coord, q.coord)
            if not (br.lower >= ab.lower - 1e-6 and br.upper <= ab.upper + 1e-6):
                errs.append((i, "same-sheet bracket does not nest in the annulus bracket"))
        return errs

    def properties(self, indices: list) -> dict:
        seen, repeats, deep = set(), 0, 0
        for p, q in (self.pairs[i] for i in indices):
            key = tuple(sorted((p.sheet, q.sheet)))
            repeats += key in seen
            seen.add(key)
            deep += max(key) >= DEEP_SHEET
        n = len(indices)
        return {"glued.repeat_sheet_pair_ratio": repeats / n, "glued.deep_sheet_ratio": deep / n}


def saturation_probe() -> int:
    """How many SATURATING pairs glued_distance_bracket still raises on."""
    cfg = SpaceConfig(annulus=AnnulusConfig(R=4.0, **FAST), sheets=20)
    raised = 0
    for (s1, z1), (s2, z2) in SATURATING:
        try:
            glued_distance_bracket(cfg, canonicalize(cfg, s1, z1), canonicalize(cfg, s2, z2))
        except ValueError:
            raised += 1
    return raised


LIBRARY = {w.name: w for w in (AnnulusDefault, GluedDeep)}


# ---------------------------------------------------------------------------
# cli-session: one fixed script through caralab.cli.main.
# ---------------------------------------------------------------------------

GLUED_FLAGS = ["--family-degree", "2", "--grid-density", "2"]
# Fixed pairs, so bracket width compares across seeds.
ANNULUS_PAIR = ("2,0", "0,2")
GLUED_PAIRS = {12: ("3:2,0.5", "9:-1.5,1.2"), 20: ("17:2,0.5", "20:-1.5,1.2")}


def _pt(sheet: int, z: complex) -> str:
    return f"{sheet}:{z.real!r},{z.imag!r}"


def cli_script(seed: int) -> list:
    """(step, argv) pairs of the session; the ball centre and the complete
    sequences vary with the seed."""
    rng = np.random.default_rng([seed, 3])
    limit = annulus_point(rng, 4.0, r=rng.uniform(1.6, 2.4))
    cauchy = [_pt(0, limit * (1.0 + 2.0 ** -k)) for k in range(1, 9)]
    th = rng.uniform(0.0, 2.0 * math.pi)
    edge = complex(math.cos(th), math.sin(th))
    escape = [_pt(0, edge * (1.0 + 2.0 ** -k)) for k in range(2, 10)]
    centre = _pt(0, annulus_point(rng, 4.0, r=rng.uniform(1.85, 2.15)))
    # The sample cloud keeps the CLI's default seed: its sheets set the
    # command's cost, which would otherwise change from seed to seed.
    ball = ["glued", "ball", *GLUED_FLAGS, "--samples", "100", centre]
    return [
        ("verify_lemmas", ["verify-lemmas", "--R", "1.5", "--R", "4", "--R", "10"]),
        ("annulus_distance", ["annulus-distance", *ANNULUS_PAIR]),
        ("glued_distance_n12", ["glued", "distance", *GLUED_FLAGS, "--N", "12", *GLUED_PAIRS[12]]),
        ("glued_distance_n20", ["glued", "distance", *GLUED_FLAGS, "--N", "20", *GLUED_PAIRS[20]]),
        ("glued_noncompact", ["glued", "noncompact", *GLUED_FLAGS, "--N", str(NONCOMPACT_SHEETS)]),
        ("glued_complete_cauchy", ["glued", "complete", *GLUED_FLAGS, *cauchy]),
        ("glued_complete_escape", ["glued", "complete", *GLUED_FLAGS, *escape]),
        ("glued_ball_wide", [*ball, "--band", "1.5,3.0", "--band-sheets", "0,1"]),
        ("glued_ball_narrow", [*ball, "--band", "1.8,2.2", "--band-sheets", "0"]),
    ]


def _parse(text: str) -> complex:
    re_s, _, im_s = text.partition(",")
    return complex(float(re_s), float(im_s))


def cli_step_errors(step: str, argv: list, doc: dict) -> tuple:
    """Errors in one step's report, and the quality figures it carries."""
    errs, quality = [], {}
    if step == "verify_lemmas":
        failing = [s["parameter_name"] for s in doc["sweeps"] if not s["passed"]]
        if failing:
            errs.append(f"sweeps failed: {failing}")
        m1 = [s["threshold_found"] for s in doc["sweeps"] if s["parameter_name"] == "m1"]
        if m1 != [4]:
            errs.append(f"m1 = {m1}, expected [4]")
    elif step == "annulus_distance":
        a, b = (_parse(s) for s in ANNULUS_PAIR)
        errs += _report_errors(doc["bracket"], a, b)
        quality["width"] = doc["bracket"]
    elif step.startswith("glued_distance"):
        p, q = (s.partition(":")[2] for s in argv[-2:])
        errs += _report_errors(doc["bracket"], _parse(p), _parse(q))
        quality["width"] = doc["bracket"]
    elif step == "glued_noncompact":
        if doc["noncompactness"]["passed"] is not True:
            errs.append("noncompactness probe did not pass")
        quality["noncompact_floor"] = doc["noncompactness"]["pairwise_lower_floor_mobius"]
    elif step == "glued_complete_cauchy":
        if doc["completeness"]["cauchy_like"] is not True:
            errs.append("convergent sequence not reported Cauchy-like")
    elif step == "glued_complete_escape":
        if doc["completeness"]["converged_in_topology"] is not False:
            errs.append("boundary-escape sequence reported convergent")
    elif step.startswith("glued_ball"):
        radius = doc["ball"]["radius"]
        if radius is not None and not radius > 0.0:
            errs.append(f"ball radius {radius!r} not positive")
    return errs, quality


def _report_errors(rec: dict, a: complex, b: complex) -> list:
    witnesses = (rec["lower_witness"], rec["upper_witness"])
    return bracket_errors(rec["lower"], rec["upper"], witnesses, 4.0, a, b)
