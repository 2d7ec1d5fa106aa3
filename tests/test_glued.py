import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caralab import (
    AdmissibleFunction,
    AnnulusConfig,
    EvaluationEscapeError,
    GluePointIndex,
    SpaceConfig,
    annulus_distance_bracket,
    annulus_upper_bound,
    ball_inclusion_radius,
    canonicalize,
    completeness_probe,
    evaluate_admissible,
    format_point,
    glue_points,
    glued_distance_bracket,
    glued_lower_bound,
    glued_upper_bound,
    noncompactness_probe,
    parse_point,
    recanonicalize,
)
from caralab.glued import _one_over_e_threshold
from caralab.sweeps import TWO_OVER_E, _block_log_moduli


@st.composite
def space_points(draw, sheets=12):
    """(sheet, coordinate) on A(4), 2 % of the width off both boundary circles."""
    r = draw(st.floats(1.06, 3.94))
    return draw(st.integers(0, sheets)), cmath.rect(r, draw(st.floats(-math.pi, math.pi)))


class TestGluePoints:
    def test_first_sheet_coordinates(self, cfg):
        coords = [g.coordinate(cfg.annulus.R) for g in glue_points(cfg, 1)]
        assert coords == pytest.approx([2.0, 4.0 ** (2.0 / 3.0)], abs=1e-14)

    def test_second_sheet_coordinates(self, cfg):
        coords = [g.coordinate(cfg.annulus.R) for g in glue_points(cfg, 2)]
        expected = [4.0 ** (1.0 - 1.0 / j) for j in (4, 5, 6, 7)]
        assert coords == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_counts_double_per_sheet(self, cfg, n):
        assert len(glue_points(cfg, n)) == 2 ** n

    def test_index_validation(self):
        with pytest.raises(ValueError):
            GluePointIndex(0, 1)
        with pytest.raises(ValueError):
            GluePointIndex(2, 5)

    def test_sqrt_R_is_the_first_attachment(self, cfg):
        assert GluePointIndex(1, 1).coordinate(4.0) == 2.0


class TestCanonicalize:
    def test_glue_index_collapses_to_sheet_zero(self, cfg):
        g = GluePointIndex(3, 2)
        p = canonicalize(cfg, 3, glue=g)
        q = canonicalize(cfg, 0, glue=g)
        assert p.sheet == q.sheet == 0
        assert p == q

    def test_other_sheets_do_not_collapse(self, cfg):
        # A glue index of sheet 3 names a plain coordinate on sheet 5.
        p = canonicalize(cfg, 5, glue=GluePointIndex(3, 2))
        assert p.sheet == 5 and p.glue is None

    def test_bare_coordinate_is_not_identified(self, cfg):
        p = canonicalize(cfg, 1, 2.0)
        assert p.sheet == 1 and p.glue is None

    def test_coordinate_mismatch_is_rejected(self, cfg):
        with pytest.raises(ValueError, match="does not match"):
            canonicalize(cfg, 1, 3.0, GluePointIndex(1, 1))

    def test_idempotent(self, cfg):
        for p in (
            canonicalize(cfg, 2, complex(1.5, 1.0)),
            canonicalize(cfg, 2, glue=GluePointIndex(2, 3)),
        ):
            assert recanonicalize(cfg, p) == p

    def test_requires_some_location(self, cfg):
        with pytest.raises(ValueError):
            canonicalize(cfg, 1)


class TestPointText:
    def test_roundtrip_plain(self, cfg):
        p = canonicalize(cfg, 4, complex(1.25, -2.5))
        assert parse_point(cfg, format_point(p)) == p

    def test_roundtrip_glue(self, cfg):
        p = canonicalize(cfg, 2, glue=GluePointIndex(2, 4))
        text = format_point(p)
        assert text == "glue:2,4"
        assert parse_point(cfg, text) == p

    def test_malformed_rejected(self, cfg):
        for bad in ("nonsense", "1:2", "1:2,3,4"):
            with pytest.raises(ValueError):
                parse_point(cfg, bad)


class TestAdmissibleFunctions:
    def test_pullback_is_sheet_independent(self, cfg):
        F = AdmissibleFunction.pullback(lambda w: w / cfg.annulus.R, "w/R")
        c = complex(1.7, 0.9)
        vals = {evaluate_admissible(cfg, F, canonicalize(cfg, s, c)) for s in (0, 1, 5)}
        assert len(vals) == 1

    def test_sheet_supported_vanishes_off_sheet(self, cfg):
        F = AdmissibleFunction.sheet_supported(3)
        for s in (0, 1, 2, 4):
            assert evaluate_admissible(cfg, F, canonicalize(cfg, s, 2.5)) == 0.0

    def test_sheet_supported_vanishes_exactly_at_glue(self, cfg):
        F = AdmissibleFunction.sheet_supported(2)
        for g in glue_points(cfg, 2):
            c = g.coordinate(cfg.annulus.R)
            # Both representatives of the identified point evaluate to 0.
            assert F.evaluate_on_representative(cfg, 2, c) == 0.0
            assert F.evaluate_on_representative(cfg, 0, c) == 0.0

    def test_quotient_soundness_at_identified_points(self, cfg):
        fam = [
            AdmissibleFunction.pullback(lambda w: 1.0 / w, "1/w"),
            AdmissibleFunction.sheet_supported(3),
            AdmissibleFunction.phi_style(3),
        ]
        for F in fam:
            for g in glue_points(cfg, 3):
                c = g.coordinate(cfg.annulus.R)
                v0 = F.evaluate_on_representative(cfg, 0, c)
                v3 = F.evaluate_on_representative(cfg, 3, c)
                assert abs(v0 - v3) <= 1e-12

    def test_phi_style_is_half_difference(self, cfg):
        # Phi-style pulls back through the projection, so it is constant
        # across sheets and equals half the sheet-supported value.
        F = AdmissibleFunction.phi_style(2)
        inner = AdmissibleFunction.sheet_supported(2)
        c = complex(2.2, 0.4)
        on_sheet = inner.evaluate_on_representative(cfg, 2, c)
        assert F.evaluate_on_representative(cfg, 2, c) == on_sheet / 2.0
        assert F.evaluate_on_representative(cfg, 0, c) == on_sheet / 2.0

    def test_escape_is_diagnosed(self, cfg):
        F = AdmissibleFunction.pullback(lambda w: w, "identity")
        with pytest.raises(EvaluationEscapeError):
            evaluate_admissible(cfg, F, canonicalize(cfg, 0, 2.5))


class TestGluedBounds:
    def test_same_sheet_bracket_matches_annulus(self, cfg):
        a, b = complex(1.5, 0.5), complex(2.5, -1.0)
        gb = glued_distance_bracket(
            cfg, canonicalize(cfg, 4, a), canonicalize(cfg, 4, b)
        )
        ab = annulus_distance_bracket(cfg.annulus, a, b)
        assert gb.upper == pytest.approx(ab.upper, abs=1e-12)
        assert gb.lower >= ab.lower - 1e-6
        assert gb.lower <= gb.upper

    def test_identified_point_has_zero_bracket(self, cfg):
        g = GluePointIndex(2, 1)
        p = canonicalize(cfg, 2, glue=g)
        q = canonicalize(cfg, 0, glue=g)
        br = glued_distance_bracket(cfg, p, q)
        assert br.lower == br.upper == 0.0

    def test_cross_sheet_separation_is_positive(self, cfg):
        p = canonicalize(cfg, 1, complex(1.5, 0.5))
        q = canonicalize(cfg, 4, complex(1.5, 0.5))
        br = glued_distance_bracket(cfg, p, q)
        assert 0.0 < br.lower <= br.upper < 1.0

    def test_basepoint_pairs_sit_inside_two_over_e(self, cfg):
        srt = cfg.annulus.sqrt_R
        base = canonicalize(cfg, 0, srt)
        for n in (2, 5, 12):
            pt = canonicalize(cfg, n, srt)
            lo, _ = glued_lower_bound(cfg, base, pt)
            up, _ = glued_upper_bound(cfg, base, pt)
            assert 0.0 < lo <= up <= TWO_OVER_E + 1e-12

    def test_bounds_are_symmetric(self, cfg):
        p = canonicalize(cfg, 2, complex(1.4, 0.2))
        q = canonicalize(cfg, 7, complex(3.1, -0.6))
        assert glued_lower_bound(cfg, p, q)[0] == pytest.approx(
            glued_lower_bound(cfg, q, p)[0], abs=1e-12
        )
        assert glued_upper_bound(cfg, p, q)[0] == pytest.approx(
            glued_upper_bound(cfg, q, p)[0], abs=1e-12
        )

    def test_random_pairs_ordered(self, cfg):
        rng = np.random.default_rng(17)
        for _ in range(20):
            sheets = rng.integers(0, cfg.sheets + 1, 2)
            r = rng.uniform(1.1, cfg.annulus.R - 0.1, 2)
            th = rng.uniform(0, 2 * math.pi, 2)
            p = canonicalize(cfg, int(sheets[0]), r[0] * complex(math.cos(th[0]), math.sin(th[0])))
            q = canonicalize(cfg, int(sheets[1]), r[1] * complex(math.cos(th[1]), math.sin(th[1])))
            br = glued_distance_bracket(cfg, p, q)
            assert 0.0 <= br.lower <= br.upper < 1.0

    @given(space_points(), space_points())
    @settings(max_examples=40, deadline=None)
    def test_conjugation_invariance(self, a, b):
        # The glue points are real, so w -> conj(w) on every sheet is an
        # automorphism of the glued space.
        cfg = SpaceConfig(AnnulusConfig(R=4.0, family_degree=2, grid_density=2), sheets=12)
        p, q = (canonicalize(cfg, sheet, w) for sheet, w in (a, b))
        pc, qc = (canonicalize(cfg, sheet, w.conjugate()) for sheet, w in (a, b))
        for bound in (glued_lower_bound, glued_upper_bound):
            assert bound(cfg, pc, qc)[0] == pytest.approx(bound(cfg, p, q)[0], abs=1e-12)

    def test_long_glue_path_stays_below_one(self, acf):
        # The glue path between these points is longer than 19, where its
        # tanh rounds to 1.0 in doubles.
        deep = SpaceConfig(annulus=acf, sheets=20)
        p = canonicalize(deep, 0, complex(-1.06, 0.0))
        q = canonicalize(deep, 16, complex(-3.94, 0.0))
        br = glued_distance_bracket(deep, p, q)
        assert 0.0 <= br.lower <= br.upper < 1.0

    def test_glue_path_witness_re_evaluates(self, cfg):
        # The witness names both exits; the bound is tanh of the three legs'
        # summed Poincare lengths.
        acf = cfg.annulus
        rng = np.random.default_rng(29)
        for p_sheet, q_sheet in [(0, 3), (2, 7), (12, 5), (1, 12), (0, 12)]:
            r = rng.uniform(1.1, acf.R - 0.1, 2)
            th = rng.uniform(0, 2 * math.pi, 2)
            p = canonicalize(cfg, p_sheet, r[0] * complex(math.cos(th[0]), math.sin(th[0])))
            q = canonicalize(cfg, q_sheet, r[1] * complex(math.cos(th[1]), math.sin(th[1])))
            v, witness = glued_upper_bound(cfg, p, q)
            ep, eq = (parse_point(cfg, s) for s in
                      witness.removeprefix("glue path via exits ").split("; "))
            for pt, exit_ in ((p, ep), (q, eq)):
                assert exit_ == pt if pt.sheet == 0 else exit_.glue.sheet == pt.sheet
            legs = ((p.coord, ep.coord), (ep.coord, eq.coord), (eq.coord, q.coord))
            total = sum(math.atanh(annulus_upper_bound(acf, a, b)[0]) for a, b in legs)
            assert math.tanh(total) == pytest.approx(v, abs=1e-12)

    def test_cross_sheet_bracket_at_large_radius_and_depth(self):
        acf = AnnulusConfig(R=1e3, family_degree=2, grid_density=2)
        deep = SpaceConfig(annulus=acf, sheets=20)
        p = canonicalize(deep, 0, complex(30.0, 5.0))
        q = canonicalize(deep, 20, complex(-200.0, 40.0))
        br = glued_distance_bracket(deep, p, q)
        assert 0.0 <= br.lower <= br.upper < 1.0


class TestNoncompactness:
    def test_probe_passes_at_full_truncation(self, cfg):
        rep = noncompactness_probe(cfg, cfg.sheets)
        assert rep.passed
        assert rep.distinct_sheets >= 10
        assert rep.pairwise_lower_floor > 0.0
        assert all(u <= TWO_OVER_E + 1e-12 for u in rep.upper_bounds)
        assert rep.ball_radius == TWO_OVER_E
        assert rep.threshold_n0 == 1

    def test_threshold_reads_the_shared_block_table(self):
        _block_log_moduli.cache_clear()
        assert _one_over_e_threshold(12) == _one_over_e_threshold(12) == 1
        info = _block_log_moduli.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_to_dict_round(self, cfg):
        d = noncompactness_probe(cfg, 5).to_dict()
        assert d["passed"] is True
        assert len(d["points"]) == len(d["upper_bounds_mobius"])

    def test_rejects_bad_range(self, cfg):
        with pytest.raises(ValueError):
            noncompactness_probe(cfg, cfg.sheets + 1)


class TestCompleteness:
    def test_constant_sequence_converges(self, cfg):
        p = canonicalize(cfg, 3, complex(2.0, 0.5))
        rep = completeness_probe(cfg, [p] * 5)
        assert rep.cauchy_like and rep.converged_in_topology
        assert rep.tail_coordinate_diameter == 0.0

    def test_interior_convergent_sequence(self, cfg):
        seq = [canonicalize(cfg, 0, 2.0 + 1.0 / k) for k in range(2, 21)]
        rep = completeness_probe(cfg, seq)
        assert rep.cauchy_like
        assert rep.tail_single_sheet
        assert rep.converged_in_topology

    def test_boundary_escape_is_detected(self, cfg):
        # Geometric approach to the inner boundary circle: coordinates
        # converge while the Mobius separation stays bounded below.
        seq = [canonicalize(cfg, 0, 1.0 + 2.0 ** (-k)) for k in range(2, 12)]
        rep = completeness_probe(cfg, seq)
        assert not rep.converged_in_topology
        assert rep.tail_stats[-1]["separation_floor_mobius"] > 0.1

    def test_sheet_hopping_tail_is_flagged(self, cfg):
        seq = [canonicalize(cfg, k % 2, complex(2.0, 0.3)) for k in range(6)]
        rep = completeness_probe(cfg, seq)
        assert not rep.tail_single_sheet
        assert not rep.converged_in_topology

    def test_rejects_short_sequences(self, cfg):
        p = canonicalize(cfg, 0, 2.0)
        with pytest.raises(ValueError):
            completeness_probe(cfg, [p, p])


class TestBallInclusion:
    def test_interior_centre_gets_positive_radius(self, cfg):
        z = canonicalize(cfg, 0, 2.0)
        r = ball_inclusion_radius(cfg, z, (1.5, 3.0), [0, 1], samples=100)
        assert r is not None and r > 0.0

    def test_nested_bands_give_monotone_radii(self, cfg):
        z = canonicalize(cfg, 0, 2.0)
        small = ball_inclusion_radius(cfg, z, (1.8, 2.2), [0], samples=100)
        large = ball_inclusion_radius(cfg, z, (1.5, 3.0), [0, 1, 2], samples=100)
        assert small is not None and large is not None
        assert small <= large

    def test_centre_outside_band_is_rejected(self, cfg):
        z = canonicalize(cfg, 0, 2.0)
        with pytest.raises(ValueError):
            ball_inclusion_radius(cfg, z, (2.5, 3.0), [0])
        with pytest.raises(ValueError):
            ball_inclusion_radius(cfg, z, (1.5, 3.0), [1, 2])

    def test_degenerate_band_is_rejected(self, cfg):
        z = canonicalize(cfg, 0, 2.0)
        with pytest.raises(ValueError):
            ball_inclusion_radius(cfg, z, (3.0, 1.5), [0])
