import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caralab import (
    AdmissibleFunction,
    AnnulusConfig,
    AnnulusDomainError,
    BracketOrderError,
    EvaluationEscapeError,
    GluePointIndex,
    SpaceConfig,
    annulus_distance_bracket,
    annulus_lower_bound,
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
    mobius_distance,
    noncompactness_probe,
    parse_point,
)
from caralab import glued as glued_module
from caralab.disk import _CHUNK, BlaschkeProduct, DiskDomainError, _ONE_MINUS, _atanh
from caralab.glued import (
    MAX_EXITS,
    MID_LEG_CACHE_SIZE,
    _ceiling_terms,
    _exit_indices,
    _exit_point,
    _exits,
    _log_ceiling,
    _mid_leg,
    _poincare_upper,
    _sheet_blaschke,
    _sheet_exits,
    _sheet_zeros,
    _upper_paths,
)
from caralab import sweeps
from caralab.sweeps import (
    ONE_OVER_E_N0,
    TWO_OVER_E,
    _block_log_moduli,
    verify_one_over_e_products,
)
from conftest import load_perfbench, near_circle_points, random_annulus_points


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
        with pytest.raises(ValueError):  # deeper than any truncation
            GluePointIndex(21, 1)
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
            assert canonicalize(cfg, p.sheet, p.coord, p.glue) == p

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
        for n in range(1, 11):
            assert all(c.dtype == np.float64 for c in _sheet_blaschke(cfg.annulus.R, n).zero_chunks())
            F = AdmissibleFunction.sheet_supported(n)
            for g in glue_points(cfg, n):
                c = g.coordinate(cfg.annulus.R)
                # Both representatives of the identified point evaluate to 0.
                assert F.evaluate_on_representative(cfg, n, c) == 0.0
                assert F.evaluate_on_representative(cfg, 0, c) == 0.0

    @pytest.mark.parametrize("R", [1.5, 4.0, 10.0])
    def test_every_glue_point_is_a_zero_of_its_sheet_product(self, R):
        # Every slot on sheets 1-12, four sampled slots on each of 13-20.
        cfg = SpaceConfig(annulus=AnnulusConfig(R=R, family_degree=2, grid_density=2), sheets=20)
        rng = np.random.default_rng(11)
        for n in range(1, 21):
            F = AdmissibleFunction.sheet_supported(n)
            slots = range(1, 2 ** n + 1) if n <= 12 else rng.integers(1, 2 ** n + 1, 4)
            for m in slots:
                c = GluePointIndex(n, int(m)).coordinate(R)
                assert F.evaluate_on_representative(cfg, n, c) == 0.0

    def test_quotient_soundness_at_identified_points(self, cfg):
        fam = [
            AdmissibleFunction.pullback(lambda w: 1.0 / w, "1/w"),
            AdmissibleFunction.sheet_supported(3),
        ]
        for F in fam:
            for g in glue_points(cfg, 3):
                c = g.coordinate(cfg.annulus.R)
                v0 = F.evaluate_on_representative(cfg, 0, c)
                v3 = F.evaluate_on_representative(cfg, 3, c)
                assert abs(v0 - v3) <= 1e-12

    def test_escape_is_diagnosed(self, cfg):
        F = AdmissibleFunction.pullback(lambda w: w, "identity")
        with pytest.raises(EvaluationEscapeError):
            evaluate_admissible(cfg, F, canonicalize(cfg, 0, 2.5))


class TestIdentifiedPoints:
    def test_sheet_supported_is_zero_at_its_own_glue_points(self, cfg):
        # Both representatives canonicalize onto sheet 0, where F is 0.
        for n in (1, 3, 7):
            F = AdmissibleFunction.sheet_supported(n)
            for g in glue_points(cfg, n)[:: max(1, 2 ** n // 8)]:
                for sheet in (0, n):
                    p = canonicalize(cfg, sheet, glue=g)
                    assert p.sheet == 0 and p.glue == g
                    assert F.evaluate(cfg, p) == 0.0
                    assert evaluate_admissible(cfg, F, p) == 0.0


class TestCanonicalPointsPassThrough:
    """A point is canonical for the config it is used with: the glued
    functions take it as given and canonicalize nothing again."""

    def test_warm_brackets_and_probes_make_no_canonicalize_call(self, cfg, monkeypatch):
        same = canonicalize(cfg, 4, complex(1.5, 0.5)), canonicalize(cfg, 4, complex(2.5, -1.0))
        cross = canonicalize(cfg, 2, complex(1.4, 0.2)), canonicalize(cfg, 7, complex(3.1, -0.6))
        seq = [canonicalize(cfg, k % 3, complex(2.0 + 0.1 * k, 0.3)) for k in range(8)]
        runs = {
            "same-sheet bracket": lambda: glued_distance_bracket(cfg, *same),
            "cross-sheet bracket": lambda: glued_distance_bracket(cfg, *cross),
            "upper bound": lambda: glued_upper_bound(cfg, *cross),
            "completeness probe": lambda: completeness_probe(cfg, seq),
            "evaluation": lambda: evaluate_admissible(
                cfg, AdmissibleFunction.sheet_supported(7), cross[1]),
        }
        for run in runs.values():
            run()  # warm every cache first
        calls = []
        real = glued_module.canonicalize
        monkeypatch.setattr(glued_module, "canonicalize",
                            lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
        counts = {}
        for name, run in runs.items():
            del calls[:]
            run()
            counts[name] = len(calls)
        assert counts == dict.fromkeys(runs, 0)

    @pytest.mark.parametrize("other_sheet", [3, 5])
    def test_a_point_outside_the_annulus_is_still_rejected(self, other_sheet):
        # |w| = 6 is a point of A(10) but not of A(4); the annulus lower
        # bound still checks every coordinate it is given.
        wide = SpaceConfig(AnnulusConfig(R=10.0, family_degree=2, grid_density=2), sheets=12)
        narrow = SpaceConfig(AnnulusConfig(R=4.0, family_degree=2, grid_density=2), sheets=12)
        p = canonicalize(wide, 3, complex(6.0, 0.0))
        q = canonicalize(narrow, other_sheet, complex(2.0, 0.5))
        for a, b in ((p, q), (q, p)):
            with pytest.raises(AnnulusDomainError):
                glued_distance_bracket(narrow, a, b)


def whole_glue_table(R: float, n: int) -> np.ndarray:
    """Sheet n's 2^n glue coordinates in one numpy pow call: the reference
    every lazily computed coordinate, zero and exit must match bit for bit."""
    return np.power(R, 1 - 1 / np.arange(2 ** n, 2 ** (n + 1)))


class TestGlueCoordinateTable:
    """Glue points, sheet-product zeros and glue-path exits each compute only
    the coordinates they read, with the bits of one whole-table pow call."""

    @pytest.fixture(autouse=True)
    def fresh_products(self):
        # Each product keeps the first chunk it builds; leave none behind.
        _sheet_blaschke.cache_clear()
        yield
        _sheet_blaschke.cache_clear()

    @pytest.mark.parametrize("R", [1.5, 4.0, 10.0])
    def test_exits_and_coordinates_match_the_whole_table(self, R):
        for n in range(1, 21):
            table = whole_glue_table(R, n)
            zeros = table / R
            assert _sheet_exits(R, n).tobytes() == table[_exit_indices(n)].tobytes()
            step = 1 if n <= 16 else 97  # every slot through sheet 16
            for m in range(1, 2 ** n + 1, step):
                x = GluePointIndex(n, m).coordinate(R)
                assert x == table[m - 1]
                # w/R at a glue point is bitwise a zero, so F_n vanishes there.
                assert x / R == zeros[m - 1]

    @pytest.mark.parametrize("R", [1.5, 4.0, 10.0])
    def test_coordinates_are_within_one_ulp_of_pow(self, R):
        # numpy's pow may round R^(1 - 1/j) the other way from Python's.
        for n in range(1, 21):
            step = 1 if n <= 16 else 97
            for m in range(1, 2 ** n + 1, step):
                exact = R ** (1.0 - 1.0 / (2 ** n + m - 1))
                assert abs(GluePointIndex(n, m).coordinate(R) - exact) <= np.spacing(exact)

    def test_tables_are_read_only_float64(self):
        for n in (1, 9, 16):
            for table in (*_sheet_blaschke(4.0, n).zero_chunks(), _sheet_exits(4.0, n)):
                assert table.dtype == np.float64 and not table.flags.writeable
                with pytest.raises(ValueError):
                    table[0] = 0.0

    def test_tables_are_bitwise_stable_across_a_cache_clear(self):
        keys = [(R, n) for R in (1.5, 4.0, 10.0) for n in (1, 7, 12, 16)]

        def tables():
            return {key: (b"".join(c.tobytes() for c in _sheet_blaschke(*key).zero_chunks()),
                          _sheet_exits(*key).tobytes()) for key in keys}

        before = tables()
        _sheet_blaschke.cache_clear()
        _sheet_exits.cache_clear()
        assert tables() == before

    def test_sheet_product_zeros_are_the_table_over_R(self):
        for R in (1.5, 4.0, 10.0):
            for n in range(1, 21):
                chunks = list(_sheet_blaschke(R, n).zero_chunks())
                assert [len(c) for c in chunks[:-1]] == [_CHUNK] * (len(chunks) - 1)
                assert np.concatenate(chunks).tobytes() == (whole_glue_table(R, n) / R).tobytes()
            _sheet_blaschke.cache_clear()

    def test_a_product_builds_only_the_chunks_it_reads(self, monkeypatch):
        built = []
        original = glued_module._sheet_zeros
        monkeypatch.setattr(glued_module, "_sheet_zeros",
                            lambda *args: built.append(args[1:]) or original(*args))
        B = _sheet_blaschke(4.0, 20)
        last = 2 ** 20
        assert built == [(20, last - 1, last)]  # the last zero, checked at construction
        B.log_abs_at(0.5, stop=math.inf)  # stops after the first chunk
        assert built[1:] == [(20, 0, _CHUNK)]
        B.log_abs_at(0.5, stop=math.inf)
        assert len(built) == 2  # the first chunk stays on the product
        for _ in range(2):
            B.log_abs_at(0.5)  # full sums build every later chunk again
        later = [(20, start, start + _CHUNK) for start in range(_CHUNK, last, _CHUNK)]
        assert len(later) == 127 and built[2:] == later * 2

    def test_sheet_products_hold_only_their_first_chunk(self):
        # One complex evaluation per sheet, as glued-deep's warmup makes,
        # builds all 2^21 zeros; whole sheets kept would hold 16 MB.
        cfg = SpaceConfig(AnnulusConfig(R=4.0, family_degree=2, grid_density=2), sheets=20)
        tracemalloc.start()
        try:
            for t in range(1, 21):
                pt = canonicalize(cfg, t, complex(cfg.annulus.sqrt_R, 0.5))
                evaluate_admissible(cfg, AdmissibleFunction.sheet_supported(t), pt)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 2 * 2 ** 20

    @pytest.mark.parametrize("sheet", [1, 3, 5, 6, 12])
    def test_exits_match_their_canonical_glue_points(self, cfg, sheet):
        # The exits as canonical glue points, spread evenly by slot.
        n = 2 ** sheet
        idx = np.unique(np.linspace(0, n - 1, MAX_EXITS).astype(int)) if n > MAX_EXITS else range(n)
        glue = [canonicalize(cfg, 0, glue=GluePointIndex(sheet, int(i) + 1)) for i in idx]
        p = canonicalize(cfg, sheet, 2.5)
        assert _exits(cfg, p).tolist() == [e.coord.real for e in glue]
        points = [_exit_point(cfg, p, i) for i in range(len(glue))]
        assert [format_point(e) for e in points] == [format_point(e) for e in glue]

    @pytest.mark.parametrize("sheet", range(1, 21))
    def test_exit_indices_match_the_linspace_reference(self, sheet):
        n = 2 ** sheet
        ref = np.unique(np.linspace(0, n - 1, MAX_EXITS).astype(int)) if n > MAX_EXITS else np.arange(n)
        assert _exit_indices(sheet).tolist() == ref.tolist()

    def test_a_sheet_zero_end_exits_at_itself(self, cfg):
        p = canonicalize(cfg, 0, complex(2.5, 0.3))
        assert _exits(cfg, p).tolist() == [p.coord]
        assert _exit_point(cfg, p, 0) is p


class TestNearCircle:
    """Ends within 2e-15 of a circle whose radial quotient or w/R rounds onto
    the unit circle: the candidate is dropped, the bracket still certified."""

    def test_the_reported_pair(self, cfg):
        a = 0.22583132917718896 + 0.9741664184122056j
        for sheet in (0, 3, 5):
            br = glued_distance_bracket(cfg, canonicalize(cfg, sheet, a), canonicalize(cfg, 3, 2.0))
            assert 0.0 < br.lower <= br.upper and br.lower_witness != "pullback[1/w]"

    @pytest.mark.parametrize("R", [1.5, 4.0, 10.0])
    def test_every_sheet_pairing_certifies(self, R):
        cfg = SpaceConfig(AnnulusConfig(R=R, family_degree=2, grid_density=1), sheets=6)
        inner, outer = near_circle_points(R)
        for i, w in enumerate(inner[:8] + outer):
            dropped = "pullback[1/w]" if w in inner else "pullback[w/R]"
            for s1, s2 in ((3, 3), (3, 0), (0, 3), (3, 5), (5, 3)):
                p, q = canonicalize(cfg, s1, w), canonicalize(cfg, s2, cmath.rect(math.sqrt(R), i))
                br = glued_distance_bracket(cfg, p, q)
                assert 0.0 < br.lower <= br.upper, (p, q)
                assert br.lower_witness != dropped

    def test_a_w_over_R_on_the_circle_drops_the_sheet_supported_candidate(self):
        R = 1.5
        cfg = SpaceConfig(AnnulusConfig(R=R, family_degree=2, grid_density=1), sheets=6)
        w = near_circle_points(R)[1][0]
        assert abs(w / R) == 1.0
        p, q = canonicalize(cfg, 4, w), canonicalize(cfg, 0, math.sqrt(R))
        # The candidate the guard skips would raise.
        with pytest.raises(DiskDomainError):
            _sheet_blaschke(R, 4).log_abs_at(w / R)
        for a, b in ((p, q), (q, p)):
            value, witness = glued_lower_bound(cfg, a, b)
            pulled = annulus_lower_bound(cfg.annulus, a.coord, b.coord)
            assert (value, witness) == (pulled[0], f"pullback[{pulled[1]}]")


    def test_a_sheet_product_too_close_to_the_circle_is_dropped(self):
        # At R = 1 + 1e-7 the zeros of deep sheets' products lie within
        # EPS_BOUNDARY of the unit circle; those candidates are dropped.
        R = 1.0000001
        cfg = SpaceConfig(AnnulusConfig(R=R), sheets=20)
        with pytest.raises(DiskDomainError):
            _sheet_blaschke(R, 20)
        w = 1.00000005
        p, q = canonicalize(cfg, 3, w), canonicalize(cfg, 20, w)
        assert glued_lower_bound(cfg, p, q)[1] == "sheet-supported[3]"
        deep = canonicalize(cfg, 19, w)
        assert glued_lower_bound(cfg, deep, q) == (0.0, "pullback[trivial (identical points)]")


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


def reference_lower_bound(cfg, p, q):
    """The glued lower bound with every sheet-supported candidate, both ends
    evaluated by the complex product B(w/R)."""
    best, witness = annulus_lower_bound(cfg.annulus, p.coord, q.coord)
    witness = f"pullback[{witness}]"
    for t in sorted({p.sheet, q.sheet} - {0}):
        F = AdmissibleFunction.sheet_supported(t)
        v = mobius_distance(F.evaluate(cfg, p), F.evaluate(cfg, q))
        if v > best:
            best, witness = v, F.label
    return best, witness


def full_own_sheet_modulus(R, pt):
    """|B(w/R)| at pt, B the product of pt's own sheet, from the log sum over
    all of its zeros; 0.0 for the candidates glued_lower_bound drops: w/R on
    the circle, or a product too close to it."""
    if pt.sheet == 0 or abs(pt.coord / R) >= 1.0:
        return 0.0
    try:
        B = _sheet_blaschke(R, pt.sheet)
    except DiskDomainError:
        return 0.0
    return min(math.exp(B.log_abs_at(pt.coord / R)), _ONE_MINUS)


def full_sum_lower_bound(cfg, p, q, sums):
    """The glued lower bound with every sheet-supported candidate's log sum
    run over all of its zeros: no early stop.  sums keeps each end's full
    sum by (R, point), so a point shared by several pairs is summed once."""
    if p == q:
        return 0.0, "trivial (identical points)"
    best, witness = annulus_lower_bound(cfg.annulus, p.coord, q.coord)
    witness = f"pullback[{witness}]"
    if p.sheet == q.sheet:
        return best, witness
    R = cfg.annulus.R
    for pt in sorted((p, q), key=lambda pt: pt.sheet):
        if (R, pt) not in sums:
            sums[R, pt] = full_own_sheet_modulus(R, pt)
        if sums[R, pt] > best:
            best, witness = sums[R, pt], AdmissibleFunction.sheet_supported(pt.sheet).label
    return best, witness


class TestSheetSupportedCandidates:
    @given(st.integers(1, 12), space_points(), space_points())
    @settings(max_examples=60, deadline=None)
    def test_same_sheet_value_never_beats_w_over_R(self, t, a, b):
        # Schwarz-Pick for B_t: d(B(a/R), B(b/R)) <= d(a/R, b/R), which is why
        # glued_lower_bound skips the candidate on same-sheet pairs.  The slack
        # is the rounding of two 2^t-factor products: on points 1 ulp apart
        # the left side is that rounding alone (1.6e-15 at t = 7).
        cfg = SpaceConfig(AnnulusConfig(R=4.0, family_degree=2, grid_density=2), sheets=12)
        (_, a), (_, b) = a, b
        F = AdmissibleFunction.sheet_supported(t)
        v = mobius_distance(*(F.evaluate_on_representative(cfg, t, w) for w in (a, b)))
        assert v <= mobius_distance(a / 4.0, b / 4.0) + 2 ** t * 1e-14

    @pytest.mark.parametrize("sheet", [1, 2, 7, 12, 16, 20])
    def test_same_sheet_pairs_get_the_pullback_bound(self, acf, sheet):
        deep = SpaceConfig(annulus=acf, sheets=20)
        rng = np.random.default_rng(sheet)
        for a, b in zip(*(random_annulus_points(rng, acf.R, 4) for _ in range(2))):
            value, witness = glued_lower_bound(
                deep, canonicalize(deep, sheet, a), canonicalize(deep, sheet, b))
            expected, w = annulus_lower_bound(acf, a, b)
            assert (value, witness) == (expected, f"pullback[{w}]")

    def test_cross_sheet_pairs_match_the_complex_product(self, acf):
        deep = SpaceConfig(annulus=acf, sheets=20)
        rng = np.random.default_rng(41)
        pairs = []
        for _ in range(200):
            s, t = rng.choice(13, size=2, replace=False)
            a, b = random_annulus_points(rng, acf.R, 2)
            pairs.append((canonicalize(deep, int(s), a), canonicalize(deep, int(t), b)))
        for sheet in range(16, 21):
            for n in (1, 9, sheet):
                glue = GluePointIndex(n, int(rng.integers(1, 2 ** n + 1)))
                w = random_annulus_points(rng, acf.R, 1)[0]
                pairs.append((canonicalize(deep, 0, glue=glue), canonicalize(deep, sheet, w)))
        wins = 0
        for p, q in pairs:
            value, witness = glued_lower_bound(deep, p, q)
            expected, expected_witness = reference_lower_bound(deep, p, q)
            assert value == pytest.approx(expected, rel=0.0, abs=1e-12)
            assert witness == expected_witness
            wins += witness.startswith("sheet-supported")
        assert wins >= 10  # the candidate does win on some of these pairs

    @pytest.mark.parametrize("R", [1.001, 1.5, 4.0, 10.0, 1e3])
    def test_early_stop_matches_the_full_sums(self, R):
        deep = SpaceConfig(AnnulusConfig(R=R, family_degree=2, grid_density=2), sheets=20)
        rng = np.random.default_rng(int(R * 10))
        srt = deep.annulus.sqrt_R
        pairs = []
        for _ in range(90):
            s, t = (int(x) for x in rng.choice(21, size=2, replace=False))
            a, b = random_annulus_points(rng, R, 2)
            g = int(rng.integers(1, 21))
            glue = canonicalize(deep, 0, glue=GluePointIndex(g, int(rng.integers(1, 2 ** g + 1))))
            pairs += [
                (canonicalize(deep, s, a), canonicalize(deep, t, b)),
                (glue, canonicalize(deep, t, b)),
                (canonicalize(deep, s, srt), canonicalize(deep, t, srt)),
                # Equal coordinates on two sheets: the pullback bound is 0.
                (canonicalize(deep, s, a), canonicalize(deep, t, a)),
            ]
        wins, sums = 0, {}
        for p, q in pairs:
            value, witness = glued_lower_bound(deep, p, q)
            assert (value, witness) == full_sum_lower_bound(deep, p, q, sums), (p, q)
            wins += witness.startswith("sheet-supported")
        assert wins >= 100

    def test_glued_deep_glue_pairs_read_at_most_two_chunks(self, monkeypatch):
        # Each chunk of 8,192 zeros makes one np.log1p call; the glue pairs
        # of the benchmark sit against sheets 16-20, 8 to 128 chunks deep.
        # A candidate whose closed-form ceiling is below the stop reads none.
        workloads = load_perfbench("workloads")
        log1p, calls = np.log1p, []

        def counting(*args, **kwargs):
            calls.append(1)
            return log1p(*args, **kwargs)

        monkeypatch.setattr(np, "log1p", counting)
        rejected = 0
        for seed in (1, 3, 7):
            work = workloads.GluedDeep(seed=seed, seconds=1.0)
            R = work.cfg.annulus.R
            for p, q in work.pairs[:work.cycle]:
                if p.glue is None:
                    continue
                calls.clear()
                glued_lower_bound(work.cfg, p, q)
                log_best = math.log(annulus_lower_bound(work.cfg.annulus, p.coord, q.coord)[0])
                if _log_ceiling(R, q.sheet, q.coord / R) < log_best - 1e-9 * (1.0 - log_best):
                    assert not calls, (format_point(p), format_point(q))
                    rejected += 1
                else:
                    assert 1 <= len(calls) <= 2, (format_point(p), format_point(q))
        assert rejected >= 10  # all 15 at seeds 1, 3 and 7

    def test_points_next_to_the_outer_circle_get_brackets(self, cfg):
        # w/R lies within 1e-9 of the unit circle here, closer than complex
        # Blaschke evaluation accepts; the lower bound never needs it.
        edge = canonicalize(cfg, 3, complex(cfg.annulus.R * (1 - 1e-12), 0.0))
        for other in (canonicalize(cfg, 0, 2.0), canonicalize(cfg, 3, 2.0)):
            br = glued_distance_bracket(cfg, edge, other)
            assert 0.0 < br.lower <= br.upper < 1.0


class TestLogCeiling:
    """The closed-form ceiling glued_lower_bound tests before it reads a
    zero: above the full log sum, so a candidate it rejects is one the full
    sum would have rejected too."""

    @pytest.mark.parametrize("R", [1.001, 1.5, 4.0, 10.0, 1e3])
    def test_is_above_the_full_sum(self, R):
        rng = np.random.default_rng(int(R * 7))
        angles = [0.0, 1e-6, -0.01, *rng.uniform(-math.pi, math.pi, 2)]
        checked = 0
        for t in range(1, 21):
            try:
                B = _sheet_blaschke(R, t)
            except DiskDomainError:  # zeros within 1e-9 of the circle
                continue
            # Glue coordinates over R (the zeros: -inf there), points within
            # 1e-9 of |w| = R and of |w| = 1, and interior points.
            zs = [GluePointIndex(t, int(m)).coordinate(R) / R
                  for m in (1, 2 ** t, rng.integers(1, 2 ** t + 1))]
            zs += [cmath.rect(r, th) / R for r in (R - 1e-9, 1.0 + 1e-9) for th in angles]
            zs += [0j, *(random_annulus_points(rng, R, 3) / R)]
            for z in map(complex, zs):
                assert _log_ceiling(R, t, z) >= B.log_abs_at(z), (R, t, z)
                checked += 1
        assert checked >= 18 * len(zs)

    @pytest.mark.parametrize("shift", [1.0, -1.0])
    def test_holds_for_zeros_off_by_the_float_error(self, shift):
        # At R = 1.003 on sheet 20, moving every zero by the relative error
        # the ceiling allows a float zero, (L + 8) 2^-52, moves the sum of
        # 1 - a^2 by more than the slack of S itself: the pad carries it.
        R, t = 1.003, 20
        delta = shift * (math.log(R) + 8.0) * 2.0 ** -52
        moved = BlaschkeProduct(
            lambda start, stop: _sheet_zeros(R, t, start, stop) * (1.0 + delta), 2 ** t)
        for z in (0j, 0.5j, -0.5 + 0j, cmath.rect(1.0 - 1e-9, 0.3)):
            assert _log_ceiling(R, t, z) >= moved.log_abs_at(z), z

    def test_no_bound_where_the_sum_estimate_is_not_positive(self):
        # Sheet 1 of A(4): 2 ln2 L < 2 L^2 J / ((J - 1)(2J - 1)) at J = 2.
        assert _ceiling_terms(4.0, 1)[2] <= 0.0
        assert _log_ceiling(4.0, 1, 0.3 + 0.1j) == 0.0
        assert _ceiling_terms.cache_info().maxsize == 128


def per_pair_upper_bound(cfg, p, q):
    """glued_upper_bound as computed pair by pair, three lift calls per
    cross-sheet pair: the reference for the many-target kernel."""
    if p == q:
        return 0.0, "trivial (identical points)"
    acf = cfg.annulus
    if p.sheet == q.sheet:
        v, w = annulus_upper_bound(acf, p.coord, q.coord)
        return v, f"restriction[{w}]"
    a, b = _exits(cfg, p), _exits(cfg, q)
    h_p = _poincare_upper(acf, p.coord, a)
    mid = _poincare_upper(acf, a[:, None], b)
    h_q = _poincare_upper(acf, b, q.coord)
    total = h_p[:, None] + mid + h_q[None, :]
    i, j = np.unravel_index(np.argmin(total), total.shape)
    exit_p, exit_q = _exit_point(cfg, p, i), _exit_point(cfg, q, j)
    witness = f"glue path via exits {format_point(exit_p)}; {format_point(exit_q)}"
    value = min(math.tanh(total[i, j]), _ONE_MINUS)
    srt = acf.sqrt_R

    def is_base(pt):
        return pt.sheet == 0 and abs(pt.coord - srt) <= 1e-12

    def is_probe(pt):
        return pt.sheet if pt.sheet >= 1 and abs(pt.coord - srt) <= 1e-12 else None

    n = is_probe(q) if is_base(p) else (is_probe(p) if is_base(q) else None)
    if n is not None and n >= ONE_OVER_E_N0 and TWO_OVER_E < value:
        return TWO_OVER_E, "2/e basepoint cap"
    return value, witness


def per_sample_ball_radius(cfg, z, band, band_sheets, samples, seed=0):
    """ball_inclusion_radius as a per-sample loop over per_pair_upper_bound:
    the reference for the kernel-backed probe."""
    r1, r2 = band
    R = cfg.annulus.R
    sheets = sorted(set(band_sheets))
    rng = np.random.default_rng(seed)
    margin = 1e-3 * (R - 1.0)
    radii = rng.uniform(1.0 + margin, R - margin, samples)
    angles = rng.uniform(0.0, 2.0 * math.pi, samples)
    point_sheets = rng.integers(0, cfg.sheets + 1, samples)
    d_min = math.inf
    for r, th, sh in zip(radii, angles, point_sheets):
        if r1 <= r <= r2 and int(sh) in sheets:
            continue
        pt = canonicalize(cfg, int(sh), complex(r * math.cos(th), r * math.sin(th)))
        d_min = min(d_min, _atanh(per_pair_upper_bound(cfg, z, pt)[0]))
    for j in range(4, -21, -1):
        if 2.0 ** j <= d_min:
            return 2.0 ** j
    return None


def count_lift_calls(monkeypatch):
    """Route glued's lift_distances through a counter; returns its list."""
    calls = []
    real = glued_module.lift_distances

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(glued_module, "lift_distances", counting)
    return calls


KERNEL_RADII = [1.0 + 1e-6, 1.5, 4.0, 10.0, 1e3]


class TestUpperKernel:
    """_upper_paths, the probes' many-target upper-bound kernel."""

    @staticmethod
    def _point(cfg, rng, sheet):
        R = cfg.annulus.R
        r = math.exp(rng.uniform(0.02, 0.98) * math.log(R))
        return canonicalize(cfg, sheet, cmath.rect(r, rng.uniform(-math.pi, math.pi)))

    @pytest.mark.parametrize("N", [8, 20])
    @pytest.mark.parametrize("R", KERNEL_RADII)
    def test_matches_the_per_pair_bound_bit_for_bit(self, R, N):
        cfg = SpaceConfig(AnnulusConfig(R=R, family_degree=2, grid_density=2), sheets=N)
        rng = np.random.default_rng([int(R), N])
        srt = cfg.annulus.sqrt_R
        glue = canonicalize(cfg, 0, glue=GluePointIndex(3, 5))
        centres = [
            self._point(cfg, rng, 0),  # sheet 0
            self._point(cfg, rng, 2),  # a shallow sheet
            self._point(cfg, rng, N),  # the deepest sheet
            glue,  # a glue point, identified onto sheet 0
            canonicalize(cfg, 0, srt),  # the basepoint
            canonicalize(cfg, N - 1, srt),  # a probe point
        ]
        for p in centres:
            qs = [p]
            qs += [self._point(cfg, rng, 0) for _ in range(3)]
            qs += [self._point(cfg, rng, p.sheet) for _ in range(3)]
            qs += [self._point(cfg, rng, int(s)) for s in rng.integers(1, N + 1, 8)]
            qs += [canonicalize(cfg, s, glue=GluePointIndex(s, 1)) for s in (1, 4, N)]
            # The glue coordinate off its own sheet names an ordinary point.
            qs += [canonicalize(cfg, 2, glue=GluePointIndex(5, 3)), glue]
            qs += [canonicalize(cfg, n, srt) for n in range(N + 1)]
            reference = [per_pair_upper_bound(cfg, p, q) for q in qs]
            assert _upper_paths(cfg, p, qs).values == [v for v, _ in reference]
            assert [glued_upper_bound(cfg, p, q) for q in qs] == reference

    def test_basepoint_pairs_hit_the_cap_both_ways(self, cfg):
        srt = cfg.annulus.sqrt_R
        base = canonicalize(cfg, 0, srt)
        probes = [canonicalize(cfg, n, srt) for n in range(1, cfg.sheets + 1)]
        reference = [per_pair_upper_bound(cfg, base, pt) for pt in probes]
        assert sum(w == "2/e basepoint cap" for _, w in reference) >= 5
        assert _upper_paths(cfg, base, probes).values == [v for v, _ in reference]
        for pt, (v, _) in zip(probes, reference):
            assert _upper_paths(cfg, pt, [base]).values == [v]

    def test_an_empty_target_list_gives_no_bounds(self, cfg):
        assert _upper_paths(cfg, canonicalize(cfg, 3, 2.0), []) == ([], [], [])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("centre_sheet", [0, 3])
    @pytest.mark.parametrize("N", [8, 12])
    @pytest.mark.parametrize("R", [1.5, 4.0, 10.0])
    def test_ball_radius_matches_the_per_sample_loop(self, R, N, centre_sheet, seed):
        cfg = SpaceConfig(AnnulusConfig(R=R, family_degree=2, grid_density=2), sheets=N)
        z = canonicalize(cfg, centre_sheet, R ** 0.5)
        band, sheets = (R ** 0.3, R ** 0.7), [0, 1, centre_sheet]
        expected = per_sample_ball_radius(cfg, z, band, sheets, samples=60, seed=seed)
        assert ball_inclusion_radius(cfg, z, band, sheets, samples=60, seed=seed) == expected

    def test_a_band_holding_every_sample_keeps_radius_16(self, cfg):
        # Samples keep 1e-3 (R - 1) off both circles, so this band and every
        # sheet hold them all: no sample limits the radius.
        z = canonicalize(cfg, 0, 2.0)
        band, sheets = (1.002, 3.998), list(range(cfg.sheets + 1))
        assert per_sample_ball_radius(cfg, z, band, sheets, samples=50) == 16.0
        assert ball_inclusion_radius(cfg, z, band, sheets, samples=50) == 16.0

    @pytest.mark.parametrize("samples", [0, -3])
    def test_ball_rejects_sample_counts_without_evidence(self, cfg, samples):
        z = canonicalize(cfg, 0, 2.0)
        with pytest.raises(ValueError, match="samples must be >= 1"):
            ball_inclusion_radius(cfg, z, (1.5, 3.0), [0], samples=samples)

    def test_completeness_moduli_match_the_per_pair_bounds(self, cfg):
        rng = np.random.default_rng(5)
        seq = [self._point(cfg, rng, int(s)) for s in (0, 0, 3, 3, 7, 0, 12, 3)]
        seq.append(canonicalize(cfg, 0, glue=GluePointIndex(3, 2)))
        seq.append(seq[2])
        n = len(seq)
        upper = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                upper[i, j] = upper[j, i] = per_pair_upper_bound(cfg, seq[i], seq[j])[0]
        stats = completeness_probe(cfg, seq).tail_stats
        assert [s["cauchy_modulus_mobius"] for s in stats] == [
            float(upper[t:, t:].max()) for t in range(n - 1)
        ]

    def test_a_single_sheet_completeness_probe_makes_one_lift_call(self, cfg, monkeypatch):
        rng = np.random.default_rng(11)
        seq = [self._point(cfg, rng, 3) for _ in range(8)]
        calls = count_lift_calls(monkeypatch)
        completeness_probe(cfg, seq)
        # Every same-sheet pair in one call; row by row it would be seven.
        assert len(calls) == 1

    def test_noncompactness_uppers_match_the_per_pair_bounds(self, cfg):
        rep = noncompactness_probe(cfg, cfg.sheets)
        base = canonicalize(cfg, 0, cfg.annulus.sqrt_R)
        pts = [parse_point(cfg, s) for s in rep.points]
        assert rep.upper_bounds == [per_pair_upper_bound(cfg, base, pt)[0] for pt in pts]

    def test_ball_probe_makes_a_few_lift_calls_per_sheet(self, cfg, monkeypatch):
        calls = count_lift_calls(monkeypatch)
        z = canonicalize(cfg, 0, 2.0)
        assert ball_inclusion_radius(cfg, z, (1.8, 2.2), [0], samples=200) is not None
        # One call for the sheet-0 samples, one for every cross-sheet leg.
        assert 0 < len(calls) <= 2

    def test_noncompactness_probe_makes_a_few_lift_calls_per_sheet(self, cfg, monkeypatch):
        calls = count_lift_calls(monkeypatch)
        assert noncompactness_probe(cfg, cfg.sheets).passed
        # Every leg in one call: the basepoint's middle legs and every
        # probe's own leg; pair by pair it would be three per sheet.
        assert len(calls) == 1


class TestMidLegCache:
    """The exit-to-exit leg between two sheets >= 1, cached per (R, sheet pair)."""

    SHEET_PAIRS = [(1, 2), (2, 1), (5, 6), (1, 20), (20, 19)]

    @pytest.mark.parametrize("R", KERNEL_RADII)
    def test_equals_the_uncached_leg_bit_for_bit(self, R):
        cfg = SpaceConfig(AnnulusConfig(R=R, family_degree=2, grid_density=2), sheets=20)
        for s, t in self.SHEET_PAIRS:
            a, b = (_exits(cfg, canonicalize(cfg, n, cfg.annulus.sqrt_R)) for n in (s, t))
            leg = _mid_leg(R, s, t)
            assert leg.dtype == np.float64 and leg.shape == (len(a), len(b))
            assert leg.tobytes() == _poincare_upper(cfg.annulus, a[:, None], b).tobytes()

    def test_the_cached_leg_is_read_only(self):
        leg = _mid_leg(4.0, 5, 6)
        assert not leg.flags.writeable
        with pytest.raises(ValueError):
            leg[0, 0] = 0.0

    def test_the_cache_is_bounded(self):
        assert _mid_leg.cache_info().maxsize == MID_LEG_CACHE_SIZE
        assert MID_LEG_CACHE_SIZE * MAX_EXITS ** 2 * 8 <= 8 * 2 ** 20

    @pytest.mark.parametrize("R", KERNEL_RADII)
    def test_kernel_matches_the_per_pair_bound_cold_and_warm(self, R):
        kernel = TestUpperKernel()
        _mid_leg.cache_clear()
        kernel.test_matches_the_per_pair_bound_bit_for_bit(R, 20)
        cold = _mid_leg.cache_info()
        assert cold.misses > 0
        kernel.test_matches_the_per_pair_bound_bit_for_bit(R, 20)
        warm = _mid_leg.cache_info()
        assert warm.misses == cold.misses and warm.hits > cold.hits

    def test_a_repeated_sheet_pair_skips_the_mid_leg(self, cfg, monkeypatch):
        _mid_leg.cache_clear()
        calls = count_lift_calls(monkeypatch)
        p, q = canonicalize(cfg, 3, 2.0), canonicalize(cfg, 7, complex(1.5, 1.0))
        first = glued_upper_bound(cfg, p, q)
        # Both exit legs in one call, and the middle leg.
        assert len(calls) == 2
        del calls[:]
        # Another pair on the same sheets, under other family settings: the
        # leg is keyed on R and the sheet pair only.
        other = SpaceConfig(AnnulusConfig(R=4.0, family_degree=1, grid_density=5), sheets=12)
        p2, q2 = canonicalize(other, 3, complex(0.5, 2.5)), canonicalize(other, 7, -3.0)
        glued_upper_bound(other, p2, q2)
        assert len(calls) == 1
        assert glued_upper_bound(cfg, p, q) == first == per_pair_upper_bound(cfg, p, q)

    def test_a_sheet_zero_end_makes_one_lift_call(self, cfg, monkeypatch):
        # Its middle leg and the other end's exit leg share one call: the
        # sheet-0 end is its own exit, with no leg to itself.
        calls = count_lift_calls(monkeypatch)
        zero, seven = canonicalize(cfg, 0, 2.0), canonicalize(cfg, 7, complex(1.5, 1.0))
        for p, q in [(zero, seven), (seven, zero)]:
            del calls[:]
            bound = glued_upper_bound(cfg, p, q)
            assert len(calls) == 1
            assert bound == per_pair_upper_bound(cfg, p, q)

    def test_a_sheet_zero_end_bypasses_the_cache(self, cfg):
        _mid_leg.cache_clear()
        for p, q in [(canonicalize(cfg, 0, 2.0), canonicalize(cfg, 7, -2.0)),
                     (canonicalize(cfg, 7, -2.0), canonicalize(cfg, 0, 2.0)),
                     (canonicalize(cfg, 0, glue=GluePointIndex(3, 1)), canonicalize(cfg, 5, 2.0))]:
            assert glued_upper_bound(cfg, p, q) == per_pair_upper_bound(cfg, p, q)
        assert _mid_leg.cache_info().currsize == 0


class TestTruncationIndependence:
    """A bracket for points on sheets <= n reads nothing of the truncation
    depth N >= n: every lower-bound map extends to the whole space by 0 past
    sheet N, and every glue path lies in it, so the bracket is one for the
    whole space, the same at every N."""

    @pytest.mark.parametrize("n", [3, 8, 12, 16])
    def test_brackets_are_bitwise_equal_at_every_depth(self, n):
        R = 4.0
        rng = np.random.default_rng(n)
        sheets = rng.integers(0, n + 1, size=(6, 2))
        sheets[0] = (n, n)
        sheets[1] = (0, n)
        z = random_annulus_points(rng, R, 2 * len(sheets)).reshape(-1, 2)
        glue = GluePointIndex(n, int(rng.integers(1, 2 ** n + 1)))
        seen = []
        for N in sorted({n, 12, 20} - set(range(n))):
            _sheet_blaschke.cache_clear()
            _sheet_exits.cache_clear()
            cfg = SpaceConfig(AnnulusConfig(R=R, family_degree=2, grid_density=2), sheets=N)
            pairs = [(canonicalize(cfg, int(s1), z1), canonicalize(cfg, int(s2), z2))
                     for (s1, s2), (z1, z2) in zip(sheets, z)]
            pairs.append((canonicalize(cfg, 0, glue=glue), pairs[0][1]))
            brackets = [repr(glued_distance_bracket(cfg, p, q)) for p, q in pairs]
            # The tables the brackets read depend on (R, sheet) alone.
            tables = [(next(_sheet_blaschke(R, t).zero_chunks()).tobytes(),
                       _sheet_exits(R, t).tobytes()) for t in range(1, n + 1)]
            seen.append((brackets, tables))
        assert len(seen) >= 2 and all(other == seen[0] for other in seen[1:])


class TestBracketOrder:
    def test_violation_names_the_pair_as_text(self, cfg, monkeypatch):
        monkeypatch.setattr(glued_module, "glued_lower_bound", lambda *args: (0.99, "stub"))
        p, q = canonicalize(cfg, 0, 2.0), canonicalize(cfg, 3, 2.0)
        upper = glued_upper_bound(cfg, p, q)[0]
        with pytest.raises(BracketOrderError) as exc:
            glued_distance_bracket(cfg, p, q)
        assert str(exc.value) == (
            f"lower bound 0.99 exceeds upper bound {upper!r} for pair (0:2,0, 3:2,0)"
        )


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
        # The sweep cross-checks the proved constant; a sweep at another R
        # reads the table the first one filled.
        assert verify_one_over_e_products(2.0, 12).threshold_found == ONE_OVER_E_N0 == 1
        assert verify_one_over_e_products(4.0, 12).threshold_found == ONE_OVER_E_N0
        info = _block_log_moduli.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_the_cap_runs_no_sweep(self, monkeypatch):
        # n0 = 1 is proved, so neither the 2/e cap nor the probe sweeps for it.
        def fail(*args):
            raise AssertionError("the glued space ran the 1/e block sweep")

        monkeypatch.setattr(sweeps, "verify_one_over_e_products", fail)
        monkeypatch.setattr(glued_module, "verify_one_over_e_products", fail)
        cfg = SpaceConfig(AnnulusConfig(R=4.0, family_degree=2, grid_density=2), sheets=20)
        base = canonicalize(cfg, 0, cfg.annulus.sqrt_R)
        br = glued_distance_bracket(cfg, base, canonicalize(cfg, 20, cfg.annulus.sqrt_R))
        assert (br.upper, br.upper_witness) == (TWO_OVER_E, "2/e basepoint cap")
        rep = noncompactness_probe(cfg, cfg.sheets)
        assert rep.passed and rep.threshold_n0 == ONE_OVER_E_N0
        assert TWO_OVER_E in rep.upper_bounds

    @pytest.mark.parametrize("n_max", [1, 2])
    def test_needs_two_probe_sheets(self, cfg, n_max):
        # Sheet 1's copy of sqrt(R) is the basepoint, so n_max <= 2 leaves at
        # most one probe point and no pair to floor.
        with pytest.raises(ValueError, match="n_max >= 3"):
            noncompactness_probe(cfg, n_max)

    def test_smallest_probe_has_one_pair(self, cfg):
        rep = noncompactness_probe(cfg, 3)
        assert rep.passed and rep.points == ["2:2,0", "3:2,0"]
        assert rep.pairwise_lower_floor == glued_lower_bound(
            cfg, canonicalize(cfg, 2, 2.0), canonicalize(cfg, 3, 2.0))[0] > 0.0

    @pytest.mark.parametrize("R, n_max", [(1.5, 12), (4.0, 12), (10.0, 12), (4.0, 20), (1.001, 20)])
    def test_floor_is_the_per_pair_floor_from_one_sum_a_sheet(self, monkeypatch, R, n_max):
        deep = SpaceConfig(AnnulusConfig(R=R, family_degree=2, grid_density=2), sheets=n_max)
        pts = [canonicalize(deep, n, deep.annulus.sqrt_R) for n in range(2, n_max + 1)]
        per_pair = min(glued_lower_bound(deep, p, q)[0] for i, p in enumerate(pts) for q in pts[i + 1:])
        calls, log_abs_at = [], BlaschkeProduct.log_abs_at
        monkeypatch.setattr(BlaschkeProduct, "log_abs_at",
                            lambda *args: calls.append(1) or log_abs_at(*args))
        rep = noncompactness_probe(deep, n_max)
        assert rep.pairwise_lower_floor.hex() == per_pair.hex()
        assert len(calls) <= n_max - 1  # one sum per probe point at most, not two per pair
        if R == 1.001:
            # Sheets 19 and 20 drop their candidates (zeros within
            # EPS_BOUNDARY of the circle), so the two share a floor of 0.
            assert rep.pairwise_lower_floor == 0.0 and not rep.passed
        else:
            assert len(calls) == n_max - 1 and rep.passed

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
