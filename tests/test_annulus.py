import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caralab import (
    AnnulusConfig,
    AnnulusDomainError,
    BoundConstants,
    annulus_distance_bracket,
    annulus_lower_bound,
    annulus_upper_bound,
    covering_map,
    lift_enumeration,
    mobius_distance,
    preimage_moduli,
    preimage_point,
    schwarz_pick_check,
)
from caralab.annulus import (
    _deck_shifts,
    _prime_powers,
    _zero_factor,
    minimize,
    preimage_modulus_sq_formula,
)
from conftest import random_annulus_points


@st.composite
def annulus_pairs(draw, radii=(1.5, 4.0, 10.0)):
    """(R, a, b) with a and b 2 % of the width off both boundary circles."""
    R = draw(st.sampled_from(radii))

    def point():
        r = draw(st.floats(1.0 + 0.02 * (R - 1.0), R - 0.02 * (R - 1.0)))
        return cmath.rect(r, draw(st.floats(-math.pi, math.pi)))

    return R, point(), point()


def reference_upper_bound(R, a, b, K):
    """The scalar lift scan: min over |k| <= K and both orientations of the
    disk distance between a principal lift and deck lift k, in L-space."""
    log_R = math.log(R)
    scale = math.pi / log_R

    def lift(w):
        return complex(-scale * cmath.phase(w), scale * (math.log(abs(w)) - 0.5 * log_R))

    def distance(L1, L2):
        x = 0.5 * (L1.real - L2.real)
        p = 0.5 * (L1.imag - L2.imag)
        q = 0.5 * (L1.imag + L2.imag)
        if abs(x) > 350.0:
            return math.nextafter(1.0, 0.0)
        sh2 = math.sinh(x) ** 2
        d = math.sqrt((sh2 + math.sin(p) ** 2) / (sh2 + math.cos(q) ** 2))
        return min(d, math.nextafter(1.0, 0.0))

    shift = 2.0 * math.pi ** 2 / log_R
    return min(distance(lift(first), lift(second) - k * shift)
               for first, second in ((a, b), (b, a)) for k in range(-K, K + 1))


def degree2_map(R, w1, w2, w):
    q2k = _prime_powers(R)
    return _zero_factor(R, q2k, w1, w) * _zero_factor(R, q2k, w2, w) / w


class TestConfig:
    def test_rejects_degenerate_radius(self):
        with pytest.raises(ValueError):
            AnnulusConfig(R=1.0)
        with pytest.raises(ValueError):
            AnnulusConfig(R=4.0, grid_density=0)


class TestCoveringMap:
    @pytest.mark.parametrize("R", [1.5, 2.0, math.e, 4.0, 10.0])
    def test_origin_maps_to_sqrt_R(self, R):
        cfg = AnnulusConfig(R=R)
        assert covering_map(cfg, 0.0) == pytest.approx(math.sqrt(R), rel=1e-12)

    def test_fourth_preimage_for_R4(self):
        cfg = AnnulusConfig(R=4.0)
        w = covering_map(cfg, preimage_point(4))
        assert abs(w) == pytest.approx(4.0 ** 0.75, rel=1e-12)

    def test_rejects_exterior_argument(self):
        cfg = AnnulusConfig(R=4.0)
        with pytest.raises(AnnulusDomainError):
            covering_map(cfg, complex(0.9, 0.5))


class TestPreimagePoint:
    def test_second_preimage_is_origin(self):
        assert preimage_point(2) == 0.0

    def test_fourth_preimage_closed_form(self):
        # x(4) = -i tan(pi/8)
        x = preimage_point(4)
        assert x == pytest.approx(-1j * math.tan(math.pi / 8.0), abs=1e-15)
        assert abs(x) == pytest.approx(math.tan(math.pi / 8.0), abs=1e-15)

    def test_modulus_squared_identity(self):
        ms = np.array([2, 3, 4, 7, 10, 100, 12345])
        sq = preimage_moduli(ms) ** 2
        assert np.max(np.abs(sq - preimage_modulus_sq_formula(ms))) <= 1e-12

    def test_moduli_match_a_40_digit_reference(self):
        # |x(m)| = tan(pi/4 - pi/(2m)) for m = 2..200 and 3,000 random m < 2^21.
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(19)
        ms = np.concatenate([np.arange(2, 201), rng.integers(201, 2 ** 21, 3000)])
        x = preimage_moduli(ms)
        assert x[0] == 0.0
        with mpmath.workdps(40):
            worst = max(
                abs(mpmath.mpf(float(v)) / mpmath.tan(mpmath.pi / 4 - mpmath.pi / (2 * int(m))) - 1)
                for m, v in zip(ms[1:], x[1:])
            )
        assert worst <= 4e-16

    def test_large_index_two_pi_scaling(self):
        m = 1000
        x = preimage_point(m)
        assert (m + 1) * (1.0 - abs(x) ** 2) == pytest.approx(2.0 * math.pi, rel=1e-2)

    def test_rejects_small_index(self):
        with pytest.raises(ValueError):
            preimage_point(1)

    @pytest.mark.parametrize("R", [1.5, 4.0, 10.0])
    @pytest.mark.parametrize("m", [2, 3, 4, 10, 100, 10_000])
    def test_covering_map_sends_preimage_to_radial_power(self, R, m):
        cfg = AnnulusConfig(R=R)
        w = covering_map(cfg, preimage_point(m))
        assert abs(w) == pytest.approx(R ** (1.0 - 1.0 / m), rel=1e-10)


class TestLiftEnumeration:
    def test_principal_lift_of_sqrt_R(self, acf):
        lifts = lift_enumeration(acf, acf.sqrt_R)
        assert any(z == 0.0 for z in lifts)

    def test_round_trip_identity(self, acf):
        rng = np.random.default_rng(23)
        for w in random_annulus_points(rng, acf.R, 20):
            lifts = lift_enumeration(acf, w)
            assert lifts
            for z in lifts:
                assert abs(covering_map(acf, z) - w) <= 1e-10 * abs(w)

    def test_radial_power_lift_matches_preimage(self, acf):
        w = acf.R ** 0.75
        lifts = lift_enumeration(acf, w)
        assert min(abs(z - preimage_point(4)) for z in lifts) <= 1e-12

    def test_rejects_points_outside_annulus(self, acf):
        with pytest.raises(AnnulusDomainError):
            lift_enumeration(acf, 0.5)
        with pytest.raises(AnnulusDomainError):
            lift_enumeration(acf, acf.R + 1.0)


class TestLowerBound:
    def test_coincident_points_give_zero(self, acf):
        v, _ = annulus_lower_bound(acf, complex(1.5, 0.5), complex(1.5, 0.5))
        assert v == 0.0

    def test_radial_quotient_value_for_R4_m4(self, acf):
        # w/R on the pair (sqrt(R), R^(3/4)): (2 - sqrt(2)) / (2 sqrt(2) - 1)
        v, _ = annulus_lower_bound(acf, 2.0, 4.0 ** 0.75)
        expected = (2.0 - math.sqrt(2.0)) / (2.0 * math.sqrt(2.0) - 1.0)
        assert v >= expected - 1e-12

    def test_dominates_one_minus_K_over_m(self, acf):
        consts = BoundConstants.for_radius(acf.R)
        for m in (16, 64, 1024):
            v, _ = annulus_lower_bound(acf, acf.sqrt_R, acf.R ** (1.0 - 1.0 / m))
            assert v >= 1.0 - consts.K_of_R / m - 1e-12

    def test_family_members_contract(self, acf):
        # Certification rests on each family member mapping into the disk
        # and contracting; spot-check the two radial quotients.
        rng = np.random.default_rng(31)
        pts = random_annulus_points(rng, acf.R, 40)
        pairs = list(zip(pts[:20], pts[20:]))
        for f in (lambda w: w / acf.R, lambda w: 1.0 / w):
            lifted = [
                (next(iter(lift_enumeration(acf, a))), next(iter(lift_enumeration(acf, b))))
                for a, b in pairs
            ]
            ok, _ = schwarz_pick_check(
                lambda z, f=f: f(covering_map(acf, z)), lifted, eps_check=1e-9
            )
            assert ok

    @pytest.mark.parametrize("R", [1.5, 4.0, 10.0])
    @given(r=st.floats(0.0, 1.0), t1=st.floats(-math.pi, math.pi), t2=st.floats(-math.pi, math.pi))
    @settings(max_examples=25, deadline=None)
    def test_degree2_map_is_unimodular_on_both_circles(self, R, r, t1, t2):
        w1 = cmath.rect(1.0 + (0.01 + 0.98 * r) * (R - 1.0), t1)
        w2 = cmath.rect(R / abs(w1), t2)
        t = np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False)
        for radius in (1.0, R):
            w = radius * np.exp(1j * t)
            assert np.max(np.abs(np.abs(degree2_map(R, w1, w2, w)) - 1.0)) <= 1e-12

    @pytest.mark.parametrize("R, floor", [(4.0, 0.9415), (10.0, 0.7453)])
    def test_degree2_map_on_equal_modulus_pair(self, R, floor):
        r = math.sqrt(R)
        br = annulus_distance_bracket(AnnulusConfig(R=R), r, 1j * r)
        assert floor <= br.lower <= br.upper
        assert br.lower_witness.startswith("degree-2 proper map")

    @given(annulus_pairs())
    @settings(max_examples=40, deadline=None)
    def test_reaches_the_antipodal_placement(self, pair):
        # Second zero on the ray opposite b: the closed-form placement.
        R, a, b = pair
        w2 = cmath.rect(R / abs(a), cmath.phase(b) + math.pi)
        v, _ = annulus_lower_bound(AnnulusConfig(R=R), a, b)
        assert v >= abs(degree2_map(R, a, w2, b)) - 1e-12

    @given(annulus_pairs(radii=(1.0 + 1e-6,)))
    @settings(max_examples=20, deadline=None)
    def test_thin_annulus_falls_back_to_radial_quotients(self, pair):
        R, a, b = pair
        assert _prime_powers(R) is None
        br = annulus_distance_bracket(AnnulusConfig(R=R), a, b)
        assert 0.0 <= br.lower <= br.upper < 1.0
        assert br.lower_witness in ("w/R", "1/w", "trivial (identical points)")

    def test_minimize_takes_the_grid_argmin(self):
        grid = 2.0 * math.pi / 16 * np.arange(16)
        res = minimize(lambda t: -np.cos(t - 1.234), grid)
        j = int(np.argmin(-np.cos(grid - 1.234)))
        assert (res.x, res.fun, res.nfev) == (grid[j], -math.cos(grid[j] - 1.234), len(grid))


class TestFamilyMonotonicity:
    @given(annulus_pairs(), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_lower_bound_never_drops_as_the_family_grows(self, pair, d):
        # Degree 1 is the radial quotients alone; degree 2 adds the proper
        # maps.  The 16d-angle grid holds the 8d-angle grid bit for bit.
        R, a, b = pair

        def lower(degree, density):
            return annulus_lower_bound(AnnulusConfig(R, degree, density), a, b)[0]

        assert lower(1, d) <= lower(2, d) <= lower(2, 2 * d)


class TestAutomorphismInvariance:
    @given(annulus_pairs(), st.floats(0.0, 2.0 * math.pi))
    @settings(max_examples=40, deadline=None)
    def test_rotation(self, pair, phi):
        R, a, b = pair
        cfg, u = AnnulusConfig(R=R), cmath.exp(1j * phi)
        for bound in (annulus_lower_bound, annulus_upper_bound):
            assert bound(cfg, u * a, u * b)[0] == pytest.approx(bound(cfg, a, b)[0], abs=1e-12)

    @given(annulus_pairs())
    @settings(max_examples=40, deadline=None)
    def test_inversion(self, pair):
        R, a, b = pair
        cfg = AnnulusConfig(R=R)
        for bound in (annulus_lower_bound, annulus_upper_bound):
            assert bound(cfg, R / a, R / b)[0] == pytest.approx(bound(cfg, a, b)[0], abs=1e-12)


class TestUpperBound:
    def test_coincident_points_give_zero(self, acf):
        v, _ = annulus_upper_bound(acf, complex(1.5, 0.5), complex(1.5, 0.5))
        assert v == 0.0

    def test_dominated_by_preimage_modulus(self, acf):
        for m in (3, 4, 10, 50):
            v, _ = annulus_upper_bound(acf, acf.sqrt_R, acf.R ** (1.0 - 1.0 / m))
            assert v <= abs(preimage_point(m)) + 1e-12

    def test_linear_cap_past_threshold(self, acf):
        for m in (4, 10, 100):
            v, _ = annulus_upper_bound(acf, acf.sqrt_R, acf.R ** (1.0 - 1.0 / m))
            assert v <= 1.0 - 2.0 / (m + 1.0) + 1e-12

    def test_deck_window_is_derived_from_R(self):
        # K = 1 + ceil(40 / shift) with shift = 2 pi^2 / ln R.
        assert len(_deck_shifts(AnnulusConfig(R=4.0))) == 2 * 4 + 1
        assert len(_deck_shifts(AnnulusConfig(R=1e12))) == 2 * 57 + 1

    @pytest.mark.parametrize("R", [1.0 + 1e-6, 1.5, 4.0, 1e3, 1e12])
    def test_matches_scalar_scan_over_a_wider_window(self, R):
        # No lift outside the derived window |k| <= K wins, even over 4K.
        cfg = AnnulusConfig(R=R)
        K = 1 + math.ceil(40.0 * math.log(R) / (2.0 * math.pi ** 2))
        rng = np.random.default_rng(53)
        radii = R ** rng.uniform(0.01, 0.99, (2, 30))
        pts = radii * np.exp(1j * rng.uniform(-math.pi, math.pi, (2, 30)))
        pairs = [*zip(pts[0], pts[1]), (radii[0, 0], radii[0, 0] * 1j),
                 (pts[0, 1], pts[0, 1] * cmath.exp(1e-3j))]
        for a, b in pairs:
            v, witness = annulus_upper_bound(cfg, a, b)
            # Same arithmetic order; numpy's log, angle and sinh may round
            # differently from math's in the last place.
            assert v == pytest.approx(reference_upper_bound(R, a, b, 4 * K), abs=1e-15)
            assert abs(int(witness.split()[1].removeprefix("k="))) <= K


class TestBracket:
    def test_degenerate_pair(self, acf):
        br = annulus_distance_bracket(acf, complex(2.0, 0.1), complex(2.0, 0.1))
        assert br.lower == br.upper == 0.0

    def test_basepoint_pair_contains_known_interval(self, acf):
        consts = BoundConstants.for_radius(acf.R)
        br = annulus_distance_bracket(acf, 2.0, 4.0 ** 0.75)
        assert br.lower >= max(0.0, 1.0 - consts.K_of_R / 4.0)
        assert br.upper <= abs(preimage_point(4)) + 1e-12
        assert br.lower <= br.upper

    def test_same_modulus_pair_is_ordered(self, acf):
        br = annulus_distance_bracket(acf, 2.0, 2.0j)
        assert 0.0 < br.lower <= br.upper < 1.0
        assert br.lower_witness and br.upper_witness

    def test_random_pairs_ordered_and_symmetric(self, acf):
        rng = np.random.default_rng(41)
        pts = random_annulus_points(rng, acf.R, 60)
        for a, b in zip(pts[:30], pts[30:]):
            br = annulus_distance_bracket(acf, a, b)
            rb = annulus_distance_bracket(acf, b, a)
            assert br.lower <= br.upper
            assert br.lower == pytest.approx(rb.lower, abs=1e-12)
            assert br.upper == pytest.approx(rb.upper, abs=1e-12)

    @pytest.mark.parametrize("R", [1.5, 2.0, 10.0])
    def test_other_radii(self, R):
        acf = AnnulusConfig(R=R, family_degree=1)
        rng = np.random.default_rng(43)
        pts = random_annulus_points(rng, R, 20)
        for a, b in zip(pts[:10], pts[10:]):
            br = annulus_distance_bracket(acf, a, b)
            assert 0.0 <= br.lower <= br.upper < 1.0
