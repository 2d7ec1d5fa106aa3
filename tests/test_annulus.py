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
    BracketOrderError,
    SpaceConfig,
    annulus_distance_bracket,
    annulus_lower_bound,
    annulus_upper_bound,
    covering_map,
    lift_enumeration,
    mobius_distance,
    parse_point,
    preimage_moduli,
    preimage_point,
    schwarz_pick_check,
)
from caralab.annulus import (
    _deck_window,
    _bracket,
    _ONE_MINUS,
    _prime,
    _prime_powers,
    lift_distances,
    minimize,
    preimage_modulus_sq_formula,
)
from conftest import near_circle_points, random_annulus_points


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


def reference_lift_distances(cfg, a, b):
    """The two-pass lift kernel, frozen: each point's lift on its own, the
    orientation axis stacked twice, and the |x| > 350 overflow guard as an
    explicit np.where."""
    a, b = np.broadcast_arrays(a, b)
    scale = math.pi / cfg.log_R

    def log_lift(w):
        w = np.asarray(w, dtype=complex)
        return -scale * np.angle(w), scale * (np.log(np.abs(w)) - 0.5 * cfg.log_R)

    (xa, ya), (xb, yb) = log_lift(a), log_lift(b)
    shifted = np.stack([xb, xa], -1)[..., None] - _deck_window(cfg.R)
    x = 0.5 * (np.stack([xa, xb], -1)[..., None] - shifted)
    p = 0.5 * (ya - yb)[..., None, None]
    q = 0.5 * (ya + yb)[..., None, None]
    with np.errstate(over="ignore", invalid="ignore"):
        sh2 = np.sinh(x) ** 2
        d = np.sqrt((sh2 + np.sin(p) ** 2) / (sh2 + np.cos(q) ** 2))
    return np.where(np.abs(x) > 350.0, _ONE_MINUS, np.minimum(d, _ONE_MINUS))


def zero_factor(R, q2k, zero, w):
    """P(w/zero) / P(w conj(zero) / R^2), broadcast over zero and w: one
    zero's factor of the degree-2 proper map."""
    x = w / zero
    p = _prime(np.stack([x, x * (np.abs(zero) / R) ** 2], axis=-1), q2k)
    return p[..., 0] / p[..., 1]


def degree2_map(R, w1, w2, w):
    q2k = _prime_powers(R)
    return zero_factor(R, q2k, w1, w) * zero_factor(R, q2k, w2, w) / w


def prime_ratio(q2k, x, x_conj):
    """P(x) / P(x_conj) for two scalar arguments: one zero's factor from the
    prime-function arguments it takes, in a prime-function call of its own."""
    p, p_conj = _prime(np.array([x, x_conj], dtype=complex), q2k).tolist()
    return p / p_conj


def radial_lower_bound(R, a, b):
    """The radial quotients' best value and witness; a quotient that rounds
    onto the unit circle is dropped."""
    return max(((mobius_distance(x, y), name) for x, y, name in
                ((a / R, b / R, "w/R"), (1.0 / a, 1.0 / b, "1/w"))
                if abs(x) < 1.0 and abs(y) < 1.0),
               default=(0.0, "trivial (both radial quotients round onto the unit circle)"))


def degree2_witness(zeros):
    return "degree-2 proper map, zeros " + ", ".join(
        f"{z.real:.17g}{z.imag:+.17g}i" for z in zeros)


def witness_zeros(witness):
    """The two zeros a degree-2 witness names, parsed back to complex."""
    text = witness.removeprefix("degree-2 proper map, zeros ")
    return [complex(z.replace("i", "j")) for z in text.split(", ")]


def reference_lower_bound(cfg, a, b):
    """The closed-form placement one orientation at a time: the fixed
    zero's factor and the second zero's factor in separate prime-function
    calls, then the clamp and a strict comparison with the best so far.
    Also returns each orientation's unclamped degree-2 value."""
    a, b = complex(a), complex(b)
    if a == b:
        return 0.0, "trivial (identical points)", []
    R = cfg.R
    best, witness = radial_lower_bound(R, a, b)
    q2k = _prime_powers(R)
    if cfg.family_degree == 1 or q2k is None:
        return best, witness, []
    # other / zero2 at the second zero -(R/|zero|) other/|other|.
    y = -(abs(a) * abs(b)) / R
    raw = []
    for zero, other in ((a, b), (b, a)):
        x0 = other / zero
        fixed = prime_ratio(q2k, x0, x0 * (abs(zero) / R) ** 2)
        raw.append(abs(fixed / other * prime_ratio(q2k, y, y / abs(zero) ** 2)))
        v = min(raw[-1], _ONE_MINUS)
        if v > best:
            best, witness = v, degree2_witness((zero, -(R / abs(zero)) * (other / abs(other))))
    return best, witness, raw


def reference_grid_lower_bound(cfg, a, b):
    """The grid search the closed-form placement replaced: per orientation,
    the second zero over 8 * grid_density angles from arg(other), the grid
    argmin, then the clamp and a strict comparison with the best so far."""
    a, b = complex(a), complex(b)
    if a == b:
        return 0.0, "trivial (identical points)"
    R = cfg.R
    best, witness = radial_lower_bound(R, a, b)
    q2k = _prime_powers(R)
    if cfg.family_degree == 1 or q2k is None:
        return best, witness
    n = 8 * cfg.grid_density
    for zero, other in ((a, b), (b, a)):
        rho = R / abs(zero)
        fixed = zero_factor(R, q2k, zero, other) / other
        grid = cmath.phase(other) + 2.0 * math.pi / n * np.arange(n)
        values = -np.abs(fixed * zero_factor(R, q2k, rho * np.exp(1j * grid), other))
        j = int(np.argmin(values))
        v = min(-float(values[j]), _ONE_MINUS)
        if v > best:
            best, witness = v, degree2_witness((zero, rho * cmath.exp(1j * float(grid[j]))))
    return best, witness


def inside(R, r, t):
    """The point r e^(it), moved inward by ulps until it and its radial
    quotients lie strictly inside their domains."""
    while True:
        w = cmath.rect(r, t)
        if 1.0 < abs(w) < R and abs(w / R) < 1.0 and abs(1.0 / w) < 1.0:
            return w
        r = math.nextafter(r, R if abs(w) <= 1.0 or abs(1.0 / w) >= 1.0 else 1.0)


class TestConfig:
    def test_rejects_degenerate_radius(self):
        with pytest.raises(ValueError):
            AnnulusConfig(R=1.0)
        with pytest.raises(ValueError):
            AnnulusConfig(R=4.0, grid_density=0)

    @pytest.mark.parametrize("degree", [0, 3, 4])
    def test_family_degree_is_one_or_two(self, degree):
        with pytest.raises(ValueError, match="family_degree must be 1 or 2"):
            AnnulusConfig(R=4.0, family_degree=degree)

    @pytest.mark.parametrize("R", [1.5, 4.0, 10.0])
    def test_default_family_is_degree_two(self, R):
        rng = np.random.default_rng(47)
        pts = random_annulus_points(rng, R, 40)
        default, degree2 = AnnulusConfig(R), AnnulusConfig(R, family_degree=2)
        for a, b in zip(pts[:20], pts[20:]):
            assert annulus_distance_bracket(default, a, b) == annulus_distance_bracket(
                degree2, a, b)


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
        # Row by row on a 2-D grid, every point counted.
        rows = np.stack([grid, grid + 0.5])
        res = minimize(lambda t: -np.cos(t - 1.234), rows)
        j = np.argmin(-np.cos(rows - 1.234), axis=1)
        assert res.x.tolist() == rows[[0, 1], j].tolist()
        assert res.fun.tolist() == (-np.cos(rows[[0, 1], j] - 1.234)).tolist()
        assert res.nfev == 32


FAMILY_RADII = [1.03, 1.1, 1.5, 4.0, 10.0, 1e3]


class TestBatchedFamily:
    """The degree-2 maps at their closed-form angle, both orientations in one
    prime-function call: the per-orientation reference bit for bit, never
    below the grid search it replaced, and re-evaluable from the witness."""

    @staticmethod
    def pairs(R, seed):
        rng = np.random.default_rng(seed)
        out = []
        for i in range(24):
            r1, r2 = R ** rng.uniform(0.01, 0.99, 2)
            t1, t2 = rng.uniform(-math.pi, math.pi, 2)
            # Every third pair has equal modulus.
            out.append((inside(R, r1, t1), inside(R, r1 if i % 3 == 0 else r2, t2)))
        # Next to the outer circle, against an end near the inner circle, at
        # sqrt(R) and R^0.3, on the same ray and off it: degree-2 values that
        # round past 1 and clamp to _ONE_MINUS, often tied with w/R.
        for inner in (1.0 + 1e-12, R ** 0.3, R ** 0.5):
            for dt in (0.0, 1.0, 3.0):
                t = rng.uniform(-math.pi, math.pi)
                out.append((inside(R, inner, t + dt), inside(R, R, t)))
        return out

    @staticmethod
    def near_circle_pairs(R):
        """Ends whose radial quotient rounds onto the unit circle, against
        sqrt(R) and each other."""
        inner, outer = near_circle_points(R)
        ends = inner[:2] + outer[:2]
        return [(w, cmath.rect(math.sqrt(R), 0.7)) for w in ends] + list(zip(ends, ends[1:]))

    def all_pairs(self, R, seed):
        return [(p, q) for a, b in self.pairs(R, seed) + self.near_circle_pairs(R)
                for p, q in ((a, b), (b, a))]

    @pytest.mark.parametrize("density", [1, 2, 3])
    @pytest.mark.parametrize("R", FAMILY_RADII)
    def test_matches_the_two_loop_search(self, R, density):
        cfg = AnnulusConfig(R=R, grid_density=density)
        clamped = 0
        for p, q in self.all_pairs(R, density):
            value, witness = annulus_lower_bound(cfg, p, q)
            expected, expected_witness, raw = reference_lower_bound(cfg, p, q)
            assert (value, witness) == (expected, expected_witness), (p, q)
            clamped += max(raw) >= _ONE_MINUS
        assert clamped >= 4

    @pytest.mark.parametrize("density", [1, 2, 3])
    @pytest.mark.parametrize("R", FAMILY_RADII)
    def test_never_below_the_grid_search(self, R, density):
        # The grid holds the closed-form angle (k = n/2), so it can beat it
        # only by rounding.
        cfg = AnnulusConfig(R=R, grid_density=density)
        for p, q in self.all_pairs(R, density):
            value = annulus_lower_bound(cfg, p, q)[0]
            grid = reference_grid_lower_bound(cfg, p, q)[0]
            assert value >= grid * (1.0 - 1e-13), (p, q)

    @pytest.mark.parametrize("R", FAMILY_RADII)
    def test_witness_zeros_re_evaluate_to_the_value(self, R):
        cfg = AnnulusConfig(R=R)
        checked = 0
        for p, q in self.all_pairs(R, 0):
            value, witness = annulus_lower_bound(cfg, p, q)
            if not witness.startswith("degree-2") or value >= _ONE_MINUS:
                continue
            w1, w2 = witness_zeros(witness)
            assert w1 in (p, q) and abs(abs(w1 * w2) - R) <= 1e-13 * R
            end = q if w1 == p else p
            assert abs(degree2_map(R, w1, w2, end)) == pytest.approx(value, rel=1e-13), (p, q)
            checked += 1
        assert checked >= 10

    @pytest.mark.parametrize("R", FAMILY_RADII)
    def test_grid_density_does_not_move_a_bracket(self, R):
        brackets = [
            [annulus_distance_bracket(AnnulusConfig(R=R, grid_density=d), p, q)
             for p, q in self.all_pairs(R, 5)]
            for d in (1, 2, 3)
        ]
        assert brackets[0] == brackets[1] == brackets[2]

    @pytest.mark.parametrize("inner, dt, winner", [
        # w/R clamps too and keeps the tie.
        (4.0 ** 0.3, 3.0, "w/R"),
        # Both orientations clamp; a's comes first and b's does not beat it.
        (1.0 + 1e-12, 0.0, "a"),
    ])
    def test_clamped_ties_keep_the_radial_then_first_orientation_order(self, inner, dt, winner):
        R = 4.0
        cfg = AnnulusConfig(R=R, grid_density=2)
        a, b = inside(R, inner, 0.3 + dt), inside(R, R, 0.3)
        value, witness = annulus_lower_bound(cfg, a, b)
        expected, expected_witness, raw = reference_lower_bound(cfg, a, b)
        assert (value, witness) == (expected, expected_witness)
        assert value == _ONE_MINUS and min(raw) >= _ONE_MINUS
        if winner == "a":
            # a's zero, and the second zero on the ray opposite b.
            assert witness == degree2_witness((a, -(R / abs(a)) * (b / abs(b))))
        else:
            assert witness == winner

    @pytest.mark.parametrize("density", [1, 2, 3])
    def test_one_prime_call_per_lower_bound(self, density, monkeypatch):
        import caralab.annulus as annulus
        import caralab.glued as glued

        calls = []

        def counting(x, q2k):
            calls.append(x.shape)
            return _prime(x, q2k)

        def searching(*args):
            raise AssertionError("the lower bound called minimize")

        monkeypatch.setattr(annulus, "_prime", counting)
        monkeypatch.setattr(annulus, "minimize", searching)
        cfg = AnnulusConfig(R=4.0, grid_density=density)
        for a, b in ((2.0 + 0.5j, -1.5 + 1.2j), (2.0, 2.0j), (1.1, 3.9 + 0.1j)):
            calls.clear()
            annulus_lower_bound(cfg, a, b)
            # Both orientations' fixed-zero pairs, the shared real value
            # -|a||b|/R and its two conjugate arguments: at most 8.
            assert len(calls) == 1 and math.prod(calls[0]) <= 8
        # A glued cross-sheet bound pulls back one annulus lower bound.
        space = SpaceConfig(cfg, sheets=4)
        calls.clear()
        glued.glued_lower_bound(space, parse_point(space, "0:2,0.5"),
                                parse_point(space, "3:-1.5,1.2"))
        assert len(calls) == 1 and math.prod(calls[0]) <= 8


class TestFamilyMonotonicity:
    @given(annulus_pairs(), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_lower_bound_never_drops_as_the_family_grows(self, pair, d):
        # Degree 1 is the radial quotients alone; degree 2 adds the proper
        # maps.  grid_density is not read, so doubling it moves nothing.
        R, a, b = pair

        def lower(degree, density):
            return annulus_lower_bound(AnnulusConfig(R, degree, density), a, b)[0]

        assert lower(1, d) <= lower(2, d) == lower(2, 2 * d)


# The usual radii, then the limits R -> 1+ and large R.
AUTOMORPHISM_RADII = (1.5, 4.0, 10.0, 1.03, 1e3, 1e12)


class TestAutomorphismInvariance:
    @given(annulus_pairs(radii=AUTOMORPHISM_RADII), st.floats(0.0, 2.0 * math.pi))
    @settings(max_examples=60, deadline=None)
    def test_rotation(self, pair, phi):
        R, a, b = pair
        cfg, u = AnnulusConfig(R=R), cmath.exp(1j * phi)
        for bound in (annulus_lower_bound, annulus_upper_bound):
            assert bound(cfg, u * a, u * b)[0] == pytest.approx(bound(cfg, a, b)[0], abs=1e-12)

    @given(annulus_pairs(radii=AUTOMORPHISM_RADII))
    @settings(max_examples=60, deadline=None)
    def test_inversion(self, pair):
        R, a, b = pair
        cfg = AnnulusConfig(R=R)
        for bound in (annulus_lower_bound, annulus_upper_bound):
            assert bound(cfg, R / a, R / b)[0] == pytest.approx(bound(cfg, a, b)[0], abs=1e-12)

    @given(annulus_pairs(radii=AUTOMORPHISM_RADII))
    @settings(max_examples=60, deadline=None)
    def test_conjugation(self, pair):
        # w -> conj(w) is an anti-holomorphic automorphism of A(R); both
        # distances are invariant under it.
        R, a, b = pair
        cfg = AnnulusConfig(R=R)
        for bound in (annulus_lower_bound, annulus_upper_bound):
            assert bound(cfg, a.conjugate(), b.conjugate())[0] == pytest.approx(
                bound(cfg, a, b)[0], abs=1e-12)


class TestLiftKernel:
    """lift_distances against the frozen two-pass kernel: byte for byte on
    the three lifts it keeps, and the same minimum as the full window."""

    @staticmethod
    def points(R, rng, shape):
        r = R ** rng.uniform(0.01, 0.99, shape)
        return r * np.exp(1j * rng.uniform(-math.pi, math.pi, shape))

    @pytest.mark.parametrize("R", [1.0 + 1e-6, 1.5, 4.0, 10.0, 1e3, 1e12])
    def test_matches_the_two_pass_kernel(self, R):
        cfg = AnnulusConfig(R=R)
        rng = np.random.default_rng(59)
        a, b = self.points(R, rng, 2)
        column, row = self.points(R, rng, (5, 1)), self.points(R, rng, 7)
        cases = [
            (a, b), (b, a), (a, a), (complex(a), b),
            (a, self.points(R, rng, 32)), (self.points(R, rng, 32), b),
            (column, row), (self.points(R, rng, (2, 3)), self.points(R, rng, (2, 3))),
            # Equal modulus, and the same point half a turn round.
            (abs(a), abs(a) * 1j), (a, -a),
        ]
        K = len(_deck_window(R)) // 2
        guarded = 0
        for p, q in cases:
            got = lift_distances(cfg, p, q)
            # The reference keeps its full window; k = -1, 0, 1 are its
            # columns K - 1 .. K + 1.
            expected = reference_lift_distances(cfg, p, q)[..., K - 1:K + 2]
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.shape[-2:] == (2, 3)
            assert got.tobytes() == expected.tobytes(), (p, q)
            guarded += np.count_nonzero(expected == _ONE_MINUS)
        if R < 1.5:
            # Deck shifts of 2 pi^2 / ln R ~ 2e7 put |x| far past 350.
            assert guarded > 0

    @staticmethod
    def edge_pairs(R):
        """Pairs with D = Re L_a - Re L_b = +-shift (one end at arg pi with
        imag +0.0, the other at -0.0 or -1e-300), coincident pairs and
        equal-modulus pairs, in both orders."""
        r1, r2 = R ** 0.3, R ** 0.8
        pairs = [
            (complex(-r1, 0.0), complex(-r2, -0.0)),
            (complex(-r1, 0.0), complex(-r1, -0.0)),
            (complex(-r1, 0.0), complex(-r2, -1e-300)),
            (complex(-r2, 1e-300), complex(-r1, -1e-300)),
            (complex(r1, r1), complex(r1, r1)),
            (complex(-r2, 0.0), complex(-r2, 0.0)),
            (r1 + 0j, r1 * 1j), (r1 + 0j, -r1 + 0j), (r2 * 1j, -r2 * 1j),
            (cmath.rect(r2, 3.0), cmath.rect(r2, -3.0)),
        ]
        return pairs + [(b, a) for a, b in pairs]

    @pytest.mark.parametrize("R", [1.0 + 1e-6, 1.03, 1.5, 4.0, 10.0, 1e3, 1e12, 1e100])
    def test_three_lifts_give_the_full_window_minimum(self, R):
        cfg = AnnulusConfig(R=R)
        rng = np.random.default_rng(61)
        a, b = self.points(R, rng, (2, 200))
        edge = np.array(self.edge_pairs(R)).T
        a, b = np.concatenate([a, edge[0]]), np.concatenate([b, edge[1]])
        got = lift_distances(cfg, a, b).reshape(len(a), -1)
        full = reference_lift_distances(cfg, a, b).reshape(len(a), -1)
        K = len(_deck_window(R)) // 2
        minimum = got.min(axis=1)
        assert minimum.tobytes() == full.min(axis=1).tobytes()
        # (orientation, k) of the first minimum in each table.
        kept = np.divmod(got.argmin(axis=1), 3)
        window = np.divmod(full.argmin(axis=1), 2 * K + 1)
        agree = (kept[0] == window[0]) & (kept[1] - 1 == window[1] - K)
        saturated = minimum == _ONE_MINUS
        assert np.all(agree | saturated)
        # A saturated pair's first minimum is lift k = -1.
        assert np.all(kept[1][saturated] == 0)


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
        assert len(_deck_window(4.0)) == 2 * 4 + 1
        assert len(_deck_window(1e12)) == 2 * 57 + 1

    @pytest.mark.parametrize("R", [1.0 + 1e-6, 4.0, 1e12])
    def test_per_R_tables_are_read_only_and_stable_across_a_cache_clear(self, R):
        shift = 2.0 * math.pi ** 2 / math.log(R)
        K = 1 + math.ceil(40.0 / shift)
        tables = (_deck_window(R), _prime_powers(R))
        assert tables[0].tobytes() == (np.arange(-K, K + 1) * shift).tobytes()
        # A second call at one R reads the cached table.
        assert _deck_window(R) is tables[0]
        for table in (t for t in tables if t is not None):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 0.0
        _deck_window.cache_clear()
        _prime_powers.cache_clear()
        again = (_deck_window(R), _prime_powers(R))
        for old, new in zip(tables, again):
            assert (old is None and new is None) or old.tobytes() == new.tobytes()

    @pytest.mark.parametrize("R", [1.0 + 1e-6, 1.5, 4.0, 1e3, 1e12])
    def test_matches_scalar_scan_over_a_wider_window(self, R):
        # No lift outside k = -1, 0, 1 wins, even over a window of |k| <= 4K.
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
            assert abs(int(witness.split()[1].removeprefix("k="))) <= 1


class TestNearCircle:
    """An end within 2e-15 of a circle whose radial quotient rounds onto the
    unit circle drops that quotient; the bracket is still certified."""

    def test_the_reported_pair(self):
        a = 0.22583132917718896 + 0.9741664184122056j
        assert abs(a) > 1.0 and abs(1.0 / a) == 1.0
        br = annulus_distance_bracket(AnnulusConfig(R=4.0), a, 2.0)
        assert 0.0 < br.lower <= br.upper and br.lower_witness != "1/w"

    @pytest.mark.parametrize("R", [1.5, 4.0, 10.0])
    def test_a_quotient_on_the_circle_is_dropped(self, R):
        inner, outer = near_circle_points(R)
        # 1 / w rounds onto the circle at every radius; w / R only where R
        # is not a power of two, and rarely.
        assert len(inner) >= 20 and (R != 1.5 or outer)
        partners = (math.sqrt(R) + 0j, -1j * R ** 0.3, R ** 0.8 + 0j)
        for degree in (1, 2):
            cfg = AnnulusConfig(R=R, family_degree=degree, grid_density=1)
            for w in inner + outer:
                dropped = "1/w" if w in inner else "w/R"
                for other in partners:
                    for a, b in ((w, other), (other, w)):
                        br = annulus_distance_bracket(cfg, a, b)
                        assert 0.0 < br.lower <= br.upper, (a, b)
                        assert br.lower_witness != dropped
                        # What remains is the bound without the dropped quotient.
                        kept = "w/R" if dropped == "1/w" else "1/w"
                        if degree == 1:
                            x, y = (a / R, b / R) if kept == "w/R" else (1.0 / a, 1.0 / b)
                            assert (br.lower, br.lower_witness) == (mobius_distance(x, y), kept)

    def test_both_quotients_dropped(self):
        R = 1.5
        inner, outer = near_circle_points(R)
        a, b = inner[0], outer[0]
        low = annulus_distance_bracket(AnnulusConfig(R=R, family_degree=1), a, b)
        assert low.lower == 0.0 and low.lower_witness.startswith("trivial")
        # The degree-2 family still applies.
        br = annulus_distance_bracket(AnnulusConfig(R=R), a, b)
        assert br.lower > 0.5 and br.lower_witness.startswith("degree-2")


class TestBracket:
    @staticmethod
    def stub_bracket(lower, upper):
        return _bracket(None, 2j, 3 + 0j, lambda *args: (lower, "lower"),
                        lambda *args: (upper, "upper"), repr)

    def test_order_noise_is_clamped(self):
        br = self.stub_bracket(0.5 + 5e-10, 0.5)
        assert (br.lower, br.upper, br.lower_witness) == (0.5, 0.5, "lower")

    def test_order_violation_names_the_pair(self):
        with pytest.raises(
            BracketOrderError,
            match=r"^lower bound 0\.6 exceeds upper bound 0\.5 for pair \(2j, \(3\+0j\)\)$",
        ):
            self.stub_bracket(0.6, 0.5)

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
