import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caralab import (
    BlaschkeProduct,
    DiskDomainError,
    disk_automorphism,
    mobius_distance,
    poincare_distance,
    preimage_point,
    schwarz_pick_check,
)
from caralab.disk import _CHUNK
from caralab.glued import _sheet_blaschke
from conftest import random_disk_points

disk_points = st.builds(
    lambda r, th: math.sqrt(r) * 0.95 * cmath.exp(1j * th),
    st.floats(0.0, 1.0),
    st.floats(0.0, 2.0 * math.pi),
)


# (zeros, z) checked against 40-digit references.  Sheet 14 at R = 4: 2^14
# real zeros crowding 1, at an interior point and 2 % off the outer circle,
# just off the real axis.  Then complex zeros, one of them tiny; the last
# point sits next to a zero.
REFERENCE_CASES = [
    ("sheet14", complex(2.0, 0.5) / 4.0),
    ("sheet14", cmath.rect(0.98, 0.05)),
    ((0.5 + 0.3j, -0.2 + 0.7j, 0.9j, -0.6 - 0.1j, 1e-160j), 0.3 - 0.4j),
    ((0.5 + 0.3j, -0.2 + 0.7j, 0.9j, -0.6 - 0.1j, 1e-160j), cmath.rect(0.97, 2.0)),
    ((0.5 + 0.3j, -0.2 + 0.7j, 0.9j, -0.6 - 0.1j), 0.5 + 0.3000001j),
]


class TestMobiusDistance:
    def test_center_case_reduces_to_modulus(self):
        assert mobius_distance(0.0, complex(0.3, 0.4)) == pytest.approx(0.5, abs=1e-15)

    def test_identity_of_indiscernibles(self):
        assert mobius_distance(0.7, 0.7) == 0.0

    def test_antipodal_half_points(self):
        # |(0.5 - (-0.5)) / (1 + 0.25)| = 0.8
        assert mobius_distance(0.5, -0.5) == pytest.approx(0.8, abs=1e-15)

    def test_antipodal_half_points_against_blaschke_sup(self):
        # Independent oracle: sup of |B(b)| over Blaschke factors vanishing
        # at a; the phase grid only confirms phase-invariance of the sup.
        a, b = 0.5, -0.5
        sup = max(
            abs(cmath.exp(1j * th) * (b - a) / (1 - a * b))
            for th in np.linspace(0.0, 2.0 * math.pi, 360)
        )
        assert mobius_distance(a, b) == pytest.approx(sup, abs=1e-12)

    def test_rejects_boundary_and_exterior(self):
        with pytest.raises(DiskDomainError):
            mobius_distance(1.0, 0.0)
        with pytest.raises(DiskDomainError):
            mobius_distance(0.0, complex(0.8, 0.7))

    def test_strictly_below_one(self):
        rng = np.random.default_rng(7)
        pts = random_disk_points(rng, 400, max_radius=0.999)
        for a, b in zip(pts[::2], pts[1::2]):
            assert mobius_distance(a, b) < 1.0

    @given(disk_points, disk_points)
    def test_symmetry_exact(self, a, b):
        assert mobius_distance(a, b) == mobius_distance(b, a)

    @given(disk_points, disk_points, disk_points, st.floats(0.0, 2.0 * math.pi))
    @settings(max_examples=200)
    def test_automorphism_invariance(self, a, b, c, th):
        phi = disk_automorphism(c, th)
        d1 = mobius_distance(a, b)
        d2 = mobius_distance(phi(a), phi(b))
        assert d2 == pytest.approx(d1, abs=1e-12)


class TestPoincareDistance:
    def test_zero_at_coincident_points(self):
        assert poincare_distance(0.0, 0.0) == 0.0

    def test_inverts_tanh(self):
        assert poincare_distance(0.0, math.tanh(1.0)) == pytest.approx(1.0, abs=1e-14)

    def test_antipodal_half_points(self):
        assert poincare_distance(0.5, -0.5) == pytest.approx(math.atanh(0.8), abs=1e-14)

    def test_metric_axioms_on_random_triples(self):
        rng = np.random.default_rng(11)
        pts = random_disk_points(rng, 3000)
        for a, b, c in zip(pts[::3], pts[1::3], pts[2::3]):
            dab, dba = poincare_distance(a, b), poincare_distance(b, a)
            assert dab == dba
            assert dab <= poincare_distance(a, c) + poincare_distance(c, b) + 1e-12


class TestBlaschkeProduct:
    def test_single_zero_at_origin_is_identity(self):
        B = BlaschkeProduct(zeros=(0.0,))
        assert B(0.5) == pytest.approx(0.5, abs=1e-15)

    def test_vanishes_at_a_zero(self):
        B = BlaschkeProduct(zeros=(0.5,))
        assert B(0.5) == 0.0

    def test_first_sheet_preimage_zeros_vanish_at_origin(self):
        # x(2) = 0 forces the whole product to vanish at 0.
        B = BlaschkeProduct(zeros=(preimage_point(2), preimage_point(3)))
        assert abs(B(0.0)) == 0.0

    def test_rejects_zero_near_circle(self):
        with pytest.raises(DiskDomainError):
            BlaschkeProduct(zeros=(1.0 - 1e-12,))

    def test_rejects_evaluation_outside(self):
        B = BlaschkeProduct(zeros=(0.2,))
        with pytest.raises(DiskDomainError):
            B(complex(0.9, 0.5))

    @given(st.lists(disk_points.map(lambda z: 0.9 * z), min_size=1, max_size=8))
    @settings(max_examples=100)
    def test_modulus_at_origin_is_product_of_zero_moduli(self, zeros):
        B = BlaschkeProduct(zeros=tuple(zeros))
        expected = math.fsum(math.log(abs(z)) for z in zeros) if all(
            z != 0 for z in zeros
        ) else -math.inf
        assert B.log_abs_at(0.0) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_log_space_survives_many_factors(self):
        # 2^20 moduli ~0.9 underflow as a direct product; the log sum is fine.
        rng = np.random.default_rng(3)
        zeros = tuple(0.9 * np.exp(1j * rng.uniform(0, 2 * math.pi, 1 << 12)))
        B = BlaschkeProduct(zeros=zeros)
        assert math.isfinite(B.log_abs_at(0.05))

    @pytest.mark.parametrize("zeros, z", REFERENCE_CASES)
    def test_log_abs_matches_a_40_digit_reference(self, zeros, z):
        mpmath = pytest.importorskip("mpmath")
        B = _sheet_blaschke(4.0, 14) if zeros == "sheet14" else BlaschkeProduct(zeros)
        with mpmath.workdps(40):
            x, y = mpmath.mpf(z.real), mpmath.mpf(z.imag)

            def log_factor_sq(a):
                # log(|z - a|^2 / |1 - conj(a) z|^2) for the exact float zero a.
                ar, ai = mpmath.mpf(a.real), mpmath.mpf(a.imag)
                near = (x - ar) ** 2 + (y - ai) ** 2
                return mpmath.log(near / ((1 - ar * x - ai * y) ** 2 + (ar * y - ai * x) ** 2))

            exact = mpmath.fsum(map(log_factor_sq, B.zeros.astype(complex).tolist())) / 2
            assert abs((B.log_abs_at(z) - exact) / exact) <= 1e-13

    @pytest.mark.parametrize("zeros, z", REFERENCE_CASES)
    def test_value_matches_a_40_digit_reference(self, zeros, z):
        # Sheet 14 spans two chunks of zeros, so the running product crosses
        # a chunk boundary.
        mpmath = pytest.importorskip("mpmath")
        B = _sheet_blaschke(4.0, 14) if zeros == "sheet14" else BlaschkeProduct(zeros)
        with mpmath.workdps(40):
            w = mpmath.mpc(z.real, z.imag)
            exact = mpmath.fprod(
                (w - a) / (1 - mpmath.conj(a) * w)
                for a in map(mpmath.mpc, B.zeros.astype(complex).tolist())
            )
            assert abs(B(z) - exact) <= 1e-13 * abs(exact)

    def test_maps_disk_into_disk(self):
        rng = np.random.default_rng(5)
        zeros = tuple(random_disk_points(rng, 6, max_radius=0.8))
        B = BlaschkeProduct(zeros=zeros)
        for z in random_disk_points(rng, 50, max_radius=0.99):
            assert abs(B(z)) < 1.0


class TestEarlyStop:
    """log_abs_at(z, stop) is the full value, bit for bit, when that is at
    least stop, and otherwise a value below stop."""

    @pytest.mark.parametrize("sheet", [14, 20])
    @pytest.mark.parametrize("R", [1.5, 4.0, 10.0])
    def test_stops_only_below_the_level(self, R, sheet):
        B = _sheet_blaschke(R, sheet)
        rng = np.random.default_rng(sheet)
        # Interior points, the sqrt(R) probe, points next to the outer circle
        # and next to a zero (the near-factor branch), and zeros in the first
        # and in a later chunk (-inf).
        zs = [*random_disk_points(rng, 3, max_radius=0.9), 1.0 / math.sqrt(R),
              cmath.rect(0.999, 0.01), complex(0.99999, 0.0),
              complex(B.zeros[100], 1e-7), B.zeros[0], B.zeros[-1]]
        stopped = 0
        for z in zs:
            full = B.log_abs_at(z)
            # Any level above the first chunk's total stops right after it.
            first = BlaschkeProduct(B.zeros[:_CHUNK]).log_abs_at(z)
            assert B.log_abs_at(z, math.inf).hex() == first.hex()
            levels = [-math.inf, 0.0, math.inf]
            if math.isfinite(full):
                levels += [full - 1.0, full, math.nextafter(full, 0.0),
                           full / 2.0, full / 64.0, full / 4096.0]
            for stop in levels:
                value = B.log_abs_at(z, stop)
                if full >= stop:
                    assert value.hex() == full.hex(), (z, stop)
                else:
                    # The running total never rises, so it stays >= full.
                    assert full <= value < stop, (z, stop)
                    stopped += value != full
        assert stopped >= len(zs)


class TestSchwarzPickCheck:
    def _pairs(self, n=200, seed=13):
        rng = np.random.default_rng(seed)
        pts = random_disk_points(rng, 2 * n)
        return list(zip(pts[:n], pts[n:]))

    def test_identity_has_zero_margin(self):
        ok, margin = schwarz_pick_check(lambda z: z, self._pairs())
        assert ok and margin == 0.0

    def test_constant_zero_contracts(self):
        ok, _ = schwarz_pick_check(lambda z: 0.0, self._pairs())
        assert ok

    def test_blaschke_factor_is_equality_case(self):
        phi = disk_automorphism(0.3)
        ok, margin = schwarz_pick_check(phi, self._pairs(), eps_check=1e-12)
        assert ok
        assert abs(margin) <= 1e-12

    def test_squaring_contracts_strictly(self):
        ok, margin = schwarz_pick_check(lambda z: z * z, self._pairs())
        assert ok and margin > 0.0

    def test_escaping_evaluator_is_diagnosed(self):
        with pytest.raises(DiskDomainError, match="escaped"):
            schwarz_pick_check(lambda z: 2.0 * z, [(0.6, 0.1)])
