import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caralab import (
    BoundConstants,
    preimage_moduli,
    verify_final_chain,
    verify_lower_bound_sweep,
    verify_one_over_e_products,
    verify_two_pi_limit,
    verify_upper_bound_sweep,
)
from caralab.sweeps import (
    EPS_ALGEBRAIC,
    ONE_OVER_E_N0,
    _SLICE,
    _SuffixScan,
    _block_log_moduli,
    _block_sums,
    _log0,
    _log_moduli,
    _quotient_and_tau,
    _suffix_threshold,
    _threshold_and_worst,
    lower_bound_quotient,
    tau,
)


class TestBoundConstants:
    def test_values_for_R4(self):
        c = BoundConstants.for_radius(4.0)
        assert c.K_of_R == pytest.approx(6.0 * math.log(4.0), abs=1e-12)
        assert c.tau_limit == pytest.approx(-3.0 * math.log(4.0), abs=1e-12)

    @pytest.mark.parametrize("R", [1.5, 2.0, math.e, 10.0])
    def test_algebraic_identities(self, R):
        c = BoundConstants.for_radius(R)
        s = math.sqrt(R)
        assert c.K_of_R == pytest.approx(2.0 * (s + 1.0) / (s - 1.0) * math.log(R), abs=1e-12)
        assert c.tau_limit == pytest.approx(-(s + 1.0) * math.log(R), abs=1e-12)

    def test_rejects_degenerate_radius(self):
        with pytest.raises(ValueError):
            BoundConstants.for_radius(1.0)


class TestSuffixThreshold:
    def test_all_pass_gives_start(self):
        assert _suffix_threshold(np.array([True, True, True]), 5) == 5

    def test_last_violation_plus_one(self):
        assert _suffix_threshold(np.array([True, False, True, True]), 2) == 4

    def test_open_range_gives_none(self):
        assert _suffix_threshold(np.array([True, True, False]), 2) is None

    def test_worst_margin_counts_from_the_threshold_on(self):
        ok = np.array([True, False, True, True])
        lin = np.array([-5.0, -1.0, 0.25, 0.5])
        quad = np.array([-7.0, -2.0, 0.75, 0.125])
        assert _threshold_and_worst(ok, 2, lin) == (4, 0.25)
        assert _threshold_and_worst(ok, 2, lin, quad) == (4, 0.125)

    def test_worst_margin_spans_an_open_range(self):
        ok = np.array([True, True, False])
        assert _threshold_and_worst(ok, 2, np.array([0.5, -3.0, -1.0])) == (None, -3.0)


def whole_array_threshold_and_worst(ok, start, *margins):
    """Reference: the suffix threshold and worst margin from whole arrays."""
    if not ok[-1]:
        return None, float(min(np.min(m) for m in margins))
    bad = np.flatnonzero(~ok)
    first = 0 if bad.size == 0 else int(bad[-1]) + 1
    return start + first, float(min(np.min(m[first:]) for m in margins))


def scan_in_slices(ok, start, cuts, *margins):
    scan = _SuffixScan(start)
    bounds = [0, *cuts, len(ok)]
    for lo, hi in zip(bounds, bounds[1:]):
        scan.feed(ok[lo:hi], *(m[lo:hi] for m in margins))
    return scan.result()


@st.composite
def sliced_flags_and_margins(draw):
    n = draw(st.integers(1, 40))
    ok = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    finite = st.floats(-1e6, 1e6, allow_nan=False)
    margins = [
        np.array(draw(st.lists(finite, min_size=n, max_size=n)))
        for _ in range(draw(st.integers(1, 2)))
    ]
    cuts = sorted(draw(st.sets(st.integers(1, n - 1))) if n > 1 else set())
    return ok, margins, cuts


class TestSuffixScan:
    @settings(max_examples=200, deadline=None)
    @given(sliced_flags_and_margins(), st.integers(0, 10))
    def test_slices_match_the_whole_array_reference(self, case, start):
        ok, margins, cuts = case
        assert scan_in_slices(ok, start, cuts, *margins) == whole_array_threshold_and_worst(
            ok, start, *margins
        )

    @pytest.mark.parametrize(
        ("ok", "cuts", "expected_threshold"),
        [
            ([1, 1, 1, 1, 1, 1], [2, 4], 5),
            ([1, 1, 1, 1, 0, 1], [2, 4], 10),
            ([1, 1, 1, 1, 1, 0], [2, 4], None),
            ([1, 0, 1, 1, 1, 1], [2, 4], 7),
        ],
        ids=["no-failure", "failure-in-a-later-slice", "last-index-fails",
             "failure-at-a-slice-end"],
    )
    def test_named_slice_patterns(self, ok, cuts, expected_threshold):
        ok = np.array(ok, dtype=bool)
        margin = np.array([-4.0, -3.0, 2.0, 0.5, -1.0, 1.5])
        got = scan_in_slices(ok, 5, cuts, margin)
        assert got == whole_array_threshold_and_worst(ok, 5, margin)
        assert got[0] == expected_threshold
        if expected_threshold is None:
            assert got[1] == -4.0


def whole_array_upper_sweep(m_max):
    """Reference: the upper-bound sweep over one whole-range array."""
    ms = np.arange(2, m_max + 1)
    x = preimage_moduli(ms)
    s = np.sin(math.pi / ms)
    one_minus_sq = 2.0 * s / (1.0 + s)
    lin_margin = (1.0 - 2.0 / (ms + 1.0)) - x
    quad_margin = (ms + 1.0) * one_minus_sq - 4.0
    elem_margin = (1.0 - x) - one_minus_sq / 2.0
    elementary_ok = bool(np.all(elem_margin >= -EPS_ALGEBRAIC))
    ok = (lin_margin >= -EPS_ALGEBRAIC) & (quad_margin >= -EPS_ALGEBRAIC)
    m1, worst = whole_array_threshold_and_worst(ok, 2, lin_margin, quad_margin)
    notes = []
    if m1 is None:
        notes.append("threshold not yet reached in range")
    elif m1 > 2:
        notes.append(f"m1-1={m1 - 1} exhibits a violation, threshold minimal")
    if not elementary_ok:
        notes.append("elementary inequality (1-|x|^2)/2 <= 1-|x| violated")
    rhs = 1.0 - 2.0 / (ms + 1.0)
    return {
        "parameter_name": "m1",
        "range": [2, m_max],
        "threshold_found": m1,
        "worst_margin": worst,
        "passed": elementary_ok and m1 is not None,
        "samples": [[m, float(x[m - 2]), float(rhs[m - 2])]
                    for m in (2, 3, 4, 10, 100, m_max) if m <= m_max],
        "notes": "; ".join(notes),
    }


def whole_array_lower_sweep(R, m_max):
    """Reference: the lower-bound sweep over one whole-range array."""
    consts = BoundConstants.for_radius(R)
    s = math.sqrt(R)
    ms = np.arange(3, m_max + 1)
    q = lower_bound_quotient(R, ms)
    rhs = 1.0 - consts.K_of_R / ms
    margin = q - rhs
    positivity_ok = bool(np.all(q > 0.0))
    tau_ok = tau(R, ms) >= -1.5 * (s + 1.0) * math.log(R) - EPS_ALGEBRAIC
    m2, worst = whole_array_threshold_and_worst((margin >= -EPS_ALGEBRAIC) & tau_ok, 3, margin)
    notes = [f"K(R)={consts.K_of_R:.12g}"]
    passed = positivity_ok and m2 is not None
    if m2 is None:
        notes.append("threshold not yet reached in range")
    if not positivity_ok:
        notes.append("quotient positivity violated for some m >= 3")
    tau_dev = abs(float(tau(R, 100_000)) - consts.tau_limit) / abs(consts.tau_limit)
    if tau_dev >= 1e-2:
        passed = False
        notes.append(f"tau(1e5) deviates {tau_dev:.3e} from its limit")
    probe_ms = ms[:: max(1, len(ms) // 64)].astype(float)
    p = np.exp(math.log(R) / probe_ms)
    direct = probe_ms * (s - p) - probe_ms * (s * p - 1.0) + consts.K_of_R * (s * p - 1.0)
    factored = tau(R, probe_ms) + consts.K_of_R * (s * p - 1.0)
    fact_err = float(np.max(np.abs(direct - factored))) / max(1.0, float(np.max(np.abs(direct))))
    if fact_err > 1e-10:
        passed = False
        notes.append(f"numerator factorization identity off by {fact_err:.3e}")
    return {
        "parameter_name": f"m2(R={R:g})",
        "range": [3, m_max],
        "threshold_found": m2,
        "worst_margin": worst,
        "passed": passed,
        "samples": [[m, float(q[m - 3]), float(rhs[m - 3])] for m in (3, 4, 10, 100, m_max)],
        "notes": "; ".join(notes),
    }


SLICE_EDGES = [_SLICE + 1, _SLICE + 2, 2 * _SLICE + 2]


class TestSliceBoundaries:
    # repr tells -0.0 from 0.0, so equal reprs mean bitwise-equal floats.
    @pytest.mark.parametrize("m_max", SLICE_EDGES)
    def test_upper_sweep_matches_whole_array_reference(self, m_max):
        got = verify_upper_bound_sweep(m_max).to_dict()
        assert repr(got) == repr(whole_array_upper_sweep(m_max))

    @pytest.mark.parametrize("R", [1.5, 4.0, 1e6])
    @pytest.mark.parametrize("m_max", SLICE_EDGES)
    def test_lower_sweep_matches_whole_array_reference(self, R, m_max):
        got = verify_lower_bound_sweep(R, m_max).to_dict()
        assert repr(got) == repr(whole_array_lower_sweep(R, m_max))

    @pytest.mark.parametrize("R", [1.5, 4.0, 10.0, 1e6])
    def test_fused_lower_kernel_matches_quotient_and_tau(self, R):
        ms = np.arange(3, 50_001, dtype=float)
        q, t = _quotient_and_tau(R, ms)
        assert q.tobytes() == lower_bound_quotient(R, ms).tobytes()
        assert t.tobytes() == tau(R, ms).tobytes()


class TestSweepMemory:
    # One float64 array over the default range of 10^6 indices.
    FULL_RANGE_ARRAY = 8 * 10 ** 6

    @pytest.mark.parametrize(
        "sweep",
        [lambda: verify_upper_bound_sweep(10 ** 6), lambda: verify_lower_bound_sweep(4.0, 10 ** 6)],
        ids=["upper", "lower"],
    )
    def test_peak_stays_below_one_full_range_array(self, sweep):
        # numpy reports its buffers to tracemalloc.
        tracemalloc.start()
        try:
            sweep()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self.FULL_RANGE_ARRAY


class TestUpperBoundSweep:
    def test_threshold_is_four(self):
        res = verify_upper_bound_sweep(1000)
        assert res.passed
        assert res.threshold_found == 4
        assert res.worst_margin >= 0.0

    def test_threshold_matches_scalar_oracle(self):
        # Independent scalar re-derivation of the same suffix threshold.
        def holds(m):
            x = abs(
                (1 - complex(math.cos(math.pi / 2 - math.pi / m), math.sin(math.pi / 2 - math.pi / m)))
                / (1 + complex(math.cos(math.pi / 2 - math.pi / m), math.sin(math.pi / 2 - math.pi / m)))
            )
            return x <= 1 - 2 / (m + 1) + 1e-12 and (m + 1) * (1 - x * x) >= 4 - 1e-12

        flags = [holds(m) for m in range(2, 201)]
        oracle = next(
            p for p in range(2, 201) if all(flags[p - 2 :])
        )
        assert verify_upper_bound_sweep(200).threshold_found == oracle

    def test_minimality_is_reported(self):
        res = verify_upper_bound_sweep(1000)
        assert "threshold minimal" in res.notes

    def test_rejects_tiny_range(self):
        with pytest.raises(ValueError):
            verify_upper_bound_sweep(3)


class TestTwoPiLimit:
    def test_default_probe_passes(self):
        res = verify_two_pi_limit()
        assert res.passed
        assert "at m=1e4" in res.notes

    def test_ladder_samples_approach_two_pi(self):
        res = verify_two_pi_limit(100_000)
        devs = [abs(l - r) / r for _, l, r in res.samples[:3]]
        assert devs[0] > devs[1] > devs[2]

    def test_rejects_tiny_probe(self):
        with pytest.raises(ValueError):
            verify_two_pi_limit(5)


class TestLowerBoundSweep:
    @pytest.mark.parametrize(
        ("R", "expected_m2"), [(1.5, 3), (2.0, 3), (math.e, 3), (10.0, 4)]
    )
    def test_threshold_values(self, R, expected_m2):
        # The threshold also absorbs the tau floor, which kicks in later for
        # large R: tau(3) < -(3/2)(sqrt(R)+1) ln R once R is big enough.
        res = verify_lower_bound_sweep(R, 10_000)
        assert res.passed
        assert res.threshold_found == expected_m2
        assert res.worst_margin >= 0.0

    def test_quotient_positive_and_below_one(self):
        q = lower_bound_quotient(4.0, np.arange(3, 200))
        assert np.all(q > 0.0) and np.all(q < 1.0)

    def test_tau_limit_convergence(self):
        c = BoundConstants.for_radius(4.0)
        assert float(tau(4.0, 1e5)) == pytest.approx(c.tau_limit, rel=1e-2)
        assert float(tau(4.0, 1e8)) == pytest.approx(c.tau_limit, rel=1e-5)

    def test_rejects_tiny_range(self):
        with pytest.raises(ValueError):
            verify_lower_bound_sweep(4.0, 4)


class TestFinalChain:
    def test_R4_threshold_and_endpoint(self):
        res = verify_final_chain(4.0, 20)
        assert res.passed
        assert res.threshold_found == 4
        # e^{-K(4)} = 4^{-6} = 1/4096
        assert "e^-K=0.000244140625" in res.notes

    def test_right_endpoint_below_one_over_e(self):
        res = verify_final_chain(4.0, 12)
        for n, _, right in res.samples:
            assert right <= -1.0 + 1e-12  # log scale: (1-2^-n... ) <= 1/e

    def test_chain_links_match_direct_products(self):
        # Independent oracle: plain-float products over one small block.
        n = 5
        ms = np.arange(2 ** n, 2 ** (n + 1))
        mid_upper = float(np.prod(preimage_moduli(ms)))
        mid_lower = float(np.prod(lower_bound_quotient(4.0, ms)))
        K = BoundConstants.for_radius(4.0).K_of_R
        left = (1.0 - K / 2 ** n) ** (2 ** n)
        right = (1.0 - 2.0 / 2 ** (n + 1)) ** (2 ** n)
        assert left <= mid_lower <= mid_upper <= right

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            verify_final_chain(4.0, 0)
        with pytest.raises(ValueError):
            verify_final_chain(4.0, 25)


class TestOneOverEProducts:
    def test_threshold_is_one(self):
        res = verify_one_over_e_products(4.0, 12)
        assert res.passed
        assert res.threshold_found == 1
        assert res.worst_margin >= 0.0

    def test_block_products_match_direct_oracle(self):
        res = verify_one_over_e_products(4.0, 12)
        for n, prod, bound in res.samples:
            ms = np.arange(2 ** n, 2 ** (n + 1))
            assert prod == pytest.approx(float(np.prod(preimage_moduli(ms))), rel=1e-12)
            assert prod <= bound + 1e-12

    def test_first_block_vanishes_exactly(self):
        # The block n=1 contains m=2 and |x(2)| = 0.
        res = verify_one_over_e_products(4.0, 3)
        assert res.samples[0] == (1, 0.0, 1.0 / math.e)

    def test_the_analytic_block_bound_covers_the_table(self):
        # ONE_OVER_E_N0's proof: block n >= 2, N = 2^n, has log-product at
        # most -pi ln 2 + pi^3 / (6 N^2), and that bound is below -1.
        table = _block_log_moduli(24)
        assert table[0] == -math.inf
        for n, log_prod in enumerate(table[1:], start=2):
            bound = -math.pi * math.log(2.0) + math.pi ** 3 / (6.0 * 4.0 ** n)
            assert log_prod <= bound <= -1.85

    def test_the_sweep_confirms_the_proved_threshold(self):
        for n_max in range(1, 25):
            assert verify_one_over_e_products(4.0, n_max).threshold_found == ONE_OVER_E_N0


class TestBlockLogModuli:
    def test_block_sums_match_direct_logs(self):
        table = _block_log_moduli(12)
        assert len(table) == 12
        for n, block_sum in enumerate(table, start=1):
            ms = np.arange(2 ** n, 2 ** (n + 1))
            with np.errstate(divide="ignore"):
                direct = np.sum(-np.arctanh(np.sin(math.pi / ms)))
            assert block_sum == float(direct)

    def test_log_moduli_are_the_logs_of_the_moduli(self):
        ms = np.arange(2, 4096)
        with np.errstate(all="raise"):
            logs = _log_moduli(ms)
        assert logs[0] == -math.inf
        assert logs[1:] == pytest.approx(np.log(preimage_moduli(ms[1:])), rel=1e-13)

    def test_block_16_matches_a_40_digit_reference(self):
        mpmath = pytest.importorskip("mpmath")
        # -log|x(m)| = atanh(sin x) = x + x^3/6 + x^5/24 + 61 x^7/5040 + ...
        # with x = pi/m < 5e-5; the terms dropped add up to below 1e-35.  Over
        # the block, sum 1/m is a digamma difference and sum 1/m^k a Hurwitz
        # zeta difference.
        N = 2 ** 16
        with mpmath.workdps(40):
            sums = {1: mpmath.digamma(2 * N) - mpmath.digamma(N)}
            sums.update({k: mpmath.zeta(k, N) - mpmath.zeta(k, 2 * N) for k in (3, 5, 7)})
            coefficients = {1: 1, 3: mpmath.mpf(1) / 6, 5: mpmath.mpf(1) / 24,
                            7: mpmath.mpf(61) / 5040}
            exact = -mpmath.fsum(c * mpmath.pi ** k * sums[k] for k, c in coefficients.items())
            assert abs(_block_log_moduli(16)[15] - exact) <= 1e-13

    def test_shorter_table_is_a_bitwise_prefix(self):
        assert _block_log_moduli(20)[:12] == _block_log_moduli(12)

    @pytest.mark.parametrize(
        "f",
        [preimage_moduli, lambda ms: lower_bound_quotient(4.0, ms)],
        ids=["moduli", "lower-quotient"],
    )
    def test_sliced_blocks_match_whole_block_sums(self, f):
        # Blocks past 2^12 indices are summed slice by slice.
        for n, block_sum in enumerate(_block_sums(lambda ms: _log0(f(ms)), 20), start=1):
            if n > 12:
                whole = float(np.sum(np.log(f(np.arange(2 ** n, 2 ** (n + 1))))))
                assert block_sum == pytest.approx(whole, rel=1e-14)

    def test_guarded_log(self):
        v = np.array([0.0, -1.0, 0.5, 2.0])
        with np.errstate(all="raise"):
            out = _log0(v)
        assert out[0] == out[1] == -math.inf
        assert out[2:].tolist() == np.log(v[2:]).tolist()


class TestDeterminismAndSerialization:
    def test_repeated_sweeps_are_identical(self):
        a = verify_lower_bound_sweep(4.0, 5000).to_dict()
        b = verify_lower_bound_sweep(4.0, 5000).to_dict()
        assert a == b

    def test_block_sweeps_are_identical_after_a_cache_clear(self):
        # A warm repeat only reads the cached table; recompute it from scratch.
        def run():
            return [f(R, 16).to_dict() for R in (1.5, 4.0)
                    for f in (verify_final_chain, verify_one_over_e_products)]

        warm = run()
        _block_log_moduli.cache_clear()
        assert run() == warm
        assert _block_log_moduli.cache_info().misses == 1

    def test_to_dict_shape(self):
        d = verify_upper_bound_sweep(100).to_dict()
        assert set(d) == {
            "parameter_name",
            "range",
            "threshold_found",
            "worst_margin",
            "passed",
            "samples",
            "notes",
        }
        assert all(isinstance(row, list) and len(row) == 3 for row in d["samples"])
