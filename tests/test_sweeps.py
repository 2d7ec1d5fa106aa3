import collections
import functools
import math
import re
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
from caralab import sweeps
from caralab.cli import EXIT_OK, main
from caralab.sweeps import (
    EPS_ALGEBRAIC,
    ONE_OVER_E_N0,
    _CHUNK,
    _HEAD,
    _HEAD_N,
    _ULPS,
    _MODULUS_SERIES,
    _ORDERS,
    _SuffixScan,
    _block_log_moduli,
    _block_sums,
    _head_block,
    _log_moduli,
    _log_quotient_series,
    _log_quotients,
    _lower_bounds,
    _modulus_term_error,
    _quotient_and_tau,
    _quotient_term_error,
    _radius_name,
    _series_block,
    _slices,
    _upper_bounds,
    _upper_terms,
    check_lemma_ranges,
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

    @pytest.mark.parametrize("R", [math.nan, math.inf, -math.inf, math.nextafter(1.0, 2.0)])
    def test_rejects_a_radius_without_finite_constants(self, R):
        message = f"R must be finite with sqrt(R) > 1, got {R!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            BoundConstants.for_radius(R)


class TestSuffixThreshold:
    # One slice: the scan as the chain and 1/e sweeps use it.
    def test_all_pass_gives_start(self):
        assert scan_in_slices(np.array([True, True, True]), 5, [])[0] == 5

    def test_last_violation_plus_one(self):
        assert scan_in_slices(np.array([True, False, True, True]), 2, [])[0] == 4

    def test_open_range_gives_none(self):
        assert scan_in_slices(np.array([True, True, False]), 2, [])[0] is None

    def test_worst_margin_counts_from_the_threshold_on(self):
        ok = np.array([True, False, True, True])
        lin = np.array([-5.0, -1.0, 0.25, 0.5])
        quad = np.array([-7.0, -2.0, 0.75, 0.125])
        assert scan_in_slices(ok, 2, [], lin) == (4, 0.25)
        assert scan_in_slices(ok, 2, [], lin, quad) == (4, 0.125)

    def test_worst_margin_spans_an_open_range(self):
        ok = np.array([True, True, False])
        assert scan_in_slices(ok, 2, [], np.array([0.5, -3.0, -1.0])) == (None, -3.0)


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

    @settings(max_examples=200, deadline=None)
    @given(sliced_flags_and_margins(), st.integers(1, 5), st.integers(0, 10),
           st.floats(-1e6, 1e6, allow_nan=False), st.integers(0, 40))
    def test_a_run_is_an_all_pass_slice(self, case, count, start, least, at):
        # feed_run(count, least) stands for an all-True slice whose margins
        # have minimum least, wherever it falls among the slices.
        ok, margins, _ = case
        at = min(at, len(ok))
        joined = [np.concatenate([m[:at], np.full(count, least), m[at:]]) for m in margins]
        expected = whole_array_threshold_and_worst(
            np.concatenate([ok[:at], np.ones(count, dtype=bool), ok[at:]]), start, *joined)
        scan = _SuffixScan(start)
        if at:
            scan.feed(ok[:at], *(m[:at] for m in margins))
        scan.feed_run(count, least)
        if at < len(ok):
            scan.feed(ok[at:], *(m[at:] for m in margins))
        assert scan.result() == expected
        assert scan.stop == start + len(ok) + count


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
    size = probe_ms * (s + 1.0) * (p + 1.0) + consts.K_of_R * (s * p + 1.0)
    fact_err = float(np.max(np.abs(direct - factored) / size))
    if fact_err > 10.0 * 2.0 ** -53 * (1.0 + 2.0 ** -20):
        passed = False
        notes.append(f"numerator factorization identity off by {fact_err:.3e}")
    return {
        "parameter_name": f"m2(R={_radius_name(R)})",
        "range": [3, m_max],
        "threshold_found": m2,
        "worst_margin": worst,
        "passed": passed,
        "samples": [[m, float(q[m - 3]), float(rhs[m - 3])] for m in (3, 4, 10, 100, m_max)],
        "notes": "; ".join(notes),
    }


SLICE_EDGES = [_CHUNK + 1, 2 * _CHUNK + 1, 2 * _CHUNK + 2, 4 * _CHUNK + 2]
TAIL_RADII = [1.0 + 1e-12, 1.0 + 1e-6, 1.02, 1.5, 4.0, 10.0, 1e6]


class TestSliceBoundaries:
    # repr tells -0.0 from 0.0, so equal reprs mean bitwise-equal floats.
    # Past their head the sweeps certify the tail and walk only its window;
    # the references walk every index.  At 1 + 1e-12 the window is the
    # whole tail, at 1 + 1e-6 most of it.
    @pytest.mark.parametrize("m_max", SLICE_EDGES + [10 ** 6])
    def test_upper_sweep_matches_whole_array_reference(self, m_max):
        got = verify_upper_bound_sweep(m_max).to_dict()
        assert repr(got) == repr(whole_array_upper_sweep(m_max))

    @pytest.mark.parametrize("R", TAIL_RADII)
    @pytest.mark.parametrize("m_max", SLICE_EDGES + [10 ** 6])
    def test_lower_sweep_matches_whole_array_reference(self, R, m_max):
        got = verify_lower_bound_sweep(R, m_max).to_dict()
        assert repr(got) == repr(whole_array_lower_sweep(R, m_max))

    @pytest.mark.parametrize("R", [1.5, 4.0, 10.0, 1e6])
    def test_fused_lower_kernel_matches_quotient_and_tau(self, R):
        ms = np.arange(3, 50_001, dtype=float)
        q, t = _quotient_and_tau(R, ms)
        assert q.tobytes() == lower_bound_quotient(R, ms).tobytes()
        assert t.tobytes() == tau(R, ms).tobytes()


class TestSliceWalk:
    @pytest.mark.parametrize(
        "start, stop", [(2, 2), (3, _CHUNK + 2), (2, 2 * _CHUNK + 1), (5, 4 * _CHUNK + 2)]
    )
    def test_slice_copies_concatenate_to_the_index_range(self, start, stop):
        slices = [ms.copy() for ms in _slices(start, stop)]
        assert all(len(ms) == _CHUNK for ms in slices[:-1])
        assert np.concatenate(slices).tobytes() == np.arange(start, stop + 1, dtype=float).tobytes()

    def test_each_slice_overwrites_the_last(self):
        walk = _slices(2, 3 * _CHUNK)
        first = next(walk)
        kept = first.copy()
        second = next(walk)
        assert np.shares_memory(first, second)
        assert first[0] == second[0] == kept[0] + _CHUNK


def clear_sweep_state():
    """Forget the block table."""
    _block_log_moduli.cache_clear()


def block_results(R, n_max):
    """repr of the chain, n0 and table results: equal reprs mean bitwise
    equal floats."""
    return repr((verify_final_chain(R, n_max).to_dict(),
                 verify_one_over_e_products(R, n_max).to_dict(),
                 _block_log_moduli(n_max)))


_FROM_SCRATCH = {}


def block_results_from_scratch(R, n_max):
    """block_results from a cleared state, in which no other sweep has run;
    computed once per (R, n_max)."""
    if (R, n_max) not in _FROM_SCRATCH:
        clear_sweep_state()
        _FROM_SCRATCH[R, n_max] = block_results(R, n_max)
    return _FROM_SCRATCH[R, n_max]


def count_indices(monkeypatch, name):
    """Wrap the sweeps kernel called name; the returned list gets the number
    of indices of each call (its last argument)."""
    counted = []
    kernel = getattr(sweeps, name)

    def counting(*args):
        counted.append(np.size(args[-1]))
        return kernel(*args)

    monkeypatch.setattr(sweeps, name, counting)
    return counted


RADII = [1.5, 4.0, 10.0, 1e6]


class TestSharedSliceSums:
    # The m1 and m2 sweeps share no state with the block table and the
    # chain; no result may depend on whether they ran first.
    @pytest.mark.parametrize("n_max", [12, 20])
    @pytest.mark.parametrize("m_max", SLICE_EDGES + [10 ** 6, 20_000, 8])
    def test_sweeps_first_changes_no_bit(self, m_max, n_max):
        # 20,000 with n_max 12 runs past the table's end (m = 8,191), as in the
        # CSV golden report; at m_max 8 no _CHUNK-sized slice is whole.
        expected = [block_results_from_scratch(R, n_max) for R in RADII]
        clear_sweep_state()
        verify_upper_bound_sweep(m_max)
        for R in RADII:
            verify_lower_bound_sweep(R, m_max)
        assert [block_results(R, n_max) for R in RADII] == expected

    @pytest.mark.parametrize("R", RADII)
    def test_block_sweeps_first_change_no_bit(self, R):
        expected = block_results_from_scratch(R, 20)
        clear_sweep_state()
        assert block_results(R, 20) == expected
        verify_upper_bound_sweep(3 * _CHUNK)
        verify_lower_bound_sweep(R, 10 ** 6)
        _block_log_moduli.cache_clear()
        assert block_results(R, 20) == expected

    # The chain and the table sum their blocks past _HEAD_N in closed form,
    # so after m2 (or m1) ran to 10^6 they evaluate no more indices than
    # the sweep left undone: only the head blocks, m = 2 .. 2^(_HEAD_N + 1) - 1.
    def test_chain_evaluates_only_the_indices_m2_did_not(self, monkeypatch):
        clear_sweep_state()
        verify_lower_bound_sweep(4.0, 10 ** 6)
        counted = count_indices(monkeypatch, "_log_quotients")
        verify_final_chain(4.0, 20)
        assert 0 < sum(counted) <= 2 ** 21 - 10 ** 6 + _CHUNK
        assert sum(counted) == 2 ** (_HEAD_N + 1) - 2

    def test_table_evaluates_only_the_indices_m1_did_not(self, monkeypatch):
        clear_sweep_state()
        verify_upper_bound_sweep(10 ** 6)
        counted = count_indices(monkeypatch, "_log_moduli")
        _block_log_moduli(20)
        assert 0 < sum(counted) <= 2 ** 21 - 10 ** 6 + _CHUNK
        assert sum(counted) == 2 ** (_HEAD_N + 1) - 2

    def test_m1_moduli_are_preimage_moduli(self):
        # The m1 sweep takes tan's argument from pi/m: fl(pi/(2m)) = fl(pi/m)/2.
        ms = np.arange(2, 2 ** 21, dtype=float)
        t = math.pi / ms
        assert np.tan(math.pi / 4.0 - t / 2.0).tobytes() == preimage_moduli(ms).tobytes()


def kernel_counts(monkeypatch):
    """Count the indices that the m1 and m2 kernels see, keyed "m1" or R."""
    counted = collections.Counter()
    upper, lower = sweeps._upper_terms, sweeps._quotient_and_tau

    def counting_upper(ms):
        counted["m1"] += ms.size
        return upper(ms)

    def counting_lower(R, ms):
        counted[R] += ms.size
        return lower(R, ms)

    monkeypatch.setattr(sweeps, "_upper_terms", counting_upper)
    monkeypatch.setattr(sweeps, "_quotient_and_tau", counting_lower)
    return counted


def sweep_and_reference(R, m_max):
    """repr of the m1 (R None) or m2 sweep and of its whole-array reference."""
    if R is None:
        return repr(verify_upper_bound_sweep(m_max).to_dict()), repr(whole_array_upper_sweep(m_max))
    return (repr(verify_lower_bound_sweep(R, m_max).to_dict()),
            repr(whole_array_lower_sweep(R, m_max)))


# m = 1/y for each y the certificates are checked at: the head's last index
# and on out to 10^8.
TAIL_INDICES = sorted({_HEAD + 1, _HEAD + 2, _HEAD + 3, 10 ** 4, 12_345, 10 ** 5, 314_159,
                       10 ** 6, 2_718_281, 10 ** 7, 10 ** 8}
                      | {int(m) for m in np.geomspace(_HEAD + 1, 10 ** 8, 120)})


def exact_upper_margins(m):
    """40-digit lin, quad and elem margins of the m1 sweep at m."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        x = mpmath.tan(mpmath.pi / 4 - mpmath.pi / (2 * m))
        return (1 - mpmath.mpf(2) / (m + 1) - x, (m + 1) * (1 - x * x) - 4,
                (1 - x) - (1 - x * x) / 2)


def exact_lower_terms(R, m):
    """40-digit margin, quotient and tau of the m2 sweep at m, the margin
    against the float K(R) the sweep reads."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        R_, K = mpmath.mpf(R), mpmath.mpf(BoundConstants.for_radius(R).K_of_R)
        s, p = mpmath.sqrt(R_), R_ ** (mpmath.mpf(1) / m)
        q = (s - p) / (s * p - 1)
        return q - 1 + K / m, q, m * (s + 1) * (1 - p)


class TestTailCertificate:
    def test_a_default_run_evaluates_one_slice_per_sweep(self, monkeypatch, capsys):
        counted = kernel_counts(monkeypatch)
        assert main(["verify-lemmas", "--R", "1.5", "--R", "4", "--R", "10"]) == EXIT_OK
        capsys.readouterr()
        assert set(counted) == {"m1", 1.5, 4.0, 10.0}
        assert all(n <= _HEAD + 8 for n in counted.values())

    def test_a_thin_annulus_walks_its_window(self, monkeypatch):
        # At R = 1 + 1e-6 the floats round out of order from m ~ 2e4 on.
        counted = kernel_counts(monkeypatch)
        verify_lower_bound_sweep(1.0 + 1e-6, 10 ** 6)
        assert 9 * 10 ** 5 < counted[1.0 + 1e-6] < 10 ** 6 - 2 - _HEAD

    @pytest.mark.parametrize("R", [None, 1.5, 4.0], ids=["m1", "m2-1.5", "m2-4"])
    def test_a_window_inside_the_range_matches_the_reference(self, monkeypatch, R):
        # 2^23 ulps put the window's start near 10^4 to 1.75e4: the sweep
        # takes [_HEAD + start, w) as one run and walks [w, 30,000].
        monkeypatch.setattr(sweeps, "_ULPS", 2 ** 23)
        counted = kernel_counts(monkeypatch)
        got, expected = sweep_and_reference(R, 30_000)
        assert got == expected
        walked = counted["m1" if R is None else R]
        assert _HEAD + 1000 < walked < 30_000 - 1000

    @pytest.mark.parametrize("sweep, bounds, field", [
        ("m1", "_upper_bounds", "quad"), ("m1", "_upper_bounds", "elem"),
        ("m2", "_lower_bounds", "quotient"), ("m2", "_lower_bounds", "tau_fixed"),
    ])
    def test_a_failing_check_walks_the_whole_tail(self, monkeypatch, sweep, bounds, field):
        # With one error bound so wide that its one-sided check fails, the
        # sweep evaluates every index, and its report does not move.
        real = getattr(sweeps, bounds)
        monkeypatch.setattr(sweeps, bounds, lambda *a: real(*a)._replace(**{field: 1e3}))
        counted = kernel_counts(monkeypatch)
        got, expected = sweep_and_reference(None if sweep == "m1" else 4.0, 50_000)
        assert got == expected
        assert counted["m1" if sweep == "m1" else 4.0] == 50_000 - (1 if sweep == "m1" else 2)

    def test_quad_failing_past_the_head_moves_the_threshold(self, monkeypatch):
        # quad rises in m; shifted down to cross -EPS_ALGEBRAIC between 1,099
        # and 1,100, it fails on the head's last index and through 1,099.
        kernel = sweeps._upper_terms
        shift = float(kernel(np.array([1099.5]))[3][0])

        def shifted(ms):
            x, rhs, lin, quad, elem = kernel(ms)
            return x, rhs, lin, quad - shift, elem

        monkeypatch.setattr(sweeps, "_upper_terms", shifted)
        assert verify_upper_bound_sweep(10 ** 6).threshold_found == 1100

    def test_tau_failing_past_the_head_moves_the_threshold(self, monkeypatch):
        # tau rises in m; shifted down to cross its floor between 1,099 and
        # 1,100, it fails on the head's last index and through 1,099.
        R = 4.0
        s = math.sqrt(R)
        least = -1.5 * (s + 1.0) * math.log(R) - EPS_ALGEBRAIC
        shift = float(tau(R, 1099.5)) - least
        kernel = sweeps._quotient_and_tau

        def shifted(R, ms):
            q, tau_ms = kernel(R, ms)
            return q, tau_ms - shift

        monkeypatch.setattr(sweeps, "_quotient_and_tau", shifted)
        assert verify_lower_bound_sweep(R, 10 ** 6).threshold_found == 1100

    def test_the_m1_bounds_hold_against_40_digit_margins(self):
        bounds = _upper_bounds(1.0 / (_HEAD + 1))
        floats = _upper_terms(np.array(TAIL_INDICES, dtype=float))[2:]
        errors = [max(abs(float(f[i]) - float(e)) for i, e in enumerate(exact))
                  for f, exact in zip(floats, zip(*map(exact_upper_margins, TAIL_INDICES)))]
        assert all(e <= bound for e, bound in zip(errors, bounds[1:]))
        # The slope is sound, and sharp within 1 %: lin falls by at least
        # slope/(m(m-1)) from m - 1 to m.
        falls = [(exact_upper_margins(m - 1)[0] - exact_upper_margins(m)[0]) * m * (m - 1)
                 for m in TAIL_INDICES[1:]]
        assert 0.99 * min(falls) <= bounds.slope <= min(falls)

    @pytest.mark.parametrize("R", TAIL_RADII)
    def test_the_m2_bounds_hold_against_40_digit_terms(self, R):
        K = BoundConstants.for_radius(R).K_of_R
        bounds = _lower_bounds(R, K, 1.0 / (_HEAD + 2))  # the m2 head ends at _HEAD + 2
        ms = np.array([m + 1 for m in TAIL_INDICES], dtype=float)
        q, tau_ms = _quotient_and_tau(R, ms)
        margin = q - (1.0 - K / ms)
        for i, m in enumerate(ms.astype(int)):
            exact_margin, exact_q, exact_tau = exact_lower_terms(R, m)
            assert abs(margin[i] - exact_margin) <= bounds.margin
            assert abs(q[i] - exact_q) <= bounds.quotient
            assert abs(tau_ms[i] - exact_tau) <= bounds.tau_fixed + m * bounds.tau_per_m
        if bounds.slope > 0.0:
            falls = [(exact_lower_terms(R, m - 1)[0] - exact_lower_terms(R, m)[0]) * m * (m - 1)
                     for m in ms[1:].astype(int)]
            assert 0.99 * min(falls) <= bounds.slope <= min(falls)


class TestUlpAllowance:
    def test_numpy_functions_stay_within_the_allowance(self):
        # Arrays of 20,000 sweep arguments each, so numpy's SIMD loops run.
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(29)
        ms = np.concatenate([np.arange(3.0, 10_003.0),
                             np.floor(np.geomspace(10_003.0, 1e8, 10_000) * rng.uniform(1, 1.01, 10_000))])
        t = math.pi / ms
        R = np.resize(np.array([1.0 + 1e-6, 1.5, 4.0, 1e6]), ms.size)
        L, s = np.log(R), np.sqrt(R)
        pm1 = np.expm1(L / ms)
        ratio = (s * pm1 + pm1) / (s * pm1 + np.expm1(L / 2.0))
        cases = [(np.tan, mpmath.tan, math.pi / 4.0 - t * 0.5), (np.sin, mpmath.sin, t),
                 (np.exp, mpmath.exp, L / ms), (np.expm1, mpmath.expm1, L / ms),
                 (np.log1p, mpmath.log1p, -ratio), (np.arctanh, mpmath.atanh, np.sin(t))]
        with mpmath.workdps(40):
            for f, exact, args in cases:
                values = (exact(mpmath.mpf(a)) for a in args.tolist())
                worst = max(float(abs(mpmath.mpf(got) - value)) / math.ulp(float(value))
                            for got, value in zip(f(args).tolist(), values))
                assert worst <= _ULPS, f.__name__


class TestRangeChecks:
    @pytest.mark.parametrize("m_max, n_max, message, sweep", [
        (3, 20, "m_max must be >= 4, got 3", lambda: verify_upper_bound_sweep(3)),
        (5, 20, "m_max must be >= 8, got 5", lambda: verify_lower_bound_sweep(4.0, 5)),
        (10 ** 6, 25, "n_max must lie in [1, 24], got 25", lambda: verify_final_chain(4.0, 25)),
        (10 ** 6, 0, "n_max must lie in [1, 24], got 0",
         lambda: verify_one_over_e_products(4.0, 0)),
    ])
    def test_the_up_front_check_raises_what_the_sweep_would(self, m_max, n_max, message, sweep):
        for check in (lambda: check_lemma_ranges(m_max, n_max), sweep):
            with pytest.raises(ValueError, match=re.escape(message)):
                check()

    def test_good_ranges_pass(self):
        check_lemma_ranges(8, 1)
        check_lemma_ranges(10 ** 6, 24)


class TestSweepNames:
    # :g names stay where they read back as R, so reports at 1.5, 4 and 10
    # keep their names; radii :g would merge get repr names.
    @pytest.mark.parametrize("R, name", [
        (1.5, "1.5"), (4.0, "4"), (10.0, "10"), (1e6, "1e+06"),
        (1.0000000000000004, "1.0000000000000004"), (4.0000001, "4.0000001"),
    ])
    def test_radius_names(self, R, name):
        assert verify_lower_bound_sweep(R, 100).parameter_name == f"m2(R={name})"
        assert verify_final_chain(R, 3).parameter_name == f"chain_n(R={name})"
        assert verify_one_over_e_products(R, 3).parameter_name == f"n0(R={name})"


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

    @pytest.mark.parametrize("R", ["1.025", "1.03", "1.05"])
    def test_thin_radii_pass_the_factorization_check(self, capsys, R):
        # Near m = 10^6 the numerator cancels to about 0.1 while its
        # summands are about 10^4 in size; their rounding alone once failed
        # a check relative to the numerator's own value.
        assert main(["verify-lemmas", "--R", R]) == EXIT_OK
        capsys.readouterr()

    @pytest.mark.parametrize("R", [1.03, 1.5, 4.0, 10.0])
    def test_a_wrong_factorization_fails_the_check(self, monkeypatch, R):
        # tau with (sqrt(R) - 1) for (sqrt(R) + 1) breaks the identity by
        # 10^12 to 10^14 times the check's 10u bound at these radii.
        def wrong_tau(R, t):
            t = np.asarray(t, dtype=float)
            return t * (math.sqrt(R) - 1.0) * (1.0 - np.exp(math.log(R) / t))

        monkeypatch.setattr(sweeps, "tau", wrong_tau)
        res = verify_lower_bound_sweep(R, 10 ** 6)
        assert not res.passed
        off = float(re.search(r"factorization identity off by (\S+)", res.notes).group(1))
        assert off > 1e9 * 10.0 * 2.0 ** -53


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
        table = _block_log_moduli(24).sums
        assert table[0] == -math.inf
        for n, log_prod in enumerate(table[1:], start=2):
            bound = -math.pi * math.log(2.0) + math.pi ** 3 / (6.0 * 4.0 ** n)
            assert log_prod <= bound <= -1.85

    def test_the_sweep_confirms_the_proved_threshold(self):
        for n_max in range(1, 25):
            assert verify_one_over_e_products(4.0, n_max).threshold_found == ONE_OVER_E_N0


class TestBlockLogModuli:
    def test_block_sums_match_direct_logs(self):
        # Head blocks are the float sums bit for bit; closed-form blocks lie
        # within their radius of the 40-digit sum.
        table = _block_log_moduli(12)
        assert len(table.sums) == 12
        for n, block_sum, radius in zip(range(1, 13), table.sums, table.radii):
            if n <= _HEAD_N:
                ms = np.arange(2 ** n, 2 ** (n + 1))
                with np.errstate(divide="ignore"):
                    direct = np.sum(-np.arctanh(np.sin(math.pi / ms)))
                assert block_sum == float(direct)
            else:
                assert abs(block_sum - direct_block(None, n)) <= radius

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
            assert abs(_block_log_moduli(16).sums[15] - exact) <= 1e-13

    def test_shorter_table_is_a_bitwise_prefix(self):
        assert _block_log_moduli(20).sums[:12] == _block_log_moduli(12).sums

    @pytest.mark.parametrize(
        "terms, series, term_error",
        [(_log_moduli, _MODULUS_SERIES, _modulus_term_error),
         (lambda ms: _log_quotients(4.0, ms), _log_quotient_series(4.0),
          lambda t: _quotient_term_error(4.0, t))],
        ids=["moduli", "lower-quotient"],
    )
    def test_sliced_blocks_match_whole_block_sums(self, terms, series, term_error):
        # Blocks past _HEAD_N are summed in closed form; they agree with a
        # float sum of every term of the block.
        blocks = _block_sums(terms, series, 20, term_error)
        for n, block_sum in enumerate(blocks.sums[_HEAD_N:], start=_HEAD_N + 1):
            whole = float(np.sum(terms(np.arange(2 ** n, 2 ** (n + 1), dtype=float))))
            assert block_sum == pytest.approx(whole, rel=1e-14)


THIN_TO_WIDE = [1.0 + 1e-6, 1.02, 1.5, 4.0, 10.0, 1e3, 1e6]
LONG_BLOCKS = [10, 11, 12, 13, 14, 16, 20, 24]
TAYLOR_ORDER = 15


@functools.lru_cache(maxsize=None)
def taylor_coefficients(R):
    """40-digit Taylor coefficients in x = 1/m, through x^TAYLOR_ORDER, of
    log|x(m)| = -atanh(sin(pi x)) (R None) or of log q_R(m), from mpmath's
    own differentiation of the function, independent of caralab's series."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        if R is None:
            return mpmath.taylor(lambda x: -mpmath.atanh(mpmath.sin(mpmath.pi * x)), 0, TAYLOR_ORDER)
        R = mpmath.mpf(R)
        s = mpmath.sqrt(R)
        return mpmath.taylor(lambda x: mpmath.log((s - R ** x) / (s * R ** x - 1)), 0, TAYLOR_ORDER)


def reference_block(R, n):
    """40-digit block n sum of the function of taylor_coefficients(R): sum 1/m
    is a digamma difference and sum 1/m^j a Hurwitz zeta difference.  From
    N = 2^n >= 2^10 on, the orders dropped add up to below 1e-40."""
    mpmath = pytest.importorskip("mpmath")
    N = 2 ** n
    with mpmath.workdps(40):
        power_sums = [0, mpmath.digamma(2 * N) - mpmath.digamma(N)] + [
            mpmath.zeta(j, N) - mpmath.zeta(j, 2 * N) for j in range(2, TAYLOR_ORDER + 1)]
        return mpmath.fsum(c * p for c, p in zip(taylor_coefficients(R), power_sums))


def direct_block(R, n):
    """40-digit block n sum of log|x(m)| (R None) or of log q_R(m), term by
    term."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        if R is None:
            return mpmath.fsum(-mpmath.atanh(mpmath.sin(mpmath.pi / m))
                               for m in range(2 ** n, 2 ** (n + 1)))
        R = mpmath.mpf(R)
        s = mpmath.sqrt(R)
        return mpmath.fsum(mpmath.log((s - R ** (mpmath.mpf(1) / m)) / (s * R ** (mpmath.mpf(1) / m) - 1))
                           for m in range(2 ** n, 2 ** (n + 1)))


def series_of(R):
    return _MODULUS_SERIES if R is None else _log_quotient_series(R)


class TestClosedFormBlocks:
    # Blocks n > _HEAD_N are value +- radius; the reference must lie inside.
    @pytest.mark.parametrize("n", LONG_BLOCKS)
    @pytest.mark.parametrize("R", [None] + THIN_TO_WIDE, ids=lambda R: "moduli" if R is None else f"q{R}")
    def test_the_40_digit_sum_lies_within_the_radius(self, R, n):
        value, radius = _series_block(series_of(R), n)
        reference = reference_block(R, n)
        assert abs(value - reference) <= radius <= 1e-14 * abs(value)

    @pytest.mark.parametrize("R", [None] + THIN_TO_WIDE, ids=lambda R: "moduli" if R is None else f"q{R}")
    def test_the_series_is_odd_and_its_coefficients_hold(self, R):
        exact = taylor_coefficients(R)
        series = series_of(R)
        # Odd: the even coefficients vanish, as q(-x) = 1/q(x) and
        # atanh(sin(-y)) = -atanh(sin(y)).
        assert all(abs(exact[j]) <= 1e-30 for j in range(0, TAYLOR_ORDER + 1, 2))
        for j, c, e in zip(_ORDERS, series.coeffs, series.errors):
            assert abs(c - exact[j]) <= e
        # The majorant that bounds the dropped orders.
        for j in range(1, TAYLOR_ORDER + 1, 2):
            assert abs(exact[j]) <= series.scale * 2 ** (j + 1) / j

    @pytest.mark.parametrize("R", [None] + THIN_TO_WIDE, ids=lambda R: "moduli" if R is None else f"q{R}")
    def test_the_head_blocks_lie_within_their_radius(self, R):
        # A head block's radius covers np.sum's rounding and every term's.
        blocks = (_block_log_moduli(_HEAD_N) if R is None else
                  _block_sums(lambda ms: _log_quotients(R, ms), _log_quotient_series(R), _HEAD_N,
                              lambda t: _quotient_term_error(R, t)))
        for n in range(2, _HEAD_N + 1):
            reference = direct_block(R, n)
            value, radius = blocks.sums[n - 1], blocks.radii[n - 1]
            assert abs(value - reference) <= radius <= 1e-11 * abs(value)

    @pytest.mark.parametrize("R", [None] + THIN_TO_WIDE + [1e100, 1e300],
                             ids=lambda R: "moduli" if R is None else f"q{R}")
    def test_the_first_closed_form_block_is_the_tighter_sum(self, R):
        # Block _HEAD_N + 1 is the first one summed in closed form, because
        # there the closed-form radius is already the smaller one.
        n = _HEAD_N + 1
        if R is None:
            term_by_term = _head_block(_log_moduli, n, _modulus_term_error)
        else:
            term_by_term = _head_block(lambda ms: _log_quotients(R, ms), n,
                                       lambda t: _quotient_term_error(R, t))
        assert _series_block(series_of(R), n)[1] <= term_by_term[1]

    @pytest.mark.parametrize("R", THIN_TO_WIDE)
    def test_the_chain_head_blocks_are_cancellation_free(self, R):
        # log1p(-(sqrt(R) + 1)(p - 1) / (sqrt(R) p - 1)): the log of the
        # quotient was off by up to 2.4e-7 relative at R = 1 + 1e-6, block 13.
        for n in (12, _HEAD_N):
            block = float(np.sum(_log_quotients(R, np.arange(2 ** n, 2 ** (n + 1), dtype=float))))
            reference = reference_block(R, n)
            assert abs(block - reference) <= 1e-15 * abs(block)

    @pytest.mark.parametrize("R", THIN_TO_WIDE)
    def test_the_quotient_vanishes_at_m_2(self, R):
        assert _log_quotients(R, np.arange(2.0, 4.0))[0] == -math.inf
        blocks = _block_sums(lambda ms: _log_quotients(R, ms), _log_quotient_series(R), 1,
                             lambda t: _quotient_term_error(R, t))
        assert blocks == ((-math.inf,), (0.0,))

    def test_a_default_run_evaluates_only_the_head_blocks(self, monkeypatch, capsys):
        kernels = kernel_counts(monkeypatch)
        counted = {}
        quotients, moduli = sweeps._log_quotients, sweeps._log_moduli

        def count(key, ms):
            counted[key] = counted.get(key, 0) + np.size(ms)

        def counting_quotients(R, ms):
            count(R, ms)
            return quotients(R, ms)

        def counting_moduli(ms):
            count("table", ms)
            return moduli(ms)

        monkeypatch.setattr(sweeps, "_log_quotients", counting_quotients)
        monkeypatch.setattr(sweeps, "_log_moduli", counting_moduli)
        _block_log_moduli.cache_clear()
        assert main(["verify-lemmas", "--R", "1.5", "--R", "4", "--R", "10"]) == EXIT_OK
        capsys.readouterr()
        assert counted == {key: 2 ** (_HEAD_N + 1) - 2 for key in (1.5, 4.0, 10.0, "table")}
        # The m1 and m2 sweeps evaluate their head and m_max.
        assert kernels == {key: _HEAD + 1 for key in ("m1", 1.5, 4.0, 10.0)}

    def test_the_margins_subtract_the_radii(self, monkeypatch):
        table = _block_log_moduli(20)
        assert verify_one_over_e_products(4.0, 20).worst_margin == min(
            min(-1.0 - s - r, 1e12) for s, r in zip(table.sums, table.radii))
        # Block 1's sum is exactly -inf; every other block has a radius.
        assert table.radii[0] == 0.0 and all(r > 0.0 for r in table.radii[1:])

        lower = _block_sums(lambda ms: _log_quotients(4.0, ms), _log_quotient_series(4.0), 20,
                            lambda t: _quotient_term_error(4.0, t))
        radius = {}

        def marked(series, n):
            return _series_block(series, n)[0], radius[series is _MODULUS_SERIES]

        monkeypatch.setattr(sweeps, "_series_block", marked)
        try:
            # The chain's worst link, lower <= upper at block 20, loses both
            # radii.
            radius.update({True: 0.125, False: 0.25})
            _block_log_moduli.cache_clear()
            assert verify_final_chain(4.0, 20).worst_margin == (
                (table.sums[19] - 0.125) - (lower.sums[19] + 0.25))
            # A radius wider than every margin fails every closed-form block.
            radius.update({True: 10.0, False: 10.0})
            _block_log_moduli.cache_clear()
            for R in (1.5, 4.0, 10.0):
                chain, n0 = verify_final_chain(R, 20), verify_one_over_e_products(R, 20)
                assert (chain.threshold_found, n0.threshold_found) == (None, None)
                assert n0.worst_margin == min(-11.0 - s for s in table.sums[_HEAD_N:])
                assert verify_final_chain(R, _HEAD_N).passed
        finally:
            _block_log_moduli.cache_clear()


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
