"""Sweep engine certifying the annulus inequalities and limits over ranges.

Each sweep scans a parameter range, locates the least threshold beyond which
its inequality holds everywhere in range, and records the worst margin.
Sweeps are deterministic and vectorized; results serialize via to_dict().
The index sweeps walk their range in fixed slices of _SLICE indices and
stream the threshold and worst margin through a _SuffixScan, so their peak
memory does not grow with m_max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from .annulus import preimage_moduli

# Float noise threshold of the algebraic identities.
EPS_ALGEBRAIC = 1e-12

TWO_PI = 2.0 * math.pi
ONE_OVER_E = 1.0 / math.e
TWO_OVER_E = 2.0 / math.e

# Least n0 with prod_{m=2^n}^{2^(n+1)-1} |x(m)| <= 1/e for every n >= n0, the
# bound behind the non-compact 2/e ball; proved, so nothing sweeps for it.
#   log|x(m)| = -atanh(sin(pi/m)) <= -sin(pi/m) <= -pi/m + (pi/m)^3 / 6.
#   With N = 2^n: sum_{m=N}^{2N-1} 1/m >= ln 2 and sum 1/m^3 <= N / N^3 = 1/N^2.
#   So block n >= 2 (N >= 4) has log-product <= -pi ln 2 + pi^3 / (6 N^2)
#   <= -1.85 < -1, and block 1 contains |x(2)| = 0.
# verify_one_over_e_products cross-checks it on the swept blocks.
ONE_OVER_E_N0 = 1

# Indices per slice of a block sum in _block_sums: the slice's few work
# arrays stay in cache.  At least 2^12, so blocks n <= 12 stay one slice.
_CHUNK = 1 << 13

# Indices per slice of the upper and lower index sweeps: about ten work
# arrays of this length are alive at once.
_SLICE = 1 << 14


@dataclass(frozen=True)
class BoundConstants:
    """The R-dependent constants governing the lower-bound inequality."""

    R: float
    K_of_R: float
    tau_limit: float

    @classmethod
    def for_radius(cls, R: float) -> "BoundConstants":
        if R <= 1.0:
            raise ValueError(f"R must exceed 1, got {R!r}")
        s = math.sqrt(R)
        K = 2.0 * (s + 1.0) / (s - 1.0) * math.log(R)
        return cls(R=R, K_of_R=K, tau_limit=-(s + 1.0) * math.log(R))


@dataclass
class SweepResult:
    """Outcome of one inequality sweep over an integer parameter range."""

    parameter_name: str
    range: Tuple[int, int]
    threshold_found: Optional[int]
    worst_margin: float
    passed: bool
    samples: List[Tuple[int, float, float]] = field(default_factory=list)
    notes: str = ""

    def to_dict(self) -> dict:
        return {
            "parameter_name": self.parameter_name,
            "range": list(self.range),
            "threshold_found": self.threshold_found,
            "worst_margin": self.worst_margin,
            "passed": self.passed,
            "samples": [[int(p), float(l), float(r)] for p, l, r in self.samples],
            "notes": self.notes,
        }


class _SuffixScan:
    """The suffix threshold of a pass/fail sequence and its worst margin,
    accumulated over consecutive slices.

    It keeps three values: the last failing parameter, the least margin
    after it, and the least margin over the whole range.  min is exact, so
    any cut into slices gives the same result as one whole-range slice.
    """

    def __init__(self, start: int):
        self.start = start
        self.stop = start  # parameter of the next index to be fed
        self.last_bad: Optional[int] = None
        self.since_bad = math.inf
        self.overall = math.inf

    def feed(self, ok: np.ndarray, *margins: np.ndarray) -> None:
        """Take the next slice: ok[i] and margins[k][i] belong to the
        parameter self.stop + i."""
        ok = np.asarray(ok, dtype=bool)
        bad = np.flatnonzero(~ok)
        after = 0
        if bad.size:
            after = int(bad[-1]) + 1
            self.last_bad = self.stop + after - 1
            self.since_bad = math.inf
        for m in margins:
            whole = np.min(m)
            self.overall = min(self.overall, whole)
            if after == 0:
                self.since_bad = min(self.since_bad, whole)
            elif after < len(m):
                self.since_bad = min(self.since_bad, np.min(m[after:]))
        self.stop += ok.size

    def threshold(self) -> Optional[int]:
        """Least parameter p such that ok holds from p through the range end;
        None if even the final parameter fails ("threshold not yet reached")."""
        if self.last_bad is None:
            return self.start
        return None if self.last_bad == self.stop - 1 else self.last_bad + 1

    def result(self) -> Tuple[Optional[int], float]:
        """The threshold, and the least margin from it on, or over the whole
        range if no threshold is reached."""
        threshold = self.threshold()
        return threshold, float(self.overall if threshold is None else self.since_bad)


def _suffix_threshold(values: np.ndarray, start: int) -> Optional[int]:
    """Least parameter p such that values holds from p through the range end.

    values[i] is the pass/fail flag for parameter start + i.  Returns None if
    even the final parameter fails ("threshold not yet reached").
    """
    scan = _SuffixScan(start)
    scan.feed(values)
    return scan.threshold()


def _threshold_and_worst(
    ok: np.ndarray, start: int, *margins: np.ndarray
) -> Tuple[Optional[int], float]:
    """The suffix threshold of ok, and the least of the margins from it on,
    or over the whole range if no threshold is reached."""
    scan = _SuffixScan(start)
    scan.feed(ok, *margins)
    return scan.result()


def _slices(start: int, stop: int):
    """Consecutive float index arrays of at most _SLICE indices covering
    start..stop inclusive."""
    for lo in range(start, stop + 1, _SLICE):
        yield np.arange(lo, min(lo + _SLICE, stop + 1), dtype=float)


def _take_samples(found: dict, ms: np.ndarray, lhs: np.ndarray, rhs: np.ndarray, picks) -> None:
    """Record (m, lhs, rhs) in found for each pick m inside the slice ms."""
    lo = int(ms[0])
    for m in picks:
        if lo <= m < lo + len(ms):
            found[m] = (m, float(lhs[m - lo]), float(rhs[m - lo]))


def _log0(values: np.ndarray) -> np.ndarray:
    """Elementwise log, with -inf wherever a value is not positive."""
    return np.log(values, out=np.full(values.shape, -np.inf), where=values > 0.0)


def _block_sums(terms, n_max: int) -> Tuple[float, ...]:
    """Sums of terms(m) over the blocks m = 2^n .. 2^(n+1)-1, n = 1..n_max.

    Each block is evaluated and summed in slices of _CHUNK indices; a block
    of at most _CHUNK indices is one slice and one np.sum.
    """
    sums = []
    for n in range(1, n_max + 1):
        stop = 2 ** (n + 1)
        sums.append(sum(
            float(np.sum(terms(np.arange(m, min(m + _CHUNK, stop)))))
            for m in range(2 ** n, stop, _CHUNK)
        ))
    return tuple(sums)


def _log_moduli(ms: np.ndarray) -> np.ndarray:
    """log|x(m)| = -atanh(sin(pi/m)), exactly -inf at m = 2; the log-tan form
    would add math.pi's rounding near pi/4 to every term of a block."""
    with np.errstate(divide="ignore"):
        return -np.arctanh(np.sin(math.pi / ms))


@lru_cache(maxsize=None)
def _block_log_moduli(n_max: int) -> Tuple[float, ...]:
    """Block sums of log|x(m)|: R-free, so every block sweep shares them."""
    return _block_sums(_log_moduli, n_max)


def tau(R: float, t) -> np.ndarray:
    """Auxiliary function t * (sqrt(R) + 1) * (1 - R^(1/t)); limit -(sqrt(R)+1) ln R."""
    t = np.asarray(t, dtype=float)
    s = math.sqrt(R)
    return t * (s + 1.0) * (1.0 - np.exp(math.log(R) / t))


def lower_bound_quotient(R: float, ms) -> np.ndarray:
    """(sqrt(R) - R^(1/m)) / (sqrt(R) R^(1/m) - 1): the w/R test-map value
    for the pair (sqrt(R), R^(1 - 1/m))."""
    ms = np.asarray(ms, dtype=float)
    s = math.sqrt(R)
    p = np.exp(math.log(R) / ms)
    return (s - p) / (s * p - 1.0)


def _quotient_and_tau(R: float, ms: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """lower_bound_quotient(R, ms) and tau(R, ms) from one exp(ln R / m),
    with the operation order of each, so both agree with them bit for bit."""
    s = math.sqrt(R)
    p = np.exp(math.log(R) / ms)
    return (s - p) / (s * p - 1.0), ms * (s + 1.0) * (1.0 - p)


def verify_upper_bound_sweep(m_max: int) -> SweepResult:
    """Find the least m1 with |x(m)| <= 1 - 2/(m+1) and (m+1)(1-|x(m)|^2) >= 4
    on [m1, m_max]; also checks (1-|x|^2)/2 <= 1-|x| for every m >= 2.

    R-independent: only the disk moduli |x(m)| are involved.
    """
    if m_max < 4:
        raise ValueError(f"m_max must be >= 4, got {m_max!r}")
    picks = [2, 3, 4, 10, 100, m_max]
    found = {}
    elementary_ok = True
    scan = _SuffixScan(2)
    for ms in _slices(2, m_max):
        x = preimage_moduli(ms)
        s = np.sin(math.pi / ms)
        one_minus_sq = 2.0 * s / (1.0 + s)  # 1 - |x|^2, cancellation-free

        lin_rhs = 1.0 - 2.0 / (ms + 1.0)
        lin_margin = lin_rhs - x
        quad_margin = (ms + 1.0) * one_minus_sq - 4.0
        elem_margin = (1.0 - x) - one_minus_sq / 2.0

        elementary_ok &= bool(np.all(elem_margin >= -EPS_ALGEBRAIC))
        scan.feed(
            (lin_margin >= -EPS_ALGEBRAIC) & (quad_margin >= -EPS_ALGEBRAIC),
            lin_margin, quad_margin,
        )
        _take_samples(found, ms, x, lin_rhs, picks)
    m1, worst = scan.result()

    passed = elementary_ok and m1 is not None
    notes = []
    if m1 is None:
        notes.append("threshold not yet reached in range")
    elif m1 > 2:
        notes.append(f"m1-1={m1 - 1} exhibits a violation, threshold minimal")
    if not elementary_ok:
        notes.append("elementary inequality (1-|x|^2)/2 <= 1-|x| violated")

    samples = [found[m] for m in picks if m in found]
    return SweepResult(
        parameter_name="m1",
        range=(2, m_max),
        threshold_found=m1,
        worst_margin=worst,
        passed=passed,
        samples=samples,
        notes="; ".join(notes),
    )


def verify_two_pi_limit(m_probe: int = 10_000) -> SweepResult:
    """Check (m+1)(1 - |x(m)|^2) -> 2*pi: decreasing deviation along the probe
    ladder {m, 2m, 4m}, under 1% at m = 1e4 and under 0.01% at m = 1e6."""
    if m_probe < 10:
        raise ValueError(f"m_probe must be >= 10, got {m_probe!r}")

    def value(m: int) -> float:
        s = math.sin(math.pi / m)
        return (m + 1.0) * 2.0 * s / (1.0 + s)

    ladder = [m_probe, 2 * m_probe, 4 * m_probe]
    devs = [abs(value(m) - TWO_PI) / TWO_PI for m in ladder]
    monotone = devs[0] > devs[1] > devs[2]
    dev_1e4 = abs(value(10_000) - TWO_PI) / TWO_PI
    dev_1e6 = abs(value(1_000_000) - TWO_PI) / TWO_PI
    passed = monotone and dev_1e4 < 1e-2 and dev_1e6 < 1e-4

    notes = f"relative deviation {dev_1e4:.3e} at m=1e4, {dev_1e6:.3e} at m=1e6"
    if not monotone:
        notes += "; probe-ladder deviation not monotone decreasing"
    samples = [(m, value(m), TWO_PI) for m in ladder + [10_000, 1_000_000]]
    return SweepResult(
        parameter_name="two_pi_limit",
        range=(m_probe, 4 * m_probe),
        threshold_found=None,
        worst_margin=-max(dev_1e4 - 1e-2, dev_1e6 - 1e-4),
        passed=passed,
        samples=samples,
        notes=notes,
    )


def verify_lower_bound_sweep(R: float, m_max: int) -> SweepResult:
    """Find the least m2 >= 3 with the radial-quotient lower bound dominating
    1 - K(R)/m on [m2, m_max]; certify the supporting facts alongside.

    m2 is the least index past which both the displayed inequality and the
    floor tau(t) >= -(3/2)(sqrt(R)+1) ln R hold through m_max.  Side checks:
    positivity of the quotient for all m >= 3, tau(1e5) within 1% of its
    limit, and the algebraic factorization of the margin numerator.
    """
    if m_max < 8:
        raise ValueError(f"m_max must be >= 8, got {m_max!r}")
    consts = BoundConstants.for_radius(R)
    s = math.sqrt(R)
    tau_floor = -1.5 * (s + 1.0) * math.log(R)
    picks = [3, 4, 10, 100, m_max]
    found = {}
    positivity_ok = True
    scan = _SuffixScan(3)
    for ms in _slices(3, m_max):
        q, tau_ms = _quotient_and_tau(R, ms)
        rhs = 1.0 - consts.K_of_R / ms
        margin = q - rhs
        positivity_ok &= bool(np.all(q > 0.0))
        scan.feed((margin >= -EPS_ALGEBRAIC) & (tau_ms >= tau_floor - EPS_ALGEBRAIC), margin)
        _take_samples(found, ms, q, rhs, picks)
    m2, worst = scan.result()

    notes = [f"K(R)={consts.K_of_R:.12g}"]
    passed = positivity_ok and m2 is not None
    if m2 is None:
        notes.append("threshold not yet reached in range")
    if not positivity_ok:
        notes.append("quotient positivity violated for some m >= 3")

    tau_probe = float(tau(R, 100_000))
    tau_dev = abs(tau_probe - consts.tau_limit) / abs(consts.tau_limit)
    if tau_dev >= 1e-2:
        passed = False
        notes.append(f"tau(1e5) deviates {tau_dev:.3e} from its limit")

    # Margin-numerator factorization: an exact algebraic identity.  The
    # terms scale like m, so the tolerance is relative to that scale.
    probe_ms = np.arange(3, m_max + 1, max(1, (m_max - 2) // 64), dtype=float)
    p = np.exp(math.log(R) / probe_ms)
    direct = (
        probe_ms * (s - p) - probe_ms * (s * p - 1.0) + consts.K_of_R * (s * p - 1.0)
    )
    factored = tau(R, probe_ms) + consts.K_of_R * (s * p - 1.0)
    scale = max(1.0, float(np.max(np.abs(direct))))
    fact_err = float(np.max(np.abs(direct - factored))) / scale
    if fact_err > 1e-10:
        passed = False
        notes.append(f"numerator factorization identity off by {fact_err:.3e}")

    samples = [found[m] for m in picks if m in found]
    return SweepResult(
        parameter_name=f"m2(R={R:g})",
        range=(3, m_max),
        threshold_found=m2,
        worst_margin=worst,
        passed=passed,
        samples=samples,
        notes="; ".join(notes),
    )


def verify_final_chain(R: float, n_max: int) -> SweepResult:
    """Certify the four-term product chain over blocks m = 2^n .. 2^(n+1)-1:

        (1 - K(R)/2^n)^(2^n)  <=  prod lower(sqrt(R), R^(1-1/m))
                              <=  prod |x(m)|
                              <=  (1 - 2/2^(n+1))^(2^n)

    Products run in log space.  The lower product uses the closed-form
    radial-quotient member of the annulus lower-bound family, which already
    certifies.  Reports the least n from which every link holds through
    n_max, with per-link margins (log scale).
    """
    if not 1 <= n_max <= 24:
        raise ValueError(f"n_max must lie in [1, 24], got {n_max!r}")
    consts = BoundConstants.for_radius(R)
    K = consts.K_of_R

    lower = _block_sums(lambda ms: _log0(lower_bound_quotient(R, ms)), n_max)
    upper = _block_log_moduli(n_max)

    ok_rows = []
    margins = []
    samples = []
    for n, mid_lower, mid_upper in zip(range(1, n_max + 1), lower, upper):
        base = 1.0 - K / 2 ** n
        # Even exponent: a negative base still yields a positive product,
        # so the left endpoint is compared through |base|.
        left = 2 ** n * math.log(abs(base)) if base != 0.0 else -math.inf
        right = 2 ** n * math.log(1.0 - 2.0 / 2 ** (n + 1))
        links = (mid_lower - left, mid_upper - mid_lower, right - mid_upper)
        ok = all(l >= -EPS_ALGEBRAIC for l in links) and base > 0.0
        ok_rows.append(ok)
        # The n=1 block contains |x(2)| = 0, driving its log-product to
        # -inf; margins are clamped so reports stay finite.
        margins.append(min(max(l, -1e12) for l in links))
        if n in (1, n_max // 2, n_max):
            samples.append((n, left, right))

    threshold, worst = _threshold_and_worst(np.array(ok_rows), 1, np.array(margins))
    passed = threshold is not None
    notes = []
    if threshold is not None:
        base = 1.0 - K / 2 ** n_max
        left_val = abs(base) ** (2 ** n_max)
        target = math.exp(-K)
        dev = abs(left_val - target) / target
        notes.append(f"left endpoint at n={n_max}: {left_val:.9g} vs e^-K={target:.9g}")
        # The endpoint converges to e^-K as n grows; the 1% claim is only
        # meaningful deep into the range, so it gates the result at n >= 20.
        if dev >= 1e-2 and n_max >= 20:
            passed = False
            notes.append(f"left endpoint deviates {dev:.3e} from e^-K(R)")
    else:
        notes.append("threshold not yet reached in range")

    return SweepResult(
        parameter_name=f"chain_n(R={R:g})",
        range=(1, n_max),
        threshold_found=threshold,
        worst_margin=worst,
        passed=passed,
        samples=samples,
        notes="; ".join(notes),
    )


def verify_one_over_e_products(R: float, n_max: int) -> SweepResult:
    """Find the least n0 with prod_{m=2^n}^{2^(n+1)-1} |x(m)| <= 1/e for every
    n in [n0, n_max]; the bound behind the non-compact 2/e ball.

    A cross-check of ONE_OVER_E_N0, the proved n0 = 1 the glued space uses.
    The block products involve only disk moduli |x(m)| and are R-free; R is
    accepted for interface symmetry with the other sweeps.
    """
    if not 1 <= n_max <= 24:
        raise ValueError(f"n_max must lie in [1, 24], got {n_max!r}")
    ok_rows = []
    margins = []
    samples = []
    for n, log_prod in enumerate(_block_log_moduli(n_max), start=1):
        margin = -1.0 - log_prod  # log(1/e) - log(product)
        ok_rows.append(margin >= -EPS_ALGEBRAIC)
        # |x(2)| = 0 makes the n=1 margin +inf; clamp to keep reports finite.
        margins.append(min(margin, 1e12))
        if n in (1, 2, n_max):
            samples.append((n, math.exp(log_prod) if math.isfinite(log_prod) else 0.0, ONE_OVER_E))

    n0, worst = _threshold_and_worst(np.array(ok_rows), 1, np.array(margins))
    passed = n0 is not None
    notes = f"implied Mobius-scale ball radius 2/e = {TWO_OVER_E:.12g}"
    if n0 is None:
        notes += "; threshold not yet reached in range"
    return SweepResult(
        parameter_name=f"n0(R={R:g})",
        range=(1, n_max),
        threshold_found=n0,
        worst_margin=worst,
        passed=passed,
        samples=samples,
        notes=notes,
    )
