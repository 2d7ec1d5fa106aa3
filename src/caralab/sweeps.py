"""Sweep engine certifying the annulus inequalities and limits over ranges.

Each sweep scans a parameter range, locates the least threshold beyond which
its inequality holds everywhere in range, and records the worst margin.
Sweeps are deterministic and vectorized; results serialize via to_dict().
The m1 and m2 sweeps walk their ranges in slices of at most _CHUNK indices
(_slices), so peak memory does not grow with m_max, and stream every
threshold and worst margin through a _SuffixScan.

The chain and 1/e sweeps read sums over the blocks m = 2^n .. 2^(n+1)-1
(_block_sums).  A head block, n <= _HEAD_N, fits in one slice and is one
np.sum of its terms: a plain float sum, with radius 0.  Every longer block is
summed in closed form (_series_block).  Both summands, log|x(m)| and the
chain's log q_R(m), are odd power series in x = 1/m with radius of
convergence 1/2, and Euler-Maclaurin gives each power sum over the block.
Such a block sum is a value plus an a priori error radius, which covers the
dropped orders of the series, the Euler-Maclaurin remainder and the float
evaluation; the block sweeps subtract it outward in every link and margin.
So the table and the chain at each radius evaluate 2^14 - 2 indices each,
whatever n_max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

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

# Indices per slice of every index walk (_slices): a slice's work arrays, up
# to about ten in the upper and lower sweeps, stay in cache.
_CHUNK = 1 << 13

# Blocks n <= _HEAD_N fit in one slice and are summed term by term; longer
# blocks are summed in closed form (_series_block).
_HEAD_N = _CHUNK.bit_length() - 1

# Largest n_max of the block sweeps: their table ends at m = 2^25 - 1.
_N_LIMIT = 24

# Unit roundoff of a float.
_U = 2.0 ** -53

# The odd powers j of 1/m that a closed-form block sum keeps.
_ORDERS = (1, 3, 5, 7)


def _radius_name(R: float) -> str:
    """R as sweep names show it: in :g form when that reads back as R, so
    that distinct radii never share a name, and as repr(R) otherwise."""
    text = f"{R:g}"
    return text if float(text) == R else repr(R)


@dataclass(frozen=True)
class BoundConstants:
    """The R-dependent constants governing the lower-bound inequality."""

    R: float
    K_of_R: float
    tau_limit: float

    @classmethod
    def for_radius(cls, R: float) -> "BoundConstants":
        if not (math.isfinite(R) and R > 1.0 and math.sqrt(R) > 1.0):
            raise ValueError(f"R must be finite with sqrt(R) > 1, got {R!r}")
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
        after = 0
        if not ok.all():
            after = int(np.flatnonzero(~ok)[-1]) + 1
            self.last_bad = self.stop + after - 1
            self.since_bad = math.inf
        for m in margins:
            m = np.asarray(m)
            whole = m.min()
            self.overall = min(self.overall, whole)
            if after == 0:
                self.since_bad = min(self.since_bad, whole)
            elif after < len(m):
                self.since_bad = min(self.since_bad, m[after:].min())
        self.stop += ok.size

    def result(self) -> Tuple[Optional[int], float]:
        """The least parameter p such that ok holds from p through the range
        end, and the least margin from p on; if even the final parameter
        fails ("threshold not yet reached"), None and the least margin over
        the whole range."""
        if self.last_bad == self.stop - 1:
            return None, float(self.overall)
        threshold = self.start if self.last_bad is None else self.last_bad + 1
        return threshold, float(self.since_bad)


# The offsets 0 .. _CHUNK - 1 that each slice of _slices adds its start to.
_BASE = np.arange(_CHUNK, dtype=float)


def _slices(start: int, stop: int):
    """Consecutive float index arrays of at most _CHUNK indices covering
    start..stop inclusive.

    Every slice is a view of one buffer per walk, which the next slice
    overwrites: copy a slice to keep it past the next step.  The indices
    are exact integers, as np.arange gives them.
    """
    buf = np.empty(_CHUNK)
    for lo in range(start, stop + 1, _CHUNK):
        k = min(_CHUNK, stop + 1 - lo)
        yield np.add(_BASE[:k], lo, out=buf[:k])


def _take_samples(found: dict, ms: np.ndarray, lhs: np.ndarray, rhs: np.ndarray, picks) -> None:
    """Record (m, lhs, rhs) in found for each pick m inside the slice ms."""
    lo = int(ms[0])
    for m in picks:
        if lo <= m < lo + len(ms):
            found[m] = (m, float(lhs[m - lo]), float(rhs[m - lo]))


class _Series(NamedTuple):
    """A summand f(m) = sum_j c_j m^-j over odd j: the coefficients c_j for
    j in _ORDERS, a bound on each one's float error, and the scale K of the
    majorant |c_j| <= K 2^(j+1) / j, which holds for every odd j and bounds
    the orders dropped."""

    coeffs: Tuple[float, ...]
    errors: Tuple[float, ...]
    scale: float


def _modulus_series() -> _Series:
    """log|x(m)| = -gd^-1(pi/m) = -sum_j |E_(j-1)| pi^j / j! m^-j over odd j,
    with the Euler numbers 1, 1, 5, 61.

    |E_(j-1)| pi^j / j! = 2^(j+1) beta(j) / j, and Dirichlet's beta(j) < 1,
    so K = 1.  Each coefficient rounds within (j + 4) u: math.pi within u,
    its power within j u plus one ulp, then a product and a quotient.
    """
    coeffs = tuple(-math.pi ** j * e / math.factorial(j) for j, e in zip(_ORDERS, (1, 1, 5, 61)))
    return _Series(coeffs, tuple((j + 4) * _U * abs(c) for j, c in zip(_ORDERS, coeffs)), 1.0)


_MODULUS_SERIES = _modulus_series()


def _series_log(a: List[float]) -> Tuple[List[float], List[float]]:
    """Coefficients g_k of log(1 + sum_{k>=1} a_k x^k) (a[0] is not read), by
    k g_k = k a_k - sum_{i<k} i g_i a_(k-i); and the magnitudes, the same
    recurrence on absolute values, which bound how errors grow in it."""
    g, mag = [0.0] * len(a), [0.0] * len(a)
    for k in range(1, len(a)):
        g[k] = (k * a[k] - sum(i * g[i] * a[k - i] for i in range(1, k))) / k
        mag[k] = (k * abs(a[k]) + sum(i * mag[i] * abs(a[k - i]) for i in range(1, k))) / k
    return g, mag


def _log_quotient_series(R: float) -> _Series:
    """log q_R(m), q_R = lower_bound_quotient(R, m), as an odd power series in
    x = 1/m.

    With L = ln R, s = sqrt(R), d = s - 1 = expm1(L/2) and u = e^(Lx) - 1,
    q = (s - e^(Lx)) / (s e^(Lx) - 1) = (1 - u/d) / (1 + s u/d), so log q is
    the power-series log of the first factor minus that of the second.
    q(-x) = 1/q(x), so log q is odd: its even coefficients are exactly 0, and
    the computed ones (rounding noise) are dropped.

    Majorant: q = sinh(h(1 - 2x)) / sinh(h(1 + 2x)) with h = L/4, so
    c_j = -2 (2h)^j F^(j)(h) / j! with F = log sinh.  coth's partial fractions
    give |F^(j)(h)| / j! <= (h^-j + h^(1-j)) / j for j >= 2, and c_1 is
    -4h coth(h), so K = 1 + h.

    Float error: L rounds within 2u, d within (4 + L)u (its own ulp plus
    L's error times expm1's condition 1 + L/2), L^k / k! within 4k u, so each
    input of _series_log within (4k + 7 + L)u.  g_k sums products of at most
    k inputs whose orders add to k, so the inputs move it by at most
    k (11 + L) u and the recurrence's rounding by k (k + 7)/2 u, relative to
    its magnitude: k (L + k + 15) u in all.
    """
    L = math.log(R)
    s = math.sqrt(R)
    d = math.expm1(L / 2.0)
    powers = [0.0, L]  # L^k / k!
    for k in range(2, _ORDERS[-1] + 1):
        powers.append(powers[-1] * L / k)
    first, first_mag = _series_log([-p / d for p in powers])
    second, second_mag = _series_log([s * p / d for p in powers])
    coeffs = tuple(first[j] - second[j] for j in _ORDERS)
    errors = tuple(j * (L + j + 15.0) * _U * (first_mag[j] + second_mag[j]) + _U * abs(c)
                   for j, c in zip(_ORDERS, coeffs))
    return _Series(coeffs, errors, 1.0 + L / 4.0)


@lru_cache(maxsize=None)
def _power_sums(n: int) -> Tuple[Tuple[float, float, float], ...]:
    """(S_j, M_j, E_j) for each j of _ORDERS, with a = 2^n and b = 2a - 1:
    S_j = sum_{m=a}^{b} m^-j by Euler-Maclaurin with the B2, B4 and B6 terms
    (NIST DLMF 2.10.1), M_j the sum of its terms' magnitudes, and E_j a bound
    on its remainder.

    The derivatives of m^-j keep one sign, so the remainder is at most
    2 |B8| / 8! |f^(7)(b) - f^(7)(a)| <= j (j+1) ... (j+6) a^-(j+7) / 604800.
    Each term rounds within 5u: b / a = 2 - 2^-n is exact, a^(1-j) is a power
    of 2, and math.fsum rounds once.
    """
    a = 2.0 ** n
    b = 2.0 * a - 1.0
    sums = []
    for j in _ORDERS:
        terms = [math.log(b / a) if j == 1 else (a ** (1 - j) - b ** (1 - j)) / (j - 1),
                 0.5 * (a ** -j + b ** -j)]
        rising = j  # j (j+1) ... (j+p-1): f^(p)(m) = -rising m^-(j+p)
        for p, bernoulli in zip((1, 3, 5), (1.0 / 12.0, -1.0 / 720.0, 1.0 / 30240.0)):
            terms.append(bernoulli * rising * (a ** -(j + p) - b ** -(j + p)))
            rising *= (j + p) * (j + p + 1)
        sums.append((math.fsum(terms), sum(map(abs, terms)), rising * a ** -(j + 7) / 604800.0))
    return tuple(sums)


def _series_block(series: _Series, n: int) -> Tuple[float, float]:
    """Block n's sum of the series' function, and a radius that bounds its
    error: the orders past _ORDERS (at most K 2^(j+1) / j a^(1-j) each, with
    a = 2^n), the Euler-Maclaurin remainders, each coefficient's error, and
    16u of the magnitude per order for the power sums and the products."""
    sums = _power_sums(n)
    value = math.fsum(c * s for c, (s, _, _) in zip(series.coeffs, sums))
    a = 2.0 ** n
    j = _ORDERS[-1] + 2
    radius = 2.0 * series.scale / j * a * (2.0 / a) ** j / (1.0 - (2.0 / a) ** 2)
    for c, e, (_, mag, rem) in zip(series.coeffs, series.errors, sums):
        radius += (abs(c) + e) * rem + (e + 16.0 * _U * abs(c)) * mag
    return value, radius


class _Blocks(NamedTuple):
    """Block sums n = 1..n_max, and the radius of each: 0 for a head block,
    summed term by term, and the _series_block radius for a longer one."""

    sums: Tuple[float, ...]
    radii: Tuple[float, ...]


def _block_sums(terms, series: _Series, n_max: int) -> _Blocks:
    """Sums of f(m) over the blocks m = 2^n .. 2^(n+1)-1, n = 1..n_max, where
    terms(ms) evaluates f and series is its power series in 1/m.

    A head block (n <= _HEAD_N) is one np.sum of terms over the block; a
    longer block is the series summed in closed form (_series_block).
    """
    blocks = [(float(np.sum(terms(np.arange(2 ** n, 2 ** (n + 1), dtype=float)))), 0.0)
              if n <= _HEAD_N else _series_block(series, n)
              for n in range(1, n_max + 1)]
    return _Blocks(*map(tuple, zip(*blocks)))


def _log_moduli(ms: np.ndarray) -> np.ndarray:
    """log|x(m)| = -atanh(sin(pi/m)), exactly -inf at m = 2; the log-tan form
    would add math.pi's rounding near pi/4 to every term of a block."""
    with np.errstate(divide="ignore"):
        return -np.arctanh(np.sin(math.pi / ms))


def _log_quotients(R: float, ms: np.ndarray) -> np.ndarray:
    """log lower_bound_quotient(R, ms) without cancellation:
    log1p(-(sqrt(R) + 1)(p - 1) / (sqrt(R) p - 1)) with p - 1 = expm1(ln R / m)
    and sqrt(R) p - 1 = sqrt(R)(p - 1) + expm1(ln R / 2).  Both expm1 come from
    numpy, which may round apart from math.expm1, so at m = 2 they are one
    float, the ratio is 1 and the log is exactly -inf."""
    L = math.log(R)
    s = math.sqrt(R)
    pm1 = np.expm1(L / ms)
    sp = s * pm1
    with np.errstate(divide="ignore"):
        return np.log1p(-(sp + pm1) / (sp + float(np.expm1(L / 2.0))))


@lru_cache(maxsize=None)
def _block_log_moduli(n_max: int) -> _Blocks:
    """Block sums of log|x(m)|: R-free, so every block sweep shares them."""
    return _block_sums(_log_moduli, _MODULUS_SERIES, n_max)


def _check_m_max(m_max: int, least: int) -> None:
    if m_max < least:
        raise ValueError(f"m_max must be >= {least}, got {m_max!r}")


def _check_n_max(n_max: int) -> None:
    if not 1 <= n_max <= _N_LIMIT:
        raise ValueError(f"n_max must lie in [1, {_N_LIMIT}], got {n_max!r}")


def check_lemma_ranges(m_max: int, n_max: int) -> None:
    """Raise the ValueError that the first verify-lemmas sweep given these
    ranges would raise, without running any sweep: the m1 sweep needs
    m_max >= 4, the m2 sweep m_max >= 8, the block sweeps n_max in [1, 24]."""
    _check_m_max(m_max, 4)
    _check_m_max(m_max, 8)
    _check_n_max(n_max)


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
    _check_m_max(m_max, 4)
    picks = [2, 3, 4, 10, 100, m_max]
    found = {}
    elementary_ok = True
    scan = _SuffixScan(2)
    for ms in _slices(2, m_max):
        t = math.pi / ms
        # preimage_moduli(ms) bit for bit, without its range check: halving
        # is exact, so fl(pi/m) * 0.5 = fl(pi/(2m)).
        x = np.tan(math.pi / 4.0 - t * 0.5)
        s = np.sin(t)
        one_minus_sq = 2.0 * s / (1.0 + s)  # 1 - |x|^2, cancellation-free

        ms_plus_1 = ms + 1.0
        lin_rhs = 1.0 - 2.0 / ms_plus_1
        lin_margin = lin_rhs - x
        quad_margin = ms_plus_1 * one_minus_sq - 4.0
        elem_margin = (1.0 - x) - one_minus_sq * 0.5

        # A NaN margin makes min NaN and fails, as in np.all(elem >= -eps).
        elementary_ok &= bool(elem_margin.min() >= -EPS_ALGEBRAIC)
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
    _check_m_max(m_max, 8)
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
        positivity_ok &= bool(q.min() > 0.0)  # a NaN fails it, as in np.all(q > 0)
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
        parameter_name=f"m2(R={_radius_name(R)})",
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
    n_max, with per-link margins (log scale).  Each link is taken with the
    radii of its block sums subtracted, so a closed-form block only passes
    where every value within its radius does.
    """
    _check_n_max(n_max)
    consts = BoundConstants.for_radius(R)
    K = consts.K_of_R

    lower = _block_sums(lambda ms: _log_quotients(R, ms), _log_quotient_series(R), n_max)
    upper = _block_log_moduli(n_max)

    ok_rows = []
    margins = []
    samples = []
    for n, mid_lower, lower_r, mid_upper, upper_r in zip(
        range(1, n_max + 1), lower.sums, lower.radii, upper.sums, upper.radii
    ):
        base = 1.0 - K / 2 ** n
        # Even exponent: a negative base still yields a positive product,
        # so the left endpoint is compared through |base|.
        left = 2 ** n * math.log(abs(base)) if base != 0.0 else -math.inf
        right = 2 ** n * math.log(1.0 - 2.0 / 2 ** (n + 1))
        links = (mid_lower - lower_r - left,
                 (mid_upper - upper_r) - (mid_lower + lower_r),
                 right - mid_upper - upper_r)
        # The n=1 block contains |x(2)| = 0, driving its log-product to
        # -inf; margins are clamped so reports stay finite.
        ok_rows.append(all(l >= -EPS_ALGEBRAIC for l in links) and base > 0.0)
        margins.append(min(max(l, -1e12) for l in links))
        if n in (1, n_max // 2, n_max):
            samples.append((n, left, right))

    scan = _SuffixScan(1)
    scan.feed(ok_rows, margins)
    threshold, worst = scan.result()
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
        parameter_name=f"chain_n(R={_radius_name(R)})",
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
    _check_n_max(n_max)
    ok_rows = []
    margins = []
    samples = []
    table = _block_log_moduli(n_max)
    for n, log_prod, radius in zip(range(1, n_max + 1), table.sums, table.radii):
        margin = -1.0 - log_prod - radius  # log(1/e) - log(product), outward
        ok_rows.append(margin >= -EPS_ALGEBRAIC)
        # |x(2)| = 0 makes the n=1 margin +inf; clamp to keep reports finite.
        margins.append(min(margin, 1e12))
        if n in (1, 2, n_max):
            samples.append((n, math.exp(log_prod) if math.isfinite(log_prod) else 0.0, ONE_OVER_E))

    scan = _SuffixScan(1)
    scan.feed(ok_rows, margins)
    n0, worst = scan.result()
    passed = n0 is not None
    notes = f"implied Mobius-scale ball radius 2/e = {TWO_OVER_E:.12g}"
    if n0 is None:
        notes += "; threshold not yet reached in range"
    return SweepResult(
        parameter_name=f"n0(R={_radius_name(R)})",
        range=(1, n_max),
        threshold_found=n0,
        worst_margin=worst,
        passed=passed,
        samples=samples,
        notes=notes,
    )
