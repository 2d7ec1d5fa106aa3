"""Sweep engine certifying the annulus inequalities and limits over ranges.

Each sweep scans a parameter range, locates the least threshold beyond which
its inequality holds everywhere in range, and records the worst margin.
Sweeps are deterministic and vectorized; results serialize via to_dict().

The m1 and m2 sweeps evaluate their head, the first _HEAD indices, and
stream every threshold and worst margin through a _SuffixScan.  Their tail,
from H = start + _HEAD on, is certified a priori (_window_start): past the
head the margin is a smooth function of y = 1/m that falls to 0 with slope
at least c in y, so it drops by at least c/(m(m-1)) from m-1 to m, and each
float margin lies within an a priori E of it, taking numpy's elementary
functions within _ULPS ulps.  Up to the last m with c/(m(m-1)) > 2E the
float margins fall strictly, so on [H, w) they all pass and lie above the
float margin at w; the scan takes that run whole (_SuffixScan.feed_run), and
the sweep evaluates only the window [w, m_max], where the floats may
round out of order.  At the default radii that window is m_max alone; at
R = 1 + 1e-6 it is nearly the whole range.  One-sided checks on the head's
last margins cover the rest (quad, the quotient, tau), and where one fails
the sweep evaluates the whole tail, as without the certificate.

The chain and 1/e sweeps read sums over the blocks m = 2^n .. 2^(n+1)-1
(_block_sums).  A head block, n <= _HEAD_N, lies below _HEAD and is one
np.sum of its terms, with an a priori radius for that sum and for the terms'
own float errors.  Every longer block is summed in closed form
(_series_block).  Both summands, log|x(m)| and the chain's log q_R(m), are
odd power series in x = 1/m with radius of convergence 1/2, and
Euler-Maclaurin gives each power sum over the block.  Such a block sum is a
value plus an a priori error radius, which covers the dropped orders of the
series, the Euler-Maclaurin remainder and the float evaluation.  From block
_HEAD_N + 1 on, that radius is below the term-by-term one for the moduli
and at every R from 1 + 1e-6 to 1e300.  The block sweeps subtract every
radius outward in every link and margin.  So the table and the chain at
each radius evaluate 2^10 - 2 indices each, whatever n_max.
"""

from __future__ import annotations

import math
import sys
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

# The m1 and m2 sweeps evaluate their first _HEAD indices term by term and
# certify the rest (_certified_walk).
_HEAD = 1 << 10

# Blocks n <= _HEAD_N, every block below _HEAD, are summed term by term;
# longer blocks are summed in closed form (_series_block), whose radius is
# the smaller one from block _HEAD_N + 1 on.
_HEAD_N = _HEAD.bit_length() - 2

# Largest n_max of the block sweeps: their table ends at m = 2^25 - 1.
_N_LIMIT = 24

# Unit roundoff of a float.
_U = 2.0 ** -53

# numpy's float64 exp, expm1, log1p, sin, tan and arctanh, and libm's log and
# expm1 behind math, return within _ULPS units in the last place of the exact
# value, so within _ULPS * 2u relative.  The largest error that
# tests/test_sweeps.py measures on sweep arguments is below 1 ulp; 4 leaves
# room for other SIMD paths.  Every a priori error bound of this module reads
# it, as rho = 2 _ULPS u.
_ULPS = 4

# Factor on each computed bound: it covers the rounding of the few float
# operations that compute a bound, and the bound's dropped second-order terms.
_SAFETY = 1.0 + 2.0 ** -20

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

    def feed_run(self, count: int, least: float) -> None:
        """Take count > 0 parameters that all pass and whose least margin is
        least: the same as feed of an all-True slice with that minimum."""
        self.overall = min(self.overall, least)
        self.since_bad = min(self.since_bad, least)
        self.stop += count

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


def _majorant(series: _Series, y: float, p: int) -> float:
    """A bound on |f(y')| (p = 0) or |f'(y')| (p = 1) for 0 <= y' <= y < 1/2,
    where f is the series' function of y' = 1/m: sum_j (|c_j| + error)
    j^p y^(j-p) over _ORDERS, and over every larger odd j the majorant
    K 2^(j+1) j^(p-1) y^(j-p) <= K 2^(p+1) 9^(p-1) (2y)^(j-p), a geometric
    series in (2y)^2."""
    known = sum((abs(c) + e) * j ** p * y ** (j - p)
                for j, c, e in zip(_ORDERS, series.coeffs, series.errors))
    j = _ORDERS[-1] + 2
    rest = series.scale * 2.0 ** (p + 1) * j ** (p - 1) * (2.0 * y) ** (j - p) / (1.0 - 4.0 * y * y)
    return (known + rest) * _SAFETY


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
    """Block sums n = 1..n_max, and the radius of each: the _head_block
    radius for a block summed term by term, the _series_block radius for a
    longer one."""

    sums: Tuple[float, ...]
    radii: Tuple[float, ...]


def _head_block(terms, n: int, term_error) -> Tuple[float, float]:
    """Block n's sum as one np.sum of its terms, and a radius that bounds its
    error.

    Every term is at most 0 and largest in size at the block's first index,
    t there, and each is within term_error(t) of the exact term, relative.
    np.sum adds the 2^n terms pairwise; any order of 2^n - 1 additions is
    within (2^n - 1)u of the sum of the sizes, here |sum|.  Block 1 holds
    m = 2, whose term is exactly -inf, and so is its sum: radius 0.  A later
    block's sum is -inf only where a float term rounds to -inf (R beyond
    1e64), which gets radius inf.
    """
    values = terms(np.arange(2 ** n, 2 ** (n + 1), dtype=float))
    total = float(np.sum(values))
    if n == 1:
        return total, 0.0
    if not math.isfinite(total):
        return total, math.inf
    return total, ((2 ** n - 1) * _U + term_error(-float(values[0]))) * -total * _SAFETY


def _block_sums(terms, series: _Series, n_max: int, term_error) -> _Blocks:
    """Sums of f(m) over the blocks m = 2^n .. 2^(n+1)-1, n = 1..n_max, where
    terms(ms) evaluates f, term_error bounds its float error (_head_block)
    and series is its power series in 1/m.

    A head block (n <= _HEAD_N) is one np.sum of terms over the block; a
    longer block is the series summed in closed form (_series_block).
    """
    blocks = [_head_block(terms, n, term_error) if n <= _HEAD_N else _series_block(series, n)
              for n in range(1, n_max + 1)]
    return _Blocks(*map(tuple, zip(*blocks)))


def _log_moduli(ms: np.ndarray) -> np.ndarray:
    """log|x(m)| = -atanh(sin(pi/m)), exactly -inf at m = 2; the log-tan form
    would add math.pi's rounding near pi/4 to every term of a block."""
    with np.errstate(divide="ignore"):
        return -np.arctanh(np.sin(math.pi / ms))


def _modulus_term_error(t: float) -> float:
    """Relative error bound of _log_moduli at m >= 4 where its terms are at
    most t in size.

    With a = pi/m (within 2u: math.pi, then the division) and z = sin(a)
    (sin's condition is at most 1), atanh(z) moves by z / (1 - z^2) per
    unit of z's relative error, which is at most sec(a)^2 = cosh(t)^2 times
    the term's size gd^-1(a) >= a.
    """
    rho = 2.0 * _ULPS * _U
    return math.cosh(t) ** 2 * (2.0 * _U + rho) + rho


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


def _quotient_term_error(R: float, t: float) -> float:
    """Relative error bound of _log_quotients(R, ms) at m >= 4 where its terms
    are at most t in size.

    Its ratio z = 1 - q is within (10 + L/2)u + (6 + L)rho, L = ln R and rho
    the _ULPS error: ln R within rho, p - 1 within (1 + L/4)(rho + u) + rho
    (expm1's condition is at most 1 + L/m), sqrt(R) - 1 within (2 + L/2)rho,
    and six roundings.  log1p(-z) moves by z/q = e^|log q| - 1 per unit of
    z's relative error, at most (e^t - 1)/t times the term's size.
    """
    L = math.log(R)
    rho = 2.0 * _ULPS * _U
    return ((10.0 + L / 2.0) * _U + (6.0 + L) * rho) * math.expm1(t) / t + rho


@lru_cache(maxsize=None)
def _block_log_moduli(n_max: int) -> _Blocks:
    """Block sums of log|x(m)|: R-free, so every block sweep shares them."""
    return _block_sums(_log_moduli, _MODULUS_SERIES, n_max, _modulus_term_error)


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


def _upper_terms(ms: np.ndarray):
    """The m1 sweep's kernel: |x(m)|, the bound 1 - 2/(m+1), and the lin,
    quad and elem margins at the indices ms."""
    t = math.pi / ms
    # preimage_moduli(ms) bit for bit, without its range check: halving
    # is exact, so fl(pi/m) * 0.5 = fl(pi/(2m)).
    x = np.tan(math.pi / 4.0 - t * 0.5)
    s = np.sin(t)
    one_minus_sq = 2.0 * s / (1.0 + s)  # 1 - |x|^2, cancellation-free
    ms_plus_1 = ms + 1.0
    lin_rhs = 1.0 - 2.0 / ms_plus_1
    return (x, lin_rhs, lin_rhs - x, ms_plus_1 * one_minus_sq - 4.0,
            (1.0 - x) - one_minus_sq * 0.5)


def _window_start(tail: int, m_max: int, slope: float, error: float) -> int:
    """Where a certified walk resumes: a w in [tail, m_max] such that every
    float margin on [tail, w) passes and lies above the float at w.

    The exact margin is 0 at y = 1/m = 0 and has slope at least `slope` in y
    on (0, 1/(tail - 1)], so it is positive and falls by at least
    slope/(m(m-1)) from m - 1 to m.  Each float margin lies within `error`
    of it.  While m^2 <= slope/(2 error), that fall exceeds 2 error, so the
    float at m - 1 lies above the float at m, and on [tail, w) every float
    exceeds the exact margin at w plus error, which is positive.
    """
    if not slope > 0.0:
        return tail
    last = math.isqrt(int(slope / (2.0 * error * _SAFETY)))
    return max(tail, min(m_max, last))


def _certified_walk(start: int, m_max: int, take, window) -> None:
    """Walk a sweep's head, the first _HEAD indices from start, then the
    window [w, m_max], w = window(tail, *last), where tail = start + _HEAD
    and last is what take returned for the head.

    take(ms, run) evaluates one slice and feeds it to the sweep's scan, after
    the run of certified parameters just before the slice when run > 0.
    Every sample pick but m_max lies in the head, and m_max ends the window.
    """
    tail = start + _HEAD
    for ms in _slices(start, min(m_max, tail - 1)):
        last = take(ms, 0)
    if tail > m_max:
        return
    w = window(tail, *last)
    run = w - tail
    for ms in _slices(w, m_max):
        take(ms, run)
        run = 0


class _UpperBounds(NamedTuple):
    """The m1 certificate's constants: the slope of lin in y = 1/m, and how
    far each float margin may lie from the exact one."""

    slope: float
    lin: float
    quad: float
    elem: float


def _upper_bounds(y0: float) -> _UpperBounds:
    """The m1 certificate's constants on m >= 1/y0 >= 8.

    lin(y) = 1 - 2y/(1+y) - x(y) with x(y) = exp(-gd^-1(pi y)) has slope
    pi sec(pi y) x(y) - 2/(1+y)^2 >= pi (1 - gd^-1(pi y0)) - 2, about pi - 2;
    the modulus series' majorant bounds gd^-1(pi y0).

    Float errors, rho the _ULPS error: tan's argument pi/4 - pi/(2m) rounds
    within 2u and tan's slope there is at most 2, so x is within 4u + rho;
    1 - 2/(m+1) is within 1.25u, and lin within 6u + rho.  sin(pi/m) is
    within 2u + rho, 1 - x^2 = 2s/(1+s) within 4u + rho, and
    (m+1)(1 - x^2) <= 2pi(1 + y0) < 7.1, so quad is within 39u + 7.1 rho,
    42u with the check's own roundings.  1 - x is exact (Sterbenz), so elem
    is within 7u + 1.5 rho.
    """
    rho = 2.0 * _ULPS * _U
    slope = (math.pi * (1.0 - _majorant(_MODULUS_SERIES, y0, 0)) - 2.0) / _SAFETY
    return _UpperBounds(slope, (6.0 * _U + rho) * _SAFETY, (42.0 * _U + 7.1 * rho) * _SAFETY,
                        (7.0 * _U + 1.5 * rho) * _SAFETY)


def _upper_window(tail: int, m_max: int, lin_last: float, quad_last: float) -> int:
    """Where the m1 sweep resumes after a head that ended at tail - 1 with
    float margins lin_last and quad_last: at _window_start when both checks
    hold, at tail otherwise.  On the run [tail, w):

    - lin passes and lies above the float lin at w (_window_start);
    - quad rises in m: d log(quad + 4)/dy < 1 - pi cos(pi y)/(1 + sin(pi y))
      < 0 for pi y <= 1/2.  So its floats are at least quad_last - 2 E_quad;
      the check puts that above lin_last + 2 E_lin, and so above lin at w;
    - elem = (1 - x)^2 / 2 and x <= e^(-pi/m), so elem is at least
      expm1(-pi/w)^2 / 2; the check keeps that minus E_elem at -EPS_ALGEBRAIC
      or above.
    """
    bounds = _upper_bounds(1.0 / (tail - 1))
    w = _window_start(tail, m_max, bounds.slope, bounds.lin)
    elem_least = 0.5 * math.expm1(-math.pi / w) ** 2 / _SAFETY
    if (quad_last - 2.0 * bounds.quad < lin_last + 2.0 * bounds.lin
            or elem_least - bounds.elem < -EPS_ALGEBRAIC):
        return tail
    return w


class _LowerBounds(NamedTuple):
    """The m2 certificate's constants: the slope of the margin in y = 1/m,
    how far each float margin and quotient may lie from the exact one, and
    tau's error tau_fixed + m tau_per_m at index m."""

    slope: float
    margin: float
    quotient: float
    tau_fixed: float
    tau_per_m: float


def _lower_bounds(R: float, K: float, y0: float) -> _LowerBounds:
    """The m2 certificate's constants on m >= 1/y0 >= 8, for the margin
    q - (1 - K/m) with K the float K(R).

    With g = log q_R, the margin's slope in y is K + g'(y) q(y) >= K - |g'(y)|
    as 0 < q <= 1, about K/2 = 4h coth(h) with h = ln R / 4; the quotient
    series' majorant bounds |g'|.

    Float errors, L = ln R, s = sqrt(R), rho the _ULPS error: p = R^(1/m) <=
    e^(L y0) is within alpha = (rho + 1.01u) L y0 + rho relative (ln R / m
    within rho + u, then exp); s - p within (u + alpha) s + u (s - p) against
    s - p >= s - e^(L y0); s p - 1 within (2u + alpha) s p + u (s p - 1)
    against s p - 1 >= (s - 1) p.  So q <= 1 is within E_q, the two relative
    errors plus 3u, which grows like s/(s - 1).  1 - K/m is within
    u (1 + K y0), and the margin, at most K y0, rounds within u (1 + K y0).
    tau = m (s + 1)(1 - p): 1 - p is exact (Sterbenz) from p within
    alpha p, and four roundings and the check's own move tau, at most
    (s + 1) L p in size, by 8u of it.
    """
    L = math.log(R)
    s = math.sqrt(R)
    rho = 2.0 * _ULPS * _U
    slope = (K - _majorant(_log_quotient_series(R), y0, 1)) / _SAFETY
    alpha = (rho + 1.01 * _U) * L * y0 + rho
    d = math.expm1(L / 2.0)  # s - 1
    gap = (d - math.expm1(L * y0)) / _SAFETY  # s - e^(L y0)
    quotient = ((_U + alpha) * s / gap + (2.0 * _U + alpha) * s / d + 3.0 * _U) * _SAFETY
    margin = (quotient + 2.0 * _U * (1.0 + K * y0)) * _SAFETY
    tau_scale = (s + 1.0) * math.exp(L * y0) * _SAFETY ** 2
    return _LowerBounds(slope, margin, quotient, tau_scale * 8.0 * _U * L, tau_scale * alpha)


def _lower_window(R: float, K: float, tau_least: float, tail: int, m_max: int,
                  q_last: float, tau_last: float) -> int:
    """Where the m2 sweep resumes after a head that ended at tail - 1 with
    float q_last and tau_last: at _window_start when both checks hold, at
    tail otherwise.  tau_least is the float each tau must reach.  On the run
    [tail, w):

    - the margin passes and lies above the float margin at w (_window_start);
    - q rises in m, so its floats are at least q_last - 2 E_q; the check puts
      that above 0;
    - tau = -(s + 1) L (e^v - 1)/v with v = L/m rises in m, so its floats are
      at least tau_last - E_tau(tail - 1) - E_tau(w); the check puts that at
      tau_least or above.
    """
    bounds = _lower_bounds(R, K, 1.0 / (tail - 1))
    w = _window_start(tail, m_max, bounds.slope, bounds.margin)
    tau_error = 2.0 * bounds.tau_fixed + (tail - 1 + w) * bounds.tau_per_m
    if q_last <= 2.0 * bounds.quotient or tau_last - tau_error < tau_least:
        return tail
    return w


def verify_upper_bound_sweep(m_max: int) -> SweepResult:
    """Find the least m1 with |x(m)| <= 1 - 2/(m+1) and (m+1)(1-|x(m)|^2) >= 4
    on [m1, m_max]; also checks (1-|x|^2)/2 <= 1-|x| for every m >= 2.

    R-independent: only the disk moduli |x(m)| are involved.  The tail past
    the first _HEAD indices is certified (_upper_window).
    """
    _check_m_max(m_max, 4)
    picks = [2, 3, 4, 10, 100, m_max]
    found = {}
    elementary_ok = True
    scan = _SuffixScan(2)

    def take(ms, run):
        nonlocal elementary_ok
        x, lin_rhs, lin_margin, quad_margin, elem_margin = _upper_terms(ms)
        # A NaN margin makes min NaN and fails, as in np.all(elem >= -eps).
        elementary_ok &= bool(elem_margin.min() >= -EPS_ALGEBRAIC)
        if run:
            # The run's margins lie above this slice's first ones, which the
            # scan takes next, so these stand in for the run's least.
            scan.feed_run(run, min(lin_margin[0], quad_margin[0]))
        scan.feed(
            (lin_margin >= -EPS_ALGEBRAIC) & (quad_margin >= -EPS_ALGEBRAIC),
            lin_margin, quad_margin,
        )
        _take_samples(found, ms, x, lin_rhs, picks)
        return lin_margin[-1], quad_margin[-1]

    _certified_walk(2, m_max, take, lambda tail, *last: _upper_window(tail, m_max, *last))
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
    limit, and the algebraic factorization of the margin numerator.  The
    tail past the first _HEAD indices is certified (_lower_window).

    The factorization m(s - p) - m(s p - 1) + K(s p - 1) = tau(m) + K(s p - 1),
    s = sqrt(R) and p = R^(1/m), is exact in the floats s, p and K, which both
    sides share; so the two floats differ only by their roundings, and the
    check allows 10u of the summands' size m(s + 1)(p + 1) + K(s p + 1).  The
    direct form's m-terms round within 4u m(s + 1)(p + 1) of
    m(s + 1)(1 - p), tau's four roundings within as much, and each side's
    last addition within u of the size.  Cancellation leaves the sides far
    below that size near m = m_max, so a tolerance relative to their own
    value would fail on rounding alone.
    """
    _check_m_max(m_max, 8)
    consts = BoundConstants.for_radius(R)
    s = math.sqrt(R)
    tau_least = -1.5 * (s + 1.0) * math.log(R) - EPS_ALGEBRAIC
    picks = [3, 4, 10, 100, m_max]
    found = {}
    positivity_ok = True
    scan = _SuffixScan(3)

    def take(ms, run):
        nonlocal positivity_ok
        q, tau_ms = _quotient_and_tau(R, ms)
        rhs = 1.0 - consts.K_of_R / ms
        margin = q - rhs
        positivity_ok &= bool(q.min() > 0.0)  # a NaN fails it, as in np.all(q > 0)
        if run:
            # As in the m1 sweep: the margin at w stands in for the run's least.
            scan.feed_run(run, margin[0])
        scan.feed((margin >= -EPS_ALGEBRAIC) & (tau_ms >= tau_least), margin)
        _take_samples(found, ms, q, rhs, picks)
        return q[-1], tau_ms[-1]

    _certified_walk(3, m_max, take, lambda tail, *last: _lower_window(
        R, consts.K_of_R, tau_least, tail, m_max, *last))
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

    # Margin-numerator factorization, relative to the summands' size (see
    # the docstring for the 10u bound).
    probe_ms = np.arange(3, m_max + 1, max(1, (m_max - 2) // 64), dtype=float)
    p = np.exp(math.log(R) / probe_ms)
    direct = (
        probe_ms * (s - p) - probe_ms * (s * p - 1.0) + consts.K_of_R * (s * p - 1.0)
    )
    factored = tau(R, probe_ms) + consts.K_of_R * (s * p - 1.0)
    size = probe_ms * (s + 1.0) * (p + 1.0) + consts.K_of_R * (s * p + 1.0)
    fact_err = float(np.max(np.abs(direct - factored) / size))
    if fact_err > 10.0 * _U * _SAFETY:
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

    lower = _block_sums(lambda ms: _log_quotients(R, ms), _log_quotient_series(R), n_max,
                        lambda t: _quotient_term_error(R, t))
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
        base = 1.0 - K / 2 ** n_max  # > 0 from the threshold on
        log_left = 2 ** n_max * math.log(base)
        target = math.exp(-K)
        # |left / e^-K - 1| in log space.  e^-K is subnormal past R ~ 1e154
        # and 0 past R ~ 1e162, where the note gives both values as logs.
        dev = abs(math.expm1(log_left + K))
        if target < sys.float_info.min:
            notes.append(f"log left endpoint at n={n_max}: {log_left:.9g} vs -K={-K:.9g}")
        else:
            notes.append(f"left endpoint at n={n_max}: {base ** 2 ** n_max:.9g} vs e^-K={target:.9g}")
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
