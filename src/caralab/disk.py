"""Exact unit-disk geometry: Mobius/Poincare distances and Blaschke products.

All operations are pure functions of immutable values and are safe to call
concurrently.  A Blaschke product built from a function keeps its first zero
chunk once read and builds every later one on each read, with the same bits
whichever call builds them.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, Optional, Sequence, Union

import numpy as np

# Minimum gap (in modulus) that zeros and evaluation points must keep from
# the unit circle; prevents catastrophic cancellation in 1 - conj(a)*b.
EPS_BOUNDARY = 1e-9

# Largest double strictly below 1; Mobius values are clamped here so the
# open-interval contract |d| < 1 survives rounding for near-boundary pairs.
_ONE_MINUS = math.nextafter(1.0, 0.0)

# Zeros per chunk of a BlaschkeProduct: the unit a built product makes at a
# time (keeping only the first) and __call__ and log_abs_at walk, whose few
# work arrays of this many values stay in cache.
_CHUNK = 1 << 13


class DiskDomainError(ValueError):
    """A point required to lie in the open unit disk does not."""


def _as_disk_point(z: complex, name: str = "z") -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DiskDomainError(f"{name} has non-finite coordinates: {z!r}")
    if abs(z) >= 1.0:
        raise DiskDomainError(
            f"{name} must lie in the open unit disk, got |{name}| = {abs(z)!r}"
        )
    return z


def mobius_distance(a: complex, b: complex) -> float:
    """Pseudohyperbolic distance |(a - b) / (1 - conj(a) b)| in [0, 1)."""
    a = _as_disk_point(a, "a")
    b = _as_disk_point(b, "b")
    # Quotient of real absolute values: |b - a| and |1 - conj(b) a| round to
    # the same floats under argument swap, so symmetry is exact.
    d = abs(a - b) / abs(1.0 - a.conjugate() * b)
    return min(d, _ONE_MINUS)


def _atanh(x: float) -> float:
    # log1p form of atanh(x) = 0.5 * ln((1+x)/(1-x)); accurate near 0 and 1.
    if not 0.0 <= x < 1.0:
        raise DiskDomainError(f"atanh argument must lie in [0, 1), got {x!r}")
    return 0.5 * (math.log1p(x) - math.log1p(-x))


def poincare_distance(a: complex, b: complex) -> float:
    """Poincare distance atanh(mobius_distance(a, b)); a true metric."""
    return _atanh(mobius_distance(a, b))


def _checked_zeros(zs: np.ndarray) -> np.ndarray:
    """zs, made read-only, once every zero keeps EPS_BOUNDARY from the circle."""
    if zs.size and np.abs(zs).max() > 1.0 - EPS_BOUNDARY:
        raise DiskDomainError(
            f"Blaschke zero too close to the unit circle: |z| = {float(np.abs(zs).max())!r}"
        )
    zs.setflags(write=False)
    return zs


class BlaschkeProduct:
    """Finite Blaschke product with zeros strictly inside D, read in
    read-only chunks of _CHUNK zeros: float64 when every zero is real,
    complex otherwise.

    zeros is either the zeros themselves, copied, checked and kept whole at
    construction, or a function build(start, stop) returning zeros
    start .. stop - 1 as such an array, with degree the number of zeros.
    A built product makes and checks its first chunk on its first read and
    keeps it; every later chunk is made and checked on each read and then
    dropped.  Every sum starts at zero 0 and most stop inside the first
    chunk, so a deep product holds _CHUNK zeros, not its degree.  Its zeros
    must not decrease in modulus: the last one, the nearest to the circle,
    is built and checked at construction, so a product too close to the
    circle fails there, as one with given zeros does.  Threads racing on the
    first chunk build the same bits.
    """

    __slots__ = ("degree", "_build", "_zeros")

    def __init__(
        self,
        zeros: Union[Sequence, np.ndarray, Callable[[int, int], np.ndarray]],
        degree: Optional[int] = None,
    ):
        if callable(zeros):
            self.degree = degree
            self._build = zeros
            self._zeros: Optional[np.ndarray] = None
            if degree:
                _checked_zeros(zeros(degree - 1, degree))
            return
        self._zeros = _checked_zeros(np.array(zeros, dtype=float if np.isrealobj(zeros) else complex))
        self.degree = len(self._zeros)
        self._build = None

    def zero_chunks(self) -> Iterator[np.ndarray]:
        """The zeros in order, in chunks of _CHUNK (the last may be shorter);
        a built product makes its first chunk on the first read and every
        later one here, on each read."""
        for start in range(0, self.degree, _CHUNK):
            stop = min(start + _CHUNK, self.degree)
            if start and self._build:
                yield _checked_zeros(self._build(start, stop))
                continue
            if self._zeros is None:
                self._zeros = _checked_zeros(self._build(0, stop))
            yield self._zeros[start:stop]

    def __call__(self, z: complex) -> complex:
        z = _as_disk_point(z)
        if abs(z) > 1.0 - EPS_BOUNDARY:
            raise DiskDomainError(
                f"Blaschke evaluation point too close to the unit circle: |z| = {abs(z)!r}"
            )
        # In chunks of _CHUNK zeros, two work arrays each.  The running
        # product enters each chunk's first factor, so the factors multiply
        # in one left-to-right order however the zeros are split.
        value = 1.0 + 0.0j
        for k, a in enumerate(self.zero_chunks()):
            num = z - a
            den = (a if a.dtype.kind == "f" else np.conj(a)) * z
            np.subtract(1.0, den, out=den)
            num /= den
            if k:
                num[0] *= value
            value = complex(np.prod(num))
        return value

    def log_abs_at(self, z: complex, stop: Optional[float] = None) -> float:
        """log |B(z)| as a real sum over the factors; -inf at a zero.

        Each factor has |(z - a) / (1 - conj(a) z)|^2 = 1 - u with
        u = (1 - |a|^2)(1 - |z|^2) / |1 - conj(a) z|^2, so log |B(z)| is half
        the sum of log1p(-u), accurate however small u gets.  Factors with
        u > 1/2 (z near their zero) take log|z - a| - log|1 - conj(a) z|
        instead, which stays accurate for tiny zeros.  The zeros are taken in
        chunks of _CHUNK, so the work arrays stay in cache and no per-zero
        array is kept; the per-chunk sums fix the result's bits.

        With a stop level, the sum returns its running half-total as soon as
        that is below stop, and otherwise runs to the end, so the result is
        either < stop or bit for bit the full value.  The running total never
        rises: each log1p(-u) with u >= 0 rounds to a value <= 0, adding a
        value <= 0 never raises a float sum, and a near factor's exact log is
        below log(1/2), far beyond the rounding of its two logs.  So the full
        value is below stop too.  Callers that act on the comparison keep a
        margin below their threshold for that rounding.
        """
        z = _as_disk_point(z)
        r = abs(z)
        neg_c = -(1.0 - r) * (1.0 + r)  # -(1 - |z|^2)
        total = 0.0
        for a in self.zero_chunks():
            if a.dtype.kind == "f":
                # 1 - a x as (1 - a) + a (1 - x): for 0.5 <= a, x < 1 both
                # brackets are exact, so it keeps its digits near the circle.
                u = 1.0 - a
                far = a * (1.0 - z.real)
                far += u
                far *= far
                far += (a * z.imag) ** 2  # |1 - a z|^2
                u *= 1.0 + a  # 1 - a^2
            else:
                w = 1.0 - np.conj(a) * z
                far = w.real ** 2 + w.imag ** 2
                m = np.abs(a)
                u = (1.0 - m) * (1.0 + m)
            u *= neg_c
            u /= far  # -u of each factor
            if u.min() < -0.5:
                near = u < -0.5
                gap = np.abs(z - a[near])
                if not gap.all():
                    return -math.inf
                total += 2.0 * float(np.sum(np.log(gap))) - float(np.sum(np.log(far[near])))
                u[near] = 0.0
            total += float(np.sum(np.log1p(u, out=u)))
            if stop is not None and 0.5 * total < stop:
                break
        return 0.5 * total


def disk_automorphism(a: complex, theta: float = 0.0) -> Callable[[complex], complex]:
    """The automorphism z -> e^{i theta} (z - a) / (1 - conj(a) z)."""
    a = _as_disk_point(a, "a")
    phase = complex(math.cos(theta), math.sin(theta))

    def phi(z: complex) -> complex:
        z = _as_disk_point(z)
        return phase * (z - a) / (1.0 - a.conjugate() * z)

    return phi


def schwarz_pick_check(
    f: Callable[[complex], complex],
    pairs: Sequence,
    eps_check: float = 1e-12,
):
    """Check that f contracts the Mobius distance on the sampled pairs.

    Returns (ok, worst_margin) where the margin of a pair is
    mobius(a, b) - mobius(f(a), f(b)); ok iff every margin >= -eps_check.
    Raises DiskDomainError if f escapes the disk, naming the offending input.
    """
    worst = math.inf
    for a, b in pairs:
        fa, fb = f(a), f(b)
        for src, val in ((a, fa), (b, fb)):
            if abs(complex(val)) >= 1.0:
                raise DiskDomainError(
                    f"evaluator escaped the unit disk at input {src!r}: |value| = {abs(complex(val))!r}"
                )
        margin = mobius_distance(a, b) - mobius_distance(fa, fb)
        worst = min(worst, margin)
    if not pairs:
        worst = 0.0
    return worst >= -eps_check, worst
