"""Exact unit-disk geometry: Mobius/Poincare distances and Blaschke products.

All operations are pure functions of immutable values and are safe to call
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

# Minimum gap (in modulus) that zeros and evaluation points must keep from
# the unit circle; prevents catastrophic cancellation in 1 - conj(a)*b.
EPS_BOUNDARY = 1e-9

# Largest double strictly below 1; Mobius values are clamped here so the
# open-interval contract |d| < 1 survives rounding for near-boundary pairs.
_ONE_MINUS = math.nextafter(1.0, 0.0)


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


@dataclass(frozen=True, eq=False)
class BlaschkeProduct:
    """Finite Blaschke product with the given zeros, all strictly inside D.

    The zeros are stored once, as a read-only complex array.
    """

    zeros: np.ndarray

    def __post_init__(self):
        zs = np.array(self.zeros, dtype=complex)
        if zs.size and np.abs(zs).max() > 1.0 - EPS_BOUNDARY:
            raise DiskDomainError(
                f"Blaschke zero too close to the unit circle: |z| = {float(np.abs(zs).max())!r}"
            )
        zs.setflags(write=False)
        object.__setattr__(self, "zeros", zs)

    @property
    def degree(self) -> int:
        return len(self.zeros)

    def __call__(self, z: complex) -> complex:
        z = _as_disk_point(z)
        if abs(z) > 1.0 - EPS_BOUNDARY:
            raise DiskDomainError(
                f"Blaschke evaluation point too close to the unit circle: |z| = {abs(z)!r}"
            )
        zs = self.zeros
        return complex(np.prod((z - zs) / (1.0 - np.conj(zs) * z)))

    def log_abs_at(self, z: complex) -> float:
        """log |B(z)| as a sum of factor logs; -inf at a zero.

        Direct products of thousands of factor moduli underflow; the log sum
        does not.
        """
        z = _as_disk_point(z)
        zs = self.zeros
        m = np.abs((z - zs) / (1.0 - np.conj(zs) * z))
        if np.any(m == 0.0):
            return -math.inf
        return float(np.sum(np.log(m)))


def blaschke_eval(product: BlaschkeProduct, z: complex) -> complex:
    """Evaluate a finite Blaschke product at a point of the open disk."""
    return product(z)


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
