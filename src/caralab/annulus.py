"""The annulus A(R) = {1 < |w| < R}: covering map, lifts, distance brackets.

The disk covers A(R) through an exponential-strip construction; pushing the
disk's Mobius distance through lifts gives certified upper bounds, and
explicit holomorphic maps A(R) -> D give certified lower bounds.  Both sides
are packaged as a DistanceBracket.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Tuple

import numpy as np

from .disk import EPS_BOUNDARY, _ONE_MINUS, mobius_distance


class AnnulusDomainError(ValueError):
    """A point required to lie in the open annulus does not."""


class BracketOrderError(RuntimeError):
    """Certified lower bound exceeded the upper bound beyond float noise.

    The two bounds are mathematically ordered, so this signals a bug rather
    than a bad input; it is never silently clamped away.
    """


class CoveringBranchError(RuntimeError):
    """The covering map's Log argument left the right half-plane (a bug)."""


@dataclass(frozen=True)
class AnnulusConfig:
    """Outer radius R of A(R) plus the numeric policy for bound searches."""

    R: float
    family_degree: int = 4
    grid_density: int = 3

    def __post_init__(self):
        if not (math.isfinite(self.R) and self.R > 1.0 + 1e-9):
            raise ValueError(f"outer radius must exceed 1, got R = {self.R!r}")
        for name in ("family_degree", "grid_density"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)!r}")

    @property
    def log_R(self) -> float:
        return math.log(self.R)

    @property
    def sqrt_R(self) -> float:
        return math.sqrt(self.R)


@dataclass(frozen=True)
class DistanceBracket:
    """Certified interval [lower, upper] for a Mobius distance, with witnesses."""

    lower: float
    upper: float
    lower_witness: str
    upper_witness: str

    def __post_init__(self):
        if not (0.0 <= self.lower <= self.upper < 1.0):
            raise ValueError(
                f"bracket must satisfy 0 <= lower <= upper < 1, got "
                f"[{self.lower!r}, {self.upper!r}]"
            )

    @property
    def width(self) -> float:
        return self.upper - self.lower


def _as_annulus_point(cfg: AnnulusConfig, w: complex, name: str = "w") -> complex:
    w = complex(w)
    r = abs(w)
    if not (math.isfinite(w.real) and math.isfinite(w.imag)):
        raise AnnulusDomainError(f"{name} has non-finite coordinates: {w!r}")
    if not (1.0 < r < cfg.R):
        raise AnnulusDomainError(
            f"{name} must lie in the open annulus 1 < |w| < {cfg.R}, got |{name}| = {r!r}"
        )
    return w


def covering_map(cfg: AnnulusConfig, z: complex) -> complex:
    """Covering map D -> A(R); sends 0 to sqrt(R).

    Computed as sqrt(R) * exp(-(i/pi) * ln R * Log((1-z)/(1+z))) with the
    principal Log.  (1-z)/(1+z) has strictly positive real part on the disk,
    so the principal branch never meets its cut; checked at runtime.
    """
    z = complex(z)
    if abs(z) >= 1.0:
        raise AnnulusDomainError(f"covering map argument must satisfy |z| < 1, got {abs(z)!r}")
    u = (1.0 - z) / (1.0 + z)
    if u.real <= 0.0:
        raise CoveringBranchError(f"principal-branch safety violated at z = {z!r}")
    return cfg.sqrt_R * cmath.exp(-1j / math.pi * cfg.log_R * cmath.log(u))


def preimage_point(m: int) -> complex:
    """The explicit covering-map preimage x(m) of R^(1 - 1/m), any R > 1.

    x(m) = (1 - e^{i(pi/2 - pi/m)}) / (1 + e^{i(pi/2 - pi/m)}); independent
    of R because the covering map's strip construction is.
    """
    if not isinstance(m, (int, np.integer)) or m < 2:
        raise ValueError(f"preimage index must be an integer >= 2, got {m!r}")
    e = cmath.exp(1j * (math.pi / 2.0 - math.pi / m))
    return (1.0 - e) / (1.0 + e)


def preimage_moduli(ms: np.ndarray) -> np.ndarray:
    """|x(m)| for an integer array of indices m >= 2 (vectorized).

    |(1 - e^{i phi}) / (1 + e^{i phi})| = tan(phi / 2), so with
    phi = pi/2 - pi/m this is tan(pi/4 - pi/(2m)) in real arithmetic;
    |x(2)| = tan(0) = 0 exactly.
    """
    ms = np.asarray(ms)
    if np.any(ms < 2):
        raise ValueError("preimage indices must all be >= 2")
    return np.tan(math.pi / 4.0 - math.pi / (2.0 * ms))


def preimage_modulus_sq_formula(ms: np.ndarray) -> np.ndarray:
    """|x(m)|^2 via the closed trigonometric form (1-sin(pi/m))/(1+sin(pi/m))."""
    ms = np.asarray(ms, dtype=float)
    s = np.sin(math.pi / ms)
    return (1.0 - s) / (1.0 + s)


def _deck_shifts(cfg: AnnulusConfig) -> np.ndarray:
    """The deck shifts k * 2 pi^2 / ln R in L-space, |k| <= K = 1 + ceil(40 / shift).

    Re L lies in a strip of width shift = 2 pi^2 / ln R, so lift k of one
    point sits at |x| >= (|k| - 1) shift / 2 from the principal lift of
    another, and its distance is at least tanh|x|, which rounds to 1 past
    |x| = 20: no lift outside the window can win.
    """
    shift = 2.0 * math.pi ** 2 / cfg.log_R
    K = 1 + math.ceil(40.0 / shift)
    return np.arange(-K, K + 1) * shift


def _log_lift(cfg: AnnulusConfig, w) -> Tuple[np.ndarray, np.ndarray]:
    """Re L and Im L of the principal lift of w, broadcast over arrays.

    The lift itself is z = -tanh(L/2), but L stays well-conditioned when z
    saturates at the unit circle (thin annuli stretch lifts against the
    boundary).
    """
    w = np.asarray(w, dtype=complex)
    scale = math.pi / cfg.log_R
    return -scale * np.angle(w), scale * (np.log(np.abs(w)) - 0.5 * cfg.log_R)


def lift_distances(cfg: AnnulusConfig, a, b) -> np.ndarray:
    """Disk distances between the principal lift of one point and the deck
    lifts of the other, broadcast over arrays of points a and b.

    The result has shape broadcast(a, b) + (2, 2K + 1): orientation a->b then
    b->a, deck index k = -K..K.  Computed in L-space by the identity
    |(z1 - z2)/(1 - conj(z1) z2)| = |sinh((L1 - L2)/2)| / |cosh((conj(L1) - L2)/2)|:
    with x = Re(L1 - L2)/2, p = Im(L1 - L2)/2, q = Im(L1 + L2)/2 this is
    sqrt((sinh^2 x + sin^2 p)/(sinh^2 x + cos^2 q)); q lies in (-pi/2, pi/2),
    so the denominator never vanishes.
    """
    a, b = np.broadcast_arrays(a, b)
    (xa, ya), (xb, yb) = _log_lift(cfg, a), _log_lift(cfg, b)
    # Orientation axis: a->b pairs a's principal lift with b's deck lifts.
    # Swapping the points only flips the sign of p and leaves q unchanged.
    shifted = np.stack([xb, xa], -1)[..., None] - _deck_shifts(cfg)
    x = 0.5 * (np.stack([xa, xb], -1)[..., None] - shifted)
    p = 0.5 * (ya - yb)[..., None, None]
    q = 0.5 * (ya + yb)[..., None, None]
    with np.errstate(over="ignore", invalid="ignore"):
        sh2 = np.sinh(x) ** 2
        d = np.sqrt((sh2 + np.sin(p) ** 2) / (sh2 + np.cos(q) ** 2))
    # Past |x| = 350 sinh overflows; the distance is 1 to double precision.
    return np.where(np.abs(x) > 350.0, _ONE_MINUS, np.minimum(d, _ONE_MINUS))


def lift_enumeration(cfg: AnnulusConfig, w: complex) -> List[complex]:
    """All float-representable covering-map lifts of w within the deck window.

    The principal lift minus the deck shifts, mapped back by z = -tanh(L/2);
    every returned z satisfies covering_map(z) = w to high relative accuracy.
    """
    w = _as_annulus_point(cfg, w)
    x, y = _log_lift(cfg, w)
    zs = -np.tanh(0.5 * ((x - _deck_shifts(cfg)) + 1j * y))
    # Far deck translates collapse onto the unit circle in doubles and carry
    # no usable geometry; a lift is kept only if it verifiably round-trips
    # through the covering map, so the returned list is self-certifying.
    return [z for z in map(complex, zs[np.abs(zs) <= 1.0 - EPS_BOUNDARY])
            if abs(covering_map(cfg, z) - w) <= 1e-10 * abs(w)]


# ---------------------------------------------------------------------------
# Lower bounds: explicit holomorphic test maps A(R) -> D.
# ---------------------------------------------------------------------------

# The prime function needs about 20 / ln R terms; past this cap (R below
# about 1.02) the lower bound keeps the radial quotients only.
_MAX_PRIME_TERMS = 1000


class MinimizeResult(NamedTuple):
    x: float
    fun: float
    nfev: int


def minimize(fun: Callable[[np.ndarray], np.ndarray], grid: np.ndarray) -> MinimizeResult:
    """Minimize a vectorized 1-D function over a grid: its best point."""
    values = fun(grid)
    j = int(np.argmin(values))
    return MinimizeResult(float(grid[j]), float(values[j]), len(grid))


def _prime_powers(R: float) -> Optional[np.ndarray]:
    """q^(2k), k = 1..K, with q = 1/R and q^(2K) < 1e-17; None past the cap."""
    K = math.ceil(math.log(1e-17) / (-2.0 * math.log(R)))
    return R ** (-2.0 * np.arange(1, K + 1)) if K <= _MAX_PRIME_TERMS else None


def _prime(x: np.ndarray, q2k: np.ndarray) -> np.ndarray:
    """Annulus prime function P(x) = (1 - x) prod_k (1 - q^2k x)(1 - q^2k / x)."""
    t = x[..., None]
    return (1.0 - x) * np.prod((1.0 - q2k * t) * (1.0 - q2k / t), axis=-1)


def _zero_factor(R: float, q2k: np.ndarray, zero, w: complex) -> np.ndarray:
    """P(w/zero) / P(w conj(zero) / R^2), broadcast over zero and w.

    The degree-2 proper map A(R) -> D with zeros w1, w2, |w1 w2| = R, is
    g(w) = factor(w1) factor(w2) / w: in z = w/R, q = 1/R this is
    q z^-1 prod_i P(z/a_i) / P(z conj(a_i)), which has |g| = 1 on both
    boundary circles.
    """
    x = w / zero
    p = _prime(np.stack([x, x * (np.abs(zero) / R) ** 2], axis=-1), q2k)
    return p[..., 0] / p[..., 1]


def annulus_lower_bound(cfg: AnnulusConfig, a: complex, b: complex) -> Tuple[float, str]:
    """Best certified lower bound for the Mobius distance C*_{A(R)}(a, b).

    Maximizes mobius(f(a), f(b)) over holomorphic maps f: A(R) -> D: the
    radial quotients w/R and 1/w and, for family_degree >= 2, the degree-2
    proper maps with one zero at a (or b) and the other on |w| = R/|a|,
    searched over 8 * grid_density angles.  Every member certifies, so search
    slack never invalidates the result.
    """
    a = _as_annulus_point(cfg, a, "a")
    b = _as_annulus_point(cfg, b, "b")
    if a == b:
        return 0.0, "trivial (identical points)"
    R = cfg.R

    # On a tie "w/R" wins, as it sorts after "1/w".
    best, witness = max((mobius_distance(a / R, b / R), "w/R"),
                        (mobius_distance(1.0 / a, 1.0 / b), "1/w"))

    q2k = _prime_powers(R)
    if cfg.family_degree < 2 or q2k is None:
        return best, witness
    n = 8 * cfg.grid_density
    for zero, other in ((a, b), (b, a)):
        rho = R / abs(zero)
        fixed = _zero_factor(R, q2k, zero, other) / other

        def objective(theta):
            return -np.abs(fixed * _zero_factor(R, q2k, rho * np.exp(1j * theta), other))

        # The grid starts at arg(other), so rotating the pair rotates the grid.
        grid = cmath.phase(other) + 2.0 * math.pi / n * np.arange(n)
        res = minimize(objective, grid)
        v = min(-res.fun, _ONE_MINUS)
        if v > best:
            zeros = (zero, rho * cmath.exp(1j * res.x))
            best, witness = v, "degree-2 proper map, zeros " + ", ".join(
                f"{z.real:.17g}{z.imag:+.17g}i" for z in zeros)
    return best, witness


def annulus_upper_bound(cfg: AnnulusConfig, a: complex, b: complex) -> Tuple[float, str]:
    """Certified upper bound: min over covering-map lifts of the disk distance.

    C*_{A(R)} is dominated by the Kobayashi distance of A(R), which equals
    the minimum over lifts; deck transformations are disk automorphisms, so
    fixing one principal lift loses nothing.  Both orientations are taken to
    make the result symmetric bit-for-bit.
    """
    a = _as_annulus_point(cfg, a, "a")
    b = _as_annulus_point(cfg, b, "b")
    d = lift_distances(cfg, a, b)
    j = int(np.argmin(d))
    orientation, i = divmod(j, d.shape[-1])
    tag = ("a->b", "b->a")[orientation]
    return float(d.flat[j]), f"lift k={i - d.shape[-1] // 2} ({tag}) against principal lift"


def annulus_distance_bracket(cfg: AnnulusConfig, a: complex, b: complex) -> DistanceBracket:
    """Two-sided certified bracket for C*_{A(R)}(a, b)."""
    lower, lw = annulus_lower_bound(cfg, a, b)
    upper, uw = annulus_upper_bound(cfg, a, b)
    if lower > upper + 1e-9:
        raise BracketOrderError(
            f"lower bound {lower!r} exceeds upper bound {upper!r} for pair ({a!r}, {b!r})"
        )
    return DistanceBracket(min(lower, upper), upper, lw, uw)
