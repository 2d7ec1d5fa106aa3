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
from functools import lru_cache
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
    """Outer radius R of A(R) plus the lower-bound family: family_degree 1
    keeps the radial quotients, 2 adds degree-2 proper maps.

    grid_density is accepted, validated and not read: the degree-2 maps sit
    at a closed-form angle.  It stays because the benchmark harness under
    perfbench/ still passes it (ROADMAP.md, "Next change to the benchmark").
    """

    R: float
    family_degree: int = 2
    grid_density: int = 3

    def __post_init__(self):
        if not (math.isfinite(self.R) and self.R > 1.0 + 1e-9):
            raise ValueError(f"outer radius must exceed 1, got R = {self.R!r}")
        if self.family_degree not in (1, 2):
            raise ValueError(f"family_degree must be 1 or 2, got {self.family_degree!r}")
        if self.grid_density < 1:
            raise ValueError(f"grid_density must be >= 1, got {self.grid_density!r}")

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


@lru_cache(maxsize=128)
def _deck_window(R: float) -> np.ndarray:
    """The deck shifts k * 2 pi^2 / ln R in L-space, |k| <= K = 1 + ceil(40 / shift),
    as one read-only table per R, for lift_enumeration.

    The principal Re L lies in [-shift/2, shift/2], shift = 2 pi^2 / ln R,
    so lift k sits at |Re L| >= (|k| - 1/2) shift, past 40 outside the
    window, where |z| = |tanh(L/2)| is within 2 e^-40 of 1: far inside the
    EPS_BOUNDARY margin that lift_enumeration drops.  The distance kernel
    needs only k in {-1, 0, 1} (lift_distances).
    """
    shift = 2.0 * math.pi ** 2 / math.log(R)
    K = 1 + math.ceil(40.0 / shift)
    table = np.arange(-K, K + 1) * shift
    table.setflags(write=False)
    return table


def _log_lift(cfg: AnnulusConfig, w) -> Tuple[np.ndarray, np.ndarray]:
    """Re L and Im L of the principal lift of w, broadcast over arrays.

    The lift itself is z = -tanh(L/2), but L stays well-conditioned when z
    saturates at the unit circle (thin annuli stretch lifts against the
    boundary).
    """
    w = np.asarray(w, dtype=complex)
    scale = math.pi / cfg.log_R
    # arctan2(imag, real) is np.angle's own arithmetic, without its wrapper.
    return -scale * np.arctan2(w.imag, w.real), scale * (np.log(np.abs(w)) - 0.5 * cfg.log_R)


def lift_distances(cfg: AnnulusConfig, a, b) -> np.ndarray:
    """Disk distances between the principal lift of one point and the deck
    lifts k = -1, 0, 1 of the other, broadcast over arrays of points a and b.

    The result has shape broadcast(a, b) + (2, 3): orientation a->b then
    b->a, deck index k = -1..1, at every R.  Computed in L-space by the identity
    |(z1 - z2)/(1 - conj(z1) z2)| = |sinh((L1 - L2)/2)| / |cosh((conj(L1) - L2)/2)|:
    with x = Re(L1 - L2)/2, p = Im(L1 - L2)/2, q = Im(L1 + L2)/2 this is
    sqrt((sinh^2 x + sin^2 p)/(sinh^2 x + cos^2 q)); q lies in (-pi/2, pi/2),
    so the denominator never vanishes.

    Why three lifts suffice: with D = Re L_a - Re L_b and shift = 2 pi^2 / ln R,
    lift k has x_k = (D + k shift) / 2, and its distance increases in |x_k|
    (p and q do not depend on k, and cos^2 q - sin^2 p = cos Y_a cos Y_b > 0
    with Y = Im L in (-pi/2, pi/2)).  Re L = -(pi / ln R) arg w with arg in
    [-pi, pi], so |D| <= shift and the nearest translate is one of
    k = -1, 0, 1; every other k lies at least shift / 4 farther out in |x|.
    So the minimum is bit for bit that of any wider window; where every
    lift saturates to _ONE_MINUS, the first-index tie names k = -1 rather
    than the window's first k.
    """
    # One lift pass over both points, stacked on a last axis (a, b).
    w = np.empty(np.broadcast(a, b).shape + (2,), dtype=complex)
    w[..., 0], w[..., 1] = a, b
    X, Y = _log_lift(cfg, w)
    # Orientation axis: a->b pairs a's principal lift with b's deck lifts,
    # so the deck lifts are the stack reversed.  Swapping the points only
    # flips the sign of p and leaves q unchanged.
    shift = 2.0 * math.pi ** 2 / cfg.log_R
    x = 0.5 * (X[..., None] - (X[..., ::-1, None] - np.array((-shift, 0.0, shift))))
    ya, yb = Y[..., 0, None, None], Y[..., 1, None, None]
    p, q = 0.5 * (ya - yb), 0.5 * (ya + yb)
    with np.errstate(over="ignore", invalid="ignore"):
        sh2 = np.sinh(x) ** 2
        d = np.sqrt((sh2 + np.sin(p) ** 2) / (sh2 + np.cos(q) ** 2))
    # Past |x| = 350 the distance is 1 to double precision: sh2 swamps both
    # sums (their ratio is exactly 1) or overflows (inf / inf is nan), and
    # fmin takes _ONE_MINUS over nan.
    return np.fmin(d, _ONE_MINUS)


def lift_enumeration(cfg: AnnulusConfig, w: complex) -> List[complex]:
    """All float-representable covering-map lifts of w within the deck window.

    The principal lift minus the deck shifts, mapped back by z = -tanh(L/2);
    every returned z satisfies covering_map(z) = w to high relative accuracy.
    """
    w = _as_annulus_point(cfg, w)
    x, y = _log_lift(cfg, w)
    zs = -np.tanh(0.5 * ((x - _deck_window(cfg.R)) + 1j * y))
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


# minimize and MinimizeResult are no longer called: the lower bound has no
# search left.  They stay because perfbench/spans.py wraps annulus.minimize
# by name (ROADMAP.md, "Next change to the benchmark").
class MinimizeResult(NamedTuple):
    x: np.ndarray
    fun: np.ndarray
    nfev: int


def minimize(fun: Callable[[np.ndarray], np.ndarray], grid: np.ndarray) -> MinimizeResult:
    """Minimize a vectorized function over each row of a grid: each row's
    best point and value, and the number of points evaluated."""
    values = fun(grid)
    # Each row's index, then its winner: one integer index per leading axis.
    best = (*np.indices(values.shape[:-1], sparse=True), values.argmin(axis=-1))
    return MinimizeResult(grid[best], values[best], grid.size)


@lru_cache(maxsize=128)
def _prime_powers(R: float) -> Optional[np.ndarray]:
    """q^(2k), k = 1..K, with q = 1/R and q^(2K) < 1e-17, as one read-only
    array per R; None past the cap."""
    K = math.ceil(math.log(1e-17) / (-2.0 * math.log(R)))
    if K > _MAX_PRIME_TERMS:
        return None
    table = R ** (-2.0 * np.arange(1, K + 1))
    table.setflags(write=False)
    return table


def _prime(x: np.ndarray, q2k: np.ndarray) -> np.ndarray:
    """Annulus prime function P(x) = (1 - x) prod_k (1 - q^2k x)(1 - q^2k / x)."""
    t = x[..., None]
    return (1.0 - x) * np.multiply.reduce((1.0 - q2k * t) * (1.0 - q2k / t), axis=-1)


def annulus_lower_bound(cfg: AnnulusConfig, a: complex, b: complex) -> Tuple[float, str]:
    """Best certified lower bound for the Mobius distance C*_{A(R)}(a, b).

    Maximizes mobius(f(a), f(b)) over holomorphic maps f: A(R) -> D: the
    radial quotients w/R and 1/w and, for family_degree 2, the degree-2
    proper maps with one zero at a (or b) and the other on |w| = R/|a|,
    placed on the ray opposite the other end.  Every member certifies, so
    the placement only affects tightness, never validity.

    The degree-2 map with zeros w1, w2, |w1 w2| = R, is
    g(w) = F(w1) F(w2) / w with F(zero) = P(w/zero) / P(w conj(zero) / R^2):
    in z = w/R, q = 1/R this is q z^-1 prod_i P(z/a_i) / P(z conj(a_i)), which
    has |g| = 1 on both boundary circles.  Its value is |g| at the end that
    is not a zero.

    Why the opposite ray: ln|F_zeta(w)| = -G_A(w, zeta) plus a term in |w|
    and |zeta| only, where G_A is the Green's function of A(R).  With the
    moduli fixed, G_A(w, zeta) decreases as the angle between w and zeta
    grows to pi (reflection in the line through w and the maximum
    principle), so the second zero -(R/|zero|) other/|other| maximizes the
    value.  Certification needs none of this.  At that zero, other/zero2 is
    the real -|a||b|/R for both orientations, and its conjugate argument is
    that value over |zero|^2, so one prime-function call on seven arguments
    evaluates both orientations: each fixed zero's pair, the shared real
    value and its two conjugates.  Ties go to the radial quotients, then to
    a's orientation: a candidate must beat the best so far strictly after
    the _ONE_MINUS clamp.
    """
    a = _as_annulus_point(cfg, a, "a")
    b = _as_annulus_point(cfg, b, "b")
    if a == b:
        return 0.0, "trivial (identical points)"
    R = cfg.R

    # On a tie "w/R" wins, as it sorts after "1/w".  A quotient that rounds
    # onto the unit circle (an end within an ulp of a circle) is dropped:
    # any subset of the family still certifies.
    best, witness = max(
        ((mobius_distance(x, y), name) for x, y, name in
         ((a / R, b / R, "w/R"), (1.0 / a, 1.0 / b, "1/w")) if abs(x) < 1.0 and abs(y) < 1.0),
        default=(0.0, "trivial (both radial quotients round onto the unit circle)"))

    q2k = _prime_powers(R)
    if cfg.family_degree == 1 or q2k is None:
        return best, witness
    # Orientation o: the fixed zero and the other end (a, then b).
    pairs = ((a, b), (b, a))
    y = -(abs(a) * abs(b)) / R
    x = [y]
    for zero, other in pairs:
        x0 = other / zero
        x += [x0, x0 * (abs(zero) / R) ** 2, y / abs(zero) ** 2]
    p = _prime(np.array(x), q2k).tolist()
    zeros = None
    for o, (zero, other) in enumerate(pairs):
        # P at the fixed zero's pair, then at the second zero's conjugate.
        fixed, fixed_conj, second_conj = p[1 + 3 * o:4 + 3 * o]
        v = min(abs(fixed / fixed_conj / other * (p[0] / second_conj)), _ONE_MINUS)
        if v > best:
            best, zeros = v, (zero, -(R / abs(zero)) * (other / abs(other)))
    if zeros is not None:
        witness = "degree-2 proper map, zeros " + ", ".join(
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
    return float(d.flat[j]), _lift_witness(j)


def _lift_witness(j: int) -> str:
    """Witness text for flat index j of one pair's (2, 3) lift table."""
    orientation, i = divmod(j, 3)
    tag = ("a->b", "b->a")[orientation]
    return f"lift k={i - 1} ({tag}) against principal lift"


def annulus_distance_bracket(cfg: AnnulusConfig, a: complex, b: complex) -> DistanceBracket:
    """Two-sided certified bracket for C*_{A(R)}(a, b)."""
    return _bracket(cfg, a, b, annulus_lower_bound, annulus_upper_bound, repr)


def _bracket(cfg, a, b, lower_bound, upper_bound, fmt) -> DistanceBracket:
    """The pair's bounds as one bracket: a lower bound up to 1e-9 above the
    upper one is float noise and is clamped, past that BracketOrderError
    names the pair, its points rendered by fmt.  Both spaces use it."""
    lower, lw = lower_bound(cfg, a, b)
    upper, uw = upper_bound(cfg, a, b)
    if lower > upper + 1e-9:
        raise BracketOrderError(
            f"lower bound {lower!r} exceeds upper bound {upper!r} for pair ({fmt(a)}, {fmt(b)})"
        )
    return DistanceBracket(min(lower, upper), upper, lw, uw)
