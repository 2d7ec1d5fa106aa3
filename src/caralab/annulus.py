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
    """Outer radius R of A(R) plus the numeric policy for bound searches;
    family_degree 1 keeps the radial quotients, 2 adds degree-2 proper maps."""

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


def _deck_shifts(cfg: AnnulusConfig) -> np.ndarray:
    """The deck shifts k * 2 pi^2 / ln R in L-space, |k| <= K = 1 + ceil(40 / shift).

    Re L lies in a strip of width shift = 2 pi^2 / ln R, so lift k of one
    point sits at |x| >= (|k| - 1) shift / 2 from the principal lift of
    another, and its distance is at least tanh|x|, which rounds to 1 past
    |x| = 20: no lift outside the window can win.
    """
    return _deck_window(cfg.R)


@lru_cache(maxsize=128)
def _deck_window(R: float) -> np.ndarray:
    # One read-only table per R, built once rather than on every lift call.
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
    lifts of the other, broadcast over arrays of points a and b.

    The result has shape broadcast(a, b) + (2, 2K + 1): orientation a->b then
    b->a, deck index k = -K..K.  Computed in L-space by the identity
    |(z1 - z2)/(1 - conj(z1) z2)| = |sinh((L1 - L2)/2)| / |cosh((conj(L1) - L2)/2)|:
    with x = Re(L1 - L2)/2, p = Im(L1 - L2)/2, q = Im(L1 + L2)/2 this is
    sqrt((sinh^2 x + sin^2 p)/(sinh^2 x + cos^2 q)); q lies in (-pi/2, pi/2),
    so the denominator never vanishes.
    """
    # One lift pass over both points, stacked on a last axis (a, b).
    w = np.empty(np.broadcast(a, b).shape + (2,), dtype=complex)
    w[..., 0], w[..., 1] = a, b
    X, Y = _log_lift(cfg, w)
    # Orientation axis: a->b pairs a's principal lift with b's deck lifts,
    # so the deck lifts are the stack reversed.  Swapping the points only
    # flips the sign of p and leaves q unchanged.
    x = 0.5 * (X[..., None] - (X[..., ::-1, None] - _deck_shifts(cfg)))
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


@lru_cache(maxsize=None)
def _angle_steps(n: int) -> np.ndarray:
    """The grid's angle offsets 2 pi / n * k, k = 0..n-1, read-only per n."""
    table = 2.0 * math.pi / n * np.arange(n)
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
    searched over 8 * grid_density angles.  Every member certifies, so search
    slack never invalidates the result.

    The degree-2 map with zeros w1, w2, |w1 w2| = R, is
    g(w) = F(w1) F(w2) / w with F(zero) = P(w/zero) / P(w conj(zero) / R^2):
    in z = w/R, q = 1/R this is q z^-1 prod_i P(z/a_i) / P(z conj(a_i)), which
    has |g| = 1 on both boundary circles.  Its value is |g| at the end that
    is not a zero.  One prime-function call evaluates F at that end for both
    orientations' fixed zeros and every grid zero.  Ties go to the radial
    quotients, then to a's orientation: a candidate must beat the best so far
    strictly after the _ONE_MINUS clamp.
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
    n = 8 * cfg.grid_density
    # Row o: the fixed zero and the other end of orientation o (a, then b).
    pairs = ((a, b), (b, a))
    rhos = [R / abs(zero) for zero, _ in pairs]
    # The grid starts at arg(other), so rotating the pair rotates the grid.
    grid = np.add.outer([cmath.phase(other) for _, other in pairs], _angle_steps(n))
    others = np.array([[other] for _, other in pairs])

    def objective(theta):
        # x = w / zero and w conj(zero) / R^2 per zero, the fixed zero first.
        x = np.empty((2, n + 1, 2), dtype=complex)
        zeros = np.array(rhos)[:, None] * np.exp(1j * theta)
        x[:, 1:, 0] = others / zeros
        x[:, 1:, 1] = x[:, 1:, 0] * (np.abs(zeros) / R) ** 2
        # The fixed zero's x and factor stay scalar arithmetic: Python's
        # complex quotient and numpy's scalar power and division round
        # differently from the array forms, and the bounds keep their bits.
        for o, (zero, other) in enumerate(pairs):
            x[o, 0, 0] = x0 = other / zero
            x[o, 0, 1] = x0 * (np.abs(zero) / R) ** 2
        p = _prime(x, q2k)
        f = p[..., 0] / p[..., 1]
        fixed = np.array([[f[o, 0] / other] for o, (_, other) in enumerate(pairs)])
        return -np.abs(fixed * f[:, 1:])

    res = minimize(objective, grid)
    zeros = None
    for (zero, _), rho, theta, fun in zip(pairs, rhos, res.x.tolist(), res.fun.tolist()):
        v = min(-fun, _ONE_MINUS)
        if v > best:
            best, zeros = v, (zero, rho * cmath.exp(1j * theta))
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
    return float(d.flat[j]), _lift_witness(cfg, j)


def _lift_witness(cfg: AnnulusConfig, j: int) -> str:
    """Witness text for flat index j of one pair's (2, 2K + 1) lift table."""
    width = len(_deck_shifts(cfg))
    orientation, i = divmod(j, width)
    tag = ("a->b", "b->a")[orientation]
    return f"lift k={i - width // 2} ({tag}) against principal lift"


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
