"""Finite truncation of the glued space: sheets of A(R) identified at
attachment points, holomorphic test families on the quotient, and
cross-sheet distance brackets plus non-compactness / completeness probes.
The probes read their upper bounds from one many-target kernel
(_upper_paths), which takes every glue-path leg it does not cache in one lift
call; glued_upper_bound is its one-target case.  Same-sheet pairs take the
lift minimum (_lift_minima), all of a completeness probe's in one call.  The
middle glue-path leg between two sheets >= 1 depends only on (R, sheet pair)
and is computed once per process into a bounded, read-only cache.  A sheet-supported lower-bound
candidate is first held against a closed-form ceiling (_log_ceiling), which
drops most losing ones before a zero of their product is read.

Sheet n (n >= 1) carries 2^n attachment points R^(1 - 1/j),
j = 2^n .. 2^(n+1) - 1, each identified with the same coordinate on sheet 0.
Identification is decided by exact integer indices, never by float equality:
the attachment coordinates crowd together as n grows and float keys would
mis-glue.  No table of them is built: glue points, exits and the zeros of a
sheet's product each compute the coordinates they read (_glue_values), the
zeros a chunk at a time as the log sums reach them, keeping only the first
chunk, where nearly every stopped sum ends.

Brackets do not depend on the truncation depth N.  Every lower-bound map
extends to the whole space X by 0 past sheet N: a pullback is the same map
on every sheet, and a sheet-supported map is 0 off its own sheet, so both
stay holomorphic on X.  Every glue path runs through the sheets of its two
ends and sheet 0, so it lies in X.  A bracket for points on sheets <= N thus
bounds their distance in X, and is the same at every N that holds them; N
only limits the sheets a point may name and the probes visit.

A SpacePoint comes from canonicalize or parse_point under the config it is
used with, which validate it and decide its identification once; nothing
here canonicalizes a given point again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

# perfbench/spans.py rebinds glued.mobius_distance, glued.BlaschkeProduct,
# glued.annulus_lower_bound, glued.annulus_upper_bound, glued.glued_lower_bound,
# glued.glued_upper_bound and glued.verify_one_over_e_products by name, and
# the tests monkeypatch glued.lift_distances, so all eight stay module names
# here and are looked up at call time.
from .annulus import (
    AnnulusConfig,
    DistanceBracket,
    annulus_lower_bound,
    annulus_upper_bound,  # noqa: F401
    lift_distances,
    _as_annulus_point,
    _bracket,
    _lift_witness,
)
from .disk import (  # noqa: F401
    BlaschkeProduct,
    DiskDomainError,
    _ONE_MINUS,
    _atanh,
    mobius_distance,
)
from .sweeps import ONE_OVER_E_N0, TWO_OVER_E, verify_one_over_e_products  # noqa: F401

# Glue-index/coordinate agreement tolerance when both are supplied.
GLUE_COORD_TOL = 1e-9

# Deepest sheet any truncation may hold; sheet n carries 2^n glue points.
MAX_SHEETS = 20

# Cap on triangle-path exits per sheet; any subset of paths still certifies
# an upper bound, and 32 exits keep cross-sheet queries fast.
MAX_EXITS = 32


class EvaluationEscapeError(RuntimeError):
    """A test-family evaluation left the unit disk: the family is invalid."""


@dataclass(frozen=True)
class SpaceConfig:
    """Annulus parameters plus the truncation depth N (sheets 0..N)."""

    annulus: AnnulusConfig
    sheets: int = 12

    def __post_init__(self):
        if not 1 <= self.sheets <= MAX_SHEETS:
            raise ValueError(
                f"sheet truncation must lie in [1, {MAX_SHEETS}], got {self.sheets!r}"
            )


@dataclass(frozen=True)
class GluePointIndex:
    """Exact integer name (sheet n, slot m) of the attachment point
    R^(1 - 1/(2^n + m - 1))."""

    sheet: int
    slot: int

    def __post_init__(self):
        if not 1 <= self.sheet <= MAX_SHEETS:
            raise ValueError(f"glue sheet must lie in [1, {MAX_SHEETS}], got {self.sheet!r}")
        if not 1 <= self.slot <= 2 ** self.sheet:
            raise ValueError(
                f"glue slot must lie in [1, {2 ** self.sheet}], got {self.slot!r}"
            )

    def coordinate(self, R: float) -> float:
        return float(_glue_values(R, 2 ** self.sheet + self.slot - 1))


@dataclass(frozen=True)
class SpacePoint:
    """Canonicalized point of the truncated space: sheet index + coordinate.

    Identified points carry the sheet-0 representative; the glue index is
    bookkeeping and does not participate in equality.  Made by canonicalize
    or parse_point under the config it is used with.
    """

    sheet: int
    coord: complex
    glue: Optional[GluePointIndex] = field(default=None, compare=False)


def glue_points(cfg: SpaceConfig, n: int) -> List[GluePointIndex]:
    """The 2^n attachment indices of sheet n, coordinates increasing in slot."""
    if not 1 <= n <= cfg.sheets:
        raise ValueError(f"sheet index must lie in [1, {cfg.sheets}], got {n!r}")
    return [GluePointIndex(n, m) for m in range(1, 2 ** n + 1)]


def canonicalize(
    cfg: SpaceConfig,
    sheet: int,
    coord: Optional[complex] = None,
    glue: Optional[GluePointIndex] = None,
) -> SpacePoint:
    """Collapse identified points onto their sheet-0 representative.

    A point is identified iff an exact glue index is supplied and the point
    lives on sheet 0 or on the glue index's own sheet; a bare coordinate that
    happens to equal an attachment value is left alone.  Idempotent.
    """
    if not 0 <= sheet <= cfg.sheets:
        raise ValueError(f"sheet must lie in [0, {cfg.sheets}], got {sheet!r}")
    if glue is not None:
        if glue.sheet > cfg.sheets:
            raise ValueError(
                f"glue index names sheet {glue.sheet} beyond truncation {cfg.sheets}"
            )
        exact = complex(glue.coordinate(cfg.annulus.R))
        if coord is not None and abs(complex(coord) - exact) > GLUE_COORD_TOL:
            raise ValueError(
                f"supplied coordinate {coord!r} does not match glue point "
                f"({glue.sheet},{glue.slot}) at {exact.real!r}"
            )
        if sheet == 0 or sheet == glue.sheet:
            return SpacePoint(0, exact, glue)
        coord = exact  # valid coordinate, but no identification applies
    if coord is None:
        raise ValueError("a coordinate or a glue index is required")
    coord = _as_annulus_point(cfg.annulus, coord, "coord")
    return SpacePoint(sheet, coord, None)


def format_point(p: SpacePoint) -> str:
    """Text encoding: "glue:n,m" for identified points, else "sheet:re,im"."""
    if p.glue is not None:
        return f"glue:{p.glue.sheet},{p.glue.slot}"
    return f"{p.sheet}:{format(p.coord.real, '.17g')},{format(p.coord.imag, '.17g')}"


def _fields(text: str, parts: List[str], kinds: tuple, expected: str) -> list:
    """parts converted by kinds, one each; anything else is a malformed point."""
    try:
        if len(parts) == len(kinds):
            return [kind(part) for kind, part in zip(kinds, parts)]
    except ValueError:
        pass
    raise ValueError(f"malformed point {text!r}: expected {expected}")


def parse_complex(text: str) -> complex:
    """Parse an annulus point "re,im"."""
    return complex(*_fields(text, text.split(","), (float, float), "'re,im'"))


def parse_point(cfg: SpaceConfig, text: str) -> SpacePoint:
    """Parse "sheet:re,im" or "glue:n,m" into a canonical SpacePoint."""
    expected = "'sheet:re,im' or 'glue:n,m'"
    head, colon, tail = text.partition(":")
    parts = [head, *tail.split(",")] if colon else [text]
    if head == "glue":
        n, m = _fields(text, parts[1:], (int, int), expected)
        return canonicalize(cfg, 0, glue=GluePointIndex(n, m))
    sheet, re_, im = _fields(text, parts, (int, float, float), expected)
    return canonicalize(cfg, sheet, complex(re_, im))


# ---------------------------------------------------------------------------
# Admissible holomorphic test functions on the quotient.
# ---------------------------------------------------------------------------

def _glue_values(R: float, j):
    """The attachment coordinates R^(1 - 1/j) of an integer index j or an
    integer array of them; sheet n holds j = 2^n .. 2^(n+1) - 1, slot m at
    j = 2^n + m - 1.

    Glue points, sheet-product zeros and glue-path exits all compute their
    coordinates here, each only the indices it reads.  numpy's pow gives an
    entry the same bits however many entries one call computes, a scalar
    call included, so they agree to the bit (it may differ from
    R ** (1 - 1/j) by 1 ulp).
    """
    return np.power(R, 1.0 - 1.0 / j)


def _sheet_zeros(R: float, target: int, start: int, stop: int) -> np.ndarray:
    """Zeros start .. stop - 1 of the target sheet's product: its glue
    coordinates divided by R, the same division an evaluation point takes,
    so the vanishing at glue points is float-exact."""
    first = 2 ** target
    return _glue_values(R, np.arange(first + start, first + stop)) / R


@lru_cache(maxsize=128)
def _sheet_blaschke(R: float, target: int) -> BlaschkeProduct:
    # Built one chunk of zeros at a time, as the sums read them, and only the
    # first chunk kept: at most _CHUNK zeros a sheet.  The zeros increase in
    # modulus, as a built product requires.
    return BlaschkeProduct(
        lambda start, stop: _sheet_zeros(R, target, start, stop), 2 ** target
    )


@lru_cache(maxsize=128)
def _ceiling_terms(R: float, target: int) -> Tuple[float, float, float]:
    """(lo, hi, S) for _log_ceiling: lo <= every float zero of the target
    sheet's product <= hi, and S <= the sum of 1 - a^2 over those zeros.

    The zeros are a_j = R^(-1/j), j = J .. 2J - 1 with J = 2^target, so with
    L = ln R, 1 - a_j^2 = 1 - exp(-2L/j) >= 2L/j - 2L^2/j^2, and
    sum 1/j >= ln 2, sum 1/j^2 <= 1/(J - 1) - 1/(2J - 1) give
    S = 2 ln2 L - 2 L^2 J / ((J - 1)(2J - 1)).  A float zero is within
    delta = (L + 8) 2^-52 relative of its a_j: the exponent 1 - 1/j rounds
    by at most 2^-53 (L 2^-53 relative after pow), pow by a few ulp and the
    division by R by half an ulp.  So 4 J delta covers the float zeros'
    shift of the sum (2 J delta) and the rounding of S, and 3 delta the
    shift of the first and last zeros.  Three floats per (R, sheet); no
    chunk is read.
    """
    J = 2 ** target
    L = math.log(R)
    delta = (L + 8.0) * 2.0 ** -52
    S = 2.0 * math.log(2.0) * L - 2.0 * L * L * J / ((J - 1) * (2 * J - 1))
    lo = float(_glue_values(R, J)) / R * (1.0 - 3.0 * delta)
    hi = float(_glue_values(R, 2 * J - 1)) / R * (1.0 + 3.0 * delta)
    return lo, hi, S - 4.0 * J * delta


def _log_ceiling(R: float, target: int, z: complex) -> float:
    """An upper bound for the target sheet's log|B(z)|, in O(1).

    log|B(z)| = 1/2 sum log(1 - u_a) <= -1/2 sum u_a with
    u_a = (1 - a^2)(1 - |z|^2) / |1 - a z|^2, and |1 - a z|^2 is convex in a,
    so on [lo, hi] it is at most its larger end value D: the bound is
    -1/2 S (1 - |z|^2) / D.  1 - |z|^2 is rounded as log_abs_at rounds it,
    and D as |1 - a z|^2 there, with no cancellation; the few roundings
    left are relative, far inside the 1e-9 stop margin of glued_lower_bound.
    0.0 (no bound) where S <= 0.
    """
    lo, hi, S = _ceiling_terms(R, target)
    if S <= 0.0:
        return 0.0
    r, x, y = abs(z), 1.0 - z.real, z.imag
    far = max(((1.0 - lo) + lo * x) ** 2 + (lo * y) ** 2,
              ((1.0 - hi) + hi * x) ** 2 + (hi * y) ** 2)
    return -0.5 * S * ((1.0 - r) * (1.0 + r)) / far


@dataclass(frozen=True)
class AdmissibleFunction:
    """A holomorphic map (truncated space) -> D from one of two families.

    pullback        : an annulus test map composed with the sheet-forgetting
                      projection; constant across sheets.
    sheet-supported : a Blaschke composition over w/R vanishing on the glue
                      set of one target sheet, and 0 on every other sheet.
    """

    kind: str
    label: str
    base: Optional[Callable[[complex], complex]] = None
    target_sheet: Optional[int] = None

    @staticmethod
    def pullback(base: Callable[[complex], complex], label: str) -> "AdmissibleFunction":
        return AdmissibleFunction(kind="pullback", label=f"pullback[{label}]", base=base)

    @staticmethod
    def sheet_supported(target_sheet: int) -> "AdmissibleFunction":
        if target_sheet < 1:
            raise ValueError("sheet-supported functions require a target sheet >= 1")
        return AdmissibleFunction(
            kind="sheet-supported",
            label=f"sheet-supported[{target_sheet}]",
            target_sheet=target_sheet,
        )

    def evaluate_on_representative(self, cfg: SpaceConfig, sheet: int, coord: complex) -> complex:
        """Raw evaluation at the representative (coord, sheet) before any
        quotient collapse; used to check well-definedness across glue."""
        coord = complex(coord)
        if self.kind == "pullback":
            return complex(self.base(coord))
        if self.kind == "sheet-supported":
            if sheet != self.target_sheet:
                return 0.0 + 0.0j
            B = _sheet_blaschke(cfg.annulus.R, self.target_sheet)
            return B(coord / cfg.annulus.R)
        raise ValueError(f"unknown admissible-function kind {self.kind!r}")

    def evaluate(self, cfg: SpaceConfig, p: SpacePoint) -> complex:
        # A canonical identified point sits on sheet 0, so a sheet-supported
        # function is 0 there without a case of its own.
        return self.evaluate_on_representative(cfg, p.sheet, p.coord)


def evaluate_admissible(cfg: SpaceConfig, F: AdmissibleFunction, p: SpacePoint) -> complex:
    """Evaluate F at p, made by canonicalize or parse_point under cfg;
    aborts if the value escapes the disk."""
    v = F.evaluate(cfg, p)
    if abs(v) >= 1.0:
        raise EvaluationEscapeError(
            f"{F.label} escaped the unit disk at {format_point(p)}: |value| = {abs(v)!r}"
        )
    return v


# ---------------------------------------------------------------------------
# Distance bounds on the truncated space.
# ---------------------------------------------------------------------------

def glued_lower_bound(cfg: SpaceConfig, p: SpacePoint, q: SpacePoint) -> Tuple[float, str]:
    """Best certified lower bound for the quotient Mobius distance of p and
    q, canonical for cfg.

    Maximizes over the pullback of the annulus lower-bound family and over
    sheet-supported candidates vanishing on one point's sheet; each candidate
    is a genuine holomorphic map on the quotient, so each value certifies.
    Same-sheet pairs skip the sheet-supported candidate, which can never beat
    the pullback of w/R there.

    A cross-sheet candidate's log-modulus sum over its 2^t zeros stops once
    it is below log(best) - 1e-9 (1 + |log(best)|), where best is the bound
    so far: the full sum would be lower still (BlaschkeProduct.log_abs_at),
    and the margin is far wider than the rounding of log, exp and the sum, so
    a stopped candidate is one the full sum would also have rejected, and
    value and witness stay bit for bit those of the full sums.  Before any
    zero is read, a candidate whose closed-form ceiling (_log_ceiling, above
    the full sum) is already below the stop is dropped: the full sum could
    not have won either.  A best of 0 (equal coordinates on two sheets) sets
    no stop.
    """
    if p == q:
        return 0.0, "trivial (identical points)"

    best, witness = annulus_lower_bound(cfg.annulus, p.coord, q.coord)
    witness = f"pullback[{witness}]"
    if p.sheet == q.sheet:
        # Both ends see F = B(w/R), and by Schwarz-Pick d(B(a/R), B(b/R)) is
        # at most d(a/R, b/R), the w/R quotient already in `best`.
        return best, witness

    for pt in sorted((p, q), key=lambda pt: pt.sheet):
        v = _own_sheet_modulus(cfg.annulus.R, pt, best)
        if v > best:
            best, witness = v, AdmissibleFunction.sheet_supported(pt.sheet).label
    return best, witness


def _own_sheet_modulus(R: float, pt: SpacePoint, best: float = 0.0) -> float:
    """|B(w/R)| at pt, B the product of pt's own sheet: the value of that
    sheet's candidate on a pair whose other end, off the sheet, maps to 0.
    0.0 where the candidate is dropped.  A best > 0 sets glued_lower_bound's
    stop and ceiling, and a stopped or rejected candidate returns some value
    below best; otherwise this is the full value."""
    # An evaluation point w/R that rounds onto the circle drops the
    # candidate, as in annulus_lower_bound, and so does a product whose
    # zeros come within EPS_BOUNDARY of the circle (deep sheets of a thin
    # annulus): any subset of the family still certifies.
    if pt.sheet == 0 or abs(pt.coord / R) >= 1.0:
        return 0.0
    try:
        B = _sheet_blaschke(R, pt.sheet)
    except DiskDomainError:
        return 0.0
    z, stop = pt.coord / R, None
    if best > 0.0:
        log_best = math.log(best)  # <= 0, as best < 1
        stop = log_best - 1e-9 * (1.0 - log_best)
        if _log_ceiling(R, pt.sheet, z) < stop:
            return 0.0
    return min(math.exp(B.log_abs_at(z, stop)), _ONE_MINUS)


@lru_cache(maxsize=None)
def _exit_indices(sheet: int) -> np.ndarray:
    # Subsampling exits keeps the path family small while every retained
    # path still certifies.  Slot floor(k (n - 1) / (MAX_EXITS - 1)) for
    # k = 0 .. MAX_EXITS - 1, in exact integers: sorted and distinct once
    # n > MAX_EXITS.
    n = 2 ** sheet
    if n <= MAX_EXITS:
        return np.arange(n)
    return np.arange(MAX_EXITS) * (n - 1) // (MAX_EXITS - 1)


def _exits(cfg: SpaceConfig, p: SpacePoint) -> np.ndarray:
    # Hops to sheet 0 happen at the attachment points of p's sheet (the
    # exit slots alone are computed); a point already on sheet 0 exits at itself.
    if p.sheet == 0:
        return np.array([p.coord])
    return _sheet_exits(cfg.annulus.R, p.sheet)


@lru_cache(maxsize=128)
def _sheet_exits(R: float, sheet: int) -> np.ndarray:
    # At most MAX_EXITS float64 per (R, sheet).
    exits = _glue_values(R, 2 ** sheet + _exit_indices(sheet))
    exits.setflags(write=False)
    return exits


def _exit_point(cfg: SpaceConfig, p: SpacePoint, i: int) -> SpacePoint:
    """The i-th exit of p as a canonical point, for the witness."""
    if p.sheet == 0:
        return p
    glue = GluePointIndex(p.sheet, int(_exit_indices(p.sheet)[i]) + 1)
    return SpacePoint(0, complex(_exits(cfg, p)[i]), glue)


def _lift_minima(acf: AnnulusConfig, a, b) -> Tuple[np.ndarray, np.ndarray]:
    """Upper bounds between points on one sheet, broadcast over arrays of
    coordinates: restricting quotient functions to the sheet dominates by
    the annulus upper bound, the minimum of the lift table.  Returns the
    minima and the flat index of each pair's winning lift."""
    d = lift_distances(acf, a, b)
    d = d.reshape(d.shape[:-2] + (-1,))
    return d.min(axis=-1), d.argmin(axis=-1)


def _poincare_upper(acf: AnnulusConfig, a, b) -> np.ndarray:
    """atanh of the annulus upper bound, broadcast over arrays of points."""
    return np.arctanh(lift_distances(acf, a, b).min(axis=(-2, -1)))


# Each middle leg holds at most MAX_EXITS^2 float64 (8 KB), so the cache
# stays under 8 MB.
MID_LEG_CACHE_SIZE = 1024


@lru_cache(maxsize=MID_LEG_CACHE_SIZE)
def _mid_leg(R: float, s: int, t: int) -> np.ndarray:
    """The middle glue-path leg between sheets s, t >= 1: the Poincare upper
    bound from each exit of sheet s (rows) to each exit of sheet t (columns),
    as one read-only float64 array per (R, sheet pair).

    Lift distances read only R, so the leg is shared by every family and
    grid setting.
    """
    table = _poincare_upper(AnnulusConfig(R), _sheet_exits(R, s)[:, None], _sheet_exits(R, t))
    table.setflags(write=False)
    return table


class _UpperPaths(NamedTuple):
    """Per target: the bound, the flat index of the winning lift (same sheet)
    or exit pair (cross sheet), and whether the 2/e cap replaced it."""

    values: List[float]
    where: List[int]
    capped: List[bool]


def _upper_paths(cfg: SpaceConfig, p: SpacePoint, qs: Sequence[SpacePoint]) -> _UpperPaths:
    """Upper bounds from canonical p to canonical targets qs.

    Same-sheet targets take the annulus lift minimum in one call.  Each leg
    of the cross-sheet paths p -> exit -> exit -> q is computed once per
    distinct exit set, and every leg not in a cache in one more call: h_p,
    every h_q and the middle legs that involve sheet 0.  When p and the
    target sheet are both off sheet 0, mid depends only on (R, sheet pair)
    and is read from the per-process _mid_leg cache; an end on sheet 0 exits
    at itself, so it has no exit leg and its mid joins the call.  Each lift
    entry is computed elementwise, so batching moves no value.
    """
    acf = cfg.annulus
    paths = _UpperPaths([0.0] * len(qs), [0] * len(qs), [False] * len(qs))
    groups: dict = {}
    for t, q in enumerate(qs):
        if q != p:
            groups.setdefault(q.sheet, []).append(t)
    coords = {s: np.array([qs[t].coord for t in ts]) for s, ts in groups.items()}

    same = groups.pop(p.sheet, None)
    if same is not None:
        values, where = _lift_minima(acf, p.coord, coords[p.sheet])
        for t, v, k in zip(same, values.tolist(), where.tolist()):
            paths.values[t], paths.where[t] = v, k
    if not groups:
        return paths

    # Every cross-sheet leg in one call, as flat (start, end) runs in the
    # order they are read back: p to its exits, then per target sheet either
    # p's exits to each sheet-0 target (its own exit), or p's middle leg when
    # p is on sheet 0 followed by the sheet's exits to its targets.  An end
    # on sheet 0 is its own exit, and its leg to itself, exactly 0.0, is left
    # out: 0.0 + x == x.
    a = _exits(cfg, p)
    rows = {s: _exits(cfg, qs[ts[0]]) for s, ts in groups.items() if s != 0}
    starts, ends = ([np.full(len(a), p.coord)], [a]) if p.sheet else ([], [])
    for s, ts in groups.items():
        if s == 0:
            starts.append(np.tile(a, len(ts)))
            ends.append(coords[0].repeat(len(a)))
            continue
        if p.sheet == 0:
            starts.append(np.full(len(rows[s]), p.coord))
            ends.append(rows[s])
        starts.append(np.tile(rows[s], len(ts)))
        ends.append(coords[s].repeat(len(rows[s])))
    h, offset = _poincare_upper(acf, np.concatenate(starts), np.concatenate(ends)), 0

    def leg(n):  # the next n entries of h
        nonlocal offset
        offset += n
        return h[offset - n:offset]

    h_p = leg(len(a))[:, None] if p.sheet else 0.0
    for s, ts in groups.items():
        if s == 0:  # one middle leg per sheet-0 target and exit of p
            table = h_p + leg(len(ts) * len(a)).reshape(len(ts), -1, 1)
        else:
            mid = leg(len(rows[s])) if p.sheet == 0 else _mid_leg(acf.R, p.sheet, s)
            table = (h_p + mid) + leg(len(ts) * len(rows[s])).reshape(len(ts), 1, -1)
        table = table.reshape(len(ts), -1)
        for i, (t, k) in enumerate(zip(ts, table.argmin(axis=1).tolist())):
            # tanh rounds to 1.0 once a path passes about 19; keep the open interval.
            paths.values[t], paths.where[t] = min(math.tanh(table[i, k]), _ONE_MINUS), k

    # Direct non-compactness cap for the basepoint pair (sqrt(R), 0)-(sqrt(R), n).
    # The probe end is on a sheet n >= 1 = ONE_OVER_E_N0, so the cap holds.
    srt = acf.sqrt_R
    if abs(p.coord - srt) <= 1e-12:
        probes = [t for ts in groups.values() for t in ts
                  if abs(qs[t].coord - srt) <= 1e-12 and 0 in (p.sheet, qs[t].sheet)]
        for t in probes:
            if TWO_OVER_E < paths.values[t]:
                paths.values[t] = TWO_OVER_E
                paths.capped[t] = True
    return paths


def glued_upper_bound(cfg: SpaceConfig, p: SpacePoint, q: SpacePoint) -> Tuple[float, str]:
    """Certified upper bound, with witness, for the quotient Mobius distance
    of p and q, canonical for cfg.

    The one-target case of _upper_paths, the probes' kernel.  Same
    sheet: restriction of quotient functions to the sheet dominates by the
    annulus upper bound.  Cross-sheet: triangle paths through attachment
    points, added in the Poincare scale and mapped back with tanh.  The pair
    (sqrt(R) on sheet 0, sqrt(R) on sheet n) additionally caps at 2/e, since
    every block product is at most 1/e (ONE_OVER_E_N0).
    """
    if p == q:
        return 0.0, "trivial (identical points)"
    paths = _upper_paths(cfg, p, [q])
    value, k = paths.values[0], paths.where[0]
    if paths.capped[0]:
        return value, "2/e basepoint cap"
    if p.sheet == q.sheet:
        return value, f"restriction[{_lift_witness(k)}]"
    i, j = divmod(k, len(_exits(cfg, q)))
    exit_p, exit_q = _exit_point(cfg, p, i), _exit_point(cfg, q, j)
    return value, f"glue path via exits {format_point(exit_p)}; {format_point(exit_q)}"


def glued_distance_bracket(cfg: SpaceConfig, p: SpacePoint, q: SpacePoint) -> DistanceBracket:
    """Two-sided certified bracket for the quotient Mobius distance of p and
    q, canonical for cfg."""
    return _bracket(cfg, p, q, glued_lower_bound, glued_upper_bound, format_point)


# ---------------------------------------------------------------------------
# Probes.
# ---------------------------------------------------------------------------

@dataclass
class NoncompactnessReport:
    """Evidence that the 2/e ball about the sheet-0 basepoint holds one point
    per sheet: not relatively compact at truncation scale."""

    threshold_n0: int
    ball_radius: float
    points: List[str]
    upper_bounds: List[float]
    pairwise_lower_floor: float
    distinct_sheets: int
    passed: bool

    def to_dict(self) -> dict:
        return {
            "threshold_n0": self.threshold_n0,
            "ball_radius_mobius": self.ball_radius,
            "points": list(self.points),
            "upper_bounds_mobius": [float(u) for u in self.upper_bounds],
            "pairwise_lower_floor_mobius": float(self.pairwise_lower_floor),
            "distinct_sheets": self.distinct_sheets,
            "passed": self.passed,
        }


def noncompactness_probe(cfg: SpaceConfig, n_max: int) -> NoncompactnessReport:
    """Certify one point per sheet inside the 2/e Mobius ball about the
    basepoint, with pairwise lower bounds above a positive floor.

    Sheet 1 is skipped: sqrt(R) is itself an attachment point of sheet 1, so
    its copy there is the basepoint.  A pairwise floor needs two points, so
    n_max >= 3.

    A pair's lower bound, bit for bit that of glued_lower_bound, is the
    largest of its pullback and its two ends' own-sheet moduli, each summed
    once in full: a candidate glued_lower_bound stops or rejects by its
    ceiling lies below the best it lost to.
    """
    if not 1 <= n_max <= cfg.sheets:
        raise ValueError(f"n_max must lie in [1, {cfg.sheets}], got {n_max!r}")
    if n_max < 3:
        raise ValueError(f"the probe needs two sheets past sheet 1, so n_max >= 3; got {n_max!r}")
    srt = cfg.annulus.sqrt_R
    base = canonicalize(cfg, 0, srt)
    pts = [canonicalize(cfg, n, srt) for n in range(2, n_max + 1)]

    uppers = _upper_paths(cfg, base, pts).values
    inside = all(u <= TWO_OVER_E + 1e-12 for u in uppers)
    own = [_own_sheet_modulus(cfg.annulus.R, pt) for pt in pts]
    floor = min(
        max(annulus_lower_bound(cfg.annulus, p.coord, q.coord)[0], u, v)
        for (p, u), (q, v) in combinations(zip(pts, own), 2)
    )
    return NoncompactnessReport(
        threshold_n0=ONE_OVER_E_N0,
        ball_radius=TWO_OVER_E,
        points=[format_point(pt) for pt in pts],
        upper_bounds=uppers,
        pairwise_lower_floor=floor,
        distinct_sheets=len({pt.sheet for pt in pts}),
        passed=inside and floor > 0.0,
    )


@dataclass
class CompletenessReport:
    """Tail behaviour of a sequence under the certified upper bounds."""

    tail_stats: List[dict]
    cauchy_like: bool
    tail_single_sheet: bool
    tail_coordinate_diameter: float
    converged_in_topology: bool

    def to_dict(self) -> dict:
        return {
            "tail_stats": list(self.tail_stats),
            "cauchy_like": self.cauchy_like,
            "tail_single_sheet": self.tail_single_sheet,
            "tail_coordinate_diameter": float(self.tail_coordinate_diameter),
            "converged_in_topology": self.converged_in_topology,
        }


def completeness_probe(cfg: SpaceConfig, sequence: Sequence[SpacePoint]) -> CompletenessReport:
    """Report the upper-bound Cauchy modulus per tail alongside the natural-
    topology diameter of tails; flags the Cauchy-and-converging pattern.
    The points come from canonicalize or parse_point under cfg.

    Every same-sheet pair takes its lift minimum in one lift call, and each
    point's later cross-sheet targets go through _upper_paths, one call per
    point that has any: bit for bit glued_upper_bound pair by pair.  A
    repeated point's lift minimum is exactly 0.0."""
    seq = list(sequence)
    if len(seq) < 3:
        raise ValueError("completeness probe needs a sequence of length >= 3")

    n = len(seq)
    upper = np.zeros((n, n))
    lower = np.zeros((n, n))
    coords = np.array([p.coord for p in seq])
    sheets = [p.sheet for p in seq]
    rows, cols = np.triu_indices(n, 1)
    same = np.take(sheets, rows) == np.take(sheets, cols)
    if same.any():
        rows, cols = rows[same], cols[same]
        upper[rows, cols] = upper[cols, rows] = _lift_minima(
            cfg.annulus, coords[rows], coords[cols])[0]
    for i in range(n - 1):
        cross = [j for j in range(i + 1, n) if sheets[j] != sheets[i]]
        if cross:
            paths = _upper_paths(cfg, seq[i], [seq[j] for j in cross])
            upper[i, cross] = upper[cross, i] = paths.values
        for j in range(i + 1, n):
            lower[i, j] = lower[j, i] = glued_lower_bound(cfg, seq[i], seq[j])[0]
    # hypot, as in abs(complex); np.abs on complex can differ in the last ulp.
    diff = coords[:, None] - coords[None, :]
    gaps = np.hypot(diff.real, diff.imag)

    stats = [
        {
            "tail_start": t,
            "cauchy_modulus_mobius": float(upper[t:, t:].max()),
            # A lower-bound modulus bounded away from 0 rules Cauchy out; this
            # is how boundary escape shows up even though coordinates converge.
            "separation_floor_mobius": float(lower[t:, t:].max()),
            "coordinate_diameter": float(gaps[t:, t:].max()),
            "single_sheet": len(set(sheets[t:])) == 1,
        }
        for t in range(n - 1)
    ]

    first, last = stats[0], stats[-1]
    cauchy_like = last["cauchy_modulus_mobius"] <= max(1e-6, 0.1 * first["cauchy_modulus_mobius"])
    single_sheet = last["single_sheet"]
    diameter = last["coordinate_diameter"]
    return CompletenessReport(
        tail_stats=stats,
        cauchy_like=cauchy_like,
        tail_single_sheet=single_sheet,
        tail_coordinate_diameter=diameter,
        converged_in_topology=cauchy_like and single_sheet and diameter < 1e-2,
    )


def ball_inclusion_radius(
    cfg: SpaceConfig,
    z: SpacePoint,
    band: Tuple[float, float],
    band_sheets: Sequence[int],
    samples: int = 200,
    seed: int = 0,
) -> Optional[float]:
    """Largest dyadic radius r with no sampled point outside the compact band
    K at certified Poincare upper distance < r from z; None if none works.

    Sampling evidence for the ball-inclusion condition, not a proof, so at
    least one sample is required.  The sample cloud depends only on (seed,
    samples), so nested bands yield monotone radii.  z comes from
    canonicalize or parse_point under cfg.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples!r}")
    r1, r2 = band
    R = cfg.annulus.R
    if not (1.0 < r1 < r2 < R):
        raise ValueError(f"band must satisfy 1 < r1 < r2 < R, got ({r1!r}, {r2!r})")
    sheets = sorted(set(int(s) for s in band_sheets))
    if any(s < 0 or s > cfg.sheets for s in sheets) or not sheets:
        raise ValueError(f"band sheets must be a nonempty subset of [0, {cfg.sheets}]")
    if not (r1 < abs(z.coord) < r2) or z.sheet not in sheets:
        raise ValueError("centre must lie strictly inside the compact region")

    rng = np.random.default_rng(seed)
    margin = 1e-3 * (R - 1.0)
    radii = rng.uniform(1.0 + margin, R - margin, samples)
    angles = rng.uniform(0.0, 2.0 * math.pi, samples)
    point_sheets = rng.integers(0, cfg.sheets + 1, samples)

    outside = [
        canonicalize(cfg, int(sh), complex(r * math.cos(th), r * math.sin(th)))
        for r, th, sh in zip(radii, angles, point_sheets)
        if not (r1 <= r <= r2) or int(sh) not in sheets
    ]
    uppers = _upper_paths(cfg, z, outside).values
    d_min = min(map(_atanh, uppers), default=math.inf)

    for j in range(4, -21, -1):
        r = 2.0 ** j
        if r <= d_min:
            return r
    return None
