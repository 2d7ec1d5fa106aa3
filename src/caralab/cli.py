"""Command-line front end: lemma sweeps, distance queries, quotient probes.

Reports are deterministic: floats render at 17 significant digits, key order
is fixed, and identical configs reproduce byte-identical JSON.  Wall-clock
timings go to stderr so they never perturb the report payload.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from functools import lru_cache
from typing import List, Optional, Tuple

from . import __version__
from .annulus import (
    AnnulusConfig,
    AnnulusDomainError,
    BracketOrderError,
    CoveringBranchError,
    annulus_distance_bracket,
)
from .disk import DiskDomainError, _atanh
from .glued import (
    EvaluationEscapeError,
    SpaceConfig,
    ball_inclusion_radius,
    completeness_probe,
    format_point,
    glued_distance_bracket,
    noncompactness_probe,
    parse_complex,
    parse_point,
)
from .sweeps import (
    BoundConstants,
    check_lemma_ranges,
    verify_final_chain,
    verify_lower_bound_sweep,
    verify_one_over_e_products,
    verify_two_pi_limit,
    verify_upper_bound_sweep,
)

EXIT_OK = 0
EXIT_VERIFICATION_FAILURE = 1
EXIT_USAGE = 2


def render_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: insertion-ordered keys, floats at 17 significant
    digits, no locale or platform dependence."""
    pad = "  " * indent
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite float in report: {obj!r}")
        return format(obj, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {render_json(v, indent + 1)}' for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(f"{pad}  {render_json(v, indent + 1)}" for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    raise TypeError(f"unserializable object in report: {obj!r}")


def _sweeps_to_csv(sweeps: List[dict]) -> str:
    lines = ["parameter_name,range_lo,range_hi,threshold_found,worst_margin,passed"]
    for s in sweeps:
        t = "" if s["threshold_found"] is None else str(s["threshold_found"])
        lines.append(
            f'{s["parameter_name"]},{s["range"][0]},{s["range"][1]},{t},'
            f'{format(s["worst_margin"], ".17g")},{str(s["passed"]).lower()}'
        )
    return "\n".join(lines) + "\n"


def _emit(args, document: dict, text: Optional[str] = None) -> None:
    """Write text, by default the document as JSON, to --out or stdout."""
    if text is None:
        text = render_json(document) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _document(args, command: str, **fields) -> dict:
    """A report: its command, the options the command took, then fields."""
    return {
        "tool": "caralab",
        "version": __version__,
        "command": command,
        "config": {key: getattr(args, key) for key in args.config_keys},
        **fields,
    }


def _annulus_config(args) -> AnnulusConfig:
    return AnnulusConfig(
        R=args.R, family_degree=args.family_degree, grid_density=args.grid_density
    )


def _space_config(args) -> SpaceConfig:
    return SpaceConfig(annulus=_annulus_config(args), sheets=args.N)


def _bracket_record(bracket) -> dict:
    return {
        "scale": "mobius",
        "lower": bracket.lower,
        "upper": bracket.upper,
        "lower_poincare": _atanh(bracket.lower),
        "upper_poincare": _atanh(bracket.upper),
        "lower_witness": bracket.lower_witness,
        "upper_witness": bracket.upper_witness,
    }


def cmd_verify_lemmas(args) -> int:
    args.R = args.R or [4.0]
    for R in args.R:  # a bad radius or range fails before any sweep runs
        BoundConstants.for_radius(R)
    check_lemma_ranges(args.m_max, args.n_max)
    sweeps = []
    t0 = time.perf_counter()
    sweeps.append(verify_upper_bound_sweep(args.m_max).to_dict())
    sweeps.append(verify_two_pi_limit().to_dict())
    for R in args.R:
        sweeps.append(verify_lower_bound_sweep(R, args.m_max).to_dict())
        sweeps.append(verify_final_chain(R, args.n_max).to_dict())
        sweeps.append(verify_one_over_e_products(R, args.n_max).to_dict())
    print(f"[timing] sweeps: {1e3 * (time.perf_counter() - t0):.3g} ms", file=sys.stderr)

    document = _document(args, "verify-lemmas", sweeps=sweeps)
    _emit(args, document, _sweeps_to_csv(sweeps) if args.format == "csv" else None)
    failing = [s["parameter_name"] for s in sweeps if not s["passed"]]
    if failing:
        print(f"verification failed: {', '.join(failing)}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILURE
    return EXIT_OK


def cmd_annulus_distance(args) -> int:
    bracket = annulus_distance_bracket(
        _annulus_config(args), parse_complex(args.a), parse_complex(args.b)
    )
    _emit(args, _document(
        args, "annulus-distance", a=args.a, b=args.b, bracket=_bracket_record(bracket)
    ))
    return EXIT_OK


def cmd_glued_distance(args) -> int:
    cfg = _space_config(args)
    p = parse_point(cfg, args.p)
    q = parse_point(cfg, args.q)
    bracket = glued_distance_bracket(cfg, p, q)
    _emit(args, _document(
        args, "glued distance",
        p=format_point(p), q=format_point(q), bracket=_bracket_record(bracket),
    ))
    return EXIT_OK


def cmd_glued_noncompact(args) -> int:
    cfg = _space_config(args)
    report = noncompactness_probe(cfg, cfg.sheets)
    _emit(args, _document(args, "glued noncompact", noncompactness=report.to_dict()))
    return EXIT_OK if report.passed else EXIT_VERIFICATION_FAILURE


def cmd_glued_complete(args) -> int:
    cfg = _space_config(args)
    report = completeness_probe(cfg, [parse_point(cfg, s) for s in args.points])
    _emit(args, _document(args, "glued complete", completeness=report.to_dict()))
    return EXIT_OK


def _parse_band(text: str) -> Tuple[float, float]:
    r1, _, r2 = text.partition(",")
    try:
        return float(r1), float(r2)
    except ValueError:
        raise ValueError(f"malformed band {text!r}: expected 'r1,r2'") from None


def _parse_band_sheets(text: Optional[str], cfg: SpaceConfig) -> List[int]:
    # Leaving the option out means every sheet; an empty value is malformed.
    if text is None:
        return list(range(cfg.sheets + 1))
    try:
        return [int(s) for s in text.split(",")]
    except ValueError:
        raise ValueError(f"malformed band sheets {text!r}: expected 'n,m,...'") from None


def cmd_glued_ball(args) -> int:
    cfg = _space_config(args)
    z = parse_point(cfg, args.z)
    band = _parse_band(args.band)
    sheets = _parse_band_sheets(args.band_sheets, cfg)
    radius = ball_inclusion_radius(cfg, z, band, sheets, samples=args.samples, seed=args.seed)
    _emit(args, _document(args, "glued ball", ball={
        "centre": format_point(z),
        "band": band,
        "band_sheets": sheets,
        "scale": "poincare",
        "radius": radius,
    }))
    return EXIT_OK


# Every option, under the key its report's config echoes it by: flag and
# argparse keywords.  A command takes only the options it reads, plus --out.
OPTIONS = {
    "R": ("--R", dict(type=float, default=4.0, help="outer annulus radius (default 4)")),
    "N": ("--N", dict(type=int, default=12, help="sheet truncation (default 12)")),
    "m_max": ("--m-max", dict(type=int, default=10 ** 6)),
    "n_max": ("--n-max", dict(type=int, default=20)),
    "family_degree": ("--family-degree", dict(type=int, choices=(1, 2), default=2)),
    "grid_density": ("--grid-density", dict(
        type=int, default=3, help="accepted and echoed, not read: the degree-2 maps sit at a "
        "closed-form angle (default 3, must be >= 1)")),
    "format": ("--format", dict(choices=("json", "csv"), default="json")),
    "band": ("--band", dict(required=True, help="compact band 'r1,r2'")),
    "band_sheets": ("--band-sheets", dict(
        default=None, help="comma-separated sheet subset (default all)")),
    "samples": ("--samples", dict(type=int, default=200, help="sample count, >= 1 (default 200)")),
    "seed": ("--seed", dict(type=int, default=0, help="sample-cloud seed (default 0)")),
}
GLUED = ("R", "N", "family_degree", "grid_density")


def _command(subs, name: str, func, summary: str, keys: tuple, **changed):
    """A subcommand taking the options named by keys and --out; changed maps
    a key to argparse keywords that replace its defaults in OPTIONS."""
    sub = subs.add_parser(name, help=summary)
    for key in keys:
        flag, kwargs = OPTIONS[key]
        sub.add_argument(flag, dest=key, **{**kwargs, **changed.get(key, {})})
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.set_defaults(func=func, config_keys=keys)
    return sub


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process on the first call.

    Parsing leaves it unchanged: every option's default is immutable, and
    each parse fills a fresh namespace, so every call can share it.
    """
    parser = argparse.ArgumentParser(
        prog="caralab",
        description="Certified Mobius-distance brackets on the annulus and its glued quotient.",
    )
    parser.add_argument("--version", action="version", version=f"caralab {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    _command(
        subs, "verify-lemmas", cmd_verify_lemmas, "run all inequality sweeps",
        ("R", "m_max", "n_max", "format"),
        R=dict(action="append", default=None, help="outer annulus radius, repeatable (default 4)"),
    )

    p_ann = _command(
        subs, "annulus-distance", cmd_annulus_distance, "bracket an annulus pair",
        ("R", "family_degree", "grid_density"),
    )
    p_ann.add_argument("a", help="point 're,im'")
    p_ann.add_argument("b", help="point 're,im'")

    p_glued = subs.add_parser("glued", help="glued-space queries and probes")
    glued_subs = p_glued.add_subparsers(dest="glued_command", required=True)

    g_dist = _command(
        glued_subs, "distance", cmd_glued_distance, "bracket a glued pair", GLUED
    )
    g_dist.add_argument("p", help="point 'sheet:re,im' or 'glue:n,m'")
    g_dist.add_argument("q", help="point 'sheet:re,im' or 'glue:n,m'")

    _command(
        glued_subs, "noncompact", cmd_glued_noncompact, "2/e-ball non-compactness probe", GLUED
    )

    g_comp = _command(
        glued_subs, "complete", cmd_glued_complete, "sequence completeness probe", GLUED
    )
    g_comp.add_argument("points", nargs="+", help="sequence of points")

    g_ball = _command(
        glued_subs, "ball", cmd_glued_ball, "ball-inclusion radius search",
        GLUED + ("band", "band_sheets", "samples", "seed"),
    )
    g_ball.add_argument("z", help="centre point")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, DiskDomainError, AnnulusDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (BracketOrderError, EvaluationEscapeError, CoveringBranchError) as exc:
        # An internal consistency check failed: nothing was certified.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILURE


if __name__ == "__main__":
    sys.exit(main())
