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
from typing import List, Optional

from . import __version__
from .annulus import (
    AnnulusConfig,
    AnnulusDomainError,
    BracketOrderError,
    CoveringBranchError,
    annulus_distance_bracket,
)
from .disk import DiskDomainError, poincare_distance, _atanh
from .glued import (
    EvaluationEscapeError,
    SpaceConfig,
    ball_inclusion_radius,
    completeness_probe,
    format_point,
    glued_distance_bracket,
    noncompactness_probe,
    parse_point,
)
from .sweeps import (
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


def _emit(args, document: dict, sweeps: Optional[List[dict]] = None) -> None:
    if args.format == "csv":
        if sweeps is None:
            raise ValueError("csv export is available for sweep reports only")
        text = _sweeps_to_csv(sweeps)
    else:
        text = render_json(document) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _annulus_config(args, R: float) -> AnnulusConfig:
    return AnnulusConfig(
        R=R,
        family_degree=args.family_degree,
        grid_density=args.grid_density,
        seed=args.seed,
    )


def _config_echo(args) -> dict:
    return {
        "R": [float(r) for r in args.R],
        "N": args.N,
        "m_max": args.m_max,
        "n_max": args.n_max,
        "family_degree": args.family_degree,
        "grid_density": args.grid_density,
        "seed": args.seed,
        "format": args.format,
    }


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
    sweeps = []
    t0 = time.perf_counter()
    sweeps.append(verify_upper_bound_sweep(args.m_max).to_dict())
    sweeps.append(verify_two_pi_limit().to_dict())
    for R in args.R:
        sweeps.append(verify_lower_bound_sweep(R, args.m_max).to_dict())
        sweeps.append(verify_final_chain(R, args.n_max).to_dict())
        sweeps.append(verify_one_over_e_products(R, args.n_max).to_dict())
    print(f"[timing] sweeps: {time.perf_counter() - t0:.2f}s", file=sys.stderr)

    document = {
        "tool": "caralab",
        "version": __version__,
        "command": "verify-lemmas",
        "config": _config_echo(args),
        "sweeps": sweeps,
    }
    _emit(args, document, sweeps)
    failing = [s["parameter_name"] for s in sweeps if not s["passed"]]
    if failing:
        print(f"verification failed: {', '.join(failing)}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILURE
    return EXIT_OK


def _parse_complex(text: str) -> complex:
    re_s, _, im_s = text.partition(",")
    if not im_s:
        raise ValueError(f"malformed point {text!r}: expected 're,im'")
    return complex(float(re_s), float(im_s))


def cmd_annulus_distance(args) -> int:
    cfg = _annulus_config(args, args.R[0])
    a = _parse_complex(args.a)
    b = _parse_complex(args.b)
    bracket = annulus_distance_bracket(cfg, a, b)
    document = {
        "tool": "caralab",
        "version": __version__,
        "command": "annulus-distance",
        "config": _config_echo(args),
        "a": args.a,
        "b": args.b,
        "bracket": _bracket_record(bracket),
    }
    _emit(args, document)
    return EXIT_OK


def cmd_glued(args) -> int:
    cfg = SpaceConfig(annulus=_annulus_config(args, args.R[0]), sheets=args.N)
    document = {
        "tool": "caralab",
        "version": __version__,
        "command": f"glued {args.glued_command}",
        "config": _config_echo(args),
    }
    ok = True
    if args.glued_command == "distance":
        p = parse_point(cfg, args.p)
        q = parse_point(cfg, args.q)
        bracket = glued_distance_bracket(cfg, p, q)
        document["p"] = format_point(p)
        document["q"] = format_point(q)
        document["bracket"] = _bracket_record(bracket)
    elif args.glued_command == "noncompact":
        report = noncompactness_probe(cfg, min(args.n_max, cfg.sheets))
        document["noncompactness"] = report.to_dict()
        ok = report.passed
    elif args.glued_command == "complete":
        seq = [parse_point(cfg, s) for s in args.points]
        report = completeness_probe(cfg, seq)
        document["completeness"] = report.to_dict()
    elif args.glued_command == "ball":
        z = parse_point(cfg, args.z)
        r1, _, r2 = args.band.partition(",")
        sheets = [int(s) for s in args.band_sheets.split(",")] if args.band_sheets else list(
            range(cfg.sheets + 1)
        )
        radius = ball_inclusion_radius(
            cfg, z, (float(r1), float(r2)), sheets, samples=args.samples
        )
        document["ball"] = {
            "centre": format_point(z),
            "band": [float(r1), float(r2)],
            "band_sheets": sheets,
            "scale": "poincare",
            "radius": radius,
        }
    _emit(args, document)
    return EXIT_OK if ok else EXIT_VERIFICATION_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="caralab",
        description="Certified Mobius-distance brackets on the annulus and its glued quotient.",
    )
    parser.add_argument("--version", action="version", version=f"caralab {__version__}")

    def add_common(sub):
        sub.add_argument("--R", action="append", type=float, default=None,
                         help="outer annulus radius, repeatable (default 4)")
        sub.add_argument("--N", type=int, default=12, help="sheet truncation (default 12)")
        sub.add_argument("--m-max", dest="m_max", type=int, default=10 ** 6)
        sub.add_argument("--n-max", dest="n_max", type=int, default=20)
        sub.add_argument("--family-degree", dest="family_degree", type=int, default=4)
        sub.add_argument("--grid-density", dest="grid_density", type=int, default=3)
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument("--format", choices=("json", "csv"), default="json")
        sub.add_argument("--out", default=None, help="output path (default stdout)")

    subs = parser.add_subparsers(dest="command", required=True)

    p_verify = subs.add_parser("verify-lemmas", help="run all inequality sweeps")
    add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify_lemmas)

    p_ann = subs.add_parser("annulus-distance", help="bracket an annulus pair")
    add_common(p_ann)
    p_ann.add_argument("a", help="point 're,im'")
    p_ann.add_argument("b", help="point 're,im'")
    p_ann.set_defaults(func=cmd_annulus_distance)

    p_glued = subs.add_parser("glued", help="glued-space queries and probes")
    glued_subs = p_glued.add_subparsers(dest="glued_command", required=True)

    g_dist = glued_subs.add_parser("distance", help="bracket a glued pair")
    add_common(g_dist)
    g_dist.add_argument("p", help="point 'sheet:re,im' or 'glue:n,m'")
    g_dist.add_argument("q", help="point 'sheet:re,im' or 'glue:n,m'")
    g_dist.set_defaults(func=cmd_glued)

    g_non = glued_subs.add_parser("noncompact", help="2/e-ball non-compactness probe")
    add_common(g_non)
    g_non.set_defaults(func=cmd_glued)

    g_comp = glued_subs.add_parser("complete", help="sequence completeness probe")
    add_common(g_comp)
    g_comp.add_argument("points", nargs="+", help="sequence of points")
    g_comp.set_defaults(func=cmd_glued)

    g_ball = glued_subs.add_parser("ball", help="ball-inclusion radius search")
    add_common(g_ball)
    g_ball.add_argument("z", help="centre point")
    g_ball.add_argument("--band", required=True, help="compact band 'r1,r2'")
    g_ball.add_argument("--band-sheets", dest="band_sheets", default=None,
                        help="comma-separated sheet subset (default all)")
    g_ball.add_argument("--samples", type=int, default=200)
    g_ball.set_defaults(func=cmd_glued)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.R is None:
        args.R = [4.0]
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
