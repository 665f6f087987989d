"""Command-line surface.

Every subcommand prints one JSON report (sorted keys, exact literals plus
informative 20-digit decimals) so repeated runs on identical inputs are
byte-identical.  Exit codes: 0 success, 1 verification/search failure,
2 input error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from fractions import Fraction

from . import aprank as _aprank
from . import cps as _cps
from . import files as _files
from . import progression as _prog
from . import vdw as _vdw
from .errors import ApMeyerError, NoMonoGrid, ParseError, RankGapError, VerificationFailed
from .exact import as_quad, decimal_str, parse_quad


def _dual(x) -> dict:
    q = as_quad(x)
    return {"exact": q.as_literal(), "decimal": decimal_str(q)}


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _input_ref(spec: str) -> object:
    try:
        return {"path": spec, "sha256": _digest(spec)}
    except OSError:
        return spec  # builtin name or inline literal


def _emit(report: dict) -> None:
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")


def _point_payload(cps, point) -> dict:
    return {
        "coords": list(point.coords),
        "physical": [_dual(x) for x in point.physical],
        "internal": [_dual(x) for x in point.internal],
    }


def _parse_anchor(text, d):
    if text is None:
        return (Fraction(0),) * d
    parts = [p for p in text.split(",") if p.strip()]
    anchor = tuple(parse_quad(p) for p in parts)
    if len(anchor) != d:
        raise ParseError(f"anchor has {len(anchor)} axes, expected {d}")
    return anchor


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _window_for(cps, window_arg):
    if cps.m == 0:
        return _cps.trivial_window()
    if window_arg is None:
        raise ParseError("a window is required when the internal dimension is positive")
    return _files.parse_window_arg(window_arg)


def _cmd_gen(args) -> tuple[dict, int]:
    cps = _files.load_cps(args.cps)
    window = _window_for(cps, args.window)
    region = _files.parse_region(args.region, cps.d)
    points = _cps.enumerate_model_set(cps, window, region, budget=args.budget)
    result = {
        "count": len(points),
        "points": [_point_payload(cps, p) for p in points],
    }
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(_files.format_point_lines(points))
        result["point_file"] = args.out
    return {"result": result, "status": "ok"}, 0


def _cmd_validate(args) -> tuple[dict, int]:
    cps = _files.load_cps(args.cps)
    report = _cps.validate(cps)
    payload = {
        "lattice_invertible": report.lattice_invertible,
        "projection_injective": report.projection_injective,
        "density": report.density,
        "ok": report.ok,
    }
    return {"result": payload, "status": "ok" if report.ok else "fail"}, 0 if report.ok else 1


def _cmd_rank(args) -> tuple[dict, int]:
    with open(args.points) as fh:
        vectors = _files.parse_vector_lines(fh.read())
    from .exact import flatten_vector, rank_over_Q

    rank = rank_over_Q([flatten_vector(v) for v in vectors])
    return {"result": {"vectors": len(vectors), "rank": rank}, "status": "ok"}, 0


def _cmd_crt(args) -> tuple[dict, int]:
    coeffs = _prog.crt_coefficients(args.n, args.N)
    return {
        "result": {
            "n": coeffs.n,
            "N": coeffs.length,
            "primes": list(coeffs.primes),
            "m": list(coeffs.values),
        },
        "status": "ok",
    }, 0


def _cmd_find_ap(args) -> tuple[dict, int]:
    if args.expr and args.oracle:
        raise ParseError("--oracle needs --cps: it enumerates the model set")
    if args.expr and args.window:
        raise ParseError("--window needs --cps: an expression takes its windows from its branches")
    if args.expr:
        expr = _files.load_expr(args.expr)
        cps = expr.cps
        anchor = _parse_anchor(args.at, cps.d)
        ap = _aprank.li_ap_in_meyer(expr, args.length, anchor, budget=args.budget)
        radius = None
    else:
        cps = _files.load_cps(args.cps)
        window = _window_for(cps, args.window)
        anchor = _parse_anchor(args.at, cps.d)
        ap, radius = _aprank.li_ap_in_model_set(
            cps, window, args.length, anchor, budget=args.budget
        )
    result = {
        "progression": _files.ap_to_dict(ap),
        "rank": _prog.ap_rank(ap),
        "length": ap.length,
    }
    if radius is not None:
        result["radius"] = _dual(radius)
    if args.oracle:
        ball = _cps.Ball(anchor, radius * radius)
        sample = {p.coords for p in _cps.enumerate_model_set(cps, window, ball, args.budget)}
        members = [tuple(p) in sample for p in _prog.ap_points(ap)]
        result["oracle"] = {"points_checked": len(members), "all_member": all(members)}
        if not all(members):
            return {"result": result, "status": "fail"}, 1
    if args.rank_target is not None and result["rank"] != args.rank_target:
        return {"result": result, "status": "fail"}, 1
    return {"result": result, "status": "ok"}, 0


def _cmd_vdw(args) -> tuple[dict, int]:
    with open(args.colors) as fh:
        coloring = _files.parse_coloring(fh.read())
    grid = _vdw.find_mono_grid(coloring, args.depth)
    if grid is None:
        return {"result": {"grid": None}, "status": "fail"}, 1
    return {
        "result": {
            "grid": {
                "offsets": list(grid.offsets),
                "steps": list(grid.steps),
                "depth": grid.depth,
            },
            "points": [list(p) for p in _vdw.grid_points(grid)],
        },
        "status": "ok",
    }, 0


def _cmd_aprank(args) -> tuple[dict, int]:
    expr = _files.load_expr(args.expr)
    bracket = _aprank.aprank_bounds(expr, args.lengths, budget=args.budget)
    result = {
        "lower": bracket.lower,
        "upper": bracket.upper,
        "upper_tag": bracket.upper_tag,
        "tested_lengths": list(bracket.tested_lengths),
        "certificates": [
            {"length": n, "progression": _files.ap_to_dict(ap)} for n, ap in bracket.certificates
        ],
        "sample_module_rank": _aprank.sample_module_rank(expr, budget=args.budget),
    }
    return {"result": result, "status": "ok"}, 0


def _cmd_euclideanize(args) -> tuple[dict, int]:
    expr = _files.load_expr(args.expr)
    try:
        refined, window, verification = _aprank.euclideanize(
            expr, sample_halfwidth=Fraction(args.sample), budget=args.budget
        )
    except RankGapError as exc:
        return {
            "result": {"rank_gap": True, "independent_translate": exc.translate},
            "status": "fail",
        }, 1
    result = {
        "multiplier": _aprank.refinement_multiplier(expr),
        "cps": _files.cps_to_dict(refined),
        "window": _files.window_to_dict(window),
        "verification": verification,
    }
    if args.out:
        cps_path = args.out + ".cps.json"
        win_path = args.out + ".window.json"
        with open(cps_path, "w") as fh:
            json.dump(_files.cps_to_dict(refined), fh, sort_keys=True, indent=2)
        with open(win_path, "w") as fh:
            json.dump(_files.window_to_dict(window), fh, sort_keys=True, indent=2)
        result["files"] = {"cps": cps_path, "window": win_path}
    return {"result": result, "status": "ok"}, 0


def _cmd_example(args) -> tuple[dict, int]:
    if args.name == "rank_gap":
        cps = _files.load_cps(args.cps or "fibonacci")
        expr = _aprank.rank_gap_example(cps, args.n)
        payload = _files.expr_to_dict(expr)
        kind = "expr"
    else:
        cps = _cps.builtin(args.name)
        payload = _files.cps_to_dict(cps)
        kind = "cps"
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
    return {"result": {"kind": kind, kind: payload}, "status": "ok"}, 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apmeyer",
        description="Exact arithmetic progressions in cut-and-project and Meyer sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_budget(p):
        p.add_argument("--budget", type=int, default=_cps.DEFAULT_BUDGET,
                       help="work units per library call: enumeration nodes and candidates, "
                            "probes, progression points, tuples, pairs (default %(default)s)")

    p = sub.add_parser("gen", help="enumerate a model set in a region")
    p.add_argument("--cps", required=True, help="builtin name or CPS JSON file")
    p.add_argument("--window", help="inline box like [0,1] or window JSON file")
    p.add_argument("--region", required=True, help="|x|<=r, |x-c|<=r, or [lo,hi]x...")
    p.add_argument("--out", help="also write a point-list file")
    add_budget(p)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("validate", help="check CPS invariants")
    p.add_argument("--cps", required=True)
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("rank", help="rank over Q of a vector/point file")
    p.add_argument("--points", required=True)
    p.set_defaults(fn=_cmd_rank)

    p = sub.add_parser("crt", help="pairwise-distinct progression coefficients")
    p.add_argument("n", type=int)
    p.add_argument("N", type=int)
    p.set_defaults(fn=_cmd_crt)

    p = sub.add_parser("find-ap", help="construct a maximal-rank li-progression")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--cps")
    source.add_argument("--expr", help="Meyer expression JSON file")
    p.add_argument("--window")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--at", help="anchor point, comma-separated exact literals")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check the progression against enumerated points")
    p.add_argument("--rank-target", type=int,
                   help="expected rank; mismatch fails (no rank is checked when omitted)")
    add_budget(p)
    p.set_defaults(fn=_cmd_find_ap)

    p = sub.add_parser("vdw", help="monochromatic grid search on a coloring file")
    p.add_argument("--colors", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.set_defaults(fn=_cmd_vdw)

    p = sub.add_parser("aprank", help="ap-rank bracket with certificates")
    p.add_argument("--expr", required=True)
    p.add_argument("--lengths", type=int, default=3, help="certify lengths 1..N")
    add_budget(p)
    p.set_defaults(fn=_cmd_aprank)

    p = sub.add_parser("euclideanize", help="embed a structured Meyer set into a model set")
    p.add_argument("--expr", required=True)
    p.add_argument("--sample", type=int, default=20, help="verification sample half-width")
    p.add_argument("--out", help="prefix for .cps.json/.window.json output files")
    add_budget(p)
    p.set_defaults(fn=_cmd_euclideanize)

    p = sub.add_parser("example", help="emit a builtin scheme or the rank-gap expression")
    p.add_argument("name", help="fibonacci | silver_mean | ammann_beenker | "
                                "integer_lattice(d) | rank_gap")
    p.add_argument("--cps", help="base scheme for rank_gap (default fibonacci)")
    p.add_argument("-n", type=int, default=1, help="independent translates for rank_gap")
    p.add_argument("--out", help="write the JSON payload to a file")
    p.set_defaults(fn=_cmd_example)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    inputs = {}
    for key in ("cps", "window", "expr", "colors", "points"):
        value = getattr(args, key, None)
        if value:
            inputs[key] = _input_ref(value)
    try:
        body, code = args.fn(args)
    except (ParseError, OSError, json.JSONDecodeError, ValueError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2
    except (NoMonoGrid, VerificationFailed) as exc:
        body, code = {"result": {"error": str(exc)}, "status": "fail"}, 1
    except ApMeyerError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    report = {"command": args.command, "inputs": inputs}
    report.update(body)
    _emit(report)
    return code


if __name__ == "__main__":
    sys.exit(main())
