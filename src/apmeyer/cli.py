"""Command-line surface.

Every subcommand prints one JSON report (sorted keys, exact literals plus
informative 20-digit decimals) so repeated runs on identical inputs are
byte-identical.  `main` frames every report as `command`, `inputs`,
`result` and `status`.  Exit codes: 0 success (`status` "ok"),
1 verification/search failure (`status` "fail", or an error on stderr),
2 input error (on stderr, no report).
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
from .errors import (DEFAULT_BUDGET, ApMeyerError, NoMonoGrid, ParseError, RankGapError,
                     VerificationFailed, metered)
from .exact import as_quad, decimal_str, flatten_vector, rank_over_Q


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


def _point_payload(point) -> dict:
    return {
        "coords": list(point.coords),
        "physical": [_dual(x) for x in point.physical],
        "internal": [_dual(x) for x in point.internal],
    }


# ---------------------------------------------------------------------------
# subcommands: each returns (result, ok), and `main` frames the report
# ---------------------------------------------------------------------------

def _window(args):
    return None if args.window is None else _files.parse_window_arg(args.window)


def _cmd_gen(args) -> tuple[dict, bool]:
    cps = _files.load_cps(args.cps)
    window = _window(args)
    points = _cps.enumerate_model_set(cps, window, _files.parse_region(args.region, cps.d))
    result = {"count": len(points), "points": [_point_payload(p) for p in points]}
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(_files.format_point_lines(points))
        result["point_file"] = args.out
    return result, True


def _cmd_validate(args) -> tuple[dict, bool]:
    report = _cps.validate(_files.load_cps(args.cps))
    return {
        "lattice_invertible": report.lattice_invertible,
        "projection_injective": report.projection_injective,
        "density": report.density,
        "ok": report.ok,
    }, report.ok


def _cmd_rank(args) -> tuple[dict, bool]:
    with open(args.points) as fh:
        vectors = _files.parse_vector_lines(fh.read())
    return {"vectors": len(vectors), "rank": rank_over_Q([flatten_vector(v) for v in vectors])}, True


def _cmd_crt(args) -> tuple[dict, bool]:
    c = _prog.crt_coefficients(args.n, args.N)
    return {"n": c.n, "N": c.length, "primes": list(c.primes), "m": list(c.values)}, True


def _cmd_find_ap(args) -> tuple[dict, bool]:
    if args.expr and args.oracle:
        raise ParseError("--oracle needs --cps: it enumerates the model set")
    if args.expr and args.window:
        raise ParseError("--window needs --cps: an expression takes its windows from its branches")
    if args.expr:
        expr = _files.load_expr(args.expr)
        anchor = _files.parse_point(args.at, expr.cps.d, "anchor")
        ap, radius = _aprank.li_ap_in_meyer(expr, args.length, anchor), None
    else:
        cps = _files.load_cps(args.cps)
        window = _window(args)
        anchor = _files.parse_point(args.at, cps.d, "anchor")
        ap, radius = _aprank.li_ap_in_model_set(cps, window, args.length, anchor)
    result = {
        "progression": _files.ap_to_dict(ap),
        "rank": _prog.ap_rank(ap),
        "length": ap.length,
    }
    if radius is not None:
        result["radius"] = _dual(radius)
    ok = args.rank_target in (None, result["rank"])
    if args.oracle:
        ball = _cps.Ball(anchor, radius * radius)
        sample = {p.coords for p in _cps.enumerate_model_set(cps, window, ball)}
        members = [tuple(p) in sample for p in _prog.ap_points(ap)]
        result["oracle"] = {"points_checked": len(members), "all_member": all(members)}
        ok = ok and all(members)
    return result, ok


def _cmd_vdw(args) -> tuple[dict, bool]:
    with open(args.colors) as fh:
        coloring = _files.parse_coloring(fh.read())
    grid = _vdw.find_mono_grid(coloring, args.depth)
    if grid is None:
        return {"grid": None}, False
    return {
        "grid": {"offsets": list(grid.offsets), "steps": list(grid.steps), "depth": grid.depth},
        "points": [list(p) for p in _vdw.grid_points(grid)],
    }, True


def _cmd_aprank(args) -> tuple[dict, bool]:
    expr = _files.load_expr(args.expr)
    # the sample first: a length that runs out of budget leaves the meter spent
    sample_rank = _aprank.sample_module_rank(expr)
    bracket = _aprank.aprank_bounds(expr, args.lengths)
    result = {
        "lower": bracket.lower,
        "upper": bracket.upper,
        "upper_tag": bracket.upper_tag,
        "tested_lengths": list(bracket.tested_lengths),
        "certificates": [
            {"length": n, "progression": _files.ap_to_dict(ap)} for n, ap in bracket.certificates
        ],
        "sample_module_rank": sample_rank,
    }
    return result, True


def _cmd_euclideanize(args) -> tuple[dict, bool]:
    expr = _files.load_expr(args.expr)
    try:
        refined, window, verification = _aprank.euclideanize(expr, Fraction(args.sample))
    except RankGapError as exc:
        return {"rank_gap": True, "independent_translate": exc.translate}, False
    result = {
        "multiplier": _aprank.refinement_multiplier(expr),
        "cps": _files.cps_to_dict(refined),
        "window": _files.window_to_dict(window),
        "verification": verification,
    }
    if args.out:
        result["files"] = {}
        for kind in ("cps", "window"):
            path = result["files"][kind] = f"{args.out}.{kind}.json"
            with open(path, "w") as fh:
                json.dump(result[kind], fh, sort_keys=True, indent=2)
    return result, True


def _cmd_example(args) -> tuple[dict, bool]:
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
    return {"kind": kind, kind: payload}, True


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apmeyer",
        description="Exact arithmetic progressions in cut-and-project and Meyer sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="enumerate a model set in a region")
    p.add_argument("--cps", required=True, help="builtin name or CPS JSON file")
    p.add_argument("--window", help="inline box like [0,1] or window JSON file")
    p.add_argument("--region", required=True, help="|x|<=r, |x-c|<=r, or [lo,hi]x...")
    p.add_argument("--out", help="also write a point-list file")
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
    p.set_defaults(fn=_cmd_find_ap)

    p = sub.add_parser("vdw", help="monochromatic grid search on a coloring file")
    p.add_argument("--colors", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.set_defaults(fn=_cmd_vdw)

    p = sub.add_parser("aprank", help="ap-rank bracket with certificates")
    p.add_argument("--expr", required=True)
    p.add_argument("--lengths", type=int, default=3, help="certify lengths 1..N")
    p.set_defaults(fn=_cmd_aprank)

    p = sub.add_parser("euclideanize", help="embed a structured Meyer set into a model set")
    p.add_argument("--expr", required=True)
    p.add_argument("--sample", type=int, default=20, help="verification sample half-width")
    p.add_argument("--out", help="prefix for .cps.json/.window.json output files")
    p.set_defaults(fn=_cmd_euclideanize)

    p = sub.add_parser("example", help="emit a builtin scheme or the rank-gap expression")
    p.add_argument("name", help="fibonacci | silver_mean | ammann_beenker | "
                                "integer_lattice(d) | rank_gap")
    p.add_argument("--cps", help="base scheme for rank_gap (default fibonacci)")
    p.add_argument("-n", type=int, default=1, help="independent translates for rank_gap")
    p.add_argument("--out", help="write the JSON payload to a file")
    p.set_defaults(fn=_cmd_example)

    for name in ("gen", "find-ap", "aprank", "euclideanize"):
        sub.choices[name].add_argument(
            "--budget", type=int, default=DEFAULT_BUDGET,
            help="work units for the whole command: enumeration nodes and candidates, "
                 "probes, progression points, tuples, pairs (default %(default)s)")
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
        with metered(getattr(args, "budget", DEFAULT_BUDGET)):
            result, ok = args.fn(args)
    except (ParseError, OSError, json.JSONDecodeError, ValueError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2
    except (NoMonoGrid, VerificationFailed) as exc:
        result, ok = {"error": str(exc)}, False
    except ApMeyerError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    report = {"command": args.command, "inputs": inputs, "result": result,
              "status": "ok" if ok else "fail"}
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
