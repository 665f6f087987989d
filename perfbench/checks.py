"""Output checks, independent of apmeyer.

Every check returns a list of problems; an empty list means the output is
correct.  Literals `a`, `a/b` and `a+b*sqrt(D)` are parsed here and decided
with an integer sign test, so a fault in apmeyer's own exact arithmetic
cannot hide a wrong answer.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import product

_LITERAL_RE = re.compile(r"([+-]?\d+(?:/\d+)?)(?:([+-])(\d+(?:/\d+)?)\*sqrt\((\d+)\))?")


def parse_literal(text: str) -> tuple[Fraction, Fraction, int]:
    """(a, b, D) with value a + b*sqrt(D); rationals have b = 0, D = 0."""
    m = _LITERAL_RE.fullmatch(text)
    if m is None:
        raise ValueError(f"not an exact literal: {text!r}")
    a, sign, b, d = m.groups()
    if b is None:
        return Fraction(a), Fraction(0), 0
    b = Fraction(b)
    return Fraction(a), (-b if sign == "-" else b), int(d)


def sign(a: Fraction, b: Fraction, d: int) -> int:
    """Sign of a + b*sqrt(d) for rational a, b and positive d, on integers."""
    # scaled by the positive a.denominator * b.denominator: p + q*sqrt(d)
    p = a.numerator * b.denominator
    q = b.numerator * a.denominator
    sp = (p > 0) - (p < 0)
    sq = (q > 0) - (q < 0)
    if sq == 0 or d == 0:
        return sp
    if sp == 0 or sp == sq:
        return sq
    t = p * p - q * q * d  # opposite signs: compare |p| with |q|*sqrt(d)
    return sp * ((t > 0) - (t < 0))


def in_interval(text: str, lo: Fraction, hi: Fraction) -> bool:
    a, b, d = parse_literal(text)
    return sign(a - lo, b, d) >= 0 and sign(hi - a, -b, d) >= 0


def rank(vectors) -> int:
    """Rank over Q of rational vectors by Gaussian elimination."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    r = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][c] / rows[r][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def _lattice_ap_points(ap: dict) -> tuple[list[list[int]], list[tuple[int, ...]]]:
    """Ratios and all points of a progression in integer lattice coordinates."""
    base = [int(x) for x in ap["base"]]
    ratios = [[int(x) for x in r] for r in ap["ratios"]]
    points = []
    for coeffs in product(range(ap["length"] + 1), repeat=len(ratios)):
        p = list(base)
        for c, r in zip(coeffs, ratios):
            p = [x + c * y for x, y in zip(p, r)]
        points.append(tuple(p))
    return ratios, points


# ---------------------------------------------------------------------------
# per-command checks
# ---------------------------------------------------------------------------

def _status(code, report, want_code, want_status) -> list[str]:
    problems = []
    if code != want_code:
        problems.append(f"exit code {code}, expected {want_code}")
    if report is None:
        problems.append("no JSON report")
    elif report.get("status") != want_status:
        problems.append(f"status {report.get('status')!r}, expected {want_status!r}")
    return problems


def check_gen(code, report, spec) -> list[str]:
    problems = _status(code, report, 0, "ok")
    if problems:
        return problems
    result = report["result"]
    points = result["points"]
    if result["count"] != len(points):
        problems.append(f"count {result['count']} but {len(points)} points listed")
    kind = spec["region"][0]
    for p in points:
        phys = [x["exact"] for x in p["physical"]]
        internal = [x["exact"] for x in p["internal"]]
        if len(phys) != spec["d"] or len(internal) != spec["m"]:
            problems.append(f"point {p['coords']} has the wrong dimensions")
            continue
        if kind == "ball":
            # d = 1: |x - c| <= r is the interval [c - r, c + r]
            _, (c,), r = spec["region"]
            inside = in_interval(phys[0], c - r, c + r)
        else:
            inside = all(in_interval(x, lo, hi) for x, (lo, hi) in zip(phys, spec["region"][1]))
        if not inside:
            problems.append(f"point {p['coords']} lies outside the region")
        if not all(in_interval(x, lo, hi) for x, (lo, hi) in zip(internal, spec["window"])):
            problems.append(f"point {p['coords']} lies outside the window")
    return problems


def check_find_ap(code, report, spec) -> list[str]:
    problems = _status(code, report, 0, "ok")
    if problems:
        return problems
    result = report["result"]
    ap = result["progression"]
    if result["rank"] != spec["rank"] or rank(ap["ratios"]) != spec["rank"]:
        problems.append(f"rank {result['rank']}, expected {spec['rank']}")
    if result["length"] != spec["length"] or ap["length"] != spec["length"]:
        problems.append(f"length {result['length']}, expected {spec['length']}")
    if spec["oracle"]:
        oracle = result.get("oracle") or {}
        if oracle.get("all_member") is not True:
            problems.append("oracle all_member is not true")
        if oracle.get("points_checked") != (spec["length"] + 1) ** spec["rank"]:
            problems.append(f"oracle checked {oracle.get('points_checked')} points")
    return problems


def check_mono(ap: dict, spec) -> list[str]:
    problems = []
    ratios, points = _lattice_ap_points(ap)
    if ap["length"] != spec["depth"]:
        problems.append(f"length {ap['length']}, expected {spec['depth']}")
    if rank(ratios) != spec["rank"]:
        problems.append(f"rank {rank(ratios)}, expected {spec['rank']}")
    colours = {sum(a * z for a, z in zip(spec["coef"], p)) % spec["modulus"] for p in points}
    if len(colours) != 1:
        problems.append(f"progression has {len(colours)} colours")
    return problems


def check_aprank(code, report, spec) -> list[str]:
    problems = _status(code, report, 0, "ok")
    if problems:
        return problems
    result = report["result"]
    if not result["lower"] == result["upper"] == spec["rank"]:
        problems.append(f"bracket [{result['lower']}, {result['upper']}], expected {spec['rank']}")
    if result["tested_lengths"] != list(range(1, spec["lengths"] + 1)):
        problems.append(f"tested lengths {result['tested_lengths']}")
    return problems


def check_euclideanize(code, report, spec) -> list[str]:
    if spec["rank_gap"]:
        problems = _status(code, report, 1, "fail")
        if not problems and report["result"].get("rank_gap") is not True:
            problems.append("rank_gap is not true")
        return problems
    problems = _status(code, report, 0, "ok")
    if problems:
        return problems
    verification = report["result"]["verification"]
    if verification["violations"] != 0:
        problems.append(f"{verification['violations']} violations")
    if verification["points_checked"] < 1:
        problems.append("no sample point checked")
    return problems


CLI_CHECKS = {
    "gen": check_gen,
    "find-ap": check_find_ap,
    "aprank": check_aprank,
    "euclideanize": check_euclideanize,
}
