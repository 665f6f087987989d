"""File formats and inline grammars.

CPS files, window files, Meyer-expression files and progression files are
JSON; point lists and cube colorings are line-oriented text.  All numbers are
exact literals (`<rat>` or `<rat>+<rat>*sqrt(<D>)`); decimals appear only as
informative extras.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import product

from .aprank import ExprPoint, MeyerExpr, SymbolicTranslate, meyer_expr
from .cps import Ball, Box, CutProjectScheme, ShiftedUnion, builtin
from .errors import NotInLattice, ParseError
from .exact import (
    as_quad,
    decimal_str,
    format_rational,
    parse_quad,
    parse_rational,
)
from .progression import ArithmeticProgression
from .vdw import CubeColoring


def quad_literal(x) -> str:
    return as_quad(x).as_literal()


def _object(data, what, *keys):
    """`data` if it is a JSON object holding `keys`, else `ParseError`."""
    if not isinstance(data, dict):
        raise ParseError(f"{what} must be a JSON object, not {type(data).__name__}")
    for key in keys:
        if key not in data:
            raise ParseError(f"{what} lacks {key!r}")
    return data


def _array(data, what, of=None):
    """`data` if it is a JSON array (of `of` values, when given), else `ParseError`."""
    if not isinstance(data, list):
        raise ParseError(f"{what} must be a JSON array, not {type(data).__name__}")
    return data if of is None else [_scalar(x, f"an entry of {what}", of) for x in data]


_JSON_NAMES = {bool: "boolean", int: "integer", str: "string"}


def _scalar(data, what, kind):
    """`data` if it is a JSON `kind` (a bool is not an int), else `ParseError`."""
    if type(data) is not kind:
        raise ParseError(f"{what} must be a JSON {_JSON_NAMES[kind]}, not {type(data).__name__}")
    return data


def _quads(data, what):
    """The exact literals of the JSON array `data`."""
    return [parse_quad(x) for x in _array(data, what)]


def parse_point(text, dim, what):
    """Comma-separated exact literals, one per axis; the origin for None."""
    if text is None:
        return (Fraction(0),) * dim
    point = tuple(parse_quad(p) for p in text.split(",") if p.strip())
    if len(point) != dim:
        raise ParseError(f"{what} has {len(point)} axes, expected {dim}")
    return point


# ---------------------------------------------------------------------------
# schemes
# ---------------------------------------------------------------------------

def cps_to_dict(cps: CutProjectScheme) -> dict:
    return {
        "d": cps.d,
        "m": cps.m,
        "D": cps.D,
        "generators": [[quad_literal(x) for x in g] for g in cps.generators],
        "density": cps.density,
    }


def cps_from_dict(data: dict) -> CutProjectScheme:
    """Scheme from `d`, `m`, `D` and `generators`.  A `density` key, which
    `cps_to_dict` writes, is ignored: the scheme derives its density."""
    _object(data, "scheme", "d", "m", "D", "generators")
    gens = [_quads(row, "generator") for row in _array(data["generators"], "scheme generators")]
    return CutProjectScheme(*(_scalar(data[k], f"scheme {k}", int) for k in "dmD"), gens)


def load_cps(spec: str) -> CutProjectScheme:
    """Builtin name or path to a CPS JSON file."""
    try:
        return builtin(spec)
    except ValueError:
        pass
    with open(spec) as fh:
        return cps_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------

def window_to_dict(window) -> dict:
    if isinstance(window, Box):
        return {
            "type": "box",
            "lo": [quad_literal(x) for x in window.lo],
            "hi": [quad_literal(x) for x in window.hi],
            "lo_closed": list(window.lo_closed),
            "hi_closed": list(window.hi_closed),
        }
    if isinstance(window, Ball):
        return {
            "type": "ball",
            "center": [quad_literal(x) for x in window.center],
            "radius_sq": format_rational(window.radius_sq),
        }
    if isinstance(window, ShiftedUnion):
        return {
            "type": "shifted_union",
            "parts": [
                {
                    "shift": [quad_literal(x) for x in shift],
                    "window": window_to_dict(base),
                }
                for shift, base in window.parts
            ],
        }
    raise TypeError(f"not a window: {window!r}")


def _flags(data, key):
    """Boundary flags `data[key]`, None when absent; else an array of booleans."""
    flags = data.get(key)
    return flags if flags is None else _array(flags, key, bool)


def window_from_dict(data: dict):
    kind = _object(data, "window").get("type")
    if kind == "box":
        _object(data, "box window", "lo", "hi")
        return Box(
            _quads(data["lo"], "box lo"),
            _quads(data["hi"], "box hi"),
            _flags(data, "lo_closed"),
            _flags(data, "hi_closed"),
        )
    if kind == "ball":
        _object(data, "ball window", "center", "radius_sq")
        return Ball(_quads(data["center"], "ball center"), parse_rational(data["radius_sq"]))
    if kind == "shifted_union":
        parts = _array(_object(data, "union window", "parts")["parts"], "window parts")
        return ShiftedUnion(
            [
                (_quads(part["shift"], "union shift"), window_from_dict(part["window"]))
                for part in (_object(p, "window part", "shift", "window") for p in parts)
            ]
        )
    raise ParseError(f"unknown window type {kind!r}")


_BOX_AXIS_RE = re.compile(r"\[([^,\]]+),([^,\]]+)\]")


def parse_box_inline(text: str) -> Box:
    """`[lo,hi]` per axis, axes joined with `x`; closed boxes."""
    t = text.strip()
    axes = _BOX_AXIS_RE.findall(t)
    cleaned = _BOX_AXIS_RE.sub("", t).replace("x", "").strip()
    if not axes or cleaned:
        raise ParseError(f"malformed box {text!r}")
    lo = [parse_quad(a) for a, _ in axes]
    hi = [parse_quad(b) for _, b in axes]
    return Box(lo, hi)


def parse_window_arg(text: str):
    """Inline box like `[0,1]x[0,2]`, or a path to a window JSON file."""
    t = text.strip()
    if t.startswith("["):
        return parse_box_inline(t)
    with open(t) as fh:
        return window_from_dict(json.load(fh))


_REGION_BALL_RE = re.compile(r"\|x(?:-\(?([^)|]+)\)?)?\|\s*<=\s*(.+)")


def parse_region(text: str, dim: int):
    """`|x|<=r`, `|x-c|<=r` (c a scalar or comma tuple), or a box."""
    t = text.strip()
    m = _REGION_BALL_RE.fullmatch(t)
    if m:
        center_text, radius_text = m.groups()
        radius = parse_rational(radius_text)
        if radius <= 0:
            raise ParseError("region radius must be positive")
        return Ball(parse_point(center_text, dim, "region center"), radius * radius)
    if t.startswith("["):
        box = parse_box_inline(t)
        if box.dim != dim:
            raise ParseError(f"region box has {box.dim} axes, expected {dim}")
        return box
    raise ParseError(f"malformed region {text!r}")


# ---------------------------------------------------------------------------
# Meyer expressions
# ---------------------------------------------------------------------------

def expr_to_dict(expr: MeyerExpr) -> dict:
    branches = []
    for branch in expr.branches:
        t = branch.translate
        if t.symbolic:
            translate = {"symbolic": t.tag, "approx": [repr(a) for a in t.approx]}
        else:
            translate = [quad_literal(x) for x in t.physical]
        branches.append({"translate": translate, "window": window_to_dict(branch.window)})
    return {"cps": cps_to_dict(expr.cps), "branches": branches}


def expr_from_dict(data: dict) -> MeyerExpr:
    cps_spec = _object(data, "expression", "cps", "branches")["cps"]
    cps = builtin(cps_spec) if isinstance(cps_spec, str) else cps_from_dict(cps_spec)
    specs = []
    for branch in _array(data["branches"], "expression branches"):
        t = _object(branch, "expression branch", "translate", "window")["translate"]
        if isinstance(t, dict):
            approx = tuple(map(float, _array(t.get("approx", []), "symbolic approx", str)))
            tag = _scalar(_object(t, "translate", "symbolic")["symbolic"], "symbolic tag", str)
            spec = SymbolicTranslate(tag, approx or (0.0,) * cps.d)
        else:
            spec = _quads(t, "translate")
        specs.append((spec, window_from_dict(branch["window"])))
    try:
        return meyer_expr(cps, specs)
    except NotInLattice as exc:  # a translate of the file, not an internal lift
        raise ParseError(str(exc)) from exc


def load_expr(path: str) -> MeyerExpr:
    with open(path) as fh:
        return expr_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# progressions, point lists, colorings
# ---------------------------------------------------------------------------

def ap_to_dict(ap: ArithmeticProgression) -> dict:
    if isinstance(ap.base, ExprPoint):
        base = {
            "coords": [format_rational(c) for c in ap.base.coords],
            "tags": {t: k for t, k in ap.base.tags},
        }
    else:
        base = [quad_literal(x) for x in ap.base]
    return {
        "base": base,
        "ratios": [[quad_literal(x) for x in r] for r in ap.ratios],
        "length": ap.length,
        "coordinate_kind": ap.kind,
    }


def ap_from_dict(data: dict) -> ArithmeticProgression:
    kind = data.get("coordinate_kind", "lattice")

    def point(values):
        qs = _quads(values, "progression point")
        if kind != "lattice":
            return tuple(qs)
        if any(q.b != 0 or q.a.denominator != 1 for q in qs):
            raise ParseError(f"lattice coordinates must be integers, got {values!r}")
        return tuple(int(q.a) for q in qs)

    base = data["base"]
    if isinstance(base, dict):
        tags = _object(base.get("tags", {}), "base tags")
        base = ExprPoint(
            tuple(parse_rational(c) for c in _array(base["coords"], "base coords")),
            tuple(sorted((t, _scalar(k, "tag count", int)) for t, k in tags.items())),
        )
    else:
        base = point(base)
    ratios = tuple(point(r) for r in _array(data["ratios"], "ratios"))
    return ArithmeticProgression(base, ratios, _scalar(data["length"], "length", int), kind=kind)


def format_point_lines(points) -> str:
    """One point per line: integer coords, a `#`, then informative decimals."""
    lines = []
    for p in points:
        cols = [str(c) for c in p.coords] + ["#"] + [decimal_str(x) for x in p.physical]
        lines.append("\t".join(cols))
    return "\n".join(lines) + ("\n" if lines else "")


def parse_vector_lines(text: str):
    """Rational/quad vectors, one per line, whitespace separated.

    A `#` token ends a line early, so point-list files (integer coordinates
    followed by informative decimals) parse as their coordinate vectors.
    """
    out = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        vec = []
        for tok in line.split():
            if tok == "#":
                break
            vec.append(parse_quad(tok))
        if vec:
            out.append(tuple(vec))
    return out


def format_coloring(coloring: CubeColoring) -> str:
    lines = [f"{coloring.cube_size} {coloring.dim} {coloring.num_colors}"]
    for c in product(range(coloring.cube_size + 1), repeat=coloring.dim):
        lines.append(" ".join(map(str, c + (coloring.colors[c],))))
    return "\n".join(lines) + "\n"


def parse_coloring(text: str) -> CubeColoring:
    lines = [ln for ln in (l.strip() for l in text.splitlines()) if ln]
    if not lines:
        raise ParseError("empty coloring file")
    header = lines[0].split()
    if len(header) != 3:
        raise ParseError("coloring header must be `N d r`")
    n, d, _ = map(int, header)
    colors = {}
    for ln in lines[1:]:
        nums = list(map(int, ln.split()))
        if len(nums) != d + 1:
            raise ParseError(f"coloring line must have {d} coordinates and a color: {ln!r}")
        colors[tuple(nums[:d])] = nums[d]
    return CubeColoring(n, d, colors)
