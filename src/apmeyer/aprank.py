"""Window shrinking, maximal-rank li-progressions, ap-rank brackets, and
euclideanization of structured Meyer sets.

The central pipeline: shrink the window into U + M*V (exact Minkowski
containment on boxes), harvest d+m independent ratios from the model set of
V, certify a covering radius for the model set of U, drop a base point next
to the requested anchor, and verify every progression point by exact star
membership.  Heuristic sub-steps (the covering certificate) can only trigger
retries with a larger radius, never wrong output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm

from .cps import (
    Ball,
    Box,
    CutProjectScheme,
    ShiftedUnion,
    _dist_sq,
    _nearest_sq,
    _rational_range,
    enumerate_model_set,
    lift_translate,
    rational_coords,
    refine_lattice,
    scheme_window,
)
from .errors import BudgetExceeded, NotInLattice, RankGapError, charge, charged, metered, verify
from .exact import (
    IntEchelon,
    QuadScalar,
    as_quad,
    flatten_vector,
    quad_bounds,
    rank_over_Q,
    sqrt_lower,
    sqrt_upper,
)
from .progression import ArithmeticProgression, _as_point, ap_rank, brute_force_li_ap, verify_ap
from .vdw import mono_subprogression


def _verified(ap, member, rank):
    """`ap` after exact re-verification: every point satisfies `member` and
    the ratios have the given rank; raises `VerificationFailed` otherwise."""
    verify(verify_ap(ap, member),
           "progression point failed its exact membership check")
    verify(ap_rank(ap) == rank, "progression rank is below d+m")
    return ap


# ---------------------------------------------------------------------------
# structured Meyer expressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticeTranslate:
    """Translate inside the rational span of the physical generators."""

    coords: tuple[Fraction, ...]
    physical: tuple[QuadScalar, ...]
    symbolic = False  # a class attribute, not a field


@dataclass(frozen=True)
class SymbolicTranslate:
    """Fresh rationally-independent translate; the decimal embedding is
    display-only, rank bookkeeping treats the tag as a new basis element."""

    tag: str
    approx: tuple[float, ...]
    symbolic = True


@dataclass(frozen=True)
class Branch:
    translate: object
    window: object


class MeyerExpr:
    """Finite union of translated model sets over one scheme; each branch
    window goes through `scheme_window`, so a window of the wrong dimension
    is refused here."""

    def __init__(self, cps: CutProjectScheme, branches):
        branches = tuple(Branch(b.translate, scheme_window(cps, b.window)) for b in branches)
        if not branches:
            raise ValueError("a Meyer expression needs at least one branch")
        self.cps = cps
        self.branches = branches

    def tags(self) -> list[str]:
        return [b.translate.tag for b in self.branches if b.translate.symbolic]


def make_translate(cps: CutProjectScheme, spec) -> object:
    """Build a translate: None/zero vector -> zero, physical quad vector ->
    rational-in-lattice (solved exactly), SymbolicTranslate passes through."""
    if isinstance(spec, (LatticeTranslate, SymbolicTranslate)):
        return spec
    if spec is None:
        spec = (0,) * cps.d
    phys = tuple(as_quad(x) for x in spec)
    coords = rational_coords(cps, phys)
    if coords is None:
        raise NotInLattice(
            f"translate {tuple(map(str, phys))} is outside the rational span; "
            "use a SymbolicTranslate for independent translates"
        )
    return LatticeTranslate(tuple(coords), phys)


def meyer_expr(cps: CutProjectScheme, branch_specs) -> MeyerExpr:
    return MeyerExpr(cps, [Branch(make_translate(cps, t), w) for t, w in branch_specs])


@dataclass(frozen=True)
class ExprPoint:
    """Point of a Meyer expression: rational lattice coordinates plus exact
    multiples of symbolic tags."""

    coords: tuple[Fraction, ...]
    tags: tuple[tuple[str, int], ...] = ()

    def __add__(self, vec):
        if len(vec) != len(self.coords):
            raise ValueError("dimension mismatch")
        coords = tuple(c + Fraction(v) for c, v in zip(self.coords, vec))
        return ExprPoint(coords, self.tags)

    def plus(self, translate, times=1) -> "ExprPoint":
        """Add `times` copies of a branch translate: its coordinates for a
        lattice translate, `times` counts of its tag for a symbolic one."""
        if not translate.symbolic:
            coords = tuple(c + times * t for c, t in zip(self.coords, translate.coords))
            return ExprPoint(coords, self.tags)
        counts = dict(self.tags)
        counts[translate.tag] = counts.get(translate.tag, 0) + times
        return ExprPoint(self.coords, tuple(sorted((k, v) for k, v in counts.items() if v)))

    def minus(self, translate) -> "ExprPoint":
        """Subtract a branch translate: the inverse of `plus`."""
        return self.plus(translate, -1)

    @property
    def is_lattice(self) -> bool:
        return not self.tags and all(c.denominator == 1 for c in self.coords)

    def flatten(self, tag_order) -> tuple[Fraction, ...]:
        counts = dict(self.tags)
        return self.coords + tuple(Fraction(counts.get(t, 0)) for t in tag_order)


def expr_contains(expr: MeyerExpr, point: ExprPoint) -> bool:
    """Exact membership: some branch's translate pulls the point onto an
    integer lattice coordinate whose star lies in that branch's window."""
    return branch_decompose(expr, point) is not None


def branch_decompose(expr: MeyerExpr, point: ExprPoint):
    """Minimal branch index containing the point, or None."""
    for j, branch in enumerate(expr.branches):
        q = point.minus(branch.translate)
        if q.is_lattice and branch.window.contains(expr.cps.internal_of(map(int, q.coords))):
            return j
    return None


def sample_points(expr: MeyerExpr, halfwidth=Fraction(10)):
    """Deterministic finite sample: each branch enumerated over a centered box
    in its own frame, then translated."""
    region = Box([-halfwidth] * expr.cps.d, [halfwidth] * expr.cps.d)
    out = []
    for branch in expr.branches:
        pts = enumerate_model_set(expr.cps, branch.window, region)
        out += (ExprPoint(tuple(map(Fraction, p.coords))).plus(branch.translate) for p in pts)
    return out


def sample_module_rank(expr: MeyerExpr) -> int:
    """Rank of the Z-module generated by the sample of `sample_points` at its
    default half-width, with exact symbolic bookkeeping: lattice coordinates
    plus one axis per symbolic tag."""
    tag_order = expr.tags()
    with metered():
        pts = sample_points(expr)
    return rank_over_Q([p.flatten(tag_order) for p in pts])


# ---------------------------------------------------------------------------
# window shrinking
# ---------------------------------------------------------------------------

def shrink_window(window: Box, factor: int) -> tuple[Box, Box]:
    """Open boxes (U, V) with 0 interior to V and U + factor*V inside the window.

    V is the centered box with per-axis half-width width/(4*factor); U is the
    window shrunk by width/4 per side.  The Minkowski containment is verified
    exactly on the endpoints.
    """
    if not isinstance(window, Box):
        raise ValueError("shrink_window needs a box window; inscribe a box first")
    if factor < 1:
        raise ValueError("shrink factor must be a positive integer")
    u_lo, u_hi, v_lo, v_hi = [], [], [], []
    for a, b in zip(window.lo, window.hi):
        width = b - a
        quarter = width / 4
        vh = width / (4 * factor)
        u_lo.append(a + quarter)
        u_hi.append(b - quarter)
        v_lo.append(-vh)
        v_hi.append(vh)
    n = window.dim
    u = Box(u_lo, u_hi, (False,) * n, (False,) * n)
    v = Box(v_lo, v_hi, (False,) * n, (False,) * n)
    for ul, uh, vl, vh, wl, wh in zip(u_lo, u_hi, v_lo, v_hi, window.lo, window.hi):
        verify((ul + factor * vl - wl).sign() >= 0, "U + factor*V leaves the window")
        verify((wh - (uh + factor * vh)).sign() >= 0, "U + factor*V leaves the window")
    return u, v


def inscribe_box(window) -> Box:
    """Largest convenient axis box inside a window (used before shrinking)."""
    if isinstance(window, Box):
        return window
    if isinstance(window, Ball):
        m = window.dim
        h = sqrt_lower(window.radius_sq / m)
        return Box(
            [c - h for c in window.center],
            [c + h for c in window.center],
        )
    if isinstance(window, ShiftedUnion):
        shift, base = window.parts[0]
        return inscribe_box(base).translate(shift)
    raise ValueError(f"cannot inscribe a box in {window!r}")


# ---------------------------------------------------------------------------
# covering radius certificate
# ---------------------------------------------------------------------------

# Least-recently-used certificates kept per process; a key is (scheme, window,
# resolution, span).  An entry keeps the units its miss charged, and a hit
# charges them again, so a budget refuses the same calls cold or warm; a miss
# that raises is not cached.
COVER_CACHE_SIZE = 1024


@dataclass(frozen=True)
class _CoverJob:
    """Arguments of one covering certificate, hashed and compared by `key`."""

    key: tuple
    cps: object = field(compare=False)
    window: object = field(compare=False)
    resolution: Fraction = field(compare=False)
    span: Fraction = field(compare=False)


def covering_radius_certificate(cps, window, resolution=Fraction(1, 10),
                                span=Fraction(8)) -> Fraction:
    """Empirical covering radius bound for the model set of `window`.

    Enumerates the model set over [-span, span]^d, probes a centered grid of
    the given resolution, and returns (worst nearest distance, bracketed
    upward) + one resolution step.  Not a proof: downstream constructions
    re-verify exactly and retry with a doubled radius on failure.  Results
    are cached in a bounded LRU cache of `COVER_CACHE_SIZE` entries.
    """
    window = scheme_window(cps, window)
    key = (cps.key(), window.key(), resolution, span)
    with metered():
        before = charged()
        radius, units = _cover_radius(_CoverJob(key, cps, window, resolution, span))
        charge(units - (charged() - before))  # 0 on a miss, which charged as it went
        return radius


@lru_cache(maxsize=COVER_CACHE_SIZE)
def _cover_radius(job: _CoverJob) -> tuple[Fraction, int]:
    """(certified radius, units charged to compute it)."""
    cps, window, resolution, span = job.cps, job.window, job.resolution, job.span
    before = charged()
    d = cps.d
    region = Box([-span] * d, [span] * d)
    pts = enumerate_model_set(cps, window, region)
    if not pts:
        raise BudgetExceeded("no model-set point within the certificate span; window too thin")
    nearest = _nearest_sq([p.physical for p in pts])
    half = Fraction(span, 2)
    axis = _rational_range(-half, half, resolution)
    charge(len(axis) ** d)
    worst_probe = max(product(axis, repeat=d), key=nearest)  # the first worst probe
    upper_sq = quad_bounds(nearest(worst_probe, exact=True), bits=40)[1]
    return sqrt_upper(upper_sq) + resolution, charged() - before


# ---------------------------------------------------------------------------
# independent ratios and the main construction
# ---------------------------------------------------------------------------

def _nearest_first(cps, window, center, rho, doublings, pick):
    """(pick(points), rho) for the first rho, doubled at most `doublings`
    times, at which `pick` accepts the model-set points of `window` in
    Ball(center, rho).  The points come nearest to `center` first, equal
    distances larger coordinates first; `pick` returns None to refuse."""
    for _ in range(doublings):
        pts = enumerate_model_set(cps, window, Ball(center, rho * rho))
        pts.sort(key=lambda p: (_dist_sq(p.physical, center), tuple(-c for c in p.coords)))
        found = pick(pts)
        if found is not None:
            return found, rho
        rho *= 2
    raise BudgetExceeded(f"no model-set point found within {doublings} radius doublings")


def independent_ratios(cps, window):
    """First d+m linearly independent model-set points of the given window,
    scanned by growing exact norm (positive representative preferred; the
    origin, dependent on anything, is never picked).

    Raises `ValueError` before any enumeration when the internal projection
    is not dense: then no d+m independent points with small star exist."""
    if cps.density == "failed":
        raise ValueError(f"{cps!r}: the internal projection of the lattice is not dense")
    target = cps.d + cps.m

    def pick(pts):
        ech = IntEchelon(target)
        picks = [p for p in pts if ech.rank < target and ech.insert(p.coords)]
        return picks if ech.rank == target else None

    with metered():
        return _nearest_first(cps, window, (Fraction(0),) * cps.d, Fraction(2), 32, pick)[0]


def li_ap_in_model_set(cps, window, length, anchor=None):
    """Linearly independent progression of rank d+m and the given length,
    inside the model set and inside B_R(anchor); returns (progression, R).

    The covering radius is certified at the default resolution of
    `covering_radius_certificate`.  Every point is verified by exact
    arithmetic before returning; heuristic radius estimates only cause
    retries."""
    if anchor is None:
        anchor = (Fraction(0),) * cps.d
    anchor = tuple(as_quad(x) for x in anchor)
    window = scheme_window(cps, window)
    factor = max(1, length * (cps.d + cps.m))
    u_win, v_win = shrink_window(inscribe_box(window), factor)
    with metered():
        ratios = independent_ratios(cps, v_win)
        rprime = covering_radius_certificate(cps, u_win)
        base, radius = _nearest_first(cps, u_win, anchor, rprime, 16,
                                      lambda pts: pts[0] if pts else None)
        for r in ratios:
            norm_up = quad_bounds(_dist_sq(r.physical, (0,) * cps.d), bits=40)[1]
            radius += length * sqrt_upper(norm_up)

        ap = ArithmeticProgression(base.coords, tuple(r.coords for r in ratios), length)
        radius_sq = radius * radius

        def member(z):
            pt = cps.star(z)
            return (window.contains(pt.internal)
                    and (_dist_sq(pt.physical, anchor) - radius_sq).sign() <= 0)

        return _verified(ap, member, cps.d + cps.m), radius


def mono_li_ap(cps, window, depth, coloring, anchor=None):
    """Monochromatic li-progression of rank d+m and length `depth`.

    `coloring` maps integer lattice coordinates (tuples) to hashable colors
    and must be total on every progression that `li_ap_in_model_set` builds
    at `anchor`; iterative deepening replaces any explicit van der Waerden
    bound."""
    window = scheme_window(cps, window)
    n = max(depth, 1)
    with metered():
        for _ in range(12):
            ap, _ = li_ap_in_model_set(cps, window, n, anchor)
            found = mono_subprogression(ap, coloring, depth)
            if found is not None:
                break
            n *= 2
        else:
            raise BudgetExceeded("monochromatic search exhausted its deepening budget")
        out, color = found

        def member(z):
            return coloring(z) == color and window.contains(cps.star(z).internal)

        return _verified(out, member, cps.d + cps.m)


# ---------------------------------------------------------------------------
# progressions in structured Meyer sets
# ---------------------------------------------------------------------------

def li_ap_in_meyer(expr: MeyerExpr, length, anchor=None):
    """Rank-(d+m) li-progression of the given length inside the expression,
    built in branch 1 by `li_ap_in_model_set` and translated; every point
    re-verified exactly."""
    cps = expr.cps
    branch = expr.branches[0]
    if anchor is None:
        anchor = (Fraction(0),) * cps.d
    anchor = tuple(as_quad(x) for x in anchor)
    t = branch.translate
    if t.symbolic:
        shifted_anchor = anchor  # nearness to the anchor is informative only
    else:
        shifted_anchor = tuple(a - tp for a, tp in zip(anchor, t.physical))
    with metered():
        ap0, _ = li_ap_in_model_set(cps, branch.window, length, shifted_anchor)
        base = ExprPoint(tuple(map(Fraction, ap0.base))).plus(t)
        out = ArithmeticProgression(base, ap0.ratios, length, kind="module")
        return _verified(out, lambda p: expr_contains(expr, p), cps.d + cps.m)


@dataclass(frozen=True)
class ApRankBracket:
    lower: int
    upper: int
    upper_tag: str  # "theorem-d-plus-m" | "module-rank"
    certificates: tuple
    tested_lengths: tuple[int, ...]

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError("bracket invariant lower <= upper violated")


def aprank_bounds(expr_or_points, n_max: int = 3) -> ApRankBracket:
    """Bracket the ap-rank.

    Structured expressions: lower = upper = d+m (maximal-rank progressions are
    constructed per length, anchored at the origin, as certificates; the
    upper bound is structural).
    Raw point samples: upper = rank of the sampled module, lower = largest k
    fully certified by the brute-force oracle at every tested length.
    All tested lengths share the run's meter; the first length that runs out
    of budget ends the bracket and leaves the meter spent for the rest of the run.
    """
    if isinstance(expr_or_points, MeyerExpr):
        expr = expr_or_points
        k = expr.cps.d + expr.cps.m
        certificates = []
        with metered():
            for n in range(1, n_max + 1):
                try:
                    certificates.append((n, li_ap_in_meyer(expr, n)))
                except BudgetExceeded:
                    break
        tested = tuple(n for n, _ in certificates)
        return ApRankBracket(k, k, "theorem-d-plus-m", tuple(certificates), tested)

    points = [_as_point(p) for p in expr_or_points]
    upper = rank_over_Q([flatten_vector(p) for p in points])
    tested = tuple(range(1, n_max + 1))
    with metered():
        for k in range(upper, 0, -1):
            certificates = []
            complete = True
            for n in tested:
                ap = brute_force_li_ap(points, k, n)
                if ap is None:
                    complete = False
                    break
                certificates.append((n, ap))
            if complete:
                return ApRankBracket(k, upper, "module-rank", tuple(certificates), tested)
    return ApRankBracket(0, upper, "module-rank", (), tested)


def rank_gap_example(cps: CutProjectScheme, n: int) -> MeyerExpr:
    """Model set of the window [0, 1]^m plus n symbolically independent
    translated copies: the sampled module rank exceeds the ap-rank by
    exactly n."""
    if n < 0:
        raise ValueError("need n >= 0")
    window = Box([Fraction(0)] * cps.m, [Fraction(1)] * cps.m)
    branches = [(None, window)]
    root3 = 3 ** 0.5
    for i in range(1, n + 1):
        branches.append(
            (SymbolicTranslate(f"s{i}", tuple(i * root3 for _ in range(cps.d))), window)
        )
    return meyer_expr(cps, branches)


# ---------------------------------------------------------------------------
# euclideanization
# ---------------------------------------------------------------------------

def euclideanize(expr: MeyerExpr, sample_halfwidth=Fraction(20)):
    """Embed a structured Meyer set into a fully Euclidean model set.

    Rational translates force a lattice refinement by the lcm of their
    coordinate denominators; each translate lifts uniquely into the refined
    lattice and shifts its branch window.  Any symbolic translate means the
    ap-rank is strictly below the rank and the embedding is refused.
    Containment of the sampled expression in the new model set is verified
    exactly before returning.  Returns (refined scheme, window, verification
    report); raises `VerificationFailed` on any violation.
    """
    mult = refinement_multiplier(expr)
    refined = refine_lattice(expr.cps, mult)
    parts = []
    for branch in expr.branches:
        g = lift_translate(refined, branch.translate.physical)
        parts.append((g, branch.window))
    window2 = ShiftedUnion(parts).simplify()
    with metered():
        report = verify_euclideanization(expr, refined, window2, sample_halfwidth)
    verify(report["violations"] == 0, "euclideanization verification failed")
    return refined, window2, report


def refinement_multiplier(expr: MeyerExpr) -> int:
    """lcm of the translate-coordinate denominators; 1 for plain model sets."""
    mult = 1
    for branch in expr.branches:
        if branch.translate.symbolic:
            raise RankGapError(branch.translate.tag)
        for c in branch.translate.coords:
            mult = lcm(mult, c.denominator)
    return mult


def verify_euclideanization(expr, refined, window2, halfwidth=Fraction(20)) -> dict:
    """Check that every sampled expression point lies in the refined model set.

    Refined coordinates are the original rational coordinates scaled by the
    refinement multiplier, so integrality and star membership are exact.
    """
    mult = refinement_multiplier(expr)
    pts = sample_points(expr, halfwidth)
    violations = 0
    for p in pts:
        coords = [c * mult for c in p.coords]
        if any(c.denominator != 1 for c in coords):
            violations += 1
            continue
        internal = refined.internal_of([int(c) for c in coords])
        if not window2.contains(internal):
            violations += 1
    return {
        "sample_halfwidth": str(halfwidth),
        "points_checked": len(pts),
        "violations": violations,
    }
