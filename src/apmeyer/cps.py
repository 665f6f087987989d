"""Cut-and-project schemes over R^d x R^m with exact quadratic coordinates.

A scheme is a rank-(d+m) lattice given by generators whose physical part lives
in R^d and internal part in R^m, all coordinates in Q(sqrt(D)).  Everything
here is exact, and every membership decision is an exact sign computation.

Model-set enumeration is slab enumeration over the polytope region x window,
in the spirit of Fincke-Pohst.  The integer coordinates z are fixed one at a
time, in order, while the exact partial sums G.z of the fixed prefix are
carried along.  A coordinate's admissible range is the integer bounding box
(the image of the outward rational brackets of region x window under the
exact inverse generator matrix), cut by the exact slab of every constraint
row whose generator coefficients vanish beyond that coordinate.  The slabs
are solved from the same outward rational brackets, so no point of the model
set is lost; the survivors are then decided by exact star membership.

The budget counts work, not box cells: one unit per node of the walk at any
level and per leaf candidate, per distance pair and per difference.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from math import ceil, floor

from .errors import DEFAULT_BUDGET, NotInLattice, UnboundedRegion, charge, metered
from .exact import (
    QuadScalar,
    as_quad,
    flatten_vector,
    quad_bounds,
    rank_over_Q,
    row_reduce,
    solve_columns,
    sqrt_upper,
)


# ---------------------------------------------------------------------------
# windows and regions
# ---------------------------------------------------------------------------

class Box:
    """Axis box with per-side open/closed flags; exact membership."""

    def __init__(self, lo, hi, lo_closed=None, hi_closed=None):
        self.lo = tuple(as_quad(x) for x in lo)
        self.hi = tuple(as_quad(x) for x in hi)
        n = len(self.lo)
        if len(self.hi) != n:
            raise ValueError("box bounds have mismatched dimensions")
        self.lo_closed = tuple(lo_closed) if lo_closed is not None else (True,) * n
        self.hi_closed = tuple(hi_closed) if hi_closed is not None else (True,) * n
        if len(self.lo_closed) != n or len(self.hi_closed) != n:
            raise ValueError("boundary flags have mismatched dimensions")
        for a, b in zip(self.lo, self.hi):
            if not (a < b):
                raise ValueError("box requires lo < hi exactly on every axis")

    @property
    def dim(self) -> int:
        return len(self.lo)

    def contains(self, point) -> bool:
        if len(point) != self.dim:
            raise ValueError("point dimension mismatch")
        for x, a, b, ac, bc in zip(point, self.lo, self.hi, self.lo_closed, self.hi_closed):
            x = as_quad(x)
            s = (x - a).sign()
            if s < 0 or (s == 0 and not ac):
                return False
            s = (b - x).sign()
            if s < 0 or (s == 0 and not bc):
                return False
        return True

    def rational_bounds(self) -> tuple[list[Fraction], list[Fraction]]:
        los = [quad_bounds(a)[0] for a in self.lo]
        his = [quad_bounds(b)[1] for b in self.hi]
        return los, his

    def translate(self, shift) -> "Box":
        shift = [as_quad(s) for s in shift]
        return Box(
            [a + s for a, s in zip(self.lo, shift)],
            [b + s for b, s in zip(self.hi, shift)],
            self.lo_closed,
            self.hi_closed,
        )

    def key(self):
        return ("box", self.lo, self.hi, self.lo_closed, self.hi_closed)

    def __repr__(self):
        axes = ", ".join(
            f"{'[' if ac else '('}{a}, {b}{']' if bc else ')'}"
            for a, b, ac, bc in zip(self.lo, self.hi, self.lo_closed, self.hi_closed)
        )
        return f"Box({axes})"


class Ball:
    """Closed ball with rational squared radius; exact membership."""

    def __init__(self, center, radius_sq):
        self.center = tuple(as_quad(x) for x in center)
        self.radius_sq = Fraction(radius_sq)
        if self.radius_sq <= 0:
            raise ValueError("ball requires radius_sq > 0")

    @property
    def dim(self) -> int:
        return len(self.center)

    def contains(self, point) -> bool:
        if len(point) != self.dim:
            raise ValueError("point dimension mismatch")
        return (_dist_sq(map(as_quad, point), self.center) - self.radius_sq).sign() <= 0

    def rational_bounds(self) -> tuple[list[Fraction], list[Fraction]]:
        r = sqrt_upper(self.radius_sq)
        los = [quad_bounds(c)[0] - r for c in self.center]
        his = [quad_bounds(c)[1] + r for c in self.center]
        return los, his

    def key(self):
        return ("ball", self.center, self.radius_sq)

    def __repr__(self):
        return f"Ball(center=({', '.join(map(str, self.center))}), radius_sq={self.radius_sq})"


class ShiftedUnion:
    """Finite union of translated windows; member iff member of some part."""

    def __init__(self, parts):
        parts = list(parts)
        if not parts:
            raise ValueError("ShiftedUnion requires at least one part")
        self.parts = tuple((tuple(as_quad(s) for s in shift), base) for shift, base in parts)
        dims = {len(shift) for shift, _ in self.parts} | {base.dim for _, base in self.parts}
        if len(dims) != 1:
            raise ValueError("ShiftedUnion parts have mismatched dimensions")

    @property
    def dim(self) -> int:
        return len(self.parts[0][0])

    def contains(self, point) -> bool:
        pt = [as_quad(x) for x in point]
        for shift, base in self.parts:
            if base.contains([x - s for x, s in zip(pt, shift)]):
                return True
        return False

    def rational_bounds(self) -> tuple[list[Fraction], list[Fraction]]:
        los = None
        his = None
        for shift, base in self.parts:
            blo, bhi = base.rational_bounds()
            slo = [quad_bounds(s)[0] for s in shift]
            shi = [quad_bounds(s)[1] for s in shift]
            plo = [a + b for a, b in zip(blo, slo)]
            phi = [a + b for a, b in zip(bhi, shi)]
            los = plo if los is None else [min(a, b) for a, b in zip(los, plo)]
            his = phi if his is None else [max(a, b) for a, b in zip(his, phi)]
        return los, his

    def simplify(self):
        """Collapse a single translated box to a plain Box."""
        if len(self.parts) == 1 and isinstance(self.parts[0][1], Box):
            shift, base = self.parts[0]
            return base.translate(shift)
        return self

    def key(self):
        return ("shifted_union", tuple((shift, base.key()) for shift, base in self.parts))

    def __repr__(self):
        return f"ShiftedUnion({len(self.parts)} parts)"


def trivial_window() -> Box:
    """The 0-dimensional window used by degenerate schemes with m = 0."""
    return Box((), ())


# ---------------------------------------------------------------------------
# schemes and lattice points
# ---------------------------------------------------------------------------

class LatticePoint:
    """Integer coordinates plus cached exact physical/internal parts.

    Equality and hashing are by integer coordinates; the cached parts are the
    exact generator combination for the owning scheme.
    """

    __slots__ = ("coords", "physical", "internal")

    def __init__(self, coords, physical, internal):
        self.coords = tuple(coords)
        self.physical = tuple(physical)
        self.internal = tuple(internal)

    def __eq__(self, other):
        return isinstance(other, LatticePoint) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"LatticePoint{self.coords}"


@dataclass(frozen=True)
class ValidationReport:
    lattice_invertible: bool
    projection_injective: bool
    density: str  # proved | assumed | unverified | failed | vacuous

    @property
    def ok(self) -> bool:
        return (
            self.lattice_invertible
            and self.projection_injective
            and self.density != "failed"
        )


class CutProjectScheme:
    """Lattice of rank d+m with physical part in R^d and internal part in R^m."""

    def __init__(self, d, m, D, generators, density="unverified", name=None):
        self.d = int(d)
        self.m = int(m)
        self.D = int(D)
        if self.d < 1 or self.m < 0:
            raise ValueError("require d >= 1 and m >= 0")
        gens = tuple(tuple(as_quad(x) for x in g) for g in generators)
        if len(gens) != self.d + self.m or any(len(g) != self.d + self.m for g in gens):
            raise ValueError("need d+m generators of full dimension d+m")
        if any(x.b and x.D != self.D for g in gens for x in g):
            raise ValueError(f"every irrational generator entry must use sqrt({self.D})")
        self.generators = gens
        self.density = density
        self.name = name
        self._inverse = None

    # -- basic maps --------------------------------------------------------

    def physical_part(self, gen) -> tuple[QuadScalar, ...]:
        return gen[: self.d]

    def _combine(self, coords, lo, hi) -> list[QuadScalar]:
        """Axes lo..hi-1 of the exact generator combination sum_j c_j g_j."""
        total = [QuadScalar(0)] * (hi - lo)
        for c, gen in zip(coords, self.generators):
            if c:
                for i, x in enumerate(gen[lo:hi]):
                    total[i] = total[i] + c * x
        return total

    def star(self, coords) -> LatticePoint:
        z = tuple(int(c) for c in coords)
        n = self.d + self.m
        if len(z) != n:
            raise ValueError("coordinate dimension mismatch")
        total = self._combine(z, 0, n)
        return LatticePoint(z, tuple(total[: self.d]), tuple(total[self.d:]))

    def internal_of(self, coords) -> tuple[QuadScalar, ...]:
        return tuple(self._combine(coords, self.d, self.d + self.m))

    # -- exact inverse of the generator matrix ------------------------------

    def inverse_matrix(self):
        """Rows map full coordinates back to integer coordinates: z = Ginv . x."""
        if self._inverse is not None:
            return self._inverse
        n = self.d + self.m
        # [G | I] with column j of G the generator j; reduced, it is [I | G^-1]
        rows = [
            [self.generators[j][i] for j in range(n)]
            + [QuadScalar(1 if i == j else 0) for j in range(n)]
            for i in range(n)
        ]
        if len(row_reduce(rows, n)) < n:
            raise ValueError("generators do not form a lattice (singular matrix)")
        self._inverse = [row[n:] for row in rows]
        return self._inverse

    def key(self):
        return (self.d, self.m, self.D, self.generators)

    def __repr__(self):
        label = self.name or f"{self.d}+{self.m}"
        return f"CutProjectScheme({label}, D={self.D})"


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _axis_is_dense(values) -> bool:
    # the group generated by quadratic reals is dense in R iff some ratio is
    # irrational, i.e. the (1, sqrt(D)) coefficient vectors have rank >= 2
    vecs = [flatten_vector([v]) for v in values if v]
    return rank_over_Q(vecs) >= 2


def validate(cps: CutProjectScheme) -> ValidationReport:
    """Exact lattice/injectivity checks plus a density status.

    Density of the internal projection is decided exactly for m <= 1; for
    m >= 2 a failed per-axis test refutes density, otherwise the declared
    status (proved for built-ins, assumed for user files) is reported.
    """
    try:
        cps.inverse_matrix()
        invertible = True
    except ValueError:
        invertible = False
    phys_rows = [flatten_vector(cps.physical_part(g)) for g in cps.generators]
    injective = rank_over_Q(phys_rows) == cps.d + cps.m
    if cps.m == 0:
        density = "vacuous"
    else:
        axis_dense = [
            _axis_is_dense([g[cps.d + i] for g in cps.generators]) for i in range(cps.m)
        ]
        if not all(axis_dense):
            density = "failed"
        elif cps.m == 1:
            density = "proved"
        elif cps.density in ("proved", "assumed"):
            density = cps.density
        else:
            density = "unverified"
    return ValidationReport(invertible, injective, density)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def _interval_dot(row, los, his):
    """Exact interval arithmetic for sum_j row[j] * [los[j], his[j]]."""
    lo = QuadScalar(0)
    hi = QuadScalar(0)
    for c, a, b in zip(row, los, his):
        if not c:
            continue
        if c.sign() > 0:
            lo = lo + c * a
            hi = hi + c * b
        else:
            lo = lo + c * b
            hi = hi + c * a
    return lo, hi


def enumerate_model_set(cps, window, region, budget=DEFAULT_BUDGET):
    """All lattice points with physical part in `region` and star in `window`.

    Slab enumeration, exhaustive by construction.  Every point satisfies
    los_i <= (G.z)_i <= his_i for each full-space coordinate i, where
    [los_i, his_i] are the outward rational brackets of region x window.
    The integer bounding box (those brackets under the exact inverse matrix,
    rounded outward) bounds every coordinate.  Coordinates are then fixed in
    order: at level k each row i whose last nonzero generator coefficient g
    sits in column k pins
    z_k to the exact ceil/floor of (los_i - s_i)/g and (his_i - s_i)/g, with
    s_i the exact partial sum of the fixed prefix.  Empty ranges are pruned,
    and each surviving z goes through `cps.star` and the exact
    `region.contains` / `window.contains`.  Output is in lexicographic order
    of the integer coordinates.  Each node (at any level) and each leaf
    candidate charges one unit of `budget` to the run (`errors.charge`).
    """
    if not isinstance(region, (Box, Ball)):
        raise UnboundedRegion(f"region must be a bounded box or ball, got {region!r}")
    if region.dim != cps.d:
        raise ValueError("region dimension must match the physical dimension")
    if window is None:
        window = trivial_window()
    if window.dim != cps.m:
        raise ValueError("window dimension must match the internal dimension")

    rlo, rhi = region.rational_bounds()
    wlo, whi = window.rational_bounds()
    los = rlo + wlo
    his = rhi + whi
    inv = cps.inverse_matrix()
    ranges = []
    for row in inv:
        lo, hi = _interval_dot(row, los, his)
        zlo = lo.__ceil__()
        zhi = hi.__floor__()
        if zhi < zlo:
            return []
        ranges.append((zlo, zhi))

    n = cps.d + cps.m
    columns = cps.generators
    # slabs[k]: (row, 1/g, first, second) for the rows whose last nonzero
    # coefficient g is in column k; z_k lies in [(first - s)/g, (second - s)/g]
    slabs = [[] for _ in range(n)]
    for i in range(n):
        k = max(j for j in range(n) if columns[j][i])
        g = columns[k][i]
        first, second = (los[i], his[i]) if g.sign() > 0 else (his[i], los[i])
        slabs[k].append((i, 1 / g, first, second))

    points = []

    def descend(k, prefix, sums, charge=charge):
        charge()
        zlo, zhi = ranges[k]
        for i, inv_g, first, second in slabs[k]:
            zlo = max(zlo, ceil((first - sums[i]) * inv_g))
            zhi = min(zhi, floor((second - sums[i]) * inv_g))
        if zhi < zlo:
            return
        if k == n - 1:
            charge(zhi - zlo + 1)
            for c in range(zlo, zhi + 1):
                p = cps.star(prefix + (c,))
                if region.contains(p.physical) and window.contains(p.internal):
                    points.append(p)
            return
        column = columns[k]
        sums = [s + zlo * x if x else s for s, x in zip(sums, column)]
        for c in range(zlo, zhi + 1):
            descend(k + 1, prefix + (c,), sums)
            sums = [s + x if x else s for s, x in zip(sums, column)]

    with metered(budget):
        descend(0, (), [QuadScalar(0)] * n)
    return points


# ---------------------------------------------------------------------------
# lattice refinement and translate lifting
# ---------------------------------------------------------------------------

def refine_lattice(cps: CutProjectScheme, n: int) -> CutProjectScheme:
    """Scheme with generators divided by n; the original lattice is a sublattice."""
    n = int(n)
    if n <= 0:
        raise ValueError("refinement factor must be a positive integer")
    gens = [tuple(x / n for x in g) for g in cps.generators]
    name = None if cps.name is None else f"{cps.name}/{n}"
    return CutProjectScheme(cps.d, cps.m, cps.D, gens, density=cps.density, name=name)


def rational_coords(cps: CutProjectScheme, t):
    """Rational coordinates of a physical vector in the generator basis, or None."""
    t = [as_quad(x) for x in t]
    if len(t) != cps.d:
        raise ValueError("translate dimension must match the physical dimension")
    for x in t:
        # a foreign radical can never lie in the span of 1 and sqrt(D)
        if x.b != 0 and x.D != cps.D:
            return None
    cols = [flatten_vector(cps.physical_part(g)) for g in cps.generators]
    target = flatten_vector(t)
    return solve_columns(cols, target)


def lift_translate(cps: CutProjectScheme, t):
    """Internal part of the unique lattice preimage of a physical vector."""
    coords = rational_coords(cps, t)
    if coords is None:
        raise NotInLattice(f"{tuple(map(str, t))} is not in the rational span of the lattice")
    if any(c.denominator != 1 for c in coords):
        raise NotInLattice(f"{tuple(map(str, t))} has non-integer lattice coordinates")
    return cps.internal_of([int(c) for c in coords])


# ---------------------------------------------------------------------------
# built-in schemes
# ---------------------------------------------------------------------------

def builtin(name: str) -> CutProjectScheme:
    """Standard example schemes: fibonacci, silver_mean, ammann_beenker, integer_lattice(d)."""
    name = name.strip()
    if name == "fibonacci":
        half = Fraction(1, 2)
        phi = QuadScalar(half, half, 5)
        phi_bar = QuadScalar(half, -half, 5)
        return CutProjectScheme(
            1, 1, 5,
            [(QuadScalar(1), QuadScalar(1)), (phi, phi_bar)],
            density="proved", name="fibonacci",
        )
    if name == "silver_mean":
        r2 = QuadScalar(0, 1, 2)
        return CutProjectScheme(
            1, 1, 2,
            [(QuadScalar(1), QuadScalar(1)), (1 + r2, 1 - r2)],
            density="proved", name="silver_mean",
        )
    if name == "ammann_beenker":
        one = QuadScalar(1)
        zero = QuadScalar(0)
        r2 = QuadScalar(0, 1, 2)
        gens = [
            (one, zero, one, zero),
            (r2, zero, -r2, zero),
            (zero, one, zero, one),
            (zero, r2, zero, -r2),
        ]
        return CutProjectScheme(2, 2, 2, gens, density="proved", name="ammann_beenker")
    if name.startswith("integer_lattice(") and name.endswith(")"):
        d = int(name[len("integer_lattice("):-1])
        if d < 1:
            raise ValueError("integer_lattice needs a positive dimension")
        gens = [
            tuple(QuadScalar(1 if i == j else 0) for i in range(d)) for j in range(d)
        ]
        return CutProjectScheme(d, 0, 5, gens, density="proved", name=f"integer_lattice({d})")
    raise ValueError(f"unknown builtin scheme {name!r}")


# ---------------------------------------------------------------------------
# Delone / Meyer certificates
# ---------------------------------------------------------------------------

def _as_physical_tuples(points):
    out = []
    for p in points:
        if isinstance(p, LatticePoint):
            out.append(p.physical)
        elif isinstance(p, (tuple, list)):
            out.append(tuple(as_quad(x) for x in p))
        else:
            out.append((as_quad(p),))
    return out


def _dist_sq(p, q) -> QuadScalar:
    total = QuadScalar(0)
    for x, y in zip(p, q):
        delta = x - y if y else x
        total = total + delta * delta
    return total


def _nearest_sq(points):
    """Nearest-point search over fixed exact points, by a sweep along axis 0.

    Returns `nearest(probe, exact=False)`.  A query bisects to the probe in
    the points sorted by first float coordinate and sweeps outward both ways;
    a direction stops once its first-axis gap alone, squared, exceeds the
    best float distance so far plus a margin.  So the sweep is exhaustive:
    it returns the least float squared distance, or with `exact` the least
    `_dist_sq` over the points whose float distance is within the margin of
    that least, a set that keeps the exact nearest point.
    """
    entries = sorted(
        ((tuple(float(x) for x in p), p) for p in points), key=lambda e: e[0][0]
    )
    firsts = [f[0] for f, _ in entries]

    def nearest(probe, exact=False):
        fp = tuple(float(x) for x in probe)
        best = limit = float("inf")
        near = []
        i = bisect_left(firsts, fp[0])
        for run in (range(i - 1, -1, -1), range(i, len(entries))):
            for j in run:
                f, p = entries[j]
                if (fp[0] - f[0]) ** 2 > limit:
                    break
                dd = sum((a - b) ** 2 for a, b in zip(fp, f))
                if dd <= limit:
                    near.append((dd, p))
                    if dd < best:
                        best = dd
                        limit = best + (best * 1e-6 + 1e-9)
        if not exact:
            return best
        return min(_dist_sq(probe, p) for dd, p in near if dd <= limit)

    return nearest


def _gaps(values):
    """Nonzero gaps between consecutive values in sorted order."""
    vals = sorted(values)
    return [gap for gap in (b - a for a, b in zip(vals, vals[1:])) if gap]


def _min_pairwise_dist_sq(pts):
    if len(pts) < 2:
        raise ValueError("need at least two points")
    if len(pts[0]) == 1:
        least = min(_gaps(p[0] for p in pts), default=None)
        best = None if least is None else least * least
    else:
        charge(len(pts) * len(pts))
        dists = (_dist_sq(p, q) for i, p in enumerate(pts) for q in pts[i + 1:])
        best = min((d2 for d2 in dists if d2), default=None)
    if best is None:
        raise ValueError("all points coincide")
    return best


def delone_certificate(points, region, resolution=Fraction(1, 8)):
    """(exact min squared gap, rational upper bound on the largest empty gap).

    The first component is authoritative and exact.  The second is a
    finite-sample covering bound: for d = 1 the exact largest consecutive gap
    (bracketed upward when irrational), for d >= 2 a grid certificate at the
    given resolution.
    """
    pts = _as_physical_tuples(points)
    if len(pts) < 2:
        raise ValueError("need at least two points for a Delone certificate")
    min_sq = _min_pairwise_dist_sq(pts)
    dim = len(pts[0])
    if dim == 1:
        max_bound = quad_bounds(max(_gaps(p[0] for p in pts)), bits=40)[1]
    else:
        lo, hi = region.rational_bounds()
        nearest = _nearest_sq(pts)
        grids = [_rational_range(a, b, resolution) for a, b in zip(lo, hi)]
        worst_sq = max(
            (quad_bounds(nearest(s, exact=True), bits=40)[1] for s in product(*grids)),
            default=Fraction(0),
        )
        max_bound = 2 * (sqrt_upper(worst_sq) + resolution)
    return min_sq, max_bound


def _rational_range(lo: Fraction, hi: Fraction, step: Fraction):
    """The multiples of `step` in [lo, hi], ascending."""
    return [k * step for k in range(ceil(lo / step), floor(hi / step) + 1)]


def meyer_certificate(points, budget=DEFAULT_BUDGET):
    """Exact min squared distance among distinct elements of the difference set.

    A finite-radius certificate of uniform discreteness of L - L only: it
    speaks for the sampled points, not for the infinite set.
    """
    pts = _as_physical_tuples(points)
    if len(pts) < 2:
        raise ValueError("need at least two points for a Meyer certificate")
    with metered(budget):
        charge(len(pts) * (len(pts) - 1))
        diffs = dict.fromkeys(tuple(x - y for x, y in zip(p, q)) for p, q in permutations(pts, 2))
        return _min_pairwise_dist_sq(list(diffs))
