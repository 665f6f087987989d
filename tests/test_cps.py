from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apmeyer.cps import (
    DEFAULT_BUDGET,
    Ball,
    Box,
    CutProjectScheme,
    ShiftedUnion,
    _dist_sq,
    _interval_dot,
    _nearest_sq,
    _rational_range,
    builtin,
    delone_certificate,
    enumerate_model_set,
    lift_translate,
    meyer_certificate,
    rational_coords,
    refine_lattice,
    trivial_window,
    validate,
)
from apmeyer.errors import BudgetExceeded, NotInLattice, UnboundedRegion, metered
from apmeyer.exact import QuadScalar, quad_bounds, rank_over_Q, sqrt_upper

F = Fraction
PHI = QuadScalar(F(1, 2), F(1, 2), 5)
PHI_BAR = QuadScalar(F(1, 2), F(-1, 2), 5)


def fib():
    return builtin("fibonacci")


# -- integer-arithmetic oracle for the Fibonacci chain ------------------------
#
# z = (a, b) has value a + b*phi and star a + b*phi_bar.  With t = 2a + b:
#   star = (t - b*sqrt5)/2, value = (t + b*sqrt5)/2,
# so every membership question is a comparison u <=> b*sqrt5 on integers.

def _cmp_sqrt5(u: int, b: int) -> int:
    if b == 0:
        return (u > 0) - (u < 0)
    if u <= 0 and b > 0:
        return -1
    if u >= 0 and b < 0:
        return 1
    t = u * u - 5 * b * b
    s = (t > 0) - (t < 0)
    return s if u > 0 else -s


def fib_oracle_points(star_lo, star_hi, abs_value_max, box=60):
    """Brute-force Fibonacci model set over a fixed integer box."""
    out = []
    for a in range(-box, box + 1):
        for b in range(-box, box + 1):
            t = 2 * a + b
            if _cmp_sqrt5(t - 2 * star_lo, b) < 0:      # star >= lo
                continue
            if _cmp_sqrt5(t - 2 * star_hi, b) > 0:      # star <= hi
                continue
            if _cmp_sqrt5(t + 2 * abs_value_max, -b) < 0:   # value >= -max
                continue
            if _cmp_sqrt5(t - 2 * abs_value_max, -b) > 0:   # value <= max
                continue
            out.append((a, b))
    return sorted(out)


# -- builtins and validation ---------------------------------------------------

def test_fibonacci_validates():
    report = validate(fib())
    assert report.ok
    assert report.density == "proved"


def test_builtin_roster():
    silver = builtin("silver_mean")
    assert validate(silver).ok
    p = silver.star((0, 1))
    assert p.physical[0] == 1 + QuadScalar(0, 1, 2)
    assert p.internal[0] == 1 - QuadScalar(0, 1, 2)

    ab = builtin("ammann_beenker")
    assert (ab.d, ab.m, ab.D) == (2, 2, 2)
    assert validate(ab).ok

    il = builtin("integer_lattice(3)")
    assert (il.d, il.m) == (3, 0)
    assert validate(il).density == "vacuous"

    with pytest.raises(ValueError):
        builtin("penrose")


def test_validate_rejects_non_dense_scheme():
    # physical projection kills the second generator, internal image is Z
    bad = CutProjectScheme(
        1, 1, 5, [(QuadScalar(1), QuadScalar(0)), (QuadScalar(0), QuadScalar(1))]
    )
    report = validate(bad)
    assert report.lattice_invertible
    assert not report.projection_injective  # kernel contains (0, 1)
    assert report.density == "failed"


def test_scheme_rejects_foreign_radicand():
    r2 = QuadScalar(0, 1, 2)
    with pytest.raises(ValueError):
        CutProjectScheme(1, 1, 5, [(1, 1), (1 + r2, 1 - r2)])
    # under their own radicand the same generators lift as they should
    s = CutProjectScheme(1, 1, 2, [(1, 1), (1 + r2, 1 - r2)])
    assert lift_translate(s, [1 + r2]) == (1 - r2,)


def test_star_examples():
    s = fib()
    p = s.star((1, 0))
    assert p.physical[0] == 1 and p.internal[0] == 1
    z = s.star((0, 0))
    assert z.physical[0] == 0 and z.internal[0] == 0
    q = s.star((1, 1))
    assert q.physical[0] == 1 + PHI
    assert q.internal[0] == 1 + PHI_BAR


def test_star_is_additive():
    s = fib()
    for z1 in [(1, 0), (2, -3), (0, 5)]:
        for z2 in [(1, 1), (-4, 2)]:
            z = tuple(a + b for a, b in zip(z1, z2))
            assert s.star(z).physical[0] == s.star(z1).physical[0] + s.star(z2).physical[0]
            assert s.star(z).internal[0] == s.star(z1).internal[0] + s.star(z2).internal[0]


# -- enumeration ---------------------------------------------------------------

def test_enumerate_small_region_against_oracle():
    # |x| <= 3 contains FOUR points: -phi, 0, 1, 1+phi (the negative one is
    # easy to miss by hand: star(-phi) = (sqrt5-1)/2 lies in [0,1])
    pts = enumerate_model_set(fib(), Box([F(0)], [F(1)]), Ball([F(0)], F(9)))
    assert [p.coords for p in pts] == fib_oracle_points(0, 1, 3) == [
        (0, -1), (0, 0), (1, 0), (1, 1),
    ]
    values = {str(p.physical[0]) for p in pts}
    assert values == {"-1/2-1/2*sqrt(5)", "0", "1", "3/2+1/2*sqrt(5)"}


def test_enumerate_nonnegative_region_matches_spec_triple():
    pts = enumerate_model_set(fib(), Box([F(0)], [F(1)]), Box([F(0)], [F(3)]))
    assert [str(p.physical[0]) for p in pts] == ["0", "1", "3/2+1/2*sqrt(5)"]


def test_enumerate_sorted_lexicographically():
    pts = enumerate_model_set(fib(), Box([F(0)], [F(1)]), Ball([F(0)], F(900)))
    assert [p.coords for p in pts] == sorted(p.coords for p in pts)


def test_gap_structure_at_radius_30():
    # with window [0,1] the gaps are {1, phi, phi^2}: e.g. 2+2phi (star 3-sqrt5)
    # follows 1+phi at distance 1+phi, with nothing in between
    pts = enumerate_model_set(fib(), Box([F(0)], [F(1)]), Ball([F(0)], F(900)))
    assert [p.coords for p in pts] == fib_oracle_points(0, 1, 30)
    values = sorted(p.physical[0] for p in pts)
    gaps = {str(b - a) for a, b in zip(values, values[1:])}
    assert gaps == {"1", "1/2+1/2*sqrt(5)", "3/2+1/2*sqrt(5)"}  # {1, phi, phi^2}


def test_two_gap_window_gives_classical_chain():
    # the classical two-gap Fibonacci chain uses a window of length phi
    window = Box([F(-1)], [PHI - 1], (False,), (True,))
    pts = enumerate_model_set(fib(), window, Ball([F(0)], F(900)))
    values = sorted(p.physical[0] for p in pts)
    gaps = {str(b - a) for a, b in zip(values, values[1:])}
    assert gaps == {"1", "1/2+1/2*sqrt(5)"}  # {1, phi} exactly


def test_enumerate_rejects_unbounded_region():
    with pytest.raises(UnboundedRegion):
        enumerate_model_set(fib(), Box([F(0)], [F(1)]), None)


def test_enumerate_budget():
    with pytest.raises(BudgetExceeded):
        enumerate_model_set(fib(), Box([F(0)], [F(1)]), Ball([F(0)], F(10 ** 8)), budget=100)


def test_window_monotonicity():
    small = enumerate_model_set(fib(), Box([F(0)], [F(1, 2)]), Ball([F(0)], F(400)))
    large = enumerate_model_set(fib(), Box([F(0)], [F(1)]), Ball([F(0)], F(400)))
    assert set(p.coords for p in small) <= set(p.coords for p in large)


def test_open_versus_closed_window_boundary():
    closed = enumerate_model_set(fib(), Box([F(0)], [F(1)]), Box([F(0)], [F(2)]))
    opened = enumerate_model_set(
        fib(), Box([F(0)], [F(1)], (False,), (False,)), Box([F(0)], [F(2)])
    )
    # 0 and 1 have stars exactly on the boundary
    assert {p.coords for p in closed} - {p.coords for p in opened} == {(0, 0), (1, 0)}


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=-4, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=2, max_value=8),
)
def test_enumeration_equals_brute_force_filter(lo_num, width_num, radius):
    lo = F(lo_num, 4)
    hi = lo + F(width_num, 2)
    window = Box([lo], [hi])
    pts = enumerate_model_set(fib(), window, Ball([F(0)], F(radius * radius)))
    s = fib()
    expected = []
    for a in range(-3 * radius - 5, 3 * radius + 6):
        for b in range(-2 * radius - 5, 2 * radius + 6):
            p = s.star((a, b))
            if window.contains(p.internal) and Ball([F(0)], F(radius * radius)).contains(p.physical):
                expected.append((a, b))
    assert [p.coords for p in pts] == sorted(expected)


# -- slab enumeration against the bounding-box scan ------------------------------
#
# The oracle is the enumerator this library used before slab enumeration: scan
# every integer point of the bounding box and filter by exact membership.

def bounding_box(cps, window, region):
    """Integer coordinate ranges: region x window brackets under the inverse."""
    rlo, rhi = region.rational_bounds()
    wlo, whi = window.rational_bounds()
    los, his = rlo + wlo, rhi + whi
    ranges = []
    for row in cps.inverse_matrix():
        lo, hi = _interval_dot(row, los, his)
        ranges.append(range(lo.__ceil__(), hi.__floor__() + 1))
    return ranges


def box_and_filter(cps, window, region, budget=DEFAULT_BUDGET):
    ranges = []
    total = 1
    for r in bounding_box(cps, window, region):
        if not r:
            return []
        ranges.append(r)
        total *= len(r)
        if total > budget:
            raise BudgetExceeded(f"integer bounding box of size {total} exceeds budget {budget}")
    points = []
    for z in product(*ranges):
        p = cps.star(z)
        if region.contains(p.physical) and window.contains(p.internal):
            points.append(p)
    points.sort(key=lambda p: p.coords)
    return points


def _mixed_ammann_beenker():
    # generators mixed by a unimodular matrix whose last row is all ones, so
    # every constraint row has its last nonzero coefficient in the last column
    ab = builtin("ammann_beenker")
    g = ab.generators
    last = tuple(sum(col, QuadScalar(0)) for col in zip(*g))
    return CutProjectScheme(2, 2, 2, [g[0], g[1], g[2], last], density="proved",
                            name="ammann_beenker_mixed")


SLAB_SCHEMES = {
    "fibonacci": fib(),
    "silver_mean": builtin("silver_mean"),
    "ammann_beenker": builtin("ammann_beenker"),
    "ammann_beenker_mixed": _mixed_ammann_beenker(),
    "integer_lattice(2)": builtin("integer_lattice(2)"),
}

# half-width of the physical region per physical dimension
_REGION_HALF = {1: [F(3), F(6), F(10)], 2: [F(1), F(2), F(3)]}


@st.composite
def _scalar(draw, D):
    """a/2 + b/2*sqrt(D): endpoints that can coincide with stars of points."""
    return QuadScalar(F(draw(st.integers(-3, 3)), 2), F(draw(st.integers(-1, 1)), 2), D)


@st.composite
def _region(draw, d):
    center = [F(draw(st.integers(-4, 4)), 3) for _ in range(d)]
    half = draw(st.sampled_from(_REGION_HALF[d]))
    if draw(st.booleans()):
        return Box([c - half for c in center], [c + half for c in center])
    return Ball(center, half * half)


@st.composite
def _box_window(draw, m, D):
    lo = [draw(_scalar(D)) for _ in range(m)]
    widths = [F(draw(st.integers(1, 4)), 2) for _ in range(m)]
    flags = st.lists(st.booleans(), min_size=m, max_size=m)
    return Box(lo, [a + w for a, w in zip(lo, widths)], draw(flags), draw(flags))


@st.composite
def _window(draw, m, D):
    kind = draw(st.sampled_from(["box", "ball", "union"]))
    if kind == "box":
        return draw(_box_window(m, D))
    if kind == "ball":
        center = [draw(_scalar(D)) for _ in range(m)]
        return Ball(center, F(draw(st.integers(1, 8)), 4))
    parts = []
    for _ in range(2):
        shift = tuple(F(draw(st.integers(-4, 4)), 2) for _ in range(m))
        parts.append((shift, draw(_box_window(m, D))))
    return ShiftedUnion(parts)


@st.composite
def _slab_case(draw):
    name = draw(st.sampled_from(sorted(SLAB_SCHEMES)))
    cps = SLAB_SCHEMES[name]
    window = draw(_window(cps.m, cps.D)) if cps.m else trivial_window()
    return name, window, draw(_region(cps.d))


@settings(max_examples=60, deadline=None)
@given(_slab_case())
def test_slab_enumeration_equals_box_and_filter(case):
    name, window, region = case
    cps = SLAB_SCHEMES[name]
    got = enumerate_model_set(cps, window, region)
    want = box_and_filter(cps, window, region)
    assert [p.coords for p in got] == [p.coords for p in want]
    assert [p.physical for p in got] == [p.physical for p in want]
    assert [p.internal for p in got] == [p.internal for p in want]


def test_slab_enumeration_mixed_ammann_beenker_is_nonempty():
    # guards the differential test above against comparing empty lists only
    window = Box([F(-2), F(-2)], [F(2), F(2)])
    region = Box([F(-2), F(-2)], [F(2), F(2)])
    cps = SLAB_SCHEMES["ammann_beenker_mixed"]
    got = enumerate_model_set(cps, window, region)
    assert len(got) > 9
    assert [p.coords for p in got] == [p.coords for p in box_and_filter(cps, window, region)]


def _fib_walk_units(monkeypatch, window, region):
    """Nodes plus leaf candidates of the fibonacci walk, counted from outside.

    Both constraint rows of fibonacci end in column 1, so the root's range is
    the first bounding-box range: one root, one node per z_0 in that range,
    and one candidate per `star` call."""
    stars = []
    star = CutProjectScheme.star

    def counting(self, z):
        stars.append(z)
        return star(self, z)

    with monkeypatch.context() as patch:
        patch.setattr(CutProjectScheme, "star", counting)
        enumerate_model_set(fib(), window, region)
    return 1 + len(bounding_box(fib(), window, region)[0]) + len(stars)


def test_enumerate_budget_is_the_node_and_candidate_count(monkeypatch):
    window = Box([F(0)], [F(1)])
    region = Ball([F(1, 3)], F(400))
    units = _fib_walk_units(monkeypatch, window, region)
    assert units == 1 + 12 + 19
    pts = enumerate_model_set(fib(), window, region, budget=units)
    assert [p.coords for p in pts] == [p.coords for p in box_and_filter(fib(), window, region)]
    assert len(pts) == 19
    with pytest.raises(BudgetExceeded):
        enumerate_model_set(fib(), window, region, budget=units - 1)


def test_top_level_call_after_budget_exceeded_starts_a_fresh_meter():
    window = Box([F(0)], [F(1)])
    region = Ball([F(1, 3)], F(400))
    with pytest.raises(BudgetExceeded):
        enumerate_model_set(fib(), window, region, budget=31)
    assert len(enumerate_model_set(fib(), window, region, budget=32)) == 19
    with pytest.raises(BudgetExceeded):
        with metered(40):
            enumerate_model_set(fib(), window, region)
            enumerate_model_set(fib(), window, region)
    assert len(enumerate_model_set(fib(), window, region, budget=32)) == 19


def test_nested_public_call_charges_the_outer_meter():
    window = Box([F(0)], [F(1)])
    region = Ball([F(1, 3)], F(400))
    with metered(63):
        enumerate_model_set(fib(), window, region, budget=10 ** 6)
        with pytest.raises(BudgetExceeded):
            enumerate_model_set(fib(), window, region, budget=10 ** 6)
    with metered(64):
        enumerate_model_set(fib(), window, region, budget=32)
        enumerate_model_set(fib(), window, region, budget=1)


def test_trivial_window_degenerate_scheme():
    il = builtin("integer_lattice(1)")
    pts = enumerate_model_set(il, trivial_window(), Box([F(0)], [F(10)]))
    assert [p.coords for p in pts] == [(i,) for i in range(11)]


def test_ammann_beenker_enumeration_against_brute_force():
    ab = builtin("ammann_beenker")
    window = Box([F(-2), F(-2)], [F(2), F(2)])
    region = Box([F(-2), F(-2)], [F(2), F(2)])
    pts = enumerate_model_set(ab, window, region)
    expected = []
    for p in range(-4, 5):
        for q in range(-4, 5):
            for r in range(-4, 5):
                for s in range(-4, 5):
                    z = (p, q, r, s)
                    lp = ab.star(z)
                    if region.contains(lp.physical) and window.contains(lp.internal):
                        expected.append(z)
    assert [p.coords for p in pts] == sorted(expected)
    assert len(pts) > 9  # strictly denser than the integer sublattice alone


def test_silver_mean_enumeration():
    silver = builtin("silver_mean")
    pts = enumerate_model_set(silver, Box([F(0)], [F(1)]), Box([F(0)], [F(6)]))
    values = {str(p.physical[0]) for p in pts}
    # 2+sqrt2 has star 2-sqrt2 ~ 0.586 in [0,1]
    assert "2+1*sqrt(2)" in values and "0" in values


def test_certificates_in_two_dimensions():
    il2 = builtin("integer_lattice(2)")
    region = Box([F(0), F(0)], [F(4), F(4)])
    pts = enumerate_model_set(il2, trivial_window(), region)
    min_sq, max_gap = delone_certificate(pts, region, resolution=F(1, 4))
    assert min_sq == 1
    assert max_gap >= F(3, 2)  # 2 * (covering radius sqrt(2)/2) + resolution slack
    assert meyer_certificate([p.physical for p in pts[:8]]) == 1


# -- refinement and lifting ----------------------------------------------------

def test_refine_identity():
    s = fib()
    r = refine_lattice(s, 1)
    assert r.generators == s.generators


def test_refine_by_three():
    r = refine_lattice(fib(), 3)
    assert r.generators[0][0] == F(1, 3)
    assert r.generators[1][0] == PHI / 3
    # old (1,0) maps to new coords (3,0)
    assert r.star((3, 0)).physical[0] == 1


def test_refine_scaling_round_trip():
    s = fib()
    r = refine_lattice(s, 4)
    for z in [(1, 0), (0, 1), (3, -2)]:
        scaled = tuple(4 * c for c in z)
        assert r.star(scaled).physical == s.star(z).physical
        assert r.star(scaled).internal == s.star(z).internal


def test_refine_rejects_zero():
    with pytest.raises(ValueError):
        refine_lattice(fib(), 0)


def test_lift_translate_examples():
    s = fib()
    r3 = refine_lattice(s, 3)
    assert lift_translate(r3, [F(1, 3)]) == (QuadScalar(F(1, 3)),)
    assert lift_translate(s, [F(0)]) == (QuadScalar(0),)
    with pytest.raises(NotInLattice):
        lift_translate(s, [F(1, 3)])


def test_rational_coords_outside_span():
    # sqrt(2) is not in Q + Q*phi
    assert rational_coords(fib(), [QuadScalar(0, 1, 2)]) is None


# -- certificates ----------------------------------------------------------------

def test_delone_certificate_fibonacci():
    region = Ball([F(0)], F(900))
    pts = enumerate_model_set(fib(), Box([F(0)], [F(1)]), region)
    min_sq, max_gap = delone_certificate(pts, region)
    assert min_sq == 1
    assert F(26, 10) < max_gap < F(27, 10)  # largest gap is phi^2, bracketed upward


def test_delone_certificate_integer_lattice():
    il = builtin("integer_lattice(1)")
    region = Box([F(0)], [F(10)])
    pts = enumerate_model_set(il, trivial_window(), region)
    min_sq, max_gap = delone_certificate(pts, region)
    assert min_sq == 1 and max_gap == 1


def _delone_bound_oracle(points, region, resolution):
    """The covering half of `delone_certificate` for d >= 2 as it was first
    written: the exact distance from every grid sample to every point."""
    pts = [p.physical for p in points]
    lo, hi = region.rational_bounds()
    worst_sq = F(0)
    grids = [_rational_range(a, b, resolution) for a, b in zip(lo, hi)]
    for sample in product(*grids):
        nearest = None
        for p in pts:
            d2 = _dist_sq(sample, p)
            if nearest is None or d2 < nearest:
                nearest = d2
        nb = quad_bounds(nearest, bits=40)[1]
        if nb > worst_sq:
            worst_sq = nb
    return 2 * (sqrt_upper(worst_sq) + resolution)


def _stepping_range(lo, hi, step):
    """`_rational_range` as it was first written: step up from floor(lo/step)."""
    k = lo / step
    k0 = k.numerator // k.denominator
    out = []
    v = k0 * step
    while v <= hi:
        if v >= lo:
            out.append(v)
        v += step
    return out


_RANGE_END = st.fractions(min_value=-30, max_value=30, max_denominator=24)


@settings(max_examples=300, deadline=None)
@given(_RANGE_END, _RANGE_END, st.fractions(min_value=F(1, 20), max_value=5, max_denominator=20))
def test_rational_range_matches_the_stepping_oracle(lo, hi, step):
    assert _rational_range(lo, hi, step) == _stepping_range(lo, hi, step)
    # the covering certificate's probe axis: -steps..steps multiples of the step
    half = abs(hi)
    steps = int(half / step)
    assert _rational_range(-half, half, step) == [k * step for k in range(-steps, steps + 1)]


@pytest.mark.parametrize("name, window, side, resolution", [
    ("integer_lattice(2)", None, 4, F(1, 2)),
    ("ammann_beenker", Box([F(-1)] * 2, [F(1)] * 2), 5, F(1, 2)),
])
def test_delone_certificate_matches_all_points_oracle(name, window, side, resolution):
    region = Box([F(0), F(0)], [F(side), F(side)])
    pts = enumerate_model_set(builtin(name), window or trivial_window(), region)
    _, max_gap = delone_certificate(pts, region, resolution=resolution)
    assert max_gap == _delone_bound_oracle(pts, region, resolution)


_COORD = st.builds(
    lambda a, b: QuadScalar(F(a, 4), F(b, 4), 2), st.integers(-12, 12), st.integers(-8, 8)
)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=12),
       st.tuples(_COORD, _COORD))
def test_nearest_sweep_matches_brute_force(points, probe):
    nearest = _nearest_sq(points)
    fp = tuple(float(x) for x in probe)
    floats = [sum((a - float(b)) ** 2 for a, b in zip(fp, p)) for p in points]
    assert nearest(probe) == min(floats)
    assert nearest(probe, exact=True) == min(_dist_sq(probe, p) for p in points)


def test_delone_certificate_needs_two_points():
    with pytest.raises(ValueError):
        delone_certificate([(F(0),)], Box([F(0)], [F(1)]))


def test_uniform_discreteness_is_monotone_in_the_region():
    window = Box([F(0)], [F(1)])
    last = None
    for radius in (5, 10, 20, 30):
        region = Ball([F(0)], F(radius * radius))
        pts = enumerate_model_set(fib(), window, region)
        min_sq, _ = delone_certificate(pts, region)
        if last is not None:
            assert min_sq <= last
        last = min_sq
    assert last == 1


def test_meyer_certificate_examples():
    assert meyer_certificate([(F(0),), (F(1),), (F(2),)]) == 1
    got = meyer_certificate([(QuadScalar(0),), (QuadScalar(1),), (1 + PHI,)])
    assert got == 2 - PHI  # (phi - 1)^2
    pts = enumerate_model_set(fib(), Box([F(0)], [F(1)]), Ball([F(0)], F(900)))
    assert meyer_certificate(pts).sign() > 0
    with pytest.raises(ValueError):
        meyer_certificate([(F(0),)])


def test_meyer_certificate_budget_counts_differences_and_pairs():
    # 3 * 2 differences, all 6 distinct, then 6 * 6 pairs in the scan
    pts = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1))]
    assert meyer_certificate(pts, budget=6 + 36) == 1
    with pytest.raises(BudgetExceeded):
        meyer_certificate(pts, budget=6 + 35)


# -- module generation (rank of the sampled point module) -----------------------

def test_sampled_module_has_full_rank():
    pts = enumerate_model_set(fib(), Box([F(0)], [F(1)]), Ball([F(0)], F(400)))
    assert rank_over_Q([p.coords for p in pts]) == 2


def test_shifted_union_window():
    w = ShiftedUnion([
        ((F(0),), Box([F(0)], [F(1, 2)])),
        ((F(2),), Box([F(0)], [F(1, 2)])),
    ])
    assert w.contains((F(1, 4),))
    assert w.contains((F(9, 4),))
    assert not w.contains((F(1),))
    collapsed = ShiftedUnion([((F(1, 3),), Box([F(0)], [F(1, 2)]))]).simplify()
    assert isinstance(collapsed, Box)
    assert collapsed.lo[0] == F(1, 3) and collapsed.hi[0] == F(5, 6)
