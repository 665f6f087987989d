from fractions import Fraction
from itertools import product
from math import floor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apmeyer import aprank
from apmeyer.aprank import (
    COVER_CACHE_SIZE,
    ExprPoint,
    SymbolicTranslate,
    aprank_bounds,
    branch_decompose,
    covering_radius_certificate,
    euclideanize,
    expr_contains,
    independent_ratios,
    inscribe_box,
    li_ap_in_meyer,
    li_ap_in_model_set,
    make_translate,
    meyer_expr,
    mono_li_ap,
    rank_gap_example,
    sample_module_rank,
    shrink_window,
    verify_euclideanization,
)
from apmeyer.cps import (
    Ball,
    Box,
    ShiftedUnion,
    _dist_sq,
    _nearest_sq,
    builtin,
    enumerate_model_set,
    trivial_window,
)
from apmeyer.errors import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    NotInLattice,
    RankGapError,
    VerificationFailed,
)
from apmeyer.exact import QuadScalar, quad_bounds, sqrt_upper
from apmeyer.files import ap_to_dict
from apmeyer.progression import ap_points, ap_rank, verify_ap

F = Fraction
PHI = QuadScalar(F(1, 2), F(1, 2), 5)


def fib():
    return builtin("fibonacci")


UNIT = Box([F(0)], [F(1)])


# -- shrink_window ----------------------------------------------------------------

def test_shrink_unit_window_m1():
    u, v = shrink_window(UNIT, 1)
    assert (v.lo[0], v.hi[0]) == (F(-1, 4), F(1, 4))
    assert (u.lo[0], u.hi[0]) == (F(1, 4), F(3, 4))
    assert not u.lo_closed[0] and not v.lo_closed[0]


def test_shrink_unit_window_m2():
    u, v = shrink_window(UNIT, 2)
    assert (v.lo[0], v.hi[0]) == (F(-1, 8), F(1, 8))
    assert (u.lo[0], u.hi[0]) == (F(1, 4), F(3, 4))


def test_shrink_two_axis_window():
    w = Box([F(0), F(0)], [F(2), F(1)])
    u, v = shrink_window(w, 1)
    assert (u.lo[0], u.hi[0]) == (F(1, 2), F(3, 2))
    assert (u.lo[1], u.hi[1]) == (F(1, 4), F(3, 4))
    assert (v.lo[0], v.hi[0]) == (F(-1, 2), F(1, 2))
    assert (v.lo[1], v.hi[1]) == (F(-1, 4), F(1, 4))


def test_shrink_rejects_non_box():
    with pytest.raises(ValueError):
        shrink_window(Ball([F(0)], F(1)), 1)


@settings(max_examples=40)
@given(
    st.fractions(min_value=-3, max_value=3),
    st.fractions(min_value=F(1, 4), max_value=3),
    st.integers(min_value=1, max_value=8),
)
def test_shrink_containment_exact(lo, width, factor):
    w = Box([lo], [lo + width])
    u, v = shrink_window(w, factor)
    # U + factor * V stays inside W, endpoint arithmetic exact
    assert u.lo[0] + factor * v.lo[0] >= w.lo[0]
    assert u.hi[0] + factor * v.hi[0] <= w.hi[0]
    # 0 is interior to V
    assert v.contains((F(0),))


def test_inscribe_box_in_ball():
    b = inscribe_box(Ball([F(0), F(0)], F(1)))
    assert b.dim == 2
    # corners stay inside the closed ball
    corner_sq = b.hi[0] * b.hi[0] + b.hi[1] * b.hi[1]
    assert corner_sq <= 1


def test_inscribe_box_in_shifted_union():
    # the first part's box, moved by its shift
    w = ShiftedUnion([((F(1, 3),), Box([F(0)], [F(1, 2)])), ((F(5),), Ball([F(0)], F(2)))])
    b = inscribe_box(w)
    assert (b.lo, b.hi) == ((F(1, 3),), (F(5, 6),))
    assert b.lo_closed == b.hi_closed == (True,)


# -- covering radius certificate -----------------------------------------------

def test_covering_certificate_integer_lattice():
    il = builtin("integer_lattice(1)")
    r = covering_radius_certificate(il, trivial_window(), F(1, 10))
    assert r == F(1, 2) + F(1, 10)


def test_covering_certificate_fibonacci():
    u = Box([F(1, 4)], [F(3, 4)], (False,), (False,))
    r = covering_radius_certificate(fib(), u, F(1, 10))
    assert 0 < r <= 10


def _open_box(lo, hi):
    return Box(lo, hi, (False,) * len(lo), (False,) * len(hi))


@pytest.mark.parametrize("name, window, expected", [
    ("fibonacci", _open_box([F(1, 4)], [F(3, 4)]),
     F(58603765515754987740293, 23611832414348226068480)),
    ("fibonacci", _open_box([F(0)], [F(1)]),
     F(3273240426980810954913, 1475739525896764129280)),
    ("silver_mean", _open_box([F(-1, 2)], [F(1, 2)]),
     F(19902253425828768925849, 11805916207174113034240)),
    ("silver_mean", _open_box([F(0)], [F(1)]),
     F(8896388186976498293961, 2951479051793528258560)),
    ("integer_lattice(2)", trivial_window(), F(4333121537, 5368709120)),
    ("ammann_beenker", _open_box([F(-1, 2)] * 2, [F(1, 2)] * 2),
     F(13828509827834126749057, 5902958103587056517120)),
])
def test_covering_certificate_golden_values(name, window, expected):
    aprank._cover_radius.cache_clear()
    assert covering_radius_certificate(builtin(name), window, F(1, 10)) == expected


def _ring_search_cover(cps, window, resolution, span):
    """The covering certificate as first written, a float bucket grid with a
    ring search: (float nearest squared distance at each probe, certificate)."""
    d = cps.d
    pts = enumerate_model_set(cps, window, Box([-span] * d, [span] * d))
    if not pts:
        raise BudgetExceeded("no model-set point within the certificate span")
    coords = [tuple(float(x) for x in p.physical) for p in pts]
    buckets = {}
    for i, c in enumerate(coords):
        buckets.setdefault(tuple(floor(x) for x in c), []).append(i)

    def cells_at_radius(cell, radius):
        if radius == 0:
            return [cell]
        return [
            tuple(c + o for c, o in zip(cell, offs))
            for offs in product(range(-radius, radius + 1), repeat=d)
            if max(abs(o) for o in offs) == radius
        ]

    def nearest_sq(fp):
        cell = tuple(floor(x) for x in fp)
        best = None
        radius = 0
        while True:
            for cc in cells_at_radius(cell, radius):
                for i in buckets.get(cc, ()):
                    dd = sum((a - b) ** 2 for a, b in zip(fp, coords[i]))
                    if best is None or dd < best:
                        best = dd
            if best is not None and (radius - 1) >= best ** 0.5:
                return best
            radius += 1
            if radius > 4 * float(span):
                return best if best is not None else float("inf")

    steps = int(Fraction(span, 2) / resolution)
    minima = []
    worst, worst_probe = -1.0, None
    for ks in product(range(-steps, steps + 1), repeat=d):
        probe = tuple(k * resolution for k in ks)
        dd = nearest_sq(tuple(float(x) for x in probe))
        minima.append(dd)
        if dd > worst:
            worst, worst_probe = dd, probe
    margin = worst * 1e-6 + 1e-9
    fp = tuple(float(x) for x in worst_probe)
    exact_best = min(
        _dist_sq(worst_probe, p.physical) for p, c in zip(pts, coords)
        if sum((a - b) ** 2 for a, b in zip(fp, c)) <= worst + margin
    )
    return minima, sqrt_upper(quad_bounds(exact_best, bits=40)[1]) + resolution


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["fibonacci", "silver_mean"]),
    st.integers(-12, 12), st.integers(2, 12), st.booleans(), st.booleans(),
    st.sampled_from([F(4), F(8)]),
)
def test_covering_certificate_matches_ring_search_oracle(name, lo, width, lo_closed,
                                                         hi_closed, span):
    cps = builtin(name)
    window = Box([F(lo, 12)], [F(lo + width, 12)], (lo_closed,), (hi_closed,))
    resolution = F(1, 10)
    try:
        minima, expected = _ring_search_cover(cps, window, resolution, span)
    except BudgetExceeded:
        with pytest.raises(BudgetExceeded):
            covering_radius_certificate(cps, window, resolution, span)
        return
    pts = enumerate_model_set(cps, window, Box([-span], [span]))
    nearest = _nearest_sq([p.physical for p in pts])
    steps = int(span / 2 / resolution)
    assert [nearest((k * resolution,)) for k in range(-steps, steps + 1)] == minima
    aprank._cover_radius.cache_clear()
    assert covering_radius_certificate(cps, window, resolution, span) == expected


def test_covering_certificate_thin_window_errors():
    thin = Box([F(1, 1000)], [F(2, 1000)], (False,), (False,))
    with pytest.raises(BudgetExceeded):
        covering_radius_certificate(fib(), thin, F(1, 10), span=F(4))


def test_covering_certificate_budget_counts_walk_and_probes():
    # Z over [-2, 2]: one node and five candidates, then probes -1, 0 and 1;
    # every probe is a lattice point, so the bound is one resolution step
    il = builtin("integer_lattice(1)")
    aprank._cover_radius.cache_clear()
    with pytest.raises(BudgetExceeded):
        covering_radius_certificate(il, trivial_window(), F(1), span=F(2), budget=6 + 3 - 1)
    assert covering_radius_certificate(il, trivial_window(), F(1), span=F(2), budget=6 + 3) == 1
    # a cached certificate charges nothing
    assert covering_radius_certificate(il, trivial_window(), F(1), span=F(2), budget=0) == 1
    aprank._cover_radius.cache_clear()


def test_covering_cache_is_bounded_and_reused(monkeypatch):
    aprank._cover_radius.cache_clear()
    calls = []
    real = aprank.enumerate_model_set

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(aprank, "enumerate_model_set", counting)
    for k in range(COVER_CACHE_SIZE + 50):
        shift = F(k, 10 ** 5)
        window = Box([shift - 1], [shift + 1])
        covering_radius_certificate(fib(), window, F(1), span=F(2))
    assert len(calls) == COVER_CACHE_SIZE + 50
    assert aprank._cover_radius.cache_info().currsize == COVER_CACHE_SIZE
    # a fresh window object with a recently used key is served from the cache
    shift = F(COVER_CACHE_SIZE + 49, 10 ** 5)
    again = covering_radius_certificate(fib(), Box([shift - 1], [shift + 1]), F(1), span=F(2))
    assert len(calls) == COVER_CACHE_SIZE + 50
    assert 0 < again <= 3
    aprank._cover_radius.cache_clear()


# -- independent ratios -----------------------------------------------------------

def test_independent_ratios_fibonacci_quarter_window():
    v = Box([F(-1, 4)], [F(1, 4)], (False,), (False,))
    picks = independent_ratios(fib(), v)
    assert [p.coords for p in picks] == [(1, 2), (2, 3)]  # values 1+2phi, 2+3phi
    # both stars lie inside the window
    for p in picks:
        assert v.contains(p.internal)


def test_independent_ratios_eighth_window_matches_fixture():
    v = Box([F(-1, 8)], [F(1, 8)], (False,), (False,))
    picks = independent_ratios(fib(), v)
    assert [p.coords for p in picks] == [(3, 5), (5, 8)]


def test_independent_ratios_integer_lattice():
    il2 = builtin("integer_lattice(2)")
    picks = independent_ratios(il2, trivial_window())
    assert [p.coords for p in picks] == [(1, 0), (0, 1)]


# -- the main construction ---------------------------------------------------------

def test_li_ap_fixture_n1_y0():
    ap, radius = li_ap_in_model_set(fib(), UNIT, 1, [F(0)])
    assert ap.ratios == ((3, 5), (5, 8))
    assert ap_rank(ap) == 2
    s = fib()
    stars = [s.star(p).internal[0] for p in ap_points(ap)]
    assert all(UNIT.contains((x,)) for x in stars)
    # base is the exact nearest admissible point to the anchor
    assert ap.base == (0, -1)
    assert radius > 0


def test_li_ap_spec_fixture_progression():
    # the pinned fixture: base 1+phi, ratios 3+5phi and 5+8phi, N=1
    s = fib()
    base = (1, 1)
    ratios = [(3, 5), (5, 8)]
    pts = [base,
           tuple(b + r for b, r in zip(base, ratios[1])),
           tuple(b + r for b, r in zip(base, ratios[0])),
           (base[0] + ratios[0][0] + ratios[1][0], base[1] + ratios[0][1] + ratios[1][1])]
    stars = sorted(s.star(p).internal[0] for p in pts)
    expected = sorted([
        QuadScalar(F(3, 2), F(-1, 2), 5),    # (3 - sqrt5)/2
        QuadScalar(7, -3, 5),                # 7 - 3 sqrt5
        QuadScalar(F(21, 2), F(-9, 2), 5),   # (21 - 9 sqrt5)/2
        QuadScalar(16, -7, 5),               # 16 - 7 sqrt5
    ])
    assert stars == expected
    assert all(UNIT.contains((x,)) for x in stars)


def test_li_ap_length_zero():
    ap, _ = li_ap_in_model_set(fib(), UNIT, 0, [F(0)])
    assert len(ap_points(ap)) == 1
    assert UNIT.contains(fib().star(ap.base).internal)


def test_li_ap_integer_lattice_unit_ratios():
    il2 = builtin("integer_lattice(2)")
    ap, _ = li_ap_in_model_set(il2, None, 3, [F(0), F(0)])
    assert set(ap.ratios) == {(1, 0), (0, 1)}
    assert ap_rank(ap) == 2


def test_li_ap_far_anchor():
    ap, radius = li_ap_in_model_set(fib(), UNIT, 1, [F(100)])
    s = fib()
    ball = Ball([F(100)], radius * radius)
    for p in ap_points(ap):
        pt = s.star(p)
        assert UNIT.contains(pt.internal)
        assert ball.contains(pt.physical)


# -- monochromatic construction ------------------------------------------------------

def test_mono_li_ap_constant_coloring():
    ap = mono_li_ap(fib(), UNIT, 1, lambda z: 0)
    assert ap.length == 1 and ap_rank(ap) == 2


def test_mono_li_ap_parity_coloring():
    ap = mono_li_ap(fib(), UNIT, 1, lambda z: z[0] % 2)
    colors = {z[0] % 2 for z in ap_points(ap)}
    assert len(colors) == 1
    assert ap_rank(ap) == 2
    s = fib()
    for p in ap_points(ap):
        assert UNIT.contains(s.star(p).internal)


@pytest.mark.parametrize("scheme, window, coloring, expected", [
    ("fibonacci", UNIT, lambda z: z[0] % 2,
     {"base": ["0", "-1"], "ratios": [["26", "42"], ["42", "68"]]}),
    ("silver_mean", Box([F(0)], [F(3, 2)]), lambda z: (z[0] + z[1]) % 2,
     {"base": ["1", "0"], "ratios": [["10", "24"], ["7", "17"]]}),
])
def test_mono_li_ap_exact_output(scheme, window, coloring, expected):
    # pinned outputs: the grid search, the rebasing and the anchor choice
    # must not move the depth-2 progression
    ap = mono_li_ap(builtin(scheme), window, 2, coloring)
    assert ap_to_dict(ap) == {**expected, "length": 2, "coordinate_kind": "lattice"}


def test_mono_li_ap_rejects_partial_coloring():
    with pytest.raises(ValueError):
        mono_li_ap(fib(), UNIT, 1, lambda z: None)


def test_planar_ammann_beenker_constructions_at_the_default_budget():
    # the integer bounding boxes of these enumerations hold millions of
    # cells; the budget counts the few thousand nodes the walk visits
    ab = builtin("ammann_beenker")
    window = Box([F(-1)] * 2, [F(1)] * 2)

    def parity(z):
        return sum(z) % 2

    ap, radius = li_ap_in_model_set(ab, window, 2)
    ball = Ball([F(0)] * 2, radius * radius)
    assert ap.length == 2 and ap_rank(ap) == 4
    assert verify_ap(ap, lambda z: window.contains(ab.star(z).internal)
                     and ball.contains(ab.star(z).physical))
    mono = mono_li_ap(ab, window, 2, parity)
    assert mono.length == 2 and ap_rank(mono) == 4
    assert verify_ap(mono, lambda z: window.contains(ab.star(z).internal)
                     and parity(z) == parity(mono.base))


# -- Meyer expressions ---------------------------------------------------------------

def test_meyer_expr_membership_and_decompose():
    expr = meyer_expr(fib(), [(None, UNIT)])
    assert expr_contains(expr, ExprPoint((F(0), F(0))))
    assert expr_contains(expr, ExprPoint((F(1), F(1))))      # 1+phi
    assert not expr_contains(expr, ExprPoint((F(0), F(1))))  # phi: star outside
    assert branch_decompose(expr, ExprPoint((F(1), F(0)))) == 0


_RATIONAL = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(_RATIONAL, _RATIONAL),
    st.dictionaries(st.sampled_from(["s1", "s2", "s3"]), st.integers(-3, 3).filter(bool)),
    st.one_of(
        st.tuples(_RATIONAL, _RATIONAL).map(lambda ab: QuadScalar(ab[0], ab[1], 5)),
        st.sampled_from(["s1", "s2", "s4"]),
    ),
)
def test_expr_point_plus_then_minus_round_trips(coords, tags, spec):
    if isinstance(spec, str):
        t = SymbolicTranslate(spec, (0.0,))
    else:
        t = make_translate(fib(), [spec])
    p = ExprPoint(coords, tuple(sorted(tags.items())))
    assert p.plus(t).minus(t) == p
    assert p.minus(t).plus(t) == p
    bare = ExprPoint(coords)
    assert bare.plus(t).minus(t).tags == ()
    assert bare.plus(t).tags == (((t.tag, 1),) if t.symbolic else ())


def test_meyer_expr_rejects_translate_outside_span():
    with pytest.raises(NotInLattice):
        meyer_expr(fib(), [([QuadScalar(0, 1, 2)], UNIT)])


def test_li_ap_in_meyer_plain_equals_model_set():
    expr = meyer_expr(fib(), [(None, UNIT)])
    ap = li_ap_in_meyer(expr, 2)
    assert ap_rank(ap) == 2
    assert all(expr_contains(expr, p) for p in ap_points(ap))


def test_li_ap_in_meyer_rational_translate():
    half = Box([F(0)], [F(1, 2)])
    expr = meyer_expr(fib(), [([F(1, 3)], half)])
    ap = li_ap_in_meyer(expr, 1)
    for p in ap_points(ap):
        assert expr_contains(expr, p)
        # each point is 1/3 plus a lattice point
        assert (p.coords[0] - F(1, 3)).denominator == 1
        assert p.coords[1].denominator == 1


def test_li_ap_in_meyer_symbolic_second_branch():
    expr = meyer_expr(
        fib(),
        [(None, UNIT), (SymbolicTranslate("t", (1.7320508,)), UNIT)],
    )
    ap = li_ap_in_meyer(expr, 2)
    assert ap_rank(ap) == 2
    assert all(expr_contains(expr, p) for p in ap_points(ap))


def test_verify_ap_on_expr_certificate():
    expr = meyer_expr(fib(), [(None, UNIT)])
    ap = li_ap_in_meyer(expr, 1)
    assert verify_ap(ap, lambda p: expr_contains(expr, p))


def test_verify_ap_fails_against_shrunken_window():
    s = fib()
    ap, _ = li_ap_in_model_set(s, UNIT, 1, [F(0)])
    assert verify_ap(ap, lambda z: UNIT.contains(s.star(z).internal))
    shrunken = Box([F(0)], [F(1, 4)])
    assert not verify_ap(ap, lambda z: shrunken.contains(s.star(z).internal))


def test_no_li_ap_exceeds_scheme_rank_in_euclidean_expr_samples():
    # rank of any progression found in a sample of a fully Euclidean
    # expression is capped by d+m: rank 3 searches must come up empty
    from apmeyer.aprank import sample_points
    from apmeyer.progression import brute_force_li_ap

    half = Box([F(0)], [F(1, 2)])
    expr = meyer_expr(fib(), [([F(1, 3)], half)])
    pts = [p.coords for p in sample_points(expr, halfwidth=F(15))]
    assert brute_force_li_ap(pts, 3, 1) is None
    found = brute_force_li_ap(pts, 2, 1)
    if found is not None:
        assert ap_rank(found) == 2


# -- brackets, rank gap, euclideanization ----------------------------------------------

def test_aprank_bounds_fibonacci():
    expr = meyer_expr(fib(), [(None, UNIT)])
    bracket = aprank_bounds(expr, 3)
    assert (bracket.lower, bracket.upper) == (2, 2)
    assert bracket.upper_tag == "theorem-d-plus-m"
    assert bracket.tested_lengths == (1, 2, 3)
    assert [n for n, _ in bracket.certificates] == [1, 2, 3]
    for n, ap in bracket.certificates:
        assert ap.length == n and ap_rank(ap) == 2


def test_aprank_bounds_shares_one_meter_across_lengths():
    expr = meyer_expr(fib(), [(None, UNIT)])
    li_ap_in_meyer(expr, 1)
    li_ap_in_meyer(expr, 2)  # with both certificates cached, the costs are fixed
    lo, hi = 0, DEFAULT_BUDGET
    while lo < hi:  # the least budget under which length 2 succeeds alone
        mid = (lo + hi) // 2
        try:
            li_ap_in_meyer(expr, 2, budget=mid)
            hi = mid
        except BudgetExceeded:
            lo = mid + 1
    li_ap_in_meyer(expr, 1, budget=lo)
    assert aprank_bounds(expr, 2, budget=lo).tested_lengths == (1,)
    assert aprank_bounds(expr, 2).tested_lengths == (1, 2)


def test_aprank_bounds_integer_lattice():
    il2 = builtin("integer_lattice(2)")
    expr = meyer_expr(il2, [(None, trivial_window())])
    bracket = aprank_bounds(expr, 2)
    assert (bracket.lower, bracket.upper) == (2, 2)


def test_aprank_bounds_raw_sample():
    points = [(0,), (1,), (2,), (3,)]
    bracket = aprank_bounds(points, 2)
    assert bracket.upper_tag == "module-rank"
    assert (bracket.lower, bracket.upper) == (1, 1)
    for n, ap in bracket.certificates:
        assert set(ap_points(ap)) <= set(points)
    # bare scalars are 1-tuples; three points hold no rank-1 progression of length 3
    bracket = aprank_bounds([0, 1, 2], 3)
    assert (bracket.lower, bracket.upper) == (0, 1)
    assert bracket.certificates == () and bracket.tested_lengths == (1, 2, 3)


def test_rank_gap_example_ranks():
    assert sample_module_rank(rank_gap_example(fib(), 0)) == 2
    assert sample_module_rank(rank_gap_example(fib(), 1)) == 3
    assert sample_module_rank(rank_gap_example(fib(), 2)) == 4


def test_rank_gap_bracket_stays_at_two():
    expr = rank_gap_example(fib(), 1)
    bracket = aprank_bounds(expr, 2)
    assert (bracket.lower, bracket.upper) == (2, 2)


def test_euclideanize_plain_is_identity():
    expr = meyer_expr(fib(), [(None, UNIT)])
    cps2, w2, _ = euclideanize(expr)
    assert cps2.generators == fib().generators
    assert isinstance(w2, Box)
    assert (w2.lo[0], w2.hi[0]) == (F(0), F(1))


def test_euclideanize_one_third_translate():
    half = Box([F(0)], [F(1, 2)])
    expr = meyer_expr(fib(), [([F(1, 3)], half)])
    cps2, w2, returned = euclideanize(expr)
    assert cps2.generators[0][0] == F(1, 3)
    assert cps2.generators[1][0] == PHI / 3
    assert isinstance(w2, Box)
    assert (w2.lo[0], w2.hi[0]) == (F(1, 3), F(5, 6))
    report = verify_euclideanization(expr, cps2, w2)
    assert report["violations"] == 0 and report["points_checked"] >= 8
    assert returned == report


def test_euclideanized_model_set_is_strictly_larger():
    # the embedding is one-directional: 2/3 lies in the refined model set but
    # not in the original expression (2/3 - 1/3 = 1/3 is not a lattice point)
    half = Box([F(0)], [F(1, 2)])
    expr = meyer_expr(fib(), [([F(1, 3)], half)])
    cps2, w2, _ = euclideanize(expr)
    p = cps2.star((2, 0))
    assert p.physical[0] == F(2, 3)
    assert w2.contains(p.internal)
    assert not expr_contains(expr, ExprPoint((F(2, 3), F(0))))


def test_euclideanize_refuses_symbolic_translate():
    with pytest.raises(RankGapError):
        euclideanize(rank_gap_example(fib(), 1))


# -- verification failures ----------------------------------------------------------

def test_euclideanize_raises_on_a_corrupted_lift(monkeypatch):
    real = aprank.lift_translate
    monkeypatch.setattr(aprank, "lift_translate",
                        lambda cps, t: tuple(x + F(1, 3) for x in real(cps, t)))
    expr = meyer_expr(fib(), [([F(1, 3)], Box([F(0)], [F(1, 2)]))])
    with pytest.raises(VerificationFailed):
        euclideanize(expr)


def test_constructions_raise_when_the_rank_check_fails(monkeypatch):
    monkeypatch.setattr(aprank, "ap_rank", lambda ap: 0)
    with pytest.raises(VerificationFailed):
        li_ap_in_model_set(fib(), UNIT, 2)
    with pytest.raises(VerificationFailed):
        li_ap_in_meyer(meyer_expr(fib(), [(None, UNIT)]), 2)
    with pytest.raises(VerificationFailed):
        mono_li_ap(fib(), UNIT, 1, lambda z: 0)
