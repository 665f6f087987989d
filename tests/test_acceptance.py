"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Every tolerance is exact (integer/rational/quadratic-field comparisons); no
floating point enters any assertion.  Two criteria pin facts that are easy to
misstate, so they assert the exact statement that holds for their fixtures:

  * criterion 1, gap clause: the window [0,1] is shorter than phi, so the
    model set has the three gap lengths {1, phi, phi^2} (e.g. 2+2*phi follows
    1+phi at distance phi^2).  The expected gap set is derived from the
    pure-integer oracle's points and must equal apmeyer's exactly;
  * criterion 9, converse clause: euclideanization embeds the expression into
    a strictly larger model set (2/3 is in the refined model set but
    2/3 - 1/3 = 1/3 is not a lattice point).  The converse holds on the coset
    of the translate: the refined points with coordinates congruent to (1, 0)
    mod 3 are exactly the expression's points, and no other refined point is.
"""

import time
from fractions import Fraction
from functools import cmp_to_key
from itertools import product

from apmeyer.aprank import (
    ExprPoint,
    aprank_bounds,
    euclideanize,
    expr_contains,
    li_ap_in_meyer,
    li_ap_in_model_set,
    meyer_expr,
    rank_gap_example,
    sample_module_rank,
)
from apmeyer.cps import (
    Ball,
    Box,
    builtin,
    delone_certificate,
    enumerate_model_set,
    lift_translate,
    trivial_window,
)
from apmeyer.errors import NoMonoGrid, RankGapError
from apmeyer.files import ap_to_dict
from apmeyer.exact import (
    QuadScalar,
    flatten_vector,
    module_contains,
    rank_over_Q,
    submodule_multiplier,
)
from apmeyer.progression import (
    ap_points,
    ap_rank,
    brute_force_li_ap,
    crt_coefficients,
    verify_ap,
)
from apmeyer.vdw import CubeColoring, find_mono_grid, grid_points, transfer_ap

F = Fraction
PHI = QuadScalar(F(1, 2), F(1, 2), 5)
UNIT = Box([F(0)], [F(1)])


def report(number, ok, detail, started):
    elapsed = time.time() - started
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number:2d}: {status} ({elapsed:.2f}s) {detail}")


# -- independent integer oracle for the Fibonacci chain ------------------------

def _cmp_sqrt5(u: int, b: int) -> int:
    """Sign of u - b*sqrt(5), pure integer arithmetic."""
    if b == 0:
        return (u > 0) - (u < 0)
    if u <= 0 and b > 0:
        return -1
    if u >= 0 and b < 0:
        return 1
    t = u * u - 5 * b * b
    s = (t > 0) - (t < 0)
    return s if u > 0 else -s


def fib_oracle(star_lo, star_hi, value_max, box=80):
    """Brute force over a fixed integer box; star in [lo,hi], |value| <= max."""
    out = []
    for a in range(-box, box + 1):
        for b in range(-box, box + 1):
            t = 2 * a + b
            if _cmp_sqrt5(t - 2 * star_lo, b) < 0:
                continue
            if _cmp_sqrt5(t - 2 * star_hi, b) > 0:
                continue
            if _cmp_sqrt5(t + 2 * value_max, -b) < 0:
                continue
            if _cmp_sqrt5(t - 2 * value_max, -b) > 0:
                continue
            out.append((a, b))
    return sorted(out)


def _fib_cmp(p, q):
    """Sign of (a + b*phi) - (a' + b'*phi) = (2da + db + db*sqrt(5))/2, in integers."""
    da, db = p[0] - q[0], p[1] - q[1]
    return _cmp_sqrt5(2 * da + db, -db)


def test_criterion_01_fibonacci_enumeration_exactness():
    t0 = time.time()
    fib = builtin("fibonacci")
    pts = enumerate_model_set(fib, UNIT, Ball([F(0)], F(900)))
    oracle = fib_oracle(0, 1, 30)
    assert [p.coords for p in pts] == oracle, "enumeration differs from the oracle"

    values = sorted(p.physical[0] for p in pts)
    gaps = {b - a for a, b in zip(values, values[1:])}
    min_sq, _ = delone_certificate(pts, Ball([F(0)], F(900)))
    assert min_sq == 1, "min squared gap must be exactly 1"

    # expected gaps from the oracle alone: consecutive coordinate differences
    # of its points sorted by value; (1,0), (0,1), (1,1) are 1, phi, phi^2
    chain = sorted(oracle, key=cmp_to_key(_fib_cmp))
    oracle_gaps = {(q[0] - p[0], q[1] - p[1]) for p, q in zip(chain, chain[1:])}
    assert oracle_gaps == {(1, 0), (0, 1), (1, 1)}, f"oracle gaps {oracle_gaps}"
    expected = {a + b * PHI for a, b in oracle_gaps}
    assert gaps == expected, (
        f"gap set {sorted(map(str, gaps))} != oracle's {sorted(map(str, expected))}")
    report(1, True,
           f"oracle point-for-point ({len(pts)} pts), min gap^2 = 1, "
           f"gap set = oracle's {{1, phi, phi^2}}", t0)


def test_criterion_02_module_generation():
    t0 = time.time()
    fib = builtin("fibonacci")
    pts = enumerate_model_set(fib, UNIT, Ball([F(0)], F(400)))
    rank = rank_over_Q([p.coords for p in pts])
    report(2, rank == 2, f"sampled module rank = {rank} = d+m", t0)
    assert rank == 2


def test_criterion_03_constructive_li_ap():
    t0 = time.time()
    fib = builtin("fibonacci")
    for y in (F(0), F(100), F(-77)):
        ap, radius = li_ap_in_model_set(fib, UNIT, 3, [y])
        assert ap_rank(ap) == 2
        pts = ap_points(ap)
        assert len(pts) == 16
        ball = Ball([y], radius * radius)
        assert verify_ap(
            ap,
            member=lambda z: UNIT.contains(fib.star(z).internal),
            region=ball,
            physical=lambda z: fib.star(z).physical,
        )
    # pinned fixture: base 1+phi, ratios 3+5phi and 5+8phi, length 1
    base, r1, r2 = (1, 1), (3, 5), (5, 8)
    pts = [base,
           tuple(a + b for a, b in zip(base, r1)),
           tuple(a + b for a, b in zip(base, r2)),
           tuple(a + b + c for a, b, c in zip(base, r1, r2))]
    stars = [fib.star(p).internal[0] for p in pts]
    expected = [
        QuadScalar(F(3, 2), F(-1, 2), 5),
        QuadScalar(7, -3, 5),
        QuadScalar(16, -7, 5),
        QuadScalar(F(21, 2), F(-9, 2), 5),
    ]
    assert sorted(stars) == sorted(expected)
    assert all(UNIT.contains((s,)) for s in stars)
    report(3, True, "N=3 at y in {0, 100, -77}: 16 exact points each, rank 2; "
                    "fixture stars verified", t0)


def test_criterion_04_rank_ceiling():
    t0 = time.time()
    fib = builtin("fibonacci")
    pts = enumerate_model_set(fib, UNIT, Ball([F(0)], F(900)))
    sample = [p.physical for p in pts]
    # none at N=1 already implies none for every N >= 1 (take the length-1
    # sub-progression); N=2 is checked as well
    assert brute_force_li_ap(sample, 3, 1) is None
    assert brute_force_li_ap(sample, 3, 2) is None
    diffs = [tuple(x - y for x, y in zip(p, q)) for p in sample for q in sample if p != q]
    rank = rank_over_Q([flatten_vector(d) for d in diffs])
    assert rank == 2
    report(4, True, f"no rank-3 progression in {len(sample)} points (N=1,2); "
                    f"difference-module rank = 2", t0)


def test_criterion_05_crt():
    t0 = time.time()
    c = crt_coefficients(2, 2)
    assert c.primes == (3, 5) and c.values == (10, 6)
    sums = [c1 * 10 + c2 * 6 for c1 in range(3) for c2 in range(3)]
    assert len(set(sums)) == 9
    for n in range(1, 4):
        for length in range(0, 5):
            cc = crt_coefficients(n, length)
            vals = [
                sum(ci * mi for ci, mi in zip(coeffs, cc.values))
                for coeffs in product(range(length + 1), repeat=n)
            ]
            assert len(set(vals)) == len(vals)
    report(5, True, "(2,2) -> (10,6); properness exhaustive for n<=3, N<=4", t0)


def test_criterion_06_van_der_waerden_engine():
    t0 = time.time()
    for mask in range(512):
        coloring = CubeColoring(8, 1, {(i,): (mask >> i) & 1 for i in range(9)})
        grid = find_mono_grid(coloring, 2)
        assert grid is not None, f"coloring {mask:09b} escaped"
        colors = {coloring.colors[p] for p in grid_points(grid)}
        assert len(colors) == 1
    blocked = CubeColoring(7, 1, {(i,): int(b) for i, b in enumerate("01100110")})
    assert find_mono_grid(blocked, 2) is None
    report(6, True, "all 512 colorings of {0..8} have a depth-2 grid; "
                    "01100110 on {0..7} has none", t0)


def test_criterion_07_submodule_multiplier():
    t0 = time.time()
    cases = [([[2, 0], [0, 3]], 6), ([[1, 1], [1, -1]], 2)]
    for rows, expected in cases:
        n = submodule_multiplier(rows)
        assert n == expected
        for i in range(len(rows[0])):
            unit = [n if j == i else 0 for j in range(len(rows[0]))]
            assert module_contains(rows, unit), f"{n}*e_{i} not in the module"
    report(7, True, "(2,0),(0,3) -> 6 and (1,1),(1,-1) -> 2, memberships exact", t0)


def test_criterion_08_rank_gap_example():
    t0 = time.time()
    expr = rank_gap_example(builtin("fibonacci"), 1)
    rank = sample_module_rank(expr)
    assert rank == 3
    bracket = aprank_bounds(expr, 3)
    assert (bracket.lower, bracket.upper) == (2, 2)
    assert [n for n, _ in bracket.certificates] == [1, 2, 3]
    for n, ap in bracket.certificates:
        assert ap.length == n and ap_rank(ap) == 2
        assert all(expr_contains(expr, p) for p in ap_points(ap))
    try:
        euclideanize(expr)
        refused = False
    except RankGapError:
        refused = True
    assert refused
    report(8, True, "sampled rank 3, bracket [2,2] with certificates N<=3, "
                    "euclideanization refused", t0)


def test_criterion_09_euclideanization():
    t0 = time.time()
    fib = builtin("fibonacci")
    expr = meyer_expr(fib, [([F(1, 3)], Box([F(0)], [F(1, 2)]))])
    cps2, w2, verification = euclideanize(expr)
    assert verification["violations"] == 0
    assert cps2.generators[0] == (QuadScalar(F(1, 3)), QuadScalar(F(1, 3)))
    assert cps2.generators[1] == (PHI / 3, QuadScalar(F(1, 2), F(-1, 2), 5) / 3)
    assert lift_translate(cps2, [F(1, 3)]) == (QuadScalar(F(1, 3)),)
    assert isinstance(w2, Box) and (w2.lo[0], w2.hi[0]) == (F(1, 3), F(5, 6))

    region = Ball([F(0)], F(400))
    # the base points z with z + 1/3 in the region: both sides of the
    # converse below then cover the same physical region exactly
    base_pts = enumerate_model_set(fib, Box([F(0)], [F(1, 2)]), Ball([F(-1, 3)], F(400)))
    # forward: every expression point z + 1/3 lies in the refined model set
    image = set()
    for p in base_pts:
        coords = (3 * p.coords[0] + 1, 3 * p.coords[1])  # (z + 1/3) in thirds
        q = cps2.star(coords)
        assert region.contains(q.physical)
        assert w2.contains(q.internal)
        image.add(coords)
    assert image

    # converse: restricted to the coset 1/3 + L, i.e. refined coordinates
    # congruent to (1, 0) mod 3, the refined model set is exactly the expression
    refined_pts = enumerate_model_set(cps2, w2, region)
    in_coset = {p.coords for p in refined_pts
                if (p.coords[0] % 3, p.coords[1] % 3) == (1, 0)}
    in_expr = {p.coords for p in refined_pts
               if expr_contains(expr, ExprPoint(tuple(F(c, 3) for c in p.coords)))}
    outside = {p.coords for p in refined_pts} - in_coset
    assert in_expr == in_coset, "expression points differ from the coset points"
    assert in_coset == image, "coset points differ from the forward image"
    assert outside and outside.isdisjoint(in_expr), "a point off the coset is in the expression"
    report(9, True, f"m=3, g=1/3, W'=[1/3,5/6]; forward containment "
                    f"({len(image)} pts) exact; the refined model set on the coset "
                    f"1/3 + L equals the expression, and its other "
                    f"{len(outside)} of {len(refined_pts)} points are not in it", t0)


def test_criterion_10_transfer_machinery():
    t0 = time.time()
    fib = builtin("fibonacci")
    t = (3, 5)  # translate 3+5*phi, star (11-5*sqrt5)/2 in (-1/4, 0)
    t_phys = fib.star(t).physical

    def in_window(z):
        return UNIT.contains(fib.star(z).internal)

    def decompose(z):
        first = in_window(z)
        second = in_window(tuple(a - b for a, b in zip(z, t)))
        if first and second:
            return (z[0] + z[1]) % 2  # adversarial on the overlap
        if first:
            return 0
        if second:
            return 1
        return None

    out = None
    n_prime = 2
    while n_prime <= 64:
        ap, _ = li_ap_in_model_set(fib, UNIT, n_prime, [F(0)])
        try:
            out = transfer_ap(ap, decompose, [(0, 0), t], 2)
            break
        except NoMonoGrid:
            n_prime *= 2
    assert out is not None, "iterative doubling never succeeded"
    assert out.length == 2 and ap_rank(out) == 2
    # pinned exact output: base -f + sum(l_j r_j), ratios k_j r_j
    assert n_prime == 4 and ap_to_dict(out) == {
        "base": ["-3", "-6"], "ratios": [["13", "21"], ["42", "68"]],
        "length": 2, "coordinate_kind": "lattice",
    }
    # output lies fully inside one branch: shifted back by the winning
    # translate, every point is in the base model set
    winners = [
        j for j, f in enumerate([(0, 0), t])
        if all(in_window(tuple(a + b for a, b in zip(p, f))) for p in ap_points(out))
    ]
    assert winners, "output not contained in any single branch"
    report(10, True, f"doubling reached N'={n_prime}; length-2 rank-2 output "
                     f"inside branch {winners[0]}", t0)


def test_criterion_11_lattice_baseline():
    t0 = time.time()
    il2 = builtin("integer_lattice(2)")
    expr = meyer_expr(il2, [(None, trivial_window())])
    for n in range(1, 6):
        ap = li_ap_in_meyer(expr, n)
        assert ap_rank(ap) == 2
        assert set(ap.ratios) == {(1, 0), (0, 1)}
        assert len(ap_points(ap)) == (n + 1) ** 2
    report(11, True, "integer_lattice(2): rank-2 progressions with unit ratios "
                     "for N <= 5", t0)
