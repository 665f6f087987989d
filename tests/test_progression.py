from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apmeyer.cps import Ball, Box, builtin, enumerate_model_set
from apmeyer.errors import BudgetExceeded, metered
from apmeyer.exact import QuadScalar, flatten_vector, rank_over_Q
from apmeyer.progression import (
    ArithmeticProgression,
    ap_points,
    ap_rank,
    brute_force_li_ap,
    crt_coefficients,
    embed_rank1,
    is_li,
    is_proper,
    verify_ap,
)

F = Fraction


# -- CRT coefficients ---------------------------------------------------------

def test_crt_examples():
    c = crt_coefficients(1, 5)
    assert c.primes == (7,) and c.values == (1,)
    c = crt_coefficients(2, 2)
    assert c.primes == (3, 5) and c.values == (10, 6)
    c = crt_coefficients(3, 1)
    assert c.primes == (2, 3, 5) and c.values == (15, 10, 6)


def test_crt_congruences_and_minimality():
    for n, length in product(range(1, 4), range(0, 5)):
        c = crt_coefficients(n, length)
        modulus = 1
        for p in c.primes:
            assert p > length
            modulus *= p
        for i, (p, m) in enumerate(zip(c.primes, c.values)):
            assert 1 <= m <= modulus
            assert m % p == 1
            for j, q in enumerate(c.primes):
                if j != i:
                    assert m % q == 0


def test_crt_sums_pairwise_distinct_exhaustively():
    # all n <= 3, N <= 4
    for n in range(1, 4):
        for length in range(0, 5):
            c = crt_coefficients(n, length)
            sums = [
                sum(ci * mi for ci, mi in zip(coeffs, c.values))
                for coeffs in product(range(length + 1), repeat=n)
            ]
            assert len(set(sums)) == len(sums)


def test_crt_2_2_sums():
    c = crt_coefficients(2, 2)
    sums = sorted(
        c1 * c.values[0] + c2 * c.values[1] for c1 in range(3) for c2 in range(3)
    )
    assert sums == [0, 6, 10, 12, 16, 20, 22, 26, 32]


# -- points, properness, rank -------------------------------------------------

def test_ap_points_examples():
    ap = ArithmeticProgression((0,), ((1,),), 2)
    assert ap_points(ap) == [(0,), (1,), (2,)]
    ap = ArithmeticProgression((0,), ((10,), (6,)), 1)
    assert ap_points(ap) == [(0,), (6,), (10,), (16,)]
    ap = ArithmeticProgression((7,), ((3,),), 0)
    assert ap_points(ap) == [(7,)]


def test_ap_points_budget_guard():
    ap = ArithmeticProgression((0,), tuple(((i,),) for i in range(1, 8)), 9)
    with pytest.raises(BudgetExceeded), metered(10 ** 6):
        ap_points(ap)


def test_is_proper():
    assert is_proper(ArithmeticProgression((0,), ((10,), (6,)), 2))
    assert not is_proper(ArithmeticProgression((0,), ((1,), (1,)), 1))
    assert is_proper(ArithmeticProgression((0, 0), ((1, 0), (0, 1)), 3))


def test_ap_rank_examples():
    assert ap_rank(ArithmeticProgression((0,), ((10,), (6,)), 1)) == 1
    assert ap_rank(ArithmeticProgression((0, 0), ((3, 5), (5, 8)), 1)) == 2
    assert ap_rank(ArithmeticProgression((0,), ((4,),), 1)) == 1


def test_rank_bounded_by_dimension():
    ap = ArithmeticProgression((0,), ((10,), (6,)), 1)
    assert ap_rank(ap) <= ap.dimension
    assert not is_li(ap)
    li = ArithmeticProgression((0, 0), ((1, 0), (0, 1)), 1)
    assert is_li(li)


def test_quadratic_ratios_have_full_rank():
    phi = QuadScalar(F(1, 2), F(1, 2), 5)
    ap = ArithmeticProgression((QuadScalar(0),), ((QuadScalar(1),), (phi,)), 1)
    assert ap_rank(ap) == 2  # 1 and phi are Q-independent


# -- rank-1 embedding -----------------------------------------------------------

def test_embed_rank1_example():
    ap = embed_rank1((0, 1, 32), 2, 2)
    assert ap.ratios == ((10,), (6,))
    pts = [p[0] for p in ap_points(ap)]
    assert all(0 <= x <= 32 for x in pts)
    assert ap_rank(ap) == 1 and is_proper(ap)


def test_embed_rank1_line_itself():
    ap = embed_rank1((5, 3, 4), 1, 4)
    assert ap.ratios == ((3,),)
    assert ap_points(ap) == [(5,), (8,), (11,), (14,), (17,)]


def test_embed_rank1_rejects_short_line():
    with pytest.raises(ValueError):
        embed_rank1((0, 1, 31), 2, 2)  # needs N' >= 2*(10+6)


@settings(max_examples=30)
@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=-5, max_value=5),
    st.integers(min_value=1, max_value=4),
)
def test_embed_rank1_always_proper_rank1(n, length, s, r):
    coeffs = crt_coefficients(n, length)
    line_len = length * sum(coeffs.values)
    ap = embed_rank1((s, r, line_len), n, length)
    assert ap_rank(ap) == 1
    assert is_proper(ap)
    line = {(s + k * r,) for k in range(line_len + 1)}
    assert set(ap_points(ap)) <= line


# -- brute force oracle ---------------------------------------------------------

def test_brute_force_rank_starved_set():
    assert brute_force_li_ap([(0,), (1,), (2,)], 2, 1) is None


def test_brute_force_single_point():
    ap = brute_force_li_ap([(3,), (9,)], 1, 0)
    assert ap is not None and ap.length == 0
    assert ap_points(ap) == [(3,)]


def test_brute_force_finds_planted_progression():
    pts = {(0, 0), (1, 0), (0, 1), (1, 1), (5, 7)}
    ap = brute_force_li_ap(sorted(pts), 2, 1)
    assert ap is not None
    assert ap_rank(ap) == 2
    assert set(ap_points(ap)) <= pts


def test_brute_force_completeness_on_tiny_sets():
    # independent full enumeration over ordered ratio tuples
    def exhaustive(points, n, length):
        pts = set(points)
        for base in pts:
            diffs = [tuple(x - y for x, y in zip(p, base)) for p in pts if p != base]
            for ratios in combinations(diffs, n):
                if rank_over_Q([flatten_vector(r) for r in ratios]) != n:
                    continue
                ok = True
                for cs in product(range(length + 1), repeat=n):
                    q = tuple(
                        b + sum(c * r[i] for c, r in zip(cs, ratios))
                        for i, b in enumerate(base)
                    )
                    if q not in pts:
                        ok = False
                        break
                if ok:
                    return True
        return False

    cases = [
        ([(0, 0), (1, 0), (0, 1), (1, 1)], 2, 1),
        ([(0, 0), (1, 0), (0, 1)], 2, 1),
        ([(0, 0), (2, 1), (4, 2)], 1, 2),
        ([(0, 0), (2, 1), (4, 3)], 1, 2),
        ([(0,), (1,), (2,), (4,)], 1, 2),
    ]
    for points, n, length in cases:
        got = brute_force_li_ap(points, n, length)
        assert (got is not None) == exhaustive(points, n, length)
        if got is not None:
            assert set(ap_points(got)) <= set(points)
            assert ap_rank(got) == n


def test_brute_force_on_fibonacci_sample():
    fib = builtin("fibonacci")
    pts = enumerate_model_set(fib, Box([F(0)], [F(1)]), Ball([F(0)], F(900)))
    sample = [p.physical for p in pts]
    ap = brute_force_li_ap(sample, 2, 1)
    assert ap is not None
    assert ap_rank(ap) == 2
    assert verify_ap(ap, lambda p: p in set(sample))


def test_brute_force_budget():
    # collinear points: the rank-2 search must grind through every pair
    pts = [(i, 2 * i) for i in range(30)]
    with pytest.raises(BudgetExceeded), metered(50):
        brute_force_li_ap(pts, 2, 1)


# -- verification ----------------------------------------------------------------

def test_verify_ap_with_region():
    ap = ArithmeticProgression((0,), ((2,),), 3)
    inside = Box([F(0)], [F(6)])
    assert verify_ap(ap, lambda p: p[0] % 2 == 0 and inside.contains(p))
    small = Box([F(0)], [F(5)])
    assert not verify_ap(ap, lambda p: p[0] % 2 == 0 and small.contains(p))
    assert not verify_ap(ap, lambda p: p[0] % 4 == 0)
