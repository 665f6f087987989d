import random
import time
from fractions import Fraction
from itertools import combinations
from math import ceil, floor, gcd, isqrt
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apmeyer import exact
from apmeyer.errors import ParseError, RankDeficient
from apmeyer.exact import (
    QuadScalar,
    decimal_str,
    flatten_vector,
    max_li_subset,
    module_contains,
    parse_quad,
    parse_rational,
    quad_sign,
    rank_over_Q,
    row_reduce,
    smith_divisors,
    smith_normal_form,
    solve_columns,
    sqrt_lower,
    sqrt_upper,
    submodule_multiplier,
)

F = Fraction


# -- signs -------------------------------------------------------------------

def test_quad_sign_examples():
    assert quad_sign(QuadScalar(1, 0, 5)) == 1
    assert quad_sign(QuadScalar(7, -3, 5)) == 1   # 49 > 45
    assert quad_sign(QuadScalar(2, -1, 5)) == -1  # 4 < 5
    assert quad_sign(QuadScalar(0)) == 0


def _sign_oracle(a, b, d):
    """sign(a + b*sqrt(d)) from the integer bracket r < |Q|*sqrt(d) < r + 1.

    a + b*sqrt(d) has the sign of P + Q*sqrt(d) with P = a*den(a)*den(b) and
    Q = b*den(a)*den(b); r = isqrt(Q*Q*d) brackets |Q|*sqrt(d) strictly,
    because sqrt(d) is irrational.
    """
    a, b = Fraction(a), Fraction(b)
    P = a.numerator * b.denominator
    Q = b.numerator * a.denominator
    if Q == 0:
        return (P > 0) - (P < 0)
    r = isqrt(Q * Q * d)
    if Q > 0:  # value in (P + r, P + r + 1)
        return 1 if P + r >= 0 else -1
    return -1 if P - r <= 0 else 1  # value in (P - r - 1, P - r)


def _convergents(d, count):
    """The first `count` continued-fraction convergents p/q of sqrt(d).

    They alternate around sqrt(d): p - q*sqrt(d) < 0 at even indices, > 0 at
    odd ones, and |p - q*sqrt(d)| < 1/q.
    """
    a0 = isqrt(d)
    m, den, a = 0, 1, a0
    p_prev, p = 1, a0
    q_prev, q = 0, 1
    out = [(p, q)]
    while len(out) < count:
        m = den * a - m
        den = (d - m * m) // den
        a = (a0 + m) // den
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
        out.append((p, q))
    return out


CONVERGENTS = {d: _convergents(d, 40) for d in (2, 3, 5, 7)}


def test_quad_sign_matches_float_on_random_values():
    rng = random.Random(20260810)
    for _ in range(10_000):
        a = F(rng.randint(-50, 50), rng.randint(1, 20))
        b = F(rng.randint(-50, 50), rng.randint(1, 20))
        d = rng.choice([2, 3, 5, 7])
        x = QuadScalar(a, b, d)
        approx = float(x)
        if abs(approx) > 1e-9:  # float is only a sanity cross-check
            assert quad_sign(x) == (1 if approx > 0 else -1)
        else:
            assert quad_sign(x) == _sign_oracle(a, b, d)


def test_quad_sign_of_convergent_differences():
    # p - q*sqrt(d) shrinks like 1/q: float cancels it to noise, the exact
    # sign alternates with the convergent's index
    undecided_by_float = 0
    for d, convergents in CONVERGENTS.items():
        for n, (p, q) in enumerate(convergents):
            expected = 1 if n % 2 else -1
            for k in (1, 7, 10 ** 20):
                x = QuadScalar(F(p, k), F(-q, k), d)
                assert quad_sign(x) == _sign_oracle(x.a, x.b, d) == expected
                assert quad_sign(-x) == -expected
                undecided_by_float += (float(x) > 0) - (float(x) < 0) != expected
    assert undecided_by_float > 0


def test_quad_arithmetic_and_order():
    phi = QuadScalar(F(1, 2), F(1, 2), 5)
    assert phi * phi == phi + 1          # golden ratio identity
    assert (1 / phi) == phi - 1
    assert phi > 1 and phi < 2
    assert phi.__floor__() == 1 and phi.__ceil__() == 2
    assert (-phi).__floor__() == -2
    two = QuadScalar(2)
    assert two == 2 and hash(two) == hash(F(2))


def test_mixed_radicand_rejected():
    with pytest.raises(ValueError):
        QuadScalar(0, 1, 2) + QuadScalar(0, 1, 5)
    with pytest.raises(ValueError):
        QuadScalar(0, 1, 12)  # not square-free


def test_radicand_one_rejected():
    # sqrt(1) = 1 is rational, so QuadScalar(0, 1, 1) would differ from 1
    # under == and hash while (x - 1).sign() == 0
    with pytest.raises(ValueError):
        QuadScalar(0, 1, 1)
    with pytest.raises(ValueError):
        parse_quad("0+1*sqrt(1)")


def _squarefree_by_trial_division(d):
    k = 2
    while k * k <= d:
        if d % (k * k) == 0:
            return False
        k += 1
    return True


def _accepted(d):
    exact._require_squarefree.cache_clear()  # decide afresh, not from the cache
    try:
        exact._require_squarefree(d)
    except ValueError:
        return False
    return True


def test_squarefree_matches_trial_division_below_20000():
    for d in range(2, 20_000):
        assert _accepted(d) == _squarefree_by_trial_division(d), d


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.integers(2, 10 ** 5),
    st.tuples(st.integers(1, 100), st.integers(2, 316)).map(lambda t: t[0] * t[1] ** 2),
).filter(lambda d: d <= 10 ** 5))
def test_squarefree_matches_trial_division_up_to_1e5(d):
    assert _accepted(d) == _squarefree_by_trial_division(d)


def test_squarefree_large_radicands():
    exact._require_squarefree.cache_clear()
    p = 10 ** 7 + 19  # prime
    start = time.perf_counter()
    assert parse_quad("0+1*sqrt(100000000000031)").D == 10 ** 14 + 31  # prime
    assert time.perf_counter() - start < 1  # trial division up to sqrt(D) took seconds
    for d in (p * p, 2 * p * p):
        with pytest.raises(ValueError):
            QuadScalar(0, 1, d)
    assert _accepted(2 * p) and _accepted(3 * 5 * p)


def test_squarefree_cache_stays_bounded():
    # a long-lived process parsing radicands from user input must not grow it
    maxsize = exact._require_squarefree.cache_info().maxsize
    accepted = 0
    for d in range(2, 20_000):
        try:
            QuadScalar(0, 1, d)
        except ValueError:
            continue
        accepted += 1
    assert accepted >= 10_000
    assert exact._require_squarefree.cache_info().currsize <= maxsize


def test_sqrt_brackets():
    assert sqrt_upper(F(1, 4)) == F(1, 2)
    assert sqrt_lower(F(1, 4)) == F(1, 2)
    lo, hi = sqrt_lower(F(2)), sqrt_upper(F(2))
    assert lo * lo <= 2 <= hi * hi and hi - lo < F(1, 10 ** 9)
    for q in (F(9, 16), F(2, 3), 7, F(49, 4), 0):
        lo, hi = sqrt_lower(q), sqrt_upper(q)
        assert lo * lo <= q <= hi * hi
        assert (lo == hi) == (lo * lo == q)
        assert hi - lo <= F(1, F(q).denominator << 32)


def test_decimal_str():
    phi = QuadScalar(F(1, 2), F(1, 2), 5)
    assert decimal_str(phi) == "1.6180339887498948482"
    assert decimal_str(QuadScalar(0)) == "0"
    assert decimal_str(QuadScalar(F(-1, 4))) == "-0.25000000000000000000"


# -- differential tests against the Fraction kernel ----------------------------
#
# The library once decided floor and decimal output on rational brackets of
# sqrt(D): floor doubled the bracket precision until both ends agreed, and
# decimal_str located the exponent by comparing with Fraction(10)**e.  Those
# routines are kept here, on (a, b, D) triples of Fractions, as oracles for
# the integer kernel.

def _old_sign(a, b, d):
    sa = (a > 0) - (a < 0)
    sb = (b > 0) - (b < 0)
    if sb == 0:
        return sa
    if sa == 0:
        return sb
    if sa == sb:
        return sa
    t = a * a - b * b * d
    return sa * ((t > 0) - (t < 0))


def _old_floor(a, b, d):
    if b == 0:
        return a.numerator // a.denominator
    bits = 32
    while True:
        s = isqrt(d << (2 * bits))
        lo, hi = F(s, 1 << bits), F(s + 1, 1 << bits)
        ends = (a + b * lo, a + b * hi) if b > 0 else (a + b * hi, a + b * lo)
        flo, fhi = (e.numerator // e.denominator for e in ends)
        if flo == fhi:
            return flo
        bits *= 2


def _old_decimal_str(a, b, d, digits):
    if a == 0 and b == 0:
        return "0"
    neg = _old_sign(a, b, d) < 0
    if neg:
        a, b = -a, -b
    e = 0
    while _old_sign(a - F(10) ** (e + 1), b, d) >= 0:
        e += 1
    while _old_sign(a - F(10) ** e, b, d) < 0:
        e -= 1
    scale = F(10) ** (digits - 1 - e)
    s = str(_old_floor(a * scale, b * scale, d))
    point = e + 1
    if point <= 0:
        body = "0." + "0" * (-point) + s
    elif point >= len(s):
        body = s + "0" * (point - len(s))
    else:
        body = s[:point] + "." + s[point:]
    return ("-" if neg else "") + body


def _quad_values(d):
    """Values of Q(sqrt(d)): zero, rationals, wide random values, and values
    just below and above integers and powers of ten (from convergents)."""
    big = st.integers(min_value=-10 ** 30, max_value=10 ** 30)
    den = st.integers(min_value=1, max_value=10 ** 15)
    rational = st.builds(F, big, den)
    anchor = st.integers(min_value=-1000, max_value=1000).map(F) | st.integers(
        min_value=-12, max_value=12
    ).map(lambda j: F(10) ** j)

    def near(anchor, n, side):
        p, q = CONVERGENTS[d][n]
        return QuadScalar(anchor + side * p, -side * q, d)

    values = st.one_of(
        st.just(QuadScalar(0)),
        rational.map(QuadScalar),
        st.builds(lambda a, b: QuadScalar(a, b, d), rational, rational),
        st.builds(near, anchor, st.integers(min_value=0, max_value=39),
                  st.sampled_from([1, -1])),
    )
    return st.builds(lambda x, neg: -x if neg else x, values, st.booleans())


_RADICANDS = st.sampled_from([2, 3, 5, 7])


@settings(max_examples=250, deadline=None)
@given(_RADICANDS.flatmap(_quad_values), st.sampled_from([1, 2, 20, 40]))
def test_decimal_str_matches_fraction_oracle(x, digits):
    assert decimal_str(x, digits) == _old_decimal_str(x.a, x.b, x.D, digits)


@settings(max_examples=250, deadline=None)
@given(_RADICANDS.flatmap(_quad_values))
def test_floor_ceil_and_sign_match_fraction_oracle(x):
    assert floor(x) == _old_floor(x.a, x.b, x.D)
    assert ceil(x) == -_old_floor(-x.a, -x.b, x.D)
    assert x.sign() == _old_sign(x.a, x.b, x.D)


@settings(max_examples=150, deadline=None)
@given(_RADICANDS.flatmap(lambda d: st.tuples(_quad_values(d), _quad_values(d))))
def test_order_matches_fraction_oracle(pair):
    x, y = pair
    for u, v in ((x, y), (y, x), (x, x)):
        s = _old_sign(u.a - v.a, u.b - v.b, u.D or v.D)
        assert (u < v) == (s < 0)
        assert (u <= v) == (s <= 0)
        assert (u == v) == (s == 0)


@settings(max_examples=150, deadline=None)
@given(_RADICANDS.flatmap(lambda d: st.tuples(_quad_values(d), _quad_values(d))))
def test_division_and_reflected_subtraction(pair):
    x, y = pair
    if y:
        assert (x / y) * y == x
    assert x.a - x == -(x - x.a)
    assert 3 - x == QuadScalar(3 - x.a, -x.b, x.D)


# -- parsing -----------------------------------------------------------------

def test_parse_quad_examples():
    assert parse_quad("1/2+3*sqrt(5)") == QuadScalar(F(1, 2), 3, 5)
    assert parse_quad("-2") == QuadScalar(-2)
    assert parse_quad("0-1*sqrt(2)") == QuadScalar(0, -1, 2)


def test_parse_round_trip():
    for text in ["1/2+3*sqrt(5)", "-2", "0-1*sqrt(2)", "7", "-3/4", "0"]:
        assert parse_quad(parse_quad(text).as_literal()) == parse_quad(text)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        parse_quad("sqrt(5)")
    with pytest.raises(ParseError):
        parse_quad("1+2sqrt(5)")
    with pytest.raises(ParseError):
        parse_rational("1.5")


# -- rank over Q -------------------------------------------------------------

def test_rank_examples():
    assert rank_over_Q([(1, 0), (0, 1), (1, 1)]) == 2
    assert rank_over_Q([]) == 0
    assert rank_over_Q([(3, 5), (5, 8)]) == 2  # determinant -1


def test_max_li_subset_examples():
    assert max_li_subset([(1, 0), (2, 0), (0, 1)]) == [0, 2]
    assert max_li_subset([(0, 0)]) == []
    assert max_li_subset([(3, 5), (6, 10), (5, 8)]) == [0, 2]


def test_rank_dimension_mismatch():
    with pytest.raises(ValueError):
        rank_over_Q([(1, 0), (1, 0, 0)])


@given(
    st.lists(
        st.tuples(*[st.fractions(min_value=-9, max_value=9) for _ in range(3)]),
        max_size=8,
    )
)
def test_rank_properties(vectors):
    # rank_over_Q counts max_li_subset, so both are checked against the rank
    # that Gauss-Jordan elimination over Fractions reports
    r = rank_over_Q(vectors)
    assert 0 <= r <= 3
    assert r == len(max_li_subset(vectors))
    assert r == len(row_reduce([list(map(F, v)) for v in vectors], 3))


def test_flatten_vector_mixes_scalar_kinds():
    phi = QuadScalar(F(1, 2), F(1, 2), 5)
    assert flatten_vector((1, phi)) == (F(1), F(0), F(1, 2), F(1, 2))
    # 1 and sqrt(5) are Q-independent, so phi and 1 span rank 2
    assert rank_over_Q([flatten_vector((1,)), flatten_vector((phi,))]) == 2


# -- Smith normal form -------------------------------------------------------

def test_smith_divisor_examples():
    assert smith_divisors([[2, 0], [0, 3]]) == [1, 6]
    assert smith_divisors([[1, 0], [0, 1]]) == [1, 1]
    assert smith_divisors([[1, 1], [1, -1]]) == [1, 2]


def _det(mat):
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        total += (-1) ** j * mat[0][j] * _det(minor)
    return total


def _minor_gcd(mat, k):
    """gcd of all k x k minors (brute force oracle)."""
    rows = range(len(mat))
    cols = range(len(mat[0]))
    g = 0
    for rs in combinations(rows, k):
        for cs in combinations(cols, k):
            sub = [[mat[i][j] for j in cs] for i in rs]
            g = gcd(g, abs(_det(sub)))
    return g


@settings(max_examples=60)
@given(
    st.integers(min_value=2, max_value=3),
    st.integers(min_value=2, max_value=3),
    st.data(),
)
def test_smith_against_minor_gcd_oracle(nr, nc, data):
    mat = [
        [data.draw(st.integers(min_value=-6, max_value=6)) for _ in range(nc)]
        for _ in range(nr)
    ]
    divisors = smith_divisors(mat)
    for a, b in zip(divisors, divisors[1:]):
        assert b % a == 0
    assert all(d > 0 for d in divisors)
    # product of the first k divisors equals the gcd of all k x k minors
    prod = 1
    for k, d in enumerate(divisors, start=1):
        prod *= d
        assert prod == _minor_gcd(mat, k)
    # decomposition is consistent: S = U A V
    S, U, V = smith_normal_form(mat)
    AV = [[sum(mat[i][k] * V[k][j] for k in range(nc)) for j in range(nc)] for i in range(nr)]
    UAV = [[sum(U[i][k] * AV[k][j] for k in range(nr)) for j in range(nc)] for i in range(nr)]
    assert UAV == S
    assert abs(_det(U)) == 1 and abs(_det(V)) == 1


def _old_smith_normal_form(mat):
    """The extended-gcd Smith normal form that division with remainder
    replaced, kept as the oracle: S is unique, U and V need not be."""
    S = [list(map(int, r)) for r in mat]
    nr, nc = len(S), len(S[0])
    U = [[int(i == j) for j in range(nr)] for i in range(nr)]
    V = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def ext_gcd(a, b):
        old_r, r = a, b
        old_s, s = 1, 0
        old_t, t = 0, 1
        while r:
            q = old_r // r
            old_r, r = r, old_r - q * r
            old_s, s = s, old_s - q * s
            old_t, t = t, old_t - q * t
        if old_r < 0:
            old_r, old_s, old_t = -old_r, -old_s, -old_t
        return old_r, old_s, old_t

    def row_gcd_transform(t, i):
        a, b = S[t][t], S[i][t]
        g, x, y = ext_gcd(a, b)
        p, q = a // g, b // g
        for M in (S, U):
            rt, ri = M[t], M[i]
            for j in range(len(rt)):
                rt[j], ri[j] = x * rt[j] + y * ri[j], -q * rt[j] + p * ri[j]

    def col_gcd_transform(t, j):
        a, b = S[t][t], S[t][j]
        g, x, y = ext_gcd(a, b)
        p, q = a // g, b // g
        for M, h in ((S, nr), (V, nc)):
            for i in range(h):
                M[i][t], M[i][j] = x * M[i][t] + y * M[i][j], -q * M[i][t] + p * M[i][j]

    t = 0
    while t < min(nr, nc):
        piv = None
        for i in range(t, nr):
            for j in range(t, nc):
                if S[i][j] and (piv is None or abs(S[i][j]) < abs(S[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        if piv[0] != t:
            S[t], S[piv[0]] = S[piv[0]], S[t]
            U[t], U[piv[0]] = U[piv[0]], U[t]
        if piv[1] != t:
            for i in range(nr):
                S[i][t], S[i][piv[1]] = S[i][piv[1]], S[i][t]
            for i in range(nc):
                V[i][t], V[i][piv[1]] = V[i][piv[1]], V[i][t]
        while True:
            for i in range(t + 1, nr):
                if S[i][t]:
                    if S[i][t] % S[t][t] == 0:
                        q = S[i][t] // S[t][t]
                        S[i] = [x - q * y for x, y in zip(S[i], S[t])]
                        U[i] = [x - q * y for x, y in zip(U[i], U[t])]
                    else:
                        row_gcd_transform(t, i)
            for j in range(t + 1, nc):
                if S[t][j]:
                    if S[t][j] % S[t][t] == 0:
                        q = S[t][j] // S[t][t]
                        for i in range(nr):
                            S[i][j] -= q * S[i][t]
                        for i in range(nc):
                            V[i][j] -= q * V[i][t]
                    else:
                        col_gcd_transform(t, j)
            if all(S[i][t] == 0 for i in range(t + 1, nr)) and all(
                S[t][j] == 0 for j in range(t + 1, nc)
            ):
                break
        offender = None
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if S[i][j] % S[t][t]:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            for j in range(nc):
                S[t][j] += S[offender][j]
            for j in range(nr):
                U[t][j] += U[offender][j]
            continue
        if S[t][t] < 0:
            for j in range(nc):
                S[t][j] = -S[t][j]
            for j in range(nr):
                U[t][j] = -U[t][j]
        t += 1
    return S, U, V


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


@st.composite
def _matrix_and_targets(draw):
    """An integer matrix up to 5 x 5, row coefficients and a small shift."""
    nr, nc = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entry = st.integers(-1000, 1000) | st.integers(-6, 6)
    mat = [[draw(entry) for _ in range(nc)] for _ in range(nr)]
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=nr, max_size=nr))
    shift = draw(st.lists(st.integers(-1, 1), min_size=nc, max_size=nc))
    return mat, coeffs, shift


@settings(max_examples=150, deadline=None)
@given(_matrix_and_targets())
@example(([[2, 0], [0, 3]], [0, 1], [1, 0]))
@example(([[4, 0, 0], [0, 6, 0], [0, 0, 10]], [1, 1, 1], [0, 0, 1]))
def test_smith_matches_the_extended_gcd_oracle(case):
    mat, coeffs, shift = case
    nc = len(mat[0])
    S, U, V = smith_normal_form(mat)
    old_S, _, _ = _old_smith_normal_form(mat)
    assert S == old_S
    assert _matmul(_matmul(U, mat), V) == S
    assert abs(_det(U)) == 1 and abs(_det(V)) == 1
    inside = [sum(c * row[j] for c, row in zip(coeffs, mat)) for j in range(nc)]
    outside = [x + e for x, e in zip(inside, shift)]
    assert module_contains(mat, inside)
    with patch.object(exact, "smith_normal_form", _old_smith_normal_form):
        expected = module_contains(mat, outside)
    assert module_contains(mat, outside) == expected


# -- submodule multiplier ----------------------------------------------------

def test_submodule_multiplier_examples():
    assert submodule_multiplier([[2, 0], [0, 3]]) == 6
    assert submodule_multiplier([[1, 0], [0, 1]]) == 1
    assert submodule_multiplier([[1, 1], [1, -1]]) == 2


def test_submodule_multiplier_rank_deficient():
    with pytest.raises(RankDeficient):
        submodule_multiplier([[1, 1], [2, 2]])


@settings(max_examples=40)
@given(st.data())
def test_multiplier_gives_membership_of_scaled_units(data):
    n = data.draw(st.integers(min_value=1, max_value=3))
    mat = [
        [data.draw(st.integers(min_value=-5, max_value=5)) for _ in range(n)]
        for _ in range(n + data.draw(st.integers(min_value=0, max_value=1)))
    ]
    try:
        mult = submodule_multiplier(mat)
    except RankDeficient:
        return
    for i in range(n):
        unit = [mult if j == i else 0 for j in range(n)]
        assert module_contains(mat, unit)


def test_module_contains_basics():
    assert module_contains([[2, 0], [0, 3]], [2, 3])
    assert not module_contains([[2, 0], [0, 3]], [1, 0])
    assert module_contains([[1, 1], [1, -1]], [2, 0])
    assert not module_contains([[1, 1], [1, -1]], [1, 0])


def test_solve_columns():
    sol = solve_columns([(2, 0), (0, 3)], (4, 9))
    assert sol == [F(2), F(3)]
    assert solve_columns([(1, 1)], (1, 2)) is None
