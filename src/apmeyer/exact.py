"""Exact scalars and exact integer/rational linear algebra.

Rationals are ``fractions.Fraction``.  Real quadratic irrationals a + b*sqrt(D)
(D a fixed square-free integer greater than 1) are ``QuadScalar``.  Sign
queries, comparisons, floors and decimal output write the value as
(P + Q*sqrt(D))/R with integers P, Q and R > 0 and are decided over the
integers with ``math.isqrt``, never through floating point: sqrt(D) is
irrational, so floor(Q*sqrt(D)) is isqrt(Q*Q*D) for Q > 0 and
-isqrt(Q*Q*D) - 1 for Q < 0.  On top of the scalars this module provides the
exact linear algebra the rest of the library reduces to: rank over Q by
fraction-free elimination, greedy maximal independent subsets, Smith normal
form with transform tracking, and the submodule multiplier (the least n with
n*M inside a finite-index submodule, read off the largest elementary divisor).
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm

from .errors import ParseError, RankDeficient


# Every caller in practice uses one or two radicands (the builtin schemes use
# D = 2 and D = 5), so a small LRU keeps the hot path a cache hit while a
# process that parses radicands from user input keeps a bounded set.
@lru_cache(maxsize=16)
def _require_squarefree(d: int) -> None:
    if d <= 1:
        raise ValueError(f"quadratic radicand must be greater than 1, got {d}")
    # divide out the primes k with k^3 <= n; the cofactor n then has at most
    # two prime factors, so it is square-free unless it is a perfect square
    n, k = d, 2
    while k * k * k <= n:
        if n % k == 0:
            n //= k
            if n % k == 0:
                raise ValueError(f"quadratic radicand must be square-free, got {d}")
        k += 1
    if n > 1 and isqrt(n) ** 2 == n:
        raise ValueError(f"quadratic radicand must be square-free, got {d}")


def sqrt_lower(q: Fraction, bits: int = 32) -> Fraction:
    """Rational u <= sqrt(q); exact when q is a perfect rational square."""
    q = Fraction(q)
    if q < 0:
        raise ValueError("negative radicand")
    n = q.numerator * q.denominator
    s = isqrt(n << (2 * bits))
    return Fraction(s, q.denominator << bits)


def sqrt_upper(q: Fraction, bits: int = 32) -> Fraction:
    """Rational u >= sqrt(q); exact when q is a perfect rational square."""
    lo = sqrt_lower(q, bits)
    if lo * lo == q:
        return lo
    return lo + Fraction(1, Fraction(q).denominator << bits)


class QuadScalar:
    """Exact real a + b*sqrt(D) with rational a, b.

    Purely rational values carry D = 0 and interoperate with any radicand;
    two genuinely irrational values combine only when their D agree.
    """

    __slots__ = ("a", "b", "D")

    def __init__(self, a=0, b=0, D=0):
        if type(a) is not Fraction:
            a = Fraction(a)
        if type(b) is not Fraction:
            b = Fraction(b)
        if not b:
            D = 0
        else:
            D = int(D)
            _require_squarefree(D)
        self.a = a
        self.b = b
        self.D = D

    # -- coercion ---------------------------------------------------------

    @classmethod
    def _coerce(cls, x) -> "QuadScalar":
        if isinstance(x, QuadScalar):
            return x
        if isinstance(x, (int, Fraction)):
            return cls(x)
        return NotImplemented

    def _join(self, other: "QuadScalar") -> int:
        if self.D == 0:
            return other.D
        if other.D == 0 or other.D == self.D:
            return self.D
        raise ValueError(f"mixed radicands sqrt({self.D}) and sqrt({other.D})")

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = QuadScalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadScalar(self.a + other.a, self.b + other.b, self._join(other))

    __radd__ = __add__

    def __neg__(self):
        return QuadScalar(-self.a, -self.b, self.D)

    def __sub__(self, other):
        other = QuadScalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadScalar(self.a - other.a, self.b - other.b, self._join(other))

    def __rsub__(self, other):
        other = QuadScalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadScalar(other.a - self.a, other.b - self.b, self._join(other))

    def __mul__(self, other):
        if type(other) is int:
            return QuadScalar(self.a * other, self.b * other, self.D)
        other = QuadScalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        D = self._join(other)
        return QuadScalar(
            self.a * other.a + self.b * other.b * D,
            self.a * other.b + self.b * other.a,
            D,
        )

    __rmul__ = __mul__

    def norm(self) -> Fraction:
        return self.a * self.a - self.b * self.b * self.D

    def __truediv__(self, other):
        other = QuadScalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division by zero QuadScalar")
        # (a + b*sqrt(D)) / (c + e*sqrt(D)) = (a + b*sqrt(D))(c - e*sqrt(D)) / norm
        D = self._join(other)
        n = other.norm()
        c, e = other.a, other.b
        return QuadScalar((self.a * c - self.b * e * D) / n, (self.b * c - self.a * e) / n, D)

    def __rtruediv__(self, other):
        other = QuadScalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    # -- exact order ------------------------------------------------------

    def _triple(self) -> tuple[int, int, int]:
        """Integers (P, Q, R) with self = (P + Q*sqrt(D))/R and R > 0."""
        an, ad = self.a.numerator, self.a.denominator
        bn, bd = self.b.numerator, self.b.denominator
        return an * bd, bn * ad, ad * bd

    def sign(self) -> int:
        """Sign of the real number, via integer comparison of P^2 and Q^2 D."""
        P, Q, _ = self._triple()
        sp = (P > 0) - (P < 0)
        sq = (Q > 0) - (Q < 0)
        if sp * sq >= 0:
            return sp or sq
        # opposite signs: |P| vs |Q| sqrt(D) decided on integer squares
        t = P * P - Q * Q * self.D
        return sp * ((t > 0) - (t < 0))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __eq__(self, other):
        other = QuadScalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.b != 0 and other.b != 0 and self.D != other.D:
            return False
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.D))

    def _compare(self, other, op):
        """op(sign(self - other), 0), or NotImplemented for a foreign type."""
        diff = self.__sub__(other)
        if diff is NotImplemented:
            return NotImplemented
        return op(diff.sign(), 0)

    def __lt__(self, other):
        return self._compare(other, operator.lt)

    def __le__(self, other):
        return self._compare(other, operator.le)

    def __gt__(self, other):
        return self._compare(other, operator.gt)

    def __ge__(self, other):
        return self._compare(other, operator.ge)

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- brackets and formatting ------------------------------------------

    def bounds(self, bits: int = 32) -> tuple[Fraction, Fraction]:
        """Outward rational brackets lo <= value <= hi."""
        if self.b == 0:
            return self.a, self.a
        lo, hi = sqrt_lower(self.D, bits), sqrt_upper(self.D, bits)
        if self.b > 0:
            return self.a + self.b * lo, self.a + self.b * hi
        return self.a + self.b * hi, self.a + self.b * lo

    def __float__(self):
        return float(self.a) + float(self.b) * (self.D ** 0.5)

    def __floor__(self):
        P, Q, R = self._triple()
        return _floor_scaled(P, Q, R, self.D, 0)

    def __ceil__(self):
        P, Q, R = self._triple()
        return -_floor_scaled(-P, -Q, R, self.D, 0)

    def as_literal(self) -> str:
        if self.b == 0:
            return format_rational(self.a)
        sep = "+" if self.b >= 0 else "-"
        return f"{format_rational(self.a)}{sep}{format_rational(abs(self.b))}*sqrt({self.D})"

    def __repr__(self):
        return f"QuadScalar({self.a!r}, {self.b!r}, {self.D})"

    def __str__(self):
        return self.as_literal()


def as_quad(x) -> QuadScalar:
    q = QuadScalar._coerce(x)
    if q is NotImplemented:
        raise TypeError(f"cannot interpret {x!r} as an exact scalar")
    return q


def quad_sign(x) -> int:
    """Exact sign in {-1, 0, +1} of a rational or quadratic scalar."""
    return as_quad(x).sign()


def quad_bounds(x, bits: int = 32) -> tuple[Fraction, Fraction]:
    return as_quad(x).bounds(bits)


def _floor_scaled(P: int, Q: int, R: int, D: int, k: int) -> int:
    """floor((P + Q*sqrt(D))/R * 10**k), exactly, over the integers (R > 0)."""
    if k >= 0:
        scale = 10 ** k
        P, Q = P * scale, Q * scale
    else:
        R *= 10 ** -k
    if Q > 0:
        P += isqrt(Q * Q * D)
    elif Q < 0:
        P -= isqrt(Q * Q * D) + 1
    return P // R


def decimal_str(x, digits: int = 20) -> str:
    """Truncated decimal expansion with `digits` significant digits.

    Informative output only; truncation is toward zero and deterministic.
    """
    x = as_quad(x)
    if not x:
        return "0"
    neg = x.sign() < 0
    P, Q, R = x._triple()
    if neg:
        P, Q = -P, -Q
    # exponent e with 10^e <= |x| < 10^(e+1): the digit count of floor(|x|)
    # when |x| >= 1, else the first e < 0 with floor(|x| * 10^-e) > 0
    whole = _floor_scaled(P, Q, R, x.D, 0)
    if whole:
        e = len(str(whole)) - 1
    else:
        e = -1
        while not _floor_scaled(P, Q, R, x.D, -e):
            e -= 1
    s = str(_floor_scaled(P, Q, R, x.D, digits - 1 - e))
    point = e + 1
    if point <= 0:
        body = "0." + "0" * (-point) + s
    elif point >= len(s):
        body = s + "0" * (point - len(s))
    else:
        body = s[:point] + "." + s[point:]
    return ("-" if neg else "") + body


# -- literal grammar -------------------------------------------------------

_RAT_RE = re.compile(r"[+-]?\d+(?:/\d+)?")
_QUAD_TAIL_RE = re.compile(r"([+-])(\d+(?:/\d+)?)\*sqrt\((\d+)\)")


def format_rational(q: Fraction) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _literal(text) -> str:
    """`text` stripped; `ParseError` if it is not a string, say a JSON number."""
    if not isinstance(text, str):
        raise ParseError(f"an exact literal must be a string, not {type(text).__name__} {text!r}")
    return text.strip()


def parse_rational(text: str) -> Fraction:
    t = _literal(text)
    m = _RAT_RE.fullmatch(t)
    if not m:
        raise ParseError(f"not a rational literal: {text!r}", position=0)
    return Fraction(t)


def parse_quad(text: str) -> QuadScalar:
    """Parse `<rat>` or `<rat>+<rat>*sqrt(<D>)` / `<rat>-<rat>*sqrt(<D>)`."""
    t = _literal(text)
    m = _RAT_RE.match(t)
    if not m:
        raise ParseError(f"expected a rational at the start of {text!r}", position=0)
    a = Fraction(m.group(0))
    rest = t[m.end():]
    if not rest:
        return QuadScalar(a)
    tail = _QUAD_TAIL_RE.fullmatch(rest)
    if not tail:
        raise ParseError(f"malformed quadratic literal {text!r}", position=m.end())
    sign, babs, d = tail.groups()
    b = Fraction(babs)
    if sign == "-":
        b = -b
    return QuadScalar(a, b, int(d))


# -- flattening to rational vectors ----------------------------------------

def flatten_vector(v) -> tuple[Fraction, ...]:
    """Coefficients of (1, sqrt(D)) per entry; rationals flatten to (x, 0)."""
    out: list[Fraction] = []
    for x in v:
        q = as_quad(x)
        out += (q.a, q.b)
    return tuple(out)


# -- rank over Q by fraction-free elimination -------------------------------

def _integerize(vec) -> list[int]:
    fracs = [Fraction(x) for x in vec]
    den = lcm(*(f.denominator for f in fracs))
    ints = [f.numerator * (den // f.denominator) for f in fracs]
    g = gcd(*ints)
    if g > 1:
        ints = [x // g for x in ints]
    return ints


class IntEchelon:
    """Incremental fraction-free row echelon over Z.

    insert() returns True when the vector enlarges the span.  Rows are kept
    primitive (gcd 1) so entries stay small.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.rows: list[tuple[int, tuple[int, ...]]] = []  # (pivot column, row)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def insert(self, vec) -> bool:
        v = _integerize(vec)
        if len(v) != self.dim:
            raise ValueError(f"dimension mismatch: expected {self.dim}, got {len(v)}")
        for piv, row in self.rows:
            if v[piv]:
                c = v[piv]
                p = row[piv]
                v = [p * x - c * y for x, y in zip(v, row)]
                g = gcd(*v)
                if g > 1:
                    v = [x // g for x in v]
        piv = next((j for j, x in enumerate(v) if x), None)
        if piv is None:
            return False
        if v[piv] < 0:
            v = [-x for x in v]
        self.rows.append((piv, tuple(v)))
        self.rows.sort(key=lambda pr: pr[0])
        return True


def rank_over_Q(vectors) -> int:
    """Dimension of the Q-span of the given rational vectors."""
    return len(max_li_subset(vectors))


def max_li_subset(vectors) -> list[int]:
    """Indices of the first maximal linearly independent subset in scan order."""
    rows = list(vectors)
    if not rows:
        return []
    ech = IntEchelon(len(rows[0]))
    return [i for i, r in enumerate(rows) if ech.insert(r)]


# -- Smith normal form ------------------------------------------------------

def _check_int_matrix(mat) -> list[list[int]]:
    rows = [list(map(int, r)) for r in mat]
    if not rows or not rows[0]:
        raise ValueError("matrix must have positive dimensions")
    width = len(rows[0])
    for r in rows:
        if len(r) != width:
            raise ValueError("ragged matrix")
    return rows


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(mat) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Return (S, U, V) with S = U * mat * V diagonal, d_1 | d_2 | ... | d_r > 0.

    Division with remainder: the pivot is a nonzero entry of least magnitude
    in the trailing block; `//` clears its row and column down to remainders
    smaller than the pivot, and the pivot is picked again while one is left.
    """
    S = _check_int_matrix(mat)
    nr, nc = len(S), len(S[0])
    U = _identity(nr)
    V = _identity(nc)
    t = 0
    while t < min(nr, nc):
        block = [(abs(S[i][j]), i, j) for i in range(t, nr) for j in range(t, nc) if S[i][j]]
        if not block:
            break
        _, pi, pj = min(block)
        S[t], S[pi] = S[pi], S[t]
        U[t], U[pi] = U[pi], U[t]
        for row in S + V:
            row[t], row[pj] = row[pj], row[t]
        p = S[t][t]
        for i in range(t + 1, nr):
            q = S[i][t] // p
            if q:
                S[i] = [x - q * y for x, y in zip(S[i], S[t])]
                U[i] = [x - q * y for x, y in zip(U[i], U[t])]
        for j in range(t + 1, nc):
            q = S[t][j] // p
            if q:
                for row in S + V:
                    row[j] -= q * row[t]
        if any(S[i][t] for i in range(t + 1, nr)) or any(S[t][j] for j in range(t + 1, nc)):
            continue  # a remainder, smaller than |p|, is the next pivot
        # divisor chain fixup: the pivot must divide the trailing block
        offender = next(
            (i for i in range(t + 1, nr) if any(S[i][j] % p for j in range(t + 1, nc))), None
        )
        if offender is not None:
            S[t] = [x + y for x, y in zip(S[t], S[offender])]
            U[t] = [x + y for x, y in zip(U[t], U[offender])]
            continue
        if p < 0:
            S[t] = [-x for x in S[t]]
            U[t] = [-x for x in U[t]]
        t += 1
    return S, U, V


def smith_divisors(mat) -> list[int]:
    """Elementary divisors d_1 | d_2 | ... | d_r, each positive."""
    S, _, _ = smith_normal_form(mat)
    return [S[i][i] for i in range(min(len(S), len(S[0]))) if S[i][i]]


def submodule_multiplier(mat) -> int:
    """Least elementary-divisor multiplier n with n * Z^k inside the row module.

    Rows of `mat` are generators of a submodule N of M = Z^k in the basis of M;
    requires full column rank (rank(N) = rank(M)).
    """
    divisors = smith_divisors(mat)
    cols = len(_check_int_matrix(mat)[0])
    if len(divisors) < cols:
        raise RankDeficient(
            f"row rank {len(divisors)} is smaller than column count {cols}"
        )
    return divisors[-1]


def module_contains(mat, target) -> bool:
    """Exact membership of an integer vector in the Z-row-module of `mat`."""
    rows = _check_int_matrix(mat)
    v = list(map(int, target))
    if len(v) != len(rows[0]):
        raise ValueError("dimension mismatch")
    S, _, V = smith_normal_form(rows)
    w = [sum(v[i] * V[i][j] for i in range(len(v))) for j in range(len(v))]
    diagonal = min(len(S), len(S[0]))
    r = sum(1 for j in range(diagonal) if S[j][j])
    for j in range(len(v)):
        d = S[j][j] if j < diagonal else 0
        if j < r:
            if w[j] % d:
                return False
        elif w[j]:
            return False
    return True


# -- exact linear solves ----------------------------------------------------

def row_reduce(rows, ncols: int) -> list[tuple[int, int]]:
    """Gauss-Jordan elimination, in place, over Fractions or QuadScalars.

    The first `ncols` columns are brought to reduced row echelon form; the
    columns after them (a right-hand side, an identity block) ride along.
    Returns the (row, column) pivot positions in order.
    """
    m = len(rows)
    pivots: list[tuple[int, int]] = []
    for col in range(ncols):
        row = len(pivots)
        if row == m:
            break
        sel = next((i for i in range(row, m) if rows[i][col]), None)
        if sel is None:
            continue
        rows[row], rows[sel] = rows[sel], rows[row]
        pv = rows[row][col]
        rows[row] = [x / pv for x in rows[row]]
        for i in range(m):
            if i != row and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[row])]
        pivots.append((row, col))
    return pivots


def solve_columns(columns, target):
    """Solve sum_j x_j * columns[j] = target over Q.

    Returns a list of Fractions (free variables pinned to 0) or None when the
    system is inconsistent.
    """
    cols = [list(map(Fraction, c)) for c in columns]
    b = list(map(Fraction, target))
    n = len(cols)
    m = len(b)
    for c in cols:
        if len(c) != m:
            raise ValueError("dimension mismatch")
    # augmented row-major matrix
    A = [[cols[j][i] for j in range(n)] + [b[i]] for i in range(m)]
    pivots = row_reduce(A, n)
    for i in range(len(pivots), m):
        if A[i][n] != 0:
            return None
    x = [Fraction(0)] * n
    for r, c in pivots:
        x[c] = A[r][n]
    return x
