"""Higher-dimensional arithmetic progressions.

A progression is base + sum(c_i * ratio_i) over all coefficient tuples
c in {0..N}^n.  Points are coordinate tuples whose entries may be ints,
Fractions or QuadScalars; everything is compared exactly.  The chief exports
are the CRT coefficient construction (pairwise-distinct coefficient sums),
the rank-one embedding built from it, and an exhaustive brute-force search
for linearly independent progressions used as an independent test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import charge, metered
from .exact import IntEchelon, flatten_vector, rank_over_Q


def _add(p, q):
    return tuple(x + y for x, y in zip(p, q))


def _scale(p, c):
    return tuple(c * x for x in p)


def _as_point(p):
    """A tuple or list point as a tuple; a bare scalar as the 1-d point (p,)."""
    return tuple(p) if isinstance(p, (tuple, list)) else (p,)


def _shift(p, v):
    """p + v for a coordinate tuple, or by the point's own `+` (`ExprPoint`)."""
    return _add(p, v) if isinstance(p, tuple) else p + v


@dataclass(frozen=True)
class ArithmeticProgression:
    """base + {0..length} . ratios, in lattice or module coordinates."""

    base: tuple
    ratios: tuple
    length: int
    kind: str = "lattice"

    def __post_init__(self):
        object.__setattr__(self, "ratios", tuple(tuple(r) for r in self.ratios))
        if not isinstance(self.base, tuple) and hasattr(self.base, "__iter__"):
            object.__setattr__(self, "base", tuple(self.base))
        if self.length < 0:
            raise ValueError("length must be a natural number")

    @property
    def dimension(self) -> int:
        return len(self.ratios)

    def point(self, coeffs):
        p = self.base
        for c, r in zip(coeffs, self.ratios):
            if c:
                p = _shift(p, _scale(r, c))
        return p

    def coefficient_cube(self):
        return product(range(self.length + 1), repeat=self.dimension)


def ap_points(ap: ArithmeticProgression):
    """All (N+1)^n points in lexicographic coefficient order."""
    with metered():
        charge((ap.length + 1) ** ap.dimension)
    return [ap.point(c) for c in ap.coefficient_cube()]


def is_proper(ap: ArithmeticProgression) -> bool:
    """True iff all points are pairwise distinct (exact comparison)."""
    pts = ap_points(ap)
    return len(set(pts)) == len(pts)


def ap_rank(ap: ArithmeticProgression) -> int:
    """Rank of the Z-module generated by the ratios, via rank over Q."""
    return rank_over_Q([flatten_vector(r) for r in ap.ratios])


def is_li(ap: ArithmeticProgression) -> bool:
    return ap_rank(ap) == ap.dimension


@dataclass(frozen=True)
class CrtCoefficients:
    n: int
    length: int
    primes: tuple[int, ...]
    values: tuple[int, ...]


def _primes_above(bound: int, count: int) -> list[int]:
    out = []
    candidate = max(2, bound + 1)
    while len(out) < count:
        if all(candidate % p for p in range(2, candidate)) and candidate > 1:
            out.append(candidate)
        candidate += 1
    return out


def crt_coefficients(n: int, length: int) -> CrtCoefficients:
    """Minimal m_1..m_n with m_i = 1 mod p_i, 0 mod p_j, over the n smallest
    primes p_i > N; the coefficient sums sum(c_i m_i) with 0 <= c_i <= N are
    then pairwise distinct."""
    if n < 1:
        raise ValueError("need n >= 1")
    primes = _primes_above(length, n)
    modulus = 1
    for p in primes:
        modulus *= p
    values = []
    for i, p in enumerate(primes):
        rest = modulus // p
        m = rest * pow(rest, -1, p) % modulus
        values.append(m if m else modulus)
    return CrtCoefficients(n, length, tuple(primes), tuple(values))


def embed_rank1(line, n: int, length: int) -> ArithmeticProgression:
    """Proper rank-1 n-dimensional progression inside a line progression.

    `line` is (s, r, N') with points s, s+r, ..., s+N'*r; requires
    N' >= N * (m_1 + ... + m_n) so every coefficient sum stays on the line.
    """
    s, r, n_line = line
    coeffs = crt_coefficients(n, length)
    needed = length * sum(coeffs.values)
    if n_line < needed:
        raise ValueError(f"line length {n_line} < required {needed}")
    ratios = [_scale(_as_point(r), m) for m in coeffs.values]
    return ArithmeticProgression(_as_point(s), tuple(ratios), length, kind="module")


def verify_ap(ap: ArithmeticProgression, member) -> bool:
    """True iff every point satisfies `member`."""
    return all(member(p) for p in ap_points(ap))


def brute_force_li_ap(points, n: int, length: int):
    """Exhaustive search for an n-dimensional li-progression of length N in a
    finite point set; None means no such progression exists in the set.

    Bases are scanned in sorted order; ratio tuples are combinations (sorted
    index order) of differences from the base, pruned on dependent prefixes.
    Complete within the given set: for N >= 1 every ratio of a progression in
    the set is a difference from its base, and every subset of an independent
    tuple is independent, so pruning never skips a witness.
    """
    pts = sorted({_as_point(p) for p in points}, key=_sort_key)
    if not pts:
        return None
    if length == 0:
        # a single point is trivially a progression of any dimension
        return ArithmeticProgression(pts[0], (), 0, kind="module")
    point_set = set(pts)
    with metered():
        for base in pts:
            diffs = [_add(p, _scale(base, -1)) for p in pts if p != base]
            flat = [flatten_vector(d) for d in diffs]
            order = sorted(range(len(diffs)), key=lambda i: _sort_key(diffs[i]))
            found = _search_tuples(base, diffs, flat, order, n, length, point_set)
            if found is not None:
                return found
    return None


def _sort_key(p):
    return tuple(flatten_vector(p))


def _search_tuples(base, diffs, flat, order, n, length, point_set):
    def recurse(start, chosen, ech):
        for pos in range(start, len(order)):
            idx = order[pos]
            charge()
            snapshot = list(ech.rows)
            if not ech.insert(flat[idx]):
                continue
            chosen.append(idx)
            if len(chosen) == n:
                ap = ArithmeticProgression(
                    base, tuple(diffs[i] for i in chosen), length, kind="module"
                )
                if all(p in point_set for p in ap_points(ap)):
                    return ap
            else:
                found = recurse(pos + 1, chosen, ech)
                if found is not None:
                    return found
            chosen.pop()
            ech.rows[:] = snapshot
        return None

    dim = len(flat[0]) if flat else 0
    if dim == 0:
        return None
    return recurse(0, [], IntEchelon(dim))
