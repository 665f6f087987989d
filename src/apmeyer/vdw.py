"""Monochromatic grid search in colored cubes, and coloring transfer.

A depth-n grid in {0..N}^d is the set (l_j + m_j k_j) over m in {0..n}^d,
i.e. an axis-aligned progression with k+1 points per axis.  find_mono_grid is
the exhaustive engine behind every van der Waerden style argument here; no
numeric bound is ever evaluated, callers escalate the cube size until the
search succeeds.  mono_subprogression is the one coloring step built on it,
shared by transfer_ap and aprank.mono_li_ap.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import NoMonoGrid, verify
from .progression import ArithmeticProgression, _as_point, _scale, _shift, ap_points, ap_rank


@dataclass(frozen=True)
class Grid:
    offsets: tuple[int, ...]
    steps: tuple[int, ...]
    depth: int

    def __post_init__(self):
        if len(self.offsets) != len(self.steps):
            raise ValueError("offsets and steps must have the same dimension")
        if any(k < 1 for k in self.steps):
            raise ValueError("steps must be positive")
        if any(l < 0 for l in self.offsets) or self.depth < 0:
            raise ValueError("offsets and depth must be natural numbers")

    @property
    def dim(self) -> int:
        return len(self.offsets)


def grid_points(grid: Grid):
    """(n+1)^d points, lexicographic in the multi-index."""
    return [
        tuple(l + m * k for l, m, k in zip(grid.offsets, ms, grid.steps))
        for ms in product(range(grid.depth + 1), repeat=grid.dim)
    ]


class CubeColoring:
    """Total coloring of the cube {0..N}^d with colors 0..r-1."""

    def __init__(self, cube_size: int, dim: int, colors):
        self.cube_size = int(cube_size)
        self.dim = int(dim)
        self.colors = dict(colors)
        expected = (self.cube_size + 1) ** self.dim
        if len(self.colors) != expected:
            raise ValueError(f"coloring must be total on the cube ({expected} points)")
        palette = set(self.colors.values())
        if not palette:
            raise ValueError("need at least one color")
        self.num_colors = len(palette)

    @classmethod
    def from_function(cls, cube_size: int, dim: int, fn):
        colors = {}
        for c in product(range(cube_size + 1), repeat=dim):
            colors[c] = fn(c)
        return cls(cube_size, dim, colors)


def find_mono_grid(coloring: CubeColoring, depth: int):
    """First monochromatic grid of the given depth, or None.

    Deterministic exhaustive scan: offsets in lexicographic order outermost,
    steps lexicographic innermost.  Every returned grid is re-verified
    monochromatic and inside the cube.
    """
    n = coloring.cube_size
    d = coloring.dim
    if depth == 0:
        origin = (0,) * d
        return Grid(origin, (1,) * d, 0) if n >= 1 else None
    for offsets in product(range(n + 1), repeat=d):
        step_ranges = [range(1, (n - l) // depth + 1) for l in offsets]
        if any(len(r) == 0 for r in step_ranges):
            continue
        for steps in product(*step_ranges):
            grid = Grid(offsets, steps, depth)
            pts = grid_points(grid)
            color = coloring.colors[pts[0]]
            if all(coloring.colors[p] == color for p in pts[1:]):
                verify(all(max(p) <= n for p in pts), "grid leaves the cube")
                return grid
    return None


def mono_subprogression(ap: ArithmeticProgression, color, depth: int):
    """Monochromatic depth-`depth` sub-progression of `ap` as (sub, color), or None.

    The coefficient cube is colored by `color(ap.point(c))`, which must be
    total on the progression; a monochromatic grid (offsets l, steps k) gives
    base' = ap.point(l), ratios' = k_j r_j.  The result is re-verified: its
    source cells share the color, its points are the grid's input points and
    its rank is unchanged.  None means no grid: retry with a longer progression.
    """
    colors = {}
    for c in ap.coefficient_cube():
        p = ap.point(c)
        col = color(p)
        if col is None:
            raise ValueError(f"coloring undefined on progression point {p}")
        colors[c] = col
    grid = find_mono_grid(CubeColoring(ap.length, ap.dimension, colors), depth)
    if grid is None:
        return None
    source = grid_points(grid)
    winner = colors[source[0]]
    ratios = tuple(_scale(r, k) for r, k in zip(ap.ratios, grid.steps))
    sub = ArithmeticProgression(ap.point(grid.offsets), ratios, depth, kind=ap.kind)
    verify(all(colors[c] == winner for c in source), "grid is not monochromatic")
    verify(set(ap_points(sub)) == {ap.point(c) for c in source},
           "sub-progression points are not the grid's input points")
    verify(ap_rank(sub) == ap_rank(ap), "sub-progression lost rank")
    return sub, winner


def transfer_ap(ap: ArithmeticProgression, decompose, translates, target_depth: int):
    """Move a progression across a finite-translate covering.

    `decompose` maps each progression point to the index of a translate f_j
    with point - f_j in the target set; it must be total on the progression.
    Colored by translate index, its monochromatic sub-progression
    (`mono_subprogression`) is shifted into the winning translate:
    base' = s + sum(l_j r_j) - f, ratios' = k_j r_j.

    Raises NoMonoGrid when the input progression is too short (callers retry
    with a longer progression, typically by doubling).
    """
    translates = [_as_point(t) for t in translates]

    def translate_index(p):
        idx = decompose(p)
        if idx is not None and not 0 <= idx < len(translates):
            raise ValueError(f"decompose returned invalid translate index {idx}")
        return idx

    found = mono_subprogression(ap, translate_index, target_depth)
    if found is None:
        raise NoMonoGrid(
            f"no monochromatic depth-{target_depth} grid in the {ap.length}-cube; "
            "retry with a longer progression"
        )
    sub, winner = found
    base = _shift(sub.base, _scale(translates[winner], -1))
    return ArithmeticProgression(base, sub.ratios, target_depth, kind=ap.kind)
