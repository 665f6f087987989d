import subprocess
import sys
from pathlib import Path

import pytest

from apmeyer.errors import NoMonoGrid
from apmeyer.progression import ArithmeticProgression, ap_points, ap_rank
from apmeyer.vdw import (
    CubeColoring,
    Grid,
    find_mono_grid,
    grid_points,
    mono_subprogression,
    transfer_ap,
)


def coloring_1d(bits: str) -> CubeColoring:
    return CubeColoring(len(bits) - 1, 1, {(i,): int(b) for i, b in enumerate(bits)})


# -- grids ---------------------------------------------------------------------

def test_grid_points_examples():
    assert grid_points(Grid((0,), (2,), 2)) == [(0,), (2,), (4,)]
    assert grid_points(Grid((0, 0), (1, 1), 1)) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert grid_points(Grid((3,), (5,), 1)) == [(3,), (8,)]


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid((0,), (0,), 1)
    with pytest.raises(ValueError):
        Grid((0, 0), (1,), 1)


# -- monochromatic search --------------------------------------------------------

def test_single_color_is_trivial():
    mono = CubeColoring.from_function(5, 2, lambda c: 0)
    grid = find_mono_grid(mono, 3)
    assert grid == Grid((0, 0), (1, 1), 3)


def test_depth_zero_grid_is_the_origin():
    assert find_mono_grid(coloring_1d("01"), 0) == Grid((0,), (1,), 0)
    planar = CubeColoring.from_function(3, 2, lambda c: c[0] % 2)
    assert find_mono_grid(planar, 0) == Grid((0, 0), (1, 1), 0)
    assert find_mono_grid(coloring_1d("0"), 0) is None  # a one-point cube


def test_alternating_coloring():
    grid = find_mono_grid(coloring_1d("010101010"), 2)
    assert grid == Grid((0,), (2,), 2)
    assert grid_points(grid) == [(0,), (2,), (4,)]


def test_blocked_coloring_has_no_grid():
    assert find_mono_grid(coloring_1d("01100110"), 2) is None


def test_every_two_coloring_of_nine_points_has_a_grid():
    # exhaustive over all 512 colorings of {0..8}; classical threshold: at 9
    # points a monochromatic 3-term progression is unavoidable
    for mask in range(512):
        bits = format(mask, "09b")
        assert find_mono_grid(coloring_1d(bits), 2) is not None


def test_some_eight_point_coloring_escapes():
    found_none = False
    for mask in range(256):
        bits = format(mask, "08b")
        if find_mono_grid(coloring_1d(bits), 2) is None:
            found_none = True
            break
    assert found_none


def test_returned_grid_is_always_monochromatic():
    for mask in range(0, 512, 7):
        bits = format(mask, "09b")
        coloring = coloring_1d(bits)
        grid = find_mono_grid(coloring, 2)
        assert grid is not None
        colors = {coloring.colors[p] for p in grid_points(grid)}
        assert len(colors) == 1


def test_coloring_must_be_total():
    with pytest.raises(ValueError):
        CubeColoring(2, 1, {(0,): 0, (1,): 1})


# -- transfer ---------------------------------------------------------------------

def test_mono_subprogression_returns_the_winning_color_and_keeps_the_kind():
    ap = ArithmeticProgression((0,), ((1,),), 8, kind="module")
    sub, color = mono_subprogression(ap, lambda p: p[0] % 2, 2)
    assert sub == ArithmeticProgression((0,), ((2,),), 2, kind="module")
    assert color == 0
    blocked = ArithmeticProgression((0,), ((1,),), 7)
    assert mono_subprogression(blocked, lambda p: "01100110"[p[0]], 2) is None


def test_transfer_single_translate_is_a_shift():
    ap = ArithmeticProgression((10,), ((3,),), 4)
    out = transfer_ap(ap, lambda p: 0, [(7,)], 2)
    assert out.length == 2
    assert set(ap_points(out)) <= {(x - 7,) for (x,) in ap_points(ap)}


def test_transfer_accepts_list_translates():
    ap = ArithmeticProgression((0, 0), ((1, 0), (0, 1)), 2)
    out = transfer_ap(ap, lambda p: 0, [[1, 1]], 2)
    assert (-1, -1) in ap_points(out)


def test_transfer_alternating_decomposition_doubles_the_ratio():
    # mirrors the 1-d alternating coloring: translate index = parity
    ap = ArithmeticProgression((0,), ((1,),), 8)
    out = transfer_ap(ap, lambda p: p[0] % 2, [(0,), (1,)], 2)
    assert out.ratios == ((2,),)
    assert out.length == 2
    assert ap_points(out) == [(0,), (2,), (4,)]


def test_transfer_requires_total_decompose():
    ap = ArithmeticProgression((0,), ((1,),), 3)
    with pytest.raises(ValueError):
        transfer_ap(ap, lambda p: None if p[0] == 2 else 0, [(0,)], 1)


def test_transfer_raises_when_cube_too_small():
    ap = ArithmeticProgression((0,), ((1,),), 2)
    # 0,1,2 colored 0,1,1: no depth-2 monochromatic progression
    with pytest.raises(NoMonoGrid):
        transfer_ap(ap, lambda p: min(p[0], 1), [(0,), (0,)], 2)


def test_transfer_preserves_rank_and_membership():
    ap = ArithmeticProgression((0, 0), ((1, 0), (0, 1)), 4)

    def decompose(p):
        return (p[0] + p[1]) % 2

    out = transfer_ap(ap, decompose, [(0, 0), (1, 1)], 1)
    assert ap_rank(out) == ap_rank(ap) == 2
    winner = {decompose(p) for p in ap_points(ap) if True}
    # output points come from one color class, shifted by its translate
    f = [(0, 0), (1, 1)]
    hits = set()
    for q in ap_points(out):
        for j, t in enumerate(f):
            src = tuple(x + y for x, y in zip(q, t))
            if src in set(ap_points(ap)) and decompose(src) == j:
                hits.add(j)
    assert len(hits) == 1


def test_transfer_iterative_doubling_eventually_succeeds():
    # adversarial-but-periodic decomposition; doubling the length wins
    for n_prime in (2, 4, 8, 16):
        ap = ArithmeticProgression((0,), ((1,),), n_prime)
        try:
            out = transfer_ap(ap, lambda p: (p[0] // 2) % 2, [(0,), (0,)], 2)
            break
        except NoMonoGrid:
            continue
    else:
        raise AssertionError("doubling never succeeded")
    assert out.length == 2


_NON_MONOCHROMATIC_GRID = """
import sys
from apmeyer import vdw
from apmeyer.progression import ArithmeticProgression
assert sys.flags.optimize, "run me under python -O"
vdw.find_mono_grid = lambda coloring, depth: vdw.Grid((0,), (1,), 2)
ap = ArithmeticProgression((0,), ((1,),), 4)
print(vdw.transfer_ap(ap, lambda p: p[0] % 2, [(0,), (1,)], 2))
"""


def test_transfer_fails_under_optimize_with_a_non_monochromatic_grid():
    # `python -O` strips asserts; the grid 0, 1, 2 mixes both parities, so
    # the transfer must still refuse it
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _NON_MONOCHROMATIC_GRID],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": str(src), "PATH": ""},
    )
    assert proc.returncode == 1, proc.stdout
    assert "VerificationFailed" in proc.stderr
    assert proc.stdout == ""
