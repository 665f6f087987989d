import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

from apmeyer.cli import main
from apmeyer.files import (
    ap_from_dict,
    ap_to_dict,
    cps_from_dict,
    expr_to_dict,
    format_coloring,
    load_expr,
    parse_coloring,
    parse_point_lines,
    parse_region,
    window_from_dict,
    window_to_dict,
)
from apmeyer.aprank import li_ap_in_meyer, meyer_expr, rank_gap_example
from apmeyer.cps import Box, builtin
from apmeyer.exact import QuadScalar
from apmeyer.progression import ap_rank
from apmeyer.vdw import CubeColoring
from fractions import Fraction as F


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


# -- subcommands -----------------------------------------------------------------

def test_crt_report(capsys):
    code, report = run(capsys, "crt", "2", "2")
    assert code == 0
    assert report["result"]["m"] == [10, 6]
    assert report["result"]["primes"] == [3, 5]


def test_gen_fibonacci(capsys):
    code, report = run(capsys, "gen", "--cps", "fibonacci",
                       "--window", "[0,1]", "--region", "|x|<=3")
    assert code == 0
    assert report["result"]["count"] == 4
    exacts = {p["physical"][0]["exact"] for p in report["result"]["points"]}
    assert exacts == {"-1/2-1/2*sqrt(5)", "0", "1", "3/2+1/2*sqrt(5)"}


def test_gen_is_byte_deterministic(capsys):
    argv = ["gen", "--cps", "fibonacci", "--window", "[0,1]", "--region", "|x|<=5"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_gen_point_file_round_trip(tmp_path, capsys):
    out = tmp_path / "points.txt"
    code, report = run(capsys, "gen", "--cps", "fibonacci", "--window", "[0,1]",
                       "--region", "|x|<=3", "--out", str(out))
    assert code == 0
    coords = parse_point_lines(out.read_text())
    assert coords == [(0, -1), (0, 0), (1, 0), (1, 1)]


def test_validate_builtin(capsys):
    code, report = run(capsys, "validate", "--cps", "fibonacci")
    assert code == 0
    assert report["result"]["density"] == "proved"


def test_validate_failing_scheme(tmp_path, capsys):
    bad = {
        "d": 1, "m": 1, "D": 5,
        "generators": [["1", "0"], ["0", "1"]],
        "density": "unverified",
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, report = run(capsys, "validate", "--cps", str(path))
    assert code == 1
    assert report["status"] == "fail"
    assert report["inputs"]["cps"]["sha256"]


def test_rank_command(tmp_path, capsys):
    path = tmp_path / "vectors.txt"
    path.write_text("1 0\n0 1\n1 1\n")
    code, report = run(capsys, "rank", "--points", str(path))
    assert code == 0
    assert report["result"]["rank"] == 2


def test_find_ap_planar_ammann_beenker(capsys):
    code, report = run(capsys, "find-ap", "--cps", "ammann_beenker",
                       "--window", "[-1,1]x[-1,1]", "--length", "2")
    assert code == 0
    result = report["result"]
    assert result["rank"] == 4
    assert result["radius"]["exact"] == (
        "1950286674168898891276897/5902958103587056517120"
    )
    assert result["progression"] == {
        "base": ["0", "0", "0", "0"],
        "coordinate_kind": "lattice",
        "length": 2,
        "ratios": [["17", "12", "0", "0"], ["0", "0", "17", "12"],
                   ["24", "17", "0", "0"], ["0", "0", "24", "17"]],
    }


def test_find_ap_with_oracle(capsys):
    code, report = run(capsys, "find-ap", "--cps", "fibonacci", "--window", "[0,1]",
                       "--length", "2", "--oracle", "--rank-target", "2")
    assert code == 0
    assert report["result"]["rank"] == 2
    assert report["result"]["oracle"]["all_member"]
    # the emitted progression re-verifies when parsed back
    ap = ap_from_dict(report["result"]["progression"])
    assert ap.length == 2 and ap_rank(ap) == 2
    from apmeyer.progression import verify_ap

    fib = builtin("fibonacci")
    window = Box([F(0)], [F(1)])
    assert verify_ap(ap, lambda z: window.contains(fib.star(z).internal))


def test_find_ap_rank_target_mismatch(capsys):
    code, report = run(capsys, "find-ap", "--cps", "fibonacci", "--window", "[0,1]",
                       "--length", "1", "--rank-target", "3")
    assert code == 1
    assert report["status"] == "fail"


def _rank_gap_reversed(tmp_path, capsys):
    """`example rank_gap -n 1` with its branches swapped: branch 0 is symbolic."""
    code, report = run(capsys, "example", "rank_gap", "--cps", "fibonacci", "-n", "1")
    assert code == 0
    payload = report["result"]["expr"]
    payload["branches"].reverse()
    path = tmp_path / "reversed.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_find_ap_expr_with_symbolic_first_branch(tmp_path, capsys):
    path = _rank_gap_reversed(tmp_path, capsys)
    code, report = run(capsys, "find-ap", "--expr", path, "--length", "2")
    assert code == 0
    result = report["result"]
    assert result["rank"] == 2
    assert result["progression"] == {
        "base": {"coords": ["0", "-1"], "tags": {"s1": 1}},
        "coordinate_kind": "module",
        "length": 2,
        "ratios": [["5", "8"], ["8", "13"]],
    }
    # a module progression with a tagged base survives the file format
    ap = li_ap_in_meyer(load_expr(path), 2)
    assert ap_to_dict(ap) == result["progression"]
    assert ap_from_dict(ap_to_dict(ap)) == ap


def test_find_ap_argument_errors_exit_two(tmp_path, capsys):
    path = _rank_gap_reversed(tmp_path, capsys)
    for argv in (["--cps", "fibonacci", "--expr", path], []):
        with pytest.raises(SystemExit) as exc:
            main(["find-ap", "--length", "2", *argv])
        assert exc.value.code == 2
    capsys.readouterr()
    # the oracle enumerates a model set, which an expression does not name
    assert main(["find-ap", "--expr", path, "--length", "2", "--oracle"]) == 2
    # an expression's windows come from its branches
    assert main(["find-ap", "--expr", path, "--length", "2", "--window", "[5,6]"]) == 2
    # fibonacci has one physical axis
    assert main(["find-ap", "--cps", "fibonacci", "--window", "[0,1]",
                 "--length", "2", "--at", "1,2"]) == 2
    assert capsys.readouterr().out == ""


def test_aprank_budget_bounds_the_module_sample(tmp_path, capsys):
    expr = meyer_expr(builtin("fibonacci"), [([F(1, 3)], Box([F(0)], [F(1, 2)]))])
    path = tmp_path / "expr.json"
    path.write_text(json.dumps(expr_to_dict(expr)))
    code = main(["aprank", "--expr", str(path), "--lengths", "2", "--budget", "10"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:") and captured.out == ""


def test_vdw_success_and_failure(tmp_path, capsys):
    good = CubeColoring(8, 1, {(i,): i % 2 for i in range(9)})
    path = tmp_path / "good.colors"
    path.write_text(format_coloring(good))
    code, report = run(capsys, "vdw", "--colors", str(path), "--depth", "2")
    assert code == 0
    assert report["result"]["grid"] == {"offsets": [0], "steps": [2], "depth": 2}

    blocked = CubeColoring(7, 1, {(i,): int(b) for i, b in enumerate("01100110")})
    path2 = tmp_path / "blocked.colors"
    path2.write_text(format_coloring(blocked))
    code, report = run(capsys, "vdw", "--colors", str(path2), "--depth", "2")
    assert code == 1
    assert report["result"]["grid"] is None


def test_aprank_command(tmp_path, capsys):
    expr = meyer_expr(builtin("fibonacci"), [(None, Box([F(0)], [F(1)]))])
    path = tmp_path / "expr.json"
    path.write_text(json.dumps(expr_to_dict(expr)))
    code, report = run(capsys, "aprank", "--expr", str(path), "--lengths", "2")
    assert code == 0
    assert report["result"]["lower"] == report["result"]["upper"] == 2
    assert report["result"]["sample_module_rank"] == 2
    assert len(report["result"]["certificates"]) == 2


def test_euclideanize_command(tmp_path, capsys):
    expr = meyer_expr(builtin("fibonacci"), [([F(1, 3)], Box([F(0)], [F(1, 2)]))])
    path = tmp_path / "expr.json"
    path.write_text(json.dumps(expr_to_dict(expr)))
    code, report = run(capsys, "euclideanize", "--expr", str(path),
                       "--out", str(tmp_path / "refined"))
    assert code == 0
    assert report["result"]["multiplier"] == 3
    assert report["result"]["verification"]["violations"] == 0
    cps2 = cps_from_dict(json.loads((tmp_path / "refined.cps.json").read_text()))
    assert cps2.generators[0][0] == F(1, 3)
    w2 = window_from_dict(json.loads((tmp_path / "refined.window.json").read_text()))
    assert w2.contains((F(1, 2),))


def test_euclideanize_rank_gap_exits_one(tmp_path, capsys):
    expr = rank_gap_example(builtin("fibonacci"), 1)
    path = tmp_path / "gap.json"
    path.write_text(json.dumps(expr_to_dict(expr)))
    code, report = run(capsys, "euclideanize", "--expr", str(path))
    assert code == 1
    assert report["result"]["rank_gap"] is True
    assert report["result"]["independent_translate"] == "s1"


def test_example_command(tmp_path, capsys):
    out = tmp_path / "fib.json"
    code, report = run(capsys, "example", "fibonacci", "--out", str(out))
    assert code == 0
    cps = cps_from_dict(json.loads(out.read_text()))
    assert cps.d == 1 and cps.m == 1

    code, report = run(capsys, "example", "rank_gap", "-n", "2")
    assert code == 0
    assert len(report["result"]["expr"]["branches"]) == 3


def test_bad_inputs_exit_two(tmp_path, capsys):
    assert main(["gen", "--cps", "no_such_scheme.json",
                 "--window", "[0,1]", "--region", "|x|<=3"]) == 2
    capsys.readouterr()
    assert main(["gen", "--cps", "fibonacci", "--window", "[0,1]",
                 "--region", "nonsense"]) == 2
    capsys.readouterr()
    assert main(["gen", "--cps", "fibonacci", "--region", "|x|<=3"]) == 2
    capsys.readouterr()
    # sqrt(1) is rational: radicands must be square-free and greater than 1
    assert main(["gen", "--cps", "integer_lattice(1)",
                 "--region", "[0-1*sqrt(1),2]"]) == 2
    capsys.readouterr()
    # sqrt(2) entries in a scheme declared over Q(sqrt(5))
    foreign = tmp_path / "foreign.json"
    foreign.write_text(json.dumps({
        "d": 1, "m": 1, "D": 5,
        "generators": [["1", "1"], ["1+1*sqrt(2)", "1-1*sqrt(2)"]],
    }))
    assert main(["gen", "--cps", str(foreign), "--window", "[0,1]",
                 "--region", "|x|<=3"]) == 2
    capsys.readouterr()


# -- parsing helpers ----------------------------------------------------------------

def test_parse_region_forms():
    ball = parse_region("|x|<=3", 1)
    assert ball.contains((F(-3),)) and not ball.contains((F(7, 2),))
    shifted = parse_region("|x-1/2|<=2", 1)
    assert shifted.contains((F(5, 2),))
    box = parse_region("[0,1]x[0,2]", 2)
    assert box.contains((F(1, 2), F(3, 2)))
    with pytest.raises(Exception):
        parse_region("[0,1]", 2)


def test_window_serialization_round_trip():
    from apmeyer.cps import Ball, ShiftedUnion

    w = ShiftedUnion([
        ((F(1, 3),), Box([F(0)], [F(1, 2)], (False,), (True,))),
        ((QuadScalar(0, 1, 5),), Ball([F(0)], F(2))),
    ])
    again = window_from_dict(window_to_dict(w))
    for probe in [(F(1, 2),), (F(0),), (QuadScalar(0, 1, 5),)]:
        assert w.contains(probe) == again.contains(probe)


def test_coloring_round_trip():
    c = CubeColoring(2, 2, {t: (t[0] + t[1]) % 3 for t in
                            [(i, j) for i in range(3) for j in range(3)]})
    again = parse_coloring(format_coloring(c))
    assert again.colors == c.colors and again.cube_size == 2


_CORRUPTED_LIFT = """
import sys
from fractions import Fraction
from apmeyer import aprank, cli
assert sys.flags.optimize, "run me under python -O"
real = aprank.lift_translate
aprank.lift_translate = lambda cps, t: tuple(x + Fraction(1, 3) for x in real(cps, t))
sys.exit(cli.main(["euclideanize", "--expr", sys.argv[1]]))
"""


def test_euclideanize_fails_under_optimize_with_a_corrupted_lift(tmp_path):
    # `python -O` strips asserts; the verification must still refuse the
    # wrong window [2/3, 7/6] that the shifted lift produces
    expr = meyer_expr(builtin("fibonacci"), [([F(1, 3)], Box([F(0)], [F(1, 2)]))])
    path = tmp_path / "expr.json"
    path.write_text(json.dumps(expr_to_dict(expr)))
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _CORRUPTED_LIFT, str(path)],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": str(src), "PATH": ""},
    )
    assert proc.returncode == 1, proc.stderr
    report = json.loads(proc.stdout)
    assert report["status"] == "fail"
    assert "verification failed" in report["result"]["error"]
    assert "window" not in report["result"]


def test_library_has_no_assert():
    # `python -O` strips `assert`, so no library check may rest on one
    src = Path(__file__).resolve().parents[1] / "src" / "apmeyer"
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
