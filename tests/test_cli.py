import ast
import copy
import inspect
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from apmeyer.cli import main
from apmeyer.errors import ParseError, VerificationFailed
from apmeyer.files import (
    ap_from_dict,
    ap_to_dict,
    cps_from_dict,
    cps_to_dict,
    expr_to_dict,
    format_coloring,
    load_cps,
    load_expr,
    parse_coloring,
    parse_region,
    parse_vector_lines,
    parse_window_arg,
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
    coords = parse_vector_lines(out.read_text())
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


# dense on each internal axis, not jointly; the file's declared density is ignored
TWO_PLUS_TWO = {
    "d": 2, "m": 2, "D": 2,
    "generators": [["1", "0", "1", "1"],
                   ["0-1*sqrt(2)", "0", "0+1*sqrt(2)", "0+1*sqrt(2)"],
                   ["0", "1", "1", "0"],
                   ["0", "0-1*sqrt(2)", "0", "1"]],
    "density": "proved",
}


def test_non_dense_scheme_fails_validation_and_is_refused_at_once(tmp_path, capsys):
    path = tmp_path / "two_plus_two.json"
    path.write_text(json.dumps(TWO_PLUS_TWO))
    code, report = run(capsys, "validate", "--cps", str(path))
    assert code == 1
    assert report["result"]["density"] == "failed"
    assert report["result"]["lattice_invertible"] and report["result"]["projection_injective"]
    start = time.perf_counter()
    code = main(["find-ap", "--cps", str(path), "--window", "[0,1]x[0,1]", "--length", "2"])
    assert time.perf_counter() - start < 1
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "not dense" in captured.err


def test_declared_density_is_ignored(tmp_path, capsys):
    payload = {
        "d": 2, "m": 2, "D": 2,
        "generators": [[quad.as_literal() for quad in g]
                       for g in builtin("ammann_beenker").generators],
        "density": "assumed",
    }
    path = tmp_path / "ab.json"
    path.write_text(json.dumps(payload))
    code, report = run(capsys, "validate", "--cps", str(path))
    assert code == 0
    assert report["result"]["density"] == "proved"


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


def test_budget_bounds_the_whole_command(capsys):
    # the construction charges 151 units and the oracle's enumeration 151 more
    argv = ["find-ap", "--cps", "fibonacci", "--window", "[0,1]", "--length", "2", "--oracle"]
    assert main([*argv, "--budget", "151"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""
    code, report = run(capsys, *argv, "--budget", "302")
    assert code == 0 and report["result"]["oracle"]["all_member"]


def test_aprank_samples_the_module_before_the_bracket(tmp_path, capsys):
    # the sample costs 12 units, length 1 151 and lengths 1-2 426; a length
    # that runs out of budget leaves the meter spent, so the sample goes first
    expr = meyer_expr(builtin("fibonacci"), [([F(1, 3)], Box([F(0)], [F(1, 2)]))])
    path = tmp_path / "expr.json"
    path.write_text(json.dumps(expr_to_dict(expr)))
    for budget, tested in (("163", [1]), ("438", [1, 2])):
        code, report = run(capsys, "aprank", "--expr", str(path), "--lengths", "2",
                           "--budget", budget)
        assert code == 0
        assert report["result"]["tested_lengths"] == tested
        assert report["result"]["sample_module_rank"] == 2


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

    code, report = run(capsys, "example", "integer_lattice(2)")
    assert code == 0
    assert report["result"]["cps"]["density"] == "vacuous"


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


_WINDOW = {"type": "box", "lo": ["0"], "hi": ["1"]}
_FIBONACCI = {"d": 1, "m": 1, "D": 5,
              "generators": [["1", "1"], ["1/2+1/2*sqrt(5)", "1/2-1/2*sqrt(5)"]]}


@pytest.mark.parametrize("command, payload", [
    ("validate --cps", {"d": 1, "m": 1, "D": 5}),
    ("validate --cps", [1, 1, 5]),
    ("gen --cps fibonacci --region |x|<=3 --window", [_WINDOW]),
    ("aprank --expr", {"cps": "fibonacci"}),
    ("aprank --expr", {"cps": "fibonacci", "branches": [{"translate": ["0"]}]}),
    ("validate --cps", {"d": 1, "m": 1, "D": 5,
                        "generators": [[1, 1], ["1/2+1/2*sqrt(5)", "1/2-1/2*sqrt(5)"]]}),
    ("gen --cps fibonacci --region |x|<=3 --window", {**_WINDOW, "lo_closed": True}),
    ("gen --cps fibonacci --region |x|<=3 --window", {**_WINDOW, "hi_closed": [1]}),
    ("aprank --expr", {"cps": "fibonacci", "branches": [
        {"translate": ["0"], "window": {"type": "box", "lo": ["0", "0"], "hi": ["1", "1"]}}]}),
    # a string where an array belongs is not read one character per axis
    ("gen --cps ammann_beenker --region |x|<=2 --window", {"type": "box", "lo": "00", "hi": "11"}),
    ("gen --cps fibonacci --region |x|<=3 --window", {**_WINDOW, "hi": "1"}),
    ("gen --cps fibonacci --region |x|<=3 --window",
     {"type": "ball", "center": "0", "radius_sq": "1"}),
    ("gen --cps fibonacci --region |x|<=3 --window",
     {"type": "shifted_union", "parts": [{"shift": "0", "window": _WINDOW}]}),
    ("aprank --lengths 1 --expr", {"cps": "fibonacci", "branches": [
        {"translate": "1", "window": _WINDOW}]}),
    ("aprank --lengths 1 --expr", {"cps": "fibonacci", "branches": [
        {"translate": {"symbolic": "s1", "approx": "17"}, "window": _WINDOW}]}),
    # d, m and D are JSON integers, and a bool is not one
    ("validate --cps", {**_FIBONACCI, "d": [1]}),
    ("validate --cps", {**_FIBONACCI, "D": 5.9}),
    ("validate --cps", {**_FIBONACCI, "d": True}),
    # the physical span of this scheme is Q(1/2+1/2*sqrt(5)), which misses 1/3
    ("aprank --lengths 1 --expr", {"cps": {**_FIBONACCI, "generators": [
        ["1/2+1/2*sqrt(5)", "1"], ["1/2+1/2*sqrt(5)", "1/2-1/2*sqrt(5)"]]},
        "branches": [{"translate": ["1/3"], "window": _WINDOW}]}),
], ids=["scheme-without-generators", "scheme-as-list", "window-as-list",
        "expr-without-branches", "branch-without-window", "numeric-generator",
        "flags-not-an-array", "flags-not-booleans", "branch-window-of-wrong-dimension",
        "box-bounds-as-strings", "box-hi-as-string", "ball-center-as-string",
        "union-shift-as-string", "translate-as-string", "approx-as-string",
        "d-as-array", "D-as-float", "d-as-bool", "translate-outside-the-span"])
def test_malformed_input_files_exit_two(tmp_path, capsys, command, payload):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    assert main([*command.split(), str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("input error:") and captured.out == ""


def _blocked_coloring(tmp_path):
    path = tmp_path / "blocked.colors"
    colors = {(i,): int(b) for i, b in enumerate("01100110")}
    path.write_text(format_coloring(CubeColoring(7, 1, colors)))
    return str(path)


def _file(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _fail_verification(*args, **kwargs):
    raise VerificationFailed("verification failed: planted")


@pytest.mark.parametrize("outcome, code", [
    ("gen", 0), ("validate-singular", 1), ("vdw-no-grid", 1),
    ("rank-target-mismatch", 1), ("rank-gap", 1), ("verification-failed", 1),
])
def test_every_report_has_one_frame(tmp_path, capsys, monkeypatch, outcome, code):
    from apmeyer import aprank

    argv = {
        "gen": lambda: ["gen", "--cps", "fibonacci", "--window", "[0,1]", "--region", "|x|<=3"],
        "validate-singular": lambda: ["validate", "--cps", _file(
            tmp_path, "singular.json", {**_FIBONACCI, "generators": [["1", "1"], ["2", "2"]]})],
        "vdw-no-grid": lambda: ["vdw", "--colors", _blocked_coloring(tmp_path), "--depth", "2"],
        "rank-target-mismatch": lambda: ["find-ap", "--cps", "fibonacci", "--window", "[0,1]",
                                         "--length", "1", "--rank-target", "3"],
        "rank-gap": lambda: ["euclideanize", "--expr", _file(
            tmp_path, "gap.json", expr_to_dict(rank_gap_example(builtin("fibonacci"), 1)))],
        "verification-failed": lambda: ["find-ap", "--cps", "fibonacci", "--window", "[0,1]",
                                        "--length", "1"],
    }[outcome]()
    if outcome == "verification-failed":
        monkeypatch.setattr(aprank, "li_ap_in_model_set", _fail_verification)
    got, report = run(capsys, *argv)
    assert got == code
    assert set(report) == {"command", "inputs", "result", "status"}
    assert (report["status"] == "ok") == (got == 0)


# -- mutated input files -----------------------------------------------------------

# every JSON type; the strings include literals, and strings that a loose
# reader would take for an array of one-character literals
_JSON_LEAF = (st.none() | st.booleans() | st.integers(-3, 12) | st.floats(-5, 5)
              | st.text(max_size=4) | st.sampled_from(["00", "1", "17", "1/2", "0-1*sqrt(5)"]))
_JSON = st.recursive(_JSON_LEAF, lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(max_size=3), inner, max_size=2), max_leaves=4)


def _nodes(value, path=()):
    """The path of every node of a JSON value, children before their parent,
    so the root's `()` comes last."""
    if isinstance(value, (dict, list)):
        for key, child in (value.items() if isinstance(value, dict) else enumerate(value)):
            yield from _nodes(child, path + (key,))
    yield path


def _mutated(draw, value):
    """`value` after one to three mutations, each at a drawn node: the node
    swapped for another JSON value or for a copy of another node of the file,
    dropped from its object, or an array resized by removing an entry or
    repeating one."""
    value = copy.deepcopy(value)
    for _ in range(draw(st.integers(1, 3))):
        nodes = list(_nodes(value))
        path = draw(st.sampled_from(nodes))
        parent = value
        for key in path[:-1]:
            parent = parent[key]
        node = parent[path[-1]] if path else value
        ops = ["swap", "graft"]
        if path and isinstance(parent, dict):
            ops.append("drop")
        if isinstance(node, list):
            ops.append("resize")
        op = draw(st.sampled_from(ops))
        if op == "drop":
            del parent[path[-1]]
            continue
        if op == "swap":
            node = draw(_JSON)
        elif op == "graft":
            node = value
            for key in draw(st.sampled_from(nodes)):
                node = node[key]
            node = copy.deepcopy(node)
        elif node and draw(st.booleans()):
            del node[draw(st.integers(0, len(node) - 1))]
        else:
            node.append(copy.deepcopy(draw(st.sampled_from(node))) if node else draw(_JSON))
        if path:
            parent[path[-1]] = node
        else:
            value = node
    return value


_FIB = builtin("fibonacci")
_UNION = {"type": "shifted_union", "parts": [
    {"shift": ["0"], "window": {**_WINDOW, "lo_closed": [True], "hi_closed": [False]}},
    {"shift": ["1/2"], "window": {"type": "ball", "center": ["0"], "radius_sq": "1/16"}}]}
# (command with FILE for the file, loader of that file, a valid file)
_MUTATED_INPUTS = [
    ("validate --cps FILE", load_cps, cps_to_dict(_FIB)),
    ("validate --cps FILE", load_cps, cps_to_dict(builtin("ammann_beenker"))),
    ("gen --cps FILE --window [0,1] --region |x|<=2 --budget 2000", load_cps, _FIBONACCI),
    ("gen --cps fibonacci --region |x|<=3 --budget 2000 --window FILE", parse_window_arg,
     _UNION),
    ("aprank --lengths 1 --budget 2000 --expr FILE", load_expr,
     expr_to_dict(rank_gap_example(_FIB, 1))),
    ("aprank --lengths 1 --budget 2000 --expr FILE", load_expr,
     {"cps": cps_to_dict(_FIB), "branches": [{"translate": ["1/3"], "window": _UNION}]}),
]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_input_files_exit_zero_one_or_two(tmp_path, capsys, data):
    command, loader, payload = data.draw(st.sampled_from(_MUTATED_INPUTS))
    path = _file(tmp_path, "input.json", _mutated(data.draw, payload))
    try:
        loader(path)
        refused = False
    except (ParseError, ValueError):
        refused = True
    code = main([path if a == "FILE" else a for a in command.split()])
    captured = capsys.readouterr()
    assert code in (0, 1, 2)
    assert code == 2 or not refused, captured
    if code == 2:
        assert captured.err.startswith("input error:") and captured.out == ""


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


def _parameters(obj):
    try:
        return inspect.signature(obj).parameters
    except ValueError:  # a class without a Python signature, such as an exception
        return {}


def test_no_public_callable_takes_a_budget():
    # the budget has one setter, `metered`; a call inside it charges its meter
    import apmeyer
    from apmeyer import aprank, cps, progression
    from apmeyer.errors import metered

    found = [
        f"{module.__name__}.{name}"
        for module in (apmeyer, cps, progression, aprank)
        for name, obj in vars(module).items()
        if not name.startswith("_") and callable(obj) and obj is not metered
        and "budget" in _parameters(obj)
    ]
    assert found == []
    assert apmeyer.metered is metered
