"""Tests of the benchmark itself: inputs, tracing and output checks.

    python3 -m pytest perfbench/tests -q
"""

import copy
import io
import json
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

from apmeyer import cli  # noqa: E402


# -- seeded inputs -------------------------------------------------------------

@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs(name):
    assert workloads.generate(name, 7) == workloads.generate(name, 7)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_other_seed_other_inputs(name):
    tasks_a, files_a = workloads.generate(name, 7)
    tasks_b, files_b = workloads.generate(name, 8)
    assert [t.argv for t in tasks_a] != [t.argv for t in tasks_b] or \
        [t.spec for t in tasks_a] != [t.spec for t in tasks_b]
    if name == "meyer":
        assert files_a.keys() == files_b.keys()
        assert files_a != files_b


def test_workload_mix():
    tasks, _ = workloads.generate("construct", 3)
    kinds = [t.kind for t in tasks]
    length2 = [t for t in tasks if t.kind == "find-ap" and t.spec["length"] == 2]
    assert 0.25 <= sum(t.spec["oracle"] for t in length2) / len(length2) <= 0.35
    assert 0.05 <= kinds.count("mono") / len(tasks) <= 0.15
    assert not any(t.spec["oracle"] for t in tasks if t.kind == "find-ap" and t.spec["length"] == 3)
    tasks, files = workloads.generate("meyer", 3)
    gaps = [t for t in tasks if t.kind == "euclideanize" and t.spec["rank_gap"]]
    assert 0.05 <= len(gaps) / len(tasks) <= 0.15
    assert all(t.argv[2] in files for t in tasks)


# -- self time -----------------------------------------------------------------

def _span(name, parent, start, end):
    return tracing.Span(name, parent, 0, start, end)


def test_self_time_of_synthetic_tree():
    spans = [
        _span("root", -1, 0.0, 10.0),
        _span("a", 0, 1.0, 4.0),       # child of root
        _span("a.1", 1, 2.0, 3.0),     # grandchild: not subtracted from root
        _span("b", 0, 6.0, 9.0),
        _span("c", 0, 8.0, 12.0),      # overlaps b and outlives root
        _span("leaf", -1, 20.0, 21.5),
    ]
    assert tracing.self_times(spans) == pytest.approx([10.0 - 3.0 - 4.0, 2.0, 1.0, 3.0, 4.0, 1.5])


def test_counts_and_spans_reach_every_importing_module():
    program = run.Program()
    tracer = tracing.Tracer()
    originals = {
        "enumerate_model_set": program.cps.enumerate_model_set,
        "decimal_str": program.exact.decimal_str,
        "rank_over_Q": program.exact.rank_over_Q,
    }
    tracer.install(program.modules)
    try:
        for module in program.modules.values():
            for value in vars(module).values():
                assert all(value is not fn for fn in originals.values()), module
        with redirect_stdout(io.StringIO()):
            program.cli.main(["find-ap", "--cps", "fibonacci", "--window", "[-1/2,1]",
                              "--length", "1", "--at", "3"])
    finally:
        tracer.uninstall()
    assert program.aprank.enumerate_model_set is originals["enumerate_model_set"]
    assert program.cli.decimal_str is originals["decimal_str"]
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "aprank.li_ap_in_model_set", "aprank.independent_ratios",
            "cps.enumerate", "exact.rank_over_Q", "files.parse"} <= names
    enum = [s for s in tracer.spans if s.name == "cps.enumerate"]
    assert all(s.parent >= 0 for s in enum)
    assert sum(s.counts_close[1] - s.counts_open[1] for s in enum) > 0  # star calls
    metrics = tracing.layer_metrics(tracer, 1, 0)
    assert metrics["cps.enumerate.calls"][0] == len(enum)
    assert metrics["vdw.grids_tested"][0] == 0


def test_tail_percentile_leaves_ten_tasks_beyond():
    assert run.tail_percentile(30) == 66
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(1000) == 99


def test_percentile_weights_all_order_statistics():
    assert run.percentile([5.0], 50) == 5.0
    assert run.percentile([1.0, 2.0, 3.0], 50) == pytest.approx(2.0)
    assert run.percentile(list(range(101)), 50) == pytest.approx(50.0)
    # a stratum boundary at the median gives a value between the strata
    assert 1.0 < run.percentile([1.0] * 50 + [2.0] * 50, 50) < 2.0
    assert run.beta_cdf(2, 3, 0.4) == pytest.approx(0.5248)


def test_scaled_time_follows_the_reference():
    nominal = run.REFERENCE_NOMINAL_S
    assert run.scaled(0.3, nominal, nominal) == pytest.approx(0.3)
    assert run.scaled(0.3, 2 * nominal, 2 * nominal) == pytest.approx(0.15)


# -- output checks -------------------------------------------------------------

def _cli(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return code, json.loads(out.getvalue())


def test_sign_test_matches_floats():
    for a, b, d in [(Fraction(3), Fraction(-1), 5), (Fraction(-3, 2), Fraction(1, 2), 5),
                    (Fraction(0), Fraction(-2, 7), 2), (Fraction(1), Fraction(0), 0),
                    (Fraction(7, 5), Fraction(-1), 2)]:
        expected = (a + b * d ** 0.5 > 0) - (a + b * d ** 0.5 < 0)
        assert checks.sign(a, b, d) == expected


def test_gen_check_rejects_point_outside_window():
    spec = {"d": 1, "m": 1, "window": [(Fraction(0), Fraction(1))],
            "region": ("ball", [Fraction(0)], Fraction(5))}
    code, report = _cli(["gen", "--cps", "fibonacci", "--window", "[0,1]", "--region", "|x|<=5"])
    assert checks.check_gen(code, report, spec) == []
    moved = copy.deepcopy(report)
    moved["result"]["points"][0]["internal"][0]["exact"] = "1/2+1/2*sqrt(5)"
    assert any("window" in p for p in checks.check_gen(code, moved, spec))
    outside = copy.deepcopy(report)
    outside["result"]["points"][0]["physical"][0]["exact"] = "3+1*sqrt(5)"
    assert any("region" in p for p in checks.check_gen(code, outside, spec))
    miscounted = copy.deepcopy(report)
    miscounted["result"]["count"] += 1
    assert checks.check_gen(code, miscounted, spec)


def test_find_ap_check_rejects_flipped_oracle_and_low_rank():
    spec = {"rank": 2, "length": 1, "oracle": True}
    code, report = _cli(["find-ap", "--cps", "fibonacci", "--window", "[-1/2,1]",
                         "--length", "1", "--at", "3", "--oracle"])
    assert checks.check_find_ap(code, report, spec) == []
    flipped = copy.deepcopy(report)
    flipped["result"]["oracle"]["all_member"] = False
    assert checks.check_find_ap(code, flipped, spec)
    collapsed = copy.deepcopy(report)
    ratios = collapsed["result"]["progression"]["ratios"]
    ratios[1] = [str(2 * int(x)) for x in ratios[0]]
    assert checks.check_find_ap(code, collapsed, spec)
    assert checks.check_find_ap(1, report, spec)


def test_mono_check_rejects_two_colours():
    spec = {"depth": 1, "rank": 2, "coef": [1, 1], "modulus": 2}
    ap = {"base": ["0", "0"], "ratios": [["2", "0"], ["0", "2"]], "length": 1}
    assert checks.check_mono(ap, spec) == []
    ap["ratios"][0] = ["1", "0"]
    assert checks.check_mono(ap, spec)


def test_aprank_and_euclideanize_checks():
    assert checks.check_aprank(0, {"status": "ok", "result": {
        "lower": 2, "upper": 2, "tested_lengths": [1, 2]}}, {"rank": 2, "lengths": 2}) == []
    assert checks.check_aprank(0, {"status": "ok", "result": {
        "lower": 1, "upper": 2, "tested_lengths": [1, 2]}}, {"rank": 2, "lengths": 2})
    ok = {"status": "ok", "result": {"verification": {"violations": 0, "points_checked": 9}}}
    assert checks.check_euclideanize(0, ok, {"rank_gap": False}) == []
    bad = copy.deepcopy(ok)
    bad["result"]["verification"]["violations"] = 1
    assert checks.check_euclideanize(0, bad, {"rank_gap": False})
    gap = {"status": "fail", "result": {"rank_gap": True}}
    assert checks.check_euclideanize(1, gap, {"rank_gap": True}) == []
    assert checks.check_euclideanize(0, gap, {"rank_gap": True})


def test_digest_mismatch_fails_the_task():
    task = workloads.Task("mono", (), {"depth": 1, "rank": 2, "coef": [1, 1], "modulus": 2})
    text = json.dumps({"base": ["0", "0"], "ratios": [["2", "0"], ["0", "2"]], "length": 1})
    assert run.check(task, 0, text, None) == []
    assert run.check(task, 0, text, "0" * 64) == ["report differs from the stored digest"]
