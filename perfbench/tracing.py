"""Tracing of apmeyer from outside the program.

`Tracer.install` wraps public functions of the `exact`, `cps`, `progression`,
`vdw`, `aprank`, `files` and `cli` modules.  Modules import each other's
functions by name (`aprank` does `from .cps import enumerate_model_set`), so
each wrapper replaces the function in every module namespace that binds it,
not only in the module that defines it.  Spans (name, start, end, parent,
task) and counter snapshots are kept in memory; `write` saves them when the
run ends and `layer_metrics` turns them into per-layer figures.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass

# Counters are incremented by wrappers that record no span, because these
# functions run too often for a span each.  Every span snapshots the
# counters when it opens and closes, so a count is attributed to every span
# that encloses it.
COUNTERS = ("quad_new", "star", "grid_points", "decimal_str", "budget_exceeded")
_COUNTED = (
    ("exact", "QuadScalar.__init__", "quad_new"),
    ("cps", "CutProjectScheme.star", "star"),
    ("vdw", "grid_points", "grid_points"),
    ("exact", "decimal_str", "decimal_str"),
)

# (module, attribute, span name, summary of the return value kept on the span)
_SPANNED = (
    ("exact", "rank_over_Q", "exact.rank_over_Q", None),
    ("cps", "enumerate_model_set", "cps.enumerate", len),
    ("cps", "CutProjectScheme.inverse_matrix", "cps.inverse_matrix", None),
    ("progression", "ap_points", "progression.ap_points", None),
    ("progression", "ap_rank", "progression.ap_rank", None),
    ("vdw", "find_mono_grid", "vdw.find_mono_grid", lambda grid: grid is not None),
    ("aprank", "independent_ratios", "aprank.independent_ratios", None),
    ("aprank", "covering_radius_certificate", "aprank.cover", None),
    ("aprank", "li_ap_in_model_set", "aprank.li_ap_in_model_set", None),
    ("aprank", "mono_li_ap", "aprank.mono_li_ap", None),
    ("aprank", "li_ap_in_meyer", "aprank.li_ap_in_meyer", None),
    ("aprank", "aprank_bounds", "aprank.aprank_bounds", None),
    ("aprank", "sample_module_rank", "aprank.sample_module_rank", None),
    ("aprank", "euclideanize", "aprank.euclideanize", None),
    ("aprank", "verify_euclideanization", "aprank.verify_euclideanization", None),
    ("files", "load_cps", "files.parse", None),
    ("files", "load_expr", "files.parse", None),
    ("files", "parse_window_arg", "files.parse", None),
    ("files", "parse_region", "files.parse", None),
    ("cli", "main", "cli.main", None),
)


@dataclass
class Span:
    name: str
    parent: int  # index into the span list, -1 for a root
    task: int
    start: float
    end: float = 0.0
    counts_open: tuple = ()
    counts_close: tuple = ()
    out: object = None


class Tracer:
    """Spans and counters for calls into apmeyer, recorded in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts = [0] * len(COUNTERS)
        self.task = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name, fn, summary, budget_error):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        budget_index = COUNTERS.index("budget_exceeded")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, self.task, 0.0,
                        counts_open=tuple(counts))
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                out = fn(*args, **kwargs)
            except budget_error as exc:
                # count each budget failure once, where it first leaves a span
                if not getattr(exc, "_perfbench_counted", False):
                    exc._perfbench_counted = True
                    counts[budget_index] += 1
                raise
            finally:
                span.end = clock()
                stack.pop()
                span.counts_close = tuple(counts)
            if summary is not None:
                span.out = summary(out)
            return out

        return traced

    def _count_wrapper(self, counter, fn):
        counts = self.counts
        index = COUNTERS.index(counter)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[index] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching -----------------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap the traced functions in the given `{short name: module}` map.

        The map must hold every module of the package, so that a function
        imported by name into another module is replaced there too.
        """
        budget_error = modules["errors"].BudgetExceeded
        for mod, attr, counter in _COUNTED:
            self._patch(modules, mod, attr, lambda fn, c=counter: self._count_wrapper(c, fn))
        for mod, attr, name, summary in _SPANNED:
            self._patch(modules, mod, attr,
                        lambda fn, n=name, s=summary: self._span_wrapper(n, fn, s, budget_error))

    def _patch(self, modules, mod, attr, make_wrapper) -> None:
        owner = modules[mod]
        if "." in attr:
            cls_name, attr = attr.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, make_wrapper(original))
            self._undo.append((cls, attr, original))
            return
        original = getattr(owner, attr)
        wrapper = make_wrapper(original)
        for module in modules.values():
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._undo.append((module, key, original))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        """One JSON object per span, in opening order."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps({
                    "name": span.name, "start": span.start, "end": span.end,
                    "parent": span.parent, "task": span.task,
                    "counts": dict(zip(COUNTERS, (b - a for a, b in
                                                  zip(span.counts_open, span.counts_close)))),
                }) + "\n")


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def children_of(spans) -> list[list[int]]:
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(i)
    return children


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = children_of(spans)
    out = []
    for span, kids in zip(spans, children):
        intervals = sorted((max(spans[k].start, span.start), min(spans[k].end, span.end))
                           for k in kids)
        covered = 0.0
        reach = span.start
        for lo, hi in intervals:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((span.end - span.start) - covered)
    return out


def _delta(span, counter) -> int:
    i = COUNTERS.index(counter)
    return span.counts_close[i] - span.counts_open[i]


def layer_metrics(tracer: Tracer, tasks: int, euclideanize_tasks: int) -> dict:
    """Per-layer figures of a traced run, as `{name: (value, unit)}`.

    Times and counts are per task unless the name is a ratio;
    `aprank.verify_euclideanization.*` is per euclideanize task that does not
    stop at a rank gap.  A layer the workload never calls reads 0.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    children = children_of(spans)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)

    def ids(name):
        return by_name.get(name, [])

    def ms(indices, own=False):
        total = sum(selfs[i] if own else spans[i].end - spans[i].start for i in indices)
        return 1000.0 * total

    def kids_named(i, name):
        return sum(1 for k in children[i] if spans[k].name == name)

    def per(x, base):
        return x / base if base else 0.0

    enum = ids("cps.enumerate")
    stars = sum(_delta(spans[i], "star") for i in enum)
    points = sum(spans[i].out for i in enum)
    cover = ids("aprank.cover")
    cover_hits = [i for i in cover if kids_named(i, "cps.enumerate") == 0]
    grids = ids("vdw.find_mono_grid")
    verify = ids("aprank.verify_euclideanization")
    cli = ids("cli.main")

    m = {
        "exact.quad_new": (per(tracer.counts[COUNTERS.index("quad_new")], tasks), "count"),
        "exact.rank_over_Q.ms": (per(ms(ids("exact.rank_over_Q")), tasks), "ms"),
        "cps.enumerate.calls": (per(len(enum), tasks), "count"),
        "cps.enumerate.self_ms": (per(ms(enum, own=True), tasks), "ms"),
        "cps.enumerate.star_calls": (per(stars, tasks), "count"),
        "cps.enumerate.points": (per(points, tasks), "count"),
        "cps.enumerate.yield": (per(points, stars), "ratio"),
        "cps.enumerate.candidates_per_point": (per(stars, points), "ratio"),
        "cps.inverse_matrix.ms": (per(ms(ids("cps.inverse_matrix")), tasks), "ms"),
        "aprank.independent_ratios.ms": (per(ms(ids("aprank.independent_ratios")), tasks), "ms"),
        "aprank.independent_ratios.rho_doublings": (per(sum(
            kids_named(i, "cps.enumerate") - 1 for i in ids("aprank.independent_ratios")),
            tasks), "count"),
        "aprank.cover.ms": (per(ms(cover), tasks), "ms"),
        "aprank.cover.hit_ratio": (per(len(cover_hits), len(cover)), "ratio"),
        "aprank.cover.task_reuse_share": (
            per(len({spans[i].task for i in cover_hits}), tasks), "ratio"),
        "aprank.li_ap_in_model_set.self_ms": (
            per(ms(ids("aprank.li_ap_in_model_set"), own=True), tasks), "ms"),
        "aprank.base.escalations": (per(sum(
            kids_named(i, "cps.enumerate") - 1 for i in ids("aprank.li_ap_in_model_set")),
            tasks), "count"),
        "aprank.mono.deepenings": (per(sum(
            kids_named(i, "aprank.li_ap_in_model_set") - 1 for i in ids("aprank.mono_li_ap")),
            tasks), "count"),
        "aprank.sample_module_rank.ms": (per(ms(ids("aprank.sample_module_rank")), tasks), "ms"),
        "aprank.verify_euclideanization.calls": (per(len(verify), euclideanize_tasks), "count"),
        "aprank.verify_euclideanization.ms": (per(ms(verify), euclideanize_tasks), "ms"),
        "aprank.budget_exceeded": (
            per(tracer.counts[COUNTERS.index("budget_exceeded")], tasks), "count"),
        "progression.ap_points.ms": (per(ms(ids("progression.ap_points")), tasks), "ms"),
        "progression.ap_rank.ms": (per(ms(ids("progression.ap_rank")), tasks), "ms"),
        "vdw.find_mono_grid.ms": (per(ms(grids), tasks), "ms"),
        "vdw.grids_tested": (per(sum(_delta(spans[i], "grid_points") for i in grids), tasks),
                             "count"),
        "vdw.found_ratio": (per(sum(1 for i in grids if spans[i].out), len(grids)), "ratio"),
        "files.parse.ms": (per(ms(ids("files.parse")), tasks), "ms"),
        "cli.self_ms": (per(ms(cli, own=True), tasks), "ms"),
        "cli.decimal_str.calls": (per(sum(_delta(spans[i], "decimal_str") for i in cli), tasks),
                                  "count"),
    }
    return m
