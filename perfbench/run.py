"""End-to-end benchmark of apmeyer's CLI and library pipelines.

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports apmeyer from `src/`.  One
process is one run: a closed loop with one client and one thread calls
`apmeyer.cli.main(argv)` in-process (the `construct` workload also calls
`apmeyer.aprank.mono_li_ap`), starts the next task when the last one has
returned, and checks every output.  The loop runs whole rounds of tasks (see
`workloads.py`) and stops at the first round boundary after the program
calls have taken `--seconds` seconds; the benchmark's own checks are not
timed.

Every timed figure is scaled to a fixed machine speed: a short block of
pure-Python exact arithmetic (`reference_seconds`) is timed right before and
right after each task and each set-up, and the figure is multiplied by
`REFERENCE_NOMINAL_S` over the mean of the two.  Shared virtual machines
change CPU speed by up to about 20% from one second to the next, which moves
raw wall times between runs far more than the program does.

`--trace 0` prints the end-to-end metrics.  `--trace 1` alternates untraced
rounds with rounds in which every traced apmeyer function is wrapped (see
`tracing.py`), then times the exact kernel, and prints the per-layer metrics,
including the tracing overhead.  The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`.  See README.md for the workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import random
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
DEFAULT_SEED = 1
SETUP_REPEATS = 7
# Seconds `reference_seconds()` takes on the 2-core VM where baseline.json
# was taken; scaled times read as wall times on a machine of that speed.
REFERENCE_NOMINAL_S = 0.004
PACKAGE_MODULES = ("errors", "exact", "cps", "progression", "vdw", "aprank", "files", "cli")


class Program:
    """The apmeyer modules of one fresh import, by short name."""

    def __init__(self):
        for name in list(sys.modules):
            if name == "apmeyer" or name.startswith("apmeyer."):
                del sys.modules[name]
        importlib.import_module("apmeyer")
        self.modules = {name: importlib.import_module(f"apmeyer.{name}")
                        for name in PACKAGE_MODULES}
        self.modules["__init__"] = sys.modules["apmeyer"]

    def __getattr__(self, name):
        try:
            return self.modules[name]
        except KeyError:
            raise AttributeError(name) from None


def set_up(workload: str, seed: int):
    """Fresh import, scheme loading, input generation and input writing."""
    program = Program()
    tasks, files = workloads.generate(workload, seed)
    for scheme in workloads.SCHEMES[workload]:
        program.files.load_cps(scheme)
    for path, data in files.items():
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(data)
    return program, tasks


# ---------------------------------------------------------------------------
# machine speed
# ---------------------------------------------------------------------------

def _reference_block() -> int:
    acc, seen = Fraction(0), {}
    for i in range(1, 60):
        q = Fraction(i, i + 7) * Fraction(3, 5) + Fraction(i % 11, 13)
        acc += q - Fraction(1, i)
        key = (q.numerator % 97, i)
        seen[key] = seen.get(key, 0) + 1
    return acc.denominator + len(seen)


def reference_seconds() -> float:
    """Wall time of a fixed block of work like apmeyer's: Fractions, tuples, dicts."""
    start = time.perf_counter()
    for _ in range(5):
        _reference_block()
    return time.perf_counter() - start


def scaled(elapsed: float, before: float, after: float) -> float:
    """`elapsed` at the machine speed where the reference takes the nominal time."""
    return elapsed * REFERENCE_NOMINAL_S / ((before + after) / 2.0)


# ---------------------------------------------------------------------------
# one task
# ---------------------------------------------------------------------------

def _linear_colouring(coef, modulus):
    def colour(z):
        return sum(a * x for a, x in zip(coef, z)) % modulus
    return colour


def execute(program: Program, task: workloads.Task) -> tuple[int, str, str]:
    """Run one task; returns (exit code, report text, standard error text)."""
    if task.kind == "mono":
        spec = task.spec
        cps = program.files.load_cps(spec["scheme"])
        window = program.files.parse_window_arg(spec["window"])
        anchor = (program.exact.parse_quad(spec["anchor"]),)
        ap = program.aprank.mono_li_ap(cps, window, spec["depth"],
                                       _linear_colouring(spec["coef"], spec["modulus"]),
                                       anchor=anchor)
        return 0, json.dumps(program.files.ap_to_dict(ap), sort_keys=True), ""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = program.cli.main(list(task.argv))
        except SystemExit as exc:  # argparse rejected the argv
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def check(task: workloads.Task, code: int, text: str, digest) -> list[str]:
    try:
        if task.kind == "mono":
            problems = checks.check_mono(json.loads(text), task.spec)
        else:
            report = json.loads(text) if text.strip() else None
            problems = checks.CLI_CHECKS[task.kind](code, report, task.spec)
    except (ValueError, KeyError, TypeError) as exc:
        problems = [f"malformed report: {exc!r}"]
    if digest is not None and hashlib.sha256(text.encode()).hexdigest() != digest:
        problems.append("report differs from the stored digest")
    return problems


class Loop:
    """Closed loop over whole rounds of a task list: latencies and failures."""

    def __init__(self, program, tasks, round_size, digests=None):
        self.program = program
        self.tasks = tasks
        self.round_size = round_size
        self.digests = digests
        self.latencies: list[float] = []  # wall seconds
        self.scaled: list[float] = []  # seconds at the nominal machine speed
        self.indices: list[int] = []
        self.round_times: list[float] = []  # scaled seconds
        self.failed = 0
        self.report_bytes = 0
        self.busy = 0.0
        self.problems: list[str] = []

    @property
    def wrapped(self) -> bool:
        return any(i >= len(self.tasks) for i in self.indices)

    def step(self, i: int, tracer=None) -> None:
        task = self.tasks[i % len(self.tasks)]
        if tracer is not None:
            tracer.task = i
        before = reference_seconds()
        start = time.perf_counter()
        try:
            code, text, err = execute(self.program, task)
        except Exception:  # a crash in the program is a failed task
            code, text, err = None, "", traceback.format_exc()
            problems = ["raised an exception"]
        else:
            problems = None
        elapsed = time.perf_counter() - start
        after = reference_seconds()
        self.busy += elapsed
        self.latencies.append(elapsed)
        self.scaled.append(scaled(elapsed, before, after))
        self.indices.append(i)
        self.report_bytes += len(text.encode())
        if problems is None:
            digest = None
            if self.digests is not None:
                digest = self.digests[i % len(self.tasks)]
            problems = check(task, code, text, digest)
        if problems:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"task {i} {' '.join(task.argv) or task.spec}: "
                                     + "; ".join(problems[:3]) + (f"\n{err}" if err else ""))

    def run_round(self, r: int, tracer=None) -> None:
        first = len(self.scaled)
        for i in range(r * self.round_size, (r + 1) * self.round_size):
            self.step(i, tracer)
        self.round_times.append(sum(self.scaled[first:]))

    @property
    def tasks_per_s(self) -> float:
        """Tasks per second of scaled program time, over the whole run."""
        return len(self.scaled) / sum(self.scaled)


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least 10 of n tasks beyond it."""
    for p in range(99, 49, -1):
        if n - math.ceil(p * n / 100) >= 10:
            return p
    return 50


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-14:
            break
    return h


def beta_cdf(a: float, b: float, x: float) -> float:
    """Regularised incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _beta_cf(a, b, x) / a
    return 1.0 - math.exp(log_front) * _beta_cf(b, a, 1.0 - x) / b


def percentile(values, p: int) -> float:
    """Harrell-Davis estimate of the p-th percentile.

    A weighted mean of all order statistics, with weights from the
    Beta(q(n+1), (1-q)(n+1)) distribution, q = p/100.  Task costs come in
    strata, so a single order statistic jumps from one stratum to the next
    when a few tasks change place; this estimate moves smoothly instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        return ordered[0]
    a, b = p / 100 * (n + 1), (1 - p / 100) * (n + 1)
    cdf = [beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], ordered))


# ---------------------------------------------------------------------------
# exact kernel rows
# ---------------------------------------------------------------------------

def kernel_rows(program: Program, seed: int) -> dict:
    """ns per public QuadScalar operation and per decimal_str call.

    Operands are star-map coordinates of seeded lattice points of fibonacci
    (D=5) and silver_mean (D=2), the schemes every workload uses.
    """
    rng = random.Random(f"perfbench:kernel:{seed}")
    triples = []
    for scheme in ("fibonacci", "silver_mean"):
        cps = program.cps.builtin(scheme)
        values = []
        for _ in range(128):
            p = cps.star((rng.randint(-60, 60), rng.randint(-60, 60)))
            values.extend([p.physical[0], p.internal[0]])
        triples.extend(zip(values, values[1:], values[2:]))
    decimal_str = program.exact.decimal_str

    def muladd():
        for x, y, z in triples:
            x * y + z

    def sign():
        for x, _, _ in triples:
            x.sign()

    def floor():
        for x, _, _ in triples:
            math.floor(x)

    def decimal():
        for x, _, _ in triples:
            decimal_str(x)

    rows = {}
    for name, fn in (("muladd", muladd), ("sign", sign), ("floor", floor),
                     ("decimal_str", decimal)):
        samples = []
        for _ in range(7):
            start = time.perf_counter()
            fn()
            samples.append((time.perf_counter() - start) / len(triples) * 1e9)
        rows[f"exact.kernel.{name}_ns"] = (statistics.median(samples), "ns")
    return rows


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def load_digests(workload: str, seed: int):
    if seed != DEFAULT_SEED or not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text()).get(workload)


def end_to_end(loop: Loop, setup_s: float) -> tuple[dict, list[str]]:
    ms = [x * 1000.0 for x in loop.scaled]
    p = tail_percentile(len(ms))
    tail = percentile(ms, p)
    beyond = sum(1 for x in ms if x > tail)
    metrics = {
        "tasks_per_s": (loop.tasks_per_s, "1/s"),
        "latency_p50_ms": (statistics.median(ms), "ms"),
        "latency_tail_ms": (tail, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = [
        f"tasks: {len(ms)} in {len(loop.round_times)} rounds, "
        f"{loop.busy:.3f} s of program time, {sum(loop.scaled):.3f} s scaled",
        f"wall-clock latency p50 {1000.0 * statistics.median(loop.latencies):.3f} ms, unscaled",
        "round rates (1/s): " + " ".join(f"{loop.round_size / t:.3f}" for t in loop.round_times),
        f"latency_tail_ms is p{p}: {beyond} of {len(ms)} tasks took longer",
    ]
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "apmeyer" / "__init__.py").is_file():
        sys.stderr.write(f"apmeyer sources not found under {SRC}\n")
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))

    setups = []
    for _ in range(SETUP_REPEATS):
        before = reference_seconds()
        start = time.perf_counter()
        program, tasks = set_up(args.workload, args.seed)
        elapsed = time.perf_counter() - start
        setups.append(scaled(elapsed, before, reference_seconds()))
    setup_s = statistics.median(setups)
    digests = load_digests(args.workload, args.seed)
    round_size = workloads.ROUND_SIZE[args.workload]

    if not args.trace:
        loop = Loop(program, tasks, round_size, digests)
        while loop.busy < args.seconds:
            loop.run_round(len(loop.round_times))
        metrics, notes = end_to_end(loop, setup_s)
        loops = [loop]
    else:
        # Untraced and traced rounds alternate, so a change in machine speed
        # during the run reaches both sides alike.
        plain = Loop(program, tasks, round_size, digests)
        traced = Loop(program, tasks, round_size, digests)
        tracer = tracing.Tracer()
        r = 0
        while plain.busy + traced.busy < args.seconds:
            plain.run_round(r)
            tracer.install(program.modules)
            try:
                traced.run_round(r + 1, tracer)
            finally:
                tracer.uninstall()
            r += 2
        metrics = kernel_rows(program, args.seed)
        os.makedirs(workloads.WORK_DIR, exist_ok=True)
        tracer.write(Path(workloads.WORK_DIR) / f"trace-{args.workload}-{args.seed}.jsonl")
        n = len(traced.latencies)
        traced_tasks = [tasks[i % len(tasks)] for i in traced.indices]
        euclid = sum(1 for t in traced_tasks if t.kind == "euclideanize" and not t.spec["rank_gap"])
        metrics.update(tracing.layer_metrics(tracer, n, euclid))
        metrics["cli.report_bytes"] = (traced.report_bytes / n, "bytes")
        metrics["trace.tasks_per_s_untraced"] = (plain.tasks_per_s, "1/s")
        metrics["trace.tasks_per_s_traced"] = (traced.tasks_per_s, "1/s")
        slowdown = statistics.median(t / u for t, u in zip(traced.round_times, plain.round_times))
        metrics["trace.overhead_pct"] = (100.0 * (slowdown - 1.0), "%")
        notes = [f"rounds: {len(plain.round_times)} untraced and {len(traced.round_times)} "
                 f"traced, alternating; {n} traced tasks, {len(tracer.spans)} spans"]
        loops = [plain, traced]

    attempted = sum(len(loop.latencies) for loop in loops)
    failed = sum(loop.failed for loop in loops)
    print(f"workload {args.workload}, seed {args.seed}, "
          f"digests {'checked' if digests else 'not stored for this seed'}")
    for loop in loops:
        if loop.wrapped:
            print(f"note: the task list ran out after {len(tasks)} tasks and was reused")
        for problem in loop.problems:
            print(f"FAILED {problem}")
    for line in notes:
        print(line)
    print(f"fail_rate: {failed / attempted:.4f} ({failed} of {attempted} tasks)")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
