"""Seeded task lists for the three benchmark workloads.

`generate(name, seed)` returns the tasks in run order and the input files
they read, as `{relative path: bytes}`.  The same seed gives the same argv
lists and the same file bytes.  The program under test sees only those argv
lists and files.

Each list is a sequence of rounds.  A round holds the same strata of task
sizes (scheme, window width, region radius, length, ...) in a seeded order,
with fresh seeded centres, window offsets, anchors and translates.  Fixing
the strata keeps the work per round nearly independent of the seed, so runs
with different seeds measure the same program on comparable inputs; the
seeded positions still change every point set, every certificate key and
every report.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction as F

WORKLOADS = ("enumerate", "construct", "meyer")

# Tasks per round, and rounds per task list.  A run measures whole rounds.
# Each list holds about four times the tasks a 30-second run completes at
# this commit on a 2-core machine (eight times for `meyer`, whose fresh
# windows would hit cached certificates if the list wrapped around).
ROUND_SIZE = {"enumerate": 27, "construct": 18, "meyer": 10}
ROUNDS = {"enumerate": 36, "construct": 24, "meyer": 100}

WORK_DIR = "perfbench/work"

SCHEMES = {
    "enumerate": ("fibonacci", "silver_mean", "ammann_beenker"),
    "construct": ("fibonacci", "silver_mean"),
    "meyer": ("fibonacci", "silver_mean"),
}
SCHEME_DIMS = {"fibonacci": (1, 1), "silver_mean": (1, 1), "ammann_beenker": (2, 2)}


@dataclass(frozen=True)
class Task:
    """One benchmark task.

    `kind` is `gen`, `find-ap`, `aprank`, `euclideanize` (CLI calls with
    `argv`) or `mono` (a library `mono_li_ap` call described by `spec`).
    `spec` carries what the output checks need to know about the input.
    """

    kind: str
    argv: tuple = ()
    spec: dict = field(default_factory=dict)


def lit(q: F) -> str:
    """Exact literal of a rational, in the CLI grammar."""
    q = F(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def box_arg(axes) -> str:
    return "x".join(f"[{lit(lo)},{lit(hi)}]" for lo, hi in axes)


def _grid(rng: random.Random, lo: int, hi: int, den: int) -> F:
    """Uniform rational in [lo, hi] on the grid of step 1/den."""
    return F(rng.randint(lo * den, hi * den), den)


# ---------------------------------------------------------------------------
# enumerate: one large `gen` enumeration per task
# ---------------------------------------------------------------------------

# (scheme, window width per axis, region radius or half-width)
_ENUM_STRATA = (
    [("fibonacci", w, r) for w in (F(1, 2), F(1), F(3, 2)) for r in (20, 40, 60)]
    + [("silver_mean", w, r) for w in (F(1, 2), F(1), F(3, 2)) for r in (20, 40, 60)]
    + [("ammann_beenker", w, h) for w in (F(1, 2), F(3, 4), F(1)) for h in (3, 4, 5)]
)


def _enumerate_task(rng, scheme, width, size) -> Task:
    d, m = SCHEME_DIMS[scheme]
    window = []
    for _ in range(m):
        lo = _grid(rng, -1, 0, 12)
        window.append((lo, lo + width))
    if d == 1:
        centre = _grid(rng, -200, 200, 4)
        region_arg = f"|x-({lit(centre)})|<={size}"
        region = ("ball", [centre], F(size))
    else:
        axes = []
        for _ in range(d):
            c = _grid(rng, -20, 20, 2)
            axes.append((c - size, c + size))
        region_arg = box_arg(axes)
        region = ("box", axes)
    argv = ("gen", "--cps", scheme, "--window", box_arg(window), "--region", region_arg)
    return Task("gen", argv, {"d": d, "m": m, "window": window, "region": region})


# ---------------------------------------------------------------------------
# construct: many small enumerations behind find-ap and mono_li_ap
# ---------------------------------------------------------------------------

# Window widths of the small (scheme, window) pool each round draws; the tasks
# of a round share it, so covering certificates are reused within a round.
# The ratio search runs on a window centred at 0 whose width depends only on
# these widths, so the pool keeps the cost of a round steady while window
# offsets move with the seed.
_POOL_WIDTHS = (("fibonacci", F(5, 4)), ("fibonacci", F(3, 2)),
                ("silver_mean", F(5, 4)), ("silver_mean", F(3, 2)))


def _construct_round(rng, pool) -> list[Task]:
    tasks = []
    for scheme, window in pool:
        win_arg = box_arg([window])
        rank = sum(SCHEME_DIMS[scheme])
        # three length-2 tasks (one with --oracle) and one length-3 task
        for length, oracle in ((2, False), (2, False), (2, True), (3, False)):
            anchor = _grid(rng, -150, 150, 3)
            argv = ["find-ap", "--cps", scheme, "--window", win_arg,
                    "--length", str(length), f"--at={lit(anchor)}"]
            if oracle:
                argv.append("--oracle")
            tasks.append(Task("find-ap", tuple(argv),
                              {"rank": rank, "length": length, "oracle": oracle}))
    # depth 1 on the wide fibonacci window, depth 2 on the wide silver_mean one
    for depth, (scheme, window) in ((1, pool[1]), (2, pool[3])):
        rank = sum(SCHEME_DIMS[scheme])
        tasks.append(Task("mono", (), {
            "scheme": scheme,
            "window": box_arg([window]),
            "depth": depth,
            "anchor": lit(_grid(rng, -150, 150, 3)),
            "coef": [rng.randint(1, 7) for _ in range(rank)],
            "modulus": 2,
            "rank": rank,
        }))
    return tasks


# ---------------------------------------------------------------------------
# meyer: aprank and euclideanize on seeded expression files
# ---------------------------------------------------------------------------

# One round: (command, window width, scheme, branches, euclideanize sample).
_MEYER_ROUND = (
    ("aprank", F(1), "fibonacci", 2, None),
    ("aprank", F(5, 4), "silver_mean", 3, None),
    ("aprank", F(3, 2), "fibonacci", 3, None),
    ("aprank", F(5, 4), "silver_mean", 2, None),
    ("euclideanize", F(1), "silver_mean", 2, "20"),
    ("euclideanize", F(5, 4), "fibonacci", 3, "30"),
    ("euclideanize", F(3, 2), "silver_mean", 3, "20"),
    ("euclideanize", F(5, 4), "fibonacci", 2, "30"),
    ("euclideanize", F(5, 4), "silver_mean", 2, "20"),
    ("rank_gap", F(1), "fibonacci", 2, "20"),
)


def _expr_payload(rng, scheme, width, branches, symbolic) -> dict:
    out = []
    for i in range(branches):
        lo = _grid(rng, -1, 0, 60)
        window = {"type": "box", "lo": [lit(lo)], "hi": [lit(lo + width)]}
        if symbolic and i == branches - 1:
            translate = {"symbolic": "s1", "approx": [repr(rng.randint(1, 9) * 3 ** 0.5)]}
        else:
            translate = [lit(F(rng.randint(-12, 12), rng.randint(1, 6)))]
        out.append({"translate": translate, "window": window})
    return {"cps": scheme, "branches": out}


def _meyer_round(rng, index) -> tuple[list[Task], dict]:
    tasks, files = [], {}
    plan = list(_MEYER_ROUND)
    rng.shuffle(plan)
    for j, (kind, width, scheme, branches, sample) in enumerate(plan):
        payload = _expr_payload(rng, scheme, width, branches, kind == "rank_gap")
        path = f"{WORK_DIR}/meyer/r{index:03d}-{j:02d}.json"
        files[path] = (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()
        if kind == "aprank":
            tasks.append(Task("aprank", ("aprank", "--expr", path, "--lengths", "2"),
                              {"rank": sum(SCHEME_DIMS[scheme]), "lengths": 2}))
        else:
            tasks.append(Task("euclideanize", ("euclideanize", "--expr", path, "--sample", sample),
                              {"rank_gap": kind == "rank_gap"}))
    return tasks, files


# ---------------------------------------------------------------------------

def generate(name: str, seed: int) -> tuple[list[Task], dict[str, bytes]]:
    """Task list and input files of one workload for one seed."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"perfbench:{name}:{seed}")
    tasks: list[Task] = []
    files: dict[str, bytes] = {}
    if name == "enumerate":
        for _ in range(ROUNDS[name]):
            strata = list(_ENUM_STRATA)
            rng.shuffle(strata)
            tasks.extend(_enumerate_task(rng, *s) for s in strata)
    elif name == "construct":
        for _ in range(ROUNDS[name]):
            pool = []
            for scheme, width in _POOL_WIDTHS:
                lo = _grid(rng, -1, 0, 60)
                pool.append((scheme, (lo, lo + width)))
            batch = _construct_round(rng, pool)
            rng.shuffle(batch)
            tasks.extend(batch)
    else:
        for r in range(ROUNDS[name]):
            batch, batch_files = _meyer_round(rng, r)
            tasks.extend(batch)
            files.update(batch_files)
    assert len(tasks) == ROUND_SIZE[name] * ROUNDS[name]
    return tasks, files
