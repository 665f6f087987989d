"""Record the sha256 of every report of the default seed into digests.json.

    python3 perfbench/record_digests.py [workload ...]

Runs every task of each named workload (all by default) once, checks it, and
stores the digest of its report.  `run.py` then requires byte-identical
reports on the default seed.  Re-record only when the task lists change; a
change to apmeyer must leave every report as it is.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import run
import workloads


def record(workload: str) -> list[str]:
    program, tasks = run.set_up(workload, run.DEFAULT_SEED)
    digests = []
    for i, task in enumerate(tasks):
        code, text, _ = run.execute(program, task)
        problems = run.check(task, code, text, None)
        if problems:
            raise SystemExit(f"{workload} task {i} fails its checks: {problems}")
        digests.append(hashlib.sha256(text.encode()).hexdigest())
    return digests


def main(argv) -> int:
    names = argv or list(workloads.WORKLOADS)
    os.chdir(run.ROOT)
    sys.path.insert(0, str(run.SRC))
    for name in names:
        digests = record(name)
        stored = json.loads(run.DIGESTS.read_text()) if run.DIGESTS.is_file() else {}
        stored[name] = digests
        run.DIGESTS.write_text(json.dumps(stored, indent=0, sort_keys=True) + "\n")
        print(f"{name}: {len(digests)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
