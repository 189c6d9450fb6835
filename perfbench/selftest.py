"""Self-test of the benchmark's checker on tiny runs.

    python3 perfbench/selftest.py

For every workload it checks that
1. a tiny run passes its exact checks and exits 0;
2. the same tiny run, with a deliberately wrong expected value injected into
   the benchmark's own comparison (``workloads.compare``, never the package),
   reports ``failed`` > 0 and ``correct`` false, prints a reproducer and
   exits non-zero;
3. two seeds give different inputs.
Exits 0 when all of these hold, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads as wl  # noqa: E402

SECONDS = "0.3"


def tiny_run(workload: str, seed: int) -> tuple[int, dict, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", SECONDS])
    return code, json.loads(out.getvalue().strip().splitlines()[-1]), err.getvalue()


def wrong(want):
    return (not want) if isinstance(want, bool) else want + 1


def main() -> int:
    run.SETUP_REPEATS = 1  # the self-test checks answers, not set-up time
    real_compare = wl.compare
    problems = []
    for workload in sorted(wl.SETUP):
        code, result, _ = tiny_run(workload, 3)
        if code != 0 or result["failed"] != 0 or not result["correct"]:
            problems.append(f"{workload}: clean run failed: exit {code}, {result}")

        wl.compare = lambda triples: real_compare([(w, g, wrong(x)) for w, g, x in triples])
        try:
            code, result, err = tiny_run(workload, 3)
        finally:
            wl.compare = real_compare
        if code == 0 or result["failed"] == 0 or result["correct"]:
            problems.append(f"{workload}: injected wrong value not reported: exit {code}, {result}")
        if f"REPRO workload={workload} seed=3 item=0 " not in err or "polygon={" not in err:
            problems.append(f"{workload}: no reproducer line for the injected failure")

        m = run.load_package()
        inputs = [wl.SETUP[workload](m, seed) for seed in (3, 4)]
        vertices = [[g.polygon.vertices for g in i.groups] for i in inputs]
        if vertices[0] == vertices[1]:
            problems.append(f"{workload}: seeds 3 and 4 gave the same inputs")
        print(f"selftest: {workload} checked", file=sys.stderr)
    for p in problems:
        print(f"selftest: FAIL {p}", file=sys.stderr)
    print("selftest: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
