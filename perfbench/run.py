"""Campaign benchmark for ``chord_euler``.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload thm3-scan --seed 1 --seconds 30 --trace 0

One workload runs in this process, on one thread, as a closed loop with one
caller: the next item starts when the previous one returns.  ``--trace 0``
measures the end-to-end metrics; ``--trace 1`` runs the traced sample and
reports the per-layer metrics.  The last line of stdout is one JSON object;
reproducers and summaries go to stderr.  Exit codes: 0 all checks passed,
1 a check failed or an item raised, 2 the package could not be loaded.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "chord_euler"
MODULES = ("geometry", "chords", "nc_euler", "partition", "classes", "catalan", "generators")
SETUP_REPEATS = 3
PREDICATE_TRIPLES = 2000
PREDICATE_ROUNDS = 7
LATENCY_BIN = math.log(1.001)
CHUNK_S = 0.5  # the host reference is measured between chunks of this much work
REFERENCE_NOMINAL_S = 0.008  # the reference's time on a quiet core of the baseline host


class PackageMissing(RuntimeError):
    pass


def load_package() -> SimpleNamespace:
    """Import the package from this checkout's ``src``, dropping any earlier import."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise PackageMissing(f"no {PACKAGE} package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    pkg = importlib.import_module(PACKAGE)
    if not Path(pkg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise PackageMissing(f"{PACKAGE} was imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES})


def reference_s() -> float:
    """Wall time of a fixed piece of stdlib work (Fraction arithmetic), GC off.

    It shares no code with the package, so its time follows only the speed of
    the host, which on a shared machine swings by a third from one minute to
    the next.  Timed work is scaled by REFERENCE_NOMINAL_S / (this time,
    measured just before and just after it): the benchmark's seconds are
    seconds of a host running at the nominal reference speed.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(6):
            x = Fraction(1, 3)
            for i in range(300):
                x = x * Fraction(i + 2, i + 1) - Fraction(1, i + 3)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def host_scale(before: float, after: float) -> float:
    return REFERENCE_NOMINAL_S / ((before + after) / 2)


def setup(workload: str, seed: int):
    """Import plus input generation, repeated; returns the last inputs and the times."""
    setup_s, generator_s = [], []
    m = inputs = None
    for _ in range(SETUP_REPEATS):
        m = inputs = None
        before = reference_s()
        t0 = time.perf_counter()
        m = load_package()
        inputs = wl.SETUP[workload](m, seed)
        wall = time.perf_counter() - t0
        setup_s.append(wall * host_scale(before, reference_s()))
        generator_s.append(inputs.generator_s)
    return m, inputs, statistics.median(setup_s), statistics.median(generator_s)


class Run:
    """Items attempted by one loop, their latencies and their failures.

    Work is timed in chunks of about CHUNK_S seconds with the host reference
    measured between them; each chunk's time and latencies are scaled by
    :func:`host_scale`.  Latencies go into a histogram with bins 0.1% wide
    rather than a list, so that memory does not grow with the number of items
    and a faster program does not read as a bigger one in ``peak_rss_mb``.
    """

    def __init__(self):
        self.attempted = 0
        self.latency_bins: Counter[int] = Counter()
        self.failed = 0
        self.faces = 0
        self.subsets = 0
        self.wall_s = 0.0  # timed wall time, references excluded
        self.host_s = 0.0  # the same, in seconds at the nominal reference speed
        self.reference_s: list[float] = []
        self._chunk: list[int] = []
        self._chunk_start = 0.0

    def open_chunk(self) -> None:
        self.reference_s.append(reference_s())
        self._chunk_start = time.perf_counter()

    def record(self, ns: int) -> None:
        self.attempted += 1
        self._chunk.append(ns)
        if time.perf_counter() - self._chunk_start >= CHUNK_S:
            self.close_chunk()
            self.open_chunk()

    def close_chunk(self) -> None:
        wall = time.perf_counter() - self._chunk_start
        self.reference_s.append(reference_s())
        scale = host_scale(self.reference_s[-2], self.reference_s[-1])
        self.wall_s += wall
        self.host_s += wall * scale
        for ns in self._chunk:
            self.latency_bins[int(math.log(max(ns * scale, 1)) / LATENCY_BIN)] += 1
        self._chunk = []

    def latency_ms(self, q: float) -> float:
        """The latency at quantile ``q`` (the centre of its bin)."""
        seen = 0
        for b in sorted(self.latency_bins):
            seen += self.latency_bins[b]
            if seen >= q * self.attempted:
                break
        return math.exp((b + 0.5) * LATENCY_BIN) / 1e6


def loop(m, inputs, seed: int, seconds: float | None, groups: int | None = None,
         tracer: Tracer | None = None, run: Run | None = None) -> Run:
    """Run items in pass order until ``seconds`` elapse or ``groups`` groups are done."""
    name = inputs.name
    run_item = wl.RUN[name]
    run = run or Run()
    run.open_chunk()
    deadline = None if seconds is None else time.perf_counter() + seconds
    g = 0
    done = False
    while not done and (groups is None or g < groups):
        group = inputs.groups[g % len(inputs.groups)]
        poly = group.polygon.rotated(0)  # fresh object: cold universe and caches
        if tracer is not None:
            tracer.item_polygon = poly
        for item in group.items:
            index = run.attempted
            if tracer is not None:
                tracer.item = index
            t0 = time.perf_counter_ns()
            try:
                answer = run_item(m, poly, item)
            except Exception:  # an item that raises counts as failed; keep running
                run.record(time.perf_counter_ns() - t0)
                problems = [traceback.format_exc().strip().splitlines()[-1]]
            else:
                run.record(time.perf_counter_ns() - t0)
                problems = wl.compare(wl.expectations(name, m, poly, item, answer))
                run.faces += wl.output_size(name, item, answer)
            run.subsets += wl.submasks(name, item)
            if problems:
                run.failed += 1
                report_failure(m, name, seed, index, group, item, problems)
            if deadline is not None and time.perf_counter() >= deadline:
                done = True
                break
        g += 1
    run.close_chunk()
    return run


def report_failure(m, name, seed, index, group, item, problems) -> None:
    from chord_euler.cli import polygon_to_json

    print(
        f"REPRO workload={name} seed={seed} item={index} n={group.polygon.n} "
        f"{wl.describe(name, m, group, item)} problem={'; '.join(problems)!r} "
        f"polygon={json.dumps(polygon_to_json(group.polygon), separators=(',', ':'))}",
        file=sys.stderr,
    )


def predicate_ns(m, inputs, groups: int) -> float:
    """Median ns per ``orientation`` call over the workload's own vertex triples."""
    triples = []
    for group in inputs.groups[:groups]:
        triples.extend(combinations(group.polygon.vertices, 3))
        if len(triples) >= PREDICATE_TRIPLES:
            break
    triples = triples[:PREDICATE_TRIPLES]
    orientation = m.geometry.orientation
    rounds = []
    for _ in range(PREDICATE_ROUNDS):
        t0 = time.perf_counter_ns()
        for p, q, r in triples:
            orientation(p, q, r)
        rounds.append((time.perf_counter_ns() - t0) / len(triples))
    return statistics.median(rounds)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(run: Run, setup_s: float) -> dict:
    return {
        "items_per_s": metric(run.attempted / run.host_s, "items/s"),
        "item_p50_ms": metric(run.latency_ms(0.5), "ms"),
        "item_p90_ms": metric(run.latency_ms(0.9), "ms"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def repeat(m, inputs, seed: int, groups: int, seconds: float, tracer=None) -> tuple[Run, int]:
    """Run the first ``groups`` groups over and over, at least once, for ``seconds``."""
    run, reps = Run(), 0
    while reps == 0 or run.wall_s < seconds:
        loop(m, inputs, seed, None, groups, tracer, run)
        reps += 1
    return run, reps


def traced(m, inputs, seed: int, seconds: float, generator_s: float,
           workload: str) -> tuple[list[Run], dict]:
    """The traced sample, repeated untraced and then traced for half of ``seconds`` each.

    Per-layer figures are per sample: totals divided by the traced repeats.
    """
    groups = wl.TRACE_GROUPS[workload]
    pred_ns = predicate_ns(m, inputs, groups)
    plain, _ = repeat(m, inputs, seed, groups, seconds / 2)
    tracer = Tracer()
    tracer.install(m)
    traced_run, reps = repeat(m, inputs, seed, groups, seconds / 2, tracer)
    layers = {name: metric(v / reps, unit) for name, (v, unit) in tracer.layer_metrics().items()}
    layers["geometry.predicate_ns"] = metric(pred_ns, "ns")
    layers["nc_euler.fvector_faces"] = metric(traced_run.faces / reps, "count")
    layers["partition.subsets"] = metric(traced_run.subsets / reps, "count")
    layers["generators.polygon_s"] = metric(generator_s, "s")
    layers["trace.items"] = metric(traced_run.attempted / reps, "count")
    untraced_rate = plain.attempted / plain.host_s
    traced_rate = traced_run.attempted / traced_run.host_s
    layers["trace.untraced_items_per_s"] = metric(untraced_rate, "items/s")
    layers["trace.traced_items_per_s"] = metric(traced_rate, "items/s")
    layers["trace.overhead"] = metric(untraced_rate / traced_rate, "ratio")
    tracer.write_spans(ROOT / ".perfbench_out" / f"spans-{workload}-seed{seed}.tsv")
    summarize_trace(tracer, traced_run.wall_s, reps)
    return [plain, traced_run], layers


def summarize_trace(tracer: Tracer, wall_s: float, reps: int) -> None:
    self_ns, total_ns, calls = tracer.times()
    print(f"trace: {wall_s:.3f} s traced wall time over {reps} repeats of the sample; "
          "self time by span:", file=sys.stderr)
    for name in sorted(self_ns, key=self_ns.get, reverse=True):
        print(f"  {name:32s} self {self_ns[name] / 1e9:9.4f} s  total {total_ns[name] / 1e9:9.4f} s"
              f"  calls {calls[name]}", file=sys.stderr)
    for name, ns in tracer.timer_ns.items():
        print(f"  {name:32s} time in (all universes) {ns / 1e9:9.4f} s", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.SETUP))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        m, inputs, setup_s, generator_s = setup(args.workload, args.seed)
    except PackageMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        runs, metrics = traced(m, inputs, args.seed, args.seconds, generator_s, args.workload)
    else:
        run = loop(m, inputs, args.seed, args.seconds)
        runs, metrics = [run], end_to_end(run, setup_s)
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    per_pass = sum(len(g.items) for g in inputs.groups)
    wall_rate = runs[-1].attempted / runs[-1].wall_s
    reference_ms = statistics.median(runs[-1].reference_s) * 1e3
    print(f"perfbench: {args.workload} seed={args.seed}: {attempted} items "
          f"({per_pass} per pass), {failed} failed; {wall_rate:.2f} items per wall "
          f"second, host reference {reference_ms:.2f} ms (nominal "
          f"{REFERENCE_NOMINAL_S * 1e3:.0f} ms)", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
