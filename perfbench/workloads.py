"""The three campaign workloads: input generation, the timed item, the exact check.

A workload's inputs form one *pass*: a list of groups, each holding one
polygon and the items run on it.  The timed loop cycles through the pass and
gives every group visit a fresh copy of its polygon (``rotated(0)``), so the
chord universe and the engine caches start cold on every visit and every
pass costs the same.

Every item returns the values its routes computed; :func:`expectations`
pairs each value with one computed by a route that shares no code with it,
and :func:`compare` turns the pairs into failure messages.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any

THM3_POLYGONS = 600  # n = 5..9 cycling; 4,200 vertex instances
THM2_POLYGONS = 200  # n = 4..8 cycling
THM2_SETS = 16  # non-crossing diagonal sets J per polygon, drawn with the seed
# Random non-convex polygons, n = 10..13 cycling.  At n = 14 one polygon can
# take a second (its f-vectors reach 10^6 faces), and the few such polygons a
# run happened to meet set its figures.
FVEC_RANDOM = 200
FVEC_CONVEX_ROUNDS = 3  # the 15 convex a-diagonal cases, repeated per pass

# The traced sample: the first groups of the pass that the traced run covers.
TRACE_GROUPS = {"thm3-scan": 600, "thm2-sets": 40, "fvector-scale": 100}


@dataclass
class Group:
    polygon: Any
    items: list  # workload-specific item descriptors


@dataclass
class Workload:
    name: str
    groups: list[Group]
    generator_s: float  # time spent inside the polygon generators


def _polygon_seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.getrandbits(48) for _ in range(count)]


def _timed(clock: list[float], fn, *args):
    t0 = time.perf_counter()
    try:
        return fn(*args)
    finally:
        clock[0] += time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Setup: the inputs of one pass


def setup_thm3(m: SimpleNamespace, seed: int) -> Workload:
    clock = [0.0]
    groups = []
    for k, s in enumerate(_polygon_seeds(seed, THM3_POLYGONS)):
        poly = _timed(clock, m.generators.random_simple_polygon, 5 + k % 5, s)
        groups.append(Group(poly, [None]))
    return Workload("thm3-scan", groups, clock[0])


def setup_thm2(m: SimpleNamespace, seed: int) -> Workload:
    # Every J of the large polygons would let a few polygons fill a run (an
    # 8-gon can have 170 sets), so a run's figures would hang on their shapes.
    # A uniform sample of THM2_SETS sets per polygon spreads a run over the
    # whole pass and keeps the mix of |J| within each polygon.
    clock = [0.0]
    groups = []
    rng = random.Random(f"thm2-sets {seed}")
    for k, s in enumerate(_polygon_seeds(seed, THM2_POLYGONS)):
        poly = _timed(clock, m.generators.random_simple_polygon, 4 + k % 5, s)
        uni = m.chords.universe_of(poly)
        d_mask = uni.kind_mask(m.chords.ChordKind.DIAGONAL)
        j_masks = list(m.nc_euler.iter_nc_masks(uni.crossing_masks, d_mask))
        if len(j_masks) > THM2_SETS:
            j_masks = [j_masks[t] for t in sorted(rng.sample(range(len(j_masks)), THM2_SETS))]
        groups.append(Group(poly, j_masks))
    return Workload("thm2-sets", groups, clock[0])


def convex_cases() -> list[tuple[int, int]]:
    """(a, n) with a*(n+1)+2 <= 12 for a = 1..3: the criterion-07 geometry."""
    return [(a, n) for a in (1, 2, 3) for n in range(1, 11) if a * (n + 1) + 2 <= 12]


def setup_fvector(m: SimpleNamespace, seed: int) -> Workload:
    clock = [0.0]
    random_groups = []
    seeds = iter(_polygon_seeds(seed, 4 * FVEC_RANDOM))
    while len(random_groups) < FVEC_RANDOM:
        poly = _timed(clock, m.generators.random_simple_polygon,
                      10 + len(random_groups) % 4, next(seeds))
        if not poly.is_convex:
            random_groups.append(Group(poly, [None]))
    convex = []
    for a, n in convex_cases():
        poly = _timed(clock, m.generators.convex_ngon, a * (n + 1) + 2)
        convex.append(Group(poly, [(a, n)]))
    # Spread the convex cases evenly through the pass, so that any prefix of
    # the pass (a short run, the traced sample) has the same mix.
    convex = convex * FVEC_CONVEX_ROUNDS
    step = len(random_groups) / len(convex)
    keyed = [(k, 0, g) for k, g in enumerate(random_groups)]
    keyed += [((k + 0.5) * step, 1, g) for k, g in enumerate(convex)]
    groups = [g for _, _, g in sorted(keyed, key=lambda t: (t[0], t[1]))]
    return Workload("fvector-scale", groups, clock[0])


SETUP = {"thm3-scan": setup_thm3, "thm2-sets": setup_thm2, "fvector-scale": setup_fvector}


# ---------------------------------------------------------------------------
# Timed items: each returns the values its routes computed


def run_thm3(m: SimpleNamespace, poly, _):
    # One item is the scan of every vertex of a polygon.  Per vertex, the
    # first call pays for the universe and the rest are cheap, so the 90th
    # percentile of vertex latencies would sit on the cliff between the two.
    return [m.classes.verify_theorem3(poly, i) for i in range(poly.n)]


def run_thm2(m: SimpleNamespace, poly, j_mask: int):
    j = m.chords.universe_of(poly).set_of_mask(j_mask)
    p = m.partition
    direct = p.chi_removed_direct(poly, j, "d")
    routes = {
        "theorem2": p.chi_removed_theorem2(poly, j),
        "lemma1": p.chi_removed_lemma1(poly, j),
    }
    if j_mask:
        routes["lemma_d2"] = p.chi_removed_lemma_d2(poly, j)
    return direct, routes


def run_fvector(m: SimpleNamespace, poly, case):
    if case is None:
        rep = m.classes.verify_theorem1(poly)
        chi_d = m.nc_euler.euler_recursive(m.chords.diagonals(poly))
        chi_e = m.nc_euler.euler_recursive(m.chords.epigonals(poly))
        return rep, chi_d, chi_e
    a, _ = case
    return m.catalan.brute_a_diagonal_fvector(poly, a)


RUN = {"thm3-scan": run_thm3, "thm2-sets": run_thm2, "fvector-scale": run_fvector}


# ---------------------------------------------------------------------------
# Exact checks


def _alternating(counts, start: int) -> int:
    return sum((-1) ** (k - start) * c for k, c in enumerate(counts) if k >= start)


def expectations(workload: str, m: SimpleNamespace, poly, item, answer) -> list[tuple]:
    """(what, got, want) triples; ``want`` comes from an independent route."""
    if workload == "thm3-scan":
        # Theorem3Report.ok compares the exact detectors with the chi values.
        return [(f"vertex {rep.vertex} clauses {''.join(rep.failing_clauses())}", rep.ok, True)
                for rep in answer]
    if workload == "thm2-sets":
        direct, routes = answer
        return [(name, got, direct) for name, got in routes.items()]
    if item is None:
        rep, chi_d, chi_e = answer
        # Theorem 1 for a non-convex polygon: both alternating tails equal 1.
        return [
            ("diagonal tail", _alternating(rep.d_counts, 1), 1),
            ("epigonal tail", _alternating(rep.e_counts, 1), 1),
            ("diagonal DFS chi vs deletion recursion", _alternating(rep.d_counts, 0), chi_d),
            ("epigonal DFS chi vs deletion recursion", _alternating(rep.e_counts, 0), chi_e),
        ]
    a, n = item
    counts = list(answer.counts)
    want = [m.catalan.d_closed(n, k, a) for k in range(n + 1)]
    out = [(f"f_{k}", counts[k] if k < len(counts) else 0, w) for k, w in enumerate(want)]
    out.append(("length", len(counts), n + 1))
    # For a = 1 the a-diagonals are all the diagonals, and Theorem 1 for a
    # convex polygon gives the tail 1 + (-1)^|P|.
    if a == 1:
        out.append(("convex diagonal tail", _alternating(counts, 1), 1 + (-1) ** poly.n))
    return out


def compare(triples: list[tuple]) -> list[str]:
    return [f"{what}: got {got!r}, want {want!r}" for what, got, want in triples if got != want]


def output_size(workload: str, item, answer) -> int:
    """Sum of all f-vector entries an item produced (0 where none)."""
    if workload != "fvector-scale":
        return 0
    if item is None:
        rep = answer[0]
        return sum(rep.d_counts) + sum(rep.e_counts)
    return sum(answer.counts)


def submasks(workload: str, item) -> int:
    """2^|J|: the subsets of J each Theorem-2 route enumerates (0 elsewhere)."""
    return 1 << item.bit_count() if workload == "thm2-sets" else 0


def describe(workload: str, m: SimpleNamespace, group: Group, item) -> str:
    if workload == "thm3-scan":
        return "vertices=all"
    if workload == "thm2-sets":
        j = m.chords.universe_of(group.polygon).set_of_mask(item)
        return f"J={j} J_mask={item:#x}"
    return "theorem1+chi" if item is None else "a={} a_n={}".format(*item)
