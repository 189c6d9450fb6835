"""Acceptance suite: one test per criterion, exact equalities throughout.

Each test prints a single PASS line (visible with ``pytest -s``) including
its wall-clock time, which must stay inside the stated budget.
"""

from __future__ import annotations

import json
import random
import time

from chord_euler.catalan import (
    alternating_sum_check,
    brute_a_diagonal_fvector,
    d_closed,
    d_recurrence_check,
    identity14_check,
)
from chord_euler.chords import ChordKind, diagonals, epigonals, universe_of
from chord_euler.classes import verify_theorem1, verify_theorem3
from chord_euler.cli import (
    EXIT_CAP,
    EXIT_GENERATOR,
    EXIT_INPUT,
    EXIT_OK,
    main,
    polygon_from_json,
    polygon_to_json,
)
from chord_euler.generators import (
    class_exemplar,
    convex_ngon,
    random_simple_polygon,
    verify_zigzag_structure,
    zigzag_chi_target,
)
from chord_euler.geometry import Point
from chord_euler.nc_euler import (
    EulerEngine,
    euler_recursive,
    find_heart,
    is_heart,
    iter_nc_masks,
)
from chord_euler.partition import (
    chi_removed_direct,
    chi_removed_lemma1,
    chi_removed_lemma_d2,
    chi_removed_theorem2,
    subdivide,
)
from oracles import (
    Segment,
    convex_hull_points,
    coordinate_crossing_masks,
    dfs_chi,
    euler_brute,
    extend_to_triangulation,
    find_diagonal,
    no_three_collinear,
)

EXEMPLAR_SIZES = {1: (5, 7, 9), 2: (5, 7, 8), 3: (5, 7, 9), 4: (6, 7, 9), 5: (5, 6, 8), 6: (7, 8, 9)}


def _report(num: int, budget: float, started: float, detail: str) -> None:
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {num:02d} PASS ({elapsed:.1f}s) {detail}")


def _random_points(rng: random.Random, count: int) -> list[Point]:
    while True:
        pts = [Point(rng.randrange(0, 10**6), rng.randrange(0, 10**6)) for _ in range(count)]
        if len({(p.x, p.y) for p in pts}) == count and no_three_collinear(pts):
            return pts


def test_criterion_01_theorem1_convex():
    t0 = time.monotonic()
    for n in range(3, 11):
        rep = verify_theorem1(convex_ngon(n))
        assert rep.ok and rep.d_sum == 1 + (-1) ** n
        if n == 6:
            assert rep.d_sum == 9 - 21 + 14 == 2
    _report(1, 10.0, t0, "convex n=3..10 alternating sums equal 1+(-1)^n")


def test_criterion_02_theorem1_nonconvex():
    t0 = time.monotonic()
    collected = 0
    seed = 0
    while collected < 1000:
        poly = random_simple_polygon(4 + seed % 6, seed)
        seed += 1
        if poly.is_convex:
            continue
        rep = verify_theorem1(poly)
        assert rep.ok and rep.d_sum == 1 and rep.e_sum == 1
        collected += 1
    _report(2, 300.0, t0, f"{collected} random non-convex polygons, both sums = 1")


def test_criterion_03_euler_oracles_agree():
    t0 = time.monotonic()
    rng = random.Random(2024)
    checked = 0
    while checked < 10_000:
        pts = _random_points(rng, rng.randrange(5, 9))
        pairs = [(a, b) for a in range(len(pts)) for b in range(a + 1, len(pts))]
        rng.shuffle(pairs)
        count = rng.randrange(0, 17)
        segs = [Segment(pts[a], pts[b]) for a, b in pairs[:count]]
        adj, live = coordinate_crossing_masks(segs), (1 << len(segs)) - 1
        assert dfs_chi(adj, live) == EulerEngine(adj).chi(live)
        checked += 1
    polys = 0
    for seed in range(60):
        poly = random_simple_polygon(4 + seed % 7, seed + 10_000)
        for fam in (diagonals(poly), epigonals(poly)):
            assert euler_brute(fam) == euler_recursive(fam)
        polys += 1
    for n in range(3, 11):
        poly = convex_ngon(n)
        assert euler_brute(diagonals(poly)) == euler_recursive(diagonals(poly))
    _report(3, 300.0, t0, f"{checked} random families + {polys} polygons, brute == recursive")


def test_criterion_04_theorem2_formulas():
    t0 = time.monotonic()
    polys = 0
    sets = 0
    seed = 0
    while polys < 200:
        poly = random_simple_polygon(4 + seed % 5, seed)
        seed += 1
        uni = universe_of(poly)
        d_mask = uni.kind_mask(ChordKind.DIAGONAL)
        for j_mask in iter_nc_masks(uni.crossing_masks, d_mask):
            j = uni.set_of_mask(j_mask)
            direct = chi_removed_direct(poly, j, "d")
            assert chi_removed_theorem2(poly, j) == direct
            assert chi_removed_lemma1(poly, j) == direct
            if j_mask:
                assert chi_removed_lemma_d2(poly, j) == direct
            sets += 1
        polys += 1
    _report(4, 600.0, t0, f"{polys} polygons, {sets} removed sets, all four routes agree")


def test_criterion_05_zigzag():
    t0 = time.monotonic()
    for l in (-5, -4, -3, -2, 2, 3, 4, 5):
        z = zigzag_chi_target(l)
        assert chi_removed_direct(z.polygon, z.j_set, "d") == l
    for l in range(-8, 9):
        if abs(l) < 2:
            continue
        rep = verify_zigzag_structure(zigzag_chi_target(l))
        assert rep.ok and rep.chi_from_sequence == l
    _report(5, 300.0, t0, "chi = l for |l| <= 5 directly, structure certified to |l| = 8")


def test_criterion_06_theorem3():
    t0 = time.monotonic()
    for kind, sizes in EXEMPLAR_SIZES.items():
        for n in sizes:
            poly = class_exemplar(kind, 0, n)
            rep = verify_theorem3(poly, 0)
            assert rep.ok, (kind, n)
            if kind == 2:
                assert rep.chi_e_ear == (-1) ** poly.n
            if kind == 5:
                assert rep.chi_e_ear == 1
    instances = 0
    for seed in range(10_000):
        poly = random_simple_polygon(5 + seed % 5, seed)
        for i in range(poly.n):
            rep = verify_theorem3(poly, i)
            assert rep.ok, (seed, i, json.dumps(polygon_to_json(poly)))
            instances += 1
    _report(6, 1800.0, t0, f"18 exemplars + {instances} random vertex instances, zero mismatches")


def test_criterion_07_catalan():
    t0 = time.monotonic()
    for a in (1, 2, 3):
        n = 1
        while a * (n + 1) + 2 <= 12:
            fv = brute_a_diagonal_fvector(convex_ngon(a * (n + 1) + 2), a)
            assert list(fv.counts) == [d_closed(n, k, a) for k in range(len(fv.counts))]
            assert fv.euler == (-1) ** n * d_closed(n, n, a - 1)
            n += 1
    assert d_closed(2, 1, 1) == 5
    assert d_closed(2, 1, 2) - d_closed(2, 2, 2) == -4 == 1 - d_closed(2, 2, 1)
    for n in range(1, 9):
        for k in range(1, n + 1):
            for a in range(1, 6):
                assert d_recurrence_check(n, k, a) and identity14_check(n, k, a)
    for n in range(1, 13):
        for a in range(1, 7):
            assert alternating_sum_check(n, a)
    _report(7, 300.0, t0, "closed form == geometry, recurrence/Eq.(14)/alternating sums exact")


def test_criterion_08_star_sets():
    t0 = time.monotonic()
    hearts = 0
    for seed in range(400):
        poly = random_simple_polygon(4 + seed % 6, seed + 40_000)
        for side in "de":
            h = find_heart(poly, side)
            if h is None:
                continue
            fam = diagonals(poly) if side == "d" else epigonals(poly)
            assert is_heart(fam, h)
            assert euler_recursive(fam) == 0
            hearts += 1
    rng = random.Random(88)
    instances = 0
    while instances < 1000:
        pts = _random_points(rng, rng.randrange(4, 9))
        hull = convex_hull_points(pts)
        edge = Segment(hull[0], hull[1])
        pairs = [(a, b) for a in range(len(pts)) for b in range(a + 1, len(pts))]
        rng.shuffle(pairs)
        segs = [Segment(pts[a], pts[b]) for a, b in pairs[: rng.randrange(0, 9)]]
        if edge not in segs:
            segs.append(edge)
        adj = coordinate_crossing_masks(segs)
        assert EulerEngine(adj).chi((1 << len(segs)) - 1) == 0
        instances += 1
    _report(8, 300.0, t0, f"{hearts} hearts all give chi = 0; {instances} hull-edge families give chi = 0")


def test_criterion_09_constructive():
    t0 = time.monotonic()
    corpus = [random_simple_polygon(4 + s % 7, s + 70_000) for s in range(120)]
    corpus += [convex_ngon(n) for n in range(4, 11)]
    for poly in corpus:
        c = find_diagonal(poly)
        uni = universe_of(poly)
        assert uni.kinds[uni.index[c]] is ChordKind.DIAGONAL
        tri = extend_to_triangulation(poly, uni.set_of_mask(0))
        assert len(tri) == poly.n - 3
        assert all(len(p) == 3 for p in subdivide(poly, tri).parts)
        partial = uni.set_of_mask(1 << uni.index[c])
        tri2 = extend_to_triangulation(poly, partial)
        assert partial <= tri2 and len(tri2) == poly.n - 3
    _report(9, 60.0, t0, f"{len(corpus)} polygons: verified diagonals and n-3 triangulations")


def test_criterion_10_cli(tmp_path, capsys):
    t0 = time.monotonic()
    corpus = [convex_ngon(6), random_simple_polygon(7, 1), zigzag_chi_target(3).polygon,
              class_exemplar(3, 0, 7)]
    for poly in corpus:
        assert polygon_from_json(polygon_to_json(poly)) == poly
    path = tmp_path / "p.json"
    path.write_text(json.dumps(polygon_to_json(corpus[2])))

    def run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    first = run("analyze", str(path), "--fvector", "--chi", "--json")
    second = run("analyze", str(path), "--fvector", "--chi", "--json")
    assert first == second and first[0] == EXIT_OK
    assert run("render", str(path)) == run("render", str(path))
    bow = tmp_path / "bow.json"
    bow.write_text(json.dumps({"vertices": [
        {"x": "0/1", "y": "0/1"}, {"x": "2/1", "y": "2/1"},
        {"x": "2/1", "y": "0/1"}, {"x": "0/1", "y": "2/1"}]}))
    assert run("analyze", str(bow))[0] == EXIT_INPUT
    assert run("verify", "theorem2", "--n", "4..20", "--random", "1")[0] == EXIT_CAP
    assert run("generate", "zigzag", "--l", "0")[0] == EXIT_GENERATOR
    assert run("verify", "zigzag", "--l", "-3..3")[0] == EXIT_OK
    _report(10, 60.0, t0, "round-trip exact, byte-identical reruns, exit codes 0/2/3/4")
