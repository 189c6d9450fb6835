"""Generator, validator, Theorem-2, Theorem-3, triangulation and demo outputs
pinned across commits.

Every benchmark workload, campaign and demo is built from these outputs, so a
change that alters them changes what is measured and printed.  Each corpus is
rendered as text and compared by its sha256 digest.  The generator and
validator digests were recorded from the implementation that decided every
predicate on coordinates in Q(sqrt 3), save the zigzag digest, recorded
when the zigzags moved to rational coordinates with their order type kept; the Theorem-3 digest from the one that
ran the six class detectors at each vertex, and the triangulation digest
from the one that built a polygon and a chord universe for every face in
``extend_to_triangulation``.  The Theorem-2 lattice and demo digests were
recorded from the routes that kept the last split of a J on the chord
universe and found the maximal non-convex sets by single-bit tests.  The
zigzag-table digest holds no coordinates, only each zigzag's order type and
what is read from it; it was recorded from the zigzags built in Q(sqrt 3).  A
mismatch names the corpus, and the rendering helpers below reproduce it line
by line.
"""

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

from chord_euler.chords import ChordKind, universe_of
from chord_euler.classes import class_report, verify_theorem3
from chord_euler.cli import polygon_to_json
from chord_euler.generators import (
    class_exemplar,
    convex_ngon,
    random_simple_polygon,
    zigzag_chi_target,
)
from chord_euler.geometry import Point, PolygonError, validate_polygon
from chord_euler.nc_euler import iter_nc_masks
from chord_euler.partition import (
    chi_removed_direct,
    chi_removed_lemma1,
    chi_removed_lemma_d2,
    chi_removed_theorem2,
    convex_lattice,
    convexity_constraints,
)
from oracles import extend_to_triangulation, find_diagonal

PINNED = {
    "random": "92c609aba757a660853215a7e436b216d7a7732f616b06a7bbfb5e3441ca1a0d",
    "exemplars": "7d1c59421791b317e1ce421b5577f5958adadcb6beccbcf0ce5f19a4c973ba86",
    "zigzags": "c0bf1d8f77035d650da820249e8de5f3193288a009535f9bb5bf7895de211d1f",
    "zigzag_tables": "e0a1a5987459aa3d19d06e3772eef9d36efeb5ab31c2cbcd3fbebae5017dabbf",
    "validator": "38e489a53b991b395c47194df7413c0af6fb2e1a2c399e71bf897e748e56ec8c",
    "theorem3": "921158409da94b8b31be0eaad0175d989eae461a7847fee0fc59a3bf2a9bc097",
    "triangulations": "dfed61d1f594e10684a5818150dafd28f57642c396f6b2634f0933b4764036d1",
    "lattices": "fd4c0e0f21c315d43a315746fcb7ab86eebecf219118545b718bc1cf0208563c",
    "demos": "4c0fc500bf185c716c49b70c19ff36e52be7a400aebbc24c539a324ba85fba24",
}

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _render(poly) -> str:
    # The scalars as the CLI writes them ("p/q"), so a digest kept proves
    # byte-identical polygon JSON.
    coords = " ".join(f"{v['x']},{v['y']}" for v in polygon_to_json(poly)["vertices"])
    return f"{coords} reflex={sorted(poly.reflex_vertices)}"


def random_lines():
    for n in range(3, 17):
        for seed in range(20):
            yield f"n={n} seed={seed} {_render(random_simple_polygon(n, seed))}"


def exemplars():
    for kind in range(1, 7):
        for n in range(6 if kind == 6 else 5, 11):
            for i in (0, 2):
                yield f"class{kind} n={n} i={i}", class_exemplar(kind, i, n)
    for n in (7, 9):
        yield f"class1 III n={n}", class_exemplar(1, 0, n, region="III")
        yield f"class3 2 pockets n={n}", class_exemplar(3, 0, n, pockets=2)


def exemplar_lines():
    for label, poly in exemplars():
        yield f"{label} {_render(poly)}"


def zigzag_lines():
    for l in (2, -2, 3, -3, 4):
        z = zigzag_chi_target(l)
        labels = sorted((name, str(c)) for name, c in z.labels.items())
        yield f"l={l} {_render(z.polygon)} J={z.j_set} labels={labels}"


def zigzag_table_lines():
    """Per l: the zigzag's order type and everything read from it, no coordinates."""
    for l in (*range(2, 11), *range(-10, -1), 20, -20, 30, -30):
        z = zigzag_chi_target(l)
        poly = z.polygon
        table = " ".join(f"{cell:x}" for cell in poly.left)
        labels = sorted((name, str(c)) for name, c in z.labels.items())
        constraints = convexity_constraints(poly, z.j_set)
        chi = chi_removed_direct(poly, z.j_set, "d")
        yield (
            f"l={l} n={poly.n} reflex={sorted(poly.reflex_vertices)} table={table}"
            f" J={z.j_set} labels={labels} constraints={constraints} chi={chi}"
        )


def grid_path(seed: int) -> list[Point]:
    """A seeded closed path of 2..8 points on the 6 x 6 integer grid."""
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    return [Point(rng.randrange(6), rng.randrange(6)) for _ in range(n)]


def theorem3_lines():
    """Per polygon and vertex: the Theorem-3 report and the class report."""
    corpus = [
        (f"n={n} seed={seed}", random_simple_polygon(n, seed))
        for n in range(5, 17)
        for seed in range(20)
    ]
    for label, poly in corpus + list(exemplars()):
        for i in range(poly.n):
            cr = class_report(poly, i)
            witnesses = sorted(cr.witnesses.items())
            yield f"{label} i={i} {verify_theorem3(poly, i)!r} {sorted(cr.memberships)} {witnesses}"


def triangulation_lines():
    """Per polygon: find_diagonal at every rotation, then extend_to_triangulation
    from the empty set and from every second chord of that triangulation."""
    corpus = [
        (f"n={n} seed={seed}", random_simple_polygon(n, seed))
        for n in range(4, 17)
        for seed in range(10)
    ]
    corpus += [(f"convex n={n}", convex_ngon(n)) for n in range(4, 17)]
    corpus += exemplars()
    corpus += [(f"l={l}", zigzag_chi_target(l).polygon) for l in (2, -2, 3, -3, 4, 5, -5)]
    for label, poly in corpus:
        uni = universe_of(poly)
        found = [str(find_diagonal(poly.rotated(s))) for s in range(poly.n)]
        tri = extend_to_triangulation(poly, uni.set_of_mask(0))
        half, rest, keep = 0, tri.mask, True
        while rest:
            low = rest & -rest
            rest ^= low
            if keep:
                half |= low
            keep = not keep
        again = extend_to_triangulation(poly, uni.set_of_mask(half))
        yield f"{label} find={found} tri={tri} half={uni.set_of_mask(half)} again={again}"


def lattice_lines():
    """Per polygon and non-crossing diagonal set J: the window constraints,
    the four chi routes and the convex lattice of J."""
    corpus = [
        (f"n={n} seed={seed}", random_simple_polygon(n, seed))
        for n in range(4, 9)
        for seed in range(30)
    ]
    corpus += [
        (f"class{kind} n={n}", class_exemplar(kind, 0, n))
        for kind in range(1, 7)
        for n in range(6, 9)
    ]
    for label, poly in corpus:
        uni = universe_of(poly)
        d_mask = uni.kind_mask(ChordKind.DIAGONAL)
        for m in iter_nc_masks(uni.crossing_masks, d_mask):
            j = uni.set_of_mask(m)
            constraints, feasible = convexity_constraints(poly, j)
            chis = [
                chi_removed_direct(poly, j, "d"),
                chi_removed_theorem2(poly, j),
                chi_removed_lemma1(poly, j),
                chi_removed_lemma_d2(poly, j) if m else None,
            ]
            lat = convex_lattice(poly, j)
            yield (
                f"{label} J={m:#x} constraints={constraints} feasible={feasible} chis={chis}"
                f" c={lat.members_c} nc={lat.members_nc}"
                f" min_c={lat.minimal_c} max_nc={lat.maximal_nc}"
            )


def demo_lines(tmp: Path):
    """Each demo's exit code and stdout, run under ``-W error`` in ``tmp``."""
    path = [str(DEMOS.parent / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    for demo in sorted(DEMOS.glob("*.py")):
        run = subprocess.run(
            [sys.executable, "-W", "error", str(demo)],
            cwd=tmp, env=env, capture_output=True, text=True, timeout=120,
        )
        yield f"== {demo.name} exit={run.returncode}"
        yield run.stdout


def validator_lines():
    for seed in range(1000):
        try:
            poly = validate_polygon(grid_path(seed))
        except PolygonError as exc:
            where = getattr(exc, "indices", None) or getattr(exc, "edges", None)
            yield f"{seed} {type(exc).__name__} {where} {exc}"
        else:
            yield f"{seed} ok {_render(poly)}"


def test_random_simple_polygons_pinned():
    assert _digest(random_lines()) == PINNED["random"]


def test_class_exemplars_pinned():
    assert _digest(exemplar_lines()) == PINNED["exemplars"]


def test_zigzags_pinned():
    assert _digest(zigzag_lines()) == PINNED["zigzags"]


def test_zigzag_tables_pinned():
    assert _digest(zigzag_table_lines()) == PINNED["zigzag_tables"]


def test_theorem3_reports_pinned():
    assert _digest(theorem3_lines()) == PINNED["theorem3"]


def test_triangulations_pinned():
    assert _digest(triangulation_lines()) == PINNED["triangulations"]


def test_validator_errors_pinned():
    assert _digest(validator_lines()) == PINNED["validator"]


def test_theorem2_lattices_pinned():
    assert _digest(lattice_lines()) == PINNED["lattices"]


def test_demos_pinned(tmp_path):
    assert _digest(demo_lines(tmp_path)) == PINNED["demos"]
