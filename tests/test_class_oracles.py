"""The class detectors, the hull and the pockets against coordinate routes.

The library reads them from the polygon's orientation table.  The hull is
read the same way by ``oracles.hull_by_successors``, through
``oracles.hull_successors``, formerly ``geometry.hull_successors``.  The
oracles below decide the same questions on the coordinates alone, with
exact rational predicates: ``angle_exceeds_pi``, ``convex_hull_points``, the
reflex set of a pocket polygon, and the validation of the polygon left by
deleting a vertex.  The pockets and the Class-2 and Class-4 masks are also
checked against the library's former full scans (``tests/oracles.py``).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chord_euler.chords import ChordKind, universe_of
from chord_euler.classes import (
    _class_masks,
    is_class1,
    is_class2,
    is_class3,
    is_class4,
    is_class5,
    is_class6,
)
from chord_euler.generators import GeneratorError, class_exemplar, random_simple_polygon
from chord_euler.geometry import CollinearTriple, Polygon, PolygonError, orientation, orientation_table
from conftest import exemplar_and_zigzag_polygons, pt
from oracles import (
    angle_exceeds_pi,
    class2_class4_by_vertices,
    cold_polygon,
    convex_hull_points,
    ear_chord,
    hull_by_successors,
    hull_successors,
    pockets_by_hull_walk,
)

DETECTORS = (is_class1, is_class2, is_class3, is_class4, is_class5, is_class6)
MIN_N = {1: 5, 2: 5, 3: 5, 4: 5, 5: 5, 6: 6}  # class_exemplar's smallest sizes


def _reflex(poly):
    vs, n = poly.vertices, poly.n
    return {i for i in range(n) if orientation(vs[i - 1], vs[i], vs[(i + 1) % n]) < 0}


def hull_oracle(poly):
    idx = {p: i for i, p in enumerate(poly.vertices)}
    hull = [idx[p] for p in convex_hull_points(poly.vertices)]
    m = hull.index(min(hull))
    return tuple(hull[m:] + hull[:m])


def pockets_oracle(poly):
    hull, n = hull_oracle(poly), poly.n
    out = []
    for t in range(len(hull)):
        a, b = hull[t], hull[(t + 1) % len(hull)]
        if (b - a) % n != 1:
            out.append(((min(a, b), max(a, b)), tuple((a + s) % n for s in range((b - a) % n + 1))))
    return out


def class1_oracle(poly, i):
    n, vs = poly.n, poly.vertices
    if _reflex(poly) != {i}:
        return False
    a = vs[i]
    nxt1, nxt2, prv1, prv2 = (vs[(i + d) % n] for d in (1, 2, -1, -2))
    if angle_exceeds_pi(a, nxt2, prv2):
        return False
    return angle_exceeds_pi(a, nxt2, prv1) == angle_exceeds_pi(a, nxt1, prv2)


def class2_oracle(poly, i):
    n = poly.n
    return _reflex(poly) == set(range(n)) - {(i - 1) % n, i, (i + 1) % n}


def class3_oracle(poly, i):
    if not _reflex(poly) or i in _reflex(poly):
        return False
    pks = pockets_oracle(poly)
    if not pks:
        return False
    for chord, path in pks:
        if i not in chord:
            return False
        if len(path) == 3:
            continue
        # The pocket region runs the path backwards; down to the dart, it is
        # reflex everywhere but at the apex i and its two neighbours.
        rev = tuple(reversed(path))
        sub = cold_polygon([poly.vertices[t] for t in rev])
        k, a = len(rev), rev.index(i)
        if _reflex(sub) != set(range(k)) - {(a - 1) % k, a, (a + 1) % k}:
            return False
    return True


def _rest_is_convex(poly, i):
    try:
        rest = Polygon([v for t, v in enumerate(poly.vertices) if t != i])
    except PolygonError:
        return False
    return rest.is_convex


def class4_oracle(poly, i):
    if not _reflex(poly):
        return False
    uni = universe_of(poly)
    (k,) = [k for k, c in enumerate(uni.chords) if c in ear_chord(poly, i)]
    return uni.kinds[k] is ChordKind.DIAGONAL and _rest_is_convex(poly, i)


def class5_oracle(poly, i):
    return _reflex(poly) == {i} and _rest_is_convex(poly, i)


def class6_oracle(poly, i):
    n, vs = poly.n, poly.vertices
    rel = lambda t: vs[(i + t) % n]  # noqa: E731
    reflex_rel = {(v - i) % n for v in _reflex(poly)}
    rest = reflex_rel - {0}
    if 0 not in reflex_rel or not rest or not rest <= set(range(2, n - 1)):
        return False
    uni = universe_of(poly)
    if any(uni.kinds[k] is not ChordKind.DIAGONAL
           for k, c in enumerate(uni.chords) if i in c):
        return False
    p = 1
    while p + 1 in rest:
        p += 1
    q = n - 1
    while q - 1 in rest:
        q -= 1
    if rest != set(range(2, p + 1)) | set(range(q, n - 1)) or p >= q - 1:
        return False
    v0, vp, vq = vs[i], rel(p), rel(q)
    if not angle_exceeds_pi(v0, vp, vq):
        return False
    if angle_exceeds_pi(vp, rel(p + 1), v0) or angle_exceeds_pi(vq, v0, rel(q - 1)):
        return False
    if q - p >= 3:
        if angle_exceeds_pi(v0, rel(p + 1), rel(q - 1)):
            return False
        if angle_exceeds_pi(v0, rel(p + 1), vq) != angle_exceeds_pi(v0, vp, rel(q - 1)):
            return False
    return True


ORACLES = (class1_oracle, class2_oracle, class3_oracle, class4_oracle, class5_oracle, class6_oracle)


def assert_matches_oracles(poly):
    uni = universe_of(poly)
    assert hull_by_successors(uni) == hull_oracle(poly)
    assert [(tuple(p.hull_chord), p.path) for p in uni.pockets] == pockets_oracle(poly)
    for i in range(poly.n):
        for det, oracle in zip(DETECTORS, ORACLES):
            assert det(poly, i) == oracle(poly, i), (det.__name__, i, poly)


def assert_hull_follows_rotation(poly):
    n, want = poly.n, set(hull_oracle(poly))
    for s in (1, n // 2, n - 1):
        assert hull_by_successors(universe_of(poly.rotated(s))) == tuple(sorted((v - s) % n for v in want))


@settings(max_examples=60, deadline=None)
@given(st.integers(5, 16), st.integers(0, 2**32))
def test_detectors_match_oracles_random(n, seed):
    poly = random_simple_polygon(n, seed)
    assert_matches_oracles(poly)
    assert_hull_follows_rotation(poly)


def test_detectors_match_oracles_exemplars_and_zigzags():
    for poly in exemplar_and_zigzag_polygons():
        assert_matches_oracles(poly)
        assert_hull_follows_rotation(poly)


@pytest.mark.parametrize("kind", range(1, 7))
def test_detectors_match_oracles_class_exemplars(kind):
    with pytest.raises(GeneratorError):
        class_exemplar(kind, 0, MIN_N[kind] - 1)
    hits = 0
    for n in range(MIN_N[kind], 17):
        for v in (0, 2):
            poly = class_exemplar(kind, v, n)
            assert_matches_oracles(poly)
            assert_hull_follows_rotation(poly)
            hits += DETECTORS[kind - 1](poly, v)
    assert hits > 0


@settings(max_examples=300)
@given(st.lists(st.builds(pt, st.integers(0, 6), st.integers(0, 6)), min_size=3, max_size=9,
                unique=True))
def test_hull_successors_match_the_monotone_chain(pts):
    # A point set's hull edges, read from its orientation table, against
    # Andrew's monotone chain on the coordinates.
    try:
        left = orientation_table(pts)
    except CollinearTriple:
        return
    succ = hull_successors(left, len(pts))
    hull = convex_hull_points(pts)
    assert {pts[a]: pts[b] for a, b in succ.items()} == {
        p: hull[(t + 1) % len(hull)] for t, p in enumerate(hull)
    }


def test_hull_of_a_path_that_winds_twice():
    # The hull is the point set's, whatever the vertex order: a pentagram
    # path meets its hull vertices out of their CCW order 0, 3, 1, 4, 2.
    star = cold_polygon([pt(0, 10), pt(-6, -8), pt(10, 3), pt(-10, 3), pt(6, -8)])
    assert hull_by_successors(universe_of(star)) == hull_oracle(star) == (0, 3, 1, 4, 2)


def assert_candidates_match_full_scans(poly):
    # The pockets from the hull chords among the epigonals, and Classes 2
    # and 4 at their candidate vertices, against the scans they replaced.
    uni = universe_of(poly)
    assert uni.pockets == pockets_by_hull_walk(uni), poly
    if poly.n >= 5:
        masks = _class_masks(poly)
        assert (masks[1], masks[3]) == class2_class4_by_vertices(poly), poly


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 64), st.integers(0, 2**32))
def test_candidate_routes_match_full_scans_random(n, seed):
    poly = random_simple_polygon(n, seed)
    for s in (0, 1, n // 2, n - 1):
        assert_candidates_match_full_scans(poly.rotated(s))


def test_candidate_routes_match_full_scans_exemplars_and_zigzags():
    hits = [0, 0]
    for kind in range(1, 7):
        for n in range(MIN_N[kind], 41):
            for v in (0, 2, n - 1):
                poly = class_exemplar(kind, v, n)
                assert_candidates_match_full_scans(poly)
                for t, mask in enumerate(class2_class4_by_vertices(poly)):
                    hits[t] += mask != 0
    for poly in exemplar_and_zigzag_polygons():
        assert_candidates_match_full_scans(poly)
    assert all(hits)
