import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chord_euler.generators import class_exemplar, convex_ngon, random_simple_polygon, zigzag_chi_target
from chord_euler.geometry import (
    SHARED_N,
    CollinearTriple,
    DuplicateVertex,
    Point,
    PolygonError,
    SelfIntersection,
    TooFewVertices,
    cross,
    orientation,
    orientation_table,
    straddle_masks,
    validate_polygon,
)
from chord_euler import geometry
import oracles
from conftest import pt
from oracles import (
    PointOnBoundary,
    Segment,
    angle_exceeds_pi,
    area2,
    cold_polygon,
    convex_hull,
    coordinate_crossing_masks,
    no_three_collinear,
    point_in_polygon,
    segments_properly_cross,
)

coords = st.integers(min_value=-20, max_value=20)
points = st.builds(pt, coords, coords)


def test_point_coordinates_are_canonical_rationals():
    # An int stays an int, any other rational becomes a reduced Fraction, so
    # equal points compare and hash equal whatever form they were given in.
    a = Point(Fraction(2, 4), 3)
    b = Point(Fraction(1, 2), Fraction(6, 2))
    assert a == b and hash(a) == hash(b)
    assert type(a.y) is int and type(b.y) is Fraction
    assert (b.x.numerator, b.x.denominator) == (1, 2)


def test_orientation_basic():
    assert orientation(pt(0, 0), pt(1, 0), pt(0, 1)) == 1
    assert orientation(pt(0, 0), pt(1, 1), pt(2, 2)) == 0
    assert orientation(pt(0, 0), pt(0, 1), pt(1, 0)) == -1


@given(points, points, points)
def test_orientation_antisymmetry(p, q, r):
    assert orientation(p, q, r) == -orientation(q, p, r)
    assert orientation(p, q, r) == -orientation(p, r, q)
    assert orientation(p, q, r) == orientation(q, r, p)


def test_angle_exceeds_pi():
    a = pt(0, 0)
    assert not angle_exceeds_pi(a, pt(1, 0), pt(0, 1))  # quarter turn
    assert angle_exceeds_pi(a, pt(0, 1), pt(1, 0))  # three-quarter turn
    with pytest.raises(CollinearTriple):
        angle_exceeds_pi(a, pt(1, 0), pt(2, 0))


def test_square_interior_angles(square):
    # Interior angle at each vertex of a convex CCW polygon stays below pi.
    for i in range(4):
        a = square.vertices[i]
        nxt = square.vertices[(i + 1) % 4]
        prv = square.vertices[(i - 1) % 4]
        assert not angle_exceeds_pi(a, nxt, prv)


def test_proper_crossing():
    # Oracle: the diagonals of the unit square intersect at (1,1), interior
    # to both; solving the 2x2 linear system gives parameters 1/2 and 1/2.
    s1 = Segment(pt(0, 0), pt(2, 2))
    s2 = Segment(pt(0, 2), pt(2, 0))
    assert segments_properly_cross(s1, s2)
    assert segments_properly_cross(s2, s1)
    # Shared endpoint: no proper crossing.
    assert not segments_properly_cross(
        Segment(pt(0, 0), pt(1, 1)), Segment(pt(1, 1), pt(2, 0))
    )
    # Disjoint parallels.
    assert not segments_properly_cross(
        Segment(pt(0, 0), pt(1, 0)), Segment(pt(0, 1), pt(1, 1))
    )


@given(points, points, points, points)
def test_crossing_symmetry(a, b, c, d):
    if a == b or c == d:
        return
    s1, s2 = Segment(a, b), Segment(c, d)
    r = segments_properly_cross(s1, s2)
    assert r == segments_properly_cross(s2, s1)
    assert r == segments_properly_cross(Segment(b, a), s2)


def test_point_in_polygon(square, dart):
    assert point_in_polygon(pt(1, 1), square)
    assert not point_in_polygon(pt(3, 3), square)
    # Even-odd count along the +x ray from (2,2) is zero: frozen oracle value.
    assert not point_in_polygon(pt(2, 2), dart)
    with pytest.raises(PointOnBoundary):
        point_in_polygon(pt(1, 0), square)
    with pytest.raises(PointOnBoundary):
        point_in_polygon(pt(0, 0), square)


def test_validate_normalizes_cw_input():
    p = validate_polygon([pt(0, 0), pt(0, 2), pt(2, 2), pt(2, 0)])
    assert area2(p) > 0
    rev = validate_polygon(list(reversed(p.vertices)))
    assert rev.vertices == p.vertices  # orientation normalization idempotent


def test_validated_polygon_keeps_the_table_it_was_validated_with():
    # Counter-clockwise input keeps its table; clockwise input keeps it
    # reversed with the vertices.
    shapes = [random_simple_polygon(n, seed).vertices for n in range(3, 15) for seed in range(8)]
    shapes += [zigzag_chi_target(l).polygon.vertices for l in (2, -2, 3, -3, 4)]
    turned = 0
    for ccw in shapes:
        for vs in (ccw, ccw[::-1], ccw[2:] + ccw[:2]):
            poly = validate_polygon(vs)
            assert "left" in vars(poly)  # kept, not rebuilt on first use
            assert poly.left == orientation_table(poly.vertices)
            turned += poly.vertices[0] != vs[0]
        for s in range(len(ccw)):  # a rotated copy relabels the table
            rotated = poly.rotated(s)
            assert rotated.left == orientation_table(rotated.vertices)
    assert turned == len(shapes)


def _relabeling_cases():
    yield from (random_simple_polygon(n, seed) for n in range(3, 16) for seed in range(3))
    yield from (random_simple_polygon(n, 1) for n in (8, 9, 16, 17, 40, 64))  # chunk edges
    yield from (convex_ngon(n) for n in (3, 8, 9))
    yield from (class_exemplar(kind, i, n) for kind in range(1, 7) for n in (8, 9) for i in (1, 5))
    yield from (zigzag_chi_target(l).polygon for l in (2, -2, 3, -3))


def test_rotated_copies_relabel_the_table_of_their_polygon():
    # Differential: the relabeled table and reflex set of every rotation
    # against a table and a reflex set built afresh from the coordinates.
    # Sizes cross the lookup chunks' 8-bit edges and SHARED_N.
    for poly in _relabeling_cases():
        assert "left" in vars(poly)  # kept from validation
        n = poly.n
        for s in range(n):
            rotated = poly.rotated(s)
            cold = cold_polygon(rotated.vertices)
            assert rotated.vertices == poly.vertices[s:] + poly.vertices[:s]
            assert rotated.left == cold.left, (poly, s)
            assert rotated.reflex_vertices == cold.reflex_vertices, (poly, s)
            assert rotated._chord_universe is None
        assert poly.rotated(0).left is poly.left
        assert poly.rotated(n).reflex_vertices is poly.reflex_vertices


def test_cold_polygon_reads_its_reflex_set_from_coordinates(dart, monkeypatch):
    # The cold copy is the relabeling tests' independent route: with its
    # table broken, its reflex set still comes out of the coordinates.
    monkeypatch.setattr(oracles, "orientation_table", lambda vs: (0,) * len(vs) ** 2)
    assert cold_polygon(dart.vertices).reflex_vertices == dart.reflex_vertices == {2}


def test_validate_rejections():
    with pytest.raises(SelfIntersection):
        validate_polygon([pt(0, 0), pt(2, 2), pt(2, 0), pt(0, 2)])
    with pytest.raises(CollinearTriple) as exc:
        validate_polygon([pt(0, 0), pt(1, 0), pt(2, 0), pt(1, 1)])
    assert exc.value.indices == (0, 1, 2)
    with pytest.raises(DuplicateVertex):
        validate_polygon([pt(0, 0), pt(1, 0), pt(0, 0), pt(1, 1)])
    with pytest.raises(TooFewVertices):
        validate_polygon([pt(0, 0), pt(1, 0)])


def _validate_on_coordinates(vs):
    """The validator's outcome decided on coordinate predicates alone."""
    n = len(vs)
    if n < 3:
        return ("TooFewVertices", None)
    for j in range(n):
        for i in range(j):
            if vs[i] == vs[j]:
                return ("DuplicateVertex", (i, j))
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if orientation(vs[i], vs[j], vs[k]) == 0:
                    return ("CollinearTriple", (i, j, k))
    edges = [(i, (i + 1) % n) for i in range(n)]
    for i in range(n):
        for j in range(i + 2, n - 1 if i == 0 else n):
            (a, b), (c, d) = edges[i], edges[j]
            if segments_properly_cross(Segment(vs[a], vs[b]), Segment(vs[c], vs[d])):
                return ("SelfIntersection", (edges[i], edges[j]))
    area = cross(vs[0], vs[1], vs[2])
    for i in range(2, n - 1):
        area = area + cross(vs[0], vs[i], vs[i + 1])
    if area < 0:
        vs = vs[::-1]
    reflex = {i for i in range(n) if orientation(vs[i - 1], vs[i], vs[(i + 1) % n]) < 0}
    return ("ok", (tuple(vs), reflex))


grid = st.integers(min_value=0, max_value=6)


@settings(max_examples=400)
@given(st.lists(st.builds(pt, grid, grid), min_size=2, max_size=9))
def test_validate_matches_coordinate_route(vs):
    # Validation reads one orientation table; the route above shares no code
    # with it.  A cold copy builds its table and reflex set afresh.
    want = _validate_on_coordinates(vs)
    try:
        poly = validate_polygon(vs)
    except PolygonError as exc:
        got = (type(exc).__name__, getattr(exc, "indices", None) or getattr(exc, "edges", None))
    else:
        got = ("ok", (poly.vertices, set(poly.reflex_vertices)))
        assert set(cold_polygon(poly.vertices).reflex_vertices) == got[1][1]
    assert got == want


def _outcome(make):
    try:
        poly = make()
    except PolygonError as exc:
        return type(exc).__name__, getattr(exc, "edges", None)
    cold = cold_polygon(poly.vertices)
    assert poly.left == cold.left
    return "ok", poly.vertices, poly.reflex_vertices, cold.reflex_vertices


@settings(max_examples=300)
@given(st.lists(st.builds(pt, grid, grid), min_size=3, max_size=8, unique=True), st.randoms())
def test_path_polygon_matches_validate_polygon(pts, rng):
    # The generator's route: scan an index order for crossings on the point
    # set's table, then build the polygon on that table.
    try:
        left = orientation_table(pts)
    except CollinearTriple:
        assume(False)
    order = list(range(len(pts)))
    rng.shuffle(order)

    def path_polygon():
        geometry._check_crossings(left, order)
        return geometry._path_polygon(pts, left, order)

    assert _outcome(path_polygon) == _outcome(lambda: validate_polygon([pts[k] for k in order]))


def test_reflex_vertices(square, dart):
    assert square.is_convex and square.reflex_vertices == frozenset()
    assert dart.reflex_vertices == frozenset({2})
    assert not dart.is_convex


def test_convex_hull(square, dart):
    hull = convex_hull(list(square.vertices) + [pt(1, 1)])
    assert set(hull.vertices) == set(square.vertices)
    hull2 = convex_hull(list(dart.vertices))
    assert set(hull2.vertices) == {pt(0, 0), pt(4, 0), pt(0, 4)}
    # Hull of convex input is the same cyclic point set.
    assert set(convex_hull(list(square.vertices)).vertices) == set(square.vertices)


def test_angle_convention_against_float_oracle():
    # The CCW-angle predicate must agree with a floating-point atan2 oracle
    # away from the exactly-pi boundary.
    import math
    import random

    rng = random.Random(5)
    checked = 0
    while checked < 500:
        ax, ay = rng.randrange(-50, 50), rng.randrange(-50, 50)
        xx, xy = rng.randrange(-50, 50), rng.randrange(-50, 50)
        yx, yy = rng.randrange(-50, 50), rng.randrange(-50, 50)
        a, x, y = pt(ax, ay), pt(xx, xy), pt(yx, yy)
        if orientation(a, x, y) == 0:
            continue
        ang = (math.atan2(yy - ay, yx - ax) - math.atan2(xy - ay, xx - ax)) % (2 * math.pi)
        assert abs(ang - math.pi) > 1e-9
        assert angle_exceeds_pi(a, x, y) == (ang > math.pi)
        checked += 1


def test_hull_contains_all_inputs(dart):
    hull = convex_hull(list(dart.vertices))
    for p in dart.vertices:
        if p in set(hull.vertices):
            continue
        assert point_in_polygon(p, hull)


def _table_by_predicate(vs):
    """The orientation table from one ``orientation`` call per triple i < j < k,
    or the first collinear (i, j, k) in ``combinations`` order."""
    n = len(vs)
    left = [0] * (n * n)
    for i, j, k in combinations(range(n), 3):
        sign = orientation(vs[i], vs[j], vs[k])
        if sign == 0:
            return (i, j, k)
        # The cyclic shifts of (i, j, k) turn its way, their reversals the other.
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            if sign > 0:
                left[a * n + b] |= 1 << c
            else:
                left[b * n + a] |= 1 << c
    return tuple(left)


def _table_or_collinear(vs):
    try:
        return orientation_table(vs)
    except CollinearTriple as exc:
        return exc.indices


def test_orientation_table_matches_the_predicate_at_every_size():
    # Every n with cached slots and two past SHARED_N (slots generated on
    # the fly): integer coordinates, and rational ones (convex, on the unit
    # circle; zigzags, n = 6..37).
    sizes = [*range(3, SHARED_N + 1), SHARED_N + 1, SHARED_N + 5]
    corpus = [random_simple_polygon(n, n + 40).vertices for n in sizes]
    corpus += [convex_ngon(n).vertices for n in sizes]
    corpus += [zigzag_chi_target(l).polygon.vertices for l in (2, -2, 3, 5, -10, 11, 12)]
    for vs in corpus:
        assert orientation_table(vs) == _table_by_predicate(vs), len(vs)


def test_orientation_table_collinear_indices_past_nine_points():
    # The validation tests stop at 9 points.  Grid samples of 10..16 points
    # and past SHARED_N, with or without a collinear triple.
    rng = random.Random(11)
    cells = [(x, y) for x in range(40) for y in range(40)]
    outcomes = set()
    for n in [*range(10, 17), SHARED_N + 1, SHARED_N + 5]:
        for _ in range(25):
            vs = [pt(x, y) for x, y in rng.sample(cells, n)]
            want = _table_by_predicate(vs)
            assert _table_or_collinear(vs) == want
            outcomes.add("table" if len(want) > 3 else "late" if want[2] >= 9 else "early")
    assert {"table", "late"} <= outcomes


@settings(max_examples=300)
@given(st.lists(st.builds(pt, grid, grid), min_size=3, max_size=9))
def test_orientation_table_reports_every_collinear_triple(vs):
    # Repeated points too: a repeated point is collinear with any third.
    want = [t for t in combinations(range(len(vs)), 3) if orientation(*(vs[v] for v in t)) == 0]
    try:
        orientation_table(vs)
    except CollinearTriple as exc:
        assert exc.indices == want[0] and exc.triples == want
    else:
        assert want == []


def test_orientation_table_past_the_bound_adds_no_cache_entry():
    cache = geometry._cached_slots
    assert cache.cache_info().maxsize is not None
    vs = random_simple_polygon(SHARED_N + 1, 2).vertices
    before = cache.cache_info()
    orientation_table(vs)
    assert cache.cache_info() == before


@settings(max_examples=300)
@given(st.lists(st.builds(pt, grid, grid), min_size=3, max_size=9, unique=True), st.randoms())
def test_table_routes_match_coordinate_oracles(pts, rng):
    # General position and the straddle test, read from one orientation
    # table, against the coordinate routes of the oracles.
    try:
        left = orientation_table(pts)
    except CollinearTriple:
        assert not no_three_collinear(pts)
        return
    assert no_three_collinear(pts)
    n = len(pts)
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    ends = rng.sample(pairs, rng.randrange(min(len(pairs), 16) + 1))
    segs = [Segment(pts[a], pts[b]) for a, b in ends]
    assert straddle_masks(left, n, ends) == coordinate_crossing_masks(segs)
