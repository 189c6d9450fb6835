import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chord_euler import geometry
from chord_euler.chords import (
    KIND_CACHE_N,
    ORDER_CACHE_N,
    Chord,
    ChordKind,
    a_diagonals,
    classify_chord,
    diagonals,
    ear_chord,
    epigonals,
    forbidden_star,
    _cached_chord_order,
    _cached_kind_masks,
    universe_of,
)
from chord_euler.generators import (
    class_exemplar,
    convex_ngon,
    random_simple_polygon,
    zigzag_chi_target,
)
from conftest import exemplar_and_zigzag_polygons, pt
from chord_euler.geometry import (
    Point,
    Segment,
    orientation,
    validate_polygon,
)
from chord_euler.nc_euler import euler_recursive
from oracles import (
    coordinate_crossing_masks,
    point_in_polygon,
    segments_properly_cross,
    vertex_kinds_by_edges,
)


def test_classify_dart(dart):
    assert classify_chord(dart, Chord.of(0, 2)) is ChordKind.DIAGONAL
    assert classify_chord(dart, Chord.of(1, 3)) is ChordKind.EPIGONAL


def test_classify_convex(square):
    assert classify_chord(square, Chord.of(0, 2)) is ChordKind.DIAGONAL
    assert classify_chord(square, Chord.of(1, 3)) is ChordKind.DIAGONAL


def test_boundary_crossing_kind_exists():
    # A spiral-ish hexagon where chord 0-2 pierces the boundary.
    poly = validate_polygon(
        [pt(0, 0), pt(10, 0), pt(10, 10), pt(4, 10), pt(4, 3), pt(2, 6)]
    )
    kinds = universe_of(poly).kinds
    assert ChordKind.BOUNDARY_CROSSING in kinds


def test_diagonals_epigonals_counts(dart):
    pent = convex_ngon(5)
    assert len(diagonals(pent)) == 5 and len(epigonals(pent)) == 0
    assert diagonals(dart).chords() == [Chord(0, 2)]
    assert epigonals(dart).chords() == [Chord(1, 3)]
    tri = convex_ngon(3)
    assert len(diagonals(tri)) == 0 and len(epigonals(tri)) == 0


def test_chord_count_partition_invariant():
    for seed in range(20):
        n = 4 + seed % 6
        poly = random_simple_polygon(n, seed)
        uni = universe_of(poly)
        assert uni.size == n * (n - 3) // 2
        assert len(diagonals(poly)) >= 1  # d_1 >= 1 for n >= 4
        if poly.is_convex:
            assert len(epigonals(poly)) == 0
            assert len(diagonals(poly)) == uni.size
        else:
            assert len(epigonals(poly)) > 0


def test_a_diagonals_hexagon_octagon():
    hexagon = convex_ngon(6)
    assert set(a_diagonals(hexagon, 2)) == {Chord(0, 3), Chord(1, 4), Chord(2, 5)}
    octagon = convex_ngon(8)
    got = set(a_diagonals(octagon, 2))
    assert len(got) == 8
    assert all((c.j - c.i) in (3, 5) for c in got)
    # a = 1 recovers all diagonals.
    assert a_diagonals(hexagon, 1) == diagonals(hexagon)
    with pytest.raises(ValueError):
        a_diagonals(convex_ngon(7), 2)


def test_a_diagonals_subset_of_diagonals():
    for size, a in ((6, 2), (8, 2), (8, 3), (10, 2)):
        poly = convex_ngon(size)
        assert a_diagonals(poly, a) <= diagonals(poly)


def test_forbidden_star_and_ear():
    pent = convex_ngon(5)
    assert set(forbidden_star(pent, 0)) == {Chord(0, 2), Chord(0, 3)}
    hexagon = convex_ngon(6)
    assert ear_chord(hexagon, 0).chords() == [Chord(1, 5)]
    hept = convex_ngon(7)
    assert set(forbidden_star(hept, 3)) == {
        Chord(0, 3), Chord(1, 3), Chord(3, 5), Chord(3, 6)
    }
    with pytest.raises(IndexError):
        forbidden_star(pent, 9)


def test_chord_set_algebra():
    pent = convex_ngon(5)
    uni = universe_of(pent)
    a = uni.set_of([Chord.of(0, 2)])
    b = uni.set_of([Chord.of(0, 2), Chord.of(1, 3)])
    assert a <= b and len(b - a) == 1 and (a | b) == b and (a & b) == a
    assert Chord(1, 3) in b and Chord(1, 3) not in a
    other = universe_of(convex_ngon(6))
    with pytest.raises(ValueError):
        a | other.set_of([Chord.of(0, 2)])


def test_chord_text_round_trip():
    c = Chord.of(7, 2)
    assert c == Chord(2, 7)
    assert Chord.parse(str(c)) == c


def _kind_by_coordinates(poly, seg, c):
    # Independent route: test the segment against every edge it does not
    # touch, then ray-cast its midpoint.
    vs, n = poly.vertices, poly.n
    for a in range(n):
        b = (a + 1) % n
        if a not in c and b not in c and segments_properly_cross(seg, Segment(vs[a], vs[b])):
            return ChordKind.BOUNDARY_CROSSING
    mid = Point((seg.a.x + seg.b.x) / 2, (seg.a.y + seg.b.y) / 2)
    return ChordKind.DIAGONAL if point_in_polygon(mid, poly) else ChordKind.EPIGONAL


def _assert_table_matches_coordinates(poly):
    # The kinds against coordinates; the crossing masks (by interleaving) of
    # the diagonals and epigonals against the segments' crossings among them,
    # and None for a boundary-crossing chord.
    uni = universe_of(poly)
    segs = [uni.segment(c) for c in uni.chords]
    assert uni.kinds == tuple(_kind_by_coordinates(poly, s, c) for s, c in zip(segs, uni.chords))
    bc = uni.kind_mask(ChordKind.BOUNDARY_CROSSING)
    for k, (got, want) in enumerate(zip(uni.crossing_masks, coordinate_crossing_masks(segs))):
        assert got == (None if bc >> k & 1 else want & ~bc), uni.chords[k]


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 12), st.integers(0, 2**32))
def test_table_matches_coordinates_random(n, seed):
    _assert_table_matches_coordinates(random_simple_polygon(n, seed))


def test_table_matches_coordinates_exemplars_and_zigzags():
    for poly in exemplar_and_zigzag_polygons():
        _assert_table_matches_coordinates(poly)


def _relabeled_structure(poly, label):
    # Kinds and crossing pairs of poly's universe, with each vertex v named
    # label(v), so that two labelings of one polygon compare equal.
    uni = universe_of(poly)
    name = [frozenset((label(c.i), label(c.j))) for c in uni.chords]
    kinds = dict(zip(name, uni.kinds))
    crossings = {
        frozenset((name[a], name[b]))
        for a, mask in enumerate(uni.crossing_masks)
        for b in range(uni.size)
        if mask is not None and mask >> b & 1
    }
    return kinds, crossings


def test_table_matches_coordinates_past_hypothesis_range():
    # n = 16..24 (the hypothesis test draws n <= 12): the edge masks wrap at
    # n - 1 -> 0 with more vertices and chords than it reaches.  Rotation and
    # mirror image relabel the vertices; kinds and crossings must follow.
    for n in range(16, 25):
        poly = random_simple_polygon(n, n)
        _assert_table_matches_coordinates(poly)
        want = _relabeled_structure(poly, lambda v: v)
        for s in (1, n // 2, n - 1):
            assert _relabeled_structure(poly.rotated(s), lambda v: (v + s) % n) == want
        # Mirror (x -> -x) and reverse the order, which keeps it CCW.
        mirror = validate_polygon([Point(-p.x, p.y) for p in reversed(poly.vertices)])
        assert mirror.vertices[0] == Point(-poly.vertices[-1].x, poly.vertices[-1].y)
        assert _relabeled_structure(mirror, lambda v: n - 1 - v) == want


def test_row_built_incidence_matches_its_definition():
    # Rows' edge cases: n = 3 has no chord, and row 0 stops before (0, n - 1).
    for n in range(3, 25):
        for poly in (convex_ngon(n), random_simple_polygon(n, n + 300)):
            uni = universe_of(poly)
            inc = uni.incidence
            want = [sum(1 << k for k, c in enumerate(uni.chords) if v in c) for v in range(n)]
            assert list(inc) == want
            assert uni.size == len(uni.chords)


def test_row_built_crossing_masks_match_coordinates():
    # Row 0 stops before (0, n - 1); at small n it holds most of the chords.
    polys = [random_simple_polygon(n, seed) for n in (4, 5) for seed in range(30)]
    polys += [random_simple_polygon(n, seed) for n in range(6, 17) for seed in range(2)]
    polys += [convex_ngon(n) for n in range(4, 13)]
    for poly in polys:
        _assert_table_matches_coordinates(poly)


def test_deletion_recursion_builds_no_chord_tuple():
    # The crossing masks come from the kinds and the chord order's
    # interleaving masks, built by rows: the recursion builds no kinds, and
    # no chord tuple or index of the chord order.  The orders are shared per
    # n, so the check starts from fresh ones.
    _cached_chord_order.cache_clear()
    polys = [random_simple_polygon(5 + k % 8, k + 7100) for k in range(30)]
    polys += [convex_ngon(9)]
    for poly in polys:
        euler_recursive(diagonals(poly))
        euler_recursive(epigonals(poly))
        uni = universe_of(poly)
        assert "kinds" not in vars(uni)
        assert "interleave" in vars(uni.order)
        assert not {"chords", "index"} & vars(uni.order).keys()


def test_universes_of_one_size_share_the_chord_order():
    one, two = universe_of(random_simple_polygon(9, 1)), universe_of(convex_ngon(9))
    for name in ("chords", "index", "incidence"):
        assert getattr(one, name) is getattr(two, name)
        assert name not in vars(one) and name not in vars(two)
    assert one.chords == tuple(Chord(i, j) for i in range(9) for j in range(i + 2, 9 - (i == 0)))
    assert one.crossing_masks is not two.crossing_masks


def test_per_n_caches_are_bounded():
    # Every per-n cache has a finite size, and a size past its bound shares
    # nothing: each universe builds its own chord order and kind masks.
    for cache in (geometry._cached_slots, _cached_chord_order, _cached_kind_masks):
        assert cache.cache_info().maxsize is not None
    n = ORDER_CACHE_N + 1
    polys = [random_simple_polygon(n, 1), convex_ngon(n)]
    before = _cached_chord_order.cache_info()
    one, two = (universe_of(poly) for poly in polys)
    assert one.order is not two.order
    assert one.chords == two.chords and one.chords is not two.chords
    assert one.incidence == two.incidence and one.incidence is not two.incidence
    assert _cached_chord_order.cache_info() == before
    before = _cached_kind_masks.cache_info()
    universe_of(random_simple_polygon(KIND_CACHE_N + 1, 1))
    assert _cached_kind_masks.cache_info() == before


def _assert_vertex_kinds_match_coordinates(poly):
    # diag[i] and epi[i] are symmetric and hold, mapped to chords, the kinds
    # of the coordinate oracle.
    uni, n = universe_of(poly), poly.n
    want = {ChordKind.DIAGONAL: [0] * n, ChordKind.EPIGONAL: [0] * n}
    for i in range(n):
        for j in range(i + 2, n - (i == 0)):
            kind = _kind_by_coordinates(poly, uni.segment(Chord(i, j)), Chord(i, j))
            if kind in want:
                want[kind][i] |= 1 << j
                want[kind][j] |= 1 << i
    for masks in (uni.diag, uni.epi):
        assert all(masks[i] >> j & 1 == masks[j] >> i & 1 for i in range(n) for j in range(n))
    assert uni.diag == tuple(want[ChordKind.DIAGONAL])
    assert uni.epi == tuple(want[ChordKind.EPIGONAL])


def _relabeled_vertex_kinds(poly, label):
    uni, n = universe_of(poly), poly.n
    pairs = [(i, j) for i in range(n) for j in range(n)]
    return tuple(
        frozenset(frozenset((label(i), label(j))) for i, j in pairs if masks[i] >> j & 1)
        for masks in (uni.diag, uni.epi)
    )


def _assert_vertex_kinds_under_relabeling(poly, shift):
    n = poly.n
    _assert_vertex_kinds_match_coordinates(poly)
    want = _relabeled_vertex_kinds(poly, lambda v: v)
    rot = poly.rotated(shift)
    mirror = validate_polygon([Point(-p.x, p.y) for p in reversed(poly.vertices)])
    for image, label in ((rot, lambda v: (v + shift) % n), (mirror, lambda v: n - 1 - v)):
        _assert_vertex_kinds_match_coordinates(image)
        assert _relabeled_vertex_kinds(image, label) == want


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 14), st.integers(0, 2**32), st.integers(1, 13))
def test_vertex_kinds_match_coordinates_random(n, seed, shift):
    _assert_vertex_kinds_under_relabeling(random_simple_polygon(n, seed), shift % n)


def test_vertex_kinds_match_coordinates_exemplars_and_zigzags():
    for poly in exemplar_and_zigzag_polygons():
        _assert_vertex_kinds_under_relabeling(poly, poly.n // 2)


# Sizes on both sides of each field width of the packed table in
# ``chords._vertex_kinds``: 1, 2, 4 and 8 bytes, then wider fields past n = 64.
FIELD_WIDTH_NS = (8, 9, 16, 17, 32, 33, 64, 65, 70, 100)
# Zigzags (3|l| or 3|l| + 1 vertices, sqrt(3) coordinates) on both sides of
# the same widths: n = 7, 9, 16, 18, 31, 33, 64, 66, 70 and 100.
FIELD_WIDTH_ZIGZAGS = (2, 3, -5, -6, 10, 11, -21, -22, -23, -33)


def _assert_vertex_kinds_match_edge_loop(poly):
    # The kinds of the polygon, a rotation and the mirror image against the
    # per-vertex, per-edge loop on each one's table, and under relabeling.
    n, shift = poly.n, poly.n // 3
    mirror = validate_polygon([Point(-p.x, p.y) for p in reversed(poly.vertices)])
    want = _relabeled_vertex_kinds(poly, lambda v: v)
    for image, label in ((poly, lambda v: v), (poly.rotated(shift), lambda v: (v + shift) % n),
                         (mirror, lambda v: n - 1 - v)):
        uni = universe_of(image)
        assert (uni.diag, uni.epi) == vertex_kinds_by_edges(n, image.left)
        assert _relabeled_vertex_kinds(image, label) == want


@pytest.mark.parametrize("n", FIELD_WIDTH_NS)
def test_vertex_kinds_match_edge_loop_at_field_widths(n):
    # class_exemplar(3, 0, n) fails its validation for n >= 55.
    kinds = range(1, 7) if n < 55 else (1, 2, 4, 5, 6)
    polys = [random_simple_polygon(n, n), convex_ngon(n)]
    for poly in polys + [class_exemplar(kind, 0, n) for kind in kinds]:
        _assert_vertex_kinds_match_edge_loop(poly)


def test_vertex_kinds_match_edge_loop_on_zigzags():
    for l in FIELD_WIDTH_ZIGZAGS:
        _assert_vertex_kinds_match_edge_loop(zigzag_chi_target(l).polygon)


def test_orientation_table():
    # Integer, rational (convex n-gons on the unit circle) and sqrt(3)
    # (zigzags) coordinates, against the QSqrt3 predicate.
    corpus = [random_simple_polygon(9, 3)]
    corpus += [convex_ngon(n) for n in range(5, 13)]
    corpus += exemplar_and_zigzag_polygons(zigzag_ls=(2, -2, 3, -3, 4))
    for poly in corpus:
        vs = poly.vertices
        for i in range(poly.n):
            for j in range(poly.n):
                for k in range(poly.n):
                    want = len({i, j, k}) == 3 and orientation(vs[i], vs[j], vs[k]) > 0
                    assert poly.ccw(i, j, k) == want
