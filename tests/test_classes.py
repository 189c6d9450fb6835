import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chord_euler.chords import ChordKind, _cached_chord_order, universe_of
from chord_euler.classes import (
    class_report,
    is_class1,
    is_class2,
    is_class3,
    is_class4,
    is_class5,
    is_class6,
    verify_theorem1,
    verify_theorem3,
)
from chord_euler.generators import class_exemplar, convex_ngon, random_simple_polygon
from chord_euler.geometry import Point, Polygon, SelfIntersection, validate_polygon
from conftest import pt
from oracles import cold_polygon

EXEMPLAR_SIZES = {1: (5, 7, 9), 2: (5, 7, 8), 3: (5, 7, 9), 4: (6, 7, 9), 5: (5, 6, 8), 6: (7, 8, 9)}
DETECTORS = {1: is_class1, 2: is_class2, 3: is_class3, 4: is_class4, 5: is_class5, 6: is_class6}


@pytest.mark.parametrize("kind,n", [(k, n) for k, ns in EXEMPLAR_SIZES.items() for n in ns])
def test_exemplars_detected_and_theorem3(kind, n):
    poly = class_exemplar(kind, 0, n)
    assert DETECTORS[kind](poly, 0)
    rep = verify_theorem3(poly, 0)
    assert rep.ok
    # Each class drives a nonzero chi on its theorem side.
    if kind in (1, 2, 6):
        assert rep.chi_d_star != 0
    if kind == 3:
        assert rep.chi_e_star != 0
    if kind == 4:
        assert rep.chi_d_ear != 0
    if kind in (2, 5):
        assert rep.chi_e_ear != 0


def test_exemplar_vertex_rotation():
    poly = class_exemplar(2, 3, 7)
    assert is_class2(poly, 3)
    assert not is_class2(poly, 0)


def test_class2_degenerate_quad(dart):
    with pytest.raises(ValueError):
        is_class2(dart, 0)


def test_convex_excludes_nonconvex_classes():
    poly = convex_ngon(7)
    for i in range(7):
        assert not is_class1(poly, i)
        assert not is_class2(poly, i)
        assert not is_class5(poly, i)
        assert not is_class6(poly, i)
        assert not is_class3(poly, i)
        assert not is_class4(poly, i)


def test_class2_and_class5_disjoint():
    for kind in (2, 5):
        for n in EXEMPLAR_SIZES[kind]:
            poly = class_exemplar(kind, 0, n)
            assert is_class2(poly, 0) != is_class5(poly, 0)


def test_class5_reduced_polygon_self_intersects():
    # A simple polygon with one reflex vertex is star-shaped, and deleting
    # that vertex leaves a simple polygon, so only a closed path that is not
    # simple reaches this case: a pentagram with one vertex inserted on an
    # edge, the only right turn of the path.
    path = cold_polygon([pt(0, 10), pt(-2, 1), pt(-6, -8), pt(10, 3), pt(-10, 3), pt(6, -8)])
    assert path.reflex_vertices == frozenset({1})
    with pytest.raises(SelfIntersection):
        Polygon([v for k, v in enumerate(path.vertices) if k != 1])
    assert not is_class5(path, 1)


def test_two_reflex_pentagon_is_not_class1():
    poly = validate_polygon([pt(0, 0), pt(8, 0), pt(5, 2), pt(4, 6), pt(3, 2)])
    assert len(poly.reflex_vertices) == 2
    for i in range(5):
        assert not is_class1(poly, i)


def test_class1_region_iii():
    poly = class_exemplar(1, 0, 7, region="III")
    assert is_class1(poly, 0)
    rep = verify_theorem3(poly, 0)
    assert rep.ok and rep.chi_d_star != 0


def test_class1_is_special_class5():
    for n in EXEMPLAR_SIZES[1]:
        poly = class_exemplar(1, 0, n)
        assert is_class5(poly, 0)


def test_class3_two_pockets():
    poly = class_exemplar(3, 0, 9, pockets=2)
    assert is_class3(poly, 0)
    assert verify_theorem3(poly, 0).ok


@pytest.mark.parametrize("pockets, sizes", [(1, range(5, 129)), (2, range(7, 129))], ids=["1", "2"])
def test_class3_exemplars_at_every_size(pockets, sizes):
    # Past n = 54 a one-pocket exemplar's pocket triangle is thin enough that
    # the bite, bowed at full depth, would cross the pocket's first edge.
    for n in sizes:
        i = n // 3
        poly = class_exemplar(3, i, n, pockets=pockets)
        assert poly.n == n and is_class3(poly, i)


def test_theorem1_examples(dart):
    hexagon = convex_ngon(6)
    rep = verify_theorem1(hexagon)
    assert rep.d_counts == (1, 9, 21, 14)
    assert rep.d_sum == 9 - 21 + 14 == 2 == rep.d_expected
    assert rep.ok
    rep = verify_theorem1(dart)
    assert rep.d_sum == 1 and rep.e_sum == 1 and rep.ok
    pent = convex_ngon(5)
    rep = verify_theorem1(pent)
    assert rep.d_sum == 0 == rep.d_expected
    assert rep.ok


def test_theorem3_convex_polygon_values():
    poly = convex_ngon(6)
    for i in range(6):
        rep = verify_theorem3(poly, i)
        assert rep.ok
        assert rep.chi_d_star == 0 and not rep.detector_a
        assert rep.chi_e_star == 1 and rep.detector_b
        assert rep.chi_d_ear == 0 and not rep.detector_c
        assert rep.chi_e_ear == 1 and rep.detector_d


def test_theorem3_paper_values_class2_class5():
    for n in EXEMPLAR_SIZES[2]:
        poly = class_exemplar(2, 0, n)
        rep = verify_theorem3(poly, 0)
        assert rep.chi_e_ear == (-1) ** n
    for n in EXEMPLAR_SIZES[5]:
        poly = class_exemplar(5, 0, n)
        rep = verify_theorem3(poly, 0)
        assert rep.chi_e_ear == 1


def test_theorem3_random_campaign_small():
    for seed in range(150):
        poly = random_simple_polygon(5 + seed % 5, seed + 5000)
        for i in range(poly.n):
            rep = verify_theorem3(poly, i)
            assert rep.ok, (seed, i, rep)


def test_theorem3_builds_no_chord_tuple():
    # The chis and the detectors read the orientation table, the vertex kind
    # masks and the hull: no kinds, and no chord tuple, index, incidence or
    # interleaving masks of the chord order, which is shared per n, so the
    # check starts from fresh ones.
    _cached_chord_order.cache_clear()
    polys = [random_simple_polygon(5 + k % 8, k + 7000) for k in range(40)]
    polys += [class_exemplar(kind, 0, 7) for kind in range(1, 7)] + [convex_ngon(8)]
    for poly in polys:
        for i in range(poly.n):
            verify_theorem3(poly, i)
        uni = universe_of(poly)
        assert "kinds" not in vars(uni)
        assert not {"chords", "index", "incidence", "interleave"} & vars(uni.order).keys()


def test_star_side_consistency():
    # chi(M_d minus star) != 0 forces every chord at the vertex to be a diagonal.
    found = 0
    for seed in range(120):
        poly = random_simple_polygon(5 + seed % 4, seed + 6000)
        uni = universe_of(poly)
        for i in range(poly.n):
            rep = verify_theorem3(poly, i)
            if rep.chi_d_star != 0:
                found += 1
                for k, c in enumerate(uni.chords):
                    if i in (c.i, c.j):
                        assert uni.kinds[k] is ChordKind.DIAGONAL
    assert found > 0


def _reflected(poly: Polygon) -> Polygon:
    # x -> -x turns the polygon clockwise; validation reverses it, so vertex
    # i of ``poly`` becomes vertex n - 1 - i.
    return validate_polygon([Point(-v.x, v.y) for v in poly.vertices])


def _theorem3_view(poly: Polygon, i: int) -> tuple:
    rep = verify_theorem3(poly, i)
    return rep._replace(vertex=0), tuple(det(poly, i) for det in DETECTORS.values())


def _assert_relabeling_invariant(poly: Polygon, shift: int) -> None:
    n = poly.n
    rotated, reflected = poly.rotated(shift), _reflected(poly)
    assert reflected.vertices[n - 1] == Point(-poly.vertices[0].x, poly.vertices[0].y)
    for i in range(n):
        view = _theorem3_view(poly, i)
        assert view == _theorem3_view(rotated, (i - shift) % n), (poly, i, shift)
        assert view == _theorem3_view(reflected, n - 1 - i), (poly, i)


@settings(max_examples=40, deadline=None)
@given(st.integers(5, 10), st.integers(0, 2**32), st.integers(1, 9))
def test_theorem3_relabeling_invariance_random(n, seed, shift):
    _assert_relabeling_invariant(random_simple_polygon(n, seed), shift)


def test_theorem3_relabeling_invariance_exemplars():
    for kind in range(1, 7):
        for n in range(6 if kind == 6 else 5, 10):
            for i in (0, 2):
                _assert_relabeling_invariant(class_exemplar(kind, i, n), kind + n)


def test_class_report(dart):
    poly = class_exemplar(4, 2, 7)
    rep = class_report(poly, 2)
    assert "Class4" in rep.memberships
    assert "Convex" not in rep.memberships
    assert rep.witnesses["reflex"]
    conv = class_report(convex_ngon(5), 0)
    assert conv.memberships == frozenset({"Convex"})
