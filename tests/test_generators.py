from fractions import Fraction

import pytest

from chord_euler.chords import ChordKind, universe_of
from chord_euler.generators import (
    GeneratorError,
    class_exemplar,
    convex_ngon,
    random_simple_polygon,
    verify_zigzag_structure,
    zigzag_a_sequence,
    zigzag_chi_target,
    _collinear_vertices,
    _midpoint,
    _rot60,
    _zigzag_raw,
)
from chord_euler.partition import chi_removed_direct
from conftest import pt
from oracles import lattice_collinear_vertices, no_three_collinear, perturb_to_general_position


def test_convex_ngon():
    for n in (3, 4, 5, 7, 12):
        poly = convex_ngon(n)
        assert poly.n == n and poly.is_convex
        assert convex_ngon(n) == poly  # deterministic
    assert len(universe_of(convex_ngon(5)).kinds) == 5


def test_random_simple_polygon_deterministic():
    a = random_simple_polygon(9, 7)
    b = random_simple_polygon(9, 7)
    assert a == b and a.n == 9
    assert random_simple_polygon(9, 8) != a


def test_random_polygon_campaign_valid():
    for seed in range(200):
        poly = random_simple_polygon(8, seed)
        assert poly.n == 8  # validate_polygon certified by construction


def test_perturb_noop_on_general_position(square):
    out = perturb_to_general_position(list(square.vertices))
    assert out.vertices == square.vertices


def test_perturb_fixes_collinear_triples():
    points = [pt(0, 0), pt(2, 0), pt(4, 0), pt(4, 4), pt(0, 4)]
    assert not no_three_collinear(points)
    poly = perturb_to_general_position(points)
    assert poly.n == 5


def test_perturb_moves_exactly_the_vertices_of_collinear_triples():
    line = [pt(0, 0), pt(2, 0), pt(4, 0), pt(4, 4), pt(0, 4)]
    assert set(perturb_to_general_position(line).vertices) & set(line) == {pt(4, 4), pt(0, 4)}
    # A repeated point is collinear with every third point: all five move.
    repeated = [pt(0, 0), pt(4, 0), pt(4, 0), pt(4, 4), pt(0, 4)]
    poly = perturb_to_general_position(repeated)
    assert poly.n == 5 and not set(poly.vertices) & set(repeated)


def test_perturb_shrinks_until_structural_check_passes():
    points = [pt(0, 0), pt(2, 0), pt(4, 0), pt(4, 4), pt(0, 4)]
    seen = []

    def fussy(poly):
        seen.append(poly)
        return len(seen) >= 2  # reject the first attempt, forcing one shrink

    poly = perturb_to_general_position(points, structural_check=fussy)
    assert len(seen) == 2 and poly is seen[-1]


def test_zigzag_raw_has_collinear_triples_for_large_l():
    points, _ = _zigzag_raw(4)
    assert lattice_collinear_vertices(points)
    points2, _ = _zigzag_raw(2)
    assert not lattice_collinear_vertices(points2)


def test_collinear_lattice_vertices_match_the_oracle():
    # Both zigzag variants: the lattice and the one with its corner shaved.
    for L in range(2, 9):
        points, _ = _zigzag_raw(L)
        shaved = [_midpoint(points[0], points[1]), *points[1:], _midpoint(points[0], points[-1])]
        for pts in (points, shaved):
            assert _collinear_vertices(pts) == lattice_collinear_vertices(pts)


def test_lattice_turns_are_sixtieths_of_a_full_turn():
    v = ((Fraction(3, 4), Fraction(-1, 2)), (Fraction(5), Fraction(1, 3)))
    for parity in (0, 1):
        turned = v
        for _ in range(6):
            turned = _rot60(turned, parity)
        assert turned == v
        assert _rot60(_rot60(v, parity), parity + 1) == v
    # (1, 0) turned by +60 degrees is (1/2, sqrt(3)/2).
    one = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(0)))
    assert _rot60(one, 0) == ((Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(1, 2)))


def test_zigzag_sizes_and_labels():
    for l in (2, -2, 3, -3, 4, -4, 5, -5):
        z = zigzag_chi_target(l)
        L = abs(l)
        base = (l > 0) == (L % 2 == 1)
        assert z.polygon.n == (3 * L if base else 3 * L + 1)
        assert len(z.labels) == 3 * (L - 1) == len(z.j_set)
        uni = z.j_set.universe
        for c in z.j_set:
            assert uni.kinds[uni.index[c]] is ChordKind.DIAGONAL
            assert not uni.crossing_masks[uni.index[c]] & z.j_set.mask


def test_zigzag_chi_exact():
    for l in (-5, -4, -3, -2, 2, 3, 4, 5):
        z = zigzag_chi_target(l)
        assert chi_removed_direct(z.polygon, z.j_set, "d") == l


def test_zigzag_structure_certificates():
    for l in range(-8, 9):
        if abs(l) < 2:
            continue
        rep = verify_zigzag_structure(zigzag_chi_target(l))
        assert rep.ok and rep.chi_from_sequence == l


def test_zigzag_sequence_closed_forms():
    a = zigzag_a_sequence(8)
    assert a[0] == 1 and a[1] == 0
    for k in range(0, 8):
        assert a[3 * k] == (-1) ** k * (k + 1)
        if 3 * k + 1 < len(a):
            assert a[3 * k + 1] == (-1) ** k * k
        if 3 * k + 2 < len(a):
            assert a[3 * k + 2] == (-1) ** (k + 1)


def test_zigzag_rejects_tiny_targets():
    for l in (-1, 0, 1):
        with pytest.raises(GeneratorError):
            zigzag_chi_target(l)


def test_class_exemplar_errors():
    with pytest.raises(GeneratorError):
        class_exemplar(7, 0, 8)
    with pytest.raises(GeneratorError):
        class_exemplar(1, 0, 4)


def test_class_exemplar_rotation_consistency():
    for kind in (1, 2, 3, 4, 5, 6):
        base = class_exemplar(kind, 0, 7)
        moved = class_exemplar(kind, 4, 7)
        assert moved.vertices[4] == base.vertices[0]


def test_perturbation_preserves_labeled_chords():
    # Construction-level invariant: after perturbation every labeled chord
    # is still a diagonal and J is still pairwise non-crossing.
    z = zigzag_chi_target(4)
    uni = z.j_set.universe
    for name, c in z.labels.items():
        k = uni.index[c]
        assert uni.kinds[k] is ChordKind.DIAGONAL
        assert not uni.crossing_masks[k] & (z.j_set.mask & ~(1 << k))
