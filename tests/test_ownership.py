"""Each cache has one owner and no reference cycle forms.

A polygon owns its chord universe, the universe owns every cache derived
from it and holds the polygon only weakly, and the recursions are
module-level functions or explicit stacks.  So reference counting alone
frees a polygon visit, and a chord set keeps working after its polygon is
gone.
"""

import gc
from itertools import islice

from chord_euler.chords import ChordKind, diagonals, epigonals, universe_of
from chord_euler.classes import verify_theorem1, verify_theorem3
from chord_euler.generators import random_simple_polygon
from chord_euler.nc_euler import (
    euler_brute,
    euler_recursive,
    f_vector,
    find_heart,
    is_heart,
    iter_nc_masks,
)
from chord_euler.partition import (
    chi_epigonal_pockets,
    chi_removed_direct,
    chi_removed_lemma1,
    chi_removed_lemma_d2,
    chi_removed_theorem2,
)


def _visit(poly) -> None:
    for i in range(poly.n):
        verify_theorem3(poly, i)
    verify_theorem1(poly)
    euler_recursive(diagonals(poly))
    euler_recursive(epigonals(poly))
    uni = universe_of(poly)
    d_mask = uni.kind_mask(ChordKind.DIAGONAL)
    for j_mask in islice(iter_nc_masks(uni.crossing_masks, d_mask), 6):
        j = uni.set_of_mask(j_mask)
        chi_removed_direct(poly, j, "d")
        chi_removed_theorem2(poly, j)
        chi_removed_lemma1(poly, j)
        if j_mask:
            chi_removed_lemma_d2(poly, j)
        chi_epigonal_pockets(poly, j)
    for side, fam in (("d", diagonals(poly)), ("e", epigonals(poly))):
        heart = find_heart(poly, side)
        if heart is not None:
            assert is_heart(fam, heart)
    segments = [uni.segment(c) for c in diagonals(poly)]
    assert f_vector(segments).euler == euler_brute(segments)


def test_polygon_visits_leave_no_reference_cycle():
    gc.collect()
    gc.disable()
    try:
        for k in range(100):
            _visit(random_simple_polygon(5 + k % 5, k))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_chord_sets_outlive_their_polygon():
    poly = random_simple_polygon(8, 3)
    twin = diagonals(poly.rotated(0))  # same vertices, its own universe
    uni = universe_of(poly)
    assert uni.polygon is poly
    fam = diagonals(poly)
    assert "crossing_masks" not in vars(uni)  # built below, after the polygon is gone
    del poly
    gc.collect()
    assert uni.polygon is None
    assert f_vector(fam) == f_vector(twin)
    assert euler_brute(fam) == euler_brute(twin)
    assert list(iter_nc_masks(uni.crossing_masks, fam.mask)) == list(
        iter_nc_masks(twin.universe.crossing_masks, twin.mask)
    )
