from __future__ import annotations

from itertools import combinations

import pytest

from chord_euler.generators import class_exemplar, zigzag_chi_target
from chord_euler.geometry import Point, Polygon, validate_polygon
from oracles import Segment, coordinate_crossing_masks


def pt(x, y) -> Point:
    return Point(x, y)


@pytest.fixture
def square() -> Polygon:
    return validate_polygon([pt(0, 0), pt(2, 0), pt(2, 2), pt(0, 2)])


@pytest.fixture
def dart() -> Polygon:
    return validate_polygon([pt(0, 0), pt(4, 0), pt(1, 1), pt(0, 4)])


def exemplar_and_zigzag_polygons(zigzag_ls=(2, -2, 3, -3, 4, 5, -5, 7)) -> list[Polygon]:
    """Class exemplars 1-6 for n = 5..10, then zigzag polygons (laid out in Q(sqrt 3))."""
    polys = [
        class_exemplar(kind, 0, n)
        for kind in range(1, 7)
        for n in range(6 if kind == 6 else 5, 11)
    ]
    return polys + [zigzag_chi_target(l).polygon for l in zigzag_ls]


def brute_nc_counts(segments: list[Segment]) -> list[int]:
    """Independent oracle: try all 2^m subsets, test pairwise non-crossing.

    The crossing pairs come from coordinates (``tests/oracles.py``), not from
    an orientation table.
    """
    m = len(segments)
    adj = coordinate_crossing_masks(segments)
    counts = [0] * (m + 1)
    for r in range(m + 1):
        for combo in combinations(range(m), r):
            if all(not adj[a] >> b & 1 for a, b in combinations(combo, 2)):
                counts[r] += 1
    while len(counts) > 1 and counts[-1] == 0:
        counts.pop()
    return counts


def brute_euler(segments: list[Segment]) -> int:
    return sum((-1) ** i * c for i, c in enumerate(brute_nc_counts(segments)))
