"""Coordinate routes kept as the tests' independent oracles.

The library decides every geometric question from orientation tables: a
segment family's crossings by the straddle test, general position by the
table's :class:`CollinearTriple`, the hull by ``hull_successors``, chord
kinds and face convexity from the polygon's table.  The routes below decide
the same questions on the coordinates alone, with the ``QSqrt3`` predicates
``orientation`` and ``cross``, and share no code with the tables.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from chord_euler.chords import ChordSet
from chord_euler.exact_scalar import QSqrt3
from chord_euler.geometry import (
    CollinearTriple,
    GeometryError,
    Point,
    Polygon,
    Segment,
    cross,
    orientation,
)
from chord_euler.partition import PartitionResult, subdivide


class PointOnBoundary(GeometryError):
    pass


def segments_properly_cross(s1: Segment, s2: Segment) -> bool:
    """Whether the open segments intersect transversally in one point.

    Segments sharing an endpoint never properly cross.  Collinear contact is
    reported as no crossing.
    """
    o1 = orientation(s1.a, s1.b, s2.a)
    o2 = orientation(s1.a, s1.b, s2.b)
    if o1 * o2 >= 0:
        return False
    o3 = orientation(s2.a, s2.b, s1.a)
    o4 = orientation(s2.a, s2.b, s1.b)
    return o3 * o4 < 0


def coordinate_crossing_masks(segments: Sequence[Segment]) -> list[int]:
    """Bit mask per segment marking the segments it properly crosses."""
    m = len(segments)
    masks = [0] * m
    for a in range(m):
        for b in range(a + 1, m):
            if segments_properly_cross(segments[a], segments[b]):
                masks[a] |= 1 << b
                masks[b] |= 1 << a
    return masks


def no_three_collinear(points: Sequence[Point]) -> bool:
    return all(orientation(a, b, c) != 0 for a, b, c in combinations(points, 3))


def area2(poly: Polygon) -> QSqrt3:
    """Twice the signed area (positive: the polygon is CCW)."""
    vs = poly.vertices
    total = QSqrt3(0)
    for i in range(1, poly.n - 1):
        total = total + cross(vs[0], vs[i], vs[i + 1])
    return total


def angle_exceeds_pi(a: Point, x: Point, y: Point) -> bool:
    """Whether the CCW angle at ``a`` from ray a->x to ray a->y exceeds pi.

    Collinear triples are outside the model (general position) and raise.
    """
    o = orientation(a, x, y)
    if o == 0:
        raise CollinearTriple(0, 1, 2)
    return o == -1


def _on_segment(p: Point, a: Point, b: Point) -> bool:
    # p collinear with a-b assumed checked by caller via orientation == 0.
    dx, dy = b.x - a.x, b.y - a.y
    t1 = (p.x - a.x) * dx + (p.y - a.y) * dy
    t2 = (p.x - b.x) * dx + (p.y - b.y) * dy
    return t1.sign() >= 0 and t2.sign() <= 0


def point_in_polygon(pt: Point, poly: Polygon) -> bool:
    """Exact even-odd test; True iff strictly inside.

    Points on the boundary raise :class:`PointOnBoundary`.  The ray starts
    along +x and is rotated to slope 1/k (k = 1, 2, ...) until it avoids all
    vertices exactly.
    """
    vs = poly.vertices
    for i in range(poly.n):
        a, b = vs[i], vs[(i + 1) % poly.n]
        if orientation(a, b, pt) == 0 and _on_segment(pt, a, b):
            raise PointOnBoundary(f"point {pt!r} lies on edge {i}")
    k = 0
    while True:
        dx, dy = (QSqrt3(1), QSqrt3(0)) if k == 0 else (QSqrt3(k), QSqrt3(1))
        clean = True
        for v in vs:
            if ((v.x - pt.x) * dy - (v.y - pt.y) * dx).sign() == 0:
                clean = False
                break
        if clean:
            break
        k += 1
    crossings = 0
    for i in range(poly.n):
        u, w = vs[i], vs[(i + 1) % poly.n]
        su = ((u.x - pt.x) * dy - (u.y - pt.y) * dx).sign()
        sw = ((w.x - pt.x) * dy - (w.y - pt.y) * dx).sign()
        if su * sw >= 0:
            continue
        # The edge straddles the ray line; keep the crossing iff it is ahead.
        ex, ey = w.x - u.x, w.y - u.y
        num = (u.x - pt.x) * ey - (u.y - pt.y) * ex
        den = dx * ey - dy * ex
        if num.sign() * den.sign() > 0:
            crossings += 1
    return crossings % 2 == 1


def convex_hull_points(points: Sequence[Point]) -> list[Point]:
    """CCW hull vertex list (Andrew's monotone chain, exact comparisons)."""
    if len(points) < 3:
        raise GeometryError("hull needs at least 3 points")
    pts = sorted(set(points), key=_numeric_key)
    lower: list[Point] = []
    for p in pts:
        while len(lower) >= 2 and orientation(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Point] = []
    for p in reversed(pts):
        while len(upper) >= 2 and orientation(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise GeometryError("all points collinear")
    return hull


class _numeric_key:
    __slots__ = ("p",)

    def __init__(self, p: Point):
        self.p = p

    def __lt__(self, other: "_numeric_key") -> bool:
        dx = (self.p.x - other.p.x).sign()
        if dx != 0:
            return dx < 0
        return (self.p.y - other.p.y).sign() < 0


def convex_hull(points: Sequence[Point]) -> Polygon:
    """Hull as a CCW polygon (general position: no three input points collinear)."""
    return Polygon._trusted(convex_hull_points(points))


def part_polygon(res: PartitionResult, k: int) -> Polygon:
    """Face k of a subdivision as a polygon on the parent's vertices."""
    vs = res.parent.vertices
    return Polygon._trusted([vs[i] for i in res.parts[k]])


def _part_is_convex(vs: Sequence[Point], part: Sequence[int]) -> bool:
    k = len(part)
    for t in range(k):
        a, b, c = vs[part[t - 1]], vs[part[t]], vs[part[(t + 1) % k]]
        if cross(a, b, c).sign() <= 0:
            return False
    return True


def is_convex_partition(poly: Polygon, cut: ChordSet) -> bool:
    """Subdivide and test each face for convexity on coordinates.

    The library decides the same from the orientation table: J cuts the
    polygon into convex faces iff ``convexity_constraints(poly, J)`` is
    feasible.
    """
    res = subdivide(poly, cut)
    return all(_part_is_convex(poly.vertices, p) for p in res.parts)
