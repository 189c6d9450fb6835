"""Coordinate routes kept as the tests' independent oracles.

The library decides every geometric question from orientation tables: a
segment family's crossings by the straddle test, general position by the
table's :class:`CollinearTriple`, the hull by ``hull_successors``, chord
kinds and face convexity from the polygon's table.  The routes below decide
the same questions on the rational coordinates alone, with the predicates
``orientation`` and ``cross``, and share no code with the tables.  Two
routes read a table: :func:`vertex_kinds_by_edges`, a loop over vertices and
edges against the library's whole-table mask arithmetic, and
:func:`window_constraints_by_vertices`, a scan of every vertex against the
library's scan of the vertices that J touches.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Sequence

from chord_euler.chords import ChordSet, universe_of
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


def lattice_collinear_vertices(points: Sequence) -> set[int]:
    """The vertices of the collinear triples of zigzag lattice points.

    A lattice point is a pair of coordinates a + b*sqrt(3), each the rational
    pair (a, b); a triple is collinear iff its two cross-product terms are
    equal in Q(sqrt 3), compared as pairs.
    """

    def sub(u, v):
        return (u[0] - v[0], u[1] - v[1])

    def mul(u, v):
        return (u[0] * v[0] + 3 * u[1] * v[1], u[0] * v[1] + u[1] * v[0])

    out: set[int] = set()
    for i, j, k in combinations(range(len(points)), 3):
        (ox, oy), (px, py), (qx, qy) = points[i], points[j], points[k]
        if mul(sub(px, ox), sub(qy, oy)) == mul(sub(py, oy), sub(qx, ox)):
            out |= {i, j, k}
    return out


def area2(poly: Polygon) -> Fraction:
    """Twice the signed area (positive: the polygon is CCW)."""
    vs = poly.vertices
    total = Fraction(0)
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
    return t1 >= 0 and t2 <= 0


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
        dx, dy = (1, 0) if k == 0 else (k, 1)
        clean = True
        for v in vs:
            if (v.x - pt.x) * dy - (v.y - pt.y) * dx == 0:
                clean = False
                break
        if clean:
            break
        k += 1
    crossings = 0
    for i in range(poly.n):
        u, w = vs[i], vs[(i + 1) % poly.n]
        su = (u.x - pt.x) * dy - (u.y - pt.y) * dx
        sw = (w.x - pt.x) * dy - (w.y - pt.y) * dx
        if su * sw >= 0:
            continue
        # The edge straddles the ray line; keep the crossing iff it is ahead.
        ex, ey = w.x - u.x, w.y - u.y
        num = (u.x - pt.x) * ey - (u.y - pt.y) * ex
        den = dx * ey - dy * ex
        if num * den > 0:
            crossings += 1
    return crossings % 2 == 1


def convex_hull_points(points: Sequence[Point]) -> list[Point]:
    """CCW hull vertex list (Andrew's monotone chain, exact comparisons)."""
    if len(points) < 3:
        raise GeometryError("hull needs at least 3 points")
    pts = sorted(set(points), key=lambda p: (p.x, p.y))
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
        if cross(a, b, c) <= 0:
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


def vertex_kinds_by_edges(n: int, left: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``chords._vertex_kinds`` by one loop per vertex and edge.

    Per vertex i, the vertex masks of its diagonal and its epigonal partners,
    read from the orientation table ``left`` one edge at a time.
    """
    full = (1 << n) - 1
    diag, epi = [], []
    for i in range(n):
        p, q = (i - 1) % n, (i + 1) % n
        into, out = left[p * n + i], left[i * n + q]
        cone = into & out if into >> q & 1 else into | out
        crossing = 0
        for t in range(i + 1, i + n - 1):  # the edges a -> b that miss v_i
            a, b = t % n, (t + 1) % n
            # The w with v_a, v_b on both sides of line i-w, across line a-b from v_i.
            side = left[a * n + b]
            if side >> i & 1:
                side ^= full ^ (1 << a | 1 << b)
            crossing |= (left[a * n + i] ^ left[b * n + i]) & side
        chord = full & ~(1 << p | 1 << i | 1 << q | crossing)
        diag.append(chord & cone)
        epi.append(chord & ~cone)
    return tuple(diag), tuple(epi)


def window_constraints_by_vertices(poly: Polygon, jm: int) -> tuple[int, ...]:
    """``partition._window_constraints`` by a scan of every vertex.

    The windows of every vertex are collected, the empty one at a reflex
    vertex that no chord of the chord mask ``jm`` touches included, and then
    reduced to the inclusion-minimal ones, read from the orientation table.
    """
    n, left = poly.n, poly.left
    uni = universe_of(poly)
    chords, incidence, reflex = uni.chords, uni.incidence, poly.reflex_vertices
    constraints: list[int] = []
    for v in range(n):
        at = jm & incidence[v]
        if not at:
            # The only window is the interior angle at v itself.
            if v in reflex:
                constraints.append(0)
            continue
        # Bit order lists the chords (w, v), w < v, first; (w - v) mod n, last.
        below: list[tuple[int, int]] = []
        rays: list[tuple[int, int]] = [((v + 1) % n, 0)]
        while at:
            low = at & -at
            at ^= low
            i, j = chords[low.bit_length() - 1]
            if j == v:
                below.append((i, low))
            else:
                rays.append((j, low))
        rays += [*below, ((v - 1) % n, 0)]
        for s in range(len(rays) - 1):
            row = left[v * n + rays[s][0]]
            mask = 0
            for wt, bit in rays[s + 1:]:
                if not row >> wt & 1:
                    constraints.append(mask)
                    break
                mask |= bit
    minimal: list[int] = []
    for m in sorted(set(constraints), key=int.bit_count):
        for q in minimal:
            if not q & ~m:
                break
        else:
            minimal.append(m)
    return tuple(minimal)
