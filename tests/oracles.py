"""Coordinate routes kept as the tests' independent oracles.

The library decides every geometric question from orientation tables: a
chord family's crossings by the straddle test, general position by the
table's :class:`CollinearTriple`, chord kinds, pockets and face convexity
from the polygon's table.  The routes below decide the same questions on
the rational coordinates alone, with the predicates ``orientation`` and
``cross``, and share no code with the tables.  Their data type is the
:class:`Segment`, a pair of points.  A family of segments, on which the
paper first defines chi, has its crossings from
:func:`coordinate_crossing_masks` and its chi from :func:`dfs_chi`, the
alternating sum of the library's DFS enumeration, or from ``EulerEngine``.
Two routes read a table: :func:`vertex_kinds_by_edges`, a loop over
vertices and edges against the library's whole-table mask arithmetic, and
:func:`window_constraints_by_vertices`, a scan of every vertex against the
library's scan of the vertices that J touches.  The rest are the library's
former routes, kept against its candidate tests:
:func:`pockets_by_hull_walk` walks :func:`hull_by_successors` (the former
``ChordUniverse.hull``: :func:`hull_successors`, formerly in ``geometry``,
on the polygon's table, O(n^2) tests) where the library tests only the
epigonals, and :func:`class2_class4_by_vertices` tests Classes 2 and 4 at
every vertex where the library tests the candidates that the reflex mask
names.

Every library polygon is built with its table and reflex set, by validation
or relabeled from a table already built.  :func:`cold_polygon` builds one
cold, unvalidated: a fresh table, and the reflex set read from coordinates.
The relabeling and validation tests compare against it, and the tests' hull,
face and pocket polygons, and paths that cross themselves, are made with it.

The last residents are test helpers and an oracle that no library route
calls, moved out of the package unchanged: :func:`euler_brute`, the
alternating sum of the DFS enumeration, against every chi route;
:func:`segments`, a chord set's coordinate segments; :func:`forbidden_star`
and :func:`ear_chord`, Theorem 3's removed sets as chord sets;
:func:`find_diagonal` and :func:`extend_to_triangulation`, a constructive
triangulation around a cut (:func:`_face_diagonal`, the one coordinate
comparison among them, picks the vertex farthest from an ear chord); and
:func:`perturb_to_general_position`, which nudges any point list off its
collinear triples through the zigzag's ``generators._perturb``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from chord_euler.chords import Chord, ChordSet, ChordUniverse, Pocket, universe_of
from chord_euler.classes import _convex_without
from chord_euler.generators import GeneratorError, _perturb
from chord_euler.geometry import (
    CollinearTriple,
    DuplicateVertex,
    GeometryError,
    Point,
    Polygon,
    cross,
    orientation,
    orientation_table,
    validate_polygon,
)
from chord_euler.nc_euler import _dfs_f_vector, iter_nc_masks
from chord_euler.partition import (
    PartitionError,
    PartitionResult,
    _check_noncrossing_diagonals,
    _cut,
    _faces,
    subdivide,
)


class PointOnBoundary(GeometryError):
    pass


class Segment:
    """A nondegenerate closed segment."""

    __slots__ = ("a", "b")

    def __init__(self, a: Point, b: Point):
        if a == b:
            raise GeometryError("degenerate segment")
        self.a = a
        self.b = b

    def key(self) -> frozenset[Point]:
        return frozenset((self.a, self.b))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Segment) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"Segment({self.a}, {self.b})"


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


def cold_polygon(vertices: Sequence[Point]) -> Polygon:
    """A polygon on ``vertices`` in the given order, not validated.

    Its table is a fresh :func:`orientation_table` and its reflex set is
    read from the coordinates, so it shares no code with a relabeled table
    or with validation's reflex set.  The vertices must be in general
    position; the path may cross itself.
    """
    vs, n = tuple(vertices), len(vertices)
    reflex = frozenset(i for i in range(n) if orientation(vs[i - 1], vs[i], vs[(i + 1) % n]) < 0)
    return Polygon._trusted(vs, orientation_table(vs), reflex)


def convex_hull(points: Sequence[Point]) -> Polygon:
    """Hull as a CCW polygon (general position: no three input points collinear)."""
    return cold_polygon(convex_hull_points(points))


def part_polygon(res: PartitionResult, k: int) -> Polygon:
    """Face k of a subdivision as a polygon on the parent's vertices."""
    vs = res.parent.vertices
    return cold_polygon([vs[i] for i in res.parts[k]])


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


def hull_successors(left: Sequence[int], n: int) -> dict[int, int]:
    """The counter-clockwise hull edges a -> b as {a: b}: every other point is left of them."""
    full = (1 << n) - 1
    succ = {}
    for a in range(n):
        for b in range(n):
            if left[a * n + b] | 1 << a | 1 << b == full:
                succ[a] = b
                break
    return succ


def hull_by_successors(uni: ChordUniverse) -> tuple[int, ...]:
    """Convex-hull vertex indices, CCW, starting at the smallest."""
    succ = hull_successors(uni.left, uni.n)
    out = [min(succ)]
    while (b := succ[out[-1]]) != out[0]:
        out.append(b)
    return tuple(out)


def pockets_by_hull_walk(uni: ChordUniverse) -> tuple[Pocket, ...]:
    """``ChordUniverse.pockets`` by a walk along the hull, in hull order."""
    hull, n = hull_by_successors(uni), uni.n
    out = []
    for t in range(len(hull)):
        a, b = hull[t], hull[(t + 1) % len(hull)]
        if (b - a) % n != 1:
            path = tuple((a + s) % n for s in range((b - a) % n + 1))
            out.append(Pocket(Chord.of(a, b), path))
    return tuple(out)


def class2_class4_by_vertices(poly: Polygon) -> tuple[int, int]:
    """The Class-2 and Class-4 vertex masks of ``classes._class_masks``, tested at every i."""
    n = poly.n
    full = (1 << n) - 1
    reflex = sum(1 << r for r in poly.reflex_vertices)
    if not reflex:
        return 0, 0
    class2 = class4 = 0
    for i in range(n):
        sides = 1 << (i - 1) % n | 1 << (i + 1) % n
        if reflex == full ^ sides ^ 1 << i:
            class2 |= 1 << i
        if not reflex & ~sides and _convex_without(poly, i):
            class4 |= 1 << i
    return class2, class4


def euler_brute(family: ChordSet) -> int:
    """Alternating sum of the DFS-enumerated f-vector (the slow oracle).

    It always enumerates, on the crossing masks, and never takes the DP
    route of ``f_vector``, so the two can be compared.
    """
    return _dfs_f_vector(family).euler


def dfs_chi(adj: Sequence[int], live: int) -> int:
    """chi of the members ``live`` on the crossing masks ``adj``, by the DFS enumeration."""
    return sum(-1 if m.bit_count() & 1 else 1 for m in iter_nc_masks(adj, live))


def segments(poly: Polygon, chords: Iterable[Chord]) -> list[Segment]:
    """The chords' segments between the polygon's vertices."""
    vs = poly.vertices
    return [Segment(vs[i], vs[j]) for i, j in chords]


def forbidden_star(polygon: Polygon, i: int) -> ChordSet:
    """All chords incident to vertex ``i`` (any kind)."""
    n = polygon.n
    if n < 5:
        raise ValueError("forbidden star needs n >= 5")
    if not 0 <= i < n:
        raise IndexError(i)
    uni = universe_of(polygon)
    return ChordSet(uni, uni.incidence[i])


def ear_chord(polygon: Polygon, i: int) -> ChordSet:
    """The singleton chord set {(i-1, i+1)}."""
    n = polygon.n
    if n < 4:
        raise ValueError("ear chord needs n >= 4")
    if not 0 <= i < n:
        raise IndexError(i)
    uni = universe_of(polygon)
    c = Chord.of((i - 1) % n, (i + 1) % n)
    return ChordSet(uni, 1 << uni.index[c])


def _face_diagonal(poly: Polygon, face: int, start: int) -> Chord:
    """A diagonal of the face with vertex mask ``face``, listed from ``start``.

    At the list's first convex vertex v: the ear chord if it is a diagonal,
    else v and the vertex in the ear triangle farthest from the ear chord
    (the first listed on ties).  A face's diagonals are the parent's on it,
    less its sides (``partition``'s module docstring); only the distance
    reads coordinates.
    """
    n, left = poly.n, poly.left
    part = [(start + s) % n for s in range(n) if face >> (start + s) % n & 1]
    k = len(part)
    t = next(t for t in range(k) if left[part[t - 1] * n + part[t]] >> part[(t + 1) % k] & 1)
    prev, v, nxt = part[t - 1], part[t], part[(t + 1) % k]
    diag = universe_of(poly).diag
    if diag[prev] >> nxt & 1:
        return Chord.of(prev, nxt)
    inside = face & left[prev * n + v] & left[v * n + nxt] & left[nxt * n + prev]
    vs = poly.vertices
    best, best_dist = None, None
    for d in part:
        if inside >> d & 1:
            dist = cross(vs[nxt], vs[prev], vs[d])  # positive: d is on v's side
            if best is None or dist > best_dist:
                best, best_dist = d, dist
    if best is None:
        raise AssertionError("ear blocked but triangle empty")
    out = Chord.of(v, best)
    if not diag[v] >> best & 1:
        raise AssertionError(f"constructed chord {out} is not a diagonal")
    return out


def find_diagonal(poly: Polygon) -> Chord:
    """A diagonal found constructively from the lowest-index convex vertex."""
    if poly.n < 4:
        raise PartitionError("a triangle has no diagonals")
    return _face_diagonal(poly, (1 << poly.n) - 1, 0)


def extend_to_triangulation(poly: Polygon, j_set: ChordSet) -> ChordSet:
    """A triangulation (n-3 pairwise non-crossing diagonals) containing J."""
    _check_noncrossing_diagonals(poly, j_set)
    uni = universe_of(poly)
    mask = j_set.mask
    # A face's diagonal depends on the vertex its list starts at: the least
    # one for a face of J, else an end of the cut that made it.
    stack = [(f, (f & -f).bit_length() - 1) for f in _faces(uni, mask) if f.bit_count() > 3]
    while stack:
        face, start = stack.pop()
        c = _face_diagonal(poly, face, start)
        mask |= 1 << uni.index[c]
        stack += [(f, v) for f, v in zip(_cut([face], *c), c) if f.bit_count() > 3]
    out = ChordSet(uni, mask)
    if len(out) != poly.n - 3:
        raise AssertionError("triangulation size mismatch")
    return out


def perturb_to_general_position(points: list[Point], structural_check=None) -> Polygon:
    """Nudge vertices out of collinear triples, deterministically.

    Inputs already in general position are returned unchanged, validated on
    the one orientation table that finds no collinear triple.  Otherwise the
    vertices of the table's collinear triples (its zero signs) are nudged by
    ``generators._perturb`` until the polygon validates and the structural
    check, if one is given, accepts.  A repeated point is collinear with
    every third point, so then every vertex is nudged.
    """
    check = structural_check or (lambda poly: True)
    try:
        poly = validate_polygon(points)
    except CollinearTriple as exc:
        bad = {v for triple in exc.triples for v in triple}
    except DuplicateVertex:
        bad = set(range(len(points)))
    else:
        if not check(poly):
            raise GeneratorError("input fails the structural check and needs no perturbation")
        return poly
    return _perturb(points, bad, check)
