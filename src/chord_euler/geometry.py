"""Exact planar predicates and simple-polygon structure.

Geometry enters once, as the :func:`orientation_table` of a point set.
Every polygon carries its vertices' table, built once per point set, and
its validation, reflex set and chord universe read it: a clockwise input's
reversal, a path's order (:func:`_path_polygon`) and a rotation
(``Polygon.rotated``) relabel the table already built (:func:`_relabel`).
Both read per-n slots from :func:`_slots_of`, shared up to ``SHARED_N``
points, the one cap of every table that depends on n alone.  A segment
family's crossings (:func:`straddle_masks`), a point set's general position
(the table raises :class:`CollinearTriple`) and its hull
(:func:`hull_successors`) read the table of its points.  Coordinates are
exact rationals; the scalar layer, ``Point``, :func:`cross` and
:func:`orientation`, decides on the sign of a rational, and the table lifts
the coordinates to integers once.  No decision uses floating point.
Polygons are stored counter-clockwise with vertices in general position (no
three collinear), the standing assumption of the combinatorics.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import lcm
from typing import Iterable, Iterator, Sequence

Coord = int | Fraction


class GeometryError(ValueError):
    pass


class PolygonError(GeometryError):
    pass


class TooFewVertices(PolygonError):
    pass


class DuplicateVertex(PolygonError):
    def __init__(self, i: int, j: int):
        super().__init__(f"duplicate vertices at indices {i} and {j}")
        self.indices = (i, j)


class CollinearTriple(PolygonError):
    # ``indices`` is the first collinear triple, ``triples`` every one found.
    def __init__(self, i: int, j: int, k: int, triples: Sequence[tuple[int, int, int]] = ()):
        super().__init__(f"collinear vertices at indices ({i}, {j}, {k})")
        self.indices = (i, j, k)
        self.triples = list(triples) or [self.indices]


class SelfIntersection(PolygonError):
    def __init__(self, e1: tuple[int, int], e2: tuple[int, int]):
        super().__init__(f"self-intersection ({e1[0]}-{e1[1]}, {e2[0]}-{e2[1]})")
        self.edges = (e1, e2)


class Point:
    """A point of the plane with rational coordinates: ints, else ``Fraction``s."""

    __slots__ = ("x", "y")

    def __init__(self, x: Coord, y: Coord):
        self.x = x if type(x) is int else Fraction(x)
        self.y = y if type(y) is int else Fraction(y)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Point) and self.x == other.x and self.y == other.y

    def __hash__(self) -> int:
        return hash((self.x, self.y))

    def __repr__(self) -> str:
        return f"Point({self.x}, {self.y})"


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


def cross(o: Point, p: Point, q: Point) -> Coord:
    """Cross product (p - o) x (q - o)."""
    return (p.x - o.x) * (q.y - o.y) - (p.y - o.y) * (q.x - o.x)


def orientation(p: Point, q: Point, r: Point) -> int:
    """+1 for a counter-clockwise turn p->q->r, -1 clockwise, 0 collinear."""
    c = cross(p, q, r)
    return (c > 0) - (c < 0)


class Polygon:
    """A simple polygon, CCW-normalized, vertices in general position.

    ``Polygon(vertices)`` validates on the orientation table it builds and
    keeps it (``left``), relabeled if the vertices were reversed, with its
    reflex set.  ``_trusted`` copies (``rotated``, :func:`_path_polygon`)
    are given both, relabeled; no copy builds its table on first use.  The
    chord universe is never carried: every copy starts with none.
    """

    # Set by ``chords.universe_of``; the universe holds this polygon weakly.
    _chord_universe = None

    def __init__(self, vertices: Sequence[Point]):
        vs = tuple(vertices)
        n, left = len(vs), _distinct_table(vs)
        _check_crossings(left, range(n))
        turned, reflex = _orient(left, range(n))
        if turned:
            vs, left = vs[::-1], _relabel(left, range(n - 1, -1, -1))
        self.vertices, self.n, self.left, self.reflex_vertices = vs, n, left, reflex

    @classmethod
    def _trusted(cls, vertices: Sequence[Point], left: tuple[int, ...],
                 reflex: frozenset[int]) -> Polygon:
        # For a table already built, with its reflex set: a validated
        # polygon's, relabeled.
        poly, vs = cls.__new__(cls), tuple(vertices)
        poly.vertices, poly.n, poly.left, poly.reflex_vertices = vs, len(vs), left, reflex
        return poly

    def rotated(self, shift: int) -> Polygon:
        """Same polygon with vertex ``shift`` relabeled as vertex 0.

        The copy's orientation table and reflex set are this polygon's,
        relabeled (shift 0 shares them).  It starts with no chord universe,
        so its universe and engine caches are built cold.
        """
        n = self.n
        shift %= n
        left, reflex = self.left, self.reflex_vertices
        if shift:
            left = _relabel(left, [*range(shift, n), *range(shift)])
            reflex = frozenset((v - shift) % n for v in reflex)
        return Polygon._trusted(self.vertices[shift:] + self.vertices[:shift], left, reflex)

    def ccw(self, i: int, j: int, k: int) -> bool:
        """Whether v_i -> v_j -> v_k turns counter-clockwise."""
        return bool(self.left[i * self.n + j] >> k & 1)

    @property
    def is_convex(self) -> bool:
        return not self.reflex_vertices

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Polygon) and self.vertices == other.vertices

    def __hash__(self) -> int:
        return hash(self.vertices)

    def __repr__(self) -> str:
        return f"Polygon[{self.n}]({', '.join(map(repr, self.vertices))})"


def orientation_table(points: Sequence[Point]) -> tuple[int, ...]:
    """The order type of a point sequence, as n*n bit masks.

    ``left[i*n + j]`` has bit k set iff p_i -> p_j -> p_k turns
    counter-clockwise.  The coordinates are lifted once to integers over one
    common denominator, so each of the C(n, 3) orientations is the sign of
    one integer determinant, summed from one precomputed 2x2 minor per pair.
    Raises :class:`CollinearTriple` after the scan if a sign is zero: it
    names the first collinear (i, j, k) in ``combinations`` order, and its
    ``triples`` lists them all.

    The loops read the pairs and triples from :func:`_slots_of`, which
    depend on n alone, and write only the upper entries (i < j).  With no
    zero sign, every point other than p_i and p_j lies on one side of their
    line, so a lower entry is the complement of its upper one:
    ``left[j*n + i] = full ^ left[i*n + j] ^ (1 << i | 1 << j)``.  The slots
    of up to ``SHARED_N`` points are cached; larger tables generate the
    triples on the fly, in the same loop.
    """
    n = len(points)
    coords = [c for p in points for c in (p.x, p.y)]
    d = lcm(*[c.denominator for c in coords])
    lifted = [c.numerator * (d // c.denominator) for c in coords]
    xs, ys = lifted[0::2], lifted[1::2]
    pairs, triples = _slots_of(n)
    # det[i*n + j] is x_i*y_j - x_j*y_i (times d squared), for i < j.
    det = [0] * (n * n)
    for i, j, ij, _, _ in pairs:
        det[ij] = xs[i] * ys[j] - xs[j] * ys[i]
    left = [0] * (n * n)
    zero = []  # the collinear triples
    for ij, ik, jk, bi, bj, bk in triples:
        # The cross product (p_j - p_i) x (p_k - p_i).
        sign = det[jk] - det[ik] + det[ij]
        if sign > 0:
            left[ij] |= bk
            left[jk] |= bi
        elif sign < 0:
            left[ik] |= bj
        else:
            zero.append((ij // n, ij % n, jk % n))
    if zero:
        raise CollinearTriple(*zero[0], triples=zero)
    full = (1 << n) - 1
    for _, _, ij, ji, ends in pairs:
        left[ji] = full ^ ends ^ left[ij]
    return tuple(left)


# The largest n whose per-n tables are shared: the slots (:func:`_slots_of`)
# and ``chords.chord_order``.
SHARED_N = 32

_Pair = tuple[int, int, int, int, int]
_Triple = tuple[int, int, int, int, int, int]


def _slots(n: int) -> tuple[tuple[_Pair, ...], Iterator[_Triple]]:
    """The slots of :func:`orientation_table`, in ``combinations`` order.

    Per pair i < j: i, j, the table entries ij and ji, and the bits of i and
    j.  Per triple i < j < k: the upper entries ij, ik and jk, and the bits of
    i, j and k.
    """
    # Shared int objects keep cached slots to their pointers.
    cell, bit = list(range(n * n)), [1 << v for v in range(n)]
    pairs = tuple([(i, j, cell[i * n + j], cell[j * n + i], bit[i] | bit[j])
                   for i, j in combinations(range(n), 2)])
    triples = ((cell[i * n + j], cell[i * n + k], cell[j * n + k], bit[i], bit[j], bit[k])
               for i, j, k in combinations(range(n), 3))
    return pairs, triples


def _slots_of(n: int) -> tuple[tuple[_Pair, ...], Iterable[_Triple]]:
    """The slots of n points: cached tuples up to ``SHARED_N``, else :func:`_slots`."""
    return _cached_slots(n) if n <= SHARED_N else _slots(n)


@lru_cache(maxsize=16)
def _cached_slots(n: int) -> tuple[tuple[_Pair, ...], tuple[_Triple, ...]]:
    """:func:`_slots` as tuples, kept for 16 sizes n <= ``SHARED_N``.

    They make a table 1.3 to 2 times as fast as triples generated on the
    fly.  Measured with tracemalloc, the slots of 32 points take 0.53 MiB,
    and the worst case, the 16 sizes 17..32, 4.3 MiB.
    """
    pairs, triples = _slots(n)
    return pairs, tuple(triples)


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


def first_crossing_edges(left: Sequence[int], order: Sequence[int]) -> tuple[int, int] | None:
    """First (i, j), i < j, whose edges along the closed path ``order`` properly cross.

    ``order`` visits every point of the orientation table ``left`` once, and
    edge i runs from ``order[i]`` to ``order[i+1]``.  Two edges with four
    distinct endpoints in general position cross iff each one's endpoints lie
    on opposite sides of the other's line.  Non-adjacent edge pairs are
    scanned with i, then j, ascending; None means the path does not cross
    itself.
    """
    n = len(order)
    ends = [(order[a], order[(a + 1) % n]) for a in range(n)]
    for i, (p, q) in enumerate(ends):
        side = left[p * n + q]
        for j in range(i + 2, n - 1 if i == 0 else n):
            r, s = ends[j]
            other = left[r * n + s]
            if (side >> r ^ side >> s) & (other >> p ^ other >> q) & 1:
                return i, j
    return None


def straddle_masks(left: Sequence[int], n: int, ends: Sequence[tuple[int, int]]) -> list[int]:
    """Bit mask per segment of ``ends`` marking the segments it properly crosses.

    A segment is an index pair over the orientation table ``left`` of n
    points.  Segments that share an endpoint never cross.  Any other two,
    (a, b) and (c, d), cross iff each one's endpoints lie on opposite sides
    of the other's line: iff ``(side_ab >> c ^ side_ab >> d) & (side_cd >> a
    ^ side_cd >> b) & 1``, with ``side_ab = left[a*n + b]``.
    """
    sides = [left[a * n + b] for a, b in ends]
    masks = [0] * len(ends)
    for x, (a, b) in enumerate(ends):
        side = sides[x]
        for y in range(x + 1, len(ends)):
            c, d = ends[y]
            if c in (a, b) or d in (a, b):
                continue
            if (side >> c ^ side >> d) & (sides[y] >> a ^ sides[y] >> b) & 1:
                masks[x] |= 1 << y
                masks[y] |= 1 << x
    return masks


def _distinct_table(vs: tuple[Point, ...]) -> tuple[int, ...]:
    """The orientation table of three or more distinct points, or the violated invariant."""
    if len(vs) < 3:
        raise TooFewVertices(f"{len(vs)} vertices")
    seen: dict[Point, int] = {}
    for i, p in enumerate(vs):
        if p in seen:
            raise DuplicateVertex(seen[p], i)
        seen[p] = i
    return orientation_table(vs)


def _check_crossings(left: Sequence[int], order: Sequence[int]) -> None:
    """Raises :class:`SelfIntersection` if the closed path ``order`` crosses itself.

    ``order`` visits every point of the orientation table ``left`` once.
    """
    pair = first_crossing_edges(left, order)
    if pair is not None:
        n, (i, j) = len(order), pair
        raise SelfIntersection((i, (i + 1) % n), (j, (j + 1) % n))


def _orient(left: Sequence[int], order: Sequence[int]) -> tuple[bool, frozenset[int]]:
    """Whether the path ``order`` runs clockwise, and the reflex set of it run counter-clockwise.

    ``left`` is an orientation table, and the closed path, which does not
    cross itself, visits its point ``order[v]`` as vertex v.
    """
    n = len(order)
    turns = [left[order[v - 1] * n + order[v]] >> order[(v + 1) % n] & 1 for v in range(n)]
    # CCW normalization: at a vertex of its convex hull a simple polygon turns
    # the way it runs round.  The first point with a hull edge is one.
    full = (1 << n) - 1
    hull = next(a for a in range(n)
                if any(left[a * n + b] | 1 << a | 1 << b == full for b in range(n)))
    if turns[order.index(hull)]:
        return False, frozenset(v for v in range(n) if not turns[v])
    return True, frozenset(n - 1 - v for v in range(n) if turns[v])


def _relabel(left: Sequence[int], order: Sequence[int]) -> tuple[int, ...]:
    """The orientation table of the points ``order[0], order[1], ...`` of the table ``left``.

    Entry (v, w) is entry (order[v], order[w]) of ``left`` with bit order[u]
    moved to bit u.  The n bits are cut into balanced chunks, at least two
    and each at most 8 bits wide, and move through one lookup table per
    chunk, so the cost is O(n^2 * ceil(n/8)).  Only the upper entries are
    moved; a lower one is the complement of its upper one, as in
    :func:`orientation_table`.
    """
    n = len(order)
    pairs = _slots_of(n)[0]
    rows = [p * n for p in order]
    chunks = max(2, -(-n // 8))  # two half-width tables cost less than one of 2^n entries
    bounds = [n * c // chunks for c in range(chunks + 1)]
    label = sorted(range(n), key=order.__getitem__)  # point p is vertex label[p]
    tables = []
    for lo, hi in zip(bounds, bounds[1:]):
        spread = [0]  # spread[x]: bit label[p] for each bit p of x << lo
        for u in label[lo:hi]:
            bit = 1 << u
            spread += [x | bit for x in spread]
        tables.append((lo, (1 << hi - lo) - 1, spread))
    out = [0] * (n * n)
    full = (1 << n) - 1
    for v, w, vw, wv, ends in pairs:
        cell, moved = left[rows[v] + order[w]], 0
        for lo, mask, spread in tables:
            moved |= spread[cell >> lo & mask]
        out[vw] = moved
        out[wv] = full ^ ends ^ moved
    return tuple(out)


def validate_polygon(vertices: Sequence[Point]) -> Polygon:
    """Build a CCW simple polygon or raise the specific violated invariant."""
    return Polygon(vertices)


def _path_polygon(points: Sequence[Point], left: Sequence[int], order: Sequence[int]) -> Polygon:
    """The polygon visiting distinct ``points`` in ``order``, validated on their table ``left``.

    ``order`` was already scanned (:func:`_check_crossings`) and found not
    to cross itself.  Equals ``validate_polygon([points[k] for k in order])``
    without building the orientation table again: the polygon keeps ``left``
    relabeled by the order, reversed with it if the path runs clockwise.
    """
    turned, reflex = _orient(left, order)
    if turned:
        order = order[::-1]
    return Polygon._trusted([points[k] for k in order], _relabel(left, order), reflex)
