"""Non-crossing families of segments: f-vectors, Euler characteristic, hearts.

A family of segments is non-crossing when segment interiors are pairwise
disjoint (shared endpoints allowed).  ``f_i`` counts the i-element
non-crossing subsets; the Euler characteristic is the alternating sum, i.e.
the f-polynomial sum f_i x^i at x = -1.

One interval recurrence gives both the f-polynomials of :func:`f_vector`
and Theorem 3's chis (:func:`star_ear_chis`).  It needs crossing to be
interleaving along the boundary cycle.  It is among the diagonals and among
the epigonals, and a diagonal and an epigonal never cross (proved in
:mod:`chord_euler.chords`), so the f-polynomial of a family is the product
of those of its diagonal part and of its epigonal part.  The recurrence
reads only, per vertex, the mask of its partners in the family (for a whole
kind, the universe's ``diag`` or ``epi``): no crossing masks, no coordinates.

For a family F, V(p, q) sums x^|S| over the non-crossing sets S of
F-chords with both ends in the interval p..q of the boundary cycle, leaving
out the chord (p, q) itself.  Split on the chord of S at p with the
farthest other end v, which splits S into its parts inside p..v and v..q
(the interval decomposition of Flajolet and Noy, "Analytic combinatorics of
non-crossing configurations", Discrete Math. 204, 1999):

    V(p, p+1) = 1,
    V(p, q) = w(p+1, q) V(p+1, q) + x * sum over (p, v) in F, p+1 < v < q,
              of V(p, v) w(v, q) V(v, q),

where w(a, b) is 1 + x if (a, b) is in F and 1 otherwise: a chord that
spans its whole interval crosses nothing in it.  :func:`_intervals` keeps
one table, of w(p, q) V(p, q), and each chord (p, v) of F carries its
V(p, v), the only unweighted V read, in its end at p.  It builds the table
in O(n^3) ring operations at one of two points:

* x = 2^width, for :func:`f_vector`, on the intervals p..q with p < q (the
  cycle cut open between n-1 and 0); V(0, n-1), the f-polynomial, is the
  cell of the edge (0, n-1).  A
  polynomial is packed into one integer, the coefficient of x^k in bits
  [k*width, (k+1)*width).  The integer arithmetic is exact, so the result
  is the f-polynomial's value at 2^width, and it unpacks to the f-vector
  as long as no coefficient reaches 2^width (:func:`_dp_f_vector` bounds
  them).
* x = -1, for :func:`star_ear_chis`, on every cyclic interval.  Theorem 3
  asks, at every vertex i, for chi of the diagonals D and of the epigonals
  E less the star of i (the chords at i) and less its ear chord
  (i-1, i+1).  With inner = V(i+1, i-1) (no chord at i, no ear) and
  chi(F) = V(i+1, i), the ear crosses exactly the chords at i, so

      chi(F - star(i)) = 0 if ear(i) is in F, else inner,
      chi(F - ear(i))  = chi(F) + inner if ear(i) is in F, else chi(F),

  the second by the deletion identity chi(A - e) = chi(A) + chi(A - N[e]);
  an ear in F has a zero cell, and its end holds inner.

A heart of F is a non-crossing H within F that every maximal non-crossing
set of F meets; then chi(F) = 0.  A maximal non-crossing set of D is a
triangulation, and one of E is each pocket's hull chord plus a triangulation
of the pocket, so all maximal sets of D, or of E, have one size.

Two slower routes are kept as independent oracles:

* ``euler_brute``  - alternating sum of a full DFS enumeration
  (:func:`iter_nc_masks`) on the crossing masks; :func:`f_vector` also uses
  the DFS for segment lists and for sets holding a boundary-crossing chord;
* ``euler_recursive`` - the deletion identity chi(A) = chi(A - v) - chi(A_v),
  memoized per connected component.  chi of a disjoint union is the product
  of its parts' chis, so one pass finds every component first, and an
  isolated member (chi 0) returns 0 before any recursion.

Both read crossing masks.  A chord set within D or within E, and the
:class:`EulerEngine` that ``partition`` builds for such families, take the
interleaving masks of their n (``ChordOrder.interleave``) as they are; a
chord set of both kinds takes its universe's, which keep the kinds apart.
A chord set holding a boundary-crossing chord, and a segment list, get
theirs from the straddle test on an orientation table
(``geometry.straddle_masks``): the universe's, or for a segment list the
table of its distinct endpoints, so a segment list must be in general
position too.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .chords import ChordKind, ChordSet, ChordUniverse
from .geometry import Point, Polygon, Segment, hull_successors, orientation_table, straddle_masks
from . import chords as _chords


class InstanceTooLarge(ValueError):
    """An instance past a size limit; the CLI exits 3 on it.

    The limits are the caps on |J|, ``partition.IE_CAP`` also on the number
    of inclusion-exclusion sets, and the interpreter's recursion limit.
    """


@dataclass(frozen=True)
class FVector:
    """Counts (f_0, f_1, ...) of non-crossing subfamilies by size."""

    counts: tuple[int, ...]

    def __post_init__(self):
        if not self.counts or self.counts[0] != 1:
            raise ValueError("f_0 must be 1")
        if len(self.counts) > 1 and self.counts[-1] == 0:
            raise ValueError("trailing zeros must be trimmed")

    def __getitem__(self, i: int) -> int:
        return self.counts[i] if i < len(self.counts) else 0

    def __len__(self) -> int:
        return len(self.counts)

    @property
    def euler(self) -> int:
        return sum((-1) ** i * c for i, c in enumerate(self.counts))

    def alternating_tail(self) -> int:
        """f_1 - f_2 + f_3 - ... (the sums appearing in the polygon criteria)."""
        return sum((-1) ** (i - 1) * c for i, c in enumerate(self.counts) if i >= 1)


def _adjacency(family: ChordSet | Sequence[Segment]) -> tuple[Sequence[int], int]:
    """A family's crossing masks and member mask.

    A chord set within D or within E reads the interleaving masks of its n
    (``ChordOrder.interleave``): within one kind, crossing is interleaving.
    A chord set of both kinds reads its universe's crossing masks, which keep
    a diagonal and an epigonal apart even when they interleave.  Any other
    family is straddle-tested on an orientation table
    (:func:`geometry.straddle_masks`): a chord set on its universe's, over its
    members, and a segment list on the table of its distinct endpoints,
    indexed in first-seen order, which raises :class:`CollinearTriple` when
    three of them are collinear.  The table costs O(p^3) in the p endpoints,
    the test O(m^2) in the m segments.  Measured against coordinate
    orientations per pair (Python 3.11, one Xeon core, best of 5): every
    segment over 6 to 18 points is 19 to 37 times as fast (4.4 ms against
    125 ms at 18 points), but m pairwise disjoint segments (2m endpoints)
    break even near m = 8 and are slower past it (1.6 ms against 1.0 ms at
    m = 16, 24 ms against 4.1 ms at m = 32).  Only tests build segment
    lists.
    """
    if isinstance(family, ChordSet):
        uni, mask = family.universe, family.mask
        if not mask & uni.kind_mask(ChordKind.BOUNDARY_CROSSING):
            d = mask & uni.kind_mask(ChordKind.DIAGONAL)
            return uni.order.interleave if d in (0, mask) else uni.crossing_masks, mask
        left, n, ends = uni.left, uni.n, list(family)
    else:
        index: dict[Point, int] = {}
        ends = [(index.setdefault(s.a, len(index)), index.setdefault(s.b, len(index)))
                for s in family]
        left, n = orientation_table(list(index)), len(index)
    return straddle_masks(left, n, ends), (1 << len(ends)) - 1


def _bits(mask: int) -> list[int]:
    """The set bit positions of ``mask``, lowest first."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def _dfs_f_vector(family: ChordSet | Sequence[Segment]) -> FVector:
    """The sizes of the sets :func:`iter_nc_masks` enumerates, counted."""
    sizes = Counter(map(int.bit_count, iter_nc_masks(*_adjacency(family))))
    # Every size up to the largest occurs: the sets are closed under subsets.
    return FVector(tuple(sizes[k] for k in range(len(sizes))))


def _neighbours(uni: ChordUniverse, fam: int) -> list[int]:
    """Per vertex v, the vertex mask of the w with (v, w) a chord of ``fam``."""
    nbr = [0] * uni.n
    for k in _bits(fam):
        i, j = uni.chords[k]
        nbr[i] |= 1 << j
        nbr[j] |= 1 << i
    return nbr


def _intervals(nbr: Sequence[int], x: int,
               cyclic: bool) -> tuple[list[list[int]], list[list[tuple[int, int]]]]:
    """The interval table of the module docstring at ``x``, and the chord ends.

    ``table[p][L]`` = w(p, p + L) V(p, p + L), and ``ends[p]`` lists, by
    increasing d, the pairs (d, V(p, p + d)) over the family's chords
    (p, p + d).  ``nbr`` is the family's :func:`_neighbours`.  The intervals
    run over the whole cycle if ``cyclic``, else only those with p + L < n.
    """
    n = len(nbr)
    table = [[0, 1] + [0] * (n - 2) for _ in range(n)]
    rows = table * 2  # rows[p + d] is row (p + d) mod n
    ends: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for length in range(2, n):
        for p in range(n if cyclic else n - length):
            val = rows[p + 1][length - 1]
            if ends[p]:
                split = 0
                for d, v in ends[p]:
                    split += v * rows[p + d][length - d]
                val += x * split
            if nbr[p] >> (p + length) % n & 1:
                ends[p].append((length, val))
                val *= 1 + x
            table[p][length] = val
    return table, ends


def _dp_f_vector(family: ChordSet) -> FVector:
    """The interval DP of the module docstring; needs no boundary-crossing chord.

    The packing width is ``min(|family|, 3(n - 3) * parts) + 1`` bits, with
    ``parts`` the number of kinds (D, E) the family meets.  A coefficient
    counts distinct non-crossing subsets of one size, so it is below
    2^|family|.  The chords of one kind cross only by interleaving, so a
    non-crossing set of them is a dissection of a convex n-gon, and there
    are at most s(n - 2) of those, the little Schroeder number.  Its
    recurrence (k + 1) s(k) = 3(2k - 1) s(k - 1) - (k - 2) s(k - 2) gives
    s(k) < 6 s(k - 1), so s(n - 2) <= 6^(n - 3) < 2^(3(n - 3)).  The D part
    and the E part multiply, so a coefficient is below 2^(3(n - 3) * parts).
    A convex n-gon's D has s(n - 2) non-crossing sets in all.
    """
    uni = family.universe
    parts = []
    for kind, nbr in ((ChordKind.DIAGONAL, uni.diag), (ChordKind.EPIGONAL, uni.epi)):
        whole = uni.kind_mask(kind)
        part = family.mask & whole
        if part:
            parts.append(nbr if part == whole else _neighbours(uni, part))
    width = min(family.mask.bit_count(), 3 * (uni.n - 3) * len(parts)) + 1
    total = 1
    for nbr in parts:
        total *= _intervals(nbr, 1 << width, cyclic=False)[0][0][-1]  # the edge (0, n - 1)
    counts = []
    low = (1 << width) - 1
    while total:
        counts.append(total & low)
        total >>= width
    return FVector(tuple(counts))


def f_vector(family: ChordSet | Sequence[Segment]) -> FVector:
    """Exact non-crossing family counts (f_0, f_1, ...).

    A chord set with no boundary-crossing chord is counted by the interval
    recurrence of the module docstring at the packed x: once for its
    diagonal part and once for its epigonal part, each in O(n^3) polynomial
    products, and the two polynomials multiply.  Segment lists and chord
    sets holding a boundary-crossing chord are enumerated by the
    output-sensitive DFS on their crossing masks.
    """
    if isinstance(family, ChordSet):
        if not family.mask & family.universe.kind_mask(ChordKind.BOUNDARY_CROSSING):
            return _dp_f_vector(family)
    return _dfs_f_vector(family)


def _star_ear(nbr: Sequence[int]) -> list[tuple[int, int]]:
    """Per vertex i: chi(F - star(i)) and chi(F - ear(i)) for the family ``nbr``."""
    n = len(nbr)
    table, ends = _intervals(nbr, -1, cyclic=True)
    out = []
    for i in range(n):
        a = (i + 1) % n
        ear = nbr[a] >> (i - 1) % n & 1  # then (a, a + n - 2) is a's last chord end
        inner, whole = ends[a][-1][1] if ear else table[a][n - 2], table[a][n - 1]
        out.append((0, whole + inner) if ear else (inner, whole))
    return out


def star_ear_chis(uni: ChordUniverse) -> tuple[tuple[int, int, int, int], ...]:
    """Per vertex i: chi of D and E less star(i), then of D and E less ear(i).

    Read from one x = -1 interval table per family (module docstring), on
    the universe's vertex kind masks ``diag`` and ``epi``, and cached on the
    universe.
    """
    if uni.star_ear_rows is None:
        d, e = _star_ear(uni.diag), _star_ear(uni.epi)
        uni.star_ear_rows = tuple((ds, es, de, ee) for (ds, de), (es, ee) in zip(d, e))
    return uni.star_ear_rows


def iter_nc_masks(adj: Sequence[int], live: int):
    """Yield the bit mask of every non-crossing subfamily of ``live``.

    The order is depth first: a set, then each of its extensions by one
    higher member, lowest first, with all of that one's extensions before
    the next.  The stack holds the pending sets, the lowest extension on top.
    """
    order = _bits(live)
    bits = [1 << k for k in order]
    sub_adj = [adj[k] & live for k in order]
    stack = [(0, 0, 0)]
    while stack:
        pos, chosen, banned = stack.pop()
        yield chosen
        for t in range(len(order) - 1, pos - 1, -1):
            if not banned & bits[t]:
                stack.append((t + 1, chosen | bits[t], banned | sub_adj[t]))


def euler_brute(family: ChordSet | Sequence[Segment]) -> int:
    """Alternating sum of the DFS-enumerated f-vector (the slow oracle).

    It always enumerates, on the crossing masks, and never takes the DP
    route of :func:`f_vector`, so the two can be compared.
    """
    return _dfs_f_vector(family).euler


def _chi(adj: Sequence[int], live: int, memo: dict[int, int]) -> int:
    # Every component first, each with its pivot: highest degree, lowest on ties.
    comps = []
    rem = live
    while rem:
        v = (rem & -rem).bit_length() - 1
        comp = frontier = 1 << v
        best_d, best_v = -1, v
        while frontier:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                u = low.bit_length() - 1
                nbrs = adj[u] & live
                d = nbrs.bit_count()
                if d > best_d or d == best_d and u < best_v:
                    best_d, best_v = d, u
                nxt |= nbrs
            frontier = nxt & ~comp
            comp |= frontier
        if comp & (comp - 1) == 0:
            return 0  # isolated segment: chi({v}) = 0 kills the product
        rem &= ~comp
        comps.append((comp, best_v))
    total = 1
    for comp, v in comps:
        val = memo.get(comp)
        if val is None:
            without = comp & ~(1 << v)
            val = memo[comp] = _chi(adj, without, memo) - _chi(adj, without & ~adj[v], memo)
        if val == 0:
            return 0
        total *= val
    return total


def _chi_within_limit(adj: Sequence[int], live: int, memo: dict[int, int]) -> int:
    try:
        return _chi(adj, live, memo)
    except RecursionError:  # the memo holds finished values only and stays valid
        raise InstanceTooLarge(f"recursion too deep: {live.bit_count()} segments") from None


def euler_recursive(family: ChordSet | Sequence[Segment]) -> int:
    """Deletion-identity evaluation with per-call memoization.

    Raises :class:`InstanceTooLarge` past the interpreter's recursion limit.
    """
    return _chi_within_limit(*_adjacency(family), {})


class EulerEngine:
    """Evaluator sharing one memo across many subfamilies of one chord universe.

    The one that ``partition`` builds for the faces of a polygon's Theorem-2
    routes lives in the universe's ``partition_state``, on the interleaving
    masks of its n, and asks only families within one kind; results are
    identical to :func:`euler_recursive`, and so is the size error.  The
    memo holds finished values only, one per component; components come
    first, so a query with an isolated member returns 0 before recursing.
    """

    def __init__(self, adj: Sequence[int]):
        self.adj = adj
        self._memo: dict[int, int] = {}

    def chi(self, mask: int) -> int:
        return _chi_within_limit(self.adj, mask, self._memo)


def is_heart(family: ChordSet, heart: ChordSet) -> bool:
    """Whether every maximal non-crossing subfamily of ``family`` meets ``heart``.

    ``family`` must be D or E of its polygon.  Its maximal non-crossing sets
    are triangulations (module docstring), all of one size top, the degree
    of its f-polynomial, and a non-crossing set of size top is maximal.  So
    H is a heart iff F - H has no non-crossing set of size top, which the
    interval DP reads without crossing masks; H is non-crossing iff its own
    f-polynomial has degree |H|.  Every non-crossing family extends to a
    maximal one, so this is also the definition's extension form.
    """
    if not isinstance(family, ChordSet) or not isinstance(heart, ChordSet):
        raise TypeError("family and heart must be chord sets")
    uni = family.universe
    if family.mask not in (uni.kind_mask(ChordKind.DIAGONAL), uni.kind_mask(ChordKind.EPIGONAL)):
        raise ValueError("family must be the diagonals or the epigonals of its polygon")
    if heart.universe is not uni or heart.mask & ~family.mask:
        raise ValueError("heart must be a subset of the family")
    if len(f_vector(heart)) != len(heart) + 1:
        raise ValueError("heart members must be pairwise non-crossing")
    top = len(f_vector(family)) - 1
    return f_vector(family - heart)[top] == 0


def find_heart(polygon: Polygon, side: str) -> ChordSet | None:
    """A heart candidate from the structure theory, or None for convex input.

    side 'd': all diagonals at the lowest-index reflex vertex (every
    triangulation must cut that angle).  side 'e': the lowest hull edge that
    is not a polygon edge (it crosses no other epigonal).
    """
    if side not in ("d", "e"):
        raise ValueError("side must be 'd' or 'e'")
    uni = _chords.universe_of(polygon)
    if polygon.is_convex:
        return None
    if side == "d":
        v = min(polygon.reflex_vertices)
        mask = uni.incidence[v] & uni.kind_mask(_chords.ChordKind.DIAGONAL)
        if mask == 0:
            raise AssertionError("reflex vertex without incident diagonal")
        return ChordSet(uni, mask)
    if not uni.pockets:
        raise AssertionError("non-convex polygon without hull-edge epigonal")
    return uni.set_of([uni.pockets[0].hull_chord])


def chi_point_family(points: Sequence[Point], segments: Sequence[Segment]) -> int:
    """Euler characteristic of an arbitrary segment family over a point set.

    The points must be in general position: their orientation table raises
    :class:`CollinearTriple`, a ``ValueError``, otherwise.
    """
    pts = list(points)
    members = set(pts)
    for s in segments:
        if s.a not in members or s.b not in members:
            raise ValueError(f"segment endpoint outside the point set: {s!r}")
    orientation_table(pts)
    return euler_recursive(list(segments))


def hull_edge_in(points: Sequence[Point], segments: Sequence[Segment]) -> bool:
    """Whether the family contains an edge of the point set's convex hull.

    The hull is read from the points' orientation table, which raises
    :class:`CollinearTriple` on three collinear points.
    """
    pts = list(points)
    succ = hull_successors(orientation_table(pts), len(pts))
    edges = {frozenset((pts[a], pts[b])) for a, b in succ.items()}
    return any(s.key() in edges for s in segments)
