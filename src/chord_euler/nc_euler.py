"""Non-crossing chord families: f-vectors, Euler characteristic, hearts.

A family of chords is non-crossing when their interiors are pairwise
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
spans its whole interval crosses nothing in it.  With W(p, q) =
w(p, q) V(p, q), :func:`_columns` runs the recurrence by columns: for each
right end q in turn, it computes V(p, q) for p from q-2 downwards, carrying
W(p+1, q) down the column.  The split term reads the column's own cells
W(v, q) for the chords (p, v) of F with v < q, and their V(p, v), the only
unweighted V read, recorded at p when column v ran.  So a column must reach
the lowest left end of its chords and need go no lower, and a column that
is the right end of no chord records nothing and is skipped, unless it
holds an output.  It takes O(n^3) ring operations at one of two points:

* x = 2^width, for :func:`f_vector`, on the intervals p..q with p < q (the
  cycle cut open between n-1 and 0).  Column n-1 runs down to 0, and its
  last cell is V(0, n-1), the f-polynomial.  A polynomial is packed into
  one integer, the coefficient of x^k in bits [k*width, (k+1)*width).  The
  integer arithmetic is exact, so the result is the f-polynomial's value at
  2^width, and it unpacks to the f-vector as long as no coefficient
  reaches 2^width (:func:`_dp_f_vector` bounds them).
* x = -1, for :func:`star_ear_chis`, on the cyclic intervals.  Theorem 3
  asks, at every vertex i, for chi of the diagonals D and of the epigonals
  E less the star of i (the chords at i) and less its ear chord
  (i-1, i+1).  With inner = V(i+1, i-1) (no chord at i, no ear) and
  chi(F) = V(i+1, i), the ear crosses exactly the chords at i, so

      chi(F - star(i)) = W(i+1, i-1): 0 if ear(i) is in F, else inner,
      chi(F - ear(i))  = chi(F) + inner if ear(i) is in F, else chi(F),

  the second by the deletion identity chi(A - e) = chi(A) + chi(A - N[e]).
  The columns run on the doubled cycle: index v + n stands for vertex v
  too, so a vertex mask m becomes m | m << n, and an interval of fewer than
  n indices holds each chord at most once.  Column n-1 runs down to 0 and
  gives chi(F) = V(0, n-1).  Columns n..2n-2 run the full length n-2, down
  to q-n+2.  Their bottom cells, with column n-1's cell at row 1, are the
  star cells W(a, a+n-2) for a = i+1 = 1..n, and no later column writes
  them.  Where the ear is in F, the bottom's chord end at a holds inner.
  Columns 2..n-2 run as for :func:`f_vector`, and no length-(n-1) layer is
  built.

A heart of F is a non-crossing H within F that every maximal non-crossing
set of F meets; then chi(F) = 0.  A maximal non-crossing set of D is a
triangulation, and one of E is each pocket's hull chord plus a triangulation
of the pocket, so all maximal sets of D, or of E, have one size.

Two slower routes read crossing masks instead:

* the DFS enumeration of :func:`iter_nc_masks`, which :func:`f_vector` uses
  for chord sets holding a boundary-crossing chord (its alternating sum on
  every family is the tests' ``euler_brute`` oracle, in
  ``tests/oracles.py``);
* ``euler_recursive`` - the deletion identity chi(A) = chi(A - v) - chi(A_v),
  with A_v = A - N[v], A less v and the members v crosses.  A first pass
  reads every member's crossings in A.  An isolated member has chi 0, and
  chi of a disjoint union is the product of its parts' chis, so the pass
  returns 0 on one before any recursion; it finishes before anything else,
  so that holds wherever the member sits.  Otherwise a leaf u, crossing
  only w, folds: at v = w the first term is 0, since u is isolated in
  A - w, so chi(A) = -chi(A - N[w]), one call on the whole family, not
  memoized.  Only a family with neither is split into its components, each
  memoized, with the deletion identity at a member of highest degree.

The crossing masks come from one of two sources.  A chord set within D or
within E, and the :class:`EulerEngine` that ``partition`` builds for such
families, take the interleaving masks of their n (``ChordOrder.interleave``)
as they are.  A chord set of both kinds or holding a boundary-crossing chord
is straddle-tested on its universe's orientation table
(``geometry.straddle_masks``), which keeps a diagonal and an epigonal apart
even where they interleave.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .chords import ChordKind, ChordSet, ChordUniverse
from .geometry import Polygon, straddle_masks
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


def _adjacency(family: ChordSet) -> tuple[Sequence[int], int]:
    """A chord set's crossing masks and member mask.

    A chord set within D or within E reads the interleaving masks of its n
    (``ChordOrder.interleave``): within one kind, crossing is interleaving.
    Any other is straddle-tested over its members on its universe's
    orientation table (:func:`geometry.straddle_masks`), which keeps a
    diagonal and an epigonal apart even when they interleave.
    """
    uni, mask = family.universe, family.mask
    if any(not mask & ~uni.kind_mask(kind) for kind in (ChordKind.DIAGONAL, ChordKind.EPIGONAL)):
        return uni.order.interleave, mask
    ends = list(family)
    return straddle_masks(uni.left, uni.n, ends), (1 << len(ends)) - 1


def _bits(mask: int) -> list[int]:
    """The set bit positions of ``mask``, lowest first."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def _dfs_f_vector(family: ChordSet) -> FVector:
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


def _columns(nbr: Sequence[int], x: int,
             stops: Sequence[int]) -> tuple[list[int], list[list[tuple[int, int]]]]:
    """The column recurrence of the module docstring at ``x``: cells and chord ends.

    Column q = 2, 3, ..., len(stops) - 1 runs from row q - 2 down to row
    ``stops[q]``, or, where that is -1, down to the lowest left end of its
    chords, and is skipped if it has none.  ``nbr[q]`` is the vertex mask of
    q's partners in the family (its :func:`_neighbours`).  Returns ``col``,
    where ``col[p]`` = w(p, q) V(p, q) for the last column q that reached row
    p, and ``ends``, where ``ends[p]`` lists, by increasing v, the pairs
    (v, V(p, v)) over the chords (p, v) that a column reached.
    """
    ends: list[list[tuple[int, int]]] = [[] for _ in stops]
    col = [0] * len(stops)
    for q in range(2, len(stops)):
        left = nbr[q] & (1 << q) - 1
        stop = stops[q] if stops[q] >= 0 else (left & -left).bit_length() - 1
        if stop < 0:
            continue  # q is the right end of no chord
        carry = col[q - 1] = 1  # W(p + 1, q), carried down the column
        for p in range(q - 2, stop - 1, -1):
            chords = ends[p]
            if chords:
                split = 0
                for v, val in chords:
                    split += val * col[v]
                carry += x * split
            if left >> p & 1:
                chords.append((q, carry))
                carry *= 1 + x
            col[p] = carry
    return col, ends


def _dp_f_vector(family: ChordSet) -> FVector:
    """The column recurrence at the packed x; needs no boundary-crossing chord.

    Per kind the family meets, columns 2..n-1 of the module docstring at
    x = 2^width: a column that is the right end of no chord is skipped, any
    other runs down to the lowest left end of its chords, and column n-1
    runs down to 0 for V(0, n-1).

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
        total *= _columns(nbr, 1 << width, [-1] * (uni.n - 1) + [0])[0][0]  # V(0, n - 1)
    counts = []
    low = (1 << width) - 1
    while total:
        counts.append(total & low)
        total >>= width
    return FVector(tuple(counts))


def f_vector(family: ChordSet) -> FVector:
    """Exact non-crossing family counts (f_0, f_1, ...) of a chord set.

    A chord set with no boundary-crossing chord is counted by the column
    recurrence of the module docstring at the packed x: once for its
    diagonal part and once for its epigonal part, each in at most O(n^3)
    polynomial products over the columns that end a chord, and the two
    polynomials multiply.  A chord set holding a boundary-crossing chord is
    enumerated by the output-sensitive DFS on its straddle-tested crossing
    masks.
    """
    if family.mask & family.universe.kind_mask(ChordKind.BOUNDARY_CROSSING):
        return _dfs_f_vector(family)
    return _dp_f_vector(family)


def _star_ear(nbr: Sequence[int]) -> list[tuple[int, int]]:
    """Per vertex i: chi(F - star(i)) and chi(F - ear(i)) for the family ``nbr``.

    From the x = -1 columns on the doubled cycle (module docstring).
    """
    n = len(nbr)
    nbr = [m | m << n for m in nbr] * 2
    col, ends = _columns(nbr, -1, [-1] * (n - 1) + [0, *range(2, n + 1)])
    # a = i + 1; an ear (a, a + n - 2) = (i + 1, i - 1) in F has a zero cell,
    # and its chord end holds inner.
    return [(0, col[0] + ends[a][-1][1]) if nbr[a] >> a + n - 2 & 1 else (col[a], col[0])
            for a in range(1, n + 1)]


def star_ear_chis(uni: ChordUniverse) -> tuple[tuple[int, int, int, int], ...]:
    """Per vertex i: chi of D and E less star(i), then of D and E less ear(i).

    Read from one run of the x = -1 columns per family on the doubled
    cycle (module docstring): chi(F) from column n-1, and the star cells
    from the columns' bottoms and the ears' chord ends.  The families are
    the universe's vertex kind masks ``diag`` and ``epi``; the rows are
    cached on the universe.
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


def _chi(adj: Sequence[int], live: int, memo: dict[int, int]) -> int:
    # One pass over every member first: an isolated one (chi 0) anywhere
    # returns 0 before any recursion.  Then a leaf u, whose one neighbour is
    # w, folds: chi(live - w) = 0, as u crosses nothing there, so the deletion
    # identity at w leaves -chi(live - N[w]), with no component split.
    leaf = -1
    rem = live
    while rem:
        low = rem & -rem
        rem ^= low
        nbrs = adj[low.bit_length() - 1] & live
        if not nbrs:
            return 0
        if leaf < 0 and not nbrs & (nbrs - 1):
            leaf = nbrs.bit_length() - 1
    if leaf >= 0:
        rest = live & ~adj[leaf] & ~(1 << leaf)
        return -_chi(adj, rest, memo) if rest else -1
    # Every component next, each with its pivot: highest degree, lowest on ties.
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


def euler_recursive(family: ChordSet) -> int:
    """Deletion-identity evaluation of a chord set, with per-call memoization.

    The crossing masks are :func:`_adjacency`'s: the interleaving masks
    within one kind, the straddle test otherwise.

    Raises :class:`InstanceTooLarge` past the interpreter's recursion limit.
    """
    return _chi_within_limit(*_adjacency(family), {})


class EulerEngine:
    """Evaluator sharing one memo across many subfamilies of one chord universe.

    The one that ``partition`` builds for the faces of a polygon's Theorem-2
    routes lives in the universe's ``partition_state``, on the interleaving
    masks of its n, and asks only families within one kind; results are
    identical to :func:`euler_recursive`, and so is the size error.  The
    memo holds finished values only, one per component.  A query's first
    pass returns 0 on an isolated member before any recursion, and a leaf
    folds it to one unmemoized query on the family less its neighbour's
    closed neighbourhood (module docstring).
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

