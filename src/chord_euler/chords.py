"""Chord universe of a polygon and exact chord classification.

A chord joins two non-consecutive vertices.  Each chord of a valid polygon is
exactly one of: a diagonal (interior), an epigonal (exterior), or boundary
crossing.  Chord sets are bit vectors over the polygon's fixed, lexicographic
chord universe, so set algebra is integer arithmetic and deterministic.

Geometry enters once per polygon, as the orientation table of its vertex
triples (``Polygon.left``, the polygon's order type, built by
``geometry.orientation_table``): ``left[i*n + j]`` has bit k set iff
v_i -> v_j -> v_k turns counter-clockwise.  The kinds and pockets are read
from it, and the crossing masks from the kinds, all by whole-mask
operations on n-bit vertex masks, m-bit chord masks and the packed table,
with no chord-pair or vertex-edge loop.

* Two segments with four distinct endpoints in general position cross iff
  each one's endpoints lie on opposite sides of the other's line.  Chord
  (i, w) crosses an edge a -> a+1 that touches neither end iff bit w is set
  in ``left[a*n + i] ^ left[(a+1)*n + i]`` (v_a, v_{a+1} straddle line i-w)
  and in the side of the edge's line away from v_i: ``left[a*n + a+1]``, or
  its complement less a and a+1 when v_i lies left of the edge.  The OR over
  the edges is the boundary-crossing partners of i.
* :func:`_vertex_kinds` takes every (edge, vertex) pair at once.  It packs
  the table into one integer, ``left[a*n + i]`` in field a*n + i, so that
  block a, n fields wide, belongs to the edge a -> a+1.  A field is 1, 2, 4
  or 8 bytes up to n = 64 and ceil(n/8) bytes past it.  The straddle test is
  the table XOR itself shifted down one block, block n - 1 paired with block
  0.  The side test replicates ``left[a*n + a+1]`` across block a and
  complements field (a, i) where its bit i is set.  A keep mask, one per n,
  drops each edge's own ends and the edge i-1 -> i at i.  The edge i -> i+1
  drops out by itself: at i its straddle is ``left[(i+1)*n + i]`` and its
  side ``left[i*n + i+1]``, which share no bit.  Then ceil(log2 n) shifts OR
  the n blocks into field i of block 0.
* A chord (i, j) that crosses no edge lies wholly inside or wholly outside
  the polygon, and near v_i it runs along v_i -> v_j.  So it is a diagonal iff
  v_j lies in the interior cone at v_i, the counter-clockwise sweep from
  v_i -> v_{i+1} to v_i -> v_{i-1}: ``left[(i-1)*n + i] & left[i*n + i+1]``
  at a convex vertex, the two sides' union at a reflex one.  The cones are
  taken fieldwise too, with the convexity bit read like the side bit.
* So the kinds are two tuples of vertex masks, ``diag[i]`` and ``epi[i]``,
  the partners of i across a diagonal and an epigonal.
* In the lexicographic order, row k holds the chords (k, l), l >= k + 2,
  less (0, n - 1), as one run of bits, so one shift places a vertex mask of
  k's partners: a kind's chord mask is one shift of ``diag[k]`` or ``epi[k]``
  per row, and ``incidence`` is built from the rows.
* Two chords interleave when each has exactly one end strictly between the
  other's along the boundary cycle.  A diagonal (i, j) cuts the polygon in
  two, on the arcs i..j and j..i, and another diagonal crosses it iff it
  joins the two arcs' insides: iff they interleave.  An epigonal is the hull
  chord or a diagonal of its pocket (the polygon a hull chord closes over a
  boundary arc), so two epigonals of one pocket cross iff they interleave,
  and two of different pockets, on arcs sharing at most an end, neither
  interleave nor cross.  A diagonal (inside) and an epigonal (outside) never
  cross.  So with ``odd[v]`` the XOR of ``incidence[0..v-1]``, the crossing
  mask of (i, j) is ``odd[j] ^ odd[i+1]`` (one end strictly between i and
  j), less the chords at i or j, within its kind.  A boundary-crossing
  chord's entry is None.
* a -> b is an edge of the convex hull, traversed counter-clockwise, iff
  every other vertex lies left of it (Knuth, *Axioms and Hulls*).  The
  pockets, the regions between the polygon and its hull, follow from the
  hull chords, the hull edges that are not polygon edges.  A hull chord
  crosses no edge, all of them lying on one side of it, and has the outside
  of the hull on its other side: it is an epigonal.  So ``pockets`` tests
  only each a's ``epi`` partners, O(|E|) tests; sorted by a they are in hull
  order, in which a simple polygon meets its hull vertices.

What depends on n alone, the chord order, is a :class:`ChordOrder`: the
chord tuple and its index (built only for callers that name chords:
``ChordSet`` iteration, ``partition``'s cuts and :func:`a_diagonals`),
``incidence``, the interleaving masks ``(odd[j] ^ odd[i+1]) & ~(inc[i] |
inc[j])``, ``sides``, per chord (i, j) the chords with both ends in i..j
and those with no end strictly between i and j (read by ``partition``'s
Lemma 1 to hand each face its family), and ``kind_masks``, the packed masks
that :func:`_vertex_kinds` reads, each built on first use.
:func:`chord_order` shares one per n up to ``geometry.SHARED_N``, the one
cap of every per-n table, among every universe of that size, so a polygon
visit pays only for its geometry; a universe's crossing masks are then one
pass, each chord's interleaving mask within its own kind.  Within one kind
the interleaving masks are the crossings, so ``partition`` and
``nc_euler`` read them as they are.

Ownership.  A polygon owns its universe: :func:`universe_of` fills the slot
that ``Polygon`` declares.  The universe owns every cache derived from the
polygon's chords: the vertex kind masks ``diag`` and ``epi``, kinds, crossing
masks and pockets, Theorem 3's ``star_ear_rows`` (filled by
``nc_euler.star_ear_chis``) and ``class_masks`` (filled by
``classes._class_masks``), and ``partition_state``, the state that
``partition`` owns and fills (its chi engine, Lemma 1's memo, and the last
checked cut with its constraints and signed sum).  The chord order is not the
universe's: it reads it from the :class:`ChordOrder` of its n, shared with
every universe of that size (its own one past ``SHARED_N``).  It copies
the polygon's n and orientation table, no coordinate, and holds the polygon
itself only through a weak reference, so it reads nothing through the
polygon and a :class:`ChordSet` keeps working after its polygon is gone.  No
reference cycle forms, and reference counting alone frees a polygon together
with its universe and caches.
"""

from __future__ import annotations

import struct
import weakref
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from itertools import accumulate, repeat
from operator import or_, xor
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .geometry import SHARED_N, Polygon


class Chord(NamedTuple):
    i: int
    j: int

    def __str__(self) -> str:
        return f"{self.i}-{self.j}"

    @classmethod
    def of(cls, a: int, b: int) -> Chord:
        if a == b:
            raise ValueError("chord endpoints must differ")
        return cls(min(a, b), max(a, b))

    @classmethod
    def parse(cls, text: str) -> Chord:
        a, b = text.split("-")
        return cls.of(int(a), int(b))


class ChordKind(Enum):
    __hash__ = object.__hash__  # members are singletons, compared by identity

    DIAGONAL = "diagonal"
    EPIGONAL = "epigonal"
    BOUNDARY_CROSSING = "boundary-crossing"


def _rows(n: int) -> Iterator[tuple[int, int, int]]:
    """Per row k of the chord order: k, the row's first bit and its width."""
    at = 0
    for k in range(n - 2):
        width = n - k - 2 - (k == 0)
        yield k, at, width
        at += width


class ChordOrder:
    """The lexicographic chord order of an n-gon and the tables read from it.

    Each table depends on n alone and is built on first use; every universe
    of one size up to ``SHARED_N`` shares them through :func:`chord_order`.
    """

    def __init__(self, n: int):
        self.n = n

    @cached_property
    def chords(self) -> tuple[Chord, ...]:
        n = self.n
        return tuple(Chord(i, j) for i in range(n) for j in range(i + 2, n - (i == 0)))

    @cached_property
    def index(self) -> dict[Chord, int]:
        return {c: k for k, c in enumerate(self.chords)}

    @cached_property
    def incidence(self) -> tuple[int, ...]:
        """incidence[v] has bit k set iff vertex v is an endpoint of chord k."""
        inc = [0] * self.n
        for k, at, width in _rows(self.n):
            inc[k] |= (1 << width) - 1 << at
            for b in range(width):
                inc[k + 2 + b] |= 1 << at + b
        return tuple(inc)

    @cached_property
    def interleave(self) -> tuple[int, ...]:
        """interleave[k] has bit m set iff chords k and m interleave."""
        inc = self.incidence
        odd = [0, *accumulate(inc, xor)]
        return tuple([(odd[j] ^ odd[i + 1]) & ~(inc[i] | inc[j])
                      for i, _, width in _rows(self.n) for j in range(i + 2, i + 2 + width)])

    @cached_property
    def sides(self) -> tuple[tuple[int, int], ...]:
        """sides[k] = (inside, outside) for chord k = (i, j).

        ``inside`` holds the chords with both ends in i..j: none at a vertex
        below i or above j.  ``outside`` holds those with no end strictly
        between i and j: the chords that neither lie inside nor interleave
        with k, and k itself.  Each entry is a few whole-mask operations.
        """
        n, inc = self.n, self.incidence
        full = (1 << n * (n - 3) // 2) - 1
        below = [0, *accumulate(inc, or_)]  # below[v]: the chords at a vertex < v
        above = [*accumulate(inc[::-1], or_)][::-1] + [0]  # above[v]: at a vertex >= v
        out = []
        for k, (i, j) in enumerate(self.chords):
            inside = full & ~(below[i] | above[j + 1])
            out.append((inside, full & ~(inside | self.interleave[k]) | 1 << k))
        return tuple(out)

    @cached_property
    def kind_masks(self) -> _KindMasks:
        """What :func:`_vertex_kinds` reads that depends on n alone."""
        return _build_kind_masks(self.n)


def chord_order(n: int) -> ChordOrder:
    """The chord order of an n-gon: one shared object per n <= ``SHARED_N``."""
    return _cached_chord_order(n) if n <= SHARED_N else ChordOrder(n)


@lru_cache(maxsize=16)
def _cached_chord_order(n: int) -> ChordOrder:
    """The shared chord order, kept for 16 sizes n <= ``SHARED_N``.

    Measured with tracemalloc, with every table built, the order of a 32-gon
    takes 0.22 MiB (15 KiB of it ``kind_masks``), and the worst case, the 16
    sizes 17..32, 1.8 MiB; half of it is ``sides``, which only Lemma 1 builds.
    """
    return ChordOrder(n)


# The struct codes of little-endian fields 1, 2, 4 and 8 bytes wide.
_STRUCT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}

_Pack = Callable[..., bytes]
_Unpack = Callable[[bytes], tuple[int, ...]]


def _fields(values: Iterable[int], width: int) -> bytes:
    """``values`` as consecutive little-endian fields of ``width`` bytes."""
    return b"".join(map(int.to_bytes, values, repeat(width), repeat("little")))


def _field_codec(count: int, width: int) -> tuple[_Pack, _Unpack]:
    """``pack(*values)`` and ``unpack(data)`` of ``count`` fields: :func:`_fields` and back.

    Widths of 1, 2, 4 and 8 bytes go through one ``struct.Struct``, wider
    ones through ``int.to_bytes`` and ``int.from_bytes``.
    """
    code = _STRUCT_CODES.get(width)
    if code is not None:
        fmt = struct.Struct(f"<{count}{code}")
        return fmt.pack, fmt.unpack

    def pack(*values: int) -> bytes:
        return _fields(values, width)

    def unpack(data: bytes) -> tuple[int, ...]:
        return tuple([int.from_bytes(data[at:at + width], "little")
                      for at in range(0, len(data), width)])

    return pack, unpack


class _KindMasks(NamedTuple):
    """What :func:`_vertex_kinds` reads that depends on n alone.

    A field is ``width`` bytes.  A table mask has n*n fields, field a*n + i
    for the edge a -> a+1 and the vertex i, in n blocks of n; a vertex mask
    has n, field i for the vertex i.
    """

    width: int
    pack_table: _Pack  # n*n fields
    pack_vertices: _Pack
    unpack_vertices: _Unpack
    top: int  # table: the top bit of each field
    own: int  # table: field (a, i) is bit i
    keep: int  # table: field (a, i) is all but a and a+1, or 0 for i = a+1
    vertex_top: int
    succ: int  # vertex: field i is bit i+1
    far: int  # vertex: field i is all but i-1, i and i+1


def _build_kind_masks(n: int) -> _KindMasks:
    """Each mask repeats a byte pattern or joins n blocks: time linear in its size."""
    width = -(-n // 8)
    if width <= 8:
        width = 1 << (width - 1).bit_length()
    full = (1 << n) - 1
    keep = bytearray()
    for a in range(n):
        b = (a + 1) % n
        block = bytearray(_fields([full ^ (1 << a | 1 << b)], width) * n)
        block[b * width:(b + 1) * width] = bytes(width)
        keep += block
    top = _fields([1 << 8 * width - 1], width)
    masks = (top * (n * n), _fields([1 << i for i in range(n)], width) * n, keep, top * n,
             _fields([1 << (i + 1) % n for i in range(n)], width),
             _fields([full ^ (1 << (i - 1) % n | 1 << i | 1 << (i + 1) % n) for i in range(n)],
                     width))
    return _KindMasks(width, _field_codec(n * n, width)[0], *_field_codec(n, width),
                      *(int.from_bytes(m, "little") for m in masks))


def _vertex_kinds(n: int, left: Sequence[int],
                  masks: _KindMasks) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per vertex i, the vertex masks of its diagonal and its epigonal partners.

    ``masks`` is the n-gon's ``ChordOrder.kind_masks``.  A fixed number of
    whole-integer operations on the packed table (module docstring); only
    packing, unpacking and replicating the edges' sides take n or n*n steps,
    in ``struct`` and bytes operations.  A field test reads one selected
    bit, which is at most the field's top bit, so ``top - (x & bit) & top``
    sets the top bit of exactly the fields whose bit is clear, with no
    borrow between fields, and ``(t << 1) - (t >> bits - 1)`` widens each
    such top bit to its whole field.

    Measured per call, the best of 9 rounds over 5 random polygons (Python
    3.11, one core of a shared 2-core host), against the per-vertex,
    per-edge loop that it replaced (``tests/oracles.py``): n = 7: 6 us (loop
    13 us); n = 12: 9 us (41 us); n = 30: 38 us (309 us); n = 70: 1.5 ms
    (3.5 ms); n = 100: 3.0 ms (4.6 ms).  Past the cap, ``SHARED_N``, the
    masks are built once per universe, and at n = 200 the two are level,
    each 20 to 35 ms here.
    """
    width, pack_table, pack_vertices, unpack, top, own, keep, vertex_top, succ, far = masks
    bits = 8 * width
    block = n * bits
    # edges[a] = left[a*n + a+1]: the vertices left of the edge a -> a+1.
    edges = (*left[1::n + 1], left[n * n - n])
    table = int.from_bytes(pack_table(*left), "little")
    # Field (a, i): the w with v_a and v_{a+1} on opposite sides of line i-w.
    straddle = table ^ (table >> block | (table & (1 << block) - 1) << block * (n - 1))
    # Field (a, i): edges[a], and whether v_i is right of edge a.
    rows = pack_vertices(*edges)
    side = int.from_bytes(b"".join([rows[at:at + width] * n for at in range(0, n * width, width)]),
                          "little")
    right = top - (side & own) & top
    crossing = straddle & ~(side ^ (right << 1) - (right >> bits - 1)) & keep
    shift = block
    while shift < n * block:
        crossing |= crossing >> shift
        shift <<= 1
    out = int.from_bytes(rows, "little")
    into = int.from_bytes(pack_vertices(edges[-1], *edges[:-1]), "little")  # field i: edges[i-1]
    reflex = vertex_top - (into & succ) & vertex_top
    chord = far & ~crossing
    diag = chord & (into & out | (into | out) & (reflex << 1) - (reflex >> bits - 1))
    size = n * width
    return unpack(diag.to_bytes(size, "little")), unpack((chord ^ diag).to_bytes(size, "little"))


class ChordUniverse:
    """All chords of one polygon, in lexicographic (i, j) order.

    Owns the chord classification, read from its copy of the polygon's
    orientation table, and the crossing masks, read from the kinds; every
    :class:`ChordSet` over the polygon shares this object, which keeps bit
    positions and memo keys stable.
    """

    def __init__(self, polygon: Polygon):
        self._polygon = weakref.ref(polygon)
        self.n = n = polygon.n
        self.left = polygon.left
        self.size = n * (n - 3) // 2
        # The chord order's tables, shared per n.  The properties below read
        # them; recursions read ``order`` directly, saving a call per node.
        self.order = chord_order(n)
        # Per vertex v, the vertex masks of the w with (v, w) a diagonal, an epigonal.
        self.diag, self.epi = _vertex_kinds(n, polygon.left, self.order.kind_masks)
        # Filled by ``nc_euler.star_ear_chis``: per vertex, Theorem 3's four chis.
        self.star_ear_rows: tuple[tuple[int, int, int, int], ...] | None = None
        # Filled by ``classes._class_masks``: per class 1..6, the vertex mask
        # of the i at which the polygon is in that class.
        self.class_masks: tuple[int, ...] | None = None
        # Filled by ``partition``, which owns it: the Theorem-2 layer's state.
        self.partition_state = None

    @property
    def chords(self) -> tuple[Chord, ...]:
        return self.order.chords

    @property
    def index(self) -> dict[Chord, int]:
        return self.order.index

    @property
    def incidence(self) -> tuple[int, ...]:
        """incidence[v] has bit k set iff vertex v is an endpoint of chord k."""
        return self.order.incidence

    @property
    def polygon(self) -> Polygon | None:
        """The polygon, while it is alive (held through a weak reference)."""
        return self._polygon()

    @cached_property
    def pockets(self) -> tuple[Pocket, ...]:
        """One pocket per hull chord, an epigonal (module docstring), in hull order."""
        n, left = self.n, self.left
        full = (1 << n) - 1
        out = []
        for a, partners in enumerate(self.epi):
            while partners:
                low = partners & -partners
                partners ^= low
                b = low.bit_length() - 1
                if left[a * n + b] | 1 << a | low == full:
                    path = tuple((a + s) % n for s in range((b - a) % n + 1))
                    out.append(Pocket(Chord.of(a, b), path))
        return tuple(out)

    @cached_property
    def kinds(self) -> tuple[ChordKind, ...]:
        masks = self._kind_masks.items()
        return tuple(next(kind for kind, m in masks if m >> k & 1) for k in range(self.size))

    @cached_property
    def crossing_masks(self) -> tuple[int | None, ...]:
        """crossing_masks[k] has bit m set iff chords k and m properly cross.

        By interleaving, within k's kind (module docstring); None for a
        boundary-crossing k.  No library function reads it: within one kind
        the crossings are the per-n ``order.interleave``, and ``nc_euler``
        straddle-tests any other family.  The benchmark's setup and the
        tests read it.
        """
        d, e = self.kind_mask(ChordKind.DIAGONAL), self.kind_mask(ChordKind.EPIGONAL)
        return tuple([x & d if d >> k & 1 else x & e if e >> k & 1 else None
                      for k, x in enumerate(self.order.interleave)])

    def span_mask(self, vertices: int) -> int:
        """Chords with both endpoints in the vertex bit mask ``vertices``."""
        inc = self.order.incidence
        absent = ((1 << len(inc)) - 1) & ~vertices
        touched = 0
        while absent:
            low = absent & -absent
            absent ^= low
            touched |= inc[low.bit_length() - 1]
        return self.full_mask() & ~touched

    def full_mask(self) -> int:
        return (1 << self.size) - 1

    @cached_property
    def _kind_masks(self) -> dict[ChordKind, int]:
        d = e = 0
        for i, at, _ in _rows(self.n):
            d |= self.diag[i] >> i + 2 << at
            e |= self.epi[i] >> i + 2 << at
        bc = self.full_mask() & ~(d | e)
        return {ChordKind.DIAGONAL: d, ChordKind.EPIGONAL: e, ChordKind.BOUNDARY_CROSSING: bc}

    def kind_mask(self, kind: ChordKind) -> int:
        return self._kind_masks[kind]

    def set_of(self, chords: Iterable[Chord]) -> ChordSet:
        mask = 0
        for c in chords:
            mask |= 1 << self.index[Chord.of(c.i, c.j)]
        return ChordSet(self, mask)

    def set_of_mask(self, mask: int) -> ChordSet:
        return ChordSet(self, mask)


class ChordSet:
    """Immutable subset of a chord universe, backed by a bit mask."""

    __slots__ = ("universe", "mask")

    def __init__(self, universe: ChordUniverse, mask: int):
        self.universe = universe
        self.mask = mask

    def _check(self, other: ChordSet) -> None:
        if self.universe is not other.universe:
            raise ValueError("chord sets over different universes")

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[Chord]:
        m = self.mask
        chords = self.universe.chords
        while m:
            k = (m & -m).bit_length() - 1
            m &= m - 1
            yield chords[k]

    def __contains__(self, c: Chord) -> bool:
        k = self.universe.index.get(Chord.of(c.i, c.j))
        return k is not None and bool(self.mask >> k & 1)

    def __or__(self, other: ChordSet) -> ChordSet:
        self._check(other)
        return ChordSet(self.universe, self.mask | other.mask)

    def __and__(self, other: ChordSet) -> ChordSet:
        self._check(other)
        return ChordSet(self.universe, self.mask & other.mask)

    def __sub__(self, other: ChordSet) -> ChordSet:
        self._check(other)
        return ChordSet(self.universe, self.mask & ~other.mask)

    def __le__(self, other: ChordSet) -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ChordSet)
            and self.universe is other.universe
            and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return hash((id(self.universe), self.mask))

    def chords(self) -> list[Chord]:
        return list(self)

    def __repr__(self) -> str:
        return "{" + ", ".join(str(c) for c in self) + "}"


@dataclass(frozen=True)
class Pocket:
    """A bounded face between the polygon and its convex hull."""

    hull_chord: Chord
    path: tuple[int, ...]  # parent indices from hull_chord.i side, polygon order


def universe_of(polygon: Polygon) -> ChordUniverse:
    """The polygon's chord universe (cached on the polygon)."""
    uni = polygon._chord_universe
    if uni is None:
        uni = polygon._chord_universe = ChordUniverse(polygon)
    return uni


def classify_chord(polygon: Polygon, c: Chord) -> ChordKind:
    uni = universe_of(polygon)
    return uni.kinds[uni.index[Chord.of(c.i, c.j)]]


def diagonals(polygon: Polygon) -> ChordSet:
    uni = universe_of(polygon)
    return ChordSet(uni, uni.kind_mask(ChordKind.DIAGONAL))


def epigonals(polygon: Polygon) -> ChordSet:
    uni = universe_of(polygon)
    return ChordSet(uni, uni.kind_mask(ChordKind.EPIGONAL))


def a_diagonals(polygon: Polygon, a: int) -> ChordSet:
    """Diagonals leaving k*a vertices (k >= 1) on each side.

    Requires |polygon| = a*(n+1) + 2 for some n >= 0.
    """
    if a < 1:
        raise ValueError("a must be a positive integer")
    n_total = polygon.n
    if (n_total - 2) % a != 0:
        raise ValueError(f"|P| = {n_total} is not of the form a*(n+1)+2 for a={a}")
    n = (n_total - 2) // a - 1
    uni = universe_of(polygon)
    d_mask = uni.kind_mask(ChordKind.DIAGONAL)
    mask = 0
    for k, c in enumerate(uni.chords):
        if not d_mask >> k & 1:
            continue
        between = c.j - c.i - 1
        if between % a == 0 and 1 <= between // a <= n:
            mask |= 1 << k
    return ChordSet(uni, mask)
