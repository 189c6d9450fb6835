"""Polygon subdivision by non-crossing diagonals and the restricted-chi formulas.

The central object is the family NC_c[J] of subsets of a non-crossing
diagonal set J that cut the polygon into convex pieces.  Membership is
decided by exact angular "window" constraints: a subset fails exactly when
some merged fan of faces at some vertex spans more than pi, so NC_c[J] is the
family of hitting sets of the minimal bad windows.  The windows are read from
the polygon's orientation table: the chords of J at a vertex v, the bits of
``J & incidence[v]``, come in the cyclic order of their far endpoints (each
one cuts off the boundary chain it spans), and a window spans more than pi
iff its two bounding rays turn clockwise.  Only the reflex vertices are
scanned: at a convex vertex every window lies within an interior angle below
pi.  The layer reads no coordinate.  The direct route, subdividing and
testing each face's convexity on coordinates, is not in the library: it is
the test suite's oracle (``is_convex_partition`` in ``tests/oracles.py``),
and so is the constructive triangulation that extends a cut J
(``extend_to_triangulation``, there too).

A face of a cut by non-crossing diagonals visits its vertices in increasing
cyclic order, so a face is its vertex bit mask.  Two faces share at most the
two ends of a side of both, so a diagonal (i, j), i < j, not yet cut has both
ends on exactly one face F, which it splits into ``F & [i..j]`` and
``F & ~(i..j)``.

The product formulas (Lemma 1, the factorized product, the pocket product)
never build a polygon or a chord universe for a face.  Let a non-crossing
diagonal set I cut P into faces.  The diagonals of a face F are exactly the
diagonals of P with both endpoints on F, less the chords of I among them,
which are F's own edges.  This holds because each cut chord separates P: a
diagonal of P with both endpoints on one side cannot cross the cut chord and
come back.  Two diagonals of F cross in F iff they cross in P, since they are
the same segments.  So a face family is the mask ``D & span(F) & ~I`` over
the parent universe, span(F) being the chords with both ends on F, and its
chi comes from the parent's shared :class:`EulerEngine` memo.  The
factorized and pocket products read span(F) from
``ChordUniverse.span_mask(F)``.

The mask depends on F alone: it is D(F) = ``D & span(F) & ~edges(F)``,
edges(F) being the chords between consecutive vertices of F, as each side of
F is a polygon edge or a chord of I.  Lemma 1 does not build it from F: it
hands each face's family down its recursion, from D(P) = D.  A chord
c = (i, j) with both ends on F splits F into F1 and F2 (above), whose sides
are F's sides on their own arcs and c.  The vertices of F1 lie in i..j, and
those of F2 nowhere strictly between i and j.  With inside[c] and
outside[c] the chords of those two kinds, the pair ``ChordOrder.sides[c]``
(it depends on n alone), D(F1) = ``D(F) & inside[c] & ~c`` and
D(F2) = ``D(F) & outside[c] & ~c``.

Lemma 1 is a recurrence over a face F and the set C of chords of J inside F
not yet decided.  L(F, C) sums, over the I within C, the product of the chis
of the faces I cuts F into, so Lemma 1's sum is L(P, J).  Let c = (i, j) be
the lowest chord of C.  The I without c sum to L(F, C - c).  An I with c cuts
F into F1 = F & [i..j] and F2 = F & ~(i..j), and every other chord of C lies
in exactly one of them, since it does not cross c:

    L(F, {}) = chi(D(F)),
    L(F, C)  = L(F, C - c) + L(F1, C1) * L(F2, C2),

with C1 = (C - c) & inside[c] and C2 the rest of C - c; L(F2, C2) is skipped
when L(F1, C1) is 0.  The depth is at most |J| + 1.  The value depends on
(C, F) alone, because F's family does, so one memo keyed by ``C << n | F``,
the state's ``lemma1`` (below), serves every J of the polygon; its C = {}
entries are the face chis.  Keyed by the subset I instead, as a walk over the
2^|J| subsets is, no two terms would share work.  Keyed by (C, F), a J reuses
what earlier sets J filled for the same face and undecided chords, and C is
always the chords of J inside F above the last chord decided, so a face takes
at most |J| + 1 keys.  Measured: asking every J of a random 10-gon (seeds
0..19, 352 to 4,156 sets J) fills 601 to 8,646 entries, 1.4 to 2.5 per J, of
which 69 to 394 are faces; the 20,793 sets J of a convex 10-gon fill 40,779,
968 of them faces.

The universe's ``partition_state`` is one :class:`_State`: the ``engine``
(built on first use) and ``lemma1`` serve every J of the polygon, and
``mask`` is the last checked cut J, whose ``constraints`` and ``signed``, the
sum over NC_c[J] of (-1)^|I|, are filled on first use.  So the routes asked
about J in turn check it, build its constraints and walk its 2^|J| subsets
once, and :func:`_walk` keeps none of them.  Within one kind two chords
cross iff they interleave, and every family that the layer asks about lies
within D or within E, so the check, masked to D, and the engine read the
per-n ``ChordOrder.interleave``, not the polygon's crossing masks.  J is
infeasible iff its constraints are ``[0]``, and then NC_c[J] is empty: its
signed sum is 0 with no walk, once the cap has been checked as the walk
would.  NC_c[J] and NC_nc[J] split the subsets of J, whose signs sum to 0
for J nonempty, so Lemma D2's sum is minus Theorem 2's.  NC_nc[J] is the
union of the down-sets of J - c over the constraints c, which are
inclusion-minimal, so its maximal sets are the J - c, and some of them meet
in nothing iff their c cover J.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import combinations

from .chords import ChordKind, ChordSet, ChordUniverse, universe_of
from .geometry import Polygon
from .nc_euler import EulerEngine, InstanceTooLarge


LATTICE_CAP = 20
IE_CAP = 16


class PartitionError(ValueError):
    pass


@dataclass(slots=True)
class _State:
    """The layer's state in a universe's ``partition_state``, with no reference back."""

    engine: EulerEngine | None = None
    lemma1: dict[int, int] = field(default_factory=dict)
    mask: int | None = None
    constraints: tuple[int, ...] | None = None
    signed: int | None = None


def _state(uni: ChordUniverse) -> _State:
    """The universe's partition state, made on first use."""
    if uni.partition_state is None:
        uni.partition_state = _State()
    return uni.partition_state


def _engine(uni: ChordUniverse) -> EulerEngine:
    state = uni.partition_state or _state(uni)
    if state.engine is None:
        state.engine = EulerEngine(uni.order.interleave)
    return state.engine


@dataclass(frozen=True)
class PartitionResult:
    """Faces of the subdivision of ``parent`` by the non-crossing cut."""

    parent: Polygon
    cut: ChordSet
    parts: tuple[tuple[int, ...], ...]


def _check_noncrossing_diagonals(poly: Polygon, cut: ChordSet) -> _State:
    uni = universe_of(poly)
    if cut.universe is not uni:
        raise PartitionError("cut belongs to a different polygon")
    state = uni.partition_state or _state(uni)
    if state.mask == cut.mask:
        return state
    d_mask = uni.kind_mask(ChordKind.DIAGONAL)
    interleave = uni.order.interleave
    m = cut.mask
    while m:
        k = (m & -m).bit_length() - 1
        m &= m - 1
        if not d_mask >> k & 1:
            raise PartitionError(f"chord {uni.chords[k]} is not a diagonal")
        # Masked to D, so that a lower diagonal interleaving a higher
        # non-diagonal of the cut does not report a crossing before it.
        if interleave[k] & d_mask & cut.mask:
            raise PartitionError(f"cut contains a crossing pair at {uni.chords[k]}")
    state.mask, state.constraints, state.signed = cut.mask, None, None
    return state


def _cut(faces: list[int], i: int, j: int) -> list[int]:
    """Split the one face holding both ends of a new diagonal (i, j), i < j."""
    ends = 1 << i | 1 << j
    inner = (1 << j) - (2 << i)  # the vertices strictly between i and j
    for p, f in enumerate(faces):
        if f & ends == ends:
            return faces[:p] + [f & (inner | ends), f & ~inner] + faces[p + 1:]
    raise AssertionError(f"no host face for chord {i}-{j}")


def _faces(uni: ChordUniverse, cut: int) -> list[int]:
    """Vertex masks of the faces of the cut by the chord mask ``cut``."""
    faces = [(1 << uni.n) - 1]
    while cut:
        k = (cut & -cut).bit_length() - 1
        cut &= cut - 1
        faces = _cut(faces, *uni.chords[k])
    return faces


def subdivide(poly: Polygon, cut: ChordSet) -> PartitionResult:
    """Split the polygon along pairwise non-crossing diagonals.

    Parts are the faces' vertex masks (see the module docstring) as index
    tuples in increasing, hence CCW, order, listed lexicographically.
    """
    _check_noncrossing_diagonals(poly, cut)
    faces = _faces(cut.universe, cut.mask)
    parts = sorted(tuple(v for v in range(poly.n) if f >> v & 1) for f in faces)
    return PartitionResult(poly, cut, tuple(parts))


def convexity_constraints(poly: Polygon, j_set: ChordSet) -> tuple[list[int], bool]:
    """Minimal hitting constraints characterizing NC_c[j_set].

    Returns (constraint masks, feasible).  A subset I of ``j_set`` cuts the
    polygon into convex faces iff I intersects every constraint mask.  When
    ``feasible`` is False some face angle exceeds pi no matter what, so even
    the full set fails and NC_c is empty; otherwise every constraint is a
    nonempty subset of J, so ``feasible`` says whether J itself cuts the
    polygon into convex faces.

    At a vertex v the rays v -> v+1, then the chords of J at v, then
    v -> v-1 run counter-clockwise through the interior angle.  Each diagonal
    v-w cuts off the boundary chain v+1..w-1, so the chords come in the order
    of (w - v) mod n.  A window from ray s to ray t spans more than pi iff
    v -> w_s -> w_t turns clockwise.
    """
    state = _check_noncrossing_diagonals(poly, j_set)
    if state.constraints is None:
        state.constraints = _window_constraints(poly, j_set.universe, state.mask)
    return list(state.constraints), state.constraints != (0,)


def _window_constraints(poly: Polygon, uni: ChordUniverse, jm: int) -> tuple[int, ...]:
    """The inclusion-minimal windows of :func:`convexity_constraints`.

    Only the reflex vertices are scanned.  At a convex vertex every window
    lies inside an interior angle below pi, so none spans more than pi.  At
    a reflex vertex that no chord of J touches, the only window is the
    interior angle itself, which gives the empty constraint, alone minimal.
    """
    n, left, chords, incidence = poly.n, poly.left, uni.chords, uni.incidence
    reflex = 0
    for r in poly.reflex_vertices:
        if not jm & incidence[r]:
            return (0,)
        reflex |= 1 << r
    constraints: list[int] = []
    while reflex:
        v = (reflex & -reflex).bit_length() - 1
        reflex &= reflex - 1
        at = jm & incidence[v]
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
    # Keep only inclusion-minimal constraint masks.
    minimal: list[int] = []
    for m in sorted(set(constraints), key=int.bit_count):
        for q in minimal:
            if not q & ~m:
                break
        else:
            minimal.append(m)
    return tuple(minimal)


def _walk(poly: Polygon, j_set: ChordSet) -> Iterator[tuple[int, int | None]]:
    """Each subset I of J, in descending submask order, with its sole-hit mask.

    The mask holds the chords that are the only chord of I in some constraint,
    or is None when I misses a constraint (I is in NC_nc[J]).  A member I of
    NC_c[J] is minimal iff the mask is I, as dropping a chord leaves NC_c[J]
    iff some constraint meets I in that chord alone.
    """
    constraints, _ = convexity_constraints(poly, j_set)
    _check_lattice_cap(j_set)
    sub = jm = j_set.mask
    while True:
        sole = 0
        for c in constraints:
            hit = sub & c
            if not hit:
                sole = None
                break
            if not hit & (hit - 1):
                sole |= hit
        yield sub, sole
        if sub == 0:
            return
        sub = (sub - 1) & jm


def _check_lattice_cap(j_set: ChordSet) -> None:
    if len(j_set) > LATTICE_CAP:
        raise InstanceTooLarge(f"|J| = {len(j_set)} exceeds the 2^|J| cap {LATTICE_CAP}")


def _signed_sum(poly: Polygon, j_set: ChordSet) -> int:
    """Sum over NC_c[J] of (-1)^|I|, kept in the state for J; 0 for an infeasible J."""
    state = _check_noncrossing_diagonals(poly, j_set)
    if state.signed is None:
        if convexity_constraints(poly, j_set)[1]:
            state.signed = sum(-1 if sub.bit_count() & 1 else 1
                               for sub, sole in _walk(poly, j_set) if sole is not None)
        else:
            _check_lattice_cap(j_set)  # as the walk would
            state.signed = 0
    return state.signed


@dataclass(frozen=True)
class ConvexLattice:
    """All subsets of J classified by whether they cut into convex faces."""

    polygon: Polygon
    j_set: ChordSet
    members_c: tuple[int, ...]
    members_nc: tuple[int, ...]
    minimal_c: tuple[int, ...]
    maximal_nc: tuple[int, ...]


def convex_lattice(poly: Polygon, j_set: ChordSet) -> ConvexLattice:
    members_c, members_nc, minimal_c = [], [], []
    for sub, sole in _walk(poly, j_set):
        if sole is None:
            members_nc.append(sub)
            continue
        members_c.append(sub)
        if sole == sub:
            minimal_c.append(sub)
    # J - c over the constraints c (module docstring); [J] when infeasible.
    constraints, _ = convexity_constraints(poly, j_set)
    maximal_nc = [j_set.mask & ~c for c in constraints]
    return ConvexLattice(
        poly, j_set,
        tuple(sorted(members_c)), tuple(sorted(members_nc)),
        tuple(sorted(minimal_c)), tuple(sorted(maximal_nc)),
    )


def chi_removed_direct(poly: Polygon, removed: ChordSet, side: str) -> int:
    """chi(M_side minus removed) computed on the actual segment family."""
    uni = universe_of(poly)
    if removed.universe is not uni:
        raise PartitionError("chord set belongs to a different polygon")
    if side == "d":
        fam = uni.kind_mask(ChordKind.DIAGONAL)
    elif side == "e":
        fam = uni.kind_mask(ChordKind.EPIGONAL)
    else:
        raise ValueError("side must be 'd' or 'e'")
    return _engine(uni).chi(fam & ~removed.mask)


def chi_removed_theorem2(poly: Polygon, j_set: ChordSet) -> int:
    """(-1)^(|P|+1) * sum over NC_c[J] of (-1)^|I|."""
    return (-1) ** (poly.n + 1) * _signed_sum(poly, j_set)


def chi_removed_lemma_d2(poly: Polygon, j_set: ChordSet) -> int:
    """(-1)^|P| * sum over NC_nc[J] of (-1)^|I|, minus NC_c[J]'s; requires J nonempty."""
    if j_set.mask == 0:
        raise PartitionError("the J = {} case is outside this identity's hypothesis")
    return (-1) ** poly.n * -_signed_sum(poly, j_set)


def _lemma1(uni: ChordUniverse, memo: dict[int, int], face: int, cut: int, fam: int) -> int:
    """L(F, C) of the module docstring, for the face mask F, the chord mask C and F's family."""
    key = cut << uni.n | face
    val = memo.get(key)
    if val is not None:
        return val
    if cut:
        low = cut & -cut
        rest = cut ^ low
        k = low.bit_length() - 1
        i, j = uni.order.chords[k]
        inside, outside = uni.order.sides[k]
        inner = (1 << j) - (2 << i)  # the vertices strictly between i and j
        c1 = rest & inside
        val = _lemma1(uni, memo, face, rest, fam)
        part = _lemma1(uni, memo, face & (inner | 1 << i | 1 << j), c1, fam & inside & ~low)
        if part:
            val += part * _lemma1(uni, memo, face & ~inner, rest & ~c1, fam & outside & ~low)
    else:
        val = _engine(uni).chi(fam)
    memo[key] = val
    return val


def chi_removed_lemma1(poly: Polygon, j_set: ChordSet) -> int:
    """Sum over I subset of J of the product of the faces' diagonal chis.

    Evaluated as L(P, J) by the face recurrence of the module docstring,
    memoized in the layer's state across every J of the polygon.  The cap
    still applies: k pairwise disjoint ear chords cut off 2^k different
    faces, one per subset of them, so the memo can take 2^k keys.
    """
    _check_noncrossing_diagonals(poly, j_set)
    _check_lattice_cap(j_set)
    uni = j_set.universe
    return _lemma1(uni, uni.partition_state.lemma1, (1 << poly.n) - 1, j_set.mask,
                   uni.kind_mask(ChordKind.DIAGONAL))


def chi_removed_factorized(poly: Polygon, j_set: ChordSet, j_prime: ChordSet) -> int:
    """Product formula over the sub-polygons cut by a forced subset j_prime.

    Requires j_set to cut the polygon into convex faces and j_prime to be
    contained in every member of NC_c[j_set].  The factor of a face F of the
    cut by j_prime is chi of F's diagonals less the chords of J, which is the
    parent-universe mask ``D & span(F) & ~J`` (see the module docstring).
    Within J's forced chords, j_prime needs no check beyond its universe.
    """
    if j_prime.universe is not j_set.universe:
        raise PartitionError("cut belongs to a different polygon")
    constraints, feasible = convexity_constraints(poly, j_set)
    if not feasible:
        raise PartitionError("J does not provide a convex partition")
    forced = 0
    for c in constraints:
        if c.bit_count() == 1:
            forced |= c
    if j_prime.mask & ~forced:
        raise PartitionError("j_prime is not contained in every convex-partition subset")
    uni = j_set.universe
    eng = _engine(uni)
    fam = uni.kind_mask(ChordKind.DIAGONAL) & ~j_set.mask
    prod = 1
    for face in _faces(uni, j_prime.mask):
        prod *= eng.chi(fam & uni.span_mask(face))
        if prod == 0:
            break
    return prod


def chi_epigonal_pockets(poly: Polygon, removed: ChordSet) -> int:
    """Product over pockets of chi of the pocket's epigonal family minus J.

    The pocket family consists of every epigonal spanned by the pocket's
    vertices, including the bounding hull-edge chord; epigonals never cross
    across pockets, so the product equals chi(M_e minus removed).
    """
    uni = universe_of(poly)
    if removed.universe is not uni:
        raise PartitionError("chord set belongs to a different polygon")
    eng = _engine(uni)
    fam = uni.kind_mask(ChordKind.EPIGONAL) & ~removed.mask
    prod = 1
    for pocket in uni.pockets:
        prod *= eng.chi(fam & uni.span_mask(sum(1 << v for v in pocket.path)))
        if prod == 0:
            break
    return prod


def xi(poly: Polygon, j_set: ChordSet, subset: ChordSet) -> int:
    """Indicator of {empty, J} among subsets of a convex-partition J."""
    if poly.is_convex:
        raise PartitionError("xi is defined for non-convex polygons")
    if not convexity_constraints(poly, j_set)[1]:
        raise PartitionError("J does not provide a convex partition")
    if subset.universe is not j_set.universe:
        raise PartitionError("chord set belongs to a different polygon")
    if subset.mask & ~j_set.mask:
        raise PartitionError("I must be a subset of J")
    return 1 if subset.mask in (0, j_set.mask) else 0


def chi_inclusion_exclusion(poly: Polygon, j_set: ChordSet, mode: str) -> int:
    """Inclusion-exclusion over the minimal convex / maximal non-convex sets.

    Both sum over the subfamilies whose union is J: maximal sets J - c meet
    in nothing iff their c cover J, so maximal mode reads the constraints,
    with the sign flipped, and walks no subsets.
    """
    if mode not in ("minimal", "maximal"):
        raise ValueError("mode must be 'minimal' or 'maximal'")
    if poly.is_convex:
        raise PartitionError("defined for non-convex polygons")
    constraints, feasible = convexity_constraints(poly, j_set)
    if not feasible:
        raise PartitionError("J does not provide a convex partition")
    if len(j_set) > IE_CAP:  # no 2^|J| walk before the cap error
        raise InstanceTooLarge(f"|J| = {len(j_set)} exceeds the cap {IE_CAP}")
    if mode == "minimal":
        sets = [sub for sub, sole in _walk(poly, j_set) if sole == sub]
        sign = (-1) ** (poly.n + len(j_set))
    else:
        sets, sign = constraints, (-1) ** (poly.n + 1)
    if len(sets) > IE_CAP:  # the sum walks 2^len(sets) subfamilies
        raise InstanceTooLarge(f"{len(sets)} {mode} sets exceed the cap {IE_CAP}")
    jm, total = j_set.mask, 0
    for k in range(1, len(sets) + 1):
        for combo in combinations(sets, k):
            u = 0
            for m in combo:
                u |= m
            if u == jm:
                total += -1 if k & 1 else 1
    return sign * total
