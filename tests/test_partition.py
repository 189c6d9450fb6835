import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chord_euler.chords import Chord, ChordKind, diagonals, universe_of
from chord_euler.generators import class_exemplar, convex_ngon, random_simple_polygon, zigzag_chi_target
from chord_euler.geometry import SHARED_N, Point, validate_polygon
from chord_euler.nc_euler import EulerEngine, euler_recursive, iter_nc_masks
from chord_euler.partition import (
    IE_CAP,
    InstanceTooLarge,
    PartitionError,
    chi_epigonal_pockets,
    chi_inclusion_exclusion,
    chi_removed_direct,
    chi_removed_factorized,
    chi_removed_lemma1,
    chi_removed_lemma_d2,
    chi_removed_theorem2,
    convex_lattice,
    convexity_constraints,
    subdivide,
    xi,
)
from conftest import brute_euler, exemplar_and_zigzag_polygons
from oracles import (
    area2,
    cold_polygon,
    coordinate_crossing_masks,
    euler_brute,
    extend_to_triangulation,
    find_diagonal,
    is_convex_partition,
    part_polygon,
    segments,
    window_constraints_by_vertices,
)


def cs(poly, *pairs):
    return universe_of(poly).set_of([Chord.of(a, b) for a, b in pairs])


def empty(poly):
    return universe_of(poly).set_of_mask(0)


def nc_diagonal_subsets(poly):
    uni = universe_of(poly)
    dm = uni.kind_mask(ChordKind.DIAGONAL)
    return [uni.set_of_mask(m) for m in iter_nc_masks(uni.crossing_masks, dm)]


def subdivide_oracle(poly, cut):
    """Faces of a cut by splitting vertex lists, not vertex masks.

    Each chord splits the one list that holds both its ends, not adjacent;
    the parts are then listed as ``subdivide`` lists them.
    """
    parts = [list(range(poly.n))]
    for c in cut:
        for p, part in enumerate(parts):
            if c.i in part and c.j in part:
                a, b = sorted((part.index(c.i), part.index(c.j)))
                if 2 <= b - a <= len(part) - 2:
                    parts[p] = part[a:b + 1]
                    parts.append(part[b:] + part[:a + 1])
                    break
        else:
            raise AssertionError(f"no host part for chord {c}")
    normal = []
    for part in parts:
        m = part.index(min(part))
        normal.append(tuple(part[m:] + part[:m]))
    return tuple(sorted(normal))


def test_subdivide_matches_list_oracle():
    # Every non-crossing diagonal set of each polygon, the empty one included.
    corpus = [random_simple_polygon(n, seed) for n in range(4, 11) for seed in range(3)]
    corpus += exemplar_and_zigzag_polygons(zigzag_ls=(2, -2, 3, -3, 4, -4))
    for poly in corpus:
        for j in nc_diagonal_subsets(poly):
            assert subdivide(poly, j).parts == subdivide_oracle(poly, j), (poly, j)


def test_subdivide_examples(dart):
    hexagon = convex_ngon(6)
    res = subdivide(hexagon, cs(hexagon, (0, 3)))
    assert res.parts == ((0, 1, 2, 3), (0, 3, 4, 5))
    pent = convex_ngon(5)
    res = subdivide(pent, cs(pent, (0, 2), (0, 3)))
    assert res.parts == ((0, 1, 2), (0, 2, 3), (0, 3, 4))
    res = subdivide(pent, empty(pent))
    assert res.parts == ((0, 1, 2, 3, 4),)


def test_subdivide_errors(square, dart):
    with pytest.raises(PartitionError):
        subdivide(square, cs(square, (0, 2), (1, 3)))  # crossing pair
    with pytest.raises(PartitionError):
        subdivide(dart, cs(dart, (1, 3)))  # epigonal is not a diagonal


def test_subdivide_conservation():
    for seed in range(12):
        poly = random_simple_polygon(5 + seed % 5, seed)
        tri = extend_to_triangulation(poly, empty(poly))
        for j in (tri, empty(poly)):
            res = subdivide(poly, j)
            assert len(res.parts) == len(j) + 1
            assert sum(len(p) for p in res.parts) == poly.n + 2 * len(j)
            area = area2(part_polygon(res, 0))
            for k in range(1, len(res.parts)):
                area = area + area2(part_polygon(res, k))
            assert area == area2(poly)


def test_convex_partition_dart(dart):
    assert is_convex_partition(dart, cs(dart, (0, 2)))
    assert not is_convex_partition(dart, empty(dart))
    lat = convex_lattice(dart, cs(dart, (0, 2)))
    assert lat.members_c == (1,) and lat.members_nc == (0,)


def test_convex_partition_convex_polygon_all_subsets():
    poly = convex_ngon(6)
    for j in nc_diagonal_subsets(poly):
        assert is_convex_partition(poly, j)


def _assert_constraints_match_direct(poly):
    # The window constraints, read from the orientation table, must match
    # subdivide + coordinate convexity on every subset of a triangulation.
    tri = extend_to_triangulation(poly, empty(poly))
    uni = universe_of(poly)
    constraints, feasible = convexity_constraints(poly, tri)
    sub = tri.mask
    while True:
        j = uni.set_of_mask(sub)
        expected = feasible and all(sub & c for c in constraints)
        assert is_convex_partition(poly, j) == expected
        if sub == 0:
            break
        sub = (sub - 1) & tri.mask


def test_constraints_agree_with_direct_route():
    corpus = [random_simple_polygon(5 + seed % 4, seed + 50) for seed in range(20)]
    # Zigzags up to n = 13: a triangulation has at most 2^10 subsets.
    corpus += exemplar_and_zigzag_polygons(zigzag_ls=(2, -2, 3, -3, 4))
    for poly in corpus:
        _assert_constraints_match_direct(poly)


@settings(max_examples=25, deadline=None)
@given(st.integers(4, 10), st.integers(0, 2**32))
def test_constraints_agree_with_direct_route_random(n, seed):
    _assert_constraints_match_direct(random_simple_polygon(n, seed))


def _assert_feasible_is_convex_partition(poly):
    # The formulas' precondition: J cuts P into convex faces iff its window
    # constraints are feasible, on every non-crossing diagonal set J.
    for j in nc_diagonal_subsets(poly):
        assert is_convex_partition(poly, j) == convexity_constraints(poly, j)[1], (poly, j)


@settings(max_examples=20, deadline=None)
@given(st.integers(4, 9), st.integers(0, 2**32))
def test_feasible_agrees_with_convex_partition_random(n, seed):
    _assert_feasible_is_convex_partition(random_simple_polygon(n, seed))


def test_feasible_agrees_with_convex_partition_exemplars():
    for poly in exemplar_and_zigzag_polygons(zigzag_ls=()):
        if poly.n <= 9:
            _assert_feasible_is_convex_partition(poly)


def test_window_constraints_match_the_full_scan():
    # Scanning only the reflex vertices, and stopping at one that J misses,
    # gives the tuple of the scan of every vertex, in the same order.  Every
    # J up to 12 vertices; past that, random sets J.
    import chord_euler.partition as part

    corpus = [random_simple_polygon(n, seed + 9000) for n in range(4, 10) for seed in range(4)]
    corpus += exemplar_and_zigzag_polygons(zigzag_ls=(2, -2, 3, -3, 4, -4, 5, -5))
    rng = random.Random(9000)
    for poly in corpus:
        uni = universe_of(poly)
        if poly.n <= 12:
            masks = [j.mask for j in nc_diagonal_subsets(poly)]
        else:
            masks = [_random_nc_diagonals(poly, rng).mask for _ in range(2000)]
        for jm in masks:
            want = window_constraints_by_vertices(poly, jm)
            assert part._window_constraints(poly, uni, jm) == want, (poly, bin(jm))


def test_chi_removed_direct_baselines(dart):
    for n in range(4, 9):
        poly = convex_ngon(n)
        assert chi_removed_direct(poly, empty(poly), "d") == (-1) ** (n + 1)
    assert chi_removed_direct(dart, empty(dart), "d") == 0
    assert chi_removed_direct(dart, empty(dart), "e") == 0


def test_zigzag_caption_values():
    # The 3|l|-gon of the construction carries chi = (-1)^(l-1) l, so the
    # odd targets use it directly and the even ones use the shaved variant.
    z2 = zigzag_chi_target(2)
    assert z2.polygon.n == 7
    assert chi_removed_direct(z2.polygon, z2.j_set, "d") == 2
    z3 = zigzag_chi_target(3)
    assert z3.polygon.n == 9
    assert chi_removed_direct(z3.polygon, z3.j_set, "d") == 3
    zm2 = zigzag_chi_target(-2)
    assert zm2.polygon.n == 6
    assert chi_removed_direct(zm2.polygon, zm2.j_set, "d") == -2


def test_theorem2_and_lemma_identities(dart):
    j = cs(dart, (0, 2))
    assert chi_removed_theorem2(dart, j) == 1
    assert chi_removed_lemma_d2(dart, j) == 1
    assert chi_removed_lemma1(dart, j) == 1
    pent = convex_ngon(5)
    assert chi_removed_lemma1(pent, cs(pent, (0, 2))) == 0
    assert chi_removed_lemma1(pent, empty(pent)) == euler_recursive(diagonals(pent))
    with pytest.raises(PartitionError):
        chi_removed_lemma_d2(dart, empty(dart))


def test_identities_random_sweep():
    for seed in range(8):
        poly = random_simple_polygon(5 + seed % 3, seed + 200)
        for j in nc_diagonal_subsets(poly):
            direct = chi_removed_direct(poly, j, "d")
            assert chi_removed_theorem2(poly, j) == direct
            assert chi_removed_lemma1(poly, j) == direct
            if len(j):
                assert chi_removed_lemma_d2(poly, j) == direct


def _random_nc_diagonals(poly, rng):
    """A random non-crossing diagonal set: greedy over the shuffled diagonals."""
    uni = universe_of(poly)
    ks = [k for k in range(uni.size) if uni.kinds[k] is ChordKind.DIAGONAL]
    rng.shuffle(ks)
    mask = 0
    for k in ks:
        if rng.random() < 0.6 and not uni.crossing_masks[k] & mask:
            mask |= 1 << k
    return uni.set_of_mask(mask)


def _assert_routes_follow_relabeling(poly, j, image, label):
    # The routes read labels (chord bit order, vertex order, cyclic windows),
    # but chi(D - J) does not depend on them.  ``label`` maps the vertices
    # of ``image`` to those of ``poly``.
    back = {c: Chord.of(label(c.i), label(c.j)) for c in universe_of(image).chords}
    j_image = universe_of(image).set_of([c for c, orig in back.items() if orig in j])
    want = euler_brute(diagonals(poly) - j)
    routes = [chi_removed_theorem2, chi_removed_lemma1]
    if len(j):
        routes.append(chi_removed_lemma_d2)
    for route in routes:
        assert route(poly, j) == route(image, j_image) == want, route.__name__
    # The windows themselves, as chord sets in the original labels.
    cons, feasible = convexity_constraints(poly, j)
    cons_image, feasible_image = convexity_constraints(image, j_image)
    assert feasible == feasible_image
    assert {frozenset(back[c] for c in universe_of(image).set_of_mask(m)) for m in cons_image} == {
        frozenset(universe_of(poly).set_of_mask(m)) for m in cons
    }


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 9), st.integers(0, 2**32), st.integers(0, 2**32), st.integers(0, 8))
def test_theorem2_routes_invariant_under_rotation(n, seed, j_seed, k):
    poly = random_simple_polygon(n, seed)
    j = _random_nc_diagonals(poly, random.Random(j_seed))
    _assert_routes_follow_relabeling(poly, j, poly.rotated(k), lambda v: (v + k) % n)


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 9), st.integers(0, 2**32), st.integers(0, 2**32))
def test_theorem2_routes_invariant_under_reflection(n, seed, j_seed):
    # x -> -x turns the polygon clockwise; validation reverses it, so vertex
    # v of the mirror image is vertex n - 1 - v of the polygon.
    poly = random_simple_polygon(n, seed)
    j = _random_nc_diagonals(poly, random.Random(j_seed))
    mirror = validate_polygon([Point(-v.x, v.y) for v in poly.vertices])
    assert mirror.vertices[0] == Point(-poly.vertices[-1].x, poly.vertices[-1].y)
    _assert_routes_follow_relabeling(poly, j, mirror, lambda v: n - 1 - v)


def test_nonconvex_part_vanishing():
    # Any cut leaving a non-convex face forces chi to zero.
    for seed in range(10):
        poly = random_simple_polygon(6 + seed % 3, seed + 300)
        for j in nc_diagonal_subsets(poly):
            if not is_convex_partition(poly, j):
                assert chi_removed_direct(poly, j, "d") == 0


def test_unique_minimal_cut_values(dart):
    # J_c = J: the minimal convex cut itself.
    j = cs(dart, (0, 2))
    assert chi_removed_direct(dart, j, "d") == (-1) ** (dart.n + 1 + len(j))
    # A strictly larger convex cut has J_c != J, hence zero.
    for seed in range(30):
        poly = random_simple_polygon(6 + seed % 3, seed + 400)
        for j in nc_diagonal_subsets(poly):
            if not is_convex_partition(poly, j):
                continue
            lat = convex_lattice(poly, j)
            if len(lat.minimal_c) == 1:
                if lat.minimal_c[0] == j.mask:
                    assert chi_removed_direct(poly, j, "d") == (-1) ** (
                        poly.n + 1 + len(j)
                    )
                else:
                    assert chi_removed_direct(poly, j, "d") == 0


def lattice_extremes_oracle(j_mask, members_c, members_nc):
    """Minimal members of NC_c[J] and maximal members of NC_nc[J], by single bits.

    NC_c[J] is an up-set and NC_nc[J] its complement, a down-set, so a member
    is extreme iff no one-chord step stays in its family.
    """
    cset = set(members_c)
    minimal_c = [m for m in members_c if all(m & ~(1 << k) not in cset for k in _bit_list(m))]
    maximal_nc = [m for m in members_nc if all(m | 1 << k in cset for k in _bit_list(j_mask & ~m))]
    return tuple(sorted(minimal_c)), tuple(sorted(maximal_nc))


def _bit_list(mask):
    return [k for k in range(mask.bit_length()) if mask >> k & 1]


def _assert_lattice_extremes_match_definition(poly):
    # NC_c[J] by subdividing and testing each face's convexity on coordinates.
    uni = universe_of(poly)
    for j in nc_diagonal_subsets(poly):
        members_c, members_nc = [], []
        for sub in iter_nc_masks(uni.crossing_masks, j.mask):
            convex = is_convex_partition(poly, uni.set_of_mask(sub))
            (members_c if convex else members_nc).append(sub)
        lat = convex_lattice(poly, j)
        assert lat.members_c == tuple(sorted(members_c)), (poly, j)
        assert lat.members_nc == tuple(sorted(members_nc)), (poly, j)
        want = lattice_extremes_oracle(j.mask, members_c, members_nc)
        assert (lat.minimal_c, lat.maximal_nc) == want, (poly, j)


def test_lattice_extremes_match_definition():
    corpus = [random_simple_polygon(n, seed + 1100) for n in range(4, 9) for seed in range(6)]
    corpus += [class_exemplar(kind, 0, n) for kind in range(1, 7) for n in (6, 7)]
    corpus += [zigzag_chi_target(l).polygon for l in (2, -2, 3)]
    for poly in corpus:
        _assert_lattice_extremes_match_definition(poly)


@settings(max_examples=12, deadline=None)
@given(st.integers(4, 8), st.integers(0, 2**32))
def test_lattice_extremes_match_definition_random(n, seed):
    _assert_lattice_extremes_match_definition(random_simple_polygon(n, seed))


def _part_chi_oracle(poly, part, removed_chords, cache):
    """chi of a face's own diagonals minus the given parent chords, by DFS.

    The face is classified from its own geometry, in its own universe, which
    is the route the parent-universe product formulas replace.  ``cache``
    holds one face polygon per part and one value per query.
    """
    local = tuple(sorted(Chord.of(part.index(c.i), part.index(c.j)) for c in removed_chords))
    key = (part, local)
    if key not in cache:
        if part not in cache:
            cache[part] = cold_polygon([poly.vertices[i] for i in part])
        sub_poly = cache[part]
        cache[key] = euler_brute(diagonals(sub_poly) - universe_of(sub_poly).set_of(local))
    return cache[key]


def test_lemma1_faces_match_own_geometry():
    # Every face of every I subset of J: the parent-universe face family
    # D & span(face) & ~I has the chi of the face's own diagonal family.
    for seed in range(20):
        poly = random_simple_polygon(5 + seed % 4, seed + 1000)
        uni = universe_of(poly)
        d_mask = uni.kind_mask(ChordKind.DIAGONAL)
        eng = EulerEngine(uni.crossing_masks)
        cache = {}
        for j in nc_diagonal_subsets(poly):
            total = 0
            for sub in iter_nc_masks(uni.crossing_masks, j.mask):
                prod = 1
                for part in subdivide_oracle(poly, uni.set_of_mask(sub)):
                    want = _part_chi_oracle(poly, part, [], cache)
                    face = sum(1 << v for v in part)
                    assert eng.chi(d_mask & uni.span_mask(face) & ~sub) == want
                    prod *= want
                total += prod
            assert chi_removed_lemma1(poly, j) == total


def test_engine_on_interleaving_matches_coordinates():
    # The shared engine reads the interleaving masks of its n, which are the
    # crossings only within one kind.  Against the deletion recursion on the
    # same segments' coordinate crossings (and, for small families, every
    # subset on those crossings):
    # D - J and E - J, every Lemma-1 face family D(F) of J's subsets,
    # and the empty and one-member masks, on one engine per polygon as the
    # routes share it.
    rng = random.Random(31)
    corpus = [random_simple_polygon(n, seed + 3100) for n in range(5, 10) for seed in range(4)]
    corpus += exemplar_and_zigzag_polygons(zigzag_ls=(2, -2, 3, -3))
    for poly in corpus:
        uni = universe_of(poly)
        d_mask, e_mask = uni.kind_mask(ChordKind.DIAGONAL), uni.kind_mask(ChordKind.EPIGONAL)
        js = [j.mask for j in nc_diagonal_subsets(poly)]
        js = rng.sample(js, min(len(js), 10))
        es = list(iter_nc_masks(uni.order.interleave, e_mask))
        fams = {0, *(1 << k for k in range(uni.size) if (d_mask | e_mask) >> k & 1)}
        fams |= {d_mask & ~jm for jm in js} | {e_mask & ~em for em in rng.sample(es, min(len(es), 6))}
        for jm in js:
            for sub in iter_nc_masks(uni.order.interleave, jm):
                for part in subdivide(poly, uni.set_of_mask(sub)).parts:
                    fams.add(d_mask & uni.span_mask(sum(1 << v for v in part)) & ~sub)
        eng = EulerEngine(uni.order.interleave)
        adj = coordinate_crossing_masks(segments(poly, uni.chords))
        for fam in sorted(fams):
            segs = segments(poly, uni.set_of_mask(fam))
            want = EulerEngine(adj).chi(fam)
            if len(segs) <= 8:  # every subset, on coordinate crossings
                assert brute_euler(segs) == want
            assert eng.chi(fam) == want, (poly, bin(fam))


_LEMMA1_POLYGONS = st.one_of(
    st.builds(random_simple_polygon, st.integers(4, 10), st.integers(0, 2**32)),
    st.builds(convex_ngon, st.integers(4, 10)),
    st.builds(class_exemplar, st.integers(1, 5), st.just(0), st.integers(5, 10)),
    st.builds(class_exemplar, st.just(6), st.just(0), st.integers(6, 10)),
    st.sampled_from([2, -2, 3, -3]).map(lambda l: zigzag_chi_target(l).polygon),
)


@settings(max_examples=40, deadline=None)
@given(_LEMMA1_POLYGONS, st.randoms(use_true_random=False))
def test_lemma1_warm_memo_matches_face_polygons(poly, rng):
    # Every J of one polygon, in random order on one universe, so most calls
    # start from a memo that earlier sets filled.  The oracle sums, over the
    # I subset of J, the product of the chis of the faces of I, each face cut
    # by vertex lists and counted by DFS in its own universe.
    uni = universe_of(poly)
    js = nc_diagonal_subsets(poly)
    rng.shuffle(js)
    cache, products = {}, {}
    for j in js:
        want = 0
        sub = j.mask
        while True:
            if sub not in products:
                prod = 1
                for part in subdivide_oracle(poly, uni.set_of_mask(sub)):
                    prod *= _part_chi_oracle(poly, part, [], cache)
                products[sub] = prod
            want += products[sub]
            if sub == 0:
                break
            sub = (sub - 1) & j.mask
        assert chi_removed_lemma1(poly, j) == want, (poly, bin(j.mask))


def _face_family_oracle(uni, face):
    """D & span(F) & ~edges(F), each side of F looked up as a chord."""
    part = [v for v in range(uni.n) if face >> v & 1]
    edges = 0
    for a, b in zip(part, part[1:] + part[:1]):
        k = uni.index.get(Chord.of(a, b))
        if k is not None:
            edges |= 1 << k
    return uni.kind_mask(ChordKind.DIAGONAL) & uni.span_mask(face) & ~edges


def test_lemma1_face_family_depends_on_the_face_alone():
    # D & ~I & span(F) == D & span(F) & ~edges(F) for every face F of every
    # I: one table entry per face serves every I and every J of the polygon.
    for seed in range(100):
        poly = random_simple_polygon(4 + seed % 6, seed + 3000)
        uni = universe_of(poly)
        d_mask = uni.kind_mask(ChordKind.DIAGONAL)
        for i_set in nc_diagonal_subsets(poly):
            for part in subdivide_oracle(poly, i_set):
                face = sum(1 << v for v in part)
                want = _face_family_oracle(uni, face)
                assert d_mask & ~i_set.mask & uni.span_mask(face) == want


@settings(max_examples=25, deadline=None)
@given(_LEMMA1_POLYGONS)
def test_lemma1_passes_each_face_its_family(poly):
    # Every node of the recursion, over every J of the polygon, is handed
    # its face's family, narrowed down from D by the chords it split on.
    import chord_euler.partition as part

    seen = set()
    real = part._lemma1

    def spy(uni, memo, face, cut, fam):
        seen.add((face, fam))
        return real(uni, memo, face, cut, fam)

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(part, "_lemma1", spy)
        for j in nc_diagonal_subsets(poly):
            chi_removed_lemma1(poly, j)
    uni = universe_of(poly)
    for face, fam in seen:
        assert fam == _face_family_oracle(uni, face), (poly, bin(face))


def test_factorized_product(monkeypatch):
    # J's constraints are built once: a forced J' is not checked as a cut of
    # its own, so it leaves J the last checked cut for the next J'.
    import chord_euler.partition as part

    builds = []
    real = part._window_constraints
    monkeypatch.setattr(part, "_window_constraints", lambda *a: builds.append(a) or real(*a))
    n_sets = 0
    for seed in range(25):
        poly = random_simple_polygon(6 + seed % 3, seed + 500)
        uni = universe_of(poly)
        cache = {}
        for j in nc_diagonal_subsets(poly):
            n_sets += 1
            constraints, _ = convexity_constraints(poly, j)
            if not is_convex_partition(poly, j):
                continue
            forced = 0
            for c in constraints:
                if c.bit_count() == 1:
                    forced |= c
            direct = chi_removed_direct(poly, j, "d")
            # Every forced subset J', the empty one and the full one included.
            for jp_mask in iter_nc_masks(uni.crossing_masks, forced & j.mask):
                jp = uni.set_of_mask(jp_mask)
                got = chi_removed_factorized(poly, j, jp)
                assert got == direct
                want = 1
                for part in subdivide_oracle(poly, jp):
                    inside = [c for c in j - jp if c.i in part and c.j in part]
                    want *= _part_chi_oracle(poly, part, inside, cache)
                assert got == want
    assert len(builds) == n_sets == 2332


def test_factorized_precondition(dart):
    j = cs(dart, (0, 2))
    with pytest.raises(PartitionError):
        chi_removed_factorized(dart, empty(dart), j)
    # A J' of another polygon is refused as such, within J's forced chords
    # or not.
    poly = random_simple_polygon(8, 0)
    twin = universe_of(poly.rotated(0))
    for j in nc_diagonal_subsets(poly):
        if convexity_constraints(poly, j)[1]:
            for m in (0, j.mask):
                with pytest.raises(PartitionError, match="different polygon"):
                    chi_removed_factorized(poly, j, twin.set_of_mask(m))


def test_epigonal_pockets(square, dart):
    assert chi_epigonal_pockets(square, empty(square)) == 1
    assert chi_epigonal_pockets(dart, empty(dart)) == 0
    assert universe_of(square).pockets == ()
    [p] = universe_of(dart).pockets
    assert p.hull_chord == Chord(1, 3) and p.path == (1, 2, 3)


def test_epigonal_pockets_identity_random():
    for seed in range(12):
        poly = random_simple_polygon(5 + seed % 4, seed + 600)
        uni = universe_of(poly)
        e_mask = uni.kind_mask(ChordKind.EPIGONAL)
        for m in iter_nc_masks(uni.crossing_masks, e_mask):
            j = uni.set_of_mask(m)
            assert chi_epigonal_pockets(poly, j) == chi_removed_direct(poly, j, "e")


def test_xi_and_inclusion_exclusion(dart, square):
    j = cs(dart, (0, 2))
    assert xi(dart, j, empty(dart)) == 1
    assert xi(dart, j, j) == 1
    assert chi_inclusion_exclusion(dart, j, "minimal") == 1
    assert chi_inclusion_exclusion(dart, j, "maximal") == 1
    with pytest.raises(PartitionError):
        xi(square, cs(square, (0, 2)), empty(square))  # convex polygon
    with pytest.raises(PartitionError):
        xi(dart, empty(dart), empty(dart))  # J not a convex partition


def test_formula_preconditions(dart):
    # A set of another polygon, a bad side or mode, convex input, an I
    # outside J and an unforced J' are each refused, not computed.
    foreign = cs(dart.rotated(0), (0, 2))
    with pytest.raises(PartitionError, match="different polygon"):
        chi_removed_direct(dart, foreign, "d")
    with pytest.raises(ValueError, match="side must be 'd' or 'e'"):
        chi_removed_direct(dart, empty(dart), "x")
    with pytest.raises(PartitionError, match="different polygon"):
        chi_epigonal_pockets(dart, foreign)
    with pytest.raises(ValueError, match="mode must be 'minimal' or 'maximal'"):
        chi_inclusion_exclusion(dart, cs(dart, (0, 2)), "all")
    hexagon = convex_ngon(6)
    tri = extend_to_triangulation(hexagon, empty(hexagon))
    with pytest.raises(PartitionError, match="defined for non-convex polygons"):
        chi_inclusion_exclusion(hexagon, tri, "minimal")
    # A convex polygon forces no chord: every subset of J cuts it into convex faces.
    one_chord = universe_of(hexagon).set_of_mask(tri.mask & -tri.mask)
    with pytest.raises(PartitionError, match="not contained in every convex-partition subset"):
        chi_removed_factorized(hexagon, tri, one_chord)
    poly = random_simple_polygon(8, 3)
    uni = universe_of(poly)
    tri = extend_to_triangulation(poly, empty(poly))
    outside = uni.kind_mask(ChordKind.DIAGONAL) & ~tri.mask
    assert outside and not poly.is_convex
    with pytest.raises(PartitionError, match="I must be a subset of J"):
        xi(poly, tri, uni.set_of_mask(outside & -outside))


def test_xi_rejects_a_subset_of_another_polygon(dart):
    j = cs(dart, (0, 2))
    with pytest.raises(PartitionError):
        xi(dart, j, cs(dart.rotated(0), (0, 2)))
    # A one-chord set of another 8-gon, inside J's mask: it used to read 0.
    poly = random_simple_polygon(8, 3)
    j = extend_to_triangulation(poly, empty(poly))
    other = universe_of(random_simple_polygon(8, 4))
    with pytest.raises(PartitionError):
        xi(poly, j, other.set_of_mask(j.mask & -j.mask))


def test_inclusion_exclusion_agrees_with_direct(monkeypatch):
    # Maximal mode walks no subsets: the maximal sets J - c meet in nothing
    # iff their constraints c cover J, so it sums over the constraints alone.
    import chord_euler.partition as part

    def no_walk(*_):
        raise AssertionError("maximal mode walked the subsets of J")

    for seed in range(20):
        poly = random_simple_polygon(6 + seed % 3, seed + 700)
        if poly.is_convex:
            continue
        for j in nc_diagonal_subsets(poly):
            if len(j) == 0 or not is_convex_partition(poly, j):
                continue
            direct = chi_removed_direct(poly, j, "d")
            assert chi_inclusion_exclusion(poly, j, "minimal") == direct
            with monkeypatch.context() as patched:
                patched.setattr(part, "_walk", no_walk)
                assert chi_inclusion_exclusion(poly, j, "maximal") == direct


def test_inclusion_exclusion_builds_the_constraints_once(monkeypatch):
    # Counted as builds (fills of J's constraints), not calls: a call that
    # finds the constraints in the state builds nothing.
    import chord_euler.partition as part

    calls = []
    real = part._window_constraints
    monkeypatch.setattr(part, "_window_constraints", lambda *a: calls.append(a) or real(*a))
    checked = infeasible = 0
    for seed in range(12):
        poly = random_simple_polygon(6 + seed % 3, seed + 700)
        if poly.is_convex:
            continue
        for j in nc_diagonal_subsets(poly):
            for mode in ("minimal", "maximal"):
                cold = poly.rotated(0)  # a copy starts with no chord universe
                cold_j = universe_of(cold).set_of_mask(j.mask)
                calls.clear()
                try:
                    got = chi_inclusion_exclusion(cold, cold_j, mode)
                except PartitionError:
                    infeasible += 1
                    assert not is_convex_partition(poly, j)
                else:
                    assert got == chi_removed_direct(poly, j, "d")
                assert len(calls) == 1
                checked += 1
    assert checked > 100 and infeasible > 10


def test_inclusion_exclusion_error_order(monkeypatch):
    # A bad or infeasible J is reported (PartitionError) before |J| > IE_CAP
    # (InstanceTooLarge), and no 2^|J| walk runs before the cap error.
    import chord_euler.partition as part

    def no_walk(*_):
        raise AssertionError("the 2^|J| walk ran past the cap")

    monkeypatch.setattr(part, "_walk", no_walk)
    n = part.IE_CAP + 5  # a triangulation less one diagonal is still past the cap
    cases = {"feasible": 0, "infeasible": 0, "crossing": 0}
    for seed in range(10):
        poly = random_simple_polygon(n, seed + 7100)
        if poly.is_convex:
            continue
        uni = universe_of(poly)
        d_mask = uni.kind_mask(ChordKind.DIAGONAL)
        tri = extend_to_triangulation(poly, uni.set_of_mask(0))
        assert len(tri) > part.IE_CAP
        with pytest.raises(InstanceTooLarge):
            chi_inclusion_exclusion(poly, tri, "minimal")
        cases["feasible"] += 1
        for k in range(uni.size):
            bit = 1 << k
            if tri.mask & bit:
                j = uni.set_of_mask(tri.mask & ~bit)
                if len(j) > part.IE_CAP and not convexity_constraints(poly, j)[1]:
                    with pytest.raises(PartitionError):
                        chi_inclusion_exclusion(poly, j, "maximal")
                    cases["infeasible"] += 1
            elif d_mask >> k & 1 and uni.crossing_masks[k] & tri.mask:
                with pytest.raises(PartitionError):
                    chi_inclusion_exclusion(poly, uni.set_of_mask(tri.mask | bit), "minimal")
                cases["crossing"] += 1
    assert min(cases.values()) > 0


def test_inclusion_exclusion_caps_the_number_of_sets():
    # |J| = 16 is at the cap, but J has 24 minimal convex sets, and the sum
    # over them walks 2^24 subfamilies.
    import time

    poly = random_simple_polygon(19, 296)
    j = extend_to_triangulation(poly, universe_of(poly).set_of_mask(0))
    assert j.mask == 0x1C0000001010080200C0000000030300001801 and len(j) == IE_CAP
    start = time.perf_counter()
    with pytest.raises(InstanceTooLarge, match="24 minimal sets"):
        chi_inclusion_exclusion(poly, j, "minimal")
    assert time.perf_counter() - start < 1
    # Its 6 maximal non-convex sets are under the cap.
    assert chi_inclusion_exclusion(poly, j, "maximal") == chi_removed_direct(poly, j, "d")


def test_find_diagonal(dart):
    assert find_diagonal(dart) == Chord(0, 2)
    sq = convex_ngon(4)
    assert find_diagonal(sq) in (Chord(0, 2), Chord(1, 3))
    with pytest.raises(PartitionError):
        find_diagonal(convex_ngon(3))
    for seed in range(40):
        poly = random_simple_polygon(4 + seed % 6, seed + 800)
        c = find_diagonal(poly)
        uni = universe_of(poly)
        assert uni.kinds[uni.index[c]] is ChordKind.DIAGONAL


def test_extend_to_triangulation(dart):
    pent = convex_ngon(5)
    out = extend_to_triangulation(pent, cs(pent, (0, 2)))
    assert set(out) in ({Chord(0, 2), Chord(0, 3)}, {Chord(0, 2), Chord(2, 4)})
    tri3 = convex_ngon(3)
    assert extend_to_triangulation(tri3, empty(tri3)).mask == 0
    for seed in range(25):
        poly = random_simple_polygon(4 + seed % 6, seed + 900)
        j = empty(poly)
        tri = extend_to_triangulation(poly, j)
        assert len(tri) == poly.n - 3
        res = subdivide(poly, tri)
        assert all(len(p) == 3 for p in res.parts)
        # Extending a partial cut keeps it.
        half = universe_of(poly).set_of_mask(tri.mask & (tri.mask >> 1))
        tri2 = extend_to_triangulation(poly, half)
        assert half <= tri2 and len(tri2) == poly.n - 3


def _untouched_reflex_cut(size):
    """A non-convex polygon and ``size`` diagonals of a triangulation that miss a reflex vertex."""
    for seed in range(100):
        poly = random_simple_polygon(size + 5, seed + 9100)
        uni = universe_of(poly)
        tri = extend_to_triangulation(poly, empty(poly))
        for r in sorted(poly.reflex_vertices):
            mask = tri.mask & ~uni.incidence[r]
            if mask.bit_count() >= size:
                while mask.bit_count() > size:
                    mask &= mask - 1
                return poly, uni.set_of_mask(mask)
    raise AssertionError("no triangulation misses a reflex vertex in enough chords")


def test_lattice_cap():
    # Past the cap, J feasible or not, every 2^|J| route is a size error
    # with the same message; the infeasible J at |J| = 21 is settled by its
    # untouched reflex vertex before the cap is read.
    cases = []
    for n in (30, 24):
        poly = convex_ngon(n)
        cases.append((poly, extend_to_triangulation(poly, empty(poly))))
    cases.append(_untouched_reflex_cut(21))
    assert [len(j) for _, j in cases] == [27, 21, 21]
    assert [convexity_constraints(poly, j) for poly, j in cases[1:]] == [([], True), ([0], False)]
    for poly, j in cases:
        for route in THEOREM2_ROUTES:
            with pytest.raises(InstanceTooLarge) as err:
                route(poly, j)
            assert str(err.value) == f"|J| = {len(j)} exceeds the 2^|J| cap 20", route.__name__
    poly, j = cases[-1]
    for mode in ("minimal", "maximal"):
        with pytest.raises(PartitionError, match="J does not provide a convex partition"):
            chi_inclusion_exclusion(poly, j, mode)


def test_lemma1_past_the_shared_chord_orders():
    # A 60-gon's universe builds its own chord order and sides table.
    for seed in range(1, 4):
        poly = random_simple_polygon(60, seed)
        assert poly.n > SHARED_N
        tri = extend_to_triangulation(poly, empty(poly))
        mask = tri.mask
        while mask.bit_count() > 20:
            mask &= mask - 1
        j = universe_of(poly).set_of_mask(mask)
        assert chi_removed_lemma1(poly, j) == chi_removed_direct(poly, j, "d")


def _held_entries(obj):
    """Ints held by a partition-state object, counting through containers and slots."""
    if isinstance(obj, int):
        return 1
    if isinstance(obj, dict):
        return sum(_held_entries(k) + _held_entries(v) for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        return sum(_held_entries(x) for x in obj)
    if obj is None:
        return 0
    return sum(_held_entries(getattr(obj, name)) for name in type(obj).__slots__)


@pytest.mark.parametrize("kind", ["convex", "random"])
def test_theorem2_leaves_nothing_of_size_2_to_the_j(kind):
    # Each route walks the 2^|J| subsets of a triangulation's J (|J| = 16)
    # and keeps no more than a few entries per chord of J.  The signed sums
    # hold no more than that while they walk: a list of the 2^16 subsets
    # alone would take more than 2 MiB.
    import tracemalloc

    poly = convex_ngon(19) if kind == "convex" else random_simple_polygon(19, 296)
    uni = universe_of(poly)
    j = extend_to_triangulation(poly, empty(poly))
    assert len(j) == 16
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        got = chi_removed_theorem2(poly, j), chi_removed_lemma_d2(poly, j)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 512 * 1024, peak
    convex_lattice(poly, j)
    state = uni.partition_state
    assert state.mask == j.mask and state.signed is not None
    assert _held_entries(state) <= 4 * len(j)
    assert got == (chi_removed_direct(poly, j, "d"),) * 2


def test_bad_j_is_bad_input_before_the_cap():
    # 21 diagonals of a convex 9-gon: past the 2^|J| cap, and crossing.  Every
    # route reports the bad J, which the CLI maps to exit 2, not exit 3.
    poly = convex_ngon(9)
    j = universe_of(poly).set_of(list(diagonals(poly))[:21])
    for route in (chi_removed_theorem2, chi_removed_lemma_d2, convex_lattice, chi_removed_lemma1):
        with pytest.raises(PartitionError, match="crossing pair"):
            route(poly, j)


def _route_values(poly, j1, j2):
    """Every route on J1, with Lemma D2 on J2 asked between two routes on J1."""
    t2 = chi_removed_theorem2(poly, j1)
    d2_next = chi_removed_lemma_d2(poly, j2) if j2.mask else None
    d2 = chi_removed_lemma_d2(poly, j1) if j1.mask else None
    lat = convex_lattice(poly, j1)
    lattice = (lat.members_c, lat.members_nc, lat.minimal_c, lat.maximal_nc)
    direct = chi_removed_direct(poly, j1, "d")
    return (direct, t2, chi_removed_lemma1(poly, j1), d2, lattice), d2_next


def test_theorem2_routes_warm_equal_cold():
    # The face table and the last split on the universe give every route the
    # values it computes on a fresh copy of the polygon, whatever came before.
    poly = random_simple_polygon(8, 11)
    uni = universe_of(poly)
    masks = [j.mask for j in nc_diagonal_subsets(poly)]
    cold = {}
    for m in masks:
        twin = poly.rotated(0)
        j = universe_of(twin).set_of_mask(m)
        cold[m] = _route_values(twin, j, j)[0]
    order = masks + masks[::-1]
    for m1, m2 in zip(order, order[1:] + order[:1]):
        got, d2_next = _route_values(poly, uni.set_of_mask(m1), uni.set_of_mask(m2))
        assert got == cold[m1], bin(m1)
        assert d2_next == cold[m2][3], bin(m2)


THEOREM2_ROUTES = [chi_removed_theorem2, chi_removed_lemma_d2, convex_lattice, chi_removed_lemma1]


@pytest.mark.parametrize("first", THEOREM2_ROUTES)
def test_theorem2_state_cached_on_the_universe(first):
    poly = random_simple_polygon(8, 11)
    uni = universe_of(poly)
    assert uni.partition_state is None
    js = [j for j in nc_diagonal_subsets(poly) if len(j) >= 2]
    first(poly, js[0])
    state = uni.partition_state
    assert state.mask == js[0].mask
    if first is chi_removed_lemma1:
        assert state.lemma1 and state.constraints is None and state.signed is None
    else:
        assert not state.lemma1 and state.constraints is not None
        assert (state.signed is None) == (first is convex_lattice)
    constraints = state.constraints
    chi_removed_lemma1(poly, js[0])
    memo = state.lemma1
    # The same J keeps its constraints.
    assert memo and state.mask == js[0].mask and state.constraints is constraints
    for j in js:
        chi_removed_theorem2(poly, j)
        chi_removed_lemma1(poly, j)
    assert uni.partition_state is state and state.lemma1 is memo
    assert state.mask == js[-1].mask and state.signed is not None
    # A hit still checks J: the same mask over another universe is refused.
    twin = poly.rotated(0)
    with pytest.raises(PartitionError, match="different polygon"):
        chi_removed_theorem2(poly, universe_of(twin).set_of_mask(js[-1].mask))


@pytest.mark.parametrize("route", THEOREM2_ROUTES)
def test_bad_j_is_refused_after_a_validated_one(route):
    # A J that passed the check is the last checked cut in the universe's
    # partition state; a bad J never is, so each call on it is refused,
    # however often it is asked, and the good J keeps its constraints and sum.
    poly = random_simple_polygon(8, 11)
    uni = universe_of(poly)
    good = next(j for j in nc_diagonal_subsets(poly) if len(j) >= 2)
    d_mask, epigonal = uni.kind_mask(ChordKind.DIAGONAL), uni.kind_mask(ChordKind.EPIGONAL)
    assert epigonal  # the polygon is not convex
    k = next(k for k in range(uni.size) if d_mask >> k & 1 and uni.crossing_masks[k] & good.mask)
    crossing = uni.set_of_mask(good.mask | 1 << k)
    with_epigonal = uni.set_of_mask(good.mask | epigonal & -epigonal)
    twin = universe_of(poly.rotated(0)).set_of_mask(good.mask)
    route(poly, good)
    state = uni.partition_state
    kept = state.constraints, state.signed
    assert state.mask == good.mask
    for _ in range(2):
        with pytest.raises(PartitionError, match="crossing pair"):
            route(poly, crossing)
        with pytest.raises(PartitionError, match="not a diagonal"):
            route(poly, with_epigonal)
        with pytest.raises(PartitionError, match="different polygon"):
            route(poly, twin)
        assert state.mask == good.mask
        assert state.constraints is kept[0] and state.signed == kept[1]
        route(poly, good)


def test_each_j_is_validated_once_across_the_routes(monkeypatch):
    # The check reads J's interleaving row once per chord of J.  Counted here
    # by giving this universe a view of its chord order whose rows count
    # their reads, after the shared engine has taken its own; the order,
    # shared by every universe of this n, is left as it is.
    poly = random_simple_polygon(8, 11)
    uni = universe_of(poly)
    js = [j for j in nc_diagonal_subsets(poly) if len(j) >= 2]
    chi_removed_direct(poly, js[0], "d")
    reads = []

    class Rows(tuple):
        def __getitem__(self, k):
            reads.append(k)
            return tuple.__getitem__(self, k)

    class Order:
        def __init__(self, order):
            self.shared = order
            self.interleave = Rows(order.interleave)

        def __getattr__(self, name):
            return getattr(self.shared, name)

    shared = uni.order
    monkeypatch.setattr(uni, "order", Order(shared))
    for j in js:
        reads.clear()
        for route in THEOREM2_ROUTES + THEOREM2_ROUTES:
            route(poly, j)
        assert sorted(reads) == sorted(uni.index[c] for c in j), bin(j.mask)
    assert type(shared.interleave) is tuple
