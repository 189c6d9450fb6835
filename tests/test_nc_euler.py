import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chord_euler.chords import (
    Chord,
    ChordKind,
    ChordSet,
    a_diagonals,
    diagonals,
    epigonals,
    universe_of,
)
from chord_euler.classes import (
    is_class1,
    is_class2,
    is_class3,
    is_class4,
    is_class5,
    is_class6,
    verify_theorem3,
)
from chord_euler.generators import (
    class_exemplar,
    convex_ngon,
    random_simple_polygon,
    zigzag_chi_target,
)
from chord_euler.geometry import Point
from chord_euler.nc_euler import (
    EulerEngine,
    euler_recursive,
    f_vector,
    find_heart,
    is_heart,
    iter_nc_masks,
    star_ear_chis,
    _adjacency,
    _columns,
    _star_ear,
)
from conftest import brute_euler, brute_nc_counts, exemplar_and_zigzag_polygons, pt
from oracles import (
    Segment,
    convex_hull_points,
    coordinate_crossing_masks,
    dfs_chi,
    ear_chord,
    euler_brute,
    forbidden_star,
    no_three_collinear,
    segments,
)


def _nc_counts(adj, live):
    """Non-crossing subsets of ``live`` by size, counted over the DFS enumerator."""
    counts = [0] * (live.bit_count() + 1)
    for m in iter_nc_masks(adj, live):
        counts[m.bit_count()] += 1
    while len(counts) > 1 and counts[-1] == 0:
        counts.pop()
    return counts


def test_f_vector_convex_small():
    pent = convex_ngon(5)
    segs = segments(pent, diagonals(pent))
    assert brute_nc_counts(segs) == [1, 5, 5]  # oracle over all 2^5 subsets
    assert f_vector(diagonals(pent)).counts == (1, 5, 5)

    hexagon = convex_ngon(6)
    segs = segments(hexagon, diagonals(hexagon))
    assert brute_nc_counts(segs) == [1, 9, 21, 14]
    assert f_vector(diagonals(hexagon)).counts == (1, 9, 21, 14)
    # d_3 = 14 is the hexagon triangulation count (Catalan number C_4).


def test_f_vector_edge_cases(dart):
    triangle = convex_ngon(3)
    assert f_vector(diagonals(triangle)).counts == (1,)
    assert f_vector(epigonals(triangle)).counts == (1,)
    # The dart's one pocket is the triangle 1, 2, 3 on its hull chord 1-3.
    uni = universe_of(dart)
    hull_chord = uni.set_of([Chord.of(1, 3)])
    assert f_vector(epigonals(dart)).counts == (1, 1)
    assert f_vector(epigonals(dart) - hull_chord).counts == (1,)
    # The DP's packed polynomial of an empty family over a big universe is 1:
    # no trailing zero coefficients.
    big = convex_ngon(12)
    assert f_vector(ChordSet(universe_of(big), 0)).counts == (1,)
    assert f_vector(universe_of(big).set_of([Chord.of(0, 5)])).counts == (1, 1)


def test_f_vector_monotone_vanishing():
    for seed in range(25):
        poly = random_simple_polygon(4 + seed % 6, seed)
        fv = f_vector(diagonals(poly))
        assert fv.counts[0] == 1
        assert all(c > 0 for c in fv.counts)  # trimmed, so no internal zeros


def _dp_families(poly, rng) -> list[ChordSet]:
    """Diagonals and epigonals: whole, random sub-masks, a star and an ear removed."""
    uni = universe_of(poly)
    out = [diagonals(poly) | epigonals(poly)]
    for fam in (diagonals(poly), epigonals(poly)):
        out.append(fam)
        out += [ChordSet(uni, fam.mask & rng.getrandbits(uni.size)) for _ in range(2)]
        if poly.n >= 5:
            i = rng.randrange(poly.n)
            out += [fam - forbidden_star(poly, i), fam - ear_chord(poly, i)]
    return out


def _assert_dp_matches_dfs(poly, rng) -> None:
    # Two routes that share no code with the DP: the DFS on the universe's
    # crossing masks, and the DFS on the segments' crossings, decided on
    # their coordinates rather than from interleaving.
    uni = universe_of(poly)
    adj = coordinate_crossing_masks(segments(poly, uni.chords))
    for fam in _dp_families(poly, rng):
        counts = list(f_vector(fam).counts)
        assert counts == _nc_counts(uni.crossing_masks, fam.mask), fam
        assert counts == _nc_counts(adj, fam.mask), fam


@settings(max_examples=30, deadline=None)
@given(st.integers(4, 11), st.integers(0, 2**32))
def test_dp_matches_dfs_random(n, seed):
    _assert_dp_matches_dfs(random_simple_polygon(n, seed), random.Random(seed))


def test_dp_matches_dfs_exemplars_and_zigzags():
    rng = random.Random(4)
    two_pockets = [class_exemplar(3, 0, n, pockets=2) for n in range(7, 11)]
    for poly in exemplar_and_zigzag_polygons(zigzag_ls=(2, -2, 3, -3)) + two_pockets:
        _assert_dp_matches_dfs(poly, rng)
    # Where the DFS is slow (the l = 4 zigzag has 4.5e4 non-crossing diagonal
    # sets, l = 7 has 1.2e8), the deletion recursion checks the alternating sums.
    for poly in [zigzag_chi_target(l).polygon for l in (4, 5, -5, 7)]:
        for fam in (diagonals(poly), epigonals(poly)):
            assert f_vector(fam).euler == euler_recursive(fam)


def test_boundary_crossing_sets_match_brute_counts():
    # A chord set holding a boundary-crossing chord is counted by the DFS on
    # the straddle test over its universe's table; brute_nc_counts decides
    # the crossings on the segments' coordinates.  Sets of at most 12 chords.
    rng = random.Random(21)
    polys = [random_simple_polygon(n, rng.getrandbits(32)) for n in range(4, 15) for _ in range(3)]
    polys += [zigzag_chi_target(l).polygon for l in (2, -2, 3, -3, 4)]
    checked = 0
    for poly in polys:
        uni = universe_of(poly)
        bc = uni.kind_mask(ChordKind.BOUNDARY_CROSSING)
        if not bc:
            continue
        bc_chords = [k for k in range(uni.size) if bc >> k & 1]
        for _ in range(5):
            first = rng.choice(bc_chords)
            others = [k for k in range(uni.size) if k != first]
            rest = rng.sample(others, min(len(others), rng.randrange(12)))
            fam = uni.set_of_mask(sum(1 << k for k in (first, *rest)))
            assert list(f_vector(fam).counts) == brute_nc_counts(segments(poly, fam)), fam
            checked += 1
    assert checked >= 100



def _iter_nc_masks_recursive(adj, live):
    """Reference for ``iter_nc_masks``: the same depth-first order, recursively."""
    order = [k for k in range(len(adj)) if live >> k & 1]

    def rec(pos, chosen, banned):
        yield chosen
        for t in range(pos, len(order)):
            k = order[t]
            if not banned >> k & 1:
                yield from rec(t + 1, chosen | (1 << k), banned | (adj[k] & live))

    yield from rec(0, 0, 0)


def _maximal(adj, live, masks):
    """The maximal sets among ``masks``: every chord of ``live`` outside one crosses it."""
    return [
        m for m in masks
        if all(adj[k] & m for k in range(len(adj)) if (live & ~m) >> k & 1)
    ]


def _assert_hearts_match_maximal_sets(fam, heart_masks, maximal):
    # A heart is a non-crossing set that every maximal non-crossing set meets.
    for h in heart_masks:
        assert is_heart(fam, fam.universe.set_of_mask(h)) == all(m & h for m in maximal), (fam, h)


@settings(max_examples=30, deadline=None)
@given(st.integers(4, 8), st.integers(0, 2**32))
def test_iter_nc_masks_matches_the_recursive_order(n, seed):
    # perfbench samples its sets J by index into this sequence, so the order
    # is part of the contract, not only the set of masks.
    poly = random_simple_polygon(n, seed)
    uni = universe_of(poly)
    adj = uni.crossing_masks
    for live in (diagonals(poly).mask, epigonals(poly).mask):
        masks = list(iter_nc_masks(adj, live))
        assert masks == list(_iter_nc_masks_recursive(adj, live))
    for fam in (diagonals(poly), epigonals(poly)):
        masks = list(iter_nc_masks(adj, fam.mask))
        spread = masks[:: max(1, len(masks) // 16)]
        _assert_hearts_match_maximal_sets(fam, spread, _maximal(adj, fam.mask, masks))


# Deferred, so that a generator fault fails the test that draws from it
# rather than the collection of the module.
_HEART_POLYGONS = st.deferred(
    lambda: st.sampled_from(exemplar_and_zigzag_polygons(zigzag_ls=(2, -2, 3, -3, 4))))


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(
        st.builds(random_simple_polygon, st.integers(4, 11), st.integers(0, 2**32)),
        _HEART_POLYGONS,
    ),
    st.randoms(use_true_random=False),
)
def test_is_heart_matches_the_maximal_sets(poly, rnd):
    # The oracle lists the maximal sets by definition; is_heart reads the DP.
    adj = universe_of(poly).crossing_masks
    for side, fam in (("d", diagonals(poly)), ("e", epigonals(poly))):
        masks = list(iter_nc_masks(adj, fam.mask))
        hearts = rnd.sample(masks, min(len(masks), 24))
        found = find_heart(poly, side)
        if found is not None:
            hearts.append(found.mask)
        _assert_hearts_match_maximal_sets(fam, hearts, _maximal(adj, fam.mask, masks))


def test_f_vector_reads_no_hull_or_pockets():
    # The epigonals interleave along the boundary cycle like the diagonals,
    # so their f-vector needs the chord kinds only.
    for seed in range(5):
        poly = random_simple_polygon(9, seed)
        uni = universe_of(poly)
        fam = epigonals(poly)
        assert not poly.is_convex and "pockets" not in vars(uni)
        assert list(f_vector(fam).counts) == _nc_counts(uni.crossing_masks, fam.mask)
        assert "pockets" not in vars(uni)


def test_boundary_crossing_sets_use_the_dfs():
    # The universe's crossing masks stop at the diagonals and epigonals, so a
    # set holding a boundary-crossing chord is straddle-tested on the
    # universe's table; brute_nc_counts decides the crossings of its
    # segments on their coordinates.
    seen = 0
    for seed in range(10):
        poly = random_simple_polygon(6, seed)
        uni = universe_of(poly)
        full = ChordSet(uni, uni.full_mask())
        if not full.mask & uni.kind_mask(ChordKind.BOUNDARY_CROSSING):
            continue
        want = brute_nc_counts(segments(poly, full))
        assert list(f_vector(full).counts) == want
        chi = sum((-1) ** k * c for k, c in enumerate(want))
        assert euler_brute(full) == euler_recursive(full) == chi
        seen += 1
    assert seen


def test_theorem1_tails_past_the_dfs():
    # Non-convex polygons far past the DFS's reach (n <= 13): both
    # alternating tails equal 1 (Theorem 1).
    for n, seed in ((14, 1), (20, 2), (27, 3), (33, 4), (40, 5)):
        poly = random_simple_polygon(n, seed)
        assert not poly.is_convex
        assert f_vector(diagonals(poly)).alternating_tail() == 1
        assert f_vector(epigonals(poly)).alternating_tail() == 1


def _assert_star_ear_chis(poly, brute: bool = True) -> None:
    # The x = -1 tables against the deletion recursion and (where it is fast
    # enough) the DFS, both on the crossing masks, at every vertex.
    uni = universe_of(poly)
    eng = EulerEngine(uni.crossing_masks)
    d_mask, e_mask = diagonals(poly).mask, epigonals(poly).mask
    rows = star_ear_chis(uni)
    assert len(rows) == poly.n
    for i, row in enumerate(rows):
        star, ear = forbidden_star(poly, i).mask, ear_chord(poly, i).mask
        masks = (d_mask & ~star, e_mask & ~star, d_mask & ~ear, e_mask & ~ear)
        assert row == tuple(eng.chi(m) for m in masks), (poly, i)
        if brute:
            assert row == tuple(euler_brute(ChordSet(uni, m)) for m in masks), (poly, i)


@settings(max_examples=25, deadline=None)
@given(st.integers(5, 12), st.integers(0, 2**32))
def test_star_ear_chis_match_oracles_random(n, seed):
    _assert_star_ear_chis(random_simple_polygon(n, seed))


def test_star_ear_chis_match_oracles_convex():
    # The DFS meets 1.0e5 non-crossing sets per family at n = 10 and five
    # times as many at n = 11; past that only the recursion checks.
    for n in range(5, 15):
        _assert_star_ear_chis(convex_ngon(n), brute=n <= 10)


def test_star_ear_chis_match_oracles_exemplars_and_zigzags():
    for kind in range(1, 7):
        for n in range(6 if kind == 6 else 5, 11):
            for i in (0, 2):
                _assert_star_ear_chis(class_exemplar(kind, i, n))
    # The l = -5 zigzag takes the DFS 25 s.
    for l in (2, -2, 3, -3, 4, -4, 5, -5):
        _assert_star_ear_chis(zigzag_chi_target(l).polygon, brute=abs(l) <= 4)


def test_star_ear_chis_cached_on_the_universe():
    poly = random_simple_polygon(9, 3)
    uni = universe_of(poly)
    assert uni.star_ear_rows is None
    rows = star_ear_chis(uni)
    assert uni.star_ear_rows is rows and star_ear_chis(uni) is rows
    # A convex polygon has no epigonals: chi of the empty family is 1.
    for row in star_ear_chis(universe_of(convex_ngon(7))):
        assert row[1] == row[3] == 1


@pytest.mark.parametrize(
    "first", [verify_theorem3, is_class1, is_class2, is_class3, is_class4, is_class5, is_class6]
)
def test_class_masks_cached_on_the_universe(first):
    poly = random_simple_polygon(9, 3)
    uni = universe_of(poly)
    assert uni.class_masks is None
    first(poly, 4)
    masks = uni.class_masks
    assert len(masks) == 6
    for i in range(poly.n):
        verify_theorem3(poly, i)
        assert is_class6(poly, i) == bool(masks[5] >> i & 1)
    assert uni.class_masks is masks


def test_deep_deletion_recursion_is_a_size_error():
    # Member v of a path crosses only v - 1 and v + 1.  With 3,000 members
    # the recursion runs about 1,000 deep, past the default limit: it ends
    # in the size error the CLI maps to exit 3, not a RecursionError.
    from chord_euler.partition import InstanceTooLarge

    m = 3000
    path = [(1 << v >> 1) | (1 << v + 1 if v < m - 1 else 0) for v in range(m)]
    eng = EulerEngine(path)
    with pytest.raises(InstanceTooLarge):
        eng.chi((1 << m) - 1)
    # The memo holds only finished values: later answers are still exact.
    # The same 30-member path as segments in general position: on the
    # parabola y = x^2, segment v joins the points 2v and 2v + 3, so it
    # crosses only v - 1 and v + 1.  A path of 30 members has chi 1.
    short = (1 << 30) - 1
    on_curve = [pt(t, t * t) for t in range(62)]
    segs = [Segment(on_curve[2 * v], on_curve[2 * v + 3]) for v in range(30)]
    adj = coordinate_crossing_masks(segs)
    assert adj == [mask & short for mask in path[:30]]
    assert eng.chi(short) == EulerEngine(path).chi(short) == EulerEngine(adj).chi(short) == 1


def _crossing_graph(m, seed, density):
    # A random symmetric crossing relation on m members; most are drawn by no
    # polygon's chords.
    rng = random.Random(seed)
    adj = [0] * m
    for a in range(m):
        for b in range(a + 1, m):
            if rng.random() < density:
                adj[a] |= 1 << b
                adj[b] |= 1 << a
    return adj


def _recursive_chi(adj, live):
    # euler_recursive on a bare crossing graph: a fresh memo per call.
    return EulerEngine(adj).chi(live)


_densities = st.sampled_from([0.08, 0.15, 0.3, 0.5, 0.8])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 18), st.integers(0, 2**32), _densities)
def test_chi_matches_dfs_on_random_crossing_graphs(m, seed, density):
    adj = _crossing_graph(m, seed, density)
    live = (1 << m) - 1
    want = dfs_chi(adj, live)
    assert _recursive_chi(adj, live) == EulerEngine(adj).chi(live) == want


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 17), st.integers(0, 2**32), _densities, st.integers(1, 3))
def test_singleton_after_a_large_component_returns_before_recursing(m, seed, density, extra):
    # The components are found before any recursion, so an isolated member
    # (chi 0) zeroes the product at once, wherever it sits in bit order.
    import chord_euler.nc_euler as nc

    adj = _crossing_graph(m, seed, density)
    path = [(1 << v >> 1 | 1 << v + 1) & (1 << m) - 1 for v in range(m)]  # connected
    adj = [a | p for a, p in zip(adj, path)]
    adj += [0] * extra  # isolated members above the component
    live = (1 << m + extra) - 1
    calls = []
    real = nc._chi
    nc._chi = lambda *a: calls.append(a) or real(*a)
    try:
        got = EulerEngine(adj).chi(live)
    finally:
        nc._chi = real
    assert got == 0 == dfs_chi(adj, live)
    assert len(calls) == 1
    assert _recursive_chi(adj, live) == 0


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 18), st.integers(0, 2**32), _densities)
def test_shared_engine_matches_fresh_engines(m, seed, density):
    adj = _crossing_graph(m, seed, density)
    rng = random.Random(seed)
    shared = EulerEngine(adj)
    for _ in range(12):
        live = rng.getrandbits(m) | rng.getrandbits(m)
        want = EulerEngine(adj).chi(live)
        assert shared.chi(live) == want == dfs_chi(adj, live)


def _path(m):
    return [(1 << v >> 1 | 1 << v + 1) & (1 << m) - 1 for v in range(m)]


def _relabelled(adj, perm):
    # Member v becomes perm[v].
    out = [0] * len(adj)
    for v, mask in enumerate(adj):
        out[perm[v]] = sum(1 << perm[u] for u in range(len(adj)) if mask >> u & 1)
    return out


def _chi_calls(adj, live):
    import chord_euler.nc_euler as nc

    calls = []
    real = nc._chi
    nc._chi = lambda *a: calls.append(a) or real(*a)
    try:
        return EulerEngine(adj).chi(live), len(calls)
    finally:
        nc._chi = real


@pytest.mark.parametrize("seed", [None, 1, 2])
def test_chi_closed_forms_on_paths_stars_and_cycles(seed):
    # Closed forms, each member's crossings as given and relabelled at
    # random: a path of m members has chi 1, 0, -1, -1, 0, 1 for m = 0..5
    # (mod 6), a star with k >= 1 leaves -1, and a cycle of m >= 3 members
    # 2, 1, -1, -2, -1, 1 for m = 0..5 (mod 6).  Paths and stars fold at a
    # leaf; a cycle has none and takes the component search.
    def relabel(adj):
        perm = list(range(len(adj)))
        if seed is not None:
            random.Random(seed).shuffle(perm)
        return _relabelled(adj, perm)

    for m in range(40):
        adj = relabel(_path(m))
        assert _recursive_chi(adj, (1 << m) - 1) == (1, 0, -1, -1, 0, 1)[m % 6]
    for k in range(1, 30):
        star = relabel([(1 << k + 1) - 2] + [1] * k)
        assert _recursive_chi(star, (1 << k + 1) - 1) == -1
    for m in range(3, 40):
        cycle = relabel([a | (1 << m - 1 if v == 0 else 1 if v == m - 1 else 0)
                         for v, a in enumerate(_path(m))])
        assert _recursive_chi(cycle, (1 << m) - 1) == (2, 1, -1, -2, -1, 1)[m % 6]


@pytest.mark.parametrize("seed", [None, 3])
def test_path_folds_three_members_per_call(seed):
    # Each fold removes a leaf's neighbour and its two neighbours, so an
    # m-member path takes at most ceil(m / 3) + 1 calls, in any labelling.
    for m in range(0, 200, 7):
        perm = list(range(m))
        if seed is not None:
            random.Random(seed + m).shuffle(perm)
        got, calls = _chi_calls(_relabelled(_path(m), perm), (1 << m) - 1)
        assert got == (1, 0, -1, -1, 0, 1)[m % 6]
        assert calls <= -(-m // 3) + 1


def _tree_on_core(core, extra, seed, density):
    # A dense random core of ``core`` members, then ``extra`` members each
    # crossing one earlier member: leaves hang off the core and off each other.
    rng = random.Random(seed)
    adj = _crossing_graph(core, seed, density) + [0] * extra
    for v in range(core, core + extra):
        u = rng.randrange(v)
        adj[v] |= 1 << u
        adj[u] |= 1 << v
    return adj


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 16), st.integers(0, 2**32), st.sampled_from([0.03, 0.05, 0.1]))
def test_chi_matches_dfs_on_sparse_crossing_graphs(m, seed, density):
    # Sparse graphs have leaves, isolated members and paths: the folds fire.
    adj = _crossing_graph(m, seed, density)
    live = (1 << m) - 1
    assert _recursive_chi(adj, live) == dfs_chi(adj, live)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(0, 10), st.integers(0, 2**32), st.sampled_from([0.5, 0.8]))
def test_chi_matches_dfs_on_trees_with_a_dense_core(core, extra, seed, density):
    adj = _tree_on_core(core, extra, seed, density)
    rng = random.Random(seed)
    shared = EulerEngine(adj)
    for live in ((1 << core + extra) - 1, rng.getrandbits(core + extra)):
        want = dfs_chi(adj, live)
        assert _recursive_chi(adj, live) == shared.chi(live) == want


def _value(counts, x):
    return sum(c * x**k for k, c in enumerate(counts))


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 10), st.integers(0, 2**32))
def test_column_kernel_at_a_generic_x(n, seed):
    # Both modes of _columns, every chord end's V(p, v) and every output,
    # against the DFS f-polynomial on coordinate crossings of the family's
    # chords inside the arc p..v, less the chord (p, v), evaluated at x.  At
    # x = 2, 3, -2 no product vanishes, unlike at -1.  The families skip
    # columns: random sub-masks of D and of E with every chord at one vertex
    # dropped, the chords of D and of E at n - 1, and the empty family.
    rng = random.Random(seed)
    poly = random_simple_polygon(n, seed)
    uni = universe_of(poly)
    families = [ChordSet(uni, 0)]
    for whole in (diagonals(poly), epigonals(poly)):
        families.append(ChordSet(uni, whole.mask & rng.getrandbits(uni.size)
                                 & ~uni.incidence[rng.randrange(n)]))
        families.append(ChordSet(uni, whole.mask & uni.incidence[n - 1]))
    for fam in families:
        chords = fam.chords()
        members = set(chords)
        adj = coordinate_crossing_masks(segments(poly, chords))
        nbr = [0] * n
        for i, j in chords:
            nbr[i] |= 1 << j
            nbr[j] |= 1 << i

        def counts(p, v):  # the cyclic arc p..v, less the chord (p, v)
            arc = {s % n for s in range(p, v + 1)}
            own = Chord.of(p % n, v % n)
            return _nc_counts(adj, sum(1 << k for k, c in enumerate(chords)
                                       if c != own and c.i in arc and c.j in arc))

        def is_chord(p, v):
            return v - p < n - 1 and Chord.of(p % n, v % n) in members

        whole_counts = counts(0, n - 1)
        assert f_vector(fam).counts == tuple(whole_counts)
        doubled = [m | m << n for m in nbr] * 2
        star_ear = [(counts(a, a + n - 2), is_chord(a, a + n - 2)) for a in range(1, n + 1)]
        # Theorem 3's chis at vertex i = a - 1, from the cells at x = -1.
        chi = _value(whole_counts, -1)
        assert _star_ear(nbr) == [(0, chi + _value(inner, -1)) if ear else (_value(inner, -1), chi)
                                  for inner, ear in star_ear]
        for x in (2, 3, -2):
            # Non-cyclic: column n - 1 down to 0 gives the f-polynomial, and
            # every chord of the family has its end.
            col, ends = _columns(nbr, x, [-1] * (n - 1) + [0])
            assert col[0] == _value(whole_counts, x)
            for p in range(n):
                assert ends[p] == [(v, _value(counts(p, v), x))
                                   for v in range(p + 2, n) if is_chord(p, v)], (p, x)
            # Cyclic, on the doubled indices: column n - 1 down to 0, columns
            # n..2n - 2 down to q - n + 2.  Every chord (p, v) with
            # v <= 2n - 2 and v - p <= n - 2 has its end, and the bottom
            # cells are the star cells w(a, a + n - 2) V(a, a + n - 2).
            col, ends = _columns(doubled, x, [-1] * (n - 1) + [0, *range(2, n + 1)])
            assert col[0] == _value(whole_counts, x)
            for a, (inner, ear) in enumerate(star_ear, 1):
                assert col[a] == _value(inner, x) * (1 + x if ear else 1), (a, x)
            for p in range(2 * n - 1):
                assert ends[p] == [(v, _value(counts(p, v), x))
                                   for v in range(p + 2, min(p + n - 1, 2 * n - 1))
                                   if is_chord(p, v)], (p, x)


def _unpack(value: int, width: int) -> tuple[int, ...]:
    counts = []
    while value:
        counts.append(value & (1 << width) - 1)
        value >>= width
    return tuple(counts)


def test_packing_width_bound_is_attained_by_convex_polygons():
    # f_vector packs at min(|family|, 3(n - 3) * parts) + 1 bits, from
    # s(n - 2) <= 6^(n - 3) < 2^(3(n - 3)) non-crossing sets per kind.  A
    # convex n-gon's D has exactly s(n - 2) of them, and its f-vector is the
    # one packed at the former width |D| + 1.  The packing needs every bit of
    # the largest coefficient: one bit fewer unpacks a different f-vector.
    s = [1, 1]  # little Schroeder numbers
    for k in range(2, 29):
        value, rest = divmod(3 * (2 * k - 1) * s[k - 1] - (k - 2) * s[k - 2], k + 1)
        assert rest == 0 and value < 6 * s[k - 1]
        s.append(value)
    for n in range(4, 31):
        poly = convex_ngon(n)
        uni = universe_of(poly)
        want = f_vector(diagonals(poly)).counts
        stops = [-1] * (n - 1) + [0]  # column n - 1 down to 0: V(0, n - 1)
        assert sum(want) == s[n - 2] <= 6 ** (n - 3) < 2 ** (3 * (n - 3))
        for width in (uni.kind_mask(ChordKind.DIAGONAL).bit_count() + 1, max(want).bit_length()):
            assert _unpack(_columns(uni.diag, 1 << width, stops)[0][0], width) == want
        narrow = max(want).bit_length() - 1
        assert _unpack(_columns(uni.diag, 1 << narrow, stops)[0][0], narrow) != want


def test_euler_values(square, dart):
    assert euler_brute(diagonals(square)) == -1
    assert euler_recursive(diagonals(square)) == -1
    assert euler_brute(diagonals(dart)) == 0
    assert euler_brute(epigonals(dart)) == 0
    assert euler_recursive(ChordSet(universe_of(square), 0)) == 1


def test_euler_convex_formula():
    for n in range(3, 9):
        poly = convex_ngon(n)
        assert euler_recursive(diagonals(poly)) == (-1) ** (n + 1)


def test_brute_equals_recursive_random_families():
    rng = random.Random(12)
    for trial in range(60):
        npts = rng.randrange(4, 8)
        while True:
            points = [
                Point(rng.randrange(0, 1000), rng.randrange(0, 1000))
                for _ in range(npts)
            ]
            if len({(p.x, p.y) for p in points}) == npts and no_three_collinear(points):
                break
        pairs = [(a, b) for a in range(npts) for b in range(a + 1, npts)]
        rng.shuffle(pairs)
        segs = [Segment(points[a], points[b]) for a, b in pairs[: rng.randrange(0, 9)]]
        adj, live = coordinate_crossing_masks(segs), (1 << len(segs)) - 1
        assert dfs_chi(adj, live) == EulerEngine(adj).chi(live) == brute_euler(segs)


def test_brute_equals_recursive_polygon_families():
    for seed in range(15):
        poly = random_simple_polygon(5 + seed % 4, seed)
        for fam in (diagonals(poly), epigonals(poly)):
            assert euler_brute(fam) == euler_recursive(fam)


def test_is_heart(square, dart):
    uni = universe_of(dart)
    assert is_heart(diagonals(dart), uni.set_of([Chord.of(0, 2)]))
    assert is_heart(epigonals(dart), uni.set_of([Chord.of(1, 3)]))
    us = universe_of(square)
    assert not is_heart(diagonals(square), us.set_of([Chord.of(0, 2)]))
    with pytest.raises(ValueError):
        is_heart(diagonals(square), us.set_of([Chord.of(1, 3), Chord.of(0, 2)]))
    with pytest.raises(ValueError):  # a heart of another polygon
        is_heart(diagonals(dart), find_heart(dart.rotated(0), "d"))


def test_is_heart_takes_chord_sets_only(dart):
    segs = segments(dart, diagonals(dart))
    with pytest.raises(TypeError):
        is_heart(segs, segs)
    with pytest.raises(TypeError):
        is_heart(diagonals(dart), segs)


def test_is_heart_needs_a_whole_kind():
    # Only D and E have maximal sets of one size, which the DP rule needs.
    poly = convex_ngon(8)
    uni = universe_of(poly)
    for fam in (diagonals(poly) - uni.set_of([Chord.of(0, 2)]), a_diagonals(poly, 2)):
        with pytest.raises(ValueError):
            is_heart(fam, uni.set_of_mask(0))
    poly = random_simple_polygon(8, 1)
    uni = universe_of(poly)
    assert uni.kind_mask(ChordKind.BOUNDARY_CROSSING)
    with pytest.raises(ValueError):
        is_heart(uni.set_of_mask(uni.full_mask()), find_heart(poly, "d"))


def test_is_heart_builds_no_crossing_masks():
    for seed in range(5):
        poly = random_simple_polygon(9, seed)
        assert is_heart(diagonals(poly), find_heart(poly, "d"))
        assert is_heart(epigonals(poly), find_heart(poly, "e"))
        assert "crossing_masks" not in vars(universe_of(poly))


def test_one_kind_families_build_no_crossing_masks():
    # Within one kind crossing is interleaving, so the DFS and the deletion
    # recursion read the per-n interleaving masks on D and on E.
    for seed in range(5):
        poly = random_simple_polygon(9, seed)
        uni = universe_of(poly)
        for fam in (diagonals(poly), epigonals(poly)):
            assert _adjacency(fam)[0] is uni.order.interleave
            assert euler_recursive(fam) == euler_brute(fam) == f_vector(fam).euler
        assert "crossing_masks" not in vars(uni)


def test_mixed_families_keep_the_kinds_apart(dart):
    # A diagonal and an epigonal may interleave without crossing, as the
    # dart's 0-2 (inside) and 1-3 (outside) do, so a family of both kinds
    # cannot take its crossings from the interleaving masks.  It is
    # straddle-tested, and over its members the masks are the universe's
    # crossing masks, each kind's interleaving kept within the kind.
    uni = universe_of(dart)
    both = diagonals(dart) | epigonals(dart)
    assert both.chords() == [Chord(0, 2), Chord(1, 3)]
    assert uni.order.interleave[uni.index[Chord(0, 2)]] >> uni.index[Chord(1, 3)] & 1
    assert brute_nc_counts(segments(dart, both)) == [1, 2, 1]
    assert f_vector(both).counts == (1, 2, 1)
    assert euler_recursive(both) == euler_brute(both) == 0
    for poly in [dart] + [random_simple_polygon(6 + seed % 4, seed + 3100) for seed in range(12)]:
        uni = universe_of(poly)
        both = diagonals(poly) | epigonals(poly)
        if not poly.is_convex:  # so both kinds are present
            members = [uni.index[c] for c in both]
            want = [sum(1 << y for y, m in enumerate(members) if uni.crossing_masks[k] >> m & 1)
                    for k in members]
            assert _adjacency(both) == (want, (1 << len(members)) - 1), poly
        assert euler_recursive(both) == euler_brute(both) == f_vector(both).euler, poly


def test_find_heart(square, dart):
    assert find_heart(square, "d") is None
    assert find_heart(convex_ngon(5), "d") is None
    hd = find_heart(dart, "d")
    assert hd.chords() == [Chord(0, 2)]
    he = find_heart(dart, "e")
    assert he.chords() == [Chord(1, 3)]
    with pytest.raises(ValueError):
        find_heart(dart, "x")


def test_heart_implies_zero():
    for seed in range(40):
        poly = random_simple_polygon(5 + seed % 4, seed + 1000)
        for side in "de":
            h = find_heart(poly, side)
            fam = diagonals(poly) if side == "d" else epigonals(poly)
            if h is None:
                assert poly.is_convex
            else:
                assert is_heart(fam, h)
                assert euler_recursive(fam) == 0


def test_hull_edge_implies_zero_random():
    rng = random.Random(7)
    for trial in range(60):
        npts = rng.randrange(4, 8)
        while True:
            points = [
                Point(rng.randrange(0, 500), rng.randrange(0, 500)) for _ in range(npts)
            ]
            if len({(p.x, p.y) for p in points}) == npts and no_three_collinear(points):
                break
        hull = convex_hull_points(points)
        forced = Segment(hull[0], hull[1])
        pairs = [(a, b) for a in range(npts) for b in range(a + 1, npts)]
        rng.shuffle(pairs)
        segs = [Segment(points[a], points[b]) for a, b in pairs[:6]]
        if forced not in segs:
            segs.append(forced)
        adj, live = coordinate_crossing_masks(segs), (1 << len(segs)) - 1
        assert EulerEngine(adj).chi(live) == 0 == brute_euler(segs)
