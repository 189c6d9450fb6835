"""Removing a prescribed chord set: the convex-partition lattice at work.

chi(M_d minus J) depends only on which subsets of J cut the polygon into
convex pieces.  This demo evaluates one removed set through four routes
that must all agree: the direct definition, the signed sum over the
convex-partition lattice, its complement form and the subdivision sum.  It
then lists the lattice's members and its minimal convex cuts, the sets that
inclusion-exclusion sums over, and the faces J cuts the polygon into.
"""

from chord_euler import (
    chi_removed_direct,
    chi_removed_lemma1,
    chi_removed_lemma_d2,
    chi_removed_theorem2,
    convex_lattice,
    diagonals,
    random_simple_polygon,
    subdivide,
    universe_of,
)

poly = random_simple_polygon(7, seed=11)
print("random heptagon, reflex vertices:", sorted(poly.reflex_vertices))

uni = universe_of(poly)
j = uni.set_of(diagonals(poly).chords()[:2])
print("removed set J =", j)

print("direct          :", chi_removed_direct(poly, j, "d"))
print("lattice sum     :", chi_removed_theorem2(poly, j))
print("complement form :", chi_removed_lemma_d2(poly, j) if len(j) else "(needs J nonempty)")
print("subdivision sum :", chi_removed_lemma1(poly, j))

lat = convex_lattice(poly, j)
print("NC_c[J] members :", [f"{m:b}" for m in lat.members_c])
print("minimal convex cuts:", [f"{m:b}" for m in lat.minimal_c])

print()
print("faces cut by J:")
for part in subdivide(poly, j).parts:
    print("  ", part)
