"""Realizing any integer as chi(M_d minus J): the zigzag family.

The construction is laid out on a lattice in Q(sqrt 3): unit steps,
30-degree steps, and +-60-degree rotations generate a zigzag polygon whose
labeled diagonal triangles force a rigid convex-partition structure.  The
polygon itself has rational coordinates with the lattice's order type.  An alternating-sum
recurrence then pins chi(M_d minus J) to any requested integer.
"""

from chord_euler import verify_zigzag_structure, zigzag_chi_target
from chord_euler.cli import render_svg
from chord_euler.partition import chi_removed_direct

for target in (2, -2, 3, 4, -5):
    z = zigzag_chi_target(target)
    direct = chi_removed_direct(z.polygon, z.j_set, "d")
    rep = verify_zigzag_structure(z)
    print(
        f"target {target:+d}: polygon with {z.polygon.n} vertices, |J| = {len(z.j_set)},"
        f" chi = {direct} (structure certificate: {rep.ok})"
    )

print()
z = zigzag_chi_target(4)
print("labels for target 4:", {k: str(v) for k, v in sorted(z.labels.items())})

svg = render_svg(z.polygon, list(z.j_set))
with open("zigzag4.svg", "w", encoding="utf-8") as fh:
    fh.write(svg)
print("wrote zigzag4.svg (solid boundary, dashed diagonals)")
