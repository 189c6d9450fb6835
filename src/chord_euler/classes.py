"""Detectors for the six forbidden-position polygon classes and the theorem verifiers.

Each detector is a pure exact-predicate test (reflex patterns, angle signs,
pocket shapes) and never computes an Euler characteristic, so the
biconditional checks in :func:`verify_theorem3` compare two genuinely
independent computations.

Index conventions: the special vertex is ``i``; all index arithmetic is mod n;
"angle XAY exceeds pi" is the CCW angle at A from ray A->X to ray A->Y.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .chords import ChordKind, Pocket, ear_chord, forbidden_star, pockets, universe_of
from .geometry import Polygon, PolygonError, angle_exceeds_pi
from .nc_euler import f_vector
from .partition import chi_removed_direct, pocket_polygon, subdivide

CLASS_NAMES = ("Class1", "Class2", "Class3", "Class4", "Class5", "Class6")


def _require_size(poly: Polygon, smallest: int) -> None:
    if poly.n < smallest:
        raise ValueError(f"needs n >= {smallest}, got {poly.n}")


def is_class1(poly: Polygon, i: int) -> bool:
    """One reflex vertex at i, with the two-step angle profile around it."""
    _require_size(poly, 5)
    n = poly.n
    if poly.reflex_vertices != frozenset({i % n}):
        return False
    vs = poly.vertices
    a = vs[i % n]
    nxt1, nxt2 = vs[(i + 1) % n], vs[(i + 2) % n]
    prv1, prv2 = vs[(i - 1) % n], vs[(i - 2) % n]
    if angle_exceeds_pi(a, nxt2, prv2):
        return False
    return angle_exceeds_pi(a, nxt2, prv1) == angle_exceeds_pi(a, nxt1, prv2)


def is_class2(poly: Polygon, i: int, allow_degenerate_quad: bool = False) -> bool:
    """Reflex everywhere except the three consecutive vertices i-1, i, i+1.

    n = 4 degenerates to a dart with its reflex vertex opposite i; accepted
    only with the explicit flag (used by the pocket analysis of Class 3).
    """
    _require_size(poly, 4 if allow_degenerate_quad else 5)
    n = poly.n
    i %= n
    expected = frozenset(range(n)) - {(i - 1) % n, i, (i + 1) % n}
    return poly.reflex_vertices == expected


def _pocket_is_class2_shaped(poly: Polygon, pocket: Pocket, apex_parent: int) -> bool:
    sub = pocket_polygon(poly, pocket)
    if sub.n == 3:
        return True
    # pocket_polygon reverses the path, so the apex sits at one end.
    rev = tuple(reversed(pocket.path))
    apex = rev.index(apex_parent)
    return is_class2(sub, apex, allow_degenerate_quad=True)


def is_class3(poly: Polygon, i: int) -> bool:
    """Convex-at-i polygon whose hull pockets all hang off vertex i.

    Every hull edge that is not a polygon edge must be a chord at i, and each
    pocket must be a triangle or a Class-2 region with apex i.
    """
    _require_size(poly, 5)
    n = poly.n
    i %= n
    if poly.is_convex or i in poly.reflex_vertices:
        return False
    pks = pockets(poly)
    if not pks:
        return False
    for p in pks:
        if i not in (p.hull_chord.i, p.hull_chord.j):
            return False
        if not _pocket_is_class2_shaped(poly, p, i):
            return False
    return True


def is_class4(poly: Polygon, i: int) -> bool:
    """Triangle at i glued to a convex remainder along the ear chord."""
    _require_size(poly, 5)
    n = poly.n
    i %= n
    if poly.is_convex:
        return False
    uni = universe_of(poly)
    ear = ear_chord(poly, i)
    (chord,) = ear.chords()
    if uni.kinds[uni.index[chord]] is not ChordKind.DIAGONAL:
        return False
    parts = subdivide(poly, ear).parts
    far = next(p for p in parts if i not in p)
    sub = Polygon._trusted([poly.vertices[t] for t in far])
    return sub.is_convex


def is_class5(poly: Polygon, i: int) -> bool:
    """Deleting vertex i leaves a convex polygon (triangle cut from convex)."""
    _require_size(poly, 5)
    n = poly.n
    i %= n
    if poly.reflex_vertices != frozenset({i}):
        return False
    rest = [poly.vertices[t] for t in range(n) if t != i]
    try:
        reduced = Polygon(rest)
    except PolygonError:
        return False
    return reduced.is_convex


def _class6_split(poly: Polygon, i: int) -> dict[str, Any] | None:
    n = poly.n
    i %= n
    rel = lambda t: (i + t) % n  # noqa: E731 - local index relabeling
    reflex_rel = {(v - i) % n for v in poly.reflex_vertices}
    if 0 not in reflex_rel:
        return None
    rest = reflex_rel - {0}
    if not rest or not rest <= set(range(2, n - 1)):
        return None
    uni = universe_of(poly)
    if uni.incidence[i] & ~uni.kind_mask(ChordKind.DIAGONAL):
        return None
    p = 1
    while p + 1 in rest:
        p += 1
    q = n - 1
    while q - 1 in rest:
        q -= 1
    if rest != set(range(2, p + 1)) | set(range(q, n - 1)) or p >= q - 1:
        return None
    vs = poly.vertices
    v0, vp, vq = vs[i], vs[rel(p)], vs[rel(q)]
    if not angle_exceeds_pi(v0, vp, vq):
        return None
    # The middle fan [i, p..q] must be reflex only at the apex.
    if angle_exceeds_pi(vp, vs[rel(p + 1)], v0):
        return None
    if angle_exceeds_pi(vq, v0, vs[rel(q - 1)]):
        return None
    if q - p >= 3:
        # Proper middle polygon: the one-reflex-vertex profile at the apex.
        nxt2, prv2 = vs[rel(p + 1)], vs[rel(q - 1)]
        if angle_exceeds_pi(v0, nxt2, prv2):
            return None
        if angle_exceeds_pi(v0, nxt2, vq) != angle_exceeds_pi(v0, vp, prv2):
            return None
    middle = tuple(rel(t) for t in range(p, q + 1))
    outer_lo = tuple(rel(t) for t in range(0, p + 1)) if p > 1 else ()
    outer_hi = tuple(rel(t) for t in range(q, n)) + (i,) if q < n - 1 else ()
    return {
        "split": (p, q),
        "middle": (i,) + middle,
        "outer_low": outer_lo,
        "outer_high": outer_hi,
    }


def is_class6(poly: Polygon, i: int) -> bool:
    """A reflex-apex gluing of a one-reflex-vertex region between reflex fans.

    All chords at i are diagonals; the other reflex vertices form runs
    anchored at i+2 and i-2; the leftover middle fan exceeds pi at i and
    carries the Class-1 angle profile (or is a reflex quad).
    """
    _require_size(poly, 5)
    return _class6_split(poly, i) is not None


@dataclass(frozen=True)
class ClassReport:
    vertex: int
    memberships: frozenset[str]
    witnesses: dict[str, Any] = field(default_factory=dict)


def class_report(poly: Polygon, i: int) -> ClassReport:
    memberships = set()
    witnesses: dict[str, Any] = {"reflex": sorted(poly.reflex_vertices)}
    if poly.is_convex:
        memberships.add("Convex")
    detectors = {
        "Class1": is_class1,
        "Class2": is_class2,
        "Class3": is_class3,
        "Class4": is_class4,
        "Class5": is_class5,
        "Class6": is_class6,
    }
    for name, det in detectors.items():
        if det(poly, i):
            memberships.add(name)
    if "Class3" in memberships:
        witnesses["pockets"] = [
            {"hull_chord": str(p.hull_chord), "path": list(p.path)} for p in pockets(poly)
        ]
    split = _class6_split(poly, i) if poly.n >= 5 else None
    if split is not None:
        witnesses["class6"] = split
    return ClassReport(i, frozenset(memberships), witnesses)


@dataclass(frozen=True)
class Theorem1Report:
    n: int
    convex: bool
    d_counts: tuple[int, ...]
    e_counts: tuple[int, ...]
    d_sum: int
    e_sum: int
    d_expected: int
    e_expected: int | None
    ok: bool


def verify_theorem1(poly: Polygon) -> Theorem1Report:
    """Check the alternating diagonal/epigonal sums against the convexity criterion."""
    from .chords import diagonals, epigonals

    fd = f_vector(diagonals(poly))
    fe = f_vector(epigonals(poly))
    d_sum = fd.alternating_tail()
    e_sum = fe.alternating_tail()
    if poly.is_convex:
        d_expected, e_expected = 1 + (-1) ** poly.n, None
        ok = d_sum == d_expected and len(epigonals(poly)) == 0
    else:
        d_expected, e_expected = 1, 1
        ok = d_sum == 1 and e_sum == 1
    return Theorem1Report(
        poly.n, poly.is_convex, fd.counts, fe.counts, d_sum, e_sum, d_expected, e_expected, ok
    )


@dataclass(frozen=True)
class Theorem3Report:
    vertex: int
    chi_d_star: int
    chi_e_star: int
    chi_d_ear: int
    chi_e_ear: int
    detector_a: bool
    detector_b: bool
    detector_c: bool
    detector_d: bool
    clauses: tuple[bool, bool, bool, bool]
    ok: bool

    def failing_clauses(self) -> list[str]:
        return [name for name, good in zip("ABCD", self.clauses) if not good]


def verify_theorem3(poly: Polygon, i: int) -> Theorem3Report:
    """Test all four forbidden-position biconditionals at vertex i."""
    _require_size(poly, 5)
    i %= poly.n
    star = forbidden_star(poly, i)
    ear = ear_chord(poly, i)
    chi_d_star = chi_removed_direct(poly, star, "d")
    chi_e_star = chi_removed_direct(poly, star, "e")
    chi_d_ear = chi_removed_direct(poly, ear, "d")
    chi_e_ear = chi_removed_direct(poly, ear, "e")
    convex = poly.is_convex
    det_a = is_class1(poly, i) or is_class2(poly, i) or is_class6(poly, i)
    det_b = convex or is_class3(poly, i)
    det_c = is_class4(poly, i)
    det_d = convex or is_class2(poly, i) or is_class5(poly, i)
    clauses = (
        (chi_d_star != 0) == det_a,
        (chi_e_star != 0) == det_b,
        (chi_d_ear != 0) == det_c,
        (chi_e_ear != 0) == det_d,
    )
    return Theorem3Report(
        i, chi_d_star, chi_e_star, chi_d_ear, chi_e_ear,
        det_a, det_b, det_c, det_d, clauses, all(clauses),
    )
