"""Deterministic polygon constructors.

* convex polygons from rational points on the unit circle,
* exemplars of the six forbidden-position classes (post-verified by the
  exact detectors),
* the zigzag family realizing any prescribed integer value of
  chi(M_d minus J), built exactly in Q(sqrt 3) from unit steps, 30-degree
  steps and +-60-degree rotations,
* seeded random simple polygons via 2-opt untangling.

Every constructor returns validator-certified polygons; parameter choices may
be guided by floats, but all emitted coordinates and all verification
predicates are exact.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .chords import Chord, ChordSet, universe_of
from .exact_scalar import QSqrt3
from .geometry import Point, Polygon, PolygonError, validate_polygon
from .geometry import CollinearTriple, DuplicateVertex, first_crossing_edges, orientation_table
from .geometry import _path_polygon
from .partition import PartitionError, convexity_constraints
from . import classes as _classes


class GeneratorError(RuntimeError):
    pass


def _circle_point(t: Fraction, radius: Fraction = Fraction(1)) -> Point:
    # Rational parameterization ((1-t^2)/(1+t^2), 2t/(1+t^2)) of the circle.
    den = 1 + t * t
    return Point(QSqrt3(radius * (1 - t * t) / den), QSqrt3(radius * 2 * t / den))


def _t_for_angle(degrees: float) -> Fraction:
    # Rational parameter whose circle point sits near the requested angle.
    # Angles only guide the construction; all downstream checks are exact.
    half = math.radians(degrees) / 2.0
    return Fraction(math.tan(half)).limit_denominator(512)


def convex_ngon(n: int) -> Polygon:
    """A convex n-gon on the unit circle (rational coordinates, CCW)."""
    if n < 3:
        raise GeneratorError("n >= 3 required")
    ts = [Fraction(2 * k - (n - 1), 2) for k in range(n)]
    return validate_polygon([_circle_point(t) for t in ts])


# ---------------------------------------------------------------------------
# Random simple polygons


def random_simple_polygon(n: int, seed: int) -> Polygon:
    """Seeded random simple polygon in general position (2-opt untangling)."""
    if n < 3:
        raise GeneratorError("n >= 3 required")
    rng = random.Random(seed)
    for _ in range(64):
        pts = [
            Point(QSqrt3(rng.randrange(0, 10**6)), QSqrt3(rng.randrange(0, 10**6)))
            for _ in range(n)
        ]
        try:
            # One orientation table (CollinearTriple on a collinear triple or
            # a repeated point) serves the untangling and the validation, and
            # the polygon keeps it, relabeled by the untangled order.  The
            # untangling's last crossing scan is the validation's.
            left = orientation_table(pts)
            order = _untangle(left, n)
            if order is not None:
                return _path_polygon(pts, left, order)
        except PolygonError:
            continue
    raise GeneratorError(f"could not build a random simple polygon (n={n}, seed={seed})")


def _untangle(left: tuple[int, ...], n: int) -> list[int] | None:
    # 2-opt: reverse the path between two crossing edges until none cross.
    order = list(range(n))
    for _ in range(40 * n**2):
        crossing = first_crossing_edges(left, order)
        if crossing is None:
            return order
        i, j = crossing
        order[i + 1:j + 1] = reversed(order[i + 1:j + 1])
    return None


# ---------------------------------------------------------------------------
# General-position perturbation


PERTURB_BUDGET = Fraction(1, 128)  # eps of the first attempt, kept below 1/100


def perturb_to_general_position(points: list[Point], structural_check=None) -> Polygon:
    """Nudge vertices out of collinear triples, deterministically.

    Offsets vertex k of each collinear triple by (eps/(k+1), eps/(k+2)^2),
    starting from eps = ``PERTURB_BUDGET`` and halving eps (and then flipping
    its sign) until the polygon validates and the caller's structural check
    accepts.  Inputs already in general position are returned unchanged,
    validated on the one orientation table that finds no collinear triple.
    The collinear triples are that table's zero signs.  A repeated point is
    collinear with every third point, so then every vertex is nudged.
    """
    try:
        poly = validate_polygon(points)
    except CollinearTriple as exc:
        bad = {v for triple in exc.triples for v in triple}
    except DuplicateVertex:
        bad = set(range(len(points)))
    else:
        if structural_check is not None and not structural_check(poly):
            raise GeneratorError("input fails the structural check and needs no perturbation")
        return poly
    for sign in (1, -1):
        eps = PERTURB_BUDGET * sign
        for _ in range(10):
            moved = list(points)
            for k in sorted(bad):
                dx = QSqrt3(Fraction(eps, k + 1))
                dy = QSqrt3(Fraction(eps, (k + 2) ** 2))
                moved[k] = Point(points[k].x + dx, points[k].y + dy)
            try:
                poly = validate_polygon(moved)
            except PolygonError:
                eps /= 2
                continue
            if structural_check is None or structural_check(poly):
                return poly
            eps /= 2
    raise GeneratorError("perturbation failed to reach a verified general-position polygon")


# ---------------------------------------------------------------------------
# The zigzag family (prescribed chi)

_E30 = (QSqrt3(0, Fraction(1, 2)), QSqrt3(Fraction(1, 2)))  # e^{i pi/6}
_ONE = (QSqrt3(1), QSqrt3(0))


def _rot60(v: tuple[QSqrt3, QSqrt3], parity: int) -> tuple[QSqrt3, QSqrt3]:
    # Multiply by (1 + (-1)^parity sqrt(3) i)/2: rotation by +-60 degrees.
    x, y = v
    h = QSqrt3(Fraction(1, 2))
    s = QSqrt3(0, Fraction(1, 2))
    if parity % 2 == 0:
        return (x * h - y * s, x * s + y * h)
    return (x * h + y * s, -(x * s) + y * h)


def _zigzag_raw(L: int) -> tuple[list[Point], dict[str, tuple[int, int]]]:
    """Vertices A_1..A_{3L} (1-based) and the e-labels, before perturbation."""
    top = 2 * L + 4
    B: dict[int, tuple[QSqrt3, QSqrt3]] = {1: (QSqrt3(0), QSqrt3(0))}
    for m in range(2, top + 1):
        step = _ONE if m % 2 == 0 else _E30
        bx, by = B[m - 1]
        B[m] = (bx + step[0], by + step[1])
    C: dict[int, tuple[QSqrt3, QSqrt3]] = {}
    D: dict[int, tuple[QSqrt3, QSqrt3]] = {}
    for k in range(1, top - 1):
        bx, by = B[k]
        d1 = (B[k + 1][0] - bx, B[k + 1][1] - by)
        d2 = (B[k + 2][0] - bx, B[k + 2][1] - by)
        r1 = _rot60(d1, k)
        r2 = _rot60(d2, k)
        C[k] = (bx + r1[0], by + r1[1])
        D[k] = (bx + r2[0], by + r2[1])

    def a0(m: int) -> tuple[QSqrt3, QSqrt3]:
        r = m % 3
        if r == 2:
            return B[2 * (m + 1) // 3]
        if r == 0:
            return C[2 * m // 3 + 1]
        return D[2 * (m - 1) // 3 + 1]

    def a1(k: int) -> tuple[QSqrt3, QSqrt3]:
        r = k % 3
        if r == 0:
            return C[2 * (k + 3) // 3]
        if r == 1:
            return D[2 * (k + 2) // 3]
        return B[2 * (k + 1) // 3 + 1]

    verts: dict[int, tuple[QSqrt3, QSqrt3]] = {1: B[1]}
    for m in range(2, (3 * L + 1) // 2 + 1):
        verts[m] = a0(m)
    for k in range(0, (3 * L - 2) // 2 + 1):
        verts[3 * L - k] = a1(k)
    if sorted(verts) != list(range(1, 3 * L + 1)):
        raise AssertionError("vertex selection did not cover 1..3L")
    points = [Point(*verts[m]) for m in range(1, 3 * L + 1)]

    labels: dict[str, tuple[int, int]] = {}
    for k in range(L // 2):
        labels[f"e{6 * k + 1}"] = (3 * k + 2, 3 * L - 3 * k)
        labels[f"e{6 * k + 2}"] = (3 * L - 3 * k - 2, 3 * L - 3 * k)
        labels[f"e{6 * k + 3}"] = (3 * k + 2, 3 * L - 3 * k - 2)
    for k in range(1, (L + 1) // 2):
        labels[f"e{6 * k - 2}"] = (3 * k, 3 * L - 3 * k + 1)
        labels[f"e{6 * k - 1}"] = (3 * k, 3 * k + 2)
        labels[f"e{6 * k}"] = (3 * k + 2, 3 * L - 3 * k + 1)
    if len(labels) != 3 * (L - 1):
        raise AssertionError("label table size mismatch")
    return points, labels


def _constraints_match(poly: Polygon, j_set: ChordSet, labels: dict[str, Chord], L: int) -> bool:
    """Whether J is feasible with exactly the expected convex-partition constraints.

    They are the adjacent label pairs (e_k, e_{k+1}) and the pairs
    (e_{3k-2}, e_{3k}).
    """
    pairs = [(k, k + 1) for k in range(1, 3 * L - 3)]
    pairs += [(3 * k - 2, 3 * k) for k in range(1, L)]
    uni = j_set.universe
    expected = {1 << uni.index[labels[f"e{p}"]] | 1 << uni.index[labels[f"e{q}"]] for p, q in pairs}
    got, feasible = convexity_constraints(poly, j_set)
    return feasible and set(got) == expected


def zigzag_a_sequence(L: int) -> list[int]:
    """The alternating-sum sequence of the construction, base values 1, 0."""
    a = [1, 0]
    for k in range(2, 3 * (L - 1) + 1):
        a.append(a[k - 1] - a[k - 2] if k % 3 else a[k - 1] - a[k - 3])
    return a


@dataclass(frozen=True)
class ZigzagInstance:
    polygon: Polygon
    j_set: ChordSet
    target: int
    labels: dict[str, Chord]


def _midpoint(p: Point, q: Point) -> Point:
    h = QSqrt3(Fraction(1, 2))
    return Point((p.x + q.x) * h, (p.y + q.y) * h)


def zigzag_chi_target(l: int) -> ZigzagInstance:
    """A polygon and non-crossing diagonal set with chi(M_d minus J) = l.

    |l| >= 2.  The 3|l|-gon realizes (-1)^(|l|-1) |l| and the corner-shaved
    (3|l|+1)-gon realizes the opposite sign, so the two variants are assigned
    to targets by the parity of |l|.
    """
    L = abs(l)
    if L < 2:
        raise GeneratorError("|l| >= 2 required (smaller values need no construction)")
    points, labels1 = _zigzag_raw(L)
    use_base = (l > 0) == (L % 2 == 1)
    if not use_base:
        shaved = [_midpoint(points[0], points[1])] + points[1:] + [
            _midpoint(points[0], points[-1])
        ]
        points = shaved
    # A_m keeps 0-based index m-1 in both variants; labels never touch A_1.
    labels0 = {name: Chord.of(a - 1, b - 1) for name, (a, b) in labels1.items()}

    def structural(poly: Polygon) -> bool:
        # A label that is an edge, not a diagonal, or crosses another label
        # makes ``set_of`` or the constraint check raise.
        try:
            return _constraints_match(poly, universe_of(poly).set_of(labels0.values()), labels0, L)
        except (KeyError, PartitionError):
            return False

    poly = perturb_to_general_position(points, structural_check=structural)
    uni = universe_of(poly)
    j_set = uni.set_of(labels0.values())
    return ZigzagInstance(poly, j_set, l, labels0)


@dataclass(frozen=True)
class ZigzagStructureReport:
    target: int
    constraints_match: bool
    closed_forms_match: bool
    chi_from_sequence: int
    ok: bool


def verify_zigzag_structure(z: ZigzagInstance) -> ZigzagStructureReport:
    """Certify the instance by its combinatorial structure (polynomial size).

    Checks that (i) the geometric convex-partition constraints equal the
    expected adjacent/extreme label pairs, (ii) the recurrence sequence
    matches its closed forms, (iii) the signed alternating sum yields the
    target.  The sequence uses base values (1, 0); the geometric sum carries
    an extra factor (-1)^|J|, which is folded into (iii).
    """
    L = abs(z.target)
    constraints_match = _constraints_match(z.polygon, z.j_set, z.labels, L)
    a = zigzag_a_sequence(L)
    closed = True
    for k in range(0, L + 1):
        if 3 * k < len(a) and a[3 * k] != (-1) ** k * (k + 1):
            closed = False
    for k in range(0, L):
        if 3 * k + 1 < len(a) and a[3 * k + 1] != (-1) ** k * k:
            closed = False
        if 3 * k + 2 < len(a) and a[3 * k + 2] != (-1) ** (k + 1):
            closed = False
    n = z.polygon.n
    size_j = len(z.j_set)
    chi = (-1) ** (n + 1) * (-1) ** size_j * a[3 * (L - 1)]
    ok = constraints_match and closed and chi == z.target
    return ZigzagStructureReport(z.target, constraints_match, closed, chi, ok)


# ---------------------------------------------------------------------------
# Class exemplars


def _fan_polygon(ray_specs: list[tuple[float, Fraction]]) -> list[Point]:
    """Apex at the origin plus one vertex per (angle-degrees, radius) ray."""
    pts = [Point(QSqrt3(0), QSqrt3(0))]
    for deg, radius in ray_specs:
        pts.append(_circle_point(_t_for_angle(deg), radius))
    return pts


def _spread(lo: float, hi: float, count: int) -> list[float]:
    if count == 1:
        return [(lo + hi) / 2.0]
    step = (hi - lo) / (count - 1)
    return [lo + k * step for k in range(count)]


def _class1_exemplar(n: int, region: str = "I") -> Polygon:
    # Reflex apex fan on concyclic rays; spans tuned to region I or III.
    s = n - 1
    if s < 4:
        raise GeneratorError("class 1 needs n >= 5")
    r = Fraction(8)
    if region == "I":
        angles = [170.0] + _spread(215.0, 345.0, s - 2) + [389.0]
    elif region == "III":
        angles = [170.0] + _spread(195.0, 364.0, s - 2) + [389.0]
    else:
        raise GeneratorError("region must be 'I' or 'III'")
    return validate_polygon(_fan_polygon([(a, r) for a in angles]))


def _class5_exemplar(n: int) -> Polygon:
    # Same fan, but mixed-angle spans on opposite sides of pi (region II),
    # so the exemplar is Class 5 without being Class 1.
    s = n - 1
    if s < 4:
        raise GeneratorError("class 5 needs n >= 5")
    r = Fraction(8)
    angles = [170.0] + _spread(185.0, 340.0, s - 2) + [389.0]
    return validate_polygon(_fan_polygon([(a, r) for a in angles]))


def _class2_exemplar(n: int) -> Polygon:
    # Triangle apex minus a convex bite: chain points on a concave parabola.
    m = n - 3
    if m < 2:
        raise GeneratorError("class 2 needs n >= 5")
    apex = Point(QSqrt3(0), QSqrt3(8))
    left = Point(QSqrt3(-4), QSqrt3(0))
    right = Point(QSqrt3(4), QSqrt3(0))
    chain = []
    for k in range(1, m + 1):
        x = Fraction(-4) + Fraction(8 * k, m + 1)
        y = 2 - x * x / 8
        chain.append(Point(QSqrt3(x), QSqrt3(y)))
    return validate_polygon([apex, left] + chain + [right])


def _bitten_path(
    start: Point, end: Point, count: int, toward: Point, eta: Fraction
) -> list[Point]:
    """Interior points of a segment, bowed toward ``toward`` (a convex bite)."""
    out = []
    dx, dy = end.x - start.x, end.y - start.y
    # Normal pointing toward ``toward``.
    nx, ny = dy, -dx
    side = ((toward.x - start.x) * nx + (toward.y - start.y) * ny).sign()
    if side < 0:
        nx, ny = -nx, -ny
    for k in range(1, count + 1):
        u = Fraction(k, count + 1)
        bump = eta * u * (1 - u)
        px = start.x + dx * QSqrt3(u) + nx * QSqrt3(bump)
        py = start.y + dy * QSqrt3(u) + ny * QSqrt3(bump)
        out.append(Point(px, py))
    return out


def _class4_exemplar(n: int) -> Polygon:
    # Tall triangle glued onto a short top chord of a circular convex body.
    m = n - 3
    if m < 2:
        raise GeneratorError("class 4 needs n >= 5")
    r = Fraction(8)
    apex = Point(QSqrt3(0), QSqrt3(24))
    g_l = _circle_point(_t_for_angle(100.0), r)
    g_r = _circle_point(_t_for_angle(80.0), r)
    body = [_circle_point(_t_for_angle(a), r) for a in _spread(112.0, 428.0, m)]
    return validate_polygon([apex, g_l] + body + [g_r])


def _class3_exemplar(n: int, pockets: int = 1) -> Polygon:
    # Convex hull with one or two dents hanging off one hull vertex.
    if pockets not in (1, 2):
        raise GeneratorError("pockets must be 1 or 2")
    spare = n - 5 if pockets == 1 else n - 7
    if spare < 0:
        raise GeneratorError(f"class 3 with {pockets} pocket(s) needs n >= {5 + 2 * (pockets - 1)}")
    # Hull size r, pocket interior sizes chosen from the remaining budget.
    k1 = 1 + min(spare, 2)
    spare -= k1 - 1
    k2 = 1 + (spare if pockets == 2 else 0)
    if pockets == 1:
        r_hull = n - k1
    else:
        r_hull = n - k1 - k2
    if r_hull < 4:
        raise GeneratorError("not enough vertices for the hull")
    radius = Fraction(8)
    hull_angles = _spread(90.0, 450.0 - 360.0 / r_hull, r_hull)
    hull = [_circle_point(_t_for_angle(a), radius) for a in hull_angles]

    def pocket_chain(a: Point, b: Point, k: int) -> list[Point]:
        # Chain from a to b dipping inside the hull; bite bowed toward the
        # apex ``a`` so the pocket is a triangle minus a convex region at a.
        h = QSqrt3(Fraction(1, 2))
        mid = Point((a.x + b.x) * h, (a.y + b.y) * h)
        deep = Point(mid.x * QSqrt3(Fraction(5, 8)), mid.y * QSqrt3(Fraction(5, 8)))
        if k == 1:
            return [deep]
        return [deep] + _bitten_path(deep, b, k - 1, a, Fraction(1, 2))

    out = [hull[0]] + pocket_chain(hull[0], hull[1], k1) + hull[1:]
    if pockets == 2:
        # Second pocket on the edge (h_last, h_0), traversed toward h_0.
        out = out + list(reversed(pocket_chain(hull[0], hull[-1], k2)))
    return validate_polygon(out)


def _class6_exemplar(n: int) -> Polygon:
    # Reflex-fan outer chain glued to a one-reflex-vertex middle at the apex.
    # Chain vertices are reflex iff they dip inside their neighbours' chord;
    # a concave inverse-radius profile guarantees that along the whole run.
    t = 3 if n >= 9 else 2
    s = n - 1 - t
    if s < 3:
        raise GeneratorError("class 6 needs n >= 6")
    rays: list[tuple[float, Fraction]] = [(140.0, Fraction(12))]
    s_lo, s_hi = Fraction(1, 12), Fraction(1, 4)
    for j, ang in enumerate(_spread(148.0, 162.0, t - 1), start=1):
        u = Fraction(j, t)
        inv = s_lo + (s_hi - s_lo) * u + Fraction(1, 4) * u * (1 - u)
        rays.append((ang, 1 / inv))
    rays.append((169.0, Fraction(4)))
    mid_angles = (
        [215.0, 389.0] if s == 3 else [215.0] + _spread(255.0, 345.0, s - 3) + [389.0]
    )
    rays += [(a, Fraction(10)) for a in mid_angles]
    return validate_polygon(_fan_polygon(rays))


def class_exemplar(kind: int, i: int, n: int, **options) -> Polygon:
    """A verified Class-``kind`` polygon with the special vertex at index ``i``.

    Raises :class:`GeneratorError` when the construction cannot be certified
    by the corresponding detector.
    """
    builders = {
        1: _class1_exemplar,
        2: _class2_exemplar,
        3: _class3_exemplar,
        4: _class4_exemplar,
        5: _class5_exemplar,
        6: _class6_exemplar,
    }
    if kind not in builders:
        raise GeneratorError(f"unknown class {kind}")
    try:
        poly = builders[kind](n, **options)
    except PolygonError as exc:
        raise GeneratorError(f"class {kind} construction failed validation: {exc}") from exc
    detector = getattr(_classes, f"is_class{kind}")
    if not detector(poly, 0):
        raise GeneratorError(f"class {kind} construction failed its detector (n={n})")
    if i % poly.n:
        poly = poly.rotated(-i % poly.n)
        if not detector(poly, i % poly.n):
            raise GeneratorError("rotation broke the exemplar")
    return poly
