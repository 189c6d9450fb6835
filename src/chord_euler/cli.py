"""Command-line front end: analyze, verify, generate, render, catalan.

Each command, and each ``verify`` target and ``generate`` kind, declares
exactly the flags it reads; any other flag is a usage error (exit 2).
Ranges are ``lo..hi`` or one integer.

    analyze FILE [--fvector] [--chi] [--classes --vertex V] [--cut i-j,...] [--json]
    verify theorem1 [--n 3..8] [--random 100] [--seed 0]
    verify theorem2 [--n 4..8] [--random 100] [--seed 0]
    verify theorem3 [--n 5..8] [--random 100] [--seed 0]
    verify lemmae   [--n 4..8] [--random 100] [--seed 0]
    verify catalan  [--n 3..8] [--a 1..3]
    verify zigzag   [--l -5..5]
    generate convex [--n 6] [--out PATH]
    generate random [--n 6] [--seed 0] [--out PATH]
    generate zigzag [--l 2] [--out PATH] [--sidecar PATH]
    generate class1..class6 [--n 6] [--i 0] [--out PATH]
        class1 also [--region I|III], class3 also [--pockets 1|2]
    render FILE [--chords SIDECAR] [--out PATH]
    catalan --n N --k K --a A

A polygon FILE is JSON, ``{"vertices": [{"x": "p/q", "y": "p/q"}, ...]}``:
every coordinate an exact rational, written ``p/q`` (read also as ``p``,
optionally signed).  ``generate`` writes that form.

The four random campaigns check ``--random`` seeded polygons, seeds from
``--seed`` on, their sizes cycling through ``--n``; theorem1 also checks the
convex n-gon for each n of ``--n``, so it alone takes ``--random 0``.

Exit codes: 0 all good, 1 a verification property failed, 2 bad input,
3 a documented size cap was exceeded, 4 a generator could not certify its
output.  ``generate`` builds, and ``analyze`` and ``render`` load, at most
``CAPS["polygon_n"]`` vertices.  All output is deterministic: identical
invocations produce byte-identical bytes.  Floating point appears only in
SVG rendering.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from .catalan import (
    alternating_sum_check,
    brute_a_diagonal_fvector,
    d_closed,
    d_recurrence_check,
    identity14_check,
)
from .chords import Chord, ChordKind, ChordSet, classify_chord, diagonals, epigonals, universe_of
from .classes import class_report, verify_theorem1, verify_theorem3
from .geometry import Point, Polygon, PolygonError, validate_polygon
from .generators import (
    GeneratorError,
    class_exemplar,
    convex_ngon,
    random_simple_polygon,
    verify_zigzag_structure,
    zigzag_chi_target,
)
from .nc_euler import InstanceTooLarge, f_vector, iter_nc_masks
from .partition import (
    PartitionError,
    chi_epigonal_pockets,
    chi_removed_direct,
    chi_removed_lemma1,
    chi_removed_lemma_d2,
    chi_removed_theorem2,
    subdivide,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_GENERATOR = 4

CAPS = {"theorem2_n": 10, "lemmae_n": 10, "theorem3_n": 12, "theorem1_n": 12,
        "zigzag_l": 10, "catalan_n": 64, "catalan_a": 8, "polygon_n": 256}
# ``polygon_n`` caps the vertices that ``generate`` builds and that
# ``analyze`` and ``render`` load, checked before any table is built.  On one
# Xeon core a 256-vertex polygon generates in 1.8 s (convex) to 3.2 s
# (random), and the O(n^3) table makes 512 vertices 19 s and 36 s.
# ``verify catalan`` also counts the a-diagonal sets of the convex
# (a(n+1)+2)-gon up to this size.  On one Xeon core the 92 pairs (n, a) of
# the caps up to 40 take 0.3 s, the 166 up to 67 (every a = 1) 4.8 s, and
# the rest of the caps about 31 s.
CATALAN_GEOMETRIC_SIZE = 40


class CliInputError(Exception):
    pass


class CapExceeded(Exception):
    pass


# ---------------------------------------------------------------------------
# Polygon file format


_RATIONAL_RE = re.compile(r"\s*[+-]?\d+(?:/\d+)?\s*")


def _ratio(c: Fraction | int) -> str:
    return f"{c.numerator}/{c.denominator}"


def _parse_rational(text: str) -> Fraction:
    """Inverse of ``_ratio``: "p/q" or "p", optionally signed."""
    if not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"not a rational scalar: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in scalar: {text!r}") from exc


def polygon_to_json(poly: Polygon) -> dict:
    return {"vertices": [{"x": _ratio(p.x), "y": _ratio(p.y)} for p in poly.vertices]}


def polygon_from_json(doc: dict) -> Polygon:
    try:
        verts = [Point(_parse_rational(v["x"]), _parse_rational(v["y"])) for v in doc["vertices"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise CliInputError(f"malformed polygon document: {exc}") from exc
    _check_polygon_size(len(verts))
    return validate_polygon(verts)


def _check_polygon_size(n: int) -> None:
    if n > CAPS["polygon_n"]:
        raise CapExceeded(f"polygon cap: n <= {CAPS['polygon_n']}, got {n} vertices")


def load_polygon(path: str) -> Polygon:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliInputError(f"cannot read polygon file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CliInputError(str(exc)) from exc
    return polygon_from_json(doc)


def _json_text(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _emit(*outputs: tuple[str, str | None]) -> None:
    """Write each (text, path): to the file ``path``, or to stdout when there is none.

    Every file is opened before any text is written, so a path that cannot be
    opened leaves no output behind: append mode truncates nothing until every
    open has succeeded, and a file that an earlier open created is removed.
    """
    files = []
    try:
        for _, path in outputs:
            if path:
                created = not os.path.lexists(path)
                files.append((open(path, "a", encoding="utf-8"), created))
    except OSError as exc:
        for fh, created in files:
            fh.close()
            if created:
                os.remove(fh.name)
        raise CliInputError(f"cannot write {path}: {exc}") from exc
    handles = iter(files)
    try:
        for text, path in outputs:
            if not path:
                sys.stdout.write(text)
                continue
            with next(handles)[0] as fh:
                fh.truncate(0)
                fh.write(text)
    except OSError as exc:
        raise CliInputError(f"cannot write {path}: {exc}") from exc


def _parse_range(text: str) -> tuple[int, int]:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            lo, hi = int(lo), int(hi)
        else:
            lo = hi = int(text)
    except ValueError as exc:
        raise CliInputError(str(exc)) from exc
    if lo > hi:
        raise CliInputError(f"empty range {text!r}: {lo} > {hi}")
    return lo, hi


# ---------------------------------------------------------------------------
# analyze


def cmd_analyze(args) -> int:
    poly = load_polygon(args.file)
    report: dict = {
        "n": poly.n,
        "convex": poly.is_convex,
        "reflex": sorted(poly.reflex_vertices),
        "diagonals": [str(c) for c in diagonals(poly)],
        "epigonals": [str(c) for c in epigonals(poly)],
    }
    if args.cut is not None:
        try:
            cut = universe_of(poly).set_of(
                [Chord.parse(tok) for tok in args.cut.split(",") if tok]
            )
            res = subdivide(poly, cut)
        except (KeyError, ValueError, PartitionError) as exc:
            raise CliInputError(f"bad cut: {exc}") from exc
        report["partition"] = [" ".join(map(str, part)) for part in res.parts]
    if args.fvector or args.chi:
        fd, fe = f_vector(diagonals(poly)), f_vector(epigonals(poly))
    if args.fvector:
        report["f_vector_d"] = list(fd.counts)
        report["f_vector_e"] = list(fe.counts)
    if args.chi:
        report["chi_d"] = fd.euler
        report["chi_e"] = fe.euler
    if args.classes:
        if poly.n < 5 or args.vertex is None:
            raise CliInputError("--classes needs n >= 5 and --vertex")
        if not 0 <= args.vertex < poly.n:
            raise CliInputError(f"--vertex {args.vertex} is not in 0..{poly.n - 1}")
        cr = class_report(poly, args.vertex)
        report["classes"] = sorted(cr.memberships)
        report["theorem3"] = _theorem3_json(verify_theorem3(poly, args.vertex))
    if args.json:
        sys.stdout.write(_json_text(report))
    else:
        for key in sorted(report):
            if key == "partition":
                print("partition:")
                for line in report[key]:
                    print(f"  {line}")
            else:
                print(f"{key}: {report[key]}")
    return EXIT_OK


def _theorem3_json(rep) -> dict:
    return {
        "vertex": rep.vertex,
        "chi": [rep.chi_d_star, rep.chi_e_star, rep.chi_d_ear, rep.chi_e_ear],
        "detectors": [rep.detector_a, rep.detector_b, rep.detector_c, rep.detector_d],
        "clauses": list(rep.clauses),
        "ok": rep.ok,
    }


# ---------------------------------------------------------------------------
# verify campaigns


# The least n of each random campaign, and the start of its default ``--n``.
MIN_N = {"theorem1": 3, "theorem2": 4, "theorem3": 5, "lemmae": 4}


def _n_range(args, target: str) -> tuple[int, int]:
    """A random campaign's ``--n`` as (lo, hi), checked against its cap ``CAPS[target_n]``.

    A ``--random`` below 1 (below 0 for theorem1, which also checks its
    convex n-gons), checked first, and a range with no n >= ``MIN_N[target]``
    are bad input: either would check no polygon and pass.
    """
    least = 0 if target == "theorem1" else 1
    if args.random < least:
        raise CliInputError(f"--random must be >= {least}, got {args.random}")
    n_lo, n_hi = _parse_range(args.n)
    cap = CAPS[f"{target}_n"]
    if n_hi > cap:
        raise CapExceeded(f"{target} cap: n <= {cap}")
    if n_hi < MIN_N[target]:
        raise CliInputError(f"empty range {args.n!r}: no n >= {MIN_N[target]}")
    return n_lo, n_hi


def _campaign_polygons(args, target: str):
    """The ``--random`` seeded polygons (item, polygon), their sizes cycling through ``--n``."""
    n_lo, n_hi = _n_range(args, target)
    for idx in range(args.random):
        n = n_lo + idx % (n_hi - n_lo + 1)
        if n < MIN_N[target]:
            raise CliInputError(f"n = {n} below the minimum {MIN_N[target]}")
        yield idx, random_simple_polygon(n, args.seed + idx)


def _failure(args, idx: int, poly: Polygon, detail: str) -> str:
    """A failure line for a campaign polygon, with the polygon itself to rebuild it."""
    return (f"item={idx} seed={args.seed + idx} n={poly.n} {detail} "
            f"polygon={json.dumps(polygon_to_json(poly))}")


def _verify_theorem1(args) -> list[str]:
    n_lo, n_hi = _n_range(args, "theorem1")
    failures = []
    for n in range(max(MIN_N["theorem1"], n_lo), n_hi + 1):
        rep = verify_theorem1(convex_ngon(n))
        if not rep.ok:
            failures.append(f"convex n={n}: {rep}")
    for idx, poly in _campaign_polygons(args, "theorem1"):
        rep = verify_theorem1(poly)
        if not rep.ok:
            failures.append(_failure(args, idx, poly, f"d_sum={rep.d_sum} e_sum={rep.e_sum}"))
    return failures


def _verify_sets(args, target: str, kind: ChordKind, agree) -> list[str]:
    """``agree(poly, J)`` on every non-crossing set J of ``kind`` chords of each campaign polygon."""
    failures = []
    for idx, poly in _campaign_polygons(args, target):
        uni = universe_of(poly)
        # Within one kind, crossing is interleaving.
        for j_mask in iter_nc_masks(uni.order.interleave, uni.kind_mask(kind)):
            j = uni.set_of_mask(j_mask)
            if not agree(poly, j):
                failures.append(_failure(args, idx, poly, f"J={j} J_mask={j_mask:#x}"))
    return failures


def _verify_theorem2(args) -> list[str]:
    def agree(poly: Polygon, j: ChordSet) -> bool:
        direct = chi_removed_direct(poly, j, "d")
        return (chi_removed_theorem2(poly, j) == direct
                and chi_removed_lemma1(poly, j) == direct
                and (not j.mask or chi_removed_lemma_d2(poly, j) == direct))

    return _verify_sets(args, "theorem2", ChordKind.DIAGONAL, agree)


def _verify_theorem3(args) -> list[str]:
    failures = []
    for idx, poly in _campaign_polygons(args, "theorem3"):
        for i in range(poly.n):
            rep = verify_theorem3(poly, i)
            if not rep.ok:
                failures.append(_failure(args, idx, poly, f"i={i} clauses={rep.failing_clauses()}"))
    return failures


def _verify_lemmae(args) -> list[str]:
    def agree(poly: Polygon, j: ChordSet) -> bool:
        return chi_epigonal_pockets(poly, j) == chi_removed_direct(poly, j, "e")

    return _verify_sets(args, "lemmae", ChordKind.EPIGONAL, agree)


def _verify_catalan(args) -> list[str]:
    n_lo, n_hi = _parse_range(args.n)
    a_lo, a_hi = _parse_range(args.a)
    if n_hi > CAPS["catalan_n"] or a_hi > CAPS["catalan_a"]:
        raise CapExceeded(f"catalan caps: n <= {CAPS['catalan_n']}, a <= {CAPS['catalan_a']}")
    n_lo, a_lo = max(1, n_lo), max(1, a_lo)
    if n_lo > n_hi or a_lo > a_hi:
        raise CliInputError(f"--n {args.n} --a {args.a} holds no pair with n >= 1 and a >= 1")
    failures = []
    for n in range(n_lo, n_hi + 1):
        for a in range(a_lo, a_hi + 1):
            if not alternating_sum_check(n, a):
                failures.append(f"alternating n={n} a={a}")
            for k in range(1, n + 1):
                if not d_recurrence_check(n, k, a):
                    failures.append(f"recurrence n={n} k={k} a={a}")
                if not identity14_check(n, k, a):
                    failures.append(f"identity14 n={n} i={k} a={a}")
            size = a * (n + 1) + 2
            if size <= CATALAN_GEOMETRIC_SIZE:
                fv = brute_a_diagonal_fvector(convex_ngon(size), a)
                want = [d_closed(n, k, a) for k in range(len(fv.counts))]
                if list(fv.counts) != want or fv.euler != (-1) ** n * d_closed(n, n, a - 1):
                    failures.append(f"geometric n={n} a={a}")
    return failures


def _verify_zigzag(args) -> list[str]:
    l_lo, l_hi = _parse_range(args.l)
    if max(abs(l_lo), abs(l_hi)) > CAPS["zigzag_l"]:
        raise CapExceeded(f"zigzag cap: |l| <= {CAPS['zigzag_l']}")
    if l_lo > -2 and l_hi < 2:
        raise CliInputError(f"empty range {args.l!r}: no l with |l| >= 2")
    failures = []
    for l in range(l_lo, l_hi + 1):
        if abs(l) < 2:
            continue
        z = zigzag_chi_target(l)
        rep = verify_zigzag_structure(z)
        if not rep.ok:
            failures.append(f"l={l} structure")
        if chi_removed_direct(z.polygon, z.j_set, "d") != l:
            failures.append(f"l={l} direct chi")
    return failures


def cmd_verify(args) -> int:
    """Run the target's campaign ``args.run``; print its failures, or one PASS line."""
    failures = args.run(args)
    if failures:
        for f in failures:
            print(f"FAIL {f}")
        return EXIT_FAIL
    print(f"PASS {args.target}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# generate


def cmd_generate(args) -> int:
    """Write the kind's polygon ``args.build(args)``."""
    _check_polygon_size(args.n)
    _emit((_json_text(polygon_to_json(args.build(args))), args.out))
    return EXIT_OK


def _class_polygon(args) -> Polygon:
    if not 0 <= args.i < args.n:
        raise CliInputError(f"--i {args.i} is not in 0..{args.n - 1}")
    options = {key: value for key, value in vars(args).items() if key in ("region", "pockets")}
    return class_exemplar(int(args.kind[5:]), args.i, args.n, **options)


def cmd_generate_zigzag(args) -> int:
    """Write the zigzag polygon and its chord sidecar, by default beside ``--out``."""
    _check_polygon_size(3 * abs(args.l) + 1)
    z = zigzag_chi_target(args.l)
    sidecar_doc = {
        "chords": [str(c) for c in z.j_set],
        "labels": {name: str(c) for name, c in sorted(z.labels.items())},
        "target": z.target,
    }
    side_path = args.sidecar or (args.out + ".chords.json" if args.out else None)
    _emit((_json_text(polygon_to_json(z.polygon)), args.out), (_json_text(sidecar_doc), side_path))
    return EXIT_OK


# ---------------------------------------------------------------------------
# render


def cmd_render(args) -> int:
    poly = load_polygon(args.file)
    chords: list[Chord] = []
    if args.chords:
        try:
            with open(args.chords, "r", encoding="utf-8") as fh:
                side = json.load(fh)
            chords = [Chord.parse(c) for c in side.get("chords", [])]
        except (OSError, json.JSONDecodeError, ValueError, KeyError) as exc:
            raise CliInputError(f"cannot read chord sidecar: {exc}") from exc
    _emit((render_svg(poly, chords), args.out))
    return EXIT_OK


def render_svg(poly: Polygon, chords: list[Chord]) -> str:
    """Static SVG: solid boundary, dashed diagonals, dotted epigonals."""
    xs = [float(p.x) for p in poly.vertices]
    ys = [float(p.y) for p in poly.vertices]
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)
    span = max(hi_x - lo_x, hi_y - lo_y, 1e-9)
    margin = 0.08 * span

    def sx(x: float) -> float:
        return (x - lo_x + margin) * 640.0 / (span + 2 * margin)

    def sy(y: float) -> float:
        return 640.0 - (y - lo_y + margin) * 640.0 / (span + 2 * margin)

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="640" '
        'viewBox="0 0 640 640">',
    ]
    pts = " ".join(f"{sx(x):.3f},{sy(y):.3f}" for x, y in zip(xs, ys))
    out.append(
        f'<polygon points="{pts}" fill="none" stroke="black" stroke-width="2"/>'
    )
    styles = {
        ChordKind.DIAGONAL: 'stroke="#1f4e9c" stroke-dasharray="8 5"',
        ChordKind.EPIGONAL: 'stroke="#9c1f1f" stroke-dasharray="2 4"',
        ChordKind.BOUNDARY_CROSSING: 'stroke="#777777" stroke-dasharray="8 3 2 3"',
    }
    for c in sorted(chords):
        try:
            kind = classify_chord(poly, c)
        except KeyError:
            raise CliInputError(f"chord {c} is not a chord of the {poly.n}-gon") from None
        a, b = poly.vertices[c.i], poly.vertices[c.j]
        out.append(
            f'<line x1="{sx(float(a.x)):.3f}" y1="{sy(float(a.y)):.3f}" '
            f'x2="{sx(float(b.x)):.3f}" y2="{sy(float(b.y)):.3f}" '
            f'{styles[kind]} stroke-width="1.5"/>'
        )
    for i, (x, y) in enumerate(zip(xs, ys)):
        out.append(
            f'<circle cx="{sx(x):.3f}" cy="{sy(y):.3f}" r="3" fill="black"/>'
        )
        out.append(
            f'<text x="{sx(x) + 6:.3f}" y="{sy(y) - 6:.3f}" font-size="14">{i}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# catalan


def cmd_catalan(args) -> int:
    try:
        value = d_closed(args.n, args.k, args.a)
    except ValueError as exc:
        raise CliInputError(str(exc)) from exc
    print(value)
    return EXIT_OK


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # Subparsers are made of this class too, so a flag the chosen command does
    # not read is reported with that command's usage, not the top-level one.
    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="chord-euler")
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="report chord structure of a polygon file")
    pa.add_argument("file")
    pa.add_argument("--fvector", action="store_true")
    pa.add_argument("--chi", action="store_true")
    pa.add_argument("--classes", action="store_true")
    pa.add_argument("--vertex", type=int, default=None)
    pa.add_argument("--cut", default=None, help='subdivide by chords "i-j,i-j,..."')
    pa.add_argument("--json", action="store_true")
    pa.set_defaults(func=cmd_analyze)

    pv = sub.add_parser("verify", help="run an identity/property campaign")
    targets = pv.add_subparsers(dest="target", required=True)
    campaign = argparse.ArgumentParser(add_help=False)
    campaign.add_argument("--random", type=int, default=100)
    campaign.add_argument("--seed", type=int, default=0)
    for target, run in (("theorem1", _verify_theorem1), ("theorem2", _verify_theorem2),
                        ("theorem3", _verify_theorem3), ("lemmae", _verify_lemmae)):
        pt = targets.add_parser(target, parents=[campaign])
        pt.add_argument("--n", default=f"{MIN_N[target]}..8")
        pt.set_defaults(func=cmd_verify, run=run)
    pt = targets.add_parser("catalan")
    pt.add_argument("--n", default="3..8")
    pt.add_argument("--a", default="1..3")
    pt.set_defaults(func=cmd_verify, run=_verify_catalan)
    pt = targets.add_parser("zigzag")
    pt.add_argument("--l", default="-5..5")
    pt.set_defaults(func=cmd_verify, run=_verify_zigzag)

    pg = sub.add_parser("generate", help="emit a polygon JSON file")
    kinds = pg.add_subparsers(dest="kind", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None)
    pk = kinds.add_parser("convex", parents=[out])
    pk.add_argument("--n", type=int, default=6)
    pk.set_defaults(func=cmd_generate, build=lambda args: convex_ngon(args.n))
    pk = kinds.add_parser("random", parents=[out])
    pk.add_argument("--n", type=int, default=6)
    pk.add_argument("--seed", type=int, default=0)
    pk.set_defaults(func=cmd_generate, build=lambda args: random_simple_polygon(args.n, args.seed))
    pk = kinds.add_parser("zigzag", parents=[out])
    pk.add_argument("--l", type=int, default=2)
    pk.add_argument("--sidecar", default=None)
    pk.set_defaults(func=cmd_generate_zigzag)
    for k in range(1, 7):
        pk = kinds.add_parser(f"class{k}", parents=[out])
        pk.add_argument("--n", type=int, default=6)
        pk.add_argument("--i", type=int, default=0)
        if k == 1:
            pk.add_argument("--region", choices=["I", "III"], default="I")
        if k == 3:
            pk.add_argument("--pockets", type=int, choices=[1, 2], default=1)
        pk.set_defaults(func=cmd_generate, build=_class_polygon)

    pr = sub.add_parser("render", help="emit a static SVG figure")
    pr.add_argument("file")
    pr.add_argument("--chords", default=None)
    pr.add_argument("--out", default=None)
    pr.set_defaults(func=cmd_render)

    pc = sub.add_parser("catalan", help="print d_k(n, a)")
    pc.add_argument("--n", type=int, required=True)
    pc.add_argument("--k", type=int, required=True)
    pc.add_argument("--a", type=int, required=True)
    pc.set_defaults(func=cmd_catalan)

    return p


def _join_negative_ranges(argv: list[str]) -> list[str]:
    # argparse mistakes "-5..5" for an option; fold it into "--l=-5..5".
    out = []
    skip = False
    for k, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok in ("--l", "--n", "--a") and k + 1 < len(argv) and argv[k + 1].startswith("-"):
            out.append(f"{tok}={argv[k + 1]}")
            skip = True
        else:
            out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_join_negative_ranges(list(argv)))
    try:
        return args.func(args)
    except (CapExceeded, InstanceTooLarge) as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (CliInputError, PolygonError) as exc:
        # A ValueError from user input is wrapped as CliInputError where it
        # is raised; any other ValueError is a fault and is not bad input.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except GeneratorError as exc:
        print(f"generator failure: {exc}", file=sys.stderr)
        return EXIT_GENERATOR


if __name__ == "__main__":
    sys.exit(main())
