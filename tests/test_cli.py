import dataclasses
import json
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chord_euler import cli
from chord_euler.chords import universe_of
from chord_euler.cli import (
    EXIT_CAP,
    EXIT_FAIL,
    EXIT_GENERATOR,
    EXIT_INPUT,
    EXIT_OK,
    main,
    polygon_from_json,
    polygon_to_json,
)
from chord_euler.generators import class_exemplar, convex_ngon, random_simple_polygon, zigzag_chi_target


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_polygon_round_trip_exact():
    corpus = [convex_ngon(n) for n in (3, 5, 8)]
    corpus += [random_simple_polygon(7, s) for s in range(5)]
    corpus.append(zigzag_chi_target(3).polygon)
    corpus.append(class_exemplar(6, 0, 8))
    for poly in corpus:
        assert polygon_from_json(polygon_to_json(poly)) == poly


def test_analyze_values_match_library(tmp_path, capsys):
    poly = convex_ngon(6)
    path = tmp_path / "hex.json"
    path.write_text(json.dumps(polygon_to_json(poly)))
    code, out, _ = run(capsys, "analyze", str(path), "--fvector", "--chi", "--json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["f_vector_d"] == [1, 9, 21, 14]
    assert doc["chi_d"] == -1
    assert doc["convex"] is True


def test_analyze_dart_chi(tmp_path, capsys, dart):
    path = tmp_path / "dart.json"
    path.write_text(json.dumps(polygon_to_json(dart)))
    code, out, _ = run(capsys, "analyze", str(path), "--chi", "--json")
    doc = json.loads(out)
    assert code == EXIT_OK and doc["chi_d"] == 0 and doc["chi_e"] == 0


def test_analyze_chi_on_a_convex_40_gon(tmp_path, capsys):
    # chi is read from the f-vector; the deletion recursion did not finish
    # on this polygon in 20 s.
    path = tmp_path / "convex40.json"
    path.write_text(json.dumps(polygon_to_json(convex_ngon(40))))
    code, out, _ = run(capsys, "analyze", str(path), "--chi", "--json")
    doc = json.loads(out)
    assert code == EXIT_OK and doc["chi_d"] == -1 and doc["chi_e"] == 1


def test_byte_identical_invocations(tmp_path, capsys):
    poly = zigzag_chi_target(2).polygon
    path = tmp_path / "z.json"
    path.write_text(json.dumps(polygon_to_json(poly)))
    runs = [run(capsys, "analyze", str(path), "--fvector", "--chi", "--json") for _ in range(2)]
    assert runs[0] == runs[1]
    svgs = [run(capsys, "render", str(path)) for _ in range(2)]
    assert svgs[0] == svgs[1]
    assert svgs[0][0] == EXIT_OK


def test_generate_and_render_with_sidecar(tmp_path, capsys):
    out = tmp_path / "zig.json"
    code, _, _ = run(capsys, "generate", "zigzag", "--l", "2", "--out", str(out))
    assert code == EXIT_OK
    side = json.loads((tmp_path / "zig.json.chords.json").read_text())
    assert len(side["chords"]) == 3 and side["target"] == 2
    assert set(side["labels"]) == {"e1", "e2", "e3"}
    code, svg, _ = run(capsys, "render", str(out), "--chords", str(out) + ".chords.json")
    assert code == EXIT_OK
    assert "stroke-dasharray" in svg and svg.startswith("<?xml")


def test_render_marks_diagonals_and_epigonals(tmp_path, capsys, dart):
    path = tmp_path / "dart.json"
    path.write_text(json.dumps(polygon_to_json(dart)))
    side = tmp_path / "chords.json"
    side.write_text(json.dumps({"chords": ["0-2", "1-3"]}))
    code, svg, _ = run(capsys, "render", str(path), "--chords", str(side))
    assert code == EXIT_OK
    assert svg.count('stroke-dasharray="8 5"') == 1  # one dashed diagonal
    assert svg.count('stroke-dasharray="2 4"') == 1  # one dotted epigonal


def test_exit_input_error(tmp_path, capsys):
    bow = tmp_path / "bow.json"
    bow.write_text(json.dumps({"vertices": [
        {"x": "0/1", "y": "0/1"}, {"x": "2/1", "y": "2/1"},
        {"x": "2/1", "y": "0/1"}, {"x": "0/1", "y": "2/1"}]}))
    code, _, err = run(capsys, "analyze", str(bow))
    assert code == EXIT_INPUT and "self-intersection" in err
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert run(capsys, "analyze", str(broken))[0] == EXIT_INPUT
    bad_scalar = tmp_path / "bad.json"
    bad_scalar.write_text(json.dumps({"vertices": [{"x": "1.5", "y": "0/1"}]}))
    assert run(capsys, "analyze", str(bad_scalar))[0] == EXIT_INPUT


def test_zero_denominator_is_bad_input(tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"vertices": [{"x": "1/0", "y": "0/1"}]}))
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, out) == (EXIT_INPUT, "")
    assert err == "error: malformed polygon document: zero denominator in scalar: '1/0'\n"


def test_sqrt3_scalar_is_bad_input(tmp_path, capsys):
    path = tmp_path / "root.json"
    path.write_text(json.dumps({"vertices": [{"x": "1/2+1/1*sqrt3", "y": "0/1"}]}))
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, out) == (EXIT_INPUT, "")
    assert err == "error: malformed polygon document: not a rational scalar: '1/2+1/1*sqrt3'\n"


def test_rational_scalar_forms():
    assert cli._parse_rational("3/4") == Fraction(3, 4)
    assert cli._parse_rational("-1/2") == Fraction(-1, 2)
    assert cli._parse_rational("+6/4") == Fraction(3, 2)
    assert cli._parse_rational(" 7 ") == 7
    for text in ("sqrt2", "1.5", "1e3", "3 / 4", "1/2+2/3*sqrt3", "0/1-5/1*sqrt3", ""):
        with pytest.raises(ValueError, match="not a rational scalar"):
            cli._parse_rational(text)


@pytest.mark.parametrize("text", ["1/0", "0/0"])
def test_zero_denominator_scalar_is_value_error(text):
    with pytest.raises(ValueError, match="zero denominator") as info:
        cli._parse_rational(text)
    assert not isinstance(info.value, ZeroDivisionError)


@given(st.fractions(min_value=-50, max_value=50, max_denominator=16))
def test_rational_scalar_text_round_trip(q):
    text = cli._ratio(q)
    assert re.fullmatch(r"-?\d+/\d+", text)
    assert cli._parse_rational(text) == q


def test_generated_polygons_round_trip(tmp_path, capsys):
    # Every generate kind, with its defaults, through the CLI's own JSON.
    for kind in ("convex", "random", "class1", "class2", "class3", "class4", "class5", "class6"):
        code, out, _ = run(capsys, "generate", kind)
        assert code == EXIT_OK
        poly = polygon_from_json(json.loads(out))
        assert cli._json_text(polygon_to_json(poly)) == out
    for l in (*range(2, 11), *range(-10, -1)):
        path = tmp_path / f"zigzag{l}.json"
        assert run(capsys, "generate", "zigzag", "--l", str(l), "--out", str(path))[0] == EXIT_OK
        poly = zigzag_chi_target(l).polygon
        assert polygon_from_json(json.loads(path.read_text())) == poly
        assert polygon_from_json(polygon_to_json(poly)) == poly


@pytest.mark.parametrize("n,chord", [(7, "0-1"), (7, "0-6"), (8, "1-8")])
def test_render_sidecar_chord_outside_universe_is_bad_input(tmp_path, capsys, n, chord):
    # An edge, the closing edge and an index past the last vertex.
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(polygon_to_json(convex_ngon(n))))
    side = tmp_path / "chords.json"
    side.write_text(json.dumps({"chords": [chord]}))
    code, out, err = run(capsys, "render", str(path), "--chords", str(side))
    assert (code, out) == (EXIT_INPUT, "")
    assert err == f"error: chord {chord} is not a chord of the {n}-gon\n"


def test_exit_cap(capsys):
    code, _, err = run(capsys, "verify", "theorem2", "--n", "4..20", "--random", "1")
    assert code == EXIT_CAP and "cap" in err


def test_exit_cap_from_library_limit(capsys, monkeypatch):
    # InstanceTooLarge is a ValueError; it must still map to the cap exit.
    import chord_euler.cli as cli
    from chord_euler.partition import InstanceTooLarge

    def too_large(args):
        raise InstanceTooLarge("|J| = 21 exceeds the 2^|J| cap 20")

    monkeypatch.setattr(cli, "_verify_theorem2", too_large)
    code, _, err = run(capsys, "verify", "theorem2")
    assert code == EXIT_CAP and err.startswith("cap exceeded:")


def test_internal_value_error_is_not_bad_input(capsys, monkeypatch):
    # A ValueError raised inside the library is a fault, not bad input: it
    # propagates instead of exiting 2.
    import chord_euler.cli as cli

    def faulty(poly, i):
        raise ValueError("internal fault")

    monkeypatch.setattr(cli, "verify_theorem3", faulty)
    with pytest.raises(ValueError, match="internal fault"):
        main(["verify", "theorem3", "--n", "5..6", "--random", "1"])


def test_user_value_errors_stay_bad_input(tmp_path, capsys, dart):
    path = tmp_path / "dart.json"
    path.write_text(json.dumps(polygon_to_json(dart)))
    side = tmp_path / "chords.json"
    side.write_text(json.dumps({"chords": ["3-3"]}))
    code, out, err = run(capsys, "render", str(path), "--chords", str(side))
    assert (code, out) == (EXIT_INPUT, "")
    assert err == "error: cannot read chord sidecar: chord endpoints must differ\n"
    code, out, err = run(capsys, "analyze", str(path), "--cut", "3-3")
    assert (code, err) == (EXIT_INPUT, "error: bad cut: chord endpoints must differ\n")
    code, out, err = run(capsys, "verify", "theorem3", "--n", "3..x")
    assert (code, err) == (EXIT_INPUT, "error: invalid literal for int() with base 10: 'x'\n")
    code, out, err = run(capsys, "catalan", "--n", "-1", "--k", "2", "--a", "2")
    assert (code, out, err) == (EXIT_INPUT, "", "error: n, k, a must be non-negative\n")
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{")
    code, _, err = run(capsys, "analyze", str(binary))
    assert code == EXIT_INPUT and err.startswith("error: 'utf-8' codec can't decode")


def test_cut_with_a_boundary_crossing_chord_names_it(tmp_path, capsys):
    # 3-5 is boundary crossing and crosses the diagonal 0-2; the crossing
    # masks cover the diagonals only, so the non-diagonal is what is reported.
    path = tmp_path / "r6.json"
    assert run(capsys, "generate", "random", "--n", "6", "--seed", "0", "--out", str(path))[0] == EXIT_OK
    code, out, err = run(capsys, "analyze", str(path), "--cut", "0-2,3-5")
    assert (code, out, err) == (EXIT_INPUT, "", "error: bad cut: chord 3-5 is not a diagonal\n")


def test_exit_generator_failure(capsys):
    code, _, _ = run(capsys, "generate", "zigzag", "--l", "1")
    assert code == EXIT_GENERATOR
    code, _, _ = run(capsys, "generate", "class1", "--n", "4")
    assert code == EXIT_GENERATOR


def test_exit_property_failure(capsys, monkeypatch):
    # Theorems do not fail on honest inputs; exercise the exit-1 path by
    # stubbing one verifier to report a failure.
    import chord_euler.cli as cli

    def broken(args):
        return ["planted failure"]

    monkeypatch.setattr(cli, "_verify_theorem1", broken)
    code, out, _ = run(capsys, "verify", "theorem1")
    assert code == EXIT_FAIL and "planted failure" in out


_DETAIL = {
    "theorem1": r"d_sum=-?\d+ e_sum=-?\d+",
    "theorem2": r"J=(?P<j>\{.*?\}) J_mask=(?P<mask>0x[0-9a-f]+)",
    "theorem3": r"i=\d clauses=\[.*?\]",
    "lemmae": r"J=(?P<j>\{.*?\}) J_mask=(?P<mask>0x[0-9a-f]+)",
}


def _broken(real):
    """``real`` with its verdict turned: a chi off by one, or a report that fails."""

    def broken(*args):
        out = real(*args)
        if isinstance(out, int):
            return out + 1
        return out._replace(ok=False) if isinstance(out, tuple) else dataclasses.replace(out, ok=False)

    return broken


@pytest.mark.parametrize(
    "target, route",
    [("theorem1", "verify_theorem1"), ("theorem2", "chi_removed_lemma1"),
     ("theorem3", "verify_theorem3"), ("lemmae", "chi_epigonal_pockets")],
)
def test_campaign_failure_lines_rebuild_their_instance(capsys, monkeypatch, target, route):
    # A failure line carries the polygon, and a set J its mask: they rebuild
    # the campaign's own instance without rerunning the campaign.
    monkeypatch.setattr(cli, route, _broken(getattr(cli, route)))
    code, out, _ = run(capsys, "verify", target, "--n", "6..7", "--random", "2", "--seed", "5")
    assert code == EXIT_FAIL
    items = set()
    for line in out.splitlines():
        if target == "theorem1" and re.fullmatch(r"FAIL convex n=\d: .*", line):
            continue  # rebuilt as convex_ngon(n)
        m = re.fullmatch(
            rf"FAIL item=(?P<item>\d) seed=(?P<seed>\d+) n=(?P<n>\d) {_DETAIL[target]} "
            r"polygon=(?P<poly>.*)", line
        )
        assert m, line
        poly = polygon_from_json(json.loads(m["poly"]))
        seed = int(m["seed"])
        assert poly == random_simple_polygon(int(m["n"]), seed) and seed == 5 + int(m["item"])
        if "mask" in m.groupdict():
            assert str(universe_of(poly).set_of_mask(int(m["mask"], 16))) == m["j"]
        items.add(m["item"])
    assert items == {"0", "1"}


_CAP_CASES = [pytest.param(key, 1, id=key) for key in sorted(cli.CAPS)]
_CAP_CASES.append(pytest.param("zigzag_l", -1, id="zigzag_l-negative"))


def _past_cap(key, sign, cap, tmp_path):
    """The argument lists that go one past ``CAPS[key] = cap``."""
    target, option = key.split("_")
    if target == "polygon":
        # Every generated kind, and a file of collinear points: the vertex
        # count is checked before any polygon is built or validated.
        line = tmp_path / "line.json"
        line.write_text(json.dumps({"vertices": [{"x": str(k), "y": "0"} for k in range(cap + 1)]}))
        yield from (["generate", kind, "--n", str(cap + 1)]
                    for kind in ("convex", "random", *(f"class{k}" for k in range(1, 7))))
        yield from (["generate", "zigzag", "--l", str(l)] for l in (cap // 3 + 1, -(cap // 3 + 1)))
        yield from (["analyze", str(line)], ["render", str(line)])
        return
    argv = ["verify", target, f"--{option}", str(sign * (cap + 1))]
    if target == "catalan":
        argv += ["--a" if option == "n" else "--n", "1"]
    yield argv


@pytest.mark.parametrize("key, sign", _CAP_CASES)
def test_one_past_each_cap_exits_3(capsys, monkeypatch, tmp_path, key, sign):
    # Every cap, and zigzag's on both sides of zero; the message reads the
    # cap from CAPS, so it follows a lowered cap too.
    option = key.split("_")[1]
    for cap in (cli.CAPS[key], 5):
        monkeypatch.setitem(cli.CAPS, key, cap)
        for argv in _past_cap(key, sign, cap, tmp_path):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (EXIT_CAP, ""), argv
            assert err.startswith("cap exceeded: ") and re.search(rf"\b{option}\|? <= {cap}\b", err), argv


def test_verify_targets_pass(capsys):
    assert run(capsys, "verify", "zigzag", "--l", "-3..3")[0] == EXIT_OK
    assert run(capsys, "verify", "theorem1", "--n", "3..7", "--random", "20")[0] == EXIT_OK
    assert run(capsys, "verify", "catalan", "--n", "1..5", "--a", "1..2")[0] == EXIT_OK
    assert run(capsys, "verify", "theorem3", "--n", "5..7", "--random", "15")[0] == EXIT_OK
    assert run(capsys, "verify", "lemmae", "--n", "4..7", "--random", "10")[0] == EXIT_OK


def test_reversed_range_is_bad_input(capsys):
    # lo > hi used to crash (6..5), build a polygon past the cap (30..5) or
    # check nothing and pass (5..-5).  So did a range with no zigzag (|l| < 2)
    # and, with no random polygon, one below theorem1's convex n = 3.
    for argv in (
        ("theorem3", "--n", "6..5"),
        ("theorem3", "--n", "30..5"),
        ("zigzag", "--l", "5..-5"),
        ("catalan", "--n", "2", "--a", "3..1"),
        ("zigzag", "--l", "-1..1"),
        ("theorem1", "--n", "1..2", "--random", "0"),
    ):
        code, out, err = run(capsys, "verify", *argv)
        assert code == EXIT_INPUT and out == "" and "empty range" in err, argv


def test_catalan_range_without_a_pair_is_bad_input(capsys):
    # n and a start at 1, so these ranges used to be clamped to nothing,
    # check nothing and pass.
    for argv in (("--n", "0..0", "--a", "1..1"), ("--n", "1..2", "--a", "0..0"),
                 ("--n", "-3..0", "--a", "-2..5")):
        code, out, err = run(capsys, "verify", "catalan", *argv)
        assert code == EXIT_INPUT and out == "" and "holds no pair" in err, argv
    code, out, _ = run(capsys, "verify", "catalan", "--n", "0..1", "--a", "0..1")
    assert code == EXIT_OK and out == "PASS catalan\n"


def test_catalan_geometric_check_reaches_past_twelve_vertices(capsys, monkeypatch):
    # The a-diagonal sets of the convex (a(n+1)+2)-gon are counted up to
    # CATALAN_GEOMETRIC_SIZE vertices: n = 10, a = 3 is a 35-gon.
    sizes = []
    count = cli.brute_a_diagonal_fvector

    def counted(poly, a):
        sizes.append(poly.n)
        return count(poly, a)

    monkeypatch.setattr(cli, "brute_a_diagonal_fvector", counted)
    code, out, _ = run(capsys, "verify", "catalan", "--n", "9..10", "--a", "3")
    assert code == EXIT_OK and out == "PASS catalan\n"
    assert sizes == [32, 35]


def test_negative_random_is_bad_input(capsys):
    # range(-3) is empty, so a negative count used to check no polygon and
    # pass.  Zero stays valid: theorem1 still checks its convex polygons.
    for target in ("theorem1", "theorem2", "theorem3", "lemmae"):
        code, out, err = run(capsys, "verify", target, "--random", "-3")
        assert code == EXIT_INPUT and out == "" and "--random" in err, target
    code, out, _ = run(capsys, "verify", "theorem1", "--n", "3..6", "--random", "0")
    assert code == EXIT_OK and out == "PASS theorem1\n"


@pytest.mark.parametrize("argv", [
    ("theorem2",),
    ("theorem3",),
    ("lemmae", "--n", "4..6"),
    ("theorem3", "--n", "5..12", "--seed", "1"),
])
def test_zero_random_is_bad_input_where_only_random_polygons_are_checked(capsys, argv):
    # theorem2, theorem3 and lemmae check only their random polygons, so
    # --random 0 used to check nothing and print PASS.
    code, out, err = run(capsys, "verify", *argv, "--random", "0")
    assert code == EXIT_INPUT and out == "" and "--random must be >= 1, got 0" in err, argv
    code, out, _ = run(capsys, "verify", *argv, "--random", "1")
    assert code == EXIT_OK and out == f"PASS {argv[0]}\n", argv


def test_catalan_subcommand(capsys):
    code, out, _ = run(capsys, "catalan", "--n", "2", "--k", "1", "--a", "1")
    assert code == EXIT_OK and out.strip() == "5"


@pytest.mark.parametrize("vertex", ["7", "100", "-1"])
def test_out_of_range_vertex_is_bad_input(tmp_path, capsys, vertex):
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(polygon_to_json(random_simple_polygon(7, 1))))
    code, out, err = run(capsys, "analyze", str(path), "--classes", "--vertex", vertex)
    assert (code, out) == (EXIT_INPUT, "")
    assert err == f"error: --vertex {vertex} is not in 0..6\n"


@pytest.mark.parametrize("vertex", ["0", "99"])
def test_vertex_without_classes_is_bad_input(tmp_path, capsys, vertex):
    # --vertex is read only with --classes, so alone it is bad input, in
    # range or not, as --classes is without --vertex.
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(polygon_to_json(random_simple_polygon(7, 2))))
    code, out, err = run(capsys, "analyze", str(path), "--vertex", vertex)
    assert (code, out) == (EXIT_INPUT, "")
    assert err == "error: --vertex needs --classes\n"
    code, out, err = run(capsys, "analyze", str(path), "--classes")
    assert (code, out) == (EXIT_INPUT, "")
    assert err == "error: --classes needs n >= 5 and --vertex\n"


@pytest.mark.parametrize("n, i", [(7, 100), (7, -1), (7, 7)])
def test_out_of_range_generate_index_is_bad_input(tmp_path, capsys, n, i):
    out = tmp_path / "poly.json"
    code, stdout, err = run(capsys, "generate", "class1", "--n", str(n), "--i", str(i), "--out", str(out))
    assert (code, stdout) == (EXIT_INPUT, "")
    assert err == f"error: --i {i} is not in 0..{n - 1}\n"
    assert not out.exists()


def _assert_cannot_write(capsys, path, *argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_INPUT, "")
    assert err.startswith(f"error: cannot write {path}: ") and "Traceback" not in err


def test_unwritable_generate_out_is_bad_input(tmp_path, capsys):
    path = tmp_path / "missing" / "x.json"
    _assert_cannot_write(capsys, path, "generate", "convex", "--n", "5", "--out", str(path))


def test_unwritable_generate_sidecar_is_bad_input(tmp_path, capsys):
    path = tmp_path / "missing" / "x.json"
    out = tmp_path / "zig.json"
    _assert_cannot_write(
        capsys, path, "generate", "zigzag", "--l", "2", "--out", str(out), "--sidecar", str(path)
    )


def test_failed_generate_writes_nothing(tmp_path, capsys):
    # The polygon file is not written when its sidecar cannot be, and a file
    # already at the polygon's path keeps its bytes.
    out, side = tmp_path / "zig.json", tmp_path / "missing" / "x.json"
    argv = ("generate", "zigzag", "--l", "2", "--out", str(out), "--sidecar", str(side))
    _assert_cannot_write(capsys, side, *argv)
    assert list(tmp_path.iterdir()) == []
    out.write_text("old")
    _assert_cannot_write(capsys, side, *argv)
    assert list(tmp_path.iterdir()) == [out] and out.read_text() == "old"


def test_unwritable_render_out_is_bad_input(tmp_path, capsys, dart):
    poly = tmp_path / "dart.json"
    poly.write_text(json.dumps(polygon_to_json(dart)))
    path = tmp_path / "missing" / "x.json"
    _assert_cannot_write(capsys, path, "render", str(poly), "--out", str(path))


def test_analyze_text_report_with_a_cut(tmp_path, capsys, dart):
    # Without --json the keys print sorted, one per line, and a cut's faces
    # one per indented line.
    path = tmp_path / "dart.json"
    path.write_text(json.dumps(polygon_to_json(dart)))
    code, out, err = run(capsys, "analyze", str(path), "--cut", "0-2")
    assert (code, err) == (EXIT_OK, "")
    assert out == (
        "convex: False\ndiagonals: ['0-2']\nepigonals: ['1-3']\nn: 4\n"
        "partition:\n  0 1 2\n  0 2 3\nreflex: [2]\n"
    )


def test_analyze_classes_at_a_vertex(tmp_path, capsys):
    poly = class_exemplar(6, 0, 8)
    path = tmp_path / "class6.json"
    path.write_text(json.dumps(polygon_to_json(poly)))
    code, out, _ = run(capsys, "analyze", str(path), "--classes", "--vertex", "0", "--json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["classes"] == ["Class6"]
    assert doc["theorem3"] == {
        "vertex": 0, "chi": [1, 0, 0, 0], "detectors": [True, False, False, False],
        "clauses": [True, True, True, True], "ok": True,
    }


_VERIFY_TARGETS = ("theorem1", "theorem2", "theorem3", "lemmae", "catalan", "zigzag")
_GENERATE_KINDS = ("convex", "random", "zigzag") + tuple(f"class{k}" for k in range(1, 7))


@pytest.mark.parametrize("target", _VERIFY_TARGETS)
def test_verify_defaults_run(capsys, target):
    # A shared default --n 3..8 used to stop theorem2, theorem3 and lemmae
    # below their least n.
    assert run(capsys, "verify", target) == (EXIT_OK, f"PASS {target}\n", "")


@pytest.mark.parametrize("kind", _GENERATE_KINDS)
def test_generate_defaults_run(capsys, kind):
    code, out, err = run(capsys, "generate", kind)
    assert (code, err) == (EXIT_OK, "")
    doc, _ = json.JSONDecoder().raw_decode(out)  # zigzag's sidecar follows
    assert polygon_from_json(doc).n >= 6


def _usage_error(capsys, *argv) -> str:
    # Parsing runs before main's handlers: argparse exits 2 itself.
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (EXIT_INPUT, ""), argv
    return err


@pytest.mark.parametrize("argv", [
    ("verify", "theorem1", "--a", "1..2"),
    ("verify", "theorem2", "--l", "2"),
    ("verify", "theorem3", "--a", "1"),
    ("verify", "lemmae", "--l", "-3..3"),
    ("verify", "catalan", "--random", "-1"),
    ("verify", "zigzag", "--n", "3..5"),
    ("generate", "convex", "--seed", "7"),
    ("generate", "random", "--i", "1"),
    ("generate", "zigzag", "--n", "6"),
    ("generate", "class1", "--pockets", "2"),
    ("generate", "class2", "--region", "I"),
    ("generate", "class3", "--region", "III"),
    ("generate", "class4", "--sidecar", "side.json"),
    ("generate", "class5", "--seed", "1"),
    ("generate", "class6", "--l", "2"),
    ("analyze", "poly.json", "--random", "3"),
    ("render", "poly.json", "--n", "5"),
    ("catalan", "--n", "2", "--k", "1", "--a", "1", "--seed", "0"),
], ids=" ".join)
def test_unread_flag_is_a_usage_error(capsys, argv):
    # The usage line is that of the command which does not read the flag.
    err = _usage_error(capsys, *argv)
    command = " ".join(argv[:1] if argv[0] in ("analyze", "render", "catalan") else argv[:2])
    assert err.startswith(f"usage: chord-euler {command} [-h]"), err
    assert f"unrecognized arguments: {argv[-2]}" in err  # the flag, its value joined or not


@pytest.mark.parametrize("argv", [
    ("class1", "--n", "8", "--region", "II"),
    ("class3", "--n", "9", "--pockets", "3"),
    ("class3", "--n", "9", "--pockets", "0"),
])
def test_bad_exemplar_option_is_a_usage_error(capsys, argv):
    assert "invalid choice" in _usage_error(capsys, "generate", *argv)


@pytest.mark.parametrize("kind, n, flag, options", [
    (1, 8, ("--region", "III"), {"region": "III"}),
    (3, 9, ("--pockets", "2"), {"pockets": 2}),
])
def test_exemplar_options_reach_the_generator(capsys, kind, n, flag, options):
    code, out, _ = run(capsys, "generate", f"class{kind}", "--n", str(n), "--i", "1", *flag)
    assert code == EXIT_OK
    want = class_exemplar(kind, 1, n, **options)
    assert polygon_from_json(json.loads(out)) == want != class_exemplar(kind, 1, n)
