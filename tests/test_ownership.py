"""Each cache has one owner and no reference cycle forms.

A polygon owns its chord universe, the universe owns every cache derived
from it and holds the polygon only weakly, and the recursions are
module-level functions or explicit stacks.  So reference counting alone
frees a polygon visit, and a chord set keeps working after its polygon is
gone.  What depends on n alone has two module caches, geometry's slots and
chords' orders, under one cap; an AST scan of the package pins them, the
private names that one module imports from another, and that no module
outside ``chords`` reads the per-polygon crossing masks: a family within one
kind reads the per-n interleaving masks, and any other is straddle-tested.
A second scan, from the CLI, the demos and the benchmark, pins the public
surface: every export of ``chord_euler`` is reached from one of them, or
waits for a route.
"""

import ast
import gc
import inspect
from itertools import islice
from pathlib import Path

import chord_euler

from chord_euler.chords import ChordKind, diagonals, epigonals, universe_of
from chord_euler.classes import verify_theorem1, verify_theorem3
from chord_euler.generators import random_simple_polygon
from chord_euler.nc_euler import (
    euler_recursive,
    f_vector,
    find_heart,
    is_heart,
    iter_nc_masks,
)
from chord_euler.partition import (
    chi_epigonal_pockets,
    chi_removed_direct,
    chi_removed_lemma1,
    chi_removed_lemma_d2,
    chi_removed_theorem2,
)
from oracles import euler_brute, segments


def _visit(poly) -> None:
    for i in range(poly.n):
        verify_theorem3(poly, i)
    verify_theorem1(poly)
    euler_recursive(diagonals(poly))
    euler_recursive(epigonals(poly))
    uni = universe_of(poly)
    d_mask = uni.kind_mask(ChordKind.DIAGONAL)
    for j_mask in islice(iter_nc_masks(uni.crossing_masks, d_mask), 6):
        j = uni.set_of_mask(j_mask)
        chi_removed_direct(poly, j, "d")
        chi_removed_theorem2(poly, j)
        chi_removed_lemma1(poly, j)
        if j_mask:
            chi_removed_lemma_d2(poly, j)
        chi_epigonal_pockets(poly, j)
    for side, fam in (("d", diagonals(poly)), ("e", epigonals(poly))):
        heart = find_heart(poly, side)
        if heart is not None:
            assert is_heart(fam, heart)
    segs = segments(poly, diagonals(poly))
    assert f_vector(segs).euler == euler_brute(segs)


def test_polygon_visits_leave_no_reference_cycle():
    gc.collect()
    gc.disable()
    try:
        for k in range(100):
            _visit(random_simple_polygon(5 + k % 5, k))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_chord_sets_outlive_their_polygon():
    poly = random_simple_polygon(8, 3)
    twin = diagonals(poly.rotated(0))  # same vertices, its own universe
    uni = universe_of(poly)
    assert uni.polygon is poly
    fam = diagonals(poly)
    assert "crossing_masks" not in vars(uni)  # built below, after the polygon is gone
    del poly
    gc.collect()
    assert uni.polygon is None
    assert f_vector(fam) == f_vector(twin)
    assert euler_brute(fam) == euler_brute(twin)
    assert list(iter_nc_masks(uni.crossing_masks, fam.mask)) == list(
        iter_nc_masks(twin.universe.crossing_masks, twin.mask)
    )


SRC = Path(chord_euler.__file__).parent
REPO = Path(__file__).resolve().parents[1]
# The routes into the library: the CLI, the demos and the benchmark.
ROUTES = (SRC / "cli.py", *sorted((REPO / "demos").glob("*.py")),
          *sorted((REPO / "perfbench").glob("*.py")))
# Exports that no route reaches yet, each with the ROADMAP item that gives it one.
AWAITING_ROUTE = {
    "chi_inclusion_exclusion": 19,  # verify lemmae
    "chi_removed_factorized": 19,
    "xi": 19,
    "is_heart": 5,  # verify hearts
    "find_heart": 5,
    "chi_point_family": 15,  # verify pointsets
    "hull_edge_in": 15,
}
# The module-level caches, (module, function), and the one per-n cap.
MODULE_CACHES = {("geometry", "_cached_slots"), ("chords", "_cached_chord_order")}
CACHE_MAKERS = ("lru_cache", "cache")
CAP = ("geometry", "SHARED_N")
# Outside chords, the functions that read ``ChordUniverse.crossing_masks``:
# none.  Within one kind the per-n interleaving masks are the crossings, and
# nc_euler straddle-tests every other family; the benchmark's setup and the
# tests read the per-polygon table.
CROSSING_MASK_READERS: set[tuple[str, str]] = set()
# Every private name that one module takes from another: (importer, owner, name).
PRIVATE_IMPORTS = {
    ("classes", "nc_euler", "_bits"),
    ("generators", "geometry", "_path_polygon"),
    ("generators", "geometry", "_slots_of"),
}


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _is_n(node: ast.AST) -> bool:
    # n itself, or an object's n (``poly.n``, ``self.n``).
    return _name(node) == "n" and not isinstance(node, ast.Call)


def test_module_caches_are_the_two_per_n_tables():
    # Every use of a cache maker decorates one of the two.
    decorated, uses = set(), 0
    for module, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                if any(_name(d) in CACHE_MAKERS for d in node.decorator_list):
                    decorated.add((module, node.name))
            elif isinstance(node, (ast.Name, ast.Attribute)):
                uses += _name(node) in CACHE_MAKERS
    assert decorated == MODULE_CACHES
    assert uses == len(MODULE_CACHES)


def test_one_cap_for_every_per_n_table():
    # A name that n is compared with is a cap, and so is a constant named
    # like one; the only one is SHARED_N, assigned once, in geometry.
    compared, assigned = set(), []
    for module, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare):
                sides = [node.left, *node.comparators]
                if any(map(_is_n, sides)):
                    compared |= {s.id for s in sides if isinstance(s, ast.Name) and s.id.isupper()}
            elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant):
                assigned += [(module, t.id) for t in node.targets
                             if isinstance(t, ast.Name) and t.id.endswith("_N")]
    assert compared == {CAP[1]}
    assert assigned == [CAP]


def test_private_names_cross_modules_only_where_listed():
    found = set()
    for module, tree in _modules().items():
        aliases = {}  # a sibling module's local name -> the module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        aliases[alias.asname or alias.name] = alias.name
                    elif alias.name.startswith("_"):
                        found.add((module, node.module, alias.name))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases and node.attr.startswith("_")):
                found.add((module, aliases[node.value.id], node.attr))
    assert found == PRIVATE_IMPORTS


class _Readers(ast.NodeVisitor):
    """The (module, innermost function) of each read of an attribute; None outside any."""

    def __init__(self, module: str, attr: str):
        self.module, self.attr, self.scope, self.found = module, attr, [None], set()

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Attribute(self, node):
        if node.attr == self.attr:
            self.found.add((self.module, self.scope[-1]))
        self.generic_visit(node)


def test_crossing_masks_are_read_only_by_nc_euler_chord_sets():
    found = set()
    for module, tree in _modules().items():
        if module != "chords":
            readers = _Readers(module, "crossing_masks")
            readers.visit(tree)
            found |= readers.found
    assert found == CROSSING_MASK_READERS


def _references(tree: ast.AST) -> tuple[set[str], set[str]]:
    """The names a tree refers to, and the prefixes of the names it builds.

    A name is an identifier, an attribute, an imported name or a string that
    is an identifier (the benchmark's tracer wraps functions by name).  A
    prefix is the constant head of an f-string passed to ``getattr``, as
    ``class_exemplar`` reaches the detectors by ``f"is_class{kind}"``.
    """
    names, prefixes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                names.add(node.value)
        elif isinstance(node, ast.Call) and _name(node) == "getattr" and len(node.args) == 2:
            built = node.args[1]
            if isinstance(built, ast.JoinedStr) and isinstance(built.values[0], ast.Constant):
                prefixes.add(built.values[0].value)
    return names, prefixes


def _reached() -> set[str]:
    """The package's top-level names that some route reaches, transitively."""
    defs: dict[str, list[ast.AST]] = {}
    for tree in _modules().values():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append(node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            defs.setdefault(name.id, []).append(node)
    reached: set[str] = set()
    pending = [ast.parse(path.read_text(encoding="utf-8")) for path in ROUTES]
    while pending:
        names, prefixes = _references(pending.pop())
        names |= {d for d in defs for p in prefixes if d.startswith(p)}
        for name in names - reached:
            reached.add(name)
            pending += defs.get(name, [])
    return reached


def test_every_export_is_reached_from_a_route():
    exports = {name for name in chord_euler.__all__
               if not inspect.ismodule(getattr(chord_euler, name))}
    assert exports - _reached() == set(AWAITING_ROUTE)
