"""Where the library reads coordinates.

Geometry enters once, as orientation tables.  Past the scalar layer only a
few places may read a coordinate or call a coordinate predicate: the
generators, which place points, and the CLI's JSON and SVG output.  Every
module is scanned.
"""

import ast
from pathlib import Path

import chord_euler

SRC = Path(chord_euler.__file__).parent
PREDICATES = {"orientation", "cross"}
# Per module, the top-level definitions allowed to read coordinates; None
# allows the whole module.
ALLOWED = {
    "geometry": {"Point", "cross", "orientation", "orientation_table"},
    "generators": None,
    "cli": {"polygon_to_json", "render_svg"},
}


def _reads(node: ast.AST) -> bool:
    """Whether the node reads a coordinate or calls a coordinate predicate."""
    if isinstance(node, ast.Attribute) and node.attr in ("x", "y"):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute):
            return func.attr in PREDICATES or func.attr == "sign"
        return isinstance(func, ast.Name) and func.id in PREDICATES
    return False


def _coordinate_reads() -> set[tuple[str, str]]:
    """(module, top-level definition) of every coordinate read in the package."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            scope = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if _reads(node):
                    found.add((module, scope))
    return found


def test_coordinates_are_read_only_where_allowed():
    outside = {
        (module, scope) for module, scope in _coordinate_reads()
        if module not in ALLOWED or ALLOWED[module] is not None and scope not in ALLOWED[module]
    }
    assert not outside, sorted(outside)


def test_the_scan_sees_the_allowed_reads():
    # The scan finds every place it allows, so finding nothing elsewhere
    # means something.
    found = _coordinate_reads()
    for module, scopes in ALLOWED.items():
        if scopes is None:
            assert any(m == module for m, _ in found), module
        else:
            assert {(module, s) for s in scopes} <= found, module
