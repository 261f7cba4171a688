"""The gram builders hand over (t, born, dying) events, so a level list
becomes events in one place: the sweep's level adapter
(``_AntichainSweep.step_level``), which only the JSON parser and the
face-set constructor ``Gram(universe, [(t, FaceSet)], kind)`` call.  The
level-list builders are references in ``tests/oracles.py``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "phylolattice"
ADAPTER = "step_level"
# the level-list route that the events replaced
GONE = ("_of_masks", "_tree_levels", "_clique_levels", "_faceset_events")


def _adapter_callers(path: Path):
    """Qualified names of the functions of ``path`` that call the adapter."""
    out = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope += (node.name,)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == ADAPTER
        ):
            out.add(".".join((path.stem,) + scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), ())
    return out


def test_only_the_parser_and_the_constructor_list_levels():
    callers = set().union(*(_adapter_callers(p) for p in sorted(PACKAGE.rglob("*.py"))))
    assert callers == {"formats.parse_gram_json", "grams.Gram.__init__"}


def test_the_scan_sees_an_adapter_call():
    assert _adapter_callers(ROOT / "tests" / "test_grams.py") == {"test_grams._by_level_adapter"}


def test_no_level_list_route_is_left():
    found = [
        f"{path.name}: {name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for name in GONE
        if name in path.read_text(encoding="utf-8")
    ]
    assert not found, f"level-list builders in the library: {found}"
