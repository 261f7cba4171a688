"""Library code reads grams and labeled mergegrams through their
lifespans.  ``Gram.level_at`` and ``LabeledMergegram.alive_at`` each
rebuild a level, so a loop over critical values that calls them rebuilds
a level per value; they stay public readers, and the slow reference paths
in ``tests/oracles.py`` use them.  A gram's ``levels`` is a view built on
its first read, so only the writers that print every level read it: the
gram JSON writer, the face-Reeb graph, and the gram's own ``__repr__`` and
``level_at``.  The builders, the parser, the covering times and the
metrics read no ``.levels`` at all: the level bisect is the oracle
``cover_time_by_levels``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "phylolattice"
LEVELWISE = ("level_at", "alive_at")


def _levelwise_calls(path: Path):
    """``file:line .name(`` for every call of a levelwise reader in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in LEVELWISE
        ):
            yield f"{path.name}:{node.lineno} .{node.func.attr}("


def test_library_calls_no_levelwise_reader():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [c for path in modules for c in _levelwise_calls(path)]
    assert not found, f"levelwise reads in the library: {found}"


def test_the_scan_sees_the_oracles_calls():
    found = list(_levelwise_calls(ROOT / "tests" / "oracles.py"))
    assert {c.rsplit(" ", 1)[1] for c in found} == {".level_at(", ".alive_at("}


def _reads_levels(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "levels"
        and isinstance(node.ctx, ast.Load)
    )


def _levels_reads(name: str, tree: ast.AST):
    """``file:line .levels`` for every read of a ``.levels`` attribute."""
    for node in ast.walk(tree):
        if _reads_levels(node):
            yield f"{name}:{node.lineno} .levels"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_modules_that_read_no_levels():
    found = [
        r
        for name in ("cli.py", "experiments.py", "filtrations.py", "mergegram.py", "metrics.py")
        for r in _levels_reads(name, _parse(PACKAGE / name))
    ]
    assert not found, f"level reads: {found}"


def _readers(path: Path):
    """Qualified names of the functions of ``path`` that read ``.levels``."""
    out = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope += (node.name,)
        elif _reads_levels(node):
            out.add(".".join((path.stem,) + scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(_parse(path), ())
    return out


def test_only_the_level_writers_read_the_view():
    # so the builders, the joins and parse_gram_json read none
    readers = set().union(*(_readers(path) for path in sorted(PACKAGE.rglob("*.py"))))
    assert readers == {
        "formats.gram_json",
        "reeb.face_reeb_graph",
        "grams.Gram.__repr__",
        "grams.Gram.level_at",
    }


def test_the_scan_sees_the_level_bisect():
    (bisect,) = [
        node
        for node in _parse(ROOT / "tests" / "oracles.py").body
        if isinstance(node, ast.FunctionDef) and node.name == "cover_time_by_levels"
    ]
    assert list(_levels_reads("oracles.py", bisect))
