"""Library functions do not call themselves: Python's recursion limit
would refuse valid input once its depth grows with the input's size.
The allow-list names the recursions whose depth the input cannot drive
up, each with its reason."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "phylolattice"

ALLOWED = {
    # depth is the nesting of PullbackFiltration objects, not the taxa count
    "grams.facegram_from_filtration",
    # brute-force searches behind _guard, for tiny inputs only
    "metrics._row_subset_correspondences.rec",
    "metrics.gromov_hausdorff_bruteforce.rec",
}


def _self_calls(module: str, node: ast.AST, prefix: str = ""):
    """Qualified names of the functions under ``node`` that call themselves
    by name (``f(...)``, or ``self.f(...)`` / ``cls.f(...)`` in a method)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{prefix}{child.name}"
            for call in ast.walk(child):
                if not isinstance(call, ast.Call):
                    continue
                f = call.func
                by_name = isinstance(f, ast.Name) and f.id == child.name
                by_method = (
                    isinstance(f, ast.Attribute)
                    and f.attr == child.name
                    and isinstance(f.value, ast.Name)
                    and f.value.id in ("self", "cls")
                )
                if by_name or by_method:
                    yield f"{module}.{name}"
                    break
            yield from _self_calls(module, child, f"{name}.")
        elif isinstance(child, ast.ClassDef):
            yield from _self_calls(module, child, f"{prefix}{child.name}.")
        else:
            yield from _self_calls(module, child, prefix)


def test_library_has_no_unlisted_recursion():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = set()
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.update(_self_calls(path.stem, tree))
    assert not found - ALLOWED, f"recursive functions in the library: {sorted(found - ALLOWED)}"
    assert not ALLOWED - found, f"stale allow-list entries: {sorted(ALLOWED - found)}"
