"""The library needs numpy only: importing it loads no scipy, and its
modules import no third-party package that pyproject.toml does not list
as a dependency.  scipy serves the test oracles alone."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "phylolattice"


def test_import_loads_no_scipy():
    code = (
        "import sys, phylolattice\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


def _top_level_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_third_party_imports_are_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", d).group().lower() for d in project["dependencies"]}
    assert declared == {"numpy"}
    imported = {
        name
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _top_level_imports(path)
        if name not in sys.stdlib_module_names
    }
    assert imported <= declared, f"undeclared imports: {sorted(imported - declared)}"
