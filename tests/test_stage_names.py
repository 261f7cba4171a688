"""README's list of DEBUG stages names exactly the stages the library logs."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_logged_stages_are_the_readme_stages():
    logged = {
        name
        for path in (ROOT / "src" / "phylolattice").rglob("*.py")
        for name in re.findall(r'"stage=(\w+) ', path.read_text(encoding="utf-8"))
    }
    listed = set(re.findall(r"`stage=(\w+) ", (ROOT / "README.md").read_text(encoding="utf-8")))
    assert logged == listed
    assert len(logged) >= 10, sorted(logged)
