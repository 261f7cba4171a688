"""The tree layer reads a Newick tree as its dendrogram: the leaf
preorder, the heights of adjacent leaves' lowest common ancestors, and
the leaf heights.  The matrix is a view built on first read; the LCA
rectangle builder ``ultranetwork_by_lca_matrix`` is its reference."""

import ast
import logging
import random
from pathlib import Path

import numpy as np
import pytest

from phylolattice import (
    NetworkValidationError,
    TaxaSet,
    Ultranetwork,
    join_mergegram_of_treegrams,
    newick_from_ultranetwork,
    parse_newick,
    ph0_elder,
    treegram_from_ultranetwork,
    ultranetwork_from_newick,
)
from phylolattice.cli import run

from oracles import join_mergegram_by_matrix, ultranetwork_by_lca_matrix
from util import random_names, random_newick

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "phylolattice"



class TestTriple:
    def test_matrix_view_equals_the_lca_matrix(self):
        rng = random.Random(16)
        for k in range(1200):
            text = random_newick(rng, random_names(rng, 1 + k % 14))
            (tree,) = parse_newick(text)
            ultrametrize = k % 3 == 0
            u = ultranetwork_from_newick(tree, ultrametrize=ultrametrize)
            ref = ultranetwork_by_lca_matrix(tree, ultrametrize=ultrametrize)
            assert u.universe == ref.universe
            assert u.matrix.tobytes() == ref.matrix.tobytes(), text
            assert u.diagonal.tobytes() == np.diag(ref.matrix).tobytes()
            preorder = [u.universe.position(name) for name in tree.leaf_names]
            assert u.linkage[0].tolist() == preorder

    @pytest.mark.parametrize("ultrametrize", [False, True])
    def test_one_leaf_tree(self, ultrametrize):
        (tree,) = parse_newick("x:2;")
        u = ultranetwork_from_newick(tree, ultrametrize=ultrametrize)
        assert u.linkage[0].tolist() == [0] and len(u.linkage[1]) == 0
        assert u.matrix.tobytes() == ultranetwork_by_lca_matrix(tree, ultrametrize).matrix.tobytes()
        assert u.matrix.tolist() == [[0.0]]

    def test_late_observation_on_the_diagonal(self):
        (tree,) = parse_newick("((x:1,y:1):1,(z:0.5,w)q:0);")
        u = ultranetwork_from_newick(tree)
        assert u.diagonal.tolist() == [1.0, 0.0, 0.0, 1.5]  # w, x, y, z
        assert u.matrix.tobytes() == ultranetwork_by_lca_matrix(tree).matrix.tobytes()

    def test_views_compare_and_hash_like_matrices(self):
        rng = random.Random(3)
        for _ in range(50):
            (tree,) = parse_newick(random_newick(rng, random_names(rng, 6)))
            u, ref = ultranetwork_from_newick(tree), ultranetwork_by_lca_matrix(tree)
            assert u == ref and hash(u) == hash(ref)

    def test_treegram_and_ph0_equal_the_matrix_route(self):
        rng = random.Random(5)
        for k in range(200):
            (tree,) = parse_newick(random_newick(rng, random_names(rng, 1 + k % 10)))
            ultrametrize = k % 2 == 0
            u = ultranetwork_from_newick(tree, ultrametrize=ultrametrize)
            ref = ultranetwork_by_lca_matrix(tree, ultrametrize=ultrametrize)
            assert treegram_from_ultranetwork(u) == treegram_from_ultranetwork(ref)
            if ultrametrize:
                assert ph0_elder(u) == ph0_elder(ref)


class TestTripleCheck:
    def _u(self, order, joins, diagonal):
        return Ultranetwork._from_linkage(TaxaSet("abc"), order, joins, diagonal)

    def test_valid_triple(self):
        u = self._u([2, 0, 1], [3.0, 1.0], [0.0, 0.5, 0.0])
        assert u.matrix.tolist() == [[0.0, 1.0, 3.0], [1.0, 0.5, 3.0], [3.0, 3.0, 0.0]]
        assert u == Ultranetwork(u.universe, u.matrix)
        with pytest.raises(AttributeError, match="has no attribute 'cache'"):
            u.cache

    @pytest.mark.parametrize(
        "order, joins, diagonal, message",
        [
            ([0, 1], [1.0, 1.0], [0.0] * 3, "linkage shapes (2,), (2,), (3,) do not match 3 taxa"),
            ([0, 1, 1], [1.0, 1.0], [0.0] * 3, "linkage order is not a permutation of the taxa"),
            ([0, 1, 3], [1.0, 1.0], [0.0] * 3, "linkage order is not a permutation of the taxa"),
            ([0, -1, 2], [1.0, 1.0], [0.0] * 3, "linkage order is not a permutation of the taxa"),
            ([2, 0, 1], [np.nan, 1.0], [0.0] * 3, "non-finite entry at (c,a)"),
            ([2, 0, 1], [1.0, 1.0], [0.0, np.inf, 0.0], "non-finite entry at (b,b)"),
            ([2, 0, 1], [1.0, 1.0], [0.0, 2.0, 0.0],
             "diagonal exceeds entry at (a,b): max(0.0,2.0) > 1.0"),
        ],
    )
    def test_bad_triples_are_refused(self, order, joins, diagonal, message):
        with pytest.raises(NetworkValidationError) as err:
            self._u(order, joins, diagonal)
        assert err.value.violations[0] == message


def _families(seed: int, count: int):
    rng = random.Random(seed)
    for k in range(count):
        names = random_names(rng, 1 + k % 9)
        yield [parse_newick(random_newick(rng, names))[0] for _ in range(1 + k % 5)]


class TestFastJoin:
    def test_labeled_mergegrams_equal_the_matrix_oracle(self):
        for trees in _families(17, 320):
            got = join_mergegram_of_treegrams([ultranetwork_from_newick(t) for t in trees])
            refs = [ultranetwork_by_lca_matrix(t) for t in trees]
            assert got == join_mergegram_by_matrix(refs)
            # the matrix route's Prim order finds the same faces
            assert got == join_mergegram_of_treegrams(refs)

    def test_newick_round_trips(self):
        rng = random.Random(11)
        for k in range(300):
            (tree,) = parse_newick(random_newick(rng, random_names(rng, 1 + k % 12)))
            u = ultranetwork_from_newick(tree)
            text = newick_from_ultranetwork(u)
            assert text == newick_from_ultranetwork(ultranetwork_by_lca_matrix(tree))
            back = ultranetwork_from_newick(parse_newick(text)[0])
            # the deepest leaf is on time, so nothing is lost but rounding
            assert np.allclose(back.matrix, u.matrix, rtol=0, atol=1e-9)


class TestOverflow:
    TEXT = "(a:1e308,(b:1e308,c:1e308):1e308);"

    def test_overflowing_depth_is_a_value_error(self):
        (tree,) = parse_newick(self.TEXT)
        with pytest.raises(ValueError, match="non-finite entry"):
            ultranetwork_from_newick(tree)
        with pytest.raises(ValueError, match="non-finite entry"):
            ultranetwork_by_lca_matrix(tree)

    @pytest.mark.parametrize("argv", [["mergegram", "--in"], ["join", "--trees"], ["validate"]])
    def test_cli_exits_1(self, tmp_path, capsys, argv):
        path = tmp_path / "deep.nwk"
        path.write_text(self.TEXT + "\n")
        assert run([*argv, str(path)]) == 1
        out = capsys.readouterr()
        assert out.err.startswith("error: invalid network:") and "Traceback" not in out.err


class TestLogging:
    def _stages(self, caplog):
        return [r.getMessage().split()[0] for r in caplog.records]

    def test_debug_lines(self, caplog):
        (tree,) = parse_newick("((x:1,y:1):2,z:3);")
        with caplog.at_level(logging.DEBUG, logger="phylolattice"):
            u = ultranetwork_from_newick(tree)
            u.matrix
            u.matrix
        records = [r for r in caplog.records if r.name.startswith("phylolattice")]
        assert [(r.name, r.levelno) for r in records] == [
            ("phylolattice.newick", logging.DEBUG),
            ("phylolattice.networks", logging.DEBUG),
        ]
        for record, stage in zip(records, ["stage=newick", "stage=matrix"]):
            first, *pairs = record.getMessage().split()
            assert first == stage
            fields = dict(p.split("=") for p in pairs)
            assert list(fields) == ["taxa", "ms"]
            assert fields["taxa"] == "3" and float(fields["ms"]) >= 0

    def test_tree_readers_build_no_matrix(self, caplog):
        rng = random.Random(2)
        texts = [random_newick(rng, [f"t{i}" for i in range(12)]) for _ in range(4)]
        with caplog.at_level(logging.DEBUG, logger="phylolattice"):
            ultras = [ultranetwork_from_newick(parse_newick(t)[0]) for t in texts]
            join_mergegram_of_treegrams(ultras)
            for u in ultras:
                treegram_from_ultranetwork(u)
                newick_from_ultranetwork(u)
            ph0_elder(ultranetwork_from_newick(parse_newick(texts[0])[0], ultrametrize=True))
        assert "stage=matrix" not in self._stages(caplog)
        assert self._stages(caplog).count("stage=newick") == 5

    def test_matrix_route_logs_no_view(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="phylolattice"):
            Ultranetwork(TaxaSet("ab"), [[0, 1], [1, 0]]).matrix
        assert not caplog.records


# the readers that must take the diagonal and the linkage, never the matrix
_MATRIX_FREE = {
    "mergegram.py": ("join_mergegram_of_treegrams", "ph0_elder"),
    "grams.py": ("_tree_events",),
    "newick.py": ("newick_from_ultranetwork",),
}


def _matrix_reads(fn: ast.FunctionDef):
    return [
        f"{fn.name}:{node.lineno} .matrix"
        for node in ast.walk(fn)
        if isinstance(node, ast.Attribute) and node.attr == "matrix"
    ]


def _functions(path: Path, names):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name in names]
    assert sorted(f.name for f in found) == sorted(names)
    return found


def test_tree_readers_read_no_matrix():
    found = [
        r
        for module, names in _MATRIX_FREE.items()
        for fn in _functions(PACKAGE / module, names)
        for r in _matrix_reads(fn)
    ]
    assert not found, f"matrix reads on the tree path: {found}"


def test_the_scan_sees_the_oracles_matrix_reads():
    (fn,) = _functions(ROOT / "tests" / "oracles.py", ("join_mergegram_by_matrix",))
    assert _matrix_reads(fn)


# the character-cursor parser's names, which only its oracle may hold
_CURSOR_NAMES = {"_Cursor", "peek"}


def _cursor_names(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if getattr(node, "name", None) in _CURSOR_NAMES
        or getattr(node, "id", None) in _CURSOR_NAMES
        or getattr(node, "attr", None) in _CURSOR_NAMES
    ]


def test_no_cursor_is_left_in_the_library():
    found = [hit for path in sorted(PACKAGE.rglob("*.py")) for hit in _cursor_names(path)]
    assert not found, f"cursor parser names in the library: {found}"


def test_the_guard_sees_the_oracles_cursor():
    assert _cursor_names(ROOT / "tests" / "oracles.py")


def caterpillar_family(rng: random.Random, names, trees: int) -> str:
    """Caterpillars over shuffled taxa: ``names[k]`` joins at height h_k,
    with steps of 0 to 2, so some joins tie."""
    lines = []
    for _ in range(trees):
        names = rng.sample(names, len(names))
        h = [0]
        for _ in range(1, len(names)):
            h.append(h[-1] + rng.randint(0, 2))
        parts = ["(" * (len(names) - 1), f"{names[0]}:{h[1]}"]
        for k in range(1, len(names)):
            parts.append(f",{names[k]}:{h[k]})")
            if k < len(names) - 1:
                parts.append(f":{h[k + 1] - h[k]}")
        lines.append("".join(parts) + ";")
    return "\n".join(lines) + "\n"


def balanced_family(rng: random.Random, names, trees: int) -> str:
    """Balanced binary trees over shuffled taxa, merging neighbours level
    by level, each merge 1 to 3 above its higher child."""
    lines = []
    for _ in range(trees):
        nodes = [(name, 0) for name in rng.sample(names, len(names))]
        while len(nodes) > 1:
            nxt = []
            for (a, ha), (b, hb) in zip(nodes[::2], nodes[1::2]):
                h = max(ha, hb) + rng.randint(1, 3)
                nxt.append((f"({a}:{h - ha},{b}:{h - hb})", h))
            if len(nodes) % 2:
                nxt.append(nodes[-1])
            nodes = nxt
        lines.append(nodes[0][0] + ";")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("family", [caterpillar_family, balanced_family])
def test_cli_mergegram_of_ten_thousand_taxa(tmp_path, caplog, family):
    names = [f"t{i:05d}" for i in range(10_000)]
    path = tmp_path / "trees.nwk"
    path.write_text(family(random.Random(10_000), names, 8))
    out = tmp_path / "mg.json"
    with caplog.at_level(logging.DEBUG, logger="phylolattice"):
        assert run(["mergegram", "--in", str(path), "-o", str(out)]) == 0
    stages = [r.getMessage().split()[0] for r in caplog.records]
    assert stages.count("stage=newick") == 8 and "stage=fast_join" in stages
    assert "stage=matrix" not in stages
    assert '"type": "mergegram"' in out.read_text()
