import numpy as np
import pytest

from phylolattice import (
    NewickError,
    TaxaSet,
    Ultranetwork,
    is_ultranetwork,
    newick_from_ultranetwork,
    parse_newick,
    ultranetwork_from_newick,
)

from oracles import newick_by_block_split
from util import caterpillar_newick, random_ultrametric, taxa


def one(text):
    trees = parse_newick(text)
    assert len(trees) == 1
    return trees[0]


class TestParsing:
    def test_canonical_tree(self):
        u = ultranetwork_from_newick(one("((x:1,y:1):2,z:3);"))
        assert u.universe.labels == ("x", "y", "z")
        m = u.matrix
        assert m[0, 1] == 1.0
        assert m[0, 2] == 3.0 and m[1, 2] == 3.0
        assert not np.diag(m).any()

    def test_lengths_default_to_one(self):
        u = ultranetwork_from_newick(one("(x,y);"))
        assert u.matrix[0, 1] == 1.0
        assert u.matrix[0, 0] == 0.0

    def test_star_tree(self):
        u = ultranetwork_from_newick(one("(a:1,b:1,c:1);"))
        off = ~np.eye(3, dtype=bool)
        assert (u.matrix[off] == 1.0).all()

    def test_short_leaf_reads_as_late_observation(self):
        u = ultranetwork_from_newick(one("((x:1,y:1):1,z:1);"))
        z = u.universe.position("z")
        assert u.matrix[z, z] == 1.0
        assert u.matrix[0, 1] == 1.0
        assert u.matrix[0, z] == 2.0

    def test_ultrametrize_zeroes_the_diagonal(self):
        u = ultranetwork_from_newick(one("((x:1,y:1):1,z:1);"), ultrametrize=True)
        assert not np.diag(u.matrix).any()

    def test_quoted_names(self):
        t = one("('a b':1,'it''s':1);")
        assert t.leaf_names == ("a b", "it's")
        u = ultranetwork_from_newick(t)
        assert set(u.universe.labels) == {"a b", "it's"}

    def test_single_leaf(self):
        u = ultranetwork_from_newick(one("x;"))
        assert u.matrix.tolist() == [[0.0]]

    def test_inner_node_names_are_allowed(self):
        t = one("((x:1,y:1)anc:1,z:2)root;")
        assert t.root.name == "root"
        assert t.root.children[0].name == "anc"

    def test_one_tree_per_line(self):
        trees = parse_newick("(a,b);\n\n  \n(c,d);\n")
        assert [t.leaf_names for t in trees] == [("a", "b"), ("c", "d")]
        assert parse_newick("") == []


class TestParseErrors:
    def test_unbalanced(self):
        with pytest.raises(NewickError, match="never closed"):
            parse_newick("((a:1,b:2")

    def test_duplicate_leaf(self):
        with pytest.raises(NewickError, match="column 4: duplicate leaf name 'a'"):
            parse_newick("(a,a);")

    def test_duplicates_across_subtrees(self):
        with pytest.raises(NewickError, match="duplicate"):
            parse_newick("((a,b),(c,a));")

    def test_malformed_length(self):
        with pytest.raises(NewickError, match="malformed branch length"):
            parse_newick("(a:xyz,b:1);")

    def test_negative_length(self):
        with pytest.raises(NewickError, match="finite and nonnegative"):
            parse_newick("(a:-1,b:1);")

    def test_missing_semicolon(self):
        with pytest.raises(NewickError, match="expected ';'"):
            parse_newick("(a,b)")

    def test_trailing_characters(self):
        with pytest.raises(NewickError, match="trailing characters"):
            parse_newick("(a,b); junk")

    def test_unnamed_leaf(self):
        with pytest.raises(NewickError, match="leaf without a name"):
            parse_newick("(,b);")

    def test_unterminated_quote(self):
        with pytest.raises(NewickError, match="unterminated quoted name"):
            parse_newick("('oops:1,b:1);")

    def test_empty_quoted_name(self):
        with pytest.raises(NewickError, match="empty quoted name"):
            parse_newick("('':1,b:1);")

    def test_line_numbers(self):
        with pytest.raises(NewickError, match="line 2"):
            parse_newick("(a,b);\n(c,c);")


def preorder(tree):
    """(name, length) of every node of a parsed tree, in preorder."""
    out, stack = [], [tree.root]
    while stack:
        node = stack.pop()
        out.append((node.name, node.length))
        stack.extend(reversed(node.children))
    return out


# Every delimiter that can end an unquoted name or a branch length token:
# each of "():,;'", a space, a tab and the end of the text.
_DELIMITERS = ["(", ")", ":", ",", ";", "'", " ", "\t", ""]


class TestTokenDelimiters:
    @pytest.mark.parametrize(
        "text, nodes",
        [
            # names ending at ',', ')' and ';'
            ("(x,yy)r;", [("r", 1.0), ("x", 1.0), ("yy", 1.0)]),
            # names ending at ':', lengths ending at ',' and ')'
            ("(x:1,yy:2.5);", [(None, 1.0), ("x", 1.0), ("yy", 2.5)]),
            # names ending at a space and a tab
            ("(x ,yy\t)r ;", [("r", 1.0), ("x", 1.0), ("yy", 1.0)]),
            ("(x\t,yy )r\t;", [("r", 1.0), ("x", 1.0), ("yy", 1.0)]),
            # a length ending at ';'
            ("(x:0.25,y:2)r:3;", [("r", 3.0), ("x", 0.25), ("y", 2.0)]),
            # lengths ending at a space and a tab
            ("(x:1.5 ,y:2\t)r;", [("r", 1.0), ("x", 1.5), ("y", 2.0)]),
            ("(x:1e-3,y:1E2);", [(None, 1.0), ("x", 0.001), ("y", 100.0)]),
        ],
    )
    def test_values(self, text, nodes):
        assert preorder(one(text)) == nodes

    @pytest.mark.parametrize(
        "text, col, message",
        [
            # a name or a length ending at '(', "'", ':' or the end of the text
            ("(x(yy));", 3, "unbalanced parentheses: '(' never closed"),
            ("(x'q',yy);", 3, "unbalanced parentheses: '(' never closed"),
            ("x", 2, "expected ';' (end of input)"),
            ("(x:1:2,y);", 5, "unbalanced parentheses: '(' never closed"),
            ("(x:1(y));", 5, "unbalanced parentheses: '(' never closed"),
            ("(x:1'q',y);", 5, "unbalanced parentheses: '(' never closed"),
            ("(x,y):2", 8, "expected ';' (end of input)"),
            # malformed lengths, positioned at the token
            ("(x:,y);", 4, "malformed branch length ''"),
            ("(x: ,y);", 5, "malformed branch length ''"),
            ("(x:\t2x,y);", 5, "malformed branch length '2x'"),
            ("(x:nan,y);", 4, "branch length must be finite and nonnegative, got nan"),
            ("(x:1e400,y);", 4, "branch length must be finite and nonnegative, got 1e400"),
        ]
        + [
            ("(x:" + token + d + ("y);" if d else ""), 4, message)
            for d in _DELIMITERS
            for token, message in [
                ("1.2.3", "malformed branch length '1.2.3'"),
                ("-1", "branch length must be finite and nonnegative, got -1"),
                ("inf", "branch length must be finite and nonnegative, got inf"),
            ]
        ],
    )
    def test_errors(self, text, col, message):
        with pytest.raises(NewickError) as exc:
            parse_newick(text)
        assert str(exc.value) == f"line 1, column {col}: {message}"
        assert (exc.value.line, exc.value.col) == (1, col)


class TestDeepTrees:
    def test_caterpillar_of_1200_taxa(self):
        n = 1200
        tree = one(caterpillar_newick(n))
        assert tree.leaf_names == tuple(f"t{i:04d}" for i in range(n))
        u = ultranetwork_from_newick(tree)
        idx = np.arange(n)
        expect = np.maximum.outer(idx, idx).astype(float)
        np.fill_diagonal(expect, 0.0)
        expect[0, 1] = expect[1, 0] = 1.0
        assert np.array_equal(u.matrix, expect)
        again = ultranetwork_from_newick(one(newick_from_ultranetwork(u)))
        assert np.array_equal(again.matrix, u.matrix)

    def test_unclosed_deep_nesting_is_positioned(self):
        with pytest.raises(
            NewickError,
            match=r"^line 1, column 1500: unbalanced parentheses: "
            r"'\(' never closed \(end of input\)$",
        ):
            parse_newick("(" * 1500 + "a")

    def test_error_deep_inside_is_positioned(self):
        text = "(" * 1500 + "a,(b,a)" + ")" * 1500 + ";"
        with pytest.raises(NewickError, match=r"^line 1, column 1506: duplicate leaf"):
            parse_newick(text)


class TestWriter:
    def test_canonical_output(self):
        ts = TaxaSet(["x", "y", "z"])
        u = Ultranetwork(ts, [[0, 1, 3], [1, 0, 3], [3, 3, 0]])
        assert newick_from_ultranetwork(u) == "((x:1.0,y:1.0):2.0,z:3.0);"

    def test_matches_block_split_definition(self, rng):
        # children in order of their smallest taxon, whatever order the
        # linkage pass visited them in; ties and late observation included
        for k in range(300):
            ts = TaxaSet([f"x{i}" for i in rng.sample(range(50), 1 + k % 12)])
            u = random_ultrametric(ts, rng, late=k % 2 == 1)
            if k % 3 == 0:
                u = Ultranetwork(ts, np.round(u.matrix * 3))
            assert newick_from_ultranetwork(u) == newick_by_block_split(u)

    def test_round_trip(self, rng):
        for n in (2, 3, 5, 6):
            ts = taxa(n)
            for _ in range(10):
                u = random_ultrametric(ts, rng)
                back = ultranetwork_from_newick(
                    parse_newick(newick_from_ultranetwork(u))[0]
                )
                assert back.universe == u.universe
                assert is_ultranetwork(back)
                assert np.allclose(back.matrix, u.matrix, rtol=0, atol=1e-9)

    def test_round_trip_late_observation_loses_the_anchor(self, rng):
        # only height differences are written, so the matrix comes back
        # lowered by the earliest observation time
        for n in (2, 4, 6):
            ts = taxa(n)
            for _ in range(10):
                u = random_ultrametric(ts, rng, late=True)
                back = ultranetwork_from_newick(
                    parse_newick(newick_from_ultranetwork(u))[0]
                )
                shift = np.diag(u.matrix).min()
                assert is_ultranetwork(back)
                assert np.allclose(back.matrix, u.matrix - shift, rtol=0, atol=1e-9)

    def test_round_trip_late_observation_with_anchor(self):
        # one on-time taxon pins the heights; late diagonals survive
        ts = TaxaSet(["x", "y", "z"])
        u = Ultranetwork(ts, [[0, 1, 3], [1, 0.5, 3], [3, 3, 1.0]])
        back = ultranetwork_from_newick(parse_newick(newick_from_ultranetwork(u))[0])
        assert np.allclose(back.matrix, u.matrix, rtol=0, atol=1e-12)

    def test_names_needing_quotes_round_trip(self):
        ts = TaxaSet(["a b", "it's"])
        u = Ultranetwork(ts, [[0, 2], [2, 0]])
        text = newick_from_ultranetwork(u)
        assert "'it''s'" in text
        back = ultranetwork_from_newick(parse_newick(text)[0])
        assert back.universe == ts
        assert np.array_equal(back.matrix, u.matrix)
