import logging
import random
import re

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

from oracles import (
    newick_by_block_split,
    newick_by_linkage_runs,
    parse_newick_by_cursor,
    ultranetwork_by_node_walk,
)
from util import (
    ODD_LABELS,
    caterpillar_newick,
    random_names,
    random_newick,
    random_ultrametric,
    taxa,
)


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
        assert t.names == ["root", "anc", "x", "y", "z"]
        assert t.parents == [-1, 0, 1, 1, 0]

    def test_trees_compare_by_value(self):
        text = "((a:1,b)r:2,'c d');"
        assert one(text) == one(text)
        assert hash(one(text)) == hash(one(text))
        assert len({one(text), one(text)}) == 1
        for other in ["((a:1,b)r:2,'c e');", "((a:1,b):2,'c d');", "((a:1,b)r:3,'c d');", "((b:1,a)r:2,'c d');"]:
            assert one(other) != one(text)

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


class TestLineBreaks:
    """Lines end at '\\n', '\\r\\n' and '\\r' only, the breaks an editor shows."""

    @pytest.mark.parametrize("brk", ["\n", "\r\n", "\r"])
    def test_breaks(self, brk):
        with pytest.raises(NewickError, match=r"^line 3, column 4: duplicate leaf name 'c'$"):
            parse_newick(f"(a,b);{brk}{brk}(c,c);")

    def test_quoted_name_holds_other_separators(self):
        t = one("('a\x85b','c\u2028d',e\x0cf);")
        assert t.leaf_names == ("a\x85b", "c\u2028d", "e\x0cf")

    def test_line_number_after_a_paragraph_separator(self):
        with pytest.raises(NewickError) as exc:
            parse_newick("(a\u2028b,c);\n(d,d);")
        assert str(exc.value) == "line 2, column 4: duplicate leaf name 'd'"
        assert (exc.value.line, exc.value.col) == (2, 4)


class TestLogging:
    def test_debug_line(self, caplog):
        text = "((a:1,b:2)r:1,c);\n\n('é d',e);\n"
        with caplog.at_level(logging.DEBUG, logger="phylolattice.newick"):
            parse_newick(text)
        (record,) = [r for r in caplog.records if r.name == "phylolattice.newick"]
        assert record.levelno == logging.DEBUG
        stage, *pairs = record.getMessage().split()
        assert stage == "stage=parse_newick"
        fields = dict(p.split("=") for p in pairs)
        assert list(fields) == ["trees", "taxa", "bytes", "ms"]
        # 30 characters, and 'é' takes two bytes
        assert len(text) == 30
        assert (fields["trees"], fields["taxa"], fields["bytes"]) == ("2", "5", "31")
        assert float(fields["ms"]) >= 0

    def test_write_debug_line(self, caplog):
        u = Ultranetwork(TaxaSet(["x", "y", "é"]), [[0, 1, 3], [1, 0, 3], [3, 3, 0]])
        with caplog.at_level(logging.DEBUG, logger="phylolattice.newick"):
            text = newick_from_ultranetwork(u)
        # 26 characters, and 'é' takes two bytes
        assert text == "((x:1.0,y:1.0):2.0,é:3.0);"
        (record,) = [r for r in caplog.records if r.name == "phylolattice.newick"]
        assert record.levelno == logging.DEBUG
        stage, *pairs = record.getMessage().split()
        assert stage == "stage=write_newick"
        fields = dict(p.split("=") for p in pairs)
        assert list(fields) == ["taxa", "bytes", "ms"]
        assert (fields["taxa"], fields["bytes"]) == ("3", "27")
        assert float(fields["ms"]) >= 0

    def test_no_log_line_above_debug(self, caplog, rng):
        with caplog.at_level(logging.INFO, logger="phylolattice.newick"):
            parse_newick("(a,b);\n")
            newick_from_ultranetwork(random_ultrametric(taxa(5), rng, late=True))
        assert not [r for r in caplog.records if r.name == "phylolattice.newick"]


def preorder(tree):
    """(name, length) of every node of a parsed tree, in preorder."""
    return list(zip(tree.names, tree.lengths))


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
            # float() alone would read these as 10.0 and 1.0
            ("(x:1_0,y);", 4, "malformed branch length '1_0'"),
            ("(x,y)r: 1.0_0;", 9, "malformed branch length '1.0_0'"),
            # ... and these, with non-ASCII digits or other whitespace, as 1.0
            ("(x:\uff11,y);", 4, "malformed branch length '\uff11'"),
            ("(x:\u0661,y);", 4, "malformed branch length '\u0661'"),
            ("(x:1\x0c,y);", 4, "malformed branch length '1\\x0c'"),
            ("(x:\u20021,y);", 4, "malformed branch length '\\u20021'"),
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

    def test_matches_linkage_runs(self):
        # reader-built trees (leaf preorder linkage) and the same matrices
        # validated from scratch (Prim order from taxon 0): multifurcations,
        # tied and zero lengths, late observation and names needing quotes
        rng = random.Random(7)
        odd = ["a b", "it's", "(p)", "q:r", "s,t", "u;v", "w\tx"]
        for k in range(3000):
            n = 1 + k % 30
            names = random_names(rng, n)
            for i in rng.sample(range(n), min(n, k % 4)):
                name = rng.choice(odd) + names[i]
                names[i] = "'" + name.replace("'", "''") + "'"
            tree = parse_newick(random_newick(rng, names))[0]
            read = ultranetwork_from_newick(tree, ultrametrize=k % 5 == 0)
            for u in (read, Ultranetwork(read.universe, read.matrix)):
                assert newick_from_ultranetwork(u) == newick_by_linkage_runs(u), k

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

    def test_odd_names_round_trip(self):
        # the reader's universe is the sorted names
        names = [s for s in ODD_LABELS if "\n" not in s] + ["nul\x00", "vt\x0bab"]
        ts = TaxaSet(sorted(names))
        rng = random.Random(26)
        for _ in range(50):
            u = random_ultrametric(ts, rng)
            back = ultranetwork_from_newick(parse_newick(newick_from_ultranetwork(u))[0])
            assert back.universe == ts
            assert np.array_equal(back.matrix, u.matrix)

    @pytest.mark.parametrize("name", ["a\nb", "a\rb", "a\r\n", "\n"])
    def test_line_breaks_in_names_are_refused(self, name):
        u = Ultranetwork(TaxaSet([name, "c d", "e"]), [[0, 1, 2], [1, 0, 2], [2, 2, 0]])
        with pytest.raises(ValueError) as err:
            newick_from_ultranetwork(u)
        assert str(err.value) == f"taxon {name!r} holds a line break, which ends a Newick tree"


# The equivalence texts are ASCII and leave out '_' and every line
# separator but '\n', '\r\n' and '\r': the cursor parser keeps float()'s
# reading of '1_0', non-ASCII digits and surrounding whitespace, and
# str.splitlines' line breaks, which the scan refuses and does not cut at.
_INNER_NAMES = ["n1", "anc", "'in ner'", "'it''s'", "x3", "'('"]
_LINE_SEPARATORS = ["\n", "\r\n", "\r", "\n \n", "\n\t\r\n"]


def _decorate(rng, text):
    """The same tree with some leaves quoted, some inner nodes named and
    blanks between some tokens."""
    out = []
    for tok in re.findall(r"[(),:;]|[^(),:;]+", text):
        if tok.startswith("x") and rng.random() < 0.2:
            tok = f"'{tok}'"
        elif tok == ")" and rng.random() < 0.4:
            tok += rng.choice(_INNER_NAMES)
        out.append(tok)
        if rng.random() < 0.1:
            out.append(rng.choice([" ", "\t", "  "]))
    return "".join(out)


_BAD_LENGTHS = ["", " ", "-1", "-0.5", "abc", "1.2.3", "1e", "+", "inf", "nan", "1e400", "'q'", "("]
_STRAYS = list("(),:;' \t") + ["x", "''", "'ab"]


def _malformed(rng, text):
    """``text`` broken in one of the ways a Newick line can be."""
    kind = rng.randrange(10)
    at = rng.randrange(len(text) + 1)
    names = re.findall(r"x\d+", text)
    if kind == 0:  # truncation
        return text[:at]
    if kind == 1:  # a stray character: a parenthesis, a quote, a blank, ...
        return text[:at] + rng.choice(_STRAYS) + text[at:]
    if kind == 2:  # a character dropped
        return text[:at] + text[at + 1 :]
    if kind == 3:  # a bad, negative or empty length
        spans = [m.span() for m in re.finditer(r":[^(),:;]*", text)]
        if not spans:
            return text + ":" + rng.choice(_BAD_LENGTHS)
        a, b = rng.choice(spans)
        return text[:a] + ":" + rng.choice(_BAD_LENGTHS) + text[b:]
    if kind == 4:  # a duplicate leaf
        return text.replace(rng.choice(names), rng.choice(names), 1)
    if kind == 5:  # a name after a leaf
        name = rng.choice(names)
        return text.replace(name, name + rng.choice([" y", "'z'", " 'z'", "\ty"]), 1)
    if kind == 6:  # trailing text
        return text + rng.choice([" junk", ";", "(", "'", "x", "  ;", ")", ":1"])
    if kind == 7:  # an empty quoted name
        return text.replace(rng.choice(names), "''", 1)
    if kind == 8:  # an unterminated quoted name
        return text.replace(rng.choice(names), "'" + rng.choice(names), 1)
    # unbalanced parentheses: one dropped or doubled
    spans = [m.start() for m in re.finditer(r"[()]", text)] or [at]
    a = rng.choice(spans)
    return text[:a] + text[a : a + 1] * rng.randrange(0, 3, 2) + text[a + 1 :]


def _arrays(tree):
    """A tree as the scan stores it, flattened to preorder."""
    return tree.parents, tree.lengths, tree.names


def _outcome(parse, text):
    try:
        trees = parse(text)
    except NewickError as e:
        return type(e), str(e), e.line, e.col
    return list(map(_arrays, trees))


class TestScanEqualsTheCursorParser:
    """The token scan against the character-cursor parser it replaced
    (``oracles.parse_newick_by_cursor``)."""

    def test_trees_and_triples(self):
        rng = random.Random(22)
        for k in range(1200):
            text = _decorate(rng, random_newick(rng, random_names(rng, 1 + k % 14)))
            (tree,) = parse_newick(text)
            (ref,) = parse_newick_by_cursor(text)
            assert tree.leaf_names == ref.leaf_names
            assert _arrays(tree) == _arrays(ref), text
            ultrametrize = k % 2 == 0
            u = ultranetwork_from_newick(tree, ultrametrize=ultrametrize)
            r = ultranetwork_by_node_walk(ref, ultrametrize=ultrametrize)
            assert u.universe == r.universe
            for a, b in zip((*u.linkage, u.diagonal), (*r.linkage, r.diagonal)):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), text

    def test_documents(self):
        rng = random.Random(23)
        for k in range(200):
            lines = [_decorate(rng, random_newick(rng, random_names(rng, 1 + k % 6))) for _ in range(3)]
            text = "".join(line + rng.choice(_LINE_SEPARATORS) for line in lines)
            assert _outcome(parse_newick, text) == _outcome(parse_newick_by_cursor, text)

    def test_malformed_lines(self):
        rng = random.Random(24)
        errors = 0
        for _ in range(8000):
            lines = [_decorate(rng, random_newick(rng, random_names(rng, rng.randint(1, 8))))
                     for _ in range(rng.randint(1, 3))]
            lines[-1] = _malformed(rng, lines[-1])
            text = "".join(line + rng.choice(_LINE_SEPARATORS) for line in lines)
            got = _outcome(parse_newick, text)
            assert got == _outcome(parse_newick_by_cursor, text), repr(text)
            errors += isinstance(got, tuple)
        assert errors >= 5000

    def test_quote_dense_lines(self):
        # runs of quotes, odd and even, closed and unclosed, among the
        # other tokens
        pieces = ["'", "''", "'" * 3, "a", "b'", "(", ")", ",", ":1", ";", " "]
        rng = random.Random(25)
        for _ in range(3000):
            text = "".join(rng.choice(pieces) for _ in range(rng.randint(1, 14)))
            assert _outcome(parse_newick, text) == _outcome(parse_newick_by_cursor, text), repr(text)
