import json
import logging
import math
import random
import re
from xml.dom import minidom

import numpy as np
import pytest

from phylolattice import (
    FaceSet,
    Gram,
    Interval,
    LabeledMergegram,
    Mergegram,
    PersistenceDiagram,
    cliquegram_from_network,
    diagram_svg,
    face_reeb_graph,
    gram_json,
    labeled_mergegram,
    labeled_mergegram_json,
    line_plot_svg,
    mergegram,
    mergegram_json,
    parse_gram_json,
    parse_matrix_csv,
    parse_mergegram_json,
    reeb_dot,
    serialize_matrix_csv,
    TaxaSet,
    join_grams,
    treegram_from_ultranetwork,
)
from phylolattice.formats import read_number

from oracles import (
    gram_json_by_dumps,
    labeled_mergegram_json_by_dumps,
    reeb_dot_by_names_of,
)
from util import ODD_LABELS, random_network, random_ultrametric, taxa


def _odd_universe(n):
    return TaxaSet(ODD_LABELS[:n])


def _grams_of_every_kind(rng):
    for k in range(30):
        ts = taxa(1 + k % 6) if k % 2 else _odd_universe(1 + k % 7)
        net = random_network(ts, rng, late=k % 3 == 0)
        trees = [
            treegram_from_ultranetwork(random_ultrametric(ts, rng, late=k % 4 == 0))
            for _ in range(2)
        ]
        yield cliquegram_from_network(net)
        yield trees[0]
        yield join_grams(trees, "facegram")

INF = math.inf


class TestMatrixCSV:
    def test_round_trip(self, rng):
        for _ in range(10):
            net = random_network(taxa(5), rng, late=True)
            back = parse_matrix_csv(serialize_matrix_csv(net))
            assert back.universe == net.universe
            assert np.array_equal(back.matrix, net.matrix)

    def test_serialization_is_canonical(self, rng):
        net = random_network(taxa(3), rng)
        assert serialize_matrix_csv(net) == serialize_matrix_csv(
            parse_matrix_csv(serialize_matrix_csv(net))
        )

    def test_quoted_labels(self):
        text = '"x,1","y 2"\n0,3\n3,0\n'
        net = parse_matrix_csv(text)
        assert net.universe.labels == ("x,1", "y 2")
        assert "x,1" in serialize_matrix_csv(net)

    def test_empty_document(self):
        with pytest.raises(ValueError, match="empty matrix document"):
            parse_matrix_csv("\n  \n")

    def test_row_count(self):
        with pytest.raises(ValueError, match="expected 2 data rows"):
            parse_matrix_csv("a,b\n0,1\n")

    def test_cell_count(self):
        with pytest.raises(ValueError, match="row 3 has 3 cells, expected 2"):
            parse_matrix_csv("a,b\n0,1\n1,0,9\n")

    def test_non_numeric_cell(self):
        with pytest.raises(ValueError, match="row 2, column 2: 'oops'"):
            parse_matrix_csv("a,b\n0,oops\n1,0\n")

    # float() alone would read these as 10.0 and 1.0
    @pytest.mark.parametrize("cell", ["1_0", "\uff11", "\u0661", "1\x0c", "\u00a01"])
    def test_number_not_in_ascii_is_not_numeric(self, cell):
        message = f"non-numeric cell at row 2, column 2: {cell!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_matrix_csv(f"a,b\n0,{cell}\n1,0\n")

    def test_blanks_around_a_cell(self):
        net = parse_matrix_csv("a,b\n0, 1.5\t\n 1.5 ,0\n")
        assert net.matrix[0, 1] == net.matrix[1, 0] == 1.5

    def test_network_rules_still_apply(self):
        with pytest.raises(ValueError, match="asymmetric"):
            parse_matrix_csv("a,b\n0,1\n2,0\n")


class TestGramJSON:
    def test_round_trip(self, rng):
        for _ in range(10):
            g = cliquegram_from_network(random_network(taxa(5), rng, late=True))
            back = parse_gram_json(gram_json(g))
            assert back == g
            assert back.kind == g.kind

    def test_byte_identical_round_trip(self, rng):
        g = treegram_from_ultranetwork(random_ultrametric(taxa(4), rng))
        text = gram_json(g)
        assert gram_json(parse_gram_json(text)) == text

    def test_schema_violations(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            parse_gram_json("{nope")
        with pytest.raises(ValueError, match="top level"):
            parse_gram_json("[1]")
        with pytest.raises(ValueError, match='"format"'):
            parse_gram_json('{"type": "gram"}')
        with pytest.raises(ValueError, match='"type"'):
            parse_gram_json('{"format": "phylolattice/1", "type": "matrix"}')
        doc = '{"format": "phylolattice/1", "type": "gram", "kind": "heap", "taxa": ["a"], "levels": []}'
        with pytest.raises(ValueError, match="unknown gram kind"):
            parse_gram_json(doc)
        doc = '{"format": "phylolattice/1", "type": "gram", "kind": "facegram", "taxa": [1], "levels": []}'
        with pytest.raises(ValueError, match="list of strings"):
            parse_gram_json(doc)
        doc = '{"format": "phylolattice/1", "type": "gram", "kind": "facegram", "taxa": ["a"], "levels": [{"t": 0}]}'
        with pytest.raises(ValueError, match='needs "t" and "faces"'):
            parse_gram_json(doc)

    def test_writer_matches_json_dumps(self, rng):
        kinds = set()
        for g in _grams_of_every_kind(rng):
            kinds.add(g.kind)
            assert gram_json(g) == gram_json_by_dumps(g)
        assert kinds == {"cliquegram", "treegram", "facegram"}

    def test_writer_on_odd_levels_and_values(self):
        ts = _odd_universe(3)
        a, b, c = 1, 2, 4
        levels = [
            (-0.0, FaceSet(ts, ())),  # an empty level
            (1e-300, FaceSet(ts, [a, b])),
            (1.0, FaceSet(ts, [a | b, c])),
            (1e20, FaceSet(ts, [a | b | c])),
        ]
        for kind in ("facegram", "treegram"):
            g = Gram(ts, levels, kind)
            text = gram_json(g)
            assert text == gram_json_by_dumps(g)
            assert '"t": -0.0' in text and '"t": 1e+20' in text and '"faces": []' in text
            assert parse_gram_json(text) == g

    @pytest.mark.parametrize(
        "levels, message",
        [
            (5, '"levels" must be a list'),
            ({"t": 0}, '"levels" must be a list'),
            ([{"t": 0, "faces": [["a", "b"]]}, {"t": [1], "faces": []}],
             'level 1: "t" must be a number, got [1]'),
            ([{"t": True, "faces": [["a", "b"]]}], 'level 0: "t" must be a number, got True'),
            ([{"t": "x", "faces": [["a", "b"]]}], "level 0: \"t\" must be a number, got 'x'"),
            ([{"t": None, "faces": [["a", "b"]]}], 'level 0: "t" must be a number, got None'),
            ([{"t": 10**400, "faces": [["a", "b"]]}], "level 0: int too large to convert to float"),
            ([{"t": 0, "faces": [["a"]]}, {"t": 1, "faces": [["a", "z"]]}],
             "level 1: unknown taxon 'z'"),
            ([{"t": 0, "faces": [["a"]]}, {"t": 1, "faces": 5}],
             "level 1: 'int' object is not iterable"),
            # text is no list of names: "ab" is not the face {a, b}
            ([{"t": 0, "faces": ["ab"]}],
             "level 0: a face must be a list of taxon names, got 'ab'"),
            ([{"t": 0, "faces": ["a", "b"]}, {"t": 1, "faces": [["a", "b"]]}],
             "level 0: a face must be a list of taxon names, got 'a'"),
            ([{"t": 0, "faces": [["a"]]}, {"t": 1, "faces": [{"a": 1, "b": 2}]}],
             "level 1: a face must be a list of taxon names, got {'a': 1, 'b': 2}"),
            ([{"t": 0, "faces": "ab"}], "level 0: a face must be a list of taxon names, got 'a'"),
            ([{"t": 0, "faces": [["a"]]}, {"t": math.inf, "faces": [["a", "b"]]}],
             "level 1: critical values must be finite"),
            ([{"t": math.nan, "faces": [["a", "b"]]}], "level 0: critical values must be finite"),
            ([{"t": 1, "faces": [["a"]]}, {"t": 1, "faces": [["a", "b"]]}],
             "level 1: critical values must be strictly increasing"),
            ([{"t": 0, "faces": [["a"]]}, {"t": 1}], 'level 1: each level needs "t" and "faces"'),
            ([{"t": 0, "faces": [["a"]]}, 7], 'level 1: each level needs "t" and "faces"'),
            # a name list is checked once, on the document's first use of it
            ([{"t": 0, "faces": [["a"], ["b"]]}, {"t": 1, "faces": [["b", "a", "b"]]}],
             "level 1: face ['b', 'a', 'b'] names taxon 'b' twice"),
        ],
    )
    def test_level_errors_are_positioned(self, levels, message):
        doc = json.dumps(
            {
                "format": "phylolattice/1",
                "type": "gram",
                "kind": "facegram",
                "taxa": ["a", "b"],
                "levels": levels,
            }
        )
        with pytest.raises(ValueError) as err:
            parse_gram_json(doc)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "faces, error, message",
        [
            ([["z"]], KeyError, "\"unknown taxon 'z'\""),
            ([1], TypeError, "'int' object is not iterable"),
            (5, TypeError, "'int' object is not iterable"),
            ([[["a"]]], TypeError, "unhashable type: 'list'"),
            ([["a"], ["a"]], ValueError, "duplicate face 0b1"),
            ([["a"], ["a", "b"]], ValueError, "not an antichain: 0b1 is contained in 0b11"),
            ([[]], ValueError, "face must be a non-empty bitmask, got 0"),
        ],
    )
    def test_face_errors_keep_type_and_message(self, faces, error, message):
        # the parser raises a positioned ValueError; the face error it
        # converts stays attached as the cause, type and message intact
        doc = json.dumps(
            {
                "format": "phylolattice/1",
                "type": "gram",
                "kind": "facegram",
                "taxa": ["a", "b"],
                "levels": [{"t": 0, "faces": faces}, {"t": 1, "faces": [["a", "b"]]}],
            }
        )
        with pytest.raises(ValueError) as err:
            parse_gram_json(doc)
        cause = err.value.__cause__
        assert type(err.value) is ValueError and type(cause) is error
        assert str(cause) == message
        assert str(err.value) == f"level 0: {cause.args[0]}"

    def test_debug_lines(self, caplog, rng):
        g = cliquegram_from_network(random_network(taxa(4), rng, late=True))
        with caplog.at_level(logging.DEBUG, logger="phylolattice.formats"):
            text = gram_json(g)
            parse_gram_json(text)
        records = [r for r in caplog.records if r.name == "phylolattice.formats"]
        assert [r.levelno for r in records] == [logging.DEBUG] * 2
        names = {
            "stage=gram_json": ["levels", "faces", "bytes", "ms"],
            "stage=parse_gram_json": ["levels", "faces", "entries", "compared", "bytes", "ms"],
        }
        for record, stage in zip(records, names):
            first, *pairs = record.getMessage().split()
            assert first == stage
            fields = dict(p.split("=") for p in pairs)
            assert list(fields) == names[stage]
            assert int(fields["levels"]) == len(g.criticals)
            assert int(fields["faces"]) == len(g.lifespans)
            assert int(fields["bytes"]) == len(text.encode())
            assert float(fields["ms"]) >= 0
        # the parser reads every face entry of every level once
        assert int(fields["entries"]) == sum(len(fs) for _, fs in g.levels)
        assert int(fields["compared"]) >= 0

    def test_compared_counts_born_against_level_pairs(self, caplog):
        # levels 0 and 2 are disjoint, so nothing is compared there; level
        # 1 has ab and bc born and overlapping: 2 born x 1 other face
        doc = json.dumps(
            {
                "format": "phylolattice/1",
                "type": "gram",
                "kind": "facegram",
                "taxa": ["a", "b", "c"],
                "levels": [
                    {"t": 0, "faces": [["a"], ["b"], ["c"]]},
                    {"t": 1, "faces": [["a", "b"], ["b", "c"]]},
                    {"t": 2, "faces": [["a", "b", "c"]]},
                ],
            }
        )
        with caplog.at_level(logging.DEBUG, logger="phylolattice.formats"):
            parse_gram_json(doc)
        (record,) = [r for r in caplog.records if r.name == "phylolattice.formats"]
        fields = dict(p.split("=") for p in record.getMessage().split()[1:])
        assert (fields["levels"], fields["faces"], fields["entries"]) == ("3", "6", "6")
        assert fields["compared"] == "2"

    def test_no_log_line_above_debug(self, caplog, rng):
        g = cliquegram_from_network(random_network(taxa(4), rng))
        with caplog.at_level(logging.INFO, logger="phylolattice.formats"):
            parse_gram_json(gram_json(g))
        assert not [r for r in caplog.records if r.name == "phylolattice.formats"]

    def test_gram_rules_still_apply(self):
        doc = (
            '{"format": "phylolattice/1", "type": "gram", "kind": "facegram",'
            ' "taxa": ["a", "b"], "levels": [{"t": 0, "faces": [["a"]]}]}'
        )
        with pytest.raises(ValueError, match="full face"):
            parse_gram_json(doc)


class TestMergegramJSON:
    def test_mergegram_round_trip(self, rng):
        g = cliquegram_from_network(random_network(taxa(5), rng))
        m = mergegram(g)
        back = parse_mergegram_json(mergegram_json(m))
        assert back == m
        assert isinstance(back, Mergegram)

    def test_diagram_round_trip(self):
        pd = PersistenceDiagram([(0, 1), (0, 1), (2, 2), (0, INF)])
        back = parse_mergegram_json(mergegram_json(pd))
        assert back == pd
        assert isinstance(back, PersistenceDiagram)

    def test_labeled_round_trip(self, rng):
        lm = labeled_mergegram(
            treegram_from_ultranetwork(random_ultrametric(taxa(4), rng, late=True))
        )
        back = parse_mergegram_json(labeled_mergegram_json(lm))
        assert back == lm

    def test_labeled_writer_matches_json_dumps(self, rng):
        for g in _grams_of_every_kind(rng):
            lm = labeled_mergegram(g)
            assert labeled_mergegram_json(lm) == labeled_mergegram_json_by_dumps(lm)
        ts = _odd_universe(7)
        odd = LabeledMergegram(
            ts,
            {
                0b0000001: Interval(0, 1),
                0b0000010: Interval(-0.0, 1e-300),
                0b0000100: Interval(-INF, 2.5),
                0b0011000: Interval(1, 1e20),
                0b1111111: Interval(2, INF),
            },
        )
        for lm in (odd, LabeledMergegram(ts, {})):
            assert labeled_mergegram_json(lm) == labeled_mergegram_json_by_dumps(lm)

    def test_infinite_death_encoding(self):
        text = mergegram_json(Mergegram([(0, INF)]))
        assert '"death": "inf"' in text

    def test_empty_mergegram(self):
        text = mergegram_json(Mergegram())
        assert '"points": []' in text
        assert parse_mergegram_json(text) == Mergegram()

    def test_duplicate_label_rejected(self):
        doc = (
            '{"format": "phylolattice/1", "type": "labeled-mergegram",'
            ' "taxa": ["a"],'
            ' "points": [{"birth": 0, "death": 1, "label": ["a"]},'
            '            {"birth": 1, "death": 2, "label": ["a"]}]}'
        )
        with pytest.raises(ValueError, match="listed twice"):
            parse_mergegram_json(doc)

    @pytest.mark.parametrize(
        "kind, point, message",
        [
            ("mergegram", '"oops"', 'point 1 must be an object with birth, death'),
            ("mergegram", '{"death": 1}', 'point 1 must be an object with birth, death'),
            ("mergegram", '{"birth": [0], "death": 1}', "point 1: float() argument"),
            ("mergegram", '{"birth": 0, "death": 1, "mult": "x"}', "point 1: invalid literal"),
            ("labeled-mergegram", '{"birth": 0, "death": 1}',
             'point 1 must be an object with birth, death, label'),
            ("labeled-mergegram", '{"birth": 0, "death": 1, "label": ["z"]}',
             "point 1: unknown taxon 'z'"),
            ("labeled-mergegram", '{"birth": 0, "death": 1, "label": 3}',
             "point 1: 'int' object is not iterable"),
            ("labeled-mergegram", '{"birth": 0, "death": 1, "label": "ab"}',
             "point 1: a face must be a list of taxon names, got 'ab'"),
            ("labeled-mergegram", '{"birth": 0, "death": 1, "label": {"a": 1}}',
             "point 1: a face must be a list of taxon names, got {'a': 1}"),
            ("labeled-mergegram", '{"birth": "0.5", "death": 1, "label": ["a"]}',
             "point 1: bad birth value '0.5'"),
            ("mergegram", '{"birth": "0.5", "death": 1}', "point 1: bad birth value '0.5'"),
            ("mergegram", '{"birth": "x", "death": 1}', "point 1: could not convert"),
            ("mergegram", '{"birth": true, "death": 1}', "point 1: bad birth value True"),
            ("mergegram", '{"birth": -Infinity, "death": 1}', "point 1: bad birth value -inf"),
            ("mergegram", '{"birth": NaN, "death": 1}', "point 1: bad birth value nan"),
            ("diagram", '{"birth": -Infinity, "death": 1}', "point 1: bad birth value -inf"),
            ("mergegram", '{"birth": 0, "death": true}', "point 1: bad death value True"),
            ("mergegram", '{"birth": 0, "death": 1, "mult": 2.7}', "point 1: bad multiplicity 2.7"),
            ("mergegram", '{"birth": 0, "death": 1, "mult": 2.0}', "point 1: bad multiplicity 2.0"),
            ("mergegram", '{"birth": 0, "death": 1, "mult": true}', "point 1: bad multiplicity True"),
            ("mergegram", '{"birth": 0, "death": 1, "mult": "3"}', "point 1: bad multiplicity '3'"),
            ("mergegram", '{"birth": 0, "death": 1, "mult": 0}', "point 1: bad multiplicity 0"),
            ("mergegram", '{"birth": 0, "death": 1, "mult": null}', "point 1: int() argument"),
            ("labeled-mergegram", '{"birth": 0, "death": 1, "label": ["a"], "mult": 2.7}',
             "point 1: bad multiplicity 2.7"),
            ("mergegram", '{"birth": 0, "death": NaN}', "point 1: bad death value nan"),
            ("diagram", '{"birth": 0, "death": -Infinity}', "point 1: bad death value -inf"),
            ("labeled-mergegram", '{"birth": 0, "death": NaN, "label": ["a"]}',
             "point 1: bad death value nan"),
            ("labeled-mergegram", '{"birth": 0, "death": 1, "label": ["a"], "mult": 5}',
             "point 1: a labeled point has multiplicity 1, got 5"),
            ("labeled-mergegram", '{"birth": 0, "death": 1, "label": ["a", "b", "a"]}',
             "point 1: face ['a', 'b', 'a'] names taxon 'a' twice"),
        ],
    )
    def test_bad_point_names_its_index(self, kind, point, message):
        doc = (
            f'{{"format": "phylolattice/1", "type": "{kind}", "taxa": ["a", "b"],'
            f' "points": [{{"birth": 0, "death": 2, "label": ["a", "b"]}}, {point}]}}'
        )
        with pytest.raises(ValueError) as err:
            parse_mergegram_json(doc)
        assert str(err.value).startswith(message)

    def test_labeled_point_may_state_multiplicity_one(self):
        doc = (
            '{"format": "phylolattice/1", "type": "labeled-mergegram", "taxa": ["a"],'
            ' "points": [{"birth": 0, "death": "inf", "label": ["a"], "mult": 1}]}'
        )
        assert len(parse_mergegram_json(doc)) == 1

    @pytest.mark.parametrize("taxa", ['"ab"', '[1]', '{"a": 1}', None])
    def test_labeled_taxa_are_a_list_of_strings(self, taxa):
        field = "" if taxa is None else f' "taxa": {taxa},'
        doc = f'{{"format": "phylolattice/1", "type": "labeled-mergegram",{field} "points": []}}'
        with pytest.raises(ValueError) as err:
            parse_mergegram_json(doc)
        assert str(err.value) == '"taxa" must be a list of strings'

    def test_points_keep_their_numbers(self):
        doc = (
            '{"format": "phylolattice/1", "type": "mergegram", "points":'
            ' [{"birth": -1, "death": 2.5, "mult": 3}, {"birth": 1e-300, "death": "inf"}]}'
        )
        assert parse_mergegram_json(doc) == Mergegram([(-1, 2.5, 3), (1e-300, INF)])

    def test_bad_death(self):
        doc = (
            '{"format": "phylolattice/1", "type": "mergegram",'
            ' "points": [{"birth": 0, "death": "soon"}]}'
        )
        with pytest.raises(ValueError, match="bad death value"):
            parse_mergegram_json(doc)


class TestReebDot:
    def test_structure(self, rng):
        g = treegram_from_ultranetwork(random_ultrametric(taxa(3), rng))
        r = face_reeb_graph(g)
        dot = reeb_dot(r)
        assert dot.startswith("graph reeb {")
        assert dot.rstrip().endswith("}")
        assert dot.count("--") == r.finite_edge_count + 1
        assert "style=dashed" in dot  # the half-infinite edge
        assert 'top [label="inf"' in dot
        for i, count in enumerate(r.vertex_counts):
            for k in range(count):
                assert f"v{i}_{k} " in dot

    def test_matches_names_of_writer(self, rng):
        for g in _grams_of_every_kind(rng):
            r = face_reeb_graph(g)
            assert reeb_dot(r) == reeb_dot_by_names_of(r)

    def test_quotes_and_backslashes_in_names_are_escaped(self):
        ts = TaxaSet(['a"b', "c\\d", "e"])
        g = Gram(
            ts,
            [
                (0.0, FaceSet(ts, [0b001, 0b010])),
                (0.5, FaceSet(ts, [0b011, 0b100])),
                (2.0, FaceSet(ts, [0b111])),
            ],
        )
        assert reeb_dot(face_reeb_graph(g)) == (
            "graph reeb {\n"
            "  rankdir=BT;\n"
            '  v0_0 [label="t=0"];\n'
            '  v0_1 [label="t=0"];\n'
            '  v1_0 [label="t=0.5"];\n'
            '  v1_1 [label="t=0.5"];\n'
            '  v2_0 [label="t=2"];\n'
            '  top [label="inf", shape=plaintext];\n'
            '  v0_0 -- v1_0 [label="{a\\"b}"];\n'
            '  v0_1 -- v1_0 [label="{c\\\\d}"];\n'
            '  v1_0 -- v2_0 [label="{a\\"b,c\\\\d}"];\n'
            '  v1_1 -- v2_0 [label="{e}"];\n'
            '  v2_0 -- top [label="{a\\"b,c\\\\d,e}", style=dashed];\n'
            "}\n"
        )

    def test_control_characters_are_shown(self, rng):
        r = face_reeb_graph(treegram_from_ultranetwork(random_ultrametric(_odd_universe(7), rng)))
        dot = reeb_dot(r)
        # a line per vertex and edge and five more: no name breaks a line
        assert dot.count("\n") == r.vertex_count + r.finite_edge_count + 5
        assert not re.search(r"[\x00-\x09\x0b-\x1f\x7f]", dot)
        # DOT shows the backslash of \u0009 that the text escapes
        assert "tab\\\\u0009new\\\\u000aline\\\\u0000" in dot

    def test_debug_line(self, caplog, rng):
        # plain names, so that each line of the text ends at a newline
        grams = [g for g in _grams_of_every_kind(rng) if g.universe == taxa(len(g.universe))]
        with caplog.at_level(logging.DEBUG, logger="phylolattice.formats"):
            texts = [reeb_dot(face_reeb_graph(g)) for g in grams]
        records = [r for r in caplog.records if r.name == "phylolattice.formats"]
        assert [r.levelno for r in records] == [logging.DEBUG] * len(grams)
        for record, g, text in zip(records, grams, texts):
            stage, *pairs = record.getMessage().split()
            assert stage == "stage=reeb_dot"
            fields = dict(p.split("=") for p in pairs)
            assert list(fields) == ["levels", "lines", "bytes", "ms"]
            assert int(fields["levels"]) == len(g.criticals)
            assert int(fields["lines"]) == text.count("\n")
            assert int(fields["bytes"]) == len(text)
            assert float(fields["ms"]) >= 0

    def test_no_log_line_above_debug(self, caplog, rng):
        r = face_reeb_graph(cliquegram_from_network(random_network(taxa(4), rng)))
        with caplog.at_level(logging.INFO, logger="phylolattice.formats"):
            reeb_dot(r)
        assert not [r for r in caplog.records if r.name == "phylolattice.formats"]


class TestSVG:
    def test_text_is_escaped(self):
        ts = TaxaSet(["a&b", "c<d", "e>'\"f"])
        lm = LabeledMergegram(
            ts, {0b001: Interval(0, 1), 0b010: Interval(0, 1), 0b111: Interval(1, INF)}
        )
        svg = diagram_svg(lm, title="<a & b>")
        minidom.parseString(svg)
        assert ">&lt;a &amp; b&gt;<" in svg
        assert ">{a&amp;b} {c&lt;d}<" in svg
        assert ">{a&amp;b,c&lt;d,e&gt;&apos;&quot;f}<" in svg
        plot = line_plot_svg({"x<y": [(0, 0), (1, 1)]}, x_label="k&", y_label='"d"')
        minidom.parseString(plot)
        assert ">x&lt;y<" in plot and ">k&amp;<" in plot and ">&quot;d&quot;<" in plot

    def test_control_characters_are_shown(self):
        ts = TaxaSet(["a\x00b", "c\x7f", "d\te"])
        lm = LabeledMergegram(
            ts, {0b001: Interval(0, 1), 0b010: Interval(0, 2), 0b111: Interval(2, INF)}
        )
        svg = diagram_svg(lm, title="t\x1b")
        texts = [
            t.firstChild.data
            for t in minidom.parseString(svg).getElementsByTagName("text")
            if t.firstChild
        ]
        assert "{a\\u0000b}" in texts and "{c\\u007f}" in texts and "t\\u001b" in texts
        assert "{a\\u0000b,c\\u007f,d\\u0009e}" in texts

    def test_diagram_elements(self):
        m = Mergegram([(0, 1, 3), (0.5, INF)])
        svg = diagram_svg(m, title="demo")
        assert svg.startswith("<svg ")
        assert svg.count("<circle") == 4  # 1 dot + 2 rings, plus the inf dot
        assert ">demo<" in svg
        assert ">inf<" in svg

    def test_diagram_labels_from_faces(self):
        ts = taxa(2)
        lm = LabeledMergegram(
            ts, {0b01: Interval(0, 1), 0b11: Interval(1, INF)}
        )
        svg = diagram_svg(lm)
        assert "{a}" in svg
        assert "{a,b}" in svg

    def test_line_plot(self):
        svg = line_plot_svg(
            {"one": [(0, 0), (1, 1)], "two": [(0, 1), (1, 0)]},
            x_label="k",
            y_label="d",
        )
        assert svg.count("<polyline") == 2
        assert ">one<" in svg and ">two<" in svg
        assert ">k<" in svg


# the numbers read_number reads, as a grammar
_NUMBER = re.compile(r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|(?i:inf|infinity|nan))")


class TestReadNumber:
    def test_reads_the_ascii_grammar(self):
        rng = random.Random(5)
        alphabet = "0123456789.eE+-_ \t\x0b\x0c\x1cinfatyINFATYx\uff11\u0661\u00a0"
        for _ in range(30000):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
            got = read_number(text)
            if _NUMBER.fullmatch(text):
                assert repr(got) == repr(float(text)), repr(text)
            else:
                assert got is None, repr(text)

    @pytest.mark.parametrize("text", ["1_0", "\uff11", "\u0661", "1\x0c", " 1", "1\n", ""])
    def test_refuses(self, text):
        assert read_number(text) is None
