import json
import logging
import random
import time
from xml.dom import minidom

import pytest

from phylolattice import (
    join_grams,
    labeled_mergegram,
    labeled_mergegram_json,
    parse_gram_json,
    parse_matrix_csv,
    parse_mergegram_json,
    parse_newick,
    serialize_matrix_csv,
    treegram_from_ultranetwork,
    ultranetwork_from_newick,
)
from phylolattice.cli import run
from phylolattice.experiments import default_taxa

from oracles import (
    agglomerative_by_submatrix,
    newick_by_linkage_runs,
    random_dissimilarity_by_pairs,
)
from util import balanced_newick, caterpillar_newick, random_ultrametric, taxa


@pytest.fixture
def tree_file(tmp_path, rng):
    # three ultrametric trees over one taxa set, one per line
    from phylolattice import newick_from_ultranetwork

    ts = taxa(5)
    lines = [
        newick_from_ultranetwork(random_ultrametric(ts, rng)) for _ in range(3)
    ]
    path = tmp_path / "trees.nwk"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def matrix_file(tmp_path, rng):
    path = tmp_path / "net.csv"
    path.write_text(serialize_matrix_csv(random_ultrametric(taxa(4), rng)))
    return path


class TestValidate:
    def test_matrix(self, matrix_file, capsys):
        assert run(["validate", str(matrix_file)]) == 0
        assert "OK: ultranetwork over 4 taxa" in capsys.readouterr().out

    def test_trees(self, tree_file, capsys):
        assert run(["validate", str(tree_file)]) == 0
        assert "OK: 3 tree(s) over 5 taxa" in capsys.readouterr().out

    def test_gram_json(self, tmp_path, matrix_file, capsys):
        out = tmp_path / "g.json"
        assert run(["cliquegram", "--matrix", str(matrix_file), "-o", str(out)]) == 0
        assert run(["validate", str(out)]) == 0
        assert "OK: cliquegram" in capsys.readouterr().out

    def test_mergegram_json(self, tmp_path, matrix_file, capsys):
        out = tmp_path / "m.json"
        assert run(["mergegram", "--in", str(matrix_file), "-o", str(out)]) == 0
        assert run(["validate", str(out)]) == 0
        assert "OK: Mergegram" in capsys.readouterr().out

    def test_unknown_suffix(self, tmp_path, capsys):
        bad = tmp_path / "data.xml"
        bad.write_text("<x/>")
        assert run(["validate", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_broken_gram_reports_its_own_error(self, tmp_path, capsys):
        bad = tmp_path / "g.json"
        bad.write_text(
            '{"format": "phylolattice/1", "type": "gram", "kind": "facegram",'
            ' "taxa": ["a", "b"], "levels": [{"t": 0, "faces": [["a", "b"]]},'
            ' {"t": 1, "faces": [["a"], ["b"]]}]}'
        )
        for argv in (["validate", str(bad)], ["dist", "--metric", "bottleneck", str(bad), str(bad)]):
            assert run(argv) == 1
            assert capsys.readouterr().err == "error: levels are not refinement-monotone at t=1.0\n"

    def test_missing_file(self, capsys):
        assert run(["validate", "no-such-file.csv"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_byte_order_marks_are_dropped(self, tmp_path, tree_file, matrix_file, capsys):
        gram = tmp_path / "g.json"
        assert run(["cliquegram", "--matrix", str(matrix_file), "-o", str(gram)]) == 0
        for path in (tree_file, gram, matrix_file):
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
            assert run(["validate", str(path)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "OK: 3 tree(s) over 5 taxa",
            "OK: cliquegram with 4 level(s)",
            "OK: ultranetwork over 4 taxa",
        ]
        # the first taxon of the CSV is 'a', not '\ufeffa'
        assert run(["cliquegram", "--matrix", str(matrix_file), "-o", str(gram)]) == 0
        assert json.loads(gram.read_text(encoding="utf-8"))["taxa"] == list("abcd")


_BAD_POINTS = [
    pytest.param('"oops"', 'point 1 must be an object', id="not-an-object"),
    pytest.param('{"death": 1, "label": ["a"]}', 'point 1 must be an object', id="no-birth"),
    pytest.param('{"birth": 0, "label": ["a"]}', 'point 1 must be an object', id="no-death"),
    pytest.param('{"birth": 0, "death": 1}', 'point 1 must be an object', id="no-label"),
    pytest.param('{"birth": 0, "death": 1, "label": ["z"]}', "point 1: unknown taxon", id="taxon"),
    pytest.param(
        '{"birth": 1' + "0" * 400 + ', "death": 1, "label": ["a"]}',
        "point 1: int too large",
        id="overflow",
    ),
    pytest.param('{"birth": "0.5", "death": 1, "label": ["a"]}',
                 "point 1: bad birth value '0.5'", id="birth-string"),
    pytest.param('{"birth": true, "death": 1, "label": ["a"]}',
                 "point 1: bad birth value True", id="birth-bool"),
    pytest.param('{"birth": -Infinity, "death": 1, "label": ["a"]}',
                 "point 1: bad birth value -inf", id="birth-minus-infinity"),
    pytest.param('{"birth": 0, "death": 1, "label": ["a"], "mult": 2.7}',
                 "point 1: bad multiplicity 2.7", id="mult-fraction"),
    pytest.param('{"birth": 0, "death": 1, "label": ["a"], "mult": true}',
                 "point 1: bad multiplicity True", id="mult-bool"),
    pytest.param('{"birth": 0, "death": 1, "label": ["a"], "mult": "3"}',
                 "point 1: bad multiplicity '3'", id="mult-string"),
    pytest.param('{"birth": 0, "death": 1, "label": "ab"}',
                 "point 1: a face must be a list of taxon names, got 'ab'", id="label-string"),
    pytest.param('{"birth": 0, "death": NaN, "label": ["a"]}',
                 "point 1: bad death value nan", id="death-nan"),
    pytest.param('{"birth": 0, "death": -Infinity, "label": ["a"]}',
                 "point 1: bad death value -inf", id="death-minus-infinity"),
    pytest.param('{"birth": 0, "death": 1, "label": ["a"], "mult": 5}',
                 "point 1: a labeled point has multiplicity 1, got 5", id="mult-not-one"),
    pytest.param('{"birth": 0, "death": 1, "label": ["a", "a"]}',
                 "point 1: face ['a', 'a'] names taxon 'a' twice", id="label-taxon-twice"),
]


def _bad_mergegram_file(tmp_path, point):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"format": "phylolattice/1", "type": "labeled-mergegram", "taxa": ["a", "b"],'
        f' "points": [{{"birth": 0, "death": "inf", "label": ["a", "b"]}}, {point}]}}'
    )
    return path


@pytest.mark.parametrize("point, message", _BAD_POINTS)
@pytest.mark.parametrize("command", ["validate", "dist"])
def test_bad_mergegram_point_is_an_error_line(tmp_path, capsys, command, point, message):
    path = str(_bad_mergegram_file(tmp_path, point))
    argv = ["validate", path] if command == "validate" else ["dist", "--metric", "linf", path, path]
    assert run(argv) == 1
    out = capsys.readouterr()
    assert out.err.startswith("error: ") and message in out.err
    assert "Traceback" not in out.err and not out.out



def _mergegram_file(tmp_path, name, *points):
    path = tmp_path / name
    path.write_text(json.dumps({"format": "phylolattice/1", "type": "mergegram", "points": points}))
    return str(path)


@pytest.mark.parametrize("death", [1.5, "inf"])
@pytest.mark.parametrize("command", ["validate", "dist"])
def test_multiplicities_past_int64_plan_counts_are_an_error_line(tmp_path, capsys, command, death):
    fine = {"birth": 0, "death": death, "mult": 1}
    huge = _mergegram_file(tmp_path, "huge.json", fine, {"birth": 0.5, "death": death, "mult": 10**20})
    other = _mergegram_file(tmp_path, "other.json", fine)
    argv = ["validate", huge] if command == "validate" else ["dist", "--metric", "bottleneck", other, huge]
    assert run(argv) == 1
    out = capsys.readouterr()
    assert out.err == "error: point 1: multiplicities sum past 4611686018427387903\n"
    assert not out.out


def test_multiplicities_are_summed_over_the_document(tmp_path, capsys):
    half = {"birth": 0, "death": 1, "mult": 2**61}
    assert run(["validate", _mergegram_file(tmp_path, "ok.json", half, half | {"mult": 2**61 - 1})]) == 0
    assert capsys.readouterr().out == f"OK: Mergegram with {2**62 - 1} interval(s)\n"
    assert run(["validate", _mergegram_file(tmp_path, "bad.json", half, half, half)]) == 1
    assert capsys.readouterr().err.startswith("error: point 1: multiplicities sum past")


def test_large_infinite_multiplicities_pair_without_listing_them(tmp_path, capsys):
    a = _mergegram_file(tmp_path, "a.json", {"birth": 0, "death": "inf", "mult": 10**7})
    b = _mergegram_file(tmp_path, "b.json", {"birth": 0.5, "death": "inf", "mult": 10**7})
    t0 = time.perf_counter()
    assert run(["dist", "--metric", "bottleneck", a, b]) == 0
    assert time.perf_counter() - t0 < 0.5
    assert capsys.readouterr().out == "0.5\n"


_BAD_GRAMS = [
    pytest.param({"levels": 5}, '"levels" must be a list', id="levels-not-a-list"),
    pytest.param({"t": [0]}, 'level 0: "t" must be a number', id="t-list"),
    pytest.param({"t": True}, 'level 0: "t" must be a number', id="t-bool"),
    pytest.param({"t": "x"}, 'level 0: "t" must be a number', id="t-string"),
    pytest.param({"t": 10**400}, "level 0: int too large", id="t-overflow"),
    pytest.param({"faces": [["z"]]}, "level 0: unknown taxon 'z'", id="taxon"),
    pytest.param({"faces": [1]}, "level 0: 'int' object is not iterable", id="face-not-a-list"),
    pytest.param({"faces": 5}, "level 0: 'int' object is not iterable", id="faces-not-a-list"),
    pytest.param({"faces": ["ab"]}, "level 0: a face must be a list of taxon names, got 'ab'",
                 id="face-string"),
    pytest.param({"faces": [["a", "a", "b"]]}, "level 0: face ['a', 'a', 'b'] names taxon 'a' twice",
                 id="face-taxon-twice"),
    pytest.param({"t": 1e400}, "level 0: critical values must be finite", id="t-infinite"),
    pytest.param({"t": float("nan")}, "level 0: critical values must be finite", id="t-nan"),
    pytest.param({"t": 1}, "level 1: critical values must be strictly increasing",
                 id="t-not-increasing"),
    pytest.param({"levels": [{"t": 0}]}, 'level 0: each level needs "t" and "faces"',
                 id="level-without-faces"),
]


def _bad_gram_file(tmp_path, change):
    level = {"t": 0, "faces": [["a"], ["b"]]}
    level.update((k, v) for k, v in change.items() if k != "levels")
    doc = {
        "format": "phylolattice/1",
        "type": "gram",
        "kind": "facegram",
        "taxa": ["a", "b"],
        "levels": change.get("levels", [level, {"t": 1, "faces": [["a", "b"]]}]),
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("change, message", _BAD_GRAMS)
@pytest.mark.parametrize("command", ["validate", "reeb", "dist"])
def test_bad_gram_is_an_error_line(tmp_path, capsys, command, change, message):
    path = str(_bad_gram_file(tmp_path, change))
    argv = {
        "validate": ["validate", path],
        "reeb": ["reeb", "--in", path],
        "dist": ["dist", "--metric", "interleaving", path, path],
    }[command]
    assert run(argv) == 1
    out = capsys.readouterr()
    assert out.err.startswith("error: ") and message in out.err
    assert out.err.count("\n") == 1 and "Traceback" not in out.err and not out.out


class TestBuildCommands:
    def test_cliquegram_stdout(self, matrix_file, capsys):
        assert run(["cliquegram", "--matrix", str(matrix_file)]) == 0
        g = parse_gram_json(capsys.readouterr().out)
        assert g.kind == "cliquegram"

    def test_treegram(self, tmp_path, capsys):
        one = tmp_path / "one.nwk"
        one.write_text("((x:1,y:1):2,z:3);\n")
        assert run(["treegram", "--newick", str(one)]) == 0
        g = parse_gram_json(capsys.readouterr().out)
        assert g.kind == "treegram"
        assert g.criticals == (0.0, 1.0, 3.0)

    def test_treegram_rejects_multiple_trees(self, tree_file, capsys):
        assert run(["treegram", "--newick", str(tree_file)]) == 1
        assert "exactly one tree" in capsys.readouterr().err

    def test_join_matches_library(self, tree_file, capsys):
        assert run(["join", "--trees", str(tree_file), "--mode", "facegram"]) == 0
        got = parse_gram_json(capsys.readouterr().out)
        parts = [
            treegram_from_ultranetwork(ultranetwork_from_newick(t))
            for t in parse_newick(tree_file.read_text())
        ]
        assert got == join_grams(parts, "facegram")

    def test_reeb_dot(self, tmp_path, matrix_file, capsys):
        gpath = tmp_path / "g.json"
        assert run(["cliquegram", "--matrix", str(matrix_file), "-o", str(gpath)]) == 0
        assert run(["reeb", "--in", str(gpath)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("graph reeb {")
        assert "style=dashed" in out

    def test_ph0(self, matrix_file, capsys):
        assert run(["ph0", "--matrix", str(matrix_file)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["type"] == "diagram"
        assert {"birth": 0, "death": "inf", "mult": 1} in doc["points"]

    def test_ph0_rejects_non_ultrametric(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n0,1,5\n1,0,1\n5,1,0\n")
        assert run(["ph0", "--matrix", str(path)]) == 1
        assert "strong triangle" in capsys.readouterr().err


class TestMergegramCommand:
    def test_fast_tree_join_matches_join_route(self, tree_file, tmp_path):
        fast = tmp_path / "fast.json"
        assert run(["mergegram", "--in", str(tree_file), "--labeled", "-o", str(fast)]) == 0
        parts = [
            treegram_from_ultranetwork(ultranetwork_from_newick(t))
            for t in parse_newick(tree_file.read_text())
        ]
        slow = labeled_mergegram(join_grams(parts, "facegram"))
        assert fast.read_text() == labeled_mergegram_json(slow)

    def test_svg_output(self, tree_file, tmp_path):
        svg = tmp_path / "m.svg"
        out = tmp_path / "m.json"
        assert run(
            ["mergegram", "--in", str(tree_file), "-o", str(out), "--svg", str(svg)]
        ) == 0
        assert svg.read_text().startswith("<svg ")
        assert parse_mergegram_json(out.read_text()) is not None

    def test_labeled_svg_of_names_to_escape_is_well_formed(self, tmp_path):
        trees = tmp_path / "t.nwk"
        trees.write_text("(('a&b':1,'c<d':1):1,'e\"f':2);\n")
        svg = tmp_path / "m.svg"
        args = ["mergegram", "--in", str(trees), "--labeled", "-o", str(tmp_path / "m.json")]
        assert run(args + ["--svg", str(svg)]) == 0
        text = svg.read_text()
        labels = {
            t.firstChild.data
            for t in minidom.parseString(text).getElementsByTagName("text")
            if t.firstChild.data.startswith("{")
        }
        assert labels == {"{a&b} {c<d}", '{e"f}', "{a&b,c<d}", '{a&b,c<d,e"f}'}


class TestDist:
    def test_zero_on_identical(self, tree_file, capsys):
        for metric in ("bottleneck", "linf", "interleaving"):
            assert run(["dist", "--metric", metric, str(tree_file), str(tree_file)]) == 0
            assert capsys.readouterr().out.strip() == "0"

    def test_bottleneck_works_across_formats_and_taxa(self, tree_file, matrix_file, capsys):
        # mergegrams are bare multisets; distinct universes still compare
        assert run(["dist", "--metric", "bottleneck", str(tree_file), str(matrix_file)]) == 0
        float(capsys.readouterr().out)

    def test_linf_requires_one_universe(self, tree_file, matrix_file, capsys):
        assert run(["dist", "--metric", "linf", str(tree_file), str(matrix_file)]) == 1
        assert "different universes" in capsys.readouterr().err

    def test_linf_accepts_gram_json(self, matrix_file, tmp_path, capsys):
        # every metric should take gram documents, not just raw diagrams
        gram = tmp_path / "g.json"
        assert run(["cliquegram", "--matrix", str(matrix_file), "-o", str(gram)]) == 0
        assert run(["dist", "--metric", "linf", str(gram), str(gram)]) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_unlabeled_document_rejected_for_linf(self, matrix_file, tmp_path, capsys):
        mg = tmp_path / "m.json"
        assert run(["ph0", "--matrix", str(matrix_file), "-o", str(mg)]) == 0
        assert run(["dist", "--metric", "linf", str(mg), str(mg)]) == 1
        assert "not a labeled mergegram document" in capsys.readouterr().err


def test_interleaving_of_gram_files_builds_no_level_view(tree_file, tmp_path, caplog):
    # the parser and the interleaving read lifespans only; the Reeb graph
    # reads the levels, so it builds the view once
    paths = [str(tmp_path / f"{mode}.json") for mode in ("facegram", "cliquegram")]
    for mode, path in zip(("facegram", "cliquegram"), paths):
        assert run(["join", "--trees", str(tree_file), "--mode", mode, "-o", path]) == 0
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="phylolattice"):
        assert run(["dist", "--metric", "interleaving", *paths]) == 0
        stages = [r.getMessage().split()[0] for r in caplog.records]
        assert stages.count("stage=parse_gram_json") == 2
        assert "stage=interleaving" in stages and "stage=levels" not in stages
        caplog.clear()
        assert run(["reeb", "--in", paths[0], "-o", str(tmp_path / "r.dot")]) == 0
        stages = [r.getMessage().split()[0] for r in caplog.records]
        assert stages.count("stage=levels") == 1


class TestPipelines:
    def test_gen_trees_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(
                ["gen-trees", "-n", "5", "-l", "3", "--seed", "9", "-o", str(out)]
            ) == 0
        assert (a / "trees.nwk").read_text() == (b / "trees.nwk").read_text()
        for i in range(3):
            name = f"matrix_{i:03d}.csv"
            assert (a / name).read_text() == (b / name).read_text()
            parse_matrix_csv((a / name).read_text())

    @pytest.mark.parametrize(
        "n, trees, seed, method",
        [(1, 2, 0, "upgma"), (2, 3, 5, "single"), (9, 4, 3, "upgma"), (24, 3, 7, "single")],
    )
    def test_gen_trees_matches_oracle_route(self, tmp_path, n, trees, seed, method):
        out = tmp_path / "gen"
        cmd = ["gen-trees", "-n", str(n), "-l", str(trees), "--seed", str(seed)]
        assert run(cmd + ["--method", method, "-o", str(out)]) == 0
        rng = random.Random(seed)
        ultras = [
            agglomerative_by_submatrix(random_dissimilarity_by_pairs(default_taxa(n), rng), method)
            for _ in range(trees)
        ]
        lines = "".join(newick_by_linkage_runs(u) + "\n" for u in ultras)
        assert (out / "trees.nwk").read_bytes() == lines.encode()
        for i, u in enumerate(ultras):
            want = serialize_matrix_csv(u).encode()
            assert (out / f"matrix_{i:03d}.csv").read_bytes() == want

    def test_experiment_outputs(self, tmp_path):
        trees_dir = tmp_path / "gen"
        assert run(["gen-trees", "-n", "6", "-l", "4", "-o", str(trees_dir)]) == 0
        out = tmp_path / "exp"
        assert run(
            [
                "experiment",
                "bottleneck-progression",
                "--trees",
                str(trees_dir / "trees.nwk"),
                "-o",
                str(out),
            ]
        ) == 0
        for mode in ("cliquegram", "facegram"):
            text = (out / f"progression_{mode}.csv").read_text()
            lines = text.strip().splitlines()
            assert lines[0] == "k,bottleneck"
            assert len(lines) == 5
            assert lines[-1].endswith("0.0")
        assert (out / "progression.svg").read_text().startswith("<svg ")

    def test_unknown_experiment(self, tree_file, tmp_path, capsys):
        code = run(
            ["experiment", "nope", "--trees", str(tree_file), "-o", str(tmp_path / "x")]
        )
        assert code == 1
        assert "unknown experiment" in capsys.readouterr().err


class TestUsageErrors:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_argument(self):
        with pytest.raises(SystemExit) as exc:
            run(["cliquegram"])
        assert exc.value.code == 2


class TestScale:
    # (text, taxa, levels): caterpillar taxon i joins at height i; the
    # balanced tree has unit branches, so its shallow leaves read as late
    @pytest.mark.parametrize(
        "text, n, levels",
        [(caterpillar_newick(1200), 1200, 1200), (balanced_newick(2000), 2000, 12)],
        ids=["caterpillar-1200", "balanced-2000"],
    )
    def test_large_trees_go_through_the_cli(self, tmp_path, capsys, text, n, levels):
        path = tmp_path / "tree.nwk"
        path.write_text(text)
        assert run(["validate", str(path)]) == 0
        assert f"OK: 1 tree(s) over {n} taxa" in capsys.readouterr().out
        gram = tmp_path / "tree.json"
        assert run(["treegram", "--newick", str(path), "-o", str(gram)]) == 0
        assert len(json.loads(gram.read_text())["levels"]) == levels
        mg = tmp_path / "mg.json"
        cmd = ["mergegram", "--in", str(path), "--labeled"]
        assert run(cmd + ["-o", str(mg)]) == 0
        # one tree joins to itself: every face of its 2n - 1 clades and leaves
        assert len(json.loads(mg.read_text())["points"]) == 2 * n - 1
