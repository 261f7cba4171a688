"""The face-Reeb graph, which compares only the faces each level changes
and numbers the vertices along each level's canonical faces, against the
pair scan over every (previous, current) face pair and the construction with a
dict per level, and its DEBUG line."""

import logging
import random

import numpy as np

from phylolattice import (
    cliquegram_from_network,
    face_reeb_graph,
    facegram_from_filtration,
    join_grams,
    reeb_dot,
    treegram_from_ultranetwork,
)

from oracles import component_count_by_union_find, reeb_by_changed_pairs, reeb_by_pair_scan
from util import (
    gram_of,
    random_monotone_table,
    random_network,
    random_ultrametric,
    taxa,
    with_empty_first_level,
)

KINDS = ("cliquegram", "late cliquegram", "tree join", "births", "treegram")


def _rounded(net, rng):
    """The network itself, or its entries rounded at x2 or x4 so that
    faces are born and die together."""
    scale = rng.choice((None, 2, 4))
    if scale is None:
        return net
    return type(net)(net.universe, np.round(net.matrix * scale))


def _gram(kind, ts, rng):
    if kind == "cliquegram":
        return cliquegram_from_network(_rounded(random_network(ts, rng), rng))
    if kind == "late cliquegram":
        return cliquegram_from_network(_rounded(random_network(ts, rng, late=True), rng))
    if kind == "births":
        # every face of a monotone table is a candidate, so faces overlap
        if len(ts) <= 6:
            return facegram_from_filtration(random_monotone_table(ts, rng))
        parts = [cliquegram_from_network(random_network(ts, rng)) for _ in range(2)]
        return join_grams(parts, "facegram")
    trees = [
        treegram_from_ultranetwork(
            _rounded(random_ultrametric(ts, rng, late=rng.random() < 0.5), rng)
        )
        for _ in range(rng.randint(1, 4) if kind == "tree join" else 1)
    ]
    return join_grams(trees, "facegram") if kind == "tree join" else trees[0]


def _level_counts(g):
    """Face entries, changed faces and dying x born pairs, level by level."""
    faces = changed = pairs = 0
    prev = set()
    for _, fs in g.levels:
        cur = set(fs.faces)
        dying, born = prev - cur, cur - prev
        faces += len(cur)
        changed += len(dying) + len(born)
        pairs += len(dying) * len(born)
        prev = cur
    return faces, changed, pairs


def test_matches_the_pair_scan():
    rng = random.Random(1515)
    seen = dict.fromkeys(KINDS, 0)
    empty_first = loops = split_levels = 0
    for i in range(1200):
        kind = KINDS[i % 5]
        g = _gram(kind, taxa(rng.randint(1, 8)), rng)
        if (i // 5) % 5 == 0:
            g = with_empty_first_level(g)
            empty_first += 1
        got, expect = face_reeb_graph(g), reeb_by_pair_scan(g)
        assert got == expect == reeb_by_changed_pairs(g)
        assert reeb_dot(got) == reeb_dot(expect)
        components = component_count_by_union_find(expect)
        assert got.component_count() == components
        assert got.cycle_rank() == (
            expect.finite_edge_count - expect.vertex_count + components
        )
        seen[kind] += 1
        loops += got.cycle_rank() > 0
        split_levels += any(len(set(down)) > 1 for down in got.down_ids)
    assert min(seen.values()) == 240 and empty_first == 240
    assert loops >= 100 and split_levels >= 500, (loops, split_levels)


class TestReebLog:
    def test_debug_line(self, caplog):
        # a, b and c die into ab and bc (6 pairs), which die into abc (2)
        ts = taxa(3)
        g = gram_of(
            ts,
            [
                (0.0, [["a"], ["b"], ["c"]]),
                (1.0, [["a", "b"], ["b", "c"]]),
                (2.0, [["a", "b", "c"]]),
            ],
        )
        rng = random.Random(7)
        grams = [g] + [_gram(k, taxa(6), rng) for k in KINDS]
        with caplog.at_level(logging.DEBUG, logger="phylolattice.reeb"):
            for h in grams:
                face_reeb_graph(h)
        records = [r for r in caplog.records if r.name == "phylolattice.reeb"]
        assert [r.levelno for r in records] == [logging.DEBUG] * len(grams)
        for record, h in zip(records, grams):
            stage, *pairs = record.getMessage().split()
            assert stage == "stage=reeb"
            fields = dict(p.split("=") for p in pairs)
            assert list(fields) == ["levels", "faces", "vertices", "changed", "pairs", "ms"]
            counts = tuple(int(fields[k]) for k in ("faces", "changed", "pairs"))
            assert int(fields["levels"]) == len(h.levels)
            assert int(fields["vertices"]) == reeb_by_pair_scan(h).vertex_count
            assert counts == _level_counts(h)
            assert float(fields["ms"]) >= 0
        assert _level_counts(g) == (6, 11, 8)

    def test_no_log_line_above_debug(self, caplog, rng):
        g = cliquegram_from_network(random_network(taxa(5), rng, late=True))
        with caplog.at_level(logging.INFO, logger="phylolattice.reeb"):
            face_reeb_graph(g)
        assert not [r for r in caplog.records if r.name == "phylolattice.reeb"]
