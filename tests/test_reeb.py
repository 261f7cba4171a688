import pytest

from phylolattice import (
    ReebGraph,
    cliquegram_from_network,
    face_reeb_graph,
    labeled_mergegram,
    treegram_from_ultranetwork,
)

from oracles import component_count_by_union_find
from util import gram_of, random_network, random_ultrametric, taxa


def loop_gram():
    # two faces split off a common block and rejoin: one independent cycle
    ts = taxa(3)
    return gram_of(
        ts,
        [
            (0.0, [["b"]]),
            (1.0, [["a", "b"], ["b", "c"]]),
            (2.0, [["a", "b", "c"]]),
        ],
    )


class TestFaceReeb:
    def test_overlapping_pair_makes_a_loop(self):
        r = face_reeb_graph(loop_gram())
        assert r.vertex_counts == (1, 1, 1)
        assert r.finite_edge_count == 3
        assert r.component_count() == 1
        assert r.cycle_rank() == 1
        assert not r.is_merge_tree()

    def test_without_common_root_the_pairs_form_a_tree(self):
        ts = taxa(3)
        g = gram_of(
            ts,
            [(0.0, [["a", "b"], ["b", "c"]]), (1.0, [["a", "b", "c"]])],
        )
        r = face_reeb_graph(g)
        assert r.vertex_counts == (2, 1)
        assert r.cycle_rank() == 0

    def test_dendrogram_is_a_merge_tree(self, rng):
        for _ in range(10):
            u = random_ultrametric(taxa(6), rng, late=True)
            r = face_reeb_graph(treegram_from_ultranetwork(u))
            assert r.is_merge_tree()

    def test_vertices_split_disjoint_faces(self):
        ts = taxa(4)
        g = gram_of(
            ts,
            [
                (0.0, [["a", "b"], ["c", "d"]]),
                (1.0, [["a", "b", "c", "d"]]),
            ],
        )
        r = face_reeb_graph(g)
        # below the first slab the two pairs are incomparable: two vertices
        assert r.vertex_counts == (2, 1)
        assert r.edge_sets[0] == (ts.mask_of("ab"), ts.mask_of("cd"))
        assert r.down_ids[0] == (0, 1) and r.up_ids[0] == (0, 0)
        assert r.cycle_rank() == 0

    def test_top_slab_half_infinite(self, rng):
        g = cliquegram_from_network(random_network(taxa(4), rng))
        r = face_reeb_graph(g)
        assert r.edge_sets[-1] == (g.universe.full_mask,)
        assert r.up_ids[-1] is None

    def test_realized_graph_is_connected(self, rng):
        for _ in range(10):
            g = cliquegram_from_network(random_network(taxa(6), rng, late=True))
            assert face_reeb_graph(g).component_count() == 1


class TestReebValidation:
    """The refusals are checked by exact message in
    ``TestAlignedIds.test_refusals``."""

    def test_minimal_graph(self):
        r = ReebGraph(taxa(1), (0.0,), ((0b1,),), (1,), ((0,),), (None,))
        assert r.vertex_count == 1
        assert r.finite_edge_count == 0
        assert r.cycle_rank() == 0


def _two_level_args():
    ts = taxa(2)
    return dict(
        universe=ts,
        criticals=(0.0, 1.0),
        edge_sets=((0b01, 0b10), (0b11,)),
        vertex_counts=(2, 1),
        down_ids=((0, 1), (0,)),
        up_ids=((0, 0), None),
    )


class TestAlignedIds:
    """The constructor, which ``face_reeb_graph`` builds through, checks
    the vertex ids aligned with the edges, level by level."""

    def test_same_graph_as_the_face_reeb_graph(self):
        ts = taxa(2)
        g = gram_of(ts, [(0.0, [["a"], ["b"]]), (1.0, [["a", "b"]])])
        r = ReebGraph(**_two_level_args())
        assert r == face_reeb_graph(g)
        assert r.down_ids == ((0, 1), (0,)) and r.up_ids == ((0, 0), None)

    @pytest.mark.parametrize(
        "change, message",
        [
            (dict(criticals=(), edge_sets=(), vertex_counts=(), down_ids=(), up_ids=()),
             "a Reeb graph needs at least one level"),
            (dict(vertex_counts=(2,)), "level-indexed fields disagree in length"),
            (dict(criticals=(1.0, 1.0)), "criticals must be strictly increasing"),
            (dict(edge_sets=((0b01, 0b10), (0b01, 0b10))),
             "the top slab must be a single half-infinite edge"),
            (dict(down_ids=((0,), (0,))), "down map at level 0 does not cover the edges"),
            (dict(up_ids=(None, None)), "up map at level 0 does not cover the edges"),
            (dict(up_ids=((0, 0, 0), None)), "up map at level 0 does not cover the edges"),
            (dict(up_ids=((0, 0), (0,))), "the top slab has no upper endpoint"),
            (dict(down_ids=((0, 2), (0,))), "down map at level 0 out of range"),
            (dict(down_ids=((-1, 1), (0,))), "down map at level 0 out of range"),
            (dict(up_ids=((0, 1), None)), "up map at level 0 out of range"),
            (dict(down_ids=((0, 1), (1,))), "down map at level 1 out of range"),
        ],
    )
    def test_refusals(self, change, message):
        b = _two_level_args()
        b.update(change)
        with pytest.raises(ValueError) as err:
            ReebGraph(**b)
        assert str(err.value) == message


def _random_leveled_graph(rng):
    """Any leveled multigraph the constructor admits: random slabs of faces
    over four taxa with random vertex counts and random endpoints."""
    ts = taxa(4)
    n = rng.randint(1, 6)
    edge_sets = tuple(
        tuple(rng.sample(range(1, 15), rng.randint(0, 5))) for _ in range(n - 1)
    ) + ((0b1111,),)
    counts = tuple(rng.randint(1, 4) for _ in range(n))
    down = tuple(tuple(rng.randrange(counts[i]) for _ in es) for i, es in enumerate(edge_sets))
    up = tuple(
        tuple(rng.randrange(counts[i + 1]) for _ in es) if i < n - 1 else None
        for i, es in enumerate(edge_sets)
    )
    return ReebGraph(ts, tuple(map(float, range(n))), edge_sets, counts, down, up)


def test_component_count_of_any_leveled_graph(rng):
    seen = set()
    for _ in range(500):
        r = _random_leveled_graph(rng)
        components = component_count_by_union_find(r)
        assert r.component_count() == components
        assert r.cycle_rank() == r.finite_edge_count - r.vertex_count + components
        seen.add(components)
    assert len(seen) >= 5, seen


def test_loop_gram_mergegram_has_both_pairs():
    lm = labeled_mergegram(loop_gram())
    ts = loop_gram().universe
    assert set(lm.entries) == {
        ts.mask_of("b"),
        ts.mask_of("ab"),
        ts.mask_of("bc"),
        ts.full_mask,
    }
