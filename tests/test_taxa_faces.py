import random

import pytest

from phylolattice import (
    CliqueSet,
    FaceSet,
    Graph,
    canonical_faces,
    cliqueset_from_graph,
    cliqueset_join,
    complex_to_faceset,
    faceset_join,
    faceset_leq,
    faceset_meet,
    faceset_to_complex,
    graph_from_cliqueset,
    is_pair_cover_closed,
    is_subpartition,
    maximal_cliques,
    maximal_masks,
    bits,
    TaxaSet,
)
from phylolattice.faces import bron_kerbosch, cover_graph

from oracles import (
    bron_kerbosch_by_recursion,
    enumerate_maximal_cliques,
    is_clique_set_by_enumeration,
)
from util import taxa


def random_graph(ts, rng, p=0.5):
    n = len(ts)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.from_edges(ts, ts.full_mask, edges)


def random_faceset(ts, rng):
    """The maximal masks among one to eight random masks of at most n - 1
    taxa: pairwise-overlapping faces are common, so are uncovered triangles."""
    n = len(ts)
    masks = []
    for _ in range(rng.randint(1, 8)):
        size = rng.randint(1, max(1, n - 1))
        masks.append(sum(1 << i for i in rng.sample(range(n), size)))
    return FaceSet(ts, maximal_masks(masks))


class TestTaxaSet:
    def test_basics(self):
        ts = TaxaSet(["x", "y", "z"])
        assert len(ts) == 3
        assert ts.position("y") == 1
        assert ts.singleton("z") == 4
        assert ts.mask_of(["x", "z"]) == 5
        assert ts.names_of(5) == ("x", "z")
        assert ts.full_mask == 7

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            TaxaSet(["x", "x"])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TaxaSet([])

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            TaxaSet(["x"]).position("y")

    def test_check_face(self):
        ts = TaxaSet(["x", "y"])
        with pytest.raises(ValueError):
            ts.check_face(0)
        with pytest.raises(ValueError):
            ts.check_face(4)
        assert ts.check_face(3) == 3

    def test_bits(self):
        assert list(bits(0b101001)) == [0, 3, 5]
        assert list(bits(0)) == []


class TestFaceSet:
    def test_canonical_order(self):
        assert canonical_faces([0b1, 0b110, 0b10]) == (0b110, 0b1, 0b10)

    def test_maximal_masks(self):
        assert maximal_masks([0b1, 0b11, 0b11, 0b100]) == (0b11, 0b100)

    def test_antichain_violation(self):
        ts = taxa(3)
        with pytest.raises(ValueError, match="antichain"):
            FaceSet(ts, [0b11, 0b1])

    def test_duplicate_face(self):
        ts = taxa(3)
        with pytest.raises(ValueError, match="duplicate"):
            FaceSet(ts, [0b11, 0b11])

    def test_overlapping_families_are_still_checked(self):
        # disjoint faces skip the pairwise check; overlapping ones take it
        ts = taxa(4)
        assert FaceSet(ts, [0b0011, 0b1100]).faces == (0b0011, 0b1100)
        assert FaceSet(ts, [0b0011, 0b0110, 0b1100]).faces == (0b0011, 0b0110, 0b1100)
        with pytest.raises(ValueError, match=r"^duplicate face 0b110$"):
            FaceSet(ts, [0b0001, 0b0110, 0b0110])
        with pytest.raises(
            ValueError, match=r"^not an antichain: 0b1 is contained in 0b11$"
        ):
            FaceSet(ts, [0b1100, 0b0011, 0b0001])

    def test_face_check_comes_before_the_antichain_check(self):
        ts = taxa(3)
        with pytest.raises(ValueError, match="bits outside the universe"):
            FaceSet(ts, [0b11, 0b11, 0b1000])

    def test_covers_and_support(self):
        ts = taxa(3)
        fs = FaceSet.from_names(ts, [["a", "b"], ["c"]])
        assert fs.covers(0b01) and fs.covers(0b11) and not fs.covers(0b101)
        assert fs.support() == 0b111

    def test_eq_ignores_input_order(self):
        ts = taxa(3)
        assert FaceSet(ts, [0b11, 0b100]) == FaceSet(ts, [0b100, 0b11])

    def test_empty_family_allowed(self):
        fs = FaceSet(taxa(2))
        assert fs.is_empty and len(fs) == 0


class TestCliques:
    def test_triangle_with_tail(self):
        ts = taxa(4)
        g = Graph.from_edges(ts, ts.full_mask, [(0, 1), (1, 2), (0, 2), (2, 3)])
        assert set(maximal_cliques(g)) == {0b0111, 0b1100}

    def test_isolated_vertices(self):
        ts = taxa(3)
        g = Graph(ts, 0b101, [0, 0, 0])
        assert set(maximal_cliques(g)) == {0b001, 0b100}

    def test_empty_graph(self):
        ts = taxa(3)
        assert maximal_cliques(Graph(ts, 0, [0, 0, 0])) == ()

    def test_against_subset_enumeration(self, rng):
        for n in range(2, 9):
            ts = taxa(n)
            for _ in range(20):
                g = random_graph(ts, rng, p=rng.uniform(0.2, 0.9))
                assert set(maximal_cliques(g)) == enumerate_maximal_cliques(g)

    def test_same_cliques_in_the_same_order_as_the_recursion(self):
        # random vertex subsets as p, part of the rest as x
        rng = random.Random(80)
        for k in range(3000):
            ts = taxa(1 + k % 16)
            g = random_graph(ts, rng, p=rng.uniform(0.1, 0.95))
            p = rng.randrange(1, ts.full_mask + 1)
            x = rng.randrange(ts.full_mask + 1) & ~p
            assert bron_kerbosch(g.adj, p, x) == bron_kerbosch_by_recursion(g.adj, p, x)

    def test_graph_validation(self):
        ts = taxa(3)
        with pytest.raises(ValueError, match="symmetric"):
            Graph(ts, 0b111, [0b010, 0, 0])
        with pytest.raises(ValueError, match="self-loop"):
            Graph(ts, 0b111, [0b001, 0, 0])
        with pytest.raises(ValueError, match="outside"):
            Graph(ts, 0b011, [0b100, 0, 0])


class TestLattice:
    def test_leq_and_join(self):
        ts = taxa(3)
        a = FaceSet.from_names(ts, [["a"], ["b"]])
        b = FaceSet.from_names(ts, [["a", "b"], ["c"]])
        assert faceset_leq(a, b) and not faceset_leq(b, a)
        j = faceset_join([a, b])
        assert j == b

    def test_join_is_least_upper_bound(self, rng):
        ts = taxa(5)
        for _ in range(50):
            parts = [
                cliqueset_from_graph(random_graph(ts, rng)) for _ in range(3)
            ]
            j = faceset_join(parts)
            assert all(faceset_leq(p, j) for p in parts)
            # any common upper bound dominates the join
            ub = faceset_join([j, FaceSet(ts, [ts.full_mask])])
            assert faceset_leq(j, ub)

    def test_meet_is_greatest_lower_bound(self):
        ts = taxa(4)
        a = FaceSet.from_names(ts, [["a", "b", "c"], ["d"]])
        b = FaceSet.from_names(ts, [["b", "c", "d"], ["a"]])
        m = faceset_meet(a, b)
        assert m == FaceSet.from_names(ts, [["b", "c"], ["a"], ["d"]])
        assert faceset_leq(m, a) and faceset_leq(m, b)

    def test_clique_vs_face_join_diverge(self):
        # three pair-merging partitions: the clique join completes the
        # triangle, the face join keeps the three pairs
        ts = TaxaSet(["x", "y", "z"])
        parts = [
            FaceSet.from_names(ts, [["x", "y"], ["z"]]),
            FaceSet.from_names(ts, [["y", "z"], ["x"]]),
            FaceSet.from_names(ts, [["z", "x"], ["y"]]),
        ]
        cj = cliqueset_join(parts)
        fj = faceset_join(parts)
        assert cj == CliqueSet(ts, [0b111])
        assert fj == FaceSet(ts, [0b011, 0b110, 0b101])
        assert faceset_leq(fj, cj)


class TestCliqueSetValidation:
    def test_three_pairs_not_clique_set(self):
        ts = taxa(3)
        fs = FaceSet(ts, [0b011, 0b110, 0b101])
        assert not is_pair_cover_closed(fs)
        with pytest.raises(ValueError, match="maximal-clique"):
            CliqueSet(ts, [0b011, 0b110, 0b101])

    def test_partition_is_clique_set(self):
        ts = taxa(4)
        fs = CliqueSet.from_names(ts, [["a", "b"], ["c", "d"]])
        assert is_pair_cover_closed(fs)
        assert is_subpartition(fs)

    def test_graph_round_trip(self, rng):
        # clique-sets of graphs and cover graphs of clique-sets invert
        for n in range(2, 8):
            ts = taxa(n)
            for _ in range(25):
                g = random_graph(ts, rng)
                cs = cliqueset_from_graph(g)
                assert graph_from_cliqueset(cs) == g
                assert cliqueset_from_graph(graph_from_cliqueset(cs)) == cs

    def test_matches_the_full_check(self):
        rng = random.Random(62)
        outcomes = {True: 0, False: 0}
        for k in range(12000):
            ts = taxa(1 + k % 8)
            f = random_faceset(ts, rng)
            expect = is_clique_set_by_enumeration(f)
            outcomes[expect] += 1
            assert is_pair_cover_closed(f) == expect
            if expect:
                assert CliqueSet(ts, f.faces) == f
            else:
                with pytest.raises(ValueError, match="maximal-clique"):
                    CliqueSet(ts, f.faces)
        assert min(outcomes.values()) >= 1000, outcomes

    def test_join_is_the_cliques_of_the_union_cover_graph(self):
        rng = random.Random(63)
        for k in range(1200):
            ts = taxa(1 + k % 8)
            parts = [random_faceset(ts, rng) for _ in range(rng.randint(1, 3))]
            union = cover_graph(ts, [m for p in parts for m in p.faces])
            joined = cliqueset_join(parts)
            assert type(joined) is CliqueSet
            assert joined.faces == canonical_faces(enumerate_maximal_cliques(union))
        ts = taxa(3)
        assert cliqueset_join([FaceSet(ts, ()), FaceSet(ts, ())]) == CliqueSet(ts, ())

    def test_subpartition(self):
        ts = taxa(4)
        assert is_subpartition(FaceSet(ts, [0b0011, 0b0100]))
        assert not is_subpartition(FaceSet(ts, [0b0011, 0b0110]))


class TestComplexRoundTrip:
    def test_round_trip(self, rng):
        for n in range(1, 7):
            ts = taxa(n)
            for _ in range(20):
                faces = [
                    rng.randrange(1, 1 << n) for _ in range(rng.randrange(1, 5))
                ]
                fs = FaceSet(ts, maximal_masks(faces))
                cx = faceset_to_complex(fs)
                # downward closed
                assert all(((s - 1) & m) in cx or not ((s - 1) & m)
                           for m in cx for s in [m])
                assert complex_to_faceset(ts, cx) == fs
