import logging
import math
import random
import re
import tracemalloc

import numpy as np
import pytest

from phylolattice import (
    Interval,
    LabeledMergegram,
    Mergegram,
    PersistenceDiagram,
    PhyloNetwork,
    TaxaSet,
    Ultranetwork,
    VRFiltration,
    agglomerative_ultrametric,
    cliquegram_from_network,
    facegram_from_filtration,
    gram_from_labeled_mergegram,
    join_grams,
    join_mergegram_of_treegrams,
    labeled_mergegram,
    labeled_mergegram_json,
    labeled_mergegram_of_filtration,
    mergegram,
    mergegram_json,
    mergegram_of_filtration,
    Surjection,
    all_faces,
    filtration_from_facegram,
    parse_mergegram_json,
    parse_newick,
    ph0_elder,
    pullback_filtration,
    treegram_from_ultranetwork,
    ultranetwork_from_newick,
)
from phylolattice.grams import Gram

from oracles import (
    join_mergegram_by_matrix,
    join_mergegram_by_scan,
    labeled_mergegram_by_superset_scan,
    lifespans_by_definition,
)
from util import (
    balanced_newick,
    caterpillar_newick,
    gram_of,
    random_monotone_table,
    random_network,
    random_ultrametric,
    taxa,
)

INF = math.inf


def line_ultrametric(points):
    """Single-linkage ultrametric of numbers under |x - y|."""
    ts = TaxaSet([str(p) for p in points])
    rows = [[abs(p - q) for q in points] for p in points]
    return agglomerative_ultrametric(PhyloNetwork(ts, rows), method="single")


class TestIntervalMultisets:
    def test_multiplicity_counting(self):
        mg = Mergegram([(0, 1), (0, 1), (0, 2)])
        assert mg.points == ((0.0, 1.0, 2), (0.0, 2.0, 1))
        assert len(mg) == 3
        assert mg == Mergegram([(0, 1, 2), (0, 2)])

    def test_mergegram_rejects_degenerate(self):
        with pytest.raises(ValueError, match="degenerate"):
            Mergegram([(1, 1)])
        with pytest.raises(ValueError, match="degenerate"):
            Mergegram([(2, 1)])

    def test_diagram_allows_diagonal_points(self):
        pd = PersistenceDiagram([(1, 1)])
        assert pd.points == ((1.0, 1.0, 1),)
        with pytest.raises(ValueError, match="inverted"):
            PersistenceDiagram([(2, 1)])

    def test_positive_multiplicity(self):
        with pytest.raises(ValueError, match="positive"):
            Mergegram([(0, 1, 0)])

    @pytest.mark.parametrize("mult", [0.5, 2.7, 2.0, True, "3", None])
    def test_integer_multiplicity(self, mult):
        # 0.5 used to be stored as a point of multiplicity int(0.5) == 0
        for cls in (Mergegram, PersistenceDiagram):
            with pytest.raises(ValueError) as err:
                cls([(0, 1, mult)])
            assert str(err.value) == f"multiplicities must be integers, got {mult!r}"

    def test_numpy_integer_multiplicity(self):
        mg = Mergegram([(0, 1, np.int64(2)), (0, 1, np.uint8(1))])
        assert mg.points == ((0.0, 1.0, 3),) and type(mg.points[0][2]) is int
        assert len(mg) == 3
        assert parse_mergegram_json(mergegram_json(mg)) == mg

    def test_types_do_not_compare_equal(self):
        assert Mergegram([(0, 1)]) != PersistenceDiagram([(0, 1)])

    def test_empty(self):
        assert Mergegram().is_empty
        assert len(Mergegram()) == 0


class TestLabeledMergegram:
    def test_rejects_degenerate_lifespan(self):
        ts = taxa(1)
        with pytest.raises(ValueError, match="degenerate"):
            LabeledMergegram(ts, {0b1: Interval(1.0, 1.0)})

    def test_rejects_foreign_face(self):
        ts = taxa(1)
        with pytest.raises(ValueError):
            LabeledMergegram(ts, {0b10: Interval(0.0, 1.0)})

    def test_alive_at_half_open(self):
        ts = taxa(1)
        lm = LabeledMergegram(ts, {0b1: Interval(1.0, 2.0)})
        assert lm.alive_at(0.5) == ()
        assert lm.alive_at(1.0) == (0b1,)
        assert lm.alive_at(1.999) == (0b1,)
        assert lm.alive_at(2.0) == ()

    def test_alive_at_refuses_nan(self):
        lm = LabeledMergegram(taxa(1), {0b1: Interval(1.0, INF)})
        with pytest.raises(ValueError, match=r"t=nan"):
            lm.alive_at(math.nan)

    def test_equal_values_serialize_equally(self):
        # integer and tuple lifespans are stored as float intervals, so the
        # value equal to the one its gram returns writes the same bytes
        ts = taxa(2)
        given = LabeledMergegram(
            ts, {0b01: Interval(0, 1), 0b10: (0, 1.0), 0b11: (True, INF)}
        )
        back = labeled_mergegram(gram_from_labeled_mergegram(given))
        assert given == back
        assert labeled_mergegram_json(given) == labeled_mergegram_json(back)
        assert all(
            type(iv) is Interval and type(iv.birth) is float and type(iv.death) is float
            for iv in given.entries.values()
        )

    @pytest.mark.parametrize("lifespan", [1.0, (0.0,), (0.0, 1.0, 2.0), ("a", 1.0), None])
    def test_rejects_a_lifespan_that_is_no_pair(self, lifespan):
        with pytest.raises(ValueError) as err:
            LabeledMergegram(taxa(2), {0b01: lifespan})
        assert str(err.value) == (
            f"lifespan of face ('a',) must be a (birth, death) pair, got {lifespan!r}"
        )

    def test_unlabeled_forgets_faces(self):
        ts = taxa(2)
        lm = LabeledMergegram(
            ts, {0b01: Interval(0, 1), 0b10: Interval(0, 1), 0b11: Interval(1, INF)}
        )
        assert lm.unlabeled() == Mergegram([(0, 1, 2), (1, INF)])


class TestLineExamples:
    # single-linkage treegrams of small integer sets under |x - y|

    def expect(self, u, want):
        lm = labeled_mergegram(treegram_from_ultranetwork(u))
        got = {
            frozenset(u.universe.names_of(m)): (iv.birth, iv.death)
            for m, iv in lm.entries.items()
        }
        assert got == {frozenset(k): v for k, v in want.items()}

    def test_tight_pair_then_chain(self):
        self.expect(
            line_ultrametric([0, 1, 3, 7]),
            {
                ("0",): (0, 1),
                ("1",): (0, 1),
                ("3",): (0, 2),
                ("7",): (0, 4),
                ("0", "1"): (1, 2),
                ("0", "1", "3"): (2, 4),
                ("0", "1", "3", "7"): (4, INF),
            },
        )

    def test_two_pairs(self):
        self.expect(
            line_ultrametric([0, 1, 5, 7]),
            {
                ("0",): (0, 1),
                ("1",): (0, 1),
                ("5",): (0, 2),
                ("7",): (0, 2),
                ("0", "1"): (1, 4),
                ("5", "7"): (2, 4),
                ("0", "1", "5", "7"): (4, INF),
            },
        )

    def test_ph0_collapses_the_distinction(self):
        want = PersistenceDiagram([(0, 1), (0, 2), (0, 4), (0, INF)])
        assert ph0_elder(line_ultrametric([0, 1, 3, 7])) == want
        assert ph0_elder(line_ultrametric([0, 1, 5, 7])) == want


def test_single_level_gram():
    ts = taxa(2)
    g = gram_of(ts, [(0.5, [["a", "b"]])])
    assert labeled_mergegram(g).entries == {0b11: Interval(0.5, INF)}
    assert mergegram(g) == Mergegram([(0.5, INF)])


def _random_filtration(ts, rng):
    """A table, VR (ties from integer rounding, late observation), facegram
    or pullback filtration over ``ts``; a pullback's base is one of the
    others over a random image of ``ts``."""
    kind = rng.randrange(4)
    if kind == 0:
        return random_monotone_table(ts, rng)
    if kind == 1:
        net = random_network(ts, rng, late=rng.random() < 0.5)
        if rng.random() < 0.5:
            net = PhyloNetwork(ts, np.round(net.matrix * 3))
        return VRFiltration(net)
    if kind == 2:
        trees = [random_ultrametric(ts, rng, late=True) for _ in range(rng.randint(1, 3))]
        g = join_grams([treegram_from_ultranetwork(u) for u in trees], "facegram")
        return filtration_from_facegram(g)
    base = _random_filtration(taxa(rng.randint(1, len(ts))), rng)
    k = len(base.universe)
    mapping = list(range(k)) + [rng.randrange(k) for _ in range(len(ts) - k)]
    rng.shuffle(mapping)
    return pullback_filtration(base, Surjection(ts, base.universe, mapping))


class TestFiltrationRoute:
    def test_matches_sweep_and_definition(self, rng):
        for n in (2, 3, 5):
            ts = taxa(n)
            for _ in range(15):
                f = VRFiltration(random_network(ts, rng, late=True))
                via_gram = labeled_mergegram(facegram_from_filtration(f))
                direct = labeled_mergegram_of_filtration(f)
                assert direct == via_gram
                oracle = lifespans_by_definition(f, ts)
                assert {m: tuple(iv) for m, iv in direct.entries.items()} == oracle

    def test_explicit_support_superset_is_harmless(self, rng):
        ts = taxa(4)
        f = VRFiltration(random_network(ts, rng))
        everything = tuple(range(1, 1 << 4))
        assert labeled_mergegram_of_filtration(f, everything) == (
            labeled_mergegram_of_filtration(f)
        )

    def test_matches_the_superset_scan(self):
        rng = random.Random(81)
        for _ in range(1200):
            f = _random_filtration(taxa(rng.randint(1, 6)), rng)
            support = tuple(all_faces(f.universe)) if rng.random() < 0.5 else None
            assert labeled_mergegram_of_filtration(f, support) == (
                labeled_mergegram_by_superset_scan(f, support)
            )

    def test_vr_on_twenty_taxa(self, rng):
        ts = TaxaSet(f"t{i:02d}" for i in range(20))
        net = random_network(ts, rng, late=True)
        assert labeled_mergegram_of_filtration(VRFiltration(net)) == (
            labeled_mergegram(cliquegram_from_network(net))
        )

    def test_unlabeled_wrapper(self, rng):
        f = VRFiltration(random_network(taxa(3), rng))
        assert mergegram_of_filtration(f) == labeled_mergegram_of_filtration(f).unlabeled()


def _shuffled_leaves(text: str, n: int) -> str:
    """The same Newick text with the leaf names t0000... permuted (seeded)."""
    perm = list(range(n))
    random.Random(n).shuffle(perm)
    return re.sub(r"t(\d{4})", lambda mo: f"t{perm[int(mo.group(1))]:04d}", text)


class TestTreeJoin:
    def u3(self, xy, yz, xz, diag=(0, 0, 0)):
        ts = TaxaSet(["x", "y", "z"])
        d = list(diag)
        return Ultranetwork(ts, [[d[0], xy, xz], [xy, d[1], yz], [xz, yz, d[2]]])

    def test_two_chains(self):
        # min network has tight xy and yz edges; xz only via the triangle
        u1 = self.u3(xy=1, yz=3, xz=3)
        u2 = self.u3(xy=3, yz=1, xz=3)
        lm = join_mergegram_of_treegrams([u1, u2])
        ts = lm.universe
        assert lm.entries == {
            ts.mask_of("x"): Interval(0, 1),
            ts.mask_of("y"): Interval(0, 1),
            ts.mask_of("z"): Interval(0, 1),
            ts.mask_of("xy"): Interval(1, 3),
            ts.mask_of("yz"): Interval(1, 3),
            ts.full_mask: Interval(3, INF),
        }
        assert ts.mask_of("xz") not in lm.entries

    def test_absorbed_candidate_is_suppressed(self):
        # xy is a face of u1 but is born into the u2 triangle in the join
        u1 = self.u3(xy=1, yz=3, xz=3)
        u2 = self.u3(xy=0.7, yz=0.5, xz=0.7)
        lm = join_mergegram_of_treegrams([u1, u2])
        ts = lm.universe
        assert ts.mask_of("xy") not in lm.entries
        assert lm.entries == {
            ts.mask_of("x"): Interval(0, 0.7),
            ts.mask_of("y"): Interval(0, 0.5),
            ts.mask_of("z"): Interval(0, 0.5),
            ts.mask_of("yz"): Interval(0.5, 0.7),
            ts.full_mask: Interval(0.7, INF),
        }

    def test_single_tree_is_its_own_join(self, rng):
        u = random_ultrametric(taxa(5), rng, late=True)
        expect = labeled_mergegram(treegram_from_ultranetwork(u))
        assert join_mergegram_of_treegrams([u]) == expect
        assert join_mergegram_by_scan([u]) == expect

    def test_methods_agree_with_materialized_join(self, rng):
        for n in (3, 5, 7):
            ts = taxa(n)
            for _ in range(15):
                us = [random_ultrametric(ts, rng, late=True) for _ in range(3)]
                slow = labeled_mergegram(
                    join_grams(
                        [treegram_from_ultranetwork(u) for u in us], "facegram"
                    )
                )
                assert join_mergegram_of_treegrams(us) == slow
                assert join_mergegram_by_scan(us) == slow

    def test_input_validation(self, rng):
        with pytest.raises(ValueError, match="at least one"):
            join_mergegram_of_treegrams([])
        with pytest.raises(ValueError, match="different universes"):
            join_mergegram_of_treegrams([self.u3(1, 1, 1), random_ultrametric(taxa(2), rng)])

    def test_matches_the_matrix_path(self):
        # bit for bit (float.hex) on random families: ties from rounding to
        # integers, late observation, repeated trees and single taxa
        rng = random.Random(83)
        signed_zero_families = 0
        for k in range(1200):
            ts = taxa(1 + k % 10)
            trees = []
            for _ in range(rng.randint(1, 5)):
                if trees and rng.random() < 0.2:
                    trees.append(rng.choice(trees))
                    continue
                u = random_ultrametric(ts, rng, late=rng.random() < 0.5)
                if rng.random() < 0.4:
                    u = Ultranetwork(ts, np.round(u.matrix * 3))
                trees.append(u)
            got = join_mergegram_of_treegrams(trees)
            want = join_mergegram_by_matrix(trees)
            assert got.entries.keys() == want.entries.keys()
            for m, iv in want.entries.items():
                assert got.entries[m].birth.hex() == iv.birth.hex()
                assert got.entries[m].death.hex() == iv.death.hex()
            if k % 4 == 0:
                # which of two equal zeros a minimum returns depends on the
                # reduction order, so -0.0 entries are compared by value only
                flipped = [Ultranetwork(ts, np.where(u.matrix == 0, -0.0, u.matrix)) for u in trees]
                signed_zero_families += any(np.signbit(u.matrix).any() for u in flipped)
                assert join_mergegram_of_treegrams(flipped) == join_mergegram_by_matrix(flipped)
        assert signed_zero_families > 100

    @pytest.mark.parametrize(
        "texts",
        [
            (caterpillar_newick(1200), balanced_newick(1200)),
            (balanced_newick(2000), _shuffled_leaves(balanced_newick(2000), 2000)),
        ],
        ids=["caterpillar-1200", "balanced-2000"],
    )
    def test_large_trees_match_the_matrix_path(self, texts):
        trees = [ultranetwork_from_newick(parse_newick(t)[0]) for t in texts]
        assert join_mergegram_of_treegrams(trees) == join_mergegram_by_matrix(trees)

    def test_memory_stays_linear_in_the_taxa(self):
        text = balanced_newick(2000)
        trees = [
            ultranetwork_from_newick(parse_newick(t)[0])
            for t in (text, _shuffled_leaves(text, 2000))
        ]
        tracemalloc.start()
        try:
            join_mergegram_of_treegrams(trees)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one 2,000-taxon matrix alone is 32 MB
        assert peak < 16 * 2**20

    def test_builds_no_gram(self, rng, monkeypatch):
        trees = [random_ultrametric(taxa(6), rng, late=True) for _ in range(3)]
        want = join_mergegram_by_matrix(trees)

        def refuse(*args, **kwargs):
            raise AssertionError("the fast join built a Gram")

        monkeypatch.setattr(Gram, "__init__", refuse)
        assert join_mergegram_of_treegrams(trees) == want

    def test_debug_line(self, caplog):
        u1 = self.u3(xy=1, yz=3, xz=3)
        u2 = self.u3(xy=3, yz=1, xz=3)
        with caplog.at_level(logging.DEBUG, logger="phylolattice.mergegram"):
            join_mergegram_of_treegrams([u1, u2])
            join_mergegram_of_treegrams([u1])
        records = [r for r in caplog.records if r.name == "phylolattice.mergegram"]
        assert [r.levelno for r in records] == [logging.DEBUG] * 2
        fields = []
        for record in records:
            stage, *pairs = record.getMessage().split()
            assert stage == "stage=fast_join"
            fields.append(dict(p.split("=") for p in pairs))
            assert list(fields[-1]) == ["taxa", "trees", "candidates", "entries", "ms"]
            assert float(fields[-1]["ms"]) >= 0
        # runs x, y, z, xy, xyz of u1 and yz of u2; every one is a face
        counts = [(f["taxa"], f["trees"], f["candidates"], f["entries"]) for f in fields]
        assert counts == [("3", "2", "6", "6"), ("3", "1", "5", "5")]

    def test_no_log_line_above_debug(self, caplog, rng):
        trees = [random_ultrametric(taxa(5), rng) for _ in range(2)]
        with caplog.at_level(logging.INFO, logger="phylolattice.mergegram"):
            join_mergegram_of_treegrams(trees)
        assert not [r for r in caplog.records if r.name == "phylolattice.mergegram"]


class TestCompleteInvariant:
    def test_gram_round_trip(self, rng):
        for n in (2, 4, 6):
            ts = taxa(n)
            for _ in range(15):
                g = cliquegram_from_network(random_network(ts, rng, late=True))
                back = gram_from_labeled_mergegram(labeled_mergegram(g))
                assert back == g

    def test_kind_is_revalidated(self, rng):
        u = random_ultrametric(taxa(4), rng)
        lm = labeled_mergegram(treegram_from_ultranetwork(u))
        assert gram_from_labeled_mergegram(lm, "treegram").kind == "treegram"

    @pytest.mark.parametrize(
        "entries, message",
        [
            # a on [0, 1) then nothing until ab: the gram keeps a until 2
            (
                {0b01: Interval(0.0, 1.0), 0b11: Interval(2.0, INF)},
                "face ('a',) has [0.0, 1.0) but lives on [0.0, 2.0)",
            ),
            # a full face that dies; a gram's full face lives on
            ({0b11: Interval(0.0, 5.0)}, "face ('a', 'b') has [0.0, 5.0) but lives on [0.0, inf)"),
            # a is born after ab covers it
            (
                {0b01: Interval(1.0, 2.0), 0b11: Interval(0.0, INF)},
                "face ('a',) has [1.0, 2.0) but is never maximal",
            ),
        ],
    )
    def test_refuses_entries_that_are_no_gram(self, entries, message):
        lm = LabeledMergegram(taxa(2), entries)
        with pytest.raises(ValueError, match="not the lifespans of a gram") as err:
            gram_from_labeled_mergegram(lm)
        assert message in str(err.value)


def test_unlabeled_mergegram_is_relabeling_invariant(rng):
    ts = taxa(5)
    net = random_network(ts, rng, late=True)
    perm = [3, 0, 4, 1, 2]
    shuffled = PhyloNetwork(
        TaxaSet([f"n{i}" for i in range(5)]), net.matrix[np.ix_(perm, perm)]
    )
    assert mergegram(cliquegram_from_network(net)) == mergegram(
        cliquegram_from_network(shuffled)
    )


class TestPH0:
    def test_single_taxon(self):
        u = Ultranetwork(taxa(1), [[0.0]])
        assert ph0_elder(u) == PersistenceDiagram([(0, INF)])

    def test_star(self):
        u = Ultranetwork(taxa(3), [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        assert ph0_elder(u) == PersistenceDiagram([(0, 1, 2), (0, INF)])

    def test_requires_zero_diagonal(self):
        u = Ultranetwork(taxa(2), [[0.5, 1], [1, 0.5]])
        with pytest.raises(ValueError, match="zero diagonal"):
            ph0_elder(u)

    def test_point_count(self, rng):
        for n in (2, 4, 6):
            u = random_ultrametric(taxa(n), rng)
            assert len(ph0_elder(u)) == n
