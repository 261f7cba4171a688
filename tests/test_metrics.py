import logging
import math

import pytest

from phylolattice import (
    ExperimentConfig,
    Interval,
    LabeledMergegram,
    Mergegram,
    PhyloNetwork,
    bottleneck_distance,
    bottleneck_matching,
    cliquegram_from_network,
    facegram_interleaving,
    filtration_from_facegram,
    filtration_interleaving,
    gen_random_treegrams,
    gromov_hausdorff_bruteforce,
    labeled_mergegram,
    linf_labeled_distance,
    mergegram,
    partial_joins,
    treegram_from_ultranetwork,
    vr_tripod_bruteforce,
)

from oracles import bottleneck_by_scalar_search, exhaustive_bottleneck, exhaustive_gh
from util import gram_of, random_network, taxa

INF = math.inf


def random_mergegram(rng, max_points=4, inf_points=0):
    pts = []
    for _ in range(rng.randrange(max_points + 1)):
        b = round(rng.uniform(0, 2), 2)
        pts.append((b, b + round(rng.uniform(0.01, 2), 2)))
    pts.extend((round(rng.uniform(0, 2), 2), INF) for _ in range(inf_points))
    return Mergegram(pts)


def line_network(points):
    ts = taxa(len(points))
    return PhyloNetwork(ts, [[abs(p - q) for q in points] for p in points])


class TestBottleneck:
    def test_identity(self, rng):
        for _ in range(10):
            a = random_mergegram(rng, inf_points=1)
            assert bottleneck_distance(a, a) == 0.0

    def test_single_pair(self):
        assert bottleneck_distance(Mergegram([(0, 2)]), Mergegram([(0, 3)])) == 1.0

    def test_drop_beats_bad_match(self):
        # matching the short interval far away costs more than erasing it
        a = Mergegram([(0, 0.2)])
        b = Mergegram([(5, 9)])
        assert bottleneck_distance(a, b) == 2.0  # drop both: max(0.1, 2.0)

    def test_against_empty(self):
        assert bottleneck_distance(Mergegram([(0, 2)]), Mergegram()) == 1.0
        assert bottleneck_distance(Mergegram(), Mergegram()) == 0.0

    def test_infinite_points_pair_by_birth(self):
        a = Mergegram([(0, INF)])
        assert bottleneck_distance(a, Mergegram([(1, INF)])) == 1.0
        assert bottleneck_distance(a, Mergegram()) == INF
        assert bottleneck_distance(a, Mergegram([(0, INF), (3, INF)])) == INF

    def test_infinite_floor_dominates(self):
        a = Mergegram([(0, INF), (0, 2)])
        b = Mergegram([(0.5, INF)])
        assert bottleneck_distance(a, b) == 1.0

    def test_multiplicities(self):
        a = Mergegram([(0, 2, 3)])
        b = Mergegram([(0, 2, 2), (0.5, 2.5)])
        assert bottleneck_distance(a, b) == 0.5

    def test_matches_exhaustive(self, rng):
        for _ in range(60):
            a = random_mergegram(rng, inf_points=rng.randrange(2))
            b = random_mergegram(rng, inf_points=rng.randrange(2))
            assert bottleneck_distance(a, b) == exhaustive_bottleneck(a, b)

    def test_symmetry_and_triangle(self, rng):
        for _ in range(20):
            a, b, c = (random_mergegram(rng, inf_points=1) for _ in range(3))
            dab = bottleneck_distance(a, b)
            assert dab == bottleneck_distance(b, a)
            assert dab <= bottleneck_distance(a, c) + bottleneck_distance(c, b) + 1e-12


class TestAgainstScalarSearch:
    @pytest.mark.parametrize("mode", ["facegram", "cliquegram"])
    def test_criterion_7_rows_at_n_10(self, mode):
        trees = gen_random_treegrams(ExperimentConfig(taxa=10, trees=21, seed=17))
        joins = partial_joins([treegram_from_ultranetwork(u) for u in trees], mode)
        mgms = [mergegram(g) for g in joins]
        for m in mgms:
            d = bottleneck_distance(m, mgms[-1])
            assert type(d) is float
            assert d == bottleneck_by_scalar_search(m, mgms[-1])

    def test_result_is_a_python_float(self, rng):
        for _ in range(10):
            a = random_mergegram(rng, inf_points=1)
            b = random_mergegram(rng, inf_points=1)
            assert type(bottleneck_distance(a, b)) is float
        assert type(bottleneck_distance(Mergegram(), Mergegram())) is float

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "a",
        [
            Mergegram([(-1e308, 1e308, 2)]),  # neither copy can be dropped
            Mergegram([(-INF, 1)]),
        ],
    )
    def test_no_matching_at_a_finite_eps_raises(self, a):
        b = Mergegram([(0, 1)])
        for distance in (bottleneck_distance, bottleneck_by_scalar_search):
            with pytest.raises(RuntimeError, match="admits a matching|without a matching"):
                distance(a, b)


def _debug_fields(caplog) -> dict[str, str]:
    (record,) = [r for r in caplog.records if r.name == "phylolattice.metrics"]
    return dict(f.split("=", 1) for f in record.getMessage().split())


class TestLowerBoundProbe:
    def test_tight_lower_bound_takes_one_solve(self, caplog):
        # each point's cheapest option is the other point, at 1.0
        a, b = Mergegram([(0, 2)]), Mergegram([(0, 3)])
        with caplog.at_level(logging.DEBUG, logger="phylolattice.metrics"):
            d = bottleneck_distance(a, b)
        assert d == 1.0 == bottleneck_by_scalar_search(a, b)
        fields = _debug_fields(caplog)
        assert fields["stage"] == "bottleneck"
        assert float(fields["lb"]) == d
        assert fields["solves"] == "1"
        assert fields["points"] == "1+1"

    def test_loose_lower_bound_falls_back_to_the_search(self, caplog):
        # both copies of (0, 10) are at distance 0 from the single (0, 10),
        # but only one can take it: the other must be dropped at cost 5
        a, b = Mergegram([(0, 10, 2), (1, 2)]), Mergegram([(0, 10), (1, 2.5)])
        with caplog.at_level(logging.DEBUG, logger="phylolattice.metrics"):
            d = bottleneck_distance(a, b)
        assert d == 5.0 == bottleneck_by_scalar_search(a, b)
        fields = _debug_fields(caplog)
        assert float(fields["lb"]) == 0.5 < d
        assert int(fields["solves"]) > 1

    def test_pairs_both_points_can_drop_are_not_candidates(self, caplog):
        # 0.0, 1.0 (both half-persistences) and not the pair distance 5.0
        a, b = Mergegram([(0, 2)]), Mergegram([(5, 7)])
        with caplog.at_level(logging.DEBUG, logger="phylolattice.metrics"):
            d = bottleneck_distance(a, b)
        assert d == 1.0 == bottleneck_by_scalar_search(a, b)
        assert _debug_fields(caplog)["candidates"] == "2"

    def test_no_log_line_above_debug(self, caplog):
        with caplog.at_level(logging.INFO, logger="phylolattice.metrics"):
            bottleneck_distance(Mergegram([(0, 2)]), Mergegram([(0, 3)]))
        assert not [r for r in caplog.records if r.name == "phylolattice.metrics"]


class TestMatchingWitness:
    def test_witness_attains_the_distance(self, rng):
        for _ in range(30):
            a = random_mergegram(rng, inf_points=1)
            b = random_mergegram(rng, inf_points=1)
            d = bottleneck_distance(a, b)
            m = bottleneck_matching(a, b, d)
            assert m is not None
            assert m.covers(a, b)
            assert m.cost() == d

    def test_too_small_eps_gives_none(self):
        a, b = Mergegram([(0, 2)]), Mergegram([(0, 3)])
        assert bottleneck_matching(a, b, 0.99) is None
        assert bottleneck_matching(a, b, 1.0) is not None

    def test_infinite_mismatch_gives_none(self):
        assert bottleneck_matching(Mergegram([(0, INF)]), Mergegram(), 100.0) is None
        assert bottleneck_matching(Mergegram(), Mergegram([(0, INF)]), INF) is None


class TestLabeledDistance:
    def test_universe_mismatch(self):
        a = LabeledMergegram(taxa(1), {0b1: Interval(0, INF)})
        b = LabeledMergegram(taxa(2), {0b11: Interval(0, INF)})
        with pytest.raises(ValueError, match="different universes"):
            linf_labeled_distance(a, b)

    def test_per_face_costs(self):
        ts = taxa(2)
        a = LabeledMergegram(
            ts, {0b01: Interval(0, 1), 0b11: Interval(1, INF)}
        )
        b = LabeledMergegram(
            ts, {0b01: Interval(0, 2), 0b11: Interval(2, INF)}
        )
        assert linf_labeled_distance(a, b) == 1.0
        assert linf_labeled_distance(a, a) == 0.0

    def test_one_sided_face_costs_half_its_length(self):
        ts = taxa(2)
        a = LabeledMergegram(ts, {0b01: Interval(0, 1), 0b11: Interval(0, INF)})
        b = LabeledMergegram(ts, {0b11: Interval(0, INF)})
        assert linf_labeled_distance(a, b) == 0.5

    def test_labels_can_separate_equal_multisets(self):
        # swapping the labels leaves the mergegram fixed but not the map
        ts = taxa(2)
        a = LabeledMergegram(
            ts,
            {0b01: Interval(0, 2), 0b10: Interval(1, 3), 0b11: Interval(3, INF)},
        )
        b = LabeledMergegram(
            ts,
            {0b01: Interval(1, 3), 0b10: Interval(0, 2), 0b11: Interval(3, INF)},
        )
        assert bottleneck_distance(a.unlabeled(), b.unlabeled()) == 0.0
        assert linf_labeled_distance(a, b) == 1.0


def test_equal_mergegrams_separated_by_labels():
    # two facegrams over {w,x,y,z} with the same unlabeled mergegram that
    # differ in a single labeled entry; each one-sided face costs half its
    # length, so the labeled distance is 0.5 while the bottleneck is 0
    from phylolattice import face_reeb_graph, is_treegram
    from util import gram_of

    ts = taxa(4)  # a=w, b=x, c=y, d=z up to renaming
    c_gram = gram_of(
        ts,
        [
            (0.0, [["a"], ["b"], ["c"], ["d"]]),
            (1.0, [["a", "b"], ["c"], ["d"]]),
            (2.0, [["a", "b"], ["c", "d"]]),
            (3.0, [["a", "b", "c", "d"]]),
        ],
    )
    a_gram = gram_of(
        ts,
        [
            (0.0, [["a"], ["b"], ["c"], ["d"]]),
            (1.0, [["a", "b"], ["c"], ["d"]]),
            (2.0, [["a", "b"], ["b", "c", "d"]]),
            (3.0, [["a", "b", "c", "d"]]),
        ],
    )
    assert is_treegram(c_gram)
    assert not is_treegram(a_gram)
    assert face_reeb_graph(a_gram).is_merge_tree()
    ma, mc = labeled_mergegram(a_gram), labeled_mergegram(c_gram)
    assert ma.unlabeled() == mc.unlabeled()
    assert bottleneck_distance(ma.unlabeled(), mc.unlabeled()) == 0.0
    assert linf_labeled_distance(ma, mc) == 0.5
    only_a = set(ma.entries) - set(mc.entries)
    only_c = set(mc.entries) - set(ma.entries)
    assert only_a == {ts.mask_of("bcd")}
    assert only_c == {ts.mask_of("cd")}


class TestDistanceChain:
    def test_bottleneck_leq_labeled_leq_interleaving(self, rng):
        ts = taxa(5)
        for _ in range(25):
            g1 = cliquegram_from_network(random_network(ts, rng, late=True))
            g2 = cliquegram_from_network(random_network(ts, rng))
            db = bottleneck_distance(mergegram(g1), mergegram(g2))
            dl = linf_labeled_distance(labeled_mergegram(g1), labeled_mergegram(g2))
            di = facegram_interleaving(g1, g2)
            assert db <= dl + 1e-12
            assert dl <= di + 1e-12

    def test_facegram_interleaving_delegates(self, rng):
        ts = taxa(4)
        g1 = cliquegram_from_network(random_network(ts, rng))
        g2 = cliquegram_from_network(random_network(ts, rng))
        assert facegram_interleaving(g1, g2) == filtration_interleaving(
            filtration_from_facegram(g1), filtration_from_facegram(g2)
        )
        with pytest.raises(ValueError, match="different universes"):
            facegram_interleaving(g1, cliquegram_from_network(random_network(taxa(3), rng)))


class TestInterleavingLog:
    def test_debug_line(self, caplog):
        ts = taxa(3)
        a = gram_of(ts, [(0.0, [["a"], ["b"], ["c"]]), (1.0, [["a", "b"], ["c"]]),
                         (2.0, [["a", "b", "c"]])])
        b = gram_of(ts, [(0.0, [["a"], ["b"], ["c"]]), (1.0, [["a"], ["b", "c"]]),
                         (2.0, [["a", "b", "c"]])])
        with caplog.at_level(logging.DEBUG, logger="phylolattice.metrics"):
            assert facegram_interleaving(a, b) == 1.0
        (record,) = [r for r in caplog.records if r.name == "phylolattice.metrics"]
        assert record.levelno == logging.DEBUG
        stage, *pairs = record.getMessage().split()
        assert stage == "stage=interleaving"
        fields = dict(p.split("=") for p in pairs)
        assert list(fields) == ["faces", "candidates", "ms"]
        # a, b, c and abc lie in both grams; ab only in a, bc only in b
        assert (fields["faces"], fields["candidates"]) == ("5+5", "6")
        assert float(fields["ms"]) >= 0

    def test_no_log_line_above_debug(self, caplog, rng):
        ts = taxa(4)
        g1 = cliquegram_from_network(random_network(ts, rng))
        g2 = cliquegram_from_network(random_network(ts, rng, late=True))
        with caplog.at_level(logging.INFO, logger="phylolattice.metrics"):
            facegram_interleaving(g1, g2)
        assert not [r for r in caplog.records if r.name == "phylolattice.metrics"]


class TestSmallScaleOracles:
    def test_gh_identical(self, rng):
        net = random_network(taxa(4), rng)
        assert gromov_hausdorff_bruteforce(net, net) == 0.0

    def test_gh_two_point_spaces(self):
        assert gromov_hausdorff_bruteforce(line_network([0, 1]), line_network([0, 2])) == 1.0

    def test_gh_matches_exhaustive(self, rng):
        for nx, ny in ((2, 2), (2, 3), (3, 3)):
            for _ in range(8):
                a = random_network(taxa(nx), rng)
                b = random_network(taxa(ny), rng)
                got = gromov_hausdorff_bruteforce(a, b)
                assert got == exhaustive_gh(a, b)

    def test_guard(self):
        big = line_network(list(range(5)))
        with pytest.raises(ValueError, match="guarded"):
            gromov_hausdorff_bruteforce(big, big)

    def test_tripod_two_point_spaces(self):
        a, b = line_network([0, 1]), line_network([0, 2])
        assert vr_tripod_bruteforce(a, b) == 1.0

    def test_stability_chain_samples(self, rng):
        # mergegram bottleneck <= tripod <= Gromov-Hausdorff
        for nx, ny in ((2, 2), (2, 3), (3, 3)):
            for _ in range(6):
                a = random_network(taxa(nx), rng)
                b = random_network(taxa(ny), rng)
                db = bottleneck_distance(
                    mergegram(cliquegram_from_network(a)),
                    mergegram(cliquegram_from_network(b)),
                )
                dt = vr_tripod_bruteforce(a, b)
                dgh = gromov_hausdorff_bruteforce(a, b)
                assert db <= dt + 1e-12
                assert dt <= dgh + 1e-12
