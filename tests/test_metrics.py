import logging
import math
import random
import time

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

from oracles import (
    _del_cost,
    _scalar_feasible,
    _sup,
    bottleneck_by_scalar_search,
    exhaustive_bottleneck,
    exhaustive_gh,
)
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
        assert fields["augmentations"] == "0"
        assert fields["points"] == "1+1"
        assert list(fields) == [
            "stage", "points", "candidates", "lb", "solves", "augmentations", "ms"
        ]

    def test_greedy_conflict_takes_an_augmentation(self, caplog):
        # the greedy pass sends (0, 10) to (0.5, 10.5), its first open
        # cell, which is the only cell (0.5, 9.5) has at eps 1
        a = Mergegram([(0, 10), (0.5, 9.5)])
        b = Mergegram([(0.5, 10.5), (1, 11)])
        with caplog.at_level(logging.DEBUG, logger="phylolattice.metrics"):
            d = bottleneck_distance(a, b)
        assert d == 1.0 == bottleneck_by_scalar_search(a, b)
        fields = _debug_fields(caplog)
        assert float(fields["lb"]) == d
        assert fields["solves"] == "1"
        assert fields["augmentations"] == "1"

    def test_infeasible_probes_seed_the_next(self, caplog):
        # the same greedy conflict at every probe from the lower bound 3 to
        # below 7, while the second copy of (200, 210) must drop, at 5: a
        # cold start would augment again at each probe, the warm start once
        a = Mergegram([(0, 100), (0.5, 96), (200, 210, 2)])
        b = Mergegram([(1, 99), (2, 103), (200, 210)])
        with caplog.at_level(logging.DEBUG, logger="phylolattice.metrics"):
            d = bottleneck_distance(a, b)
        assert d == 5.0 == bottleneck_by_scalar_search(a, b)
        fields = _debug_fields(caplog)
        assert float(fields["lb"]) == 3.0 < d
        assert int(fields["solves"]) > 1
        assert fields["augmentations"] == "1"

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


def _grid_diagram(rng):
    """Up to five points on a quarter grid, so that ties are common, with
    multiplicities 1-3 and now and then an infinite point."""
    pts = []
    for _ in range(rng.randrange(6)):
        b = rng.randrange(8) / 4
        d = INF if rng.random() < 0.1 else b + rng.randrange(1, 9) / 4
        pts.append((b, d, rng.randint(1, 3)))
    return pts


def _oracle_pair(rng):
    a, b = _grid_diagram(rng), _grid_diagram(rng)
    shape = rng.random()
    if shape < 0.02:  # neither copy can be dropped
        a.append((-1e308, 1e308, 2))
    elif shape < 0.04:  # a point of infinite half-persistence
        a.append((-INF, 1))
    elif shape < 0.5:  # as many infinite points on both sides
        a = [p for p in a if p[1] != INF]
        b = [p for p in b if p[1] != INF]
        for _ in range(rng.randrange(3)):
            a.append((rng.randrange(8) / 4, INF, 1))
            b.append((rng.randrange(8) / 4, INF, 1))
    return Mergegram(a), Mergegram(b)


def _oracle_feasible(a, b, eps: float) -> bool:
    """An eps-matching exists: the infinite births pair in sorted order
    within eps, and the max-flow oracle saturates the finite parts."""
    xs = sorted(x for x, d, m in a.points if d == INF for _ in range(m))
    ys = sorted(y for y, d, m in b.points if d == INF for _ in range(m))
    if len(xs) != len(ys) or any(abs(x - y) > eps for x, y in zip(xs, ys)):
        return False
    fa = [((x, d), m) for x, d, m in a.points if d != INF]
    fb = [((y, d), m) for y, d, m in b.points if d != INF]
    return _scalar_feasible(fa, fb, eps)


def _oracle_candidates(a, b) -> list[float]:
    pa = [(x, d) for x, d, _ in a.points if d != INF]
    pb = [(y, d) for y, d, _ in b.points if d != INF]
    cands = {_del_cost(p) for p in pa + pb} | {_sup(p, q) for p in pa for q in pb}
    return sorted(c for c in cands if math.isfinite(c))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestAgainstMaxFlowOracle:
    """The transport plan against scipy's max flow, which the oracles run
    on the flow network of the same matching problem."""

    PAIRS = 2400

    def test_distance_and_witness(self):
        rng = random.Random(20)
        shapes = {"finite": 0, "infinite": 0, "raises": 0}
        for _ in range(self.PAIRS):
            a, b = _oracle_pair(rng)
            try:
                d = bottleneck_distance(a, b)
            except RuntimeError:
                d = None
            try:
                expect = bottleneck_by_scalar_search(a, b)
            except RuntimeError:
                expect = None
            assert (d is None) == (expect is None), (a, b)
            if d is None:
                shapes["raises"] += 1
                probes = [1e308]
            elif d == INF:
                shapes["infinite"] += 1
                assert expect == INF, (a, b)
                probes = _oracle_candidates(a, b)[-1:]
            else:
                shapes["finite"] += 1
                assert d.hex() == expect.hex(), (a, b)
                probes = [d] + [c for c in _oracle_candidates(a, b) if c < d][-1:]
            for eps in probes:
                m = bottleneck_matching(a, b, eps)
                if _oracle_feasible(a, b, eps):
                    assert m is not None, (a, b, eps)
                    assert m.covers(a, b) and m.cost() <= eps, (a, b, eps)
                else:
                    assert m is None, (a, b, eps)
        assert min(shapes.values()) >= 20, shapes


class TestLargeMultiplicities:
    def test_infinite_points_pair_by_runs(self):
        a = Mergegram([(0, INF, 10**7), (3, INF, 2)])
        b = Mergegram([(0.5, INF, 10**7 - 1), (1, INF, 3)])
        t0 = time.perf_counter()
        assert bottleneck_distance(a, b) == 2.0
        assert bottleneck_distance(a, Mergegram([(0, INF, 10**7 + 1)])) == INF
        assert time.perf_counter() - t0 < 0.5

    def test_finite_points_are_counted_not_listed(self):
        # the (0, 2) pair with (0, 2.5) at 0.5 and the (0, 1) drop at 0.5;
        # the spare (0, 2.5) drops at 1.25, less than its 1.5 to a (0, 1)
        small = Mergegram([(0, 2, 3), (0, 1, 3)]), Mergegram([(0, 2.5, 4)])
        assert bottleneck_by_scalar_search(*small) == 1.25
        a = Mergegram([(0, 2, 10**7), (0, 1, 10**7)])
        b = Mergegram([(0, 2.5, 10**7 + 1)])
        t0 = time.perf_counter()
        assert bottleneck_distance(a, b) == 1.25
        assert time.perf_counter() - t0 < 0.5

    @pytest.mark.parametrize("death", [1.0, INF])
    def test_totals_past_the_plan_counts_are_refused(self, death):
        huge = Mergegram([(0, death, 2**62)])
        for compare in (bottleneck_distance, lambda a, b: bottleneck_matching(a, b, 1.0)):
            with pytest.raises(ValueError, match="past the 4611686018427387903 a diagram may hold"):
                compare(huge, huge)
        limit = Mergegram([(0, death, 2**62 - 1)])
        assert bottleneck_distance(limit, limit) == 0.0

    def test_witness_lists_every_infinite_pair(self):
        a = Mergegram([(0, INF, 3), (2, INF)])
        b = Mergegram([(1, INF), (2, INF, 3)])
        m = bottleneck_matching(a, b, 2.0)
        assert m is not None and m.covers(a, b) and m.cost() == 2.0
        assert sorted(m.pairs) == [
            ((0.0, INF), (1.0, INF)),
            ((0.0, INF), (2.0, INF)),
            ((0.0, INF), (2.0, INF)),
            ((2.0, INF), (2.0, INF)),
        ]
        assert bottleneck_matching(a, b, 1.99) is None


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
