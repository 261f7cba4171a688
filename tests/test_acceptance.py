"""End-to-end acceptance gates.

One test per go/no-go criterion; ``pytest tests/test_acceptance.py -v``
prints a PASSED/FAILED line for each.  Add ``-s`` to see the measured
numbers behind the soft bounds.  Every random stream is seeded, so a
failure reproduces bit for bit.
"""

import itertools
import math
import random
import time

import numpy as np

from phylolattice import (
    FaceSet,
    Mergegram,
    PersistenceDiagram,
    Surjection,
    Ultranetwork,
    VRFiltration,
    agglomerative_ultrametric,
    all_faces,
    bottleneck_distance,
    bottleneck_progression,
    cliquegram_from_network,
    cliqueset_join,
    facegram_from_filtration,
    facegram_interleaving,
    faceset_join,
    filtration_from_facegram,
    gen_random_treegrams,
    gram_leq,
    gromov_hausdorff_bruteforce,
    join_grams,
    join_mergegram_of_treegrams,
    labeled_mergegram,
    linf_labeled_distance,
    mergegram,
    mergegram_of_filtration,
    network_from_cliquegram,
    partial_joins,
    ph0_elder,
    pullback_filtration,
    squash_to_cliquegram,
    treegram_from_ultranetwork,
)
from phylolattice.experiments import ExperimentConfig
from phylolattice.networks import PhyloNetwork

from oracles import join_mergegram_by_scan
from util import random_monotone_table, random_network, random_ultrametric, taxa

INF = math.inf
SLACK = 1e-12


def line_ultrametric(points):
    ts = taxa(len(points))
    d = PhyloNetwork(ts, [[abs(p - q) for q in points] for p in points])
    return agglomerative_ultrametric(d, "single")


def maximal_cliques_by_subsets(matrix, t):
    """Oracle: maximal cliques of the threshold graph at t by full enumeration."""
    n = len(matrix)
    active = [i for i in range(n) if matrix[i][i] <= t]
    closed = [0] * n  # neighbours-or-self mask, edges at value <= t
    for i in active:
        for j in active:
            if i == j or matrix[i][j] <= t:
                closed[i] |= 1 << j
    cliques = []
    for comb_size in range(1, len(active) + 1):
        for vs in itertools.combinations(active, comb_size):
            m = 0
            for v in vs:
                m |= 1 << v
            if all(m & ~closed[v] == 0 for v in vs):
                cliques.append(m)
    return {c for c in cliques if not any(c != d and c & ~d == 0 for d in cliques)}


def test_criterion_1_mergegram_separates_where_ph0_cannot():
    t0 = time.perf_counter()
    ux = line_ultrametric((0, 1, 3, 7))
    uy = line_ultrametric((0, 1, 5, 7))
    ts = ux.universe

    expected_ph0 = PersistenceDiagram([(0, 1), (0, 2), (0, 4), (0, INF)])
    assert ph0_elder(ux) == expected_ph0
    assert ph0_elder(uy) == expected_ph0

    lx = labeled_mergegram(treegram_from_ultranetwork(ux))
    ly = labeled_mergegram(treegram_from_ultranetwork(uy))
    iv = lambda m, b, d: (ts.mask_of(m), (b, d))
    assert {m: (v.birth, v.death) for m, v in lx.entries.items()} == dict(
        [iv("a", 0, 1), iv("b", 0, 1), iv("c", 0, 2), iv("d", 0, 4),
         iv("ab", 1, 2), iv("abc", 2, 4), iv("abcd", 4, INF)]
    )
    assert {m: (v.birth, v.death) for m, v in ly.entries.items()} == dict(
        [iv("a", 0, 1), iv("b", 0, 1), iv("c", 0, 2), iv("d", 0, 2),
         iv("ab", 1, 4), iv("cd", 2, 4), iv("abcd", 4, INF)]
    )

    mx, my = lx.unlabeled(), ly.unlabeled()
    assert mx != my
    gap = bottleneck_distance(mx, my)
    assert gap > 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\ncriterion 1: equal ph0, mergegram gap {gap:g}, {elapsed * 1e3:.0f} ms")


def test_criterion_2_clique_join_exceeds_face_join():
    ts = taxa(3)
    parts = [
        FaceSet.from_names(ts, [["a", "b"], ["c"]]),
        FaceSet.from_names(ts, [["b", "c"], ["a"]]),
        FaceSet.from_names(ts, [["a", "c"], ["b"]]),
    ]
    pair = lambda names: ts.mask_of(names)
    assert set(cliqueset_join(parts).faces) == {ts.full_mask}
    assert set(faceset_join(parts).faces) == {pair("ab"), pair("bc"), pair("ac")}

    # the same divergence, dynamically: one tree per merged pair
    def tree(close):
        m = np.full((3, 3), 2.0)
        np.fill_diagonal(m, 0.0)
        i, j = ts.position(close[0]), ts.position(close[1])
        m[i, j] = m[j, i] = 1.0
        return treegram_from_ultranetwork(Ultranetwork(ts, m))

    grams = [tree("ab"), tree("bc"), tree("ac")]
    jf = join_grams(grams, "facegram")
    jc = join_grams(grams, "cliquegram")
    singles = {pair("a"), pair("b"), pair("c")}
    assert jf.criticals == (0.0, 1.0, 2.0)
    assert set(jf.level_at(0.0).faces) == singles
    assert set(jf.level_at(1.0).faces) == {pair("ab"), pair("bc"), pair("ac")}
    assert set(jf.level_at(2.0).faces) == {ts.full_mask}
    assert jc.criticals == (0.0, 1.0)
    assert set(jc.level_at(0.0).faces) == singles
    assert set(jc.level_at(1.0).faces) == {ts.full_mask}

    # one extra mergegram interval per edge of the level-1 graph
    assert mergegram(jf) == Mergegram([(0, 1, 3), (1, 2, 3), (2, INF)])
    assert mergegram(jc) == Mergegram([(0, 1, 3), (1, INF)])
    assert squash_to_cliquegram(jf) == jc
    print("\ncriterion 2: clique join tops out one step before the face join")


def test_criterion_3_fast_joins_match_the_definition():
    rng = random.Random(3)
    cases = 0
    for i in range(200):
        n = 2 + i % 7
        ell = 1 + i % 5
        ultras = [random_ultrametric(taxa(n), rng, late=i % 3 == 0) for _ in range(ell)]
        by_matrix = join_mergegram_of_treegrams(ultras)
        by_scan = join_mergegram_by_scan(ultras)
        slow = labeled_mergegram(
            join_grams([treegram_from_ultranetwork(u) for u in ultras], "facegram")
        )
        assert by_matrix == by_scan == slow
        cases += 1

    level_checks = 0
    for n in (9, 10, 11, 12):
        net = random_network(taxa(n), rng, late=n % 2 == 0)
        g = cliquegram_from_network(net)
        for t, level in g.levels:
            assert set(level.faces) == maximal_cliques_by_subsets(net.matrix, t)
            level_checks += 1
    print(f"\ncriterion 3: {cases} joins exact, {level_checks} clique levels vs subset oracle")


def test_criterion_4_constructions_are_mutually_inverse():
    rng = random.Random(4)
    for i in range(100):
        n = 1 + i % 8
        net = random_network(taxa(n), rng, late=i % 2 == 1)
        g = cliquegram_from_network(net)
        assert network_from_cliquegram(g) == net
        assert cliquegram_from_network(network_from_cliquegram(g)) == g

    for i in range(100):
        n = 1 + i % 8
        ts = taxa(n)
        if i % 3 == 2 and n <= 6:
            f = random_monotone_table(ts, rng)
        else:
            f = VRFiltration(random_network(ts, rng, late=i % 2 == 1))
        g = facegram_from_filtration(f)
        back = filtration_from_facegram(g)
        assert all(back.value(m) == f.value(m) for m in all_faces(ts))
        assert facegram_from_filtration(back) == g
    print("\ncriterion 4: 100 network and 100 filtration round trips, all exact")


def test_criterion_5_metric_stability_chain():
    rng = random.Random(5)
    worst = [0.0, 0.0]
    for i in range(500):
        ts = taxa(3 + i % 6)
        g1 = cliquegram_from_network(random_network(ts, rng, late=i % 4 == 0))
        g2 = cliquegram_from_network(random_network(ts, rng, late=i % 4 == 0))
        m1, m2 = labeled_mergegram(g1), labeled_mergegram(g2)
        db = bottleneck_distance(m1.unlabeled(), m2.unlabeled())
        dl = linf_labeled_distance(m1, m2)
        di = facegram_interleaving(g1, g2)
        assert db <= dl + SLACK
        assert dl <= di + SLACK
        worst[0] = max(worst[0], db - dl)
        worst[1] = max(worst[1], dl - di)

    # mergegram bottleneck under the clique construction vs Gromov-Hausdorff;
    # two-point spaces pin the normalization (max distortion, no halving)
    two_a = PhyloNetwork(taxa(2), [[0, 1], [1, 0]])
    two_b = PhyloNetwork(taxa(2), [[0, 2], [2, 0]])
    assert gromov_hausdorff_bruteforce(two_a, two_b) == 1.0
    vr_mgm = lambda net: mergegram(cliquegram_from_network(net))
    assert bottleneck_distance(vr_mgm(two_a), vr_mgm(two_b)) == 1.0

    nets = [random_network(taxa(s), rng) for s in (1, 2, 3, 4) for _ in range(3)]
    pairs = 0
    for a in nets:
        for b in nets:
            assert bottleneck_distance(vr_mgm(a), vr_mgm(b)) <= (
                gromov_hausdorff_bruteforce(a, b) + SLACK
            )
            pairs += 1
    print(
        f"\ncriterion 5: 500 chains hold (max step gaps {worst[0]:.2e}, {worst[1]:.2e}),"
        f" {pairs} exhaustive GH pairs"
    )


def test_criterion_6_pullbacks_preserve_the_mergegram():
    rng = random.Random(6)
    for i in range(200):
        nz = 2 + i % 9
        nx = 1 + rng.randrange(nz)
        source, target = taxa(nz), taxa(nx)
        mapping = list(range(nx)) + [rng.randrange(nx) for _ in range(nz - nx)]
        rng.shuffle(mapping)
        phi = Surjection(source, target, mapping)
        if i % 3 == 2 and nx <= 6:
            base = random_monotone_table(target, rng)
        else:
            base = VRFiltration(random_network(target, rng, late=i % 2 == 1))
        pulled = pullback_filtration(base, phi)
        assert mergegram_of_filtration(pulled) == mergegram_of_filtration(base)
    print("\ncriterion 6: 200 pullbacks left the mergegram unchanged")


def test_criterion_7_progressions_descend_to_zero():
    lines = []
    for n in (10, 20):
        trees = gen_random_treegrams(ExperimentConfig(taxa=n, trees=21, seed=7 + n))
        grams = [treegram_from_ultranetwork(u) for u in trees]
        for mode in ("facegram", "cliquegram"):
            joins = partial_joins(grams, mode)  # raises if any step shrinks
            for prev, cur in zip(joins, joins[1:]):
                assert gram_leq(prev, cur)
            t0 = time.perf_counter()
            rows = bottleneck_progression(trees, mode)
            elapsed = time.perf_counter() - t0
            assert elapsed < 30.0
            assert len(rows) == 21
            assert all(d >= 0 for _, d in rows)
            assert rows[-1] == (21, 0.0)
            lines.append(f"n={n} {mode} {elapsed:.1f}s")
    print("\ncriterion 7: " + ", ".join(lines) + "; all joins monotone, final gap 0")


def test_criterion_8_tree_count_scaling_stays_tame():
    spot = gen_random_treegrams(ExperimentConfig(taxa=64, trees=4, seed=8))
    assert join_mergegram_of_treegrams(spot) == join_mergegram_by_scan(spot)

    def best_of_two(ell):
        trees = gen_random_treegrams(ExperimentConfig(taxa=64, trees=ell, seed=8))
        runs = []
        for _ in range(2):
            t0 = time.perf_counter()
            join_mergegram_of_treegrams(trees)
            runs.append(time.perf_counter() - t0)
        return min(runs)

    t16, t32 = best_of_two(16), best_of_two(32)
    assert t32 < 10.0
    ratio = t32 / t16
    # soft bound: doubling the tree count should stay well under quadratic blowup
    assert ratio <= 6.5
    print(f"\ncriterion 8: 64 taxa, 32 trees in {t32:.2f}s; doubling ratio {ratio:.2f}")


def test_criterion_9_substitute_gates_for_external_data():
    # The biological alignments this gate would replay are access-gated
    # and not redistributable, so no fixture can reproduce them here.  The
    # behaviours they exercise are gated deterministically instead: the
    # clique/face join divergence (criterion 2) and the fast-join
    # equivalences (criterion 3).  One more seeded instance of each runs
    # below so this gate fails if either substitute regresses.
    ultras = gen_random_treegrams(ExperimentConfig(taxa=6, trees=4, seed=9))
    fast = join_mergegram_of_treegrams(ultras)
    slow = labeled_mergegram(
        join_grams([treegram_from_ultranetwork(u) for u in ultras], "facegram")
    )
    assert fast == slow

    grams = [treegram_from_ultranetwork(u) for u in ultras]
    jf = join_grams(grams, "facegram")
    jc = join_grams(grams, "cliquegram")
    assert gram_leq(jf, jc)
    assert squash_to_cliquegram(jf) == jc
    print(
        "\ncriterion 9: external alignments unavailable; covered by the"
        " deterministic join gates (criteria 2 and 3)"
    )
