import math
import random

import numpy as np
import pytest

from phylolattice import (
    FaceSet,
    FacegramFiltration,
    Gram,
    PhyloNetwork,
    Surjection,
    TableFiltration,
    TaxaSet,
    Ultranetwork,
    VRFiltration,
    all_faces,
    cliquegram_from_network,
    facegram_interleaving,
    filtration_from_facegram,
    filtration_interleaving,
    gram_leq,
    join_grams,
    maximal_masks,
    pullback_filtration,
    treegram_from_ultranetwork,
)

from oracles import (
    cover_time_by_levels,
    exhaustive_interleaving,
    gram_leq_by_levels,
    interleaving_by_levels,
)
from util import (
    gram_of,
    random_monotone_table,
    random_network,
    random_ultrametric,
    taxa,
)


def test_vr_values_and_matrix():
    net = PhyloNetwork(taxa(3), [[0, 1, 3], [1, 0, 2], [3, 2, 0]])
    f = VRFiltration(net)
    assert f.value(0b001) == 0.0
    assert f.value(0b011) == 1.0
    assert f.value(0b111) == 3.0
    assert np.array_equal(f.as_matrix(), net.matrix)


def test_facegram_filtration_covering_times():
    ts = taxa(3)
    g = gram_of(ts, [(0, [["a"], ["b"], ["c"]]), (1, [["a", "b"], ["c"]]),
                     (2, [["a", "b", "c"]])])
    f = FacegramFiltration(g)
    assert f.value(ts.mask_of("a")) == 0
    assert f.value(ts.mask_of("ab")) == 1
    assert f.value(ts.mask_of("ac")) == 2
    assert f.value(ts.full_mask) == 2


def test_facegram_filtration_support():
    ts = taxa(2)
    g = gram_of(ts, [(0.5, [["a"], ["b"]]), (1.5, [["a", "b"]])])
    f = FacegramFiltration(g)
    assert set(f.support_faces()) == {0b01, 0b10, 0b11}


def test_table_filtration_validates_monotonicity():
    ts = taxa(2)
    with pytest.raises(ValueError, match="monotone"):
        TableFiltration(ts, {0b01: 1.0, 0b10: 0.0, 0b11: 0.5})
    f = TableFiltration(ts, {0b01: 0.0, 0b10: 0.0, 0b11: 2.0})
    assert f.value(0b11) == 2.0


def test_table_filtration_requires_full_domain():
    with pytest.raises(ValueError, match="every non-empty face"):
        TableFiltration(taxa(2), {0b01: 0.0})


class TestSurjection:
    def test_validation(self):
        with pytest.raises(ValueError, match="surjective"):
            Surjection(taxa(3), taxa(2), [0, 0, 0])
        with pytest.raises(ValueError, match="every source taxon"):
            Surjection(taxa(3), taxa(2), [0, 1])
        with pytest.raises(ValueError, match="out of range"):
            Surjection(taxa(2), taxa(2), [0, 5])

    def test_masks(self):
        phi = Surjection(taxa(3), taxa(2), [0, 0, 1])
        assert phi.image_mask(0b011) == 0b01
        assert phi.image_mask(0b111) == 0b11
        assert phi.preimage_mask(0b01) == 0b011
        assert not phi.is_bijection()

    def test_from_names(self):
        src, dst = TaxaSet(["p", "q"]), TaxaSet(["u"])
        phi = Surjection.from_names(src, dst, {"p": "u", "q": "u"})
        assert phi.mapping == (0, 0)


class TestPullback:
    def test_values_follow_image(self):
        base = VRFiltration(PhyloNetwork(taxa(2), [[0, 2], [2, 0]]))
        phi = Surjection(taxa(3), taxa(2), [0, 0, 1])
        pb = pullback_filtration(base, phi)
        assert pb.value(0b011) == 0.0  # both map to the same taxon
        assert pb.value(0b101) == 2.0
        assert np.array_equal(pb.as_matrix(), base.as_matrix()[np.ix_([0, 0, 1], [0, 0, 1])])

    def test_support_is_preimages(self):
        ts = taxa(2)
        g = gram_of(ts, [(0, [["a"], ["b"]]), (1, [["a", "b"]])])
        phi = Surjection(taxa(3), ts, [0, 1, 1])
        pb = pullback_filtration(filtration_from_facegram(g), phi)
        assert set(pb.support_faces()) == {0b001, 0b110, 0b111}

    def test_target_universe_checked(self):
        base = VRFiltration(PhyloNetwork(taxa(2), [[0, 1], [1, 0]]))
        phi = Surjection(taxa(3), taxa(3), [0, 1, 2])
        with pytest.raises(ValueError, match="target"):
            pullback_filtration(base, phi)


class TestInterleaving:
    def test_identity_zero(self, rng):
        net = random_network(taxa(4), rng)
        f = VRFiltration(net)
        assert filtration_interleaving(f, f) == 0.0

    def test_uniform_shift(self, rng):
        ts = taxa(4)
        net = random_network(ts, rng)
        shifted = PhyloNetwork(ts, net.matrix + 0.25)
        d = filtration_interleaving(VRFiltration(net), VRFiltration(shifted))
        assert d == pytest.approx(0.25)

    def test_indexed_line_subsets(self):
        # 4-point subsets of the line, identified by sorted order: the gap
        # is attained on the middle pair
        ts = taxa(4)
        mk = lambda pts: VRFiltration(
            PhyloNetwork(ts, [[abs(p - q) for q in pts] for p in pts])
        )
        assert filtration_interleaving(mk([0, 1, 3, 7]), mk([0, 1, 5, 7])) == 2.0

    def test_universe_mismatch(self):
        f = VRFiltration(PhyloNetwork(taxa(2), [[0, 1], [1, 0]]))
        g = VRFiltration(PhyloNetwork(taxa(3), np.zeros((3, 3))))
        with pytest.raises(ValueError, match="different universes"):
            filtration_interleaving(f, g)

    def test_matches_exhaustive_on_vr_pairs(self, rng):
        for n in (2, 4, 6):
            ts = taxa(n)
            for _ in range(20):
                f = VRFiltration(random_network(ts, rng, late=True))
                g = VRFiltration(random_network(ts, rng))
                assert filtration_interleaving(f, g) == exhaustive_interleaving(f, g)

    def test_matches_exhaustive_on_facegram_pairs(self, rng):
        for n in (3, 5):
            ts = taxa(n)
            for _ in range(20):
                a = filtration_from_facegram(
                    cliquegram_from_network(random_network(ts, rng))
                )
                b = filtration_from_facegram(
                    cliquegram_from_network(random_network(ts, rng, late=True))
                )
                assert filtration_interleaving(a, b) == exhaustive_interleaving(a, b)

    def test_matches_exhaustive_on_mixed_pairs(self, rng):
        ts = taxa(4)
        for _ in range(20):
            f = VRFiltration(random_network(ts, rng))
            g = filtration_from_facegram(
                cliquegram_from_network(random_network(ts, rng))
            )
            assert filtration_interleaving(f, g) == exhaustive_interleaving(f, g)

    def test_matches_exhaustive_on_table_pairs(self, rng):
        for n in (2, 3, 4):
            ts = taxa(n)
            for _ in range(20):
                f, g = random_monotone_table(ts, rng), random_monotone_table(ts, rng)
                assert filtration_interleaving(f, g) == exhaustive_interleaving(f, g)

    def test_matches_exhaustive_on_pullback_pairs(self, rng):
        base_ts, big = taxa(3), taxa(5)
        phis = [
            Surjection(big, base_ts, [0, 0, 1, 2, 2]),
            Surjection(big, base_ts, [2, 1, 0, 1, 0]),
        ]
        for _ in range(20):
            bases = [
                VRFiltration(random_network(base_ts, rng, late=True)),
                filtration_from_facegram(
                    cliquegram_from_network(random_network(base_ts, rng))
                ),
                random_monotone_table(base_ts, rng),
            ]
            pulled = [pullback_filtration(b, phi) for b in bases for phi in phis]
            others = pulled + [
                VRFiltration(random_network(big, rng)),
                random_monotone_table(big, rng),
            ]
            for f in pulled:
                g = rng.choice(others)
                assert filtration_interleaving(f, g) == exhaustive_interleaving(f, g)


def _grid_gram(ts, rng, zero):
    """Refinement-monotone levels on the half-unit grid from -1: each step
    adds one to three random faces and keeps the maximal ones, so taxa
    are observed late; ``zero`` is the critical value 0 with its sign."""
    n = len(ts)
    faces: tuple[int, ...] = ()
    levels = []
    k = rng.randrange(3)
    while faces != (ts.full_mask,):
        adds = tuple(
            sum(1 << i for i in rng.sample(range(n), min(rng.randint(1, n), rng.randint(1, n))))
            for _ in range(rng.randint(1, 3))
        )
        grown = maximal_masks(faces + adds)
        if grown != faces:
            faces = grown
            t = 0.5 * (k - 2)
            levels.append((t if t else zero, FaceSet(ts, faces)))
        k += rng.randint(1, 2)
    return Gram(ts, levels)


def _quarters(m):
    # rounding is monotone, so it keeps ultrametrics ultrametric
    return np.round(m * 4) / 4


def _random_gram(ts, rng):
    """A grid gram, a cliquegram of a network on the quarter grid, or a
    facegram join of treegrams on it; late observation in half of each."""
    kind = rng.randrange(3)
    late = rng.random() < 0.5
    if kind == 0:
        return _grid_gram(ts, rng, rng.choice((0.0, -0.0)))
    if kind == 1:
        net = random_network(ts, rng, late=late)
        return cliquegram_from_network(PhyloNetwork(ts, _quarters(net.matrix)))
    trees = [
        treegram_from_ultranetwork(
            Ultranetwork(ts, _quarters(random_ultrametric(ts, rng, late=late).matrix))
        )
        for _ in range(rng.randint(1, 3))
    ]
    return join_grams(trees, "facegram")


class TestCoverTimesFromLifespans:
    """``FacegramFiltration`` reads covering times off the lifespans; the
    bisect over the levels in ``oracles`` is the reference."""

    def test_every_face_matches_the_level_bisect(self):
        rng = random.Random(1401)
        negative_zeros = 0
        for k in range(480):
            ts = taxa(1 + k % 8)
            g = _random_gram(ts, rng)
            f = FacegramFiltration(g)
            for m in all_faces(ts):
                v = f.value(m)
                assert v.hex() == cover_time_by_levels(g, m).hex()
                negative_zeros += v == 0 and math.copysign(1.0, v) < 0
        assert negative_zeros >= 100

    def test_interleaving_and_order_match_the_level_route(self):
        rng = random.Random(1402)
        seen = dict(leq=0, not_leq=0, tied=0, both_zeros=0, late=0, neither=0)
        for k in range(1200):
            ts = taxa(1 + k % 8)
            a, b = _random_gram(ts, rng), _random_gram(ts, rng)
            if k % 3 == 0:
                b = join_grams([a, b], "facegram")
            d = facegram_interleaving(a, b)
            assert d.hex() == interleaving_by_levels(a, b).hex()
            for x, y in ((a, b), (b, a)):
                leq = gram_leq(x, y)
                assert leq == gram_leq_by_levels(x, y)
                seen["leq" if leq else "not_leq"] += 1
            births = [{iv.birth for iv in g.lifespans.values()} for g in (a, b)]
            seen["tied"] += len(births[0] & births[1]) > 1
            signs = {math.copysign(1.0, t) for bs in births for t in bs if t == 0}
            seen["both_zeros"] += len(signs) == 2
            # a taxon outside every first-level face is observed late
            seen["late"] += not all(a.levels[0][1].covers(1 << i) for i in range(len(ts)))
            fa, fb = FacegramFiltration(a), FacegramFiltration(b)
            for m in rng.sample(range(1, ts.full_mask + 1), min(ts.full_mask, 4)):
                if m in a.lifespans or m in b.lifespans:
                    continue
                seen["neither"] += 1
                assert fa.value(m).hex() == cover_time_by_levels(a, m).hex()
                assert fb.value(m).hex() == cover_time_by_levels(b, m).hex()
        assert min(seen.values()) >= 100, seen
