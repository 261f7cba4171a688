import random

import pytest

from phylolattice import (
    ExperimentConfig,
    bottleneck_progression,
    gen_random_treegrams,
    gram_leq,
    is_ultranetwork,
    partial_joins,
    treegram_from_ultranetwork,
)
from phylolattice.experiments import default_taxa, random_dissimilarity

from oracles import random_dissimilarity_by_pairs


def test_random_dissimilarity_matches_pair_loop():
    # the same draws in the same cells, and the generator left in the same state
    for seed in (0, 1, 7, 2023):
        for n in range(1, 41):
            ts = default_taxa(n)
            got_rng, want_rng = random.Random(seed), random.Random(seed)
            got = random_dissimilarity(ts, got_rng)
            want = random_dissimilarity_by_pairs(ts, want_rng)
            assert got.matrix.tobytes() == want.matrix.tobytes(), (seed, n)
            assert got_rng.getstate() == want_rng.getstate()


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="at least one taxon"):
            ExperimentConfig(taxa=0, trees=1)
        with pytest.raises(ValueError, match="at least one tree"):
            ExperimentConfig(taxa=1, trees=0)
        with pytest.raises(ValueError, match="unknown method"):
            ExperimentConfig(taxa=2, trees=1, method="ward")

    def test_default_taxa_names_are_padded_and_sorted(self):
        ts = default_taxa(12)
        assert ts.labels[0] == "t00"
        assert ts.labels[-1] == "t11"
        assert list(ts.labels) == sorted(ts.labels)


class TestGeneration:
    def test_deterministic_under_seed(self):
        cfg = ExperimentConfig(taxa=6, trees=4, seed=7)
        a = gen_random_treegrams(cfg)
        b = gen_random_treegrams(cfg)
        assert len(a) == 4
        for u, v in zip(a, b):
            assert u == v

    def test_seeds_differ(self):
        a = gen_random_treegrams(ExperimentConfig(taxa=6, trees=1, seed=1))
        b = gen_random_treegrams(ExperimentConfig(taxa=6, trees=1, seed=2))
        assert a[0] != b[0]

    def test_outputs_are_ultrametric(self):
        for method in ("single", "upgma"):
            cfg = ExperimentConfig(taxa=5, trees=3, seed=0, method=method)
            for u in gen_random_treegrams(cfg):
                assert is_ultranetwork(u)


class TestProgression:
    def test_partial_joins_are_monotone(self):
        trees = gen_random_treegrams(ExperimentConfig(taxa=6, trees=5, seed=3))
        grams = [treegram_from_ultranetwork(u) for u in trees]
        for mode in ("facegram", "cliquegram"):
            joins = partial_joins(grams, mode)
            assert len(joins) == 5
            for a, b in zip(joins, joins[1:]):
                assert gram_leq(a, b)

    def test_final_distance_is_zero(self):
        trees = gen_random_treegrams(ExperimentConfig(taxa=6, trees=6, seed=4))
        for mode in ("facegram", "cliquegram"):
            rows = bottleneck_progression(trees, mode)
            assert [k for k, _ in rows] == list(range(1, 7))
            assert rows[-1][1] == 0.0
            assert all(d >= 0 for _, d in rows)

    def test_single_tree_progression(self):
        trees = gen_random_treegrams(ExperimentConfig(taxa=4, trees=1, seed=0))
        assert bottleneck_progression(trees) == [(1, 0.0)]
