"""Property tests for the lattice laws on seeded treegram families."""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from phylolattice import (
    join_grams,
    join_mergegram_of_treegrams,
    labeled_mergegram,
    squash_to_cliquegram,
    treegram_from_ultranetwork,
)

from oracles import join_mergegram_by_scan
from util import random_ultrametric, taxa

MODES = ("facegram", "cliquegram")
LAWS = settings(derandomize=True, database=None, deadline=None, max_examples=60)


@st.composite
def tree_families(draw, trees=3):
    """``trees`` seeded random ultrametrics over one universe of 1..8 taxa."""
    ts = taxa(draw(st.integers(1, 8)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    late = draw(st.booleans())
    return [random_ultrametric(ts, rng, late=late) for _ in range(trees)]


@LAWS
@given(tree_families())
def test_join_is_commutative_associative_idempotent(ultras):
    a, b, c = (treegram_from_ultranetwork(u) for u in ultras)
    for mode in MODES:
        ab = join_grams([a, b], mode)
        assert ab == join_grams([b, a], mode)
        left = join_grams([ab, c], mode)
        assert left == join_grams([a, join_grams([b, c], mode)], mode)
        assert left == join_grams([a, b, c], mode)
        assert join_grams([a, a], mode) == a
        assert join_grams([ab, ab], mode) == ab


@LAWS
@given(tree_families(trees=4))
def test_squash_commutes_with_the_facegram_join(ultras):
    grams = [treegram_from_ultranetwork(u) for u in ultras]
    # facegram joins of tree pairs are facegrams that need not be clique-sets
    f, g = join_grams(grams[:2], "facegram"), join_grams(grams[2:], "facegram")
    squashed = squash_to_cliquegram(join_grams([f, g], "facegram"))
    assert squashed == join_grams(
        [squash_to_cliquegram(f), squash_to_cliquegram(g)], "cliquegram"
    )
    assert squash_to_cliquegram(join_grams(grams, "facegram")) == join_grams(
        grams, "cliquegram"
    )


@LAWS
@given(tree_families())
def test_fast_tree_join_equals_materialized_and_scan_joins(ultras):
    fast = join_mergegram_of_treegrams(ultras)
    grams = [treegram_from_ultranetwork(u) for u in ultras]
    assert fast == labeled_mergegram(join_grams(grams, "facegram"))
    assert fast == join_mergegram_by_scan(ultras)
