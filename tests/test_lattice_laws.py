"""Property tests for the lattice laws on seeded treegram families, for
the network-cliquegram round trip through gram JSON, for the
filtration-facegram round trip, and for the bottleneck metric on small
diagrams."""

import math
import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import numpy as np

from phylolattice import (
    FaceSet,
    Gram,
    Mergegram,
    PhyloNetwork,
    TaxaSet,
    bottleneck_distance,
    bottleneck_matching,
    cliquegram_from_network,
    facegram_from_filtration,
    filtration_from_facegram,
    gram_json,
    join_grams,
    join_mergegram_of_treegrams,
    labeled_mergegram,
    network_from_cliquegram,
    parse_gram_json,
    squash_to_cliquegram,
    treegram_from_ultranetwork,
)

from oracles import exhaustive_bottleneck, join_mergegram_by_scan
from util import random_ultrametric, taxa, with_empty_first_level

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
        # an explicit empty first level lists no face, so it changes nothing
        e = with_empty_first_level(a)
        assert e == a and hash(e) == hash(a)
        assert join_grams([e], mode) == e
        assert join_grams([e, e], mode) == e
        assert join_grams([e, b], mode) == ab


def test_join_is_idempotent_on_an_explicit_empty_level():
    ts = TaxaSet("ab")
    full = FaceSet(ts, (ts.full_mask,))
    g = Gram(ts, [(0.0, FaceSet(ts, ())), (1.0, full)])
    for mode in MODES:
        assert join_grams([g], mode) == g
        assert join_grams([g, g], mode) == g
    assert squash_to_cliquegram(g) == g


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


@LAWS
@given(tree_families())
def test_facegram_filtration_round_trip(ultras):
    trees = [treegram_from_ultranetwork(u) for u in ultras]
    join = join_grams(trees, "facegram")
    for g in (*trees, join, squash_to_cliquegram(join), with_empty_first_level(join)):
        back = facegram_from_filtration(filtration_from_facegram(g))
        assert back == g
        assert back.lifespans == g.lifespans


# a coarse grid, so that entries tie
ENTRY = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])


@st.composite
def networks(draw):
    """Networks of 1..7 taxa on a coarse grid, some observed late: an
    off-diagonal entry is at least both of its diagonal entries."""
    ts = taxa(draw(st.integers(1, 7)))
    n = len(ts)
    late = draw(st.booleans())
    diag = [draw(ENTRY) if late else 0.0 for _ in range(n)]
    m = np.diag(diag)
    for i in range(n):
        for j in range(i + 1, n):
            m[i, j] = m[j, i] = max(draw(ENTRY), diag[i], diag[j])
    return PhyloNetwork(ts, m)


@LAWS
@given(networks())
def test_network_cliquegram_round_trip_through_json(net):
    text = gram_json(cliquegram_from_network(net))
    assert network_from_cliquegram(parse_gram_json(text)) == net


METRIC = settings(derandomize=True, database=None, deadline=None, max_examples=150)
# a coarse grid, so that coordinates, distances and half-persistences tie
COORD = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])


@st.composite
def small_diagrams(draw):
    """Mergegrams of at most four intervals counted with multiplicity, some
    repeated, some infinite."""
    points = []
    size = 0
    for _ in range(draw(st.integers(0, 4))):
        birth = draw(COORD)
        death = math.inf if draw(st.integers(0, 4)) == 0 else birth + draw(COORD.filter(bool))
        mult = draw(st.integers(1, 2))
        if size + mult > 4:
            break
        points.append((birth, death, mult))
        size += mult
    return Mergegram(points)


@METRIC
@given(small_diagrams(), small_diagrams())
def test_bottleneck_is_exact_and_symmetric(a, b):
    d = bottleneck_distance(a, b)
    assert d == exhaustive_bottleneck(a, b)
    assert d == bottleneck_distance(b, a)


@METRIC
@given(small_diagrams(), small_diagrams())
def test_bottleneck_matching_witnesses_the_distance(a, b):
    d = bottleneck_distance(a, b)
    m = bottleneck_matching(a, b, d)
    if math.isinf(d):
        assert m is None
        return
    assert m is not None
    assert m.cost() <= d
    assert m.covers(a, b)
