import logging
import random
import warnings

import numpy as np
import pytest

from phylolattice import (
    PhyloNetwork,
    Ultranetwork,
    agglomerative_ultrametric,
    is_ultranetwork,
    newick_from_ultranetwork,
)
from phylolattice.experiments import default_taxa

from oracles import agglomerative_by_submatrix, minimax_closure
from util import random_dissimilarity, taxa


def test_single_linkage_is_minimax_closure(rng):
    for n in (2, 4, 6, 8):
        ts = taxa(n)
        for _ in range(15):
            net = random_dissimilarity(ts, rng)
            got = agglomerative_ultrametric(net, "single")
            assert np.allclose(got.matrix, minimax_closure(net.matrix))


def test_upgma_hand_example():
    ts = taxa(3)
    net = PhyloNetwork(ts, [[0, 2, 6], [2, 0, 4], [6, 4, 0]])
    u = agglomerative_ultrametric(net, "upgma")
    # a,b merge at 2; the pair then sits at (6+4)/2 = 5 from c
    assert u.matrix[0, 1] == 2.0
    assert u.matrix[0, 2] == 5.0
    assert u.matrix[1, 2] == 5.0
    assert not np.diag(u.matrix).any()


def test_single_linkage_hand_example():
    ts = taxa(3)
    net = PhyloNetwork(ts, [[0, 2, 6], [2, 0, 4], [6, 4, 0]])
    u = agglomerative_ultrametric(net, "single")
    assert u.matrix[0, 2] == 4.0  # chained through b


def test_output_is_ultrametric(rng):
    for method in ("single", "upgma"):
        for _ in range(10):
            net = random_dissimilarity(taxa(7), rng)
            u = agglomerative_ultrametric(net, method)
            assert isinstance(u, Ultranetwork)
            assert is_ultranetwork(u)


def test_single_taxon():
    u = agglomerative_ultrametric(PhyloNetwork(taxa(1), [[0.0]]))
    assert u.matrix.tolist() == [[0.0]]


def test_upgma_heights_never_decrease(rng):
    # reducibility: cophenetic values along any merge sequence are monotone
    for _ in range(10):
        net = random_dissimilarity(taxa(6), rng)
        u = agglomerative_ultrametric(net, "upgma")
        assert is_ultranetwork(u)


def test_rejects_unknown_method_and_late_observation():
    net = PhyloNetwork(taxa(2), [[0, 1], [1, 0]])
    with pytest.raises(ValueError, match="unknown linkage"):
        agglomerative_ultrametric(net, "complete")
    late = PhyloNetwork(taxa(2), [[0.5, 1], [1, 0]])
    with pytest.raises(ValueError, match="zero diagonal"):
        agglomerative_ultrametric(late)


def test_deterministic_tie_break():
    # two equal-height merges: the smaller index pair goes first, but the
    # cophenetic matrix is the same either way; just pin the output
    ts = taxa(4)
    net = PhyloNetwork(ts, [[0, 1, 5, 5], [1, 0, 5, 5], [5, 5, 0, 1], [5, 5, 1, 0]])
    u = agglomerative_ultrametric(net, "upgma")
    assert u.matrix[0, 1] == 1.0
    assert u.matrix[2, 3] == 1.0
    assert u.matrix[0, 2] == 5.0


def _tied_dissimilarity(rng: random.Random, n: int, kind: int) -> PhyloNetwork:
    """Uniform entries, integers 1-4, or eighths in [0, 2]: the last two
    tie often, so tie-breaking decides the merge order."""
    m = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if kind == 0:
                v = rng.random()
            elif kind == 1:
                v = rng.randint(1, 4)
            else:
                v = rng.randint(0, 16) / 8
            m[i, j] = m[j, i] = v
    return PhyloNetwork(default_taxa(n), m)


def test_matches_submatrix_oracle():
    # the whole-matrix argmin takes the same pair, ties included, as the
    # argmin over a copy of the active block, and the linkage order keeps
    # every cluster a run: each row of the matrix in that order grows
    # away from the diagonal, and adjacent entries are the joins
    rng = random.Random(24)
    for k in range(3000):
        net = _tied_dissimilarity(rng, 1 + k % 40, k % 3)
        for method in ("single", "upgma"):
            got = agglomerative_ultrametric(net, method)
            want = agglomerative_by_submatrix(net, method)
            assert got.matrix.tobytes() == want.matrix.tobytes(), (k, method)
            assert newick_from_ultranetwork(got) == newick_from_ultranetwork(want)
            order, joins = got.linkage
            p = want.matrix[np.ix_(order, order)]
            assert np.array_equal(joins, np.diagonal(p, 1))
            steps = np.diff(p, axis=1)  # steps[a, c]: p[a, c + 1] - p[a, c]
            right = np.arange(len(order) - 1) >= np.arange(len(order))[:, None]
            assert (steps[right] >= 0).all() and (steps[~right] <= 0).all()


@pytest.mark.parametrize(
    "rows",
    [
        [[0, 1e308, 1e308], [1e308, 0, 1e308], [1e308, 1e308, 0]],
        [[0, 1e308, 1.7e308], [1e308, 0, 1.7e308], [1.7e308, 1.7e308, 0]],
    ],
    ids=["all-1e308", "1e308-and-1.7e308"],
)
def test_upgma_near_the_float_maximum(rows):
    # the size-weighted sum overflows; the average itself does not
    net = PhyloNetwork(taxa(3), rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = agglomerative_ultrametric(net, "upgma")
        m = u.matrix
    assert np.isfinite(m).all() and is_ultranetwork(u)
    assert m[0, 1] == 1e308 and m[0, 2] == m[1, 2] == rows[0][2]


def test_debug_line(caplog):
    net = PhyloNetwork(taxa(3), [[0, 2, 6], [2, 0, 4], [6, 4, 0]])
    with caplog.at_level(logging.DEBUG, logger="phylolattice.clustering"):
        agglomerative_ultrametric(net, "upgma")
    (record,) = [r for r in caplog.records if r.name == "phylolattice.clustering"]
    assert record.levelno == logging.DEBUG
    stage, *pairs = record.getMessage().split()
    assert stage == "stage=cluster"
    fields = dict(p.split("=") for p in pairs)
    assert list(fields) == ["method", "taxa", "ms"]
    assert (fields["method"], fields["taxa"]) == ("upgma", "3")
    assert float(fields["ms"]) >= 0


def test_no_log_line_above_debug(caplog, rng):
    with caplog.at_level(logging.INFO, logger="phylolattice.clustering"):
        for method in ("single", "upgma"):
            agglomerative_ultrametric(random_dissimilarity(taxa(5), rng), method)
    assert not [r for r in caplog.records if r.name == "phylolattice.clustering"]
