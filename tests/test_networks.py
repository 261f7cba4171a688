import tracemalloc

import numpy as np
import pytest

from phylolattice import networks
from phylolattice import (
    NetworkValidationError,
    PhyloNetwork,
    TaxaSet,
    Ultranetwork,
    as_ultranetwork,
    is_ultranetwork,
    network_join,
    validate_network,
    vr_value,
)

from oracles import minimax_closure
from util import random_network, random_ultrametric, taxa


def test_valid_metric():
    net = validate_network(["x", "y"], [[0, 1], [1, 0]])
    assert net.matrix[0, 1] == 1.0
    assert not net.matrix.flags.writeable


def test_asymmetry_reported_with_names():
    with pytest.raises(NetworkValidationError, match=r"asymmetric pair \(x,y\)"):
        validate_network(["x", "y"], [[0, 1], [2, 0]])


def test_diagonal_bound():
    # observation time above a joint coalescence time is impossible
    with pytest.raises(NetworkValidationError, match="diagonal exceeds"):
        validate_network(["x", "y"], [[3, 1], [1, 0]])


def test_late_observation_is_legal():
    net = validate_network(["x", "y"], [[2, 3], [3, 1]])
    assert net.matrix[0, 0] == 2.0


def test_non_finite_rejected():
    with pytest.raises(NetworkValidationError, match="non-finite"):
        validate_network(["x", "y"], [[0, np.inf], [np.inf, 0]])


def test_shape_mismatch():
    with pytest.raises(NetworkValidationError, match="shape"):
        validate_network(["x", "y"], [[0, 1, 2], [1, 0, 2], [2, 2, 0]])


def test_violations_are_collected():
    try:
        validate_network(["x", "y", "z"], [[0, 1, 5], [2, 0, 1], [5, 1, 0]])
    except NetworkValidationError as e:
        assert len(e.violations) >= 1
    else:
        pytest.fail("expected a validation error")


def test_strong_triangle():
    with pytest.raises(NetworkValidationError, match="strong triangle"):
        Ultranetwork(taxa(3), [[0, 1, 3], [1, 0, 1], [3, 1, 0]])
    u = Ultranetwork(taxa(3), [[0, 1, 3], [1, 0, 3], [3, 3, 0]])
    assert is_ultranetwork(u)


def test_strong_triangle_blocks_keep_order_and_first_ten(rng, monkeypatch):
    net = random_network(taxa(7), rng)
    m = net.matrix
    thr = np.maximum(m[:, :, None], m[None, :, :])
    expect = [tuple(int(i) for i in xyz) for xyz in np.argwhere(m[:, None, :] > thr)]
    assert len(expect) > 10
    for block in (1, 98, 147, 1 << 20):  # 1, 2, 3 and all 7 rows per block
        monkeypatch.setattr(networks, "_BLOCK_ELEMENTS", block)
        assert list(networks._strong_triangle_violations(m)) == expect
        with pytest.raises(NetworkValidationError) as err:
            Ultranetwork(net.universe, m)
        labels = net.universe.labels
        assert err.value.violations == [
            f"strong triangle fails at ({labels[x]},{labels[y]},{labels[z]})"
            for x, y, z in expect[:10]
        ]


def test_strong_triangle_check_in_bounded_memory():
    # a 300-leaf binary tree: taxa i and j meet at the highest differing bit
    n = 300
    idx = np.arange(n)
    _, height = np.frexp(np.bitwise_xor.outer(idx, idx).astype(float))
    net = PhyloNetwork(TaxaSet([f"t{i}" for i in range(n)]), height.astype(float))
    tracemalloc.start()
    try:
        assert is_ultranetwork(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_metric_need_not_be_ultra():
    net = PhyloNetwork(taxa(3), [[0, 1, 3], [1, 0, 1], [3, 1, 0]])
    assert not is_ultranetwork(net)
    with pytest.raises(NetworkValidationError):
        as_ultranetwork(net)


def test_as_ultranetwork_passthrough(rng):
    u = random_ultrametric(taxa(5), rng)
    assert as_ultranetwork(u) is u


def test_random_ultrametrics_validate(rng):
    for n in (1, 2, 5, 8):
        for late in (False, True):
            u = random_ultrametric(taxa(n), rng, late=late)
            assert is_ultranetwork(u)


def test_vr_value_is_diameter():
    net = PhyloNetwork(taxa(3), [[0, 1, 3], [1, 0, 2], [3, 2, 0]])
    assert vr_value(net, 0b011) == 1.0
    assert vr_value(net, 0b111) == 3.0
    assert vr_value(net, 0b001) == 0.0


def test_network_join_is_entrywise_min(rng):
    ts = taxa(5)
    nets = [random_network(ts, rng, late=True) for _ in range(3)]
    j = network_join(nets)
    assert np.array_equal(j.matrix, np.minimum.reduce([n.matrix for n in nets]))


def test_network_join_universe_mismatch():
    a = PhyloNetwork(taxa(2), [[0, 1], [1, 0]])
    b = PhyloNetwork(taxa(3), np.zeros((3, 3)))
    with pytest.raises(ValueError, match="different universes"):
        network_join([a, b])


def test_eq_and_hash():
    a = PhyloNetwork(taxa(2), [[0, 1], [1, 0]])
    b = PhyloNetwork(taxa(2), [[0.0, 1.0], [1.0, 0.0]])
    c = PhyloNetwork(taxa(2), [[0, 2], [2, 0]])
    assert a == b and hash(a) == hash(b)
    assert a != c


def _networks_near_ultrametric(rng, count):
    """General networks, ultrametrics (with ties and late observation) and
    ultrametrics with one entry nudged up or down, n from 1 to 12."""
    for k in range(count):
        ts = taxa(rng.randint(1, 12))
        n = len(ts)
        if k % 4 == 0:
            yield random_network(ts, rng, late=k % 8 == 0)
            continue
        m = random_ultrametric(ts, rng, late=k % 3 == 0).matrix.copy()
        if k % 4 == 2:
            m = np.round(m * 4)  # monotone, so still an ultranetwork, with ties
        if k % 4 == 3 and n > 1:
            i, j = rng.sample(range(n), 2)
            nudged = m[i, j] + rng.choice((-1, 1)) * rng.uniform(0.0, 0.2)
            m[i, j] = m[j, i] = max(nudged, m[i, i], m[j, j])
        yield PhyloNetwork(ts, m)


def test_single_linkage_test_matches_triple_scan(rng):
    outcomes = []
    for net in _networks_near_ultrametric(rng, 2400):
        expect = next(networks._strong_triangle_violations(net.matrix), None) is None
        assert is_ultranetwork(net) == expect
        outcomes.append(expect)
    assert 500 < sum(outcomes) < len(outcomes) - 500


def test_single_linkage_test_in_blocks(rng, monkeypatch):
    nets = list(_networks_near_ultrametric(rng, 200))
    expect = [is_ultranetwork(net) for net in nets]
    for block in (1, 12, 50):  # one row, one row of n=12, a few rows
        monkeypatch.setattr(networks, "_BLOCK_ELEMENTS", block)
        assert [is_ultranetwork(net) for net in nets] == expect


def test_linkage_order_gives_the_minimax_values(rng):
    # every single-linkage cluster is a run of the order, so the minimax
    # path value between order[i] and order[j] is the largest join between
    for net in _networks_near_ultrametric(rng, 120):
        order, joins = networks._single_linkage(net.matrix)
        n = len(order)
        assert sorted(order) == list(range(n))
        closure = minimax_closure(net.matrix)
        for i in range(n):
            for j in range(i + 1, n):
                assert closure[order[i], order[j]] == joins[i:j].max()


def test_ultrametric_check_scales_to_two_thousand_taxa():
    n = 2000
    idx = np.arange(n)
    _, height = np.frexp(np.bitwise_xor.outer(idx, idx).astype(float))
    labels = TaxaSet([f"t{i}" for i in range(n)])
    assert is_ultranetwork(PhyloNetwork(labels, height.astype(float)))
    height[0, 1] = height[1, 0] = 5.0  # one pair above the tree's join of 1.0
    with pytest.raises(NetworkValidationError) as err:
        Ultranetwork(labels, height.astype(float))
    assert err.value.violations[0] == "strong triangle fails at (t0,t2,t1)"
    assert len(err.value.violations) == 10
