import json
import logging
import math
import random
from collections import Counter

import numpy as np
import pytest

from phylolattice import faces, grams
from phylolattice import (
    FaceSet,
    Gram,
    Graph,
    PhyloNetwork,
    TableFiltration,
    Ultranetwork,
    VRFiltration,
    all_faces,
    cliquegram_from_network,
    facegram_from_filtration,
    filtration_from_facegram,
    gram_leq,
    is_treegram,
    join_grams,
    network_from_cliquegram,
    network_join,
    pullback_filtration,
    squash_to_cliquegram,
    treegram_from_ultranetwork,
    Surjection,
    TaxaSet,
    gram_from_labeled_mergegram,
    gram_json,
    is_subpartition,
    parse_gram_json,
    labeled_mergegram,
    maximal_masks,
    parse_newick,
    ultranetwork_from_newick,
)

from oracles import (
    check_gram_by_covers,
    clique_join_by_levels,
    clique_levels_by_full_enumeration,
    clique_levels_by_region_sweep,
    clique_levels_by_threshold_graphs,
    enumerate_maximal_cliques,
    facegram_join_by_levels,
    first_non_clique_set_level,
    gram_by_alive_at,
    gram_by_faceset_levels,
    gram_json_by_dumps,
    gram_leq_by_levels,
    levels_of_births,
    network_by_block_writes,
    squash_by_levels,
    tree_levels_by_runs,
)
from util import (
    gram_of,
    random_names,
    random_network,
    random_newick,
    random_ultrametric,
    taxa,
    with_empty_first_level,
)


def fs(ts, *names):
    return FaceSet.from_names(ts, names)


class TestGramValidation:
    def test_unknown_kind(self):
        ts = taxa(1)
        with pytest.raises(ValueError, match="kind"):
            Gram(ts, [(0.0, fs(ts, "a"))], "dendrogram")

    def test_needs_levels(self):
        with pytest.raises(ValueError, match="at least one level"):
            Gram(taxa(1), [])

    def test_criticals_strictly_increasing(self):
        ts = taxa(2)
        with pytest.raises(ValueError, match="strictly increasing"):
            Gram(ts, [(1.0, fs(ts, "a")), (1.0, fs(ts, "ab"))])

    def test_criticals_finite(self):
        ts = taxa(1)
        with pytest.raises(ValueError, match="finite"):
            Gram(ts, [(float("inf"), fs(ts, "a"))])

    def test_refinement_monotone(self):
        ts = taxa(2)
        with pytest.raises(ValueError, match="refinement-monotone"):
            Gram(ts, [(0.0, fs(ts, "ab")), (1.0, fs(ts, "a", "b"))])
        with pytest.raises(ValueError, match="refinement-monotone"):
            # b disappears without being absorbed
            Gram(ts, [(0.0, fs(ts, "a", "b")), (1.0, fs(ts, "a")), (2.0, fs(ts, "ab"))])

    def test_no_repeated_levels(self):
        ts = taxa(1)
        with pytest.raises(ValueError, match="identical"):
            Gram(ts, [(0.0, fs(ts, "a")), (1.0, fs(ts, "a"))])

    def test_must_top_out(self):
        ts = taxa(2)
        with pytest.raises(ValueError, match="full face"):
            Gram(ts, [(0.0, fs(ts, "a", "b"))])

    def test_treegram_levels_are_subpartitions(self):
        ts = taxa(3)
        levels = [(0.0, fs(ts, "ab", "bc")), (1.0, fs(ts, "abc"))]
        Gram(ts, levels, "facegram")
        with pytest.raises(ValueError, match="subpartition"):
            Gram(ts, levels, "treegram")

    def test_cliquegram_levels_are_clique_sets(self):
        ts = taxa(3)
        # three pairwise overlapping pairs force the triangle in any graph
        levels = [(0.0, fs(ts, "ab", "bc", "ac")), (1.0, fs(ts, "abc"))]
        Gram(ts, levels, "facegram")
        with pytest.raises(ValueError, match="clique-set"):
            Gram(ts, levels, "cliquegram")


def test_equality_ignores_kind():
    ts = taxa(2)
    levels = [(0.0, fs(ts, "a", "b")), (1.0, fs(ts, "ab"))]
    a = Gram(ts, levels, "facegram")
    b = a.with_kind("treegram")
    assert a == b
    assert hash(a) == hash(b)
    assert b.kind == "treegram"


def test_level_at_and_criticals():
    ts = taxa(2)
    g = gram_of(ts, [(1.0, [["a"], ["b"]]), (3.0, [["a", "b"]])])
    assert g.criticals == (1.0, 3.0)
    assert g.level_at(0.5).is_empty
    assert g.level_at(1.0) == fs(ts, "a", "b")
    assert g.level_at(2.999) == fs(ts, "a", "b")
    assert g.level_at(3.0) == fs(ts, "ab")
    assert g.level_at(100.0) == fs(ts, "ab")
    assert set(g.all_faces()) == {0b01, 0b10, 0b11}


def test_level_at_refuses_nan():
    g = gram_of(taxa(2), [(1.0, [["a"], ["b"]]), (3.0, [["a", "b"]])])
    with pytest.raises(ValueError, match=r"t=nan"):
        g.level_at(math.nan)
    assert g.level_at(-math.inf).is_empty
    assert g.level_at(math.inf) == fs(g.universe, "ab")


def test_gram_leq():
    ts = taxa(2)
    fine = gram_of(ts, [(0.0, [["a"], ["b"]]), (2.0, [["a", "b"]])])
    coarse = gram_of(ts, [(0.0, [["a", "b"]])])
    assert gram_leq(fine, fine)
    assert gram_leq(fine, coarse)
    assert not gram_leq(coarse, fine)
    with pytest.raises(ValueError, match="different universes"):
        gram_leq(fine, gram_of(taxa(3), [(0.0, [["a", "b", "c"]])]))


def _random_gram(ts, rng):
    """A cliquegram, a facegram join of treegrams, or a squash of one.

    Half of them top out at 1.0, so that their full faces are born
    together and only the inner faces can decide the order.
    """
    top = rng.random() < 0.5

    def scaled(net):
        return PhyloNetwork(ts, net.matrix / net.matrix.max()) if top else net

    kind = rng.randrange(3)
    if kind == 0:
        net = random_network(ts, rng, late=rng.random() < 0.5)
        return cliquegram_from_network(scaled(net))
    trees = [
        treegram_from_ultranetwork(
            scaled(random_ultrametric(ts, rng, late=rng.random() < 0.5))
        )
        for _ in range(rng.randint(1, 3))
    ]
    join = join_grams(trees, "facegram")
    return join if kind == 1 else squash_to_cliquegram(join)


def test_gram_leq_matches_levelwise_definition():
    rng = random.Random(20231)
    outcomes = []
    for i in range(300):
        ts = taxa(rng.randint(2, 5))
        a, b = _random_gram(ts, rng), _random_gram(ts, rng)
        prejoined = i % 3 == 0
        if prejoined:
            b = join_grams([a, b], "facegram")
        leq = gram_leq(a, b)
        assert leq == gram_leq_by_levels(a, b)
        assert leq or not prejoined
        outcomes.append(leq)
    assert outcomes.count(True) >= 50 and outcomes.count(False) >= 50


def test_lifespans_follow_the_levels():
    ts = taxa(3)
    g = gram_of(ts, [(0.0, [["a"], ["b"]]), (1.0, [["a", "b"], ["c"]]),
                     (2.0, [["a", "b", "c"]])])
    assert g.lifespans == {
        0b001: (0.0, 1.0),
        0b010: (0.0, 1.0),
        0b011: (1.0, 2.0),
        0b100: (1.0, 2.0),
        0b111: (2.0, float("inf")),
    }


def _monotone_levels(ts, rng):
    """Refinement-monotone levels up to the full face: each step adds one
    to three random masks, mostly small ones, and keeps the maximal masks,
    so that runs of subpartition levels come before overlapping ones."""
    n = len(ts)
    faces: tuple[int, ...] = ()
    levels = []
    t = 0.0
    while faces != (ts.full_mask,):
        adds = []
        for _ in range(rng.randint(1, 3)):
            size = min(rng.randint(1, n), rng.randint(1, n))
            adds.append(sum(1 << i for i in rng.sample(range(n), size)))
        grown = maximal_masks(faces + tuple(adds))
        if grown != faces:
            faces = grown
            levels.append((t, FaceSet(ts, faces)))
        t += rng.choice((0.5, 1.0))
    return levels


def _outcome(build):
    """``"ok"``, or the type and message of what ``build()`` raised."""
    try:
        build()
    except (ValueError, RuntimeError) as e:
        return type(e), str(e)
    return "ok"


def _broken_levels(ts, rng):
    """Levels of a random gram, then up to two random breaks: a level
    replaced by a random antichain, two face-sets swapped, a level
    repeated, dropped or retimed, or a level over another universe."""
    levels = list(_birth_part(ts, rng).levels)
    for _ in range(rng.choice((0, 1, 1, 2))):
        j = rng.randrange(len(levels))
        t, fs = levels[j]
        step = rng.randrange(6)
        if step == 0:
            masks = [rng.randint(1, ts.full_mask) for _ in range(rng.randint(0, 4))]
            levels[j] = (t, FaceSet(ts, maximal_masks(masks)))
        elif step == 1:
            k = rng.randrange(len(levels))
            levels[j], levels[k] = (t, levels[k][1]), (levels[k][0], fs)
        elif step == 2:
            levels.insert(j + 1, (t + rng.choice((0.0, 0.25)), fs))
        elif step == 3 and len(levels) > 1:
            del levels[j]
        elif step == 4:
            levels[j] = (rng.choice((t - 1.0, math.inf, math.nan)), fs)
        elif step == 5 and rng.random() < 0.2:
            levels[j] = (t, FaceSet(taxa(len(ts) + 1), ()))
    return levels


class TestRefinementCheck:
    """``Gram`` looks for a dying face's cover among the born faces only;
    the oracle searches the whole level."""

    def test_matches_the_covers_loop(self):
        rng = random.Random(1515)
        outcomes: dict[str, int] = {}
        for _ in range(10000):
            ts = taxa(rng.randint(1, 6))
            levels = _broken_levels(ts, rng)
            kind = rng.choice(grams.KINDS)
            got = _outcome(lambda: Gram(ts, levels, kind))
            assert got == _outcome(lambda: check_gram_by_covers(ts, levels, kind))
            key = "ok" if got == "ok" else got[1].split(" at ")[0].split(" t=")[0]
            outcomes[key] = outcomes.get(key, 0) + 1
        # accepted, and each of the eight errors a level sequence can raise
        assert len(outcomes) == 9, outcomes
        assert outcomes["ok"] >= 3000, outcomes
        assert outcomes["levels are not refinement-monotone"] >= 1000, outcomes


def _mask_levels(ts, rng):
    """Levels of a random gram as mask lists in random order, then up to
    three faults: a face's strict subset or superset added beside it, a
    face listed twice, an empty or out-of-range mask, a face dropped, two
    levels swapped, a level repeated, a random antichain in place of a
    level, the top dropped or given a second face, or a bad critical
    value (NaN, infinite, not increasing)."""
    n, full = len(ts), ts.full_mask
    levels = []
    for t, fs in _birth_part(ts, rng).levels:
        masks = list(fs.faces)
        rng.shuffle(masks)
        levels.append((t, masks))
    for _ in range(rng.choice((0, 1, 1, 1, 2, 2, 2, 3))):
        j = rng.randrange(len(levels))
        t, masks = levels[j]
        masks = list(masks)
        step = rng.randrange(11)
        if step == 0 and masks:
            f = rng.choice(masks)
            other = f & rng.randint(1, full) if rng.random() < 0.5 else f | rng.randint(1, full)
            if other not in (0, f):
                masks.insert(rng.randint(0, len(masks)), other)
        elif step == 1 and masks:
            masks.insert(rng.randint(0, len(masks)), rng.choice(masks))
        elif step == 2:
            bad = rng.choice((0, 0, -1, full + 1, 1 << n, full << 1))
            masks.insert(rng.randint(0, len(masks)), bad)
        elif step == 3 and masks:
            del masks[rng.randrange(len(masks))]
        elif step == 4:
            k = rng.randrange(len(levels))
            levels[k], masks = (levels[k][0], masks), list(levels[k][1])
        elif step == 5:
            levels.insert(j + 1, (t + rng.choice((0.0, 0.25)), list(masks)))
        elif step == 6:
            adds = [rng.randint(1, full) for _ in range(rng.randint(0, 4))]
            masks = list(maximal_masks(adds))
        elif step == 7:
            if len(levels) > 1 and rng.random() < 0.5:
                del levels[-1]
                continue
            j, (t, masks) = len(levels) - 1, levels[-1]
            masks = list(masks) + [rng.randint(1, full)]
        elif step == 8:
            t = rng.choice((math.nan, math.inf, -math.inf))
        elif step == 9 and j:
            t = levels[j - 1][0] - rng.choice((0.0, 0.5))
        levels[j] = (t, masks)
    return levels


def _parse_outcome(ts, levels, kind):
    """What ``parse_gram_json`` should raise on the levels: each level's
    critical value and face-set checks under its position, in level order,
    and then whatever the constructor raised."""
    prev = None
    for i, (t, masks) in enumerate(levels):
        if not math.isfinite(t):
            return ValueError, f"level {i}: critical values must be finite"
        if prev is not None and t <= prev:
            return ValueError, f"level {i}: critical values must be strictly increasing"
        try:
            FaceSet(ts, masks)
        except ValueError as e:
            return ValueError, f"level {i}: {e}"
        prev = t
    return _outcome(lambda: gram_by_faceset_levels(ts, levels, kind))


def _gram_document(ts, levels, kind):
    def names(m):
        return list(ts.names_of(m)) if m else []

    return json.dumps(
        {
            "format": "phylolattice/1",
            "type": "gram",
            "kind": kind,
            "taxa": list(ts.labels),
            "levels": [{"t": t, "faces": [names(m) for m in masks]} for t, masks in levels],
        }
    )


def _by_level_adapter(ts, levels, kind):
    """The gram of mask-list levels, each turned into events by the
    sweep's level adapter."""
    sweep = faces._AntichainSweep(ts)
    return Gram._of_events(ts, [(t, *sweep.step_level(masks)) for t, masks in levels], kind)


def _mask_level_events(levels):
    """(t, born, dying) of mask-list levels by multiset differences: every
    listing of a face beyond one that survives from the previous level is
    a birth, so a face listed twice is born twice or born while alive."""
    prev = set()
    for t, masks in levels:
        listed = Counter(masks)
        born = listed - Counter(m for m in prev if m in listed)
        yield t, list(born.elements()), [m for m in prev if m not in listed]
        prev = set(listed)


def _by_step(ts, levels, kind):
    """The gram of mask-list levels handed to the sweep's ``step`` as events."""
    sweep = faces._AntichainSweep(ts)
    events = [(t, *sweep.step(born, dying)) for t, born, dying in _mask_level_events(levels)]
    return Gram._of_events(ts, events, kind)


def _assert_same_gram(g, levels, kind):
    """``g`` is the gram of the mask-list ``levels`` by a ``FaceSet`` per
    level: the same kind, critical values and lifespans."""
    ref = gram_by_faceset_levels(g.universe, levels, kind)
    assert (g.kind, g.criticals, g.lifespans) == (ref.kind, ref.criticals, ref.lifespans)


class TestBuildersMatchTheLevelLists:
    """Each builder hands over (t, born, dying) events; its gram is the
    gram of the whole level lists that its reference in ``oracles``
    builds."""

    def test_tree_sweep(self):
        # Newick trees with multifurcations, tied and zero lengths and
        # leaves at different depths; single-linkage trees with late
        # observation, and ties from integer rounding
        rng = random.Random(2601)
        for k in range(1200):
            if k % 2:
                (tree,) = parse_newick(random_newick(rng, random_names(rng, 1 + k % 13)))
                u = ultranetwork_from_newick(tree)
            else:
                ts = taxa(1 + k % 14)
                u = random_ultrametric(ts, rng, late=k % 4 == 0)
                if k % 3 == 0:
                    u = Ultranetwork(ts, np.round(u.matrix * 3))
            _assert_same_gram(treegram_from_ultranetwork(u), tree_levels_by_runs(u), "treegram")

    def test_clique_sweep(self):
        rng = random.Random(2602)
        for k in range(1200):
            ts = taxa(1 + k % 11)
            net = random_network(ts, rng, late=k % 2 == 1)
            if k % 3 == 0:
                net = PhyloNetwork(ts, np.round(net.matrix * rng.choice((2, 4))))
            levels = clique_levels_by_region_sweep(net)
            _assert_same_gram(cliquegram_from_network(net), levels, "cliquegram")
            _assert_same_gram(facegram_from_filtration(VRFiltration(net)), levels, "facegram")

    def test_births_sweep(self):
        # repeated and tied births, faces covered at their own birth, and
        # every kind, so some gram is refused; the full face comes last
        rng = random.Random(2603)
        built = 0
        for k in range(1200):
            ts = taxa(1 + k % 6)
            births = [
                (rng.randint(0, 6) / 2, rng.randint(1, ts.full_mask))
                for _ in range(rng.randint(0, 12))
            ]
            births += births[: rng.randint(0, 2)]
            births.append((3.0 + rng.randint(0, 1), ts.full_mask))
            kind = grams.KINDS[k % 3]
            levels = levels_of_births(births)
            got = _outcome(lambda: grams._facegram_of_births(ts, births, kind))
            assert got == _outcome(lambda: gram_by_faceset_levels(ts, levels, kind))
            if got == "ok":
                _assert_same_gram(grams._facegram_of_births(ts, births, kind), levels, kind)
                built += 1
        assert built >= 600, built


class TestPerEventAntichainCheck:
    """The library's builders hand ``Gram`` (t, born, dying) events, and
    the JSON parser mask lists through the sweep's level adapter; each
    level is proved an antichain from the faces it changes.  The oracle
    builds a ``FaceSet`` per level, with its full scan, and validates
    those as the constructor did."""

    def test_matches_a_faceset_per_level(self):
        rng = random.Random(1818)
        outcomes: dict[str, int] = {}
        parsed = 0
        for _ in range(14000):
            ts = taxa(rng.randint(1, 6))
            levels = _mask_levels(ts, rng)
            kind = rng.choice(grams.KINDS)
            expect = _outcome(lambda: gram_by_faceset_levels(ts, levels, kind))
            for build in (_by_level_adapter, _by_step):
                got = _outcome(lambda: build(ts, levels, kind))
                assert got == expect, (build.__name__, levels)
            if expect == "ok":
                ref = gram_by_faceset_levels(ts, levels, kind)
                for build in (_by_level_adapter, _by_step):
                    g = build(ts, levels, kind)
                    assert g.criticals == ref.criticals
                    assert g.lifespans == ref.lifespans
                    assert g.levels == ref.levels
                    assert gram_json(g) == gram_json_by_dumps(ref)
            if all(0 <= m <= ts.full_mask for _, masks in levels for m in masks):
                doc = _gram_document(ts, levels, kind)
                got = _outcome(lambda: parse_gram_json(doc))
                assert got == _parse_outcome(ts, levels, kind), levels
                if got == "ok":
                    assert gram_json(parse_gram_json(doc)) == gram_json_by_dumps(ref)
                parsed += 1
            key = "ok" if expect == "ok" else expect[1]
            outcomes[key] = outcomes.get(key, 0) + 1
        assert outcomes.pop("ok") >= 1000
        assert sum(outcomes.values()) >= 10000
        # the face-set errors and each of the gram's own errors
        for error in (
            "duplicate face",
            "not an antichain",
            "face must be a non-empty bitmask",
            "has bits outside the universe",
            "critical values must be finite",
            "critical values must be strictly increasing",
            "levels are not refinement-monotone",
            "consecutive levels",
            "the last level must be the single full face",
            "is not a subpartition",
            "is not a clique-set",
        ):
            assert sum(k for key, k in outcomes.items() if error in key) >= 50, error
        assert parsed >= 10000, parsed


class TestLevelView:
    """A gram built from masks keeps its lifespans; ``levels`` is built on
    its first read."""

    def test_debug_line_on_the_first_read(self, caplog):
        ts = taxa(3)
        g = treegram_from_ultranetwork(Ultranetwork(ts, [[0, 1, 3], [1, 0, 3], [3, 3, 0.5]]))
        with caplog.at_level(logging.DEBUG, logger="phylolattice.grams"):
            first = g.levels
            assert g.levels is first
            assert g.with_kind("facegram").levels is first
        (record,) = [r for r in caplog.records if r.name == "phylolattice.grams"]
        assert record.levelno == logging.DEBUG
        stage, *pairs = record.getMessage().split()
        assert stage == "stage=levels"
        fields = dict(p.split("=") for p in pairs)
        assert list(fields) == ["levels", "faces", "ms"]
        # levels at 0, 0.5, 1, 3; faces a, b, c, ab, abc
        assert (fields["levels"], fields["faces"]) == ("4", "5")
        assert float(fields["ms"]) >= 0
        assert first == (
            (0.0, fs(ts, "a", "b")),
            (0.5, fs(ts, "a", "b", "c")),
            (1.0, fs(ts, "ab", "c")),
            (3.0, fs(ts, "abc")),
        )

    def test_given_levels_are_the_view(self, caplog):
        ts = taxa(2)
        levels = [(0.0, fs(ts, "a", "b")), (1.0, fs(ts, "ab"))]
        with caplog.at_level(logging.DEBUG, logger="phylolattice.grams"):
            g = Gram(ts, levels)
            assert g.levels == tuple(levels)
            assert repr(g) == "Gram[facegram](0.0: (('a',), ('b',)), 1.0: (('a', 'b'),))"
        assert not [r for r in caplog.records if r.name == "phylolattice.grams"]

    def test_builders_and_joins_build_no_view(self, caplog, rng):
        ts = taxa(6)
        with caplog.at_level(logging.DEBUG, logger="phylolattice.grams"):
            parts = [treegram_from_ultranetwork(random_ultrametric(ts, rng)) for _ in range(3)]
            parts.append(cliquegram_from_network(random_network(ts, rng, late=True)))
            for mode in ("facegram", "cliquegram"):
                g = join_grams(parts, mode)
            assert all(is_treegram(p) for p in parts[:3])
            g.with_kind("facegram")
        stages = {r.getMessage().split()[0] for r in caplog.records}
        assert "stage=levels" not in stages and "stage=join" in stages


def _clique_message(t):
    return f"cliquegram level at t={t!r} is not a clique-set"


class TestCliqueSetCheck:
    """The incremental clique-set check of ``Gram`` and ``join_grams``
    against a full maximal-clique enumeration on every level."""

    def test_matches_the_full_check(self):
        rng = random.Random(60)
        outcomes = {True: 0, False: 0}
        rebuilt = 0  # overlapping levels after a subpartition with a pair in a face
        for k in range(2400):
            ts = taxa(1 + k % 10)
            levels = _monotone_levels(ts, rng)
            expect = first_non_clique_set_level(levels)
            outcomes[expect is None] += 1
            face_gram = Gram(ts, levels, "facegram")
            if expect is None:
                assert Gram(ts, levels, "cliquegram") == face_gram
                assert join_grams([face_gram], "cliquegram") == face_gram
            else:
                with pytest.raises(ValueError) as err:
                    Gram(ts, levels, "cliquegram")
                assert str(err.value) == _clique_message(expect)
                with pytest.raises(ValueError) as err:
                    join_grams([face_gram], "cliquegram")
                assert str(err.value) == (
                    f"cliquegram join requires clique-set levels (t={expect!r})"
                )
            for (_, a), (t, b) in zip(levels, levels[1:]):
                if expect is not None and t > expect:
                    break
                if is_subpartition(a) and not is_subpartition(b):
                    rebuilt += any(m & (m - 1) for m in a.faces)
        assert min(outcomes.values()) >= 500, outcomes
        assert rebuilt >= 500

    def test_refinement_error_takes_precedence(self):
        ts = taxa(4)
        levels = [
            (0.0, fs(ts, "ab", "bc", "ac")),  # not a clique-set
            (1.0, fs(ts, "abc", "d")),
            (2.0, fs(ts, "abc")),  # d vanishes uncovered
            (3.0, fs(ts, "abcd")),
        ]
        with pytest.raises(ValueError, match="refinement-monotone at t=2.0"):
            Gram(ts, levels, "cliquegram")
        with pytest.raises(ValueError, match="full face"):
            Gram(ts, levels[:2], "cliquegram")
        with pytest.raises(ValueError, match=_clique_message(0.0)):
            Gram(ts, levels[:2] + levels[3:], "cliquegram")

    def test_enumeration_sees_the_whole_graph(self):
        # the pairs ab and ef each lie in two faces, so the enumeration runs
        # on their common neighbourhoods abcd and efgh; cg is maximal there,
        # but i outside it extends cg to the face cgi
        ts = taxa(9)
        levels = [
            (0.0, fs(ts, "abc", "abd", "efg", "efh", "cgi")),
            (1.0, fs(ts, "abcdefghi")),
        ]
        assert first_non_clique_set_level(levels) is None
        Gram(ts, levels, "cliquegram")

    def test_debug_line(self, caplog):
        # the pair ab lies in both faces, and c and d are its neighbours
        # outside each, so one region search lists the two cliques
        ts = taxa(4)
        levels = [(0.0, fs(ts, "abc", "abd")), (1.0, fs(ts, "abcd"))]
        with caplog.at_level(logging.DEBUG, logger="phylolattice.faces"):
            Gram(ts, levels, "cliquegram")
            with pytest.raises(ValueError):
                Gram(ts, [(0.0, fs(ts, "ab", "bc", "ac", "d"))] + levels[1:], "cliquegram")
        records = [r for r in caplog.records if r.name == "phylolattice.faces"]
        assert [r.levelno for r in records] == [logging.DEBUG] * 2
        counts = []
        for record in records:
            stage, *pairs = record.getMessage().split()
            assert stage == "stage=clique_check"
            fields = dict(p.split("=") for p in pairs)
            assert list(fields) == ["levels", "regions", "enumerated", "ms"]
            counts.append((fields["levels"], fields["regions"], fields["enumerated"]))
            assert float(fields["ms"]) >= 0
        # the failing gram stops at its first level, on the clique abc
        assert counts == [("2", "1", "2"), ("1", "1", "1")]

    def test_no_log_line_above_debug(self, caplog, rng):
        with caplog.at_level(logging.INFO, logger="phylolattice.faces"):
            cliquegram_from_network(random_network(taxa(5), rng, late=True))
        assert not [r for r in caplog.records if r.name == "phylolattice.faces"]

    def _count_calls(self, monkeypatch):
        calls = []
        enumerate_cliques = faces.bron_kerbosch

        def counting(adj, p, x):
            calls.append(p)
            return enumerate_cliques(adj, p, x)

        monkeypatch.setattr(faces, "bron_kerbosch", counting)
        return calls

    def test_one_enumeration_per_overlapping_level(self, monkeypatch):
        calls = self._count_calls(monkeypatch)
        rng = random.Random(61)
        enumerated = 0
        for k in range(1000):
            ts = taxa(1 + k % 10)
            levels = _monotone_levels(ts, rng)
            top = [(levels[-1][0] + 1.0, FaceSet(ts, [ts.full_mask]))]
            before = 0
            for i, (_, level) in enumerate(levels[:-1]):
                # the check is sequential, so the calls of a prefix topped
                # by the full face are those of its levels in the whole gram
                del calls[:]
                try:
                    Gram(ts, levels[: i + 1] + top, "cliquegram")
                except ValueError:
                    break
                added = len(calls) - before
                assert added <= 1
                assert added == 0 or not is_subpartition(level)
                enumerated += added
                before = len(calls)
        assert enumerated >= 100

    def test_large_overlapping_faces(self, monkeypatch):
        calls = self._count_calls(monkeypatch)
        ts = TaxaSet(f"t{i:04d}" for i in range(1200))
        low, high = (1 << 800) - 1, ((1 << 800) - 1) << 400
        top = FaceSet(ts, [ts.full_mask])
        g = Gram(ts, [(0.0, FaceSet(ts, [low, high])), (1.0, top)], "cliquegram")
        assert g.lifespans[low] == (0.0, 1.0)
        assert len(calls) == 1
        # a 1,199-taxon face beside a pair that overlaps it needs no enumeration
        big, pair = (1 << 1199) - 1, 1 | 1 << 1199
        Gram(ts, [(0.0, FaceSet(ts, [big, pair])), (1.0, top)], "cliquegram")
        assert len(calls) == 1

    def test_subpartition_levels_need_no_enumeration(self, monkeypatch, rng):
        calls = self._count_calls(monkeypatch)
        u = random_ultrametric(taxa(12), rng, late=True)
        treegram_from_ultranetwork(u).with_kind("cliquegram")
        assert calls == []


class TestCliquegramFromNetwork:
    def test_levels_match_clique_oracle(self, rng):
        for n in (2, 4, 6):
            ts = taxa(n)
            for _ in range(15):
                net = random_network(ts, rng, late=True)
                g = cliquegram_from_network(net)
                assert g.kind == "cliquegram"
                m = net.matrix
                for eps in np.unique(m):
                    verts = [i for i in range(n) if m[i, i] <= eps]
                    vmask = sum(1 << i for i in verts)
                    edges = [
                        (i, j)
                        for i in verts
                        for j in verts
                        if i < j and m[i, j] <= eps
                    ]
                    expect = enumerate_maximal_cliques(Graph.from_edges(ts, vmask, edges))
                    assert set(g.level_at(float(eps)).faces) == expect

    def test_matches_the_threshold_graph_sweep(self):
        # integer rounding makes ties and keeps the diagonal bound
        rng = random.Random(70)
        for _ in range(1200):
            ts = taxa(rng.randint(1, 12))
            net = random_network(ts, rng, late=rng.random() < 0.5)
            if rng.random() < 0.3:
                net = PhyloNetwork(ts, np.round(net.matrix * 4))
            expect = clique_levels_by_threshold_graphs(net)
            g = cliquegram_from_network(net)
            assert g.levels == tuple(expect)
            _assert_same_gram(g, clique_levels_by_region_sweep(net), "cliquegram")

    def test_matches_the_full_enumeration(self):
        # ties from integer rounding put many edges in one value, late
        # observation puts values with no edge between them
        rng = random.Random(72)
        for k in range(1200):
            ts = taxa(1 + k % 12)
            net = random_network(ts, rng, late=rng.random() < 0.5)
            if rng.random() < 0.4:
                net = PhyloNetwork(ts, np.round(net.matrix * rng.choice((2, 4, 8))))
            expect = clique_levels_by_full_enumeration(net)
            g = cliquegram_from_network(net)
            assert g.levels == tuple(expect)
            assert g.lifespans == Gram(ts, expect, "cliquegram").lifespans
            assert expect == clique_levels_by_threshold_graphs(net)

    def test_searches_only_the_region_of_the_new_edges(self, monkeypatch):
        # taxa a-d observed at 0 and e at 2.5; ab and bc at 1, cd at 2,
        # ac at 3, every other pair at 4
        ts = taxa(5)
        m = np.full((5, 5), 4.0)
        np.fill_diagonal(m, [0.0, 0.0, 0.0, 0.0, 2.5])
        for (i, j), v in {(0, 1): 1, (1, 2): 1, (2, 3): 2, (0, 2): 3}.items():
            m[i, j] = m[j, i] = v
        net = PhyloNetwork(ts, m)
        calls = []
        enumerate_cliques = faces.bron_kerbosch

        def searching(adj, p, x):
            calls.append((p, x))
            return enumerate_cliques(adj, p, x)

        monkeypatch.setattr(grams, "bron_kerbosch", searching)
        events, enumerated = grams._clique_events(net)
        # the sweep hands its levels over as (t, born, dying) events
        g = Gram._of_events(ts, events, "cliquegram")
        assert g.levels == tuple(clique_levels_by_full_enumeration(net))
        a, b, c, d, e = (1 << i for i in range(5))
        assert calls == [
            (a | b | c, d),  # ab and bc share no neighbour
            (c | d, a | b),  # a late edge whose ends share no neighbour
            # nothing to search when e is observed; ac closes the triangle
            # through their common neighbour b
            (a | b | c, d | e),
            (ts.full_mask, 0),  # the region covers every vertex
        ]
        # ab, bc; cd; abc; abcde
        assert enumerated == 5

    def test_equal_distances_on_a_thousand_taxa(self):
        # the single clique of every taxon is a thousand vertices deep
        ts = TaxaSet(f"t{i:04d}" for i in range(1000))
        m = np.ones((1000, 1000))
        np.fill_diagonal(m, 0.0)
        g = cliquegram_from_network(PhyloNetwork(ts, m))
        assert g.criticals == (0.0, 1.0)
        assert len(g.levels[0][1]) == 1000
        assert g.levels[1][1].faces == (ts.full_mask,)

    def test_round_trip_from_network(self, rng):
        for n in (2, 3, 5, 7):
            ts = taxa(n)
            for _ in range(15):
                net = random_network(ts, rng, late=True)
                back = network_from_cliquegram(cliquegram_from_network(net))
                assert np.array_equal(back.matrix, net.matrix)

    def test_network_matches_the_block_writes(self):
        # cliquegrams, treegrams and facegram joins, with ties and -0.0
        rng = random.Random(73)
        for k in range(600):
            ts = taxa(1 + k % 10)
            parts = [_clique_join_part(ts, rng) for _ in range(rng.randint(1, 3))]
            g = join_grams(parts, "facegram") if k % 3 == 2 else parts[0]
            got = network_from_cliquegram(g)
            assert got.matrix.tobytes() == network_by_block_writes(g).matrix.tobytes()
        # two 150-taxon clusters: long runs of new partners in every row
        ts = TaxaSet(f"t{i:04d}" for i in range(300))
        u = np.full((300, 300), 1.0)
        u[:150, :150] = 0.5
        np.fill_diagonal(u, -0.0)
        g = treegram_from_ultranetwork(Ultranetwork(ts, u))
        got = network_from_cliquegram(g)
        assert got.matrix.tobytes() == network_by_block_writes(g).matrix.tobytes()

    def test_round_trip_from_gram(self, rng):
        for n in (2, 4, 6):
            ts = taxa(n)
            for _ in range(15):
                g = cliquegram_from_network(random_network(ts, rng))
                assert cliquegram_from_network(network_from_cliquegram(g)) == g

    def test_debug_line(self, caplog):
        net = PhyloNetwork(taxa(3), [[0, 1, 2], [1, 0, 1], [2, 1, 0.5]])
        with caplog.at_level(logging.DEBUG, logger="phylolattice.grams"):
            cliquegram_from_network(net)
        (record,) = [r for r in caplog.records if r.name == "phylolattice.grams"]
        assert record.levelno == logging.DEBUG
        stage, *pairs = record.getMessage().split()
        assert stage == "stage=cliquegram"
        fields = dict(p.split("=") for p in pairs)
        assert list(fields) == ["taxa", "levels", "faces", "enumerated", "compared", "ms"]
        # levels at 0, 0.5, 1, 2; faces a, b, c, ab, bc, abc; the searches
        # list ab and bc at 1 and abc at 2
        assert (fields["taxa"], fields["levels"], fields["faces"]) == ("3", "4", "6")
        assert fields["enumerated"] == "3"
        # only the level ab, bc overlaps: each born face against the other
        assert fields["compared"] == "2"
        assert float(fields["ms"]) >= 0

    def test_no_log_line_above_debug(self, caplog, rng):
        with caplog.at_level(logging.INFO, logger="phylolattice.grams"):
            cliquegram_from_network(random_network(taxa(5), rng, late=True))
        assert not [r for r in caplog.records if r.name == "phylolattice.grams"]


class TestTreegram:
    def test_from_ultranetwork(self, rng):
        for _ in range(10):
            u = random_ultrametric(taxa(5), rng, late=True)
            g = treegram_from_ultranetwork(u)
            assert g.kind == "treegram"
            assert is_treegram(g)

    def test_rejects_non_ultrametric(self):
        net = PhyloNetwork(taxa(3), [[0, 1, 5], [1, 0, 1], [5, 1, 0]])
        with pytest.raises(ValueError, match="strong triangle"):
            treegram_from_ultranetwork(net)

    def test_equals_the_clique_sweep(self, rng):
        # the clique sweep is the definition: maximal cliques of every
        # sub-level graph; ties come from integer rounding, which keeps the
        # strong triangle inequality and the diagonal bound
        for k in range(360):
            ts = taxa(1 + k % 14)
            u = random_ultrametric(ts, rng, late=k % 2 == 1)
            if k % 3 == 0:
                u = Ultranetwork(ts, np.round(u.matrix * 3))
            g = treegram_from_ultranetwork(u)
            assert g == cliquegram_from_network(u)
            assert g.lifespans == cliquegram_from_network(u).lifespans

    @staticmethod
    def _tree(ts, rng, k):
        """A seeded ultranetwork: late observation on odd k; on every third
        k, ties and 0.0 joins from integer rounding, and a diagonal of -0.0
        when no taxon is late."""
        u = random_ultrametric(ts, rng, late=k % 2 == 1)
        if k % 3:
            return u
        m = np.round(u.matrix * 3)
        if k % 2 == 0:
            np.fill_diagonal(m, -0.0)
        return Ultranetwork(ts, m)

    def test_network_of_the_treegram_is_the_ultranetwork(self):
        # by value: a -0.0 diagonal and a 0.0 join share one critical value
        rng = random.Random(74)
        for k in range(300):
            u = self._tree(taxa(1 + k % 10), rng, k)
            assert network_from_cliquegram(treegram_from_ultranetwork(u)) == u

    def test_cliquegram_join_is_the_cliquegram_of_the_network_join(self):
        rng = random.Random(75)
        for k in range(200):
            ts = taxa(1 + k % 8)
            ultras = [self._tree(ts, rng, k + i) for i in range(1 + k % 4)]
            got = join_grams([treegram_from_ultranetwork(u) for u in ultras], "cliquegram")
            assert got == cliquegram_from_network(network_join(ultras))

    def test_debug_line(self, caplog):
        u = Ultranetwork(taxa(3), [[0, 1, 3], [1, 0, 3], [3, 3, 0.5]])
        with caplog.at_level(logging.DEBUG, logger="phylolattice.grams"):
            treegram_from_ultranetwork(u)
        (record,) = [r for r in caplog.records if r.name == "phylolattice.grams"]
        assert record.levelno == logging.DEBUG
        stage, *pairs = record.getMessage().split()
        assert stage == "stage=treegram"
        fields = dict(p.split("=") for p in pairs)
        assert list(fields) == ["taxa", "levels", "faces", "ms"]
        # levels at 0, 0.5, 1, 3; faces a, b, c, ab, abc
        assert (fields["taxa"], fields["levels"], fields["faces"]) == ("3", "4", "5")
        assert float(fields["ms"]) >= 0

    def test_no_log_line_above_debug(self, caplog, rng):
        with caplog.at_level(logging.INFO, logger="phylolattice.grams"):
            treegram_from_ultranetwork(random_ultrametric(taxa(5), rng))
        assert not [r for r in caplog.records if r.name == "phylolattice.grams"]

    def test_is_treegram_false_on_branching_cliquegram(self):
        ts = taxa(3)
        g = gram_of(ts, [(0.0, [["a", "b"], ["b", "c"]]), (1.0, [["a", "b", "c"]])])
        assert not is_treegram(g)


class TestFacegramFromFiltration:
    def test_vr_route_matches_generic(self, rng):
        for _ in range(10):
            net = random_network(taxa(5), rng, late=True)
            f = VRFiltration(net)
            table = {m: f.value(m) for m in all_faces(f.universe)}
            generic = facegram_from_filtration(TableFiltration(f.universe, table))
            assert facegram_from_filtration(f) == generic
            assert facegram_from_filtration(f).kind == "facegram"

    def test_pullback_route_matches_generic(self, rng):
        base_ts = taxa(3)
        big = taxa(5)
        phi = Surjection(big, base_ts, [0, 0, 1, 2, 2])
        for _ in range(10):
            base = filtration_from_facegram(
                cliquegram_from_network(random_network(base_ts, rng))
            )
            pb = pullback_filtration(base, phi)
            table = {m: pb.value(m) for m in all_faces(big)}
            assert facegram_from_filtration(pb) == facegram_from_filtration(
                TableFiltration(big, table)
            )

    def test_facegram_filtration_round_trip(self, rng):
        g = cliquegram_from_network(random_network(taxa(5), rng)).with_kind("facegram")
        assert facegram_from_filtration(filtration_from_facegram(g)) == g


def _clique_join_part(ts, rng):
    """A cliquegram join part: a network cliquegram, a treegram, the
    facegram kind of a network cliquegram, or random monotone facegram
    levels, which are often not clique-sets.  Ties come from integer
    rounding; half of the networks observe taxa late."""
    late = rng.random() < 0.5
    tie = rng.random() < 0.5
    kind = rng.randrange(4)
    if kind == 1:
        u = random_ultrametric(ts, rng, late)
        if tie:
            u = Ultranetwork(ts, np.round(u.matrix * 3))
        return treegram_from_ultranetwork(u)
    if kind == 3:
        return Gram(ts, _monotone_levels(ts, rng), "facegram")
    net = random_network(ts, rng, late)
    if tie:
        net = PhyloNetwork(ts, np.round(net.matrix * 3))
    g = cliquegram_from_network(net)
    return g if kind == 0 else g.with_kind("facegram")


class TestJoin:
    def test_face_vs_clique_divergence(self):
        ts = taxa(3)
        parts = [
            gram_of(ts, [(0.0, [["a", "b"], ["c"]]), (1.0, [["a", "b", "c"]])]),
            gram_of(ts, [(0.0, [["b", "c"], ["a"]]), (1.0, [["a", "b", "c"]])]),
            gram_of(ts, [(0.0, [["a", "c"], ["b"]]), (1.0, [["a", "b", "c"]])]),
        ]
        fj = join_grams(parts, "facegram")
        cj = join_grams(parts, "cliquegram")
        assert fj.level_at(0.0) == fs(ts, "ab", "bc", "ac")
        assert cj.level_at(0.0) == fs(ts, "abc")
        assert gram_leq(fj, cj)

    def test_join_is_upper_bound(self, rng):
        ts = taxa(5)
        parts = [
            treegram_from_ultranetwork(random_ultrametric(ts, rng)) for _ in range(3)
        ]
        for mode in ("facegram", "cliquegram"):
            j = join_grams(parts, mode)
            for p in parts:
                assert gram_leq(p, j)

    def test_join_laws(self, rng):
        ts = taxa(4)
        a, b, c = (
            cliquegram_from_network(random_network(ts, rng)).with_kind("facegram")
            for _ in range(3)
        )
        for mode in ("facegram", "cliquegram"):
            assert join_grams([a], mode) == a
            assert join_grams([a, a], mode) == a
            assert join_grams([a, b], mode) == join_grams([b, a], mode)
            assert join_grams([a, b, c], mode) == join_grams(
                [join_grams([a, b], mode), c], mode
            )

    def test_clique_join_matches_network_join(self, rng):
        # the level-by-level clique-set join of network cliquegrams is the
        # cliquegram of the entrywise-min network
        ts = taxa(5)
        for _ in range(15):
            n1, n2 = random_network(ts, rng, late=True), random_network(ts, rng)
            parts = [cliquegram_from_network(n1), cliquegram_from_network(n2)]
            expect = clique_join_by_levels(parts)
            assert expect == cliquegram_from_network(network_join([n1, n2]))
            assert join_grams(parts, "cliquegram") == expect

    def test_clique_join_matches_the_level_by_level_join(self):
        rng = random.Random(71)
        joined = refused = 0
        for _ in range(1000):
            ts = taxa(rng.randint(1, 9))
            parts = [_clique_join_part(ts, rng) for _ in range(rng.randint(1, 4))]
            try:
                expect = clique_join_by_levels(parts)
            except ValueError as err:
                with pytest.raises(ValueError) as got:
                    join_grams(parts, "cliquegram")
                assert str(got.value) == str(err)
                refused += 1
                continue
            g = join_grams(parts, "cliquegram")
            assert g == expect
            assert g.kind == "cliquegram"
            assert g.lifespans == expect.lifespans
            assert gram_json(g) == gram_json(expect)
            joined += 1
        assert joined >= 600 and refused >= 50, (joined, refused)

    def test_clique_join_logs_one_cliquegram_line(self, caplog, rng):
        ts = taxa(5)
        parts = [
            treegram_from_ultranetwork(random_ultrametric(ts, rng)) for _ in range(3)
        ]
        with caplog.at_level(logging.DEBUG, logger="phylolattice.grams"):
            join_grams(parts, "cliquegram")
        records = [r for r in caplog.records if r.name == "phylolattice.grams"]
        # one sweep for the whole join, then the join's own line
        stages = [r.getMessage().split()[0] for r in records]
        assert stages == ["stage=cliquegram", "stage=join"]
        assert all(r.levelno == logging.DEBUG for r in records)

    def test_clique_join_reports_its_sweeps_comparisons(self, caplog):
        # parts ab, c and a, bc at 0: the joined network's level at 0 is
        # the overlapping ab, bc, so the proof compares its two born faces
        ts = taxa(3)
        parts = [
            gram_of(ts, [(0.0, [["a", "b"], ["c"]]), (1.0, [["a", "b", "c"]])], "treegram"),
            gram_of(ts, [(0.0, [["a"], ["b", "c"]]), (1.0, [["a", "b", "c"]])], "treegram"),
        ]
        with caplog.at_level(logging.DEBUG, logger="phylolattice.grams"):
            join_grams(parts, "cliquegram")
        lines = [r.getMessage().split() for r in caplog.records if r.name == "phylolattice.grams"]
        assert [stage for stage, *_ in lines] == ["stage=cliquegram", "stage=join"]
        compared = [dict(p.split("=") for p in pairs)["compared"] for _, *pairs in lines]
        assert compared == ["2", "2"]

    def test_debug_line(self, caplog):
        ts = taxa(3)
        parts = [
            gram_of(ts, [(0.0, [["a"], ["b"]]), (1.0, [["a", "b"], ["c"]]),
                         (2.0, [["a", "b", "c"]])]),
            gram_of(ts, [(0.5, [["b", "c"]]), (2.0, [["a", "b", "c"]])]),
        ]
        with caplog.at_level(logging.DEBUG, logger="phylolattice.grams"):
            join_grams(parts, "facegram")
        (record,) = [r for r in caplog.records if r.name == "phylolattice.grams"]
        assert record.levelno == logging.DEBUG
        stage, *pairs = record.getMessage().split()
        assert stage == "stage=join"
        fields = dict(p.split("=") for p in pairs)
        assert list(fields) == ["mode", "parts", "events", "levels", "faces", "compared", "ms"]
        # births a, b, ab, c, abc and bc, abc; levels at 0, 0.5, 1, 2 with
        # faces a, b, bc, ab, abc; only ab, born beside bc at 1, is compared
        assert [
            fields[k] for k in ("mode", "parts", "events", "levels", "faces", "compared")
        ] == ["facegram", "2", "7", "4", "5", "1"]
        assert float(fields["ms"]) >= 0

    def test_no_log_line_above_debug(self, caplog, rng):
        ts = taxa(5)
        parts = [
            treegram_from_ultranetwork(random_ultrametric(ts, rng)) for _ in range(3)
        ]
        with caplog.at_level(logging.INFO, logger="phylolattice.grams"):
            for mode in ("facegram", "cliquegram"):
                join_grams(parts, mode)
        assert not [r for r in caplog.records if r.name == "phylolattice.grams"]

    def test_clique_join_of_thousand_taxon_stars(self):
        # two star trees whose join is one clique of every taxon
        ts = TaxaSet(f"t{i:04d}" for i in range(1000))
        stars = []
        for height in (1.0, 2.0):
            m = np.full((1000, 1000), height)
            np.fill_diagonal(m, 0.0)
            stars.append(treegram_from_ultranetwork(Ultranetwork(ts, m)))
        g = join_grams(stars, "cliquegram")
        assert g.criticals == (0.0, 1.0)
        assert g.levels[1][1].faces == (ts.full_mask,)

    def test_clique_mode_rejects_non_clique_levels(self):
        ts = taxa(3)
        bad = gram_of(ts, [(0.0, [["a", "b"], ["b", "c"], ["a", "c"]]),
                           (1.0, [["a", "b", "c"]])])
        with pytest.raises(ValueError, match="clique-set"):
            join_grams([bad, bad], "cliquegram")

    def test_universe_mismatch(self):
        a = gram_of(taxa(2), [(0.0, [["a", "b"]])])
        b = gram_of(taxa(3), [(0.0, [["a", "b", "c"]])])
        with pytest.raises(ValueError, match="different universes"):
            join_grams([a, b])

    def test_unknown_mode(self):
        a = gram_of(taxa(1), [(0.0, [["a"]])])
        with pytest.raises(ValueError, match="mode"):
            join_grams([a], "treegram")


class TestSquash:
    def test_squash_fixes_cliquegrams(self, rng):
        g = cliquegram_from_network(random_network(taxa(5), rng))
        assert squash_to_cliquegram(g) == g

    def test_squash_recovers_clique_join(self, rng):
        # squashing the face-set join gives the clique-set join
        ts = taxa(5)
        for _ in range(15):
            parts = [
                treegram_from_ultranetwork(random_ultrametric(ts, rng))
                for _ in range(3)
            ]
            assert squash_to_cliquegram(join_grams(parts, "facegram")) == join_grams(
                parts, "cliquegram"
            )

    def test_squash_fills_triangle(self):
        ts = taxa(3)
        g = gram_of(ts, [(0.0, [["a", "b"], ["b", "c"], ["a", "c"]]),
                         (1.0, [["a", "b", "c"]])])
        sq = squash_to_cliquegram(g)
        assert sq.kind == "cliquegram"
        assert sq.level_at(0.0) == fs(ts, "abc")
        assert sq.criticals == (0.0,)


def _birth_part(ts, rng):
    """A part for the birth-built grams: a network cliquegram, a treegram,
    the facegram kind of a network cliquegram, or random monotone facegram
    levels.  Half of the networks observe taxa late, three in four tie
    through integer rounding at x2, x4 or x8, one in ten carries its zeros
    as -0.0, and one in four parts lists an explicit empty first level."""
    late = rng.random() < 0.5
    scale = rng.choice((None, 2, 4, 8))
    kind = rng.randrange(4)
    if kind == 3:
        g = Gram(ts, _monotone_levels(ts, rng), "facegram")
    else:
        net = (random_ultrametric if kind == 1 else random_network)(ts, rng, late)
        m = net.matrix if scale is None else np.round(net.matrix * scale)
        if rng.random() < 0.1:
            m = np.where(m == 0, -0.0, m)
        if kind == 1:
            g = treegram_from_ultranetwork(Ultranetwork(ts, m))
        else:
            g = cliquegram_from_network(PhyloNetwork(ts, m))
            g = g if kind == 0 else g.with_kind("facegram")
    return with_empty_first_level(g) if rng.random() < 0.25 else g


def test_births_match_the_levelwise_loops():
    # the facegram join, the squash and the labeled-mergegram rebuild
    # against the loops that rebuilt a level at every critical value
    rng = random.Random(1010)
    empty_first = mixed_zeros = 0
    for _ in range(1000):
        ts = taxa(rng.randint(1, 9))
        parts = [_birth_part(ts, rng) for _ in range(rng.randint(1, 4))]
        join = join_grams(parts, "facegram")
        pairs = [(join, facegram_join_by_levels(parts))]
        for g in (join, *parts):
            pairs.append((squash_to_cliquegram(g), squash_by_levels(g)))
            lm = labeled_mergegram(g)
            pairs.append((gram_from_labeled_mergegram(lm, g.kind), gram_by_alive_at(lm, g.kind)))
        # the old join kept whichever signed zero it met first as the
        # critical value; -0.0 == 0.0, so such joins are compared by value
        signs = {math.copysign(1.0, t) for p in parts for t in p.criticals if t == 0}
        mixed_zeros += len(signs) > 1
        for k, (got, expect) in enumerate(pairs):
            assert got == expect
            assert hash(got) == hash(expect)
            assert got.kind == expect.kind
            assert got.lifespans == expect.lifespans
            if expect.levels[0][1].is_empty:
                # the levelwise squash keeps an explicit empty first level
                empty_first += 1
                assert not got.levels[0][1].is_empty
                assert got.levels == expect.levels[1:]
            elif k or len(signs) < 2:
                assert gram_json(got) == gram_json(expect)
    assert empty_first >= 300 and mixed_zeros >= 50, (empty_first, mixed_zeros)
