"""Cliquegrams, facegrams, and treegrams: leveled families of maximal faces.

A gram is a piecewise-constant, refinement-monotone map from the real line
to face-sets, stored as its change points.  Below the first critical value
the level is implicitly empty; the last level is always the whole universe
as a single face.  Validation records each face's lifespan in the same
pass, and every covering-time question is answered from that record.
"""

from __future__ import annotations

import bisect
import logging
import math
import time
from itertools import groupby
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .faces import (
    FaceSet,
    _AntichainSweep,
    _canonical_key,
    _first_non_clique_set_level,
    _next_union,
    bron_kerbosch,
    maximal_masks,
)
from .filtrations import (
    _EXHAUSTIVE_LIMIT,
    FacegramFiltration,
    Filtration,
    PullbackFiltration,
    VRFiltration,
    all_faces,
)
from .networks import PhyloNetwork, Ultranetwork, as_ultranetwork, network_join
from .taxa import TaxaSet, bits

log = logging.getLogger(__name__)

KINDS = ("facegram", "cliquegram", "treegram")


class Interval(NamedTuple):
    """Half-open lifespan [birth, death); death may be infinite."""

    birth: float
    death: float


class Gram:
    """Leveled antichains of faces with strictly increasing critical values.

    The stored form is the universe, the kind, the critical values and
    ``lifespans``, which maps each face ever maximal to its [birth, death).
    The ``kind`` flag is a classification that is re-checked on
    construction, never trusted: treegram levels must be subpartitions and
    cliquegram levels must pass the clique-set condition.  Equality
    compares the universe and the lifespans, a complete invariant, so
    neither the kind nor an explicit empty first level counts.

    ``Gram(universe, [(t, FaceSet)], kind)`` takes validated face-sets.
    The library's builders hand their levels over as (t, born, dying)
    events instead, and one sweep (``_AntichainSweep``) proves each level
    an antichain from the faces it changes.  Face-set levels, and the JSON
    parser's face lists, become events in the sweep's level adapter, the
    one place a level list is diffed.  Either way ``levels``, the face-set
    at each critical value, is a view: kept when the levels were given,
    otherwise built on first read.
    """

    __slots__ = ("universe", "kind", "criticals", "lifespans", "_levels")

    def __init__(
        self,
        universe: TaxaSet,
        levels: Iterable[tuple[float, FaceSet]],
        kind: str = "facegram",
    ):
        lv = _leveled(kind, levels)
        sweep = _AntichainSweep(universe)
        self._record(
            universe, kind, ((t, *sweep.step_level(_faces_over(universe, fs))) for t, fs in lv)
        )
        self._levels = lv

    @classmethod
    def _of_events(
        cls,
        universe: TaxaSet,
        events: Iterable[tuple[float, Iterable[int], Iterable[int]]],
        kind: str,
    ) -> "Gram":
        """The gram of (t, born, dying) per level, every level already
        proved an antichain (``_AntichainSweep``)."""
        g = object.__new__(cls)
        g._record(universe, kind, _leveled(kind, events))
        g._levels = None
        return g

    def _record(self, universe: TaxaSet, kind: str, events) -> None:
        """Check the (t, born, dying) of each level and record the lifespans."""
        alive: dict[int, float] = {}  # faces of the previous level -> birth
        spans: dict[int, Interval] = {}
        criticals: list[float] = []
        read = []  # the events, for the kind check
        for t, born, dying in events:
            if not math.isfinite(t):
                raise ValueError("critical values must be finite")
            if criticals:
                if t <= criticals[-1]:
                    raise ValueError("critical values must be strictly increasing")
                # a survivor covering a dying face would break the previous antichain
                if not all(any(m | b == b for b in born) for m in dying):
                    raise ValueError(f"levels are not refinement-monotone at t={t!r}")
                if not dying and not born:
                    raise ValueError(f"consecutive levels at t={t!r} are identical")
            for m in dying:
                spans[m] = Interval(alive.pop(m), t)
            for m in born:
                # an absorbed face stays covered, so it is never maximal again
                if m in spans:
                    raise RuntimeError("face reappeared in the gram")
                alive[m] = t
            criticals.append(t)
            read.append((t, born, dying))
        full = universe.full_mask
        if len(alive) != 1 or full not in alive:
            raise ValueError("the last level must be the single full face")
        _check_kind(kind, len(universe), read)
        spans[full] = Interval(alive[full], math.inf)
        self.universe = universe
        self.kind = kind
        self.criticals = tuple(criticals)
        self.lifespans = spans

    def _events(self) -> list[tuple[float, list[int], list[int]]]:
        """(t, born, dying) at each critical value, read off the lifespans."""
        index = {t: i for i, t in enumerate(self.criticals)}
        events = [(t, [], []) for t in self.criticals]
        for m, iv in self.lifespans.items():
            events[index[iv.birth]][1].append(m)
            if iv.death != math.inf:
                events[index[iv.death]][2].append(m)
        return events

    @property
    def levels(self) -> tuple[tuple[float, FaceSet], ...]:
        """The face-set at each critical value.  Built on first read by one
        sweep over the births and deaths, which keeps the faces alive in
        canonical order; the levels were proved when the gram was built."""
        if self._levels is None:
            t0 = time.perf_counter()
            keys: list[tuple[int, int]] = []  # canonical keys of the faces alive
            faces: list[int] = []  # the faces alive, in the same order
            levels = []
            for t, born, dying in self._events():
                for m in dying:
                    i = bisect.bisect_left(keys, _canonical_key(m))
                    del keys[i], faces[i]
                for m in born:
                    key = _canonical_key(m)
                    i = bisect.bisect_left(keys, key)
                    keys.insert(i, key)
                    faces.insert(i, m)
                levels.append((t, FaceSet._proved(self.universe, tuple(faces))))
            self._levels = tuple(levels)
            if log.isEnabledFor(logging.DEBUG):
                log.debug(
                    "stage=levels levels=%d faces=%d ms=%.3f",
                    len(levels),
                    len(self.lifespans),
                    (time.perf_counter() - t0) * 1e3,
                )
        return self._levels

    def __eq__(self, other: object) -> bool:
        # kind is classification metadata, not identity
        return (
            isinstance(other, Gram)
            and self.universe == other.universe
            and self.lifespans == other.lifespans
        )

    def __hash__(self) -> int:
        return hash((self.universe, frozenset(self.lifespans.items())))

    def __repr__(self) -> str:
        parts = ", ".join(f"{t!r}: {fs.names()!r}" for t, fs in self.levels)
        return f"Gram[{self.kind}]({parts})"

    def level_at(self, t: float) -> FaceSet:
        """Face-set at time ``t``; empty below the first critical value."""
        if math.isnan(t):
            raise ValueError(f"no level at t={t!r}")
        i = bisect.bisect_right(self.criticals, t) - 1
        if i < 0:
            return FaceSet(self.universe, ())
        return self.levels[i][1]

    def all_faces(self) -> tuple[int, ...]:
        """Every face mask appearing at any level, sorted."""
        return tuple(sorted(self.lifespans))

    def with_kind(self, kind: str) -> "Gram":
        if kind not in KINDS:
            raise ValueError(f"unknown gram kind {kind!r}")
        _check_kind(kind, len(self.universe), self._events())
        g = object.__new__(Gram)
        g.universe, g.kind, g.criticals = self.universe, kind, self.criticals
        g.lifespans, g._levels = self.lifespans, self._levels
        return g


def _leveled(kind: str, levels: Iterable[tuple]) -> tuple[tuple, ...]:
    """The levels with float critical values, once the kind is known and
    there is a level."""
    if kind not in KINDS:
        raise ValueError(f"unknown gram kind {kind!r}")
    lv = tuple((float(t), *rest) for t, *rest in levels)
    if not lv:
        raise ValueError("a gram needs at least one level")
    return lv


def _faces_over(universe: TaxaSet, fs: FaceSet) -> tuple[int, ...]:
    """The faces of a level, which must be a face-set over ``universe``."""
    if not isinstance(fs, FaceSet) or fs.universe != universe:
        raise ValueError("levels must be face-sets over the gram universe")
    return fs.faces


def _proved_gram(sweep: _AntichainSweep, events, kind: str) -> Gram:
    """The gram of a builder's (t, born, dying) events, every level proved
    an antichain by ``sweep`` before any other check."""
    proved = [(t, *sweep.step(born, dying)) for t, born, dying in events]
    return Gram._of_events(sweep.universe, proved, kind)


def _first_non_subpartition(events) -> float | None:
    """The first critical value whose level has two overlapping faces,
    each level read from the union of the previous one."""
    union = 0
    for t, born, dying in events:
        union = _next_union(union, born, dying)
        if union is None:
            return t
    return None


def _check_kind(kind: str, n: int, events) -> None:
    """Refuse levels, given as (t, born, dying), that break the kind."""
    if kind == "treegram":
        t = _first_non_subpartition(events)
        if t is not None:
            raise ValueError(f"treegram level at t={t!r} is not a subpartition")
    elif kind == "cliquegram":
        t = _first_non_clique_set_level(n, events)
        if t is not None:
            raise ValueError(f"cliquegram level at t={t!r} is not a clique-set")


def gram_leq(a: Gram, b: Gram) -> bool:
    """Pointwise refinement order: no face of ``a`` is born before the
    earliest birth of a superset in ``b``, the time ``b`` first covers it."""
    if a.universe != b.universe:
        raise ValueError("grams live over different universes")
    covering = FacegramFiltration(b)
    return all(covering.value(m) <= iv.birth for m, iv in a.lifespans.items())


def _clique_events(net: PhyloNetwork) -> tuple[list[tuple[float, set[int], set[int]]], int]:
    """Sweep the sub-level graphs of ``net``: the (t, born, dying) cliques
    of one level per matrix value, and the number of cliques the region
    searches listed.

    One threshold graph grows through the upper triangle in sorted order,
    a value's entries being those from it up to the next value: a diagonal
    entry observes its taxon, an off-diagonal entry adds its edge.  An
    entry bounds both diagonal entries, so both ends of an edge are
    vertices by the time it arrives.  Every value adds a vertex or an edge,
    so every value changes the cliques, and the smallest value is a
    diagonal entry, so no level is empty.

    The maximal cliques are kept from value to value.  A newly observed
    taxon is a singleton clique until its edges arrive.  A maximal clique
    through a new edge (i, j) lies in ``{i, j} | (adj[i] & adj[j])``; call
    the union of these over the value's new edges R.  A clique C with a
    vertex outside R is still maximal: a vertex w extending C would make
    some edge (w, c) new, and then C | {w} would lie in R.  So one
    Bron-Kerbosch lists the maximal cliques of the new graph that lie
    inside R, every vertex outside R excluded.  The cliques born are
    those found and the new singletons outside R, less the old cliques
    inside R; the old cliques inside R that are not found again die.  R
    stops growing once it holds every vertex.
    """
    n = len(net.universe)
    values = np.unique(net.matrix).tolist()
    rows, cols = np.triu_indices(n)
    entries = net.matrix[rows, cols]
    order = np.argsort(entries)
    ends = np.searchsorted(entries[order], values[1:]).tolist() + [len(order)]
    rows, cols = rows[order].tolist(), cols[order].tolist()
    adj = [0] * n
    vertices = 0
    cliques: set[int] = set()  # the maximal cliques of the previous level
    events: list[tuple[float, set[int], set[int]]] = []
    enumerated = 0
    start = 0
    for eps, end in zip(values, ends):
        batch = range(start, end)
        start = end
        born: set[int] = set()
        for k in batch:
            i, j = rows[k], cols[k]
            if i == j:
                vertices |= 1 << i
                born.add(1 << i)
            else:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        region = 0
        for k in batch:
            i, j = rows[k], cols[k]
            if i != j:
                region |= (1 << i) | (1 << j) | (adj[i] & adj[j])
                if region == vertices:
                    break
        dying: set[int] = set()
        if region:
            found = bron_kerbosch(adj, region, vertices & ~region)
            enumerated += len(found)
            inside = {c for c in cliques if not c & ~region}
            born = {m for m in born if m & ~region}.union(found) - inside
            dying = inside.difference(found)
            cliques -= dying
        cliques |= born
        events.append((eps, born, dying))
    return events, enumerated


def cliquegram_from_network(net: PhyloNetwork) -> Gram:
    """Maximal cliques of the sub-level graphs, one level per matrix value.

    At threshold eps the graph keeps taxa observed by eps and joins pairs
    that have coalesced by eps.
    """
    return _cliquegram(net, _AntichainSweep(net.universe))


def _cliquegram(net: PhyloNetwork, sweep: _AntichainSweep) -> Gram:
    """The cliquegram of ``net``, its levels proved by ``sweep``."""
    t0 = time.perf_counter()
    events, enumerated = _clique_events(net)
    g = _proved_gram(sweep, events, "cliquegram")
    if log.isEnabledFor(logging.DEBUG):
        log.debug(
            "stage=cliquegram taxa=%d levels=%d faces=%d enumerated=%d compared=%d ms=%.3f",
            len(net.universe),
            len(g.criticals),
            len(g.lifespans),
            enumerated,
            sweep.compared,
            (time.perf_counter() - t0) * 1e3,
        )
    return g


def network_from_cliquegram(g: Gram) -> PhyloNetwork:
    """First joint-cover times, read off the faces in increasing birth.

    Any gram can be read: an entry is the first time a face covers its
    pair (or its taxon), and the cliquegram of the result is the gram's
    squash.  Each taxon keeps the mask of partners already written, so
    every entry is written once, by the earliest-born face that covers its
    pair (faces born together share one critical value).  A row's new
    partners are written one run of consecutive positions at a time.
    """
    n = len(g.universe)
    entries = [0.0] * (n * n)
    written = [0] * n
    for face, iv in sorted(g.lifespans.items(), key=lambda kv: kv[1].birth):
        birth = iv.birth
        for i in bits(face):
            new = face & ~written[i]
            written[i] |= face
            row = i * n - 1
            while new:
                # the run of new from bit low up to, not including, bit high
                low = new & -new
                carry = new + low
                high = carry & -carry
                new = carry ^ high
                a = row + low.bit_length()
                if high == low << 1:
                    entries[a] = birth
                else:
                    b = row + high.bit_length()
                    entries[a:b] = [birth] * (b - a)
    return PhyloNetwork(g.universe, np.array(entries).reshape(n, n))


def _tree_events(u: Ultranetwork) -> list[tuple[float, list[int], list[int]]]:
    """(t, born, dying) faces of the sub-level partitions of an
    ultranetwork, from its linkage and diagonal.

    A cluster is a run of the linkage order, and the run that starts at
    position k merges into its left neighbour at ``joins[k - 1]``.  The
    level at t holds every run of two or more taxa (each already observed,
    since an entry bounds both diagonal entries) and the singleton runs of
    the taxa observed by t.  An observation makes its singleton born; a
    merge kills the two runs it joins and makes their union born.  A run
    born and killed at one value is neither.  Every observation and every
    merge changes the level, so each distinct value is a critical value.
    """
    order, joins = u.linkage
    n = len(order)
    diag = u.diagonal
    pos = np.empty(n, dtype=np.intp)
    pos[order] = np.arange(n)
    # at one value, observations (kind 0) go before merges (kind 1)
    changes = sorted(
        [(float(diag[i]), 0, int(pos[i])) for i in range(n)]
        + [(float(joins[k - 1]), 1, k) for k in range(1, n)]
    )
    end = list(range(1, n + 1))  # run start -> one past its last position
    start = list(range(n))  # last position of a run -> its start
    mask = [1 << int(i) for i in order]  # run start -> face mask
    events: list[tuple[float, list[int], list[int]]] = []
    born: set[int] = set()  # the runs born at the current value
    dying: list[int] = []  # the runs of the previous level killed at it
    for e, (t, kind, k) in enumerate(changes):
        if kind == 0:  # no merge has reached the taxon yet
            born.add(mask[k])
        else:
            a, b = start[k - 1], end[k]
            end[a], start[b - 1] = b, a
            for m in (mask[a], mask[k]):
                if m in born:
                    born.remove(m)
                else:
                    dying.append(m)
            mask[a] |= mask[k]
            born.add(mask[a])
        if e + 1 == len(changes) or changes[e + 1][0] != t:
            events.append((t, list(born), dying))
            born, dying = set(), []
    return events


def treegram_from_ultranetwork(u: PhyloNetwork) -> Gram:
    """Sub-level partitions of an ultranetwork (levels are equivalence classes)."""
    t0 = time.perf_counter()
    u = as_ultranetwork(u)
    g = _proved_gram(_AntichainSweep(u.universe), _tree_events(u), "treegram")
    if log.isEnabledFor(logging.DEBUG):
        log.debug(
            "stage=treegram taxa=%d levels=%d faces=%d ms=%.3f",
            len(u.universe),
            len(g.criticals),
            len(g.lifespans),
            (time.perf_counter() - t0) * 1e3,
        )
    return g


def facegram_from_filtration(f: Filtration) -> Gram:
    """Maximal faces of every sub-level family of a filtration.

    Dispatches on the backing: diameter filtrations reuse the network
    sweep, pullbacks transport the base facegram along preimages, explicit
    supports are swept directly, and only tiny universes fall back to full
    enumeration.
    """
    if isinstance(f, VRFiltration):
        events = _clique_events(f.network)[0]
        return _proved_gram(_AntichainSweep(f.universe), events, "facegram")
    if isinstance(f, PullbackFiltration):
        # preimages keep inclusion both ways, so they keep maximality
        base = facegram_from_filtration(f.base).lifespans.items()
        births = ((iv.birth, f.phi.preimage_mask(m)) for m, iv in base)
        return _facegram_of_births(f.universe, births)
    support = f.support_faces()
    if support is None:
        if len(f.universe) > _EXHAUSTIVE_LIMIT:
            raise ValueError("no compact support known; universe too large to enumerate")
        support = all_faces(f.universe)
    births = ((f.value(m), m) for m in {*support, f.universe.full_mask})
    return _facegram_of_births(f.universe, births)


def _facegram_of_births(
    universe: TaxaSet, births: Iterable[tuple[float, int]], kind: str = "facegram"
) -> Gram:
    """The gram whose level at t holds the maximal faces born by t."""
    return _proved_gram(_AntichainSweep(universe), _birth_events(births), kind)


def _birth_events(births: Iterable[tuple[float, int]]):
    """(t, born, dying) of the levels that hold the maximal faces born by t.

    ``births`` are (t, face) pairs, in any order and possibly repeated.
    The level at each distinct t is the maximal faces among the previous
    level and the faces born at t.  The previous level is an antichain, so
    a born face that it does not cover replaces exactly the faces it
    contains; a t whose faces are all covered already adds no level.
    """
    alive: set[int] = set()
    for t, group in groupby(sorted(set(births)), key=lambda e: e[0]):
        new = maximal_masks(m for _, m in group)
        born = [m for m in new if not any(m | f == f for f in alive)]
        if born:
            dying = [f for f in alive if any(f | m == m for m in born)]
            alive.difference_update(dying)
            alive.update(born)
            yield t, born, dying


def filtration_from_facegram(g: Gram) -> FacegramFiltration:
    """Covering-time filtration of a facegram (its lattice inverse)."""
    return FacegramFiltration(g)


def join_grams(parts: Sequence[Gram], mode: str = "facegram") -> Gram:
    """Pointwise least upper bound of grams in the chosen lattice.

    ``mode="facegram"`` joins levels as face-sets.  A face alive in a part
    at t was born there by t, and a face born there by t is covered at t,
    so the level at t is the maximal faces born by t in any part.
    ``mode="cliquegram"`` requires every part level to be a clique-set and
    joins through the isomorphic lattice of networks: the join is the
    cliquegram of the entrywise minimum of the parts' networks.
    """
    t0 = time.perf_counter()
    if mode not in ("facegram", "cliquegram"):
        raise ValueError(f"unknown join mode {mode!r}")
    if not parts:
        raise ValueError("need at least one gram")
    universe = parts[0].universe
    for p in parts[1:]:
        if p.universe != universe:
            raise ValueError("grams live over different universes")
    sweep = _AntichainSweep(universe)
    if mode == "cliquegram":
        for p in parts:
            t = _first_non_clique_set_level(len(universe), p._events())
            if t is not None:
                raise ValueError(f"cliquegram join requires clique-set levels (t={t!r})")
        g = _cliquegram(network_join([network_from_cliquegram(p) for p in parts]), sweep)
    else:
        births = ((iv.birth, m) for p in parts for m, iv in p.lifespans.items())
        g = _proved_gram(sweep, _birth_events(births), "facegram")
    if log.isEnabledFor(logging.DEBUG):
        log.debug(
            "stage=join mode=%s parts=%d events=%d levels=%d faces=%d compared=%d ms=%.3f",
            mode,
            len(parts),
            sum(len(p.lifespans) for p in parts),
            len(g.criticals),
            len(g.lifespans),
            sweep.compared,
            (time.perf_counter() - t0) * 1e3,
        )
    return g


def squash_to_cliquegram(g: Gram) -> Gram:
    """Per-level maximal cliques of the one-skeleton of each face-set.

    The one-skeleton at t joins exactly the taxa and pairs that ``g``
    covers by t, which is the threshold graph at t of
    ``network_from_cliquegram(g)``, so the squash is that network's
    cliquegram.  The squash is a surjective lattice morphism from
    facegrams onto cliquegrams; it commutes with joins.
    """
    return cliquegram_from_network(network_from_cliquegram(g))


def is_treegram(g: Gram) -> bool:
    """True when every level is a subpartition of the taxa."""
    return _first_non_subpartition(g._events()) is None
