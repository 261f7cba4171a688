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

from .faces import FaceSet, bron_kerbosch, is_subpartition, maximal_masks
from .faces import _first_non_clique_set_level
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

    The ``kind`` flag is a classification that is re-checked on
    construction, never trusted: treegram levels must be subpartitions and
    cliquegram levels must pass the clique-set condition.
    ``lifespans`` maps each face ever maximal to its [birth, death).
    Equality compares the universe and the lifespans, a complete
    invariant, so neither the kind nor an explicit empty first level counts.
    """

    __slots__ = ("universe", "levels", "kind", "criticals", "lifespans")

    def __init__(
        self,
        universe: TaxaSet,
        levels: Iterable[tuple[float, FaceSet]],
        kind: str = "facegram",
    ):
        if kind not in KINDS:
            raise ValueError(f"unknown gram kind {kind!r}")
        lv = tuple((float(t), fs) for t, fs in levels)
        if not lv:
            raise ValueError("a gram needs at least one level")
        alive: dict[int, float] = {}  # faces of the previous level -> birth
        spans: dict[int, Interval] = {}
        prev_t = None
        for t, fs in lv:
            if not isinstance(fs, FaceSet) or fs.universe != universe:
                raise ValueError("levels must be face-sets over the gram universe")
            if not np.isfinite(t):
                raise ValueError("critical values must be finite")
            dying = alive.keys() - fs.faces
            born = [m for m in fs.faces if m not in alive]
            if prev_t is not None:
                if t <= prev_t:
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
            prev_t = t
        top = lv[-1][1]
        if top.faces != (universe.full_mask,):
            raise ValueError("the last level must be the single full face")
        if kind == "treegram":
            for t, fs in lv:
                if not is_subpartition(fs):
                    raise ValueError(f"treegram level at t={t!r} is not a subpartition")
        elif kind == "cliquegram":
            t = _first_non_clique_set_level(len(universe), lv)
            if t is not None:
                raise ValueError(f"cliquegram level at t={t!r} is not a clique-set")
        spans[universe.full_mask] = Interval(alive[universe.full_mask], math.inf)
        self.universe = universe
        self.levels = lv
        self.kind = kind
        self.criticals = tuple(t for t, _ in lv)
        self.lifespans = spans

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
        i = bisect.bisect_right(self.criticals, t) - 1
        if i < 0:
            return FaceSet(self.universe, ())
        return self.levels[i][1]

    def all_faces(self) -> tuple[int, ...]:
        """Every face mask appearing at any level, sorted."""
        return tuple(sorted(self.lifespans))

    def with_kind(self, kind: str) -> "Gram":
        return Gram(self.universe, self.levels, kind)


def gram_leq(a: Gram, b: Gram) -> bool:
    """Pointwise refinement order: no face of ``a`` is born before the
    earliest birth of a superset in ``b``, the time ``b`` first covers it."""
    if a.universe != b.universe:
        raise ValueError("grams live over different universes")
    covering = FacegramFiltration(b)
    return all(covering.value(m) <= iv.birth for m, iv in a.lifespans.items())


def _coalesce(values: np.ndarray, tol: float) -> list[float]:
    """Cluster sorted values within ``tol`` of a representative; keep minima."""
    out: list[float] = []
    for v in values:
        if out and v - out[-1] <= tol:
            continue
        out.append(float(v))
    return out


def _clique_levels(
    net: PhyloNetwork, merge_tol: float
) -> tuple[list[tuple[float, FaceSet]], int]:
    """Sweep the sub-level graphs of ``net``: one level per coalesced value,
    and the number of cliques the region searches listed.

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
    some edge (w, c) new, and then C | {w} would lie in R.  So the cliques
    inside R are dropped, and one Bron-Kerbosch lists the maximal cliques
    of the new graph that lie inside R, every vertex outside R excluded.
    R stops growing once it holds every vertex.
    """
    n = len(net.universe)
    values = _coalesce(np.unique(net.matrix), merge_tol)
    rows, cols = np.triu_indices(n)
    entries = net.matrix[rows, cols]
    order = np.argsort(entries)
    ends = np.searchsorted(entries[order], values[1:]).tolist() + [len(order)]
    rows, cols = rows[order].tolist(), cols[order].tolist()
    adj = [0] * n
    vertices = 0
    cliques: set[int] = set()
    levels: list[tuple[float, FaceSet]] = []
    enumerated = 0
    start = 0
    for eps, end in zip(values, ends):
        batch = range(start, end)
        start = end
        for k in batch:
            i, j = rows[k], cols[k]
            if i == j:
                vertices |= 1 << i
                cliques.add(1 << i)
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
        if region:
            found = bron_kerbosch(adj, region, vertices & ~region)
            enumerated += len(found)
            cliques = {c for c in cliques if c & ~region}
            cliques.update(found)
        levels.append((eps, FaceSet(net.universe, cliques)))
    return levels, enumerated


def cliquegram_from_network(net: PhyloNetwork, merge_tol: float = 0.0) -> Gram:
    """Maximal cliques of the sub-level graphs, one level per matrix value.

    At threshold eps the graph keeps taxa observed by eps and joins pairs
    that have coalesced by eps.  ``merge_tol`` coalesces nearly equal
    matrix values before the sweep (each cluster is represented by its
    minimum); the default keeps every distinct value.
    """
    t0 = time.perf_counter()
    levels, enumerated = _clique_levels(net, merge_tol)
    g = Gram(net.universe, levels, "cliquegram")
    if log.isEnabledFor(logging.DEBUG):
        log.debug(
            "stage=cliquegram taxa=%d levels=%d faces=%d enumerated=%d ms=%.3f",
            len(net.universe),
            len(g.levels),
            len(g.lifespans),
            enumerated,
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


def _tree_levels(u: Ultranetwork) -> list[tuple[float, FaceSet]]:
    """Sub-level partitions of an ultranetwork from its linkage and diagonal.

    A cluster is a run of the linkage order, and the run that starts at
    position k merges into its left neighbour at ``joins[k - 1]``.  The
    level at t holds every run of two or more taxa (each already observed,
    since an entry bounds both diagonal entries) and the singleton runs of
    the taxa observed by t.  Every observation and every merge changes the
    level, so each distinct value is a critical value.
    """
    order, joins = u.linkage
    n = len(order)
    diag = u.diagonal
    pos = np.empty(n, dtype=np.intp)
    pos[order] = np.arange(n)
    # at one value, observations (kind 0) go before merges (kind 1)
    events = sorted(
        [(float(diag[i]), 0, int(pos[i])) for i in range(n)]
        + [(float(joins[k - 1]), 1, k) for k in range(1, n)]
    )
    end = list(range(1, n + 1))  # run start -> one past its last position
    start = list(range(n))  # last position of a run -> its start
    mask = [1 << int(i) for i in order]  # run start -> face mask
    visible: dict[int, int] = {}  # run start -> face, for the runs in the level
    levels: list[tuple[float, FaceSet]] = []
    for e, (t, kind, k) in enumerate(events):
        if kind == 0:  # no merge has reached the taxon yet
            visible[k] = mask[k]
        else:
            a, b = start[k - 1], end[k]
            end[a], start[b - 1] = b, a
            mask[a] |= mask[k]
            visible.pop(k, None)
            visible[a] = mask[a]
        if e + 1 == len(events) or events[e + 1][0] != t:
            levels.append((t, FaceSet(u.universe, visible.values())))
    return levels


def treegram_from_ultranetwork(u: PhyloNetwork) -> Gram:
    """Sub-level partitions of an ultranetwork (levels are equivalence classes)."""
    t0 = time.perf_counter()
    u = as_ultranetwork(u)
    g = Gram(u.universe, _tree_levels(u), "treegram")
    if log.isEnabledFor(logging.DEBUG):
        log.debug(
            "stage=treegram taxa=%d levels=%d faces=%d ms=%.3f",
            len(u.universe),
            len(g.levels),
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
        return Gram(f.universe, _clique_levels(f.network, 0.0)[0], "facegram")
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
    """The gram whose level at t holds the maximal faces born by t.

    ``births`` are (t, face) pairs, in any order and possibly repeated.
    The level at each distinct t is the maximal faces among the previous
    level and the faces born at t.  The previous level is an antichain, so
    a born face that it does not cover replaces exactly the faces it
    contains; a t whose faces are all covered already adds no level.
    """
    levels: list[tuple[float, FaceSet]] = []
    faces: list[int] = []
    for t, group in groupby(sorted(set(births)), key=lambda e: e[0]):
        new = maximal_masks(m for _, m in group)
        new = [m for m in new if not any(m | f == f for f in faces)]
        if new:
            faces = [f for f in faces if not any(f | m == m for m in new)] + new
            levels.append((t, FaceSet(universe, faces)))
    return Gram(universe, levels, kind)


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
    if mode == "cliquegram":
        for p in parts:
            t = _first_non_clique_set_level(len(universe), p.levels)
            if t is not None:
                raise ValueError(f"cliquegram join requires clique-set levels (t={t!r})")
        g = cliquegram_from_network(
            network_join([network_from_cliquegram(p) for p in parts])
        )
    else:
        births = ((iv.birth, m) for p in parts for m, iv in p.lifespans.items())
        g = _facegram_of_births(universe, births)
    if log.isEnabledFor(logging.DEBUG):
        log.debug(
            "stage=join mode=%s parts=%d events=%d levels=%d faces=%d ms=%.3f",
            mode,
            len(parts),
            sum(len(p.lifespans) for p in parts),
            len(g.levels),
            len(g.lifespans),
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
    return all(is_subpartition(fs) for _, fs in g.levels)
