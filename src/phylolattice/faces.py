"""Antichain face families, clique-sets, graphs, and their lattice operations.

A face-set is an inclusion-antichain of faces over one universe.  A
clique-set is a face-set that additionally covers every subset whose pairs
it covers; clique-sets are exactly the families of maximal cliques of
graphs, and that bijection drives the validation and join code below.
"""

from __future__ import annotations

import logging
import time
from itertools import chain
from typing import Collection, Iterable, Sequence

from .taxa import TaxaSet, bits

log = logging.getLogger(__name__)


def _canonical_key(m: int) -> tuple[int, int]:
    return -m.bit_count(), m


def canonical_faces(masks: Iterable[int]) -> tuple[int, ...]:
    """Sort face masks canonically: decreasing cardinality, then mask value."""
    return tuple(sorted(masks, key=_canonical_key))


def maximal_masks(masks: Iterable[int]) -> tuple[int, ...]:
    """Reduce a mask family to its inclusion-maximal members, canonically ordered.

    Duplicates collapse.  A mask can only be absorbed by one of strictly
    larger cardinality, so a single sweep over the sorted family suffices.
    """
    kept: list[int] = []
    for m in canonical_faces(set(masks)):
        if not any(m | k == k for k in kept):
            kept.append(m)
    return tuple(kept)


class FaceSet:
    """Inclusion-antichain of non-empty faces over a fixed universe.

    The empty family is a legal value (a diagram level before anything is
    observed); the empty face is not.
    """

    __slots__ = ("universe", "faces")

    def __init__(self, universe: TaxaSet, faces: Iterable[int] = ()):
        ordered = canonical_faces(faces)
        full = universe.full_mask
        for m in ordered:
            if type(m) is not int or not 0 < m <= full:
                universe.check_face(m)  # raises with the face's own message
        # pairwise disjoint non-empty faces form an antichain
        if not _pairwise_disjoint(ordered):
            for i, m in enumerate(ordered):
                for k in ordered[:i]:
                    if m | k == k:
                        if m == k:
                            raise ValueError(f"duplicate face {bin(m)}")
                        raise ValueError(
                            f"not an antichain: {bin(m)} is contained in {bin(k)}"
                        )
        self.universe = universe
        self.faces = ordered

    @classmethod
    def _proved(cls, universe: TaxaSet, ordered: tuple[int, ...]) -> "FaceSet":
        """The face-set of ``ordered``, faces in canonical order that a
        validating sweep has already proved an antichain over ``universe``."""
        fs = object.__new__(cls)
        fs.universe = universe
        fs.faces = ordered
        return fs

    @classmethod
    def from_names(cls, universe: TaxaSet, groups: Iterable[Iterable[str]]) -> "FaceSet":
        return cls(universe, (universe.mask_of(g) for g in groups))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FaceSet)
            and self.universe == other.universe
            and self.faces == other.faces
        )

    def __hash__(self) -> int:
        return hash((self.universe, self.faces))

    def __len__(self) -> int:
        return len(self.faces)

    def __iter__(self):
        return iter(self.faces)

    def __repr__(self) -> str:
        groups = [list(self.universe.names_of(m)) for m in self.faces]
        return f"{type(self).__name__}({groups!r})"

    @property
    def is_empty(self) -> bool:
        return not self.faces

    def covers(self, mask: int) -> bool:
        """True when some face contains ``mask``."""
        return any(mask | f == f for f in self.faces)

    def support(self) -> int:
        """Union of all faces as a mask."""
        out = 0
        for f in self.faces:
            out |= f
        return out

    def names(self) -> tuple[tuple[str, ...], ...]:
        return tuple(self.universe.names_of(m) for m in self.faces)


class CliqueSet(FaceSet):
    """Face-set closed under pairwise cover: the maximal cliques of a graph."""

    __slots__ = ()

    def __init__(self, universe: TaxaSet, faces: Iterable[int] = ()):
        super().__init__(universe, faces)
        if not is_pair_cover_closed(self):
            raise ValueError("face family is not the maximal-clique family of a graph")


class Graph:
    """Undirected graph on a subset of the universe, adjacency as bitmasks."""

    __slots__ = ("universe", "vertices", "adj")

    def __init__(self, universe: TaxaSet, vertices: int, adj: Sequence[int]):
        n = len(universe)
        adj = tuple(adj)
        if len(adj) != n:
            raise ValueError(f"adjacency table must have {n} rows")
        if vertices & ~universe.full_mask:
            raise ValueError("vertex mask has bits outside the universe")
        for i in range(n):
            row = adj[i]
            if row and not (vertices >> i) & 1:
                raise ValueError(f"non-vertex {i} has neighbors")
            if row & ~vertices:
                raise ValueError(f"vertex {i} has a neighbor outside the vertex set")
            if (row >> i) & 1:
                raise ValueError(f"self-loop at vertex {i}")
            for j in bits(row):
                if not (adj[j] >> i) & 1:
                    raise ValueError(f"edge ({i},{j}) is not symmetric")
        self.universe = universe
        self.vertices = vertices
        self.adj = adj

    @classmethod
    def from_edges(
        cls, universe: TaxaSet, vertices: int, edges: Iterable[tuple[int, int]]
    ) -> "Graph":
        adj = [0] * len(universe)
        for i, j in edges:
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        return cls(universe, vertices, adj)

    def edges(self) -> tuple[tuple[int, int], ...]:
        out = []
        for i in bits(self.vertices):
            for j in bits(self.adj[i]):
                if j > i:
                    out.append((i, j))
        return tuple(out)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.universe == other.universe
            and self.vertices == other.vertices
            and self.adj == other.adj
        )

    def __hash__(self) -> int:
        return hash((self.universe, self.vertices, self.adj))

    def __repr__(self) -> str:
        return f"Graph(vertices={bin(self.vertices)}, edges={self.edges()!r})"


def maximal_cliques(graph: Graph) -> tuple[int, ...]:
    """All maximal cliques of ``graph`` as masks, canonically ordered.

    Pivoted Bron-Kerbosch expansion (``bron_kerbosch``); isolated vertices
    come out as singleton cliques.  Deterministic: the pivot is the first
    vertex, in increasing bit order, with the most neighbours among the
    candidates, and the branches are tried in increasing bit order.
    """
    if not graph.vertices:
        return ()
    return canonical_faces(bron_kerbosch(graph.adj, graph.vertices, 0))


def bron_kerbosch(adj: Sequence[int], p: int, x: int) -> list[int]:
    """Maximal cliques of the graph ``adj`` that lie inside ``p`` and that
    no vertex of ``x`` extends, in discovery order.

    With ``p | x`` all vertices, these are the maximal cliques of the whole
    graph that ``p`` contains.  ``p`` must be non-empty.  The expansion
    keeps an explicit stack of frames, one per clique vertex, so cliques of
    any size are found without recursion.

    The pivot is the first vertex of ``p | x``, in increasing bit order,
    with the most neighbours in ``p``.  The scan stops early once no later
    vertex can have strictly more: a vertex of ``p`` has at most
    ``|p| - 1`` neighbours there, one of ``x`` at most ``|p|``.
    """

    def branches(p: int, x: int) -> int:
        top = p.bit_count()
        best = -1
        rest = p | x
        while rest:
            low = rest & -rest
            rest ^= low
            nbrs = adj[low.bit_length() - 1]
            count = (p & nbrs).bit_count()
            if count > best:
                best, pivot = count, nbrs
                if count == top or (count == top - 1 and not rest & x):
                    break
        return p & ~pivot

    if not p | x:
        raise ValueError("Bron-Kerbosch needs a vertex to expand")
    out: list[int] = []
    # frame: clique, candidates, excluded, branch vertices not yet tried
    stack = [[0, p, x, branches(p, x)]]
    while stack:
        frame = stack[-1]
        r, p, x, untried = frame
        if not untried:
            stack.pop()
            continue
        mv = untried & -untried
        v = mv.bit_length() - 1
        frame[1], frame[2], frame[3] = p & ~mv, x | mv, untried ^ mv
        p, x = p & adj[v], x & adj[v]
        if p:
            stack.append([r | mv, p, x, branches(p, x)])
        elif not x:
            out.append(r | mv)
    return out


def _first_non_clique_set_level(
    n: int, events: Iterable[tuple[float, Iterable[int], Iterable[int]]]
) -> float | None:
    """The first critical value whose level is not a clique-set, or None.

    The levels, over ``n`` taxa, are given as (t, born, dying) events and
    must be refinement-monotone antichains.  The level below the first is
    empty.  A level's test is exact as long as every earlier level
    passed.  Then the cover graph is the previous level's plus the edges
    of the born faces, and a maximal clique that uses only old edges lies
    in a face of the previous level, hence in a face of this one, so it is
    that face.  A new edge (i, j) of a born face m (whichever
    born face takes it first) lies in no maximal clique but m unless i and
    j share a neighbour outside m; one pivoted Bron-Kerbosch over the
    common neighbourhoods of the edges that do checks every clique they
    can lie in.  A subpartition level passes at once and drops the cover
    graph; the next overlapping level rebuilds it from its predecessor.
    """
    t0 = time.perf_counter()
    adj = None  # cover graph of the previous level
    vertices = 0  # its vertex mask
    faces: set[int] = set()  # the faces of the level
    checked = regions = enumerated = 0
    failed = None
    for t, born, dying in events:
        checked += 1
        faces.difference_update(dying)
        faces.update(born)
        if _pairwise_disjoint(faces):
            adj = None
            continue
        if adj is None:
            previous = chain(faces.difference(born), dying)
            vertices, adj = _cover_adjacency(n, previous)
        fresh = []  # (born face, vertex i, its new neighbours above i)
        for m in born:
            vertices |= m
            for i in bits(m):
                new = m & ~adj[i] & ~((2 << i) - 1)
                adj[i] |= m & ~(1 << i)
                if new:
                    fresh.append((m, i, new))
        region = 0
        for m, i, new in fresh:
            outside = adj[i] & ~m
            if not outside:
                continue
            shared = suspects = 0
            for j in bits(new):
                if adj[j] & outside:
                    suspects |= 1 << j
                    shared |= adj[j]
            if suspects:
                region |= (1 << i) | suspects | (adj[i] & shared)
        if region:
            regions += 1
            found = bron_kerbosch(adj, region, vertices & ~region)
            enumerated += len(found)
            if not faces.issuperset(found):
                failed = t
                break
    if log.isEnabledFor(logging.DEBUG):
        log.debug(
            "stage=clique_check levels=%d regions=%d enumerated=%d ms=%.3f",
            checked,
            regions,
            enumerated,
            (time.perf_counter() - t0) * 1e3,
        )
    return failed


def _require_common_universe(parts: Sequence[FaceSet]) -> TaxaSet:
    if not parts:
        raise ValueError("need at least one face-set")
    universe = parts[0].universe
    for p in parts[1:]:
        if p.universe != universe:
            raise ValueError("face-sets live over different universes")
    return universe


def faceset_leq(a: FaceSet, b: FaceSet) -> bool:
    """Refinement order: every face of ``a`` is contained in some face of ``b``."""
    _require_common_universe((a, b))
    return all(b.covers(f) for f in a.faces)


def faceset_join(parts: Sequence[FaceSet]) -> FaceSet:
    """Least upper bound of face-sets: maximal elements of the face union."""
    universe = _require_common_universe(parts)
    masks: set[int] = set()
    for p in parts:
        masks.update(p.faces)
    return FaceSet(universe, maximal_masks(masks))


def faceset_meet(a: FaceSet, b: FaceSet) -> FaceSet:
    """Greatest lower bound: maximal non-empty pairwise intersections."""
    _require_common_universe((a, b))
    masks = {f & g for f in a.faces for g in b.faces}
    masks.discard(0)
    return FaceSet(a.universe, maximal_masks(masks))


def _cover_adjacency(n: int, masks: Iterable[int]) -> tuple[int, list[int]]:
    """Vertex mask and adjacency rows of the pairwise-cover graph of ``masks``."""
    adj = [0] * n
    vertices = 0
    for f in masks:
        vertices |= f
        for i in bits(f):
            adj[i] |= f & ~(1 << i)
    return vertices, adj


def cover_graph(universe: TaxaSet, masks: Iterable[int]) -> Graph:
    """Pairwise-cover graph: vertices in some mask, edges jointly in some mask."""
    return Graph(universe, *_cover_adjacency(len(universe), masks))


def graph_from_cliqueset(c: FaceSet) -> Graph:
    """Pairwise-cover graph of a face-set (the inverse of the clique map)."""
    return cover_graph(c.universe, c.faces)


def cliqueset_from_graph(g: Graph) -> CliqueSet:
    return CliqueSet(g.universe, maximal_cliques(g))


def is_pair_cover_closed(f: FaceSet) -> bool:
    """True when ``f`` is exactly the maximal-clique family of its cover graph."""
    return _first_non_clique_set_level(len(f.universe), [(0.0, f.faces, ())]) is None


def cliqueset_join(parts: Sequence[FaceSet]) -> CliqueSet:
    """Least upper bound inside the clique-set lattice.

    Computed as the maximal cliques of the union of the pairwise-cover
    graphs; this can strictly exceed the face-set join of the same parts.
    """
    universe = _require_common_universe(parts)
    vertices, adj = _cover_adjacency(len(universe), (f for p in parts for f in p.faces))
    return CliqueSet(universe, bron_kerbosch(adj, vertices, 0) if vertices else ())


def _disjoint_union(masks: Iterable[int]) -> int | None:
    """The union of ``masks`` when they are pairwise disjoint, else None."""
    seen = 0
    for m in masks:
        if m & seen:
            return None
        seen |= m
    return seen


def _pairwise_disjoint(masks: Iterable[int]) -> bool:
    return _disjoint_union(masks) is not None


def _next_union(union: int, born: Iterable[int], dying: Iterable[int]) -> int | None:
    """The union of the next level of a pairwise disjoint level whose union
    is ``union``, or None when the next level is not pairwise disjoint.
    The dying faces are disjoint, so their bits leave with them."""
    for m in dying:
        union ^= m
    for m in born:
        if m & union:
            return None
        union |= m
    return union


class _AntichainSweep:
    """Proves the levels of a gram antichains one level at a time, from the
    faces each level changes.

    The previous level is an antichain by induction, so two faces of the
    next level can only be comparable when one of them is born there.  The
    level is an antichain iff no born face is already alive or born twice
    (either lists a face twice), its born faces are non-empty masks over
    the universe, and no born face contains, or lies in, another face of
    the level: born × level comparisons, not the level's own pairs.  While
    the levels are pairwise disjoint, the union of the previous level
    settles a level from its born and dying faces alone.  Only a level the
    sweep cannot prove is listed, and it goes through ``FaceSet``, which
    raises that level's own error, so the messages are ``FaceSet``'s.
    """

    __slots__ = ("universe", "alive", "union", "compared")

    def __init__(self, universe: TaxaSet):
        self.universe = universe
        self.alive: set[int] = set()  # the faces of the previous level
        self.union: int | None = 0  # their union while they are pairwise disjoint
        self.compared = 0  # face pairs compared

    def step(
        self, born: Collection[int], dying: Collection[int]
    ) -> tuple[Collection[int], Collection[int]]:
        """The born and dying faces of the next level, once it is proved an
        antichain; raises the level's ``FaceSet`` error when it is none."""
        alive = self.alive
        if not alive.issuperset(dying):
            raise RuntimeError("a dying face was not alive")
        alive.difference_update(dying)
        if not alive.isdisjoint(born) or len(set(born)) < len(born):
            # a born face already alive, or born twice, is listed twice
            FaceSet(self.universe, [*alive, *born])  # raises the level's own error
        alive.update(born)
        return self._proved(born, dying)

    def step_level(self, masks: Sequence[int]) -> tuple[Collection[int], Collection[int]]:
        """The level adapter: the born and dying faces of the next level,
        listed by ``masks``, proved as ``step`` proves them.  A face of the
        previous level listed twice is born a second time, so ``step``
        reports it."""
        alive = self.alive
        listed = set(masks)
        if len(listed) < len(masks):
            born = list(masks)
            for m in listed & alive:
                born.remove(m)
            return self.step(born, alive - listed)
        self.alive = listed
        return self._proved(listed - alive, alive - listed)

    def _proved(
        self, born: Collection[int], dying: Collection[int]
    ) -> tuple[Collection[int], Collection[int]]:
        """``born`` and ``dying`` once the level, now ``alive`` and listing
        no face twice, is proved an antichain."""
        alive = self.alive
        full = self.universe.full_mask
        union = self.union
        if all(type(m) is int and 0 < m <= full for m in born):
            union = _disjoint_union(alive) if union is None else _next_union(union, born, dying)
            if union is not None or self._incomparable(born, alive):
                self.union = union
                return born, dying
        FaceSet(self.universe, alive)  # raises the level's own error
        self.union = _disjoint_union(alive)
        return born, dying

    def _incomparable(self, born: Iterable[int], level: set[int]) -> bool:
        """True when no born face contains, or lies in, another face."""
        for b in born:
            for f in level:
                u = b | f
                if (u == f or u == b) and f != b:
                    return False
            self.compared += len(level) - 1
        return True


def is_subpartition(f: FaceSet) -> bool:
    """True when the faces are pairwise disjoint."""
    return _pairwise_disjoint(f.faces)


def faceset_to_complex(f: FaceSet) -> frozenset[int]:
    """Downward closure: every non-empty subset of every face.

    Exponential in the largest face; intended for small universes and tests.
    """
    out: set[int] = set()
    for m in f.faces:
        s = m
        while s:
            out.add(s)
            s = (s - 1) & m
    return frozenset(out)


def complex_to_faceset(universe: TaxaSet, masks: Iterable[int]) -> FaceSet:
    """Maximal faces of a downward-closed family."""
    return FaceSet(universe, maximal_masks(masks))
