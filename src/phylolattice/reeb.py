"""Face-Reeb graphs of grams.

The graph has one slab of edges per critical value: the faces at that
level.  Vertices between two slabs are the comparability components of
the union of the two face families, so a face passing through unchanged
keeps a single path while merges, splits, and overlaps show as shared
vertices.  The topmost slab is a single half-infinite edge.
"""

from __future__ import annotations

import logging
import math
import time
from collections import Counter
from itertools import accumulate
from typing import Iterable

from .faces import canonical_faces
from .grams import Gram
from .mergegram import Mergegram
from .taxa import TaxaSet

log = logging.getLogger(__name__)


class ReebGraph:
    """Leveled multigraph: criticals, per-level edges, and incidence maps.

    ``edge_sets[i]`` are the faces at critical ``criticals[i]``; the edge
    runs upward to the next critical (the last one runs to infinity, and
    only there is the up map missing).  ``down[i]`` and ``up[i]`` send a
    face to its vertex index below and above the slab.
    """

    __slots__ = ("universe", "criticals", "edge_sets", "vertex_counts", "down", "up")

    def __init__(
        self,
        universe: TaxaSet,
        criticals: tuple[float, ...],
        edge_sets: tuple[tuple[int, ...], ...],
        vertex_counts: tuple[int, ...],
        down: tuple[dict[int, int], ...],
        up: tuple[dict[int, int] | None, ...],
    ):
        n = len(criticals)
        if n == 0:
            raise ValueError("a Reeb graph needs at least one level")
        if not (len(edge_sets) == len(vertex_counts) == len(down) == len(up) == n):
            raise ValueError("level-indexed fields disagree in length")
        if any(criticals[i] >= criticals[i + 1] for i in range(n - 1)):
            raise ValueError("criticals must be strictly increasing")
        if len(edge_sets[-1]) != 1:
            raise ValueError("the top slab must be a single half-infinite edge")
        for i in range(n):
            if set(down[i]) != set(edge_sets[i]):
                raise ValueError(f"down map at level {i} does not cover the edges")
            if i < n - 1:
                if up[i] is None or set(up[i]) != set(edge_sets[i]):
                    raise ValueError(f"up map at level {i} does not cover the edges")
            elif up[i] is not None:
                raise ValueError("the top slab has no upper endpoint")
            bound = vertex_counts[i]
            if any(not 0 <= v < bound for v in down[i].values()):
                raise ValueError(f"down map at level {i} out of range")
            if i < n - 1 and any(
                not 0 <= v < vertex_counts[i + 1] for v in up[i].values()
            ):
                raise ValueError(f"up map at level {i} out of range")
        self.universe = universe
        self.criticals = criticals
        self.edge_sets = edge_sets
        self.vertex_counts = vertex_counts
        self.down = down
        self.up = up

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReebGraph):
            return NotImplemented
        return (
            self.universe == other.universe
            and self.criticals == other.criticals
            and self.edge_sets == other.edge_sets
            and self.vertex_counts == other.vertex_counts
            and self.down == other.down
            and self.up == other.up
        )

    def __repr__(self) -> str:
        return (
            f"ReebGraph(levels={len(self.criticals)}, "
            f"vertices={self.vertex_count}, loops={self.cycle_rank()})"
        )

    @property
    def vertex_count(self) -> int:
        return sum(self.vertex_counts)

    @property
    def finite_edge_count(self) -> int:
        return sum(len(es) for es in self.edge_sets[:-1])

    def component_count(self) -> int:
        first = list(accumulate(self.vertex_counts, initial=0))  # level -> first vertex id
        edges = (
            (first[i] + self.down[i][m], first[i + 1] + self.up[i][m])
            for i in range(len(self.criticals) - 1)
            for m in self.edge_sets[i]
        )
        return len(set(_roots(self.vertex_count, edges)))

    def cycle_rank(self) -> int:
        """First Betti number of the finite part (half-infinite edge excluded)."""
        return self.finite_edge_count - self.vertex_count + self.component_count()

    def is_merge_tree(self) -> bool:
        return self.component_count() == 1 and self.cycle_rank() == 0

    def edge_intervals(self) -> Mergegram:
        """Lifespans of maximal runs of each face through consecutive slabs."""
        births: dict[int, float] = {}
        points: list[tuple[float, float]] = []
        prev: tuple[int, ...] = ()
        for t, faces in zip(self.criticals, self.edge_sets):
            cur = set(faces)
            for m in prev:
                if m not in cur:
                    points.append((births.pop(m), t))
            for m in faces:
                births.setdefault(m, t)
            prev = faces
        points.extend((b, math.inf) for b in births.values())
        return Mergegram(points)


def _roots(count: int, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """Union-find on nodes 0 to count-1: each node's root once every pair
    is joined."""
    parent = list(range(count))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, b in pairs:
        a, b = find(a), find(b)
        if a != b:
            parent[b] = a
    return [find(i) for i in range(count)]


def face_reeb_graph(g: Gram) -> ReebGraph:
    """Comparability-component Reeb graph of a gram.

    The vertex set between level i-1 and i is the set of connected
    components of the containment relation on the union of the two face
    families (the family below the first level is empty), numbered in the
    canonical order of the union.  Both families are antichains, so a face
    in both is comparable to no other face, and a face that dies at level i
    can only lie in a face born there: only those pairs are compared.
    """
    t0 = time.perf_counter()
    edge_sets = tuple(fs.faces for _, fs in g.levels)
    vertex_counts: list[int] = []
    down: list[dict[int, int]] = []
    up: list[dict[int, int] | None] = []
    prev: frozenset[int] = frozenset()
    for i, faces in enumerate(edge_sets):
        cur = frozenset(faces)
        nodes = canonical_faces(prev | cur)
        index = {m: k for k, m in enumerate(nodes)}
        born = cur - prev
        roots = _roots(
            len(nodes),
            ((index[d], index[b]) for d in prev - cur for b in born if d | b == b),
        )
        ids: dict[int, int] = {}  # component root -> vertex number
        comp = {m: ids.setdefault(r, len(ids)) for m, r in zip(nodes, roots)}
        vertex_counts.append(len(ids))
        if i:
            up.append({m: comp[m] for m in edge_sets[i - 1]})
        down.append({m: comp[m] for m in faces})
        prev = cur
    up.append(None)  # the top slab runs to infinity
    r = ReebGraph(
        g.universe, g.criticals, edge_sets, tuple(vertex_counts), tuple(down), tuple(up)
    )
    if log.isEnabledFor(logging.DEBUG):
        # every face is born once, and every face but the full one dies once
        births = Counter(iv.birth for iv in g.lifespans.values())
        deaths = Counter(iv.death for iv in g.lifespans.values())
        log.debug(
            "stage=reeb levels=%d faces=%d changed=%d pairs=%d ms=%.3f",
            len(edge_sets),
            sum(map(len, edge_sets)),
            2 * len(g.lifespans) - 1,
            sum(k * births[t] for t, k in deaths.items()),
            (time.perf_counter() - t0) * 1e3,
        )
    return r
