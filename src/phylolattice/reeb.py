"""Face-Reeb graphs of grams.

The graph has one slab of edges per critical value: the faces at that
level.  Vertices between two slabs are the comparability components of
the union of the two face families, so a face passing through unchanged
keeps a single path while merges, splits, and overlaps show as shared
vertices.  The topmost slab is a single half-infinite edge.
"""

from __future__ import annotations

import math
from itertools import accumulate

from .faces import canonical_faces
from .grams import Gram
from .mergegram import Mergegram
from .taxa import TaxaSet


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
        total = self.vertex_count
        parent = list(range(total))
        first = list(accumulate(self.vertex_counts, initial=0))  # level -> first vertex id

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i in range(len(self.criticals) - 1):
            for m in self.edge_sets[i]:
                a = find(first[i] + self.down[i][m])
                b = find(first[i + 1] + self.up[i][m])
                if a != b:
                    parent[b] = a
        return len({find(v) for v in range(total)})

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


def face_reeb_graph(g: Gram) -> ReebGraph:
    """Comparability-component Reeb graph of a gram.

    The vertex set between level i-1 and i is the set of connected
    components of the containment relation on the union of the two face
    families (the family below the first level is empty).
    """
    criticals = g.criticals
    edge_sets = tuple(fs.faces for _, fs in g.levels)
    comp_maps: list[dict[int, int]] = []
    vertex_counts: list[int] = []
    prev: tuple[int, ...] = ()
    for cur in edge_sets:
        nodes = canonical_faces(set(prev) | set(cur))
        index = {m: k for k, m in enumerate(nodes)}
        parent = list(range(len(nodes)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        # levels are antichains, so containments only cross the two families
        for p in prev:
            for q in cur:
                if p | q == q or q | p == p:
                    a, b = find(index[p]), find(index[q])
                    if a != b:
                        parent[b] = a
        roots: dict[int, int] = {}
        comp: dict[int, int] = {}
        for m in nodes:
            r = find(index[m])
            comp[m] = roots.setdefault(r, len(roots))
        comp_maps.append(comp)
        vertex_counts.append(len(roots))
        prev = cur
    n = len(criticals)
    down = tuple(
        {m: comp_maps[i][m] for m in edge_sets[i]} for i in range(n)
    )
    up: tuple[dict[int, int] | None, ...] = tuple(
        {m: comp_maps[i + 1][m] for m in edge_sets[i]} if i < n - 1 else None
        for i in range(n)
    )
    return ReebGraph(
        g.universe, criticals, edge_sets, tuple(vertex_counts), down, up
    )
