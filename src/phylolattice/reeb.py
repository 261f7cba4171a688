"""Face-Reeb graphs of grams.

The graph has one slab of edges per critical value: the faces at that
level.  Vertices between two slabs are the comparability components of
the union of the two face families, so a face passing through unchanged
keeps a single path while merges, splits, and overlaps show as shared
vertices.  The topmost slab is a single half-infinite edge.
"""

from __future__ import annotations

import logging
import time
from itertools import compress
from operator import ne
from typing import Iterable, Sequence

from .faces import canonical_faces
from .grams import Gram
from .taxa import TaxaSet

log = logging.getLogger(__name__)


class ReebGraph:
    """Leveled multigraph: criticals, per-level edges, and their endpoints.

    ``edge_sets[i]`` are the faces at critical ``criticals[i]``; the edge
    runs upward to the next critical (the last one runs to infinity, and
    only there is the upper endpoint missing).  ``down_ids[i][k]`` and
    ``up_ids[i][k]`` are the vertex indices below and above the slab of
    the face ``edge_sets[i][k]``; ``up_ids[-1]`` is None.
    """

    __slots__ = ("universe", "criticals", "edge_sets", "vertex_counts", "down_ids", "up_ids")

    def __init__(
        self,
        universe: TaxaSet,
        criticals: tuple[float, ...],
        edge_sets: tuple[tuple[int, ...], ...],
        vertex_counts: tuple[int, ...],
        down_ids: Sequence[tuple[int, ...]],
        up_ids: Sequence[tuple[int, ...] | None],
    ):
        n = len(criticals)
        if n == 0:
            raise ValueError("a Reeb graph needs at least one level")
        if not (len(edge_sets) == len(vertex_counts) == len(down_ids) == len(up_ids) == n):
            raise ValueError("level-indexed fields disagree in length")
        if any(criticals[i] >= criticals[i + 1] for i in range(n - 1)):
            raise ValueError("criticals must be strictly increasing")
        if len(edge_sets[-1]) != 1:
            raise ValueError("the top slab must be a single half-infinite edge")
        for i, (faces, below, above) in enumerate(zip(edge_sets, down_ids, up_ids)):
            if len(below) != len(faces):
                raise ValueError(f"down map at level {i} does not cover the edges")
            if i < n - 1:
                if above is None or len(above) != len(faces):
                    raise ValueError(f"up map at level {i} does not cover the edges")
            elif above is not None:
                raise ValueError("the top slab has no upper endpoint")
            if below and (min(below) < 0 or max(below) >= vertex_counts[i]):
                raise ValueError(f"down map at level {i} out of range")
            if above and (min(above) < 0 or max(above) >= vertex_counts[i + 1]):
                raise ValueError(f"up map at level {i} out of range")
        self.universe = universe
        self.criticals = criticals
        self.edge_sets = edge_sets
        self.vertex_counts = vertex_counts
        self.down_ids = tuple(down_ids)
        self.up_ids = tuple(up_ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReebGraph):
            return NotImplemented
        return (
            self.universe == other.universe
            and self.criticals == other.criticals
            and self.edge_sets == other.edge_sets
            and self.vertex_counts == other.vertex_counts
            and self.down_ids == other.down_ids
            and self.up_ids == other.up_ids
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
        """Components of the finite part, swept slab by slab: each vertex
        takes the label of one vertex below it, or a new label when it has
        none, so only the edges whose ends then differ in label are
        joined."""
        labels = list(range(self.vertex_counts[0]))  # of the vertices at the boundary
        count = len(labels)  # labels handed out
        joins: list[tuple[int, int]] = []
        for i in range(len(self.criticals) - 1):
            below = list(map(labels.__getitem__, self.down_ids[i]))
            above = dict(zip(self.up_ids[i], below))  # vertex -> a label below it
            labels = list(map(above.get, range(self.vertex_counts[i + 1])))
            at = -1
            for _ in range(labels.count(None)):  # vertices with no edge below
                at = labels.index(None, at + 1)
                labels[at] = count
                count += 1
            upper = list(map(labels.__getitem__, self.up_ids[i]))
            joins.extend(compress(zip(below, upper), map(ne, below, upper)))
        return len(set(_roots(count, joins)))

    def cycle_rank(self) -> int:
        """First Betti number of the finite part (half-infinite edge excluded)."""
        return self.finite_edge_count - self.vertex_count + self.component_count()

    def is_merge_tree(self) -> bool:
        return self.component_count() == 1 and self.cycle_rank() == 0


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
    can only lie in a face born there: only those pairs are compared.  The
    faces in both levels are runs of vertices of their own between the
    changed faces, so one forward scan of each level places the changed
    faces and numbers every vertex, in the order of the level's faces.
    """
    t0 = time.perf_counter()
    edge_sets = tuple(fs.faces for _, fs in g.levels)
    vertex_counts: list[int] = []
    down_ids: list[tuple[int, ...]] = []
    up_ids: list[tuple[int, ...] | None] = []
    changed = pairs = 0
    prev: tuple[int, ...] = ()
    for i, ((_, born, dying), cur) in enumerate(zip(g._events(), edge_sets)):
        moved = canonical_faces(born + dying)
        index = {m: k for k, m in enumerate(moved)}
        roots = _roots(
            len(moved), ((index[d], index[b]) for d in dying for b in born if d | b == b)
        )
        new = set(born)
        down: list[int] = []  # the vertex of each face of cur, in order
        up: list[int] = []  # the vertex of each face of prev, in order
        ids: dict[int, int] = {}  # component root -> vertex number
        v = 0  # vertices numbered so far
        for m, root in zip(moved, roots):
            # the faces in both levels before m are vertices of their own
            side, faces = (down, cur) if m in new else (up, prev)
            run = faces.index(m, len(side)) - len(side)
            if run:
                down.extend(range(v, v + run))
                up.extend(range(v, v + run))
                v += run
            vertex = ids.setdefault(root, v)
            if vertex == v:
                v += 1
            side.append(vertex)
        run = len(cur) - len(down)
        down.extend(range(v, v + run))
        up.extend(range(v, v + run))
        vertex_counts.append(v + run)
        down_ids.append(tuple(down))
        if i:
            up_ids.append(tuple(up))
        changed += len(moved)
        pairs += len(born) * len(dying)
        prev = cur
    up_ids.append(None)  # the top slab runs to infinity
    r = ReebGraph(g.universe, g.criticals, edge_sets, tuple(vertex_counts), down_ids, up_ids)
    if log.isEnabledFor(logging.DEBUG):
        log.debug(
            "stage=reeb levels=%d faces=%d vertices=%d changed=%d pairs=%d ms=%.3f",
            len(edge_sets),
            sum(map(len, edge_sets)),
            r.vertex_count,
            changed,
            pairs,
            (time.perf_counter() - t0) * 1e3,
        )
    return r
