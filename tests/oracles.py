"""Slow, independent reference computations the real code is tested against.

Everything here works straight from definitions: subset enumeration,
exhaustive matchings, exhaustive correspondences.  Nothing imports the
algorithmic paths it is meant to check.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

from phylolattice import (
    FaceSet,
    Gram,
    Graph,
    Interval,
    LabeledMergegram,
    PhyloNetwork,
    ReebGraph,
    TaxaSet,
    Ultranetwork,
    all_faces,
    as_ultranetwork,
    bits,
    faceset_leq,
    is_subpartition,
    maximal_cliques,
    maximal_masks,
    treegram_from_ultranetwork,
)
from phylolattice.faces import bron_kerbosch, canonical_faces, cover_graph
from phylolattice.newick import NewickError


def enumerate_maximal_cliques(graph: Graph) -> set[int]:
    """All maximal cliques by checking every vertex subset."""
    verts = list(bits(graph.vertices))
    cliques: set[int] = set()
    for r in range(1, len(verts) + 1):
        for combo in itertools.combinations(verts, r):
            if all(
                (graph.adj[a] >> b) & 1 for a, b in itertools.combinations(combo, 2)
            ):
                cliques.add(sum(1 << v for v in combo))
    out = set()
    for c in cliques:
        if not any(c != d and c | d == d for d in cliques):
            out.add(c)
    return out


def gram_leq_by_levels(a, b) -> bool:
    """Pointwise refinement order by definition: compare the two levels at
    every critical value of either gram."""
    if a.universe != b.universe:
        raise ValueError("grams live over different universes")
    for t in sorted(set(a.criticals) | set(b.criticals)):
        if not faceset_leq(a.level_at(t), b.level_at(t)):
            return False
    return True


def cover_time_by_levels(g, mask: int) -> float:
    """First critical value whose level covers ``mask``: a bisect over the
    levels, since a monotone gram covers a face from then on."""
    g.universe.check_face(mask)
    levels = g.levels
    lo, hi = 0, len(levels) - 1
    if not levels[hi][1].covers(mask):  # top level is {X}; always covers
        raise RuntimeError("facegram does not top out at the full face")
    while lo < hi:
        mid = (lo + hi) // 2
        if levels[mid][1].covers(mask):
            hi = mid
        else:
            lo = mid + 1
    return levels[lo][0]


def interleaving_by_levels(a, b) -> float:
    """Facegram interleaving on the union of both grams' faces, each
    covering time bisected over the levels."""
    best = 0.0
    for m in set(a.lifespans) | set(b.lifespans):
        best = max(best, abs(cover_time_by_levels(a, m) - cover_time_by_levels(b, m)))
    return best


def minimax_closure(m: np.ndarray) -> np.ndarray:
    """Single-linkage cophenetic matrix: minimal over paths of the maximal
    edge, Floyd-Warshall style."""
    out = m.astype(float).copy()
    n = out.shape[0]
    np.fill_diagonal(out, 0.0)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                out[i, j] = min(out[i, j], max(out[i, k], out[k, j]))
    return out


def random_dissimilarity_by_pairs(universe: TaxaSet, rng) -> PhyloNetwork:
    """Zero diagonal, uniform(0,1) entries drawn one pair at a time, rows
    in order and each row left to right."""
    n = len(universe)
    m = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            m[i, j] = m[j, i] = rng.random()
    return PhyloNetwork(universe, m)


def agglomerative_by_submatrix(net: PhyloNetwork, method: str = "single") -> Ultranetwork:
    """Cophenetic ultrametric of iterative pair merging, each merge found
    in a copy of the active block, the matrix filled pair by pair and
    validated from scratch."""
    if np.diag(net.matrix).any():
        raise ValueError("clustering expects a zero diagonal")
    universe = net.universe
    n = len(universe)
    out = np.zeros((n, n))
    if n == 1:
        return Ultranetwork(universe, out)

    d = net.matrix.astype(float).copy()
    np.fill_diagonal(d, np.inf)
    active = list(range(n))
    size = [1] * n
    members: list[list[int]] = [[i] for i in range(n)]
    height = 0.0
    for _ in range(n - 1):
        sub = d[np.ix_(active, active)]
        flat = int(np.argmin(sub))
        ai, aj = divmod(flat, len(active))
        if ai > aj:
            ai, aj = aj, ai
        i, j = active[ai], active[aj]
        height = max(height, float(d[i, j]))
        for x in members[i]:
            for y in members[j]:
                out[x, y] = out[y, x] = height
        rest = [k for k in active if k != i and k != j]
        if rest:
            if method == "single":
                merged = np.minimum(d[i, rest], d[j, rest])
            else:
                merged = (size[i] * d[i, rest] + size[j] * d[j, rest]) / (
                    size[i] + size[j]
                )
            d[i, rest] = merged
            d[rest, i] = merged
        members[i].extend(members[j])
        size[i] += size[j]
        active.remove(j)
    return Ultranetwork(universe, out)


def ultranetwork_by_lca_matrix(tree, ultrametrize: bool = False) -> Ultranetwork:
    """Coalescence-time matrix of a parsed Newick tree, filled one
    rectangle of LCA depths per pair of sibling subtrees and validated by
    the matrix route (Prim's pass and the subdominant check)."""
    universe = TaxaSet(sorted(tree.leaf_names))
    n = len(universe)
    m = np.zeros((n, n))

    # Leaves in preorder: every subtree is a run of this order, so the
    # entries between a child and its later siblings form one rectangle.
    leaves: list[int] = []
    depth_of: dict[int, float] = {}
    lca = np.zeros((n, n))  # LCA depths above the diagonal, in leaf preorder
    # (node, depth, run starts of its parent's children); node None closes
    # the children whose run starts were collected
    children: list[list[int]] = [[] for _ in tree.parents]
    for node in range(1, len(tree.parents)):
        children[tree.parents[node]].append(node)
    stack = [(0, 0.0, None)]
    while stack:
        node, depth, starts = stack.pop()
        if node is None:
            hi = len(leaves)
            for a, b in zip(starts, starts[1:]):
                lca[a:b, b:hi] = depth
            continue
        if starts is not None:
            starts.append(len(leaves))
        if not children[node]:
            i = universe.position(tree.names[node])
            depth_of[i] = depth
            leaves.append(i)
            continue
        runs: list[int] = []
        stack.append((None, depth, runs))
        for ch in reversed(children[node]):
            stack.append((ch, depth + tree.lengths[ch], runs))
    m[np.ix_(leaves, leaves)] = lca + lca.T
    height = max(depth_of.values())
    off = ~np.eye(n, dtype=bool)
    m[off] = height - m[off]
    if not ultrametrize:
        for i, d in depth_of.items():
            m[i, i] = height - d
    return Ultranetwork(universe, m)


# The character-cursor Newick parser, kept as the reference for the token
# scan of ``phylolattice.newick``: one ``peek`` per structural test, one
# linked node per node, and lines cut by ``str.splitlines``.

_STRUCTURE = set("():,;'")
_TOKEN = re.compile(r"[^():,;' \t]*")  # an unquoted name or a branch length
_BLANKS = re.compile(r"[ \t]*")


@dataclass(frozen=True)
class _Node:
    name: str | None
    length: float  # branch to the parent; 1.0 when the text had none
    children: tuple["_Node", ...] = ()


@dataclass(frozen=True)
class NodeTree:
    """A tree as linked nodes, and flattened to preorder as the scan
    stores it: ``parents`` (-1 at the root), ``lengths`` and ``names``."""

    root: _Node
    leaf_names: tuple[str, ...] = field(init=False)
    parents: list[int] = field(init=False)
    lengths: list[float] = field(init=False)
    names: list[str | None] = field(init=False)

    def __post_init__(self):
        parents: list[int] = []
        lengths: list[float] = []
        names: list[str | None] = []
        leaf_names: list[str] = []
        stack = [(self.root, -1)]
        while stack:
            node, parent = stack.pop()
            at = len(names)
            parents.append(parent)
            lengths.append(node.length)
            names.append(node.name)
            if not node.children:
                leaf_names.append(node.name)
            stack.extend((ch, at) for ch in reversed(node.children))
        object.__setattr__(self, "leaf_names", tuple(leaf_names))
        object.__setattr__(self, "parents", parents)
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "names", names)


class _Cursor:
    def __init__(self, text: str, line: int):
        self.text = text
        self.line = line
        self.i = 0
        self.seen_leaves: dict[str, int] = {}

    def fail(self, message: str, col: int | None = None) -> NewickError:
        return NewickError(message, self.line, self.i + 1 if col is None else col)

    def peek(self) -> str | None:
        """The next character after any blanks, which it skips; None at
        the end of the line."""
        ch = self.text[self.i : self.i + 1]
        if ch == " " or ch == "\t":
            self.i = _BLANKS.match(self.text, self.i).end()
            ch = self.text[self.i : self.i + 1]
        return ch or None

    def take(self) -> str:
        ch = self.text[self.i]
        self.i += 1
        return ch


def _read_name(c: _Cursor) -> str | None:
    ch = c.peek()
    if ch == "'":
        start = c.i + 1
        c.take()
        parts: list[str] = []
        while True:
            if c.i >= len(c.text):
                raise c.fail("unterminated quoted name", start)
            ch = c.take()
            if ch == "'":
                if c.i < len(c.text) and c.text[c.i] == "'":
                    c.take()
                    parts.append("'")
                else:
                    break
            else:
                parts.append(ch)
        name = "".join(parts)
        if not name:
            raise c.fail("empty quoted name", start)
        return name
    if ch is None or ch in _STRUCTURE:
        return None
    token = _TOKEN.match(c.text, c.i).group()
    c.i += len(token)
    return token


def _read_length(c: _Cursor) -> float | None:
    if c.peek() != ":":
        return None
    c.take()
    c.peek()  # skips the blanks before the length
    start = c.i
    token = _TOKEN.match(c.text, start).group()
    c.i += len(token)
    try:
        value = float(token)
    except ValueError:
        raise c.fail(f"malformed branch length {token!r}", start + 1) from None
    if not math.isfinite(value) or value < 0:
        raise c.fail(f"branch length must be finite and nonnegative, got {token}", start + 1)
    return value


def _leaf(c: _Cursor) -> _Node:
    name_col = c.i + 1
    name = _read_name(c)
    length = _read_length(c)
    if name is None:
        raise c.fail("leaf without a name", name_col)
    if name in c.seen_leaves:
        raise c.fail(f"duplicate leaf name {name!r}", name_col)
    c.seen_leaves[name] = name_col
    return _Node(name, 1.0 if length is None else length)


def _subtree(c: _Cursor) -> _Node:
    """One subtree, read with an explicit stack of the open parentheses
    (column, children so far), so that nesting depth is not bounded by the
    interpreter's recursion limit."""
    stack: list[tuple[int, list[_Node]]] = []
    while True:
        while c.peek() == "(":
            stack.append((c.i + 1, []))
            c.take()
        node = _leaf(c)
        while stack:
            open_col, children = stack[-1]
            children.append(node)
            ch = c.peek()
            if ch == ",":
                c.take()
                break
            if ch != ")":
                raise c.fail(
                    "unbalanced parentheses: '(' never closed"
                    + (" (end of input)" if ch is None else ""),
                    open_col if ch is None else None,
                )
            c.take()
            stack.pop()
            name = _read_name(c)
            length = _read_length(c)
            node = _Node(name, 1.0 if length is None else length, tuple(children))
        else:
            return node


def _parse_line(text: str, line: int) -> NodeTree:
    c = _Cursor(text, line)
    root = _subtree(c)
    ch = c.peek()
    if ch != ";":
        raise c.fail("expected ';'" + (" (end of input)" if ch is None else ""))
    c.take()
    if c.peek() is not None:
        raise c.fail("trailing characters after ';'")
    return NodeTree(root)


def parse_newick_by_cursor(text: str) -> list[NodeTree]:
    """Parse a document of one ';'-terminated tree per non-blank line."""
    trees = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.strip():
            trees.append(_parse_line(line, lineno))
    return trees


def ultranetwork_by_node_walk(tree, ultrametrize: bool = False) -> Ultranetwork:
    """The dendrogram triple of a tree read off its linked nodes in one
    walk: the leaves in preorder, the depth of each adjacent pair's lowest
    common ancestor, and the leaf depths."""
    universe = TaxaSet(sorted(tree.leaf_names))
    n = len(universe)
    order: list[int] = []
    depths: list[float] = []  # leaf depths, in preorder
    lca_depths: list[float] = []  # lca_depths[k]: LCA of leaves k and k + 1
    # After a leaf, the next node taken from the stack is a child of the
    # leaf's lowest ancestor that has a later child: that ancestor is the
    # LCA of the leaf and the next leaf.
    after_leaf = False
    stack: list[tuple[_Node, float, float]] = [(tree.root, 0.0, 0.0)]
    while stack:
        node, depth, parent_depth = stack.pop()
        if after_leaf:
            lca_depths.append(parent_depth)
            after_leaf = False
        if not node.children:
            order.append(universe.position(node.name))
            depths.append(depth)
            after_leaf = True
            continue
        for ch in reversed(node.children):
            stack.append((ch, depth + ch.length, depth))
    height = max(depths)
    joins = [height - d for d in lca_depths]
    diagonal = [0.0] * n
    if not ultrametrize:
        for i, d in zip(order, depths):
            diagonal[i] = height - d
    return Ultranetwork._from_linkage(universe, order, joins, diagonal)


def newick_by_block_split(u) -> str:
    """Dendrogram text by definition: a clade's height is the largest entry
    of its block, its children are the classes of "joined below that
    height", ordered by their smallest taxon.  Recursive; small trees only."""
    m = u.matrix
    labels = u.universe.labels

    def emit(idx: list[int]) -> tuple[str, float]:
        if len(idx) == 1:
            i = idx[0]
            name = labels[i]
            if any(ch in "():,;' \t" for ch in name):
                name = "'" + name.replace("'", "''") + "'"
            return name, float(m[i, i])
        top = float(m[np.ix_(idx, idx)].max())
        blocks: list[list[int]] = []
        for i in idx:
            for block in blocks:
                if m[i, block[0]] < top:
                    block.append(i)
                    break
            else:
                blocks.append([i])
        parts = [emit(block) for block in blocks]
        inner = ",".join(f"{txt}:{float(top - h)!r}" for txt, h in parts)
        return f"({inner})", top

    return emit(list(range(len(labels))))[0] + ";"


def newick_by_linkage_runs(u) -> str:
    """Dendrogram text from the linkage, one clade at a time: a clade is a
    run of the linkage order, its height the largest join inside the run,
    and its children the sub-runs cut where that height was paid, ordered
    by their smallest taxon."""
    u = as_ultranetwork(u)
    labels = u.universe.labels
    order, joins = u.linkage

    def quote(name: str) -> str:
        if name and not any(ch in "():,;' \t" for ch in name):
            return name
        return "'" + name.replace("'", "''") + "'"

    def split(a: int, b: int) -> tuple[float, list[tuple[int, int]]]:
        inner = joins[a : b - 1]  # inner[k]: entry by which position a + k + 1 joined
        top = float(inner.max())
        cuts = [a, *(a + 1 + int(k) for k in np.flatnonzero(inner == top)), b]
        runs = sorted(zip(cuts, cuts[1:]), key=lambda r: order[r[0] : r[1]].min())
        return top, runs

    # a stack of open clades (height, child runs, texts and heights so far)
    stack: list[tuple[float, list[tuple[int, int]], list[tuple[str, float]]]] = []
    a, b = 0, len(labels)
    while True:
        if b - a > 1:
            top, runs = split(a, b)
            stack.append((top, runs, []))
            a, b = runs[0]
            continue
        i = order[a]
        done = quote(labels[i]), float(u.diagonal[i])
        while stack:
            top, runs, parts = stack[-1]
            parts.append(done)
            if len(parts) < len(runs):
                a, b = runs[len(parts)]
                break
            stack.pop()
            inner = ",".join(f"{txt}:{float(top - h)!r}" for txt, h in parts)
            done = f"({inner})", top
        else:
            return done[0] + ";"


def _pairs(diagram) -> list[tuple[float, float]]:
    return [(b, d) for b, d, m in diagram.points for _ in range(m)]


def _sup(p: tuple[float, float], q: tuple[float, float]) -> float:
    db = abs(p[0] - q[0])
    if math.isinf(p[1]) or math.isinf(q[1]):
        return db if p[1] == q[1] else math.inf
    return max(db, abs(p[1] - q[1]))


def _del_cost(p: tuple[float, float]) -> float:
    return math.inf if math.isinf(p[1]) else (p[1] - p[0]) / 2.0


def exhaustive_bottleneck(a, b) -> float:
    """Minimum over every partial injective matching of the worst cost."""
    pa, pb = _pairs(a), _pairs(b)
    best = math.inf
    ia = list(range(len(pa)))
    for k in range(min(len(pa), len(pb)), -1, -1):
        for keep in itertools.combinations(ia, k):
            for image in itertools.permutations(range(len(pb)), k):
                cost = 0.0
                for x, y in zip(keep, image):
                    cost = max(cost, _sup(pa[x], pb[y]))
                dropped = set(range(len(pa))) - set(keep)
                for x in dropped:
                    cost = max(cost, _del_cost(pa[x]))
                for y in set(range(len(pb))) - set(image):
                    cost = max(cost, _del_cost(pb[y]))
                best = min(best, cost)
    return best


def _scalar_feasible(fa, fb, eps: float) -> bool:
    """Max-flow eps-matching test with one Python ``_sup`` call per pair.

    Nodes: source, the distinct finite points of each side, one aggregated
    diagonal node per side, sink; feasible iff the flow saturates both
    sides.
    """
    na, nb = len(fa), len(fb)
    tot_a = sum(m for _, m in fa)
    tot_b = sum(m for _, m in fb)
    S, A0 = 0, 1
    DL = A0 + na
    B0 = DL + 1
    DR = B0 + nb
    T = DR + 1
    rows, cols, caps = [], [], []

    def arc(u: int, v: int, c: int) -> None:
        rows.append(u)
        cols.append(v)
        caps.append(c)

    for i, (p, m) in enumerate(fa):
        arc(S, A0 + i, m)
        if _del_cost(p) <= eps:
            arc(A0 + i, DR, m)
        for j, (q, mq) in enumerate(fb):
            if _sup(p, q) <= eps:
                arc(A0 + i, B0 + j, min(m, mq))
    arc(S, DL, tot_b)
    arc(DL, DR, tot_b)
    for j, (q, mq) in enumerate(fb):
        arc(B0 + j, T, mq)
        if _del_cost(q) <= eps:
            arc(DL, B0 + j, mq)
    arc(DR, T, tot_a)
    graph = csr_matrix((caps, (rows, cols)), shape=(T + 1, T + 1), dtype=np.int64)
    return maximum_flow(graph, S, T).flow_value == tot_a + tot_b


def bottleneck_by_scalar_search(a, b) -> float:
    """Bottleneck distance by plain binary search over every candidate
    value (pairwise sup-distances, half-persistences, the infinite-part
    cost), one max-flow test per probe, and a final explicit check."""
    fa = [((b_, d), m) for b_, d, m in a.points if not math.isinf(d)]
    fb = [((b_, d), m) for b_, d, m in b.points if not math.isinf(d)]
    xs = sorted(b_ for b_, d, m in a.points if math.isinf(d) for _ in range(m))
    ys = sorted(b_ for b_, d, m in b.points if math.isinf(d) for _ in range(m))
    if len(xs) != len(ys):
        return math.inf
    base = max((abs(x - y) for x, y in zip(xs, ys)), default=0.0)
    cands = {0.0, base}
    for p, _ in fa:
        cands.add(_del_cost(p))
        for q, _ in fb:
            cands.add(_sup(p, q))
    for q, _ in fb:
        cands.add(_del_cost(q))
    ordered = sorted(c for c in cands if c >= base and math.isfinite(c))
    lo, hi = 0, len(ordered) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _scalar_feasible(fa, fb, ordered[mid]):
            hi = mid
        else:
            lo = mid + 1
    if not _scalar_feasible(fa, fb, ordered[lo]):
        raise RuntimeError(f"bottleneck search ended without a matching at {ordered[lo]!r}")
    return ordered[lo]


def exhaustive_interleaving(f, g) -> float:
    """Largest value gap over every non-empty face of the common universe."""
    n = len(f.universe)
    return max(abs(f.value(m) - g.value(m)) for m in range(1, 1 << n))


def exhaustive_gh(a, b) -> float:
    """Minimal distortion over every correspondence, by direct product
    enumeration over per-row column sets."""
    ma, mb = a.matrix, b.matrix
    nx, ny = ma.shape[0], mb.shape[0]
    subsets = [s for s in range(1, 1 << ny)]
    best = math.inf
    for rows in itertools.product(subsets, repeat=nx):
        covered = 0
        for s in rows:
            covered |= s
        if covered != (1 << ny) - 1:
            continue
        pairs = [
            (i, j) for i, s in enumerate(rows) for j in range(ny) if (s >> j) & 1
        ]
        dist = max(
            abs(ma[i, k] - mb[j, l]) for (i, j) in pairs for (k, l) in pairs
        )
        best = min(best, dist)
    return best


def lifespans_by_definition(f, universe: TaxaSet) -> dict[int, tuple[float, float]]:
    """Every face's window straight from the formula, full enumeration."""
    n = len(universe)
    values = {m: f.value(m) for m in range(1, 1 << n)}
    full = (1 << n) - 1
    out: dict[int, tuple[float, float]] = {}
    for m, birth in values.items():
        if m == full:
            death = math.inf
        else:
            death = min(values[s] for s in range(1, 1 << n) if s != m and s | m == s)
        if birth < death:
            out[m] = (birth, death)
    return out


def join_mergegram_by_scan(ultras) -> LabeledMergegram:
    """Labeled mergegram of the facegram join of treegrams, by evaluating the
    join filtration on every tree face and reading each death off the
    strict supersets.

    A face's join value is its smallest diameter over the trees; the tree
    faces are the sub-level balls of observed taxa.
    """
    universe = ultras[0].universe
    full = universe.full_mask
    cands: set[int] = set()
    for u in ultras:
        m = u.matrix
        for eps in np.unique(m):
            for i in np.nonzero(np.diag(m) <= eps)[0]:
                cands.add(sum(1 << int(j) for j in np.nonzero(m[i] <= eps)[0]))
    stack = np.stack([u.matrix for u in ultras])
    values = {}
    for m in cands:
        idx = list(bits(m))
        values[m] = float(stack[:, idx, :][:, :, idx].max(axis=(1, 2)).min())
    entries: dict[int, Interval] = {}
    for m, birth in values.items():
        if m == full:
            death = math.inf
        else:
            death = min(
                (values[s] for s in cands if s != m and s | m == s), default=math.inf
            )
        if birth < death:
            entries[m] = Interval(birth, death)
    return LabeledMergegram(universe, entries)


def join_mergegram_by_matrix(ultras) -> LabeledMergegram:
    """Labeled mergegram of the facegram join of treegrams, read off the
    stacked matrices for every face of every treegram.

    The birth is the smallest diameter over the trees; the death is the
    smallest, over trees and outside taxa, of the worst coalescence time
    into the face.
    """
    universe = ultras[0].universe
    n = len(universe)
    full = universe.full_mask
    stack = np.stack([u.matrix for u in ultras])  # (trees, n, n)
    faces: set[int] = set()
    for u in ultras:
        faces.update(treegram_from_ultranetwork(u).all_faces())
    entries: dict[int, Interval] = {}
    for m in sorted(faces, key=lambda m: (m.bit_count(), m)):
        idx = list(bits(m))
        colmax = stack[:, idx, :].max(axis=1)  # worst time into m, per taxon
        birth = float(colmax[:, idx].max(axis=1).min())
        if m == full:
            death = math.inf
        else:
            outside = [i for i in range(n) if not (m >> i) & 1]
            death = float(colmax[:, outside].min())
        if birth < death:
            entries[m] = Interval(birth, death)
    return LabeledMergegram(universe, entries)


def is_clique_set_by_enumeration(fs: FaceSet) -> bool:
    """The full clique-set check: a validated cover graph and every one of
    its maximal cliques, compared with the faces."""
    return maximal_cliques(cover_graph(fs.universe, fs.faces)) == fs.faces


def first_non_clique_set_level(levels) -> float | None:
    """The first critical value whose level is not a clique-set, by the
    full check on every level."""
    for t, fs in levels:
        if not is_subpartition(fs) and not is_clique_set_by_enumeration(fs):
            return t
    return None


def bron_kerbosch_by_recursion(adj, p: int, x: int) -> list[int]:
    """Pivoted Bron-Kerbosch by plain recursion, one call per clique
    vertex: the maximal cliques inside ``p`` that no vertex of ``x``
    extends, in discovery order.  Small graphs only."""
    out: list[int] = []

    def expand(r: int, p: int, x: int) -> None:
        if not p and not x:
            out.append(r)
            return
        pivot = max(bits(p | x), key=lambda u: (p & adj[u]).bit_count())
        for v in bits(p & ~adj[pivot]):
            mv = 1 << v
            expand(r | mv, p & adj[v], x & adj[v])
            p &= ~mv
            x |= mv

    expand(0, p, x)
    return out


def clique_levels_by_threshold_graphs(net):
    """Cliquegram levels by definition: for every matrix value, a fresh
    threshold graph of the taxa observed by then and the pairs coalesced
    by then, and its maximal cliques."""
    universe = net.universe
    matrix = net.matrix
    levels: list[tuple[float, FaceSet]] = []
    for eps in map(float, np.unique(matrix)):
        observed = np.diag(matrix) <= eps
        vertices = sum(1 << int(i) for i in np.nonzero(observed)[0])
        close = (matrix <= eps) & np.outer(observed, observed)
        edges = [(int(i), int(j)) for i, j in zip(*np.nonzero(close)) if i < j]
        graph = Graph.from_edges(universe, vertices, edges)
        fs = FaceSet(universe, maximal_cliques(graph))
        if fs.is_empty:
            continue
        if levels and levels[-1][1] == fs:
            continue
        levels.append((eps, fs))
    return levels


def clique_levels_by_full_enumeration(net):
    """Cliquegram levels from one growing threshold graph, with a full
    Bron-Kerbosch over every vertex at each matrix value: the sweep as it
    was before it re-enumerated only the region the new edges reach.  The
    kernel itself is checked against ``bron_kerbosch_by_recursion``."""
    n = len(net.universe)
    values = list(map(float, np.unique(net.matrix)))
    rows, cols = np.triu_indices(n)
    entries = net.matrix[rows, cols]
    order = np.argsort(entries)
    ends = np.searchsorted(entries[order], values[1:]).tolist() + [len(order)]
    rows, cols = rows[order].tolist(), cols[order].tolist()
    adj = [0] * n
    vertices = 0
    levels: list[tuple[float, FaceSet]] = []
    start = 0
    for eps, end in zip(values, ends):
        for i, j in zip(rows[start:end], cols[start:end]):
            if i == j:
                vertices |= 1 << i
            else:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        start = end
        levels.append((eps, FaceSet(net.universe, bron_kerbosch(adj, vertices, 0))))
    return levels


def clique_levels_by_region_sweep(net):
    """Cliquegram levels as mask lists from one growing threshold graph,
    re-enumerating at each matrix value only the region R its new edges
    reach, with the whole clique list rebuilt at every value: the sweep as
    it was before it handed over born and dying cliques."""
    n = len(net.universe)
    values = np.unique(net.matrix).tolist()
    rows, cols = np.triu_indices(n)
    entries = net.matrix[rows, cols]
    order = np.argsort(entries)
    ends = np.searchsorted(entries[order], values[1:]).tolist() + [len(order)]
    rows, cols = rows[order].tolist(), cols[order].tolist()
    adj = [0] * n
    vertices = 0
    cliques: set[int] = set()
    levels: list[tuple[float, list[int]]] = []
    start = 0
    for eps, end in zip(values, ends):
        batch = list(zip(rows[start:end], cols[start:end]))
        start = end
        for i, j in batch:
            if i == j:
                vertices |= 1 << i
                cliques.add(1 << i)
            else:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        region = 0
        for i, j in batch:
            if i != j:
                region |= (1 << i) | (1 << j) | (adj[i] & adj[j])
        if region:
            cliques = {c for c in cliques if c & ~region}
            cliques.update(bron_kerbosch(adj, region, vertices & ~region))
        levels.append((eps, list(cliques)))
    return levels


def tree_levels_by_runs(u):
    """Treegram levels as mask lists, every level listed whole: the runs
    of the linkage order that have merged by t, and the singleton runs of
    the taxa observed by t."""
    order, joins = u.linkage
    n = len(order)
    pos = {int(i): p for p, i in enumerate(order)}
    changes = sorted(
        [(float(u.diagonal[i]), 0, pos[i]) for i in range(n)]
        + [(float(joins[k - 1]), 1, k) for k in range(1, n)]
    )
    end = list(range(1, n + 1))  # run start -> one past its last position
    start = list(range(n))  # last position of a run -> its start
    mask = [1 << int(i) for i in order]  # run start -> face mask
    visible: dict[int, int] = {}  # run start -> face, for the runs in the level
    levels: list[tuple[float, list[int]]] = []
    for e, (t, kind, k) in enumerate(changes):
        if kind == 0:
            visible[k] = mask[k]
        else:
            a, b = start[k - 1], end[k]
            end[a], start[b - 1] = b, a
            mask[a] |= mask[k]
            visible.pop(k, None)
            visible[a] = mask[a]
        if e + 1 == len(changes) or changes[e + 1][0] != t:
            levels.append((t, list(visible.values())))
    return levels


def levels_of_births(births):
    """Mask-list levels of the maximal faces born by t, at every distinct
    t of the (t, face) pairs that changes them, each level listed whole."""
    levels: list[tuple[float, list[int]]] = []
    faces: list[int] = []
    for t, group in itertools.groupby(sorted(set(births)), key=lambda e: e[0]):
        new = maximal_masks(m for _, m in group)
        new = [m for m in new if not any(m | f == f for f in faces)]
        if new:
            faces = [f for f in faces if not any(f | m == m for m in new)] + new
            levels.append((t, faces))
    return levels


def network_by_block_writes(g) -> PhyloNetwork:
    """First joint-cover times: each face's birth written over its whole
    block, latest birth first, so the earliest cover of a pair is written
    last (the full face, born last, fills every entry)."""
    n = len(g.universe)
    m = np.empty((n, n))
    by_birth = sorted(g.lifespans.items(), key=lambda kv: kv[1].birth, reverse=True)
    for face, iv in by_birth:
        idx = list(bits(face))
        m[np.ix_(idx, idx)] = iv.birth
    return PhyloNetwork(g.universe, m)


def clique_join_by_levels(parts) -> Gram:
    """Clique-set join level by level: at every critical value of any part,
    the maximal cliques of the union of the parts' cover graphs.  Every
    part level must be a clique-set, which a full enumeration checks."""
    universe = parts[0].universe
    for p in parts:
        t = first_non_clique_set_level(p.levels)
        if t is not None:
            raise ValueError(f"cliquegram join requires clique-set levels (t={t!r})")
    levels: list[tuple[float, FaceSet]] = []
    for t in sorted({t for p in parts for t in p.criticals}):
        masks = [m for p in parts for m in p.level_at(t).faces]
        fs = FaceSet(universe, maximal_cliques(cover_graph(universe, masks)))
        if fs.is_empty:
            continue
        if levels and levels[-1][1] == fs:
            continue
        levels.append((t, fs))
    return Gram(universe, levels, "cliquegram")


def facegram_join_by_levels(parts) -> Gram:
    """Face-set join level by level: at every critical value of any part,
    the maximal faces of the union of the parts' levels there."""
    universe = parts[0].universe
    levels: list[tuple[float, FaceSet]] = []
    for t in sorted({t for p in parts for t in p.criticals}):
        masks = [m for p in parts for m in p.level_at(t).faces]
        fs = FaceSet(universe, maximal_masks(masks))
        if fs.is_empty:
            continue
        if levels and levels[-1][1] == fs:
            continue
        levels.append((t, fs))
    return Gram(universe, levels, "facegram")


def gram_by_alive_at(lm, kind: str = "facegram") -> Gram:
    """The gram of a labeled mergegram by definition: at every birth and
    finite death, the faces whose window contains that time."""
    criticals = sorted(
        {iv.birth for iv in lm.entries.values()}
        | {iv.death for iv in lm.entries.values() if math.isfinite(iv.death)}
    )
    levels: list[tuple[float, FaceSet]] = []
    for t in criticals:
        fs = FaceSet(lm.universe, lm.alive_at(t))
        if fs.is_empty:
            continue
        if levels and levels[-1][1] == fs:
            continue
        levels.append((t, fs))
    return Gram(lm.universe, levels, kind)


def squash_by_levels(g) -> Gram:
    """Squash by definition: at every critical value, the maximal cliques
    of the level's one-skeleton.  An empty first level stays."""
    levels: list[tuple[float, FaceSet]] = []
    for t, fs in g.levels:
        sq = FaceSet(g.universe, maximal_cliques(cover_graph(g.universe, fs.faces)))
        if levels and levels[-1][1] == sq:
            continue
        levels.append((t, sq))
    return Gram(g.universe, levels, "cliquegram")


def labeled_mergegram_by_superset_scan(f, support=None) -> LabeledMergegram:
    """Lifespans straight from filtration values on a covering face family:
    each candidate's window is [value, min value of a strict superset
    candidate), and empty windows drop out.  Without ``support`` the
    candidates are the filtration's own support, or every face."""
    universe = f.universe
    full = universe.full_mask
    if support is None:
        support = f.support_faces()
    if support is None:
        support = tuple(all_faces(universe))
    cands = sorted(set(support) | {full}, key=lambda m: m.bit_count())
    values = {m: f.value(m) for m in cands}
    entries: dict[int, Interval] = {}
    for m in cands:
        birth = values[m]
        if m == full:
            death = math.inf
        else:
            death = min(
                (values[s] for s in cands if s != m and s | m == s),
                default=math.inf,
            )
        if birth < death:
            entries[m] = Interval(birth, death)
    return LabeledMergegram(universe, entries)


def _dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _death_out(d: float):
    return "inf" if math.isinf(d) else d


def gram_json_by_dumps(g) -> str:
    """Gram JSON through ``json.dumps``, naming every face on every level."""
    return _dumps(
        {
            "format": "phylolattice/1",
            "type": "gram",
            "kind": g.kind,
            "taxa": list(g.universe.labels),
            "levels": [
                {"t": t, "faces": [list(g.universe.names_of(m)) for m in fs.faces]}
                for t, fs in g.levels
            ],
        }
    )


def labeled_mergegram_json_by_dumps(lm) -> str:
    """Labeled-mergegram JSON through ``json.dumps``, one ``names_of`` per entry."""
    return _dumps(
        {
            "format": "phylolattice/1",
            "type": "labeled-mergegram",
            "taxa": list(lm.universe.labels),
            "points": [
                {
                    "birth": iv.birth,
                    "death": _death_out(iv.death),
                    "mult": 1,
                    "label": list(lm.universe.names_of(mask)),
                }
                for mask, iv in sorted(
                    lm.entries.items(),
                    key=lambda kv: (kv[1].birth, kv[1].death, kv[0]),
                )
            ],
        }
    )


def _shown(s: str) -> str:
    """``s`` with each C0 control character and DEL written as \\uXXXX."""
    return re.sub(r"[\x00-\x1f\x7f]", lambda m: f"\\u{ord(m.group()):04x}", s)


def reeb_dot_by_names_of(r) -> str:
    """Reeb DOT text, naming every edge's face with ``names_of``, each name
    with its control characters shown as \\uXXXX, then its backslashes and
    double quotes escaped as DOT quotes them."""
    lines = ["graph reeb {", "  rankdir=BT;"]
    for i, t in enumerate(r.criticals):
        for k in range(r.vertex_counts[i]):
            lines.append(f'  v{i}_{k} [label="t={t:g}"];')
    lines.append('  top [label="inf", shape=plaintext];')
    n = len(r.criticals)
    for i in range(n):
        for k, mask in enumerate(r.edge_sets[i]):
            name = "{" + ",".join(
                re.sub(r'(["\\])', r"\\\1", _shown(s)) for s in r.universe.names_of(mask)
            ) + "}"
            a = f"v{i}_{r.down_ids[i][k]}"
            if i < n - 1:
                b = f"v{i + 1}_{r.up_ids[i][k]}"
                lines.append(f'  {a} -- {b} [label="{name}"];')
            else:
                lines.append(f'  {a} -- top [label="{name}", style=dashed];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def reeb_by_pair_scan(g) -> ReebGraph:
    """Face-Reeb graph by definition: at every level, union every
    comparable (previous, current) face pair, and number the components
    in the canonical order of the two families' union."""
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
                i = parent[i]
            return i

        for p in prev:
            for q in cur:
                if p | q == q or q | p == p:
                    a, b = find(index[p]), find(index[q])
                    if a != b:
                        parent[b] = a
        roots: dict[int, int] = {}
        comp = {m: roots.setdefault(find(index[m]), len(roots)) for m in nodes}
        comp_maps.append(comp)
        vertex_counts.append(len(roots))
        prev = cur
    n = len(edge_sets)
    down = [{m: comp_maps[i][m] for m in edge_sets[i]} for i in range(n)]
    up = [
        {m: comp_maps[i + 1][m] for m in edge_sets[i]} if i < n - 1 else None
        for i in range(n)
    ]
    return _reeb_of_maps(g, edge_sets, vertex_counts, down, up)


def _reeb_of_maps(g, edge_sets, vertex_counts, down, up) -> ReebGraph:
    """The graph of a face-to-vertex map per level, its ids aligned with
    ``edge_sets``."""

    def aligned(maps):
        return [
            None if d is None else tuple(map(d.__getitem__, es)) for d, es in zip(maps, edge_sets)
        ]

    return ReebGraph(
        g.universe, g.criticals, edge_sets, tuple(vertex_counts), aligned(down), aligned(up)
    )


def _union_roots(count: int, pairs) -> list[int]:
    """Each of the nodes 0 to count-1 mapped to its root once every pair is
    joined."""
    parent = list(range(count))

    def find(i: int) -> int:
        while parent[i] != i:
            i = parent[i]
        return i

    for a, b in pairs:
        a, b = find(a), find(b)
        if a != b:
            parent[b] = a
    return [find(i) for i in range(count)]


def reeb_by_changed_pairs(g) -> ReebGraph:
    """Face-Reeb graph comparing only the faces each level changes: a
    union-find over the canonically sorted union of the two levels joins
    each dying face to the born faces that contain it, and a dict per
    level maps each face to its component's number."""
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
        roots = _union_roots(
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
    return _reeb_of_maps(g, edge_sets, vertex_counts, down, up)


def component_count_by_union_find(r) -> int:
    """Components of a Reeb graph's finite part: one union-find over every
    vertex, joining the two ends of every finite edge as the vertex ids
    give them."""
    first = list(itertools.accumulate(r.vertex_counts, initial=0))
    edges = (
        (first[i] + d, first[i + 1] + u)
        for i in range(len(r.criticals) - 1)
        for d, u in zip(r.down_ids[i], r.up_ids[i])
    )
    return len(set(_union_roots(sum(r.vertex_counts), edges)))


def check_gram_by_covers(universe, levels, kind: str = "facegram") -> None:
    """Gram validation with each dying face's cover searched in the whole
    next level; raises what ``Gram`` raises, in the same order."""
    if kind not in ("facegram", "cliquegram", "treegram"):
        raise ValueError(f"unknown gram kind {kind!r}")
    lv = tuple((float(t), fs) for t, fs in levels)
    if not lv:
        raise ValueError("a gram needs at least one level")
    prev, seen, prev_t = set(), set(), None
    for t, fs in lv:
        if not isinstance(fs, FaceSet) or fs.universe != universe:
            raise ValueError("levels must be face-sets over the gram universe")
        if not np.isfinite(t):
            raise ValueError("critical values must be finite")
        cur = set(fs.faces)
        if prev_t is not None:
            if t <= prev_t:
                raise ValueError("critical values must be strictly increasing")
            if not all(fs.covers(m) for m in prev - cur):
                raise ValueError(f"levels are not refinement-monotone at t={t!r}")
            if prev == cur:
                raise ValueError(f"consecutive levels at t={t!r} are identical")
        if (cur - prev) & seen:
            raise RuntimeError("face reappeared in the gram")
        seen |= prev - cur
        prev, prev_t = cur, t
    if lv[-1][1].faces != (universe.full_mask,):
        raise ValueError("the last level must be the single full face")
    if kind == "treegram":
        for t, fs in lv:
            if not is_subpartition(fs):
                raise ValueError(f"treegram level at t={t!r} is not a subpartition")
    elif kind == "cliquegram":
        t = first_non_clique_set_level(lv)
        if t is not None:
            raise ValueError(f"cliquegram level at t={t!r} is not a clique-set")


def gram_by_faceset_levels(universe, levels, kind: str = "facegram"):
    """The gram constructor as it was before grams were stored by their
    lifespans: a ``FaceSet``, with its full antichain scan, for every
    level's masks, then one pass over the face-sets that validates them and
    records each face's lifespan.  Raises what that constructor raised, in
    the same order; returns the universe, kind, levels, criticals and
    lifespans."""
    lv = [(t, FaceSet(universe, masks)) for t, masks in levels]
    if kind not in ("facegram", "cliquegram", "treegram"):
        raise ValueError(f"unknown gram kind {kind!r}")
    lv = tuple((float(t), fs) for t, fs in lv)
    if not lv:
        raise ValueError("a gram needs at least one level")
    alive: dict[int, float] = {}
    spans: dict[int, Interval] = {}
    prev_t = None
    for t, fs in lv:
        if not np.isfinite(t):
            raise ValueError("critical values must be finite")
        dying = alive.keys() - fs.faces
        born = [m for m in fs.faces if m not in alive]
        if prev_t is not None:
            if t <= prev_t:
                raise ValueError("critical values must be strictly increasing")
            if not all(any(m | b == b for b in born) for m in dying):
                raise ValueError(f"levels are not refinement-monotone at t={t!r}")
            if not dying and not born:
                raise ValueError(f"consecutive levels at t={t!r} are identical")
        for m in dying:
            spans[m] = Interval(alive.pop(m), t)
        for m in born:
            if m in spans:
                raise RuntimeError("face reappeared in the gram")
            alive[m] = t
        prev_t = t
    if lv[-1][1].faces != (universe.full_mask,):
        raise ValueError("the last level must be the single full face")
    if kind == "treegram":
        for t, fs in lv:
            if not is_subpartition(fs):
                raise ValueError(f"treegram level at t={t!r} is not a subpartition")
    elif kind == "cliquegram":
        t = first_non_clique_set_level(lv)
        if t is not None:
            raise ValueError(f"cliquegram level at t={t!r} is not a clique-set")
    spans[universe.full_mask] = Interval(alive[universe.full_mask], math.inf)
    return SimpleNamespace(
        universe=universe,
        kind=kind,
        levels=lv,
        criticals=tuple(t for t, _ in lv),
        lifespans=spans,
    )
