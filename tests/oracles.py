"""Slow, independent reference computations the real code is tested against.

Everything here works straight from definitions: subset enumeration,
exhaustive matchings, exhaustive correspondences.  Nothing imports the
algorithmic paths it is meant to check.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

from phylolattice import Graph, Interval, LabeledMergegram, TaxaSet, bits


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
