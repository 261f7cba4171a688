"""Distances: bottleneck, labeled sup-distance, interleaving, and the
tiny-scale tripod / Gromov-Hausdorff oracles.

The bottleneck distance is exact: the optimum is one of finitely many
candidate values (pairwise sup-distances and half-persistences).  A
lower bound among them is probed first, then a binary search runs above
it; each probe is a max-flow feasibility test on multiplicity-aggregated
points.  The brute-force oracles enumerate correspondences
outright and are guarded to tiny inputs.
"""

from __future__ import annotations

import logging
import math
import time
from typing import NamedTuple, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

from .filtrations import (
    Filtration,
    Surjection,
    VRFiltration,
    filtration_interleaving,
    pullback_filtration,
)
from .grams import Gram, filtration_from_facegram
from .mergegram import LabeledMergegram
from .networks import PhyloNetwork
from .taxa import TaxaSet

log = logging.getLogger(__name__)

Point = tuple[float, float]


def _point_dist(p: Point, q: Point) -> float:
    """Sup-norm with the usual convention that two infinities agree."""
    db = abs(p[0] - q[0])
    if math.isinf(p[1]) or math.isinf(q[1]):
        return db if p[1] == q[1] else math.inf
    return max(db, abs(p[1] - q[1]))


def _half_persistence(p: Point) -> float:
    return math.inf if math.isinf(p[1]) else (p[1] - p[0]) / 2.0


class Matching(NamedTuple):
    """Witness for an eps-matching between two interval multisets."""

    pairs: tuple[tuple[Point, Point], ...]
    unmatched_a: tuple[Point, ...]
    unmatched_b: tuple[Point, ...]

    def cost(self) -> float:
        match = max((_point_dist(p, q) for p, q in self.pairs), default=0.0)
        drop = max(
            (_half_persistence(p) for p in self.unmatched_a + self.unmatched_b),
            default=0.0,
        )
        return max(match, drop)

    def covers(self, a, b) -> bool:
        used_a = sorted(p for p, _ in self.pairs) + sorted(self.unmatched_a)
        used_b = sorted(q for _, q in self.pairs) + sorted(self.unmatched_b)
        expand = lambda d: sorted((b_, d_) for b_, d_, m in d.points for _ in range(m))
        return sorted(used_a) == expand(a) and sorted(used_b) == expand(b)


class _Finite(NamedTuple):
    """The distinct finite points of one diagram, as arrays."""

    births: np.ndarray
    deaths: np.ndarray
    mults: np.ndarray
    half: np.ndarray  # half-persistences, the cost of dropping a point


def _split(diagram) -> tuple[_Finite, list[tuple[float, int]]]:
    finite = [(b, d, m) for b, d, m in diagram.points if not math.isinf(d)]
    inf_births = [(b, m) for b, d, m in diagram.points if math.isinf(d)]
    births = np.array([b for b, _, _ in finite], dtype=np.float64)
    deaths = np.array([d for _, d, _ in finite], dtype=np.float64)
    mults = np.array([m for _, _, m in finite], dtype=np.int64)
    return _Finite(births, deaths, mults, (deaths - births) / 2.0), inf_births


def _sup_matrix(fa: _Finite, fb: _Finite) -> np.ndarray:
    """Pairwise sup-norm distances of the finite points, |A| x |B|."""
    return np.maximum(
        np.abs(fa.births[:, None] - fb.births[None, :]),
        np.abs(fa.deaths[:, None] - fb.deaths[None, :]),
    )


def _expand(weighted: Sequence[tuple[float, int]]) -> list[float]:
    out: list[float] = []
    for v, m in weighted:
        out.extend([v] * m)
    return out


def _infinite_part_cost(a_births, b_births) -> float:
    xs, ys = sorted(_expand(a_births)), sorted(_expand(b_births))
    if len(xs) != len(ys):
        return math.inf
    return max((abs(x - y) for x, y in zip(xs, ys)), default=0.0)


def _feasible(fa: _Finite, fb: _Finite, dist: np.ndarray, eps: float):
    """Max flow of the eps-matching network of the finite parts.

    Nodes: source, the distinct points of each side, one aggregated
    diagonal node per side, sink.  Feasible iff the max flow saturates
    both sides, i.e. equals |A| + |B|.  Returns the flow matrix on
    success for witness extraction, None when infeasible.
    """
    na, nb = len(fa.mults), len(fb.mults)
    tot_a, tot_b = int(fa.mults.sum()), int(fb.mults.sum())
    S, A0 = 0, 1
    DL = A0 + na  # diagonal that absorbs deletions of B
    B0 = DL + 1
    DR = B0 + nb  # diagonal that absorbs deletions of A
    T = DR + 1
    ia, ib = np.arange(na), np.arange(nb)
    pa, pb = np.nonzero(dist <= eps)
    drop_a = np.nonzero(fa.half <= eps)[0]
    drop_b = np.nonzero(fb.half <= eps)[0]
    arcs = (  # (tails, heads, capacities), scalars broadcast
        (S, A0 + ia, fa.mults),
        (A0 + drop_a, DR, fa.mults[drop_a]),
        (A0 + pa, B0 + pb, np.minimum(fa.mults[pa], fb.mults[pb])),
        ([S, DL], [DL, DR], tot_b),
        (B0 + ib, T, fb.mults),
        (DL, B0 + drop_b, fb.mults[drop_b]),
        ([DR], [T], tot_a),
    )
    rows, cols, caps = map(
        np.concatenate, zip(*(np.broadcast_arrays(*arc) for arc in arcs))
    )
    graph = csr_matrix((caps, (rows, cols)), shape=(T + 1, T + 1), dtype=np.int64)
    result = maximum_flow(graph, S, T)
    if result.flow_value != tot_a + tot_b:
        return None
    return result.flow


def bottleneck_distance(a, b) -> float:
    """Least eps admitting a matching: pairs within eps (sup-norm), every
    unmatched interval of persistence at most 2 eps.  Infinite-death
    points pair only with each other, at the cost of their birth gap.
    """
    t0 = time.perf_counter()
    fa, ia = _split(a)
    fb, ib = _split(b)
    base = _infinite_part_cost(ia, ib)
    if math.isinf(base):
        return math.inf
    dist = _sup_matrix(fa, fb)
    cands = np.unique(np.concatenate((dist.ravel(), fa.half, fb.half, [base])))
    ordered = cands[(cands >= base) & np.isfinite(cands)]
    # every point is matched or dropped, so no eps below its cheapest
    # option admits a matching; the largest such option is a candidate
    cheapest_a = np.minimum(fa.half, dist.min(axis=1, initial=math.inf))
    cheapest_b = np.minimum(fb.half, dist.min(axis=0, initial=math.inf))
    lb = float(np.max([base, cheapest_a.max(initial=base), cheapest_b.max(initial=base)]))
    if not math.isfinite(lb):
        raise RuntimeError(f"no finite eps admits a matching (lower bound {lb!r})")
    solves = 0

    def feasible(i: int) -> bool:
        nonlocal solves
        solves += 1
        return _feasible(fa, fb, dist, ordered[i]) is not None

    lo, hi = int(np.searchsorted(ordered, lb)), len(ordered) - 1
    proven = lo if feasible(lo) else None
    if proven is None:
        lo += 1
        while lo < hi:
            mid = (lo + hi) // 2
            if feasible(mid):
                hi = proven = mid
            else:
                lo = mid + 1
        if proven != lo and (lo > hi or not feasible(lo)):
            raise RuntimeError(f"no candidate up to {ordered[hi]!r} admits a matching")
    d = float(ordered[lo])
    if log.isEnabledFor(logging.DEBUG):
        log.debug(
            "stage=bottleneck points=%d+%d candidates=%d lb=%r solves=%d ms=%.3f",
            len(fa.mults) + len(ia),
            len(fb.mults) + len(ib),
            len(ordered),
            lb,
            solves,
            (time.perf_counter() - t0) * 1e3,
        )
    return d


def bottleneck_matching(a, b, eps: float) -> Matching | None:
    """Explicit eps-matching witness, or None when eps is too small."""
    fa, ia = _split(a)
    fb, ib = _split(b)
    base = _infinite_part_cost(ia, ib)
    if math.isinf(base) or base > eps:
        return None
    flow = _feasible(fa, fb, _sup_matrix(fa, fb), eps)
    if flow is None:
        return None
    na, nb = len(fa.mults), len(fb.mults)
    A0, DL = 1, 1 + na
    B0, DR = 2 + na, 2 + na + nb
    points_a = list(zip(fa.births.tolist(), fa.deaths.tolist()))
    points_b = list(zip(fb.births.tolist(), fb.deaths.tolist()))
    block = flow[A0:DL, B0:DR].tocoo()
    pairs: list[tuple[Point, Point]] = [
        (points_a[i], points_b[j])
        for i, j, k in zip(block.row, block.col, block.data)
        for _ in range(k)
    ]
    dropped_a = flow[A0:DL, [DR]].toarray().ravel()
    dropped_b = flow[[DL], B0:DR].toarray().ravel()
    un_a = [p for p, k in zip(points_a, dropped_a) for _ in range(k)]
    un_b = [q for q, k in zip(points_b, dropped_b) for _ in range(k)]
    xs, ys = sorted(_expand(ia)), sorted(_expand(ib))
    pairs.extend(((x, math.inf), (y, math.inf)) for x, y in zip(xs, ys))
    return Matching(tuple(pairs), tuple(un_a), tuple(un_b))


def _single_point_bottleneck(p: Point | None, q: Point | None) -> float:
    if p is None and q is None:
        return 0.0
    if p is None:
        return _half_persistence(q)
    if q is None:
        return _half_persistence(p)
    return min(_point_dist(p, q), max(_half_persistence(p), _half_persistence(q)))


def linf_labeled_distance(a: LabeledMergegram, b: LabeledMergegram) -> float:
    """Worst per-face bottleneck between the two one-point diagrams."""
    if a.universe != b.universe:
        raise ValueError("labeled mergegrams live over different universes")
    out = 0.0
    for mask in set(a.entries) | set(b.entries):
        ia, ib = a.entries.get(mask), b.entries.get(mask)
        p = (ia.birth, ia.death) if ia is not None else None
        q = (ib.birth, ib.death) if ib is not None else None
        out = max(out, _single_point_bottleneck(p, q))
    return out


def facegram_interleaving(a: Gram, b: Gram) -> float:
    """Interleaving distance, computed on the associated filtrations."""
    if a.universe != b.universe:
        raise ValueError("grams live over different universes")
    return filtration_interleaving(
        filtration_from_facegram(a), filtration_from_facegram(b)
    )


def _pair_universe(xs: TaxaSet, ys: TaxaSet) -> tuple[TaxaSet, list[tuple[int, int]]]:
    pairs = [(i, j) for i in range(len(xs)) for j in range(len(ys))]
    labels = [f"({xs.labels[i]!r},{ys.labels[j]!r})" for i, j in pairs]
    return TaxaSet(labels), pairs


def _guard(nx: int, ny: int) -> None:
    if nx * ny > 20:
        raise ValueError(f"brute force guarded to |X|*|Y| <= 20, got {nx * ny}")


def _row_subset_correspondences(nx: int, ny: int):
    """Yield correspondences as per-row column masks with full projections."""
    full = (1 << ny) - 1
    choices = list(range(1, full + 1))

    def rec(i: int, covered: int, rows: tuple[int, ...]):
        if i == nx:
            if covered == full:
                yield rows
            return
        remaining = nx - i - 1
        for s in choices:
            c = covered | s
            # the rows left must still be able to finish covering Y
            if remaining == 0 and c != full:
                continue
            yield from rec(i + 1, c, rows + (s,))

    yield from rec(0, 0, ())


def gromov_hausdorff_bruteforce(a: PhyloNetwork, b: PhyloNetwork) -> float:
    """Exact minimal distortion over all correspondences (tiny inputs only).

    The distortion of R is the worst |N_X(x,x') - N_Y(y,y')| over pairs
    (x,y), (x',y') in R, diagonal comparisons included.
    """
    nx, ny = len(a.universe), len(b.universe)
    _guard(nx, ny)
    mx, my = a.matrix, b.matrix
    # gap[i][j][s] = worst gap between row pair (i,j) of X and any column
    # pair drawn from mask s on each side
    cols = [tuple(c for c in range(ny) if (s >> c) & 1) for s in range(1 << ny)]
    best = math.inf

    def dist_rows(i: int, si: int, j: int, sj: int) -> float:
        block = np.abs(mx[i, j] - my[np.ix_(cols[si], cols[sj])])
        return float(block.max())

    def rec(i: int, rows: list[int], covered: int, cur: float) -> None:
        nonlocal best
        if cur >= best:
            return
        if i == nx:
            if covered == (1 << ny) - 1:
                best = cur
            return
        for s in range(1, 1 << ny):
            d = cur
            for j, sj in enumerate(rows):
                d = max(d, dist_rows(j, sj, i, s))
            d = max(d, dist_rows(i, s, i, s))
            if d < best:
                rows.append(s)
                rec(i + 1, rows, covered | s, d)
                rows.pop()

    rec(0, [], 0, 0.0)
    return best


def tripod_distance_bruteforce(f: Filtration, g: Filtration) -> float:
    """Exact minimum over correspondences of the interleaving distance of
    the two pullbacks to the correspondence set (tiny inputs only)."""
    nx, ny = len(f.universe), len(g.universe)
    _guard(nx, ny)
    best = math.inf
    for rows in _row_subset_correspondences(nx, ny):
        members = [(i, j) for i, s in enumerate(rows) for j in range(ny) if (s >> j) & 1]
        labels = [f"({f.universe.labels[i]!r},{g.universe.labels[j]!r})" for i, j in members]
        z = TaxaSet(labels)
        to_x = Surjection(z, f.universe, tuple(i for i, _ in members))
        to_y = Surjection(z, g.universe, tuple(j for _, j in members))
        d = filtration_interleaving(
            pullback_filtration(f, to_x), pullback_filtration(g, to_y)
        )
        best = min(best, d)
        if best == 0.0:
            break
    return best


def vr_tripod_bruteforce(a: PhyloNetwork, b: PhyloNetwork) -> float:
    """Tripod distance of the two Vietoris-Rips filtrations."""
    return tripod_distance_bruteforce(VRFiltration(a), VRFiltration(b))
