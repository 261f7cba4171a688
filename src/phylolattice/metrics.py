"""Distances: bottleneck, labeled sup-distance, interleaving, and the
tiny-scale tripod / Gromov-Hausdorff oracles.

The bottleneck distance is exact: the optimum is one of finitely many
candidate values (half-persistences, and the pairwise sup-distances below
the larger half-persistence of their pair).  A lower bound among them is
probed first, then a binary search runs above it; each probe grows a
transport plan between the multiplicity-aggregated points by augmenting
paths, starting from the plan of the last infeasible probe.  The
brute-force oracles enumerate correspondences outright and are guarded to
tiny inputs.
"""

from __future__ import annotations

import logging
import math
import time
from bisect import bisect_right
from itertools import accumulate
from typing import NamedTuple

import numpy as np

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

# the most points a diagram may hold: the bottleneck plan counts the two
# diagrams' totals together in int64
MAX_TOTAL_MULTIPLICITY = (2**63 - 1) // 2


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
    total = sum(m for _, _, m in diagram.points)
    if total > MAX_TOTAL_MULTIPLICITY:
        raise ValueError(f"{total} points are past the {MAX_TOTAL_MULTIPLICITY} a diagram may hold")
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


def _infinite_runs(a_births, b_births) -> list[tuple[float, float, int]] | None:
    """Pair the infinite points' births in sorted order, as (x, y, count)
    runs, or None when the two sides hold different numbers of them."""
    xs, ys = sorted(a_births), sorted(b_births)
    ends_x = list(accumulate(m for _, m in xs))
    ends_y = list(accumulate(m for _, m in ys))
    if ends_x[-1:] != ends_y[-1:]:
        return None
    runs, start = [], 0
    for end in sorted(set(ends_x) | set(ends_y)):
        x, y = xs[bisect_right(ends_x, start)][0], ys[bisect_right(ends_y, start)][0]
        runs.append((x, y, end - start))
        start = end
    return runs


def _infinite_part_cost(runs) -> float:
    if runs is None:
        return math.inf
    return max((abs(x - y) for x, y, _ in runs), default=0.0)


def _augmenting_path(open_, plan, left, need) -> list[tuple[int, int, int]] | None:
    """A shortest augmenting path, as (row, column in, column out) steps
    from a column with demand left back to a row with supply left (column
    out -1), or None when the plan moves all it can.  It runs breadth-first:
    an open cell leads from a row to its column, a used cell from a column
    back to its row."""
    row_from, col_from = np.full(len(left), -1), np.full(len(need), -1)
    seen_rows, seen_cols = left > 0, np.zeros(len(need), dtype=bool)
    rows = np.flatnonzero(seen_rows)
    while True:
        reach = open_[rows] & ~seen_cols
        cols = np.flatnonzero(reach.any(axis=0))
        if not len(cols):
            return None
        col_from[cols] = rows[reach[:, cols].argmax(axis=0)]
        seen_cols[cols] = True
        sinks = cols[need[cols] > 0]
        if len(sinks):
            break
        back = (plan[:, cols] > 0) & ~seen_rows[:, None]
        rows = np.flatnonzero(back.any(axis=1))
        row_from[rows] = cols[back[rows].argmax(axis=1)]
        seen_rows[rows] = True
    path, c = [], int(sinks[0])
    while c >= 0:
        r = int(col_from[c])
        path.append((r, c, int(row_from[r])))
        c = path[-1][2]
    return path


def _plan(fa: _Finite, fb: _Finite, dist: np.ndarray, eps: float, seed: np.ndarray):
    """Transport plan of the eps-matching of the finite parts, grown from
    ``seed`` (a plan over cells open at eps); returns (plan, augmenting
    paths, whether it is complete).

    Rows are A's distinct points and B's diagonal, columns B's distinct
    points and A's diagonal.  A point supplies or demands its multiplicity,
    a diagonal the other side's total.  A cell is open when its points are
    within eps, when its point's half-persistence is (to a diagonal), or
    when both ends are diagonals.  The plan is complete, and eps feasible,
    iff it moves every supply.  A greedy pass fills it first, then
    augmenting paths complete it or prove that no plan can.
    """
    na, nb = dist.shape
    open_ = np.ones((na + 1, nb + 1), dtype=bool)
    np.less_equal(dist, eps, out=open_[:na, :nb])
    np.less_equal(fa.half, eps, out=open_[:na, nb])
    np.less_equal(fb.half, eps, out=open_[na, :nb])
    plan = seed.copy()
    left = np.append(fa.mults, fb.mults.sum()) - plan.sum(axis=1)
    need = np.append(fb.mults, fa.mults.sum()) - plan.sum(axis=0)
    for i in np.flatnonzero(left).tolist():  # greedy: open cells in order
        for j in np.flatnonzero(open_[i] & (need > 0)).tolist():
            send = min(left[i], need[j])
            plan[i, j] += send
            left[i] -= send
            need[j] -= send
            if not left[i]:
                break
    augmentations = 0
    while left.any():
        path = _augmenting_path(open_, plan, left, need)
        if path is None:
            return plan, augmentations, False
        source, sink = path[-1][0], path[0][1]
        amount = min(left[source], need[sink], *(plan[r, c] for r, _, c in path[:-1]))
        for r, c_in, _ in path:
            plan[r, c_in] += amount
        for r, _, c_out in path[:-1]:
            plan[r, c_out] -= amount
        left[source] -= amount
        need[sink] -= amount
        augmentations += 1
    return plan, augmentations, True


def bottleneck_distance(a, b) -> float:
    """Least eps admitting a matching: pairs within eps (sup-norm), every
    unmatched interval of persistence at most 2 eps.  Infinite-death
    points pair only with each other, at the cost of their birth gap.
    """
    t0 = time.perf_counter()
    fa, ia = _split(a)
    fb, ib = _split(b)
    base = _infinite_part_cost(_infinite_runs(ia, ib))
    if math.isinf(base):
        return math.inf
    dist = _sup_matrix(fa, fb)
    # a pair never decides feasibility where both its points can drop
    deciding = dist[dist < np.maximum.outer(fa.half, fb.half)]
    cands = np.unique(np.concatenate((deciding, fa.half, fb.half, [base])))
    ordered = cands[(cands >= base) & np.isfinite(cands)]
    # every point is matched or dropped, so no eps below its cheapest
    # option admits a matching; the largest such option is a candidate
    cheapest_a = np.minimum(fa.half, dist.min(axis=1, initial=math.inf))
    cheapest_b = np.minimum(fb.half, dist.min(axis=0, initial=math.inf))
    lb = float(np.max([base, cheapest_a.max(initial=base), cheapest_b.max(initial=base)]))
    if not math.isfinite(lb):
        raise RuntimeError(f"no finite eps admits a matching (lower bound {lb!r})")
    solves = augmentations = 0
    # cells only open as eps grows, so an infeasible probe's plan is a
    # valid start for every later probe, all of which lie above it
    seed = np.zeros((len(fa.mults) + 1, len(fb.mults) + 1), dtype=np.int64)

    def feasible(i: int) -> bool:
        nonlocal solves, augmentations, seed
        solves += 1
        plan, paths, complete = _plan(fa, fb, dist, ordered[i], seed)
        augmentations += paths
        if not complete:
            seed = plan
        return complete

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
            "stage=bottleneck points=%d+%d candidates=%d lb=%r solves=%d augmentations=%d ms=%.3f",
            len(fa.mults) + len(ia),
            len(fb.mults) + len(ib),
            len(ordered),
            lb,
            solves,
            augmentations,
            (time.perf_counter() - t0) * 1e3,
        )
    return d


def bottleneck_matching(a, b, eps: float) -> Matching | None:
    """Explicit eps-matching witness, or None when eps is too small."""
    fa, ia = _split(a)
    fb, ib = _split(b)
    runs = _infinite_runs(ia, ib)
    base = _infinite_part_cost(runs)
    if math.isinf(base) or base > eps:
        return None
    na, nb = len(fa.mults), len(fb.mults)
    seed = np.zeros((na + 1, nb + 1), dtype=np.int64)
    plan, _, complete = _plan(fa, fb, _sup_matrix(fa, fb), eps, seed)
    if not complete:
        return None
    points_a = list(zip(fa.births.tolist(), fa.deaths.tolist()))
    points_b = list(zip(fb.births.tolist(), fb.deaths.tolist()))
    pairs: list[tuple[Point, Point]] = [
        (points_a[i], points_b[j])
        for i, j in zip(*np.nonzero(plan[:na, :nb]))
        for _ in range(plan[i, j])
    ]
    un_a = [p for p, k in zip(points_a, plan[:na, nb].tolist()) for _ in range(k)]
    un_b = [q for q, k in zip(points_b, plan[na, :nb].tolist()) for _ in range(k)]
    pairs.extend(((x, math.inf), (y, math.inf)) for x, y, k in runs for _ in range(k))
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
    t0 = time.perf_counter()
    if a.universe != b.universe:
        raise ValueError("grams live over different universes")
    d = filtration_interleaving(filtration_from_facegram(a), filtration_from_facegram(b))
    if log.isEnabledFor(logging.DEBUG):
        log.debug(
            "stage=interleaving faces=%d+%d candidates=%d ms=%.3f",
            len(a.lifespans),
            len(b.lifespans),
            len(a.lifespans.keys() | b.lifespans.keys()),
            (time.perf_counter() - t0) * 1e3,
        )
    return d


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
