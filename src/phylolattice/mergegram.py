"""Mergegrams, labeled mergegrams, and zero-dimensional persistence.

The labeled mergegram records, for each face that is ever maximal in a
gram, the half-open window during which it is maximal; a ``Gram`` keeps
that record from its construction.  Forgetting labels gives the mergegram
multiset.  Tree joins admit a direct computation that never materializes
the joined gram.
"""

from __future__ import annotations

import logging
import math
import time
from typing import Iterable, Sequence

import numpy as np

from .filtrations import Filtration
from .grams import Gram, Interval, _facegram_of_births, facegram_from_filtration
from .networks import PhyloNetwork, as_ultranetwork
from .taxa import TaxaSet

log = logging.getLogger(__name__)


def _canonical_points(
    points: Iterable[tuple], strict: bool
) -> tuple[tuple[float, float, int], ...]:
    counts: dict[tuple[float, float], int] = {}
    for p in points:
        if len(p) == 3:
            b, d, mult = p
        else:
            b, d = p
            mult = 1
        b, d = float(b), float(d)
        if isinstance(mult, bool) or not isinstance(mult, (int, np.integer)):
            raise ValueError(f"multiplicities must be integers, got {mult!r}")
        if mult <= 0:
            raise ValueError("multiplicities must be positive")
        if strict and not b < d:
            raise ValueError(f"degenerate interval [{b!r}, {d!r})")
        if not strict and not b <= d:
            raise ValueError(f"inverted point ({b!r}, {d!r})")
        key = (b, d)
        counts[key] = counts.get(key, 0) + int(mult)
    return tuple((b, d, m) for (b, d), m in sorted(counts.items()))


class _IntervalMultiset:
    __slots__ = ("points",)
    _strict = True

    def __init__(self, points: Iterable[tuple] = ()):
        self.points = _canonical_points(points, self._strict)

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self.points == other.points

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.points))

    def __len__(self) -> int:
        return sum(m for _, _, m in self.points)

    def __iter__(self):
        return iter(self.points)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self.points)!r})"

    @property
    def is_empty(self) -> bool:
        return not self.points


class Mergegram(_IntervalMultiset):
    """Multiset of non-degenerate half-open intervals with multiplicities."""

    _strict = True


class PersistenceDiagram(_IntervalMultiset):
    """Multiset of birth/death points; degenerate points are allowed."""

    _strict = False


class LabeledMergegram:
    """Face-to-lifespan map of a gram; at most one interval per face."""

    __slots__ = ("universe", "entries")

    def __init__(self, universe: TaxaSet, entries: dict[int, Interval]):
        stored: dict[int, Interval] = {}
        for mask, iv in entries.items():
            universe.check_face(mask)
            # equal values must be equal floats, so that they write equal text
            if not (type(iv) is Interval and type(iv.birth) is type(iv.death) is float):
                try:
                    birth, death = iv
                    iv = Interval(float(birth), float(death))
                except (TypeError, ValueError):
                    raise ValueError(
                        f"lifespan of face {universe.names_of(mask)!r} must be a "
                        f"(birth, death) pair, got {iv!r}"
                    ) from None
            if not iv.birth < iv.death:
                raise ValueError(
                    f"degenerate lifespan {iv!r} for face {universe.names_of(mask)!r}"
                )
            stored[mask] = iv
        self.universe = universe
        self.entries = stored

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LabeledMergegram)
            and self.universe == other.universe
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.universe, tuple(sorted(self.entries.items()))))

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        items = ", ".join(
            f"{self.universe.names_of(m)!r}: [{iv.birth!r},{iv.death!r})"
            for m, iv in self.sorted_entries()
        )
        return f"LabeledMergegram({items})"

    def sorted_entries(self) -> list[tuple[int, Interval]]:
        return sorted(self.entries.items(), key=lambda kv: (kv[1], kv[0]))

    def unlabeled(self) -> Mergegram:
        return Mergegram((iv.birth, iv.death) for iv in self.entries.values())

    def alive_at(self, t: float) -> tuple[int, ...]:
        if math.isnan(t):
            raise ValueError(f"no faces are alive at t={t!r}")
        return tuple(
            sorted(m for m, iv in self.entries.items() if iv.birth <= t < iv.death)
        )


def labeled_mergegram(g: Gram) -> LabeledMergegram:
    """The lifespans the gram recorded while validating its levels."""
    return LabeledMergegram(g.universe, g.lifespans)


def mergegram(g: Gram) -> Mergegram:
    return labeled_mergegram(g).unlabeled()


def labeled_mergegram_of_filtration(
    f: Filtration, support: Sequence[int] | None = None
) -> LabeledMergegram:
    """Lifespans of the filtration's facegram.

    ``support`` must contain every face that is ever maximal; when omitted
    the facegram comes from ``facegram_from_filtration``.
    """
    if support is None:
        return labeled_mergegram(facegram_from_filtration(f))
    births = ((f.value(m), m) for m in {*support, f.universe.full_mask})
    return labeled_mergegram(_facegram_of_births(f.universe, births))


def mergegram_of_filtration(
    f: Filtration, support: Sequence[int] | None = None
) -> Mergegram:
    return labeled_mergegram_of_filtration(f, support).unlabeled()


def _range_table(x: np.ndarray, op) -> np.ndarray:
    """Sparse table over the last axis of ``x``: ``table[k, ..., i]`` is
    ``op`` reduced over ``x[..., i : i + 2**k]`` (clipped at the end), so a
    range of length r is ``op`` of two entries at level floor(log2 r)."""
    levels = [x]
    w = 1
    while 2 * w <= x.shape[-1]:
        prev = levels[-1]
        nxt = prev.copy()
        op(prev[..., :-w], prev[..., w:], out=nxt[..., :-w])
        levels.append(nxt)
        w *= 2
    return np.stack(levels)


def _range(table: np.ndarray, op, rows: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """``op`` over ``x[rows, lo : hi + 1]`` of the table's array, elementwise
    over the broadcast query arrays; every range must be nonempty."""
    k = np.frexp(hi - lo + 1)[1] - 1  # floor(log2(length)), exact on integers
    return op(table[k, rows, lo], table[k, rows, hi + 1 - (1 << k)])


def _new_runs(order: list[int], joins: np.ndarray, seen: set[int]):
    """The runs of ``order`` that the single-linkage merges create, taken in
    (join, position) order, plus the singletons; only masks not in ``seen``
    are returned (as first and last positions and masks) and added to it."""
    n = len(order)
    mask = [1 << i for i in order]  # run start -> face mask
    first, last, masks = [], [], []
    for p, m in enumerate(mask):
        if m not in seen:
            seen.add(m)
            first.append(p)
            last.append(p)
            masks.append(m)
    end = list(range(n))  # run start -> its last position
    start = list(range(n))  # last position of a run -> its start
    for k in (np.argsort(joins, kind="stable") + 1).tolist():
        a, b = start[k - 1], end[k]  # the run ending at k - 1 meets the one at k
        end[a], start[b] = b, a
        mask[a] |= mask[k]
        if mask[a] not in seen:
            seen.add(mask[a])
            first.append(a)
            last.append(b)
            masks.append(mask[a])
    return np.array(first, dtype=np.intp), np.array(last, dtype=np.intp), masks


def join_mergegram_of_treegrams(ultras: Sequence[PhyloNetwork]) -> LabeledMergegram:
    """Labeled mergegram of the facegram join of treegrams, without the join.

    Every face of the join is a face of some treegram, hence a run of that
    tree's linkage order; the candidates are all runs the merges
    create.  A face m is maximal in the join at t iff birth <= t < death,
    where the birth is the smallest diameter of m over the trees and the
    death the smallest over trees of ``min_{x not in m} max_{i in m} U(i, x)``
    (the strong triangle inequality makes that the exact covering time of
    every one-element extension); a candidate with birth >= death is not a
    face.

    In tree l, with m's positions spanning [lo, hi] and J the joins between
    adjacent positions, the diameter of m is ``span = max(J[lo:hi])`` (or
    the diagonal entry of a singleton).  If m leaves a gap in [lo, hi] a
    taxon inside it joins m at ``span``; otherwise the nearest outside
    taxa are at lo - 1 and hi + 1, which join at ``max(span, J[lo - 1])``
    and ``max(span, J[hi])``.  All ranges are read from sparse tables over
    the linkage, and singletons from ``diagonal``, so no matrix is read.
    """
    t0 = time.perf_counter()
    if not ultras:
        raise ValueError("need at least one ultranetwork")
    ultras = [as_ultranetwork(u) for u in ultras]
    universe = ultras[0].universe
    for u in ultras[1:]:
        if u.universe != universe:
            raise ValueError("ultranetworks live over different universes")
    n, trees = len(universe), len(ultras)
    rows = np.arange(trees)[:, None]
    orders = np.array([u.linkage[0] for u in ultras])  # (trees, n)
    diags = np.array([u.diagonal for u in ultras])
    pos = np.empty_like(orders)  # pos[l, i]: position of taxon i in tree l
    pos[rows, orders] = np.arange(n)
    # gaps[l, k]: the join between positions k - 1 and k, inf past either end
    gaps = np.full((trees, n + 1), math.inf)
    gaps[:, 1:n] = [u.linkage[1] for u in ultras]
    gap_max = _range_table(gaps, np.maximum)

    seen: set[int] = set()
    entries: dict[int, Interval] = {}
    for s, u in enumerate(ultras):
        a, b, masks = _new_runs(orders[s].tolist(), u.linkage[1], seen)
        if not masks:
            continue
        at = pos[:, orders[s]]  # positions, in every tree, of s's order
        lo = _range(_range_table(at, np.minimum), np.minimum, rows, a, b)
        hi = _range(_range_table(at, np.maximum), np.maximum, rows, a, b)
        inner = hi > lo
        span = np.where(
            inner,
            _range(gap_max, np.maximum, rows, lo + 1, np.maximum(hi, lo + 1)),
            -math.inf,
        )
        diam = np.where(inner, span, diags[:, orders[s][a]])
        fills = hi - lo == b - a
        sides = np.minimum(
            np.maximum(span, gaps[rows, lo]), np.maximum(span, gaps[rows, hi + 1])
        )
        births = diam.min(axis=0).tolist()
        deaths = np.where(fills, sides, span).min(axis=0).tolist()
        for m, birth, death in zip(masks, births, deaths):
            if birth < death:
                entries[m] = Interval(birth, death)
    lm = LabeledMergegram(universe, entries)
    if log.isEnabledFor(logging.DEBUG):
        log.debug(
            "stage=fast_join taxa=%d trees=%d candidates=%d entries=%d ms=%.3f",
            n,
            trees,
            len(seen),
            len(entries),
            (time.perf_counter() - t0) * 1e3,
        )
    return lm


def gram_from_labeled_mergegram(lm: LabeledMergegram, kind: str = "facegram") -> Gram:
    """Rebuild the gram whose levels are the faces alive at each time.

    The labeled mergegram is a complete invariant: the level at t is the
    set of faces whose window contains t, which is the maximal faces born
    by t.  Entries that are not the lifespans of any gram are refused.
    """
    births = ((iv.birth, m) for m, iv in lm.entries.items())
    g = _facegram_of_births(lm.universe, births, kind)
    if g.lifespans != lm.entries:
        mask, iv = next((m, iv) for m, iv in lm.sorted_entries() if g.lifespans.get(m) != iv)
        got = g.lifespans.get(mask)
        where = f"lives on [{got.birth!r}, {got.death!r})" if got else "is never maximal"
        raise ValueError(
            f"not the lifespans of a gram: face {lm.universe.names_of(mask)!r} has "
            f"[{iv.birth!r}, {iv.death!r}) but {where} in the gram its births make"
        )
    return g


def ph0_elder(u: PhyloNetwork) -> PersistenceDiagram:
    """Zero-dimensional persistence of an ultrametric's sub-level components.

    Every taxon is born at 0; each merge of the single-linkage pass kills
    one component at the merge value (which component survives, the
    elder rule's choice, does not change the multiset), and the surviving
    component never dies.
    """
    u = as_ultranetwork(u)
    if u.diagonal.any():
        raise ValueError("zero-dimensional persistence expects a zero diagonal")
    _, joins = u.linkage
    return PersistenceDiagram([(0.0, float(v)) for v in joins] + [(0.0, math.inf)])
