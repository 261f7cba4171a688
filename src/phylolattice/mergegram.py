"""Mergegrams, labeled mergegrams, and zero-dimensional persistence.

The labeled mergegram records, for each face that is ever maximal in a
gram, the half-open window during which it is maximal; a ``Gram`` keeps
that record from its construction.  Forgetting labels gives the mergegram
multiset.  Tree joins admit a direct computation that never materializes
the joined gram.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .filtrations import Filtration
from .grams import (
    Gram,
    Interval,
    _facegram_from_support,
    facegram_from_filtration,
    treegram_from_ultranetwork,
)
from .networks import PhyloNetwork, as_ultranetwork
from .taxa import TaxaSet, bits


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
        for mask, iv in entries.items():
            universe.check_face(mask)
            if not iv.birth < iv.death:
                raise ValueError(
                    f"degenerate lifespan {iv!r} for face {universe.names_of(mask)!r}"
                )
        self.universe = universe
        self.entries = dict(entries)

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
    return labeled_mergegram(_facegram_from_support(f, support))


def mergegram_of_filtration(
    f: Filtration, support: Sequence[int] | None = None
) -> Mergegram:
    return labeled_mergegram_of_filtration(f, support).unlabeled()


def _tree_candidates(ultras: Sequence[PhyloNetwork]) -> list[int]:
    faces: set[int] = set()
    for u in ultras:
        faces.update(treegram_from_ultranetwork(u).all_faces())
    return sorted(faces, key=lambda m: (m.bit_count(), m))


def join_mergegram_of_treegrams(ultras: Sequence[PhyloNetwork]) -> LabeledMergegram:
    """Labeled mergegram of the facegram join of treegrams, without the join.

    Candidate faces are those of the individual treegrams; the join adds
    no others.  Each face's window is read straight off the stacked
    matrices: the birth is the smallest diameter over the trees, and the
    death is the smallest over trees and outside taxa of the worst
    coalescence time into the face (the strong triangle inequality makes
    that the exact covering time of every one-element extension).
    """
    if not ultras:
        raise ValueError("need at least one ultranetwork")
    ultras = [as_ultranetwork(u) for u in ultras]
    universe = ultras[0].universe
    for u in ultras[1:]:
        if u.universe != universe:
            raise ValueError("ultranetworks live over different universes")
    n = len(universe)
    full = universe.full_mask
    stack = np.stack([u.matrix for u in ultras])  # (trees, n, n)
    cands = _tree_candidates(ultras)

    entries: dict[int, Interval] = {}
    for m in cands:
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


def gram_from_labeled_mergegram(lm: LabeledMergegram, kind: str = "facegram") -> Gram:
    """Rebuild the gram whose levels are the faces alive at each time.

    The labeled mergegram is a complete invariant: the level at t is the
    set of faces whose window contains t.
    """
    criticals = sorted(
        {iv.birth for iv in lm.entries.values()}
        | {iv.death for iv in lm.entries.values() if math.isfinite(iv.death)}
    )
    from .faces import FaceSet

    levels: list[tuple[float, FaceSet]] = []
    for t in criticals:
        fs = FaceSet(lm.universe, lm.alive_at(t))
        if fs.is_empty:
            continue
        if levels and levels[-1][1] == fs:
            continue
        levels.append((t, fs))
    return Gram(lm.universe, levels, kind)


def ph0_elder(u: PhyloNetwork) -> PersistenceDiagram:
    """Zero-dimensional persistence of an ultrametric's sub-level components.

    Every taxon is born at 0; each merge of the single-linkage pass kills
    one component at the merge value (which component survives, the
    elder rule's choice, does not change the multiset), and the surviving
    component never dies.
    """
    u = as_ultranetwork(u)
    if np.diag(u.matrix).any():
        raise ValueError("zero-dimensional persistence expects a zero diagonal")
    _, joins = u.linkage
    return PersistenceDiagram([(0.0, float(v)) for v in joins] + [(0.0, math.inf)])
