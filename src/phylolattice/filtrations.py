"""Filtrations of the powerset of a taxa universe, pullbacks, interleaving.

A filtration assigns to every non-empty face the first time it is covered,
monotonically in the face order.  Concrete backings: diameter (Vietoris-
Rips) of a network, covering time in a facegram, a pullback along a
surjection, or an explicit table.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, Sequence

import numpy as np

from .networks import PhyloNetwork
from .taxa import TaxaSet, bits

_EXHAUSTIVE_LIMIT = 16


def all_faces(universe: TaxaSet) -> range:
    """Every non-empty face mask; exponential, guarded by callers."""
    return range(1, universe.full_mask + 1)


class Filtration(ABC):
    """Monotone map from non-empty faces to first covering times."""

    universe: TaxaSet

    @abstractmethod
    def value(self, mask: int) -> float:
        """Time at which the face enters the filtration."""

    def support_faces(self) -> tuple[int, ...] | None:
        """A face family containing every maximal face at every level.

        ``None`` means no compact support is known and callers must fall
        back to explicit enumeration.
        """
        return None

    def as_matrix(self) -> np.ndarray | None:
        """Pair/diagonal value matrix when the filtration is diameter-backed."""
        return None


class VRFiltration(Filtration):
    """Diameter filtration of a network."""

    def __init__(self, network: PhyloNetwork):
        self.network = network
        self.universe = network.universe

    def value(self, mask: int) -> float:
        return self.network.diameter(mask)

    def as_matrix(self) -> np.ndarray:
        return self.network.matrix

    def __repr__(self) -> str:
        return f"VRFiltration({self.network!r})"


class FacegramFiltration(Filtration):
    """First level of a facegram whose face-set covers the queried face."""

    def __init__(self, gram):
        self.gram = gram
        self.universe = gram.universe

    def value(self, mask: int) -> float:
        self.universe.check_face(mask)
        levels = self.gram.levels
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

    def support_faces(self) -> tuple[int, ...]:
        return self.gram.all_faces()

    def __repr__(self) -> str:
        return f"FacegramFiltration({self.gram!r})"


class TableFiltration(Filtration):
    """Explicit face-to-value table; validates monotonicity on construction."""

    def __init__(self, universe: TaxaSet, table: dict[int, float]):
        if len(universe) > _EXHAUSTIVE_LIMIT:
            raise ValueError("explicit tables are limited to small universes")
        n = len(universe)
        full = universe.full_mask
        if set(table) != set(range(1, full + 1)):
            raise ValueError("table must cover every non-empty face exactly once")
        for mask in range(1, full + 1):
            for i in range(n):
                sup = mask | (1 << i)
                if sup != mask and table[mask] > table[sup]:
                    raise ValueError(
                        f"table is not monotone: {bin(mask)} -> {bin(sup)}"
                    )
        self.universe = universe
        self.table = dict(table)

    def value(self, mask: int) -> float:
        self.universe.check_face(mask)
        return self.table[mask]


class Surjection:
    """Surjective taxa map; carries mask transport in both directions."""

    __slots__ = ("source", "target", "mapping", "_image_bit", "_preimage_bit")

    def __init__(self, source: TaxaSet, target: TaxaSet, mapping: Sequence[int]):
        mapping = tuple(mapping)
        if len(mapping) != len(source):
            raise ValueError("mapping must assign every source taxon")
        hit = 0
        for t in mapping:
            if not 0 <= t < len(target):
                raise ValueError(f"target index {t} out of range")
            hit |= 1 << t
        if hit != target.full_mask:
            raise ValueError("mapping is not surjective")
        self.source = source
        self.target = target
        self.mapping = mapping
        self._image_bit = tuple(1 << t for t in mapping)
        pre = [0] * len(target)
        for s, t in enumerate(mapping):
            pre[t] |= 1 << s
        self._preimage_bit = tuple(pre)

    @classmethod
    def from_names(
        cls, source: TaxaSet, target: TaxaSet, pairs: dict[str, str]
    ) -> "Surjection":
        mapping = [target.position(pairs[name]) for name in source.labels]
        return cls(source, target, mapping)

    def is_bijection(self) -> bool:
        return len(self.source) == len(self.target)

    def image_mask(self, mask: int) -> int:
        out = 0
        for i in bits(mask):
            out |= self._image_bit[i]
        return out

    def preimage_mask(self, mask: int) -> int:
        out = 0
        for t in bits(mask):
            out |= self._preimage_bit[t]
        return out

    def __repr__(self) -> str:
        pairs = {s: self.target.labels[t] for s, t in zip(self.source.labels, self.mapping)}
        return f"Surjection({pairs!r})"


class PullbackFiltration(Filtration):
    """Filtration transported along a surjection: value(k) = base(image(k))."""

    def __init__(self, base: Filtration, phi: Surjection):
        if phi.target != base.universe:
            raise ValueError("surjection target must match the base universe")
        self.base = base
        self.phi = phi
        self.universe = phi.source

    def value(self, mask: int) -> float:
        self.universe.check_face(mask)
        return self.base.value(self.phi.image_mask(mask))

    def support_faces(self) -> tuple[int, ...] | None:
        base_support = self.base.support_faces()
        if base_support is None:
            return None
        # maximal faces of the pulled-back complex are exactly the preimages
        return tuple(sorted({self.phi.preimage_mask(m) for m in base_support}))

    def as_matrix(self) -> np.ndarray | None:
        base = self.base.as_matrix()
        if base is None:
            return None
        idx = list(self.phi.mapping)
        return base[np.ix_(idx, idx)]


def pullback_filtration(f: Filtration, phi: Surjection) -> PullbackFiltration:
    return PullbackFiltration(f, phi)


def _candidate_faces(f: Filtration) -> tuple[int, ...]:
    support = f.support_faces()
    if support is not None:
        return support
    from .grams import facegram_from_filtration

    return facegram_from_filtration(f).all_faces()


def filtration_interleaving(f: Filtration, g: Filtration) -> float:
    """Uniform distance sup |f - g| over all non-empty faces.

    Diameter-backed pairs reduce to the entrywise matrix distance: for any
    face, the larger diameter is realized on a pair or singleton p, and the
    other filtration's value on the face dominates its value on p, so the
    supremum is attained on pairs and singletons.

    Otherwise the supremum is evaluated on the union of both facegrams'
    faces (plus their one-element extensions): for any face s, taking the
    gram with the smaller value at s, the face t realizing that covering
    (s subset of t, same value) has |f(t) - g(t)| >= |f(s) - g(s)| by
    monotonicity of the other filtration.  No 2^|X| enumeration happens.
    """
    if f.universe != g.universe:
        raise ValueError("filtrations live over different universes")
    mf, mg = f.as_matrix(), g.as_matrix()
    if mf is not None and mg is not None:
        return float(np.abs(mf - mg).max())
    n = len(f.universe)
    candidates = set(_candidate_faces(f)) | set(_candidate_faces(g))
    for m in tuple(candidates):
        for i in range(n):
            candidates.add(m | (1 << i))
    best = 0.0
    for m in candidates:
        best = max(best, abs(f.value(m) - g.value(m)))
    return best
