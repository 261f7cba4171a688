"""Cliquegrams, facegrams, and treegrams: leveled families of maximal faces.

A gram is a piecewise-constant, refinement-monotone map from the real line
to face-sets, stored as its change points.  Below the first critical value
the level is implicitly empty; the last level is always the whole universe
as a single face.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Sequence

import numpy as np

from .faces import (
    FaceSet,
    Graph,
    cover_graph,
    faceset_leq,
    is_pair_cover_closed,
    is_subpartition,
    maximal_cliques,
    maximal_masks,
)
from .filtrations import (
    FacegramFiltration,
    Filtration,
    PullbackFiltration,
    VRFiltration,
    all_faces,
)
from .networks import PhyloNetwork, as_ultranetwork
from .taxa import TaxaSet, bits

KINDS = ("facegram", "cliquegram", "treegram")


class Gram:
    """Leveled antichains of faces with strictly increasing critical values.

    The ``kind`` flag is a classification that is re-checked on
    construction, never trusted: treegram levels must be subpartitions and
    cliquegram levels must pass the clique-set condition.  Equality
    compares the universe and the levels; two grams with identical levels
    are the same diagram regardless of how they are classified.
    """

    __slots__ = ("universe", "levels", "kind")

    def __init__(
        self,
        universe: TaxaSet,
        levels: Iterable[tuple[float, FaceSet]],
        kind: str = "facegram",
    ):
        if kind not in KINDS:
            raise ValueError(f"unknown gram kind {kind!r}")
        lv = tuple((float(t), fs) for t, fs in levels)
        if not lv:
            raise ValueError("a gram needs at least one level")
        prev_t = None
        prev_fs = None
        for t, fs in lv:
            if not isinstance(fs, FaceSet) or fs.universe != universe:
                raise ValueError("levels must be face-sets over the gram universe")
            if not np.isfinite(t):
                raise ValueError("critical values must be finite")
            if prev_t is not None:
                if t <= prev_t:
                    raise ValueError("critical values must be strictly increasing")
                if not faceset_leq(prev_fs, fs):
                    raise ValueError(f"levels are not refinement-monotone at t={t!r}")
                if fs == prev_fs:
                    raise ValueError(f"consecutive levels at t={t!r} are identical")
            prev_t, prev_fs = t, fs
        top = lv[-1][1]
        if top.faces != (universe.full_mask,):
            raise ValueError("the last level must be the single full face")
        if kind == "treegram":
            for t, fs in lv:
                if not is_subpartition(fs):
                    raise ValueError(f"treegram level at t={t!r} is not a subpartition")
        elif kind == "cliquegram":
            for t, fs in lv:
                # subpartitions are always clique-sets; skip the clique check
                if not is_subpartition(fs) and not is_pair_cover_closed(fs):
                    raise ValueError(f"cliquegram level at t={t!r} is not a clique-set")
        self.universe = universe
        self.levels = lv
        self.kind = kind

    def __eq__(self, other: object) -> bool:
        # kind is classification metadata, not identity
        return (
            isinstance(other, Gram)
            and self.universe == other.universe
            and self.levels == other.levels
        )

    def __hash__(self) -> int:
        return hash((self.universe, self.levels))

    def __repr__(self) -> str:
        parts = ", ".join(f"{t!r}: {fs.names()!r}" for t, fs in self.levels)
        return f"Gram[{self.kind}]({parts})"

    @property
    def criticals(self) -> tuple[float, ...]:
        return tuple(t for t, _ in self.levels)

    def level_at(self, t: float) -> FaceSet:
        """Face-set at time ``t``; empty below the first critical value."""
        i = bisect.bisect_right(self.criticals, t) - 1
        if i < 0:
            return FaceSet(self.universe, ())
        return self.levels[i][1]

    def all_faces(self) -> tuple[int, ...]:
        """Every face mask appearing at any level, sorted."""
        out: set[int] = set()
        for _, fs in self.levels:
            out.update(fs.faces)
        return tuple(sorted(out))

    def with_kind(self, kind: str) -> "Gram":
        return Gram(self.universe, self.levels, kind)


def gram_leq(a: Gram, b: Gram) -> bool:
    """Pointwise refinement order, checked at the union of critical values."""
    if a.universe != b.universe:
        raise ValueError("grams live over different universes")
    for t in sorted(set(a.criticals) | set(b.criticals)):
        if not faceset_leq(a.level_at(t), b.level_at(t)):
            return False
    return True


def _coalesce(values: np.ndarray, tol: float) -> list[float]:
    """Cluster sorted values within ``tol`` of a representative; keep minima."""
    out: list[float] = []
    for v in values:
        if out and v - out[-1] <= tol:
            continue
        out.append(float(v))
    return out


def _snap_matrix(matrix: np.ndarray, reps: list[float]) -> np.ndarray:
    """Replace every entry by the representative of its value cluster."""
    reps_arr = np.array(reps)
    idx = np.searchsorted(reps_arr, matrix, side="right") - 1
    return reps_arr[idx]


def _threshold_graph(universe: TaxaSet, matrix: np.ndarray, eps: float) -> Graph:
    n = matrix.shape[0]
    diag = np.diag(matrix)
    vertex_ok = diag <= eps
    vertices = 0
    for i in np.nonzero(vertex_ok)[0]:
        vertices |= 1 << int(i)
    close = (matrix <= eps) & np.outer(vertex_ok, vertex_ok)
    np.fill_diagonal(close, False)
    adj = [0] * n
    for i, j in zip(*np.nonzero(close)):
        adj[int(i)] |= 1 << int(j)
    return Graph(universe, vertices, adj)


def _clique_levels(net: PhyloNetwork, merge_tol: float) -> list[tuple[float, FaceSet]]:
    """Sweep the sub-level graphs of ``net``: one level per change of cliques."""
    universe = net.universe
    matrix = net.matrix
    values = _coalesce(np.unique(matrix), merge_tol)
    if merge_tol > 0:
        matrix = _snap_matrix(matrix, values)
    levels: list[tuple[float, FaceSet]] = []
    for eps in values:
        fs = FaceSet(universe, maximal_cliques(_threshold_graph(universe, matrix, eps)))
        if fs.is_empty:
            continue
        if levels and levels[-1][1] == fs:
            continue
        levels.append((eps, fs))
    return levels


def cliquegram_from_network(net: PhyloNetwork, merge_tol: float = 0.0) -> Gram:
    """Maximal cliques of the sub-level graphs, one level per matrix value.

    At threshold eps the graph keeps taxa observed by eps and joins pairs
    that have coalesced by eps.  ``merge_tol`` coalesces nearly equal
    matrix values before the sweep (each cluster is represented by its
    minimum); the default keeps every distinct value.
    """
    return Gram(net.universe, _clique_levels(net, merge_tol), "cliquegram")


def network_from_cliquegram(g: Gram) -> PhyloNetwork:
    """First joint-cover times of every pair and singleton (inverse sweep)."""
    n = len(g.universe)
    m = np.full((n, n), np.nan)
    for t, fs in g.levels:
        for face in fs.faces:
            idx = list(bits(face))
            block = m[np.ix_(idx, idx)]
            block[np.isnan(block)] = t
            m[np.ix_(idx, idx)] = block
    if np.isnan(m).any():
        raise RuntimeError("cliquegram does not cover every pair")
    return PhyloNetwork(g.universe, m)


def treegram_from_ultranetwork(u: PhyloNetwork, merge_tol: float = 0.0) -> Gram:
    """Sub-level partitions of an ultranetwork (levels are equivalence classes)."""
    u = as_ultranetwork(u)
    return Gram(u.universe, _clique_levels(u, merge_tol), "treegram")


def facegram_from_filtration(f: Filtration) -> Gram:
    """Maximal faces of every sub-level family of a filtration.

    Dispatches on the backing: diameter filtrations reuse the network
    sweep, pullbacks transport the base facegram along preimages, explicit
    supports are swept directly, and only tiny universes fall back to full
    enumeration.
    """
    if isinstance(f, VRFiltration):
        return cliquegram_from_network(f.network).with_kind("facegram")
    if isinstance(f, PullbackFiltration):
        base = facegram_from_filtration(f.base)
        phi = f.phi
        levels = [
            (t, FaceSet(f.universe, (phi.preimage_mask(m) for m in fs.faces)))
            for t, fs in base.levels
        ]
        return Gram(f.universe, levels, "facegram")
    support = f.support_faces()
    if support is None:
        if len(f.universe) > 16:
            raise ValueError("no compact support known; universe too large to enumerate")
        support = tuple(all_faces(f.universe))
    return _facegram_from_support(f, support)


def _facegram_from_support(f: Filtration, support: Sequence[int]) -> Gram:
    universe = f.universe
    full = universe.full_mask
    pairs = sorted(
        {(f.value(m), m) for m in set(support) | {full}}, key=lambda p: p[0]
    )
    levels: list[tuple[float, FaceSet]] = []
    active: list[int] = []
    i = 0
    while i < len(pairs):
        t = pairs[i][0]
        while i < len(pairs) and pairs[i][0] == t:
            active.append(pairs[i][1])
            i += 1
        fs = FaceSet(universe, maximal_masks(active))
        active = list(fs.faces)
        if levels and levels[-1][1] == fs:
            continue
        levels.append((t, fs))
    return Gram(universe, levels, "facegram")


def filtration_from_facegram(g: Gram) -> FacegramFiltration:
    """Covering-time filtration of a facegram (its lattice inverse)."""
    return FacegramFiltration(g)


def join_grams(parts: Sequence[Gram], mode: str = "facegram") -> Gram:
    """Pointwise least upper bound of grams in the chosen lattice.

    ``mode="facegram"`` joins levels as face-sets (maximal faces of the
    union); ``mode="cliquegram"`` joins them as clique-sets (maximal
    cliques of the union cover graph) and requires every part level to be
    a clique-set.  Critical values are the union of the parts'.
    """
    if mode not in ("facegram", "cliquegram"):
        raise ValueError(f"unknown join mode {mode!r}")
    if not parts:
        raise ValueError("need at least one gram")
    universe = parts[0].universe
    for p in parts[1:]:
        if p.universe != universe:
            raise ValueError("grams live over different universes")
    if mode == "cliquegram":
        for p in parts:
            for t, fs in p.levels:
                if not is_subpartition(fs) and not is_pair_cover_closed(fs):
                    raise ValueError(
                        f"cliquegram join requires clique-set levels (t={t!r})"
                    )
    criticals = sorted({t for p in parts for t in p.criticals})
    levels: list[tuple[float, FaceSet]] = []
    for t in criticals:
        masks = [m for p in parts for m in p.level_at(t).faces]
        if mode == "facegram":
            fs = FaceSet(universe, maximal_masks(masks))
        else:
            fs = FaceSet(universe, maximal_cliques(cover_graph(universe, masks)))
        if fs.is_empty:
            continue
        if levels and levels[-1][1] == fs:
            continue
        levels.append((t, fs))
    return Gram(universe, levels, mode if mode in KINDS else "facegram")


def squash_to_cliquegram(g: Gram) -> Gram:
    """Per-level maximal cliques of the one-skeleton of each face-set.

    The levelwise squash is a surjective lattice morphism from facegrams
    onto cliquegrams; it commutes with joins.
    """
    levels: list[tuple[float, FaceSet]] = []
    for t, fs in g.levels:
        sq = FaceSet(g.universe, maximal_cliques(cover_graph(g.universe, fs.faces)))
        if levels and levels[-1][1] == sq:
            continue
        levels.append((t, sq))
    return Gram(g.universe, levels, "cliquegram")


def is_treegram(g: Gram) -> bool:
    """True when every level is a subpartition of the taxa."""
    return all(is_subpartition(fs) for _, fs in g.levels)
