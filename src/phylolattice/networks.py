"""Phylogenetic networks as symmetric matrices of first coalescence times.

The diagonal entry is the observation time of a taxon; an off-diagonal
entry is the first time two taxa belong to a common entity.  Entries are
kept exactly as parsed: comparisons throughout the package are exact
float comparisons.
"""

from __future__ import annotations

import logging
import time
from itertools import islice
from typing import Iterable, Iterator, Sequence

import numpy as np

from .taxa import TaxaSet, bits

log = logging.getLogger(__name__)


class NetworkValidationError(ValueError):
    """Raised with the full list of violated matrix conditions."""

    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__("invalid network:\n  " + "\n  ".join(violations))


class PhyloNetwork:
    """Symmetric coalescence-time matrix over a taxa universe."""

    __slots__ = ("universe", "matrix")

    def __init__(self, universe: TaxaSet, matrix):
        m = np.array(matrix, dtype=float)
        n = len(universe)
        violations: list[str] = []
        if m.shape != (n, n):
            raise NetworkValidationError(
                [f"matrix shape {m.shape} does not match {n} taxa"]
            )
        if not np.isfinite(m).all():
            for i, j in zip(*np.nonzero(~np.isfinite(m))):
                violations.append(f"non-finite entry at ({universe.labels[i]},{universe.labels[j]})")
        else:
            for i, j in zip(*np.nonzero(m != m.T)):
                if i < j:
                    violations.append(
                        f"asymmetric pair ({universe.labels[i]},{universe.labels[j]}): "
                        f"{float(m[i, j])!r} vs {float(m[j, i])!r}"
                    )
            d = np.diag(m)
            bad = np.maximum.outer(d, d) > m
            np.fill_diagonal(bad, False)
            for i, j in zip(*np.nonzero(bad)):
                if i < j:
                    violations.append(
                        f"diagonal exceeds entry at ({universe.labels[i]},{universe.labels[j]}): "
                        f"max({float(d[i])!r},{float(d[j])!r}) > {float(m[i, j])!r}"
                    )
        if violations:
            raise NetworkValidationError(violations)
        m.setflags(write=False)
        self.universe = universe
        self.matrix = m

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PhyloNetwork)
            and self.universe == other.universe
            and np.array_equal(self.matrix, other.matrix)
        )

    def __hash__(self) -> int:
        return hash((self.universe, self.matrix.tobytes()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self.universe.labels)!r}, {self.matrix.tolist()!r})"

    def diameter(self, mask: int) -> float:
        """Largest entry over all (not necessarily distinct) pairs in a face."""
        self.universe.check_face(mask)
        idx = list(bits(mask))
        return float(self.matrix[np.ix_(idx, idx)].max())


class Ultranetwork(PhyloNetwork):
    """Network whose entries satisfy the strong triangle inequality.

    An ultranetwork is its dendrogram.  ``linkage`` is (order, joins):
    the taxa in an order in which every cluster is a run, and
    ``joins[k]``, the entry between ``order[k]`` and ``order[k + 1]``.
    ``diagonal`` holds the observation times.  The entry between
    ``order[i]`` and ``order[j]``, i < j, is ``max(joins[i:j])``.

    A network built from a matrix takes its linkage from the pass that
    validated it (``_single_linkage``).  One built from the triple by
    ``_from_linkage`` (a Newick tree's leaf preorder, adjacent join
    heights and leaf heights, or a clustering's merged member lists,
    merge heights and zero diagonal) builds ``matrix`` on its first read.
    """

    __slots__ = ("linkage", "diagonal")

    def __init__(self, universe: TaxaSet, matrix):
        super().__init__(universe, matrix)
        self.linkage = _single_linkage(self.matrix)
        self.diagonal = np.diag(self.matrix)
        if not _is_subdominant(self.matrix, *self.linkage):
            bad = list(islice(_strong_triangle_violations(self.matrix), 10))
            if not bad:
                raise RuntimeError("single-linkage test and triple scan disagree")
            labels = universe.labels
            violations = [
                f"strong triangle fails at ({labels[x]},{labels[y]},{labels[z]})"
                for x, y, z in bad
            ]
            raise NetworkValidationError(violations)

    @classmethod
    def _from_linkage(cls, universe: TaxaSet, order, joins, diagonal) -> "Ultranetwork":
        """The ultranetwork of a dendrogram triple, checked in O(n).

        The order must be a permutation of the taxa, every value finite,
        and each diagonal entry at most the joins beside it.  Those are
        exactly the conditions under which the matrix of range maxima is
        a valid ultranetwork: it is symmetric, every entry bounds both
        diagonal entries, and range maxima satisfy the strong triangle
        inequality.
        """
        n = len(universe)
        order = np.asarray(order, dtype=np.intp)
        joins = np.asarray(joins, dtype=float)
        diagonal = np.asarray(diagonal, dtype=float)
        if order.shape != (n,) or joins.shape != (n - 1,) or diagonal.shape != (n,):
            shapes = f"{order.shape}, {joins.shape}, {diagonal.shape}"
            raise NetworkValidationError([f"linkage shapes {shapes} do not match {n} taxa"])
        # n nonnegative integers, each counted once in n bins, are 0 .. n - 1
        if order.min() < 0 or (np.bincount(order, minlength=n) != 1).any():
            raise NetworkValidationError(["linkage order is not a permutation of the taxa"])
        labels = universe.labels
        violations = [
            f"non-finite entry at ({labels[i]},{labels[i]})"
            for i in np.flatnonzero(~np.isfinite(diagonal))
        ] + [
            f"non-finite entry at ({labels[order[k]]},{labels[order[k + 1]]})"
            for k in np.flatnonzero(~np.isfinite(joins))
        ]
        if not violations:
            d = diagonal[order]
            for k in np.flatnonzero(np.maximum(d[:-1], d[1:]) > joins):
                i, j = order[k], order[k + 1]
                violations.append(
                    f"diagonal exceeds entry at ({labels[i]},{labels[j]}): "
                    f"max({float(diagonal[i])!r},{float(diagonal[j])!r}) > {float(joins[k])!r}"
                )
        if violations:
            raise NetworkValidationError(violations)
        for a in (order, joins, diagonal):
            a.setflags(write=False)
        u = cls.__new__(cls)
        u.universe = universe
        u.linkage = (order, joins)
        u.diagonal = diagonal
        return u

    def __getattr__(self, name: str):
        # Called only when a slot is unset: ``matrix`` of a network built
        # by ``_from_linkage`` before its first read.
        if name != "matrix":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        t0 = time.perf_counter()
        m = _minimax_matrix(*self.linkage, self.diagonal)
        m.setflags(write=False)
        self.matrix = m
        if log.isEnabledFor(logging.DEBUG):
            log.debug("stage=matrix taxa=%d ms=%.3f", len(m), (time.perf_counter() - t0) * 1e3)
        return m


def _minimax_matrix(order: np.ndarray, joins: np.ndarray, diagonal: np.ndarray) -> np.ndarray:
    """The matrix of a dendrogram triple: the entry between ``order[i]``
    and ``order[j]``, i < j, is ``max(joins[i:j])``."""
    n = len(order)
    p = np.empty((n, n))  # in linkage order
    for i in range(n - 1):
        np.maximum.accumulate(joins[i:], out=p[i, i + 1 :])
        p[i + 1 :, i] = p[i, i + 1 :]
    p[np.arange(n), np.arange(n)] = diagonal[order]
    m = np.empty((n, n))
    m[np.ix_(order, order)] = p
    return m


_BLOCK_ELEMENTS = 1 << 20  # elements compared per numpy call


def _single_linkage(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Prim's minimum spanning tree over the off-diagonal entries of ``m``.

    Returns ``order``, the taxa in the order Prim takes them from taxon 0,
    and ``joins``, where ``joins[k]`` is the entry by which ``order[k + 1]``
    joined.  Every single-linkage cluster is a run of ``order`` (Prim
    finishes a cluster before it pays the larger entry that leaves it), so
    the minimax path value between ``order[i]`` and ``order[j]``, i < j,
    is ``max(joins[i:j])``.  Readers of ``Ultranetwork.linkage`` rely only
    on that: any order in which every cluster is a run will do, and Prim's
    order from taxon 0 is only the one the matrix route produces.
    """
    n = len(m)
    order = np.zeros(n, dtype=np.intp)
    joins = np.empty(n - 1)
    rest = np.arange(1, n)
    best = m[0, 1:].copy()  # cheapest entry from each remaining taxon to the tree
    for k in range(n - 1):
        i = int(best.argmin())
        j = rest[i]
        order[k + 1] = j
        joins[k] = best[i]
        last = len(best) - 1
        rest[i], best[i] = rest[last], best[last]
        rest, best = rest[:last], best[:last]
        np.minimum(best, m[j, rest], out=best)
    return order, joins


def _is_subdominant(m: np.ndarray, order: np.ndarray, joins: np.ndarray) -> bool:
    """True when every entry between two distinct taxa equals their minimax
    path value, i.e. ``m`` is its own subdominant ultrametric: this holds
    exactly for the networks that satisfy the strong triangle inequality
    (Carlsson and Memoli, JMLR 2010).  Checked in blocks of rows of the
    matrix permuted into single-linkage order."""
    n = len(m)
    tail = np.concatenate(([-np.inf], joins))  # tail[j]: order[j] joined by
    cols = np.arange(n)
    step = max(1, _BLOCK_ELEMENTS // n)
    for r0 in range(0, n - 1, step):
        rows = cols[r0 : r0 + step]
        upper = cols > rows[:, None]
        minimax = np.maximum.accumulate(np.where(upper, tail, -np.inf), axis=1)
        entries = np.where(upper, m[np.ix_(order[rows], order)], -np.inf)
        if not np.array_equal(minimax, entries):
            return False
    return True


def _strong_triangle_violations(m: np.ndarray) -> Iterator[tuple[int, int, int]]:
    """Triples breaking N(x,z) <= max(N(x,y), N(y,z)) in (x, y, z) order,
    checked in blocks of x rows so that memory stays bounded.  Cubic time:
    it words the error after ``_is_subdominant`` has found one."""
    step = max(1, _BLOCK_ELEMENTS // m.size)
    for x0 in range(0, len(m), step):
        rows = m[x0 : x0 + step]
        bad = rows[:, None, :] > np.maximum(rows[:, :, None], m[None, :, :])
        for x, y, z in np.argwhere(bad):
            yield (x0 + int(x), int(y), int(z))


def validate_network(labels: Iterable[str], rows) -> PhyloNetwork:
    """Build a network from labels and a square matrix, or raise with diagnostics."""
    return PhyloNetwork(TaxaSet(labels), rows)


def is_ultranetwork(net: PhyloNetwork) -> bool:
    """True when the network satisfies the strong triangle inequality."""
    if isinstance(net, Ultranetwork):
        return True
    return _is_subdominant(net.matrix, *_single_linkage(net.matrix))


def as_ultranetwork(net: PhyloNetwork) -> Ultranetwork:
    """Re-wrap a network after checking the strong triangle inequality."""
    if isinstance(net, Ultranetwork):
        return net
    return Ultranetwork(net.universe, net.matrix)


def vr_value(net: PhyloNetwork, mask: int) -> float:
    """Diameter of a face, the Vietoris-Rips filtration value."""
    return net.diameter(mask)


def network_join(nets: Sequence[PhyloNetwork]) -> PhyloNetwork:
    """Entrywise minimum of networks over one universe (their lattice join)."""
    if not nets:
        raise ValueError("need at least one network")
    universe = nets[0].universe
    for n in nets[1:]:
        if n.universe != universe:
            raise ValueError("networks live over different universes")
    return PhyloNetwork(universe, np.minimum.reduce([n.matrix for n in nets]))
