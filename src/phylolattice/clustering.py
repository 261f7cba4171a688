"""Agglomerative clustering to cophenetic ultrametrics.

Single linkage and UPGMA (average linkage) only; both are reducible, so
merge heights never decrease and the cophenetic matrix is ultrametric.
"""

from __future__ import annotations

import logging
import time

import numpy as np

from .networks import PhyloNetwork, Ultranetwork

log = logging.getLogger(__name__)

METHODS = ("single", "upgma")


def _rescale(merged: np.ndarray, di: np.ndarray, dj: np.ndarray, size_i: int, size_j: int):
    """Recompute the UPGMA averages whose weighted sum overflowed from
    finite operands, with both terms scaled by 2**-k, where 2**k > size_i
    + size_j, and the scale undone after the division.  Power-of-two
    scaling is exact, so each such entry gets the bits the same steps
    would give with an unbounded exponent, and no other entry changes."""
    over = np.isinf(merged) & np.isfinite(di) & np.isfinite(dj)
    scale = 2.0 ** -(size_i + size_j).bit_length()
    merged[over] = (size_i * (di[over] * scale) + size_j * (dj[over] * scale)) / (
        size_i + size_j
    ) / scale


def agglomerative_ultrametric(net: PhyloNetwork, method: str = "single") -> Ultranetwork:
    """Cophenetic ultrametric of iterative pair merging.

    Ties break toward the lexicographically smallest active index pair,
    so the result is deterministic.  The input must have a zero diagonal
    (a plain dissimilarity, not a late-observation network).

    The merges are taken on the whole matrix, with the rows and columns
    of merged-away clusters set to +inf, and the result is the dendrogram
    triple the merges build: the concatenated member lists, in which every
    cluster is a run, the merge heights between adjacent members, and a
    zero diagonal.  Its matrix is built on first read.
    """
    if method not in METHODS:
        raise ValueError(f"unknown linkage {method!r}; expected one of {METHODS}")
    if np.diag(net.matrix).any():
        raise ValueError("clustering expects a zero diagonal")
    t0 = time.perf_counter()
    universe = net.universe
    n = len(universe)
    d = net.matrix.astype(float)
    np.fill_diagonal(d, np.inf)
    size = [1] * n
    members: list[list[int]] = [[i] for i in range(n)]
    # joins[i][k]: the merge height between members[i][k] and members[i][k + 1]
    joins: list[list[float]] = [[] for _ in range(n)]
    height = 0.0
    # an UPGMA sum near the float maximum may overflow; _rescale mends it
    with np.errstate(over="ignore"):
        for step in range(n - 1):
            # the first minimum in row-major order; d is symmetric, so i < j
            i, j = divmod(int(d.argmin()), n)
            # reducible linkages keep heights monotone; the max guards float drift
            height = max(height, float(d[i, j]))
            if method == "single":
                np.minimum(d[i], d[j], out=d[i])
            else:
                merged = (size[i] * d[i] + size[j] * d[j]) / (size[i] + size[j])
                # inf at i, at j and at the columns retired by earlier steps,
                # and elsewhere only where a sum overflowed
                if np.count_nonzero(np.isinf(merged)) > step + 2:
                    _rescale(merged, d[i], d[j], size[i], size[j])
                d[i] = merged
            d[i, i] = np.inf
            d[:, i] = d[i]
            d[j] = np.inf
            d[:, j] = np.inf
            members[i] += members[j]
            joins[i] += [height, *joins[j]]
            size[i] += size[j]
    u = Ultranetwork._from_linkage(universe, members[0], joins[0], np.zeros(n))
    if log.isEnabledFor(logging.DEBUG):
        log.debug(
            "stage=cluster method=%s taxa=%d ms=%.3f",
            method,
            n,
            (time.perf_counter() - t0) * 1e3,
        )
    return u
