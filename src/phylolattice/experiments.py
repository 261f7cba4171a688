"""Seeded random treegram families and the bottleneck-progression study."""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .clustering import METHODS, agglomerative_ultrametric
from .grams import Gram, gram_leq, join_grams, treegram_from_ultranetwork
from .mergegram import mergegram
from .metrics import bottleneck_distance
from .networks import PhyloNetwork, Ultranetwork
from .taxa import TaxaSet


@dataclass(frozen=True)
class ExperimentConfig:
    taxa: int
    trees: int
    seed: int = 0
    method: str = "upgma"

    def __post_init__(self):
        if self.taxa < 1:
            raise ValueError("need at least one taxon")
        if self.trees < 1:
            raise ValueError("need at least one tree")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")


def default_taxa(n: int) -> TaxaSet:
    width = len(str(n - 1)) if n > 1 else 1
    return TaxaSet(f"t{i:0{width}d}" for i in range(n))


def random_dissimilarity(universe: TaxaSet, rng: random.Random) -> PhyloNetwork:
    """Zero diagonal, i.i.d. uniform(0,1) off-diagonal entries."""
    n = len(universe)
    m = np.zeros((n, n))
    # drawn in row-major order over the pairs i < j, as triu_indices lists them
    upper = np.triu_indices(n, 1)
    m[upper] = m.T[upper] = [rng.random() for _ in range(len(upper[0]))]
    return PhyloNetwork(universe, m)


def gen_random_treegrams(cfg: ExperimentConfig) -> list[Ultranetwork]:
    """Agglomerations of seeded random matrices; bit-stable under the seed."""
    rng = random.Random(cfg.seed)
    universe = default_taxa(cfg.taxa)
    return [
        agglomerative_ultrametric(random_dissimilarity(universe, rng), cfg.method)
        for _ in range(cfg.trees)
    ]


def partial_joins(grams: list[Gram], mode: str) -> list[Gram]:
    """Running joins g_1, g_1 v g_2, ...; raises if a step fails to grow."""
    out: list[Gram] = []
    acc: Gram | None = None
    for g in grams:
        acc = g if acc is None else join_grams([acc, g], mode)
        if out and not gram_leq(out[-1], acc):
            raise RuntimeError("partial joins stopped being monotone")
        out.append(acc)
    return out


def bottleneck_progression(
    trees: list[PhyloNetwork], mode: str = "facegram"
) -> list[tuple[int, float]]:
    """Rows (k, d_B(mergegram of the first-k join, mergegram of the full
    join)) for k = 1..len(trees); the last row is identically zero."""
    grams = [treegram_from_ultranetwork(u) for u in trees]
    joins = partial_joins(grams, mode)
    mgms = [mergegram(g) for g in joins]
    return [(k + 1, bottleneck_distance(m, mgms[-1])) for k, m in enumerate(mgms)]
