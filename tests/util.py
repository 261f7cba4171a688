"""Shared builders for the test suite."""

import random

import numpy as np

from phylolattice import (
    FaceSet,
    Gram,
    PhyloNetwork,
    TableFiltration,
    TaxaSet,
    Ultranetwork,
    agglomerative_ultrametric,
    all_faces,
)

ABC = "abcdefghijklmnop"

# quotes, backslashes, control characters, non-ASCII and a surrogate pair
ODD_LABELS = ('say "hi"', "back\\slash", "tab\tnew\nline\x00", "café", "漢字", "\u2028", "🦎")


def taxa(n: int) -> TaxaSet:
    return TaxaSet(ABC[:n])


def random_dissimilarity(universe: TaxaSet, rng: random.Random, lo=0.0, hi=1.0) -> PhyloNetwork:
    n = len(universe)
    m = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            m[i, j] = m[j, i] = rng.uniform(lo, hi)
    return PhyloNetwork(universe, m)


def random_network(universe: TaxaSet, rng: random.Random, late=False) -> PhyloNetwork:
    """General network: optional positive diagonal under every row bound."""
    n = len(universe)
    diag = [rng.uniform(0.0, 0.3) if late else 0.0 for _ in range(n)]
    m = np.zeros((n, n))
    for i in range(n):
        m[i, i] = diag[i]
        for j in range(i + 1, n):
            m[i, j] = m[j, i] = max(diag[i], diag[j]) + rng.uniform(0.0, 1.0)
    return PhyloNetwork(universe, m)


def random_ultrametric(universe: TaxaSet, rng: random.Random, late=False) -> Ultranetwork:
    u = agglomerative_ultrametric(random_dissimilarity(universe, rng), "single")
    if not late:
        return u
    m = u.matrix.copy()
    n = len(universe)
    for i in range(n):
        row_min = min(m[i, j] for j in range(n) if j != i) if n > 1 else 1.0
        m[i, i] = rng.uniform(0.0, row_min)
    return Ultranetwork(universe, m)


def gram_of(ts: TaxaSet, levels, kind="facegram") -> Gram:
    return Gram(ts, [(t, FaceSet.from_names(ts, fs)) for t, fs in levels], kind)


def with_empty_first_level(g: Gram) -> Gram:
    """The same diagram with an explicit empty level one unit before its
    first critical value."""
    empty = FaceSet(g.universe, ())
    return Gram(g.universe, [(g.criticals[0] - 1.0, empty), *g.levels], g.kind)


def random_monotone_table(ts, rng):
    """Monotone filtration on all faces: running max of i.i.d. face weights."""
    raw = {m: round(rng.uniform(0, 2), 3) for m in all_faces(ts)}
    value = {}
    for m in sorted(raw):  # subsets of m are numerically smaller
        v = raw[m]
        sub = (m - 1) & m
        while sub:
            v = max(v, value[sub])
            sub = (sub - 1) & m
        value[m] = v
    return TableFiltration(ts, value)


def caterpillar_newick(n: int) -> str:
    """One-line Newick text of an n-leaf caterpillar: taxon i joins at height i."""
    text = "t0000:1"
    for i in range(1, n):
        text = f"({text},t{i:04d}:{i})" + (":1" if i < n - 1 else "")
    return text + ";\n"


def balanced_newick(n: int) -> str:
    """One-line Newick text of a balanced binary tree with unit branches."""

    def clade(lo: int, hi: int) -> str:
        if hi - lo == 1:
            return f"t{lo:04d}"
        mid = (lo + hi) // 2
        return f"({clade(lo, mid)},{clade(mid, hi)})"

    return clade(0, n) + ";\n"


def _length(rng: random.Random) -> str:
    """A branch length suffix: missing, zero, a quarter (ties) or a float."""
    r = rng.random()
    if r < 0.2:
        return ""
    if r < 0.35:
        return ":0"
    if r < 0.7:
        return f":{rng.randint(0, 8) / 4!r}"
    return f":{rng.uniform(0.0, 3.0)!r}"


def random_names(rng: random.Random, n: int) -> list[str]:
    return [f"x{i}" for i in rng.sample(range(100), n)]


def random_newick(rng: random.Random, names) -> str:
    """A random tree over ``names``: nodes of two to four children, so
    multifurcations; zero, missing and tied lengths; leaves at different
    depths, so late observation."""
    nodes = [name + _length(rng) for name in names]
    rng.shuffle(nodes)
    while len(nodes) > 1:
        k = min(len(nodes), rng.choice((2, 2, 3, 4)))
        at = rng.randrange(len(nodes) - k + 1)
        group = nodes[at : at + k]
        nodes[at : at + k] = ["(" + ",".join(group) + ")" + _length(rng)]
    return nodes[0] + ";"
