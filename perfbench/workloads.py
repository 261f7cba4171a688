"""The four benchmark workloads: seeded inputs, requests and output checks.

Every workload has a fixed catalog of keys, one per (size class, variant).
A key seeds its own ``random.Random``, so the text it generates, and the
output the program must produce for it, do not depend on the run.  That
is what lets ``digests.json`` hold the reference output digest of every
key.  The run seed picks which variants of each class a run uses and the
order of its requests.

A request makes the public calls of the CLI handler it mirrors, on text
only, and routes each through the tracer so a traced run can time it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from phylolattice import (
    PhyloNetwork,
    agglomerative_ultrametric,
    bottleneck_distance,
    cliquegram_from_network,
    face_reeb_graph,
    facegram_interleaving,
    gram_json,
    gram_leq,
    is_ultranetwork,
    join_grams,
    join_mergegram_of_treegrams,
    labeled_mergegram,
    labeled_mergegram_json,
    mergegram,
    mergegram_json,
    network_from_cliquegram,
    newick_from_ultranetwork,
    parse_gram_json,
    parse_matrix_csv,
    parse_mergegram_json,
    parse_newick,
    partial_joins,
    reeb_dot,
    serialize_matrix_csv,
    treegram_from_ultranetwork,
    ultranetwork_from_newick,
)
from phylolattice.experiments import default_taxa, random_dissimilarity

# relative spread of the entries of a related family around its base matrix
RELATED_JITTER = 0.1


@dataclass
class Item:
    key: str
    # requests are interleaved across groups, so any stretch of a run
    # holds every group in the same proportion
    group: str
    data: tuple


def tree_family_newick(rng, n, trees, method, related, t) -> str:
    """Newick text of agglomerative trees over seeded random matrices.

    A related family perturbs one base matrix, so its trees share most
    clades; an independent family draws every matrix afresh.
    """
    universe = default_taxa(n)
    base = random_dissimilarity(universe, rng).matrix if related else None
    lines = []
    for _ in range(trees):
        if related:
            m = base.copy()
            for i in range(n):
                for j in range(i + 1, n):
                    m[i, j] = m[j, i] = base[i, j] * (
                        1 + RELATED_JITTER * (rng.random() - 0.5)
                    )
            net = PhyloNetwork(universe, m)
        else:
            net = random_dissimilarity(universe, rng)
        u = t.call(
            "clustering.agglomerative_ultrametric", agglomerative_ultrametric, net, method
        )
        lines.append(newick_from_ultranetwork(u))
    return "\n".join(lines) + "\n"


def network_csv(rng, n, late) -> str:
    """CSV of a random dissimilarity network; with ``late``, about half the
    taxa get a positive observation time on the diagonal."""
    m = random_dissimilarity(default_taxa(n), rng).matrix.copy()
    if late:
        diag = [rng.random() * 0.5 if rng.random() < 0.5 else 0.0 for _ in range(n)]
        for i in range(n):
            m[i, i] = diag[i]
            for j in range(i + 1, n):
                m[i, j] = m[j, i] = max(m[i, j], diag[i], diag[j])
    return serialize_matrix_csv(PhyloNetwork(default_taxa(n), m))


def load_trees(text, t):
    """``_load_trees`` of the CLI: parse, convert, require one taxa set."""
    trees = t.call("newick.parse_newick", parse_newick, text)
    ultras = [
        t.call("newick.ultranetwork_from_newick", ultranetwork_from_newick, tr)
        for tr in trees
    ]
    if not ultras or any(u.universe != ultras[0].universe for u in ultras):
        raise ValueError("trees cover different taxa sets")
    return ultras


def gram_counts(g, lm, gj) -> dict[str, int]:
    return {
        "grams.levels": len(g.levels),
        "grams.level_faces": sum(len(fs.faces) for _, fs in g.levels),
        "mergegram.entries": len(lm),
        "formats.gram_json.bytes": len(gj.encode()),
    }


class Workload:
    name = ""
    why = ""
    # one label per size class; a class is the dict of its parameters
    classes: dict[str, dict] = {}
    variants = 1  # variants per class in the catalog
    per_class = 1  # variants of each class one run uses

    def rng(self, label, v) -> random.Random:
        return random.Random(f"{self.name}/{label}/v{v}")

    def picks(self, seed) -> list[tuple[str, int]]:
        rng = random.Random(seed)
        return [
            (label, v)
            for label in self.classes
            for v in sorted(rng.sample(range(self.variants), self.per_class))
        ]

    def catalog(self) -> list[tuple[str, int]]:
        return [(label, v) for label in self.classes for v in range(self.variants)]

    def setup(self, picks, t) -> list[Item]:
        """Generate (and precompute) the items of the picked variants."""
        raise NotImplementedError

    def request(self, item, t):
        raise NotImplementedError

    def digest_text(self, item, out) -> str:
        """Canonical text of a request's output, built outside the timing."""
        raise NotImplementedError

    def check(self, item, out) -> str | None:
        """A description of what is wrong with the output, or None."""
        return None

    def counts(self, item, out, cache) -> dict[str, int]:
        """Sizes at the layer boundaries, computed outside the timing.
        ``cache`` holds per-key values that are costly to recompute."""
        return {}


def tree_families(w, picks, t):
    """(label, variant, class, Newick text) of each picked tree family."""
    for label, v in picks:
        c = w.classes[label]
        text = tree_family_newick(
            w.rng(label, v), c["n"], c["L"], c["method"], c["related"], t
        )
        yield label, v, c, text


class FastJoin(Workload):
    name = "fast-join"
    why = (
        "mergegram --fast-tree-join --labeled on Newick families: the tree layer "
        "and join_mergegram_of_treegrams do the work; no Gram join, no metric"
    )
    classes = {
        f"n{n}-L{L}-{method}-{'rel' if rel else 'ind'}": dict(
            n=n, L=L, method=method, related=rel
        )
        for n, L, method, rel in [
            (24, 4, "single", False),
            (24, 8, "upgma", False),
            (24, 16, "upgma", True),
            (32, 4, "single", True),
            (32, 8, "upgma", True),
            (40, 4, "upgma", True),
            (48, 4, "upgma", True),
            (64, 4, "upgma", True),
        ]
    }
    variants = 8
    per_class = 6
    check_max_n = 32  # larger joins are too slow to materialize as a check

    def setup(self, picks, t):
        return [
            Item(f"{label}/v{v}", label, (text,))
            for label, v, c, text in tree_families(self, picks, t)
        ]

    def request(self, item, t):
        ultras = load_trees(item.data[0], t)
        lm = t.call(
            "mergegram.join_mergegram_of_treegrams", join_mergegram_of_treegrams, ultras
        )
        text = t.call("formats.labeled_mergegram_json", labeled_mergegram_json, lm)
        return ultras, lm, text

    def digest_text(self, item, out):
        return out[2]

    def check(self, item, out):
        ultras, lm, _ = out
        if len(ultras[0].universe) > self.check_max_n:
            return None
        parts = [treegram_from_ultranetwork(u) for u in ultras]
        if labeled_mergegram(join_grams(parts, "facegram")) != lm:
            return "fast tree join differs from the labeled mergegram of the join"
        return None

    def counts(self, item, out, cache):
        ultras, lm, _ = out
        if item.key not in cache:
            faces = set()
            for u in ultras:
                faces.update(treegram_from_ultranetwork(u).all_faces())
            cache[item.key] = len(faces)
        return {"mergegram.entries": len(lm), "mergegram.candidates": cache[item.key]}


class LatticeJoin(Workload):
    name = "lattice-join"
    why = (
        "join + mergegram --labeled + reeb: treegrams, the per-level Gram join in "
        "both lattices, Reeb graph and JSON/DOT writes that fast-join bypasses"
    )
    classes = {
        f"n{n}-L{L}-{mode[0]}-{method}-{'rel' if rel else 'ind'}": dict(
            n=n, L=L, mode=mode, method=method, related=rel
        )
        for n, L, mode, method, rel in [
            (16, 8, "facegram", "upgma", False),
            (24, 4, "facegram", "single", True),
            (24, 8, "facegram", "upgma", True),
            (32, 4, "facegram", "upgma", False),
            (16, 4, "cliquegram", "single", False),
            (16, 8, "cliquegram", "upgma", True),
            (24, 4, "cliquegram", "upgma", False),
            (24, 8, "cliquegram", "single", True),
        ]
    }
    variants = 8
    per_class = 6

    def setup(self, picks, t):
        return [
            Item(f"{label}/v{v}", label, (text, c["mode"]))
            for label, v, c, text in tree_families(self, picks, t)
        ]

    def request(self, item, t):
        text, mode = item.data
        ultras = load_trees(text, t)
        parts = [
            t.call("grams.treegram_from_ultranetwork", treegram_from_ultranetwork, u)
            for u in ultras
        ]
        join = t.call("grams.join_grams", join_grams, parts, mode)
        lm = t.call("mergegram.labeled_mergegram", labeled_mergegram, join)
        reeb = t.call("reeb.face_reeb_graph", face_reeb_graph, join)
        gj = t.call("formats.gram_json", gram_json, join)
        lmj = t.call("formats.labeled_mergegram_json", labeled_mergegram_json, lm)
        dot = t.call("formats.reeb_dot", reeb_dot, reeb)
        return parts, join, lm, gj, lmj, dot

    def digest_text(self, item, out):
        return "".join(out[3:])

    def check(self, item, out):
        parts, join = out[0], out[1]
        if not all(gram_leq(p, join) for p in parts):
            return "a part is not below the join"
        return None

    def counts(self, item, out, cache):
        return gram_counts(out[1], out[2], out[3])


class Progression(Workload):
    name = "progression"
    why = (
        "rows of experiment bottleneck-progression: dist --metric bottleneck and "
        "interleaving between the k-th and final partial joins; metrics dominate"
    )
    # n=12 has two families, so that p50 and p90 fall among the n=12 rows
    # and not in the gap between the cheaper n=10 rows and the n=12 rows.
    classes = {"n10": dict(n=10), "n12": dict(n=12), "n12b": dict(n=12)}
    family_size = 21
    modes = ("facegram", "cliquegram")
    # Fixed families: the cost of a family's rows varies by about a third
    # from one family to the next, and set-up cannot build enough of them
    # to average that out, so the seed orders the rows but picks no family.
    variants = 1
    per_class = 1

    def setup(self, picks, t):
        items = []
        for label, v in picks:
            c = self.classes[label]
            text = tree_family_newick(
                self.rng(label, v), c["n"], self.family_size, "upgma", False, t
            )
            ultras = load_trees(text, t)
            grams = [
                t.call("grams.treegram_from_ultranetwork", treegram_from_ultranetwork, u)
                for u in ultras
            ]
            for mode in self.modes:
                joins = t.call("experiments.partial_joins", partial_joins, grams, mode)
                mgj = [
                    t.call("formats.mergegram_json", mergegram_json, mergegram(g))
                    for g in joins
                ]
                gj = [t.call("formats.gram_json", gram_json, g) for g in joins]
                last = len(joins) - 1
                items.extend(
                    Item(
                        f"{label}/v{v}/{mode}/k{k + 1:02d}",
                        # row cost changes with k: deal early, middle and
                        # late rows of every series evenly
                        f"{label}/v{v}/{mode}/{3 * k // len(joins)}",
                        (mgj[k], mgj[last], gj[k], gj[last], k == last),
                    )
                    for k in range(len(joins))
                )
        return items

    def request(self, item, t):
        mk, mf, gk, gf, _ = item.data
        a = t.call("formats.parse_mergegram_json", parse_mergegram_json, mk)
        b = t.call("formats.parse_mergegram_json", parse_mergegram_json, mf)
        d = t.call("metrics.bottleneck_distance", bottleneck_distance, a, b)
        ga = t.call("formats.parse_gram_json", parse_gram_json, gk)
        gb = t.call("formats.parse_gram_json", parse_gram_json, gf)
        e = t.call("metrics.facegram_interleaving", facegram_interleaving, ga, gb)
        return a, b, d, e

    def digest_text(self, item, out):
        return f"{out[2]!r} {out[3]!r}\n"

    def check(self, item, out):
        d, e = out[2], out[3]
        if not (d >= 0 and e >= 0):
            return f"negative distance {d!r} {e!r}"
        if item.data[4] and (d != 0.0 or e != 0.0):
            return f"final row is {d!r} {e!r}, not exactly 0"
        return None

    def counts(self, item, out, cache):
        a, b = out[0], out[1]
        return {
            "metrics.points": len(a.points) + len(b.points),
            "metrics.point_pairs": len(a.points) * len(b.points),
        }


class NetworkSweep(Workload):
    name = "network-sweep"
    why = (
        "validate + cliquegram + read back on general networks, half with late "
        "observation: the only non-tree input, general clique sweep and JSON reads"
    )
    # every n from 10 to 16, so that p50 falls between the two classes of
    # one n and p90 inside a class, not in the gap between two sizes
    classes = {
        f"n{n}-{'late' if late else 'ontime'}": dict(n=n, late=late)
        for n in range(10, 17)
        for late in (False, True)
    }
    variants = 12
    per_class = 8

    def setup(self, picks, t):
        out = []
        for label, v in picks:
            c = self.classes[label]
            text = network_csv(self.rng(label, v), c["n"], c["late"])
            out.append(Item(f"{label}/v{v}", label, (text,)))
        return out

    def request(self, item, t):
        net = t.call("formats.parse_matrix_csv", parse_matrix_csv, item.data[0])
        ultra = t.call("networks.is_ultranetwork", is_ultranetwork, net)
        g = t.call("grams.cliquegram_from_network", cliquegram_from_network, net)
        lm = t.call("mergegram.labeled_mergegram", labeled_mergegram, g)
        gj = t.call("formats.gram_json", gram_json, g)
        back = t.call(
            "grams.network_from_cliquegram",
            network_from_cliquegram,
            t.call("formats.parse_gram_json", parse_gram_json, gj),
        )
        return net, ultra, g, lm, gj, back

    def digest_text(self, item, out):
        net, ultra, g, lm, gj, back = out
        return f"{ultra}\n" + gj + labeled_mergegram_json(lm) + serialize_matrix_csv(back)

    def check(self, item, out):
        net, back = out[0], out[5]
        if back != net:
            return "the network read back differs from the input"
        return None

    def counts(self, item, out, cache):
        return gram_counts(out[2], out[3], out[4])


WORKLOADS = {w.name: w for w in (FastJoin(), LatticeJoin(), Progression(), NetworkSweep())}
