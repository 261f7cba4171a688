"""Command-line surface.

Exit codes: 0 success, 1 validation or input error, 2 usage error.
Logs go to standard error (level via PHYLOLATTICE_LOG); data goes to
files or standard output.
"""

from __future__ import annotations

import argparse
import csv
import io
import logging
import os
import sys
from pathlib import Path

from . import formats
from .experiments import (
    ExperimentConfig,
    bottleneck_progression,
    gen_random_treegrams,
)
from .grams import (
    Gram,
    cliquegram_from_network,
    join_grams,
    treegram_from_ultranetwork,
)
from .mergegram import (
    LabeledMergegram,
    join_mergegram_of_treegrams,
    labeled_mergegram,
    ph0_elder,
)
from .metrics import bottleneck_distance, facegram_interleaving, linf_labeled_distance
from .networks import as_ultranetwork, is_ultranetwork
from .newick import newick_from_ultranetwork, parse_newick, ultranetwork_from_newick
from .reeb import face_reeb_graph

log = logging.getLogger("phylolattice")

_NEWICK_SUFFIXES = {".nwk", ".newick", ".tree", ".trees"}


def _setup_logging() -> None:
    level = os.environ.get("PHYLOLATTICE_LOG", "warn").lower()
    table = {
        "error": logging.ERROR,
        "warn": logging.WARNING,
        "info": logging.INFO,
        "debug": logging.DEBUG,
    }
    logging.basicConfig(
        stream=sys.stderr,
        level=table.get(level, logging.WARNING),
        format="%(levelname)s %(message)s",
    )


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _load_trees(path: str):
    trees = parse_newick(_read(path))
    if not trees:
        raise ValueError(f"{path}: no trees found")
    ultras = [ultranetwork_from_newick(t) for t in trees]
    first = ultras[0].universe
    for u in ultras[1:]:
        if u.universe != first:
            raise ValueError(f"{path}: trees cover different taxa sets")
    return ultras


def _load_gram(path: str) -> Gram:
    suffix = Path(path).suffix.lower()
    if suffix == ".json":
        return formats.parse_gram_json(_read(path))
    if suffix == ".csv":
        return cliquegram_from_network(formats.parse_matrix_csv(_read(path)))
    if suffix in _NEWICK_SUFFIXES:
        ultras = _load_trees(path)
        if len(ultras) == 1:
            return treegram_from_ultranetwork(ultras[0])
        return join_grams([treegram_from_ultranetwork(u) for u in ultras], "facegram")
    raise ValueError(f"{path}: cannot tell the input format from the suffix")


def _load_mergegram(path: str, labeled: bool = False):
    """A mergegram or diagram document as stored, else the mergegram of the
    gram the file holds; ``labeled`` keeps face labels and refuses
    unlabeled documents."""
    if Path(path).suffix.lower() == ".json":
        text = _read(path)
        try:
            doc = formats.parse_mergegram_json(text)
        except ValueError:
            doc = labeled_mergegram(formats.parse_gram_json(text))
    else:
        doc = labeled_mergegram(_load_gram(path))
    if isinstance(doc, LabeledMergegram):
        return doc if labeled else doc.unlabeled()
    if labeled:
        raise ValueError(f"{path}: not a labeled mergegram document")
    return doc


def cmd_validate(args) -> int:
    path = args.file
    suffix = Path(path).suffix.lower()
    if suffix == ".csv":
        net = formats.parse_matrix_csv(_read(path))
        kind = "ultranetwork" if is_ultranetwork(net) else "phylogenetic network"
        print(f"OK: {kind} over {len(net.universe)} taxa")
    elif suffix in _NEWICK_SUFFIXES:
        ultras = _load_trees(path)
        print(f"OK: {len(ultras)} tree(s) over {len(ultras[0].universe)} taxa")
    elif suffix == ".json":
        text = _read(path)
        try:
            g = formats.parse_gram_json(text)
            print(f"OK: {g.kind} with {len(g.levels)} level(s)")
        except ValueError:
            doc = formats.parse_mergegram_json(text)
            name = type(doc).__name__
            print(f"OK: {name} with {len(doc)} interval(s)")
    else:
        raise ValueError(f"{path}: cannot tell the input format from the suffix")
    return 0


def cmd_cliquegram(args) -> int:
    net = formats.parse_matrix_csv(_read(args.matrix))
    g = cliquegram_from_network(net, merge_tol=args.merge_tol)
    _write(args.output, formats.gram_json(g))
    return 0


def cmd_treegram(args) -> int:
    trees = parse_newick(_read(args.newick))
    if len(trees) != 1:
        raise ValueError(f"{args.newick}: expected exactly one tree, found {len(trees)}")
    u = ultranetwork_from_newick(trees[0], ultrametrize=args.ultrametrize)
    _write(args.output, formats.gram_json(treegram_from_ultranetwork(u)))
    return 0


def cmd_join(args) -> int:
    ultras = _load_trees(args.trees)
    parts = [treegram_from_ultranetwork(u) for u in ultras]
    _write(args.output, formats.gram_json(join_grams(parts, args.mode)))
    return 0


def cmd_mergegram(args) -> int:
    path = args.input
    suffix = Path(path).suffix.lower()
    if args.fast_tree_join and suffix not in _NEWICK_SUFFIXES:
        raise ValueError("--fast-tree-join needs Newick input")
    if args.fast_tree_join:
        ultras = _load_trees(path)
        lm = join_mergegram_of_treegrams(ultras)
        if log.isEnabledFor(logging.DEBUG):
            slow = labeled_mergegram(
                join_grams([treegram_from_ultranetwork(u) for u in ultras], "facegram")
            )
            if lm != slow:
                raise RuntimeError("fast tree join disagrees with the join route")
            log.debug("fast tree join verified against the join route")
    else:
        lm = labeled_mergegram(_load_gram(path))
    payload = (
        formats.labeled_mergegram_json(lm)
        if args.labeled
        else formats.mergegram_json(lm.unlabeled())
    )
    _write(args.output, payload)
    if args.svg:
        _write(args.svg, formats.diagram_svg(lm if args.labeled else lm.unlabeled()))
    return 0


def cmd_reeb(args) -> int:
    g = formats.parse_gram_json(_read(args.input))
    _write(args.output, formats.reeb_dot(face_reeb_graph(g)))
    return 0


def cmd_ph0(args) -> int:
    net = formats.parse_matrix_csv(_read(args.matrix))
    _write(args.output, formats.mergegram_json(ph0_elder(as_ultranetwork(net))))
    return 0


def cmd_dist(args) -> int:
    if args.metric == "bottleneck":
        d = bottleneck_distance(_load_mergegram(args.a), _load_mergegram(args.b))
    elif args.metric == "linf":
        d = linf_labeled_distance(
            _load_mergegram(args.a, labeled=True), _load_mergegram(args.b, labeled=True)
        )
    else:
        d = facegram_interleaving(_load_gram(args.a), _load_gram(args.b))
    print(format(d, "g"))
    return 0


def cmd_gen_trees(args) -> int:
    cfg = ExperimentConfig(
        taxa=args.taxa, trees=args.trees, seed=args.seed, method=args.method
    )
    ultras = gen_random_treegrams(cfg)
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    lines = [newick_from_ultranetwork(u) for u in ultras]
    (out / "trees.nwk").write_text("\n".join(lines) + "\n", encoding="utf-8")
    for i, u in enumerate(ultras):
        (out / f"matrix_{i:03d}.csv").write_text(
            formats.serialize_matrix_csv(u), encoding="utf-8"
        )
    log.info("wrote %d trees to %s", len(ultras), out)
    return 0


def cmd_experiment(args) -> int:
    if args.name != "bottleneck-progression":
        raise ValueError(f"unknown experiment {args.name!r}")
    ultras = _load_trees(args.trees)
    modes = ("cliquegram", "facegram") if args.mode == "both" else (args.mode,)
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    series = {}
    for mode in modes:
        rows = bottleneck_progression(ultras, mode)
        if rows[-1][1] != 0.0:
            raise RuntimeError(f"{mode}: final distance is {rows[-1][1]}, not 0")
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["k", "bottleneck"])
        for k, d in rows:
            w.writerow([k, repr(float(d))])
        (out / f"progression_{mode}.csv").write_text(buf.getvalue(), encoding="utf-8")
        series[mode] = [(float(k), d) for k, d in rows]
        log.info("%s: %d rows, final 0", mode, len(rows))
    (out / "progression.svg").write_text(
        formats.line_plot_svg(series, x_label="k", y_label="bottleneck"),
        encoding="utf-8",
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="phylolattice",
        description="Lattice models of phylogenetic networks: cliquegrams, "
        "facegrams, joins, mergegrams, and their metrics.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("validate", help="check a matrix CSV, Newick, or JSON file")
    q.add_argument("file")
    q.set_defaults(func=cmd_validate)

    q = sub.add_parser("cliquegram", help="maximal-clique sweep of a network matrix")
    q.add_argument("--matrix", required=True, help="distance matrix CSV")
    q.add_argument("--merge-tol", type=float, default=0.0, help="snap levels closer than this")
    q.add_argument("-o", "--output", default=None)
    q.set_defaults(func=cmd_cliquegram)

    q = sub.add_parser("treegram", help="treegram of a single Newick tree")
    q.add_argument("--newick", required=True)
    q.add_argument("--ultrametrize", action="store_true", help="zero the diagonal")
    q.add_argument("-o", "--output", default=None)
    q.set_defaults(func=cmd_treegram)

    q = sub.add_parser("join", help="lattice join of the treegrams of a tree file")
    q.add_argument("--mode", choices=("cliquegram", "facegram"), default="facegram")
    q.add_argument("--trees", required=True, help="Newick file, one tree per line")
    q.add_argument("-o", "--output", default=None)
    q.set_defaults(func=cmd_join)

    q = sub.add_parser("mergegram", help="mergegram of a gram, matrix, or tree file")
    q.add_argument("--in", dest="input", required=True)
    q.add_argument("--labeled", action="store_true", help="keep face labels")
    q.add_argument(
        "--fast-tree-join",
        action="store_true",
        help="direct join mergegram of a multi-tree Newick file",
    )
    q.add_argument("-o", "--output", default=None)
    q.add_argument("--svg", default=None, help="also write a diagram plot")
    q.set_defaults(func=cmd_mergegram)

    q = sub.add_parser("reeb", help="face-Reeb graph of a gram, as DOT")
    q.add_argument("--in", dest="input", required=True)
    q.add_argument("-o", "--output", default=None)
    q.set_defaults(func=cmd_reeb)

    q = sub.add_parser("ph0", help="Elder-rule persistence of an ultrametric CSV")
    q.add_argument("--matrix", required=True)
    q.add_argument("-o", "--output", default=None)
    q.set_defaults(func=cmd_ph0)

    q = sub.add_parser("dist", help="distance between two inputs")
    q.add_argument("--metric", choices=("bottleneck", "interleaving", "linf"), required=True)
    q.add_argument("a")
    q.add_argument("b")
    q.set_defaults(func=cmd_dist)

    q = sub.add_parser("gen-trees", help="seeded random ultrametric trees")
    q.add_argument("-n", "--taxa", type=int, required=True)
    q.add_argument("-l", "--trees", type=int, required=True)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--method", choices=("upgma", "single"), default="upgma")
    q.add_argument("-o", "--output", required=True, help="output directory")
    q.set_defaults(func=cmd_gen_trees)

    q = sub.add_parser("experiment", help="bundled reproducible experiments")
    q.add_argument("name", help="currently only bottleneck-progression")
    q.add_argument("--trees", required=True)
    q.add_argument("--mode", choices=("cliquegram", "facegram", "both"), default="both")
    q.add_argument("-o", "--output", required=True, help="output directory")
    q.set_defaults(func=cmd_experiment)

    return p


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _setup_logging()
    try:
        return args.func(args)
    except BrokenPipeError:
        # reader closed early (e.g. piping into head); not our error
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except (ValueError, OSError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(run())
