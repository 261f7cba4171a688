"""Newick tree parsing and the tree/ultranetwork conversions.

One tree per line, ';'-terminated; lines end at '\\n', '\\r\\n' or '\\r'.
Unquoted names stop at structural characters, spaces and tabs; quoted
names use single quotes with '' as the escape.  Branch lengths default
to 1.0 when absent.

Height convention: with H the maximal root-to-leaf distance, a node at
depth d sits at height H - d.  Coalescence times are heights of lowest
common ancestors, and a leaf's own entry is its height, so leaves above
the deepest level read as late observations; ``ultrametrize`` zeroes the
diagonal instead.
"""

from __future__ import annotations

import logging
import math
import re
import time
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .formats import read_number
from .networks import Ultranetwork, as_ultranetwork, PhyloNetwork
from .taxa import TaxaSet

log = logging.getLogger(__name__)

_STRUCTURE = set("():,;'")
# A line's tokens: punctuation, a quoted name, an unquoted word (a name or
# a branch length), or a quote that opens no complete quoted name.  A
# quoted name closes at the last quote of an odd run; the name's pattern is
# an unrolled loop, so it runs in linear time on an unterminated quote.
# Only spaces and tabs fall between tokens.
_TOKENS = re.compile(r"[(),:;]|'[^']*(?:''[^']*)*'(?!')|[^():,;' \t]+|'")
# the punctuation tokens, and "", which the scan appends to end a line
_PUNCTUATION = frozenset(("(", ")", ",", ":", ";", ""))


class NewickError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class NewickNode:
    name: str | None
    length: float  # branch to the parent; 1.0 when the text had none
    children: tuple["NewickNode", ...] = ()

    @property
    def is_leaf(self) -> bool:
        return not self.children


class NewickTree:
    """A parsed tree as flat per-node arrays in preorder: ``parents[i]``
    (-1 at the root), ``lengths[i]`` (the branch to the parent, 1.0 when
    the text had none), ``names[i]`` (None for an unnamed inner node) and
    ``leaves``, the leaf nodes.  The arrays are the tree's own and are not
    to be changed; trees compare and hash by them.  ``root``, the tree as
    linked ``NewickNode``s, is a view built on its first read."""

    __slots__ = ("parents", "lengths", "names", "leaves", "_root")

    def __init__(self, parents: list[int], lengths: list[float], names: list, leaves: list[int]):
        self.parents = parents
        self.lengths = lengths
        self.names = names
        self.leaves = leaves
        self._root = None

    @property
    def leaf_names(self) -> tuple[str, ...]:
        return tuple(map(self.names.__getitem__, self.leaves))

    def __eq__(self, other):
        if not isinstance(other, NewickTree):
            return NotImplemented
        return (self.parents, self.lengths, self.names) == (other.parents, other.lengths, other.names)

    def __hash__(self):
        return hash((tuple(self.parents), tuple(self.lengths), tuple(self.names)))

    @property
    def root(self) -> NewickNode:
        if self._root is None:
            # in reverse preorder every node comes after its descendants
            # and its later siblings
            children: list[list[NewickNode]] = [[] for _ in self.parents]
            for i in range(len(self.parents) - 1, -1, -1):
                node = NewickNode(self.names[i], self.lengths[i], tuple(reversed(children[i])))
                if i:
                    children[self.parents[i]].append(node)
            self._root = node
        return self._root


def _error(message: str, line: str, lineno: int, k: int) -> NewickError:
    """The error at the line's k-th token, or at its end when it has no
    k-th token.  Columns are found only here, by the scan's own regex."""
    m = next(islice(_TOKENS.finditer(line), k, None), None)
    return NewickError(message, lineno, len(line) + 1 if m is None else m.start() + 1)


def _innermost_open(toks: list[str], k: int) -> int:
    """The token of the innermost '(' left open before token k."""
    depth = 0
    for i in range(k - 1, -1, -1):
        if toks[i] == ")":
            depth += 1
        elif toks[i] == "(":
            if not depth:
                return i
            depth -= 1
    raise RuntimeError("no open parenthesis before the token")


def _scan(line: str, lineno: int) -> NewickTree:
    """One tree from one line: a single pass over its tokens that fills
    the per-node arrays in preorder.  The open nodes are followed through
    ``parents``, so nesting depth is not bounded by the interpreter's
    recursion limit."""
    toks = _TOKENS.findall(line)
    toks.append("")
    parents: list[int] = []
    lengths: list[float] = []
    names: list[str | None] = []
    leaves: dict[str, int] = {}  # leaf name -> node, in preorder
    up = -1  # the innermost open node
    k = 0
    while True:
        while toks[k] == "(":
            parents.append(up)
            up = len(names)
            names.append(None)
            lengths.append(1.0)
            k += 1
        node = len(names)
        parents.append(up)
        names.append(None)
        lengths.append(1.0)
        leaf = True
        while True:
            at = k  # the node's name, or where it would be
            tok = toks[k]
            if tok not in _PUNCTUATION:
                if tok[0] == "'":
                    if len(tok) == 1:
                        raise _error("unterminated quoted name", line, lineno, k)
                    tok = tok[1:-1].replace("''", "'")
                    if not tok:
                        raise _error("empty quoted name", line, lineno, k)
                names[node] = tok
                k += 1
            if toks[k] == ":":
                k += 1
                tok = toks[k]
                if tok in _PUNCTUATION or tok[0] == "'":
                    tok = ""  # a length is a word
                value = read_number(tok)
                if value is None:
                    raise _error(f"malformed branch length {tok!r}", line, lineno, k)
                if not 0.0 <= value < math.inf:
                    raise _error(
                        f"branch length must be finite and nonnegative, got {tok}", line, lineno, k
                    )
                lengths[node] = value
                k += 1
            if leaf:
                name = names[node]
                if name is None:
                    raise _error("leaf without a name", line, lineno, at)
                if name in leaves:
                    raise _error(f"duplicate leaf name {name!r}", line, lineno, at)
                leaves[name] = node
            if up < 0:
                break
            tok = toks[k]
            if tok == ",":
                break
            if tok != ")":
                message = "unbalanced parentheses: '(' never closed"
                if not tok:
                    raise _error(message + " (end of input)", line, lineno, _innermost_open(toks, k))
                raise _error(message, line, lineno, k)
            k += 1
            node = up
            up = parents[node]
            leaf = False
        if up < 0:
            break
        k += 1
    tok = toks[k]
    if tok != ";":
        raise _error("expected ';'" + ("" if tok else " (end of input)"), line, lineno, k)
    if toks[k + 1]:
        raise _error("trailing characters after ';'", line, lineno, k + 1)
    return NewickTree(parents, lengths, names, list(leaves.values()))


def parse_newick(text: str) -> list[NewickTree]:
    """Parse a document of one ';'-terminated tree per non-blank line."""
    t0 = time.perf_counter()
    # lines end at '\n', '\r\n' or '\r' only; str.splitlines would also
    # cut at '\x0b', '\x0c', '\x1c'-'\x1e', '\x85', '\u2028' and '\u2029'
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    trees = [_scan(line, lineno) for lineno, line in enumerate(lines, start=1) if line.strip()]
    if log.isEnabledFor(logging.DEBUG):
        log.debug(
            "stage=parse_newick trees=%d taxa=%d bytes=%d ms=%.3f",
            len(trees),
            sum(len(t.leaves) for t in trees),
            len(text.encode("utf-8", "surrogatepass")),
            (time.perf_counter() - t0) * 1e3,
        )
    return trees


def ultranetwork_from_newick(tree: NewickTree, ultrametrize: bool = False) -> Ultranetwork:
    """Ultranetwork of a tree under the height convention above, read as
    its dendrogram from the tree's arrays: the leaves in preorder (every
    subtree is a run of it), the height of each adjacent pair's lowest
    common ancestor, and the leaf heights.  No matrix is built."""
    t0 = time.perf_counter()
    names = tree.leaf_names
    universe = TaxaSet(sorted(names))
    n = len(universe)
    parents, leaves = tree.parents, tree.leaves
    # Depths root-down in preorder, each the parent's depth plus the
    # branch: the same additions in the same order as a walk from the root.
    depth = [0.0]
    for p, length in zip(islice(parents, 1, None), islice(tree.lengths, 1, None)):
        depth.append(depth[p] + length)
    depths = [depth[i] for i in leaves]
    height = max(depths)
    # The node after leaf k in preorder is a child of the LCA of leaves k
    # and k + 1.
    joins = [height - depth[parents[i + 1]] for i in islice(leaves, n - 1)]
    order = [universe.position(name) for name in names]
    diagonal = [0.0] * n
    if not ultrametrize:
        for i, d in zip(order, depths):
            diagonal[i] = height - d
    u = Ultranetwork._from_linkage(universe, order, joins, diagonal)
    if log.isEnabledFor(logging.DEBUG):
        log.debug("stage=newick taxa=%d ms=%.3f", n, (time.perf_counter() - t0) * 1e3)
    return u


def _quote_name(name: str) -> str:
    if name and not any(ch in _STRUCTURE or ch in " \t" for ch in name):
        return name
    return "'" + name.replace("'", "''") + "'"


def _fmt(x: float) -> str:
    return repr(float(x))


def newick_from_ultranetwork(u: PhyloNetwork) -> str:
    """Dendrogram text of an ultranetwork.

    Branch lengths only encode height differences, and the reader anchors
    the deepest leaf at height zero, so the smallest observation time on
    the diagonal is lost: reading the text back recovers the matrix minus
    that minimum.  Networks with at least one on-time taxon (a zero on
    the diagonal) round-trip exactly.
    """
    u = as_ultranetwork(u)
    labels = u.universe.labels
    order, joins = u.linkage

    def split(a: int, b: int) -> tuple[float, list[tuple[int, int]]]:
        """Height of the clade at positions [a, b) of the linkage order and
        its child clades, each a run cut where the clade's height was paid,
        ordered by their smallest taxon."""
        inner = joins[a : b - 1]  # inner[k]: entry by which position a + k + 1 joined
        top = float(inner.max())
        cuts = [a, *(a + 1 + int(k) for k in np.flatnonzero(inner == top)), b]
        runs = sorted(zip(cuts, cuts[1:]), key=lambda r: order[r[0] : r[1]].min())
        return top, runs

    # a stack of open clades (height, child runs, texts and heights so far)
    stack: list[tuple[float, list[tuple[int, int]], list[tuple[str, float]]]] = []
    a, b = 0, len(labels)
    while True:
        if b - a > 1:
            top, runs = split(a, b)
            stack.append((top, runs, []))
            a, b = runs[0]
            continue
        i = order[a]
        done = _quote_name(labels[i]), float(u.diagonal[i])
        while stack:
            top, runs, parts = stack[-1]
            parts.append(done)
            if len(parts) < len(runs):
                a, b = runs[len(parts)]
                break
            stack.pop()
            inner = ",".join(f"{txt}:{_fmt(top - h)}" for txt, h in parts)
            done = f"({inner})", top
        else:
            return done[0] + ";"


__all__ = [
    "NewickError",
    "NewickNode",
    "NewickTree",
    "parse_newick",
    "ultranetwork_from_newick",
    "newick_from_ultranetwork",
]
