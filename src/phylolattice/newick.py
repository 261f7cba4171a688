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
from itertools import islice

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


class NewickTree:
    """A parsed tree as flat per-node arrays in preorder: ``parents[i]``
    (-1 at the root), ``lengths[i]`` (the branch to the parent, 1.0 when
    the text had none), ``names[i]`` (None for an unnamed inner node) and
    ``leaves``, the leaf nodes.  The arrays are the tree's own and are not
    to be changed; trees compare and hash by them."""

    __slots__ = ("parents", "lengths", "names", "leaves")

    def __init__(self, parents: list[int], lengths: list[float], names: list, leaves: list[int]):
        self.parents = parents
        self.lengths = lengths
        self.names = names
        self.leaves = leaves

    @property
    def leaf_names(self) -> tuple[str, ...]:
        return tuple(map(self.names.__getitem__, self.leaves))

    def __eq__(self, other):
        if not isinstance(other, NewickTree):
            return NotImplemented
        return (self.parents, self.lengths, self.names) == (other.parents, other.lengths, other.names)

    def __hash__(self):
        return hash((tuple(self.parents), tuple(self.lengths), tuple(self.names)))


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
    if "\n" in name or "\r" in name:
        raise ValueError(f"taxon {name!r} holds a line break, which ends a Newick tree")
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
    the diagonal) round-trip exactly.  A taxon name may not hold a line
    break, since the text has one tree per line.

    The clades come from one pass over the linkage with a stack of open
    clades, lowest on top: a join larger than an open clade's height
    closes it, a join equal to it adds a child to it, and a smaller one
    opens a clade below it.  Children are written in order of their
    smallest taxon.
    """
    t0 = time.perf_counter()
    u = as_ultranetwork(u)
    labels = u.universe.labels
    order, joins = (a.tolist() for a in u.linkage)
    diagonal = u.diagonal.tolist()

    def leaf(i: int) -> tuple[int, str, float]:
        return i, _quote_name(labels[i]), diagonal[i]

    def close(top: float, parts: list, last: tuple[int, str, float]) -> tuple[int, str, float]:
        parts.append(last)
        parts.sort()
        inner = ",".join(f"{txt}:{_fmt(top - h)}" for _, txt, h in parts)
        return parts[0][0], f"({inner})", top

    # done: the clade or leaf that ends at the current position, as
    # (smallest taxon, text, height); stack: the open clades around it
    done = leaf(order[0])
    stack: list[tuple[float, list[tuple[int, str, float]]]] = []
    for join, i in zip(joins, islice(order, 1, None)):
        while stack and stack[-1][0] < join:
            done = close(*stack.pop(), done)
        if stack and stack[-1][0] == join:
            stack[-1][1].append(done)
        else:
            stack.append((join, [done]))
        done = leaf(i)
    while stack:
        done = close(*stack.pop(), done)
    text = done[1] + ";"
    if log.isEnabledFor(logging.DEBUG):
        log.debug(
            "stage=write_newick taxa=%d bytes=%d ms=%.3f",
            len(labels),
            len(text.encode("utf-8", "surrogatepass")),
            (time.perf_counter() - t0) * 1e3,
        )
    return text


__all__ = [
    "NewickError",
    "NewickTree",
    "parse_newick",
    "ultranetwork_from_newick",
    "newick_from_ultranetwork",
]
