"""Newick tree parsing and the tree/ultranetwork conversions.

One tree per line, ';'-terminated.  Unquoted names stop at structural
characters; quoted names use single quotes with '' as the escape.
Branch lengths default to 1.0 when absent.

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
from dataclasses import dataclass, field

import numpy as np

from .networks import Ultranetwork, as_ultranetwork, PhyloNetwork
from .taxa import TaxaSet

log = logging.getLogger(__name__)

_STRUCTURE = set("():,;'")
_TOKEN = re.compile(r"[^():,;' \t]*")  # an unquoted name or a branch length
_BLANKS = re.compile(r"[ \t]*")


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


@dataclass(frozen=True)
class NewickTree:
    root: NewickNode
    leaf_names: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        names: list[str] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                names.append(node.name)
            stack.extend(reversed(node.children))
        object.__setattr__(self, "leaf_names", tuple(names))


class _Cursor:
    def __init__(self, text: str, line: int):
        self.text = text
        self.line = line
        self.i = 0
        self.seen_leaves: dict[str, int] = {}

    def fail(self, message: str, col: int | None = None) -> NewickError:
        return NewickError(message, self.line, self.i + 1 if col is None else col)

    def peek(self) -> str | None:
        """The next character after any blanks, which it skips; None at
        the end of the line."""
        ch = self.text[self.i : self.i + 1]
        if ch == " " or ch == "\t":
            self.i = _BLANKS.match(self.text, self.i).end()
            ch = self.text[self.i : self.i + 1]
        return ch or None

    def take(self) -> str:
        ch = self.text[self.i]
        self.i += 1
        return ch


def _read_name(c: _Cursor) -> str | None:
    ch = c.peek()
    if ch == "'":
        start = c.i + 1
        c.take()
        parts: list[str] = []
        while True:
            if c.i >= len(c.text):
                raise c.fail("unterminated quoted name", start)
            ch = c.take()
            if ch == "'":
                if c.i < len(c.text) and c.text[c.i] == "'":
                    c.take()
                    parts.append("'")
                else:
                    break
            else:
                parts.append(ch)
        name = "".join(parts)
        if not name:
            raise c.fail("empty quoted name", start)
        return name
    if ch is None or ch in _STRUCTURE:
        return None
    token = _TOKEN.match(c.text, c.i).group()
    c.i += len(token)
    return token


def _read_length(c: _Cursor) -> float | None:
    if c.peek() != ":":
        return None
    c.take()
    c.peek()  # skips the blanks before the length
    start = c.i
    token = _TOKEN.match(c.text, start).group()
    c.i += len(token)
    try:
        value = float(token)
    except ValueError:
        raise c.fail(f"malformed branch length {token!r}", start + 1) from None
    if not math.isfinite(value) or value < 0:
        raise c.fail(f"branch length must be finite and nonnegative, got {token}", start + 1)
    return value


def _leaf(c: _Cursor) -> NewickNode:
    name_col = c.i + 1
    name = _read_name(c)
    length = _read_length(c)
    if name is None:
        raise c.fail("leaf without a name", name_col)
    if name in c.seen_leaves:
        raise c.fail(f"duplicate leaf name {name!r}", name_col)
    c.seen_leaves[name] = name_col
    return NewickNode(name, 1.0 if length is None else length)


def _subtree(c: _Cursor) -> NewickNode:
    """One subtree, read with an explicit stack of the open parentheses
    (column, children so far), so that nesting depth is not bounded by the
    interpreter's recursion limit."""
    stack: list[tuple[int, list[NewickNode]]] = []
    while True:
        while c.peek() == "(":
            stack.append((c.i + 1, []))
            c.take()
        node = _leaf(c)
        while stack:
            open_col, children = stack[-1]
            children.append(node)
            ch = c.peek()
            if ch == ",":
                c.take()
                break
            if ch != ")":
                raise c.fail(
                    "unbalanced parentheses: '(' never closed"
                    + (" (end of input)" if ch is None else ""),
                    open_col if ch is None else None,
                )
            c.take()
            stack.pop()
            name = _read_name(c)
            length = _read_length(c)
            node = NewickNode(name, 1.0 if length is None else length, tuple(children))
        else:
            return node


def _parse_line(text: str, line: int) -> NewickTree:
    c = _Cursor(text, line)
    root = _subtree(c)
    ch = c.peek()
    if ch != ";":
        raise c.fail("expected ';'" + (" (end of input)" if ch is None else ""))
    c.take()
    if c.peek() is not None:
        raise c.fail("trailing characters after ';'")
    return NewickTree(root)


def parse_newick(text: str) -> list[NewickTree]:
    """Parse a document of one ';'-terminated tree per non-blank line."""
    trees = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.strip():
            trees.append(_parse_line(line, lineno))
    return trees


def ultranetwork_from_newick(tree: NewickTree, ultrametrize: bool = False) -> Ultranetwork:
    """Ultranetwork of a tree under the height convention above, read as
    its dendrogram in one walk: the leaves in preorder (every subtree is a
    run of it), the height of each adjacent pair's lowest common ancestor,
    and the leaf heights.  No matrix is built."""
    t0 = time.perf_counter()
    universe = TaxaSet(sorted(tree.leaf_names))
    n = len(universe)
    order: list[int] = []
    depths: list[float] = []  # leaf depths, in preorder
    lca_depths: list[float] = []  # lca_depths[k]: LCA of leaves k and k + 1
    # After a leaf, the next node taken from the stack is a child of the
    # leaf's lowest ancestor that has a later child: that ancestor is the
    # LCA of the leaf and the next leaf.
    after_leaf = False
    stack: list[tuple[NewickNode, float, float]] = [(tree.root, 0.0, 0.0)]
    while stack:
        node, depth, parent_depth = stack.pop()
        if after_leaf:
            lca_depths.append(parent_depth)
            after_leaf = False
        if not node.children:
            order.append(universe.position(node.name))
            depths.append(depth)
            after_leaf = True
            continue
        for ch in reversed(node.children):
            stack.append((ch, depth + ch.length, depth))
    height = max(depths)
    joins = [height - d for d in lca_depths]
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
