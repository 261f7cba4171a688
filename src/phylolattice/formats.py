"""Text formats: distance-matrix CSV, gram and mergegram JSON, Reeb DOT,
and hand-rolled SVG plots.

All serializers are canonical: equal values produce byte-identical text.
JSON documents carry a "format": "phylolattice/1" field; infinite deaths
are the string "inf".
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import time
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .faces import _AntichainSweep
from .grams import KINDS, Gram
from .mergegram import Interval, LabeledMergegram, Mergegram, PersistenceDiagram
from .metrics import MAX_TOTAL_MULTIPLICITY
from .networks import PhyloNetwork, validate_network
from .reeb import ReebGraph
from .taxa import TaxaSet, bits

log = logging.getLogger(__name__)

FORMAT = "phylolattice/1"


# ----------------------------------------------------------------- numbers

def read_number(text: str) -> float | None:
    """The value of ``text`` when it is a number in ASCII, else None: an
    optional sign, then digits with an optional point and exponent, or
    inf, infinity or nan in any case.  float() alone also reads '1_0' as
    10.0, non-ASCII digits, and surrounding whitespace; in printable ASCII
    without '_' or ' ' it reads exactly the numbers."""
    if text.isascii() and text.isprintable() and "_" not in text and " " not in text:
        try:
            return float(text)
        except ValueError:
            pass
    return None


# ---------------------------------------------------------------- matrices

def parse_matrix_csv(text: str) -> PhyloNetwork:
    """Header row of taxa labels, then a square numeric body."""
    rows = [r for r in csv.reader(io.StringIO(text)) if any(c.strip() for c in r)]
    if not rows:
        raise ValueError("empty matrix document")
    labels = [c.strip() for c in rows[0]]
    n = len(labels)
    if len(rows) - 1 != n:
        raise ValueError(f"expected {n} data rows after the header, found {len(rows) - 1}")
    body = np.zeros((n, n))
    for i, row in enumerate(rows[1:]):
        if len(row) != n:
            raise ValueError(f"row {i + 2} has {len(row)} cells, expected {n}")
        for j, cell in enumerate(row):
            cell = cell.strip(" \t")
            value = read_number(cell)
            if value is None:
                raise ValueError(f"non-numeric cell at row {i + 2}, column {j + 1}: {cell!r}")
            body[i, j] = value
    return validate_network(labels, body)


def serialize_matrix_csv(net: PhyloNetwork) -> str:
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(net.universe.labels)
    for row in net.matrix:
        w.writerow([repr(float(v)) for v in row])
    return out.getvalue()


# ------------------------------------------------------------------- JSON

def _dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# The writers below emit the bytes of ``_dumps`` without its pure-Python
# indenting encoder: each label is quoted once and each distinct face's
# text is built once, then reused wherever the face is listed.

def _array(items: Sequence[str], indent: str) -> str:
    """``_dumps`` text of a list whose items are already indented."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n" + indent + "]"


def _number(v) -> str:
    """``_dumps`` text of an int or float."""
    if isinstance(v, float):
        text = float.__repr__(v)
        return _NON_FINITE.get(text, text)
    return int.__repr__(v)


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


class _Memo(dict):
    """Key -> ``build(key)``, built on first use."""

    __slots__ = ("build",)

    def __init__(self, build: Callable):
        super().__init__()
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


def _face_texts(universe: TaxaSet, indent: str, lead: str = "") -> _Memo:
    """Face mask -> ``_dumps`` text of its name list: ``lead``, then the
    list with its items two spaces deeper than ``indent``.  The masks are
    faces of a validated value."""
    items = [indent + "  " + _quote(s) for s in universe.labels]
    return _Memo(lambda mask: lead + _array([items[i] for i in bits(mask)], indent))


def _load(text: str, want: str | Sequence[str]) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ValueError("top level must be an object")
    if doc.get("format") != FORMAT:
        raise ValueError(f'missing or unsupported "format" (expected {FORMAT!r})')
    wanted = (want,) if isinstance(want, str) else tuple(want)
    if doc.get("type") not in wanted:
        raise ValueError(f'document "type" is {doc.get("type")!r}, expected {wanted}')
    return doc


def _death_out(d: float):
    return "inf" if math.isinf(d) else d


def _death_in(v) -> float:
    if v == "inf":
        return math.inf
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        d = float(v)
        if d == d and d != -math.inf:
            return d
    raise ValueError(f"bad death value {v!r}")


# A birth and a multiplicity go through float() and int() first, so a
# value those refuse keeps their error; text and bools they accept are
# refused after.

def _birth_in(v) -> float:
    b = float(v)
    if isinstance(v, (bool, str)) or not math.isfinite(b):
        raise ValueError(f"bad birth value {v!r}")
    return b


def _mult_in(v) -> int:
    k = int(v)
    if type(v) is not int or k <= 0:
        raise ValueError(f"bad multiplicity {v!r}")
    return k


def _names_in(v):
    """A face as a document lists it: a list of taxon names."""
    if isinstance(v, (str, dict)):
        raise ValueError(f"a face must be a list of taxon names, got {v!r}")
    return v


def _mask_in(universe: TaxaSet, names: tuple) -> int:
    """The mask of a face a document lists as ``names``; a face that
    names a taxon twice is refused."""
    mask = universe.mask_of(names)
    if mask.bit_count() != len(names):
        seen: set[str] = set()
        twice = next(x for x in names if x in seen or seen.add(x))
        raise ValueError(f"face {list(names)!r} names taxon {twice!r} twice")
    return mask


def _universe_in(doc: dict) -> TaxaSet:
    taxa = doc.get("taxa")
    if not isinstance(taxa, list) or not all(isinstance(s, str) for s in taxa):
        raise ValueError('"taxa" must be a list of strings')
    return TaxaSet(taxa)


def gram_json(g: Gram) -> str:
    t0 = time.perf_counter()
    faces = _face_texts(g.universe, " " * 8, lead=" " * 8)
    levels = [
        '    {\n      "faces": '
        + _array([faces[m] for m in fs.faces], "      ")
        + ',\n      "t": '
        + float.__repr__(t)
        + "\n    }"
        for t, fs in g.levels
    ]
    text = (
        '{\n  "format": ' + _quote(FORMAT)
        + ',\n  "kind": ' + _quote(g.kind)
        + ',\n  "levels": ' + _array(levels, "  ")
        + ',\n  "taxa": ' + _array(["    " + _quote(s) for s in g.universe.labels], "  ")
        + ',\n  "type": "gram"\n}\n'
    )
    if log.isEnabledFor(logging.DEBUG):
        log.debug(
            "stage=gram_json levels=%d faces=%d bytes=%d ms=%.3f",
            len(g.criticals),
            len(g.lifespans),
            len(text),
            (time.perf_counter() - t0) * 1e3,
        )
    return text


def parse_gram_json(text: str) -> Gram:
    t0 = time.perf_counter()
    doc = _load(text, "gram")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise ValueError(f"unknown gram kind {kind!r}")
    universe = _universe_in(doc)
    masks: dict[tuple, int] = {}  # a face's name list -> its mask, per document

    def mask_of(names: Iterable[str]) -> int:
        key = tuple(names if type(names) is list else _names_in(names))
        mask = masks.get(key)
        if mask is None:
            mask = masks[key] = _mask_in(universe, key)
        return mask

    items = doc.get("levels", [])
    if not isinstance(items, list):
        raise ValueError('"levels" must be a list')
    # each level is proved an antichain here, so that its errors carry
    # its position; the gram's own checks run on the proved events
    sweep = _AntichainSweep(universe)
    events = []
    entries = 0
    prev_t = None
    for i, item in enumerate(items):
        if not isinstance(item, dict) or "t" not in item or "faces" not in item:
            raise ValueError(f'level {i}: each level needs "t" and "faces"')
        t = item["t"]
        if not isinstance(t, (int, float)) or isinstance(t, bool):
            raise ValueError(f'level {i}: "t" must be a number, got {t!r}')
        try:
            t = float(t)
        except OverflowError as e:
            raise ValueError(f"level {i}: {e.args[0]}") from None
        if not math.isfinite(t):
            raise ValueError(f"level {i}: critical values must be finite")
        if prev_t is not None and t <= prev_t:
            raise ValueError(f"level {i}: critical values must be strictly increasing")
        try:
            level = [mask_of(names) for names in item["faces"]]
            born, dying = sweep.step_level(level)
        except (KeyError, TypeError, ValueError) as e:
            raise ValueError(f"level {i}: {e.args[0]}") from e
        entries += len(level)
        events.append((t, born, dying))
        prev_t = t
    g = Gram._of_events(universe, events, kind)
    if log.isEnabledFor(logging.DEBUG):
        log.debug(
            "stage=parse_gram_json levels=%d faces=%d entries=%d compared=%d bytes=%d ms=%.3f",
            len(g.criticals),
            len(g.lifespans),
            entries,
            sweep.compared,
            len(text.encode()),
            (time.perf_counter() - t0) * 1e3,
        )
    return g


def mergegram_json(m: Mergegram | PersistenceDiagram) -> str:
    kind = "diagram" if isinstance(m, PersistenceDiagram) else "mergegram"
    return _dumps(
        {
            "format": FORMAT,
            "type": kind,
            "points": [
                {"birth": b, "death": _death_out(d), "mult": k} for b, d, k in m.points
            ],
        }
    )


def labeled_mergegram_json(lm: LabeledMergegram) -> str:
    labels = _face_texts(lm.universe, " " * 6)
    points = [
        '    {\n      "birth": ' + _number(iv.birth)
        + ',\n      "death": '
        + ('"inf"' if math.isinf(iv.death) else _number(iv.death))
        + ',\n      "label": ' + labels[mask]
        + ',\n      "mult": 1\n    }'
        for mask, iv in sorted(
            lm.entries.items(),
            key=lambda kv: (kv[1].birth, kv[1].death, kv[0]),
        )
    ]
    return (
        '{\n  "format": ' + _quote(FORMAT)
        + ',\n  "points": ' + _array(points, "  ")
        + ',\n  "taxa": ' + _array(["    " + _quote(s) for s in lm.universe.labels], "  ")
        + ',\n  "type": "labeled-mergegram"\n}\n'
    )


def parse_mergegram_json(text: str):
    doc = _load(text, ("mergegram", "diagram", "labeled-mergegram"))
    points = doc.get("points")
    if not isinstance(points, list):
        raise ValueError('"points" must be a list')
    labeled = doc["type"] == "labeled-mergegram"
    if labeled:
        universe = _universe_in(doc)
    need = ("birth", "death", "label") if labeled else ("birth", "death")
    rows = []  # (birth, death, face mask or multiplicity)
    seen = set()  # face masks of a labeled document
    total = 0  # the multiplicities so far
    for i, p in enumerate(points):
        if not isinstance(p, dict) or not all(k in p for k in need):
            raise ValueError(f"point {i} must be an object with {', '.join(need)}")
        try:
            mult = _mult_in(p.get("mult", 1))
            if labeled and mult != 1:
                raise ValueError(f"a labeled point has multiplicity 1, got {mult!r}")
            total += mult
            if total > MAX_TOTAL_MULTIPLICITY:
                raise ValueError(f"multiplicities sum past {MAX_TOTAL_MULTIPLICITY}")
            rest = _mask_in(universe, tuple(_names_in(p["label"]))) if labeled else mult
            rows.append((_birth_in(p["birth"]), _death_in(p["death"]), rest))
        except (KeyError, TypeError, ValueError, OverflowError) as e:
            raise ValueError(f"point {i}: {e.args[0]}") from None
        if labeled:
            if rest in seen:
                raise ValueError(f"face {p['label']!r} listed twice")
            seen.add(rest)
    if not labeled:
        return (PersistenceDiagram if doc["type"] == "diagram" else Mergegram)(rows)
    return LabeledMergegram(universe, {m: Interval(b, d) for b, d, m in rows})


# -------------------------------------------------------------------- DOT

# C0 controls and DEL, which the drawings show as visible \uXXXX text
_CONTROLS = {c: f"\\u{c:04x}" for c in (*range(0x20), 0x7F)}
# DOT quoting; the backslash of a shown control is escaped like any other
_DOT_TEXT = str.maketrans(
    {"\\": "\\\\", '"': '\\"', **{c: "\\" + shown for c, shown in _CONTROLS.items()}}
)


def reeb_dot(r: ReebGraph) -> str:
    """Undirected DOT drawing; node labels carry the critical heights, and
    edge labels the faces, with backslashes and double quotes escaped and
    control characters shown as ``\\uXXXX``."""
    t0 = time.perf_counter()
    names = [s.translate(_DOT_TEXT) for s in r.universe.labels]
    # face mask -> its edge line from the label on
    tails = _Memo(lambda mask: ' [label="' + _dot_face(names, mask) + '"];\n')
    numbers = [str(k) for k in range(max(r.vertex_counts))]
    chunks = ["graph reeb {\n  rankdir=BT;\n"]
    for i, (t, count) in enumerate(zip(r.criticals, r.vertex_counts)):
        if count:
            node, label = f"  v{i}_", f' [label="t={t:g}"];\n'
            chunks.append(node + (label + node).join(numbers[:count]) + label)
    chunks.append('  top [label="inf", shape=plaintext];\n')
    n = len(r.criticals)
    for i in range(n - 1):
        chunks.append("".join(chain.from_iterable(zip(
            repeat(f"  v{i}_"),
            map(numbers.__getitem__, r.down_ids[i]),
            repeat(f" -- v{i + 1}_"),
            map(numbers.__getitem__, r.up_ids[i]),
            map(tails.__getitem__, r.edge_sets[i]),
        ))))
    (top,), (down,) = r.edge_sets[-1], r.down_ids[-1]
    chunks.append(
        f'  v{n - 1}_{down} -- top [label="{_dot_face(names, top)}", style=dashed];\n}}\n'
    )
    text = "".join(chunks)
    if log.isEnabledFor(logging.DEBUG):
        log.debug(
            "stage=reeb_dot levels=%d lines=%d bytes=%d ms=%.3f",
            n,
            r.vertex_count + r.finite_edge_count + 5,
            len(text),
            (time.perf_counter() - t0) * 1e3,
        )
    return text


def _dot_face(names: Sequence[str], mask: int) -> str:
    """The label text of a face, from the taxon names as DOT quotes them."""
    return "{" + ",".join([names[j] for j in bits(mask)]) + "}"


# -------------------------------------------------------------------- SVG

_W = 480
_PAD = 48
_XML_TEXT = str.maketrans(
    {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;", "'": "&apos;", **_CONTROLS}
)


def _text(s: str) -> str:
    """``s`` with the characters XML reserves escaped, and the control
    characters, which XML 1.0 admits in no form, as ``\\uXXXX``."""
    return s.translate(_XML_TEXT)


def _scale(vals: Sequence[float]) -> tuple[float, float]:
    finite = [v for v in vals if math.isfinite(v)]
    lo = min(finite, default=0.0)
    hi = max(finite, default=1.0)
    if lo > 0:
        lo = 0.0
    if hi <= lo:
        hi = lo + 1.0
    return lo, hi


def diagram_svg(m: Mergegram | PersistenceDiagram | LabeledMergegram, title: str = "") -> str:
    """Scatter plot: multiplicity as concentric rings, infinite deaths on a
    shaded band above the finite range."""
    labels: dict[tuple[float, float], str] = {}
    if isinstance(m, LabeledMergegram):
        for mask, iv in m.sorted_entries():
            key = (iv.birth, iv.death)
            name = _text("{" + ",".join(m.universe.names_of(mask)) + "}")
            labels[key] = (labels[key] + " " + name) if key in labels else name
        m = m.unlabeled()
    coords = [v for b, d, _ in m.points for v in (b, d)]
    lo, hi = _scale(coords)
    span = hi - lo
    inner = _W - 2 * _PAD
    band_y = _PAD - 18  # the infinity band sits above the finite area

    def sx(v: float) -> float:
        return _PAD + (v - lo) / span * inner

    def sy(v: float) -> float:
        if math.isinf(v):
            return band_y
        return _W - _PAD - (v - lo) / span * inner

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_W}" '
        f'viewBox="0 0 {_W} {_W}" font-family="sans-serif" font-size="11">',
        f'<rect width="{_W}" height="{_W}" fill="white"/>',
        f'<rect x="{_PAD}" y="{band_y - 8}" width="{inner}" height="16" fill="#eef" />',
        f'<text x="{_PAD - 26}" y="{band_y + 4}">inf</text>',
        f'<line x1="{_PAD}" y1="{_W - _PAD}" x2="{_W - _PAD}" y2="{_W - _PAD}" stroke="black"/>',
        f'<line x1="{_PAD}" y1="{_W - _PAD}" x2="{_PAD}" y2="{_PAD}" stroke="black"/>',
        f'<line x1="{sx(lo)}" y1="{sy(lo)}" x2="{sx(hi)}" y2="{sy(hi)}" stroke="#bbb" stroke-dasharray="4 3"/>',
        f'<text x="{_W - _PAD}" y="{_W - _PAD + 28}" text-anchor="end">birth</text>',
        f'<text x="{_PAD - 34}" y="{_PAD - 28}">death</text>',
    ]
    for tick in (lo, (lo + hi) / 2, hi):
        parts.append(
            f'<text x="{sx(tick):.1f}" y="{_W - _PAD + 14}" text-anchor="middle">{tick:g}</text>'
        )
        parts.append(
            f'<text x="{_PAD - 6}" y="{sy(tick):.1f}" text-anchor="end">{tick:g}</text>'
        )
    if title:
        parts.append(f'<text x="{_W / 2}" y="16" text-anchor="middle">{_text(title)}</text>')
    for b, d, mult in m.points:
        x, y = sx(b), sy(d)
        parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="3" fill="#225"/>')
        for k in range(1, mult):
            parts.append(
                f'<circle cx="{x:.1f}" cy="{y:.1f}" r="{3 + 3 * k}" fill="none" stroke="#225"/>'
            )
        tag = labels.get((b, d))
        if tag:
            parts.append(f'<text x="{x + 6:.1f}" y="{y - 6:.1f}">{tag}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


_PALETTE = ("#225", "#a33", "#282", "#a60", "#629")


def line_plot_svg(
    series: Mapping[str, Sequence[tuple[float, float]]],
    x_label: str = "",
    y_label: str = "",
) -> str:
    xs = [x for pts in series.values() for x, _ in pts]
    ys = [y for pts in series.values() for _, y in pts]
    xlo, xhi = _scale(xs)
    ylo, yhi = _scale(ys)
    inner = _W - 2 * _PAD

    def sx(v: float) -> float:
        return _PAD + (v - xlo) / (xhi - xlo) * inner

    def sy(v: float) -> float:
        return _W - _PAD - (v - ylo) / (yhi - ylo) * inner

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_W}" '
        f'viewBox="0 0 {_W} {_W}" font-family="sans-serif" font-size="11">',
        f'<rect width="{_W}" height="{_W}" fill="white"/>',
        f'<line x1="{_PAD}" y1="{_W - _PAD}" x2="{_W - _PAD}" y2="{_W - _PAD}" stroke="black"/>',
        f'<line x1="{_PAD}" y1="{_W - _PAD}" x2="{_PAD}" y2="{_PAD}" stroke="black"/>',
        f'<text x="{_W - _PAD}" y="{_W - _PAD + 28}" text-anchor="end">{_text(x_label)}</text>',
        f'<text x="{_PAD}" y="{_PAD - 20}">{_text(y_label)}</text>',
    ]
    for tick in (ylo, (ylo + yhi) / 2, yhi):
        parts.append(
            f'<text x="{_PAD - 6}" y="{sy(tick):.1f}" text-anchor="end">{tick:.3g}</text>'
        )
    for tick in (xlo, (xlo + xhi) / 2, xhi):
        parts.append(
            f'<text x="{sx(tick):.1f}" y="{_W - _PAD + 14}" text-anchor="middle">{tick:g}</text>'
        )
    for k, (name, pts) in enumerate(sorted(series.items())):
        color = _PALETTE[k % len(_PALETTE)]
        path = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in sorted(pts))
        parts.append(f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{_W - _PAD - 2}" y="{_PAD + 14 * k}" text-anchor="end" fill="{color}">{_text(name)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
