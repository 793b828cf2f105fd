"""JSON formats for monoids, groupoids, maps and corpus entries.

Loading always re-runs the structural validation: the constructors are the
single source of truth, so a corrupted file fails exactly like a corrupted
in-memory table.  Their index gate reads every index as given, so a JSON
true, a float or a string in a table or map is refused, never read as an
int; a product table decoded as rows goes on as the gate's array, and the
rows are freed before it is validated.
"""

from __future__ import annotations

import json
import re
from contextlib import suppress
from pathlib import Path

import numpy as np

from .duality import MonoidMorphism
from .errors import StructureError
from .groupoids import CoveringFunctor, FiniteGroupoid, compose_table
from .inverse_core import (MAX_ELEMENTS, InverseMonoid, as_indices, row_blocks, sequence_length,
                           table_map)
from .polycyclic import CnElement, format_cn, parse_cn


def _fields(data, *keys) -> list:
    """The named fields of a JSON object, in order.  A value that is not an
    object, or lacks one of the keys, is a StructureError."""
    if not isinstance(data, dict):
        raise StructureError(f"expected a JSON object, got {type(data).__name__}")
    for key in keys:
        if key not in data:
            raise StructureError(f"missing key {key!r}")
    return [data[key] for key in keys]


def monoid_to_json(monoid: InverseMonoid, *, rows: bool = True) -> dict:
    """``rows=False`` leaves the product table an array, for ``save_entry``."""
    return {
        "n": monoid.n,
        "zero": monoid.zero,
        "one": monoid.one,
        "inv": list(monoid.inv),
        "mul": monoid.mul.tolist() if rows else monoid.mul,
        "labels": list(monoid.labels) if monoid.labels else None,
    }


def monoid_from_json(data: dict) -> InverseMonoid:
    n, mul, inv, zero, one = _fields(data, "n", "mul", "inv", "zero", "one")
    monoid = InverseMonoid(mul, inv, zero, one, data.get("labels"))
    if as_indices(n, "n", MAX_ELEMENTS + 1).tolist() != monoid.n:
        raise StructureError("declared size disagrees with the table")
    return monoid


def groupoid_to_json(groupoid: FiniteGroupoid) -> dict:
    g, h = np.nonzero(groupoid.compose >= 0)          # the composable pairs, sorted
    return {
        "m": groupoid.m,
        "identities": list(groupoid.identities),
        "d": list(groupoid.d),
        "r": list(groupoid.r),
        "inv": list(groupoid.inv),
        "compose": np.column_stack((g, h, groupoid.compose[g, h])).tolist(),
        "labels": list(groupoid.labels) if groupoid.labels else None,
    }


def groupoid_from_json(data: dict) -> FiniteGroupoid:
    m, d, r, inv, compose, identities = _fields(
        data, "m", "d", "r", "inv", "compose", "identities")
    groupoid = FiniteGroupoid(d, r, inv, compose_table(compose, sequence_length(d, "d")),
                              identities, data.get("labels"))
    if as_indices(m, "m", MAX_ELEMENTS + 1).tolist() != groupoid.m:
        raise StructureError("declared size disagrees with the tables")
    return groupoid


def morphism_to_json(theta: MonoidMorphism) -> dict:
    return {
        "source": monoid_to_json(theta.source),
        "target": monoid_to_json(theta.target),
        "map": list(theta.mapping),
        "weak": theta.weak,
    }


def morphism_from_json(data: dict) -> MonoidMorphism:
    source, target, mapping = _fields(data, "source", "target", "map")
    weak = data.get("weak", False)
    if not isinstance(weak, bool):
        raise StructureError("weak must be true or false")
    return MonoidMorphism(monoid_from_json(source), monoid_from_json(target), mapping,
                          weak=weak)


def functor_to_json(f: CoveringFunctor) -> dict:
    return {
        "source": groupoid_to_json(f.source),
        "target": groupoid_to_json(f.target),
        "map": list(f.arrow_map),
    }


def functor_from_json(data: dict) -> CoveringFunctor:
    source, target, mapping = _fields(data, "source", "target", "map")
    return CoveringFunctor(groupoid_from_json(source), groupoid_from_json(target), mapping)


def _cn_to_json(element: CnElement) -> dict:
    return {"n": element.n, "expr": format_cn(element)}


def _cn_from_json(data: dict) -> CnElement:
    expr, n = _fields(data, "expr", "n")
    if not isinstance(expr, str) or isinstance(n, bool) or not isinstance(n, int):
        raise StructureError("a cn-element needs a string expr and an integer n")
    return parse_cn(expr, n)


# -- corpus entries --------------------------------------------------------------


# entry kind -> (payload writer, payload reader)
KINDS = {
    "monoid": (lambda m: monoid_to_json(m, rows=False), monoid_from_json),
    "groupoid": (groupoid_to_json, groupoid_from_json),
    "morphism": (morphism_to_json, morphism_from_json),
    "functor": (functor_to_json, functor_from_json),
    "cn-element": (_cn_to_json, _cn_from_json),
}


def _codec(kind) -> tuple:
    """The KINDS entry of an entry kind; anything else is a StructureError."""
    if not isinstance(kind, str) or kind not in KINDS:
        raise StructureError(f"unknown entry kind {kind!r}")
    return KINDS[kind]


def entry_to_json(name: str, kind: str, payload: dict) -> dict:
    _codec(kind)
    return {"name": name, "kind": kind, "payload": payload}


_TABLE_KEY = re.compile(rb'"mul": (?=\[)')
# a table's head, first row and row break; its tail and end (\s would also take \f, \v)
_TABLE_LAYOUT = re.compile(rb"\[([ \t\n\r]*)\[[\d, ]*\](?:([ \t\n\r]*,[ \t\n\r]*)\[)?")
_TABLE_END = re.compile(rb"\]([ \t\n\r]*)\]")


def _renderer(table: np.ndarray, mid: bytes):
    """A function from a block of ``table``'s rows to their text from its first cell, as
    uint8: a gather of NUL-padded words, unpadded, each row's last cell closed by "]" mid
    "[", of which the table's last row keeps "]"."""
    end = b"]" + mid + b"["
    words = np.array([(b"%d, " % v, b"%d" % v + end) for v in range(int(table.max()) + 1)])

    def render(rows: slice) -> np.ndarray:
        block = words[table[rows], 0]
        block[:, -1] = words[table[rows, -1], 1]
        raw = block.view(np.uint8).ravel()
        piece = raw[raw != 0]
        return piece[:len(piece) - len(end) + 1] if rows.stop >= len(table) else piece
    return render


def table_text(table: np.ndarray, head=b"\n", mid=b",\n", tail=b"\n"):
    """Yield as bytes the JSON text of a table of ints in 0..2^15-1, ``head``/``tail`` in its
    brackets, ``mid`` from "]" to "[", in row blocks (half on a helper past BLOCK_CELLS cells)."""
    yield b"[" + head + b"["
    yield from (piece.tobytes() for piece in
                table_map(table.size, _renderer(table, mid), row_blocks(*table.shape)))
    yield tail + b"]"


def _read_table(data: bytes, start: int):
    """(int16 array, end) of the table whose text starts at ``data[start]``, or None: read in
    row blocks by ``np.fromstring``, whose values count only if the text is what
    ``table_text`` renders from them, which is decided without rendering it.  A cell's
    rendering takes ``len(b"%d, " % v)`` bytes, a row's last one ``len(mid)`` more for its
    "]" mid "["; their cumsum places every separator.  A block must be as long as its
    rendering, hold ", " at every inner separator and "]" mid "[" at every row's end (the
    last "]" is the table end's), and hold as many ASCII digits as its values have.  The
    separators are in place and hold no digit, so every other byte is a digit: each cell is
    a run of exactly ``len(str(v))`` digits that was read as v, so it is ``str(v)`` (a
    leading zero, a sign, a space or an int that wrapped, 5 digits or more, needs more
    bytes).  That needs every value under 10,000; a table with a larger one is left to
    ``json.loads``.  A table of more than BLOCK_CELLS cells has its blocks parsed, then
    checked, by the calling thread and one helper; nothing sets this."""
    layout, end = _TABLE_LAYOUT.match(data, start), _TABLE_END.search(data, start)
    if layout is None or end is None or end.end() - start < 2048:   # json is as fast there
        return None
    rows = data.count(b"[", start, end.end()) - 1
    cols = data.count(b",", start, data.find(b"]", start)) + 1      # of the first row
    if rows * cols > end.end() - start:                 # a cell takes two bytes or more
        return None
    table, close, spans = np.empty((rows, cols), np.int16), start, []
    for block in row_blocks(rows, cols):   # a block's text: its first cell to its last "]"
        first = data.find(b"[", close + 1) + 1
        for _ in range(block.start, min(block.stop, rows)):
            close = data.find(b"]", close + 1)
        spans.append((block, first, close))
    # "[" head "[" (matched) ends where the first block starts; a block's rendering runs
    # to the next one's first cell, the last one's to "]" tail "]" (matched)
    stops = [first for _, first, _ in spans[1:]] + [end.start() + 1]
    row_end, text = b"]" + (layout[2] or b",") + b"[", np.frombuffer(data, np.uint8)

    def parse(span):
        block, first, close = span
        cells = data[first:close].translate(None, b"[]")
        table[block] = np.fromstring(cells, np.int16, sep=",").reshape(-1, cols)

    def exact(span, stop):
        block, first, _ = span
        cells, last = table[block], block.stop >= rows
        # where each cell would end were every separator ", ": its len(b"%d, " % v), summed
        at = np.cumsum(np.uint8(3) + (cells > 9) + (cells > 99) + (cells > 999), dtype=np.int32)
        digits = int(at[-1]) - 2 * at.size
        at = at.reshape(-1, cols)       # made where each cell's ", " or "]" mid "[" starts
        at += np.arange(len(at), dtype=np.int32)[:, None] * (len(row_end) - 2) + (first - 2)
        if at[-1, -1] + (1 if last else len(row_end)) != stop:
            return False
        closes = at[:-1, -1] if last else at[:, -1]     # the last "]" is the table end's
        return ((text[at[:, :-1]] == ord(",")).all() and (text[at[:, :-1] + 1] == ord(" ")).all()
                and all((text[closes + k] == byte).all() for k, byte in enumerate(row_end))
                and np.count_nonzero(text[first:stop] >= ord("0"))   # a temporary at a time
                - np.count_nonzero(text[first:stop] > ord("9")) == digits)

    with suppress(ValueError, OverflowError):   # unreadable text, ragged rows, a short file
        table_map(table.size, parse, spans)
        if (table.min() >= 0 and table.max() < 10_000     # no sign, at most 4 digits
                and all(table_map(table.size, exact, spans, stops))):
            return table, end.end()
    return None


def _loads(data: bytes):
    """``json.loads(data.decode())``, each table ``_read_table`` accepts spliced out as NaN,
    which ``parse_constant`` hands back, unless the rest has NaN or Infinity or fails.  Text
    nested past the recursion limit is a StructureError."""
    tables, parts, pos = [], [], 0
    for key in _TABLE_KEY.finditer(data):       # a table's text holds no '"'
        if (found := _read_table(data, key.end())) is not None:
            tables.append(found[0])
            parts.append(data[pos:key.end()])
            pos = found[1]
    rest = b"NaN".join([*parts, data[pos:]])
    if tables and rest.count(b"NaN") == len(tables) and b"Infinity" not in rest:
        handed = iter(tables)
        with suppress(ValueError, RecursionError):
            return json.loads(rest.decode(), parse_constant=lambda _: next(handed))
    try:
        return json.loads(data.decode())
    except RecursionError:
        raise StructureError("entry is nested too deeply to read") from None


def _write_json(out, value) -> None:
    """Stream ``value`` as JSON, one key or table row per line.  Pieces go
    through ``json.dumps``, the C encoder (``json.dump`` and ``indent`` use
    the pure-Python one), or ``table_text``: a table is never held as text."""
    if isinstance(value, np.ndarray):
        out.writelines(piece.decode() for piece in table_text(value))
        return
    if isinstance(value, dict):
        items, brackets = [(json.dumps(key) + ": ", item) for key, item in value.items()], "{}"
    elif isinstance(value, list) and value and all(isinstance(row, list) for row in value):
        items, brackets = [("", row) for row in value], "[]"
    else:
        out.write(json.dumps(value))
        return
    out.write(brackets[0])
    for i, (prefix, item) in enumerate(items):
        out.write(("," if i else "") + "\n" + prefix)
        _write_json(out, item)
    out.write("\n" + brackets[1])


def _entry_name(name) -> None:
    """Refuse a name that cannot name ``<store>/<name>.json`` on the command line: one that is
    no string, is empty, "." or "..", holds "/" or starts with "-"."""
    if not isinstance(name, str):
        raise StructureError("entry name must be a string")
    if name in ("", ".", "..") or "/" in name or name.startswith("-"):
        raise StructureError(f"entry name {name!r} is not a file name in the store")


def save_entry(store: Path, name: str, kind: str, payload: dict) -> Path:
    """Write an entry to ``<store>/<name>.json``, its name refused first, before anything is
    written, by the check that ``load_entry`` makes too."""
    _entry_name(name)
    store = Path(store)
    store.mkdir(parents=True, exist_ok=True)
    path = store / f"{name}.json"
    with path.open("w") as out:
        _write_json(out, entry_to_json(name, kind, payload))
        out.write("\n")
    return path


def load_entry(path_or_name, store: Path | None = None):
    """Load and re-verify an entry, by name in the store or else by path: (name, kind, obj)."""
    path = store is not None and Path(store) / f"{path_or_name}.json"
    path = path if path and path.exists() else Path(path_or_name)
    if not path.exists():
        raise FileNotFoundError(path_or_name)
    data = path.read_bytes()        # the file as is: no str of the text is held beside it
    name, kind, payload = _fields(_loads(data), "name", "kind", "payload")
    del data                # neither it nor the decoded rows are held while a table is validated
    _entry_name(name)
    if kind == "monoid" and isinstance(payload, dict) and isinstance(payload.get("mul"), list):
        payload["mul"] = as_indices(payload["mul"], "product table", len(payload["mul"]))
    return name, kind, _codec(kind)[1](payload)


def check_dot(fmt: str, kind: str) -> None:
    """Only a groupoid has a dot rendering."""
    if fmt == "dot" and kind != "groupoid":
        raise StructureError("dot output is only defined for groupoids")
