"""JSON formats for monoids, groupoids, maps and corpus entries.

Loading always re-runs the structural validation: the constructors are the
single source of truth, so a corrupted file fails exactly like a corrupted
in-memory table.
"""

from __future__ import annotations

import json
import re
from contextlib import suppress
from pathlib import Path

import numpy as np

from .duality import MonoidMorphism
from .errors import StructureError
from .groupoids import CoveringFunctor, FiniteGroupoid, compose_table, groupoid_to_dot
from .inverse_core import BLOCK_CELLS, InverseMonoid, as_indices, as_table, table_map
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


def monoid_from_json(data: dict, *, bools: bool = True) -> InverseMonoid:
    """``bools=False`` says the JSON text held no true or false: the table
    then goes on as an array, which ``InverseMonoid`` does not scan, and
    replaces the decoded rows in ``data``, freed before it is validated."""
    n, mul, inv, zero, one = _fields(data, "n", "mul", "inv", "zero", "one")
    if not bools:
        data["mul"] = mul = as_table(mul)
    monoid = InverseMonoid(mul, inv, zero, one, data.get("labels"))
    if (monoid.n,) != as_indices([n], "n"):
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
    d = as_indices(d, "d")
    groupoid = FiniteGroupoid(d, r, inv, compose_table(compose, len(d)), identities,
                              data.get("labels"))
    if (groupoid.m,) != as_indices([m], "m"):
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


def _row_blocks(rows: int, cols: int) -> list[slice]:
    """The table codec's row blocks, of about BLOCK_CELLS cells."""
    step = max(1, BLOCK_CELLS // cols)
    return [slice(lo, lo + step) for lo in range(0, rows, step)]


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
    brackets, ``mid`` from "]" to "[", in row blocks (on two threads past BLOCK_CELLS cells)."""
    yield b"[" + head + b"["
    yield from (piece.tobytes() for piece in
                table_map(table.size, _renderer(table, mid), _row_blocks(*table.shape)))
    yield tail + b"]"


def _read_table(data: bytes, start: int):
    """(int16 array, end) of the table whose text starts at ``data[start]``, or None: read in
    row blocks by ``np.fromstring``, whose values count only if ``table_text`` renders each
    block back to its text byte for byte (an int over 2^15 - 1 wraps, and renders as
    another).  A table of more than BLOCK_CELLS cells has its blocks parsed, then checked,
    on up to two threads; nothing sets this."""
    layout, end = _TABLE_LAYOUT.match(data, start), _TABLE_END.search(data, start)
    if layout is None or end is None or end.end() - start < 2048:   # json is as fast there
        return None
    rows = data.count(b"[", start, end.end()) - 1
    cols = data.count(b",", start, data.find(b"]", start)) + 1      # of the first row
    if rows * cols > end.end() - start:                 # a cell takes two bytes or more
        return None
    table, close, spans = np.empty((rows, cols), np.int16), start, []
    for block in _row_blocks(rows, cols):   # a block's text: its first cell to its last "]"
        first = data.find(b"[", close + 1) + 1
        for _ in range(block.start, min(block.stop, rows)):
            close = data.find(b"]", close + 1)
        spans.append((block, first, close))
    # "[" head "[" (matched) ends where the first block starts; a block's rendering runs
    # to the next one's first cell, the last one's to "]" tail "]" (matched)
    stops = [first for _, first, _ in spans[1:]] + [end.start() + 1]

    def parse(span):
        block, first, close = span
        cells = data[first:close].translate(None, b"[]")
        table[block] = np.fromstring(cells, np.int16, sep=",").reshape(-1, cols)

    with suppress(ValueError, OverflowError):   # unreadable text, ragged rows, a short file
        list(table_map(table.size, parse, spans))
        if table.min() >= 0:                            # an int over 2^15-1 wraps
            render = _renderer(table, layout[2] or b",")

            def matches(span, stop):
                piece = render(span[0])
                return len(piece) == stop - span[1] and data.startswith(piece, span[1])
            if all(list(table_map(table.size, matches, spans, stops))):    # every result read
                return table, end.end()
    return None


def _loads(data: bytes):
    """``json.loads(data.decode())``, each table ``_read_table`` accepts spliced out as NaN,
    which ``parse_constant`` hands back, unless the rest has NaN or Infinity or fails."""
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
    return json.loads(data.decode())


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


def save_entry(store: Path, name: str, kind: str, payload: dict) -> Path:
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
    bools = b"true" in data or b"false" in data
    name, kind, payload = _fields(_loads(data), "name", "kind", "payload")
    del data                # not held while the tables are validated
    if not isinstance(name, str):
        raise StructureError("entry name must be a string")
    from_json = _codec(kind)[1]
    obj = from_json(payload, bools=bools) if kind == "monoid" else from_json(payload)
    return name, kind, obj


def check_dot(fmt: str, kind: str) -> None:
    """Only a groupoid has a dot rendering."""
    if fmt == "dot" and kind != "groupoid":
        raise StructureError("dot output is only defined for groupoids")


def render(obj, kind: str) -> str:
    """The dot rendering of an object of the given kind: a groupoid's."""
    check_dot("dot", kind)
    return groupoid_to_dot(obj)
