"""JSON formats for monoids, groupoids, maps and corpus entries.

Loading always re-runs the structural validation: the constructors are the
single source of truth, so a corrupted file fails exactly like a corrupted
in-memory table.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .duality import MonoidMorphism
from .errors import StructureError
from .groupoids import CoveringFunctor, FiniteGroupoid, compose_table, groupoid_to_dot
from .inverse_core import InverseMonoid, as_indices, as_table


def _fields(data, *keys) -> list:
    """The named fields of a JSON object, in order.  A value that is not an
    object, or lacks one of the keys, is a StructureError."""
    if not isinstance(data, dict):
        raise StructureError(f"expected a JSON object, got {type(data).__name__}")
    for key in keys:
        if key not in data:
            raise StructureError(f"missing key {key!r}")
    return [data[key] for key in keys]


def monoid_to_json(monoid: InverseMonoid) -> dict:
    return {
        "n": monoid.n,
        "zero": monoid.zero,
        "one": monoid.one,
        "inv": list(monoid.inv),
        "mul": monoid.mul.tolist(),
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
    if monoid.n != n:
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
    if groupoid.m != m:
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
    return MonoidMorphism(monoid_from_json(source), monoid_from_json(target),
                          as_indices(mapping, "map"), weak=weak)


def functor_to_json(f: CoveringFunctor) -> dict:
    return {
        "source": groupoid_to_json(f.source),
        "target": groupoid_to_json(f.target),
        "map": list(f.arrow_map),
    }


def functor_from_json(data: dict) -> CoveringFunctor:
    source, target, mapping = _fields(data, "source", "target", "map")
    return CoveringFunctor(groupoid_from_json(source), groupoid_from_json(target),
                           as_indices(mapping, "map"))


# -- corpus entries --------------------------------------------------------------


KINDS = ("monoid", "groupoid", "morphism", "functor", "cn-element")


def entry_to_json(name: str, kind: str, payload: dict) -> dict:
    if kind not in KINDS:
        raise StructureError(f"unknown entry kind {kind!r}")
    return {"name": name, "kind": kind, "payload": payload}


def _write_json(out, value) -> None:
    """Stream ``value`` as JSON, one key or table row per line.  Pieces go
    through ``json.dumps``, the C encoder (``json.dump`` and ``indent`` use
    the pure-Python one), and a large table is never held as text at once."""
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
    """Load and re-verify an entry by path, or by name inside the store.
    Returns (name, kind, object)."""
    path = Path(path_or_name)
    if not path.exists() and store is not None:
        path = Path(store) / f"{path_or_name}.json"
    if not path.exists():
        raise FileNotFoundError(path_or_name)
    text = path.read_text()
    bools = "true" in text or "false" in text
    name, kind, payload = _fields(json.loads(text), "name", "kind", "payload")
    del text                # not held while the tables are validated
    if not isinstance(name, str):
        raise StructureError("entry name must be a string")
    if kind == "monoid":
        obj = monoid_from_json(payload, bools=bools)
    elif kind == "groupoid":
        obj = groupoid_from_json(payload)
    elif kind == "morphism":
        obj = morphism_from_json(payload)
    elif kind == "functor":
        obj = functor_from_json(payload)
    elif kind == "cn-element":
        from .polycyclic import parse_cn

        expr, n = _fields(payload, "expr", "n")
        if not isinstance(expr, str) or isinstance(n, bool) or not isinstance(n, int):
            raise StructureError("a cn-element needs a string expr and an integer n")
        obj = parse_cn(expr, n)
    else:
        raise StructureError(f"unknown entry kind {kind!r}")
    return name, kind, obj


def render(obj, kind: str, fmt: str) -> str:
    """Render a loaded object in the requested output format."""
    if fmt == "dot":
        if kind != "groupoid":
            raise StructureError("dot output is only defined for groupoids")
        return groupoid_to_dot(obj)
    if kind == "monoid":
        data = monoid_to_json(obj)
    elif kind == "groupoid":
        data = groupoid_to_json(obj)
    elif kind == "morphism":
        data = morphism_to_json(obj)
    elif kind == "functor":
        data = functor_to_json(obj)
    else:
        from .polycyclic import format_cn

        data = {"n": obj.n, "expr": format_cn(obj)}
    if fmt == "json":
        return json.dumps(data, indent=2)
    # text: a short human summary
    if kind == "monoid":
        return f"monoid with {obj.n} elements, zero={obj.zero}, one={obj.one}"
    if kind == "groupoid":
        return f"groupoid with {obj.m} arrows, {len(obj.identities)} identities"
    if kind == "morphism":
        return f"morphism on {obj.source.n} elements"
    if kind == "functor":
        return f"functor on {obj.source.m} arrows"
    return f"element of C_{obj.n}: {data['expr']}"
