"""Lossless JSON round trips with re-verification on load."""

import gc
import io
import json
import random
import re
import tracemalloc

import numpy as np
import pytest

from helpers import projection_first, reference_load_entry, reference_write_json, relabelled
from stonework import (
    StructureError,
    boolean_algebra_monoid,
    clifford_monoid,
    group_with_zero_monoid,
    serialize,
    symmetric_inverse_monoid,
)
from stonework.cli import main
from stonework.corpus import GENERATORS, build
from stonework.duality import identity_morphism, stone_groupoid
from stonework.groupoids import (CoveringFunctor, all_bisections_monoid, pair_groupoid,
                                 trivial_groupoid)
from stonework.serialize import (
    KINDS,
    entry_to_json,
    functor_from_json,
    functor_to_json,
    groupoid_from_json,
    groupoid_to_json,
    load_entry,
    monoid_from_json,
    monoid_to_json,
    morphism_from_json,
    morphism_to_json,
    save_entry,
)


def test_monoid_round_trip():
    ix2 = symmetric_inverse_monoid(2)
    data = monoid_to_json(ix2)
    again = monoid_from_json(data)
    assert monoid_to_json(again) == data
    assert again.labels == ix2.labels


def test_monoid_loader_reverifies():
    data = monoid_to_json(symmetric_inverse_monoid(2))
    data["mul"][data["one"]][data["one"]] = data["zero"]  # break the identity law
    with pytest.raises(StructureError):
        monoid_from_json(data)


def test_every_stored_table_reaches_the_constructor_as_an_array(tmp_path, monkeypatch):
    # A table of 2 KiB or more in the stored layout is read as an array
    # whatever the labels say; a table in another layout, or a shorter one,
    # goes through json, and on as the gate's checked array, which refuses a
    # true cell (numpy would read it as 1)
    lists, read = [], []
    real, real_read = serialize.InverseMonoid, serialize._read_table

    def recording(mul, *args, **kwargs):
        lists.append(isinstance(mul, list))
        return real(mul, *args, **kwargs)

    def recording_read(*args):
        found = real_read(*args)
        read.append(found is not None)
        return found

    monkeypatch.setattr(serialize, "InverseMonoid", recording)
    monkeypatch.setattr(serialize, "_read_table", recording_read)
    data = monoid_to_json(symmetric_inverse_monoid(3))
    save_entry(tmp_path, "plain", "monoid", data)
    save_entry(tmp_path, "label-true", "monoid", {**data, "labels": ["true"] * data["n"]})
    (tmp_path / "compact.json").write_text(
        json.dumps(entry_to_json("compact", "monoid", data)).replace(", ", ","))
    assert '"mul": [[0,0,' in (tmp_path / "compact.json").read_text()
    small = monoid_to_json(symmetric_inverse_monoid(2))
    save_entry(tmp_path, "small", "monoid", small)
    true_cell = [row[:] for row in data["mul"]]
    true_cell[data["one"]][1] = True
    save_entry(tmp_path, "true-cell", "monoid", {**data, "mul": true_cell})
    plain, labelled, compact, small_loaded = (
        load_entry(name, tmp_path)[2] for name in ("plain", "label-true", "compact", "small"))
    with pytest.raises(StructureError, match="^product table has a non-integer entry True$"):
        load_entry("true-cell", tmp_path)
    assert lists == [False, False, False, False]
    assert read == [True, True, False, False, False]
    assert monoid_to_json(plain) == data
    assert labelled.mul.tolist() == compact.mul.tolist() == data["mul"]
    assert monoid_to_json(small_loaded) == small


def test_the_decoded_rows_are_freed_before_the_table_is_validated(tmp_path, monkeypatch):
    """Without a true or false in the entry, no list of the decoded rows is
    alive while InverseMonoid validates the table (for ix5 they were ~86 MB
    of Python ints)."""
    data = monoid_to_json(symmetric_inverse_monoid(2))
    save_entry(tmp_path, "plain", "monoid", data)

    def row_lists():
        return [o for o in gc.get_objects() if type(o) is list and len(o) == data["n"]
                and all(type(row) is list for row in o) and o == data["mul"]]

    earlier = row_lists()           # held, so that no new list takes their ids
    alive = []
    real = serialize.InverseMonoid

    def recording(mul, *args, **kwargs):
        alive.append(sum(all(o is not old for old in earlier) for o in row_lists()))
        return real(mul, *args, **kwargs)

    monkeypatch.setattr(serialize, "InverseMonoid", recording)
    load_entry("plain", tmp_path)
    assert alive == [0]


def test_a_stored_true_cell_is_rejected(tmp_path):
    """numpy reads a JSON true as 1; the loader still finds it, with the
    constructor's message, when the table is otherwise sound."""
    data = monoid_to_json(symmetric_inverse_monoid(2))
    one = data["one"]
    row = data["mul"][one]
    cell = row.index(1)
    data["mul"][one] = row[:cell] + [True] + row[cell + 1:]
    save_entry(tmp_path, "true-cell", "monoid", data)
    assert "true" in (tmp_path / "true-cell.json").read_text()
    with pytest.raises(StructureError, match=r"^product table has a non-integer entry True$"):
        load_entry("true-cell", tmp_path)


def test_groupoid_round_trip():
    g = pair_groupoid(3)
    data = groupoid_to_json(g)
    again = groupoid_from_json(data)
    assert groupoid_to_json(again) == data


def test_groupoid_loader_reverifies():
    data = groupoid_to_json(pair_groupoid(2))
    data["compose"] = data["compose"][:-1]  # drop one composable pair
    with pytest.raises(StructureError):
        groupoid_from_json(data)


def test_morphism_round_trip():
    theta = projection_first(clifford_monoid(), group_with_zero_monoid(2))
    data = morphism_to_json(theta)
    again = morphism_from_json(data)
    assert again.mapping == theta.mapping


def test_functor_round_trip():
    g = pair_groupoid(2)
    f = CoveringFunctor(g, g, tuple(range(g.m)))
    data = functor_to_json(f)
    assert functor_from_json(data).arrow_map == f.arrow_map


def test_stone_export_shape(tmp_path, capsys):
    # the stored dual is the groupoid format plus each arrow's ultrafilter
    save_entry(tmp_path, "ix2", "monoid", monoid_to_json(symmetric_inverse_monoid(2)))
    assert main(["dualize", "ix2", "--store", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "ix2-dual.json").read_text())["payload"]
    assert set(data) == {"m", "identities", "d", "r", "inv", "compose", "labels",
                         "ultrafilters"}
    assert len(data["ultrafilters"]) == 4
    sg = stone_groupoid(symmetric_inverse_monoid(2))
    leq = sg.monoid.order().matrix
    assert data["ultrafilters"] == [np.flatnonzero(leq[g]).tolist() for g in sg.ultrafilters]


@pytest.mark.parametrize("seed, ultrafilters", [
    (None, [[1, 5], [2, 6], [3, 6], [4, 5]]),
    # relabelled: {0, 3} and {0, 5} tie on their least index, and the
    # enumeration order is not that of the atoms' indices
    (2, [[0, 3], [0, 5], [1, 6], [4, 6]]),
])
def test_dualize_ultrafilters_are_pinned(tmp_path, capsys, seed, ultrafilters):
    # each arrow's ultrafilter as its member list, in enumeration order
    payload = monoid_to_json(symmetric_inverse_monoid(2))
    if seed is not None:
        payload = relabelled(payload, seed)
    save_entry(tmp_path, "ix2", "monoid", payload)
    assert main(["dualize", "ix2", "--store", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "ix2-dual.json").read_text())["payload"]
    assert data["ultrafilters"] == ultrafilters


def test_functor_entry_checked_via_cli(tmp_path, capsys):
    # a stored non-covering functor is rejected with a star witness
    collapse = CoveringFunctor(pair_groupoid(2), trivial_groupoid(1), (0, 0, 0, 0))
    save_entry(tmp_path, "collapse", "functor", functor_to_json(collapse))
    code = main(["check", "collapse", "--laws", "covering", "--store", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1
    report = json.loads(out)
    assert report["laws"][0]["failures"][0][0] == "star-injectivity"


def test_morphism_entry_checked_via_cli(tmp_path, capsys):
    theta = projection_first(clifford_monoid(), group_with_zero_monoid(2))
    save_entry(tmp_path, "pi1", "morphism", morphism_to_json(theta))
    code = main(["check", "pi1", "--laws", "axioms", "--store", str(tmp_path)])
    assert code == 0
    name, kind, obj = load_entry("pi1", tmp_path)
    assert kind == "morphism" and obj.mapping == theta.mapping


# -- the table codec against the json route -------------------------------------------


def _tables(text):
    """The (start, stop) of each product table's text."""
    starts = [m.end() - 1 for m in re.finditer(r'"mul": \[', text)]
    return [(start, text.index("]\n]", start) + 3) for start in starts]


def _cell(text, rng):
    """The (start, stop) of a random cell of a random table."""
    start, stop = rng.choice(_tables(text))
    cell = rng.choice(list(re.finditer(r"\d+", text[start:stop])))
    return start + cell.start(), start + cell.end()


def _replace_cell(by):
    def mutate(text, rng):
        a, b = _cell(text, rng)
        return text[:a] + by(text[a:b], rng) + text[b:]
    return mutate


def _ragged(text, rng):
    a, b = _cell(text, rng)
    return text[:a] + text[b + 2:] if text[b] == "," else text[:a - 2] + text[b:]


def _compact(text, rng):
    start, stop = rng.choice(_tables(text))
    return text[:start] + text[start:stop].replace(", ", ",") + text[stop:]


def _extra_whitespace(text, rng):
    start, stop = rng.choice(_tables(text))
    breaks = [start + m.end() for m in re.finditer(r"\],", text[start:stop])]
    commas = [start + m.end() for m in re.finditer(r"\d,", text[start:stop])]
    # the head, the first or any row break, the tail, or between two cells
    at = rng.choice([start + 1, breaks[0], rng.choice(breaks), stop - 1, rng.choice(commas)])
    # "\f" and "\v" are whitespace to Python, not to JSON
    return text[:at] + rng.choice([" ", "\n", "\t", " \n  ", "\f", "\v"]) + text[at:]


def _constant_elsewhere(text, rng):
    token = rng.choice(["NaN", "Infinity", "-Infinity"])
    where = rng.randrange(3)
    if where == 0:                                      # a number of the payload
        return re.sub(r'"(n|zero|one)": \d+', f'"\\1": {token}', text, count=1)
    if where == 1:                                      # an extra key
        return text.replace('"payload": {', f'"payload": {{"x": {token},', 1)
    return text.replace('"labels": ["', f'"labels": ["{token}', 1)    # inside a label


def _table_in_a_label(text, rng):
    return re.sub(r'"labels": \["[^"]*"', '"labels": ["\\\\"mul\\\\": [[0]]"', text, count=1)


def _second_table(text, rng):
    if rng.random() < 0.5:                              # before the table, which wins
        return text.replace('"payload": {\n', '"payload": {\n"mul": [\n[0]\n],\n', 1)
    start, stop = _tables(text)[0]                      # after it, and wins
    return text[:stop] + ',\n"mul": [[0]]' + text[stop:]


MUTATIONS = {
    "true-cell": _replace_cell(lambda cell, rng: "true"),
    "float-cell": _replace_cell(lambda cell, rng: cell + rng.choice([".0", ".5", "e0"])),
    "leading-zero": _replace_cell(lambda cell, rng: "0" + cell),
    "negative-cell": _replace_cell(lambda cell, rng: rng.choice(["-1", "-0", "-" + cell, "-99"])),
    "ragged-row": _ragged,
    "whitespace-cell": _replace_cell(lambda cell, rng: " "),
    "compact": _compact,
    "extra-whitespace": _extra_whitespace,
    "constant-elsewhere": _constant_elsewhere,
    "table-in-a-label": _table_in_a_label,
    "second-table": _second_table,
    "truncated": lambda text, rng: text[:rng.randrange(len(text))],
}


def _outcome(load, path):
    """What a loader makes of a file: the object as JSON with its table's
    dtype, or the error's type and message."""
    try:
        name, kind, obj = load(path)
    except Exception as err:        # every error, compared by type and message
        return type(err), str(err)
    dtype = str(obj.mul.dtype) if kind == "monoid" else None
    return name, kind, dtype, json.dumps(KINDS[kind][0](obj), default=np.ndarray.tolist)


def test_the_table_codec_loads_what_json_loads(tmp_path):
    """300 seeded mutations of canonical entries: the loader gives the same
    object, or the same error, as json.loads alone."""
    # ix3's table and the morphism's two are read by the codec, ba4's (under
    # 2 KiB) by json
    theta = identity_morphism(symmetric_inverse_monoid(3))
    bases = [save_entry(tmp_path, name, kind, payload).read_text() for name, kind, payload in (
        ("ix3", "monoid", monoid_to_json(symmetric_inverse_monoid(3))),
        ("ba4", "monoid", monoid_to_json(boolean_algebra_monoid(4))),
        ("id-ix3", "morphism", morphism_to_json(theta)))]
    mutations = list(MUTATIONS.items())
    results = {"loaded": 0, "refused": 0}
    for seed in range(300):
        rng = random.Random(seed)
        how, mutate = mutations[seed % len(mutations)]
        text = mutate(bases[seed // len(mutations) % len(bases)], rng)
        path = tmp_path / f"mutant-{seed}.json"
        path.write_text(text)
        outcome = _outcome(load_entry, path)
        assert outcome == _outcome(reference_load_entry, path), (seed, how)
        results["loaded" if len(outcome) == 4 else "refused"] += 1
    assert results["loaded"] > 50 and results["refused"] > 50, results


@pytest.mark.parametrize("char", [" ", "\t", "\n", "\r", "\f", "\v"])
def test_only_json_whitespace_is_read_around_a_table(tmp_path, char):
    """After the opening bracket, at every row break and before the closing
    one, the codec reads what json.loads reads: "\f" and "\v" are refused."""
    text = save_entry(tmp_path, "ix3", "monoid", monoid_to_json(symmetric_inverse_monoid(3))
                      ).read_text()
    (start, stop), = _tables(text)
    table = text[start:stop]
    for spaced in (char + table, table.replace("],\n[", f"],{char}\n["), table[:-1] + char + "]"):
        path = tmp_path / "spaced.json"
        path.write_bytes((text[:start] + spaced + text[stop:]).encode())
        assert _outcome(load_entry, path) == _outcome(reference_load_entry, path), spaced[:9]


def test_a_malformed_table_is_left_to_json_without_a_large_allocation(tmp_path):
    """A cell over 2^15-1 (which int16 parsing wraps) and a ragged table whose
    first row and row count span 3000 x 3000 cells load as through json, and
    the codec allocates no array of that bounding box (72 MB)."""
    text = save_entry(tmp_path, "ix3", "monoid", monoid_to_json(symmetric_inverse_monoid(3))
                      ).read_text()
    (start, stop), = _tables(text)
    ragged = "[\n[" + ", ".join(["0"] * 3000) + "]" + ",\n[0]" * 2999 + "\n]"
    for table in (text[start:stop].replace("[0, 0,", "[70000, 0,", 1), ragged):
        path = tmp_path / "bad.json"
        path.write_text(text[:start] + table + text[stop:])
        tracemalloc.start()
        try:
            outcome = _outcome(load_entry, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert outcome == _outcome(reference_load_entry, path) and outcome[0] is StructureError
        assert peak < 20 * 2 ** 20, peak


def test_an_entry_that_is_not_utf8_exits_2_naming_the_byte(tmp_path, capsys):
    """A 0xff byte beside a table the codec reads, and one inside it: either
    way the entry is refused with the decoder's message, at the byte's
    position in the file."""
    path = save_entry(tmp_path, "ix3", "monoid", monoid_to_json(symmetric_inverse_monoid(3)))
    data = path.read_bytes()
    for at in (data.index(b'"labels": ["') + 12, data.index(b'"mul": ') + 20):
        path.write_bytes(data[:at] + b"\xff" + data[at + 1:])
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: 'utf-8' codec can't decode byte 0xff in position {at}: invalid start byte\n")


def test_stored_entries_are_the_json_route_byte_for_byte(tmp_path, capsys):
    """Each corpus generator, ix4, ba6, a morphism and a groupoid's dual are
    stored exactly as json.dumps of each row would write them."""
    builds = [("ix", {}), ("bool-algebra", {}), ("group-zero", {"order": 3}), ("clifford", {}),
              ("brandt", {}), ("chain", {}), ("pair-groupoid", {"points": 3}),
              ("group-groupoid", {"order": 3}), ("union-groupoid", {}),
              ("trivial-groupoid", {"points": 2}),
              ("cn-element", {"expr": "{a1/a1a1, a2a1/a1a2, a2a2/a2}"}),
              ("ix", {"size": 4}), ("bool-algebra", {"atoms": 6})]
    assert {generator for generator, _ in builds} == set(GENERATORS)
    lists = {**{kind: codec[0] for kind, codec in KINDS.items()}, "monoid": monoid_to_json}
    expected = {}
    for generator, params in builds:
        name, kind, obj, _ = build(generator, **params)
        expected[name] = entry_to_json(name, kind, lists[kind](obj))
        flags = [x for key, value in params.items() for x in (f"--{key}", str(value))]
        assert main(["build", generator, *flags, "--store", str(tmp_path)]) == 0
    theta = projection_first(clifford_monoid(), group_with_zero_monoid(2))
    save_entry(tmp_path, "pi1", "morphism", morphism_to_json(theta))
    expected["pi1"] = entry_to_json("pi1", "morphism", morphism_to_json(theta))
    assert main(["dualize", "pair3", "--store", str(tmp_path)]) == 0
    dual = all_bisections_monoid(pair_groupoid(3)).monoid
    expected["pair3-dual"] = entry_to_json("pair3-dual", "monoid", monoid_to_json(dual))
    capsys.readouterr()
    for name, entry in expected.items():
        out = io.StringIO()
        reference_write_json(out, entry)
        assert (tmp_path / f"{name}.json").read_bytes() == (out.getvalue() + "\n").encode(), name
