"""Lossless JSON round trips with re-verification on load."""

import gc
import json

import pytest

from helpers import projection_first
from stonework import (
    StructureError,
    clifford_monoid,
    group_with_zero_monoid,
    serialize,
    symmetric_inverse_monoid,
)
from stonework.cli import main
from stonework.duality import stone_groupoid
from stonework.groupoids import CoveringFunctor, pair_groupoid, trivial_groupoid
from stonework.serialize import (
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


def test_a_table_is_scanned_for_json_booleans_only_when_the_text_has_them(
        tmp_path, monkeypatch):
    # InverseMonoid scans a list table for bools, which numpy reads as 1/0;
    # without a true or false in the entry there is none, and it gets an array
    lists = []
    real = serialize.InverseMonoid

    def recording(mul, *args, **kwargs):
        lists.append(isinstance(mul, list))
        return real(mul, *args, **kwargs)

    monkeypatch.setattr(serialize, "InverseMonoid", recording)
    data = monoid_to_json(symmetric_inverse_monoid(2))
    save_entry(tmp_path, "plain", "monoid", data)
    save_entry(tmp_path, "label-true", "monoid", {**data, "labels": ["true"] * data["n"]})
    plain, labelled = (load_entry(name, tmp_path)[2] for name in ("plain", "label-true"))
    assert lists == [False, True]
    assert monoid_to_json(plain) == data
    assert labelled.mul.tolist() == data["mul"]


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
    assert data["ultrafilters"] == [sorted(f) for f in sg.ultrafilters]


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
