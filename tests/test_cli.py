"""Command-line contract: build/check/dualize, formats, exit codes, store."""

import argparse
import ast
import dataclasses
import json
import re
from pathlib import Path

import pytest
from helpers import relabelled

from stonework import StructureError, boolean_algebra_monoid
from stonework.cli import main, make_parser
from stonework.config import Limits
from stonework.duality import identity_morphism
from stonework.groupoids import identity_functor, pair_groupoid
from stonework.serialize import (
    entry_to_json,
    functor_to_json,
    load_entry,
    monoid_to_json,
    morphism_to_json,
    save_entry,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_build_ix3(tmp_path, capsys):
    code, out, _ = run(capsys, "build", "ix", "--size", "3", "--store", str(tmp_path))
    assert code == 0
    data = json.loads(out)
    assert data["summary"]["elements"] == 34
    assert data["summary"]["boolean"]["is_boolean"] is True
    name, kind, monoid = load_entry("ix3", tmp_path)
    assert (name, kind, monoid.n) == ("ix3", "monoid", 34)


def test_build_pair_groupoid(tmp_path, capsys):
    code, out, _ = run(capsys, "build", "pair-groupoid", "--points", "2",
                       "--store", str(tmp_path))
    assert code == 0
    assert json.loads(out)["summary"]["arrows"] == 4


def test_build_cn_element(tmp_path, capsys):
    code, out, _ = run(capsys, "build", "cn-element", "--n", "2",
                       "--expr", "{a1/a1a1, a2a1/a1a2, a2a2/a2}",
                       "--store", str(tmp_path))
    assert code == 0
    summary = json.loads(out)["summary"]
    assert summary["unit"] is True
    assert summary["canonical"] == "{a1/a1a1, a2a1/a1a2, a2a2/a2}"
    name, kind, element = load_entry("cn2-element", tmp_path)
    assert kind == "cn-element" and len(element.pairs) == 3


def test_build_unknown_generator(tmp_path, capsys):
    code, _, err = run(capsys, "build", "ix", "--size", "9", "--store", str(tmp_path))
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("argv", [("ix", "--atoms", "3"), ("pair-groupoid", "--size", "5")])
def test_build_rejects_a_flag_the_generator_does_not_take(tmp_path, capsys, argv):
    code, out, err = run(capsys, "build", *argv, "--store", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert argv[1][2:] in err
    assert not any(tmp_path.iterdir())


def test_no_option_offers_a_single_choice():
    # an option with one choice is a flag that does nothing
    def actions(parser):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    yield from actions(sub)
            elif action.choices is not None:
                yield action

    lonely = [a.option_strings or [a.dest] for a in actions(make_parser())
              if len(a.choices) < 2]
    assert lonely == []


def test_every_limits_field_is_read():
    # a Limits field no code reads is a cap that a caller cannot change
    source = "".join(path.read_text() for path in
                     (Path(__file__).parents[1] / "src" / "stonework").glob("*.py"))
    unread = [f.name for f in dataclasses.fields(Limits)
              if not re.search(rf"\blimits\.{f.name}\b", source)]
    assert unread == []


def test_every_public_name_is_used():
    # a public function, class or method whose name appears only where it
    # is defined is dead code
    root = Path(__file__).parents[1]
    texts = {path: path.read_text() for folder in ("src", "tests", "perfbench")
             for path in (root / folder).rglob("*.py")}
    definitions: dict[str, int] = {}
    for path in (root / "src" / "stonework").glob("*.py"):
        for node in ast.parse(texts[path]).body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for item in [node, *members]:
                if isinstance(item, (ast.FunctionDef, ast.ClassDef)):
                    definitions[item.name] = definitions.get(item.name, 0) + 1
    unused = [name for name, count in sorted(definitions.items())
              if not name.startswith("_")
              and sum(len(re.findall(rf"\b{name}\b", text)) for text in texts.values()) <= count]
    assert unused == []


def test_check_boolean_pass_and_fail(tmp_path, capsys):
    run(capsys, "build", "ix", "--size", "2", "--store", str(tmp_path))
    code, out, _ = run(capsys, "check", "ix2", "--laws", "bm", "--store", str(tmp_path))
    assert code == 0
    assert json.loads(out)["ok"] is True

    run(capsys, "build", "chain", "--length", "3", "--store", str(tmp_path))
    code, out, _ = run(capsys, "check", "chain3", "--laws", "bm",
                       "--store", str(tmp_path))
    assert code == 1
    report = json.loads(out)
    witness = report["laws"][0]["failures"][0]
    assert witness[0] == "BM1"


def test_check_full_suite(tmp_path, capsys):
    run(capsys, "build", "group-zero", "--order", "2", "--store", str(tmp_path))
    code, out, _ = run(capsys, "check", "z2-zero", "--laws", "all",
                       "--store", str(tmp_path))
    assert code == 0
    names = {law["name"] for law in json.loads(out)["laws"]}
    assert "union-bisection-iff-join" in names


FULL_SUITE_LAWS = (
    "boolean-axioms", "compatible-iff-meet-splits", "join-splits-dom-ran",
    "products-distribute-over-meets", "downset-boolean-via-dom",
    "relative-complement-unique", "separation-below", "compatible-join-formula",
    "filter-base-pairwise", "ultra-criteria-agree", "nonzero-in-some-ultrafilter",
    "ultrafilter-intersection-principal", "filters-are-cosets", "product-smallest-filter",
    "domain-inverse-submonoid", "idempotent-filter-iff-closed", "filter-rigidity",
    "ultrafilters-prime", "inverse-semigroup", "idempotents-are-idempotent-filters",
    "order-is-reverse-inclusion", "three-way-equivalence", "is-bisection", "zero-is-empty",
    "meet-is-intersection", "inverse", "product", "order-embedding", "injective",
    "join-is-union", "union-bisection-iff-join", "surjective-on-bisections",
)


@pytest.mark.parametrize("build_args, entry, counts", [
    (("ix", "--size", "3"), "ix3",
     (1, 1156, 352, 39304, 34, 139, 1017, 352, 1675, 34, 33, 33, 34, 1156, 34, 34, 1156,
      9, 34, 34, 1156, 34, 34, 1, 1156, 34, 1156, 1156, 561, 352, 1156, 34)),
    (("bool-algebra", "--atoms", "4"), "bool-algebra-16",
     (1, 256, 256, 4096, 16, 81, 175, 256, 625, 16, 15, 15, 16, 256, 16, 16, 256,
      4, 16, 16, 256, 16, 16, 1, 256, 16, 256, 256, 120, 256, 256, 16)),
], ids=["ix3", "ba4"])
def test_check_all_report_is_pinned(tmp_path, capsys, build_args, entry, counts):
    """Every law of ``check --laws all`` in order, with its instance count
    and (empty) failure list."""
    run(capsys, "build", *build_args, "--store", str(tmp_path))
    code, out, _ = run(capsys, "check", entry, "--laws", "all", "--store", str(tmp_path))
    report = json.loads(out)
    assert (code, report["ok"], report["failures"]) == (0, True, 0)
    assert [(law["name"], law["instances"], law["failures"]) for law in report["laws"]] == \
        [(name, count, []) for name, count in zip(FULL_SUITE_LAWS, counts, strict=True)]


def test_check_non_boolean_with_filter_laws(tmp_path, capsys):
    run(capsys, "build", "brandt", "--store", str(tmp_path))
    code, out, _ = run(capsys, "check", "brandt", "--laws", "filters",
                       "--store", str(tmp_path))
    assert code == 1
    report = json.loads(out)
    assert report["laws"][0]["name"] == "boolean-precondition"
    assert report["laws"][0]["failures"][0][0] == "BM3"


def test_check_missing_entry(tmp_path, capsys):
    code, _, err = run(capsys, "check", "ghost", "--store", str(tmp_path))
    assert code == 2 and "error" in err


def test_dualize_monoid_round_trip(tmp_path, capsys):
    run(capsys, "build", "ix", "--size", "2", "--store", str(tmp_path))
    code, out, _ = run(capsys, "dualize", "ix2", "--round-trip",
                       "--store", str(tmp_path))
    assert code == 0
    data = json.loads(out)
    assert data["preserved_size"] == 7
    assert data["arrows"] == 4
    # the emitted dual is loadable and re-verifiable
    name, kind, dual = load_entry("ix2-dual", tmp_path)
    assert kind == "groupoid" and dual.m == 4
    code, _, _ = run(capsys, "check", "ix2-dual", "--laws", "point-filters",
                     "--store", str(tmp_path))
    assert code == 0


def test_dualize_groupoid_round_trip(tmp_path, capsys):
    run(capsys, "build", "union-groupoid", "--orders", "2,3", "--store", str(tmp_path))
    code, out, _ = run(capsys, "dualize", "union-z2-z3", "--round-trip",
                       "--store", str(tmp_path))
    assert code == 0
    data = json.loads(out)
    assert data["preserved_size"] == 5
    name, kind, dual = load_entry("union-z2-z3-dual", tmp_path)
    assert kind == "monoid" and dual.n == 12


def test_dualize_bool_algebra_gives_identity_groupoid(tmp_path, capsys):
    run(capsys, "build", "bool-algebra", "--atoms", "2", "--store", str(tmp_path))
    code, out, _ = run(capsys, "dualize", "bool-algebra-4", "--store", str(tmp_path))
    assert code == 0
    _, _, dual = load_entry("bool-algebra-4-dual", tmp_path)
    assert dual.m == 2 and len(dual.identities) == 2  # two discrete points


def test_dot_format(tmp_path, capsys):
    run(capsys, "build", "pair-groupoid", "--points", "2", "--store", str(tmp_path))
    from stonework.serialize import render

    _, _, g = load_entry("pair2", tmp_path)
    dot = render(g, "groupoid", "dot")
    assert dot.startswith("digraph") and "doublecircle" in dot


def test_global_flags_accepted_before_subcommand(tmp_path, capsys):
    code, out, _ = run(capsys, "--store", str(tmp_path), "--format", "text",
                       "build", "trivial-groupoid", "--points", "2")
    assert code == 0
    assert "trivial2" in out


@pytest.mark.parametrize("argv", [("--seed", "1", "build", "clifford"),
                                  ("build", "clifford", "--seed", "1")])
def test_seed_flag_is_rejected(tmp_path, argv):
    with pytest.raises(SystemExit) as exit_:
        main([*argv, "--store", str(tmp_path)])
    assert exit_.value.code == 2
    assert not any(tmp_path.iterdir())


def test_env_overrides(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("STONEWORK_STORE", str(tmp_path))
    monkeypatch.setenv("STONEWORK_FORMAT", "text")
    code, out, _ = run(capsys, "build", "clifford")
    assert code == 0
    assert "clifford" in out and (tmp_path / "clifford.json").exists()


def test_store_round_trip_lossless(tmp_path, capsys):
    run(capsys, "build", "ix", "--size", "2", "--store", str(tmp_path))
    _, _, first = load_entry("ix2", tmp_path)
    from stonework.serialize import monoid_to_json, save_entry

    save_entry(tmp_path, "copy", "monoid", monoid_to_json(first))
    _, _, second = load_entry("copy", tmp_path)
    assert monoid_to_json(first) == monoid_to_json(second)


def test_max_size_flag_guards_dualize(tmp_path, capsys):
    run(capsys, "build", "pair-groupoid", "--points", "3", "--store", str(tmp_path))
    code, _, err = run(capsys, "dualize", "pair3", "--store", str(tmp_path),
                       "--max-size", "4")
    assert code == 2
    assert "capped" in err


# -- malformed entries exit 2 -------------------------------------------------------

GROUPOID_CORRUPTIONS = {
    "d-range": lambda data: data["d"].__setitem__(1, data["m"]),
    "d-range-negative": lambda data: data["d"].__setitem__(1, -1),
    "r-range": lambda data: data["r"].__setitem__(2, data["m"] + 3),
    "inv-range": lambda data: data["inv"].__setitem__(1, data["m"]),
    "inv-range-negative": lambda data: data["inv"].__setitem__(4, -2),
    "compose-range": lambda data: data["compose"][0].__setitem__(2, data["m"]),
    "compose-range-negative": lambda data: data["compose"][5].__setitem__(0, -1),
    "float-cell-d": lambda data: data["d"].__setitem__(1, data["d"][1] + 0.5),
    "float-cell-inv": lambda data: data["inv"].__setitem__(3, data["inv"][3] + 0.25),
    "missing-key-m": lambda data: data.pop("m"),
    "missing-key-d": lambda data: data.pop("d"),
    "missing-key-r": lambda data: data.pop("r"),
    "missing-key-inv": lambda data: data.pop("inv"),
    "missing-key-compose": lambda data: data.pop("compose"),
    "missing-key-identities": lambda data: data.pop("identities"),
    "inv-not-composable": lambda data: data["inv"].__setitem__(
        *[next(g for g in range(data["m"]) if data["d"][g] != data["r"][g])] * 2),
    "labels-not-a-list": lambda data: data.__setitem__("labels", 0),
}

MONOID_CORRUPTIONS = {
    "mul-range": lambda data: data["mul"][5].__setitem__(3, data["n"] + 1),
    "inv-range": lambda data: data["inv"].__setitem__(3, -1),
    "float-cell-mul": lambda data: data["mul"][5].__setitem__(3, data["mul"][5][3] + 0.75),
    "float-cell-inv": lambda data: data["inv"].__setitem__(3, data["inv"][3] + 0.5),
    "float-zero": lambda data: data.__setitem__("zero", float(data["zero"])),
    "missing-key-n": lambda data: data.pop("n"),
    "missing-key-zero": lambda data: data.pop("zero"),
    "missing-key-one": lambda data: data.pop("one"),
    "missing-key-inv": lambda data: data.pop("inv"),
    "missing-key-mul": lambda data: data.pop("mul"),
    "labels-not-a-list": lambda data: data.__setitem__("labels", 0),
    "label-not-a-string": lambda data: data["labels"].__setitem__(2, 5),
}


def write_corrupted(tmp_path, capsys, build_argv, entry, corrupt):
    run(capsys, "build", *build_argv, "--store", str(tmp_path))
    path = tmp_path / f"{entry}.json"
    stored = json.loads(path.read_text())
    corrupt(stored["payload"])
    (tmp_path / "bad.json").write_text(json.dumps(stored))
    with pytest.raises(StructureError):
        load_entry("bad", tmp_path)


@pytest.mark.parametrize("how", sorted(GROUPOID_CORRUPTIONS))
def test_corrupted_groupoid_entry_exits_2(tmp_path, capsys, how):
    write_corrupted(tmp_path, capsys, ("pair-groupoid", "--points", "3"), "pair3",
                    GROUPOID_CORRUPTIONS[how])
    code, out, err = run(capsys, "check", "bad", "--laws", "point-filters",
                         "--store", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("how", sorted(MONOID_CORRUPTIONS))
def test_corrupted_monoid_entry_exits_2(tmp_path, capsys, how):
    write_corrupted(tmp_path, capsys, ("ix", "--size", "2"), "ix2", MONOID_CORRUPTIONS[how])
    code, out, err = run(capsys, "check", "bad", "--laws", "bm", "--store", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def valid_entry(kind):
    ba1 = boolean_algebra_monoid(1)
    payload = {
        "monoid": lambda: monoid_to_json(ba1),
        "morphism": lambda: morphism_to_json(identity_morphism(ba1)),
        "functor": lambda: functor_to_json(identity_functor(pair_groupoid(2))),
        "cn-element": lambda: {"n": 2, "expr": "{a1/a1a1, a2a1/a1a2, a2a2/a2}"},
    }[kind]()
    return entry_to_json("good", kind, payload)


def without(key):
    return lambda data: {k: v for k, v in data.items() if k != key}


def in_payload(corrupt):
    return lambda entry: {**entry, "payload": corrupt(entry["payload"])}


# name -> (kind of the valid entry, corrupted copy of the whole stored entry)
ENTRY_CORRUPTIONS = {
    "entry-is-list": ("monoid", lambda entry: [entry]),
    "entry-is-string": ("monoid", lambda entry: "good"),
    "missing-name": ("monoid", without("name")),
    "missing-kind": ("monoid", without("kind")),
    "missing-payload": ("monoid", without("payload")),
    "name-not-a-string": ("monoid", lambda entry: {**entry, "name": 5}),
    "payload-is-list": ("monoid", in_payload(lambda data: [data])),
    "morphism-missing-source": ("morphism", in_payload(without("source"))),
    "morphism-missing-target": ("morphism", in_payload(without("target"))),
    "morphism-missing-map": ("morphism", in_payload(without("map"))),
    "morphism-source-is-list": ("morphism", in_payload(lambda d: {**d, "source": []})),
    "morphism-map-not-a-list": ("morphism", in_payload(lambda d: {**d, "map": 1})),
    "morphism-map-range": ("morphism", in_payload(lambda d: {**d, "map": [0, 7]})),
    "morphism-weak-not-bool": ("morphism", in_payload(lambda d: {**d, "weak": "yes"})),
    "functor-missing-source": ("functor", in_payload(without("source"))),
    "functor-missing-target": ("functor", in_payload(without("target"))),
    "functor-missing-map": ("functor", in_payload(without("map"))),
    "functor-map-range": ("functor", in_payload(lambda d: {**d, "map": [0, 1, 2, -1]})),
    "cn-missing-expr": ("cn-element", in_payload(without("expr"))),
    "cn-missing-n": ("cn-element", in_payload(without("n"))),
    "cn-n-not-int": ("cn-element", in_payload(lambda d: {**d, "n": "2"})),
    "cn-expr-not-str": ("cn-element", in_payload(lambda d: {**d, "expr": 5})),
}


@pytest.mark.parametrize("how", sorted(ENTRY_CORRUPTIONS))
def test_malformed_entry_exits_2(tmp_path, capsys, how):
    kind, corrupt = ENTRY_CORRUPTIONS[how]
    entry = valid_entry(kind)
    (tmp_path / "good.json").write_text(json.dumps(entry))
    assert load_entry("good", tmp_path)[1] == kind
    (tmp_path / "bad.json").write_text(json.dumps(corrupt(entry)))
    with pytest.raises(StructureError):
        load_entry("bad", tmp_path)
    code, out, err = run(capsys, "check", "bad", "--store", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# -- deterministic output -----------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_dualize_round_trip_output_is_deterministic(tmp_path, capsys, seed):
    # relabelled ix3 has ultrafilters that tie on their least member index
    run(capsys, "build", "ix", "--size", "3", "--store", str(tmp_path))
    payload = json.loads((tmp_path / "ix3.json").read_text())["payload"]
    save_entry(tmp_path, "shuffled", "monoid", relabelled(payload, seed))
    outputs = []
    for _ in range(3):
        code, out, _ = run(capsys, "dualize", "shuffled", "--round-trip",
                           "--store", str(tmp_path))
        assert code == 0
        data = json.loads(out)
        del data["certificate"]["elapsed_s"]   # a timing, not part of the result
        outputs.append(data)
    assert outputs[0]["preserved_size"] == 34
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
