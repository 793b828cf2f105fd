"""Command-line contract: build/check/dualize, formats, exit codes, store."""

import argparse
import ast
import importlib
import json
import os
import re
import runpy
import subprocess
import symtable
import sys
import tracemalloc
from pathlib import Path

import pytest
from helpers import idempotent_embedding_ba2_into_ix2, relabelled

import stonework
from stonework import (MAX_ELEMENTS, BoundError, StructureError, boolean_algebra_monoid, cli,
                       filters, laws, symmetric_inverse_monoid)
from stonework.cli import main, make_parser
from stonework.duality import identity_morphism
from stonework.groupoids import (CoveringFunctor, groupoid_to_dot, identity_functor, pair_groupoid,
                                 trivial_groupoid)
from stonework.serialize import (
    entry_to_json,
    functor_to_json,
    groupoid_to_json,
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


@pytest.mark.parametrize("argv", [("check", "ix3", "--laws", "basic-open"),
                                  ("check", "ix3", "--laws", "all"),
                                  ("check", "pair3", "--laws", "point-filters"),
                                  ("dualize", "ix3", "--round-trip")])
def test_max_size_is_honoured_wherever_bisections_are_enumerated(tmp_path, capsys, argv):
    # ix3's dual and pair3 have 34 bisections: a bound of 34 admits them, 33 does not
    run(capsys, "build", "ix", "--size", "3", "--store", str(tmp_path))
    run(capsys, "build", "pair-groupoid", "--points", "3", "--store", str(tmp_path))
    assert run(capsys, *argv, "--store", str(tmp_path), "--max-size", "34")[0] == 0
    code, out, err = run(capsys, *argv, "--store", str(tmp_path), "--max-size", "33")
    assert code == 2 and out == "" and "capped at 33" in err


@pytest.mark.parametrize("value", ["abc", "-1", "1.5"])
def test_a_bad_max_size_flag_exits_2(tmp_path, capsys, value):
    # the flag takes a non-negative integer
    run(capsys, "build", "ix", "--size", "3", "--store", str(tmp_path))
    with pytest.raises(SystemExit) as exit_:
        main(["dualize", "ix3", "--round-trip", "--max-size", value, "--store", str(tmp_path)])
    out, err = capsys.readouterr()
    assert exit_.value.code == 2 and out == ""
    assert "--max-size" in err and repr(value) in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ix3.json"]


def test_every_public_name_is_used():
    # a public function, class or method is dead code unless some module of
    # src/, tests/ or perfbench/ reads its name as an attribute or imports it
    # from stonework, or its own module loads it as a global, outside a def
    # of that name; a local, parameter or import from elsewhere of the same
    # name, a comment, docstring or string is no use
    root = Path(__file__).parents[1]
    package = root / "src" / "stonework"
    used: set[str] = set()

    def visit(node, inside, in_package):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            used.update({node.attr} - inside)
        elif isinstance(node, ast.ImportFrom) and (
                in_package if node.level else node.module.split(".")[0] == "stonework"):
            used.update({alias.name for alias in node.names} - inside)
        for child in ast.iter_child_nodes(node):
            visit(child, inside, in_package)

    def load_globals(table, inside, defs):
        # symtable resolves each loaded name in its scope: module level, or global there
        for symbol in table.get_symbols():
            if symbol.is_referenced() and (table.get_type() == "module" or symbol.is_global()):
                used.update({symbol.get_name()} & defs - inside)
        for child in table.get_children():
            load_globals(child, inside | {child.get_name()}, defs)

    for folder in ("src", "tests", "perfbench"):
        for path in (root / folder).rglob("*.py"):
            visit(ast.parse(path.read_text()), frozenset(), path.parent == package)
    defined = set()
    for path in package.glob("*.py"):
        source = path.read_text()
        body = ast.parse(source).body
        load_globals(symtable.symtable(source, str(path), "exec"), frozenset(),
                     {node.name for node in body
                      if isinstance(node, (ast.FunctionDef, ast.ClassDef))})
        for node in body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            defined.update(item.name for item in [node, *members]
                           if isinstance(item, (ast.FunctionDef, ast.ClassDef))
                           and not item.name.startswith("_"))
    assert sorted(defined - used) == []


# helpers that only perfbench/workloads.py imports: they leave src/ in a
# change to the benchmark, which may not touch perfbench/ otherwise
BENCHMARK_HELPERS = {"random_cn_element", "random_arrow", "random_prefix_code",
                     "is_unit_definitional", "oracle_agrees_on_product", "oracle_agrees_on_join"}


def test_every_public_def_is_exported_or_used_in_src():
    # a public module-level def is used when its own module loads its name,
    # another module of src/ imports it by name, stonework exports it or the
    # benchmark reads it; anything else is test or benchmark scaffolding, and
    # a parameter or attribute of the same name elsewhere does not hide it
    trees = {path.name: ast.parse(path.read_text())
             for path in (Path(__file__).parents[1] / "src" / "stonework").glob("*.py")}
    loaded = {path: {node.id for node in ast.walk(tree)
                     if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
              for path, tree in trees.items()}
    imported = {path: {alias.name for node in ast.walk(tree)
                       if isinstance(node, ast.ImportFrom) for alias in node.names}
                for path, tree in trees.items()}
    defined = [(path, node.name) for path, tree in sorted(trees.items()) for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")]
    assert {name for _, name in defined} >= BENCHMARK_HELPERS
    kept = {*stonework.__all__, *BENCHMARK_HELPERS}
    unused = [f"{path}:{name}" for path, name in defined
              if name not in kept | loaded[path]
              and not any(name in names for other, names in imported.items() if other != path)]
    assert unused == []


def test_no_bitmask_twin_of_the_order_in_src():
    # a filter is its generator and its members a row of the order matrix:
    # no int-bitmask copy of the order, or helpers for one, may return
    pattern = re.compile(r"iter_bits|mask_of|up_mask|\.up\b|preimage_mask")
    root = Path(__file__).parents[1] / "src"
    hits = [f"{path.name}:{number}" for path in sorted(root.rglob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if pattern.search(line)]
    assert hits == []


def test_each_law_is_added_once_with_its_count_and_witnesses():
    # a LawResult is a value: no accumulator that starts a law at 0
    # instances and ticks or fails it afterwards may return to src
    pattern = re.compile(r"\.tick\(|\.fail\(|fail_where|report\.new\(|failures \+=")
    root = Path(__file__).parents[1] / "src"
    hits = [f"{path.name}:{number}" for path in sorted(root.rglob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if pattern.search(line)]
    assert hits == []


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


def test_check_all_builds_the_filter_products_once(tmp_path, capsys, monkeypatch):
    """Both filter suites read the table the monoid keeps: ``check --laws
    all`` asks for it twice and is given the one table built first."""
    run(capsys, "build", "ix", "--size", "3", "--store", str(tmp_path))
    tables, real = [], filters.filter_products

    def recorded(monoid):
        tables.append(real(monoid))
        return tables[-1]

    monkeypatch.setattr(laws, "filter_products", recorded)
    assert run(capsys, "check", "ix3", "--laws", "all", "--store", str(tmp_path))[0] == 0
    assert len(tables) == 2 and tables[0] is tables[1]


@pytest.mark.parametrize("law_set", ["all", "filters", "filter-semigroup"])
def test_each_filter_check_makes_one_lower_bounds_pass(tmp_path, capsys, monkeypatch, law_set):
    """The pass that builds the kept product table also gives product-smallest-filter,
    so each check runs ``filters.lower_bounds`` once, whichever module calls it."""
    run(capsys, "build", "ix", "--size", "3", "--store", str(tmp_path))
    passes, real = [], filters.lower_bounds

    def counted(monoid):
        passes.append(monoid.n)
        return real(monoid)

    for module in (filters, laws):
        monkeypatch.setattr(module, "lower_bounds", counted)
    assert run(capsys, "check", "ix3", "--laws", law_set, "--store", str(tmp_path))[0] == 0
    assert passes == [34]


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
    (("ix", "--size", "4"), "ix4",
     (1, 43681, 5233, 9129329, 209, 1473, 42208, 5233, 66113, 209, 208, 208, 209, 43681, 209,
      209, 43681, 16, 209, 209, 43681, 209, 209, 1, 43681, 209, 43681, 43681, 21736, 5233,
      43681, 209)),
], ids=["ix3", "ba4", "ix4"])
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


@pytest.mark.parametrize("build_argv, entry, laws, counts", [
    (("ix", "--size", "3"), "ix3", "order", [
        ("compatible-iff-meet-splits", 1156), ("join-splits-dom-ran", 352),
        ("products-distribute-over-meets", 39304), ("downset-boolean-via-dom", 34),
        ("relative-complement-unique", 139), ("separation-below", 1017),
        ("compatible-join-formula", 352)]),
    (("clifford",), "clifford", "clifford", [("clifford-groupoid-has-loops-only", 1)]),
], ids=["ix3-order", "clifford-clifford"])
def test_order_and_clifford_law_sets_run_to_the_end(tmp_path, capsys, build_argv, entry, laws,
                                                    counts):
    run(capsys, "build", *build_argv, "--store", str(tmp_path))
    code, out, _ = run(capsys, "check", entry, "--laws", laws, "--store", str(tmp_path))
    report = json.loads(out)
    assert (code, report["ok"], report["failures"]) == (0, True, 0)
    assert [(law["name"], law["instances"]) for law in report["laws"]] == counts


def test_clifford_laws_on_ix2_name_an_element_with_dom_not_ran(tmp_path, capsys):
    run(capsys, "build", "ix", "--size", "2", "--store", str(tmp_path))
    code, out, _ = run(capsys, "check", "ix2", "--laws", "clifford", "--store", str(tmp_path))
    (law,) = json.loads(out)["laws"]
    assert (code, law["name"], law["failures"]) == (
        1, "clifford-groupoid-has-loops-only", [["not-clifford", 2]])
    ix2 = load_entry("ix2", tmp_path)[2]
    assert ix2.labels[2] == "{1->2}" and ix2.dom(2) != ix2.ran(2)


@pytest.mark.parametrize("build_argv, entry, kind, certified", [
    (("ix", "--size", "2"), "ix2", "groupoid", "cardinalityx1, bijectivex7, multiplicativex49, "
     "inverse-preservingx7, zero-onex2, meet-and-orderx49"),
    (("pair-groupoid", "--points", "2"), "pair2", "monoid", "cardinalityx1, bijectivex4, "
     "dom-ran-inversex12, compositionx16, identitiesx2, bisection-transportx7"),
], ids=["monoid", "groupoid"])
def test_dualize_in_text(tmp_path, capsys, build_argv, entry, kind, certified):
    run(capsys, "build", *build_argv, "--store", str(tmp_path))
    store = ["--store", str(tmp_path), "--format", "text"]
    head = f"{entry} -> {entry}-dual ({kind}), stored at {tmp_path / f'{entry}-dual.json'}\n"
    assert run(capsys, "dualize", entry, *store) == (0, head, "")
    assert run(capsys, "dualize", entry, "--round-trip", *store) == (
        0, f"{head}  round trip certified: {certified}\n", "")


def test_axioms_of_a_stored_weak_morphism_name_its_m3_witness(tmp_path, capsys):
    weak = idempotent_embedding_ba2_into_ix2(boolean_algebra_monoid(2),
                                             symmetric_inverse_monoid(2))
    save_entry(tmp_path, "weak", "morphism", morphism_to_json(weak))
    code, out, _ = run(capsys, "check", "weak", "--laws", "axioms", "--store", str(tmp_path))
    (law,) = json.loads(out)["laws"]
    assert (code, law["name"], law["failures"]) == (1, "axioms", [["M3", [[2, 6]]]])


def _covering_report(ok: bool, failures: list) -> dict:
    return {"entry": "f", "subject": "covering functor", "ok": ok, "failures": len(failures),
            "laws": [{"name": "covering", "instances": 1, "ok": ok, "failures": failures}]}


@pytest.mark.parametrize("make, code, expected", [
    (lambda p2, p3, t1: identity_functor(p3), 0, _covering_report(True, [])),
    (lambda p2, p3, t1: CoveringFunctor(p2, t1, (0, 0, 0, 0)), 1,
     _covering_report(False, [["star-injectivity", 0, 0, 2]])),
    (lambda p2, p3, t1: CoveringFunctor(t1, p2, (0,)), 1,
     _covering_report(False, [["star-surjectivity", 0, 2]])),
], ids=["identity-pair3", "collapse-pair2", "misses-a-star"])
def test_check_covering_prints_the_one_law_report(tmp_path, capsys, make, code, expected):
    """check --laws covering on a stored functor: the identity on pair3 is a
    covering; pair2 onto a point sends two arrows of star(0) to one; the point
    into pair2 misses arrow 2 of star(0)."""
    functor = make(pair_groupoid(2), pair_groupoid(3), trivial_groupoid(1))
    save_entry(tmp_path, "f", "functor", functor_to_json(functor))
    got, out, err = run(capsys, "check", "f", "--laws", "covering", "--store", str(tmp_path))
    assert (got, json.loads(out), err) == (code, expected, "")


def test_dot_format(tmp_path, capsys):
    code, out, _ = run(capsys, "build", "pair-groupoid", "--points", "2", "--format", "dot",
                       "--store", str(tmp_path))
    _, _, g = load_entry("pair2", tmp_path)
    assert code == 0 and out == groupoid_to_dot(g) + "\n"
    assert out.startswith("digraph") and "doublecircle" in out


def test_dualize_dot_renders_the_dual_it_built(tmp_path, capsys, monkeypatch):
    run(capsys, "build", "ix", "--size", "3", "--store", str(tmp_path))
    run(capsys, "build", "pair-groupoid", "--points", "3", "--store", str(tmp_path))
    loads = []
    monkeypatch.setattr(cli, "load_entry", lambda *args: loads.append(args) or load_entry(*args))
    code, out, _ = run(capsys, "dualize", "ix3", "--format", "dot", "--store", str(tmp_path))
    assert code == 0 and len(loads) == 1                # the dual is not read back
    dual = load_entry("ix3-dual", tmp_path)[2]
    assert out == groupoid_to_dot(dual) + "\n"
    code, out, err = run(capsys, "dualize", "pair3", "--format", "dot", "--store", str(tmp_path))
    assert code == 2 and out == ""
    assert "dot output is only defined for groupoids" in err


def test_dualize_dot_keeps_a_stored_label_in_its_string(tmp_path, capsys):
    """A label with a quote and a bracket in a stored entry renders as text:
    the dual's DOT has one statement per identity and per other arrow."""
    run(capsys, "build", "bool-algebra", "--name", "ba2q", "--store", str(tmp_path))
    path = tmp_path / "ba2q.json"
    entry = json.loads(path.read_text())
    entry["payload"]["labels"][1] = 'a"]; evil [shape=box'
    path.write_text(json.dumps(entry))
    code, out, _ = run(capsys, "dualize", "ba2q", "--format", "dot", "--store", str(tmp_path))
    dual = load_entry("ba2q-dual", tmp_path)[2]
    assert code == 0 and out == groupoid_to_dot(dual) + "\n"
    bare = re.sub(r'"(?:[^"\\]|\\.)*"', '""', out)
    assert "evil" not in bare and bare.count(";") == dual.m
    assert 'label="a\\"]; evil [shape=box' in out


def test_a_closed_stdout_keeps_the_commands_exit_code(tmp_path):
    """A reader that has gone, as in ``check ... | head -1``, is no input
    error: with stdout a pipe whose read end is closed first, so that every
    write fails, each command prints nothing on stderr, keeps its exit code
    (1 for a failed law report) and still saves what it built."""
    def closed(*argv):
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "stonework.cli", *argv, "--store", str(tmp_path)],
                stdout=write, stderr=subprocess.PIPE, timeout=120,
                env={**os.environ, "PYTHONPATH": str(Path(stonework.__file__).parents[1])})
        finally:
            os.close(write)
        return done.returncode, done.stderr.decode()

    assert closed("build", "chain", "--length", "2") == (0, "")
    assert closed("build", "brandt", "--format", "text") == (0, "")
    assert [p.name for p in sorted(tmp_path.iterdir())] == ["brandt.json", "chain2.json"]
    assert closed("check", "chain2", "--laws", "all") == (0, "")
    assert closed("check", "brandt", "--laws", "all") == (1, "")
    assert closed("dualize", "chain2", "--round-trip", "--format", "dot") == (0, "")
    assert (tmp_path / "chain2-dual.json").exists()
    code, err = closed("check", "ghost")
    assert code == 2 and err.startswith("error: ")


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


def test_store_round_trip_lossless(tmp_path, capsys):
    run(capsys, "build", "ix", "--size", "2", "--store", str(tmp_path))
    _, _, first = load_entry("ix2", tmp_path)
    from stonework.serialize import monoid_to_json, save_entry

    save_entry(tmp_path, "copy", "monoid", monoid_to_json(first))
    _, _, second = load_entry("copy", tmp_path)
    assert monoid_to_json(first) == monoid_to_json(second)


def test_max_size_flag_guards_dualize(tmp_path, capsys):
    # pair3 has 34 bisections
    run(capsys, "build", "pair-groupoid", "--points", "3", "--store", str(tmp_path))
    code, _, err = run(capsys, "dualize", "pair3", "--store", str(tmp_path),
                       "--max-size", "33")
    assert code == 2
    assert "has at least 34 bisections" in err and "capped at 33" in err


@pytest.mark.parametrize("argv, message", [
    (("dualize", "ix3", "--round-trip", "--max-size", "33"), "capped at 33"),
    (("dualize", "pair3", "--format", "dot"), "dot output is only defined for groupoids"),
], ids=["round-trip-capped", "dot-of-a-monoid"])
def test_a_refused_dualize_writes_nothing(tmp_path, capsys, argv, message):
    """The dual is saved only after the round trip and the rendering, so a
    command that exits 2 leaves the store as it found it."""
    run(capsys, "build", "ix", "--size", "3", "--store", str(tmp_path))
    run(capsys, "build", "pair-groupoid", "--points", "3", "--store", str(tmp_path))
    before = sorted(p.name for p in tmp_path.iterdir())
    code, out, err = run(capsys, *argv, "--store", str(tmp_path))
    assert code == 2 and out == ""
    assert message in err
    assert sorted(p.name for p in tmp_path.iterdir()) == before


@pytest.mark.parametrize("argv, message", [
    (("build", "ix", "--size", "2", "--format", "dot"), "dot output is only defined for groupoids"),
    (("check", "ix3", "--format", "dot"), "dot output is only defined for groupoids"),
], ids=["build-dot-of-a-monoid", "check-dot"])
def test_a_refused_build_or_check_writes_nothing(tmp_path, capsys, argv, message):
    """build renders before it saves, as dualize does, and a law report has
    no dot rendering: both exit 2 with no output and the store unchanged."""
    run(capsys, "build", "ix", "--size", "3", "--store", str(tmp_path))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    code, out, err = run(capsys, *argv, "--store", str(tmp_path))
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("name", ["../escape", "sub/x", ".", "..", ""])
def test_build_refuses_a_name_that_is_no_file_in_the_store(tmp_path, capsys, name):
    """--name is the entry's file name in the store: one that is empty, "."
    or "..", or holds "/", exits 2 before anything is written."""
    code, out, err = run(capsys, "build", "ix", "--size", "2", "--name", name,
                         "--store", str(tmp_path / "store"))
    assert (code, out, err) == (2, "", f"error: entry name {name!r} is not a file name in "
                                       "the store\n")
    assert list(tmp_path.rglob("*")) == []


@pytest.mark.parametrize("name", ["../../x", "sub/x"])
def test_dualize_refuses_a_stored_name_whose_dual_is_no_file_in_the_store(tmp_path, capsys,
                                                                           name):
    """The dual of a stored entry is saved as its name + "-dual": a stored name
    that would put it outside the store is refused as the entry is loaded,
    with exit 2, and nothing is written."""
    store = tmp_path / "a" / "b" / "store"
    run(capsys, "build", "ix", "--size", "2", "--store", str(store))
    entry = store / "ix2.json"
    entry.write_text(entry.read_text().replace('"name": "ix2"', f'"name": "{name}"', 1))
    before = sorted(tmp_path.rglob("*"))
    code, out, err = run(capsys, "dualize", "ix2", "--store", str(store))
    assert (code, out, err) == (2, "", f"error: entry name '{name}' is not a file name "
                                       "in the store\n")
    assert sorted(tmp_path.rglob("*")) == before


def test_save_entry_refuses_an_empty_name_before_it_makes_the_store(tmp_path):
    with pytest.raises(StructureError, match="^entry name '' is not a file name in the store$"):
        save_entry(tmp_path / "store", "", "monoid", monoid_to_json(boolean_algebra_monoid(1)))
    assert list(tmp_path.rglob("*")) == []


@pytest.mark.parametrize("entry", ["chain3", "brandt"])
def test_clifford_on_a_non_boolean_monoid_reports_the_precondition(tmp_path, capsys, entry):
    # every monoid law set reports a failed boolean precondition the same way
    run(capsys, "build", "chain", "--length", "3", "--store", str(tmp_path))
    run(capsys, "build", "brandt", "--store", str(tmp_path))
    reports = {}
    for law_set in ("clifford", "order", "filters", "basic-open", "ultra-equivalence"):
        code, out, err = run(capsys, "check", entry, "--laws", law_set, "--store", str(tmp_path))
        assert (code, err) == (1, "")
        report = json.loads(out)
        assert report["subject"] == f"{law_set} (requires a boolean monoid)"
        reports[law_set] = report["laws"]
    assert [law["name"] for law in reports["clifford"]] == ["boolean-precondition"]
    assert reports["clifford"][0]["failures"][0][0] == {"chain3": "BM1", "brandt": "BM3"}[entry]
    assert all(laws == reports["clifford"] for laws in reports.values())


@pytest.mark.parametrize("case", ["check-a-directory", "store-is-a-file", "entry-is-a-directory"])
def test_an_os_error_exits_2(tmp_path, capsys, case):
    (tmp_path / "file").write_text("not a store\n")
    (tmp_path / "ghost.json").mkdir()
    argv = {"check-a-directory": ("check", str(tmp_path / "ghost.json")),
            "store-is-a-file": ("build", "ix", "--size", "2", "--store", str(tmp_path / "file")),
            "entry-is-a-directory": ("check", "ghost", "--store", str(tmp_path))}[case]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert (tmp_path / "file").read_text() == "not a store\n"


def test_main_builds_no_parser(tmp_path, capsys, monkeypatch):
    # the parser is the same for every call, so it is built once, on import
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *args, **kwargs: built.append(1) or init(self, *args, **kwargs))
    store = ("--store", str(tmp_path))
    for argv in (("build", "ix", "--size", "2"), ("check", "ix2", "--format", "text"),
                 ("dualize", "ix2", "--round-trip"), ("check", "ghost")):
        run(capsys, *argv, *store)
    with pytest.raises(SystemExit):
        main(["check", "ix2", "--laws", "nope", *store])
    assert built == []


def test_a_global_flag_goes_before_or_after_the_subcommand_and_has_a_default(capsys,
                                                                             monkeypatch):
    seen = []
    monkeypatch.setitem(cli.COMMANDS, "check", lambda args: seen.append(vars(args)) or 0)
    for argv in (("check", "ix2"),
                 ("--store", "st", "--max-size", "7", "--format", "text", "check", "ix2"),
                 ("check", "ix2", "--store", "st", "--max-size", "7", "--format", "text")):
        assert main(list(argv)) == 0
    assert [(args["store"], args["max_size"], args["format"]) for args in seen] == [
        ("./stonework-store", MAX_ELEMENTS, "json"), ("st", 7, "text"), ("st", 7, "text")]
    # a usage error exits 2 before any command runs
    with pytest.raises(SystemExit) as exit_:
        main(["check", "ix2", "--laws", "nope"])
    out, err = capsys.readouterr()
    assert exit_.value.code == 2 and out == "" and "invalid choice: 'nope'" in err
    assert len(seen) == 3


def test_the_environment_changes_no_command(tmp_path, capsys, monkeypatch):
    """STONEWORK_* variables are neither read nor refused: with each set, and
    no global flag given, every command prints, exits and stores as with
    none set."""
    def session(folder):
        folder.mkdir()
        monkeypatch.chdir(folder)
        outcomes = [run(capsys, *argv) for argv in (
            ("build", "ix", "--size", "2"), ("check", "ix2", "--laws", "all"),
            ("check", "ghost"), ("dualize", "ix2", "--round-trip"))]
        store = folder / "stonework-store"
        return ([(code, re.sub(r'"elapsed_s": [^,}]+', '"elapsed_s": 0', out), err)
                 for code, out, err in outcomes],
                {p.name: p.read_bytes() for p in store.iterdir()})

    plain = session(tmp_path / "plain")
    monkeypatch.setenv("STONEWORK_STORE", str(tmp_path / "elsewhere"))
    monkeypatch.setenv("STONEWORK_MAX_SIZE", "-1")
    monkeypatch.setenv("STONEWORK_FORMAT", "yaml")
    assert session(tmp_path / "set") == plain
    assert [code for code, _, _ in plain[0]] == [0, 0, 2, 0]
    assert sorted(plain[1]) == ["ix2-dual.json", "ix2.json"]
    assert not (tmp_path / "elsewhere").exists()


def test_no_module_in_src_reads_the_environment():
    # a setting comes from the command line or a keyword, never from os.environ
    names = {"environ", "environb", "getenv"}
    hits = [f"{path.name}:{node.lineno}"
            for path in sorted((Path(__file__).parents[1] / "src" / "stonework").glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr in names
            or isinstance(node, ast.ImportFrom) and node.module == "os"
            and any(alias.name in names for alias in node.names)]
    assert hits == []


def test_law_set_choices_come_from_one_table():
    sub = next(a for a in cli.PARSER._actions if isinstance(a, argparse._SubParsersAction))
    laws = next(a for a in sub.choices["check"]._actions if a.dest == "laws")
    assert laws.choices == ("bm", "order", "filters", "filter-semigroup", "ultra-equivalence",
                            "basic-open", "clifford", "all", "point-filters", "covering", "axioms")
    assert laws.default == "all"


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
    "identity-twice": lambda data: data["identities"].append(data["identities"][0]),
    "compose-pair-twice": lambda data: data["compose"].insert(
        0, [*data["compose"][0][:2], (data["compose"][0][2] + 1) % data["m"]]),
}


@pytest.mark.parametrize("index", [2 ** 63, 2 ** 64, -2 ** 63 - 1])
@pytest.mark.parametrize("field", ["identities", "d", "r", "inv", "compose"])
@pytest.mark.parametrize("kind", ["groupoid", "functor"])
def test_an_index_past_int64_in_a_stored_groupoid_exits_2(tmp_path, capsys, kind, field,
                                                          index):
    """Range-checked as given: narrowed to int64 first, it would overflow."""
    pair2 = pair_groupoid(2)
    payload = (groupoid_to_json(pair2) if kind == "groupoid"
               else functor_to_json(identity_functor(pair2)))
    groupoid = payload if kind == "groupoid" else payload["source"]
    (groupoid["compose"][0] if field == "compose" else groupoid[field])[0] = index
    save_entry(tmp_path, "bad", kind, payload)
    message = f"{field} {index} is outside 0..3"
    with pytest.raises(StructureError, match=f"^{message}$"):
        load_entry("bad", tmp_path)
    code, out, err = run(capsys, "check", "bad", "--store", str(tmp_path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


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
    "bool-cell-mul": lambda data: data["mul"][1].__setitem__(data["one"], True),  # was 1
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


@pytest.mark.parametrize("build_argv, entry, key, value", [
    (("ix", "--size", "3"), "ix3", "n", 34.0),
    (("bool-algebra", "--atoms", "0"), "bool-algebra-1", "n", True),
    (("trivial-groupoid", "--points", "1"), "trivial1", "m", True),
], ids=["float-n-ix3", "true-n-ba0", "true-m-trivial1"])
def test_a_declared_size_must_be_an_integer(tmp_path, capsys, build_argv, entry, key, value):
    """A declared size equal to the true size, but stored as a float or a
    bool, is refused like any other non-integer index."""
    write_corrupted(tmp_path, capsys, build_argv, entry,
                    lambda payload: payload.__setitem__(key, value))
    code, out, err = run(capsys, "check", "bad", "--store", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_groupoid_over_the_arrow_cap_is_refused_before_allocating(tmp_path, capsys):
    # a valid trivial groupoid, one arrow too many for its m x m table
    m = MAX_ELEMENTS + 1
    arrows = list(range(m))
    save_entry(tmp_path, "huge", "groupoid", {
        "m": m, "identities": arrows, "d": arrows, "r": arrows, "inv": arrows,
        "compose": [[e, e, e] for e in arrows], "labels": None})
    tracemalloc.start()
    try:
        with pytest.raises(BoundError, match="capped"):
            load_entry("huge", tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < m * m * 8 // 10          # the int64 table would take m * m * 8 bytes
    code, out, err = run(capsys, "check", "huge", "--laws", "point-filters",
                         "--store", str(tmp_path))
    assert code == 2 and out == "" and "capped" in err


@pytest.mark.parametrize("argv", [("chain", "--length", "5000"),
                                  ("group-zero", "--order", "5000")])
def test_oversize_build_is_refused_before_allocating(tmp_path, capsys, argv):
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "build", *argv, "--store", str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == "" and "capped" in err
    assert peak < 5000 * 5000               # a 5000 x 5000 table at one byte a cell
    assert not any(tmp_path.iterdir())


def test_a_groupoid_with_too_many_bisections_is_refused_before_enumerating(tmp_path, capsys):
    """trivial13 has 13 arrows but 2^13 bisections, past the cap that a
    larger --max-size cannot raise: one place of their pairwise products
    alone would take 8192 x 8192 int64s."""
    run(capsys, "build", "trivial-groupoid", "--points", "13", "--store", str(tmp_path))
    for bound in ((), ("--max-size", "100000")):
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "dualize", "trivial13", "--store", str(tmp_path),
                                 *bound)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and out == "" and "capped at 4096" in err
        assert peak < 8192 * 8192 // 8          # not even an 8192 x 8192 table of bits


def test_the_empty_groupoid_and_the_one_element_monoid_dualize(tmp_path, capsys):
    store = ("--store", str(tmp_path))
    for argv in (("build", "bool-algebra", "--atoms", "0"),
                 ("dualize", "bool-algebra-1", "--round-trip"),
                 ("check", "bool-algebra-1-dual", "--laws", "point-filters"),
                 ("dualize", "bool-algebra-1-dual", "--round-trip"),
                 ("build", "trivial-groupoid", "--points", "0"),
                 ("dualize", "trivial0", "--round-trip"),
                 ("check", "trivial0-dual", "--laws", "all")):
        code, out, err = run(capsys, *argv, *store)
        assert (code, err) == (0, ""), argv
    assert json.loads(out)["ok"] is True
    code, out, err = run(capsys, "build", "trivial-groupoid", "--points", "-1", *store)
    assert code == 2 and out == "" and "non-negative" in err


def test_one_bisection_bound_in_src():
    # the bisection bound counts bisections, and it is the keyword and the
    # flag: no arrow bound, or advice from one, may return
    pattern = re.compile(r"BISECTION_BOUND|dualize the monoid side")
    root = Path(__file__).parents[1] / "src"
    hits = [f"{path.name}:{number}" for path in sorted(root.rglob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if pattern.search(line)]
    assert hits == []


def test_no_reproved_theorem_in_src():
    # constructors check their definitions; theorems such as unique inverses,
    # the order being partial, bisection-ness of products or of basic opens,
    # the lifting of factorizations along a star-bijective functor,
    # s^-1 s s^-1 = s^-1, kept complements and ultra preimages under M1 are
    # checked by tests and law suites, with one bisection test
    pattern = re.compile(r"is_bisection_set|is not unique|natural order is not|lifting"
                         r'|filter-not-ultra|s\^-1 s s\^-1 !=|\("complement"')
    root = Path(__file__).parents[1] / "src"
    hits = [f"{path.name}:{number}" for path in sorted(root.rglob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if pattern.search(line)]
    assert hits == []
    assert "ultra_by_meet" not in (root / "stonework" / "duality.py").read_text()


def test_one_index_gate_in_src():
    # every index from outside the library is read by inverse_core.as_indices:
    # the helpers it replaced and hand-rolled range scans may not return
    pattern = re.compile(r"\b(in_range|reject_bools|as_table)\b|bools=|any\(not 0 <=")
    root = Path(__file__).parents[1] / "src"
    hits = [f"{path.name}:{number}" for path in sorted(root.rglob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if pattern.search(line)]
    assert hits == []


def test_one_associativity_test_in_src():
    # monoids and groupoids (with undefined as an absorbing arrow) are both
    # decided by Light's test, in one function; no per-element scan returns
    root = Path(__file__).parents[1] / "src"
    hits = [f"{path.name}:{number}" for path in sorted(root.rglob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if "associativity fails at" in line]
    assert len(hits) == 1, hits


def test_tracer_hooks_resolve():
    # perfbench/tracer.py wraps these names at run time; a refactor that drops
    # one would break traced benchmark runs without failing anything else
    tracer = runpy.run_path(str(Path(__file__).parents[1] / "perfbench" / "tracer.py"))
    module = lambda name: importlib.import_module(f"stonework.{name}")
    missing = [(name, attr) for name, attr, *_ in
               tracer["SPAN_FUNCTIONS"] + tracer["HOT_FUNCTIONS"]
               if not hasattr(module(name), attr)]
    missing += [(name, cls, method) for name, cls, method, *_ in tracer["SPAN_METHODS"]
                if method not in vars(getattr(module(name), cls, object))]
    assert tracer["SPAN_FUNCTIONS"] and tracer["HOT_FUNCTIONS"] and tracer["SPAN_METHODS"]
    assert missing == []


def test_tracer_reads_the_filter_layer_off_the_results(tmp_path, capsys):
    # the tracer counts ultrafilters as len() of what enumerate_ultrafilters
    # returns, and filter_product calls through the module attribute: run it
    # in process around a dualize and a point-filter check, then require
    # every traced name back as it was
    tracer_module = runpy.run_path(str(Path(__file__).parents[1] / "perfbench" / "tracer.py"))
    names = ("enumerate_ultrafilters", "filter_product", "ultrafilter_groupoid")
    originals = {name: getattr(filters, name) for name in names}
    store = ["--store", str(tmp_path)]
    assert main(["build", "ix", "--size", "3", "--name", "ix3", *store]) == 0
    assert main(["build", "pair-groupoid", "--points", "3", "--name", "pair3", *store]) == 0
    tracer = tracer_module["Tracer"]().install()
    try:
        assert main(["dualize", "ix3", *store]) == 0
        assert main(["check", "pair3", "--laws", "point-filters", *store]) == 0
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics()
    # 9 ultrafilters of ix3, and 9 of the bisection monoid of pair3
    assert layers["filters.ultrafilters"] == 9 + 9
    # point filters on pair3: one batched call for the 9 doms, one for the 9
    # rans and one for the 27 composable pairs
    assert layers["filters.filter_product_calls"] == 3
    assert all(getattr(filters, name) is originals[name] for name in names)


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


def test_the_store_is_searched_before_the_working_directory(tmp_path, capsys, monkeypatch):
    """An entry name is looked up as <store>/<name>.json first; only then is
    it taken as a path."""
    monkeypatch.chdir(tmp_path)
    run(capsys, "build", "ix", "--size", "2", "--store", "st")

    def check(entry, store):
        code, out, err = run(capsys, "check", entry, "--laws", "bm", "--store", store)
        return code, err, json.loads(out)["entry"] if code == 0 else out

    (tmp_path / "ix2").mkdir()                          # a directory named like the entry
    assert check("ix2", "st") == (0, "", "ix2")
    (tmp_path / "ix2").rmdir()
    (tmp_path / "ix2").write_text("not an entry\n")     # nor is a file read in its place
    assert check("ix2", "st") == (0, "", "ix2")
    assert check("st/ix2.json", "elsewhere") == (0, "", "ix2")      # a path still loads


def test_dot_is_refused_before_the_work(tmp_path, capsys, monkeypatch):
    """check refuses --format dot once the entry is loaded and the law set
    resolved, before any suite runs; dualize of a groupoid refuses it before
    the bisection monoid is built."""
    run(capsys, "build", "ix", "--size", "3", "--store", str(tmp_path))
    run(capsys, "build", "pair-groupoid", "--points", "2", "--store", str(tmp_path))

    def forbidden(*args, **kwargs):
        raise AssertionError("the work ran")

    for law_sets in cli.LAW_SETS.values():
        for law_set in law_sets:
            monkeypatch.setitem(law_sets, law_set, forbidden)
    monkeypatch.setattr(cli, "all_bisections_monoid", forbidden)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    for argv in (("check", "ix3"), ("check", "ix3", "--laws", "order"), ("check", "pair2"),
                 ("dualize", "pair2"), ("dualize", "pair2", "--round-trip")):
        code, out, err = run(capsys, *argv, "--format", "dot", "--store", str(tmp_path))
        assert (code, out, err) == (2, "", "error: dot output is only defined for groupoids\n")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
