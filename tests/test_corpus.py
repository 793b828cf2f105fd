"""The table of stock objects: each generator's default name, entry kind and
summary, and the build flags the CLI takes from the generators' parameters."""

import argparse
import inspect
import json

import pytest

from stonework.cli import PARSER
from stonework.corpus import GENERATORS, build

BOOLEAN = {"is_boolean": True, "axiom": None, "detail": None, "elements": []}
DISCRETE = {"finite": True, "topology": "discrete", "hausdorff_etale": True,
            "identity_space_compact": True, "basis": "singleton arrows"}


def monoid(elements, idempotents, atoms, boolean=BOOLEAN):
    return "monoid", {"elements": elements, "idempotents": idempotents, "atoms": atoms,
                      "boolean": boolean}


def groupoid(arrows, identities):
    return "groupoid", {"arrows": arrows, "identities": identities, "discrete": DISCRETE}


def cn_element(pairs, canonical):
    return "cn-element", {"n": 2, "pairs": pairs, "canonical": canonical, "unit": True}


UNIT = "{a1/a1a1, a2a1/a1a2, a2a2/a2}"
# (generator, parameters) -> (default name, (kind, summary)): every generator at
# its defaults, then the parameter sets of the byte-for-byte storage test
BUILDS = {
    ("ix", ()): ("ix2", monoid(7, 4, 4)),
    ("bool-algebra", ()): ("bool-algebra-4", monoid(4, 4, 2)),
    ("group-zero", ()): ("z2-zero", monoid(3, 2, 2)),
    ("clifford", ()): ("clifford", monoid(9, 4, 4)),
    ("brandt", ()): ("brandt", monoid(6, 4, 4, {
        "is_boolean": False, "axiom": "BM3", "detail": "orthogonal join missing",
        "elements": [2, 3]})),
    ("chain", ()): ("chain3", monoid(3, 3, 1, {
        "is_boolean": False, "axiom": "BM1", "detail": "idempotent has no complement",
        "elements": [1]})),
    ("pair-groupoid", ()): ("pair2", groupoid(4, 2)),
    ("group-groupoid", ()): ("z2-group", groupoid(2, 1)),
    ("union-groupoid", ()): ("union-z2-z3", groupoid(5, 2)),
    ("trivial-groupoid", ()): ("trivial1", groupoid(1, 1)),
    ("cn-element", ()): ("cn2-element", cn_element(1, "{e/e}")),
    ("group-zero", (("order", 3),)): ("z3-zero", monoid(4, 2, 3)),
    ("pair-groupoid", (("points", 3),)): ("pair3", groupoid(9, 3)),
    ("group-groupoid", (("order", 3),)): ("z3-group", groupoid(3, 1)),
    ("trivial-groupoid", (("points", 2),)): ("trivial2", groupoid(2, 2)),
    ("cn-element", (("expr", UNIT),)): ("cn2-element", cn_element(3, UNIT)),
    ("ix", (("size", 4),)): ("ix4", monoid(209, 16, 16)),
    ("bool-algebra", (("atoms", 6),)): ("bool-algebra-64", monoid(64, 64, 6)),
}


@pytest.mark.parametrize("generator, params", BUILDS, ids=[
    "-".join([generator, *(f"{k}={v}" for k, v in params)]) for generator, params in BUILDS])
def test_each_generator_gives_its_name_kind_and_summary(generator, params):
    name, kind, _, summary = build(generator, **dict(params))
    expected_name, (expected_kind, expected_summary) = BUILDS[generator, params]
    assert (name, kind, summary) == (expected_name, expected_kind, expected_summary)
    # the summary's keys keep their order, nested ones too
    assert json.dumps(summary) == json.dumps(expected_summary)


def test_every_generator_is_pinned_at_its_defaults():
    assert {generator for generator, params in BUILDS if not params} == set(GENERATORS)


def test_build_flags_are_the_generators_parameters_in_one_order():
    """The build parser takes one flag per generator parameter, in order of
    first appearance in the table, typed by the parameter's default; no
    parameter has defaults of two types."""
    types = {}
    for func in GENERATORS.values():
        for dest, param in inspect.signature(func).parameters.items():
            types.setdefault(dest, set()).add(type(param.default))
    assert all(len(kinds) == 1 for kinds in types.values()), types
    sub = next(action for action in PARSER._actions
               if isinstance(action, argparse._SubParsersAction)).choices["build"]
    flags = [(action.option_strings, action.type) for action in sub._actions
             if action.dest not in {"help", "store", "max_size", "format", "generator", "name"}]
    assert flags == [([f"--{dest}"], kind) for dest, (kind,) in types.items()]
    assert list(types) == ["size", "atoms", "order", "orders", "length", "points", "n", "expr"]
