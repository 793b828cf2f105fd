"""Every input refusal of the library, one input each, with its exact message.

Where the input can arrive through the CLI, as a build flag or a stored
entry, the same input is run through ``main`` too: it exits 2 with the
message as its one ``error:`` line and nothing on stdout.
"""

import json
from itertools import chain

import numpy as np
import pytest

from stonework import corpus
from stonework.cli import main
from stonework.duality import (
    identity_morphism,
    pullback_morphism,
    round_trip_groupoid,
    round_trip_monoid,
    stone_groupoid,
)
from stonework.errors import BoundError, ParseError, StructureError
from stonework.groupoids import (
    CoveringFunctor,
    all_bisections_monoid,
    identity_functor,
    pair_groupoid,
    trivial_groupoid,
)
from stonework.inverse_core import InverseMonoid, boolean_algebra_monoid, symmetric_inverse_monoid
from stonework.polycyclic import (
    CnElement,
    CuntzArrow,
    EvPeriodicWord,
    PolyElement,
    cn_join,
    cn_mul,
    parse_cn,
    parse_ev,
)
from stonework.reporting import LawReport
from stonework.serialize import (
    _cn_to_json,
    functor_to_json,
    groupoid_to_json,
    load_entry,
    monoid_to_json,
    morphism_to_json,
    save_entry,
)

BA2, IX2, PAIR2, TRIVIAL1 = (boolean_algebra_monoid(2), symmetric_inverse_monoid(2),
                             pair_groupoid(2), trivial_groupoid(1))


# A route gives, for a store directory, the library call that must be refused
# (or None) and the CLI arguments that must exit 2 (or None).

def library(call):
    return lambda store: (call, None)


def keeping(obj, **kept):
    """``obj`` with a kept structure (``_stone_groupoid`` of a monoid,
    ``_bisections`` of a groupoid) set to another object's."""
    vars(obj).update(kept)
    return obj


def moving_the_kept_dual(obj, **moved):
    """``obj`` whose kept double dual, the one its round trip compares it
    with (the bisection monoid of a monoid's Stone groupoid, the Stone
    groupoid of a groupoid's bisection monoid), has the given fields moved."""
    dual = (all_bisections_monoid(stone_groupoid(obj)).monoid if isinstance(obj, InverseMonoid)
            else stone_groupoid(all_bisections_monoid(obj).monoid))
    vars(dual).update(moved)
    return obj


def build(generator, **params):
    """A generator run by ``corpus.build`` and by ``stonework build``."""
    flags = chain.from_iterable((f"--{k}", str(v)) for k, v in params.items())
    argv = ["build", generator, *flags]
    return lambda store: (lambda: corpus.build(generator, **params), argv)


def stored(kind, payload, edit):
    """A valid payload, edited, written as entry ``bad`` of the given kind:
    refused by ``load_entry`` and by ``stonework check bad``."""
    def route(store):
        data = json.loads(json.dumps(payload))
        edit(data)
        (store / "bad.json").write_text(json.dumps({"name": "bad", "kind": kind, "payload": data}))
        return (lambda: load_entry("bad", store)), ["check", "bad"]
    return route


def nested(verb, where):
    """Entry ``bad``, a monoid whose payload, or its ``mul``, is a list nested 100,000
    deep, past the recursion limit: refused by ``load_entry`` and by ``stonework <verb> bad``."""
    def route(store):
        deep = "[" * 100_000 + "]" * 100_000
        payload = deep if where == "payload" else json.dumps(
            {**MONOID, "mul": "deep"}).replace('"deep"', deep)
        entry = f'{{"name": "bad", "kind": "monoid", "payload": {payload}}}'
        (store / "bad.json").write_text(entry)
        return (lambda: load_entry("bad", store)), [verb, "bad"]
    return route


def command(*argv, entry):
    """A command refused by the CLI itself, on a stored ``entry`` = (kind, payload)."""
    def route(store):
        save_entry(store, "good", *entry)
        return None, list(argv)
    return route


def named(name):
    """Entry ``bad`` stored under ``name``: refused by ``load_entry`` and by
    ``stonework check bad``."""
    def route(store):
        (store / "bad.json").write_text(json.dumps({"name": name, "kind": "monoid",
                                                    "payload": MONOID}))
        return (lambda: load_entry("bad", store)), ["check", "bad"]
    return route


def saved_as(name):
    """A monoid saved as ``name``, by ``save_entry`` and by ``stonework build --name``."""
    return lambda store: ((lambda: save_entry(store, name, "monoid", MONOID)),
                          ["build", "bool-algebra", "--atoms", "2", f"--name={name}"])


def setter(key, value):
    return lambda data: data.__setitem__(key, value)


MONOID = monoid_to_json(BA2)          # ba2: zero 0, one 3
GROUPOID = groupoid_to_json(PAIR2)
FUNCTOR = functor_to_json(identity_functor(PAIR2))
MORPHISM = morphism_to_json(identity_morphism(BA2))

# name -> (error type, exact message, route)
REFUSALS = {
    # InverseMonoid
    "monoid-table-not-square": (StructureError, "product table must be square, got (4, 5)",
                                stored("monoid", MONOID, lambda d: [row.append(0)
                                                                    for row in d["mul"]])),
    "monoid-empty-carrier": (StructureError, "empty carrier", library(
        lambda: InverseMonoid(np.empty((0, 0), dtype=np.int64), [], 0, 0))),
    "monoid-inverse-wrong-length": (StructureError, "inverse table malformed",
                                    stored("monoid", MONOID, lambda d: d["inv"].pop())),
    "monoid-inverse-nested": (StructureError, "inverse table is not a sequence",
                              stored("monoid", MONOID, lambda d: d.__setitem__(
                                  "inv", [[x] for x in d["inv"]]))),
    "monoid-zero-is-one": (StructureError, "zero equals one in a non-trivial monoid",
                           stored("monoid", MONOID, setter("zero", 3))),
    "monoid-zero-not-absorbing": (StructureError, "designated zero is not absorbing",
                                  stored("monoid", MONOID, setter("zero", 1))),
    # InverseMonoid.restrict (ix2: 0 is {}, 2 is {1->2}, 5 is the identity)
    "restrict-without-zero": (StructureError, "restriction must contain zero and one",
                              library(lambda: IX2.restrict([IX2.one]))),
    "restrict-not-inverse-closed": (StructureError, "restriction not closed under inverse at 2",
                                    library(lambda: IX2.restrict([0, 2, 5]))),
    # stock constructors
    "ix-no-points": (BoundError, "symmetric inverse monoid needs at least one point",
                     build("ix", size=0)),
    "bool-algebra-negative": (BoundError, "boolean algebra needs a non-negative number of atoms",
                              build("bool-algebra", atoms=-1)),
    "group-zero-order-0": (BoundError, "group order must be positive",
                           build("group-zero", order=0)),
    "chain-of-one": (BoundError, "chain needs at least two elements", build("chain", length=1)),
    "pair-groupoid-no-points": (BoundError, "pair groupoid needs at least one point",
                                build("pair-groupoid", points=0)),
    "group-groupoid-order-0": (BoundError, "group order must be positive",
                               build("group-groupoid", order=0)),
    # groupoids and maps
    "groupoid-r-short": (StructureError, "d/r/inv length mismatch",
                         stored("groupoid", GROUPOID, lambda d: d["r"].pop())),
    "functor-map-short": (StructureError, "arrow map length mismatch",
                          stored("functor", FUNCTOR, lambda d: d["map"].pop())),
    "morphism-map-short": (StructureError, "morphism mapping length mismatch",
                           stored("morphism", MORPHISM, lambda d: d["map"].pop())),
    "functors-not-composable": (StructureError, "functors not composable", library(
        lambda: identity_functor(PAIR2).then(identity_functor(pair_groupoid(2))))),
    "morphisms-not-composable": (StructureError, "morphisms not composable", library(
        lambda: identity_morphism(BA2).then(identity_morphism(boolean_algebra_monoid(2))))),
    "pullback-of-a-non-covering": (
        StructureError, "pullback requires a covering functor: ('star-surjectivity', 0, 2)",
        library(lambda: pullback_morphism(CoveringFunctor(TRIVIAL1, PAIR2, (0,))))),
    # round trips of a fresh object that keeps the dual of another
    "round-trip-monoid-other-groupoid": (
        StructureError, "cardinality mismatch: |double dual| = 4 != 7",
        library(lambda: round_trip_monoid(keeping(
            symmetric_inverse_monoid(2), _stone_groupoid=stone_groupoid(BA2))))),
    "round-trip-groupoid-other-monoid": (
        StructureError, "cardinality mismatch: |double dual| = 1 != 4",
        library(lambda: round_trip_groupoid(keeping(
            pair_groupoid(2), _bisections=all_bisections_monoid(TRIVIAL1))))),
    # round trips whose kept double dual has its zero or its identities moved
    "round-trip-monoid-moved-zero": (
        StructureError, "does not preserve zero/one",
        library(lambda: round_trip_monoid(moving_the_kept_dual(symmetric_inverse_monoid(2),
                                                               zero=6)))),
    "round-trip-groupoid-moved-identities": (
        StructureError, "does not preserve identities",
        library(lambda: round_trip_groupoid(moving_the_kept_dual(pair_groupoid(2),
                                                                 identities=(1, 2))))),
    # corpus
    "union-of-one-group": (StructureError, "union groupoid needs at least two orders",
                           build("union-groupoid", orders="2")),
    "union-orders-not-decimal": (StructureError, "generator 'union-groupoid' takes 'orders' "
                                 "as decimal ints split by commas, not '2,a'",
                                 build("union-groupoid", orders="2,a")),
    "union-orders-empty-chunk": (StructureError, "generator 'union-groupoid' takes 'orders' "
                                 "as decimal ints split by commas, not '2,,3'",
                                 build("union-groupoid", orders="2,,3")),
    # a parameter of another type than its default is refused, never coerced
    "ix-size-a-bool": (StructureError, "generator 'ix' takes 'size' as int, not True",
                       library(lambda: corpus.build("ix", size=True))),
    "cn-element-n-a-float": (StructureError, "generator 'cn-element' takes 'n' as int, not 2.7",
                             library(lambda: corpus.build("cn-element", n=2.7))),
    "chain-length-a-string": (StructureError, "generator 'chain' takes 'length' as int, not '3'",
                              library(lambda: corpus.build("chain", length="3"))),
    "unknown-generator": (
        StructureError, "unknown generator 'nope'; choose from ['bool-algebra', 'brandt', "
        "'chain', 'clifford', 'cn-element', 'group-groupoid', 'group-zero', 'ix', "
        "'pair-groupoid', 'trivial-groupoid', 'union-groupoid']",
        library(lambda: corpus.build("nope"))),
    # stored entries
    "declared-n-differs": (StructureError, "declared size disagrees with the table",
                           stored("monoid", MONOID, setter("n", 5))),
    "declared-m-differs": (StructureError, "declared size disagrees with the tables",
                           stored("groupoid", GROUPOID, setter("m", 3))),
    "unknown-kind": (StructureError, "unknown entry kind 'nope'",
                     stored("nope", MONOID, lambda d: None)),
    "payload-nested-deep-check": (StructureError, "entry is nested too deeply to read",
                                  nested("check", "payload")),
    "payload-nested-deep-dualize": (StructureError, "entry is nested too deeply to read",
                                    nested("dualize", "payload")),
    "mul-nested-deep-check": (StructureError, "entry is nested too deeply to read",
                              nested("check", "mul")),
    "mul-nested-deep-dualize": (StructureError, "entry is nested too deeply to read",
                                nested("dualize", "mul")),
    # entry names: each is a file name in the store that the CLI can name
    "stored-name-empty": (StructureError, "entry name '' is not a file name in the store",
                          named("")),
    "stored-name-leading-dash": (StructureError,
                                 "entry name '-x' is not a file name in the store", named("-x")),
    "saved-name-leading-dash": (StructureError,
                                "entry name '-x' is not a file name in the store",
                                saved_as("-x")),
    "stored-name-not-a-string": (StructureError, "entry name must be a string", named(7)),
    # the CLI
    "check-a-cn-element": (StructureError, "no law sets for entries of kind 'cn-element'",
                           command("check", "good", entry=(
                               "cn-element", _cn_to_json(CnElement.one(2))))),
    "bm-laws-on-a-groupoid": (StructureError, "law set 'bm' does not apply to a groupoid",
                              command("check", "good", "--laws", "bm",
                                      entry=("groupoid", GROUPOID))),
    "dualize-a-morphism": (StructureError, "cannot dualize an entry of kind 'morphism'",
                           command("dualize", "good", entry=("morphism", MORPHISM))),
    # the symbolic layer
    "poly-half-zero": (StructureError, "zero must have both components empty",
                       library(lambda: PolyElement("1", None))),
    "cn-n-a-float": (BoundError, "alphabet size must lie in [2, 6]",
                     library(lambda: CnElement(2.0, ()))),
    "cn-n-a-string": (BoundError, "alphabet size must lie in [2, 6]",
                      library(lambda: CnElement("2", ()))),
    "cn-n-a-bool": (BoundError, "alphabet size must lie in [2, 6]",
                    library(lambda: CnElement.make(True, ()))),
    "cn-parse-n-a-float": (BoundError, "alphabet size must lie in [2, 6]",
                           library(lambda: parse_cn("{a1/a2}", 2.0))),
    # a text that fails its alphabet's pattern is scanned: a malformed one is a
    # ParseError whatever n is; a float or string n is then the constructor's
    # BoundError, and a bool n, an index, checks the letters as 1 would
    "cn-parse-n-a-float-letter": (BoundError, "alphabet size must lie in [2, 6]",
                                  library(lambda: parse_cn("{a3/a1}", 2.0))),
    "cn-parse-n-a-float-malformed": (ParseError, "malformed pair 'a3 a1'",
                                     library(lambda: parse_cn("{a3 a1}", 2.0))),
    "cn-parse-n-a-string-letter": (BoundError, "alphabet size must lie in [2, 6]",
                                   library(lambda: parse_cn("{a3/a1}", "2"))),
    "cn-parse-n-a-string-malformed": (ParseError, "malformed word 'a3a'",
                                      library(lambda: parse_cn("{a3a/a1}", "2"))),
    "cn-parse-n-a-bool-letter": (ParseError, "letter out of range in 'a3'",
                                 library(lambda: parse_cn("{a3/a1}", True))),
    "cn-parse-n-a-bool-malformed": (ParseError, "malformed family '{a3/a1'",
                                    library(lambda: parse_cn("{a3/a1", True))),
    # an unhashable n is the constructor's BoundError too, after the same scan
    "cn-parse-n-a-list": (BoundError, "alphabet size must lie in [2, 6]",
                          library(lambda: parse_cn("{a1/a1}", [2]))),
    "cn-parse-n-a-list-malformed": (ParseError, "malformed pair 'a1 a1'",
                                    library(lambda: parse_cn("{a1 a1}", [2]))),
    "cn-parse-n-a-dict": (BoundError, "alphabet size must lie in [2, 6]",
                          library(lambda: parse_cn("{a1/a2, a2/a1}", {2: 2}))),
    "cn-parse-n-a-dict-malformed": (ParseError, "malformed family 'a1/a1'",
                                    library(lambda: parse_cn("a1/a1", {2: 2}))),
    "cn-pairs-a-list": (StructureError, "pairs ('1','') and ('11','2') are not orthogonal",
                        library(lambda: CnElement(2, [("11", "2"), ("1", "")]))),
    "cn-member-three-words": (StructureError,
                              "family member ('1', '2', '1') is not a pair of words",
                              library(lambda: CnElement(2, (("1", "2", "1"),)))),
    "cn-member-a-string": (StructureError, "family member '12' is not a pair of words",
                           library(lambda: CnElement(2, ("12",)))),
    "cn-make-member-one-word": (StructureError, "family member ('1',) is not a pair of words",
                                library(lambda: CnElement.make(2, [("1",)]))),
    "cn-make-member-not-a-word": (StructureError,
                                  "family member ('1', 2) is not a pair of words",
                                  library(lambda: CnElement.make(2, [("1", "1"), ("1", 2)]))),
    "cn-make-member-a-list": (StructureError, "family member ['1', '1'] is not a pair of words",
                              library(lambda: CnElement.make(2, [["1", "1"]]))),
    "cn-mul-alphabets": (StructureError, "alphabet mismatch",
                         library(lambda: cn_mul(CnElement.one(2), CnElement.one(3)))),
    "cn-join-alphabets": (StructureError, "alphabet mismatch",
                          library(lambda: cn_join(CnElement.one(2), CnElement.one(3)))),
    "ev-empty-period": (StructureError, "period must be non-empty",
                        library(lambda: EvPeriodicWord("", ""))),
    "arrow-wrong-shift": (StructureError, "stored shift disagrees with the prefix lengths",
                          library(lambda: CuntzArrow("1", 1, "1", EvPeriodicWord("", "1")))),
    "parse-ev-empty-period": (ParseError, "period must be non-empty",
                              library(lambda: parse_ev("(e)^w"))),
    # reports
    "absent-law": (KeyError, "'absent'", library(lambda: LawReport("s").get("absent"))),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_each_input_refusal_names_its_input(tmp_path, capsys, name):
    error, message, route = REFUSALS[name]
    call, argv = route(tmp_path)
    if call is not None:
        with pytest.raises(error) as caught:
            call()
        assert type(caught.value) is error and str(caught.value) == message
    if argv is not None:
        code = main([*argv, "--store", str(tmp_path)])
        out, err = capsys.readouterr()
        assert (code, out, err) == (2, "", f"error: {message}\n")
        # nothing is written beside the input
        assert {p.name for p in tmp_path.iterdir()} <= {"bad.json", "good.json"}
