"""Hypothesis property tests for the symbolic layer, bisection algebra and
stored entries."""

import json
import subprocess
import sys
from pathlib import Path

from helpers import (
    first_associativity_failure,
    reference_canonical_pairs,
    reference_cn_error,
    reference_cn_mul,
    reference_inverse_uniqueness_failure,
    reference_is_maximal_prefix_code,
    reference_is_unit,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from stonework import StoneworkError, StructureError, symmetric_inverse_monoid
from stonework.duality import identity_morphism
from stonework.groupoids import identity_functor, pair_groupoid
from stonework.polycyclic import (
    CnElement,
    EvPeriodicWord,
    PolyElement,
    _canonical_pairs,
    cn_mul,
    format_cn,
    format_ev,
    format_poly,
    is_maximal_prefix_code,
    is_unit,
    is_unit_definitional,
    letters,
    parse_cn,
    parse_ev,
    parse_poly,
    poly_mul,
)
from stonework.serialize import (
    entry_to_json,
    functor_to_json,
    groupoid_to_json,
    load_entry,
    monoid_to_json,
    morphism_to_json,
)

words = st.text(alphabet="12", max_size=4)
periods = st.text(alphabet="12", min_size=1, max_size=3)


@st.composite
def poly_elements(draw):
    if draw(st.booleans()) and draw(st.integers(0, 9)) == 0:
        return PolyElement.zero()
    return PolyElement(draw(words), draw(words))


@st.composite
def cn_elements(draw):
    # stamp pair i with leading letter i+1 on both sides: orthogonality
    # holds by construction, arbitrary pairs would usually violate it
    pairs = draw(st.lists(st.tuples(words, words), max_size=2))
    stamped = [(str(i + 1) + x, str(i + 1) + y) for i, (x, y) in enumerate(pairs)]
    return CnElement.make(2, stamped)


@st.composite
def ev_words(draw):
    return EvPeriodicWord(draw(words), draw(periods))


@given(poly_elements(), poly_elements(), poly_elements())
def test_poly_mul_associative(a, b, c):
    assert poly_mul(poly_mul(a, b), c) == poly_mul(a, poly_mul(b, c))


@given(poly_elements())
def test_poly_inverse_laws(a):
    assert poly_mul(poly_mul(a, a.inverse()), a) == a
    assert poly_mul(a.inverse(), poly_mul(a, a.inverse())) == a.inverse()


@given(poly_elements())
def test_poly_text_round_trip(a):
    assert parse_poly(format_poly(a)) == a


@given(cn_elements(), cn_elements(), cn_elements())
@settings(max_examples=60)
def test_cn_mul_associative(a, b, c):
    assert cn_mul(cn_mul(a, b), c) == cn_mul(a, cn_mul(b, c))


@given(cn_elements())
def test_cn_canonical_idempotent(a):
    assert CnElement.make(a.n, a.pairs) == a
    assert parse_cn(format_cn(a), a.n) == a


@given(ev_words())
def test_ev_text_round_trip(w):
    assert parse_ev(format_ev(w)) == w


@given(ev_words(), st.integers(0, 8))
def test_ev_shift_matches_prefix(w, k):
    assert w.shift(k).prefix(6) == w.prefix(6 + k)[k:]


@given(ev_words(), words)
def test_ev_prepend_then_shift(w, u):
    assert w.prepend(u).shift(len(u)) == w


@given(ev_words(), ev_words())
def test_ev_equality_is_prefix_agreement(a, b):
    from math import lcm

    horizon = len(a.pre) + len(b.pre) + 2 * lcm(len(a.period), len(b.period))
    assert (a == b) == (a.prefix(horizon) == b.prefix(horizon))


# -- the orthogonal completion against its literal definitions -------------------


@st.composite
def orthogonal_families(draw, n):
    """Paired members of two maximal prefix codes grown by the same number
    of splits: an orthogonal family, complete (a unit) or not."""
    def code(splits):
        words = [""]
        for _ in range(splits):
            stem = words.pop(draw(st.integers(0, len(words) - 1)))
            words.extend(stem + c for c in letters(n))
        return words

    splits = draw(st.integers(0, 4))
    pairs = list(zip(code(splits), draw(st.permutations(code(splits)))))
    if not draw(st.booleans()):
        pairs = pairs[:draw(st.integers(0, len(pairs)))]
    return pairs


@st.composite
def pair_families(draw):
    """(n, pairs): an orthogonal family edited a few times, then perhaps
    inverted, in any order.  An edit splits a member into its sibling
    family, with or without the member kept, perhaps with a sibling on a
    letter outside the alphabet; duplicates a member; grafts the domain of
    one member, extended, onto another, so that two domains are comparable
    but not the ranges; or adds an arbitrary pair."""
    n = draw(st.sampled_from([2, 3, 4]))
    pairs = draw(orthogonal_families(n))
    wide = letters(n + 1)
    loose = st.text(alphabet=wide, max_size=3)
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["split", "split-keep", "duplicate", "graft", "add"]))
        if edit == "add" or len(pairs) < (2 if edit == "graft" else 1):
            pairs.append(draw(st.tuples(loose, loose)))
            continue
        at = draw(st.integers(0, len(pairs) - 1))
        x, y = pairs[at] if edit in ("split-keep", "duplicate", "graft") else pairs.pop(at)
        if edit == "duplicate":
            pairs.append((x, y))
        elif edit == "graft":
            onto = draw(st.sampled_from([i for i in range(len(pairs)) if i != at]))
            pairs[onto] = (pairs[onto][0], y + draw(loose))
        else:
            pairs.extend((x + c, y + c) for c in draw(st.sampled_from([letters(n), wide])))
    if draw(st.booleans()):
        pairs = [(y, x) for x, y in pairs]
    return n, draw(st.permutations(pairs))


@given(pair_families())
@settings(max_examples=400, deadline=None)
def test_canonical_form_and_constructor_checks_match_the_literal_definitions(family):
    n, pairs = family
    canonical = reference_canonical_pairs(n, pairs)
    assert _canonical_pairs(n, pairs) == canonical
    for raw in (pairs, canonical):
        try:
            made, message = CnElement(n, raw).pairs, None
        except StructureError as err:
            made, message = None, str(err)
        assert message == reference_cn_error(n, raw)
        assert made == (None if message else canonical)
    for column in zip(*pairs):
        assert is_maximal_prefix_code(n, column) == reference_is_maximal_prefix_code(n, column)


@st.composite
def element_pairs(draw):
    n = draw(st.sampled_from([2, 3, 4]))
    a, b = (CnElement.make(n, draw(orthogonal_families(n))) for _ in range(2))
    return a, b


@given(element_pairs())
@settings(max_examples=200, deadline=None)
def test_products_and_units_match_the_literal_definitions(elements):
    a, b = elements
    assert cn_mul(a, b).pairs == reference_cn_mul(a, b)
    assert cn_mul(b, a).pairs == reference_cn_mul(b, a)
    for x in (a, b):
        assert is_unit(x) == reference_is_unit(x) == is_unit_definitional(x)


# -- stored entries under single-field corruption ---------------------------------


def _valid_entries():
    ix2 = symmetric_inverse_monoid(2)
    pair2 = pair_groupoid(2)
    return {
        "monoid": entry_to_json("ix2", "monoid", monoid_to_json(ix2)),
        "groupoid": entry_to_json("pair2", "groupoid", groupoid_to_json(pair2)),
        "morphism": entry_to_json("id-ix2", "morphism",
                                  morphism_to_json(identity_morphism(ix2))),
        "functor": entry_to_json("id-pair2", "functor",
                                 functor_to_json(identity_functor(pair2))),
        "cn-element": entry_to_json("unit", "cn-element",
                                    {"n": 2, "expr": "{a1/a1a1, a2a1/a1a2, a2a2/a2}"}),
    }


VALID_ENTRIES = _valid_entries()


def _paths(value, prefix=()):
    """Every field of a JSON value, as a key/index path from the root."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield prefix + (key,)
        yield from _paths(item, prefix + (key,))


replacements = st.one_of(
    st.integers(-3, 40), st.floats(allow_nan=False, allow_infinity=False), st.booleans(),
    st.none(), st.text(max_size=3), st.lists(st.integers(-1, 8), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2))


@st.composite
def corrupted_entries(draw):
    kind = draw(st.sampled_from(sorted(VALID_ENTRIES)))
    entry = json.loads(json.dumps(VALID_ENTRIES[kind]))
    *parent, last = draw(st.sampled_from(list(_paths(entry))))
    holder = entry
    for key in parent:
        holder = holder[key]
    if isinstance(holder, dict) and draw(st.booleans()):
        del holder[last]
    else:
        holder[last] = draw(replacements)
    return entry


@given(corrupted_entries())
@settings(max_examples=150, deadline=None)
def test_a_corrupted_entry_is_rejected_or_loads_valid(tmp_path_factory, entry):
    path = tmp_path_factory.mktemp("entry") / "bad.json"
    path.write_text(json.dumps(entry))
    try:
        _, kind, obj = load_entry(path)
    except StoneworkError:
        return
    # what loads passed its constructor; its tables are also re-checked by
    # the reference associativity and inverse-uniqueness scans, which the
    # constructor does not share
    monoids = [obj] if kind == "monoid" else [obj.source, obj.target] if kind == "morphism" else []
    for monoid in monoids:
        assert first_associativity_failure(monoid.mul) is None
        assert reference_inverse_uniqueness_failure(monoid.mul, monoid.inv) is None


FALSIFIED = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_falsified(x):
    assert x < 3


def test_after():
    pass
"""


def test_a_falsified_property_is_one_failure_and_the_session_goes_on(tmp_path):
    # hypothesis's failure report imports libcst, which warns on import; under
    # the repo's warning filters that must not end the session
    (tmp_path / "test_falsified.py").write_text(FALSIFIED)
    config = Path(__file__).parents[1] / "pyproject.toml"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config),
         "--rootdir", str(tmp_path), "test_falsified.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
