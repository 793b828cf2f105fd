"""Core table, order, meet/join and boolean-axiom tests.

Expected values for I({1,2}) were derived by composing partial bijections
by hand; the element indices are recovered through labels so the tests do
not depend on enumeration order.
"""

import operator
import os
import random
import re
import subprocess
import sys
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stonework import (
    MAX_ELEMENTS,
    BoundError,
    InverseMonoid,
    NotBooleanError,
    StructureError,
    boolean_algebra_monoid,
    brandt_monoid,
    chain_monoid,
    clifford_monoid,
    group_with_zero_monoid,
    inverse_core,
    partial_bijections,
    product_monoid,
    symmetric_inverse_monoid,
)
from stonework.duality import (MonoidMorphism, identity_morphism, point_ultrafilter,
                               stone_groupoid, union_bisection_probe)
from stonework.filters import filter_doms, filter_inverses, filter_product, filter_rans
from stonework.groupoids import (
    CoveringFunctor,
    FiniteGroupoid,
    all_bisections_monoid,
    compose_table,
    pair_groupoid,
)
from stonework.serialize import groupoid_to_json, monoid_from_json, monoid_to_json

from helpers import (
    compatible,
    corpus_monoids,
    first_associativity_failure,
    orthogonal,
    reference_greatest_idempotents,
    reference_inverse_uniqueness_failure,
    reference_light_failure,
    relabelled,
    relative_complement,
)


@pytest.fixture(scope="module")
def ix2():
    return symmetric_inverse_monoid(2)


@pytest.fixture(scope="module")
def ix3():
    return symmetric_inverse_monoid(3)


@pytest.fixture(scope="module")
def ix5():
    return symmetric_inverse_monoid(5)


def by_label(monoid, label):
    return monoid.labels.index(label)


# -- construction and validation ------------------------------------------------


def test_symmetric_monoid_sizes():
    # |I(X)| = sum C(n,k)^2 k!
    assert len(symmetric_inverse_monoid(1)) == 2
    assert len(symmetric_inverse_monoid(2)) == 7
    assert len(symmetric_inverse_monoid(3)) == 34


def test_symmetric_bound():
    with pytest.raises(BoundError):
        symmetric_inverse_monoid(6)


def refusal_peak(make) -> int:
    """The tracemalloc peak while make() runs; it must raise a BoundError."""
    tracemalloc.start()
    try:
        with pytest.raises(BoundError, match="capped"):
            make()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("make, n", [
    (lambda: symmetric_inverse_monoid(6), 13327),
    (lambda: boolean_algebra_monoid(13), 1 << 13),
    (lambda: product_monoid(boolean_algebra_monoid(7), boolean_algebra_monoid(6)), 1 << 13),
], ids=["I6", "ba13", "ba7xba6"])
def test_oversize_stock_monoid_is_refused_before_allocating(make, n):
    assert refusal_peak(make) < n * n      # an n x n table at one byte a cell


def test_a_table_over_the_cap_is_refused_before_it_is_validated():
    table = np.zeros((MAX_ELEMENTS + 1,) * 2, dtype=np.uint8)
    make = lambda: InverseMonoid(table, [0] * len(table), 0, 1)
    assert refusal_peak(make) < table.size   # its int16 copy takes 2 x table.size


def test_partial_bijection_count_matches():
    assert len(partial_bijections(3)) == 34


def _compose_maps(s_map, t_map):
    # apply t first, then s: the product s*t of partial bijections
    s_dict = dict(s_map)
    return tuple((x, s_dict[y]) for x, y in t_map if y in s_dict)


@pytest.mark.parametrize("x_size", [1, 2, 3, 4])
def test_symmetric_table_is_composition_of_maps(x_size):
    maps = partial_bijections(x_size)
    index = {m: i for i, m in enumerate(maps)}
    monoid = symmetric_inverse_monoid(x_size)
    assert monoid.mul.tolist() == [[index[_compose_maps(s, t)] for t in maps] for s in maps]
    assert monoid.inv == tuple(index[tuple(sorted((y, x) for x, y in m))] for m in maps)
    assert monoid.zero == index[()]
    assert monoid.one == index[tuple((p, p) for p in range(x_size))]
    assert monoid.labels[index[((0, x_size - 1),)]] == f"{{1->{x_size}}}"


def test_rejects_non_associative_table():
    # 2-element "table" where 1*1 = 1 but inverse laws break associativity bait:
    mul = [[0, 0], [0, 1]]
    ok = InverseMonoid(mul, [0, 1], zero=0, one=1)
    assert ok.n == 2
    bad = [[0, 1], [1, 0]]  # 0 not absorbing
    with pytest.raises(StructureError):
        InverseMonoid(bad, [0, 1], zero=0, one=1)


def corrupted(monoid, i, j, value):
    mul = monoid.mul.copy()
    mul[i, j] = value
    return mul


def assert_rejected_at_a_failing_triple(monoid, mul):
    with pytest.raises(StructureError, match="associativity") as err:
        InverseMonoid(mul, monoid.inv, monoid.zero, monoid.one)
    x, y, z = map(int, re.findall(r"\d+", str(err.value)))
    assert mul[mul[x, y], z] != mul[x, mul[y, z]]


def test_every_cell_corruption_of_ix3_is_rejected(ix3):
    # one corruption of every cell off the zero and one rows and columns;
    # the identity and zero checks pass, so associativity alone decides
    rng = np.random.default_rng(0)
    inner = [s for s in range(ix3.n) if s not in (ix3.zero, ix3.one)]
    for i in inner:
        for j in inner:
            mul = corrupted(ix3, i, j, (ix3.mul[i, j] + rng.integers(1, ix3.n)) % ix3.n)
            assert first_associativity_failure(mul) is not None
            assert_rejected_at_a_failing_triple(ix3, mul)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_seeded_cell_corruptions_of_ix5_are_rejected(ix5, seed):
    rng = np.random.default_rng(seed)
    inner = [s for s in range(ix5.n) if s not in (ix5.zero, ix5.one)]
    i, j = rng.choice(inner, size=2)
    mul = corrupted(ix5, i, j, (ix5.mul[i, j] + rng.integers(1, ix5.n)) % ix5.n)
    # the full reference scan takes minutes on 1,546 elements; a failure on
    # the corrupted row is enough to demand a rejection
    assert first_associativity_failure(mul, rows=[i]) is not None
    assert_rejected_at_a_failing_triple(ix5, mul)


@pytest.mark.parametrize("seed", [4, 5, 6, 7])
def test_corruptions_in_a_late_row_block_name_the_whole_table_triple(ix5, seed):
    """Light's test works in row blocks; a corrupted cell in one of ix5's last two
    blocks fails at the (x, g, y) that the test on the whole table names."""
    rng = np.random.default_rng(seed)
    late = inverse_core.row_blocks(ix5.n, ix5.n)[-2].start
    i = rng.choice([s for s in range(late, ix5.n) if s not in (ix5.zero, ix5.one)])
    j = rng.choice([s for s in range(ix5.n) if s not in (ix5.zero, ix5.one)])
    mul = corrupted(ix5, i, j, (ix5.mul[i, j] + rng.integers(1, ix5.n)) % ix5.n)
    triple = reference_light_failure(mul, [ix5.one])
    with pytest.raises(StructureError, match=re.escape("fails at ({}, {}, {})".format(*triple))):
        inverse_core.check_associativity(mul, [ix5.one])


def test_lights_test_on_ix5_keeps_no_n_by_n_temporary(ix5):
    """Its distinct-entry count and each try's products are made a row block at a
    time: the whole-table mask and int64 flat index peaked at 21.6 MB on ix5."""
    tracemalloc.start()
    try:
        inverse_core.check_associativity(ix5.mul, [ix5.one])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_rejects_bad_inverse_table(ix2):
    inv = list(ix2.inv)
    a, b = by_label(ix2, "{1->2}"), by_label(ix2, "{1->1}")
    inv[a] = a  # {1->2} is not its own inverse
    with pytest.raises(StructureError):
        InverseMonoid(ix2.mul, inv, ix2.zero, ix2.one)
    del b


def _replaced(values, at, bad):
    """A copy of a list (of rows) with the entry at position ``at`` replaced."""
    values = [list(row) if isinstance(row, (list, tuple)) else row for row in values]
    *row, last = at
    (values[row[0]] if row else values)[last] = bad
    return values


def _gated_entry_points():
    """Each index gate: (name, what, size, low, call), ``call(bad)`` putting
    ``bad`` where the gate reads it: ix2 has 7 elements, pair2 4 arrows."""
    ix2, pair2 = symmetric_inverse_monoid(2), pair_groupoid(2)
    sg, bm = stone_groupoid(ix2), all_bisections_monoid(pair2)
    mul, inv, one = ix2.mul.tolist(), list(ix2.inv), ix2.one
    d, r, p_inv, ids = (list(x) for x in (pair2.d, pair2.r, pair2.inv, pair2.identities))
    dense, triples = pair2.compose.tolist(), groupoid_to_json(pair2)["compose"]
    monoid = lambda mul=mul, inv=inv, zero=ix2.zero, one=one: InverseMonoid(mul, inv, zero, one)
    groupoid = lambda d=d, r=r, inv=p_inv, compose=dense, ids=ids: FiniteGroupoid(
        d, r, inv, compose, ids)
    return [
        ("table cell", "product table", 7, 0, lambda x: monoid(mul=_replaced(mul, (3, 2), x))),
        ("inv", "inverse table", 7, 0, lambda x: monoid(inv=_replaced(inv, (3,), x))),
        ("zero", "zero/one", 7, 0, lambda x: monoid(zero=x)),
        ("one", "zero/one", 7, 0, lambda x: monoid(one=x)),
        ("d", "d", 4, 0, lambda x: groupoid(d=_replaced(d, (1,), x))),
        ("r", "r", 4, 0, lambda x: groupoid(r=_replaced(r, (1,), x))),
        ("groupoid inv", "inv", 4, 0, lambda x: groupoid(inv=_replaced(p_inv, (1,), x))),
        ("identities", "identities", 4, 0, lambda x: groupoid(ids=_replaced(ids, (1,), x))),
        ("compose cell", "compose", 4, -1,
         lambda x: groupoid(compose=_replaced(dense, (2, 1), x))),
        ("compose triple", "compose", 4, 0,
         lambda x: compose_table(_replaced(triples, (1, 2), x), 4)),
        ("morphism map", "morphism map", 7, 0,
         lambda x: MonoidMorphism(ix2, ix2, _replaced(range(7), (2,), x))),
        ("morphism call", "element", 7, 0, identity_morphism(ix2)),
        ("functor map", "arrow map", 4, 0,
         lambda x: CoveringFunctor(pair2, pair2, _replaced(range(4), (1,), x))),
        ("filter_product", "filter generator", 7, 0, lambda x: filter_product(ix2, one, x)),
        ("filter_inverses", "filter generator", 7, 0,
         lambda x: filter_inverses(ix2, [one, x])),
        ("filter_doms", "filter generator", 7, 0, lambda x: filter_doms(ix2, [x])),
        ("filter_rans", "filter generator", 7, 0, lambda x: filter_rans(ix2, [x])),
        ("arrow_at", "filter generator", 7, 0, lambda x: sg.arrow_at(x)),
        ("point_ultrafilter", "arrow", 4, 0, lambda x: point_ultrafilter(bm, [0, x])),
        ("union_bisection_probe", "element", 7, 0,
         lambda x: union_bisection_probe(sg, x, one)),
        ("relative_complements s", "element", 7, -1,
         lambda x: ix2.relative_complements([ix2.zero, x], [one, one])),
        ("relative_complements t", "element", 7, 0,
         lambda x: ix2.relative_complements([ix2.zero], [x])),
        ("restrict", "element", 7, 0, lambda x: ix2.restrict([ix2.zero, one, x])),
        *((f"{name} {side}", "element", 7, 0,
           lambda x, accessor=getattr(ix2, name), side=side:
           accessor(*((x, one) if side == "s" else (one, x))))
          for name in ("product", "leq", "meet", "join") for side in "st"),
        *((name, "element", 7, 0, getattr(ix2, name))
          for name in ("dom", "ran", "is_idempotent", "label")),
        ("compose_maybe g", "arrow", 4, 0, lambda x: pair2.compose_maybe(x, 0)),
        ("compose_maybe h", "arrow", 4, 0, lambda x: pair2.compose_maybe(0, x)),
        *((f"groupoid {name}", "arrow", 4, 0, getattr(pair2, name)) for name in ("star", "label")),
    ]


@pytest.mark.parametrize("bad", [2.7, True, "3", "below", "size", 2 ** 64])
def test_every_index_gate_refuses_a_bad_entry_with_its_message(bad):
    """Each entry point refuses a float, a bool, a string, one below its
    lower bound, its size, and an int past int64 with the gate's message:
    never a result, an IndexError or a TypeError."""
    for name, what, size, low, call in _gated_entry_points():
        value = {"below": low - 1, "size": size}.get(bad, bad)
        message = (f"{what} {value} is outside {low}..{size - 1}"
                   if type(value) is int else f"{what} has a non-integer entry {value!r}")
        with pytest.raises(StructureError, match=f"^{re.escape(message)}$"):
            call(value)
            pytest.fail(f"{name} took {value!r}")


def test_a_left_zero_band_is_rejected_for_idempotents_that_do_not_commute():
    """2 and 3 are idempotents with 2 3 = 2 and 3 2 = 3: each is an inverse
    of the other as well as of itself, the uniqueness the definition's last
    check stands for."""
    mul = [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 2, 2], [0, 3, 3, 3]]
    assert reference_inverse_uniqueness_failure(mul, [0, 1, 2, 3]) == (
        "inverse of 2 is not unique: [2, 3]")
    with pytest.raises(StructureError, match="^idempotents 2 and 3 do not commute$"):
        InverseMonoid(mul, [0, 1, 2, 3], zero=0, one=1)


def small_tables():
    """Every table on a zero, a one and two more elements (any inner
    products, inverse the identity or the swap), and every table on a zero,
    a one and three idempotents (inverse the identity)."""
    for inner in np.ndindex(*(4,) * 4):
        for inv in ([0, 1, 2, 3], [0, 1, 3, 2]):
            mul = np.minimum.outer(np.arange(4), np.arange(4))
            mul[:, 1], mul[1] = np.arange(4), np.arange(4)
            mul[2:, 2:] = np.reshape(inner, (2, 2))
            yield mul, inv
    cells = [(i, j) for i in range(2, 5) for j in range(2, 5) if i != j]
    for values in np.ndindex(*(4,) * len(cells)):
        mul = np.minimum.outer(np.arange(5), np.arange(5))
        mul[:, 1], mul[1] = np.arange(5), np.arange(5)
        for (i, j), v in zip(cells, values):
            mul[i, j] = (0, 2, 3, 4)[v]
        yield mul, list(range(5))


def test_the_definition_accepts_exactly_the_tables_with_unique_inverses():
    """Construction checks the definition, not that inverses are unique: a
    table passes exactly when it would also pass the uniqueness scan, and
    one that passes the rest of the definition but not the scan is refused
    for idempotents that do not commute."""
    outcomes = {"accepted": 0, "do not commute": 0}
    for mul, inv in small_tables():
        try:
            monoid = InverseMonoid(mul, inv, zero=0, one=1)
            refusal = None
            assert is_partial_order_with_zero_at_the_bottom(monoid), mul.tolist()
        except StructureError as err:
            refusal = str(err)
        if refusal is None or "do not commute" in refusal:
            unique = reference_inverse_uniqueness_failure(mul, inv) is None
            assert unique == (refusal is None), (mul.tolist(), inv, refusal)
            outcomes["accepted" if unique else "do not commute"] += 1
    assert outcomes["accepted"] > 10 and outcomes["do not commute"] > 10, outcomes
    for name, monoid in dict(corpus_monoids(), ix4=symmetric_inverse_monoid(4),
                             ba6=boolean_algebra_monoid(6), brandt=brandt_monoid(),
                             chain4=chain_monoid(4)).items():
        assert reference_inverse_uniqueness_failure(monoid.mul, monoid.inv) is None, name


def test_rejects_fake_identity(ix2):
    with pytest.raises(StructureError):
        InverseMonoid(ix2.mul, ix2.inv, ix2.zero, one=by_label(ix2, "{1->1}"))


# -- dom / ran -------------------------------------------------------------------


def test_dom_trivial_cases(ix2):
    assert ix2.dom(ix2.zero) == ix2.zero
    assert ix2.dom(ix2.one) == ix2.one


def test_dom_of_singleton_map(ix2):
    s = by_label(ix2, "{1->2}")
    assert ix2.dom(s) == by_label(ix2, "{1->1}")
    assert ix2.ran(s) == by_label(ix2, "{2->2}")
    assert ix2.is_idempotent(ix2.dom(s))


# -- natural order ---------------------------------------------------------------


def test_order_bottom_and_reflexive(ix2):
    for s in range(ix2.n):
        assert ix2.leq(ix2.zero, s)
        assert ix2.leq(s, s)


def test_order_matches_definition(ix3):
    # s <= t iff s = t*e for some idempotent e, recomputed from scratch
    idem = ix3.idempotents
    for s in range(ix3.n):
        for t in range(ix3.n):
            expected = any(int(ix3.mul[t, e]) == s for e in idem)
            assert ix3.leq(s, t) == expected


def test_order_restriction_map(ix2):
    one, e1 = ix2.one, by_label(ix2, "{1->1}")
    swap = by_label(ix2, "{1->2,2->1}")
    assert ix2.leq(e1, one)
    assert not ix2.leq(by_label(ix2, "{1->2}"), one)
    assert ix2.leq(by_label(ix2, "{1->2}"), swap)
    assert sorted(np.flatnonzero(ix2.order().matrix[:, one]).tolist()) == sorted(
        [ix2.zero, e1, by_label(ix2, "{2->2}"), one])


def test_atoms_are_singleton_maps(ix3):
    labels = {ix3.label(a) for a in ix3.atoms}
    assert labels == {f"{{{i}->{j}}}" for i in (1, 2, 3) for j in (1, 2, 3)}


# -- compatibility, meets, joins ---------------------------------------------------


def test_compatible_orthogonal_trivia(ix2):
    orthogonal, compatible = ix2.orthogonality(), ix2.compatibility()
    for s in range(ix2.n):
        assert orthogonal[s, ix2.zero]
        assert compatible[s, s]
    e1, e2 = by_label(ix2, "{1->1}"), by_label(ix2, "{2->2}")
    assert orthogonal[e1, e2]
    assert not compatible[by_label(ix2, "{1->1}"), by_label(ix2, "{1->2}")]


@pytest.mark.parametrize("name", ["ix3", "clifford", "z3_zero", "ba3"])
def test_compatibility_and_orthogonality_tables_match_the_definitions(name):
    monoid = corpus_monoids()[name]
    for s, t in exhaustive_pairs(monoid):
        assert monoid.orthogonality()[s, t] == orthogonal(monoid, s, t)
        assert monoid.compatibility()[s, t] == compatible(monoid, s, t)


def test_meet_examples(ix2):
    e1 = by_label(ix2, "{1->1}")
    for s in range(ix2.n):
        assert ix2.meet(s, s) == s
        assert ix2.meet(s, ix2.zero) == ix2.zero
    assert ix2.meet(ix2.one, e1) == e1


def test_join_examples(ix2):
    e1, e2 = by_label(ix2, "{1->1}"), by_label(ix2, "{2->2}")
    for s in range(ix2.n):
        assert ix2.join(s, ix2.zero) == s
        assert ix2.join(s, s) == s
    assert ix2.join(e1, e2) == ix2.one


def test_join_absent_for_incompatibles(ix2):
    assert ix2.join(by_label(ix2, "{1->1}"), by_label(ix2, "{1->2}")) is None


def test_relative_complement(ix2):
    e1, e2 = by_label(ix2, "{1->1}"), by_label(ix2, "{2->2}")
    for t in range(ix2.n):
        assert relative_complement(ix2, ix2.zero, t) == t
        assert relative_complement(ix2, t, t) == ix2.zero
    assert relative_complement(ix2, e1, ix2.one) == e2
    with pytest.raises(StructureError):
        relative_complement(ix2, ix2.one, e1)


def test_relative_complements_name_the_first_broken_pair(ix2):
    """The array form checks every pair and raises the scalar message at
    the first pair, in array order, that breaks: here the second."""
    e1, e2 = by_label(ix2, "{1->1}"), by_label(ix2, "{2->2}")
    assert ix2.relative_complements([e1, e2], [ix2.one, ix2.one]).tolist() == [e2, e1]
    with pytest.raises(StructureError, match=rf"^relative complement needs {ix2.one} <= {e1}$"):
        ix2.relative_complements([ix2.zero, ix2.one, ix2.one], [e1, e1, ix2.zero])
    # an absent meet (-1) is below nothing
    with pytest.raises(StructureError, match=rf"^relative complement needs -1 <= {e1}$"):
        ix2.relative_complements([e1, -1], [e1, e1])


def test_complements_are_one_array_with_minus_one_off_e(ix2):
    """The complement of e in E is its complement relative to one."""
    idem = set(ix2.idempotents)
    for e in range(ix2.n):
        if e in idem:
            c = relative_complement(ix2, e, ix2.one)
            assert c == ix2._complements[e]
            assert ix2.meet(e, c) == ix2.zero and ix2.join(e, c) == ix2.one
        else:
            assert ix2._complements[e] == -1
            with pytest.raises(StructureError, match=rf"^relative complement needs {e} <= "):
                relative_complement(ix2, e, ix2.one)


def test_relative_complement_unique_by_enumeration(ix2):
    for t in range(ix2.n):
        for s in np.flatnonzero(ix2.order().matrix[:, t]).tolist():
            r = relative_complement(ix2, s, t)
            candidates = [x for x in range(ix2.n)
                          if ix2.leq(x, t) and orthogonal(ix2, s, x)
                          and ix2.join(s, x) == t]
            assert candidates == [r]


# -- boolean certificates -----------------------------------------------------------


@pytest.mark.parametrize("factory", [
    lambda: symmetric_inverse_monoid(1),
    lambda: symmetric_inverse_monoid(2),
    lambda: symmetric_inverse_monoid(3),
    lambda: boolean_algebra_monoid(0),
    lambda: boolean_algebra_monoid(2),
    lambda: boolean_algebra_monoid(4),
    lambda: group_with_zero_monoid(2),
    lambda: group_with_zero_monoid(3),
    lambda: clifford_monoid(),
])
def test_boolean_corpus(factory):
    cert = factory().check_boolean()
    assert cert.is_boolean
    assert cert.axiom is None


def test_two_element_monoid_is_boolean():
    assert chain_monoid(2).is_boolean


def test_chain_fails_bm1_with_witness():
    cert = chain_monoid(3).check_boolean()
    assert not cert.is_boolean
    assert cert.axiom == "BM1"
    assert cert.detail == "idempotent has no complement"
    assert cert.elements == (1,)  # the middle idempotent


def test_brandt_fails_bm3():
    b = brandt_monoid()
    cert = b.check_boolean()
    assert not cert.is_boolean
    assert cert.axiom == "BM3"
    s, t = cert.elements
    assert orthogonal(b, s, t) and b.join(s, t) is None
    with pytest.raises(NotBooleanError):
        b.require_boolean()


def test_certificate_deterministic():
    a = chain_monoid(4).check_boolean()
    b = chain_monoid(4).check_boolean()
    assert a == b


# -- order/meet/join interplay (compatibility laws) ----------------------------------


def exhaustive_pairs(monoid):
    return ((s, t) for s in range(monoid.n) for t in range(monoid.n))


def test_compatibility_iff_meet_splits(ix2):
    # compatible <=> meet exists with dom/ran of the meet splitting as meets
    for s, t in exhaustive_pairs(ix2):
        m = ix2.meet(s, t)
        splits = (m is not None
                  and ix2.dom(m) == ix2.meet(ix2.dom(s), ix2.dom(t))
                  and ix2.ran(m) == ix2.meet(ix2.ran(s), ix2.ran(t)))
        assert splits == compatible(ix2, s, t)


def test_join_splits_dom_ran(ix2):
    for s, t in exhaustive_pairs(ix2):
        j = ix2.join(s, t)
        if j is not None:
            assert ix2.dom(j) == ix2.join(ix2.dom(s), ix2.dom(t))
            assert ix2.ran(j) == ix2.join(ix2.ran(s), ix2.ran(t))


def test_products_distribute_over_meets(ix2):
    for s, t in exhaustive_pairs(ix2):
        m = ix2.meet(s, t)
        if m is None:
            continue
        for u in range(ix2.n):
            assert ix2.meet(ix2.product(u, s), ix2.product(u, t)) == ix2.product(u, m)
            assert ix2.meet(ix2.product(s, u), ix2.product(t, u)) == ix2.product(m, u)


def test_downsets_boolean_via_dom(ix2):
    # x -> dom(x) is an order isomorphism from s-down onto dom(s)-down
    leq = ix2.order().matrix
    for s in range(ix2.n):
        down = np.flatnonzero(leq[:, s]).tolist()
        image = [ix2.dom(x) for x in down]
        assert sorted(image) == np.flatnonzero(leq[:, ix2.dom(s)]).tolist()
        for x in down:
            for y in down:
                assert ix2.leq(x, y) == ix2.leq(ix2.dom(x), ix2.dom(y))


def test_separation_witness(ix2):
    # s != 0 and s not below t admits nonzero s' <= s with s' ^ t = 0
    for s in range(ix2.n):
        if s == ix2.zero:
            continue
        for t in range(ix2.n):
            if ix2.leq(s, t):
                continue
            s_prime = relative_complement(ix2, ix2.meet(s, t), s)
            assert s_prime != ix2.zero
            assert ix2.leq(s_prime, s)
            assert ix2.meet(s_prime, t) == ix2.zero


def test_compatible_join_formula(ix2):
    # join of a compatible pair equals the three-way orthogonal decomposition
    for s, t in exhaustive_pairs(ix2):
        if not compatible(ix2, s, t):
            continue
        j = ix2.join(s, t)
        assert j is not None
        m = ix2.meet(s, t)
        parts = [m, relative_complement(ix2, m, s), relative_complement(ix2, m, t)]
        acc = parts[0]
        for p in parts[1:]:
            assert orthogonal(ix2, acc, p) or p == ix2.zero
            acc = ix2.join(acc, p)
        assert acc == j


# -- indexed meets and joins against the definition ---------------------------------


def scan_meet(monoid, s, t):
    """The definition as a brute-force scan over the order matrix's columns
    (down-sets): the common lower bound whose down-set is the whole common
    down-set, or None."""
    leq = monoid.order().matrix
    lower = leq[:, s] & leq[:, t]
    for m in np.flatnonzero(lower).tolist():
        if np.array_equal(leq[:, m], lower):
            return m
    return None


def scan_join(monoid, s, t):
    """The same scan over the matrix's rows (up-sets)."""
    leq = monoid.order().matrix
    upper = leq[s] & leq[t]
    for m in np.flatnonzero(upper).tolist():
        if np.array_equal(leq[m], upper):
            return m
    return None


def two_maximal_lower_bounds():
    """{0, e1, e2, t, 1} inside I({1,2,3,4}), t swapping 3 and 4: the lower
    bounds of 1 and t are 0, e1 and e2, so their meet is absent."""
    ix4 = symmetric_inverse_monoid(4)
    keep = ["{}", "{1->1}", "{2->2}", "{1->1,2->2,3->4,4->3}", "{1->1,2->2,3->3,4->4}"]
    return ix4.restrict([by_label(ix4, lab) for lab in keep])


def test_indexed_meet_and_join_match_the_scan():
    corpus = dict(corpus_monoids(), chain3=chain_monoid(3), brandt=brandt_monoid(),
                  two_maximal=two_maximal_lower_bounds())
    absent = {"meet": set(), "join": set()}
    for name, monoid in corpus.items():
        order = monoid.order()
        assert order.meet.shape == order.join.shape == (monoid.n, monoid.n)
        for s in range(monoid.n):
            for t in range(monoid.n):
                meet, join = scan_meet(monoid, s, t), scan_join(monoid, s, t)
                assert monoid.meet(s, t) == meet, (name, s, t)
                assert monoid.join(s, t) == join, (name, s, t)
                assert order.meet[s, t] == (-1 if meet is None else meet), (name, s, t)
                assert order.join[s, t] == (-1 if join is None else join), (name, s, t)
                if monoid.meet(s, t) is None:
                    absent["meet"].add(name)
                if monoid.join(s, t) is None:
                    absent["join"].add(name)
    assert absent == {"meet": {"two_maximal"}, "join": {"ix2", "ix3", "clifford", "brandt",
                                                        "z2_zero", "z3_zero", "two_maximal"}}


def test_bound_tables_built_in_blocks_match_the_definition(ix5):
    """ix5's rows of one down-set size span several blocks: spot rows of
    both tables against the definition, the element whose down-set
    (up-set) is the common one."""
    order = ix5.order()
    for leq, table in ((order.matrix, order.meet), (order.matrix.T, order.join)):
        columns = np.ascontiguousarray(leq.T)           # row m: the down-set of m
        by_down_set = {row.tobytes(): m for m, row in enumerate(columns)}
        for s in range(0, len(leq), 37):
            common = columns[s] & columns               # row t: down(s) & down(t)
            assert table[s].tolist() == [by_down_set.get(row.tobytes(), -1) for row in common]
    assert (order.join < 0).any() and not (order.meet < 0).any()


def test_bound_tables_built_one_member_at_a_time_are_the_same(monkeypatch):
    """With a block of one cell, every row is its own block and every
    down-set is gathered one member at a time: the running largest key and
    count give the stored tables."""
    corpus = dict(corpus_monoids(), chain12=chain_monoid(12), brandt=brandt_monoid(),
                  two_maximal=two_maximal_lower_bounds())
    orders = {name: monoid.order() for name, monoid in corpus.items()}
    monkeypatch.setattr(inverse_core, "BLOCK_CELLS", 1)
    for name, order in orders.items():
        assert np.array_equal(inverse_core.bound_table(order.matrix), order.meet), name
        assert np.array_equal(inverse_core.bound_table(order.matrix.T), order.join), name


def test_bound_tables_do_not_depend_on_the_layout_of_the_order():
    """A transposed view of the order and its contiguous copy give the same
    join table, the stored one; on ba10, built in blocks, the stored tables
    are intersection and union of the atom sets."""
    corpus = dict(corpus_monoids(), ba10=boolean_algebra_monoid(10))
    for name, monoid in corpus.items():
        order = monoid.order()
        for upper in (order.matrix.T, np.ascontiguousarray(order.matrix.T)):
            assert np.array_equal(inverse_core.bound_table(upper), order.join), name
    order, sets = corpus["ba10"].order(), np.arange(1 << 10)
    assert np.array_equal(order.meet, np.bitwise_and.outer(sets, sets))
    assert np.array_equal(order.join, np.bitwise_or.outer(sets, sets))


def test_a_large_down_set_is_gathered_in_chunks(monkeypatch):
    """The top of a 300-chain has all 300 elements below it; gathered in
    chunks of 2^12 cells, the builder's peak stays well under the n x n
    int32 cells an unchunked key product would take."""
    leq = chain_monoid(300).order().matrix
    monkeypatch.setattr(inverse_core, "BLOCK_CELLS", 1 << 12)
    tracemalloc.start()
    try:
        table = inverse_core.bound_table(leq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table[-1].tolist() == list(range(300))      # meet(top, t) = t
    assert peak < table.nbytes + 300 * 300


def test_large_bound_tables_keep_numpy_ma_unimported():
    """ba7's order is built in blocks, one per down-set size; the sizes are
    listed without np.unique, whose first call imports numpy.ma."""
    code = ("import sys; from stonework import boolean_algebra_monoid; "
            "boolean_algebra_monoid(7).order(); print('numpy.ma' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def test_two_maximal_lower_bounds_fails_bm2():
    """1 and t have the lower bounds 0, e1 and e2 but no greatest one: the
    first missing meet of the ascending scan."""
    monoid = two_maximal_lower_bounds()
    cert = monoid.check_boolean()
    assert (cert.is_boolean, cert.axiom, cert.detail, cert.elements) == (
        False, "BM2", "meet missing", (3, 4))
    assert [monoid.label(s) for s in cert.elements] == [
        "{1->1,2->2,3->3,4->4}", "{1->1,2->2,3->4,4->3}"]
    assert monoid.meet(3, 4) is None


def transposition_without_phi():
    """{0, 1, s, e3, e4} inside I({1,2,3,4}), s swapping 1 and 2 and fixing
    3 and 4: the idempotents below s are 0, e3 and e4, with no greatest."""
    ix4 = symmetric_inverse_monoid(4)
    keep = ["{}", "{1->1,2->2,3->3,4->4}", "{1->2,2->1,3->3,4->4}", "{3->3}", "{4->4}"]
    return ix4.restrict([by_label(ix4, lab) for lab in keep])


def test_an_element_without_phi_fails_bm2_by_the_bound_table(monkeypatch):
    """Where phi is missing a meet is missing (s ^ s s^-1 would be phi(s)):
    BM2 and the meet table come from bound_table, as before phi."""
    monoid = transposition_without_phi()
    order = monoid.order()
    assert order.phi.tolist() == [0, 1, 2, 3, -1]
    assert monoid.label(4) == "{1->2,2->1,3->3,4->4}"
    calls = []
    monkeypatch.setattr(inverse_core, "bound_table",
                        lambda leq, table=inverse_core.bound_table: calls.append(leq) or table(leq))
    cert = monoid.check_boolean()
    assert (cert.is_boolean, cert.axiom, cert.detail, cert.elements) == (
        False, "BM2", "meet missing", (3, 4))
    assert len(calls) == 1 and calls[0] is order.matrix     # the meet table, read by BM2
    assert np.array_equal(order.meet, inverse_core.bound_table(order.matrix))
    assert order.meet[3, 4] == order.meet[4, 3] == -1 and monoid.meet(4, 3) is None


def phi_corpus():
    return dict(corpus_monoids(), chain3=chain_monoid(3), brandt=brandt_monoid(),
                two_maximal=two_maximal_lower_bounds(), no_phi=transposition_without_phi())


def test_meets_by_phi_are_the_bound_tables_on_relabelled_monoids():
    """phi is its definition and the meet table bound_table's, on every
    corpus monoid and on 200 seeded relabellings of them (which move the
    ties of down-set size); on ix3, brandt and the Clifford monoid the
    factor t of phi(s t^-1) t matters."""
    corpus = phi_corpus()
    rng, names = random.Random(46), sorted(corpus)
    relabellings = [(name, monoid_from_json(relabelled(monoid_to_json(corpus[name]),
                                                       rng.randrange(1 << 30))))
                    for name in (rng.choice(names) for _ in range(200))]
    for name, monoid in [*corpus.items(), *relabellings]:
        order = monoid.order()
        assert order.phi.tolist() == reference_greatest_idempotents(
            order.matrix, order.idempotents).tolist(), name
        assert np.array_equal(order.meet, inverse_core.bound_table(order.matrix)), name
        assert order.meet.dtype == np.int16 and not order.meet.flags.writeable
    assert {name for name, _ in relabellings} == set(names)


def test_bounds_at_pairs_are_the_bound_tables():
    """At every pair, meets and joins of the corpus monoids and bounds of
    random orders (some without a bound, relabelled to move the ties of
    down-set size), in blocks of the default size and of 64 words."""
    n = 60
    rng = np.random.default_rng(7)
    leq = np.triu(rng.random((n, n)) < 0.08) | np.eye(n, dtype=bool)
    leq[0] = True
    for k in range(n):                      # transitive closure
        leq |= leq[:, [k]] & leq[k]
    perm = rng.permutation(n)
    relations = [monoid.order().matrix for monoid in phi_corpus().values()]
    relations += [symmetric_inverse_monoid(4).order().matrix, leq, leq[np.ix_(perm, perm)]]
    for cells in (inverse_core.BLOCK_CELLS, 64):
        with patch.object(inverse_core, "BLOCK_CELLS", cells):
            for relation in relations:
                for order in (relation, relation.T):
                    size = len(order)
                    s, t = np.divmod(np.arange(size * size), size)
                    pairs = inverse_core.bounds_at(order, s, t)
                    assert pairs.dtype == np.int16
                    assert np.array_equal(pairs, inverse_core.bound_table(order).ravel())
    assert (inverse_core.bound_table(leq) < 0).any() and (inverse_core.bound_table(leq.T) < 0).any()


@pytest.mark.parametrize("points", [4, 5])
def test_deciding_a_boolean_monoid_builds_no_bound_table(points, monkeypatch):
    """A fresh ix4 or ix5 decides BM1-BM3 from its order, phi and the joins
    at its orthogonal pairs; its meet table comes from phi, and only the
    join table, when read, is built by bound_table."""
    calls = []
    monkeypatch.setattr(inverse_core, "bound_table",
                        lambda leq, table=inverse_core.bound_table: calls.append(leq) or table(leq))
    monoid = symmetric_inverse_monoid(points)
    assert monoid.check_boolean().is_boolean and calls == []
    order = monoid.order()
    assert (order.phi >= 0).all()
    assert order.meet[monoid.one].tolist() == order.phi.tolist() and calls == []
    assert monoid.join(monoid.zero, monoid.one) == monoid.one and len(calls) == 1
    assert calls[0].base is order.matrix


# -- BM1 distributivity witness ---------------------------------------------------


def lattice_monoid(down):
    """The all-idempotent monoid of a finite lattice given by down-sets
    (index 0 the bottom, the last index the top); the product is the meet."""
    n = len(down)

    def meet(s, t):
        return next(m for m in range(n) if down[m] == down[s] & down[t])

    mul = [[meet(s, t) for t in range(n)] for s in range(n)]
    return InverseMonoid(mul, list(range(n)), zero=0, one=n - 1)


def lattice_join(down, s, t):
    uppers = [m for m in range(len(down)) if {s, t} <= down[m]]
    return next(m for m in uppers if all(down[m] <= down[u] for u in uppers))


def first_non_distributive(down):
    """Ascending scan over all (e, f, g) on the lattice itself."""
    n = len(down)

    def meet(s, t):
        return next(m for m in range(n) if down[m] == down[s] & down[t])

    for e in range(n):
        for f in range(n):
            for g in range(n):
                lhs = meet(e, lattice_join(down, f, g))
                rhs = lattice_join(down, meet(e, f), meet(e, g))
                if lhs != rhs:
                    return (e, f, g)
    return None


N5 = [{0}, {0, 1}, {0, 1, 2}, {0, 3}, {0, 1, 2, 3, 4}]   # 0 < 1 < 2 < 4, 0 < 3 < 4
M3 = [{0}, {0, 1}, {0, 2}, {0, 3}, {0, 1, 2, 3, 4}]      # three atoms, pairwise meet 0


@pytest.mark.parametrize("down", [N5, M3], ids=["N5", "M3"])
def test_bm1_distributivity_witness_is_first_ascending_triple(down):
    witness = first_non_distributive(down)
    assert witness is not None
    cert = lattice_monoid(down).check_boolean()
    assert (cert.axiom, cert.detail, cert.elements) == (
        "BM1", "idempotent lattice not distributive", witness)
    assert not cert.is_boolean


# -- BM1 by atoms against the literal scan ------------------------------------------


def both_bm1_paths(build):
    """The atom criterion and the literal scan called directly on E's order
    of a fresh monoid, then its certificate and complement array, decided
    with the criterion and again with it switched off."""
    monoid = build()
    idem = monoid.order().idempotents
    in_e = monoid.order().matrix[np.ix_(idem, idem)]
    fast = inverse_core.bm1_by_atoms(in_e)
    hit, literal = inverse_core.bm1_by_scan(in_e, idem.index(monoid.zero),
                                            idem.index(monoid.one))
    assert (fast is None) == (hit is not None)
    if fast is not None:
        assert fast.tolist() == literal.tolist()
    decided = monoid.check_boolean(), monoid._complements
    with patch.object(inverse_core, "bm1_by_atoms", lambda in_e: None):
        again = build()
        scanned = again.check_boolean(), again._complements
    assert decided[0] == scanned[0]
    assert (decided[1] is None) == (scanned[1] is None)
    if decided[1] is not None:
        assert decided[1].tolist() == scanned[1].tolist()
    return fast is not None, decided[0]


BM1_CASES = dict(
    {name: (lambda name=name: corpus_monoids()[name]) for name in corpus_monoids()},
    ix4=lambda: symmetric_inverse_monoid(4),
    **{f"ba{k}": (lambda k=k: boolean_algebra_monoid(k)) for k in (0, 5, 6, 7, 8)},
    chain3=lambda: chain_monoid(3), chain4=lambda: chain_monoid(4), brandt=brandt_monoid,
    two_maximal=two_maximal_lower_bounds, N5=lambda: lattice_monoid(N5),
    M3=lambda: lattice_monoid(M3))


@pytest.mark.parametrize("name", sorted(BM1_CASES))
def test_atom_criterion_is_the_literal_bm1_scan(name):
    """chain4 has 4 = 2^2 idempotents but one atom."""
    boolean_e, cert = both_bm1_paths(BM1_CASES[name])
    assert boolean_e == (name not in {"chain3", "chain4", "N5", "M3"})
    assert cert.is_boolean == (name not in {"chain3", "chain4", "N5", "M3", "brandt",
                                            "two_maximal"})


def test_the_atom_criterion_needs_a_bijection_that_reflects_the_order():
    """The subsets of {0..3} by inclusion are boolean, complement 15 ^ x.
    Without the cover {0,1} <= {0,1,2} the codes still hit every subset
    once, but 1 and 2 have two minimal upper bounds: not a lattice.  A
    preorder coded by inclusion reflects itself, but two of its eight
    elements share a code and none has the code {1, 2}."""
    masks = np.arange(16)
    in_e = (masks[:, None] & masks) == masks[:, None]      # [x, y]: x inside y
    assert inverse_core.bm1_by_atoms(in_e).tolist() == (15 ^ masks).tolist()
    in_e[0b0011, 0b0111] = False
    assert inverse_core.bm1_by_atoms(in_e) is None
    assert inverse_core.bm1_by_scan(in_e, 0, 15) == (("idempotent join missing", (1, 2)), None)
    codes = np.array([0, 1, 2, 4, 3, 3, 5, 7])
    assert inverse_core.bm1_by_atoms((codes[:, None] & codes) == codes[:, None]) is None


def closure(masks, op):
    masks = set(masks)
    while not (new := {op(a, b) for a in masks for b in masks}) <= masks:
        masks |= new
    return masks


@st.composite
def small_lattices(draw):
    """Down-sets of a lattice of subsets of {0..3}: the unions of the blocks
    of a partition (a boolean lattice), or the closure under intersection of
    a few subsets and the whole set (any lattice of closed sets).  Sorted
    by size, the bottom comes first and the top last."""
    if draw(st.booleans()):
        blocks = draw(st.lists(st.integers(0, 3), min_size=4, max_size=4))
        masks = closure([0] + [sum(1 << p for p in range(4) if blocks[p] == b)
                               for b in blocks], operator.or_)
    else:
        masks = closure(draw(st.lists(st.integers(0, 15), max_size=6)) + [15], operator.and_)
    sets = sorted(masks, key=lambda s: (bin(s).count("1"), s))
    return [{i for i, a in enumerate(sets) if a & b == a} for b in sets]


@settings(max_examples=150, deadline=None)
@given(small_lattices())
def test_atom_criterion_is_the_literal_scan_on_small_lattices(down):
    boolean_e, cert = both_bm1_paths(lambda: lattice_monoid(down))
    assert boolean_e == cert.is_boolean


# -- the natural order ---------------------------------------------------------------


def is_partial_order_with_zero_at_the_bottom(monoid) -> bool:
    """The checks the order build does not run, which no validated table
    can fail: reflexive, antisymmetric, zero below everything, and its own
    transitive closure (a float32 product of the 0/1 matrix counts paths
    exactly, n <= 4096 < 2^24)."""
    leq = monoid.order().matrix
    square = leq.astype(np.float32)
    return bool(leq[monoid.zero].all()
                and np.array_equal(leq & leq.T, np.eye(monoid.n, dtype=bool))
                and np.array_equal((square @ square) > 0, leq))


def test_natural_order_is_its_own_transitive_closure():
    for name, monoid in dict(corpus_monoids(), ba9=boolean_algebra_monoid(9),
                             ix4=symmetric_inverse_monoid(4), brandt=brandt_monoid(),
                             chain4=chain_monoid(4)).items():
        assert is_partial_order_with_zero_at_the_bottom(monoid), name


# -- misc ------------------------------------------------------------------------


def test_product_monoid_structure():
    c = clifford_monoid()
    assert c.n == 9
    assert len(c.idempotents) == 4
    assert all(c.dom(s) == c.ran(s) for s in range(c.n))


def test_restrict_and_the_scalar_accessors_read_elements_through_the_gate(ix2):
    """A float is refused, not truncated, and -1 or n is refused, not read
    from the end of a table; a numpy int in range is read as its value."""
    with pytest.raises(StructureError, match=r"^element has a non-integer entry 0\.9$"):
        ix2.restrict([0.9, 5.5])
    with pytest.raises(StructureError, match=r"^element 7 is outside 0\.\.6$"):
        ix2.restrict([0, 5, 7])
    for bad in (-1, ix2.n):
        message = rf"^element {bad} is outside 0\.\.6$"
        for call in (ix2.product, ix2.leq, ix2.meet, ix2.join):
            for args in ((bad, 2), (2, bad)):
                with pytest.raises(StructureError, match=message):
                    call(*args)
        for call in (ix2.dom, ix2.ran, ix2.is_idempotent, ix2.label):
            with pytest.raises(StructureError, match=message):
                call(bad)
    with pytest.raises(StructureError, match=r"^element has a non-integer entry \[1\]$"):
        ix2.dom([1])
    s, t = np.int64(2), np.int16(ix2.one)
    assert ix2.product(s, t) == 2 and ix2.meet(s, t) == ix2.meet(2, ix2.one)
    assert ix2.label(s) == ix2.label(2) and ix2.is_idempotent(t)


def test_restrict_rejects_unclosed(ix2):
    swap = by_label(ix2, "{1->2,2->1}")
    e1 = by_label(ix2, "{1->1}")
    with pytest.raises(StructureError):
        ix2.restrict([ix2.zero, ix2.one, swap, e1])  # missing swap*e1


@pytest.mark.parametrize("elements, message", [
    ([6, 5, 2, 0], "restriction not closed under inverse at 2"),
    ([0, 1, 2, 5, 6], "restriction not closed at (1, 6)"),
    ([0, 1, 5, 6], "restriction not closed at (1, 6)"),
    ([0, 2, 3, 5], "restriction not closed at (2, 3)"),
], ids=["inverse-before-products", "product-before-a-later-inverse", "product", "product-of-pair"])
def test_restrict_names_the_first_element_that_leaves(ix2, elements, message):
    """The witness is the first s, in ascending order, whose inverse or a
    product s t leaves the set: its inverse before its products, then the
    first t.  (ix2: 1 is {1->1}, 2 is {1->2}, 3 is {2->1}, 4 is {2->2}, 5
    the one, 6 the swap; in the first set both 2^-1 and 2 * 6 are missing.)"""
    assert (ix2.inv[2], ix2.product(2, 6)) == (3, 4)
    with pytest.raises(StructureError, match=f"^{re.escape(message)}$"):
        ix2.restrict(elements)


def test_tables_read_only(ix2):
    with pytest.raises(ValueError):
        ix2.mul[0, 0] = 1
    assert isinstance(ix2.mul, np.ndarray)
