"""The law suites read shared tables: a table of every filter product,
computed from the definition under test, and dense meet, join and
complement tables.  These tests show that a wrong product, meet, join or
complement still surfaces, with the witnesses the per-instance loops give,
and that each failure a suite can record is reached by some broken input."""

import random
from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    reference_compatible_join_formula,
    reference_relative_complement,
    reference_relative_complement_unique,
    reference_separation_below,
    relative_complement,
)
from stonework import (
    StructureError,
    all_bisections_monoid,
    boolean_algebra_monoid,
    clifford_monoid,
    group_with_zero_monoid,
    laws,
    pair_groupoid,
    symmetric_inverse_monoid,
)
from stonework.duality import stone_groupoid


def test_law_suites_read_the_product_they_check(monkeypatch):
    """A product table that is wrong on one pair, up(1) * up(1), must be
    reported: the suites read the table they are given."""
    monoid = symmetric_inverse_monoid(3)
    one = monoid.one
    real = laws.filter_products

    def wrong(monoid):
        sets, prod, inverse = real(monoid)
        prod = prod.copy()
        prod[one, one] = monoid.zero        # the improper filter up(zero)
        return sets, prod, inverse

    monkeypatch.setattr(laws, "filter_products", wrong)
    semigroup = laws.filter_semigroup_laws(monoid)
    assert semigroup.get("idempotents-are-idempotent-filters").failures == [(one,)]
    assert (one,) in semigroup.get("inverse-semigroup").failures
    filters = laws.filter_laws(monoid)
    assert filters.get("product-smallest-filter").failures
    assert (one, one, "coset-form") in filters.get("domain-inverse-submonoid").failures

    monkeypatch.setattr(laws, "filter_products", real)
    assert laws.filter_semigroup_laws(monoid).ok and laws.filter_laws(monoid).ok


@pytest.mark.parametrize("criterion, suite, law", [
    ("ultra_by_meet", "filter_laws", "ultra-criteria-agree"),
    ("ultra_by_maximality", "filter_laws", "ultra-criteria-agree"),
    ("contains_idempotent", "filter_laws", "idempotent-filter-iff-closed"),
    ("contains_idempotent", "filter_semigroup_laws", "idempotents-are-idempotent-filters"),
    ("ultra_by_meet", "ultra_equivalence_laws", "three-way-equivalence"),
    ("contains_idempotent", "ultra_equivalence_laws", "three-way-equivalence"),
    ("idempotent_part_ultra", "ultra_equivalence_laws", "three-way-equivalence"),
])
def test_ultrafilter_laws_read_each_criterion(monkeypatch, criterion, suite, law):
    """A criterion that is wrong for one filter, up(a) at an atom a, fails
    the law that compares it, at that filter alone."""
    monoid = symmetric_inverse_monoid(3)
    atom = monoid.atoms[0]
    real = getattr(laws, criterion)

    def wrong(monoid, generators):
        out = real(monoid, generators).copy()
        out[atom] = ~out[atom]
        return out

    monkeypatch.setattr(laws, criterion, wrong)
    assert getattr(laws, suite)(monoid).get(law).failures == [(atom,)]


def test_filter_laws_read_the_monoid_table():
    """A product table corrupted after validation, an idempotent atom that
    squares to zero, shows in the filter laws, which read the table."""
    monoid = symmetric_inverse_monoid(3)
    monoid.require_boolean()        # the order and certificate of the sound table
    atom = next(a for a in monoid.atoms if monoid.is_idempotent(a))
    mul = monoid.mul.copy()
    mul[atom, atom] = monoid.zero
    monoid.mul = mul
    filters = laws.filter_laws(monoid)
    assert filters.get("filters-are-cosets").failures == [(atom,)]
    assert (atom, atom, "coset-form") in filters.get("domain-inverse-submonoid").failures
    semigroup = laws.filter_semigroup_laws(monoid)
    assert semigroup.get("idempotents-are-idempotent-filters").failures == [(atom,)]


def _distribute_by_loops(monoid):
    """products-distribute-over-meets, one instance at a time."""
    count, failures = 0, []
    for s in range(monoid.n):
        for t in range(monoid.n):
            m = monoid.meet(s, t)
            if m is None:
                continue
            for u in range(monoid.n):
                count += 1
                left = monoid.meet(monoid.product(u, s), monoid.product(u, t))
                right = monoid.meet(monoid.product(s, u), monoid.product(t, u))
                if left != monoid.product(u, m) or right != monoid.product(m, u):
                    failures.append((s, t, u))
    return count, failures


@pytest.mark.parametrize("factory", [lambda: symmetric_inverse_monoid(3), clifford_monoid],
                         ids=["ix3", "clifford"])
def test_meet_table_law_matches_the_loops(factory):
    """The gathered products-distribute-over-meets gives the loop's count
    and failure list, in order, on a sound monoid and after one meet is
    corrupted."""
    monoid = factory()
    law = laws.order_meet_laws(monoid).get("products-distribute-over-meets")
    assert (law.instances, law.failures) == _distribute_by_loops(monoid)
    assert law.instances and law.ok

    order = monoid.order()
    atom = monoid.atoms[0]
    meet = order.meet.copy()
    meet[meet == atom] = monoid.zero                   # meets landing on atom now say 0
    monoid._order = replace(order, meet=meet)
    law = laws.order_meet_laws(monoid).get("products-distribute-over-meets")
    assert law.failures
    assert (law.instances, law.failures) == _distribute_by_loops(monoid)


GATHERED = [          # each suite, and the laws it gathers with their per-pair loops
    (laws.local_complement_laws, {"relative-complement-unique": reference_relative_complement_unique,
                                  "separation-below": reference_separation_below}),
    (laws.compatible_join_laws, {"compatible-join-formula": reference_compatible_join_formula}),
]


def _outcome(run):
    """What a call gives: its value, or the message of its StructureError."""
    try:
        return run()
    except StructureError as error:
        return f"StructureError: {error}"


def _gathered_and_looped(monoid):
    """For each suite, its gathered laws as [(name, instances, failures)],
    or the error it raises, beside the same from the per-pair loops run in
    the suite's order."""
    def gathered(suite, names):
        report = suite(monoid)
        return [(name, report.get(name).instances, report.get(name).failures) for name in names]

    return [(_outcome(lambda: gathered(suite, loops)),
             _outcome(lambda: [(name, *loop(monoid)) for name, loop in loops.items()]))
            for suite, loops in GATHERED]


FACTORIES = {
    "ix2": lambda: symmetric_inverse_monoid(2),
    "ix3": lambda: symmetric_inverse_monoid(3),
    "ix4": lambda: symmetric_inverse_monoid(4),
    **{f"ba{k}": (lambda k=k: boolean_algebra_monoid(k)) for k in range(3, 8)},
    "clifford": clifford_monoid,
    "z2_zero": lambda: group_with_zero_monoid(2),
    "z3_zero": lambda: group_with_zero_monoid(3),
}


@pytest.mark.parametrize("name", FACTORIES)
def test_gathered_complement_and_join_laws_match_the_loops(name):
    """On a sound monoid every gathered law gives the loop's instance count
    and (empty) failure list."""
    for gathered, looped in _gathered_and_looped(FACTORIES[name]()):
        assert gathered == looped
        assert all(instances and not failures for _, instances, failures in gathered)


def _tampered(monoid, rng):
    """The monoid with one meet cell, one join cell (possibly made absent)
    or one product cell replaced, chosen by ``rng``.  (The loops find a
    complement by its definition, so a corrupted complement entry is
    test_a_corrupted_complement_entry_is_caught_by_the_self_check's.)"""
    monoid.require_boolean()
    order, n = monoid.order(), monoid.n
    s, t = rng.randrange(n), rng.randrange(n)
    what = rng.choice(["meet", "join", "product"])
    if what == "product":
        monoid.mul = monoid.mul.copy()
        monoid.mul[s, t] = rng.randrange(n)
        return monoid
    table = getattr(order, what).copy()
    # an absent meet is never asked of a boolean monoid: the loop would fail on None
    table[s, t] = rng.choice(range(-1 if what == "join" else 0, n))
    monoid._order = replace(order, **{what: table})
    return monoid


@pytest.mark.parametrize("name", ["ix2", "ix3", "ba3", "ba4", "clifford", "z3_zero"])
def test_gathered_laws_match_the_loops_on_tampered_tables(name):
    """After one meet, join or product entry is corrupted, each
    gathered law gives the loop's count and failures in loop order, or its
    suite raises the loop's StructureError; passing, failing and raising
    all occur."""
    rng, kinds = random.Random(name), set()
    for _ in range(40):
        for gathered, looped in _gathered_and_looped(_tampered(FACTORIES[name](), rng)):
            assert gathered == looped
            kinds.add("raised" if isinstance(gathered, str)
                      else "failed" if any(law[2] for law in gathered) else "passed")
    assert kinds == {"raised", "failed", "passed"}


@pytest.mark.parametrize("name", ["ix2", "ba3", "clifford"])
def test_a_corrupted_complement_entry_is_caught_by_the_self_check(name):
    """relative_complements reads the complements of E that check_boolean
    keeps; every wrong entry (another idempotent, or -1) is refused, as at
    (e, one) the only relative complement is the complement of e."""
    monoid = FACTORIES[name]()
    monoid.require_boolean()
    kept, idem = monoid._complements, list(monoid.idempotents)
    for e in idem:
        for wrong in set(idem + [-1]) - {int(kept[e])}:
            monoid._complements = kept.copy()
            monoid._complements[e] = wrong
            with pytest.raises(StructureError, match=rf"^({e} is not idempotent|relative "
                                                     r"complement construction broke at .*)$"):
                laws.local_complement_laws(monoid)


def test_a_second_candidate_fails_relative_complement_unique():
    """In ba3, one product cell made zero makes {1} orthogonal to {1,2}, a
    second candidate for {1,2} minus {1}; the witness lists both, as the
    loop does."""
    monoid = boolean_algebra_monoid(3)
    monoid.require_boolean()
    monoid.mul = monoid.mul.copy()
    monoid.mul[1, 3] = monoid.zero
    law = laws.local_complement_laws(monoid).get("relative-complement-unique")
    assert law.failures == [(1, 3, [2, 3])]
    assert (law.instances, law.failures) == reference_relative_complement_unique(monoid)
    # with their join cell moved to {1,3}, which {1,2} is not below, {1,2}
    # is a candidate for no pair: x <= t is part of the test
    order = monoid.order()
    join = order.join.copy()
    join[1, 3] = 5
    monoid._order = replace(order, join=join)
    law = laws.local_complement_laws(monoid).get("relative-complement-unique")
    assert law.ok and (law.instances, []) == reference_relative_complement_unique(monoid)


def test_array_relative_complements_match_the_scalar_ones():
    """On every s <= t of ix3 the array form, the scalar wrapper and the
    literal one-pair construction agree."""
    monoid = symmetric_inverse_monoid(3)
    t, s = np.nonzero(monoid.order().matrix.T)
    looped = [reference_relative_complement(monoid, a, b) for a, b in zip(s.tolist(), t.tolist())]
    assert monoid.relative_complements(s, t).tolist() == looped
    assert [relative_complement(monoid, a, b) for a, b in zip(s.tolist(), t.tolist())] == looped


# -- each recorded failure, reached once --------------------------------------------


def by_label(monoid, label):
    return monoid.labels.index(label)


def test_a_removed_relation_fails_downset_boolean_via_dom(monkeypatch):
    """In ix3, {1->2} <= {1->2,2->3} struck from the order: down({1->2,2->3})
    loses {1->2}, so dom no longer maps it onto the idempotents below its
    dom, and inside down({1->2,2->3,3->1}) the two are no longer ordered as
    their doms are.  Relative complements come from a sound copy, so the
    suite runs to its end."""
    monoid = symmetric_inverse_monoid(3)
    sound = monoid.restrict(range(monoid.n))
    x, y, s = (by_label(monoid, label) for label in ("{1->2}", "{1->2,2->3}",
                                                     "{1->2,2->3,3->1}"))
    order = monoid.order()
    matrix = order.matrix.copy()
    matrix[x, y] = False
    monoid._order = replace(order, matrix=matrix)
    monkeypatch.setattr(monoid, "relative_complements", sound.relative_complements)
    law = laws.local_complement_laws(monoid).get("downset-boolean-via-dom")
    assert law.failures == [(y,), (s, x, y)]


def test_zero_left_out_of_its_own_filter_fails_the_filter_base():
    """In ba2 with 0 <= 0 struck, up(0) is {1}, {2} and {1,2}: nothing in it
    lies below both {1} and {2}."""
    monoid = boolean_algebra_monoid(2)
    monoid.require_boolean()
    laws.filter_products(monoid)            # kept from the sound order
    order = monoid.order()
    matrix = order.matrix.copy()
    matrix[0, 0] = False
    monoid._order = replace(order, matrix=matrix)
    assert laws.filter_laws(monoid).get("filter-base-pairwise").failures == [(0, 1, 2), (0, 2, 1)]


def test_a_kept_product_off_its_set_fails_minimality_and_the_domain_laws():
    """In ix2, up(0) up(0) is every element, but the kept table says up(a)
    for a = {1->2}: a filter that does not hold the set product, and the
    domain of up(0) is then up(a), which holds neither the one nor a^-1,
    is not closed under products and is not up(0)'s coset."""
    monoid = symmetric_inverse_monoid(2)
    sets, prod, inverse = laws.filter_products(monoid)
    a = by_label(monoid, "{1->2}")
    prod = prod.copy()
    prod[0, 0] = a
    monoid._filter_products = sets, prod, inverse
    report = laws.filter_laws(monoid)
    assert report.get("product-smallest-filter").failures == [(0, 0, "not containing")]
    swap = by_label(monoid, "{1->2,2->1}")
    assert report.get("domain-inverse-submonoid").failures == [
        (0, "one"), (0, a, "inverse"), (0, a, a), (0, a, swap), (0, swap, a), (0, swap, swap),
        *((0, x, "coset-form") for x in range(3, monoid.n))]


def test_a_wrong_join_fails_ultrafilters_prime():
    """In ba2 with 0 v 0 = {1}, the join lies in the ultrafilter up({1})
    while 0 does not."""
    monoid = boolean_algebra_monoid(2)
    monoid.require_boolean()
    order = monoid.order()
    join = order.join.copy()
    join[0, 0] = 1
    monoid._order = replace(order, join=join)
    report = laws.filter_laws(monoid)
    assert report.get("ultrafilters-prime").failures == [(1,)]
    assert report.failure_count == 1


def test_a_foreign_kept_groupoid_fails_the_clifford_law():
    """The Clifford monoid keeping ix2's Stone groupoid, which has arrows
    between two identities, is reported unbalanced."""
    monoid = clifford_monoid()
    monoid._stone_groupoid = stone_groupoid(symmetric_inverse_monoid(2))
    assert laws.clifford_report(monoid).get("clifford-groupoid-has-loops-only").failures == [
        ("unbalanced",)]


@pytest.mark.parametrize("columns, intertwine, collision, mismatch", [
    ([1, 0, 2, 3], [(0,), (0, 0), (0, 1), (1,), (1, 2), (1, 3), (2,), (2, 0), (2, 1)], [], []),
    ([0, 0, 2, 3], [(1,), (1, 2), (1, 3), (2, 1)], [("collision",)], [("mismatch",)]),
], ids=["two-arrows-swapped", "one-arrow-twice"])
def test_a_kept_bisection_monoid_with_moved_columns_fails_the_point_filter_laws(
        columns, intertwine, collision, mismatch):
    """pair2 keeping its bisection monoid with the membership columns of
    its arrows moved: the point filters no longer intertwine dom, ran and
    composition, and a repeated column collides and misses an ultrafilter."""
    groupoid = pair_groupoid(2)
    bm = all_bisections_monoid(groupoid)
    groupoid._bisections = replace(bm, rows=bm.rows[:, columns])
    report = laws.point_filter_laws(groupoid)
    assert report.get("point-filters-ultra").ok
    assert report.get("point-filters-intertwine").failures == intertwine
    assert report.get("point-filters-injective").failures == collision
    assert report.get("point-filters-exhaust-ultrafilters").failures == mismatch
