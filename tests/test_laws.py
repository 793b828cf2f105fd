"""The law suites read shared tables: a table of every filter product,
computed from the definition under test, and dense meet, join and
complement tables.  These tests show that a wrong product, meet, join or
complement still surfaces, with the witnesses the per-instance loops give,
and that each failure a suite can record is reached by some broken input."""

import json
import os
import random
import threading
import tracemalloc
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from helpers import (
    reference_compatible_join_formula,
    reference_domain_inverse_submonoid,
    reference_downset_boolean_via_dom,
    reference_filter_base_pairwise,
    reference_filter_rigidity,
    reference_filters_are_cosets,
    reference_idempotent_filter_iff_closed,
    reference_idempotents_are_idempotent_filters,
    reference_inverse_semigroup,
    reference_join_is_union,
    reference_meet_is_intersection,
    reference_nonzero_in_some_ultrafilter,
    reference_order_is_reverse_inclusion,
    reference_point_filters_intertwine,
    reference_product_smallest_filter,
    reference_products_distribute_over_meets,
    reference_relative_complement,
    reference_relative_complement_unique,
    reference_separation_below,
    reference_set_products,
    reference_three_way_equivalence,
    reference_ultra_criteria_agree,
    reference_ultrafilter_intersection_principal,
    reference_ultrafilters_prime,
    reference_union_bisection_iff_join,
    relative_complement,
)
from stonework import (
    StructureError,
    all_bisections_monoid,
    boolean_algebra_monoid,
    brandt_monoid,
    chain_monoid,
    clifford_monoid,
    group_with_zero_monoid,
    inverse_core,
    laws,
    pair_groupoid,
    symmetric_inverse_monoid,
)
from stonework.duality import clifford_check, stone_groupoid, verify_basic_open_laws
from stonework.reporting import LawReport, LawResult, where

TWO_CPUS = len(os.sched_getaffinity(0)) >= 2


def test_law_suites_read_the_product_they_check(monkeypatch):
    """A product table that is wrong on one pair, up(1) * up(1), must be
    reported: the suites read the table they are given."""
    monoid = symmetric_inverse_monoid(3)
    one = monoid.one
    real = laws.filter_products

    def wrong(monoid):
        prod, inverse = real(monoid)
        prod = prod.copy()
        prod[one, one] = monoid.zero        # the improper filter up(zero)
        return prod, inverse

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


@pytest.mark.parametrize("factory, blocks", [
    (lambda: symmetric_inverse_monoid(3), None), (clifford_monoid, None),
    (lambda: symmetric_inverse_monoid(3), 64), (clifford_monoid, 64),
], ids=["ix3", "clifford", "ix3-64", "clifford-64"])
def test_meet_table_law_matches_the_loops(monkeypatch, factory, blocks):
    """The gathered products-distribute-over-meets gives the loop's count
    and failure list, in order, on a sound monoid and after one meet is
    corrupted, each u's rows in one block or in blocks of BLOCK_CELLS = 64
    cells."""
    if blocks:
        monkeypatch.setattr(inverse_core, "BLOCK_CELLS", blocks)
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


def _literal_passes(monkeypatch):
    """A list that gets an entry each time products-distribute-over-meets enters its
    literal pass over every u."""
    entered, literal = [], laws._distributivity_witnesses
    monkeypatch.setattr(laws, "_distributivity_witnesses",
                        lambda *args: entered.append(args) or literal(*args))
    return entered


@pytest.mark.parametrize("how", ["sound", "meet", "order"])
def test_distributivity_on_two_threads_is_the_law_on_one(how, monkeypatch):
    """On ix4, sound, with the meets landing on an atom read as 0, or with its order
    tampered (_tampered_order), products-distribute-over-meets gives the per-s loop's
    count and witnesses in order.  Sound or with its order tampered, the law holds and
    Light's closure decides it: the literal pass is not entered.  With the meets
    tampered it fails, and the literal pass names the witnesses both when its two
    halves of s go to two threads (on two CPUs: a helper is started) and with
    table_map as plain map."""
    monoid = symmetric_inverse_monoid(4)
    if how == "meet":
        order = monoid.order()
        meet = order.meet.copy()
        meet[meet == monoid.atoms[0]] = monoid.zero
        monoid._order = replace(order, meet=meet)
    elif how == "order":
        _tampered_order(monoid, random.Random(48))
    expected = reference_products_distribute_over_meets(monoid)
    started, thread, literal = [], threading.Thread, _literal_passes(monkeypatch)

    class Listed(thread):
        def start(self):
            started.append(self)
            super().start()
    monkeypatch.setattr(threading, "Thread", Listed)
    failing = how == "meet"
    law = laws.order_meet_laws(monoid).get("products-distribute-over-meets")
    assert (law.instances, law.failures) == expected and law.ok == (not failing)
    assert len(literal) == failing and len(started) == TWO_CPUS * failing
    monkeypatch.setattr(laws, "table_map", lambda cells, fn, *items: list(map(fn, *items)))
    law = laws.order_meet_laws(monoid).get("products-distribute-over-meets")
    assert (law.instances, law.failures) == expected
    assert len(literal) == 2 * failing and len(started) == TWO_CPUS * failing


GATHERED = [          # each suite, and the laws it gathers with their per-element loops
    (laws.order_meet_laws, {
        "products-distribute-over-meets": reference_products_distribute_over_meets}),
    (laws.local_complement_laws, {"downset-boolean-via-dom": reference_downset_boolean_via_dom,
                                  "relative-complement-unique": reference_relative_complement_unique,
                                  "separation-below": reference_separation_below}),
    (laws.compatible_join_laws, {"compatible-join-formula": reference_compatible_join_formula}),
    (laws.filter_laws, {"filter-base-pairwise": reference_filter_base_pairwise,
                        "filters-are-cosets": reference_filters_are_cosets,
                        "product-smallest-filter": reference_product_smallest_filter,
                        "domain-inverse-submonoid": reference_domain_inverse_submonoid,
                        "idempotent-filter-iff-closed": reference_idempotent_filter_iff_closed,
                        "ultrafilters-prime": reference_ultrafilters_prime}),
    (laws.ultra_equivalence_laws, {"three-way-equivalence": reference_three_way_equivalence}),
]
BASIC_OPEN = [(verify_basic_open_laws, {"meet-is-intersection": reference_meet_is_intersection,
                                        "join-is-union": reference_join_is_union,
                                        "union-bisection-iff-join":
                                            reference_union_bisection_iff_join})]


def _outcome(run):
    """What a call gives: its value, or the message of its StructureError."""
    try:
        return run()
    except StructureError as error:
        return f"StructureError: {error}"


def _gathered_and_looped(subject, suites=GATHERED):
    """For each suite, its gathered laws as [(name, instances, failures)],
    or the error it raises, beside the same from the per-element loops run
    in the suite's order."""
    def gathered(suite, names):
        report = suite(subject)
        return [(name, report.get(name).instances, report.get(name).failures) for name in names]

    return [(_outcome(lambda: gathered(suite, loops)),
             _outcome(lambda: [(name, *loop(subject)) for name, loop in loops.items()]))
            for suite, loops in suites]


FACTORIES = {
    "ix2": lambda: symmetric_inverse_monoid(2),
    "ix3": lambda: symmetric_inverse_monoid(3),
    "ix4": lambda: symmetric_inverse_monoid(4),
    **{f"ba{k}": (lambda k=k: boolean_algebra_monoid(k)) for k in range(3, 8)},
    "clifford": clifford_monoid,
    "z2_zero": lambda: group_with_zero_monoid(2),
    "z3_zero": lambda: group_with_zero_monoid(3),
}


CLOSING_TRIES = {"ba4": 5, "ix3": 4, "clifford": 5, "z3_zero": 3, "ba7": 8, "ix4": 5, "ba8": 9,
                 "ix5": 6, "ix2": 3, "ba3": 4, "z2_zero": 3, "chain3": 3, "brandt": 4,
                 "pair3": 3}
STOCK = {**FACTORIES, "ba8": lambda: boolean_algebra_monoid(8),
         "ix5": lambda: symmetric_inverse_monoid(5), "chain3": lambda: chain_monoid(3),
         "brandt": brandt_monoid, "pair3": lambda: all_bisections_monoid(pair_groupoid(3)).monoid}


@pytest.mark.parametrize("name", CLOSING_TRIES)
def test_distributivity_on_a_sound_monoid_is_decided_by_a_few_tries(name, monkeypatch):
    """On every sound stock monoid, ix5 too, products-distribute-over-meets holds and is
    decided by Light's closure in a pinned number of tried multipliers u (the n
    multipliers of the literal pass): the literal pass is not entered.  Up to 256
    elements, with the meets that land on an atom read as 0 the same monoid fails, and
    the literal pass runs."""
    monoid = STOCK[name]()
    made, tries, literal = [], inverse_core._tries, _literal_passes(monkeypatch)
    monkeypatch.setattr(inverse_core, "_tries", lambda *args: (
        made.append(g) or g for g in tries(*args)))
    law = laws.order_meet_laws(monoid).get("products-distribute-over-meets")
    exists = np.count_nonzero(monoid.order().meet >= 0)
    assert law.ok and law.instances == monoid.n * exists
    assert (len(made), literal) == (CLOSING_TRIES[name], [])
    if monoid.n <= 256:
        order = monoid.order()
        meet = order.meet.copy()
        meet[meet == monoid.atoms[0]] = monoid.zero
        monoid._order = replace(order, meet=meet)
        assert not laws.order_meet_laws(monoid).get("products-distribute-over-meets").ok
        assert len(literal) == 1


@pytest.mark.parametrize("name", ["ba3", "chain3", "brandt"])
def test_distributivity_tries_the_row_of_one_too(name):
    """With one * one tampered to zero after the order is built, the law fails at u = one,
    and it gives the loop's count and witnesses: the closure starts from no element, so
    one is tried like any other multiplier, not taken as passing."""
    monoid = STOCK[name]()
    monoid.order().meet
    mul = monoid.mul.copy()
    mul[monoid.one, monoid.one] = monoid.zero
    monoid.mul = mul
    law = laws.order_meet_laws(monoid).get("products-distribute-over-meets")
    expected = reference_products_distribute_over_meets(monoid)
    assert (law.instances, law.failures) == expected and not law.ok


@pytest.mark.parametrize("name", FACTORIES)
def test_gathered_complement_and_join_laws_match_the_loops(name):
    """On a sound monoid every gathered law gives the loop's instance count
    and (empty) failure list."""
    for gathered, looped in _gathered_and_looped(FACTORIES[name]()):
        assert gathered == looped
        assert all(instances and not failures for _, instances, failures in gathered)


def _tampered(monoid, rng, among=None):
    """The monoid with one meet cell, one join cell (possibly made absent)
    or one product cell replaced, chosen by ``rng``: with ``among``, a cell
    of two of its elements, made zero half the time, else one of them.  (The loops find a
    complement by its definition, so a corrupted complement entry is
    test_a_corrupted_complement_entry_is_caught_by_the_self_check's.)"""
    monoid.require_boolean()
    order, n = monoid.order(), monoid.n
    cells = range(n) if among is None else among
    values = cells if among is None else [monoid.zero] * len(among) + list(among)
    s, t = rng.choice(cells), rng.choice(cells)
    what = rng.choice(["meet", "join", "product"])
    if what == "product":
        monoid.mul = monoid.mul.copy()
        monoid.mul[s, t] = rng.choice(values)
        return monoid
    table = getattr(order, what).copy()
    # an absent meet is never asked of a boolean monoid: the loop would fail on None
    table[s, t] = rng.choice([-1, *values] if what == "join" else values)
    monoid._order = replace(order, **{what: table})
    return monoid


def _kinds(outcomes):
    """What each suite did: raised, failed some gathered law, or passed."""
    return {"raised" if isinstance(gathered, str)
            else "failed" if any(law[2] for law in gathered) else "passed"
            for gathered, _ in outcomes}


@pytest.mark.parametrize("name", ["ix2", "ix3", "ba3", "ba4", "clifford", "z3_zero"])
def test_gathered_laws_match_the_loops_on_tampered_tables(name):
    """After one meet, join or product entry is corrupted, each
    gathered law gives the loop's count and failures in loop order, or its
    suite raises the loop's StructureError; passing, failing and raising
    all occur, for the basic-open laws too on ix3, ba4 and clifford."""
    suites = GATHERED + BASIC_OPEN * (name in ("ix3", "ba4", "clifford"))
    rng, kinds, basic = random.Random(name), set(), set()
    for trial in range(60):
        monoid = FACTORIES[name]()      # the last 20: cells of atoms, which the Stone groupoid reads
        outcomes = _gathered_and_looped(_tampered(monoid, rng, monoid.atoms if trial >= 40
                                                  else None), suites)
        assert all(gathered == looped for gathered, looped in outcomes)
        kinds |= _kinds(outcomes)
        basic |= _kinds(outcomes[len(GATHERED):])
    assert kinds == {"raised", "failed", "passed"}
    assert basic == ({"raised", "failed", "passed"} if len(suites) > len(GATHERED) else set())


@pytest.mark.parametrize("points", [3, 4])
def test_point_filter_laws_match_the_loops_on_a_tampered_kept_monoid(points):
    """The pair groupoid keeping its bisection monoid with one meet, join or
    product cell corrupted: point-filters-intertwine gives the loop's count
    and failures in loop order, or the loop's StructureError; passing,
    failing and raising all occur (the tampering goes on until they have,
    at most 200 times)."""
    rng, kinds = random.Random(f"pair{points}"), set()
    for _ in range(200):
        if len(kinds) == 3:
            break
        groupoid = pair_groupoid(points)
        monoid = all_bisections_monoid(groupoid).monoid
        _tampered(monoid, rng, among=monoid.atoms)      # the point filters' generators
        outcomes = _gathered_and_looped(groupoid, [(laws.point_filter_laws, {
            "point-filters-intertwine": reference_point_filters_intertwine})])
        assert all(gathered == looped for gathered, looped in outcomes)
        kinds |= _kinds(outcomes)
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


def test_an_empty_down_set_fails_downset_boolean_via_dom():
    """In ix3, with 0 <= a and a <= a struck for a = {1->2}, down(a) is
    empty, but down(dom a) = {0, {1->1}} is not."""
    monoid = symmetric_inverse_monoid(3)
    monoid.require_boolean()
    a = by_label(monoid, "{1->2}")
    order = monoid.order()
    matrix = order.matrix.copy()
    matrix[[monoid.zero, a], a] = False
    monoid._order = replace(order, matrix=matrix)
    monoid.relative_complements = lambda s, t: np.full(np.shape(s), monoid.zero)
    law = laws.local_complement_laws(monoid).get("downset-boolean-via-dom")
    assert (a,) in law.failures
    assert (law.instances, law.failures) == reference_downset_boolean_via_dom(monoid)


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
    prod, inverse = laws.filter_products(monoid)
    a = by_label(monoid, "{1->2}")
    prod = prod.copy()
    prod[0, 0] = a
    monoid._filter_products = prod, inverse
    report = laws.filter_laws(monoid)
    assert report.get("product-smallest-filter").failures == [(0, 0, "not containing")]
    swap = by_label(monoid, "{1->2,2->1}")
    assert report.get("domain-inverse-submonoid").failures == [
        (0, "one"), (0, a, "inverse"), (0, a, a), (0, a, swap), (0, swap, a), (0, swap, swap),
        *((0, x, "coset-form") for x in range(3, monoid.n))]


WHOLE_FILTER_SUITES = [
    (laws.filter_laws, {
        "filter-base-pairwise": reference_filter_base_pairwise,
        "ultra-criteria-agree": reference_ultra_criteria_agree,
        "nonzero-in-some-ultrafilter": reference_nonzero_in_some_ultrafilter,
        "ultrafilter-intersection-principal": reference_ultrafilter_intersection_principal,
        "filters-are-cosets": reference_filters_are_cosets,
        "product-smallest-filter": reference_product_smallest_filter,
        "domain-inverse-submonoid": reference_domain_inverse_submonoid,
        "idempotent-filter-iff-closed": reference_idempotent_filter_iff_closed,
        "filter-rigidity": reference_filter_rigidity,
        "ultrafilters-prime": reference_ultrafilters_prime}),
    (laws.filter_semigroup_laws, {
        "inverse-semigroup": reference_inverse_semigroup,
        "idempotents-are-idempotent-filters": reference_idempotents_are_idempotent_filters,
        "order-is-reverse-inclusion": reference_order_is_reverse_inclusion}),
]
PRODUCT_TAMPERINGS = ("not below", "strict lower bound", "other member")


def _tampered_products(monoid, rng, sets):
    """The monoid keeping its filter products with one to three cells (i, j) of prod set to
    an element of one kind, chosen by ``rng``: one not below all of S(i, j) = up(i) up(j)
    (``sets[i, j]``), a strict lower bound of S(i, j) outside it, or another member of it
    than the generator of its closure.  Returns the kinds."""
    prod, inverse = laws.filter_products(monoid)
    prod, leq, kinds = prod.copy(), monoid.order().matrix, []
    for _ in range(rng.randint(1, 3)):
        kinds.append(kind := rng.choice(PRODUCT_TAMPERINGS))
        while True:
            i, j = rng.randrange(monoid.n), rng.randrange(monoid.n)
            members = sets[i, j]
            bounds = leq[:, members].all(axis=1)            # [c]: c <= every member
            allowed = {"not below": ~bounds, "strict lower bound": bounds & ~members,
                       "other member": members & (np.arange(monoid.n) != prod[i, j])}[kind]
            if allowed.any():
                break
        prod[i, j] = rng.choice(np.flatnonzero(allowed).tolist())
    prod.setflags(write=False)
    monoid._filter_products = prod, inverse
    return kinds


@pytest.mark.parametrize("blocks", [None, 64])
def test_filter_reports_match_the_loops_on_tampered_kept_products(monkeypatch, blocks):
    """200 seeded tamperings of the kept product table, 100 of ix3 and 100 of ba4, with
    BLOCK_CELLS at its default or at 64: every law of filter_laws and filter_semigroup_laws
    gives the loops' count and witnesses in loop order.  Each kind of tampered value occurs,
    and product-smallest-filter names both "not containing" and smaller filters."""
    if blocks:
        monkeypatch.setattr(inverse_core, "BLOCK_CELLS", blocks)
    kinds, named = set(), set()
    for name in ("ix3", "ba4"):
        rng, sets = random.Random(f"kept-{name}"), reference_set_products(FACTORIES[name]())
        for _ in range(100):
            monoid = FACTORIES[name]()
            kinds.update(_tampered_products(monoid, rng, sets))
            for suite, loops in WHOLE_FILTER_SUITES:
                report = suite(monoid)
                assert [(law.name, law.instances, law.failures) for law in report.results] == [
                    (law, *loop(monoid)) for law, loop in loops.items()]
                named |= {witness[2] == "not containing" for law in report.results
                          if law.name == "product-smallest-filter" for witness in law.failures}
    assert kinds == set(PRODUCT_TAMPERINGS) and named == {True, False}


def test_a_wrong_inverse_fails_idempotent_filter_iff_closed():
    """In ix2 with {1->1}^-1 read as 0 after the filter products are kept,
    the idempotent filter up({1->1}) is closed under products but not under
    inverses."""
    monoid = symmetric_inverse_monoid(2)
    monoid.require_boolean()
    laws.filter_products(monoid)
    e = by_label(monoid, "{1->1}")
    monoid.inv = tuple(monoid.zero if x == e else y for x, y in enumerate(monoid.inv))
    law = laws.filter_laws(monoid).get("idempotent-filter-iff-closed")
    assert law.failures == [(e,)]
    assert (law.instances, law.failures) == reference_idempotent_filter_iff_closed(monoid)


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
    assert clifford_check(monoid).get("clifford-groupoid-has-loops-only").failures == [
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


def _tampered_order(monoid, rng):
    """The monoid with one to three cells of its order matrix flipped,
    after its filter products were kept, and its relative complements all
    zero, so that each suite runs to its end.  (The complement loops find
    complements in the flipped order: ORDER_GATHERED leaves them out.)"""
    monoid.require_boolean()
    laws.filter_products(monoid)
    order = monoid.order()
    matrix = order.matrix.copy()
    for _ in range(rng.randint(1, 3)):
        s = rng.randrange(monoid.n)
        t = s if rng.random() < 0.3 else rng.randrange(monoid.n)
        matrix[s, t] = not matrix[s, t]
    monoid._order = replace(order, matrix=matrix)
    monoid.relative_complements = lambda s, t: np.full(np.shape(s), monoid.zero)
    return monoid


ORDER_GATHERED = [(suite, {name: loop for name, loop in loops.items()
                           if suite is not laws.local_complement_laws
                           or name == "downset-boolean-via-dom"})
                  for suite, loops in GATHERED + BASIC_OPEN
                  if suite is not laws.compatible_join_laws]


@pytest.mark.parametrize("name", ["ix3", "ba4", "clifford"])
def test_gathered_laws_match_the_loops_on_a_tampered_order(name):
    """After one to three relations are added to the order or struck from
    it, each gathered law gives the loop's count and failures in loop order,
    or its suite raises the loop's error; a down-set and a filter can be
    empty, and the filter base and down-set laws fail too (but not the
    down-set law of ba4, where dom is the identity)."""
    rng, failing = random.Random(name), set()
    for _ in range(30):
        outcomes = _gathered_and_looped(_tampered_order(FACTORIES[name](), rng),
                                        ORDER_GATHERED)
        assert all(gathered == looped for gathered, looped in outcomes)
        failing |= {law for gathered, _ in outcomes if not isinstance(gathered, str)
                    for law, _, failures in gathered if failures}
    assert {"filter-base-pairwise", *["downset-boolean-via-dom"] * (name != "ba4")} <= failing


@pytest.mark.parametrize("name", ["ix3", "ba4", "clifford"])
def test_bounds_at_pairs_are_the_bound_tables_of_a_tampered_order(name):
    """bounds_at keeps bound_table's rule off a partial order too: with
    one to three cells of the order flipped, the down-set of the candidate
    can differ from down(s) & down(t) and still have its size."""
    rng = random.Random(name)
    for _ in range(30):
        matrix = _tampered_order(FACTORIES[name](), rng).order().matrix
        n = len(matrix)
        s, t = np.divmod(np.arange(n * n), n)
        for relation in (matrix, matrix.T):
            assert np.array_equal(inverse_core.bounds_at(relation, s, t),
                                  inverse_core.bound_table(relation).ravel())


@pytest.mark.parametrize("blocks", [None, 64])
def test_absent_meets_are_read_as_in_the_loops(monkeypatch, blocks):
    """Meets made absent (-1) in ix3: products-distribute-over-meets skips
    those pairs and meet-is-intersection fails at them, in one block or in
    blocks of BLOCK_CELLS = 64 cells, as the per-s loops do."""
    if blocks:
        monkeypatch.setattr(inverse_core, "BLOCK_CELLS", blocks)
    rng = random.Random("absent")
    monoid = symmetric_inverse_monoid(3)
    monoid.require_boolean()
    order = monoid.order()
    meet = order.meet.copy()
    last = monoid.n - 1         # K(last) & K(last) is the row that an absent meet reads
    pairs = [(last, last)] + [(rng.randrange(monoid.n), rng.randrange(monoid.n)) for _ in range(5)]
    for s, t in pairs:
        meet[s, t] = -1
    monoid._order = replace(order, meet=meet)
    outcomes = _gathered_and_looped(monoid, [
        (laws.order_meet_laws, {
            "products-distribute-over-meets": reference_products_distribute_over_meets}),
        (verify_basic_open_laws, {"meet-is-intersection": reference_meet_is_intersection})])
    assert all(gathered == looped for gathered, looped in outcomes)
    (_, instances, _), = outcomes[0][0]
    assert instances == monoid.n * (monoid.n ** 2 - len(set(pairs)))
    (_, _, failures), = outcomes[1][0]
    assert set(pairs) <= set(failures)


def _suite_reports(name):
    """Every suite with a gathered law, run on a fresh ``name``, as JSON text."""
    if name.startswith("pair"):
        return json.dumps(laws.point_filter_laws(pair_groupoid(int(name[4:]))).to_json())
    monoid = FACTORIES[name]()
    suites = [suite for suite, _ in GATHERED + BASIC_OPEN] + [clifford_check]
    return json.dumps([suite(monoid).to_json() for suite in suites])


@pytest.mark.parametrize("name", ["ix3", "ba4", "clifford", "pair3"])
def test_suites_in_blocks_of_64_cells_give_the_default_reports(monkeypatch, name):
    """With BLOCK_CELLS at 64 every gather runs in many row blocks and
    every set product in chunks of one cell; the reports are the same, and
    on tampered tables and orders (on pair3, up to the first that fails a
    law) the witnesses still come in loop order."""
    default = _suite_reports(name)
    monkeypatch.setattr(inverse_core, "BLOCK_CELLS", 64)
    assert _suite_reports(name) == default
    rng, kinds = random.Random(name), set()
    for trial in range(200 if name.startswith("pair") else 30):
        if name.startswith("pair"):
            if "failed" in kinds:
                break
            subject = pair_groupoid(3)
            monoid = all_bisections_monoid(subject).monoid
            _tampered(monoid, rng, among=monoid.atoms)
            suites = [(laws.point_filter_laws, {
                "point-filters-intertwine": reference_point_filters_intertwine})]
        else:
            subject, suites = ((_tampered(FACTORIES[name](), rng), GATHERED + BASIC_OPEN)
                               if trial % 3 else
                               (_tampered_order(FACTORIES[name](), rng), ORDER_GATHERED))
        outcomes = _gathered_and_looped(subject, suites)
        assert all(gathered == looped for gathered, looped in outcomes)
        kinds |= _kinds(outcomes)
    assert "failed" in kinds


@pytest.mark.parametrize("make, suite, bound", [
    (lambda: symmetric_inverse_monoid(4), verify_basic_open_laws, 1_369_425),
    (lambda: pair_groupoid(4), laws.point_filter_laws, 280_163),
    (lambda: symmetric_inverse_monoid(4), laws.order_meet_laws, 1_159_082),
], ids=["basic-open-ix4", "point-filters-pair4", "order-meet-ix4"])
def test_gathered_suites_peak_no_higher_than_the_loops(make, suite, bound):
    """The tracemalloc peak of a suite's second call (the first builds what
    its subject keeps) is at most that of the per-element loops, measured
    before the laws were gathered (Python 3.11.7, numpy 2.4.6): 1.31 MiB
    on ix4 and 0.27 MiB on pair4; the order-meet laws on ix4 at most
    1.11 MiB, the peak of the flat-code gathers that the per-u
    distributivity loop replaced."""
    subject = make()
    suite(subject)
    tracemalloc.start()
    try:
        suite(subject)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound, peak


def test_a_law_is_added_once_as_a_value():
    """A law result has no defaults and cannot change: a law is recorded
    once, with its count and its witnesses, and ``where`` names the true
    cells of a boolean table by index tuple in ascending order."""
    with pytest.raises(TypeError):
        LawResult("unticked")           # no law reads "(0 instances)" by default
    report = LawReport("subject")
    report.add("law", 4, where(np.array([[False, True], [True, False]])))
    law = report.get("law")
    assert (law.instances, law.failures, law.ok) == (4, [(0, 1), (1, 0)], False)
    with pytest.raises(FrozenInstanceError):
        law.instances += 1
    report.add("empty", 0, where(np.zeros(3, dtype=bool)))
    assert report.get("empty").to_json() == {"name": "empty", "instances": 0, "ok": True,
                                             "failures": []}


def test_a_witness_of_no_json_type_renders_as_its_repr():
    report = LawReport("subject")
    report.add("law", 2, [(np.int64(3), "x", [1.5, None, True])])
    data = json.loads(json.dumps(report.to_json()))
    assert data["laws"][0]["failures"] == [[repr(np.int64(3)), "x", [1.5, None, True]]]
