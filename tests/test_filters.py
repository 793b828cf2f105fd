"""Filter algebra, ultrafilter enumeration and the ultrafilter groupoid."""

import numpy as np
import pytest
from helpers import (
    corpus_monoids,
    element_product_mask,
    iter_bits,
    mask_of,
    reference_contains_idempotent,
    reference_idempotent_part_ultra,
    reference_ultra_by_maximality,
    reference_ultra_by_meet,
    reference_ultrafilters,
    relabelled,
    up_mask,
    upward_closure,
)

from stonework import (
    NotBooleanError,
    StructureError,
    boolean_algebra_monoid,
    brandt_monoid,
    chain_monoid,
    clifford_monoid,
    group_with_zero_monoid,
    symmetric_inverse_monoid,
)
from stonework.filters import (
    Filter,
    all_filters,
    contains_idempotent,
    enumerate_ultrafilters,
    filter_dom,
    filter_of,
    filter_product,
    filter_products,
    filter_ran,
    idempotent_part_ultra,
    least_members,
    prime_property_check,
    principal_filter,
    ultra_by_maximality,
    ultra_by_meet,
    ultrafilter_groupoid,
)
from stonework.groupoids import FiniteGroupoid
from stonework.serialize import groupoid_to_json, monoid_from_json, monoid_to_json


@pytest.fixture(scope="module")
def ix2():
    return symmetric_inverse_monoid(2)


def by_label(monoid, label):
    return monoid.labels.index(label)


def composable_pairs(groupoid):
    return int(np.count_nonzero(groupoid.compose >= 0))


# -- filter basics -----------------------------------------------------------


def test_principal_filter_at_one(ix2):
    f = principal_filter(ix2, ix2.one)
    assert set(f) == {ix2.one}


def test_principal_filter_members(ix2):
    e1 = by_label(ix2, "{1->1}")
    f = principal_filter(ix2, e1)
    assert set(f) == {e1, ix2.one}


def test_principal_filter_rejects_zero(ix2):
    with pytest.raises(StructureError):
        principal_filter(ix2, ix2.zero)


def test_filter_validation(ix2):
    leq = ix2.order().matrix
    with pytest.raises(StructureError, match="a filter cannot be empty"):
        filter_of(ix2, np.zeros(ix2.n, dtype=bool))
    e1 = by_label(ix2, "{1->1}")
    with pytest.raises(StructureError, match="not the up-set of one of its members"):
        filter_of(ix2, np.arange(ix2.n) == e1)  # not upward closed (misses one)
    e2 = by_label(ix2, "{2->2}")
    with pytest.raises(StructureError, match="not the up-set of one of its members"):
        filter_of(ix2, leq[e1] | leq[e2])  # e1, e2 have no common lower bound inside
    assert filter_of(ix2, leq[e1]) == principal_filter(ix2, e1)


@pytest.mark.parametrize("generator", [-1, 7, 8])
def test_a_generator_outside_the_carrier_is_refused(ix2, generator):
    with pytest.raises(StructureError, match=f"filter generator {generator} is not an element"):
        Filter(ix2, generator)


def test_members_are_the_read_only_row_of_the_order(ix2):
    leq = ix2.order().matrix
    for s in range(ix2.n):
        f = Filter(ix2, s)
        assert np.array_equal(f.members, leq[s]) and not f.members.flags.writeable
        assert list(f) == np.flatnonzero(leq[s]).tolist() == list(iter_bits(up_mask(ix2, s)))
        assert len(f) == len(list(f)) and f.min_index == min(f)
        assert all((t in f) == leq[s, t] for t in range(ix2.n))
        assert hash(f) == hash(Filter(ix2, s)) and f != Filter(ix2, (s + 1) % ix2.n)


def test_filter_base_property_pairwise(ix2):
    # the definitional filter-base property, checked directly
    for f in all_filters(ix2):
        for s in f:
            for t in f:
                assert any(ix2.leq(z, s) and ix2.leq(z, t) for z in f)


# -- ultrafilters ---------------------------------------------------------------


def test_one_up_is_not_ultra(ix2):
    f = principal_filter(ix2, ix2.one)
    assert not f.is_ultrafilter()
    assert not f.is_ultrafilter_by_maximality()


def test_atom_filters_are_ultra(ix2):
    for a in ix2.atoms:
        f = principal_filter(ix2, a)
        assert f.is_ultrafilter()
        assert f.is_ultrafilter_by_maximality()


def test_improper_filter_is_not_ultra(ix2):
    f = Filter(ix2, ix2.zero)
    assert not f.is_proper
    assert not f.is_ultrafilter()


def test_two_routes_agree_everywhere(ix2):
    for f in all_filters(ix2):
        assert f.is_ultrafilter() == f.is_ultrafilter_by_maximality()


@pytest.mark.parametrize("factory,count", [
    (lambda: symmetric_inverse_monoid(2), 4),
    (lambda: symmetric_inverse_monoid(3), 9),
    (lambda: boolean_algebra_monoid(1), 1),
    (lambda: boolean_algebra_monoid(2), 2),
    (lambda: group_with_zero_monoid(3), 3),
])
def test_ultrafilter_counts(factory, count):
    monoid = factory()
    assert len(enumerate_ultrafilters(monoid)) == count


def test_enumeration_sorted_by_min_index(ix2):
    ultra = enumerate_ultrafilters(ix2)
    assert [f.min_index for f in ultra] == sorted(f.min_index for f in ultra)


def test_ultrafilter_ties_keep_the_bitmask_order():
    """On a relabelled table several ultrafilters can share a least member;
    the order among them is that of their member bitmasks."""
    ix3, ties = symmetric_inverse_monoid(3), 0
    for seed in (1, 2, 3):
        monoid = monoid_from_json(relabelled(monoid_to_json(ix3), seed))
        ultra = enumerate_ultrafilters(monoid)
        assert ultra == reference_ultrafilters(monoid)
        ties += len(ultra) - len({f.min_index for f in ultra})
    assert ties > 0


def test_enumeration_requires_boolean():
    with pytest.raises(NotBooleanError):
        enumerate_ultrafilters(brandt_monoid())


def test_every_nonzero_element_in_an_ultrafilter(ix2):
    ultra = enumerate_ultrafilters(ix2)
    for s in range(ix2.n):
        if s != ix2.zero:
            assert any(s in f for f in ultra)


def test_ultrafilter_intersection_is_principal(ix2):
    # the filters through a fixed nonzero element cut out exactly its up-set
    ultra = enumerate_ultrafilters(ix2)
    for a in range(ix2.n):
        if a == ix2.zero:
            continue
        masks = [mask_of(f) for f in ultra if a in f]
        acc = masks[0]
        for m in masks[1:]:
            acc &= m
        assert acc == up_mask(ix2, a)


# -- filter products ----------------------------------------------------------------


def test_product_with_principal_one(ix2):
    one_up = principal_filter(ix2, ix2.one)
    for f in all_filters(ix2):
        assert filter_product(f, one_up) == f
        assert filter_product(one_up, f) == f


def test_coset_equation_setwise(ix2):
    # F = F F^-1 F without any closure
    for f in all_filters(ix2):
        lhs = element_product_mask(f, f.inverse())
        mask = 0
        mul = ix2.mul
        for ab in iter_bits(lhs):
            for c in f:
                mask |= 1 << int(mul[ab, c])
        assert mask == mask_of(f)


def test_product_of_atom_filter_with_inverse(ix2):
    s = by_label(ix2, "{1->2}")
    f = principal_filter(ix2, s)
    assert filter_dom(f) == principal_filter(ix2, by_label(ix2, "{1->1}"))
    assert filter_ran(f) == principal_filter(ix2, by_label(ix2, "{2->2}"))


def test_triple_product_restores_filter(ix2):
    for f in all_filters(ix2):
        assert filter_product(filter_product(f, f.inverse()), f) == f


def test_product_is_smallest_filter(ix2):
    # upward closure of the product set is a filter and contains it; any
    # filter containing the product set contains the closure
    for a in all_filters(ix2):
        for b in all_filters(ix2):
            prod_set = element_product_mask(a, b)
            prod = mask_of(filter_product(a, b))
            assert prod_set & prod == prod_set
            for c in map(mask_of, all_filters(ix2)):
                if c & prod_set == prod_set:
                    assert c & prod == prod


def test_domain_is_inverse_submonoid(ix2):
    for f in all_filters(ix2):
        h = filter_dom(f)
        assert ix2.one in h
        for x in h:
            assert ix2.inv[x] in h
            for y in h:
                assert ix2.product(x, y) in h
        # f is recovered as the closure of a*H for any member a
        for a in f:
            mask = mask_of(ix2.product(a, x) for x in h)
            assert upward_closure(ix2, mask) == mask_of(f)


def test_idempotent_filter_iff_closed(ix2):
    for f in all_filters(ix2):
        closed = all(ix2.product(x, y) in f for x in f for y in f) and all(
            ix2.inv[x] in f for x in f)
        assert f.is_idempotent_filter == closed


def test_filters_with_common_point_and_domain_agree(ix2):
    filters = all_filters(ix2)
    for a in filters:
        for b in filters:
            if mask_of(a) & mask_of(b) and filter_dom(a) == filter_dom(b):
                assert a == b


# -- the filter semigroup --------------------------------------------------------


def test_filter_semigroup_is_inverse(ix2):
    filters = all_filters(ix2)
    for f in filters:
        candidates = [g for g in filters
                      if filter_product(filter_product(f, g), f) == f
                      and filter_product(filter_product(g, f), g) == g]
        assert candidates == [f.inverse()]


def test_filter_semigroup_idempotents(ix2):
    for f in all_filters(ix2):
        assert (filter_product(f, f) == f) == f.is_idempotent_filter


def test_filter_order_is_reverse_inclusion(ix2):
    # natural order in the filter semigroup: F <= G iff F = G * E for an
    # idempotent filter E, which must coincide with reverse inclusion
    filters = all_filters(ix2)
    idempotent = [e for e in filters if filter_product(e, e) == e]
    for f in filters:
        for g in filters:
            algebraic = any(filter_product(g, e) == f for e in idempotent)
            assert algebraic == (mask_of(g) & mask_of(f) == mask_of(g))


# -- prime property ----------------------------------------------------------------


def test_prime_property_for_ultrafilters(ix2):
    for f in enumerate_ultrafilters(ix2):
        assert prime_property_check(f)


def test_prime_property_fails_for_one_up(ix2):
    assert not prime_property_check(principal_filter(ix2, ix2.one))


def test_prime_property_vacuous_on_trivial_monoid():
    two = chain_monoid(2)
    assert prime_property_check(Filter(two, two.one))


# -- ultrafilter groupoid -------------------------------------------------------------


def test_groupoid_of_ix2_is_pair_groupoid_shaped(ix2):
    gs = ultrafilter_groupoid(ix2)
    assert len(gs) == 4
    assert len(gs.identities) == 2
    # composable pairs mirror 2x2 matrix units: 8 of them
    assert composable_pairs(gs) == 8


def test_groupoid_of_boolean_algebra_is_identities_only():
    gs = ultrafilter_groupoid(boolean_algebra_monoid(2))
    assert len(gs) == 2
    assert gs.identities == (0, 1)
    assert all(i == j for (i, j) in np.argwhere(gs.compose >= 0))


def test_groupoid_of_group_with_zero_is_the_group():
    gs = ultrafilter_groupoid(group_with_zero_monoid(3))
    assert len(gs) == 3
    assert len(gs.identities) == 1
    assert composable_pairs(gs) == 9  # all pairs composable: a group


def test_groupoid_equivalences_for_all_filters(ix2):
    # ultra <=> dom is an idempotent ultrafilter <=> E(dom) ultra in E
    for f in all_filters(ix2):
        d = filter_dom(f)
        first = f.is_ultrafilter()
        second = d.is_idempotent_filter and d.is_ultrafilter()
        third = bool(idempotent_part_ultra(ix2, [d.generator])[0])
        assert first == second == third


def test_groupoid_clifford_has_equal_dom_ran():
    gs = ultrafilter_groupoid(clifford_monoid())
    assert gs.d == gs.r
    assert len(gs) == 4
    assert len(gs.identities) == 2


def test_groupoid_json_shape(ix2):
    # the ultrafilter groupoid is a plain FiniteGroupoid, exported in the
    # groupoid format; it lists the composable pairs
    gs = ultrafilter_groupoid(ix2)
    assert isinstance(gs, FiniteGroupoid)
    assert composable_pairs(gs) == 8
    assert len(gs.ultrafilters) == 4
    data = groupoid_to_json(gs)
    assert data["m"] == 4 and len(data["compose"]) == 8
    assert all(len(row) == 3 for row in data["compose"])


def test_arrow_of_rejects_a_filter_that_is_not_an_arrow(ix2):
    with pytest.raises(StructureError):
        ultrafilter_groupoid(ix2).arrow_of(principal_filter(ix2, ix2.one))


# -- the atom groupoid against filter products -----------------------------------------
# ultrafilter_groupoid reads the groupoid off the atoms; this is where the
# filter products it stands for, the explicit product form and the
# completeness of the enumeration are checked against it.


@pytest.fixture(scope="module")
def corpus():
    return corpus_monoids() | {"ix4": symmetric_inverse_monoid(4)}


CROSS_CHECKED = ([(name, None) for name in corpus_monoids()] + [("ix4", None)]
                 + [(name, seed) for name in ("ix3", "clifford") for seed in (1, 2)])


@pytest.mark.parametrize("name, seed", CROSS_CHECKED)
def test_atom_groupoid_agrees_with_filter_products(corpus, name, seed):
    monoid = corpus[name]
    if seed is not None:
        monoid = monoid_from_json(relabelled(monoid_to_json(monoid), seed))
    sg = ultrafilter_groupoid(monoid)
    ultra, arrow = sg.ultrafilters, sg.arrow_of
    assert [arrow(filter_dom(f)) for f in ultra] == list(sg.d)
    assert [arrow(filter_ran(f)) for f in ultra] == list(sg.r)
    assert [arrow(f.inverse()) for f in ultra] == list(sg.inv)
    assert sg.identities == tuple(i for i, f in enumerate(ultra) if f.is_idempotent_filter)

    compose = np.full((len(ultra), len(ultra)), -1)
    for i, a in enumerate(ultra):
        for j, b in enumerate(ultra):
            prod = filter_product(a, b)
            if sg.d[i] != sg.r[j]:
                assert not prod.is_proper
                continue
            compose[i, j] = arrow(prod)
            # explicit form: A*B = up(x y dom(B)) for every x in A, y in B
            dom_b = list(ultra[sg.d[j]])
            for xy in iter_bits(element_product_mask(a, b)):
                formed = mask_of(monoid.product(xy, e) for e in dom_b)
                assert upward_closure(monoid, formed) == mask_of(prod)
    assert np.array_equal(compose, sg.compose)

    maximal = {mask_of(f) for f in all_filters(monoid) if f.is_ultrafilter_by_maximality()}
    assert {mask_of(f) for f in ultra} == maximal and len(ultra) == len(maximal)


@pytest.mark.parametrize("name, seed", CROSS_CHECKED + [("brandt", None), ("chain3", None)])
def test_batched_criteria_are_the_per_filter_loops(corpus, name, seed):
    """The array criteria over every filter, ultra or not, against the
    per-filter loops, and each Filter method as their one-row case."""
    monoid = (corpus | {"brandt": brandt_monoid(), "chain3": chain_monoid(3)})[name]
    if seed is not None:
        monoid = monoid_from_json(relabelled(monoid_to_json(monoid), seed))
    filters, every = all_filters(monoid), np.arange(monoid.n)
    for criterion, reference in ((ultra_by_meet, reference_ultra_by_meet),
                                 (ultra_by_maximality, reference_ultra_by_maximality),
                                 (idempotent_part_ultra, reference_idempotent_part_ultra),
                                 (contains_idempotent, reference_contains_idempotent)):
        assert criterion(monoid, every).tolist() == [reference(f) for f in filters]
    for f in filters:
        assert f.is_ultrafilter() == reference_ultra_by_meet(f)
        assert f.is_ultrafilter_by_maximality() == reference_ultra_by_maximality(f)
        assert f.is_idempotent_filter == reference_contains_idempotent(f)
    assert not all(reference_ultra_by_meet(f) for f in filters)


@pytest.mark.parametrize("name, seed", CROSS_CHECKED)
def test_dense_table_is_the_literal_filter_product(corpus, name, seed):
    """Every cell of filter_products against filter_product, and its set
    products and closures against the reference bit loops."""
    monoid = corpus[name]
    if seed is not None:
        monoid = monoid_from_json(relabelled(monoid_to_json(monoid), seed))
    sets, prod, inverse = filter_products(monoid)
    filters = all_filters(monoid)
    assert inverse.tolist() == [f.inverse().generator for f in filters]
    for i, a in enumerate(filters):
        for j, b in enumerate(filters):
            product = element_product_mask(a, b)
            assert mask_of(np.flatnonzero(sets[i, j]).tolist()) == product
            assert up_mask(monoid, prod[i, j]) == upward_closure(monoid, product)
            assert prod[i, j] == filter_product(a, b).generator


def test_a_set_without_a_least_member_has_no_filter_closure():
    """Two atoms have no least member, so least_members refuses them, and
    filter_products refuses a table in which 1 a = b for atoms a != b: the
    set product up(1) up(a) is then up(a) with a replaced by b."""
    monoid = symmetric_inverse_monoid(3)
    monoid.require_boolean()        # the order and certificate of the sound table
    a, b = monoid.atoms[:2]
    pair = np.zeros(monoid.n, dtype=bool)
    pair[[a, b]] = True
    with pytest.raises(StructureError, match="not the up-set of one of its members"):
        least_members(monoid, pair)
    assert least_members(monoid, monoid.order().matrix[[a, b]]).tolist() == [a, b]
    mul = monoid.mul.copy()
    mul[monoid.one, a] = b
    monoid.mul = mul
    with pytest.raises(StructureError, match="not the up-set of one of its members"):
        filter_products(monoid)


def test_atom_groupoid_of_ix4(corpus):
    sg = ultrafilter_groupoid(corpus["ix4"])
    assert (len(sg), len(sg.identities), composable_pairs(sg)) == (16, 4, 64)
