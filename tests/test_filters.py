"""Filter algebra, ultrafilter enumeration and the ultrafilter groupoid."""

import pytest
from helpers import corpus_monoids, relabelled

from stonework import (
    NotBooleanError,
    StructureError,
    boolean_algebra_monoid,
    brandt_monoid,
    clifford_monoid,
    group_with_zero_monoid,
    symmetric_inverse_monoid,
)
from stonework.filters import (
    Filter,
    all_filters,
    enumerate_ultrafilters,
    filter_dom,
    filter_product,
    filter_ran,
    prime_property_check,
    principal_filter,
    ultrafilter_groupoid,
)
from stonework.groupoids import FiniteGroupoid
from stonework.inverse_core import iter_bits, mask_of
from stonework.serialize import groupoid_to_json, monoid_from_json, monoid_to_json


@pytest.fixture(scope="module")
def ix2():
    return symmetric_inverse_monoid(2)


def by_label(monoid, label):
    return monoid.labels.index(label)


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
    with pytest.raises(StructureError):
        Filter(ix2, 0)
    e1 = by_label(ix2, "{1->1}")
    with pytest.raises(StructureError):
        Filter(ix2, 1 << e1)  # not upward closed (misses one)
    e2 = by_label(ix2, "{2->2}")
    undirected = ix2.up_mask(e1) | ix2.up_mask(e2)
    with pytest.raises(StructureError):
        Filter(ix2, undirected)  # e1, e2 have no common lower bound inside


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
    from stonework.filters import _principal

    f = _principal(ix2, ix2.zero)
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
        masks = [f.members for f in ultra if a in f]
        acc = masks[0]
        for m in masks[1:]:
            acc &= m
        assert acc == ix2.up_mask(a)


# -- filter products ----------------------------------------------------------------


def test_product_with_principal_one(ix2):
    one_up = principal_filter(ix2, ix2.one)
    for f in all_filters(ix2):
        assert filter_product(f, one_up) == f
        assert filter_product(one_up, f) == f


def test_coset_equation_setwise(ix2):
    # F = F F^-1 F without any closure
    for f in all_filters(ix2):
        lhs = f.element_product_mask(f.inverse())
        mask = 0
        mul = ix2.mul
        for ab in iter_bits(lhs):
            for c in f:
                mask |= 1 << int(mul[ab, c])
        assert mask == f.members


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
            prod_set = a.element_product_mask(b)
            prod = filter_product(a, b)
            assert prod_set & prod.members == prod_set
            for c in all_filters(ix2):
                if c.members & prod_set == prod_set:
                    assert c.members & prod.members == prod.members


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
            assert ix2.upward_closure(mask) == f.members


def test_idempotent_filter_iff_closed(ix2):
    for f in all_filters(ix2):
        closed = all(ix2.product(x, y) in f for x in f for y in f) and all(
            ix2.inv[x] in f for x in f)
        assert f.is_idempotent_filter == closed


def test_filters_with_common_point_and_domain_agree(ix2):
    filters = all_filters(ix2)
    for a in filters:
        for b in filters:
            if a.members & b.members and filter_dom(a) == filter_dom(b):
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
            assert algebraic == (g.members & f.members == g.members)


# -- prime property ----------------------------------------------------------------


def test_prime_property_for_ultrafilters(ix2):
    for f in enumerate_ultrafilters(ix2):
        assert prime_property_check(f)


def test_prime_property_fails_for_one_up(ix2):
    assert not prime_property_check(principal_filter(ix2, ix2.one))


def test_prime_property_vacuous_on_trivial_monoid():
    from stonework import chain_monoid
    from stonework.filters import _principal

    two = chain_monoid(2)
    assert prime_property_check(_principal(two, two.one))


# -- ultrafilter groupoid -------------------------------------------------------------


def test_groupoid_of_ix2_is_pair_groupoid_shaped(ix2):
    gs = ultrafilter_groupoid(ix2)
    assert len(gs) == 4
    assert len(gs.identities) == 2
    # composable pairs mirror 2x2 matrix units: 8 of them
    assert len(gs.compose) == 8


def test_groupoid_of_boolean_algebra_is_identities_only():
    gs = ultrafilter_groupoid(boolean_algebra_monoid(2))
    assert len(gs) == 2
    assert gs.identities == (0, 1)
    assert all(i == j for (i, j) in gs.compose)


def test_groupoid_of_group_with_zero_is_the_group():
    gs = ultrafilter_groupoid(group_with_zero_monoid(3))
    assert len(gs) == 3
    assert len(gs.identities) == 1
    assert len(gs.compose) == 9  # all pairs composable: a group


def test_groupoid_equivalences_for_all_filters(ix2):
    # ultra <=> dom is an idempotent ultrafilter <=> E(dom) ultra in E
    from stonework.filters import _idempotent_ultra_in_e

    for f in all_filters(ix2):
        d = filter_dom(f)
        first = f.is_ultrafilter()
        second = d.is_idempotent_filter and d.is_ultrafilter()
        third = _idempotent_ultra_in_e(ix2, d)
        assert first == second == third


def test_groupoid_clifford_has_equal_dom_ran():
    gs = ultrafilter_groupoid(clifford_monoid())
    assert gs.d == gs.r
    assert len(gs) == 4
    assert len(gs.identities) == 2


def test_groupoid_json_shape(ix2):
    # the ultrafilter groupoid is a plain FiniteGroupoid, exported in the
    # groupoid format; len(compose) counts the composable pairs
    gs = ultrafilter_groupoid(ix2)
    assert isinstance(gs, FiniteGroupoid)
    assert len(gs.compose) == 8
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

    compose = {}
    for i, a in enumerate(ultra):
        for j, b in enumerate(ultra):
            prod = filter_product(a, b)
            if sg.d[i] != sg.r[j]:
                assert not prod.is_proper
                continue
            compose[(i, j)] = arrow(prod)
            # explicit form: A*B = up(x y dom(B)) for every x in A, y in B
            dom_b = list(ultra[sg.d[j]])
            for xy in iter_bits(a.element_product_mask(b)):
                formed = mask_of(monoid.product(xy, e) for e in dom_b)
                assert monoid.upward_closure(formed) == prod.members
    assert compose == sg.compose

    maximal = {f.members for f in all_filters(monoid) if f.is_ultrafilter_by_maximality()}
    assert {f.members for f in ultra} == maximal and len(ultra) == len(maximal)


def test_atom_groupoid_of_ix4(corpus):
    sg = ultrafilter_groupoid(corpus["ix4"])
    assert (len(sg), len(sg.identities), len(sg.compose)) == (16, 4, 64)
