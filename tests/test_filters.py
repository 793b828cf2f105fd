"""Filter algebra, ultrafilter enumeration and the ultrafilter groupoid."""

import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from helpers import (
    corpus_monoids,
    element_product_mask,
    iter_bits,
    mask_of,
    reference_contains_idempotent,
    reference_filter_products,
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
    inverse_core,
    symmetric_inverse_monoid,
)
from stonework.filters import (
    contains_idempotent,
    enumerate_ultrafilters,
    filter_doms,
    filter_inverses,
    filter_of,
    filter_product,
    filter_products,
    filter_rans,
    idempotent_part_ultra,
    least_members,
    prime_property_holds,
    set_products,
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


def members(monoid, g):
    """The members of the filter up(g), ascending."""
    return np.flatnonzero(monoid.order().matrix[g]).tolist()


# -- filter basics -----------------------------------------------------------
# a filter is its generator g, and its members are row g of the order matrix


def test_principal_filter_at_one(ix2):
    assert members(ix2, ix2.one) == [ix2.one]


def test_principal_filter_members(ix2):
    e1 = by_label(ix2, "{1->1}")
    assert set(members(ix2, e1)) == {e1, ix2.one}


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
    assert filter_of(ix2, leq[e1]) == e1 and type(filter_of(ix2, leq[e1])) is int


def test_filter_of_takes_a_row_or_an_array_of_rows(ix2):
    leq = ix2.order().matrix
    assert filter_of(ix2, leq).tolist() == list(range(ix2.n))
    assert filter_of(ix2, leq[[3, 1]]).tolist() == [3, 1]
    assert filter_of(ix2, leq[:0]).tolist() == []
    e1, e2 = by_label(ix2, "{1->1}"), by_label(ix2, "{2->2}")
    with pytest.raises(StructureError, match="a filter cannot be empty"):
        filter_of(ix2, np.vstack([leq[e1], np.zeros(ix2.n, dtype=bool)]))
    with pytest.raises(StructureError, match="not the up-set of one of its members"):
        filter_of(ix2, np.vstack([leq[e1], leq[e1] | leq[e2]]))
    with pytest.raises(StructureError, match="not the up-set of one of its members"):
        filter_of(ix2, np.vstack([leq[e1], np.arange(ix2.n) == e1]))


@pytest.mark.parametrize("generator", [-1, 7, 8, 2 ** 63, 2 ** 64, -2 ** 63 - 1])
def test_a_generator_outside_the_carrier_is_refused(ix2, generator):
    # ix2 has 7 elements: -1 must not be read as the last one, nor 7 or 8 wrap,
    # nor an index past int64 overflow
    message = f"filter generator {generator} is outside 0..6"
    for a, b in ((generator, ix2.one), (ix2.one, generator), ([ix2.one, generator], ix2.one),
                 (ix2.one, [[ix2.one], [generator]])):
        with pytest.raises(StructureError, match=message):
            filter_product(ix2, a, b)
    with pytest.raises(StructureError, match=message):
        filter_inverses(ix2, [ix2.one, generator])
    sg = ultrafilter_groupoid(ix2)
    for generators in (generator, [sg.ultrafilters[0], generator]):
        with pytest.raises(StructureError, match=message):
            sg.arrow_at(generators)


def test_members_are_the_read_only_row_of_the_order(ix2):
    order = ix2.order()
    assert not order.matrix.flags.writeable
    for s in range(ix2.n):
        row = order.matrix[s]
        assert not row.flags.writeable
        assert members(ix2, s) == list(iter_bits(up_mask(ix2, s)))
        assert order.up_sizes[s] == len(members(ix2, s))
        assert filter_of(ix2, row) == s == least_members(ix2, row)
        assert all(row[t] == ix2.leq(s, t) for t in range(ix2.n))
        # distinct generators are distinct filters
        assert not np.array_equal(row, order.matrix[(s + 1) % ix2.n])


def test_filter_base_property_pairwise(ix2):
    # the definitional filter-base property, checked directly
    for f in range(ix2.n):
        up = members(ix2, f)
        for s in up:
            for t in up:
                assert any(ix2.leq(z, s) and ix2.leq(z, t) for z in up)


# -- ultrafilters ---------------------------------------------------------------


def test_one_up_is_not_ultra(ix2):
    assert not ultra_by_meet(ix2, [ix2.one])[0]
    assert not ultra_by_maximality(ix2, [ix2.one])[0]


def test_atom_filters_are_ultra(ix2):
    assert ultra_by_meet(ix2, list(ix2.atoms)).all()
    assert ultra_by_maximality(ix2, list(ix2.atoms)).all()


def test_improper_filter_is_not_ultra(ix2):
    # up(zero) is the whole carrier, the one improper filter
    assert members(ix2, ix2.zero) == list(range(ix2.n))
    assert not ultra_by_meet(ix2, [ix2.zero])[0]
    assert not ultra_by_maximality(ix2, [ix2.zero])[0]


def test_two_routes_agree_everywhere(ix2):
    every = np.arange(ix2.n)
    assert ultra_by_meet(ix2, every).tolist() == ultra_by_maximality(ix2, every).tolist()


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
    assert sorted(ultra.tolist()) == sorted(ix2.atoms)
    least = [min(members(ix2, g)) for g in ultra.tolist()]
    assert least == sorted(least)


def test_ultrafilter_ties_keep_the_bitmask_order():
    """On a relabelled table several ultrafilters can share a least member;
    the order among them is that of their member bitmasks."""
    ix3, ties = symmetric_inverse_monoid(3), 0
    for seed in (1, 2, 3):
        monoid = monoid_from_json(relabelled(monoid_to_json(ix3), seed))
        ultra = enumerate_ultrafilters(monoid).tolist()
        assert ultra == reference_ultrafilters(monoid)
        ties += len(ultra) - len({min(members(monoid, g)) for g in ultra})
    assert ties > 0


def test_enumeration_requires_boolean():
    with pytest.raises(NotBooleanError):
        enumerate_ultrafilters(brandt_monoid())


def test_every_nonzero_element_in_an_ultrafilter(ix2):
    ultra = enumerate_ultrafilters(ix2).tolist()
    for s in range(ix2.n):
        if s != ix2.zero:
            assert any(s in members(ix2, g) for g in ultra)


def test_ultrafilter_intersection_is_principal(ix2):
    # the filters through a fixed nonzero element cut out exactly its up-set
    ultra = enumerate_ultrafilters(ix2).tolist()
    for a in range(ix2.n):
        if a == ix2.zero:
            continue
        masks = [up_mask(ix2, g) for g in ultra if a in members(ix2, g)]
        acc = masks[0]
        for m in masks[1:]:
            acc &= m
        assert acc == up_mask(ix2, a)


# -- filter products ----------------------------------------------------------------


def inverse(monoid, g):
    """up(g)^-1 by its definition: the filter of the inverses of its members."""
    return filter_of(monoid, monoid.order().matrix[g][list(monoid.inv)])


def test_product_with_principal_one(ix2):
    for f in range(ix2.n):
        assert filter_product(ix2, f, ix2.one) == f
        assert filter_product(ix2, ix2.one, f) == f


def test_coset_equation_setwise(ix2):
    # F = F F^-1 F without any closure
    for f in range(ix2.n):
        lhs = element_product_mask(ix2, f, inverse(ix2, f))
        mask = 0
        mul = ix2.mul
        for ab in iter_bits(lhs):
            for c in members(ix2, f):
                mask |= 1 << int(mul[ab, c])
        assert mask == up_mask(ix2, f)


def test_product_of_atom_filter_with_inverse(ix2):
    s = by_label(ix2, "{1->2}")
    assert filter_doms(ix2, [s]).tolist() == [by_label(ix2, "{1->1}")]
    assert filter_rans(ix2, [s]).tolist() == [by_label(ix2, "{2->2}")]


def test_inverse_dom_and_ran_are_their_definitions(ix2):
    # each generator array function against its one-pair definition
    every = np.arange(ix2.n)
    inverses = [inverse(ix2, f) for f in every.tolist()]
    assert filter_inverses(ix2, every).tolist() == inverses
    assert filter_doms(ix2, every).tolist() == [
        filter_product(ix2, i, f) for f, i in enumerate(inverses)]
    assert filter_rans(ix2, every).tolist() == [
        filter_product(ix2, f, i) for f, i in enumerate(inverses)]
    assert filter_doms(ix2, []).tolist() == filter_rans(ix2, []).tolist() == []


def test_triple_product_restores_filter(ix2):
    for f in range(ix2.n):
        assert filter_product(ix2, filter_product(ix2, f, inverse(ix2, f)), f) == f


def test_product_is_smallest_filter(ix2):
    # upward closure of the product set is a filter and contains it; any
    # filter containing the product set contains the closure
    for a in range(ix2.n):
        for b in range(ix2.n):
            prod_set = element_product_mask(ix2, a, b)
            prod = up_mask(ix2, filter_product(ix2, a, b))
            assert prod_set & prod == prod_set
            for c in (up_mask(ix2, c) for c in range(ix2.n)):
                if c & prod_set == prod_set:
                    assert c & prod == prod


def test_domain_is_inverse_submonoid(ix2):
    for f, h in enumerate(filter_doms(ix2, np.arange(ix2.n)).tolist()):
        inside = members(ix2, h)
        assert ix2.one in inside
        for x in inside:
            assert ix2.inv[x] in inside
            for y in inside:
                assert ix2.product(x, y) in inside
        # f is recovered as the closure of a*H for any member a
        for a in members(ix2, f):
            mask = mask_of(ix2.product(a, x) for x in inside)
            assert upward_closure(ix2, mask) == up_mask(ix2, f)


def test_idempotent_filter_iff_closed(ix2):
    idempotent = contains_idempotent(ix2, np.arange(ix2.n))
    for f in range(ix2.n):
        up = members(ix2, f)
        closed = all(ix2.product(x, y) in up for x in up for y in up) and all(
            ix2.inv[x] in up for x in up)
        assert idempotent[f] == closed


def test_filters_with_common_point_and_domain_agree(ix2):
    dom = filter_doms(ix2, np.arange(ix2.n)).tolist()
    for a in range(ix2.n):
        for b in range(ix2.n):
            if up_mask(ix2, a) & up_mask(ix2, b) and dom[a] == dom[b]:
                assert a == b


# -- the filter semigroup --------------------------------------------------------


def test_filter_semigroup_is_inverse(ix2):
    def product(a, b):
        return filter_product(ix2, a, b)

    for f in range(ix2.n):
        candidates = [g for g in range(ix2.n)
                      if product(product(f, g), f) == f and product(product(g, f), g) == g]
        assert candidates == [inverse(ix2, f)]


def test_filter_semigroup_idempotents(ix2):
    idempotent = contains_idempotent(ix2, np.arange(ix2.n))
    for f in range(ix2.n):
        assert (filter_product(ix2, f, f) == f) == idempotent[f]


def test_filter_order_is_reverse_inclusion(ix2):
    # natural order in the filter semigroup: F <= G iff F = G * E for an
    # idempotent filter E, which must coincide with reverse inclusion
    idempotent = [e for e in range(ix2.n) if filter_product(ix2, e, e) == e]
    for f in range(ix2.n):
        for g in range(ix2.n):
            algebraic = any(filter_product(ix2, g, e) == f for e in idempotent)
            assert algebraic == (up_mask(ix2, g) & up_mask(ix2, f) == up_mask(ix2, g))


# -- prime property ----------------------------------------------------------------


def prime(monoid, generators):
    order = monoid.order()
    return prime_property_holds(order.matrix[generators], order.join)


def test_prime_property_for_ultrafilters(ix2):
    assert prime(ix2, enumerate_ultrafilters(ix2)).all()


def test_prime_property_fails_for_one_up(ix2):
    assert not prime(ix2, [ix2.one])[0]


def test_prime_property_vacuous_on_trivial_monoid():
    two = chain_monoid(2)
    assert prime(two, [two.one])[0]


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
    for f in range(ix2.n):
        d = [filter_product(ix2, inverse(ix2, f), f)]
        first = ultra_by_meet(ix2, [f])[0]
        second = contains_idempotent(ix2, d)[0] and ultra_by_meet(ix2, d)[0]
        third = idempotent_part_ultra(ix2, d)[0]
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


def test_arrow_at_rejects_a_filter_that_is_not_an_arrow(ix2):
    sg = ultrafilter_groupoid(ix2)
    for generators in (ix2.one, [sg.ultrafilters[0], ix2.one]):
        with pytest.raises(StructureError, match="is not an atom, so its filter is not an arrow"):
            sg.arrow_at(generators)
    assert sg.arrow_at(sg.ultrafilters).tolist() == list(range(sg.m))
    assert [sg.arrow_at(g) for g in sg.ultrafilters.tolist()] == list(range(sg.m))


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
    ultra, arrow = sg.ultrafilters.tolist(), sg.arrow_at
    inverses = [inverse(monoid, f) for f in ultra]
    assert [arrow(filter_product(monoid, i, f)) for f, i in zip(ultra, inverses)] == list(sg.d)
    assert [arrow(filter_product(monoid, f, i)) for f, i in zip(ultra, inverses)] == list(sg.r)
    assert [arrow(i) for i in inverses] == list(sg.inv)
    assert sg.identities == tuple(i for i, f in enumerate(ultra)
                                  if reference_contains_idempotent(monoid, f))

    compose = np.full((len(ultra), len(ultra)), -1)
    for i, a in enumerate(ultra):
        for j, b in enumerate(ultra):
            prod = filter_product(monoid, a, b)
            if sg.d[i] != sg.r[j]:
                assert prod == monoid.zero      # the improper filter
                continue
            compose[i, j] = arrow(prod)
            # explicit form: A*B = up(x y dom(B)) for every x in A, y in B
            dom_b = members(monoid, ultra[sg.d[j]])
            for xy in iter_bits(element_product_mask(monoid, a, b)):
                formed = mask_of(monoid.product(xy, e) for e in dom_b)
                assert upward_closure(monoid, formed) == up_mask(monoid, prod)
    assert np.array_equal(compose, sg.compose)

    maximal = {up_mask(monoid, f) for f in range(monoid.n)
               if reference_ultra_by_maximality(monoid, f)}
    assert {up_mask(monoid, f) for f in ultra} == maximal and len(ultra) == len(maximal)


@pytest.mark.parametrize("name, seed", CROSS_CHECKED + [("brandt", None), ("chain3", None)])
def test_batched_criteria_are_the_per_filter_loops(corpus, name, seed):
    """The array criteria over every filter, ultra or not, against the
    per-filter loops, and against their one-row case."""
    monoid = (corpus | {"brandt": brandt_monoid(), "chain3": chain_monoid(3)})[name]
    if seed is not None:
        monoid = monoid_from_json(relabelled(monoid_to_json(monoid), seed))
    every = np.arange(monoid.n)
    for criterion, reference in ((ultra_by_meet, reference_ultra_by_meet),
                                 (ultra_by_maximality, reference_ultra_by_maximality),
                                 (idempotent_part_ultra, reference_idempotent_part_ultra),
                                 (contains_idempotent, reference_contains_idempotent)):
        expected = [reference(monoid, f) for f in every.tolist()]
        assert criterion(monoid, every).tolist() == expected
        assert [criterion(monoid, [f])[0] for f in every.tolist()] == expected
    assert not all(reference_ultra_by_meet(monoid, f) for f in every.tolist())


def test_filter_product_takes_a_pair_or_arrays_of_pairs(ix2):
    """One pair gives an int; two arrays of generators, or an int and an
    array, give the products pair by pair in their broadcast shape."""
    every = np.arange(ix2.n)
    table = [[filter_product(ix2, a, b) for b in every.tolist()] for a in every.tolist()]
    assert type(filter_product(ix2, 1, 2)) is int
    assert filter_product(ix2, every[:, None], every).tolist() == table
    assert filter_product(ix2, 3, every.tolist()).tolist() == table[3]
    assert filter_product(ix2, [], []).tolist() == []


@pytest.mark.parametrize("name, seed", CROSS_CHECKED)
def test_dense_table_is_the_literal_filter_product(corpus, name, seed):
    """Every cell of filter_products against filter_product, and the set
    product of every pair (one set_products call) and its closure against
    the reference bit loops."""
    monoid = corpus[name]
    if seed is not None:
        monoid = monoid_from_json(relabelled(monoid_to_json(monoid), seed))
    prod, inverses = filter_products(monoid)
    assert inverses.tolist() == [inverse(monoid, f) for f in range(monoid.n)]
    # every pair by one batched call, and one pair at a time below ix4 (on its diagonal)
    lefts, rights = np.divmod(np.arange(monoid.n ** 2), monoid.n)
    assert filter_product(monoid, lefts, rights).tolist() == prod.ravel().tolist()
    leq = monoid.order().matrix
    sets = set_products(monoid, leq[lefts], leq[rights]).reshape(monoid.n, monoid.n, monoid.n)
    for i in range(monoid.n):
        for j in range(monoid.n):
            product = element_product_mask(monoid, i, j)
            assert mask_of(np.flatnonzero(sets[i, j]).tolist()) == product
            assert up_mask(monoid, prod[i, j]) == upward_closure(monoid, product)
            if monoid.n < 100 or i == j:
                assert prod[i, j] == filter_product(monoid, i, j)


def _tables_or_refusal(run):
    """The tables ``run`` returns, as lists, or the message of its StructureError."""
    try:
        return [table.tolist() for table in run()]
    except StructureError as error:
        return str(error)


@pytest.mark.parametrize("name, seed", CROSS_CHECKED)
def test_filter_products_are_those_of_the_cube(corpus, name, seed):
    """prod and inverse are those the n x n x n cube of every set product
    gives (reference_filter_products)."""
    monoid = corpus[name]
    if seed is not None:
        monoid = monoid_from_json(relabelled(monoid_to_json(monoid), seed))
    expected = _tables_or_refusal(lambda: reference_filter_products(monoid)[1:])
    assert _tables_or_refusal(lambda: filter_products(monoid)) == expected


def _tampered_for_products(monoid, rng):
    """The monoid (its order computed from the sound table) with one to three
    product cells replaced, or one to three order cells flipped, or an
    up-set emptied."""
    monoid.require_boolean()
    n, order = monoid.n, monoid.order()
    what = rng.choice(["product", "order", "empty"])
    if what == "product":
        monoid.mul = monoid.mul.copy()
        for _ in range(rng.randint(1, 3)):
            monoid.mul[rng.randrange(n), rng.randrange(n)] = rng.randrange(n)
        return monoid
    matrix = order.matrix.copy()
    if what == "empty":
        matrix[rng.randrange(n)] = False
    for _ in range(rng.randint(1, 3) if what == "order" else 0):
        s = rng.randrange(n)
        t = s if rng.random() < 0.3 else rng.randrange(n)
        matrix[s, t] = not matrix[s, t]
    monoid._order = replace(order, matrix=matrix)
    return monoid


@pytest.mark.parametrize("blocks", [None, 64, 1024])
def test_filter_products_match_the_cube_on_tampered_tables_and_orders(monkeypatch, blocks):
    """200 seeded tamperings, 100 of ix3 and 100 of ba4: filter_products
    gives the cube's prod and inverse, or its refusal, in one shot or with
    BLOCK_CELLS at 64 (rows in many blocks, an up-set over many chunks of
    one pair each) or 1024 (one row a block, its up-set in chunks of up to
    three pairs); both occur, and so do empty up-sets."""
    if blocks:
        monkeypatch.setattr(inverse_core, "BLOCK_CELLS", blocks)
    kinds, empty = set(), 0
    for name, make in (("ix3", lambda: symmetric_inverse_monoid(3)),
                       ("ba4", lambda: boolean_algebra_monoid(4))):
        rng = random.Random(name)
        for _ in range(100):
            monoid = _tampered_for_products(make(), rng)
            empty += not monoid.order().matrix.any(axis=1).all()
            expected = _tables_or_refusal(lambda: reference_filter_products(monoid)[1:])
            assert _tables_or_refusal(lambda: filter_products(monoid)) == expected
            kinds.add(type(expected))
    assert kinds == {str, list} and empty


def test_filter_products_of_ix4_allocate_no_cube():
    """filter_products(ix4) peaks at 1.21 MB under tracemalloc (numpy 2.4.6),
    where the n x n x n cube of its set products alone is 9.1 MB."""
    monoid = symmetric_inverse_monoid(4)
    monoid.require_boolean()
    tracemalloc.start()
    try:
        filter_products(monoid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 1024 * 1024, peak


def test_kept_filter_products_are_read_only():
    """Every caller is handed the same two arrays, so neither can be
    edited in place: an edit would change every later suite's products."""
    monoid = symmetric_inverse_monoid(2)
    tables = filter_products(monoid)
    assert filter_products(monoid) is tables and len(tables) == 2
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table.flat[0] = table.flat[0]


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
