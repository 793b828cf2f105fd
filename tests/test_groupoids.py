"""Groupoid structure, bisection enumeration, A(G), point filters, coverings."""

import itertools

import numpy as np
import pytest
from helpers import (
    first_groupoid_failure,
    iter_bits,
    mask_of,
    reference_lifting_failure,
    reference_star_bijective,
)

from stonework import (
    BoundError,
    StructureError,
    boolean_algebra_monoid,
    clifford_monoid,
    groupoids,
    symmetric_inverse_monoid,
)
from stonework.groupoids import (
    Bisection,
    CoveringFunctor,
    FiniteGroupoid,
    all_bisections_monoid,
    bisection_product,
    check_covering,
    disjoint_union,
    enumerate_bisections,
    fiber_clash,
    group_groupoid,
    groupoid_to_dot,
    identity_functor,
    pair_groupoid,
    point_ultrafilter,
    trivial_groupoid,
)
from stonework.duality import (
    pullback_morphism,
    round_trip_groupoid,
    round_trip_monoid,
    stone_groupoid,
)
from stonework.filters import enumerate_ultrafilters, ultrafilter_groupoid


@pytest.fixture(scope="module")
def pair2():
    return pair_groupoid(2)


@pytest.fixture(scope="module")
def bm_pair2(pair2):
    return all_bisections_monoid(pair2)


def arrow(g, i, j):
    return g.labels.index(f"({i},{j})")


def enumerate_bisections_by_subsets(groupoid):
    """Reference enumeration: filter every subset of the arrows."""
    out = []
    for mask in range(1 << groupoid.m):
        members = frozenset(iter_bits(mask))
        if fiber_clash(groupoid, members) is None:
            out.append(members)
    return out


def satisfies_algebraic_test(b):
    """The equivalent characterization of a bisection: A^-1 A and A A^-1
    land in the identities."""
    g = b.groupoid
    ids = set(g.identities)
    for x in b.members:
        for y in b.members:
            for s, t in ((g.inv[x], y), (x, g.inv[y])):
                k = g.compose_maybe(s, t)
                if k is not None and k not in ids:
                    return False
    return True


# -- groupoid construction ------------------------------------------------------


def test_pair_groupoid_shape(pair2):
    assert pair2.m == 4
    assert len(pair2.identities) == 2
    a12 = arrow(pair2, 1, 2)
    assert pair2.d[a12] == arrow(pair2, 2, 2)
    assert pair2.r[a12] == arrow(pair2, 1, 1)
    assert pair2.compose[(a12, arrow(pair2, 2, 1))] == arrow(pair2, 1, 1)


def test_group_groupoid_is_a_group():
    z3 = group_groupoid(3)
    assert z3.m == 3 and z3.identities == (0,)
    assert z3.compose[(1, 2)] == 0
    assert z3.inv[1] == 2


def test_disjoint_union_counts():
    g = disjoint_union(group_groupoid(2), group_groupoid(3))
    assert g.m == 5
    assert len(g.identities) == 2
    assert g.compose_maybe(0, 2) is None  # across components


def test_validation_rejects_missing_composite(pair2):
    compose = pair2.compose.copy()
    compose[arrow(pair2, 1, 2), arrow(pair2, 2, 1)] = -1
    with pytest.raises(StructureError):
        type(pair2)(pair2.d, pair2.r, pair2.inv, compose, pair2.identities)


def test_validation_rejects_bad_inverse(pair2):
    inv = list(pair2.inv)
    a, b = arrow(pair2, 1, 2), arrow(pair2, 1, 1)
    inv[a] = b
    with pytest.raises(StructureError):
        type(pair2)(pair2.d, pair2.r, inv, pair2.compose, pair2.identities)


@pytest.mark.parametrize("groupoid", [pair_groupoid(3),
                                      disjoint_union(group_groupoid(2), group_groupoid(3))],
                         ids=["pair3", "z2+z3"])
def test_cell_corruptions_fail_as_the_reference_validator_does(groupoid):
    # every cell of the table, set to each other arrow and to -1 (undefined)
    m, checked = groupoid.m, 0
    for (g, h), value in np.ndenumerate(groupoid.compose):
        for wrong in set(range(-1, m)) - {int(value)}:
            table = groupoid.compose.copy()
            table[g, h] = wrong
            pairs = {(x, y): int(k) for (x, y), k in np.ndenumerate(table) if k >= 0}
            expected = first_groupoid_failure(groupoid.d, groupoid.r, groupoid.inv, pairs,
                                              groupoid.identities)
            try:
                FiniteGroupoid(groupoid.d, groupoid.r, groupoid.inv, table, groupoid.identities)
                message = None
            except StructureError as err:
                message = str(err)
            assert message == expected, (g, h, wrong)
            checked += expected is not None
    assert checked > 0


def test_compose_must_be_a_square_integer_table(pair2):
    for table in (pair2.compose[:, :3], pair2.compose.astype(float), {(0, 0): 0}):
        with pytest.raises(StructureError, match="compose must be"):
            FiniteGroupoid(pair2.d, pair2.r, pair2.inv, table, pair2.identities)


def test_discrete_certificate(pair2):
    cert = pair2.discrete_certificate()
    assert cert["finite"] and cert["topology"] == "discrete"


# -- bisections -------------------------------------------------------------------


def test_bisection_rejects_double_domain(pair2):
    with pytest.raises(StructureError):
        Bisection(pair2, frozenset({arrow(pair2, 1, 1), arrow(pair2, 2, 1)}))


def test_bisection_tests_agree(pair2):
    for b in enumerate_bisections(pair2):
        assert satisfies_algebraic_test(b)
    # and the definitional filter catches exactly the same subsets
    for mask in range(1 << pair2.m):
        members = frozenset(iter_bits(mask))
        definitional = fiber_clash(pair2, members) is None
        if definitional:
            assert satisfies_algebraic_test(Bisection(pair2, members))


def test_bisection_product_single_pair(pair2):
    a = Bisection(pair2, frozenset({arrow(pair2, 1, 2)}))
    b = Bisection(pair2, frozenset({arrow(pair2, 2, 1)}))
    assert bisection_product(a, b).members == frozenset({arrow(pair2, 1, 1)})


def test_bisection_product_with_empty_and_domain(pair2, bm_pair2):
    empty = Bisection(pair2, frozenset())
    for b in bm_pair2.bisections:
        assert bisection_product(b, empty).members == frozenset()
        dom_image = bisection_product(b.inverse(), b)
        assert bisection_product(b, dom_image).members == b.members


def test_product_of_random_bisections_is_bisection(pair2):
    import random

    gen = random.Random(7)
    pool = enumerate_bisections(pair2)
    for _ in range(200):
        a, b = gen.choice(pool), gen.choice(pool)
        bisection_product(a, b)  # constructor re-validates


# -- the monoid of bisections --------------------------------------------------------


def test_two_enumeration_paths_agree():
    # the same bisections in the same order: the subsets ascend as bitmasks
    for g in [pair_groupoid(2), pair_groupoid(3), group_groupoid(2), trivial_groupoid(3),
              disjoint_union(group_groupoid(2), group_groupoid(3))]:
        fast = [b.members for b in enumerate_bisections(g)]
        slow = enumerate_bisections_by_subsets(g)
        assert fast == slow


def test_bisection_counts():
    assert len(enumerate_bisections(trivial_groupoid(1))) == 2
    assert len(enumerate_bisections(pair_groupoid(2))) == 7
    assert len(enumerate_bisections(group_groupoid(2))) == 3
    assert len(enumerate_bisections(pair_groupoid(3))) == 34


def test_bisection_bound():
    # the bound counts bisections (pair5 has 1,546), and the element cap
    # bounds it from above
    assert len(enumerate_bisections(pair_groupoid(5), bisection_bound=1546)) == 1546
    with pytest.raises(BoundError, match="capped at 1545$"):
        enumerate_bisections(pair_groupoid(5), bisection_bound=1545)
    with pytest.raises(BoundError, match="capped at 4096$"):
        enumerate_bisections(trivial_groupoid(13), bisection_bound=10**6)


def test_monoid_of_pair2_matches_symmetric_monoid(bm_pair2):
    s = bm_pair2.monoid
    ix2 = symmetric_inverse_monoid(2)
    assert s.n == ix2.n == 7
    assert s.is_boolean
    # orbit structure: same number of idempotents and atoms
    assert len(s.idempotents) == len(ix2.idempotents)
    assert len(s.atoms) == len(ix2.atoms)


def test_monoid_order_is_inclusion(bm_pair2):
    s = bm_pair2.monoid
    masks = [mask_of(b) for b in bm_pair2.bisections]
    for i in range(s.n):
        for j in range(s.n):
            assert s.leq(i, j) == (masks[i] & masks[j] == masks[i])


def test_monoid_meet_is_intersection_join_is_union(bm_pair2):
    s = bm_pair2.monoid
    masks = [mask_of(b) for b in bm_pair2.bisections]
    index = {mask: i for i, mask in enumerate(masks)}
    orthogonal = s.orthogonality()
    for i in range(s.n):
        for j in range(s.n):
            assert s.meet(i, j) == index.get(masks[i] & masks[j])
            if orthogonal[i, j]:
                assert s.join(i, j) == index.get(masks[i] | masks[j])


BISECTION_CASES = {
    "pair3": lambda: pair_groupoid(3),
    "z2+z3": lambda: disjoint_union(group_groupoid(2), group_groupoid(3)),
    "z4+z5+z7": lambda: disjoint_union(disjoint_union(group_groupoid(4), group_groupoid(5)),
                                       group_groupoid(7)),
    "ix3-dual": lambda: ultrafilter_groupoid(symmetric_inverse_monoid(3)),
    "clifford-dual": lambda: ultrafilter_groupoid(clifford_monoid()),
    "z100": lambda: group_groupoid(100),
}


@pytest.mark.parametrize("name", sorted(BISECTION_CASES))
def test_gathered_table_is_the_literal_bisection_product(monkeypatch, name):
    groupoid = BISECTION_CASES[name]()
    calls = {"bisection_product": 0, "fiber_clash": 0}

    def counted(func):
        def wrapper(*args):
            calls[func.__name__] += 1
            return func(*args)
        return wrapper

    for func in (bisection_product, fiber_clash):
        monkeypatch.setattr(groupoids, func.__name__, counted(func))
    bm = all_bisections_monoid(groupoid)
    # no literal product, and the one bisection test runs only at enumeration
    assert calls == {"bisection_product": 0, "fiber_clash": len(bm)}
    monkeypatch.undo()
    members = [b.members for b in bm.bisections]
    literal = [[members.index(bisection_product(a, b).members) for b in bm.bisections]
               for a in bm.bisections]
    assert bm.monoid.mul.tolist() == literal
    assert list(bm.monoid.inv) == [members.index(b.inverse().members) for b in bm.bisections]
    assert members[bm.monoid.zero] == frozenset()
    assert members[bm.monoid.one] == frozenset(groupoid.identities)


def test_more_bisections_than_the_cap_are_refused_by_their_count():
    # 2^16 bisections are past the cap
    with pytest.raises(BoundError, match="capped at 4096"):
        all_bisections_monoid(trivial_groupoid(16))


def pair_times_group(points, order):
    """The pair groupoid on the points times the cyclic group of the order:
    arrow (i, j, x), index (i * points + j) * order + x, from j to i."""
    i, j, x = np.unravel_index(np.arange(points * points * order), (points, points, order))
    idx = lambda i, j, x: (i * points + j) * order + x
    compose = np.full((len(i),) * 2, -1)
    for g, h in np.argwhere(j[:, None] == i[None, :]).tolist():
        compose[g, h] = idx(i[g], j[h], (x[g] + x[h]) % order)
    return FiniteGroupoid(idx(j, j, 0), idx(i, i, 0), idx(j, i, -x % order), compose,
                          [idx(e, e, 0) for e in range(points)])


COUNTED_GROUPOIDS = {
    "trivial3": lambda: trivial_groupoid(3),
    "pair3": lambda: pair_groupoid(3),
    "z2+z3": lambda: disjoint_union(group_groupoid(2), group_groupoid(3)),
    "pair2+z3": lambda: disjoint_union(pair_groupoid(2), group_groupoid(3)),
    "pair2xz2": lambda: pair_times_group(2, 2),
    "pair2xz3+z2": lambda: disjoint_union(pair_times_group(2, 3), group_groupoid(2)),
}


@pytest.mark.parametrize("name", sorted(COUNTED_GROUPOIDS))
def test_bisections_are_counted_before_they_are_enumerated(name):
    """With the bound set to the literal number of bisections the
    enumeration runs; one below it, the closed-form count refuses it."""
    groupoid = COUNTED_GROUPOIDS[name]()
    count = len(enumerate_bisections_by_subsets(groupoid))
    assert len(enumerate_bisections(groupoid, bisection_bound=count)) == count
    with pytest.raises(BoundError, match=f"capped at {count - 1}$"):
        enumerate_bisections(groupoid, bisection_bound=count - 1)


def test_the_empty_groupoid_and_its_dual_round_trip():
    empty = trivial_groupoid(0)
    bm = all_bisections_monoid(empty)
    assert (bm.monoid.n, bm.monoid.zero, bm.monoid.one) == (1, 0, 0)
    assert round_trip_groupoid(empty).size == 0
    ba0 = boolean_algebra_monoid(0)
    assert len(stone_groupoid(ba0)) == 0
    assert round_trip_monoid(ba0).forward == (0,)
    with pytest.raises(BoundError, match="non-negative"):
        trivial_groupoid(-1)


def test_pair5_and_ix5_round_trip_under_the_default_bound():
    # 25 arrows and 1,546 bisections on either side: inside MAX_ELEMENTS
    assert round_trip_groupoid(pair_groupoid(5)).size == 25
    assert round_trip_monoid(symmetric_inverse_monoid(5)).size == 1546


def test_group_bisection_monoid():
    bm = all_bisections_monoid(group_groupoid(2))
    assert bm.monoid.n == 3  # empty, {identity}, {flip}
    assert bm.monoid.is_boolean


# -- point ultrafilters -----------------------------------------------------------------


def test_point_filters_are_ultra_and_distinct(pair2, bm_pair2):
    filters = [point_ultrafilter(bm_pair2, g) for g in range(pair2.m)]
    assert len({mask_of(f) for f in filters}) == pair2.m
    for f in filters:
        assert f.is_ultrafilter()


def test_point_filter_of_identity_is_idempotent(pair2, bm_pair2):
    e = arrow(pair2, 1, 1)
    assert point_ultrafilter(bm_pair2, e).is_idempotent_filter


def test_point_filter_count_for_fixed_arrow(pair2, bm_pair2):
    g = arrow(pair2, 1, 2)
    f = point_ultrafilter(bm_pair2, g)
    expected = sum(1 for b in bm_pair2.bisections if g in b.members)
    assert len(f) == expected == 2


def test_point_filter_dom_and_products(pair2, bm_pair2):
    from stonework.filters import filter_dom, filter_product

    for g in range(pair2.m):
        fg = point_ultrafilter(bm_pair2, g)
        assert filter_dom(fg) == point_ultrafilter(bm_pair2, pair2.d[g])
        for h in range(pair2.m):
            gh = pair2.compose_maybe(g, h)
            if gh is not None:
                fh = point_ultrafilter(bm_pair2, h)
                assert filter_product(fg, fh) == point_ultrafilter(bm_pair2, gh)


def test_every_ultrafilter_is_a_point_filter(pair2, bm_pair2):
    points = {mask_of(point_ultrafilter(bm_pair2, g)) for g in range(pair2.m)}
    enumerated = {mask_of(f) for f in enumerate_ultrafilters(bm_pair2.monoid)}
    assert points == enumerated


# -- covering functors --------------------------------------------------------------------


def test_identity_functor_is_covering(pair2):
    assert check_covering(identity_functor(pair2)).ok


def test_collapse_fails_star_injectivity(pair2):
    collapse = CoveringFunctor(pair2, trivial_groupoid(1), (0, 0, 0, 0))
    report = check_covering(collapse)
    assert not report.ok
    assert report.witness[0] == "star-injectivity"


def test_zero_map_on_group_fails_injectivity():
    z2 = group_groupoid(2)
    report = check_covering(CoveringFunctor(z2, trivial_groupoid(1), (0, 0)))
    assert not report.ok
    assert report.witness[0] == "star-injectivity"


def test_group_identity_hom_is_covering():
    z2 = group_groupoid(2)
    assert check_covering(CoveringFunctor(z2, z2, (0, 1))).ok


def test_inclusion_of_component_is_covering():
    z2, z3 = group_groupoid(2), group_groupoid(3)
    union = disjoint_union(z2, z3)
    incl = CoveringFunctor(z2, union, (0, 1))
    assert check_covering(incl).ok


@pytest.mark.parametrize("source, target", [
    ("pair2", "pair2"), ("pair2", "trivial1"), ("trivial2", "pair2"), ("pair2", "z2"),
    ("z2", "z2+z3"), ("z2+z3", "z2"), ("z2+z3", "z2+z3"), ("z2+z2", "z2+z3"),
    ("pair2+z2", "pair2"), ("trivial2", "z2+z3")])
def test_star_bijectivity_decides_covering(source, target):
    """check_covering decides star bijectivity alone, because it implies the
    lifting of factorizations.  On every arrow map that is a functor between
    the two groupoids, its verdict equals star bijectivity plus the lifting
    property checked directly."""
    stock = {"pair2": pair_groupoid(2), "trivial1": trivial_groupoid(1),
             "trivial2": trivial_groupoid(2), "z2": group_groupoid(2),
             "z2+z3": disjoint_union(group_groupoid(2), group_groupoid(3)),
             "z2+z2": disjoint_union(group_groupoid(2), group_groupoid(2)),
             "pair2+z2": disjoint_union(pair_groupoid(2), group_groupoid(2))}
    src, tgt = stock[source], stock[target]
    functors = []
    for arrow_map in itertools.product(range(tgt.m), repeat=src.m):
        try:
            functors.append(CoveringFunctor(src, tgt, arrow_map))
        except StructureError:
            pass
    verdicts = [(check_covering(f).ok, reference_star_bijective(f),
                 reference_lifting_failure(f) is None) for f in functors]
    assert functors
    assert [ok for ok, *_ in verdicts] == [star and lifts for _, star, lifts in verdicts]
    assert all(lifts for _, star, lifts in verdicts if star)


def test_functor_validation_rejects_non_functor(pair2):
    swapped = list(range(pair2.m))
    a12, a21 = arrow(pair2, 1, 2), arrow(pair2, 2, 1)
    swapped[a12], swapped[a21] = a21, a12  # breaks dom/ran preservation
    with pytest.raises(StructureError):
        CoveringFunctor(pair2, pair2, tuple(swapped))


# -- pullbacks ---------------------------------------------------------------------------


def test_pullback_of_identity_is_identity(pair2, bm_pair2):
    pb = pullback_morphism(identity_functor(pair2), bm_pair2, bm_pair2)
    assert pb.mapping == tuple(range(len(bm_pair2)))


def test_pullback_preserves_zero_and_one(pair2, bm_pair2):
    pb = pullback_morphism(identity_functor(pair2), bm_pair2, bm_pair2)
    assert pb.mapping[pb.source.zero] == pb.target.zero
    assert pb.mapping[pb.source.one] == pb.target.one


def test_pullback_along_component_inclusion():
    z2, z3 = group_groupoid(2), group_groupoid(3)
    union = disjoint_union(z2, z3)
    incl = CoveringFunctor(z2, union, (0, 1))
    bm_union, bm_z2 = all_bisections_monoid(union), all_bisections_monoid(z2)
    pb = pullback_morphism(incl, bm_z2, bm_union)
    # restriction to the left component: surjective onto A(Z/2)
    assert set(pb.mapping) == set(range(bm_z2.monoid.n))


def test_pullback_refuses_non_covering(pair2, bm_pair2):
    collapse = CoveringFunctor(pair2, trivial_groupoid(1), (0, 0, 0, 0))
    bm_triv = all_bisections_monoid(trivial_groupoid(1))
    with pytest.raises(StructureError):
        pullback_morphism(collapse, bm_pair2, bm_triv)


# -- rendering -----------------------------------------------------------------------------


def test_dot_output(pair2):
    dot = groupoid_to_dot(pair2)
    assert dot.startswith("digraph")
    assert "doublecircle" in dot
    assert '"(1,2)"' in dot
