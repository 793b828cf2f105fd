"""Groupoid structure, bisection enumeration, A(G), point filters, coverings."""

import itertools
import math
import re
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from helpers import (
    first_groupoid_failure,
    iter_bits,
    mask_of,
    object_form_groupoids,
    reference_bisection_product,
    reference_bisections,
    reference_functor_failure,
    reference_lifting_failure,
    reference_pullback_preimages,
    reference_star_bijective,
)

from stonework import (
    MAX_ELEMENTS,
    BoundError,
    StructureError,
    boolean_algebra_monoid,
    clifford_monoid,
    groupoids,
    symmetric_inverse_monoid,
)
from stonework.groupoids import (
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
    trivial_groupoid,
)
from stonework.duality import (
    point_ultrafilter,
    pullback_morphism,
    round_trip_groupoid,
    round_trip_monoid,
    stone_groupoid,
)
from stonework.filters import (
    contains_idempotent,
    enumerate_ultrafilters,
    filter_doms,
    filter_of,
    filter_product,
    ultra_by_meet,
    ultrafilter_groupoid,
)
from stonework.cli import main
from stonework.inverse_core import _partial_bijection_count
from stonework.serialize import groupoid_to_json, save_entry


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


def row_of(groupoid, members):
    """The membership row of the given arrows."""
    row = np.zeros(groupoid.m, dtype=bool)
    row[list(members)] = True
    return row


def satisfies_algebraic_test(g, members):
    """The equivalent characterization of a bisection: A^-1 A and A A^-1
    land in the identities."""
    ids = set(g.identities)
    for x in members:
        for y in members:
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


IMPLIED = ("composite (", "inverse not involutive at ")     # left to Light's test


def assert_fails_as_the_reference(d, r, inv, table, identities):
    """The validator refuses exactly what the full reference refuses.  Its
    message is the one the reference reaches without the checks that
    Light's test decides, except at associativity, where Light's test names
    a failing triple, not the first one: (a b) c != a (b c), undefined read
    as absorbing.  Returns the full reference's message and the validator's."""
    pairs = {(x, y): int(k) for (x, y), k in np.ndenumerate(table) if k >= 0}
    expected = first_groupoid_failure(d, r, inv, pairs, identities)
    reached = first_groupoid_failure(d, r, inv, pairs, identities, implied=False)
    try:
        FiniteGroupoid(d, r, inv, table, identities)
        message = None
    except StructureError as err:
        message = str(err)
    assert (message is None) == (expected is None), (expected, message)
    assert reached == expected or expected.startswith(IMPLIED), (expected, reached)
    if reached is None or not reached.startswith("associativity fails at"):
        assert message == reached, (reached, message)
        return expected, message
    named = re.fullmatch(r"associativity fails at \((\d+), (\d+), (\d+)\)", message or "")
    assert named, (reached, message)
    a, b, c = map(int, named.groups())
    padded = np.pad(table, (0, 1), constant_values=-1)      # index -1 reads -1
    assert max(a, b, c) < len(d) and padded[padded[a, b], c] != padded[a, padded[b, c]]
    return expected, message


@pytest.mark.parametrize("groupoid, earlier, associativity, implied", [
    (pair_groupoid(3), 681, 48, 216),
    (disjoint_union(group_groupoid(2), group_groupoid(3)), 117, 8, 30),
    (disjoint_union(disjoint_union(group_groupoid(4), group_groupoid(5)), group_groupoid(7)),
     3376, 720, 908),
], ids=["pair3", "z2+z3", "z4+z5+z7"])
def test_cell_corruptions_fail_as_the_reference_validator_does(groupoid, earlier, associativity,
                                                               implied):
    """Every cell of the table, set to each other arrow and to -1 (undefined),
    fails as :func:`assert_fails_as_the_reference` says: ``earlier`` times
    before associativity and ``associativity`` times at it, ``implied`` of
    them where the full reference refuses at a check left to Light's test."""
    m, counts = groupoid.m, [0, 0, 0]
    for (g, h), value in np.ndenumerate(groupoid.compose):
        for wrong in set(range(-1, m)) - {int(value)}:
            table = groupoid.compose.copy()
            table[g, h] = wrong
            expected, message = assert_fails_as_the_reference(
                groupoid.d, groupoid.r, groupoid.inv, table, groupoid.identities)
            counts[message.startswith("associativity fails at")] += 1
            counts[2] += expected.startswith(IMPLIED)
    assert counts == [earlier, associativity, implied]


SMALL_GROUPOIDS = {
    "pair2": lambda: pair_groupoid(2), "pair3": lambda: pair_groupoid(3),
    "z4": lambda: group_groupoid(4), "trivial3": lambda: trivial_groupoid(3),
    "z2+z3": lambda: disjoint_union(group_groupoid(2), group_groupoid(3)),
    "pair2+z2": lambda: disjoint_union(pair_groupoid(2), group_groupoid(2)),
}


@pytest.mark.parametrize("name", ["pair3", "z2+z3"])
def test_every_inverse_corruption_fails_as_the_reference_validator_does(name):
    """Every entry of inv set to each other arrow: without its involution
    check the validator still refuses each such inverse, at the reference's
    check or by Light's test."""
    groupoid = SMALL_GROUPOIDS[name]()
    implied = 0
    for g, wrong in itertools.product(range(groupoid.m), repeat=2):
        if wrong != groupoid.inv[g]:
            inv = [*groupoid.inv[:g], wrong, *groupoid.inv[g + 1:]]
            expected, message = assert_fails_as_the_reference(
                groupoid.d, groupoid.r, inv, groupoid.compose, groupoid.identities)
            assert message is not None
            implied += expected.startswith(IMPLIED)
    assert implied > 0


def test_seeded_corruptions_fail_as_the_reference_validator_does():
    """6,000 tables of six small groupoids, each with one to three entries
    of compose (-1 included), inv, d or r set to a seeded value: the
    validator accepts exactly the 606 that the full reference accepts, and
    1,111 are refused first at a check that Light's test now decides."""
    rng = np.random.default_rng(40)
    counts = {"accepted": 0, "implied": 0, "refused": 0}
    for make in SMALL_GROUPOIDS.values():
        groupoid = make()
        m = groupoid.m
        for _ in range(1000):
            fields = {"d": list(groupoid.d), "r": list(groupoid.r), "inv": list(groupoid.inv)}
            table = groupoid.compose.copy()
            for _ in range(rng.integers(1, 4)):
                where = ["compose", "d", "r", "inv"][rng.integers(4)]
                if where == "compose":
                    table[tuple(rng.integers(m, size=2))] = rng.integers(-1, m)
                else:
                    fields[where][rng.integers(m)] = int(rng.integers(m))
            expected, _ = assert_fails_as_the_reference(fields["d"], fields["r"], fields["inv"],
                                                        table, groupoid.identities)
            counts["accepted" if expected is None else
                   "implied" if expected.startswith(IMPLIED) else "refused"] += 1
    assert counts == {"accepted": 606, "implied": 1111, "refused": 4283}


def test_large_groupoids_validate_at_the_cost_of_a_few_tries():
    """An associativity scan of each arrow in turn is m^3 cells: minutes on
    these.  Light's test tries one arrow of z2000 and about 2(p - 1) of pair32."""
    start = time.perf_counter()
    assert (len(group_groupoid(2000)), len(pair_groupoid(32))) == (2000, 1024)
    assert time.perf_counter() - start < 20


def test_pair32_validates_within_28_mib():
    """Validation builds no m x m int64 array: pair_groupoid(32), 1,024
    arrows, peaks at about 21 MiB under tracemalloc, its int16 table and
    Light's test; an int64 table and a composite dom/ran check took 41 MiB."""
    pair_groupoid(2)
    tracemalloc.start()
    try:
        pair_groupoid(32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 28 * 2 ** 20


def test_a_one_cell_change_in_z2000_is_rejected_at_a_failing_triple():
    z2000 = group_groupoid(2000)
    table = z2000.compose.copy()
    table[1, 1] = 3         # not 2; 1 is not its own inverse, so only associativity fails
    with pytest.raises(StructureError, match=r"^associativity fails at \(\d+, \d+, \d+\)$") as err:
        FiniteGroupoid(z2000.d, z2000.r, z2000.inv, table, z2000.identities)
    a, b, c = map(int, re.findall(r"\d+", str(err.value)))
    assert table[table[a, b], c] != table[a, table[b, c]]


def test_compose_must_be_a_square_integer_table(pair2):
    with pytest.raises(StructureError, match="^compose must be an 4 x 4 table of arrows$"):
        FiniteGroupoid(pair2.d, pair2.r, pair2.inv, pair2.compose[:, :3], pair2.identities)
    for table, entry in ((pair2.compose.astype(float), "0.0"), ({(0, 0): 0}, "{(0, 0): 0}")):
        message = f"compose has a non-integer entry {entry}"
        with pytest.raises(StructureError, match=f"^{re.escape(message)}$"):
            FiniteGroupoid(pair2.d, pair2.r, pair2.inv, table, pair2.identities)


def test_a_compose_entry_past_int64_is_out_of_range_not_wrapped(pair2, tmp_path, capsys):
    """Entries are range-checked as given, before the table is narrowed.  A
    uint64 table narrowed to int64 first would read 2^64 - 1 as -1,
    undefined, which is right in every cell that holds it here.  Narrowed to
    int16 first, 2^16 + e would read as e, the right product e e for the
    identity e, and 2^15 + e as a negative entry: in a dense int32 or int64
    table, and in a stored [e, e, k] triple (exit 2), each is refused."""
    table = np.where(pair2.compose < 0, 2 ** 64 - 1, pair2.compose).astype(np.uint64)
    with pytest.raises(StructureError, match=f"^compose {2 ** 64 - 1} is outside -1..3$"):
        FiniteGroupoid(pair2.d, pair2.r, pair2.inv, table, pair2.identities)
    e, payload = pair2.identities[-1], groupoid_to_json(pair2)
    for entry in (2 ** 15 + e, 2 ** 16 + e):
        for dtype in (np.int32, np.int64):
            table = pair2.compose.astype(dtype)
            table[e, e] = entry
            with pytest.raises(StructureError, match=f"^compose {entry} is outside -1..3$"):
                FiniteGroupoid(pair2.d, pair2.r, pair2.inv, table, pair2.identities)
        triples = [[g, h, entry if g == h == e else k] for g, h, k in payload["compose"]]
        assert triples != payload["compose"]
        save_entry(tmp_path, "wide", "groupoid", {**payload, "compose": triples})
        assert main(["check", "wide", "--store", str(tmp_path)]) == 2
        assert capsys.readouterr() == ("", f"error: compose {entry} is outside 0..3\n")


def test_a_ragged_compose_list_is_refused():
    with pytest.raises(StructureError, match="^compose rows are ragged$"):
        FiniteGroupoid([0, 1], [0, 1], [0, 1], [[0, -1], [-1]], [0, 1])


def test_a_bool_in_a_compose_list_is_refused():
    """numpy reads True as 1, which here would be the right arrow."""
    FiniteGroupoid([0, 1], [0, 1], [0, 1], [[0, -1], [-1, 1]], [0, 1])
    with pytest.raises(StructureError, match="^compose has a non-integer entry True$"):
        FiniteGroupoid([0, 1], [0, 1], [0, 1], [[0, -1], [-1, True]], [0, 1])


def test_discrete_certificate(pair2):
    cert = pair2.discrete_certificate()
    assert cert["finite"] and cert["topology"] == "discrete"


# -- bisections -------------------------------------------------------------------


def test_bisection_rejects_double_domain(pair2, bm_pair2):
    members = [arrow(pair2, 1, 1), arrow(pair2, 2, 1)]
    assert fiber_clash(pair2, members) == ("domain-fiber", *sorted(members))
    with pytest.raises(StructureError, match="not a bisection"):
        bm_pair2.indices_of([row_of(pair2, members)])


def test_bisection_tests_agree(pair2):
    for row in enumerate_bisections(pair2):
        assert satisfies_algebraic_test(pair2, np.flatnonzero(row).tolist())
    # and the definitional filter catches exactly the same subsets
    for mask in range(1 << pair2.m):
        members = frozenset(iter_bits(mask))
        definitional = fiber_clash(pair2, members) is None
        if definitional:
            assert satisfies_algebraic_test(pair2, members)


def test_bisection_product_single_pair(pair2):
    a = row_of(pair2, [arrow(pair2, 1, 2)])
    b = row_of(pair2, [arrow(pair2, 2, 1)])
    assert np.flatnonzero(bisection_product(pair2, a, b)).tolist() == [arrow(pair2, 1, 1)]


def test_bisection_product_with_empty_and_domain(pair2, bm_pair2):
    empty = row_of(pair2, [])
    for b in bm_pair2.rows:
        assert not bisection_product(pair2, b, empty).any()
        dom_image = bisection_product(pair2, b[list(pair2.inv)], b)    # b^-1 b
        assert np.array_equal(bisection_product(pair2, b, dom_image), b)


@pytest.mark.parametrize("make_a", [lambda: [True], lambda: np.array([1, 0, 0, 1])],
                         ids=["short-list", "ints"])
def test_bisection_product_refuses_a_row_that_is_not_boolean_of_m_arrows(pair2, make_a):
    """[True] would read as arrow 0, and the ints 1, 0, 0, 1 as the arrows
    1, 0, 0, 1; each is refused, with the full row on either side."""
    full = np.ones(pair2.m, dtype=bool)
    for a, b in ((make_a(), full), (full, make_a())):
        with pytest.raises(StructureError, match="^membership rows must be boolean, of 4 arrows$"):
            bisection_product(pair2, a, b)


@pytest.mark.parametrize("rows", [[[2, 0, 0, 0]], [[0.5, 0, 0, 0]], [["x", 0, 0, 0]],
                                  [True, False, False, False]],
                         ids=["int", "float", "string", "one-axis"])
def test_indices_of_refuses_rows_that_are_not_boolean_of_m_arrows(bm_pair2, rows):
    """Cast to bool, each of the first three would read as {(1,1)}, the row
    [True, False, False, False]; a (k, m) array of bools is needed."""
    with pytest.raises(StructureError, match="^membership rows must be boolean, of 4 arrows$"):
        bm_pair2.indices_of(rows)
    assert bm_pair2.indices_of([np.array([True, False, False, False])]) == [1]


def test_product_of_random_bisections_is_bisection(pair2):
    import random

    gen = random.Random(7)
    pool = enumerate_bisections(pair2)
    for _ in range(200):
        a, b = pool[gen.randrange(len(pool))], pool[gen.randrange(len(pool))]
        product = bisection_product(pair2, a, b)
        assert fiber_clash(pair2, np.flatnonzero(product).tolist()) is None


# -- the monoid of bisections --------------------------------------------------------


def test_two_enumeration_paths_agree():
    # the same bisections in the same order: the subsets ascend as bitmasks
    for g in [pair_groupoid(2), pair_groupoid(3), group_groupoid(2), trivial_groupoid(3),
              disjoint_union(group_groupoid(2), group_groupoid(3))]:
        fast = [frozenset(np.flatnonzero(row).tolist()) for row in enumerate_bisections(g)]
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
    masks = [mask_of(np.flatnonzero(row)) for row in bm_pair2.rows]
    for i in range(s.n):
        for j in range(s.n):
            assert s.leq(i, j) == (masks[i] & masks[j] == masks[i])


def test_monoid_meet_is_intersection_join_is_union(bm_pair2):
    s = bm_pair2.monoid
    masks = [mask_of(np.flatnonzero(row)) for row in bm_pair2.rows]
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
    # no literal product, and no literal bisection test: the rows are
    # bisections by construction
    assert calls == {"bisection_product": 0, "fiber_clash": 0}
    monkeypatch.undo()
    index = {row.tobytes(): i for i, row in enumerate(bm.rows)}
    literal = [[index[bisection_product(groupoid, a, b).tobytes()] for b in bm.rows]
               for a in bm.rows]
    assert bm.monoid.mul.tolist() == literal
    assert list(bm.monoid.inv) == [index[row[list(groupoid.inv)].tobytes()] for row in bm.rows]
    assert np.flatnonzero(bm.rows[bm.monoid.zero]).tolist() == []
    assert np.flatnonzero(bm.rows[bm.monoid.one]).tolist() == list(groupoid.identities)


OBJECT_FORM_CASES = object_form_groupoids()


@pytest.mark.parametrize("name", list(OBJECT_FORM_CASES))
def test_membership_rows_match_the_object_form(name):
    """The rows, the table, the labels, the codes, the point filters and the
    pullback along the identity are those of the Bisection objects: the
    enumeration order, the literal product and inverse, and the preimages."""
    groupoid = OBJECT_FORM_CASES[name]()
    reference = reference_bisections(groupoid)
    bm = all_bisections_monoid(groupoid)
    rows = enumerate_bisections(groupoid)
    radices = [len(groupoid.star(e)) + 1 for e in groupoid.identities]
    weight = {e: math.prod(radices[:p]) for p, e in enumerate(groupoid.identities)}
    code = lambda b: sum((groupoid.star(groupoid.d[a]).index(a) + 1) * weight[groupoid.d[a]]
                         for a in b)
    assert len(bm.by_code) == math.prod(radices)
    assert not rows.flags.writeable and len(rows) == len(reference)
    assert rows.tolist() == bm.rows.tolist() == [b.row().tolist() for b in reference]

    members = [b.members for b in reference]
    assert bm.monoid.mul.tolist() == [[members.index(reference_bisection_product(a, b).members)
                                       for b in reference] for a in reference]
    assert list(bm.monoid.inv) == [members.index(b.inverse().members) for b in reference]
    assert (members[bm.monoid.zero], members[bm.monoid.one]) == (
        frozenset(), frozenset(groupoid.identities))
    assert list(bm.monoid.labels) == [
        "{" + ",".join(groupoid.label(a) for a in b) + "}" for b in reference]
    assert np.flatnonzero(bm.by_code >= 0).tolist() == sorted(map(code, reference))
    assert [bm.by_code[code(b)] for b in reference] == list(range(len(reference)))

    through = [np.array([g in b.members for b in reference]) for g in range(groupoid.m)]
    points = [filter_of(bm.monoid, column) for column in through]
    assert [point_ultrafilter(bm, g) for g in range(groupoid.m)] == points
    assert point_ultrafilter(bm, np.arange(groupoid.m)).tolist() == points
    preimages = reference_pullback_preimages(identity_functor(groupoid), reference)
    assert pullback_morphism(identity_functor(groupoid)).mapping == tuple(
        members.index(b.members) for b in preimages)


@pytest.mark.parametrize("left, right", [(group_groupoid(2), group_groupoid(3)),
                                         (pair_groupoid(2), group_groupoid(3))],
                         ids=["z2+z3", "pair2+z3"])
def test_pullbacks_match_the_object_form(left, right):
    """Along a component inclusion and along the fold of two copies."""
    union, twice = disjoint_union(left, right), disjoint_union(left, left)
    for f in (CoveringFunctor(left, union, tuple(range(left.m))),
              CoveringFunctor(twice, left, tuple(range(left.m)) * 2)):
        source, target = reference_bisections(f.source), reference_bisections(f.target)
        members = [b.members for b in source]
        mapping = pullback_morphism(f).mapping
        assert mapping == tuple(members.index(b.members)
                                for b in reference_pullback_preimages(f, target))


def test_indices_of_refuses_a_row_whose_code_aliases_a_bisection():
    """In Z/3 every arrow has the one domain, so arrows 0, 1 and 2 are the
    digits 1, 2 and 3 of radix 4, and the code of {0, 1} is 1 + 2, the code
    of {2}; the fiber test refuses it first."""
    z3 = group_groupoid(3)
    bm = all_bisections_monoid(z3)
    alias, two = row_of(z3, [0, 1]), row_of(z3, [2])
    codes, size = groupoids._arrow_codes(z3)
    assert (codes.tolist(), size) == ([1, 2, 3, 0], 4)
    assert codes[[0, 1]].sum() == codes[2] and bm.by_code[codes[2]] == bm.indices_of([two])[0]
    with pytest.raises(StructureError, match="not a bisection"):
        bm.indices_of([alias])


def permuted(groupoid, seed):
    """The groupoid with its arrows renumbered by a seeded shuffle, arrow a
    becoming sigma[a], and ``was``: new arrow b was arrow was[b]."""
    sigma = np.random.default_rng(seed).permutation(groupoid.m)
    was = np.argsort(sigma)
    table = groupoid.compose[np.ix_(was, was)]
    return FiniteGroupoid(*(sigma[np.take(x, was)] for x in (groupoid.d, groupoid.r,
                                                             groupoid.inv)),
                          np.where(table >= 0, sigma[table], -1),
                          sigma[list(groupoid.identities)],
                          groupoid.labels and [groupoid.labels[a] for a in was.tolist()]), was


RELABELLED_CASES = {
    "pair3": lambda: pair_groupoid(3),
    "pair2+z3": OBJECT_FORM_CASES["pair2+z3"],
    "z4+z5+z7": OBJECT_FORM_CASES["z4+z5+z7"],
    "ix3-dual": OBJECT_FORM_CASES["ix3-dual"],
}


@pytest.mark.parametrize("name", list(RELABELLED_CASES))
def test_codes_under_relabelled_arrows_give_the_object_form(name):
    """A digit is a rank in a star, which depends on the arrow order.  Under
    50 seeded renumberings the monoid is still the object form's: its product
    and inverse, carried over the renumbering, are the literal ones of the
    original arrows, and indices_of finds every reference row."""
    original = RELABELLED_CASES[name]()
    reference = reference_bisections(original)
    at = {b.members: i for i, b in enumerate(reference)}
    mul = np.array([[at[reference_bisection_product(a, b).members] for b in reference]
                    for a in reference])
    inv = np.array([at[b.inverse().members] for b in reference])
    for seed in range(50):
        groupoid, was = permuted(original, seed)
        relabelled = reference_bisections(groupoid)
        bm = all_bisections_monoid(groupoid)
        assert bm.rows.tolist() == [b.row().tolist() for b in relabelled]
        p = np.array([at[frozenset(was[list(b.members)].tolist())] for b in relabelled])
        assert np.array_equal(p[bm.monoid.mul], mul[np.ix_(p, p)])
        assert np.array_equal(p[list(bm.monoid.inv)], inv[p])
        assert (relabelled[bm.monoid.zero].members, relabelled[bm.monoid.one].members) == (
            frozenset(), frozenset(groupoid.identities))
        assert bm.indices_of([b.row() for b in relabelled]) == list(range(len(relabelled)))


def test_codes_stay_below_the_code_space_bound():
    """Among groupoids with at most MAX_ELEMENTS bisections, the most codes,
    prod(|star(e)| + 1), is 15,625.  A component of k objects with isotropy
    of order g has sum_j C(k, j)^2 j! g^j bisections and (kg + 1)^k codes;
    a one-object component has g + 1 of both, so one-object components fill
    what the others leave of the bound.  The maximum is pair4 beside the pair
    groupoid on two objects times Z/2, and every stock groupoid's code count
    is its product of radices."""
    components = [(_partial_bijection_count(k, MAX_ELEMENTS, g), (k * g + 1) ** k)
                  for k in range(2, 7) for g in range(1, MAX_ELEMENTS)
                  if _partial_bijection_count(k, MAX_ELEMENTS, g) <= MAX_ELEMENTS]

    def most(budget, start):       # components from ``start`` on, at most ``budget`` bisections
        return max([budget] + [codes * most(budget // count, i)
                               for i, (count, codes) in enumerate(components[start:], start)
                               if count <= budget])

    assert most(MAX_ELEMENTS, 0) == 15_625
    widest = disjoint_union(pair_groupoid(4), pair_times_group(2, 2))
    assert len(enumerate_bisections(widest)) == 209 * 17 == 3_553
    assert groupoids._arrow_codes(widest)[1] == 15_625
    for make in OBJECT_FORM_CASES.values():
        groupoid = make()
        assert groupoids._arrow_codes(groupoid)[1] == math.prod(
            len(groupoid.star(e)) + 1 for e in groupoid.identities)


def test_no_object_form_of_a_bisection_in_src():
    # a bisection is its membership row: no Bisection class, frozenset of
    # arrows or per-object basic open set may return
    pattern = re.compile(r"\bBisection\b|\bbasic_open\b|\.bisections\b")
    root = Path(__file__).parents[1] / "src" / "stonework"
    hits = [f"{path.name}:{number}" for path in sorted(root.rglob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if pattern.search(line) or ("frozenset" in line and path.name in
                                        ("groupoids.py", "duality.py"))]
    assert hits == []


def test_the_bisection_monoid_of_trivial11_peaks_under_64_mib():
    """trivial11's 2,048 bisections have a table of 4 M cells: 16 MiB of
    int32 product codes, looked up into 8 MiB of int16 entries.  Building
    the monoid peaks at most at 64 MiB under tracemalloc (48.3 MiB measured);
    an n x n int64 array of codes beside the gathers would exceed it."""
    groupoid = trivial_groupoid(11)
    tracemalloc.start()
    try:
        bm = all_bisections_monoid(groupoid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bm.monoid.mul.nbytes == 8 << 20 and peak <= 64 << 20


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


def point_members(bm, g):
    """The members of the point filter through g, as a bitmask."""
    return mask_of(np.flatnonzero(bm.monoid.order().matrix[point_ultrafilter(bm, g)]))


def test_point_filters_are_ultra_and_distinct(pair2, bm_pair2):
    filters = point_ultrafilter(bm_pair2, np.arange(pair2.m))
    assert len({point_members(bm_pair2, g) for g in range(pair2.m)}) == pair2.m
    assert ultra_by_meet(bm_pair2.monoid, filters).all()


def test_point_filter_of_identity_is_idempotent(pair2, bm_pair2):
    e = arrow(pair2, 1, 1)
    assert contains_idempotent(bm_pair2.monoid, [point_ultrafilter(bm_pair2, e)])[0]


def test_point_filter_count_for_fixed_arrow(pair2, bm_pair2):
    g = arrow(pair2, 1, 2)
    f = point_ultrafilter(bm_pair2, g)
    expected = int(np.count_nonzero(bm_pair2.rows[:, g]))
    assert bm_pair2.monoid.order().up_sizes[f] == expected == 2


def test_point_filter_dom_and_products(pair2, bm_pair2):
    monoid = bm_pair2.monoid
    for g in range(pair2.m):
        fg = point_ultrafilter(bm_pair2, g)
        assert filter_doms(monoid, [fg]).tolist() == [point_ultrafilter(bm_pair2, pair2.d[g])]
        for h in range(pair2.m):
            gh = pair2.compose_maybe(g, h)
            if gh is not None:
                fh = point_ultrafilter(bm_pair2, h)
                assert filter_product(monoid, fg, fh) == point_ultrafilter(bm_pair2, gh)


@pytest.mark.parametrize("g", [-1, 4])
def test_point_filter_refuses_an_arrow_outside_the_groupoid(pair2, bm_pair2, g):
    # pair2 has 4 arrows: -1 must not be read as the last one, nor 4 wrap
    assert pair2.m == 4
    for arrows in (g, [0, g]):
        with pytest.raises(StructureError, match=f"arrow {g} is outside 0..3"):
            point_ultrafilter(bm_pair2, arrows)


def test_every_ultrafilter_is_a_point_filter(pair2, bm_pair2):
    points = {point_members(bm_pair2, g) for g in range(pair2.m)}
    enumerated = {mask_of(np.flatnonzero(bm_pair2.monoid.order().matrix[f]))
                  for f in enumerate_ultrafilters(bm_pair2.monoid)}
    assert points == enumerated


# -- covering functors --------------------------------------------------------------------


def test_identity_functor_is_covering(pair2):
    assert check_covering(identity_functor(pair2)).ok


def test_collapse_fails_star_injectivity(pair2):
    collapse = CoveringFunctor(pair2, trivial_groupoid(1), (0, 0, 0, 0))
    report = check_covering(collapse)
    assert not report.ok
    assert report.get("covering").failures[0][0] == "star-injectivity"


def test_zero_map_on_group_fails_injectivity():
    z2 = group_groupoid(2)
    report = check_covering(CoveringFunctor(z2, trivial_groupoid(1), (0, 0)))
    assert not report.ok
    assert report.get("covering").failures[0][0] == "star-injectivity"


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


def test_every_arrow_map_is_a_functor_exactly_when_the_reference_says_so():
    """All 60,132 arrow maps between seven small groupoids: CoveringFunctor
    checks composition only, and accepts exactly the maps that the reference,
    which also checks identities and dom/ran first, accepts; it refuses the
    others at the reference's first composition failure."""
    groupoids = {**{name: SMALL_GROUPOIDS[name]() for name in ("pair2", "pair2+z2")},
                 "z2": group_groupoid(2), "z3": group_groupoid(3),
                 "trivial1": trivial_groupoid(1), "trivial2": trivial_groupoid(2),
                 "z2+z2": disjoint_union(group_groupoid(2), group_groupoid(2))}
    counts = {"maps": 0, "functors": 0, "implied": 0}
    for src, tgt in itertools.product(groupoids.values(), repeat=2):
        for arrow_map in itertools.product(range(tgt.m), repeat=src.m):
            expected = reference_functor_failure(src, tgt, arrow_map)
            try:
                CoveringFunctor(src, tgt, arrow_map)
                message = None
            except StructureError as err:
                message = str(err)
            assert (message is None) == (expected is None), (arrow_map, expected)
            assert message == reference_functor_failure(src, tgt, arrow_map, implied=False)
            counts["maps"] += 1
            counts["functors"] += message is None
            counts["implied"] += bool(expected) and not expected.startswith("composition")
    assert counts == {"maps": 60132, "functors": 194, "implied": 59844}


def test_functor_validation_names_the_identity_arrow(pair2):
    """The identity (2,2) is arrow 3 and the second identity: the message
    names the arrow.  Sent to (1,2), it fails composition first at
    (1,2)(2,2) = (1,2), whose image (1,2)(1,2) is undefined."""
    e = arrow(pair2, 2, 2)
    assert pair2.identities.index(e) != e
    mapping = list(range(pair2.m))
    mapping[e] = arrow(pair2, 1, 2)
    g = arrow(pair2, 1, 2)
    with pytest.raises(StructureError, match=f"^composition not preserved at \\({g}, {e}\\)$"):
        CoveringFunctor(pair2, pair2, tuple(mapping))


# -- pullbacks ---------------------------------------------------------------------------


def test_pullback_of_identity_is_identity(pair2, bm_pair2):
    pb = pullback_morphism(identity_functor(pair2))
    assert pb.mapping == tuple(range(len(bm_pair2)))


def test_pullback_preserves_zero_and_one(pair2):
    pb = pullback_morphism(identity_functor(pair2))
    assert pb.mapping[pb.source.zero] == pb.target.zero
    assert pb.mapping[pb.source.one] == pb.target.one


def test_pullback_along_component_inclusion():
    z2, z3 = group_groupoid(2), group_groupoid(3)
    union = disjoint_union(z2, z3)
    incl = CoveringFunctor(z2, union, (0, 1))
    bm_z2 = all_bisections_monoid(z2)
    pb = pullback_morphism(incl)
    # restriction to the left component: surjective onto A(Z/2)
    assert set(pb.mapping) == set(range(bm_z2.monoid.n))


def test_pullback_refuses_non_covering(pair2):
    collapse = CoveringFunctor(pair2, trivial_groupoid(1), (0, 0, 0, 0))
    with pytest.raises(StructureError):
        pullback_morphism(collapse)


# -- rendering -----------------------------------------------------------------------------


DOT_STRING = re.compile(r'"((?:[^"\\]|\\.)*)"')     # a quoted DOT string, escapes kept


def test_dot_labels_are_escaped():
    """Quotes and backslashes in labels stay inside their quoted strings:
    with each string emptied, the rendering is that of empty labels, one
    statement per identity and per other arrow, and each string, unescaped,
    is its label."""
    pair3 = pair_groupoid(3)
    hostile = ['a"]; evil [shape=box', "ends in \\", '\\"', 'x\\"; y', "two\nlines", "plain"]
    labels = [hostile[g % len(hostile)] for g in range(pair3.m)]
    as_labelled = lambda labels: FiniteGroupoid(pair3.d, pair3.r, pair3.inv, pair3.compose,
                                                pair3.identities, labels)
    dot = groupoid_to_dot(as_labelled(labels))
    assert DOT_STRING.sub('""', dot) == groupoid_to_dot(as_labelled([""] * pair3.m))
    order = [*pair3.identities, *(g for g in range(pair3.m) if g not in pair3.identities)]
    assert [re.sub(r"\\(.)", r"\1", text, flags=re.S) for text in DOT_STRING.findall(dot)] == [
        labels[g] for g in order]


def test_dot_output(pair2):
    dot = groupoid_to_dot(pair2)
    assert dot.startswith("digraph")
    assert "doublecircle" in dot
    assert '"(1,2)"' in dot
