"""Morphism axioms, basic-open laws, functors on morphisms, round trips."""

import re
from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    corpus_monoids,
    diagonal_embedding,
    idempotent_embedding_ba2_into_ix2,
    projection_first,
    restriction_ba2_to_ba1,
    symmetric_to_pair_arrow_map,
)
from stonework import (
    MorphismError,
    StructureError,
    duality,
    boolean_algebra_monoid,
    clifford_monoid,
    group_with_zero_monoid,
    symmetric_inverse_monoid,
)
from stonework.duality import (
    MonoidMorphism,
    basic_open,
    clifford_check,
    functor_on_morphism,
    identity_morphism,
    pullback_morphism,
    round_trip_groupoid,
    round_trip_monoid,
    stone_groupoid,
    union_bisection_probe,
    verify_basic_open_laws,
    weak_morphism_pullback,
)
from stonework.groupoids import (
    CoveringFunctor,
    all_bisections_monoid,
    check_covering,
    disjoint_union,
    group_groupoid,
    pair_groupoid,
    trivial_groupoid,
)


@pytest.fixture(scope="module")
def ix2():
    return symmetric_inverse_monoid(2)


@pytest.fixture(scope="module")
def sg_ix2(ix2):
    return stone_groupoid(ix2)


def by_label(monoid, label):
    return monoid.labels.index(label)


# -- morphism validation -------------------------------------------------------


def test_identity_morphism_valid(ix2):
    theta = identity_morphism(ix2)
    assert theta.mapping == tuple(range(ix2.n))


def test_projection_and_diagonal_are_morphisms():
    c, z = clifford_monoid(), group_with_zero_monoid(2)
    projection_first(c, z)
    diagonal_embedding(z, c)


def test_restriction_of_boolean_algebras_is_morphism():
    restriction_ba2_to_ba1(boolean_algebra_monoid(2), boolean_algebra_monoid(1))


def test_weak_embedding_fails_m3(ix2):
    ba2 = boolean_algebra_monoid(2)
    weak = idempotent_embedding_ba2_into_ix2(ba2, ix2)
    with pytest.raises(MorphismError) as err:
        weak.validate(weak=False)
    assert err.value.stage == "M3"


def test_non_homomorphism_rejected(ix2):
    mapping = list(range(ix2.n))
    a, b = by_label(ix2, "{1->2}"), by_label(ix2, "{2->1}")
    mapping[a], mapping[b] = b, a
    with pytest.raises(MorphismError):
        MonoidMorphism(ix2, ix2, tuple(mapping))


def corrupted_bounds(monoid, bound, landing_on, now):
    """A fresh copy of a boolean monoid whose bounds (``meet`` or ``join``)
    that land on ``landing_on`` now say ``now`` (-1: absent)."""
    copy = monoid.restrict(range(monoid.n))
    copy.require_boolean()
    order = copy.order()
    table = getattr(order, bound).copy()
    table[table == landing_on] = now
    copy._order = replace(order, **{bound: table})
    return copy


def first_moved_bound(source, target, f):
    """M1/M2 as per-pair loops: the first idempotent pair whose meet or join
    f moves, then the first pair whose meet it moves."""
    for e in source.idempotents:
        for g in source.idempotents:
            for bound in ("meet", "join"):
                if f[getattr(source, bound)(e, g)] != getattr(target, bound)(f[e], f[g]):
                    return "M1", (bound, e, g)
    for a in range(source.n):
        for b in range(source.n):
            if f[source.meet(a, b)] != target.meet(f[a], f[b]):
                return "M2", (a, b)
    return None


@pytest.mark.parametrize("name", ["ix2", "ix3", "clifford"])
@pytest.mark.parametrize("bound, now", [("meet", 0), ("meet", -1), ("join", 0), ("join", -1)])
def test_gathered_bound_checks_give_the_loops_first_witness(name, bound, now):
    """MonoidMorphism M1/M2 and the round trip's meet-and-order law, run as
    gathers, report the first failure of the per-pair loops."""
    monoid = corpus_monoids()[name]
    moved = []
    for landing_on in (*monoid.atoms, monoid.one):
        target = corrupted_bounds(monoid, bound, landing_on, monoid.zero if now == 0 else now)
        try:
            MonoidMorphism(monoid, target, tuple(range(monoid.n)), weak=True)
            witness = None
        except MorphismError as err:
            witness = err.stage, err.witness
        assert witness == first_moved_bound(monoid, target, range(monoid.n))
        moved.append(witness)
    assert any(moved)

    source = corrupted_bounds(monoid, "meet", monoid.atoms[-1], monoid.zero)
    sg = stone_groupoid(monoid)
    dual = all_bisections_monoid(sg).monoid
    forward = round_trip_monoid(monoid, sg).forward
    s, t = next((s, t) for s in range(monoid.n) for t in range(monoid.n)
                if forward[source.meet(s, t)] != dual.meet(forward[s], forward[t]))
    with pytest.raises(StructureError, match=re.escape(f"does not preserve meets at ({s}, {t})")):
        round_trip_monoid(source, sg)


# -- basic open sets ----------------------------------------------------------------


def test_basic_open_at_zero_and_atom(ix2, sg_ix2):
    assert basic_open(ix2.zero, sg_ix2).members == frozenset()
    for a in ix2.atoms:
        k = basic_open(a, sg_ix2)
        assert len(k) == 1
        (i,) = k.members
        assert sg_ix2.ultrafilters[i].generator == a


def test_basic_open_at_one_is_identities(ix2, sg_ix2):
    k = basic_open(ix2.one, sg_ix2)
    assert k.members == frozenset(sg_ix2.identities)
    assert len(k) == 2


def test_basic_open_laws_all_pass(ix2):
    report = verify_basic_open_laws(ix2)
    assert report.ok
    assert report.failure_count == 0
    names = {r.name for r in report.results}
    assert "union-bisection-iff-join" in names
    assert "surjective-on-bisections" in names


def test_basic_open_laws_on_trivial_monoid():
    report = verify_basic_open_laws(boolean_algebra_monoid(1))
    assert report.ok


def test_an_absent_meet_fails_meet_is_intersection(ix2, sg_ix2):
    """A meet cell forced to -1 is a failure at that cell, whichever element
    the absent meet would have indexed: the last element's own meets are
    among the cells forced."""
    for landing_on in (*ix2.atoms, ix2.n - 1):
        source = corrupted_bounds(ix2, "meet", landing_on, -1)
        law = verify_basic_open_laws(source, sg_ix2).get("meet-is-intersection")
        absent = [tuple(cell) for cell in np.argwhere(source.order().meet < 0).tolist()]
        assert absent and law.failures == absent, landing_on
        assert law.instances == ix2.n ** 2


def test_union_probe_negative(ix2, sg_ix2):
    s, t = by_label(ix2, "{1->1}"), by_label(ix2, "{1->2}")
    assert ix2.join(s, t) is None
    flag, witness = union_bisection_probe(sg_ix2, s, t)
    assert not flag
    kind, a, b = witness
    assert kind == "domain-fiber"
    assert sg_ix2.d[a] == sg_ix2.d[b]


def test_union_probe_positive(ix2, sg_ix2):
    s, t = by_label(ix2, "{1->1}"), by_label(ix2, "{2->2}")
    flag, witness = union_bisection_probe(sg_ix2, s, t)
    assert flag and witness is None


@pytest.mark.parametrize("factory, clashes", [
    (lambda: symmetric_inverse_monoid(3), {"domain-fiber", "range-fiber"}),
    (lambda: boolean_algebra_monoid(3), set()),
], ids=["ix3", "ba3"])
def test_union_probe_agrees_with_the_union_law(factory, clashes, monkeypatch):
    """The law and union_bisection_probe share one fiber-clash scan.  With
    every join forced absent the law fails exactly where the probe finds a
    bisection; with every join forced present it fails exactly where the
    probe finds a clash, carrying the probe's witness."""
    monoid = factory()
    sg = stone_groupoid(monoid)
    pairs = [(s, t) for s in range(monoid.n) for t in range(monoid.n)]
    probe = {pair: union_bisection_probe(sg, *pair) for pair in pairs}
    assert all(flag == (monoid.join(*pair) is not None) for pair, (flag, _) in probe.items())
    assert {witness[0] for flag, witness in probe.values() if not flag} == clashes

    order = monoid.order()
    monkeypatch.setattr(monoid, "_order", replace(order, join=np.full_like(order.join, -1)))
    law = verify_basic_open_laws(monoid, sg).get("union-bisection-iff-join")
    assert law.instances == len(pairs)
    assert law.failures == [(*pair, None) for pair in pairs if probe[pair][0]]

    monkeypatch.setattr(monoid, "_order",
                        replace(order, join=np.full_like(order.join, monoid.zero)))
    law = verify_basic_open_laws(monoid, sg).get("union-bisection-iff-join")
    assert law.failures == [(*pair, probe[pair][1]) for pair in pairs if not probe[pair][0]]


def test_product_law_checks_each_product_is_a_bisection(ix2, sg_ix2, monkeypatch):
    """The gathered products meet each domain fiber once by construction;
    that they meet each range fiber at most once is still checked, with the
    error a Bisection built from the product gives."""
    real = duality.image_products
    e0, e1 = sg_ix2.identities
    swap = next(g for g in range(sg_ix2.m) if (sg_ix2.d[g], sg_ix2.r[g]) == (e1, e0))

    def doubled(groupoid, bisections):
        images, products = real(groupoid, bisections)
        products = products.copy()
        products[ix2.one, ix2.one, 1] = swap        # K(1)K(1) = {e0, swap}: one range twice
        return images, products

    monkeypatch.setattr(duality, "image_products", doubled)
    with pytest.raises(StructureError, match="^subset is not a bisection$"):
        verify_basic_open_laws(ix2, sg_ix2)


# -- functors on morphisms --------------------------------------------------------------


def test_functor_on_identity_is_identity(ix2, sg_ix2):
    functor = functor_on_morphism(identity_morphism(ix2), sg_ix2, sg_ix2)
    assert functor.arrow_map == tuple(range(len(sg_ix2)))


def test_functor_on_boolean_restriction_embeds_spectra():
    ba2, ba1 = boolean_algebra_monoid(2), boolean_algebra_monoid(1)
    theta = restriction_ba2_to_ba1(ba2, ba1)
    functor = functor_on_morphism(theta)
    # classical finite duality: the one point of spec(ba1) lands on the
    # first-atom point of spec(ba2), injectively
    assert len(functor.arrow_map) == 1
    assert len(set(functor.arrow_map)) == 1
    assert check_covering(functor).ok


def test_contravariance_of_ultrafilter_functor():
    c, z = clifford_monoid(), group_with_zero_monoid(2)
    delta = diagonal_embedding(z, c)   # z -> c
    pi = projection_first(c, z)        # c -> z
    sg_c, sg_z = stone_groupoid(c), stone_groupoid(z)
    composite = delta.then(pi)         # z -> z (the identity)
    lhs = functor_on_morphism(composite, sg_z, sg_z)
    g_pi = functor_on_morphism(pi, sg_c, sg_z)
    g_delta = functor_on_morphism(delta, sg_z, sg_c)
    rhs = g_pi.then(g_delta)
    assert lhs.arrow_map == rhs.arrow_map


def test_contravariance_of_bisection_functor():
    z2 = group_groupoid(2)
    both = disjoint_union(z2, z2)
    incl = CoveringFunctor(z2, both, (0, 1))
    fold = CoveringFunctor(both, z2, (0, 1, 0, 1))
    bm_z2, bm_both = all_bisections_monoid(z2), all_bisections_monoid(both)
    a_incl = pullback_morphism(incl, bm_z2, bm_both)       # A(both) -> A(z2)
    a_fold = pullback_morphism(fold, bm_both, bm_z2)       # A(z2) -> A(both)
    composite = pullback_morphism(incl.then(fold), bm_z2, bm_z2)
    assert composite.mapping == a_fold.then(a_incl).mapping


def test_naturality_square():
    c, z = clifford_monoid(), group_with_zero_monoid(2)
    theta = projection_first(c, z)
    sg_c, sg_z = stone_groupoid(c), stone_groupoid(z)
    functor = functor_on_morphism(theta, sg_c, sg_z)       # G(z) -> G(c)
    bm_c = all_bisections_monoid(sg_c)
    bm_z = all_bisections_monoid(sg_z)
    transported = pullback_morphism(functor, bm_z, bm_c)   # A(G(c)) -> A(G(z))
    fwd_c = round_trip_monoid(c).forward
    fwd_z = round_trip_monoid(z).forward
    for s in range(c.n):
        assert transported.mapping[fwd_c[s]] == fwd_z[theta(s)]


# -- round trips -------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(corpus_monoids()))
def test_round_trip_every_corpus_monoid(name):
    monoid = corpus_monoids()[name]
    cert = round_trip_monoid(monoid)
    assert cert.size == monoid.n
    assert sorted(cert.forward) == list(range(monoid.n))
    assert all(cert.backward[cert.forward[s]] == s for s in range(monoid.n))


def test_round_trip_ix3_cardinalities():
    ix3 = symmetric_inverse_monoid(3)
    sg = stone_groupoid(ix3)
    assert len(sg) == 9
    cert = round_trip_monoid(ix3)
    assert cert.size == 34


@pytest.mark.parametrize("factory", [
    lambda: trivial_groupoid(1),
    lambda: pair_groupoid(2),
    lambda: pair_groupoid(3),
    lambda: group_groupoid(2),
    lambda: disjoint_union(group_groupoid(2), group_groupoid(2)),
    lambda: disjoint_union(group_groupoid(2), group_groupoid(3)),
])
def test_round_trip_groupoids(factory):
    g = factory()
    cert = round_trip_groupoid(g)
    assert cert.size == g.m
    assert sorted(cert.forward) == list(range(g.m))


def test_round_trip_certificate_reports_laws():
    cert = round_trip_monoid(boolean_algebra_monoid(2))
    names = [name for name, _ in cert.checked_laws]
    assert "cardinality" in names and "multiplicative" in names
    data = cert.to_json()
    assert data["elapsed_s"] >= 0
    assert len(data["forward"]) == 4


# -- the symmetric monoid dualizes to the pair groupoid -------------------------------------


@pytest.mark.parametrize("x_size", [2, 3])
def test_symmetric_monoid_gives_pair_groupoid(x_size):
    ix = symmetric_inverse_monoid(x_size)
    sg = stone_groupoid(ix)
    pair = pair_groupoid(x_size)
    arrow_map = symmetric_to_pair_arrow_map(x_size, ix, sg, pair)
    assert sorted(arrow_map) == list(range(pair.m))
    functor = CoveringFunctor(sg, pair, tuple(arrow_map))
    assert check_covering(functor).ok  # bijective functor == isomorphism


# -- Clifford structure -----------------------------------------------------------------------


def test_clifford_check_positive():
    report = clifford_check(clifford_monoid())
    assert report.is_clifford and report.loops_only and report.filters_balanced


def test_clifford_check_on_boolean_algebra():
    report = clifford_check(boolean_algebra_monoid(2))
    assert report.is_clifford and report.loops_only


def test_clifford_check_negative(ix2):
    report = clifford_check(ix2)
    assert not report.is_clifford
    assert ix2.dom(report.witness) != ix2.ran(report.witness)


def test_clifford_groupoid_is_two_copies_of_z2():
    sg = stone_groupoid(clifford_monoid())
    assert len(sg) == 4
    assert len(sg.identities) == 2
    for e in sg.identities:
        star = sg.star(e)
        assert len(star) == 2  # a copy of Z/2 over each point


# -- weak morphisms ---------------------------------------------------------------------------


def test_weak_pullback_of_strict_morphism_flags_nothing():
    c, z = clifford_monoid(), group_with_zero_monoid(2)
    report = weak_morphism_pullback(projection_first(c, z))
    assert report.idempotent_ok
    assert report.flagged == []


def test_weak_pullback_of_identity_vacuous(ix2):
    report = weak_morphism_pullback(identity_morphism(ix2))
    assert report.idempotent_ok and report.flagged == []


def test_weak_pullback_of_idempotent_embedding(ix2):
    ba2 = boolean_algebra_monoid(2)
    theta = idempotent_embedding_ba2_into_ix2(ba2, ix2)
    report = weak_morphism_pullback(theta)
    assert report.idempotent_ok
    # the two ultrafilters through non-idempotent atoms pull back to nothing
    assert sorted(kind for _, kind in report.flagged) == ["empty", "empty"]


def test_cardinality_mismatch_raises():
    # sanity of the guard: a non-boolean monoid cannot even start
    from stonework import brandt_monoid, NotBooleanError

    with pytest.raises(NotBooleanError):
        round_trip_monoid(brandt_monoid())
