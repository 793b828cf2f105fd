"""Morphism axioms, basic-open laws, functors on morphisms, round trips."""

import itertools
import random
import re
from collections import Counter
from contextlib import suppress
from dataclasses import replace
from functools import cache

import numpy as np
import pytest

from helpers import (
    corpus_monoids,
    covering_functors,
    diagonal_embedding,
    homomorphisms,
    idempotent_embedding_ba2_into_ix2,
    object_form_groupoids,
    projection_first,
    reference_basic_open,
    reference_bisections,
    reference_functor_on_morphism,
    reference_morphism_failure,
    reference_transport_failure,
    restriction_ba2_to_ba1,
    symmetric_to_pair_arrow_map,
)
from stonework import (
    BoundError,
    MorphismError,
    StructureError,
    duality,
    laws,
    boolean_algebra_monoid,
    brandt_monoid,
    clifford_monoid,
    group_with_zero_monoid,
    symmetric_inverse_monoid,
)
from stonework.duality import (
    MonoidMorphism,
    basic_opens,
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
    fiber_clash,
    group_groupoid,
    pair_groupoid,
    trivial_groupoid,
)
from stonework.filters import enumerate_ultrafilters, filter_doms, filter_of, ultra_by_meet
from stonework.laws import point_filter_laws


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
    assert err.value.witness == ([2, 6],)


@pytest.mark.parametrize("build", [
    lambda: MonoidMorphism(boolean_algebra_monoid(2), boolean_algebra_monoid(2), (0, 1.0, 2, 3)),
    lambda: MonoidMorphism(boolean_algebra_monoid(2), boolean_algebra_monoid(2), (0, True, 2, 3)),
    lambda: MonoidMorphism(boolean_algebra_monoid(2), boolean_algebra_monoid(2), (0, 1, 2, 3.5)),
    lambda: CoveringFunctor(pair_groupoid(2), pair_groupoid(2), (0.0, 1, 2, 3)),
    lambda: CoveringFunctor(pair_groupoid(2), pair_groupoid(2), (False, 1, 2, 3)),
], ids=["float-one", "true", "float-half", "float-zero", "false"])
def test_a_map_with_a_non_integer_entry_is_refused(build):
    """A float or bool in a morphism's or a functor's map is an input
    error, never read as an index or compared as a number."""
    with pytest.raises(StructureError, match="map has a non-integer entry"):
        build()


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
    """M1/M2 as per-pair loops: the first idempotent pair whose join f
    moves, then the first pair whose meet it moves.  M1 compares no meets:
    those of idempotents are products, kept by a homomorphism, so a moved
    one is a tampered order, which M2 refuses."""
    for e in source.idempotents:
        for g in source.idempotents:
            if f[source.join(e, g)] != target.join(f[e], f[g]):
                return "M1", ("join", e, g)
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
    source._stone_groupoid = sg = stone_groupoid(monoid)
    dual = all_bisections_monoid(sg).monoid
    forward = round_trip_monoid(monoid).forward
    s, t = next((s, t) for s in range(monoid.n) for t in range(monoid.n)
                if forward[source.meet(s, t)] != dual.meet(forward[s], forward[t]))
    with pytest.raises(StructureError, match=re.escape(f"does not preserve meets at ({s}, {t})")):
        round_trip_monoid(source)


# -- basic open sets ----------------------------------------------------------------


def test_basic_open_at_zero_and_atom(ix2, sg_ix2):
    opens = basic_opens(sg_ix2)
    assert np.flatnonzero(opens[ix2.zero]).tolist() == []
    for a in ix2.atoms:
        k = np.flatnonzero(opens[a]).tolist()
        assert len(k) == 1
        (i,) = k
        assert sg_ix2.ultrafilters[i] == a


def test_basic_open_at_one_is_identities(ix2, sg_ix2):
    k = np.flatnonzero(basic_opens(sg_ix2)[ix2.one]).tolist()
    assert k == list(sg_ix2.identities)
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
        source._stone_groupoid = sg_ix2
        law = verify_basic_open_laws(source).get("meet-is-intersection")
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
    law = verify_basic_open_laws(monoid).get("union-bisection-iff-join")
    assert law.instances == len(pairs)
    assert law.failures == [(*pair, None) for pair in pairs if probe[pair][0]]

    monkeypatch.setattr(monoid, "_order",
                        replace(order, join=np.full_like(order.join, monoid.zero)))
    law = verify_basic_open_laws(monoid).get("union-bisection-iff-join")
    assert law.failures == [(*pair, probe[pair][1]) for pair in pairs if not probe[pair][0]]


def test_product_law_checks_each_product_is_a_bisection(ix2, sg_ix2, monkeypatch):
    """The gathered products meet each domain fiber once by construction.
    One that meets a range fiber twice is not a bisection, so it is not
    K(st) either: the product law reports it at (s, t)."""
    real = duality.image_products
    e0, e1 = sg_ix2.identities
    swap = next(g for g in range(sg_ix2.m) if (sg_ix2.d[g], sg_ix2.r[g]) == (e1, e0))

    def doubled(groupoid, rows):
        images, products = real(groupoid, rows)

        def places():
            for place, product in enumerate(products):
                if place == 1:                      # K(1)K(1) = {e0, swap}: one range twice
                    product = product.copy()
                    product[ix2.one, ix2.one] = swap
                yield product
        return images, places()

    monkeypatch.setattr(duality, "image_products", doubled)
    report = verify_basic_open_laws(ix2)
    assert report.get("product").failures == [(ix2.one, ix2.one)]
    assert report.failure_count == 1


def test_a_tampered_order_fails_is_bisection_with_a_witness(ix2, sg_ix2):
    """K(s) is read off the order: with the atom {2->1} put below the one,
    K(1) gains the arrow from e1 to e0, which shares a domain fiber with e1
    and a range fiber with e0.  The witness is fiber_clash's first pair."""
    e0, e1 = sg_ix2.identities
    swap = next(g for g in range(sg_ix2.m) if (sg_ix2.d[g], sg_ix2.r[g]) == (e1, e0))
    source = ix2.restrict(range(ix2.n))
    assert stone_groupoid(source).ultrafilters.tolist() == sg_ix2.ultrafilters.tolist()
    order = source.order()
    matrix = order.matrix.copy()
    matrix[sg_ix2.ultrafilters[swap], source.one] = True
    source._order = replace(order, matrix=matrix)       # read by the kept groupoid's K(s)
    law = verify_basic_open_laws(source).get("is-bisection")
    clash = fiber_clash(sg_ix2, [e0, e1, swap])
    assert clash[0] in ("domain-fiber", "range-fiber") and swap in clash[1:]
    assert law.instances == ix2.n
    assert law.failures == [(source.one, clash)]


def test_an_atom_put_below_zero_fails_zero_is_empty(ix2, sg_ix2):
    """K(0) is read off the order: with the atom {1->1} put below 0, the
    ultrafilter at that atom holds 0, so K(0) is not empty."""
    source = ix2.restrict(range(ix2.n))
    stone_groupoid(source)          # kept, and built before the order is tampered with
    order = source.order()
    matrix = order.matrix.copy()
    matrix[by_label(ix2, "{1->1}"), source.zero] = True
    source._order = replace(order, matrix=matrix)
    law = verify_basic_open_laws(source).get("zero-is-empty")
    assert (law.instances, law.failures) == (1, [(source.zero,)])


DUAL_CASES = {
    **{f"ix{k}": (lambda k=k: symmetric_inverse_monoid(k)) for k in range(2, 5)},
    **{f"ba{k}": (lambda k=k: boolean_algebra_monoid(k)) for k in (1, 4, 6)},
    "clifford": clifford_monoid,
    "z3-zero": lambda: group_with_zero_monoid(3),
}


def reference_rows(bisections):
    return np.array([b.row() for b in bisections])


@pytest.mark.parametrize("name", list(DUAL_CASES))
def test_basic_opens_and_their_laws_match_the_object_form(name, monkeypatch):
    """K(s) is the Bisection of the ultrafilters through s; the union probes,
    the round-trip certificate and the basic-open law report are the ones
    the object form gives."""
    monoid = DUAL_CASES[name]()
    n, sg = monoid.n, stone_groupoid(monoid)
    reference = [reference_basic_open(s, sg) for s in range(n)]
    opens = basic_opens(sg)
    assert opens.tolist() == reference_rows(reference).tolist()
    for s, t in np.ndindex(n, n):
        clash = fiber_clash(sg, reference[s].members | reference[t].members)
        assert union_bisection_probe(sg, s, t) == (clash is None, clash)

    everything = [b.members for b in reference_bisections(sg)]
    forward = [everything.index(k.members) for k in reference]
    cert = round_trip_monoid(monoid).to_json()
    del cert["elapsed_s"]
    assert cert == {"forward": forward, "backward": np.argsort(forward).tolist(),
                    "checked_laws": [{"law": law, "instances": count} for law, count in (
                        ("cardinality", 1), ("bijective", n), ("multiplicative", n * n),
                        ("inverse-preserving", n), ("zero-one", 2), ("meet-and-order", n * n))]}

    report = verify_basic_open_laws(monoid).to_json()
    monkeypatch.setattr(duality, "basic_opens",
                        lambda sg: reference_rows(reference))
    monkeypatch.setattr(duality, "enumerate_bisections", lambda sg, bisection_bound:
                        reference_rows(reference_bisections(sg)))
    assert report == verify_basic_open_laws(monoid).to_json()


@pytest.mark.parametrize("name", list(object_form_groupoids()))
def test_groupoid_round_trip_and_point_laws_match_the_object_form(name, monkeypatch):
    """The point filters are the Bisections through each arrow, the
    certificate is the one the object form's transport loop accepts, and
    the point-filter law report is the one the object form gives."""
    groupoid = object_form_groupoids()[name]()
    m, reference = groupoid.m, reference_bisections(groupoid)
    bm = all_bisections_monoid(groupoid)
    cert = round_trip_groupoid(groupoid).to_json()
    del cert["elapsed_s"]
    sg = stone_groupoid(bm.monoid)
    through = np.array([[g in b.members for b in reference] for g in range(m)],
                       dtype=bool).reshape(m, len(reference))     # row g: the bisections through g
    forward = [sg.arrow_at(filter_of(bm.monoid, row)) for row in through]
    assert reference_transport_failure(reference, forward, sg) is None
    assert cert == {"forward": forward, "backward": np.argsort(forward).tolist(),
                    "checked_laws": [{"law": law, "instances": count} for law, count in (
                        ("cardinality", 1), ("bijective", m), ("dom-ran-inverse", 3 * m),
                        ("composition", m * m), ("identities", len(groupoid.identities)),
                        ("bisection-transport", len(reference)))]}

    report = point_filter_laws(groupoid).to_json()
    monkeypatch.setattr(laws, "point_ultrafilter", lambda bm, arrows: filter_of(
        bm.monoid, through[arrows]))
    assert report == point_filter_laws(groupoid).to_json()


def test_a_transport_failure_names_the_first_bisection(monkeypatch):
    """With the basic open sets of two elements swapped, the round trip
    refuses the first bisection whose image is not its basic open set: the
    one the object form's loop stopped at."""
    pair = pair_groupoid(2)
    bm = all_bisections_monoid(pair)
    sg = stone_groupoid(bm.monoid)
    forward = round_trip_groupoid(pair).forward
    swapped = list(range(bm.monoid.n))
    swapped[3], swapped[5] = 5, 3
    opens = [reference_basic_open(s, sg).members for s in swapped]
    first = next(i for i, u in enumerate(reference_bisections(pair))
                 if frozenset(forward[g] for g in u.members) != opens[i])
    assert first == 3
    real = duality.basic_opens
    monkeypatch.setattr(duality, "basic_opens", lambda sg: real(sg)[swapped])
    with pytest.raises(StructureError, match=f"^image of bisection {first} is not its basic"):
        round_trip_groupoid(pair)


def test_a_repeated_basic_open_set_is_refused_as_not_injective(monkeypatch, ix2):
    """With K(1) read as K(0), two elements land on one bisection: the
    monoid round trip refuses the basic-open map before it inverts it."""
    real = duality.basic_opens
    repeated = [0, 0, *range(2, ix2.n)]
    monkeypatch.setattr(duality, "basic_opens", lambda sg: real(sg)[repeated])
    with pytest.raises(StructureError, match="^basic-open map is not injective$"):
        round_trip_monoid(ix2)


def test_a_repeated_point_ultrafilter_is_refused_as_not_injective(monkeypatch):
    """With the point ultrafilter of arrow 1 read as that of arrow 0, two
    arrows land on one ultrafilter: the groupoid round trip refuses the
    point-ultrafilter map before it inverts it."""
    pair = pair_groupoid(2)
    real = duality.point_ultrafilter
    repeated = [0, 0, *range(2, pair.m)]
    monkeypatch.setattr(duality, "point_ultrafilter", lambda bm, g: real(bm, g)[repeated])
    with pytest.raises(StructureError, match="^point-ultrafilter map is not injective$"):
        round_trip_groupoid(pair)


# -- functors on morphisms --------------------------------------------------------------


def test_functor_on_identity_is_identity(ix2, sg_ix2):
    functor = functor_on_morphism(identity_morphism(ix2))
    assert functor.arrow_map == tuple(range(len(sg_ix2)))
    assert functor.source is functor.target is sg_ix2


def test_functor_on_a_weak_morphism_checks_m3(ix2):
    """A weak map is validated before its preimages are read as arrows."""
    weak = idempotent_embedding_ba2_into_ix2(boolean_algebra_monoid(2), ix2)
    with pytest.raises(MorphismError) as err:
        functor_on_morphism(weak)
    assert (err.value.stage, err.value.witness) == ("M3", ([2, 6],))


def test_functor_on_boolean_restriction_embeds_spectra():
    ba2, ba1 = boolean_algebra_monoid(2), boolean_algebra_monoid(1)
    theta = restriction_ba2_to_ba1(ba2, ba1)
    functor = functor_on_morphism(theta)
    # classical finite duality: the one point of spec(ba1) lands on the
    # first-atom point of spec(ba2), injectively
    assert len(functor.arrow_map) == 1
    assert len(set(functor.arrow_map)) == 1
    assert check_covering(functor).ok


def test_kept_duals_are_built_once():
    """A monoid keeps its Stone groupoid and a groupoid its bisection
    monoid: every call returns the same object, which is why functors and
    morphisms built by separate calls compose."""
    monoid, groupoid = clifford_monoid(), pair_groupoid(2)
    assert stone_groupoid(monoid) is stone_groupoid(monoid)
    assert all_bisections_monoid(groupoid) is all_bisections_monoid(groupoid)
    sg = stone_groupoid(monoid)
    assert all_bisections_monoid(sg) is all_bisections_monoid(sg, bisection_bound=len(monoid))


def test_a_kept_bisection_monoid_is_counted_against_the_bound():
    """ix4's dual has 209 bisections.  Once its bisection monoid is kept, a
    bound of 100 refuses it with the text a fresh groupoid gets, whose
    closed-form count stops once it passes the bound."""
    def refusal(groupoid):
        with pytest.raises(BoundError) as err:
            all_bisections_monoid(groupoid, bisection_bound=100)
        return str(err.value)

    fresh = refusal(stone_groupoid(symmetric_inverse_monoid(4)))
    sg = stone_groupoid(symmetric_inverse_monoid(4))
    assert len(all_bisections_monoid(sg)) == 209
    assert refusal(sg) == fresh == ("a groupoid of 16 arrows has at least 185 bisections: "
                                    "sizes are capped at 100")


def test_contravariance_of_ultrafilter_functor():
    """G(theta then phi) = G(phi) then G(theta), with no groupoid passed in."""
    c, z = clifford_monoid(), group_with_zero_monoid(2)
    delta = diagonal_embedding(z, c)   # z -> c
    pi = projection_first(c, z)        # c -> z
    lhs = functor_on_morphism(delta.then(pi))      # z -> z (the identity)
    rhs = functor_on_morphism(pi).then(functor_on_morphism(delta))
    assert lhs == rhs and lhs.source is rhs.source is lhs.target is stone_groupoid(z)
    assert functor_on_morphism(pi.then(delta)) == functor_on_morphism(delta).then(
        functor_on_morphism(pi))


def test_contravariance_of_bisection_functor():
    """A(f then g) = A(g) then A(f), with no bisection monoid passed in."""
    z2 = group_groupoid(2)
    both = disjoint_union(z2, z2)
    incl = CoveringFunctor(z2, both, (0, 1))
    fold = CoveringFunctor(both, z2, (0, 1, 0, 1))
    lhs = pullback_morphism(incl.then(fold))
    rhs = pullback_morphism(fold).then(pullback_morphism(incl))
    assert lhs == rhs and lhs.source is rhs.source is all_bisections_monoid(z2).monoid
    assert pullback_morphism(fold.then(incl)) == pullback_morphism(incl).then(
        pullback_morphism(fold))


def test_naturality_square():
    c, z = clifford_monoid(), group_with_zero_monoid(2)
    theta = projection_first(c, z)
    functor = functor_on_morphism(theta)       # G(z) -> G(c)
    transported = pullback_morphism(functor)   # A(G(c)) -> A(G(z))
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
    (law,) = clifford_check(clifford_monoid()).results
    assert (law.name, law.instances, law.failures) == ("clifford-groupoid-has-loops-only", 1, [])


def test_clifford_check_on_boolean_algebra():
    (law,) = clifford_check(boolean_algebra_monoid(2)).results
    assert (law.name, law.instances, law.failures) == ("clifford-groupoid-has-loops-only", 1, [])


def test_clifford_check_negative(ix2):
    ((kind, s),) = clifford_check(ix2).get("clifford-groupoid-has-loops-only").failures
    assert kind == "not-clifford" and ix2.dom(s) != ix2.ran(s)


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
    assert report.flagged == [[2, 6], [3, 6]]
    assert report.to_json()["flagged"] == [[2, 6], [3, 6]]


def test_cardinality_mismatch_raises():
    # sanity of the guard: a non-boolean monoid cannot even start
    from stonework import brandt_monoid, NotBooleanError

    with pytest.raises(NotBooleanError):
        round_trip_monoid(brandt_monoid())


def _seeded_weak_maps(source, target, rng, count):
    """Up to ``count`` maps from ``source`` to ``target`` that pass M1 and M2,
    built weak: a depth-first search over images in a seeded order, cut off
    wherever an assigned product is not sent to the product of the images."""
    mul, tmul = source.mul.tolist(), target.mul.tolist()
    images, found = {source.zero: target.zero, source.one: target.one}, []
    free = [s for s in range(source.n) if s not in images]

    def extend(k):
        if len(found) == count:
            return
        if k == len(free):
            mapping = tuple(images[s] for s in range(source.n))
            try:
                found.append(MonoidMorphism(source, target, mapping, weak=True))
            except MorphismError:
                pass
            return
        for x in rng.sample(range(target.n), target.n):
            images[free[k]] = x
            if all(images.get(mul[a][b], tmul[images[a]][images[b]])
                   == tmul[images[a]][images[b]] for a in images for b in images):
                extend(k + 1)
        del images[free[k]]

    extend(0)
    return found


def test_a_weak_map_pulls_every_ultrafilter_back_to_nothing_or_a_filter():
    """M1 and M2 make a map keep the order and the binary meets, so the
    non-empty preimage of an ultrafilter is upward closed and closed under
    meets: a filter, which ``filter_of`` accepts.  Seeded weak maps between
    every ordered pair of ba1-ba3, z2-zero, z3-zero, clifford and ix2."""
    corpus = corpus_monoids()
    monoids = [corpus[name] for name in ("ba1", "ba2", "ba3", "z2_zero", "z3_zero",
                                         "clifford", "ix2")]
    maps = preimages = 0
    for i, source in enumerate(monoids):
        for j, target in enumerate(monoids):
            for theta in _seeded_weak_maps(source, target, random.Random(7 * i + j), 3):
                t_leq, image = target.order().matrix, np.asarray(theta.mapping)
                empty = []          # non-idempotent ultrafilters with an empty preimage
                for u in enumerate_ultrafilters(target).tolist():
                    if (pre := t_leq[u][image]).any():
                        filter_of(source, pre)
                        preimages += 1
                    elif not t_leq[u, list(target.idempotents)].any():
                        empty.append(np.flatnonzero(t_leq[u]).tolist())
                assert weak_morphism_pullback(theta).flagged == empty
                maps += 1
    assert maps >= 50 and preimages >= 100, (maps, preimages)


@cache
def seeded_weak_maps():
    """The seeded weak maps of the test above, over the same pairs."""
    corpus = corpus_monoids()
    monoids = [corpus[name] for name in ("ba1", "ba2", "ba3", "z2_zero", "z3_zero",
                                         "clifford", "ix2")]
    return tuple(theta for i, source in enumerate(monoids) for j, target in enumerate(monoids)
                 for theta in _seeded_weak_maps(source, target, random.Random(7 * i + j), 3))


def cyclic_automorphisms():
    """Automorphisms of order 3, whose image and preimage maps differ: the
    atoms of ba3 rotated, and ix3 conjugated by a 3-cycle."""
    ba3, ix3 = boolean_algebra_monoid(3), symmetric_inverse_monoid(3)
    cycle = by_label(ix3, "{1->2,2->3,3->1}")
    back = ix3.inv[cycle]
    return [MonoidMorphism(ba3, ba3, tuple((s << 1 | s >> 2) & 7 for s in range(8))),
            MonoidMorphism(ix3, ix3, tuple(ix3.product(ix3.product(cycle, s), back)
                                           for s in range(ix3.n)))]


def built_morphisms():
    """Every morphism the tests above build, the cyclic automorphisms, and
    each seeded weak map that passes the full validation."""
    c, z, ix2 = clifford_monoid(), group_with_zero_monoid(2), symmetric_inverse_monoid(2)
    delta, pi = diagonal_embedding(z, c), projection_first(c, z)
    z2 = group_groupoid(2)
    both = disjoint_union(z2, z2)
    incl, fold = CoveringFunctor(z2, both, (0, 1)), CoveringFunctor(both, z2, (0, 1, 0, 1))
    pullbacks = [pullback_morphism(incl), pullback_morphism(fold),
                 pullback_morphism(incl.then(fold)), pullback_morphism(functor_on_morphism(pi))]
    strong = []
    for theta in seeded_weak_maps():
        try:
            theta.validate()
            strong.append(theta)
        except MorphismError:
            pass
    return [identity_morphism(ix2), delta, pi, delta.then(pi),
            restriction_ba2_to_ba1(boolean_algebra_monoid(2), boolean_algebra_monoid(1)),
            *pullbacks, *cyclic_automorphisms(), *strong]


def test_functor_on_morphism_agrees_with_the_reference_and_the_theorems():
    """For every built morphism, weak ones included: the arrow map is the
    per-ultrafilter loop's, the functor is a covering, and at every
    ultrafilter A, dom(theta^-1 A) = theta^-1(dom A) as closed filter
    products."""
    morphisms = built_morphisms()
    for theta in morphisms:
        functor = functor_on_morphism(theta)
        assert functor.arrow_map == reference_functor_on_morphism(theta).arrow_map
        assert check_covering(functor).ok
        sg_t, sg_s = functor.source, functor.target
        pre = sg_s.ultrafilters[list(functor.arrow_map)]      # theta^-1 A, for each arrow A
        lhs = theta.source.order().matrix[filter_doms(theta.source, pre)]
        rhs = theta.target.order().matrix[filter_doms(theta.target, sg_t.ultrafilters)]
        assert np.array_equal(lhs, rhs[:, list(theta.mapping)])
    assert len(morphisms) >= 30 and sum(theta.weak for theta in morphisms) >= 20


def test_preimages_agree_with_the_per_ultrafilter_loop():
    """_preimages, against filter_of one target ultrafilter at a time, on
    every seeded weak map: -1 where the preimage is empty.  By ultra_by_meet,
    no non-empty preimage is short of ultra: M1 keeps orthogonal joins, so
    an atom below theta(g v h) lies below theta(g) or theta(h), and the
    least member of a preimage is an atom."""
    kinds = set()
    for theta in seeded_weak_maps():
        source, t_leq = theta.source, theta.target.order().matrix
        ultra = enumerate_ultrafilters(theta.target)
        expected = []
        for u in ultra.tolist():
            row = t_leq[u][list(theta.mapping)]
            g = filter_of(source, row) if row.any() else -1
            expected.append((g, g >= 0 and bool(ultra_by_meet(source, [g])[0])))
            kinds.add((g >= 0, expected[-1][1]))
        assert duality._preimages(theta, ultra).tolist() == [g for g, _ in expected]
    assert kinds == {(False, False), (True, True)}


# -- every homomorphism between small monoids ------------------------------------------

HOM_MONOIDS = ("ba1", "ba2", "ba3", "z2_zero", "z3_zero", "clifford", "ix2")


@cache
def hom_monoids():
    """Each monoid of HOM_MONOIDS with its Stone groupoid."""
    corpus = corpus_monoids()
    return {name: (corpus[name], stone_groupoid(corpus[name])) for name in HOM_MONOIDS}


@pytest.mark.parametrize("fix_zero_one, count", [(True, 1), (False, 9)])
def test_the_homomorphism_helper_returns_exactly_the_homomorphisms(fix_zero_one, count):
    """brandt -> ba2: the helper returns every map of all 4^6 that keeps every
    product, and no other.  {1->2} {2->1} = {2->2} is assigned after both
    factors, so that pair can be checked only once its product is."""
    source, target = brandt_monoid(), boolean_algebra_monoid(2)
    every = [f for f in itertools.product(range(target.n), repeat=source.n)
             if (np.take(f, source.mul) == target.mul[np.ix_(f, f)]).all()
             and (not fix_zero_one or (f[source.zero], f[source.one]) == (target.zero, target.one))]
    maps = homomorphisms(source, target, fix_zero_one=fix_zero_one)
    assert len(maps) == count and sorted(map(tuple, maps.tolist())) == every


def test_the_validator_agrees_with_the_reference_on_every_small_homomorphism():
    """Every semigroup homomorphism between every ordered pair of
    HOM_MONOIDS, zero and one fixed or not, validated strict and weak:
    MonoidMorphism and reference_morphism_failure, which also runs the
    checks that M1 implies, accept the same maps and refuse the others at
    the same stage with the same witness.  Where the reference finds a
    complement not kept, MonoidMorphism names a pair of idempotents whose
    meet or join the map moves.  Under every accepted map, each non-empty
    preimage of an ultrafilter is an ultrafilter."""
    stages, complements = Counter(), 0
    for (source, _), (target, _) in itertools.product(hom_monoids().values(), repeat=2):
        ultra = enumerate_ultrafilters(target)
        for f in homomorphisms(source, target, fix_zero_one=False).tolist():
            for weak in (False, True):
                expected = reference_morphism_failure(source, target, f, weak=weak)
                try:
                    theta, got = MonoidMorphism(source, target, tuple(f), weak=weak), None
                except MorphismError as err:
                    got = err.stage, err.witness
                if expected and expected[1][0] == "complement":
                    stage, (bound, x, y) = got
                    assert stage == "M1" and {x, y} <= set(source.idempotents)
                    complements += 1
                    mine = getattr(source, bound)(x, y)
                    assert (None if mine is None else f[mine]) != getattr(target, bound)(f[x], f[y])
                else:
                    assert got == expected, (f, weak)
                if got is None:
                    pre = duality._preimages(theta, ultra)
                    assert ultra_by_meet(source, pre[pre >= 0]).all()
                stages[got and got[0]] += 1
    assert stages == {"M1": 3254, None: 182, "M2": 100, "M3": 40}
    assert complements == 1166


def test_functor_on_morphism_is_a_bijection_onto_the_covering_functors():
    """Hom(S, T) -> Cov(G(T), G(S)) on every ordered pair of HOM_MONOIDS:
    the morphisms are the homomorphisms fixing zero and one that
    MonoidMorphism accepts, the covering functors are every arrow map that
    passes CoveringFunctor and check_covering, and functor_on_morphism is
    one-to-one and onto."""
    sizes = {}
    for (a, (source, sg_s)), (b, (target, sg_t)) in itertools.product(hom_monoids().items(),
                                                                      repeat=2):
        homs = []
        for f in homomorphisms(source, target).tolist():
            with suppress(MorphismError):
                homs.append(MonoidMorphism(source, target, tuple(f)))
        functors = {functor_on_morphism(theta).arrow_map for theta in homs}
        assert len(functors) == len(homs), (a, b)
        assert functors == set(covering_functors(sg_t, sg_s)), (a, b)
        if homs:
            sizes[a, b] = len(homs)
    # 65 over the 45 pairs with at most 4 * 10**5 maps fixing zero and one
    assert sizes == {("ba1", "ba1"): 1, ("ba1", "ba2"): 1, ("ba1", "ba3"): 1, ("ba2", "ba1"): 2,
                     ("ba2", "ba2"): 4, ("ba2", "ba3"): 8, ("ba3", "ba1"): 3, ("ba3", "ba2"): 9,
                     ("ba3", "ba3"): 27, ("z2_zero", "z2_zero"): 1, ("z2_zero", "clifford"): 1,
                     ("z2_zero", "ix2"): 1, ("z3_zero", "z3_zero"): 2, ("clifford", "z2_zero"): 2,
                     ("clifford", "clifford"): 4, ("clifford", "ix2"): 2, ("ix2", "ix2"): 2}
