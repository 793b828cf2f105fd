"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Everything here is exact (tolerance zero): equality of tables, bitmasks,
canonical forms and witnesses.  Seeded generators make the sampled
criteria reproducible.  Run with ``pytest -s tests/test_acceptance.py`` to
see one line per criterion.
"""

import random
import time
from functools import reduce

from helpers import corpus_monoids, random_unit, symmetric_to_pair_arrow_map
from stonework import chain_monoid, symmetric_inverse_monoid
from stonework.duality import (
    clifford_check,
    round_trip_groupoid,
    round_trip_monoid,
    stone_groupoid,
    union_bisection_probe,
)
from stonework.groupoids import (
    CoveringFunctor,
    check_covering,
    disjoint_union,
    group_groupoid,
    pair_groupoid,
    trivial_groupoid,
)
from stonework.laws import boolean_monoid_suite
from stonework.polycyclic import (
    CnElement,
    all_words,
    arrow_to_ultrafilter,
    cn_join,
    cn_mul,
    embed_poly,
    is_unit,
    is_unit_definitional,
    oracle_agrees_on_join,
    oracle_agrees_on_product,
    poly_mul,
    PolyElement,
    random_arrow,
    random_cn_element,
    ultrafilter_to_arrow,
)


def report(number, ok, text):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number} failed: {text}"


def corpus_groupoids():
    return {
        "pair1": pair_groupoid(1),
        "pair2": pair_groupoid(2),
        "pair3": pair_groupoid(3),
        "z2": group_groupoid(2),
        "z2+z3": disjoint_union(group_groupoid(2), group_groupoid(3)),
    }


def test_criterion_1_round_trips():
    start = time.perf_counter()
    sizes = []
    for name, monoid in corpus_monoids().items():
        cert = round_trip_monoid(monoid)
        assert cert.size == monoid.n, name
        sizes.append((name, monoid.n))
    assert dict(sizes)["ix3"] == 34
    for name, groupoid in corpus_groupoids().items():
        cert = round_trip_groupoid(groupoid)
        assert cert.size == groupoid.m, name
    elapsed = time.perf_counter() - start
    report(1, elapsed < 10.0,
           f"{len(sizes)} monoids and 5 groupoids certified round trip "
           f"(|dual dual| == |input| exactly, I(3): 34 == 34) in {elapsed:.2f}s")


def test_criterion_2_symmetric_monoid_dualizes_to_pair_groupoid():
    for x_size in (2, 3):
        ix = symmetric_inverse_monoid(x_size)
        sg = stone_groupoid(ix)
        pair = pair_groupoid(x_size)
        arrow_map = symmetric_to_pair_arrow_map(x_size, ix, sg, pair)
        bijective = sorted(arrow_map) == list(range(pair.m))
        functor = CoveringFunctor(sg, pair, tuple(arrow_map))
        assert bijective and check_covering(functor).ok, x_size
    report(2, True, "ultrafilter groupoid of I(X) is the pair groupoid "
                    "for |X| = 2, 3 (explicit isomorphism)")


def test_criterion_3_lemma_suite_exhaustive():
    failures = 0
    instances = 0
    for name, monoid in corpus_monoids().items():
        assert monoid.n <= 64, name
        suite = boolean_monoid_suite(monoid)
        failures += suite.failure_count
        instances += sum(r.instances for r in suite.results)
    report(3, failures == 0,
           f"order/filter/basic-open law suite: {instances} instances, "
           f"{failures} counterexamples across {len(corpus_monoids())} monoids")


def test_criterion_4_clifford_groupoid_is_a_union_of_groups():
    monoid = corpus_monoids()["clifford"]
    (law,) = clifford_check(monoid).results
    ok = (law.name, law.instances, law.failures) == ("clifford-groupoid-has-loops-only", 1, [])
    report(4, ok, "Clifford entry: every ultrafilter has equal dom and ran, "
                  "all groupoid arrows are loops")


def test_criterion_5_completion_identities():
    # the complete family of generator ranges joins to the identity
    for n in (2, 3):
        parts = [CnElement.make(n, [(c, c)]) for c in "123"[:n]]
        assert reduce(cn_join, parts) == CnElement.one(n), n

    # embedding is a homomorphism on every pair with components of length <= 3
    elements = [PolyElement.zero()]
    words = [w for length in range(4) for w in all_words(2, length)]
    elements += [PolyElement(x, y) for x in words for y in words]
    hom_failures = 0
    for a in elements:
        ea = embed_poly(2, a)
        for b in elements:
            if embed_poly(2, poly_mul(a, b)) != cn_mul(ea, embed_poly(2, b)):
                hom_failures += 1
    assert hom_failures == 0

    rng = random.Random(0)
    oracle_failures = 0
    for _ in range(1000):
        a = random_cn_element(rng, 2, 3)
        b = random_cn_element(rng, 2, 3)
        if not oracle_agrees_on_product(a, b):
            oracle_failures += 1
        if not oracle_agrees_on_join(a, b):
            oracle_failures += 1
    report(5, hom_failures == 0 and oracle_failures == 0,
           f"complete joins equal one (n=2,3); embedding homomorphism on "
           f"{len(elements)}^2 pairs; product/join vs truncated-arrow oracle "
           f"on 1000 seeded pairs ({oracle_failures} disagreements)")


def test_criterion_6_unit_group_desk_check():
    rng = random.Random(1)
    closure_failures = 0
    for _ in range(500):
        u = random_unit(rng, 2, 4)
        v = random_unit(rng, 2, 4)
        if not (is_unit(cn_mul(u, v)) and is_unit(u.inverse())):
            closure_failures += 1
    agreement_failures = 0
    for _ in range(1000):
        a = random_cn_element(rng, 2, 4)
        if is_unit(a) != is_unit_definitional(a):
            agreement_failures += 1
    report(6, closure_failures == 0 and agreement_failures == 0,
           f"500 unit pairs closed under product/inverse, prefix-code test "
           f"matches the definitional test on 1000 seeded elements")


def test_criterion_7_point_identification_bijection():
    rng = random.Random(2)
    trips = 0
    for n in (2, 3):
        for _ in range(500):
            g = random_arrow(rng, n, 4, 4, 3)
            rep, z = arrow_to_ultrafilter(g)
            assert ultrafilter_to_arrow(rep, z) == g
            trips += 1
    rep_pairs = 0
    for _ in range(200):
        g = random_arrow(rng, 2, 4, 4, 3)
        rep, z = arrow_to_ultrafilter(g)
        w = z.shift(len(rep.y))
        p = w.prefix(rng.randint(1, 3))
        if ultrafilter_to_arrow(PolyElement(rep.x + p, rep.y + p), z) != g:
            break
        rep_pairs += 1
    report(7, trips == 1000 and rep_pairs == 200,
           f"{trips} arrow/filter round trips and {rep_pairs} "
           f"representative-independence pairs, all exact")


def test_criterion_8_negative_controls():
    # fixture 1: an idempotent algebra without complements
    cert = chain_monoid(3).check_boolean()
    first = (not cert.is_boolean and cert.axiom == "BM1"
             and cert.detail == "idempotent has no complement"
             and cert.elements == (1,))

    # fixture 2: collapsing the pair groupoid onto a point is a functor but
    # not a covering
    collapse = CoveringFunctor(pair_groupoid(2), trivial_groupoid(1), (0, 0, 0, 0))
    result = check_covering(collapse)
    second = (not result.ok and result.get("covering").failures[0][0] == "star-injectivity")

    # fixture 3: basic opens of a joinless pair fail the bisection test on a
    # shared domain fiber
    ix2 = symmetric_inverse_monoid(2)
    sg = stone_groupoid(ix2)
    s = ix2.labels.index("{1->1}")
    t = ix2.labels.index("{1->2}")
    assert ix2.join(s, t) is None
    flag, witness = union_bisection_probe(sg, s, t)
    third = (not flag and witness is not None
             and sg.d[witness[1]] == sg.d[witness[2]])

    report(8, first and second and third,
           "witnesses: BM1 (no complement), star-injectivity (collapse), "
           "shared domain fiber (joinless basic opens)")
