"""Prefix-pair arithmetic, orthogonal families, infinite-word arrows."""

import random
import re
from functools import reduce
from math import lcm

import numpy as np
import pytest

from helpers import random_poly, random_unit, symmetric_to_pair_arrow_map
from stonework import (
    BoundError,
    CoveringFunctor,
    InverseMonoid,
    MonoidMorphism,
    ParseError,
    StructureError,
    check_covering,
    pair_groupoid,
    partial_bijections,
    round_trip_monoid,
    stone_groupoid,
    symmetric_inverse_monoid,
)
from stonework.polycyclic import (
    CnElement,
    CuntzArrow,
    EvPeriodicWord,
    PolyElement,
    _canonical_pairs,
    all_words,
    arrow_to_ultrafilter,
    cn_join,
    cn_mul,
    cuntz_compose,
    embed_poly,
    finite_depth_oracle,
    format_cn,
    format_ev,
    format_poly,
    format_word,
    is_maximal_prefix_code,
    is_unit,
    is_unit_definitional,
    oracle_agrees_on_join,
    oracle_agrees_on_product,
    parse_cn,
    parse_ev,
    parse_poly,
    parse_word,
    poly_mul,
    random_arrow,
    random_cn_element,
    random_ev_word,
    ultrafilter_to_arrow,
)

ZERO = PolyElement.zero()
ONE = PolyElement.one()


def pe(x, y):
    return PolyElement(x, y)


def words_up_to(n, max_len):
    out = []
    for length in range(max_len + 1):
        out.extend(all_words(n, length))
    return out


def poly_elements(n, max_len):
    return [ZERO] + [pe(x, y) for x in words_up_to(n, max_len)
                     for y in words_up_to(n, max_len)]


# -- the polycyclic monoid ----------------------------------------------------------


def test_poly_mul_spec_cases():
    assert poly_mul(pe("1", "2"), pe("2", "1")) == pe("1", "1")
    assert poly_mul(pe("1", "2"), ZERO) == ZERO
    assert poly_mul(pe("1", ""), pe("2", "")) == pe("12", "")


def test_poly_mul_orthogonal_kills():
    assert poly_mul(pe("", "1"), pe("2", "")) == ZERO


def test_poly_identity_and_inverse():
    for a in poly_elements(2, 2):
        assert poly_mul(a, ONE) == a
        assert poly_mul(ONE, a) == a
        assert poly_mul(poly_mul(a, a.inverse()), a) == a
        assert a.inverse().inverse() == a


def test_poly_assoc_exhaustive_short():
    elements = poly_elements(2, 2)
    for a in elements:
        for b in elements:
            ab = poly_mul(a, b)
            for c in elements:
                assert poly_mul(ab, c) == poly_mul(a, poly_mul(b, c))


def test_poly_assoc_sampled_longer():
    rng = random.Random(11)
    for _ in range(4000):
        a, b, c = (random_poly(rng, 2, 3) for _ in range(3))
        assert poly_mul(poly_mul(a, b), c) == poly_mul(a, poly_mul(b, c))


def test_poly_dom_is_idempotent():
    for a in poly_elements(2, 2):
        assert poly_mul(a.inverse(), a).is_idempotent


# -- embedding into the completion ------------------------------------------------------


def test_embedding_special_values():
    assert embed_poly(2, ONE) == CnElement.one(2)
    assert embed_poly(2, ZERO) == CnElement.zero(2)
    assert embed_poly(2, pe("1", "2")) == CnElement(2, (("1", "2"),))


def test_embedding_is_homomorphism_exhaustive():
    elements = poly_elements(2, 2)
    for a in elements:
        for b in elements:
            assert embed_poly(2, poly_mul(a, b)) == cn_mul(embed_poly(2, a),
                                                           embed_poly(2, b))


def test_embedding_injective():
    elements = poly_elements(2, 2)
    images = {embed_poly(2, a) for a in elements}
    assert len(images) == len(elements)


# -- canonical form ---------------------------------------------------------------------


def test_sibling_family_collapses():
    assert CnElement.make(2, [("1", "1"), ("2", "2")]) == CnElement.one(2)
    assert CnElement.make(3, [("1", "1"), ("2", "2")]) != CnElement.one(3)


def test_nested_families_collapse():
    pairs = [("11", "11"), ("12", "12"), ("2", "2")]
    assert CnElement.make(2, pairs) == CnElement.one(2)


def test_canonicalization_idempotent():
    rng = random.Random(3)
    for _ in range(300):
        a = random_cn_element(rng, 2, 4)
        assert CnElement.make(a.n, a.pairs) == a


def test_canonicalization_preserves_oracle():
    # confluence: merging sibling families never changes the expansion
    from stonework.polycyclic import _expand_pairs

    raw = [("11", "11"), ("12", "12"), ("2", "2")]
    collapsed = CnElement.make(2, raw)
    depth = 3
    assert _expand_pairs(2, raw, depth) == finite_depth_oracle(collapsed, depth)


def test_families_merged_in_one_round_keep_a_stem_that_is_a_member():
    """1/1 and 2/2 merge into e/e while 11/11 and 12/12 merge into 1/1, in
    the same round: 1/1 stays, whatever the hash seed, and the result is
    rejected as not orthogonal rather than read as the identity."""
    pairs = [("1", "1"), ("2", "2"), ("11", "11"), ("12", "12")]
    assert _canonical_pairs(2, pairs) == (("", ""), ("1", "1"))
    with pytest.raises(StructureError, match="not orthogonal"):
        CnElement.make(2, pairs)


def test_constructor_rejects_non_canonical():
    with pytest.raises(StructureError):
        CnElement(2, (("1", "1"), ("2", "2")))
    with pytest.raises(StructureError):
        CnElement(2, (("1", "1"), ("1", "2")))
    with pytest.raises(BoundError):
        CnElement(7, ())


@pytest.mark.parametrize("n, pairs, message", [
    (3, (("1", "1"), ("2", "3"), ("3", "11")), "pairs ('1','1') and ('3','11') are not orthogonal"),
    (2, (("1", "2"), ("11", "1")), "pairs ('1','2') and ('11','1') are not orthogonal"),
    (2, (("1", "1"), ("11", "2"), ("2", "2")), "pair family is not canonical"),
    (2, (("1", "3"),), "letter out of alphabet in ('1', '3')"),
], ids=["domains-apart", "ranges-adjacent", "family-apart", "alphabet"])
def test_constructor_names_the_first_failure(n, pairs, message):
    """Comparable domains whose pairs are not neighbours, and a complete
    family split by a pair with a comparable range, are found as the
    literal checks find them."""
    with pytest.raises(StructureError, match=f"^{re.escape(message)}$"):
        CnElement(n, pairs)


# -- products and joins in the completion --------------------------------------------------


def test_cn_mul_spec_cases():
    a = CnElement.make(2, [("1", "1"), ("2", "2")])  # collapses to one
    b = CnElement.make(2, [("1", "2")])
    assert cn_mul(a, b) == b
    assert cn_mul(CnElement.make(2, [("", "1")]),
                  CnElement.make(2, [("2", "")])) == CnElement.zero(2)
    for x in [b, CnElement.zero(2), CnElement.one(2)]:
        assert cn_mul(x, CnElement.one(2)) == x


@pytest.mark.parametrize("n", [2, 3, 4])
def test_complete_family_joins_to_one(n):
    parts = [CnElement.make(n, [(c, c)]) for c in "123456"[:n]]
    assert reduce(cn_join, parts) == CnElement.one(n)


def test_join_with_zero():
    a = CnElement.make(2, [("1", "2")])
    assert cn_join(a, CnElement.zero(2)) == a
    assert cn_join(CnElement.zero(2), a) == a


def test_join_incompatible():
    assert cn_join(CnElement.make(2, [("1", "2")]),
                   CnElement.make(2, [("1", "1")])) is None


def test_join_absorbs_refinements():
    coarse = CnElement.one(2)
    fine = CnElement.make(2, [("1", "1")])
    assert cn_join(fine, coarse) == coarse
    assert cn_join(coarse, fine) == coarse


def test_join_consistent_refinement():
    a = CnElement.make(2, [("1", "2")])
    finer = CnElement.make(2, [("11", "21")])
    assert cn_join(a, finer) == a


def test_join_inconsistent_refinement():
    a = CnElement.make(2, [("1", "2")])
    twisted = CnElement.make(2, [("12", "21")])
    assert cn_join(a, twisted) is None


# -- units -------------------------------------------------------------------------------


def test_units_trivia():
    assert is_unit(CnElement.one(2))
    assert is_unit(CnElement.make(2, [("1", "1"), ("2", "2")]))  # collapses
    assert not is_unit(CnElement.zero(2))
    assert not is_unit(CnElement.make(2, [("1", "1")]))


def test_unit_three_pair_example():
    a = CnElement.make(2, [("1", "11"), ("21", "12"), ("22", "2")])
    assert is_unit(a)
    assert is_unit_definitional(a)


def test_maximal_prefix_code_checks():
    assert is_maximal_prefix_code(2, ["1", "21", "22"])
    assert not is_maximal_prefix_code(2, ["1", "21"])
    assert not is_maximal_prefix_code(2, ["1", "12"])
    assert not is_maximal_prefix_code(2, [])


def test_unit_agreement_seeded():
    rng = random.Random(5)
    for _ in range(400):
        a = random_cn_element(rng, 2, 4)
        assert is_unit(a) == is_unit_definitional(a)


def test_unit_group_closure_seeded():
    rng = random.Random(6)
    for _ in range(150):
        u, v = random_unit(rng, 2, 4), random_unit(rng, 2, 4)
        assert is_unit(cn_mul(u, v))
        assert is_unit(u.inverse())
        assert cn_mul(u, u.inverse()) == CnElement.one(2)


def product(*units):
    return reduce(cn_mul, units)


def commute(a, b):
    return product(a.inverse(), b.inverse(), a, b) == CnElement.one(a.n)


def test_thompson_f_and_its_torsion_inside_c2():
    """x0 and x1 generate Thompson's F inside the units of C_2: both
    defining relations hold and F is not abelian, and every proper quotient
    of F is abelian (Cannon, Floyd & Parry 1996, Thm 4.3).  With the
    generators inverted both relations fail, so the check sees the order
    of composition.  T and V add torsion: a rotation of order 3 and a
    transposition."""
    x0 = CnElement.make(2, [("11", "1"), ("12", "21"), ("2", "22")])
    x1 = CnElement.make(2, [("1", "1"), ("211", "21"), ("212", "221"), ("22", "222")])
    assert is_unit(x0) and is_unit(x1)

    def relations(x0, x1):
        a, back = product(x0, x1.inverse()), x0.inverse()
        return (commute(a, product(back, x1, x0)),
                commute(a, product(back, back, x1, x0, x0)))

    assert relations(x0, x1) == (True, True)
    assert not commute(x0, x1)
    assert relations(x0.inverse(), x1.inverse()) == (False, False)

    one = CnElement.one(2)
    rotation = CnElement.make(2, [("11", "2"), ("12", "11"), ("2", "12")])
    assert rotation != one and product(rotation, rotation) != one
    assert product(rotation, rotation, rotation) == one
    transposition = CnElement.make(2, [("1", "2"), ("2", "1")])
    assert transposition != one and product(transposition, transposition) == one


# -- C_n at finite depth ------------------------------------------------------------------


def depth_elements(n, depth):
    """Every partial bijection of the n^depth words of length ``depth``, in
    ``partial_bijections`` order, as a CnElement: the map p -> q becomes
    the pair (q, p)."""
    words = list(all_words(n, depth))
    return [CnElement.make(n, [(words[q], words[p]) for p, q in m])
            for m in partial_bijections(len(words))]


@pytest.mark.parametrize("n, depth", [(2, 1), (2, 2), (3, 1), (4, 1)])
def test_cn_at_finite_depth_is_the_symmetric_inverse_monoid(n, depth):
    """The elements of C_n built from words of one length d form I_{n^d}:
    cn_mul tabulates a boolean inverse monoid equal to it element for
    element, cn_join is its join, and its dual is the pair groupoid, whose
    arrows (p, q) compose as the shift arrows (p w, 0, q w) on a fixed tail."""
    elements = depth_elements(n, depth)
    index = {a: i for i, a in enumerate(elements)}
    assert len(index) == len(elements)
    monoid = InverseMonoid([[index[cn_mul(a, b)] for b in elements] for a in elements],
                           [index[a.inverse()] for a in elements],
                           zero=index[CnElement.zero(n)], one=index[CnElement.one(n)])
    assert monoid.check_boolean().is_boolean
    points = n ** depth
    MonoidMorphism(monoid, symmetric_inverse_monoid(points), tuple(range(monoid.n)))
    for s, a in enumerate(elements):
        for t, b in enumerate(elements):
            j = monoid.join(s, t)
            assert cn_join(a, b) == (None if j is None else elements[j]), (a, b)

    sg = stone_groupoid(monoid)
    pair = pair_groupoid(points)
    arrow_map = symmetric_to_pair_arrow_map(points, monoid, sg, pair)
    assert sorted(arrow_map) == list(range(pair.m))
    assert check_covering(CoveringFunctor(sg, pair, tuple(arrow_map))).ok
    assert round_trip_monoid(monoid, sg).forward

    words, tail = list(all_words(n, depth)), EvPeriodicWord.make("", "1")
    arrows = [CuntzArrow.make(words[p], words[q], tail) for p in range(points)
              for q in range(points)]                   # pair arrow p * points + q is (p, q)
    for g, h in np.ndindex(pair.m, pair.m):
        k = pair.compose[g, h]
        assert cuntz_compose(arrows[g], arrows[h]) == (None if k < 0 else arrows[k])


# -- the finite-depth oracle ------------------------------------------------------------


def test_oracle_of_one_is_diagonal():
    arrows = finite_depth_oracle(CnElement.one(2), 3)
    assert arrows == frozenset((w, w) for w in all_words(2, 3))
    assert len(arrows) == 8


def test_oracle_of_zero_empty():
    assert finite_depth_oracle(CnElement.zero(2), 2) == frozenset()


def test_oracle_depth_guard():
    a = CnElement.make(2, [("11", "2")])
    with pytest.raises(BoundError):
        finite_depth_oracle(a, 1)


def test_oracle_detects_equality():
    a = CnElement.make(2, [("1", "2")])
    b = CnElement.make(2, [("11", "21"), ("12", "22")])  # collapses back to a
    assert a == b
    depth = max(a.max_length(), b.max_length()) + 1
    assert finite_depth_oracle(a, depth) == finite_depth_oracle(b, depth)


def test_oracle_product_and_join_seeded():
    rng = random.Random(9)
    for _ in range(250):
        a = random_cn_element(rng, 2, 3)
        b = random_cn_element(rng, 2, 3)
        assert oracle_agrees_on_product(a, b)
        assert oracle_agrees_on_join(a, b)


# -- eventually periodic words ------------------------------------------------------------


def test_ev_normal_form_primitive():
    assert EvPeriodicWord.make("", "1212") == EvPeriodicWord.make("", "12")
    with pytest.raises(StructureError):
        EvPeriodicWord("", "1212")


def test_ev_normal_form_rotation():
    # 1(21)^w == (12)^w
    assert EvPeriodicWord.make("1", "21") == EvPeriodicWord.make("", "12")
    # 12(12)^w == (12)^w
    assert EvPeriodicWord.make("12", "12") == EvPeriodicWord.make("", "12")


def test_ev_prefix_and_shift():
    w = EvPeriodicWord.make("2", "12")
    assert w.prefix(6) == "212121"[:6]
    assert w.shift(1) == EvPeriodicWord.make("", "12")
    assert w.shift(2) == EvPeriodicWord.make("", "21")
    assert w.prepend("1") == EvPeriodicWord.make("", "12")  # 1 + 2121... = (12)^w


def test_ev_equality_matches_prefix_comparison():
    rng = random.Random(13)
    for _ in range(400):
        a = random_ev_word(rng, 2, 3, 3)
        b = random_ev_word(rng, 2, 3, 3)
        horizon = len(a.pre) + len(b.pre) + 2 * lcm(len(a.period), len(b.period))
        assert (a == b) == (a.prefix(horizon) == b.prefix(horizon))


def test_ev_shift_consistent_with_prefix():
    rng = random.Random(14)
    for _ in range(200):
        w = random_ev_word(rng, 2, 3, 3)
        k = rng.randint(0, 6)
        assert w.shift(k).prefix(8) == w.prefix(8 + k)[k:]


# -- arrows ------------------------------------------------------------------------------


def test_arrow_absorption():
    a = CuntzArrow.make("21", "11", EvPeriodicWord.make("", "1"))
    assert (a.target_prefix, a.source_prefix) == ("2", "1")
    assert a.shift == 0
    assert a.tail == EvPeriodicWord.make("", "1")  # 1(1)^w renormalizes


def test_arrow_absorption_tail():
    # (x 1, y 1, (2)^w) == (x, y, 1(2)^w)
    a = CuntzArrow.make("21", "11", EvPeriodicWord.make("", "2"))
    assert a.tail == EvPeriodicWord.make("1", "2")


def test_arrow_constructor_guards():
    w = EvPeriodicWord.make("", "1")
    with pytest.raises(StructureError):
        CuntzArrow("1", 1, "1", w)  # wrong shift
    with pytest.raises(StructureError):
        CuntzArrow("21", 0, "11", w)  # not absorbed


def test_compose_spec_example():
    w = EvPeriodicWord.make("", "1")
    g = CuntzArrow.make("1", "", w)          # (1 1^w, 1, 1^w)
    h = CuntzArrow.make("", "2", w)          # (1^w, -1, 2 1^w)
    gh = cuntz_compose(g, h)
    assert gh == CuntzArrow.make("1", "2", w)
    assert gh.shift == 0
    assert gh.target_word() == EvPeriodicWord.make("11", "1").prepend("")
    assert gh.source_word() == EvPeriodicWord.make("2", "1")


def test_compose_undefined_on_mismatch():
    w1 = EvPeriodicWord.make("", "1")
    w2 = EvPeriodicWord.make("", "2")
    g = CuntzArrow.make("1", "", w1)
    h = CuntzArrow.make("1", "", w2)
    assert cuntz_compose(g, h) is None


def test_arrow_inverse_and_identity():
    rng = random.Random(17)
    for _ in range(300):
        g = random_arrow(rng, 2, 3, 2, 2)
        inv = g.inverse()
        assert inv.inverse() == g
        assert cuntz_compose(g, inv) == CuntzArrow.identity(g.target_word())
        assert cuntz_compose(inv, g) == CuntzArrow.identity(g.source_word())
        assert cuntz_compose(cuntz_compose(g, inv), g) == g


def composable_out_of(rng, word):
    """A random arrow whose target word is the given point."""
    cut = rng.randint(0, 3)
    return CuntzArrow.make(word.prefix(cut),
                           "".join(rng.choice("12") for _ in range(rng.randint(0, 3))),
                           word.shift(cut))


def test_arrow_composition_associative_sampled():
    rng = random.Random(19)
    for _ in range(200):
        g = random_arrow(rng, 2, 2, 2, 2)
        h = composable_out_of(rng, g.source_word())
        k = composable_out_of(rng, h.source_word())
        gh = cuntz_compose(g, h)
        hk = cuntz_compose(h, k)
        assert gh is not None and hk is not None
        assert cuntz_compose(gh, k) == cuntz_compose(g, hk) is not None


def test_arrow_shift_adds_under_composition():
    rng = random.Random(23)
    for _ in range(200):
        g = random_arrow(rng, 2, 3, 2, 2)
        h = composable_out_of(rng, g.source_word())
        assert cuntz_compose(g, h).shift == g.shift + h.shift


# -- points as filters of the polycyclic monoid ----------------------------------------------


def test_point_identification_trivial():
    z = EvPeriodicWord.make("1", "2")
    assert ultrafilter_to_arrow(ONE, z) == CuntzArrow.identity(z)


def test_point_identification_spec_example():
    z = EvPeriodicWord.make("2", "1")        # 2 1^w
    arrow = ultrafilter_to_arrow(pe("1", "2"), z)
    assert arrow == CuntzArrow.make("1", "2", EvPeriodicWord.make("", "1"))
    rep, back = arrow_to_ultrafilter(arrow)
    assert rep == pe("1", "2")
    assert back == z


def test_point_identification_k2():
    z = EvPeriodicWord.make("", "1")
    arrow = ultrafilter_to_arrow(pe("11", ""), z)
    assert arrow.shift == 2
    assert arrow_to_ultrafilter(arrow) == (pe("11", ""), z)


def test_point_identification_requires_prefix():
    z = EvPeriodicWord.make("1", "2")
    with pytest.raises(StructureError):
        ultrafilter_to_arrow(pe("1", "2"), z)
    with pytest.raises(StructureError):
        ultrafilter_to_arrow(ZERO, z)


def test_point_round_trip_seeded():
    rng = random.Random(29)
    for n in (2, 3):
        for _ in range(250):
            g = random_arrow(rng, n, 4, 4, 3)
            rep, z = arrow_to_ultrafilter(g)
            assert ultrafilter_to_arrow(rep, z) == g


def test_representative_independence_seeded():
    rng = random.Random(31)
    for _ in range(100):
        g = random_arrow(rng, 2, 3, 3, 3)
        rep, z = arrow_to_ultrafilter(g)
        w = z.shift(len(rep.y))
        p = w.prefix(rng.randint(1, 3))
        fattened = pe(rep.x + p, rep.y + p)
        assert ultrafilter_to_arrow(fattened, z) == g


# -- text syntax -----------------------------------------------------------------------------


def test_word_round_trip():
    for w in ["", "1", "12", "2121"]:
        assert parse_word(format_word(w)) == w
    assert format_word("") == "e"
    with pytest.raises(ParseError):
        parse_word("b1")
    with pytest.raises(ParseError):
        parse_word("a3", n=2)


def test_a_letter_outside_the_alphabet_is_named_in_the_error():
    assert parse_word("a2a1", n=2) == "21"
    for text in ("a3", "a1a3", "a2a2a9"):
        with pytest.raises(ParseError, match=rf"^letter out of range in '{text}'$"):
            parse_word(text, n=2)
    with pytest.raises(ParseError, match=r"^letter out of range in 'a1a2'$"):
        parse_poly("a1a2.e*", n=1)


def test_poly_round_trip():
    for p in [ZERO, ONE, pe("1", "2"), pe("12", ""), pe("", "21")]:
        assert parse_poly(format_poly(p)) == p
    assert format_poly(pe("1", "2")) == "a1.a2*"
    with pytest.raises(ParseError):
        parse_poly("a1.a2")


def test_cn_round_trip():
    examples = [
        CnElement.zero(2),
        CnElement.one(2),
        CnElement.make(2, [("1", "11"), ("21", "12"), ("22", "2")]),
    ]
    for a in examples:
        assert parse_cn(format_cn(a), a.n) == a
    parsed = parse_cn("{a1/a1a1, a2a1/a1a2, a2a2/a2}", 2)
    assert is_unit(parsed)
    assert format_cn(parsed) == "{a1/a1a1, a2a1/a1a2, a2a2/a2}"


def test_ev_round_trip():
    examples = [EvPeriodicWord.make("", "1"), EvPeriodicWord.make("2", "1"),
                EvPeriodicWord.make("12", "112")]
    for w in examples:
        assert parse_ev(format_ev(w)) == w
    assert format_ev(EvPeriodicWord.make("", "12")) == "(a1a2)^w"
    assert parse_ev("e(a1)^w") == EvPeriodicWord.make("", "1")
    with pytest.raises(ParseError):
        parse_ev("a1^w")


def test_parser_canonicalizes():
    assert parse_cn("{a1/a1, a2/a2}", 2) == CnElement.one(2)
    assert parse_ev("a1(a1)^w") == EvPeriodicWord.make("", "1")
