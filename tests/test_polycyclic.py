"""Prefix-pair arithmetic, orthogonal families, infinite-word arrows."""

import random
import re
from collections import Counter
from functools import reduce
from math import lcm

import numpy as np
import pytest

from helpers import (
    random_poly,
    random_unit,
    reference_canonical_pairs,
    reference_cn_mul,
    scan_parse_cn,
    scan_parse_word,
    sliced_cn_mul,
    symmetric_to_pair_arrow_map,
)
from stonework import (
    BoundError,
    CoveringFunctor,
    InverseMonoid,
    MonoidMorphism,
    ParseError,
    StoneworkError,
    StructureError,
    check_covering,
    pair_groupoid,
    partial_bijections,
    round_trip_monoid,
    stone_groupoid,
    symmetric_inverse_monoid,
)
from stonework import polycyclic
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
    letters,
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
    random_word,
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


@pytest.mark.parametrize("n", [2, 3, 4])
def test_canonical_form_under_cascading_merges(n):
    """Complete sibling trees of depth 1-3 under random stems merge round
    after round up to their stems.  Each family also has a leaf dropped, a
    sibling on a letter outside the alphabet, or loose pairs added, so some
    cascades stop part way; every result is the reference fixpoint's."""
    rng = random.Random(n)
    outside = letters(n + 1)[-1]
    cascaded = 0
    for _ in range(700):
        trees = [(random_word(rng, n, 2), random_word(rng, n, 2), rng.randint(1, 3))
                 for _ in range(rng.randint(1, 3))]
        pairs = [(sx + w, sy + w) for sx, sy, depth in trees for w in all_words(n, depth)]
        edit = rng.randrange(3)
        if edit == 0:
            pairs.pop(rng.randrange(len(pairs)))
        elif edit == 1:
            x, y = rng.choice(pairs)
            pairs.append((x[:-1] + outside, y[:-1] + outside))
        else:
            pairs += [(random_word(rng, n + 1, 4), random_word(rng, n + 1, 4))
                      for _ in range(rng.randint(1, 3))]
        rng.shuffle(pairs)
        canonical = reference_canonical_pairs(n, pairs)
        assert _canonical_pairs(n, pairs) == canonical
        cascaded += any(depth > 1 and (sx, sy) in canonical for sx, sy, depth in trees)
    assert cascaded > 100


def test_constructor_canonicalizes_and_refuses_what_cannot_be_fixed():
    assert CnElement(2, (("2", "2"), ("1", "1"))) == CnElement.one(2)
    shuffled = iter([("2", "1"), ("1", "2"), ("2", "1")])
    assert CnElement(2, shuffled).pairs == (("1", "2"), ("2", "1"))
    with pytest.raises(StructureError):
        CnElement(2, (("1", "1"), ("1", "2")))
    with pytest.raises(BoundError):
        CnElement(7, ())
    assert CnElement(np.int64(2), (("1", "1"), ("2", "2"))) == CnElement.one(2)


@pytest.mark.parametrize("n, pairs, message", [
    (3, (("1", "1"), ("2", "3"), ("3", "11")), "pairs ('1','1') and ('3','11') are not orthogonal"),
    (2, (("1", "2"), ("11", "1")), "pairs ('1','2') and ('11','1') are not orthogonal"),
    (2, (("1", "1"), ("11", "2"), ("2", "2")), "pairs ('','') and ('11','2') are not orthogonal"),
    (2, (("1", "3"),), "letter out of alphabet in ('1', '3')"),
    (2, (("1", "1"), ("2", "0")), "letter out of alphabet in ('2', '0')"),
], ids=["domains-apart", "ranges-adjacent", "family-apart", "alphabet", "below-alphabet"])
def test_constructor_names_the_first_failure(n, pairs, message):
    """Comparable domains whose pairs are not neighbours are found as the
    literal checks find them, and a complete family split by a pair with a
    comparable range is merged first, so the refusal names the merged pair."""
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


THOMPSON_X0 = CnElement.make(2, [("11", "1"), ("12", "21"), ("2", "22")])
THOMPSON_X1 = CnElement.make(2, [("1", "1"), ("211", "21"), ("212", "221"), ("22", "222")])


def test_cn_mul_agrees_with_the_per_prefix_product():
    """One bisect per pair of a finds what slicing every prefix of y finds:
    on seeded elements and units for n = 2..6, and on x0^k x1^k x0^-k in
    C_2 up to k = 64, products whose pairs reach depth k."""
    rng = random.Random(2027)
    for _ in range(300):
        n = rng.randint(2, 6)
        a, b = (rng.choice([random_cn_element, random_unit])(rng, n, rng.randint(0, 8))
                for _ in range(2))
        assert cn_mul(a, b) == sliced_cn_mul(a, b)
    x0, x1 = THOMPSON_X0, THOMPSON_X1
    x0_inv = x0.inverse()
    power0, power1, power0_inv = (CnElement.one(2),) * 3
    for k in range(1, 65):
        power0, power1 = cn_mul(power0, x0), cn_mul(power1, x1)
        power0_inv = cn_mul(x0_inv, power0_inv)
        word = cn_mul(cn_mul(power0, power1), power0_inv)
        for a, b in ((power0, x0), (power1, x1), (x0_inv, power0_inv),
                     (power0, power1), (cn_mul(power0, power1), power0_inv)):
            assert cn_mul(a, b) == sliced_cn_mul(a, b)
            if k % 8 == 0:      # the pairwise literal product, at every eighth depth
                assert cn_mul(a, b).pairs == reference_cn_mul(a, b)
        assert is_unit(word) and cn_mul(word, word.inverse()) == CnElement.one(2)
    assert power0.max_length() == 65 and word.max_length() >= 64


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
    x0, x1 = THOMPSON_X0, THOMPSON_X1
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
    assert round_trip_monoid(monoid).forward

    words, tail = list(all_words(n, depth)), EvPeriodicWord("", "1")
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


def seeded_element_pairs():
    """250 seeded pairs of C_2 elements of at most three splits each."""
    rng = random.Random(9)
    return [(random_cn_element(rng, 2, 3), random_cn_element(rng, 2, 3)) for _ in range(250)]


def test_oracle_product_and_join_seeded():
    for a, b in seeded_element_pairs():
        assert oracle_agrees_on_product(a, b)
        assert oracle_agrees_on_join(a, b)


def join_dropping_the_first_pair(a, b):
    joined = cn_join(a, b)
    return None if joined is None else CnElement(joined.n, joined.pairs[1:])


@pytest.mark.parametrize("wrong_join", [lambda a, b: None, lambda a, b: a,
                                        join_dropping_the_first_pair],
                         ids=["none", "left-operand", "first-pair-dropped"])
def test_the_join_oracle_refuses_a_wrong_join(monkeypatch, wrong_join):
    monkeypatch.setattr(polycyclic, "cn_join", wrong_join)
    assert not all(oracle_agrees_on_join(a, b) for a, b in seeded_element_pairs())


def test_the_product_oracle_refuses_a_product_with_its_operands_swapped(monkeypatch):
    monkeypatch.setattr(polycyclic, "cn_mul", lambda a, b: cn_mul(b, a))
    assert not all(oracle_agrees_on_product(a, b) for a, b in seeded_element_pairs())


# -- eventually periodic words ------------------------------------------------------------


def test_ev_normal_form_primitive():
    w = EvPeriodicWord("", "1212")
    assert (w.pre, w.period) == ("", "12")
    assert w == EvPeriodicWord("1", "2121")


def test_ev_normal_form_rotation():
    # 1(21)^w == (12)^w
    assert EvPeriodicWord("1", "21") == EvPeriodicWord("", "12")
    # 12(12)^w == (12)^w
    assert EvPeriodicWord("12", "12") == EvPeriodicWord("", "12")


def test_ev_prefix_and_shift():
    w = EvPeriodicWord("2", "12")
    assert w.prefix(6) == "212121"[:6]
    assert w.shift(1) == EvPeriodicWord("", "12")
    assert w.shift(2) == EvPeriodicWord("", "21")
    assert w.prepend("1") == EvPeriodicWord("", "12")  # 1 + 2121... = (12)^w


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
    a = CuntzArrow.make("21", "11", EvPeriodicWord("", "1"))
    assert (a.target_prefix, a.source_prefix) == ("2", "1")
    assert a.shift == 0
    assert a.tail == EvPeriodicWord("", "1")  # 1(1)^w renormalizes


def test_arrow_absorption_tail():
    # (x 1, y 1, (2)^w) == (x, y, 1(2)^w)
    a = CuntzArrow.make("21", "11", EvPeriodicWord("", "2"))
    assert a.tail == EvPeriodicWord("1", "2")


def test_arrow_constructor_guards():
    w = EvPeriodicWord("", "1")
    with pytest.raises(StructureError, match="^stored shift disagrees with the prefix lengths$"):
        CuntzArrow("1", 1, "1", w)
    with pytest.raises(StructureError):
        CuntzArrow("21", 1, "11", w)  # the shift is checked before absorbing
    a = CuntzArrow("21", 0, "11", w)
    assert (a.target_prefix, a.shift, a.source_prefix, a.tail) == ("2", 0, "1", w)


def test_compose_spec_example():
    w = EvPeriodicWord("", "1")
    g = CuntzArrow.make("1", "", w)          # (1 1^w, 1, 1^w)
    h = CuntzArrow.make("", "2", w)          # (1^w, -1, 2 1^w)
    gh = cuntz_compose(g, h)
    assert gh == CuntzArrow.make("1", "2", w)
    assert gh.shift == 0
    assert gh.target_word() == EvPeriodicWord("11", "1").prepend("")
    assert gh.source_word() == EvPeriodicWord("2", "1")


def test_compose_undefined_on_mismatch():
    w1 = EvPeriodicWord("", "1")
    w2 = EvPeriodicWord("", "2")
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
    z = EvPeriodicWord("1", "2")
    assert ultrafilter_to_arrow(ONE, z) == CuntzArrow.identity(z)


def test_point_identification_spec_example():
    z = EvPeriodicWord("2", "1")        # 2 1^w
    arrow = ultrafilter_to_arrow(pe("1", "2"), z)
    assert arrow == CuntzArrow.make("1", "2", EvPeriodicWord("", "1"))
    rep, back = arrow_to_ultrafilter(arrow)
    assert rep == pe("1", "2")
    assert back == z


def test_point_identification_k2():
    z = EvPeriodicWord("", "1")
    arrow = ultrafilter_to_arrow(pe("11", ""), z)
    assert arrow.shift == 2
    assert arrow_to_ultrafilter(arrow) == (pe("11", ""), z)


def test_point_identification_requires_prefix():
    z = EvPeriodicWord("1", "2")
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


# -- the point identification respects the groupoid structure -------------------------------

POINT_TAILS = {     # purely periodic and pre-periodic, with periods of length 1 and 2
    2: [("", "1"), ("", "12"), ("2", "1"), ("1", "12")],
    3: [("", "3"), ("", "13"), ("2", "1"), ("3", "12")],
}


def identified(rep, point):
    """The arrow of the filter with representative ``rep`` over ``point``,
    with the checks that need only the one filter: its dom, ran and
    inverse filters give the identities at its ends and its inverse arrow."""
    g = ultrafilter_to_arrow(rep, point)
    target = g.target_word()
    assert g.source_word() == point and target == point.shift(len(rep.y)).prepend(rep.x)
    assert ultrafilter_to_arrow(poly_mul(rep.inverse(), rep), point) == CuntzArrow.identity(point)
    assert ultrafilter_to_arrow(poly_mul(rep, rep.inverse()), target) == CuntzArrow.identity(target)
    assert ultrafilter_to_arrow(rep.inverse(), target) == g.inverse()
    return g


def assert_products_are_compositions(filters):
    """``filters`` maps (rep, point) to its arrow.  For every pair whose
    arrows compose, the product of the representatives over the second
    point is the composite arrow; pairs that do not compose are counted."""
    by_target = {}
    for (rep, point), h in filters.items():
        by_target.setdefault(h.target_word(), []).append((rep, point, h))
    pairs = 0
    for (rep_g, _), g in filters.items():
        for rep_h, point_h, h in by_target.get(g.source_word(), ()):
            assert ultrafilter_to_arrow(poly_mul(rep_g, rep_h), point_h) == cuntz_compose(g, h)
            pairs += 1
    return pairs


@pytest.mark.parametrize("n, max_len", [(2, 3), (3, 2)])
def test_point_identification_respects_the_groupoid(n, max_len):
    """Every representative x y^-1 with |x|, |y| <= max_len over every point
    y w, for each tail w of POINT_TAILS: the identified arrows multiply as
    their filters do, invert as they do, and have the identities at the
    filters' dom and ran as their ends; the unit filter over a point is its
    identity arrow.  (n = 3 stops at length 2 to keep the run short.)"""
    words, pairs = words_up_to(n, max_len), 0
    for pre, period in POINT_TAILS[n]:
        tail = EvPeriodicWord(pre, period)
        points = {y: tail.prepend(y) for y in words}
        for point in points.values():
            assert ultrafilter_to_arrow(ONE, point) == CuntzArrow.identity(point)
        filters = {(pe(x, y), points[y]): identified(pe(x, y), points[y])
                   for x in words for y in words}
        pairs += assert_products_are_compositions(filters)
    assert pairs >= len(POINT_TAILS[n]) * len(words) ** 3       # at least every u = y


def test_point_identification_respects_the_groupoid_on_long_arrows():
    """Seeded long arrows g and arrows h into their source, through the
    representatives arrow_to_ultrafilter gives."""
    rng = random.Random(37)
    for n in (2, 3):
        for _ in range(150):
            g = random_arrow(rng, n, 8, 6, 4)
            cut = rng.randint(0, 10)
            h = CuntzArrow.make(g.source_word().prefix(cut), random_word(rng, n, 8),
                                g.source_word().shift(cut))
            filters = {arrow_to_ultrafilter(a): a for a in (g, h)}
            assert all(identified(rep, point) == a for (rep, point), a in filters.items())
            assert assert_products_are_compositions(filters) >= 1


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
    # the top letter of the first n bounds a word for every n, sizes C_n is not built for too
    for n in (-1, 0, 1, 2, 6, 7, 9, 10):
        for text in ("e", "a1", "a2a1", "a6", "a7a1", "a9", "a1a8"):
            assert _outcome(parse_word, text, n) == _outcome(scan_parse_word, text, n)


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
    examples = [EvPeriodicWord("", "1"), EvPeriodicWord("2", "1"),
                EvPeriodicWord("12", "112")]
    for w in examples:
        assert parse_ev(format_ev(w)) == w
    assert format_ev(EvPeriodicWord("", "12")) == "(a1a2)^w"
    assert parse_ev("e(a1)^w") == EvPeriodicWord("", "1")
    with pytest.raises(ParseError):
        parse_ev("a1^w")


def test_parser_canonicalizes():
    assert parse_cn("{a1/a1, a2/a2}", 2) == CnElement.one(2)
    assert parse_ev("a1(a1)^w") == EvPeriodicWord("", "1")


def test_str_is_the_text_form_and_parses_back():
    for p in [ZERO, ONE, pe("1", "21")]:
        assert str(p) == format_poly(p) and parse_poly(str(p)) == p
    rng = random.Random(23)
    for _ in range(100):
        a = random_cn_element(rng, 3, 4)
        assert str(a) == format_cn(a) and parse_cn(str(a), 3) == a
        w = random_ev_word(rng, 3, 3, 3)
        assert str(w) == format_ev(w) and parse_ev(str(w), 3) == w
    assert str(EvPeriodicWord("1", "1212")) == "a1(a1a2)^w"
    # an arrow prints its target and source words, each as prefix|tail, around its shift
    g = CuntzArrow.make("21", "1", EvPeriodicWord("", "2"))
    assert str(g) == "(a2|a1(a2)^w, 1, e|a1(a2)^w)"


WHITESPACE = " \t\n\f\v\u00a0"


def _pair_text(pairs) -> str:
    return "{" + ", ".join(f"{format_word(x)}/{format_word(y)}" for x, y in pairs) + "}"


def _mutated_family(rng, n: int) -> str:
    """A printed family, or its pairs re-printed with one family split into
    siblings or an overlapping pair added, then edited up to twice: spaces,
    a letter past n, a lost brace, an empty pair, a double slash, a trailing
    comma, or an ``e`` form."""
    size = min(max(n, 2), 6)     # the printed family is over an alphabet C_n is built for
    element = rng.choice([random_cn_element, random_unit])(rng, size, 4)
    pairs = list(element.pairs)
    shape = rng.choice(["printed", "printed", "merging", "overlapping", "shuffled"])
    if shape == "merging" and pairs:
        x, y = pairs.pop(rng.randrange(len(pairs)))
        pairs += [(x + c, y + c) for c in letters(size)]
    elif shape == "overlapping" and pairs:
        x, y = rng.choice(pairs)
        pairs.append(rng.choice([(x + "1", "2" * 9), ("2" * 9, y + "1")]))
    if shape != "printed":
        rng.shuffle(pairs)
    text = _pair_text(pairs)
    for _ in range(rng.randint(0, 2)):
        edit = rng.choice(["space", "space", "space", "letter", "brace", "empty pair",
                           "double slash", "trailing comma", "e form"])
        at = rng.randrange(len(text) + 1)
        if edit == "space":
            gap = "".join(rng.choice(WHITESPACE) for _ in range(rng.randint(1, 3)))
            spots = [i for i, c in enumerate(text) if c in "{}/,"] + [0, len(text)]
            at = rng.choice(spots) + rng.choice([0, 1]) if rng.random() < 0.8 else at
            text = text[:at] + gap + text[at:]
        elif edit == "letter" and any(c.isdigit() for c in text):
            at = rng.choice([i for i, c in enumerate(text) if c.isdigit()])
            text = text[:at] + str(min(n + 1, 9)) + text[at + 1:]
        elif edit == "brace":
            text = text[1:] if rng.random() < 0.5 else text[:-1]
        elif edit == "empty pair":
            text = text.replace(", ", ", , ", 1) if ", " in text else "{, " + text[1:]
        elif edit == "double slash":
            text = text.replace("/", "//", 1)
        elif edit == "trailing comma":
            text = text[:-1] + ",}"
        elif edit == "e form":
            text = text.replace(rng.choice(["a1", "a2"]), rng.choice(["e", "ee", "ea1", " e "]), 1)
    return text


def _outcome(parse, text: str, n: int):
    try:
        return parse(text, n)
    except StoneworkError as err:
        return type(err), str(err)


def test_parse_cn_agrees_with_the_chunk_scan_on_mutated_texts():
    """Every text gives an equal element, or the same exception type and
    message, as the chunk-by-chunk parser: 600 seeded texts for n = 2..6
    and for n = 0, 1, 7 and 10, printed families mutated by whitespace
    (including \\t, \\n, \\f, \\v and U+00A0), letters past n, lost braces,
    empty pairs, double slashes, trailing commas, e forms, families that
    merge and families that are not orthogonal."""
    rng = random.Random(27)
    kinds = Counter()
    for _ in range(600):
        n = rng.choice([2, 3, 4, 5, 6, 2, 3, 0, 1, 7, 10])
        text = _mutated_family(rng, n)
        got = _outcome(parse_cn, text, n)
        assert got == _outcome(scan_parse_cn, text, n), (text, n)
        kind = got[0].__name__ if type(got) is tuple else "accepted"
        kinds[kind] += 1
        if kind == "accepted" and any(c in text for c in WHITESPACE[1:]):
            kinds["accepted with other whitespace"] += 1
    assert set(kinds) == {"accepted", "accepted with other whitespace", "ParseError",
                          "StructureError", "BoundError"}, kinds
    assert min(kinds.values()) >= 20, kinds


def test_whitespace_the_family_pattern_allows_is_what_strip_removes():
    """``\\s`` and ``str.isspace`` agree on every code point, so the one match
    allows whitespace exactly where the chunk scan strips it."""
    every = "".join(map(chr, range(0x110000)))
    assert re.findall(r"\s", every) == [c for c in every if c.isspace()]
