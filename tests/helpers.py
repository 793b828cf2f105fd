"""Shared fixtures-by-hand for the duality and acceptance tests."""

import functools
import itertools
import json
import random
import re
from bisect import bisect_right
from contextlib import suppress
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from stonework import (
    boolean_algebra_monoid,
    clifford_monoid,
    group_with_zero_monoid,
    symmetric_inverse_monoid,
)
from stonework.duality import MonoidMorphism, basic_opens, point_ultrafilter, stone_groupoid
from stonework.errors import MorphismError, ParseError, StructureError
from stonework.filters import (
    contains_idempotent,
    enumerate_ultrafilters,
    filter_doms,
    filter_inverses,
    filter_of,
    filter_products,
    idempotent_part_ultra,
    least_members,
    prime_property_holds,
    ultra_by_meet,
    ultrafilter_groupoid,
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
from stonework.inverse_core import (InverseMonoid, OrderData, first_failure, inclusions,
                                    partial_bijections)
from stonework.polycyclic import (
    CnElement,
    PolyElement,
    letters,
    poly_mul,
    random_prefix_code,
    random_word,
)
from stonework.serialize import _TABLE_END, _TABLE_LAYOUT, _codec, _entry_name, _fields


def corpus_monoids():
    """The stock boolean monoids every exhaustive suite runs over."""
    return {
        "ix1": symmetric_inverse_monoid(1),
        "ix2": symmetric_inverse_monoid(2),
        "ix3": symmetric_inverse_monoid(3),
        "ba1": boolean_algebra_monoid(1),
        "ba2": boolean_algebra_monoid(2),
        "ba3": boolean_algebra_monoid(3),
        "ba4": boolean_algebra_monoid(4),
        "z2_zero": group_with_zero_monoid(2),
        "z3_zero": group_with_zero_monoid(3),
        "clifford": clifford_monoid(),
    }


# -- filters as int bitmasks: bit s for element s ---------------------------------


def iter_bits(mask):
    """Yield the set bit positions of an int bitmask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices):
    """The int bitmask with the given bits set."""
    out = 0
    for i in indices:
        out |= 1 << int(i)
    return out


def up_mask(monoid, s):
    """The bitmask of up(s), read off the order matrix."""
    return mask_of(np.flatnonzero(monoid.order().matrix[s]))


def element_product_mask(monoid, a, b):
    """Reference set product of the filters up(a) and up(b): the bitmask of
    {x y : x in up(a), y in up(b)}, with no upward closure (the bit loop
    filter products ran before they became dense)."""
    leq, out = monoid.order().matrix, 0
    ys = np.flatnonzero(leq[b]).tolist()
    for x in np.flatnonzero(leq[a]).tolist():
        for y in ys:
            out |= 1 << int(monoid.mul[x, y])
    return out


def upward_closure(monoid, mask):
    """Reference upward closure: the union of the up-sets of a bitmask's members."""
    out = 0
    for s in iter_bits(mask):
        out |= up_mask(monoid, s)
    return out


def reference_ultrafilters(monoid):
    """The ultrafilters, as their generators, in the order
    enumerate_ultrafilters gave them when filters were bitmasks: by least
    member index, ties by the member bitmask."""
    return sorted(monoid.atoms, key=lambda a: (min(iter_bits(up_mask(monoid, a))),
                                               up_mask(monoid, a)))


def reference_ultra_by_meet(monoid, g):
    """The meet criterion, one filter up(g) at a time: proper, and every s
    outside the filter meets some member in zero."""
    members = up_mask(monoid, g)
    return not (members >> monoid.zero) & 1 and all(
        any(monoid.meet(s, a) == monoid.zero for a in iter_bits(members))
        for s in range(monoid.n) if not (members >> s) & 1)


def reference_ultra_by_maximality(monoid, g):
    """Maximality, one filter up(g) at a time: proper, and no principal
    filter up(s), s non-zero, strictly contains it."""
    members = up_mask(monoid, g)
    return not (members >> monoid.zero) & 1 and not any(
        (up := up_mask(monoid, s)) & members == members and up != members
        for s in range(monoid.n) if s != monoid.zero)


def reference_idempotent_part_ultra(monoid, g):
    """Is E(F) = F & E an ultrafilter of the idempotent algebra, for
    F = up(g)?  One filter at a time, by bitmasks."""
    emask = mask_of(monoid.idempotents)
    part = up_mask(monoid, g) & emask
    if part == 0 or (part >> monoid.zero) & 1:
        return False
    return not any((up := up_mask(monoid, e) & emask) & part == part and up != part
                   for e in monoid.idempotents if e != monoid.zero)


def reference_contains_idempotent(monoid, g):
    """Does the filter up(g) hold an idempotent?  One member at a time."""
    return any(monoid.is_idempotent(s) for s in iter_bits(up_mask(monoid, g)))


def first_associativity_failure(mul, rows=None):
    """Reference n^3 scan: the first (x, y, z) with (x y) z != x (y z),
    scanning x over ``rows`` (default: every element), or None."""
    mul = np.asarray(mul)
    for x in range(len(mul)) if rows is None else rows:
        left = mul[mul[x]]              # (x y) z
        right = mul[x][mul]             # x (y z)
        if not np.array_equal(left, right):
            y, z = map(int, np.argwhere(left != right)[0])
            return x, y, z
    return None


def reference_inverse_uniqueness_failure(mul, inv):
    """The uniqueness scan ``InverseMonoid`` ran before its definition check
    sufficed: the message naming the first s whose inverses (the t with
    s t s = s and t s t = t) are not exactly ``[inv[s]]``, or None.  On a
    table that passes the definition it always passes (Howie, Thm 5.1.1)."""
    mul = np.asarray(mul)
    rng = np.arange(len(mul))
    for s in rng.tolist():
        sts = mul[mul[s], s]                # (s t) s over t
        tst = mul[mul[:, s], rng]           # (t s) t over t
        witnesses = np.nonzero((sts == s) & (tst == rng))[0]
        if len(witnesses) != 1 or int(witnesses[0]) != inv[s]:
            return f"inverse of {s} is not unique: {witnesses.tolist()}"
    return None


def first_groupoid_failure(d, r, inv, compose, identities, *, implied=True):
    """Reference groupoid validation: the Python loops over a dict of
    composable pairs ``{(g, h): k}`` that ``FiniteGroupoid`` ran before its
    table became dense.  With ``implied`` false it skips the two checks that
    ``FiniteGroupoid`` leaves to Light's test, a composite's dom/ran and an
    involutive inverse.  Associativity is scanned over every triple in
    ascending order, undefined read as an absorbing arrow m; once the checks
    before it pass, only defined triples can fail.  Returns the message of
    the first failure, or None."""
    m, ids = len(d), set(identities)
    if len(r) != m or len(inv) != m:
        return "d/r/inv length mismatch"
    for name, values in (("d", d), ("r", r), ("inv", inv), ("identities", identities),
                         ("compose", [x for key, k in compose.items() for x in (*key, k)])):
        if any(not 0 <= x < m for x in values):
            return f"{name} has an arrow index outside 0..{m - 1}"
    for g in range(m):
        if not (d[g] in ids and r[g] in ids):
            return f"dom/ran of {g} is not an identity"
    for e in sorted(ids):
        if not (d[e] == e and r[e] == e):
            return f"identity {e} has displaced dom/ran"
    for (g, h), k in compose.items():
        if d[g] != r[h]:
            return f"composition defined on non-composable ({g}, {h})"
        if implied and (d[k] != d[h] or r[k] != r[g]):
            return f"composite ({g}, {h}) has wrong dom/ran"
    for g in range(m):
        for h in range(m):
            if d[g] == r[h] and (g, h) not in compose:
                return f"composable pair ({g}, {h}) left undefined"
    for g in range(m):
        if implied and inv[inv[g]] != g:
            return f"inverse not involutive at {g}"
        if compose.get((g, inv[g])) != r[g]:
            return f"g g^-1 != ran(g) at {g}"
        if compose.get((inv[g], g)) != d[g]:
            return f"g^-1 g != dom(g) at {g}"
        if compose[(r[g], g)] != g or compose[(g, d[g])] != g:
            return f"identities do not act neutrally at {g}"
    table = np.full((m + 1, m + 1), m)
    for (g, h), k in compose.items():
        table[g, h] = k
    if triple := first_associativity_failure(table, range(m)):
        return "associativity fails at ({}, {}, {})".format(*triple)
    return None


def reference_functor_failure(source, target, arrow_map, *, implied=True):
    """Reference functor validation, the loops that ``CoveringFunctor`` ran
    before it left identities and dom/ran to composition: the message of
    the first identity not sent to an identity, then of the first arrow
    whose dom or ran is not preserved, then of the first composable pair
    whose composite is not; or None.  With ``implied`` false only
    composition is checked."""
    f, src_d, src_r, tgt_d, tgt_r = arrow_map, source.d, source.r, target.d, target.r
    if implied:
        for e in source.identities:
            if f[e] not in target.identities:
                return f"identity {e} not sent to an identity"
        for g in range(source.m):
            if tgt_d[f[g]] != f[src_d[g]] or tgt_r[f[g]] != f[src_r[g]]:
                return f"dom/ran not preserved at {g}"
    image = target.compose.tolist()
    for g, row in enumerate(source.compose.tolist()):
        for h, k in enumerate(row):
            if k >= 0 and image[f[g]][f[h]] != f[k]:
                return f"composition not preserved at ({g}, {h})"
    return None


def reference_star_bijective(f):
    """Is the functor f bijective from each star(e) onto star(f(e))?"""
    src, tgt = f.source, f.target
    return all(sorted(f.arrow_map[g] for g in src.star(e)) == sorted(tgt.star(f.arrow_map[e]))
               for e in src.identities)


def reference_lifting_failure(f):
    """The factorization lifting property, checked directly: every a b = f(x)
    in the target lifts to some u v = x with f(u) = a and f(v) = b.  Returns
    the first unlifted (x, a, b), or None."""
    src, tgt = f.source, f.target
    arrows = np.array(f.arrow_map, dtype=np.int64)
    for x in range(src.m):
        lifted = np.zeros((tgt.m, tgt.m), dtype=bool)
        u, v = np.nonzero(src.compose == x)
        lifted[arrows[u], arrows[v]] = True
        unlifted = (tgt.compose == arrows[x]) & ~lifted
        if unlifted.any():
            a, b = map(int, np.argwhere(unlifted)[0])
            return x, a, b
    return None


def relabelled(payload, seed):
    """The same monoid with its indices permuted by a seeded shuffle."""
    n = payload["n"]
    perm = list(range(n))
    random.Random(seed).shuffle(perm)           # old index s becomes perm[s]
    mul = [[0] * n for _ in range(n)]
    inv, labels = [0] * n, [""] * n
    for s in range(n):
        for t in range(n):
            mul[perm[s]][perm[t]] = perm[payload["mul"][s][t]]
        inv[perm[s]] = perm[payload["inv"][s]]
        labels[perm[s]] = payload["labels"][s]
    return {"n": n, "zero": perm[payload["zero"]], "one": perm[payload["one"]],
            "inv": inv, "mul": mul, "labels": labels}


def symmetric_to_pair_arrow_map(x_size, ix, sg, pair):
    """The canonical arrow map from the ultrafilter groupoid of I(X) to the
    pair groupoid on X: the ultrafilter at the atom {j -> i} goes to the
    arrow (i, j).  Returns a list indexed by stone-groupoid arrows."""
    maps = partial_bijections(x_size)
    out = []
    for atom in sg.ultrafilters.tolist():
        ((src, dst),) = maps[atom]
        out.append(dst * x_size + src)
    del ix
    return out


def projection_first(clifford, z2z):
    """First projection of the Clifford product monoid onto Z/2-with-zero."""
    return MonoidMorphism(clifford, z2z, tuple(s // z2z.n for s in range(clifford.n)))


def diagonal_embedding(z2z, clifford):
    """a -> (a, a) into the Clifford product monoid."""
    return MonoidMorphism(z2z, clifford, tuple(a * z2z.n + a for a in range(z2z.n)))


def restriction_ba2_to_ba1(ba2, ba1):
    """Forget the second atom: a surjective map of boolean algebras."""
    return MonoidMorphism(ba2, ba1, tuple(s & 1 for s in range(ba2.n)))


def idempotent_embedding_ba2_into_ix2(ba2, ix2):
    """Subsets of {1,2} as partial identities inside I({1,2}).

    Respects the algebra and the meets but not the ultrafilter axiom, so it
    must be built weak."""
    by_label = {lab: i for i, lab in enumerate(ix2.labels)}
    images = [by_label["{}"], by_label["{1->1}"], by_label["{2->2}"],
              by_label["{1->1,2->2}"]]
    return MonoidMorphism(ba2, ix2, tuple(images), weak=True)


def reference_morphism_failure(source, target, f, *, weak=False):
    """The morphism axioms with the checks they imply, in MonoidMorphism's
    order: the homomorphism, then M1 as zero and one, each idempotent's image
    idempotent and its complement kept, then the meets and joins of
    idempotents; M2; and unless ``weak``, M3 as every target ultrafilter's
    preimage being non-empty and ultra.  (stage, witness) of the first
    failure, or None."""
    source.require_boolean()
    target.require_boolean()
    image = np.array(f, dtype=np.int64)
    moved = image.take(source.mul) != target.mul[np.ix_(image, image)]
    if moved.any():
        return "homomorphism", tuple(int(x) for x in np.argwhere(moved)[0])
    if f[source.zero] != target.zero or f[source.one] != target.one:
        return "M1", ("zero/one",)
    for e in source.idempotents:
        if not target.is_idempotent(f[e]):
            return "M1", (e,)
        if f[complements_by_definition(source)[e]] != complements_by_definition(target)[f[e]]:
            return "M1", ("complement", e)
    padded, idem = np.append(image, -1), list(source.idempotents)
    mine, theirs, e_image = source.order(), target.order(), image[idem]
    if hit := first_failure({bound: padded[getattr(mine, bound)[idem][:, idem]]
                             != getattr(theirs, bound)[e_image][:, e_image]
                             for bound in ("meet", "join")}):
        return "M1", (hit[0], *(idem[i] for i in hit[1]))
    if hit := first_failure({"M2": padded[mine.meet] != theirs.meet[image][:, image]}):
        return hit
    if weak:
        return None
    ultra = enumerate_ultrafilters(target)
    rows = theirs.matrix[ultra][:, image]
    found = rows.any(axis=1)
    pre = np.zeros(len(ultra), dtype=np.intp)
    pre[found] = filter_of(source, rows[found])
    if not (is_ultra := found & ultra_by_meet(source, pre)).all():
        return "M3", (np.flatnonzero(theirs.matrix[ultra[np.argmin(is_ultra)]]).tolist(),)
    return None


def homomorphisms(source, target, *, fix_zero_one=True):
    """Every semigroup homomorphism source -> target, sending zero to zero
    and one to one unless ``fix_zero_one`` is false, as the rows of an int
    array.  Brute force, cut early: maps grow one element at a time, and a
    partial map is dropped once a product of assigned elements that lands
    on an assigned element is not sent to the product of the images.  Each
    pair (x, y) is checked when the last of x, y and x y is assigned."""
    mul, tmul = source.mul.astype(np.intp), target.mul.astype(np.intp)
    fixed = {source.zero: target.zero, source.one: target.one} if fix_zero_one else {}
    order = list(dict.fromkeys([source.zero, source.one, *range(source.n)]))
    maps = np.zeros((1, source.n), dtype=np.intp)
    for k, s in enumerate(order):
        images = [fixed[s]] if s in fixed else list(range(target.n))
        maps = np.repeat(maps, len(images), axis=0)
        maps[:, s] = np.tile(images, len(maps) // len(images))
        assigned = order[:k + 1]
        for x, y in itertools.product(assigned, repeat=2):
            if s in (x, y, mul[x, y]) and mul[x, y] in assigned:
                maps = maps[tmul[maps[:, x], maps[:, y]] == maps[:, mul[x, y]]]
    return maps


def covering_functors(source, target):
    """The arrow maps of every covering functor source -> target, by brute
    force over all target.m ** source.m arrow maps."""
    found = []
    for arrow_map in itertools.product(range(target.m), repeat=source.m):
        with suppress(StructureError):
            if check_covering(CoveringFunctor(source, target, arrow_map)).ok:
                found.append(arrow_map)
    return found


# -- literal definitions of the orthogonal completion ------------------------------


def reference_canonical_pairs(n, pairs):
    """Reference canonical form: the set fixpoint that merges every complete
    sibling family of a round, then sorts.  A round's stems are merged in
    sorted order, so a stem that is also a member of another family merged
    in the same round stays.  (Taken in set order, that outcome would
    depend on PYTHONHASHSEED: {1/1, 2/2, 11/11, 12/12} would give {e/e}
    under some seeds and {e/e, 1/1} under others.)"""
    current = set(pairs)
    full = set(letters(n))
    while True:
        by_stem = {}
        for x, y in current:
            if x and y and x[-1] == y[-1]:
                by_stem.setdefault((x[:-1], y[:-1]), set()).add(x[-1])
        merged = False
        for (sx, sy), present in sorted(by_stem.items()):
            if present == full:
                for c in full:
                    current.discard((sx + c, sy + c))
                current.add((sx, sy))
                merged = True
        if not merged:
            return tuple(sorted(current))


def _prefix_incomparable(a, b):
    return not (a.startswith(b) or b.startswith(a))


def first_orthogonality_failure(pairs):
    """Reference orthogonality scan over every pair of pairs: the message
    naming the first two whose ranges or domains are prefix-comparable, or
    None."""
    for i, (x, y) in enumerate(pairs):
        for u, v in pairs[i + 1:]:
            if not (_prefix_incomparable(x, u) and _prefix_incomparable(y, v)):
                return f"pairs ({x!r},{y!r}) and ({u!r},{v!r}) are not orthogonal"
    return None


def reference_cn_error(n, pairs):
    """The StructureError message the CnElement constructor gives a pair
    tuple, by the literal checks in order (alphabet, canonical form,
    orthogonality), or None when it is accepted."""
    ok = letters(n)
    for x, y in pairs:
        if any(c not in ok for c in x + y):
            return f"letter out of alphabet in ({x!r}, {y!r})"
    if pairs != reference_canonical_pairs(n, pairs):
        return "pair family is not canonical"
    return first_orthogonality_failure(pairs)


def reference_cn_mul(a, b):
    """Reference product: every pairwise polycyclic product, zeros dropped,
    as the reference canonical pair tuple."""
    out = set()
    for x, y in a.pairs:
        for u, v in b.pairs:
            p = poly_mul(PolyElement(x, y), PolyElement(u, v))
            if not p.is_zero:
                out.add((p.x, p.y))
    return reference_canonical_pairs(a.n, out)


def reference_is_maximal_prefix_code(n, code):
    """Pairwise prefix-incomparable, and the Kraft sum over an n-ary
    alphabet is exactly one, in fractions."""
    code = list(code)
    if not code:
        return False
    for i, a in enumerate(code):
        for b in code[i + 1:]:
            if not _prefix_incomparable(a, b):
                return False
    return sum(Fraction(1, n ** len(w)) for w in code) == 1


def reference_is_unit(a):
    """Both coordinate families are maximal prefix codes, by the reference test."""
    return (reference_is_maximal_prefix_code(a.n, [x for x, _ in a.pairs])
            and reference_is_maximal_prefix_code(a.n, [y for _, y in a.pairs]))


# -- the per-word parser and the per-prefix product, as references ----------------

_REFERENCE_WORD = re.compile(r"^(?:e|(?:a[1-9])+)$")


def scan_parse_word(text, n=None):
    """A word by strip and match, its letters checked as a set against the
    first n."""
    text = text.strip()
    if not _REFERENCE_WORD.match(text):
        raise ParseError(f"malformed word {text!r}")
    word = "" if text == "e" else text[1::2]
    if n is not None and not set(word) <= set(letters(n)):
        raise ParseError(f"letter out of range in {text!r}")
    return word


def scan_parse_cn(text, n):
    """A family by strip, a split into comma chunks, a split of each chunk at
    its one slash, and :func:`scan_parse_word` on both words."""
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ParseError(f"malformed family {text!r}")
    body = text[1:-1].strip()
    if not body:
        return CnElement.zero(n)
    pairs = []
    for chunk in body.split(","):
        if chunk.count("/") != 1:
            raise ParseError(f"malformed pair {chunk.strip()!r}")
        x, y = chunk.split("/")
        pairs.append((scan_parse_word(x, n), scan_parse_word(y, n)))
    return CnElement.make(n, pairs)


def sliced_cn_mul(a, b):
    """The product that looks each of the |y| + 1 prefixes of y up among the
    ranges of b, and bisects for the ranges that extend y only when none is
    a prefix."""
    if a.n != b.n:
        raise StructureError("alphabet mismatch")
    right = b.pairs
    ranges = [u for u, _ in right]
    by_range = dict(right)
    out = []
    for x, y in a.pairs:
        for cut in range(len(y) + 1):
            v = by_range.get(y[:cut])
            if v is not None:
                out.append((x, v + y[cut:]))
                break
        else:
            at = bisect_right(ranges, y)
            while at < len(ranges) and ranges[at].startswith(y):
                u, v = right[at]
                out.append((x + u[len(y):], v))
                at += 1
    return CnElement.make(a.n, out)


# -- literal per-pair loops of the local complement and compatible join laws ------


def orthogonal(monoid, s, t):
    """s^-1 t and s t^-1 are both zero, for one pair."""
    mul, inv = monoid.mul, monoid.inv
    return int(mul[inv[s], t]) == monoid.zero and int(mul[s, inv[t]]) == monoid.zero


def compatible(monoid, s, t):
    """s^-1 t and s t^-1 are both idempotent, for one pair."""
    mul, inv = monoid.mul, monoid.inv
    return monoid.is_idempotent(int(mul[inv[s], t])) and monoid.is_idempotent(int(mul[s, inv[t]]))


@functools.lru_cache(maxsize=16)
def complements_by_definition(monoid) -> dict[int, int]:
    """The complement of each idempotent e in E by its definition, read off
    the order matrix alone: the idempotent f with e f = zero (their only
    common lower bound) and e v f = one (their only common upper bound in
    E).  Counted by matmuls over the order of E, once per monoid."""
    order = monoid.order()
    idem = list(order.idempotents)
    in_e = order.matrix[np.ix_(idem, idem)].astype(np.int64)    # [x, y]: x <= y
    lower, upper = in_e.T @ in_e, in_e @ in_e.T    # [i, j]: common lower / upper bounds
    return {idem[i]: idem[j] for i, j in np.argwhere((lower == 1) & (upper == 1)).tolist()}


def relative_complement(monoid, s, t):
    """t \\ s for one pair: the array form on one-entry arrays."""
    return int(monoid.relative_complements([s], [t])[0])


def reference_relative_complement(monoid, s, t):
    """The scalar relative complement t \\ s, built as t * e for e the
    complement of dom(s) relative to dom(t), with its precondition and
    self-check one call at a time."""
    if not monoid.leq(s, t):
        raise StructureError(f"relative complement needs {s} <= {t}")
    complements, dom_s = complements_by_definition(monoid), monoid.dom(s)
    if dom_s not in complements:
        raise StructureError(f"{dom_s} is not idempotent")
    e = int(monoid.mul[monoid.dom(t), complements[dom_s]])
    r = int(monoid.mul[t, e])
    if not (monoid.leq(r, t) and orthogonal(monoid, s, r) and monoid.join(s, r) == t):
        raise StructureError(f"relative complement construction broke at ({s}, {t})")
    return r


def reference_relative_complement_unique(monoid):
    """relative-complement-unique one pair at a time, through
    ``reference_relative_complement``: (instances, failures)."""
    order = monoid.order()
    leq, join = order.matrix, order.join
    orthogonal = monoid.orthogonality()
    count, failures = 0, []
    for t in range(monoid.n):
        for s in np.flatnonzero(leq[:, t]).tolist():
            count += 1
            r = reference_relative_complement(monoid, s, t)
            candidates = np.flatnonzero(leq[:, t] & orthogonal[s] & (join[s] == t)).tolist()
            if candidates != [r]:
                failures.append((s, t, candidates))
    return count, failures


def reference_separation_below(monoid):
    """separation-below one pair at a time: (instances, failures)."""
    leq = monoid.order().matrix
    nonzero = np.arange(monoid.n) != monoid.zero
    count, failures = 0, []
    for s, t in np.argwhere(nonzero[:, None] & ~leq).tolist():     # s != 0, s not <= t
        count += 1
        s_prime = reference_relative_complement(monoid, monoid.meet(s, t), s)
        if (s_prime == monoid.zero or not leq[s_prime, s]
                or monoid.meet(s_prime, t) != monoid.zero):
            failures.append((s, t))
    return count, failures


def reference_compatible_join_formula(monoid):
    """compatible-join-formula one pair at a time: (instances, failures)."""
    count, failures = 0, []
    for s in range(monoid.n):
        for t in range(monoid.n):
            if not compatible(monoid, s, t):
                continue
            count += 1
            j = monoid.join(s, t)
            if j is None:
                failures.append((s, t, "missing"))
                continue
            m = monoid.meet(s, t)
            acc = m
            for part in (reference_relative_complement(monoid, m, s),
                         reference_relative_complement(monoid, m, t)):
                acc = monoid.join(acc, part)
                if acc is None:
                    break
            if acc != j:
                failures.append((s, t, "formula"))
    return count, failures


# -- the law suites' per-element loops: the references for their gathers ------------
# Each returns (instances, failures) as the suite's law gives them, and first
# reads what the suite reads before its laws, so it raises the suite's error.


def reference_products_distribute_over_meets(monoid):
    """products-distribute-over-meets one s at a time."""
    n, mul, meet = monoid.n, monoid.mul, monoid.order().meet
    by_row, by_col = (np.ascontiguousarray(a, dtype=np.int32) for a in (mul, mul.T))
    count, failures = 0, []
    for s in range(n):
        ts = np.flatnonzero(meet[s] >= 0)
        m = meet[s, ts]
        count += n * len(ts)
        left = meet.take(by_col[s] * n + by_col[ts])
        right = meet.take(by_row[s] * n + by_row[ts])
        bad = (left != by_col[m]) | (right != by_row[m])
        failures += [(s, int(ts[i]), u) for i, u in np.argwhere(bad).tolist()]
    return count, failures


def reference_downset_boolean_via_dom(monoid):
    """downset-boolean-via-dom one s at a time."""
    monoid.require_boolean()
    n, leq = monoid.n, monoid.order().matrix
    dom = monoid.mul[np.asarray(monoid.inv), np.arange(n)].astype(np.intp)
    moved = leq != leq[dom][:, dom]
    failures = []
    for s in range(n):
        down = np.flatnonzero(leq[:, s])
        if sorted(dom[down].tolist()) != np.flatnonzero(leq[:, dom[s]]).tolist():
            failures.append((s,))
            continue
        failures += [(s, int(down[x]), int(down[y]))
                     for x, y in np.argwhere(moved[down][:, down]).tolist()]
    return n, failures


def reference_set_products(monoid):
    """The set product up(i) up(j) of every pair of filters, at [i, j] as a boolean row over
    the elements (an n x n x n array), read off the current order and table: row i is
    U @ R > 0 for the order matrix U and R[b, z] = [z in up(i) b], exact in float32."""
    n, mul, leq = monoid.n, monoid.mul, monoid.order().matrix
    square, reach = leq.astype(np.float32), np.zeros((n, n), dtype=np.float32)
    sets = np.empty((n, n, n), dtype=bool)
    for i in range(n):
        cells = mul[leq[i]].astype(np.intp)         # row a, column b: a b, a in up(i)
        reach[np.arange(n), cells] = 1
        np.greater(square @ reach, 0, out=sets[i])
        reach[np.arange(n), cells] = 0
    return sets


def reference_filter_products(monoid):
    """``filters.filter_products`` as the cube of every set product (the
    library's form before the products were reduced without it), neither
    kept nor read from the monoid: (sets, prod, inverse), each closure by
    least_members, or its StructureError."""
    sets = reference_set_products(monoid)
    prod = np.array([least_members(monoid, row) for row in sets], dtype=np.intp)
    return sets, prod, filter_inverses(monoid, np.arange(monoid.n))


def _filter_tables(monoid):
    """What filter_laws reads first: its order, its members and the kept filter products."""
    monoid.require_boolean()
    enumerate_ultrafilters(monoid)
    leq = monoid.order().matrix
    prod, inverse = filter_products(monoid)
    return leq, [np.flatnonzero(row) for row in leq], prod, inverse


def reference_filter_base_pairwise(monoid):
    """filter-base-pairwise one filter at a time."""
    leq, up, *_ = _filter_tables(monoid)
    count, failures = 0, []
    for i, members in enumerate(up):
        count += len(members) ** 2
        below = leq[np.ix_(members, members)].astype(np.float32)    # [z, s]: z <= s
        failures += [(i, int(members[s]), int(members[t]))
                     for s, t in np.argwhere(below.T @ below == 0).tolist()]
    return count, failures


def reference_filters_are_cosets(monoid):
    """filters-are-cosets one filter at a time."""
    leq, up, _, inverse = _filter_tables(monoid)
    sets, mul, failures = reference_set_products(monoid), monoid.mul.astype(np.intp), []
    for i in range(monoid.n):
        triple = np.zeros(monoid.n, dtype=bool)
        triple[mul[np.ix_(np.flatnonzero(sets[i, inverse[i]]), up[i])]] = True
        if not np.array_equal(triple, leq[i]):
            failures.append((i,))
    return monoid.n, failures


def reference_product_smallest_filter(monoid):
    """product-smallest-filter one filter i at a time, by a float32 matmul."""
    leq, _, prod, _ = _filter_tables(monoid)
    sets, contains = reference_set_products(monoid), inclusions(leq, leq)
    outside = (~leq).T.astype(np.float32)
    count, failures = 0, []
    for i in range(monoid.n):
        count += monoid.n
        missing = (sets[i] & ~leq[prod[i]]).any(axis=1)
        smaller = (sets[i].astype(np.float32) @ outside == 0) & ~contains[prod[i]]
        for j in np.flatnonzero(missing | smaller.any(axis=1)).tolist():
            if missing[j]:
                failures.append((i, j, "not containing"))
                continue
            failures += [(i, j, c) for c in np.flatnonzero(smaller[j]).tolist()]
    return count, failures


def reference_domain_inverse_submonoid(monoid):
    """domain-inverse-submonoid one filter at a time."""
    leq, up, prod, inverse = _filter_tables(monoid)
    mul, inv = monoid.mul.astype(np.intp), np.asarray(monoid.inv)
    dom, failures = prod[inverse, np.arange(monoid.n)], []
    for i in range(monoid.n):
        members, inside = up[dom[i]], leq[dom[i]]
        if not inside[monoid.one]:
            failures.append((i, "one"))
        closed = inside[mul[np.ix_(members, members)]]
        for x, row, has_inverse in zip(members.tolist(), closed, inside[inv[members]]):
            if not has_inverse:
                failures.append((i, x, "inverse"))
            failures += [(i, x, y) for y in members[~row].tolist()]
        failures += [(i, a, "coset-form") for a in up[i].tolist()
                     if not np.array_equal(leq[mul[a, members]].any(axis=0), leq[i])]
    return monoid.n, failures


def reference_idempotent_filter_iff_closed(monoid):
    """idempotent-filter-iff-closed one filter at a time."""
    leq, up, *_ = _filter_tables(monoid)
    mul, inv = monoid.mul.astype(np.intp), np.asarray(monoid.inv)
    idempotent = contains_idempotent(monoid, np.arange(monoid.n))
    failures = []
    for i, members in enumerate(up):
        closed = leq[i][mul[np.ix_(members, members)]].all() and leq[i][inv[members]].all()
        if idempotent[i] != closed:
            failures.append((i,))
    return monoid.n, failures


def reference_ultrafilters_prime(monoid):
    """ultrafilters-prime one ultrafilter at a time."""
    leq = _filter_tables(monoid)[0]
    ultra = enumerate_ultrafilters(monoid)
    prime = prime_property_holds(leq[ultra], monoid.order().join)
    return len(ultra), [(g,) for g, holds in zip(ultra.tolist(), prime) if not holds]


def reference_ultra_criteria_agree(monoid):
    """ultra-criteria-agree one filter at a time, by the two criteria's loops."""
    _filter_tables(monoid)
    return monoid.n, [(g,) for g in range(monoid.n) if reference_ultra_by_meet(monoid, g)
                      != reference_ultra_by_maximality(monoid, g)]


def reference_nonzero_in_some_ultrafilter(monoid):
    """nonzero-in-some-ultrafilter one element at a time."""
    leq, ultra = _filter_tables(monoid)[0], reference_ultrafilters(monoid)
    return monoid.n - 1, [(s,) for s in range(monoid.n)
                          if s != monoid.zero and not any(leq[u, s] for u in ultra)]


def reference_ultrafilter_intersection_principal(monoid):
    """ultrafilter-intersection-principal: for each non-zero a, the ultrafilters
    that hold a meet in up(a)."""
    leq, ultra = _filter_tables(monoid)[0], reference_ultrafilters(monoid)
    failures = []
    for a in range(monoid.n):
        common = np.ones(monoid.n, dtype=bool)
        for u in ultra:
            if leq[u, a]:
                common &= leq[u]
        if a != monoid.zero and (common != leq[a]).any():
            failures.append((a,))
    return monoid.n - 1, failures


def reference_filter_rigidity(monoid):
    """filter-rigidity one pair of filters at a time: two that meet have different domains."""
    leq, _, prod, inverse = _filter_tables(monoid)
    dom = [prod[inverse[f], f] for f in range(monoid.n)]
    return monoid.n ** 2, [(f, g) for f in range(monoid.n) for g in range(monoid.n)
                           if f != g and dom[f] == dom[g] and (leq[f] & leq[g]).any()]


def reference_inverse_semigroup(monoid):
    """inverse-semigroup one filter f at a time: its one inverse under the kept
    products is the kept inverse."""
    _, _, prod, inverse = _filter_tables(monoid)
    return monoid.n, [(f,) for f in range(monoid.n) if [
        g for g in range(monoid.n)
        if prod[prod[f, g], f] == f and prod[prod[g, f], g] == g] != [inverse[f]]]


def reference_idempotents_are_idempotent_filters(monoid):
    """idempotents-are-idempotent-filters one filter at a time."""
    prod = _filter_tables(monoid)[2]
    return monoid.n, [(f,) for f in range(monoid.n)
                      if (prod[f, f] == f) != reference_contains_idempotent(monoid, f)]


def reference_order_is_reverse_inclusion(monoid):
    """order-is-reverse-inclusion one pair at a time: f = g e for an idempotent
    filter e exactly when up(g) lies inside up(f)."""
    leq, _, prod, _ = _filter_tables(monoid)
    squares = [e for e in range(monoid.n) if prod[e, e] == e]
    return monoid.n ** 2, [
        (f, g) for f in range(monoid.n) for g in range(monoid.n)
        if any(prod[g, e] == f for e in squares) != bool((leq[f] | ~leq[g]).all())]


def reference_filter_product(monoid, a, b):
    """One closed filter product by one gather of mul and least_members."""
    leq, product = monoid.order().matrix, np.zeros(monoid.n, dtype=bool)
    product[monoid.mul[np.ix_(leq[a], leq[b])].astype(np.intp)] = True
    return int(least_members(monoid, product))


def reference_three_way_equivalence(monoid):
    """three-way-equivalence with each domain one closed product at a time, or read off
    the filter products table when the monoid keeps one, as filter_doms reads it."""
    monoid.require_boolean()
    every, kept = np.arange(monoid.n), monoid._filter_products
    dom = np.array([reference_filter_product(monoid, i, f) if kept is None else kept[0][i, f]
                    for f, i in enumerate(filter_inverses(monoid, every).tolist())], dtype=np.intp)
    second = contains_idempotent(monoid, dom) & ultra_by_meet(monoid, dom)
    third = idempotent_part_ultra(monoid, dom)
    bad = (ultra_by_meet(monoid, every) != second) | (second != third)
    return monoid.n, [(f,) for f in np.flatnonzero(bad).tolist()]


def _basic_opens(monoid):
    """What verify_basic_open_laws reads first: the kept Stone groupoid and K(s) for every s."""
    sg = stone_groupoid(monoid)
    return sg, basic_opens(sg), monoid.order()


def reference_meet_is_intersection(monoid):
    """meet-is-intersection one s at a time."""
    _, inside, order = _basic_opens(monoid)
    bad = [(order.meet[s] < 0) | (inside[order.meet[s]] != (inside[s] & inside)).any(axis=1)
           for s in range(monoid.n)]
    return monoid.n ** 2, [tuple(st) for st in np.argwhere(bad).tolist()]


def reference_join_is_union(monoid):
    """join-is-union one s at a time."""
    _, inside, order = _basic_opens(monoid)
    join = order.join
    bad = [(join[s] >= 0) & (inside[join[s]] != (inside[s] | inside)).any(axis=1)
           for s in range(monoid.n)]
    return int(np.count_nonzero(join >= 0)), [tuple(st) for st in np.argwhere(bad).tolist()]


def reference_union_bisection_iff_join(monoid):
    """union-bisection-iff-join one s at a time, each union tested by fiber_clash."""
    sg, inside, order = _basic_opens(monoid)
    failures = []
    for s in range(monoid.n):
        for t in range(monoid.n):
            clash = fiber_clash(sg, np.flatnonzero(inside[s] | inside[t]).tolist())
            if (clash is None) != (order.join[s, t] >= 0):
                failures.append((s, t, clash))
    return monoid.n ** 2, failures


def reference_point_filters_intertwine(groupoid):
    """point-filters-intertwine one arrow, and one composable pair, at a time,
    each closed product by reference_filter_product."""
    bm = all_bisections_monoid(groupoid)
    points = point_ultrafilter(bm, np.arange(groupoid.m)).tolist()
    monoid = bm.monoid
    ultra_by_meet(monoid, points)
    inverses = filter_inverses(monoid, points).tolist()
    doms = [reference_filter_product(monoid, i, f) for f, i in zip(points, inverses)]
    rans = [reference_filter_product(monoid, f, i) for f, i in zip(points, inverses)]
    failures = []
    for g, f in enumerate(points):
        if doms[g] != points[groupoid.d[g]] or rans[g] != points[groupoid.r[g]]:
            failures.append((g,))
        for h in range(groupoid.m):
            gh = groupoid.compose_maybe(g, h)
            if gh is not None and reference_filter_product(monoid, f, points[h]) != points[gh]:
                failures.append((g, h))
    return len(points), failures


# -- product tables as int64: the reference for the int16 tables ---------------------


def reference_bound_table(leq):
    """``bound_table`` one row at a time with int64 keys |down(m)| * n + m:
    of the members of down(s) below t, the one with the largest key is the
    bound of s and t when its down-set is all of down(s) & down(t); else -1."""
    n = len(leq)
    sizes = np.count_nonzero(leq, axis=0).astype(np.int64)
    key = sizes * n + np.arange(n)
    table = np.full((n, n), -1, dtype=np.int64)
    for s in range(n):
        members = np.flatnonzero(leq[:, s])
        below = leq[members]                # [i, t]: members[i] <= t
        best = np.where(below, key[members, None], -1).max(axis=0)
        m = best % n
        table[s] = np.where((best >= 0) & (sizes[m] == below.sum(axis=0)), m, -1)
    return table


def int64_reference(monoid):
    """A copy of ``monoid`` whose product table is an int64 copy of ``mul``,
    with the natural order rebuilt from that copy (bound tables by
    ``reference_bound_table``) and nothing else computed: its methods and
    the law suites then do every gather and every code in int64."""
    wide = object.__new__(InverseMonoid)
    mul = monoid.mul.astype(np.int64)
    mul.setflags(write=False)
    n, rng = monoid.n, np.arange(monoid.n)
    idempotents = np.flatnonzero(mul[rng, rng] == rng)
    leq = np.zeros((n, n), dtype=bool)      # s <= t iff s = t e, e idempotent
    for e in idempotents:
        leq[mul[:, e], rng] = True
    leq.setflags(write=False)
    order = OrderData(idempotents=tuple(idempotents.tolist()),
                      atoms=tuple(np.flatnonzero(leq.sum(axis=0) == 2).tolist()),
                      matrix=leq, up_sizes=leq.sum(axis=1),
                      meet=reference_bound_table(leq), join=reference_bound_table(leq.T))
    vars(wide).update(vars(monoid), mul=mul, _order=order, _certificate=None,
                      _complements=None, _stone_groupoid=None, _filter_products=None)
    return wide


# -- the JSON route of the entry store, before its table codec ----------------------


def reference_write_json(out, value):
    """Stream ``value`` as JSON, one key or table row per line, every piece
    through ``json.dumps`` (``save_entry`` wrote entries so)."""
    if isinstance(value, dict):
        items, brackets = [(json.dumps(key) + ": ", item) for key, item in value.items()], "{}"
    elif isinstance(value, list) and value and all(isinstance(row, list) for row in value):
        items, brackets = [("", row) for row in value], "[]"
    else:
        out.write(json.dumps(value))
        return
    out.write(brackets[0])
    for i, (prefix, item) in enumerate(items):
        out.write(("," if i else "") + "\n" + prefix)
        reference_write_json(out, item)
    out.write("\n" + brackets[1])


def reference_load_entry(path):
    """Load an entry by ``json.loads`` alone, every table as rows of Python
    ints: (name, kind, object), or the loader's error."""
    text = Path(path).read_text()
    name, kind, payload = _fields(json.loads(text), "name", "kind", "payload")
    del text
    _entry_name(name)
    from_json = _codec(kind)[1]
    return name, kind, from_json(payload)


# -- the table codec on one thread --------------------------------------------------


def reference_table_text(table, head=b"\n", mid=b",\n", tail=b"\n"):
    """``serialize.table_text`` on the calling thread, in blocks of about 1 MiB of words."""
    end = b"]" + mid + b"["
    words = np.array([(b"%d, " % v, b"%d" % v + end) for v in range(int(table.max()) + 1)])
    yield b"[" + head + b"["
    step = max(1, (1 << 20) // (table.shape[1] * words.itemsize))
    for lo in range(0, len(table), step):
        block = words[table[lo:lo + step], 0]
        block[:, -1] = words[table[lo:lo + step, -1], 1]
        raw = block.view(np.uint8).ravel()
        piece = raw[raw != 0]
        yield (piece if lo + step < len(table) else piece[:len(piece) - len(end) + 1]).tobytes()
    yield tail + b"]"


def reference_read_table(data, start):
    """``serialize._read_table`` on the calling thread: every row block parsed,
    then the whole table rendered back by ``reference_table_text`` and
    compared with the text from ``start`` on, piece by piece."""
    layout, end = _TABLE_LAYOUT.match(data, start), _TABLE_END.search(data, start)
    if layout is None or end is None or end.end() - start < 2048:
        return None
    rows = data.count(b"[", start, end.end()) - 1
    cols = data.count(b",", start, data.find(b"]", start)) + 1
    if rows * cols > end.end() - start:
        return None
    table, close, step = np.empty((rows, cols), np.int16), start, max(1, (1 << 18) // cols)
    with suppress(ValueError, OverflowError):
        for lo in range(0, rows, step):
            first = data.find(b"[", close + 1) + 1
            for _ in range(min(step, rows - lo)):
                close = data.find(b"]", close + 1)
            cells = data[first:close].translate(None, b"[]")
            table[lo:lo + step] = np.fromstring(cells, np.int16, sep=",").reshape(-1, cols)
        if table.min() >= 0:
            at = start
            for piece in reference_table_text(table, layout[1], layout[2] or b",", end[1]):
                if not data.startswith(piece, at):
                    return None
                at += len(piece)
            return table, end.end()
    return None


# -- the object form of a bisection, before membership rows ------------------------


@dataclass(frozen=True)
class Bisection:
    """A subset meeting every domain fiber and every range fiber at most
    once, held as a frozenset of arrows and checked on construction: the
    form bisections had before they became membership rows."""

    groupoid: object = field(compare=False)
    members: frozenset = field(compare=True)

    def __post_init__(self):
        if fiber_clash(self.groupoid, self.members):
            raise StructureError("subset is not a bisection")

    def __iter__(self):
        return iter(sorted(self.members))

    def __len__(self):
        return len(self.members)

    def inverse(self):
        g = self.groupoid
        return Bisection(g, frozenset(g.inv[a] for a in self.members))

    def row(self):
        """The membership row."""
        out = np.zeros(self.groupoid.m, dtype=bool)
        out[list(self.members)] = True
        return out


def object_form_groupoids():
    """The groupoids whose bisections are compared with the object form:
    name -> factory."""
    def union(*groupoids):
        out = groupoids[0]
        for g in groupoids[1:]:
            out = disjoint_union(out, g)
        return out

    return {
        **{f"pair{k}": (lambda k=k: pair_groupoid(k)) for k in range(1, 5)},
        "z2+z3": lambda: union(group_groupoid(2), group_groupoid(3)),
        "z4+z5+z7": lambda: union(group_groupoid(4), group_groupoid(5), group_groupoid(7)),
        "pair2+z3": lambda: union(pair_groupoid(2), group_groupoid(3)),
        "trivial0": lambda: trivial_groupoid(0),
        "trivial3": lambda: trivial_groupoid(3),
        **{f"ix{k}-dual": (lambda k=k: ultrafilter_groupoid(symmetric_inverse_monoid(k)))
           for k in range(2, 5)},
        **{f"ba{k}-dual": (lambda k=k: ultrafilter_groupoid(boolean_algebra_monoid(k)))
           for k in (1, 4, 6)},
        "clifford-dual": lambda: ultrafilter_groupoid(clifford_monoid()),
        "z3-zero-dual": lambda: ultrafilter_groupoid(group_with_zero_monoid(3)),
    }


def reference_bisection_product(a, b):
    """Arrow-wise product {xy : composable}, validated as a Bisection."""
    compose = a.groupoid.compose_maybe
    out = {compose(x, y) for x in a.members for y in b.members}
    out.discard(None)
    return Bisection(a.groupoid, frozenset(out))


def reference_bisections(groupoid):
    """All bisections as objects, in the order of their members descending:
    one arrow or none out of each identity, into a range not hit yet."""
    chosen = [((), frozenset())]        # (arrows, the ranges they hit)
    for e in groupoid.identities:
        chosen += [(arrows + (a,), hit | {groupoid.r[a]}) for arrows, hit in chosen
                   for a in groupoid.star(e) if groupoid.r[a] not in hit]
    return [Bisection(groupoid, frozenset(arrows))
            for arrows in sorted((arrows for arrows, _ in chosen),
                                 key=lambda arrows: sorted(arrows, reverse=True))]


def reference_basic_open(s, sg):
    """The bisection of all ultrafilters through s, one ultrafilter at a time."""
    return Bisection(sg, frozenset(i for i, g in enumerate(sg.ultrafilters.tolist())
                                   if (up_mask(sg.monoid, g) >> s) & 1))


def reference_transport_failure(bisections, forward, sg):
    """The first bisection U (by index) that ``forward`` does not carry onto
    the basic open set of U's element, or None: the round trip's loop."""
    for i, u in enumerate(bisections):
        if frozenset(forward[g] for g in u.members) != reference_basic_open(i, sg).members:
            return i
    return None


def reference_pullback_preimages(f, bisections):
    """The preimage of each bisection of f's target, as a Bisection of its source."""
    src = f.source
    return [Bisection(src, frozenset(g for g in range(src.m) if f.arrow_map[g] in b.members))
            for b in bisections]


def reference_functor_on_morphism(theta):
    """The ultrafilter functor on theta: S -> T, one target ultrafilter A at
    a time: the preimage's generator, checked ultra (M3), its arrow, and
    dom(theta^-1 A) = theta^-1(dom A) by closed filter products; then the
    covering conditions on the functor."""
    source, target = theta.source, theta.target
    sg_t, sg_s = ultrafilter_groupoid(target), ultrafilter_groupoid(source)
    arrow_map, image = [], np.asarray(theta.mapping)
    s_leq, t_leq = source.order().matrix, target.order().matrix
    doms = filter_doms(target, sg_t.ultrafilters).tolist()
    for a, a_dom in zip(sg_t.ultrafilters.tolist(), doms):
        pre = filter_of(source, t_leq[a][image])
        if not ultra_by_meet(source, [pre])[0]:
            raise MorphismError("M3", (np.flatnonzero(t_leq[a]).tolist(),))
        arrow_map.append(sg_s.arrow_at(pre))
        if not np.array_equal(s_leq[filter_doms(source, [pre])[0]], t_leq[a_dom][image]):
            raise StructureError("preimage does not intertwine dom")
    functor = CoveringFunctor(sg_t, sg_s, tuple(arrow_map))
    if failures := check_covering(functor).get("covering").failures:
        raise StructureError(f"morphism preimage is not a covering: {failures[0]}")
    return functor


# -- seeded samplers only tests use ---------------------------------------------------


def random_poly(rng, n: int, max_len: int, zero_weight: float = 0.1) -> PolyElement:
    if rng.random() < zero_weight:
        return PolyElement.zero()
    return PolyElement(random_word(rng, n, max_len), random_word(rng, n, max_len))


def random_unit(rng, n: int, max_splits: int) -> CnElement:
    splits = rng.randint(0, max_splits)
    targets = random_prefix_code(rng, n, splits)
    sources = random_prefix_code(rng, n, splits)
    rng.shuffle(sources)
    return CnElement.make(n, zip(targets, sources))
