"""Exhaustive law suites over finite carriers.

Each function sweeps one family of identities over every element, pair or filter of
its subject and returns a :class:`LawReport` with instance counts and witnesses;
``boolean_monoid_suite`` bundles the order and filter laws, and the CLI runs the same
suites through ``check --laws``.  A suite computes what its laws share once (the
order's dense tables, one ``relative_complements`` call per complement law, the
``filter_products`` that the monoid keeps, whose one ``lower_bounds`` pass also
decides product minimality, one batched ``filter_product``
call per batch) and checks each law's own definition on every instance, never the
theorem it tests, by whole-table gathers in row blocks of at most BLOCK_CELLS cells.  The
one n^3 law, products-distribute-over-meets, is decided exactly over its multipliers u by
Light's closure (``first_failing_try``): the u where it and Light's condition hold are
closed under the product, so a few tried u cover all, and its literal pass over every u
runs only to name witnesses.  A law whose witnesses mix kinds flags its failing rows
whole-table and names them by its per-instance loop, in that loop's order; the loops
themselves are kept as references in ``tests/helpers.py``.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .duality import point_ultrafilter, verify_basic_open_laws
from .filters import (
    bound_words,
    contains_idempotent,
    enumerate_ultrafilters,
    filter_doms,
    filter_product,
    filter_products,
    filter_rans,
    idempotent_part_ultra,
    lower_bounds,
    prime_property_holds,
    set_products,
    ultra_by_maximality,
    ultra_by_meet,
)
from .groupoids import all_bisections_monoid
from .inverse_core import (MAX_ELEMENTS, InverseMonoid, bit_words, first_failing_try, inclusions,
                           light_failure, member_blocks, row_blocks, table_map, two_threads)
from .reporting import LawReport, where


def order_meet_laws(monoid: InverseMonoid) -> LawReport:
    """Meets against compatibility: a pair is compatible exactly when its
    meet exists with dom/ran splitting; joins split dom/ran; products
    distribute over existing meets."""
    report = LawReport("order-meet laws")
    n, mul, inv, rng = monoid.n, monoid.mul, np.asarray(monoid.inv), np.arange(monoid.n)
    order = monoid.order()      # the bound tables hold -1 where a bound is absent
    meet, join = order.meet, order.join
    exists, dom, ran = meet >= 0, mul[inv, rng].astype(np.intp), mul[rng, inv].astype(np.intp)

    def fails_to_split(bound):
        """[s, t]: dom or ran of the bound of s and t is not the bound of their doms or rans."""
        return ((dom.take(bound) != bound.take(dom, axis=0).take(dom, axis=1))
                | (ran.take(bound) != bound.take(ran, axis=0).take(ran, axis=1)))

    splits = exists & ~fails_to_split(meet)
    report.add("compatible-iff-meet-splits", n * n, where(splits != monoid.compatibility()))
    report.add("join-splits-dom-ran", int(np.count_nonzero(join >= 0)),
               where((join >= 0) & fails_to_split(join)))

    def fails(u, rows, m):
        """[s, t] of the rows s, m = meet[rows] (an absent meet, -1, may read any index: it is
        masked): where s ^ t exists, (us) ^ (ut) != u m or (su) ^ (tu) != m u."""
        row, col = mul[u].astype(np.intp), mul[:, u].astype(np.intp)    # [s]: u s and s u
        return exists[rows] & ((meet.take(row[rows], axis=0).take(row, axis=1) != mul[u].take(m))
                               | (meet.take(col[rows], axis=0).take(col, axis=1)
                                  != mul[:, u].take(m)))
    # the u passing here and Light's condition are closed under the product: if g and h pass,
    # gh keeps Light's, and g h s = g (h s) gives (ghs) ^ (ght) = g (hs ^ ht) = g h m
    closed = first_failing_try(mul, [], lambda u, rows: (
        light_failure(mul, u, rows) or fails(u, rows, meet[rows]).any())) is None
    report.add("products-distribute-over-meets", n * int(np.count_nonzero(exists)),
               [] if closed else _distributivity_witnesses(n, meet, fails))
    return report


def _distributivity_witnesses(n: int, meet: np.ndarray, fails) -> list:
    """Every (s, t, u) that ``fails`` flags, in the order of the loop over (s, t, u): each
    u in turn over a block of s."""
    def distribute(rows):
        found, m = [], np.maximum(meet[rows], 0).astype(np.intp)    # widened once for every u
        for u in range(n):
            if (bad := fails(u, rows, m)).any():
                s, t = np.nonzero(bad)
                found += zip((s + rows.start).tolist(), t.tolist(), [u] * len(s))
        return found
    # blocks of s; one block goes in halves to two threads if a half passes BLOCK_CELLS / 16
    # cells: ix4's took the kernel from 33 to 24 ms, ba7's (8K cells) ran 20% slower
    blocks = row_blocks(n, n)
    if len(blocks) == 1 and two_threads(8 * n * n):        # n^3 > BLOCK_CELLS too
        blocks = [slice(0, n // 2), slice(n // 2, n)]
    return sorted(chain.from_iterable(table_map(n ** 3, distribute, blocks)))


def local_complement_laws(monoid: InverseMonoid) -> LawReport:
    """Down-sets are boolean (order-isomorphic to the idempotent down-set
    through dom), relative complements are unique, and non-comparable pairs
    admit a separating element below."""
    monoid.require_boolean()
    report = LawReport("local complement laws")
    n, order = monoid.n, monoid.order()
    leq, meet, join = order.matrix, order.meet, order.join
    dom = monoid.mul[np.asarray(monoid.inv), np.arange(n)].astype(np.intp)
    moved = leq != leq[dom].take(dom, axis=1)   # [x, y]: x <= y and dom x <= dom y disagree

    # (s,): dom does not sort down(s) onto down(dom s); else (s, x, y): x, y in down(s) moved
    found = []
    for at, down in member_blocks(leq.T, lambda size: size * size):
        image = np.sort(dom[down], axis=1)      # onto: distinct, inside, and as many
        onto = ((np.diff(image) > 0).all(axis=1) & leq[image, dom[at, None]].all(axis=1)
                & (np.count_nonzero(leq[:, dom[at]], axis=0) == down.shape[1]))
        found += [(s,) for s in at[~onto].tolist()]
        r, x, y = np.nonzero(moved[down[:, :, None], down[:, None, :]] & onto[:, None, None])
        found += zip(at[r].tolist(), down[r, x].tolist(), down[r, y].tolist())
    report.add("downset-boolean-via-dom", n,
               sorted(found, key=lambda witness: witness[0]))      # as the loop over s

    orthogonal = monoid.orthogonality()
    t, s = np.nonzero(leq.T)                # every s <= t, t-major
    r = monoid.relative_complements(s, t)
    # x is a candidate of (s, t) when x <= t, x is orthogonal to s and s v x = t:
    # a pair (s, x) is one only for t = s v x, so one bincount counts them all;
    # the codes s * n + t are intp, as np.nonzero's rows are (join is int16)
    rows, xs = np.nonzero(orthogonal & (join >= 0))
    ups = join[rows, xs]
    counts = np.bincount((rows * n + ups)[leq[xs, ups]], minlength=n * n)
    unique = (counts[s * n + t] == 1) & leq[r, t] & orthogonal[s, r] & (join[s, r] == t)
    report.add("relative-complement-unique", len(s), [
        (s, t, np.flatnonzero(leq[:, t] & orthogonal[s] & (join[s] == t)).tolist())
        for s, t in zip(s[~unique].tolist(), t[~unique].tolist())])

    apart = (np.arange(n) != monoid.zero)[:, None] & ~leq     # s != 0, s not <= t
    pairs = np.nonzero(apart)
    for block in row_blocks(len(pairs[0]), 1):     # relative_complements holds ~70 bytes a pair
        s, t = pairs[0][block], pairs[1][block]
        s_prime = monoid.relative_complements(meet[s, t], s)
        apart[s, t] = (s_prime == monoid.zero) | ~leq[s_prime, s] | (meet[s_prime, t] != monoid.zero)
    report.add("separation-below", len(pairs[0]), where(apart))
    return report


def compatible_join_laws(monoid: InverseMonoid) -> LawReport:
    """Compatible pairs have joins, and the join agrees with the three-way
    orthogonal decomposition through meet and relative complements."""
    monoid.require_boolean()
    report = LawReport("compatible join laws")
    order = monoid.order()
    s, t = np.nonzero(monoid.compatibility())
    j = order.join[s, t]
    joined = j >= 0
    m = order.meet[s, t][joined]
    # m v (s \\ m) v (t \\ m), the complements taken pair by pair in loop order
    parts = monoid.relative_complements(np.repeat(m, 2), np.column_stack((s, t))[joined].ravel())
    acc = order.join[m, parts[0::2]]
    acc = np.where(acc >= 0, order.join[np.maximum(acc, 0), parts[1::2]], -1)
    wrong = ~joined
    wrong[joined] = acc != j[joined]
    report.add("compatible-join-formula", len(s), [
        (s, t, "missing" if missing else "formula")
        for s, t, missing in zip(s[wrong].tolist(), t[wrong].tolist(), ~joined[wrong])])
    return report


def filter_laws(monoid: InverseMonoid) -> LawReport:
    """The filter-level laws: base property, ultrafilter criteria agreement,
    coverage, cosets, product minimality, domain submonoids, idempotent
    filters, rigidity, and the prime property of ultrafilters."""
    monoid.require_boolean()
    report = LawReport("filter laws")
    ultra = enumerate_ultrafilters(monoid)
    n, inv, order = monoid.n, np.asarray(monoid.inv), monoid.order()
    leq, rng = order.matrix, np.arange(n)       # filter i is up(i)
    above = leq.astype(np.float32)              # [x, z]: x <= z, for exact float32 counts
    built = monoid._filter_products is None
    prod, inverse = filter_products(monoid)
    # up(c) holds up(i) up(j) when c is in L(i, j); it is smaller if it does not contain up(T),
    # T = prod[i, j].  None is if T is the pass's held generator (a member) and the order is not
    # loose (an empty up-set, or c <= x but up(x) not in up(c)): a table built here just passes
    contains = inclusions(leq, leq)                         # [x, c]: up(x) inside up(c)
    loose = not (leq.any(axis=1) & ~(leq.T & ~contains).any(axis=1)).all()
    smallest, fresh = [], built and prod is monoid._filter_products[0] and not loose
    generators, held = (prod, np.ones((n, n), dtype=bool)) if fresh else lower_bounds(monoid)
    named, below = ~held | (prod != generators) | loose, bit_words(leq.T)
    for i in np.flatnonzero(named.any(axis=1)).tolist():
        words = bound_words(monoid.mul, leq, below, slice(i, i + 1))[0]     # [b]: L(i, b)
        for j in np.flatnonzero(named[i]).tolist():
            bounds = np.bitwise_and.reduce(words[leq[j]], axis=0)
            bounds, t = np.unpackbits(bounds.view(np.uint8), count=n).view(bool), prod[i, j]
            smallest += ([(i, j, "not containing")] if not bounds[t]
                         else [(i, j, c) for c in np.flatnonzero(bounds & ~contains[t]).tolist()])
    dom = prod[inverse, rng]

    found = []          # (i, s, t): no member of filter i lies below both s and t
    for at, members in member_blocks(leq, lambda size: size * size):
        below = leq[members[:, :, None], members[:, None, :]].astype(np.float32)  # [i, z, s]
        row, s, t = np.nonzero(np.matmul(below.transpose(0, 2, 1), below) == 0)
        found += zip(at[row].tolist(), members[row, s].tolist(), members[row, t].tolist())
    report.add("filter-base-pairwise", int(np.square(np.count_nonzero(leq, axis=1)).sum()),
               sorted(found, key=lambda witness: witness[0]))      # as the loop over i

    report.add("ultra-criteria-agree", n,
               where(ultra_by_meet(monoid, rng) != ultra_by_maximality(monoid, rng)))

    in_ultra = leq[ultra]                   # row k: the members of ultra[k]
    nonzero = rng != monoid.zero
    report.add("nonzero-in-some-ultrafilter", n - 1, where(nonzero & ~in_ultra.any(axis=0)))

    # [a, z]: every ultrafilter that holds a holds z
    common = inclusions(in_ultra.T, in_ultra.T)
    report.add("ultrafilter-intersection-principal", n - 1,
               where(nonzero & (common != leq).any(axis=1)))

    # [f]: the set products up(f) up(f)^-1 and up(f) up(f), in one call
    pairs, squares = np.split(set_products(monoid, np.vstack((leq, leq)),
                                           np.vstack((leq[inverse], leq))), 2)
    # F = F F^-1 F, the set product with no closure
    report.add("filters-are-cosets", n,
               where((set_products(monoid, pairs, leq) != leq).any(axis=1)))

    report.add("product-smallest-filter", n * n, smallest)

    closed = ~(squares & ~leq).any(axis=1) & ~(leq & ~leq.take(inv, axis=1)).any(axis=1)
    f, a = np.nonzero(leq)          # filter f is the upward closure of a dom(f), a in up(f)
    coset = np.zeros((n, n), dtype=bool)
    for rows in row_blocks(len(f), 4 * n):                      # float32 cells
        left, (k, y) = a[rows], np.nonzero(leq[dom[f[rows]]])     # row k: left[k] up(dom f)
        products = np.zeros((len(left), n), dtype=bool)
        products[k, monoid.mul[left[k], y]] = True
        coset[f[rows], a[rows]] = ((products.astype(np.float32) @ above > 0)
                                   != leq[f[rows]]).any(axis=1)
    found = []
    for i in np.flatnonzero(~(leq[dom, monoid.one] & closed[dom]) | coset.any(axis=1)).tolist():
        inside = leq[dom[i]]                                # named by the loop
        members = np.flatnonzero(inside)
        if not inside[monoid.one]:
            found.append((i, "one"))
        products = inside[monoid.mul[np.ix_(members, members)]]
        for x, row, has_inverse in zip(members.tolist(), products, inside[inv[members]]):
            if not has_inverse:
                found.append((i, x, "inverse"))
            found += [(i, x, y) for y in members[~row].tolist()]
        found += [(i, a, "coset-form") for a in np.flatnonzero(coset[i]).tolist()]
    report.add("domain-inverse-submonoid", n, found)

    report.add("idempotent-filter-iff-closed", n,
               where(contains_idempotent(monoid, rng) != closed))
    report.add("filter-rigidity", n * n,
               where((above @ above.T > 0) & (dom[:, None] == dom) & ~np.eye(n, dtype=bool)))
    report.add("ultrafilters-prime", len(ultra),
               [(g,) for g in ultra[~prime_property_holds(in_ultra, order.join)].tolist()])
    return report


def filter_semigroup_laws(monoid: InverseMonoid) -> LawReport:
    """The filters form an inverse semigroup under the closed product, whose
    idempotents are the idempotent filters and whose natural order is
    reverse inclusion."""
    monoid.require_boolean()
    report = LawReport("filter semigroup laws")
    n = monoid.n                # filter i is up(i)
    prod, inverse = filter_products(monoid)
    leq, rng = monoid.order().matrix, np.arange(n)

    # candidates[f, g]: (f g) f = f and (g f) g = g
    candidates = (prod[prod, rng[:, None]] == rng[:, None]) & (prod[prod.T, rng] == rng)
    expected = np.zeros((n, n), dtype=bool)
    expected[rng, inverse] = True
    report.add("inverse-semigroup", n, where((candidates != expected).any(axis=1)))

    squares = prod[rng, rng] == rng
    report.add("idempotents-are-idempotent-filters", n,
               where(squares != contains_idempotent(monoid, rng)))

    # algebraic[f, g]: f = g e for some idempotent e of the filter semigroup
    algebraic = np.zeros((n, n), dtype=bool)
    algebraic[prod[:, squares], rng[:, None]] = True
    report.add("order-is-reverse-inclusion", n * n, where(algebraic != inclusions(leq, leq).T))
    return report


def ultra_equivalence_laws(monoid: InverseMonoid) -> LawReport:
    """For every filter, being ultra, having an idempotent-ultrafilter
    domain, and having an idempotent part that is ultra among idempotents
    are equivalent."""
    monoid.require_boolean()
    report = LawReport("ultrafilter equivalence laws")
    rng = np.arange(monoid.n)               # filter i is up(i)
    dom = filter_doms(monoid, rng)
    first = ultra_by_meet(monoid, rng)
    second = contains_idempotent(monoid, dom) & ultra_by_meet(monoid, dom)
    third = idempotent_part_ultra(monoid, dom)
    report.add("three-way-equivalence", monoid.n, where((first != second) | (second != third)))
    return report


def boolean_monoid_suite(monoid: InverseMonoid, *,
                         bisection_bound: int = MAX_ELEMENTS) -> LawReport:
    """Everything above plus the basic-open laws, in one report."""
    report = LawReport(f"law suite on {monoid!r}")
    report.extend(order_meet_laws(monoid))
    report.extend(local_complement_laws(monoid))
    report.extend(compatible_join_laws(monoid))
    report.extend(filter_laws(monoid))
    report.extend(filter_semigroup_laws(monoid))
    report.extend(ultra_equivalence_laws(monoid))
    report.extend(verify_basic_open_laws(monoid, bisection_bound=bisection_bound))
    return report


def point_filter_laws(groupoid, *, bisection_bound: int = MAX_ELEMENTS) -> LawReport:
    """Laws of the bisections-through-a-point map on a finite groupoid:
    each is ultra, the map intertwines dom and composition, is injective,
    and exhausts the ultrafilters."""
    report = LawReport(f"point filter laws on {groupoid!r}")
    bm = all_bisections_monoid(groupoid, bisection_bound=bisection_bound)
    monoid = bm.monoid
    points = point_ultrafilter(bm, np.arange(groupoid.m)).tolist()     # g -> its filter

    report.add("point-filters-ultra", len(points), where(~ultra_by_meet(monoid, points)))

    at, d, r = np.array(points), list(groupoid.d), list(groupoid.r)
    moved = (filter_doms(monoid, at) != at[d]) | (filter_rans(monoid, at) != at[r])
    g, h = np.nonzero(groupoid.compose >= 0)
    wrong = filter_product(monoid, at[g], at[h]) != at[groupoid.compose[g, h]]
    # (g,) before the pairs (g, h), as the loop over g names them
    report.add("point-filters-intertwine", len(points), [
        (g,) if h < 0 else (g, h) for g, h in sorted(
            [(g, -1) for g in np.flatnonzero(moved).tolist()]
            + list(zip(g[wrong].tolist(), h[wrong].tolist())))])

    report.add("point-filters-injective", len(points),
               [] if len(set(points)) == len(points) else [("collision",)])
    exhausted = set(points) == set(enumerate_ultrafilters(monoid).tolist())
    report.add("point-filters-exhaust-ultrafilters", 1, [] if exhausted else [("mismatch",)])
    return report
