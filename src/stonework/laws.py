"""Exhaustive law suites over finite carriers.

Each function sweeps one family of identities over every element, pair or
filter of its subject and returns a :class:`LawReport` with instance counts
and witnesses; ``boolean_monoid_suite`` bundles the order and filter laws,
and the CLI runs the same suites through ``check --laws``.  A suite computes
what its laws share once (the order's dense tables, one ``relative_complements``
call per complement law, the ``filter_products`` that the monoid keeps, one
``lower_bounds`` pass, one batched ``filter_product`` call per batch) and
checks each law's own definition on every instance, never the theorem it
tests, by whole-table gathers in row blocks of at most BLOCK_CELLS cells.  A
law whose witnesses mix kinds flags its failing rows whole-table and names
them by its per-instance loop, in that loop's order; the loops themselves
are kept as references in ``tests/helpers.py``.
"""

from __future__ import annotations

import numpy as np

from .duality import clifford_check, point_ultrafilter, verify_basic_open_laws
from .filters import (
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
from .inverse_core import (MAX_ELEMENTS, InverseMonoid, bit_words, inclusions, member_blocks,
                           row_blocks)
from .reporting import LawReport


def order_meet_laws(monoid: InverseMonoid) -> LawReport:
    """Meets against compatibility: a pair is compatible exactly when its
    meet exists with dom/ran splitting; joins split dom/ran; products
    distribute over existing meets."""
    report = LawReport("order-meet laws")
    n, mul, inv, rng = monoid.n, monoid.mul, np.asarray(monoid.inv), np.arange(monoid.n)
    order = monoid.order()      # the bound tables hold -1 where a bound is absent
    meet, join = order.meet, order.join
    dom, ran = mul[inv, rng].astype(np.intp), mul[rng, inv].astype(np.intp)

    def fails_to_split(bound):
        """[s, t]: dom or ran of the bound of s and t is not the bound of their doms or rans."""
        return (dom[bound] != bound[np.ix_(dom, dom)]) | (ran[bound] != bound[np.ix_(ran, ran)])

    law = report.new("compatible-iff-meet-splits")
    law.tick(n * n)
    splits = (meet >= 0) & ~fails_to_split(meet)
    law.fail_where(splits != monoid.compatibility())

    law = report.new("join-splits-dom-ran")
    law.tick(int(np.count_nonzero(join >= 0)))
    law.fail_where((join >= 0) & fails_to_split(join))

    law = report.new("products-distribute-over-meets")
    exists = meet >= 0
    law.tick(n * int(np.count_nonzero(exists)))
    found = []
    for rows in row_blocks(n, n):       # blocks of s; two row gathers a u in each
        m = np.maximum(meet[rows], 0).astype(np.intp)       # an absent meet reads 0: masked
        for u in range(n):
            row, col = mul[u].astype(np.intp), mul[:, u].astype(np.intp)    # [s]: u s and s u
            # [s, t]: (us) ^ (ut) = u m and (su) ^ (tu) = m u, m = s ^ t where it exists
            bad = ((meet.take(row[rows], axis=0).take(row, axis=1) != mul[u].take(m))
                   | (meet.take(col[rows], axis=0).take(col, axis=1) != mul[:, u].take(m)))
            if bad.any():
                s, t = np.nonzero(bad & exists[rows])
                found += zip((s + rows.start).tolist(), t.tolist(), [u] * len(s))
    law.failures += sorted(found)       # as the loop over (s, t, u)
    return report


def local_complement_laws(monoid: InverseMonoid) -> LawReport:
    """Down-sets are boolean (order-isomorphic to the idempotent down-set
    through dom), relative complements are unique, and non-comparable pairs
    admit a separating element below."""
    monoid.require_boolean()
    report = LawReport("local complement laws")
    n, order = monoid.n, monoid.order()
    leq, meet, join = order.matrix, order.meet, order.join
    dom = monoid.mul[np.asarray(monoid.inv), np.arange(n)].astype(np.intp)
    moved = leq != leq[dom][:, dom]         # [x, y]: x <= y and dom x <= dom y disagree

    law = report.new("downset-boolean-via-dom")
    law.tick(n)
    # (s,): dom does not sort down(s) onto down(dom s); else (s, x, y): x, y in down(s) moved
    found = []
    for at, down in member_blocks(leq.T, lambda size: size * size):
        image = np.sort(dom[down], axis=1)      # onto: distinct, inside, and as many
        onto = ((np.diff(image) > 0).all(axis=1) & leq[image, dom[at, None]].all(axis=1)
                & (np.count_nonzero(leq[:, dom[at]], axis=0) == down.shape[1]))
        found += [(s,) for s in at[~onto].tolist()]
        r, x, y = np.nonzero(moved[down[:, :, None], down[:, None, :]] & onto[:, None, None])
        found += zip(at[r].tolist(), down[r, x].tolist(), down[r, y].tolist())
    law.failures += sorted(found, key=lambda witness: witness[0])      # as the loop over s

    law = report.new("relative-complement-unique")
    orthogonal = monoid.orthogonality()
    t, s = np.nonzero(leq.T)                # every s <= t, t-major
    law.tick(len(s))
    r = monoid.relative_complements(s, t)
    # x is a candidate of (s, t) when x <= t, x is orthogonal to s and s v x = t:
    # a pair (s, x) is one only for t = s v x, so one bincount counts them all;
    # the codes s * n + t are intp, as np.nonzero's rows are (join is int16)
    rows, xs = np.nonzero(orthogonal & (join >= 0))
    ups = join[rows, xs]
    counts = np.bincount((rows * n + ups)[leq[xs, ups]], minlength=n * n)
    unique = (counts[s * n + t] == 1) & leq[r, t] & orthogonal[s, r] & (join[s, r] == t)
    for s, t in zip(s[~unique].tolist(), t[~unique].tolist()):
        law.fail((s, t, np.flatnonzero(leq[:, t] & orthogonal[s] & (join[s] == t)).tolist()))

    law = report.new("separation-below")
    apart = (np.arange(n) != monoid.zero)[:, None] & ~leq     # s != 0, s not <= t
    pairs = np.nonzero(apart)
    law.tick(len(pairs[0]))
    for block in row_blocks(len(pairs[0]), 1):     # relative_complements holds ~70 bytes a pair
        s, t = pairs[0][block], pairs[1][block]
        s_prime = monoid.relative_complements(meet[s, t], s)
        apart[s, t] = (s_prime == monoid.zero) | ~leq[s_prime, s] | (meet[s_prime, t] != monoid.zero)
    law.fail_where(apart)
    return report


def compatible_join_laws(monoid: InverseMonoid) -> LawReport:
    """Compatible pairs have joins, and the join agrees with the three-way
    orthogonal decomposition through meet and relative complements."""
    monoid.require_boolean()
    report = LawReport("compatible join laws")
    law = report.new("compatible-join-formula")
    order = monoid.order()
    s, t = np.nonzero(monoid.compatibility())
    law.tick(len(s))
    j = order.join[s, t]
    joined = j >= 0
    m = order.meet[s, t][joined]
    # m v (s \\ m) v (t \\ m), the complements taken pair by pair in loop order
    parts = monoid.relative_complements(np.repeat(m, 2), np.column_stack((s, t))[joined].ravel())
    acc = order.join[m, parts[0::2]]
    acc = np.where(acc >= 0, order.join[np.maximum(acc, 0), parts[1::2]], -1)
    wrong = ~joined
    wrong[joined] = acc != j[joined]
    for s, t, missing in zip(s[wrong].tolist(), t[wrong].tolist(), ~joined[wrong]):
        law.fail((s, t, "missing" if missing else "formula"))
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
    prod, inverse = filter_products(monoid)
    dom = prod[inverse, rng]

    law = report.new("filter-base-pairwise")
    law.tick(int(np.square(np.count_nonzero(leq, axis=1)).sum()))
    found = []          # (i, s, t): no member of filter i lies below both s and t
    for at, members in member_blocks(leq, lambda size: size * size):
        below = leq[members[:, :, None], members[:, None, :]].astype(np.float32)  # [i, z, s]
        row, s, t = np.nonzero(np.matmul(below.transpose(0, 2, 1), below) == 0)
        found += zip(at[row].tolist(), members[row, s].tolist(), members[row, t].tolist())
    law.failures += sorted(found, key=lambda witness: witness[0])      # as the loop over i

    law = report.new("ultra-criteria-agree")
    law.tick(n)
    law.fail_where(ultra_by_meet(monoid, rng) != ultra_by_maximality(monoid, rng))

    in_ultra = leq[ultra]                   # row k: the members of ultra[k]
    nonzero = rng != monoid.zero
    law = report.new("nonzero-in-some-ultrafilter")
    law.tick(n - 1)
    law.fail_where(nonzero & ~in_ultra.any(axis=0))

    law = report.new("ultrafilter-intersection-principal")
    law.tick(n - 1)
    # [a, z]: every ultrafilter that holds a holds z
    common = inclusions(in_ultra.T, in_ultra.T)
    law.fail_where(nonzero & (common != leq).any(axis=1))

    # [f]: the set products up(f) up(f)^-1 and up(f) up(f), in one call
    pairs, squares = np.split(set_products(monoid, np.vstack((leq, leq)),
                                           np.vstack((leq[inverse], leq))), 2)
    law = report.new("filters-are-cosets")
    law.tick(n)
    # F = F F^-1 F, the set product with no closure
    law.fail_where((set_products(monoid, pairs, leq) != leq).any(axis=1))

    law = report.new("product-smallest-filter")
    law.tick(n * n)
    # up(c) holds up(i) up(j) exactly when c is in its lower bounds L(i, j); such
    # an up(c) is smaller when it does not contain up(T), T = prod[i, j]
    single, lacking = bit_words(np.eye(n, dtype=bool)), bit_words(~inclusions(leq, leq))
    for rows, _, bounds in lower_bounds(monoid):
        missing = ~(bounds & single.take(prod[rows], axis=0)).any(axis=2)
        smaller = bounds & lacking.take(prod[rows], axis=0)
        for k, j in np.argwhere(missing | smaller.any(axis=2)).tolist():
            i, bits = rows.start + k, np.unpackbits(smaller[k, j].view(np.uint8), count=n)
            law.failures += ([(i, j, "not containing")] if missing[k, j]
                             else [(i, j, c) for c in np.flatnonzero(bits).tolist()])

    closed = ~(squares & ~leq).any(axis=1) & ~(leq & ~leq[:, inv]).any(axis=1)
    law = report.new("domain-inverse-submonoid")
    law.tick(n)
    f, a = np.nonzero(leq)          # filter f is the upward closure of a dom(f), a in up(f)
    coset = np.zeros((n, n), dtype=bool)
    for rows in row_blocks(len(f), 4 * n):                      # float32 cells
        products = set_products(monoid, a[rows, None] == rng, leq[dom[f[rows]]])
        coset[f[rows], a[rows]] = ((products.astype(np.float32) @ above > 0)
                                   != leq[f[rows]]).any(axis=1)
    for i in np.flatnonzero(~(leq[dom, monoid.one] & closed[dom]) | coset.any(axis=1)).tolist():
        inside = leq[dom[i]]                                # named by the loop
        members = np.flatnonzero(inside)
        if not inside[monoid.one]:
            law.fail((i, "one"))
        products = inside[monoid.mul[np.ix_(members, members)]]
        for x, row, has_inverse in zip(members.tolist(), products, inside[inv[members]]):
            if not has_inverse:
                law.fail((i, x, "inverse"))
            for y in members[~row].tolist():
                law.fail((i, x, y))
        law.failures += [(i, a, "coset-form") for a in np.flatnonzero(coset[i]).tolist()]

    law = report.new("idempotent-filter-iff-closed")
    law.tick(n)
    law.fail_where(contains_idempotent(monoid, rng) != closed)

    law = report.new("filter-rigidity")
    law.tick(n * n)
    law.fail_where((above @ above.T > 0) & (dom[:, None] == dom) & ~np.eye(n, dtype=bool))

    law = report.new("ultrafilters-prime")
    law.tick(len(ultra))
    law.failures += [(g,) for g in ultra[~prime_property_holds(in_ultra, order.join)].tolist()]
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

    law = report.new("inverse-semigroup")
    law.tick(n)
    # candidates[f, g]: (f g) f = f and (g f) g = g
    candidates = (prod[prod, rng[:, None]] == rng[:, None]) & (prod[prod.T, rng] == rng)
    expected = np.zeros((n, n), dtype=bool)
    expected[rng, inverse] = True
    law.fail_where((candidates != expected).any(axis=1))

    law = report.new("idempotents-are-idempotent-filters")
    law.tick(n)
    squares = prod[rng, rng] == rng
    law.fail_where(squares != contains_idempotent(monoid, rng))

    law = report.new("order-is-reverse-inclusion")
    law.tick(n * n)
    # algebraic[f, g]: f = g e for some idempotent e of the filter semigroup
    algebraic = np.zeros((n, n), dtype=bool)
    algebraic[prod[:, squares], rng[:, None]] = True
    law.fail_where(algebraic != inclusions(leq, leq).T)
    return report


def ultra_equivalence_laws(monoid: InverseMonoid) -> LawReport:
    """For every filter, being ultra, having an idempotent-ultrafilter
    domain, and having an idempotent part that is ultra among idempotents
    are equivalent."""
    monoid.require_boolean()
    report = LawReport("ultrafilter equivalence laws")
    law = report.new("three-way-equivalence")
    rng = np.arange(monoid.n)               # filter i is up(i)
    law.tick(monoid.n)
    dom = filter_doms(monoid, rng)
    first = ultra_by_meet(monoid, rng)
    second = contains_idempotent(monoid, dom) & ultra_by_meet(monoid, dom)
    third = idempotent_part_ultra(monoid, dom)
    law.fail_where((first != second) | (second != third))
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


def clifford_report(monoid: InverseMonoid) -> LawReport:
    report = LawReport("clifford check")
    law = report.new("clifford-groupoid-has-loops-only")
    law.tick()
    result = clifford_check(monoid)
    if not result.is_clifford:
        law.fail(("not-clifford", result.witness))
    elif not (result.loops_only and result.filters_balanced):
        law.fail(("unbalanced",))
    return report


def point_filter_laws(groupoid, *, bisection_bound: int = MAX_ELEMENTS) -> LawReport:
    """Laws of the bisections-through-a-point map on a finite groupoid:
    each is ultra, the map intertwines dom and composition, is injective,
    and exhausts the ultrafilters."""
    report = LawReport(f"point filter laws on {groupoid!r}")
    bm = all_bisections_monoid(groupoid, bisection_bound=bisection_bound)
    monoid = bm.monoid
    points = point_ultrafilter(bm, np.arange(groupoid.m)).tolist()     # g -> its filter

    law = report.new("point-filters-ultra")
    law.tick(len(points))
    law.fail_where(~ultra_by_meet(monoid, points))

    law = report.new("point-filters-intertwine")
    law.tick(len(points))
    at, d, r = np.array(points), list(groupoid.d), list(groupoid.r)
    moved = (filter_doms(monoid, at) != at[d]) | (filter_rans(monoid, at) != at[r])
    g, h = np.nonzero(groupoid.compose >= 0)
    wrong = filter_product(monoid, at[g], at[h]) != at[groupoid.compose[g, h]]
    # (g,) before the pairs (g, h), as the loop over g names them
    for g, h in sorted([(g, -1) for g in np.flatnonzero(moved).tolist()]
                       + list(zip(g[wrong].tolist(), h[wrong].tolist()))):
        law.fail((g,) if h < 0 else (g, h))

    law = report.new("point-filters-injective")
    law.tick(len(points))
    if len(set(points)) != len(points):
        law.fail(("collision",))

    law = report.new("point-filters-exhaust-ultrafilters")
    law.tick()
    if set(points) != set(enumerate_ultrafilters(monoid).tolist()):
        law.fail(("mismatch",))
    return report
