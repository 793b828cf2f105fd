"""Exhaustive law suites over finite carriers.

Each function sweeps one family of identities over every element, pair or
filter of its subject and returns a :class:`LawReport` with instance counts
and witnesses.  ``boolean_monoid_suite`` bundles the order/filter laws that
any verified boolean inverse monoid must satisfy; the CLI exposes the same
suites through ``check --laws``.

A suite computes what its laws share once: both filter suites read the one
table of every literal filter product that the monoid keeps
(``filter_products``), and the order suites are gathers over the order's
dense tables, each complement law with one ``relative_complements`` call
over all of its pairs.  Each law still checks its own definition on every
instance; none is replaced by the theorem it tests.
"""

from __future__ import annotations

import numpy as np

from .duality import clifford_check, verify_basic_open_laws
from .filters import (
    contains_idempotent,
    enumerate_ultrafilters,
    filter_doms,
    filter_product,
    filter_products,
    filter_rans,
    idempotent_part_ultra,
    prime_property_holds,
    ultra_by_maximality,
    ultra_by_meet,
)
from .groupoids import all_bisections_monoid, point_ultrafilter
from .inverse_core import MAX_ELEMENTS, InverseMonoid, inclusions
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
    # meets read by flat int32 codes x * n + y: n^2 <= MAX_ELEMENTS^2 < 2^31
    by_row, by_col = (np.ascontiguousarray(a, dtype=np.int32) for a in (mul, mul.T))
    for s in range(n):
        ts = np.flatnonzero(meet[s] >= 0)
        m = meet[s, ts]
        law.tick(n * len(ts))
        # row i is t = ts[i], column u: (us) ^ (ut) = u m and (su) ^ (tu) = m u
        left = meet.take(by_col[s] * n + by_col[ts])
        right = meet.take(by_row[s] * n + by_row[ts])
        bad = (left != by_col[m]) | (right != by_row[m])
        for i, u in np.argwhere(bad).tolist():
            law.fail((s, int(ts[i]), u))
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
    for s in range(n):
        law.tick()
        down = np.flatnonzero(leq[:, s])
        if sorted(dom[down].tolist()) != np.flatnonzero(leq[:, dom[s]]).tolist():
            law.fail((s,))
            continue
        for x, y in np.argwhere(moved[down][:, down]).tolist():
            law.fail((s, int(down[x]), int(down[y])))

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
    s, t = np.nonzero(apart)
    law.tick(len(s))
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
    mul = monoid.mul.astype(np.intp)    # the loops below index by products; n^2 beside n^3 sets
    leq, rng = order.matrix, np.arange(n)       # filter i is up(i)
    up = [np.flatnonzero(row) for row in leq]   # up[i]: the members of filter i
    sets, prod, inverse = filter_products(monoid)
    dom = prod[inverse, rng]

    law = report.new("filter-base-pairwise")
    for i, members in enumerate(up):
        law.tick(len(members) ** 2)
        below = leq[np.ix_(members, members)].astype(np.float32)    # [z, s]: z <= s
        for s, t in np.argwhere(below.T @ below == 0).tolist():     # no z below both
            law.fail((i, int(members[s]), int(members[t])))

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

    law = report.new("filters-are-cosets")
    for i in range(n):
        law.tick()
        # F = F F^-1 F, the set product with no closure
        triple = np.zeros(n, dtype=bool)
        triple[mul[np.ix_(np.flatnonzero(sets[i, inverse[i]]), up[i])]] = True
        if not np.array_equal(triple, leq[i]):
            law.fail((i,))

    law = report.new("product-smallest-filter")
    contains = inclusions(leq, leq)         # contains[x, c]: filter c contains up(x)
    outside = (~leq).T.astype(np.float32)   # inclusions(sets[i], leq)'s right factor, once
    for i in range(n):
        law.tick(n)
        missing = (sets[i] & ~leq[prod[i]]).any(axis=1)
        smaller = (sets[i].astype(np.float32) @ outside == 0) & ~contains[prod[i]]
        for j in np.flatnonzero(missing | smaller.any(axis=1)).tolist():
            if missing[j]:
                law.fail((i, j, "not containing"))
                continue
            for c in np.flatnonzero(smaller[j]).tolist():
                law.fail((i, j, c))

    law = report.new("domain-inverse-submonoid")
    for i in range(n):
        law.tick()
        members, inside = up[dom[i]], leq[dom[i]]
        if not inside[monoid.one]:
            law.fail((i, "one"))
        closed = inside[mul[np.ix_(members, members)]]
        for x, row, has_inverse in zip(members.tolist(), closed, inside[inv[members]]):
            if not has_inverse:
                law.fail((i, x, "inverse"))
            for y in members[~row].tolist():
                law.fail((i, x, y))
        for a in up[i].tolist():        # filter i is the upward closure of a dom(i)
            if not np.array_equal(leq[mul[a, members]].any(axis=0), leq[i]):
                law.fail((i, a, "coset-form"))

    law = report.new("idempotent-filter-iff-closed")
    idempotent = contains_idempotent(monoid, rng)
    for i, members in enumerate(up):
        law.tick()
        closed = leq[i][mul[np.ix_(members, members)]].all() and leq[i][inv[members]].all()
        if idempotent[i] != closed:
            law.fail((i,))

    law = report.new("filter-rigidity")
    law.tick(n * n)
    rows = leq.astype(np.float32)
    law.fail_where((rows @ rows.T > 0) & (dom[:, None] == dom) & ~np.eye(n, dtype=bool))

    law = report.new("ultrafilters-prime")
    prime = prime_property_holds(in_ultra, order.join)
    for g, holds in zip(ultra.tolist(), prime):
        law.tick()
        if not holds:
            law.fail((g,))
    return report


def filter_semigroup_laws(monoid: InverseMonoid) -> LawReport:
    """The filters form an inverse semigroup under the closed product, whose
    idempotents are the idempotent filters and whose natural order is
    reverse inclusion."""
    monoid.require_boolean()
    report = LawReport("filter semigroup laws")
    n = monoid.n                # filter i is up(i)
    _, prod, inverse = filter_products(monoid)
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
    doms, rans = filter_doms(monoid, points).tolist(), filter_rans(monoid, points).tolist()
    for g, f in enumerate(points):
        law.tick()
        if doms[g] != points[groupoid.d[g]] or rans[g] != points[groupoid.r[g]]:
            law.fail((g,))
        for h in range(groupoid.m):
            gh = groupoid.compose_maybe(g, h)
            if gh is not None and filter_product(monoid, f, points[h]) != points[gh]:
                law.fail((g, h))

    law = report.new("point-filters-injective")
    law.tick(len(points))
    if len(set(points)) != len(points):
        law.fail(("collision",))

    law = report.new("point-filters-exhaust-ultrafilters")
    law.tick()
    if set(points) != set(enumerate_ultrafilters(monoid).tolist()):
        law.fail(("mismatch",))
    return report
