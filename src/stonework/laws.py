"""Exhaustive law suites over finite carriers.

Each function sweeps one family of identities over every element, pair or
filter of its subject and returns a :class:`LawReport` with instance counts
and witnesses.  ``boolean_monoid_suite`` bundles the order/filter laws that
any verified boolean inverse monoid must satisfy; the CLI exposes the same
suites through ``check --laws``.

A suite computes what its laws share once per call: the filter suites fill
one table with the literal ``filter_product`` of every pair of filters, and
the order suite reads meets off one dense table.  Each law still checks its
own definition on every instance; none is replaced by the theorem it tests.
"""

from __future__ import annotations

from functools import reduce
from operator import and_

import numpy as np

from .duality import clifford_check, verify_basic_open_laws
from .filters import (
    all_filters,
    enumerate_ultrafilters,
    filter_dom,
    filter_product,
    prime_property_check,
)
from .inverse_core import InverseMonoid, bound_table, iter_bits, mask_of
from .reporting import LawReport


def order_meet_laws(monoid: InverseMonoid) -> LawReport:
    """Meets against compatibility: a pair is compatible exactly when its
    meet exists with dom/ran splitting; joins split dom/ran; products
    distribute over existing meets."""
    report = LawReport("order-meet laws")
    n = monoid.n

    law = report.new("compatible-iff-meet-splits")
    for s in range(n):
        for t in range(n):
            law.tick()
            m = monoid.meet(s, t)
            splits = (m is not None
                      and monoid.dom(m) == monoid.meet(monoid.dom(s), monoid.dom(t))
                      and monoid.ran(m) == monoid.meet(monoid.ran(s), monoid.ran(t)))
            if splits != monoid.compatible(s, t):
                law.fail((s, t))

    law = report.new("join-splits-dom-ran")
    for s in range(n):
        for t in range(n):
            j = monoid.join(s, t)
            if j is None:
                continue
            law.tick()
            if (monoid.dom(j) != monoid.join(monoid.dom(s), monoid.dom(t))
                    or monoid.ran(j) != monoid.join(monoid.ran(s), monoid.ran(t))):
                law.fail((s, t))

    law = report.new("products-distribute-over-meets")
    order = monoid.order()
    meet = bound_table(order.down, order.by_down)     # -1 where the meet is absent
    mul = monoid.mul
    for s in range(n):
        ts = np.flatnonzero(meet[s] >= 0)
        m = meet[s, ts]
        law.tick(n * len(ts))
        # column i is t = ts[i], row u: (us) ^ (ut) = u m and (su) ^ (tu) = m u
        left = meet[mul[:, s, None], mul[:, ts]]
        right = meet[mul[s, :, None], mul[ts].T]
        bad = (left != mul[:, m]) | (right != mul[m].T)
        for i, u in np.argwhere(bad.T).tolist():
            law.fail((s, int(ts[i]), u))
    return report


def local_complement_laws(monoid: InverseMonoid) -> LawReport:
    """Down-sets are boolean (order-isomorphic to the idempotent down-set
    through dom), relative complements are unique, and non-comparable pairs
    admit a separating element below."""
    monoid.require_boolean()
    report = LawReport("local complement laws")
    n = monoid.n

    law = report.new("downset-boolean-via-dom")
    for s in range(n):
        law.tick()
        down = list(iter_bits(monoid.down_mask(s)))
        image = sorted(monoid.dom(x) for x in down)
        if image != sorted(iter_bits(monoid.down_mask(monoid.dom(s)))):
            law.fail((s,))
            continue
        for x in down:
            for y in down:
                if monoid.leq(x, y) != monoid.leq(monoid.dom(x), monoid.dom(y)):
                    law.fail((s, x, y))

    law = report.new("relative-complement-unique")
    for t in range(n):
        for s in iter_bits(monoid.down_mask(t)):
            law.tick()
            r = monoid.relative_complement(s, t)
            candidates = [x for x in range(n)
                          if monoid.leq(x, t) and monoid.orthogonal(s, x)
                          and monoid.join(s, x) == t]
            if candidates != [r]:
                law.fail((s, t, candidates))

    law = report.new("separation-below")
    for s in range(n):
        if s == monoid.zero:
            continue
        for t in range(n):
            if monoid.leq(s, t):
                continue
            law.tick()
            s_prime = monoid.relative_complement(monoid.meet(s, t), s)
            if (s_prime == monoid.zero or not monoid.leq(s_prime, s)
                    or monoid.meet(s_prime, t) != monoid.zero):
                law.fail((s, t))
    return report


def compatible_join_laws(monoid: InverseMonoid) -> LawReport:
    """Compatible pairs have joins, and the join agrees with the three-way
    orthogonal decomposition through meet and relative complements."""
    monoid.require_boolean()
    report = LawReport("compatible join laws")
    law = report.new("compatible-join-formula")
    n = monoid.n
    for s in range(n):
        for t in range(n):
            if not monoid.compatible(s, t):
                continue
            law.tick()
            j = monoid.join(s, t)
            if j is None:
                law.fail((s, t, "missing"))
                continue
            m = monoid.meet(s, t)
            acc = m
            for part in (monoid.relative_complement(m, s),
                         monoid.relative_complement(m, t)):
                acc = monoid.join(acc, part)
                if acc is None:
                    break
            if acc != j:
                law.fail((s, t, "formula"))
    return report


def _filter_product_table(filters) -> tuple[np.ndarray, np.ndarray]:
    """The literal ``filter_product`` of every pair of ``all_filters``, as
    positions: ``prod[i, j]`` is the position of ``filters[i] * filters[j]``
    and ``inverse[i]`` that of ``filters[i].inverse()``.  Filter i is the
    principal filter at element i, so a filter's position is its generator,
    and ``filter_dom(filters[i])`` is ``filters[prod[inverse[i], i]]``."""
    prod = np.array([[filter_product(a, b).generator for b in filters] for a in filters],
                    dtype=np.int64)
    inverse = np.array([f.inverse().generator for f in filters], dtype=np.int64)
    return prod, inverse


def filter_laws(monoid: InverseMonoid) -> LawReport:
    """The filter-level laws: base property, ultrafilter criteria agreement,
    coverage, cosets, product minimality, domain submonoids, idempotent
    filters, rigidity, and the prime property of ultrafilters."""
    monoid.require_boolean()
    report = LawReport("filter laws")
    filters = all_filters(monoid)
    ultra = enumerate_ultrafilters(monoid)
    n = monoid.n
    prod, inverse = _filter_product_table(filters)
    dom = prod[inverse, np.arange(n)].tolist()

    law = report.new("filter-base-pairwise")
    for f in filters:
        for s in f:
            for t in f:
                law.tick()
                if not any(monoid.leq(z, s) and monoid.leq(z, t) for z in f):
                    law.fail((f.generator, s, t))

    law = report.new("ultra-criteria-agree")
    for f in filters:
        law.tick()
        if f.is_ultrafilter() != f.is_ultrafilter_by_maximality():
            law.fail((f.generator,))

    law = report.new("nonzero-in-some-ultrafilter")
    for s in range(n):
        if s == monoid.zero:
            continue
        law.tick()
        if not any(s in f for f in ultra):
            law.fail((s,))

    law = report.new("ultrafilter-intersection-principal")
    for a in range(n):
        if a == monoid.zero:
            continue
        law.tick()
        acc = None
        for f in ultra:
            if a in f:
                acc = f.members if acc is None else acc & f.members
        if acc != monoid.up_mask(a):
            law.fail((a,))

    law = report.new("filters-are-cosets")
    for f in filters:
        law.tick()
        pairs = f.element_product_mask(f.inverse())
        triple = 0
        for ab in iter_bits(pairs):
            for c in f:
                triple |= 1 << monoid.product(ab, c)
        if triple != f.members:
            law.fail((f.generator,))

    law = report.new("product-smallest-filter")
    # holders[x]: the positions of the filters that contain x
    holders = [mask_of(i for i, c in enumerate(filters) if x in c) for x in range(n)]

    def containing(mask: int) -> int:
        """The positions of the filters that contain every member of mask."""
        return reduce(and_, (holders[x] for x in iter_bits(mask)), (1 << n) - 1)

    containing_filter = [containing(c.members) for c in filters]
    for i, a in enumerate(filters):
        for j, b in enumerate(filters):
            law.tick()
            prod_set = a.element_product_mask(b)
            p = filters[prod[i, j]]
            if prod_set & p.members != prod_set:
                law.fail((a.generator, b.generator, "not containing"))
                continue
            for c in iter_bits(containing(prod_set) & ~containing_filter[p.generator]):
                law.fail((a.generator, b.generator, filters[c].generator))

    law = report.new("domain-inverse-submonoid")
    for i, f in enumerate(filters):
        law.tick()
        h = filters[dom[i]]
        if monoid.one not in h:
            law.fail((f.generator, "one"))
        for x in h:
            if monoid.inv[x] not in h:
                law.fail((f.generator, x, "inverse"))
            for y in h:
                if monoid.product(x, y) not in h:
                    law.fail((f.generator, x, y))
        for a in f:
            mask = mask_of(monoid.product(a, x) for x in h)
            if monoid.upward_closure(mask) != f.members:
                law.fail((f.generator, a, "coset-form"))

    law = report.new("idempotent-filter-iff-closed")
    for f in filters:
        law.tick()
        closed = (all(monoid.product(x, y) in f for x in f for y in f)
                  and all(monoid.inv[x] in f for x in f))
        if f.is_idempotent_filter != closed:
            law.fail((f.generator,))

    law = report.new("filter-rigidity")
    same_dom: dict[int, list] = {}
    for i, b in enumerate(filters):
        same_dom.setdefault(dom[i], []).append(b)
    for i, a in enumerate(filters):
        law.tick(n)
        for b in same_dom[dom[i]]:
            if a.members & b.members and a != b:
                law.fail((a.generator, b.generator))

    law = report.new("ultrafilters-prime")
    for f in ultra:
        law.tick()
        if not prime_property_check(f):
            law.fail((f.generator,))
    return report


def filter_semigroup_laws(monoid: InverseMonoid) -> LawReport:
    """The filters form an inverse semigroup under the closed product, whose
    idempotents are the idempotent filters and whose natural order is
    reverse inclusion."""
    monoid.require_boolean()
    report = LawReport("filter semigroup laws")
    filters = all_filters(monoid)
    n = len(filters)
    prod, inverse = _filter_product_table(filters)
    rng = np.arange(n)

    law = report.new("inverse-semigroup")
    law.tick(n)
    # candidates[f, g]: (f g) f = f and (g f) g = g
    candidates = (prod[prod, rng[:, None]] == rng[:, None]) & (prod[prod.T, rng] == rng)
    expected = np.zeros((n, n), dtype=bool)
    expected[rng, inverse] = True
    for i in np.flatnonzero((candidates != expected).any(axis=1)).tolist():
        law.fail((filters[i].generator,))

    law = report.new("idempotents-are-idempotent-filters")
    squares = prod[rng, rng] == rng
    for i, f in enumerate(filters):
        law.tick()
        if bool(squares[i]) != f.is_idempotent_filter:
            law.fail((f.generator,))

    law = report.new("order-is-reverse-inclusion")
    # algebraic[f, g]: f = g e for some idempotent e of the filter semigroup
    algebraic = np.zeros((n, n), dtype=bool)
    algebraic[prod[:, squares], rng[:, None]] = True
    algebraic = algebraic.tolist()
    for i, f in enumerate(filters):
        for j, g in enumerate(filters):
            law.tick()
            if algebraic[i][j] != (g.members & f.members == g.members):
                law.fail((f.generator, g.generator))
    return report


def ultra_equivalence_laws(monoid: InverseMonoid) -> LawReport:
    """For every filter, being ultra, having an idempotent-ultrafilter
    domain, and having an idempotent part that is ultra among idempotents
    are equivalent."""
    from .filters import _idempotent_ultra_in_e

    monoid.require_boolean()
    report = LawReport("ultrafilter equivalence laws")
    law = report.new("three-way-equivalence")
    for f in all_filters(monoid):
        law.tick()
        d = filter_dom(f)
        first = f.is_ultrafilter()
        second = d.is_idempotent_filter and d.is_ultrafilter()
        third = _idempotent_ultra_in_e(monoid, d)
        if not (first == second == third):
            law.fail((f.generator,))
    return report


def boolean_monoid_suite(monoid: InverseMonoid) -> LawReport:
    """Everything above plus the basic-open laws, in one report."""
    report = LawReport(f"law suite on {monoid!r}")
    report.extend(order_meet_laws(monoid))
    report.extend(local_complement_laws(monoid))
    report.extend(compatible_join_laws(monoid))
    report.extend(filter_laws(monoid))
    report.extend(filter_semigroup_laws(monoid))
    report.extend(ultra_equivalence_laws(monoid))
    report.extend(verify_basic_open_laws(monoid))
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


def point_filter_laws(groupoid, *, limits=None) -> LawReport:
    """Laws of the bisections-through-a-point map on a finite groupoid:
    each is ultra, the map intertwines dom and composition, is injective,
    and exhausts the ultrafilters."""
    from .config import DEFAULT_LIMITS
    from .filters import filter_ran
    from .groupoids import all_bisections_monoid, point_ultrafilter

    report = LawReport(f"point filter laws on {groupoid!r}")
    bm = all_bisections_monoid(groupoid, limits=limits or DEFAULT_LIMITS)
    points = [point_ultrafilter(bm, g) for g in range(groupoid.m)]

    law = report.new("point-filters-ultra")
    for g, f in enumerate(points):
        law.tick()
        if not f.is_ultrafilter():
            law.fail((g,))

    law = report.new("point-filters-intertwine")
    for g, f in enumerate(points):
        law.tick()
        if filter_dom(f) != points[groupoid.d[g]] or filter_ran(f) != points[groupoid.r[g]]:
            law.fail((g,))
        for h in range(groupoid.m):
            gh = groupoid.compose_maybe(g, h)
            if gh is not None and filter_product(f, points[h]) != points[gh]:
                law.fail((g, h))

    law = report.new("point-filters-injective")
    law.tick(len(points))
    if len({f.members for f in points}) != len(points):
        law.fail(("collision",))

    law = report.new("point-filters-exhaust-ultrafilters")
    law.tick()
    enumerated = {f.members for f in enumerate_ultrafilters(bm.monoid)}
    if {f.members for f in points} != enumerated:
        law.fail(("mismatch",))
    return report
