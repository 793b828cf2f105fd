"""Filters, ultrafilters and the ultrafilter groupoid of an inverse monoid.

A filter is an upward-closed, downward-directed subset, stored as a bitmask
over element indices.  In a finite monoid every filter has a least element,
so validation checks up-closure plus the existence of a generator; the
pairwise filter-base property is equivalent and is exercised separately by
the law suite.  The product of filters ``A * B`` is the upward closure of
the elementwise product set, and the ultrafilters form a groupoid under it
with ``dom(A) = A^-1 * A``.
"""

from __future__ import annotations

import numpy as np

from .errors import StructureError
from .groupoids import FiniteGroupoid
from .inverse_core import InverseMonoid, iter_bits, mask_of, popcount


class Filter:
    """An upward-closed directed subset of a fixed inverse monoid."""

    __slots__ = ("monoid", "members", "_generator", "_ultra")

    def __init__(self, monoid: InverseMonoid, members: int):
        if members == 0:
            raise StructureError("a filter cannot be empty")
        if monoid.upward_closure(members) != members:
            raise StructureError("member set is not upward closed")
        self.monoid = monoid
        self.members = members
        self._generator = self._find_generator()
        self._ultra: bool | None = None

    def _find_generator(self) -> int:
        # finite directedness == having a least member
        up = self.monoid.order().up
        for m in iter_bits(self.members):
            if up[m] == self.members:
                return m
        raise StructureError("member set is not downward directed")

    # -- identity ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, Filter) and other.monoid is self.monoid
                and other.members == self.members)

    def __hash__(self) -> int:
        return hash((id(self.monoid), self.members))

    def __repr__(self) -> str:
        names = ",".join(self.monoid.label(s) for s in self)
        return f"Filter({{{names}}})"

    def __iter__(self):
        return iter_bits(self.members)

    def __len__(self) -> int:
        return popcount(self.members)

    def __contains__(self, s: int) -> bool:
        return (self.members >> s) & 1 == 1

    # -- kinds ---------------------------------------------------------------

    @property
    def generator(self) -> int:
        """The least member; every finite filter is principal."""
        return self._generator

    @property
    def min_index(self) -> int:
        return (self.members & -self.members).bit_length() - 1

    @property
    def is_proper(self) -> bool:
        return self.monoid.zero not in self

    @property
    def is_idempotent_filter(self) -> bool:
        """True when the filter contains an idempotent."""
        return any(self.monoid.is_idempotent(s) for s in self)

    def is_ultrafilter(self) -> bool:
        """Maximal proper filter, decided by the meet criterion:
        proper F is ultra iff every s outside F kills some member
        (meet zero).  Cached."""
        if self._ultra is None:
            self._ultra = self.is_proper and self._ultra_by_meet_criterion()
        return self._ultra

    def _ultra_by_meet_criterion(self) -> bool:
        monoid = self.monoid
        for s in range(monoid.n):
            if s in self:
                continue
            if not any(monoid.meet(s, a) == monoid.zero for a in self):
                return False
        return True

    def is_ultrafilter_by_maximality(self) -> bool:
        """Independent route: compare against every proper filter containing
        this one.  In a finite monoid those are the principal filters."""
        if not self.is_proper:
            return False
        monoid = self.monoid
        for s in range(monoid.n):
            if s == monoid.zero:
                continue
            candidate = monoid.up_mask(s)
            if candidate & self.members == self.members and candidate != self.members:
                return False
        return True

    # -- operations ---------------------------------------------------------

    def inverse(self) -> "Filter":
        return Filter(self.monoid, mask_of(self.monoid.inv[s] for s in self))

    def element_product_mask(self, other: "Filter") -> int:
        """The raw set product {a b}, without upward closure."""
        mul = self.monoid.mul
        out = 0
        for a in self:
            row = mul[a]
            for b in other:
                out |= 1 << int(row[b])
        return out

    def idempotent_part_mask(self) -> int:
        monoid = self.monoid
        return self.members & mask_of(monoid.idempotents)


def principal_filter(monoid: InverseMonoid, s: int) -> Filter:
    """The proper filter of everything above a non-zero element."""
    if s == monoid.zero:
        raise StructureError("the principal filter at zero is not proper")
    return Filter(monoid, monoid.up_mask(s))


def _principal(monoid: InverseMonoid, s: int) -> Filter:
    # internal variant that admits the improper filter at zero
    return Filter(monoid, monoid.up_mask(s))


def all_filters(monoid: InverseMonoid) -> list[Filter]:
    """Every filter of a finite monoid: the principal ones, improper included."""
    return [_principal(monoid, s) for s in range(monoid.n)]


def filter_product(a: Filter, b: Filter) -> Filter:
    """The smallest filter containing the set product: upward closure of {xy}."""
    if a.monoid is not b.monoid:
        raise StructureError("filter product needs a common carrier")
    return Filter(a.monoid, a.monoid.upward_closure(a.element_product_mask(b)))


def filter_dom(f: Filter) -> Filter:
    return filter_product(f.inverse(), f)


def filter_ran(f: Filter) -> Filter:
    return filter_product(f, f.inverse())


def prime_property_check(f: Filter) -> bool:
    """Whenever an existing join lands in the filter, one of the two parts
    already belongs.  Holds for every ultrafilter of a boolean monoid; fails
    for typical non-maximal filters."""
    monoid = f.monoid
    for s in range(monoid.n):
        for t in range(monoid.n):
            j = monoid.join(s, t)
            if j is not None and j in f and s not in f and t not in f:
                return False
    return True


def enumerate_ultrafilters(monoid: InverseMonoid) -> list[Filter]:
    """All ultrafilters, ordered by their minimum member index (ties, which
    a relabelled table can have, broken by the member mask).

    Generates the principal filters at atoms, then verifies completeness
    against a direct maximality scan over every proper filter.
    """
    monoid.require_boolean()
    found = {principal_filter(monoid, a) for a in monoid.atoms}
    for s in range(monoid.n):
        if s == monoid.zero:
            continue
        f = principal_filter(monoid, s)
        if f.is_ultrafilter_by_maximality() and f not in found:
            raise StructureError(f"ultrafilter enumeration missed the filter at {s}")
    return sorted(found, key=lambda f: (f.min_index, f.members))


class StoneGroupoid(FiniteGroupoid):
    """The groupoid of ultrafilters of a boolean inverse monoid under the
    filter product.  Arrow i is ``ultrafilters[i]``; the groupoid axioms are
    verified by :class:`FiniteGroupoid` like any other groupoid's.  Built by
    :func:`ultrafilter_groupoid`.
    """

    def __init__(self, monoid: InverseMonoid, ultrafilters: list[Filter],
                 d, r, inv, compose, identities):
        self.monoid = monoid
        self.ultrafilters = ultrafilters
        self._arrow = {f.members: i for i, f in enumerate(ultrafilters)}
        super().__init__(d, r, inv, compose, identities,
                         [monoid.label(f.generator) + "^" for f in ultrafilters])

    def arrow_of(self, f: Filter) -> int:
        return self._arrow[f.members]


def _idempotent_ultra_in_e(monoid: InverseMonoid, f: Filter) -> bool:
    """Is E(F) = F intersect E an ultrafilter of the idempotent algebra?"""
    emask = mask_of(monoid.idempotents)
    part = f.idempotent_part_mask()
    if part == 0 or (part >> monoid.zero) & 1:
        return False
    for e in monoid.idempotents:
        if e == monoid.zero:
            continue
        candidate = monoid.up_mask(e) & emask
        if candidate & part == part and candidate != part:
            return False
    return True


def ultrafilter_groupoid(monoid: InverseMonoid) -> StoneGroupoid:
    """Materialize the ultrafilter groupoid and verify its structure.

    Checks, for every ultrafilter F: the three-way equivalence between
    F being ultra, dom(F) being an idempotent ultrafilter, and E(dom F)
    being an ultrafilter of the idempotent algebra; the explicit product
    form A*B = up(ab * dom(B)) for every a in A, b in B; and, through the
    FiniteGroupoid constructor, the groupoid axioms.  The explicit form
    depends on (a, b) only through ab, so it is checked once per distinct
    element of the set product AB.
    """
    monoid.require_boolean()
    ultra = enumerate_ultrafilters(monoid)
    index = {f.members: i for i, f in enumerate(ultra)}

    d_map, r_map, inv_map = [], [], []
    for f in ultra:
        d_f, r_f = filter_dom(f), filter_ran(f)
        for g, name in ((d_f, "dom"), (r_f, "ran")):
            if g.members not in index:
                raise StructureError(f"{name} of an ultrafilter is not ultra")
            if not (g.is_idempotent_filter and g.is_ultrafilter()):
                raise StructureError(f"{name} fails the idempotent-ultrafilter equivalence")
            if not _idempotent_ultra_in_e(monoid, g):
                raise StructureError(f"E({name}) is not an ultrafilter of the idempotents")
        d_map.append(index[d_f.members])
        r_map.append(index[r_f.members])
        inv_map.append(index[f.inverse().members])

    compose: dict[tuple[int, int], int] = {}
    mul = monoid.mul
    for i, a in enumerate(ultra):
        for j, b in enumerate(ultra):
            if d_map[i] != r_map[j]:
                continue
            prod = filter_product(a, b)
            if prod.members not in index:
                raise StructureError("composable ultrafilter product left the groupoid")
            k = index[prod.members]
            # explicit form: up(x y dom(B)) for every x in A, y in B, which
            # depends on (x, y) only through the product xy.  Not np.unique:
            # its first call imports numpy.ma, inside whichever check gets
            # there first.
            dom_b = list(ultra[d_map[j]])
            for xy in sorted(set(mul[np.ix_(list(a), list(b))].ravel().tolist())):
                formed = monoid.upward_closure(mask_of(mul[xy, dom_b].tolist()))
                if formed != prod.members:
                    raise StructureError("explicit product form disagrees")
            compose[(i, j)] = k

    identities = tuple(i for i, f in enumerate(ultra) if f.is_idempotent_filter)
    return StoneGroupoid(monoid, ultra, d_map, r_map, inv_map, compose, identities)
