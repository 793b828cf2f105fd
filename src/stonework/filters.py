"""Filters, ultrafilters and the ultrafilter groupoid of an inverse monoid.

A filter is an upward-closed, downward-directed subset, stored as a bitmask
over element indices.  In a finite monoid every filter is the up-set of its
least member, so validation looks for that member; the pairwise filter-base
property is equivalent and is exercised by the law suite.  The product of
filters ``A * B`` is the upward closure of the elementwise product set, and
the ultrafilters form a groupoid under it with ``dom(A) = A^-1 * A``.  In a
finite boolean monoid the ultrafilters are the principal filters at atoms,
so that groupoid is built on the atoms; the filter-product route is kept
for the law suites that cross-check it.
"""

from __future__ import annotations

from .errors import StructureError
from .groupoids import FiniteGroupoid
from .inverse_core import InverseMonoid, iter_bits, mask_of, popcount


class Filter:
    """An upward-closed directed subset of a fixed inverse monoid."""

    __slots__ = ("monoid", "members", "_generator", "_ultra", "_elements")

    def __init__(self, monoid: InverseMonoid, members: int):
        if members == 0:
            raise StructureError("a filter cannot be empty")
        self.monoid = monoid
        self.members = members
        self._generator = self._find_generator()
        self._ultra: bool | None = None
        self._elements: tuple[int, ...] | None = None

    def _find_generator(self) -> int:
        # a finite filter is the up-set of its least member
        up = self.monoid.order().up
        for m in iter_bits(self.members):
            if up[m] == self.members:
                return m
        raise StructureError("member set is not the up-set of one of its members")

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
        if self._elements is None:      # members are listed once, on first use
            self._elements = tuple(iter_bits(self.members))
        return iter(self._elements)

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
        right = list(other)
        out = 0
        for a in self:
            row = mul[a]
            for b in right:
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
    """All ultrafilters: in a finite boolean monoid, the principal filters at
    atoms.  Ordered by minimum member index (ties, which a relabelled table
    can have, broken by the member mask).  That no ultrafilter is missed is
    checked by the laws ``nonzero-in-some-ultrafilter`` and
    ``ultra-criteria-agree``.
    """
    monoid.require_boolean()
    return sorted((principal_filter(monoid, a) for a in monoid.atoms),
                  key=lambda f: (f.min_index, f.members))


class StoneGroupoid(FiniteGroupoid):
    """The groupoid of ultrafilters of a boolean inverse monoid under the
    filter product.  Arrow i is ``ultrafilters[i]``, the principal filter
    at an atom, and its structure is read off those atoms; the groupoid
    axioms are verified by :class:`FiniteGroupoid` like any other
    groupoid's.  Built by :func:`ultrafilter_groupoid`.
    """

    def __init__(self, monoid: InverseMonoid, ultrafilters: list[Filter]):
        self.monoid = monoid
        self.ultrafilters = ultrafilters
        self._arrow = {f.generator: i for i, f in enumerate(ultrafilters)}
        atoms = [f.generator for f in ultrafilters]
        d = [self._arrow_at(monoid.dom(a)) for a in atoms]
        r = [self._arrow_at(monoid.ran(a)) for a in atoms]
        compose = {(i, j): self._arrow_at(monoid.product(a, b))
                   for i, a in enumerate(atoms)
                   for j, b in enumerate(atoms) if d[i] == r[j]}
        super().__init__(d, r, [self._arrow_at(monoid.inv[a]) for a in atoms], compose,
                         [i for i, a in enumerate(atoms) if monoid.is_idempotent(a)],
                         [monoid.label(a) + "^" for a in atoms])

    def _arrow_at(self, s: int) -> int:
        """The arrow up(s); s must be an atom."""
        if s not in self._arrow:
            raise StructureError(f"{self.monoid.label(s)} is not an atom, "
                                 f"so its filter is not an arrow")
        return self._arrow[s]

    def arrow_of(self, f: Filter) -> int:
        """The arrow that is the ultrafilter f (every finite filter is up of
        its generator)."""
        return self._arrow_at(f.generator)


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
    """The ultrafilter groupoid, read off the atoms: up(a) * up(b) = up(ab)
    when dom a = ran b, with dom, ran and inverse those of a.  The filter
    products it stands for, the explicit product form and the three-way
    ultrafilter equivalence are theorems, checked by the law suites.
    """
    return StoneGroupoid(monoid, enumerate_ultrafilters(monoid))
