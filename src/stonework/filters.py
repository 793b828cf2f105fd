"""Filters, ultrafilters and the ultrafilter groupoid of an inverse monoid.

A filter is an upward-closed, downward-directed subset, stored as a bitmask
over element indices.  In a finite monoid every filter is the up-set of its
least member, so validation looks for that member; the pairwise filter-base
property is equivalent and is exercised by the law suite.  The product of
filters ``A * B`` is the upward closure of the elementwise product set, and
the ultrafilters form a groupoid under it with ``dom(A) = A^-1 * A``.  In a
finite boolean monoid the ultrafilters are the principal filters at atoms,
so that groupoid is built on the atoms; the filter-product route is kept
for the law suites that cross-check it, which read every product at once
from :func:`filter_products`.
"""

from __future__ import annotations

import numpy as np

from .errors import StructureError
from .groupoids import FiniteGroupoid
from .inverse_core import InverseMonoid, iter_bits, mask_of


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
        return self.members.bit_count()

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
        return all(any(monoid.meet(s, a) == monoid.zero for a in self)
                   for s in range(monoid.n) if s not in self)

    def is_ultrafilter_by_maximality(self) -> bool:
        """Independent route: compare against every proper filter containing
        this one.  In a finite monoid those are the principal filters."""
        monoid, members = self.monoid, self.members
        return self.is_proper and not any(
            (up := monoid.up_mask(s)) & members == members and up != members
            for s in range(monoid.n) if s != monoid.zero)

    # -- operations ---------------------------------------------------------

    def inverse(self) -> "Filter":
        return Filter(self.monoid, mask_of(self.monoid.inv[s] for s in self))


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


def least_members(monoid: InverseMonoid, sets: np.ndarray) -> np.ndarray:
    """The least member of each set (a boolean row over the elements): the
    member with the largest up-set.  It generates the set's upward closure,
    a filter, if every member lies above it; else a StructureError."""
    order = monoid.order()
    least = np.where(sets, order.up_sizes, -1).argmax(axis=-1)
    if (sets & ~order.matrix[least]).any():
        raise StructureError("member set is not the up-set of one of its members")
    return least


def filter_product(a: Filter, b: Filter) -> Filter:
    """The smallest filter containing the set product: upward closure of {xy}."""
    if a.monoid is not b.monoid:
        raise StructureError("filter product needs a common carrier")
    monoid = a.monoid
    product = np.zeros(monoid.n, dtype=bool)
    product[monoid.mul[np.ix_(list(a), list(b))]] = True
    return _principal(monoid, int(least_members(monoid, product)))


def filter_products(monoid: InverseMonoid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every filter product as :func:`filter_product` defines it (filter i
    is up(i)): ``sets[i, j]``, the set product up(i) up(j) as a boolean row;
    ``prod[i, j]``, the generator of its closure; ``inverse[i]``, that of
    up(i)^-1.  Row i of ``sets`` is U @ R > 0 for the order matrix U and
    R[b, z] = [z in up(i) b], exact in float32 as sums stay <= n < 2^24."""
    n, mul = monoid.n, monoid.mul
    leq = monoid.order().matrix
    square = leq.astype(np.float32)
    reach = np.zeros((n, n), dtype=np.float32)      # R, cleared after each use
    columns = np.arange(n)
    sets = np.empty((n, n, n), dtype=bool)
    prod = np.empty((n, n), dtype=np.int64)
    for i in range(n):
        cells = mul[leq[i]]                         # row a, column b: a b, a in up(i)
        reach[columns, cells] = 1
        np.greater(square @ reach, 0, out=sets[i])
        reach[columns, cells] = 0
        prod[i] = least_members(monoid, sets[i])
    inverse = np.array([_principal(monoid, i).inverse().generator for i in range(n)])
    return sets, prod, inverse


def filter_dom(f: Filter) -> Filter:
    return filter_product(f.inverse(), f)


def filter_ran(f: Filter) -> Filter:
    return filter_product(f, f.inverse())


def prime_property_holds(members: np.ndarray, join: np.ndarray) -> np.ndarray:
    """For each filter (a boolean row): a join s v t in it has s or t in it.
    ``join`` is the join table ``OrderData.join``, -1 where absent."""
    lands = np.pad(members, ((0, 0), (0, 1)))[:, join]     # -1 reads the pad, False
    return ~(lands & ~members[:, :, None] & ~members[:, None, :]).any(axis=(1, 2))


def prime_property_check(f: Filter) -> bool:
    """The prime property of one filter: holds for every ultrafilter of a
    boolean monoid, fails for typical non-maximal filters."""
    order = f.monoid.order()
    return bool(prime_property_holds(order.matrix[[f.generator]], order.join)[0])


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
        atoms = [f.generator for f in ultrafilters]
        self._arrow = np.full(monoid.n, -1, dtype=np.int64)     # atom s -> arrow up(s)
        self._arrow[atoms] = np.arange(len(atoms))
        d = [self._arrow_at(monoid.dom(a)) for a in atoms]
        r = [self._arrow_at(monoid.ran(a)) for a in atoms]
        # up(a) up(b) = up(ab) where dom a = ran b: one gather of mul
        products = monoid.mul[np.ix_(atoms, atoms)]
        composable = np.equal.outer(d, r)
        compose = np.where(composable, self._arrow[products], -1)
        if (stray := composable & (compose < 0)).any():
            self._arrow_at(int(products[tuple(np.argwhere(stray)[0])]))
        super().__init__(d, r, [self._arrow_at(monoid.inv[a]) for a in atoms], compose,
                         [i for i, a in enumerate(atoms) if monoid.is_idempotent(a)],
                         [monoid.label(a) + "^" for a in atoms])

    def _arrow_at(self, s: int) -> int:
        """The arrow up(s); s must be an atom."""
        if self._arrow[s] < 0:
            raise StructureError(f"{self.monoid.label(s)} is not an atom, "
                                 f"so its filter is not an arrow")
        return int(self._arrow[s])

    def arrow_of(self, f: Filter) -> int:
        """The arrow that is the ultrafilter f (every finite filter is up of
        its generator)."""
        return self._arrow_at(f.generator)


def _idempotent_ultra_in_e(monoid: InverseMonoid, f: Filter) -> bool:
    """Is E(F) = F intersect E an ultrafilter of the idempotent algebra?"""
    emask = mask_of(monoid.idempotents)
    part = f.members & emask
    if part == 0 or (part >> monoid.zero) & 1:
        return False
    return not any((up := monoid.up_mask(e) & emask) & part == part and up != part
                   for e in monoid.idempotents if e != monoid.zero)


def ultrafilter_groupoid(monoid: InverseMonoid) -> StoneGroupoid:
    """The ultrafilter groupoid, read off the atoms: up(a) * up(b) = up(ab)
    when dom a = ran b, with dom, ran and inverse those of a.  The filter
    products it stands for, the explicit product form and the three-way
    ultrafilter equivalence are theorems, checked by the law suites.
    """
    return StoneGroupoid(monoid, enumerate_ultrafilters(monoid))
