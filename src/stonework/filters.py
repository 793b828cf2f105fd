"""Filters, ultrafilters and the ultrafilter groupoid of an inverse monoid.

A filter is an upward-closed, downward-directed subset.  In a finite monoid
every filter is the up-set of its least member, so a :class:`Filter` is held
as that generator g and its members are row g of the order matrix;
:func:`filter_of` finds the generator of a member set or rejects it.  The
pairwise filter-base property is equivalent and is exercised by the law
suite.  The product of filters ``A * B`` is the upward closure of the
elementwise product set, and the ultrafilters form a groupoid under it with
``dom(A) = A^-1 * A``.  In a finite boolean monoid the ultrafilters are the
principal filters at atoms, so that groupoid is built on the atoms; the
filter-product route is kept for the law suites that cross-check it, which
read every product at once from :func:`filter_products`.  The ultrafilter
criteria are array functions over generators, of which each ``Filter``
method is the one-row case.
"""

from __future__ import annotations

import numpy as np

from .errors import StructureError
from .groupoids import FiniteGroupoid
from .inverse_core import InverseMonoid, inclusions


class Filter:
    """The filter up(generator) of a fixed inverse monoid."""

    __slots__ = ("monoid", "generator", "members")

    def __init__(self, monoid: InverseMonoid, generator: int):
        if not 0 <= generator < monoid.n:
            raise StructureError(f"filter generator {generator} is not an element")
        self.monoid = monoid
        self.generator = int(generator)     # the least member
        self.members = monoid.order().matrix[generator]     # read-only boolean row

    # -- identity ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, Filter) and other.monoid is self.monoid
                and other.generator == self.generator)

    def __hash__(self) -> int:
        return hash((id(self.monoid), self.generator))

    def __repr__(self) -> str:
        names = ",".join(self.monoid.label(s) for s in self)
        return f"Filter({{{names}}})"

    def __iter__(self):
        return iter(np.flatnonzero(self.members).tolist())

    def __len__(self) -> int:
        return int(self.monoid.order().up_sizes[self.generator])

    def __contains__(self, s: int) -> bool:
        return self.members.item(s)

    # -- kinds ---------------------------------------------------------------

    @property
    def min_index(self) -> int:
        return int(self.members.argmax())

    @property
    def is_proper(self) -> bool:
        return self.monoid.zero not in self

    @property
    def is_idempotent_filter(self) -> bool:
        """True when the filter contains an idempotent."""
        return bool(contains_idempotent(self.monoid, [self.generator])[0])

    def is_ultrafilter(self) -> bool:
        """Maximal proper filter, decided by :func:`ultra_by_meet`."""
        return bool(ultra_by_meet(self.monoid, [self.generator])[0])

    def is_ultrafilter_by_maximality(self) -> bool:
        """Maximal proper filter, decided by :func:`ultra_by_maximality`."""
        return bool(ultra_by_maximality(self.monoid, [self.generator])[0])

    # -- operations ---------------------------------------------------------

    def inverse(self) -> "Filter":
        return filter_of(self.monoid, self.members[list(self.monoid.inv)])


def filter_of(monoid: InverseMonoid, members: np.ndarray) -> Filter:
    """The filter with the given member set (a boolean row over the
    elements), which must be the up-set of one of its members."""
    if not members.any():
        raise StructureError("a filter cannot be empty")
    generator = int(least_members(monoid, members))
    if not np.array_equal(monoid.order().matrix[generator], members):
        raise StructureError("member set is not the up-set of one of its members")
    return Filter(monoid, generator)


def principal_filter(monoid: InverseMonoid, s: int) -> Filter:
    """The proper filter of everything above a non-zero element."""
    if s == monoid.zero:
        raise StructureError("the principal filter at zero is not proper")
    return Filter(monoid, s)


def all_filters(monoid: InverseMonoid) -> list[Filter]:
    """Every filter of a finite monoid: the principal ones, improper included."""
    return [Filter(monoid, s) for s in range(monoid.n)]


def contains_idempotent(monoid: InverseMonoid, generators) -> np.ndarray:
    """For each filter up(g) of ``generators``: does it hold an idempotent?"""
    order = monoid.order()
    return order.matrix[generators][:, list(order.idempotents)].any(axis=1)


def ultra_by_meet(monoid: InverseMonoid, generators) -> np.ndarray:
    """For each filter up(g) of ``generators``, the meet criterion: it is
    ultra when it is proper and every s outside it meets some member in
    zero."""
    order = monoid.order()
    members = order.matrix[generators]
    # [f, s]: every member of f meets s in something other than zero
    spared = inclusions(members, order.meet != monoid.zero)
    return ~members[:, monoid.zero] & ~(spared & ~members).any(axis=1)


def ultra_by_maximality(monoid: InverseMonoid, generators) -> np.ndarray:
    """For each filter up(g) of ``generators``, the independent route: it is
    ultra when it is proper and no proper filter strictly contains it.  In a
    finite monoid those are the up(s), s non-zero."""
    order = monoid.order()
    members = order.matrix[generators]
    # [f, s]: up(s) holds f and has more members
    larger = inclusions(members, order.matrix) & (order.up_sizes > members.sum(axis=1)[:, None])
    larger[:, monoid.zero] = False
    return ~members[:, monoid.zero] & ~larger.any(axis=1)


def idempotent_part_ultra(monoid: InverseMonoid, generators) -> np.ndarray:
    """For each filter F = up(g) of ``generators``: is E(F) = F & E an
    ultrafilter of the idempotent algebra E, that is non-empty, without
    zero, and strictly inside no up(e) & E for a non-zero idempotent e?"""
    leq, rng = monoid.order().matrix, np.arange(monoid.n)
    in_e = np.diagonal(monoid.mul) == rng
    part = leq[generators] & in_e
    ups = leq[in_e & (rng != monoid.zero)] & in_e
    # [f, e]: up(e) & E holds E(f) and has more members
    larger = inclusions(part, ups) & (ups.sum(axis=1) > part.sum(axis=1)[:, None])
    return part.any(axis=1) & ~part[:, monoid.zero] & ~larger.any(axis=1)


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
    product[monoid.mul[np.ix_(a.members, b.members)].astype(np.intp)] = True
    return Filter(monoid, int(least_members(monoid, product)))


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
        cells = mul[leq[i]].astype(np.intp)         # row a, column b: a b, a in up(i)
        reach[columns, cells] = 1
        np.greater(square @ reach, 0, out=sets[i])
        reach[columns, cells] = 0
        prod[i] = least_members(monoid, sets[i])
    inverse = least_members(monoid, leq[:, list(monoid.inv)])     # row i: up(i)^-1
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
    can have, broken by the member set read as a binary number, bit s for
    element s).  That no ultrafilter is missed is
    checked by the laws ``nonzero-in-some-ultrafilter`` and
    ``ultra-criteria-agree``.
    """
    monoid.require_boolean()
    return sorted((principal_filter(monoid, a) for a in monoid.atoms),
                  key=lambda f: (f.min_index, f.members[::-1].tobytes()))


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


def ultrafilter_groupoid(monoid: InverseMonoid) -> StoneGroupoid:
    """The ultrafilter groupoid, read off the atoms: up(a) * up(b) = up(ab)
    when dom a = ran b, with dom, ran and inverse those of a.  The filter
    products it stands for, the explicit product form and the three-way
    ultrafilter equivalence are theorems, checked by the law suites.
    """
    return StoneGroupoid(monoid, enumerate_ultrafilters(monoid))
