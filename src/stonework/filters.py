"""Filters, ultrafilters and the ultrafilter groupoid of an inverse monoid.

A filter is an upward-closed, downward-directed subset.  In a finite monoid
every filter is the up-set of its least member g, so a filter is that int
generator and its members are row g of the order matrix; :func:`filter_of`
finds the generator of a member set (or of each of an array of them) or
rejects it.  The pairwise filter-base property is equivalent and is
exercised by the law suite.  The product of filters ``A * B`` is the upward
closure of the elementwise product set (:func:`filter_product`, the literal
one-pair definition), and the ultrafilters form a groupoid under it with
``dom(A) = A^-1 * A``.  In a finite boolean monoid the ultrafilters are the
principal filters at atoms, so that groupoid is built on the atoms; the
filter-product route is kept for the law suites that cross-check it, which
read every product at once from :func:`filter_products`.  The inverse, dom,
ran and the ultrafilter criteria are array functions over generators.
"""

from __future__ import annotations

import numpy as np

from .errors import StructureError
from .groupoids import FiniteGroupoid
from .inverse_core import InverseMonoid, as_indices, inclusions


def filter_of(monoid: InverseMonoid, rows):
    """The generator of a member set (a boolean row over the elements), or
    the array of generators of a 2-D array of rows.  Each set must be the
    up-set of one of its members."""
    rows = np.asarray(rows, dtype=bool)
    if not rows.any(axis=-1).all():
        raise StructureError("a filter cannot be empty")
    generators = least_members(monoid, rows)
    if not np.array_equal(monoid.order().matrix[generators], rows):
        raise StructureError("member set is not the up-set of one of its members")
    return int(generators) if rows.ndim == 1 else generators


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


def filter_product(monoid: InverseMonoid, a: int, b: int) -> int:
    """The smallest filter containing the set product up(a) up(b): the
    generator of the upward closure of {xy}."""
    a, b = as_indices((a, b), "filter generator", monoid.n).tolist()
    leq = monoid.order().matrix
    product = np.zeros(monoid.n, dtype=bool)
    product[monoid.mul[np.ix_(leq[a], leq[b])].astype(np.intp)] = True
    return int(least_members(monoid, product))


def filter_inverses(monoid: InverseMonoid, generators) -> np.ndarray:
    """up(g)^-1 for each generator g: the least member of the inverted row."""
    rows = monoid.order().matrix[as_indices(generators, "filter generator", monoid.n)]
    return least_members(monoid, rows[..., list(monoid.inv)])


def filter_doms(monoid: InverseMonoid, generators) -> np.ndarray:
    """dom(up(g)) = up(g)^-1 up(g) for each generator g, the closed product
    (never up(g^-1 g): that identity is a law the suites check)."""
    return _closed_products(monoid, filter_inverses(monoid, generators), generators)


def filter_rans(monoid: InverseMonoid, generators) -> np.ndarray:
    """ran(up(g)) = up(g) up(g)^-1 for each generator g, the closed product."""
    return _closed_products(monoid, generators, filter_inverses(monoid, generators))


def _closed_products(monoid: InverseMonoid, lefts, rights) -> np.ndarray:
    pairs = zip(np.asarray(lefts).tolist(), np.asarray(rights).tolist())
    return np.array([filter_product(monoid, a, b) for a, b in pairs], dtype=np.intp)


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
    return sets, prod, filter_inverses(monoid, columns)


def prime_property_holds(members: np.ndarray, join: np.ndarray) -> np.ndarray:
    """For each filter (a boolean row): a join s v t in it has s or t in it.
    ``join`` is the join table ``OrderData.join``, -1 where absent."""
    lands = np.pad(members, ((0, 0), (0, 1)))[:, join]     # -1 reads the pad, False
    return ~(lands & ~members[:, :, None] & ~members[:, None, :]).any(axis=(1, 2))


def enumerate_ultrafilters(monoid: InverseMonoid) -> np.ndarray:
    """All ultrafilters, as their generators: in a finite boolean monoid,
    the atoms.  Ordered by least member index (ties, which a relabelled
    table can have, broken by the member set read as a binary number, bit s
    for element s).  That no ultrafilter is missed is checked by the laws
    ``nonzero-in-some-ultrafilter`` and ``ultra-criteria-agree``.
    """
    monoid.require_boolean()
    leq = monoid.order().matrix
    return np.array(sorted(monoid.atoms, key=lambda a: (leq[a].argmax(), leq[a, ::-1].tobytes())),
                    dtype=np.intp)


class StoneGroupoid(FiniteGroupoid):
    """The groupoid of ultrafilters of a boolean inverse monoid under the
    filter product.  Arrow i is the ultrafilter ``ultrafilters[i]``, the
    principal filter at an atom, and its structure is read off those atoms;
    the groupoid axioms are verified by :class:`FiniteGroupoid` like any
    other groupoid's.  Built by :func:`ultrafilter_groupoid`.
    """

    def __init__(self, monoid: InverseMonoid, ultrafilters: np.ndarray):
        self.monoid = monoid
        self.ultrafilters = atoms = np.asarray(ultrafilters, dtype=np.intp)
        self._arrow = np.full(monoid.n, -1, dtype=np.int64)     # atom s -> arrow up(s)
        self._arrow[atoms] = np.arange(len(atoms))
        mul, inv = monoid.mul, np.asarray(monoid.inv)[atoms]
        d, r = self.arrow_at(mul[inv, atoms]), self.arrow_at(mul[atoms, inv])
        # up(a) up(b) = up(ab) where dom a = ran b: one gather of mul
        products = mul[np.ix_(atoms, atoms)]
        composable = np.equal.outer(d, r)
        compose = np.where(composable, self._arrow[products], -1)
        if (stray := composable & (compose < 0)).any():
            self.arrow_at(products[tuple(np.argwhere(stray)[0])])
        super().__init__(d, r, self.arrow_at(inv), compose,
                         np.flatnonzero(mul[atoms, atoms] == atoms),
                         [monoid.label(a) + "^" for a in atoms.tolist()])

    def arrow_at(self, generators):
        """The arrow that is the ultrafilter up(g), for a generator g or each
        of an array of them; g must be an atom."""
        gens = as_indices(generators, "filter generator", self.monoid.n)
        arrows = self._arrow[gens]
        if (missing := np.flatnonzero(arrows < 0)).size:
            s = int(gens.flat[missing[0]])
            raise StructureError(f"{self.monoid.label(s)} is not an atom, "
                                 f"so its filter is not an arrow")
        return int(arrows) if arrows.ndim == 0 else arrows


def ultrafilter_groupoid(monoid: InverseMonoid) -> StoneGroupoid:
    """The ultrafilter groupoid, read off the atoms: up(a) * up(b) = up(ab)
    when dom a = ran b, with dom, ran and inverse those of a.  The filter
    products it stands for, the explicit product form and the three-way
    ultrafilter equivalence are theorems, checked by the law suites.
    """
    return StoneGroupoid(monoid, enumerate_ultrafilters(monoid))
