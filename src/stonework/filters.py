"""Filters, ultrafilters and the ultrafilter groupoid of an inverse monoid.

A filter is an upward-closed, downward-directed subset.  In a finite monoid
every filter is the up-set of its least member g, so a filter is that int
generator and its members are row g of the order matrix; :func:`filter_of`
finds the generator of a member set (or of each of an array of them) or
rejects it.  The product of filters ``A * B`` is the upward closure of their
set product (:func:`filter_product`, of one pair or of two arrays of them,
through the literal gather :func:`set_products`).  In a finite boolean monoid
the ultrafilters are the principal filters at atoms, and they form a groupoid
under that product with ``dom(A) = A^-1 * A``, built on the atoms; the law
suites cross-check it against :func:`filter_products`, which the monoid keeps.
The inverse, dom, ran and the ultrafilter criteria are array functions."""

from __future__ import annotations

import numpy as np

from .errors import StructureError
from .groupoids import FiniteGroupoid
from . import inverse_core
from .inverse_core import (InverseMonoid, as_indices, bit_words, inclusions, member_blocks,
                           row_blocks)


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


def set_products(monoid: InverseMonoid, lefts: np.ndarray, rights: np.ndarray) -> np.ndarray:
    """Row k: the set product {x y : x in lefts[k], y in rights[k]} of two
    boolean rows over the elements, the literal gather mul[A x B], taken for
    rights of one size together in chunks of BLOCK_CELLS // 64 products, whose
    intp indices and int16 values (18 bytes each) stay under BLOCK_CELLS / 3 bytes; with
    rows * n^3 at most BLOCK_CELLS / 2 (small monoids, where it is faster), one dense gather."""
    out = np.zeros(np.shape(lefts), dtype=bool)
    if out.size * monoid.n ** 2 * 2 <= inverse_core.BLOCK_CELLS:
        k, xs, ys = np.nonzero(lefts[:, :, None] & rights[:, None, :])
        out[k, monoid.mul[xs, ys]] = True
        return out
    for at, ys in member_blocks(rights, lambda size: size):
        k, xs = np.nonzero(lefts[at])
        for chunk in row_blocks(len(xs), 64 * ys.shape[1]):
            out[at[k[chunk], None], monoid.mul[xs[chunk, None], ys[k[chunk]]]] = True
    return out


def filter_product(monoid: InverseMonoid, a, b):
    """The smallest filter containing the set product up(a) up(b): the
    generator of the upward closure of {xy}, for one pair of generators, or
    for each pair of two arrays of them."""
    a, b = np.broadcast_arrays(*(as_indices(g, "filter generator", monoid.n) for g in (a, b)))
    leq = monoid.order().matrix
    generators = least_members(monoid, set_products(monoid, leq[a.ravel()], leq[b.ravel()]))
    return int(generators[0]) if a.ndim == 0 else generators.reshape(a.shape)


def filter_inverses(monoid: InverseMonoid, generators) -> np.ndarray:
    """up(g)^-1 for each generator g: the least member of the inverted row."""
    rows = monoid.order().matrix[as_indices(generators, "filter generator", monoid.n)]
    return least_members(monoid, rows[..., list(monoid.inv)])


def filter_doms(monoid: InverseMonoid, generators) -> np.ndarray:
    """dom(up(g)) = up(g)^-1 up(g) for each generator g, the closed product
    (never up(g^-1 g): that identity is a law the suites check)."""
    return filter_product(monoid, filter_inverses(monoid, generators), generators)


def filter_rans(monoid: InverseMonoid, generators) -> np.ndarray:
    """ran(up(g)) = up(g) up(g)^-1 for each generator g, the closed product."""
    return filter_product(monoid, generators, filter_inverses(monoid, generators))


def lower_bounds(monoid: InverseMonoid):
    """(rows, generators, bounds) by blocks of rows i, never building S(i, j) = up(i) up(j):
    ``generators[k, j]`` is the member of S(rows.start + k, j) that :func:`least_members`
    picks (0 if empty), ``bounds[k, j]`` the :func:`bit_words` of {c : c <= all of it}.  Stage
    one (a in up(i), for each b; in chunks of pairs (i, a), or one masked shot when n <= 16)
    and two (b in up(j)) keep the largest key and the AND of the products' lower-bound words:
    n sum|up| W words (W words a set), no temporary over BLOCK_CELLS bytes or one row."""
    n, mul, leq = monoid.n, monoid.mul, monoid.order().matrix
    key = (monoid.order().up_sizes * n + np.arange(n - 1, -1, -1)).astype(np.int32)
    below, empty = bit_words(leq.T), bit_words(np.ones(n, dtype=bool))    # [x]: c <= x
    (js, bs), width = np.nonzero(leq), 8 * len(empty)       # b in up(j), j-major
    starts = np.flatnonzero(np.diff(js, prepend=-1))        # each non-empty up(j)
    for rows in row_blocks(n, width * max(n, len(bs))):
        if n ** 3 * width * 8 <= inverse_core.BLOCK_CELLS:  # then rows is every row
            keys = np.where(leq[:, :, None], key.take(mul), -1).max(axis=1)
            words = np.bitwise_and.reduce(np.where(leq[:, :, None, None],
                                                   below.take(mul, axis=0), empty), axis=1)
        else:
            keys = np.full((len(range(n)[rows]), n), -1, dtype=np.int32)
            words, (i, a) = np.tile(empty, (len(keys), n, 1)), np.nonzero(leq[rows])
            for chunk in row_blocks(len(a), width * n):
                cells = mul[a[chunk]].astype(np.intp)       # [pair, b]: a b
                first = np.flatnonzero(np.diff(i[chunk], prepend=-1))
                at = i[chunk][first]        # reduceat costs ~0.2 ms even on one segment
                reduce = ((lambda f, x: f.reduce(x, axis=0, keepdims=True)) if len(first) == 1
                          else (lambda f, x: f.reduceat(x, first)))
                keys[at] = np.maximum(keys[at], reduce(np.maximum, key.take(cells)))
                words[at] &= reduce(np.bitwise_and, below.take(cells, axis=0))
        most, bounds = np.full_like(keys, -1), np.tile(empty, (len(keys), n, 1))
        most[:, js[starts]] = np.maximum.reduceat(keys.take(bs, axis=1), starts, axis=1)
        bounds[:, js[starts]] = np.bitwise_and.reduceat(words.take(bs, axis=1), starts, axis=1)
        yield rows, n - 1 - most % n, bounds       # -1, an empty set, gives 0 as argmax does


def filter_products(monoid: InverseMonoid) -> tuple[np.ndarray, np.ndarray]:
    """Every filter product as :func:`filter_product` defines it, kept read-only on the monoid:
    ``prod[i, j]``, the generator of the closure of up(i) up(j), from :func:`lower_bounds` and
    checked to lie below all of it, and ``inverse[i]``, that of up(i)^-1."""
    if monoid._filter_products is None:
        n, single = monoid.n, bit_words(np.eye(monoid.n, dtype=bool))     # [c]: {c}
        prod = np.empty((n, n), dtype=np.intp)
        for rows, generators, bounds in lower_bounds(monoid):
            if not (bounds & single.take(generators, axis=0)).any(axis=2).all():
                raise StructureError("member set is not the up-set of one of its members")
            prod[rows] = generators
        monoid._filter_products = prod, filter_inverses(monoid, np.arange(n))
        for table in monoid._filter_products:
            table.setflags(write=False)     # every caller reads the same arrays
    return monoid._filter_products


def prime_property_holds(members: np.ndarray, join: np.ndarray) -> np.ndarray:
    """For each filter (a boolean row): a join s v t in it has s or t in it.  ``join`` is
    ``OrderData.join``, -1 where absent; filters go in blocks of BLOCK_CELLS cells or one."""
    padded = np.hstack((members, np.zeros((len(members), 1), dtype=bool)))  # -1 reads False
    holds, join = np.empty(len(members), dtype=bool), join.astype(np.intp)   # widened once
    for rows in row_blocks(len(members), join.size):
        holds[rows] = ~(padded[rows][:, join] & ~members[rows, :, None]
                        & ~members[rows, None, :]).any(axis=(1, 2))
    return holds


def enumerate_ultrafilters(monoid: InverseMonoid) -> np.ndarray:
    """All ultrafilters, as their generators: in a finite boolean monoid,
    the atoms.  Ordered by least member index (ties, which a relabelled
    table can have, broken by the member set read as a binary number, bit s
    for element s).  That no ultrafilter is missed is checked by the laws
    ``nonzero-in-some-ultrafilter`` and ``ultra-criteria-agree``."""
    monoid.require_boolean()
    leq = monoid.order().matrix
    return np.array(sorted(monoid.atoms, key=lambda a: (leq[a].argmax(), leq[a, ::-1].tobytes())),
                    dtype=np.intp)


class StoneGroupoid(FiniteGroupoid):
    """The groupoid of ultrafilters of a boolean inverse monoid under the
    filter product.  Arrow i is the ultrafilter ``ultrafilters[i]``, the
    principal filter at an atom, and its structure is read off those atoms;
    the groupoid axioms are verified by :class:`FiniteGroupoid` like any
    other groupoid's.  Built by :func:`ultrafilter_groupoid`."""

    def __init__(self, monoid: InverseMonoid, ultrafilters: np.ndarray):
        self.monoid = monoid
        self.ultrafilters = atoms = np.asarray(ultrafilters, dtype=np.intp)
        self._arrow = np.full(monoid.n, -1, dtype=np.int64)     # atom s -> arrow up(s)
        self._arrow[atoms] = np.arange(len(atoms))
        mul, inv = monoid.mul, np.asarray(monoid.inv)[atoms]
        d, r = self.arrow_at(mul[inv, atoms]), self.arrow_at(mul[atoms, inv])
        # up(a) up(b) = up(ab) where dom a = ran b, and ab is then an atom: one
        # gather of mul (FiniteGroupoid refuses a composable pair left undefined)
        products = mul[np.ix_(atoms, atoms)]
        composable = np.equal.outer(d, r)
        compose = np.where(composable, self._arrow[products], -1)
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
    ultrafilter equivalence are theorems, checked by the law suites."""
    return StoneGroupoid(monoid, enumerate_ultrafilters(monoid))
