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
    a filter, if every member lies above it; else a StructureError.  Up-set
    sizes are at most MAX_ELEMENTS < 2^15, so they rank as int16."""
    order = monoid.order()
    least = np.where(sets, order.up_sizes.astype(np.int16), np.int16(-1)).argmax(axis=-1)
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
    return least_members(monoid, rows.take(monoid.inv, axis=-1))


def filter_doms(monoid: InverseMonoid, generators) -> np.ndarray:
    """dom(up(g)) = up(g)^-1 up(g) for each generator g, the closed product
    (never up(g^-1 g): that identity is a law the suites check)."""
    return _closed_products(monoid, filter_inverses(monoid, generators), generators)


def filter_rans(monoid: InverseMonoid, generators) -> np.ndarray:
    """ran(up(g)) = up(g) up(g)^-1 for each generator g, the closed product."""
    return _closed_products(monoid, generators, filter_inverses(monoid, generators))


def _closed_products(monoid: InverseMonoid, a, b) -> np.ndarray:
    """filter_product of two arrays, gathered from the filter_products table if it is kept."""
    kept = monoid._filter_products
    return filter_product(monoid, a, b) if kept is None else kept[0][a, b]


def _fold_up(ufunc, out: np.ndarray, base, plan, width: int) -> None:
    """Fold ``ufunc`` over up-sets into ``out``, one row per element, by the steps (rows,
    groups) of ``plan``, each group (at, sources) of rows at[r] with sources[r] (as many to a
    row).  With rows None: out[i] = ufunc(out[i], base(a)) for each source a of i (the literal
    fold; out starts at ufunc's identity).  Else out[rows] = base(rows), then out[i] = ufunc(out[i],
    out[c]) for the covers c of i, whose rows earlier steps made.  Rows go in blocks of
    BLOCK_CELLS bytes, a source taking ``width`` bytes, or one row."""
    for rows, groups in plan:
        for block in row_blocks(0 if rows is None else len(rows), width):
            out[rows[block]] = base(rows[block])
        gather = base if rows is None else (lambda x: out.take(x, axis=0))
        for at, sources in groups:
            for block in row_blocks(len(at), sources.shape[1] * width):
                out[at[block]] = ufunc(out[at[block]],
                                       ufunc.reduce(gather(sources[block].T), axis=0))


def _groups(rows: np.ndarray) -> list:
    """The :func:`_fold_up` groups of boolean ``rows`` (row at[r]'s sources are its members),
    leaving out rows without one."""
    return [(at, members) for at, members in member_blocks(rows, lambda size: 1)
            if members.shape[1]]


def cover_levels(leq: np.ndarray):
    """The relation ``leq`` ([s, t]: s <= t) by its upper covers, level by level from the top:
    :func:`_fold_up` steps (rows, groups), the sources of a row its covers.  None if some up(i)
    is not {i} together with the up-sets of i's covers (decided on bit words) or the covers have
    a cycle; a partial order has neither, and only then does the fold by covers equal the
    literal one."""
    n = len(leq)
    ups, strict = bit_words(leq), leq & ~np.eye(n, dtype=bool)
    above, higher = bit_words(strict), np.zeros_like(ups)   # higher[i]: above some c > i
    _fold_up(np.bitwise_or, higher, lambda c: above.take(c, axis=0), [(None, _groups(strict))],
             above[0].nbytes)
    cover = np.unpackbits((above & ~higher).view(np.uint8), axis=1, count=n).view(bool)
    generated = bit_words(np.eye(n, dtype=bool))
    _fold_up(np.bitwise_or, generated, lambda c: ups.take(c, axis=0), [(None, _groups(cover))],
             ups[0].nbytes)
    if not np.array_equal(generated, ups):
        return None
    levels, placed, waiting = [], np.zeros(n, dtype=bool), np.count_nonzero(cover, axis=1)
    while (rows := np.flatnonzero((waiting == 0) & ~placed)).size:
        placed[rows] = True
        waiting -= np.count_nonzero(cover[:, rows], axis=1)
        levels.append((rows, [(rows[at], covers) for at, covers in _groups(cover[rows])]))
    return levels if placed.all() else None


def bound_words(mul: np.ndarray, leq: np.ndarray, below: np.ndarray, rows: slice) -> np.ndarray:
    """[k, b]: the AND of ``below[a b]`` over a in up(i), i = rows.start + k, literally (all
    ones for an empty up(i)).  With ``below = bit_words(leq.T)`` its AND over b in up(j) is
    L(i, j), the bit words of the lower bounds of S(i, j) = up(i) up(j)."""
    words = np.full((len(range(len(mul))[rows]), *below.shape), ~np.uint64(0))
    _fold_up(np.bitwise_and, words, lambda a: below.take(mul[a], axis=0),
             [(None, _groups(leq[rows]))], words[0].nbytes)
    return words


def _hold(held, generators, words, rows: slice, leq) -> None:
    """held[j, i] = whether bit generators[j, i] is set in words[k, b] for every b in up(j),
    i = rows.start + k: the words' bytes ANDed over those b, then one bit read."""
    flat, per_row = words.view(np.uint8).reshape(-1), words[0].nbytes
    (js, bs), g = np.nonzero(leq), generators[:, rows]
    starts = np.flatnonzero(np.diff(js, prepend=-1))        # each non-empty up(j)
    byte = (g.take(js, axis=0) >> 3) + np.arange(0, flat.size, per_row) + (bs * 8 * words.shape[2])[:, None]
    ands = np.bitwise_and.reduceat(flat.take(byte), starts)
    held[js[starts], rows] = (ands & (128 >> (g[js[starts]] & 7))) != 0


def _all_below(leq: np.ndarray, low: np.ndarray, high: np.ndarray) -> bool:
    """Whether low[r, t] <= high[r, t] in ``leq`` at every cell, in row blocks."""
    flat, n = leq.reshape(-1), len(leq)
    return all(flat.take(low[block].astype(np.intp) * n + high[block]).all()
               for block in row_blocks(len(low), 8 * low.shape[1]))


def _below_covers(leq: np.ndarray, table: np.ndarray, levels) -> bool:
    """Whether table[i, t] <= table[c, t] in ``leq`` for every cover c of i and every t."""
    flat, n = leq.reshape(-1), len(leq)
    return all(flat.take(table[at[block]].astype(np.intp) * n
                         + table.take(covers[block].T, axis=0)).all()
               for _, groups in levels for at, covers in groups
               for block in row_blocks(len(at), 8 * covers.shape[1] * table.shape[1]))


def lower_bounds(monoid: InverseMonoid) -> tuple[np.ndarray, np.ndarray]:
    """(generators, held), never building S(i, j) = up(i) up(j): ``generators[i, j]`` is the
    member of S(i, j) that :func:`least_members` picks (0 if empty), ``held[i, j]`` whether it
    lies below all of S(i, j), that is in L(i, j) (:func:`bound_words`).  The generator is the
    member of largest rank (up-set size, ties to the smaller index): the largest rank p(i, b)
    over up(i) b, then over b in up(j), each a max folded over up-sets.

    A partial order is folded by :func:`cover_levels`, from the top down (p(i, b) = max of the
    rank of i b and the p(c, b) of i's covers c: n sum(1 + covers) cells where the literal fold
    takes n sum|up|), and every generator is held if p(i, b) <= i b and <= p(c, b) for the covers
    c of i, and g(i, j) <= p(i, j) and <= g(i, c) for the covers c of j: by induction from the
    top, up(i) b then lies above p(i, b), and S(i, j) above g(i, j).  (So every pair of a monoid
    whose order its product respects, as an inverse monoid's, is decided without a bit word.)
    Elsewhere held is read literally: bit g of the AND of :func:`bound_words` over b in up(j),
    rows in blocks, n sum|up| W words and n sum|up| bytes.  Temporaries: BLOCK_CELLS bytes or
    one row."""
    n, mul, leq = monoid.n, monoid.mul, monoid.order().matrix
    levels = cover_levels(leq)
    plan = [(None, _groups(leq))] if levels is None else levels
    ranked = np.argsort(monoid.order().up_sizes * n + np.arange(n - 1, -1, -1))
    rank, element = np.empty(n, dtype=np.int16), np.append(0, ranked).astype(np.int16)
    rank[ranked] = np.arange(n)
    products = np.full((n, n), -1, dtype=np.int16)     # [i, b]: p(i, b)
    _fold_up(np.maximum, products, lambda a: rank.take(mul[a]), plan, 8 * n)
    generators, held = np.empty((n, n), dtype=np.int16), levels is not None   # [j, i]: g(i, j)
    for cols in row_blocks(n, n):       # columns i; ranks to elements, -1 (empty) gives 0
        across = products[cols].T.copy()                # [b, i]: p(i, b)
        block = np.full(across.shape, -1, dtype=np.int16)
        _fold_up(np.maximum, block, lambda b: across.take(b, axis=0), plan, across[0].nbytes)
        across, generators[:, cols] = element.take(across + 1), element.take(block + 1)
        held = held and _all_below(leq, generators[:, cols], across)
    for block in row_blocks(n, 8 * n):
        products[block] = element.take(products[block] + 1)
    if held and (_all_below(leq, products, mul) and _below_covers(leq, products, levels)
                 and _below_covers(leq, generators, levels)):
        return generators.T, np.ones((n, n), dtype=bool)
    held, below = np.ones((n, n), dtype=bool), bit_words(leq.T)      # [x]: c <= x
    for rows in row_blocks(n, max(below.nbytes, 8 * np.count_nonzero(leq))):
        _hold(held, generators, bound_words(mul, leq, below, rows), rows, leq)
    return generators.T, held.T


def filter_products(monoid: InverseMonoid) -> tuple[np.ndarray, np.ndarray]:
    """Every filter product as :func:`filter_product` defines it, kept read-only on the monoid:
    ``prod[i, j]``, the generator of the closure of up(i) up(j), from one :func:`lower_bounds`
    pass on the first call, refused unless every one is held, and ``inverse[i]``, that of
    up(i)^-1."""
    if monoid._filter_products is None:
        generators, held = lower_bounds(monoid)
        if not held.all():
            raise StructureError("member set is not the up-set of one of its members")
        inverses = filter_inverses(monoid, np.arange(monoid.n))    # before the intp table
        monoid._filter_products = (np.ascontiguousarray(generators, dtype=np.intp), inverses)
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
