"""Finite groupoids, bisections, and the inverse monoid of all bisections.

A finite groupoid is a set of arrows ``0..m-1`` with total ``d``, ``r``
and inverse maps and a composition table, defined exactly on the pairs
with ``d(g) = r(h)``.  The table is dense: ``compose[g, h]`` is the arrow
``g h``, or -1 where the pair is not composable.  Every arrow index given to
a groupoid, a covering functor or a point filter passes the index gate,
:func:`~stonework.inverse_core.as_indices` (-1 is allowed only in
``compose``).  Associativity is decided by Light's test, as for monoids,
with -1 read as one more, absorbing arrow.
For finite carriers the topology is discrete, so every subset is compact open
and the boolean-groupoid conditions reduce to finiteness; the certificate of
that reduction lives in :meth:`FiniteGroupoid.discrete_certificate`.

A bisection is a subset hitting each identity at most once on the domain
side and at most once on the range side (:func:`fiber_clash`), held as a
boolean membership row over the arrows.  The set of all bisections under
the arrow-wise product is a boolean inverse monoid, materialized and kept
by :func:`all_bisections_monoid` under a bound on their number that every
call checks (MAX_ELEMENTS, or lower; in closed form before any is built)."""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import BoundError, StructureError
from .inverse_core import (
    MAX_ELEMENTS,
    InverseMonoid,
    _partial_bijection_count,
    as_index,
    as_indices,
    as_labels,
    as_map,
    check_associativity,
    check_size,
    raise_first_failure,
    sequence_length,
)


def _undefined_table(m: int) -> np.ndarray:
    """An m x m table with no pair composable; past MAX_ELEMENTS, refused unallocated."""
    check_size(m, f"a groupoid of {m} arrows")
    return np.full((m, m), -1, dtype=np.int64)


def compose_table(triples, m: int) -> np.ndarray:
    """The dense table of m arrows given as ``[g, h, k]`` triples, g h = k:
    the stored form of composition.  A pair given twice is a StructureError."""
    table = _undefined_table(m)
    if not isinstance(triples, list) or any(not isinstance(t, list) or len(t) != 3
                                            for t in triples):
        raise StructureError("compose must be a list of [g, h, k] triples")
    g, h, k = as_indices(triples, "compose", m).reshape(-1, 3).T
    table[g, h] = k
    if np.count_nonzero(table >= 0) < len(triples):
        pairs, counts = np.unique(g * m + h, return_counts=True)
        g, h = divmod(int(pairs[counts > 1][0]), m)
        raise StructureError(f"compose gives the pair ({g}, {h}) twice")
    return table


class FiniteGroupoid:
    """A finite groupoid on dense arrow indices, verified on construction."""

    def __init__(self, d, r, inv, compose, identities, labels=None):
        self.m = m = sequence_length(d, "d")
        self.d, self.r, self.inv = (as_map(x, name, m) for x, name in
                                    ((d, "d"), (r, "r"), (inv, "inv")))
        table = as_indices(compose, "compose", m, -1)      # -1: the pair is not composable
        if table.shape != (m, m):
            raise StructureError(f"compose must be an {m} x {m} table of arrows")
        self.identities = tuple(sorted(as_map(identities, "identities", m)))
        self.labels = as_labels(labels, m)
        if len(self.r) != m or len(self.inv) != m:
            raise StructureError("d/r/inv length mismatch")
        # compose is a view of a table with a row and a column of -1 appended,
        # so that -1 (no arrow) used as an index reads -1 instead of wrapping
        self._padded = np.full((m + 1, m + 1), -1, dtype=np.int64)
        self._padded[:-1, :-1] = table
        self._padded.setflags(write=False)
        self.compose = self._padded[:-1, :-1]
        self._bisections = None     # all_bisections_monoid, kept from its first call
        self._validate()

    def _validate(self) -> None:
        """Each failure names the first failing arrow or pair, or a failing triple."""
        m, table = self.m, self.compose
        d, r, inv, ids = (np.array(x, dtype=np.int64)
                          for x in (self.d, self.r, self.inv, self.identities))
        arrows, is_identity = np.arange(m), np.zeros(m, dtype=bool)
        is_identity[ids] = True
        defined, composable = table >= 0, d[:, None] == r
        k = np.where(defined, table, 0)
        for checks in (
                {"identity {} is listed twice": np.bincount(ids, minlength=m) > 1},
                {"dom/ran of {} is not an identity": ~(is_identity[d] & is_identity[r])},
                {"identity {} has displaced dom/ran":
                    is_identity & ((d != arrows) | (r != arrows))},
                {"composition defined on non-composable ({}, {})": defined & ~composable,
                 "composite ({}, {}) has wrong dom/ran":
                    defined & ((d[k] != d) | (r[k] != r[:, None]))},
                {"composable pair ({}, {}) left undefined": composable & ~defined},
                {"inverse not involutive at {}": inv[inv] != arrows,
                 "g g^-1 != ran(g) at {}": table[arrows, inv] != r,
                 "g^-1 g != dom(g) at {}": table[inv, arrows] != d,
                 "identities do not act neutrally at {}":
                    (table[r, arrows] != arrows) | (table[arrows, d] != arrows)}):
            raise_first_failure(checks)
        # -1 % (m + 1) reads undefined as an absorbing arrow m: by the checks above,
        # (g h) k is defined exactly when g (h k) is, and m and the identities pass
        check_associativity(self._padded.astype(np.int16) % (m + 1), [*self.identities, m])

    def __len__(self) -> int:
        return self.m

    def __repr__(self) -> str:
        return f"FiniteGroupoid(arrows={self.m}, identities={len(self.identities)})"

    def label(self, g: int) -> str:
        g = as_index(g, self.m, "arrow")
        return self.labels[g] if self.labels else str(g)

    def compose_maybe(self, g: int, h: int):
        k = self.compose.item(as_index(g, self.m, "arrow"), as_index(h, self.m, "arrow"))
        return None if k < 0 else k

    def star(self, e: int) -> tuple[int, ...]:
        """Arrows with domain e."""
        e = as_index(e, self.m, "arrow")
        return tuple(g for g in range(self.m) if self.d[g] == e)

    def discrete_certificate(self) -> dict:
        """Finite carriers are discrete: hausdorff, etale, compact identity
        space, and the singleton arrows are a basis of compact open
        bisections.  Recorded rather than re-derived."""
        return {
            "finite": True,
            "topology": "discrete",
            "hausdorff_etale": True,
            "identity_space_compact": True,
            "basis": "singleton arrows",
        }


# -- stock groupoids ---------------------------------------------------------


def pair_groupoid(points: int) -> FiniteGroupoid:
    """The pair groupoid on the given points: arrows (i, j), composing
    (i, j)(j, k) = (i, k); the identity at i is (i, i)."""
    if points < 1:
        raise BoundError("pair groupoid needs at least one point")
    idx = lambda i, j: i * points + j
    compose = _undefined_table(points * points)
    i, j, k = np.indices((points, points, points))
    compose[idx(i, j), idx(j, k)] = idx(i, k)
    i, j = np.divmod(np.arange(points * points), points)     # arrow idx(i, j) is (i, j)
    labels = [f"({a + 1},{b + 1})" for a, b in zip(i.tolist(), j.tolist())]
    return FiniteGroupoid(idx(j, j), idx(i, i), idx(j, i), compose,
                          [idx(e, e) for e in range(points)], labels)


def group_groupoid(order: int) -> FiniteGroupoid:
    """A cyclic group of the given order as a one-object groupoid."""
    if order < 1:
        raise BoundError("group order must be positive")
    compose = _undefined_table(order)
    compose[:] = np.add.outer(np.arange(order), np.arange(order)) % order
    inv = [(-g) % order for g in range(order)]
    labels = ["1"] + [f"g{i}" if i > 1 else "g" for i in range(1, order)]
    return FiniteGroupoid([0] * order, [0] * order, inv, compose, [0], labels)


def trivial_groupoid(points: int) -> FiniteGroupoid:
    """Identities only."""
    if points < 0:
        raise BoundError("trivial groupoid needs a non-negative number of points")
    compose = _undefined_table(points)
    rng = list(range(points))
    compose[rng, rng] = rng
    return FiniteGroupoid(rng, rng, rng, compose, rng, [f"e{i + 1}" for i in rng])


def disjoint_union(a: FiniteGroupoid, b: FiniteGroupoid) -> FiniteGroupoid:
    shift = a.m                     # arrow g of b is arrow g + shift of the union
    d, r, inv = (np.append(x, np.add(y, shift))
                 for x, y in ((a.d, b.d), (a.r, b.r), (a.inv, b.inv)))
    compose = _undefined_table(a.m + b.m)
    compose[:shift, :shift] = a.compose
    compose[shift:, shift:] = np.where(b.compose >= 0, b.compose + shift, -1)
    identities = list(a.identities) + [e + shift for e in b.identities]
    labels = None
    if a.labels and b.labels:
        labels = [f"L.{x}" for x in a.labels] + [f"R.{x}" for x in b.labels]
    return FiniteGroupoid(d, r, inv, compose, identities, labels)


# -- bisections ------------------------------------------------------------------


def fiber_clash(groupoid: FiniteGroupoid, arrows) -> tuple | None:
    """The first pair of arrows, in ascending order, sharing a domain or a
    range fiber, as ("domain-fiber" or "range-fiber", a, b); None when the
    arrows form a bisection."""
    members = sorted(arrows)
    for i, a in enumerate(members):
        for b in members[i + 1:]:
            if groupoid.d[a] == groupoid.d[b]:
                return "domain-fiber", a, b
            if groupoid.r[a] == groupoid.r[b]:
                return "range-fiber", a, b
    return None


def fiber_clashes(groupoid: FiniteGroupoid, rows: np.ndarray) -> np.ndarray:
    """[i]: the arrows of membership row i are not a bisection, that is, two
    of them share a domain or a range fiber: :func:`fiber_clash` over many
    rows, by an exact float32 count of each row's arrows in each fiber."""
    fibers = np.hstack([np.equal.outer(groupoid.d, groupoid.identities),
                        np.equal.outer(groupoid.r, groupoid.identities)]).astype(np.float32)
    return (rows.astype(np.float32) @ fibers > 1).any(axis=-1)


def bisection_product(groupoid: FiniteGroupoid, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The arrow-wise product {x y : x in a, y in b, composable} of two
    membership rows, as a row: the literal definition, against which the
    tests check the gathered table of :func:`all_bisections_monoid`."""
    out, products = np.zeros(groupoid.m, dtype=bool), groupoid.compose[np.ix_(a, b)]
    out[products[products >= 0]] = True
    return out


def enumerate_bisections(groupoid: FiniteGroupoid, *,
                         bisection_bound: int = MAX_ELEMENTS) -> np.ndarray:
    """All bisections, as the read-only rows of one membership array,
    ordered by the rows read as binary numbers (bit a for arrow a), that is
    by their members in descending order.

    Chooses, identity by identity, at most one arrow out of it into a range
    not hit yet, which is equivalent to subset filtering but never touches
    non-bisections.  More than min(bisection_bound, MAX_ELEMENTS) are
    refused before any is built: a component with k identities and isotropy
    groups of order g has sum_j C(k, j)^2 j! g^j of them."""
    bound = min(bisection_bound, MAX_ELEMENTS)
    count, d, r = 1, np.array(groupoid.d), np.array(groupoid.r)
    for e in groupoid.identities:
        ranges = r[d == e]              # g arrows into each of the k identities of e's component
        if ranges.min() == e and count <= bound:        # e comes first in its component
            g = int(np.count_nonzero(ranges == e))
            count *= _partial_bijection_count(len(ranges) // g, bound, g)
    check_size(count, f"a groupoid of {groupoid.m} arrows has at least {count} bisections",
               bound)
    rows, arrows = np.zeros((1, groupoid.m), dtype=bool), np.arange(groupoid.m)
    for e in groupoid.identities:       # leave e out of the domain, or add one arrow from e
        star = arrows[d == e]
        i, a = np.nonzero(~(rows @ np.equal.outer(r, r[star])))    # row i misses a's range
        rows = np.vstack([rows, rows[i] | (arrows == star[a, None])])
    rows = rows[np.lexsort(rows.T)] if groupoid.m else rows     # the last arrow sorts first
    rows.setflags(write=False)
    return rows


@dataclass
class BisectionMonoid:
    """The inverse monoid of all bisections of a finite groupoid: element i
    is membership row ``rows[i]``, and ``codes[i]`` is its code (see
    _arrow_codes)."""

    groupoid: FiniteGroupoid
    rows: np.ndarray
    monoid: InverseMonoid
    codes: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.rows)

    def indices_of(self, rows: np.ndarray) -> list[int]:
        """The elements whose membership rows are the given rows.  A row
        that is not a bisection is refused before its code, which may be a
        bisection's, is looked up."""
        rows = np.asarray(rows, dtype=bool)
        if rows.shape[1:] == (self.groupoid.m,) and not fiber_clashes(self.groupoid, rows).any():
            found = _positions(self.codes, rows @ _arrow_codes(self.groupoid)[:-1])
            if (found >= 0).all():
                return found.tolist()
        raise StructureError("not a bisection of this groupoid")


def _arrow_codes(groupoid: FiniteGroupoid) -> np.ndarray:
    """Entry a is arrow a's share of the code of an arrow set meeting each
    domain fiber at most once: the digit a + 1, base m + 1, at the place of
    its domain; -1 adds 0.  A groupoid with at most MAX_ELEMENTS bisections,
    the most enumerate_bisections admits under any bound, has
    (m + 1)^identities < 2^45 (13^12 on 12 identities), so codes fit int64."""
    base = groupoid.m + 1
    place = np.searchsorted(groupoid.identities, groupoid.d)
    return np.append((np.arange(groupoid.m) + 1) * base ** place, 0)


def _positions(codes: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Where each wanted code is in ``codes`` (which has no repeats), or -1.
    Looked up in blocks of rows, each clipped, gathered and marked in place
    in the answer, so no other array is as large as ``wanted``."""
    order, at = np.argsort(codes), np.empty(wanted.shape, dtype=np.intp)
    step = max(1, (1 << 16) // max(1, wanted[:1].size))
    for lo in range(0, len(wanted), step):
        part, want = at[lo:lo + step], wanted[lo:lo + step]
        np.take(order, np.searchsorted(codes, want, sorter=order), mode="clip", out=part)
        part[codes[part] != want] = -1
    return at


def image_products(groupoid: FiniteGroupoid, rows: np.ndarray) -> tuple[np.ndarray, Iterator]:
    """The image arrays of bisections given as membership rows ([i, a]:
    arrow a is in bisection i), and their pairwise products place by place:
    at place p, the arrow whose domain is identity p, or -1 (a last place
    holds -1, which -1 as a place indexes, as around compose).  The product
    of a and b is a(r(b(e))) b(e) at each e; each place is an n x n gather,
    made on demand.  That it meets each range fiber once is the caller's."""
    ids = groupoid.identities
    images = np.full((len(rows), len(ids) + 1), -1, dtype=np.int32)
    i, arrows = np.nonzero(rows)
    images[i, np.searchsorted(ids, groupoid.d)[arrows]] = arrows
    range_place = np.append(np.searchsorted(ids, groupoid.r), len(ids))
    return images, (groupoid._padded[images[:, range_place[right]], right]
                    for right in images.T)


def all_bisections_monoid(groupoid: FiniteGroupoid, *,
                          bisection_bound: int = MAX_ELEMENTS) -> BisectionMonoid:
    """The boolean inverse monoid of all bisections, kept on the groupoid.

    The products are taken on image arrays (see :func:`image_products`), so
    the table is one gather through ``compose`` per place; each product is
    looked up by its code.  That a product of bisections is a bisection, and
    that the monoid is boolean, are theorems, which the round trips and the
    law suites check; a product found nowhere would be a -1 entry, which the
    index gate refuses."""
    kept = groupoid._bisections
    if kept is not None and len(kept) <= min(bisection_bound, MAX_ELEMENTS):
        return kept     # the count passes; a larger kept monoid is refused as a fresh one
    rows = enumerate_bisections(groupoid, bisection_bound=bisection_bound)
    arrow_codes = _arrow_codes(groupoid)
    images, products = image_products(groupoid, rows)
    codes = arrow_codes[images].sum(axis=1)
    total = np.zeros((len(rows), len(rows)), dtype=np.int64)    # the product codes
    for product in products:        # dropped before the next place is gathered
        np.add(total, arrow_codes[product], out=total)
        del product
    mul = _positions(codes, total)
    inverses = np.array((*groupoid.inv, -1))[images]    # the members' inverses
    inv = _positions(codes, arrow_codes[inverses].sum(axis=1)).tolist()
    unit = arrow_codes[list(groupoid.identities)].sum()     # the code of every identity
    zero, one = _positions(codes, np.array([0, unit])).tolist()
    i, arrows = np.nonzero(rows)        # row by row, each row's arrows ascending
    names = [groupoid.label(a) for a in arrows.tolist()]
    ends = np.searchsorted(i, np.arange(len(rows) + 1)).tolist()
    labels = ["{" + ",".join(names[lo:hi]) + "}" for lo, hi in zip(ends, ends[1:])]
    monoid = InverseMonoid(mul, inv, zero, one, labels)
    groupoid._bisections = BisectionMonoid(groupoid, rows, monoid, codes)
    return groupoid._bisections


# -- covering functors --------------------------------------------------------------


@dataclass(frozen=True)
class CoveringFunctor:
    """A functor between finite groupoids, stored as its arrow map.

    Construction checks an integer map, then functoriality (identities,
    dom/ran, composition) at the first failing arrow or pair; the covering
    conditions are decided by :func:`check_covering`.
    Continuity is vacuous for finite discrete groupoids."""

    source: FiniteGroupoid = field(compare=False)
    target: FiniteGroupoid = field(compare=False)
    arrow_map: tuple[int, ...] = field(compare=True)

    def __post_init__(self):
        src, tgt = self.source, self.target
        object.__setattr__(self, "arrow_map", f := as_map(self.arrow_map, "arrow map", tgt.m))
        if len(f) != src.m:
            raise StructureError("arrow map length mismatch")
        arrows, defined = np.array(f, dtype=np.int64), src.compose >= 0
        raise_first_failure({"identity {} not sent to an identity": np.isin(
            np.arange(src.m), src.identities) & ~np.isin(arrows, tgt.identities)})
        raise_first_failure({"dom/ran not preserved at {}":
                             (np.take(tgt.d, arrows) != np.take(arrows, src.d))
                             | (np.take(tgt.r, arrows) != np.take(arrows, src.r))})
        raise_first_failure({"composition not preserved at ({}, {})": defined & (
            tgt.compose[np.ix_(arrows, arrows)] != arrows[np.where(defined, src.compose, 0)])})

    def then(self, other: "CoveringFunctor") -> "CoveringFunctor":
        if other.source is not self.target:
            raise StructureError("functors not composable")
        return CoveringFunctor(self.source, other.target,
                               tuple(other.arrow_map[x] for x in self.arrow_map))


def identity_functor(groupoid: FiniteGroupoid) -> CoveringFunctor:
    return CoveringFunctor(groupoid, groupoid, tuple(range(groupoid.m)))


@dataclass
class CoveringReport:
    ok: bool
    witness: tuple | None = None


def check_covering(f: CoveringFunctor) -> CoveringReport:
    """Star bijectivity on every domain fiber.  Every factorization then
    lifts: if a b = f(x), bijectivity at d(x) gives v with f(v) = b, at r(v)
    then u with f(u) = a, and u v = x since both lie in star(d x) with the
    same image.  The tests cross-check this theorem."""
    src, tgt = f.source, f.target
    for e in src.identities:
        seen: dict[int, int] = {}          # image -> the first arrow sent there
        for g in src.star(e):
            if f.arrow_map[g] in seen:
                return CoveringReport(False, ("star-injectivity", e, seen[f.arrow_map[g]], g))
            seen[f.arrow_map[g]] = g
        if missing := set(tgt.star(f.arrow_map[e])) - set(seen):
            return CoveringReport(False, ("star-surjectivity", e, min(missing)))
    return CoveringReport(True)


# -- rendering -----------------------------------------------------------------------


def groupoid_to_dot(groupoid: FiniteGroupoid, name: str = "G") -> str:
    """Graphviz rendering: identities double-circled, arrows labeled edges."""
    lines = [f"digraph {name} {{"]
    for e in groupoid.identities:
        lines.append(f'  n{e} [shape=doublecircle, label="{groupoid.label(e)}"];')
    for g in range(groupoid.m):
        if g in groupoid.identities:
            continue
        lines.append(
            f'  n{groupoid.d[g]} -> n{groupoid.r[g]} [label="{groupoid.label(g)}"];')
    lines.append("}")
    return "\n".join(lines)
