"""The two contravariant constructions and their round-trip isomorphisms.

One direction sends a boolean inverse monoid S to its groupoid of
ultrafilters; the other sends a finite groupoid G to the monoid of all its
bisections.  The canonical comparison maps are ``s -> K(s)``, the set of
ultrafilters through s, and ``g -> point_ultrafilter(g)``, the set of
bisections through g.  A bisection is a boolean membership row over the
arrows, so K is one gather of the order matrix (:func:`basic_opens`, row s
is K(s)) and the bisections through g are a column of the bisection
monoid's rows.  Both round trips are certified element by element: the
certificates store the explicit maps (never searched for) with every law
that was checked and how many instances ran.

Morphisms of monoids carry three axioms beyond being a semigroup
homomorphism, checked in this order with a witness: M1 keeps zero, one and
the joins of idempotents (meets are products), M2 all binary meets, and M3
leaves no target ultrafilter with an empty preimage.  That M1 is a boolean
algebra map on idempotents (f(e) = f(e) f(e); complements are unique), that
a non-empty preimage of an ultrafilter is one (M1 keeps orthogonal joins, so
its least member is an atom), and that the functor of a morphism is a covering
and intertwines dom are theorems, which the tests cross-check.  The functor on
morphisms and the weak pullback read every preimage off :func:`_preimages`.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from functools import reduce

import numpy as np

from .errors import MorphismError, StructureError
from .filters import (
    StoneGroupoid,
    contains_idempotent,
    enumerate_ultrafilters,
    filter_doms,
    filter_of,
    filter_rans,
    ultrafilter_groupoid,
)
from .groupoids import (
    BisectionMonoid,
    CoveringFunctor,
    FiniteGroupoid,
    all_bisections_monoid,
    check_covering,
    enumerate_bisections,
    fiber_clash,
    fiber_clashes,
    image_products,
)
from .inverse_core import (MAX_ELEMENTS, InverseMonoid, as_index, as_indices, as_map, bit_words,
                           first_failure, inclusions, raise_first_failure, row_blocks)
from .reporting import LawReport, one_law, where


# -- morphisms of boolean inverse monoids ----------------------------------------


@dataclass(frozen=True)
class MonoidMorphism:
    """An element map between boolean inverse monoids, validated on
    construction unless ``weak=True`` (which skips the ultrafilter axiom,
    for probing maps that only respect the algebra and the meets)."""

    source: InverseMonoid = field(compare=False)
    target: InverseMonoid = field(compare=False)
    mapping: tuple[int, ...] = field(compare=True)
    weak: bool = field(default=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "mapping", as_map(self.mapping, "morphism map", self.target.n))
        if len(self.mapping) != self.source.n:
            raise StructureError("morphism mapping length mismatch")
        self.validate(weak=self.weak)

    def __call__(self, s: int) -> int:
        return self.mapping[as_index(s, self.source.n)]

    def validate(self, *, weak: bool = False) -> None:
        s_mon, t_mon, f = self.source, self.target, self.mapping
        s_mon.require_boolean()
        t_mon.require_boolean()

        image = np.array(f, dtype=np.int64)
        moved = image.take(s_mon.mul) != t_mon.mul[np.ix_(image, image)]
        if moved.any():
            raise MorphismError("homomorphism", tuple(int(x) for x in np.argwhere(moved)[0]))

        # M1.  [a, b]: f moves the join of idempotents a and b (absent: -1, sent to
        # -1 by the padded map); their meet is their product, which f keeps
        if f[s_mon.zero] != t_mon.zero or f[s_mon.one] != t_mon.one:
            raise MorphismError("M1", ("zero/one",))
        padded, idem = np.append(image, -1).astype(np.int16), list(s_mon.idempotents)
        mine, theirs, e_image = s_mon.order(), t_mon.order(), image[idem]
        if hit := first_failure({"join": padded[mine.join[idem][:, idem]]
                                 != theirs.join[e_image][:, e_image]}):
            raise MorphismError("M1", (hit[0], *(idem[i] for i in hit[1])))

        # all binary meets
        if hit := first_failure({"M2": padded[mine.meet] != theirs.meet[image][:, image]}):
            raise MorphismError(*hit)

        if weak:
            return
        ultra = enumerate_ultrafilters(t_mon)
        if not (found := theirs.matrix[ultra][:, image].any(axis=1)).all():
            u = ultra[np.argmin(found)]
            raise MorphismError("M3", (np.flatnonzero(theirs.matrix[u]).tolist(),))

    def then(self, other: "MonoidMorphism") -> "MonoidMorphism":
        if other.source is not self.target:
            raise StructureError("morphisms not composable")
        return MonoidMorphism(self.source, other.target,
                              tuple(other.mapping[x] for x in self.mapping),
                              weak=self.weak or other.weak)


def identity_morphism(monoid: InverseMonoid) -> MonoidMorphism:
    return MonoidMorphism(monoid, monoid, tuple(range(monoid.n)))


def _preimages(theta: MonoidMorphism, generators) -> np.ndarray:
    """For each target ultrafilter up(u) of ``generators``: the generator of
    its preimage under theta, -1 where it is empty.  M1 and M2 make a
    non-empty preimage an ultrafilter (see M3), else filter_of refuses it."""
    rows = theta.target.order().matrix[generators][:, np.asarray(theta.mapping)]
    found = rows.any(axis=1)            # [u, s]: theta(s) is in up(u)
    pre = np.full(len(rows), -1, dtype=np.intp)
    pre[found] = filter_of(theta.source, rows[found])
    return pre


# -- the monoid-to-groupoid direction -----------------------------------------------


def stone_groupoid(monoid: InverseMonoid) -> StoneGroupoid:
    """The verified ultrafilter groupoid, built on the first call and kept on the monoid."""
    if monoid._stone_groupoid is None:
        monoid._stone_groupoid = ultrafilter_groupoid(monoid)
    return monoid._stone_groupoid


def basic_opens(sg: StoneGroupoid) -> np.ndarray:
    """K(s) for every element s of the monoid of ``sg``, as membership rows
    over the arrows of ``sg``: [s, g] is s in ultrafilter g, read off the
    order of ``sg.monoid``.  K(zero) is empty."""
    return sg.monoid.order().matrix[sg.ultrafilters].T


def point_ultrafilter(bm: BisectionMonoid, g):
    """The generator of the filter of all bisections through the arrow g,
    column g of the rows, or the array of them for an array of arrows.
    That it is an ultrafilter is the law ``point-filters-ultra``."""
    return filter_of(bm.monoid, bm.rows[:, as_indices(g, "arrow", bm.groupoid.m)].T)


def union_bisection_probe(sg: StoneGroupoid, s: int, t: int):
    """Is K(s) | K(t) a bisection?  Returns (flag, witness) where the
    witness names two arrows sharing a domain or range fiber."""
    s, t = as_indices((s, t), "element", sg.monoid.n).tolist()
    clash = fiber_clash(sg, np.flatnonzero(basic_opens(sg)[[s, t]].any(axis=0)).tolist())
    return clash is None, clash


def verify_basic_open_laws(monoid: InverseMonoid, *,
                           bisection_bound: int = MAX_ELEMENTS) -> LawReport:
    """Exhaustively check the nine laws of the basic-open map s -> K(s):
    bisection-ness, meet/intersection, inverse, product, order embedding,
    injectivity, join/union both ways, and surjectivity onto all bisections
    of the Stone groupoid.  K(s) is row s of :func:`basic_opens`;
    pairwise laws run as numpy comparisons."""
    sg = stone_groupoid(monoid)
    report = LawReport(subject=f"basic-open laws on {monoid!r}")
    n, order = monoid.n, monoid.order()
    inside = basic_opens(sg)       # inside[s, g]: arrow g is in K(s)
    meet, join = order.meet, order.join     # -1 where a bound is absent

    report.add("is-bisection", n, [
        (s, fiber_clash(sg, np.flatnonzero(inside[s]).tolist()))
        for s in np.flatnonzero(fiber_clashes(sg, inside)).tolist()])
    report.add("zero-is-empty", 1, [(monoid.zero,)] if inside[monoid.zero].any() else [])

    # K(s) as a bit set of 64-bit words
    words = bit_words(inside)

    def by_rows(fn, width=8 * n * words.shape[1]):     # fn([s, t] for s in a block), stacked
        return np.concatenate([fn(rows) for rows in row_blocks(n, width)])

    report.add("meet-is-intersection", n * n, where(by_rows(lambda s: (meet[s] < 0) | (
        words[meet[s]] != (words[s, None] & words)).any(axis=2))))
    report.add("inverse", n,
               where((inside[list(monoid.inv)] != inside.take(sg.inv, axis=1)).any(axis=1)))

    # a product that is not a bisection differs from K(st), so it fails here
    images, products = image_products(sg, inside)
    report.add("product", n * n, where(reduce(np.logical_or, (
        product != images[monoid.mul, place] for place, product in enumerate(products)))))

    within = inclusions(inside, inside)             # within[s, t]: K(s) is inside K(t)
    report.add("order-embedding", n * n, where(within != order.matrix))
    report.add("injective", n * (n - 1) // 2, where(np.triu(within & within.T, 1)))
    report.add("join-is-union", int(np.count_nonzero(join >= 0)), where(by_rows(
        lambda s: (join[s] >= 0) & (words[join[s]] != (words[s, None] | words)).any(axis=2))))

    unions = by_rows(lambda s: fiber_clashes(sg, inside[s, None] | inside), 4 * n * sg.m)
    report.add("union-bisection-iff-join", n * n, [
        (s, t, fiber_clash(sg, np.flatnonzero(inside[s] | inside[t]).tolist()))
        for s, t in np.argwhere(unions == (join >= 0)).tolist()])

    everything = enumerate_bisections(sg, bisection_bound=bisection_bound)
    opens = {row.tobytes() for row in inside}
    uncovered = [row for row in everything if row.tobytes() not in opens]
    # one witness: the uncovered bisections, named by their arrow bitmasks
    masks = tuple(sorted(sum(1 << a for a in np.flatnonzero(row).tolist()) for row in uncovered))
    report.add("surjective-on-bisections", len(everything), [masks] if masks else [])
    return report


# -- functors on morphisms ------------------------------------------------------------


def functor_on_morphism(theta: MonoidMorphism) -> CoveringFunctor:
    """The contravariant ultrafilter functor on a morphism theta: S -> T,
    the functor G(T) -> G(S) sending each ultrafilter A to its preimage.
    Only a weak theta is validated here (M3); CoveringFunctor checks
    functoriality.  That it is a covering and that dom(theta^-1 A) =
    theta^-1(dom A) are theorems, which the tests cross-check."""
    if theta.weak:
        theta.validate()
    sg_t = stone_groupoid(theta.target)
    sg_s = stone_groupoid(theta.source)
    return CoveringFunctor(sg_t, sg_s, sg_s.arrow_at(_preimages(theta, sg_t.ultrafilters)))


def pullback_morphism(f: CoveringFunctor) -> MonoidMorphism:
    """The contravariant bisection functor on a covering functor f: G -> H:
    the preimage map A(H) -> A(G) between the bisection monoids the
    groupoids keep.  The preimages are one gather of the rows of A(H)
    through the arrow map; MonoidMorphism verifies the axioms."""
    if failures := check_covering(f).get("covering").failures:
        raise StructureError(f"pullback requires a covering functor: {failures[0]}")
    source = all_bisections_monoid(f.source)
    target = all_bisections_monoid(f.target)
    mapping = tuple(source.indices_of(target.rows[:, list(f.arrow_map)]))
    return MonoidMorphism(target.monoid, source.monoid, mapping)


# -- round trips ------------------------------------------------------------------------


@dataclass
class IsoCertificate:
    """An explicit pair of mutually inverse structure maps plus the list of
    laws that were verified, with instance counts."""

    forward: tuple[int, ...]
    backward: tuple[int, ...]
    checked_laws: list[tuple[str, int]]
    elapsed: float

    @property
    def size(self) -> int:
        return len(self.forward)

    def to_json(self) -> dict:
        return {
            "forward": list(self.forward),
            "backward": list(self.backward),
            "checked_laws": [{"law": name, "instances": count}
                             for name, count in self.checked_laws],
            "elapsed_s": self.elapsed,
        }


def round_trip_monoid(monoid: InverseMonoid, *,
                      bisection_bound: int = MAX_ELEMENTS) -> IsoCertificate:
    """Certify that s -> K(s) is an isomorphism onto the monoid of all
    bisections of the Stone groupoid."""
    start = time.perf_counter()
    n = monoid.n
    sg = stone_groupoid(monoid)
    bm = all_bisections_monoid(sg, bisection_bound=bisection_bound)
    if len(bm) != n:
        raise StructureError(f"cardinality mismatch: |double dual| = {len(bm)} != {n}")
    laws = [("cardinality", 1)]

    forward = tuple(bm.indices_of(basic_opens(sg)))
    if len(set(forward)) != n:
        raise StructureError("basic-open map is not injective")
    backward = np.argsort(forward).tolist()      # the inverse permutation
    laws.append(("bijective", n))

    dual, fwd = bm.monoid, np.array(forward, dtype=np.int64)
    raise_first_failure({"not multiplicative at ({}, {})":
                         fwd.take(monoid.mul) != dual.mul[np.ix_(fwd, fwd)]})
    laws.append(("multiplicative", n * n))
    raise_first_failure({"does not preserve inversion at {}":
                         fwd[list(monoid.inv)] != np.take(dual.inv, fwd)})
    laws.append(("inverse-preserving", n))

    if forward[monoid.zero] != dual.zero or forward[monoid.one] != dual.one:
        raise StructureError("does not preserve zero/one")
    laws.append(("zero-one", 2))

    # the padded map sends an absent meet (-1) to -1
    padded, order, dual_order = np.append(fwd, -1), monoid.order(), dual.order()
    raise_first_failure({"does not preserve meets at ({}, {})":
                             padded[order.meet] != dual_order.meet[np.ix_(fwd, fwd)],
                         "does not preserve order at ({}, {})":
                             order.matrix != dual_order.matrix[np.ix_(fwd, fwd)]})
    laws.append(("meet-and-order", n * n))

    return IsoCertificate(forward, tuple(backward), laws, time.perf_counter() - start)


def round_trip_groupoid(groupoid: FiniteGroupoid, *,
                        bisection_bound: int = MAX_ELEMENTS) -> IsoCertificate:
    """Certify that g -> point_ultrafilter(g) is an isomorphism onto the
    Stone groupoid of the bisection monoid, and that it carries each
    bisection U onto K(U)."""
    start = time.perf_counter()
    m = groupoid.m
    bm = all_bisections_monoid(groupoid, bisection_bound=bisection_bound)
    sg = stone_groupoid(bm.monoid)
    if len(sg) != m:
        raise StructureError(f"cardinality mismatch: |double dual| = {len(sg)} != {m}")
    laws = [("cardinality", 1)]

    # arrow_at rejects a point filter that is not an ultrafilter
    forward = tuple(sg.arrow_at(point_ultrafilter(bm, np.arange(m))).tolist())
    if len(set(forward)) != m:
        raise StructureError("point-ultrafilter map is not injective")
    backward = np.argsort(forward).tolist()      # the inverse permutation
    laws.append(("bijective", m))

    fwd = np.array(forward, dtype=np.int64)
    raise_first_failure({
        f"does not preserve {name} at {{}}": np.take(theirs, fwd) != fwd[list(mine)]
        for name, mine, theirs in (("dom", groupoid.d, sg.d), ("ran", groupoid.r, sg.r),
                                   ("inverse", groupoid.inv, sg.inv))})
    laws.append(("dom-ran-inverse", 3 * m))

    lhs, rhs = groupoid.compose, sg.compose[np.ix_(fwd, fwd)]
    raise_first_failure({"composability differs at ({}, {})": (lhs < 0) != (rhs < 0),
                         "does not preserve composition at ({}, {})":
                             (lhs >= 0) & (fwd[np.where(lhs >= 0, lhs, 0)] != rhs)})
    laws.append(("composition", m * m))

    if set(forward[e] for e in groupoid.identities) != set(sg.identities):
        raise StructureError("does not preserve identities")
    laws.append(("identities", len(groupoid.identities)))

    # each bisection U maps onto the basic open set of U's monoid element
    image = np.zeros((len(bm), m), dtype=bool)
    image[:, fwd] = bm.rows
    raise_first_failure({"image of bisection {} is not its basic open set":
                         (image != basic_opens(sg)).any(axis=1)})
    laws.append(("bisection-transport", len(bm)))

    return IsoCertificate(forward, tuple(backward), laws, time.perf_counter() - start)


# -- special structure ---------------------------------------------------------------------


def clifford_check(monoid: InverseMonoid) -> LawReport:
    """If every element has dom == ran, the ultrafilter groupoid must be a
    disjoint union of groups: the one law ``clifford-groupoid-has-loops-only``,
    failed with ("not-clifford", s) for the first s with dom != ran, or with
    ("unbalanced",) when an ultrafilter has dom != ran or an arrow is no loop."""
    monoid.require_boolean()
    mul, inv, rng = monoid.mul, np.asarray(monoid.inv), np.arange(monoid.n)
    if (unbalanced := np.flatnonzero(mul[inv, rng] != mul[rng, inv])).size:
        witness = ("not-clifford", int(unbalanced[0]))
    else:
        sg = stone_groupoid(monoid)
        balanced = filter_doms(monoid, sg.ultrafilters) == filter_rans(monoid, sg.ultrafilters)
        loops = all(sg.d[g] == sg.r[g] for g in range(sg.m))
        witness = None if balanced.all() and loops else ("unbalanced",)
    return one_law("clifford check", "clifford-groupoid-has-loops-only", witness)


@dataclass
class WeakPullbackReport:
    """Behaviour of a weak morphism (no ultrafilter axiom) on ultrafilters:
    idempotent ones must pull back to idempotent ultrafilters, and the
    others whose preimage is empty are flagged."""

    idempotent_ok: bool
    idempotent_failures: list
    flagged: list  # the members of each non-idempotent ultrafilter with an empty preimage

    def to_json(self) -> dict:
        return asdict(self)


def weak_morphism_pullback(theta: MonoidMorphism) -> WeakPullbackReport:
    ultra = enumerate_ultrafilters(theta.target)
    found = (pre := _preimages(theta, ultra)) >= 0
    u_idempotent = contains_idempotent(theta.target, ultra)
    kept = found & contains_idempotent(theta.source, np.where(found, pre, 0))
    failing, flagged = u_idempotent & ~kept, ~u_idempotent & ~found
    members = [np.flatnonzero(row).tolist() for row in theta.target.order().matrix[ultra]]
    return WeakPullbackReport(not failing.any(), [members[i] for i in np.flatnonzero(failing)],
                              [members[i] for i in np.flatnonzero(flagged)])
