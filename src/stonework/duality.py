"""The two contravariant constructions and their round-trip isomorphisms.

One direction sends a boolean inverse monoid S to its groupoid of
ultrafilters; the other sends a finite groupoid G to the monoid of all its
bisections.  The canonical comparison maps are

* ``s -> basic_open(s)``, the set of ultrafilters through s, and
* ``g -> point_ultrafilter(g)``, the set of bisections through g,

and both round trips are certified element by element: the certificates
store the explicit maps (never searched for) together with every law that
was checked and how many instances ran.

Morphisms of monoids carry three extra axioms beyond being a semigroup
homomorphism: restriction to idempotents is a homomorphism of boolean
algebras, binary meets are preserved, and preimages of ultrafilters are
ultrafilters.  Validation fails fast in that order, with a witness.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .config import DEFAULT_LIMITS, Limits
from .errors import MorphismError, StructureError
from .filters import (
    Filter,
    StoneGroupoid,
    enumerate_ultrafilters,
    filter_dom,
    filter_ran,
    ultrafilter_groupoid,
)
from .groupoids import (
    Bisection,
    BisectionMonoid,
    CoveringFunctor,
    FiniteGroupoid,
    all_bisections_monoid,
    bisection_product,
    check_covering,
    enumerate_bisections,
    is_bisection_set,
    point_ultrafilter,
)
from .inverse_core import InverseMonoid, iter_bits, mask_of
from .reporting import LawReport


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
        if len(self.mapping) != self.source.n:
            raise StructureError("morphism mapping length mismatch")
        if any(not 0 <= x < self.target.n for x in self.mapping):
            raise StructureError("morphism maps outside the target")
        self.validate(weak=self.weak)

    def __call__(self, s: int) -> int:
        return self.mapping[s]

    def validate(self, *, weak: bool = False) -> None:
        s_mon, t_mon, f = self.source, self.target, self.mapping
        s_mon.require_boolean()
        t_mon.require_boolean()

        for a in range(s_mon.n):
            for b in range(s_mon.n):
                if f[int(s_mon.mul[a, b])] != int(t_mon.mul[f[a], f[b]]):
                    raise MorphismError("homomorphism", (a, b))

        # boolean-algebra homomorphism on idempotents
        if f[s_mon.zero] != t_mon.zero or f[s_mon.one] != t_mon.one:
            raise MorphismError("M1", ("zero/one",))
        for e in s_mon.idempotents:
            if not t_mon.is_idempotent(f[e]):
                raise MorphismError("M1", (e,))
            if f[s_mon.idempotent_complement(e)] != t_mon.idempotent_complement(f[e]):
                raise MorphismError("M1", ("complement", e))
        for e in s_mon.idempotents:
            for g in s_mon.idempotents:
                if f[s_mon.meet(e, g)] != t_mon.meet(f[e], f[g]):
                    raise MorphismError("M1", ("meet", e, g))
                if f[s_mon.join(e, g)] != t_mon.join(f[e], f[g]):
                    raise MorphismError("M1", ("join", e, g))

        # all binary meets
        for a in range(s_mon.n):
            for b in range(s_mon.n):
                if f[s_mon.meet(a, b)] != t_mon.meet(f[a], f[b]):
                    raise MorphismError("M2", (a, b))

        if weak:
            return
        for u in enumerate_ultrafilters(t_mon):
            pre = self.preimage_mask(u)
            if pre == 0:
                raise MorphismError("M3", (sorted(iter_bits(u.members)),))
            try:
                pre_filter = Filter(s_mon, pre)
            except StructureError:
                raise MorphismError("M3", (sorted(iter_bits(u.members)),)) from None
            if not pre_filter.is_ultrafilter():
                raise MorphismError("M3", (sorted(iter_bits(u.members)),))

    def preimage_mask(self, target_filter: Filter) -> int:
        return mask_of(s for s in range(self.source.n)
                       if self.mapping[s] in target_filter)

    def then(self, other: "MonoidMorphism") -> "MonoidMorphism":
        if other.source is not self.target:
            raise StructureError("morphisms not composable")
        return MonoidMorphism(self.source, other.target,
                              tuple(other.mapping[x] for x in self.mapping),
                              weak=self.weak or other.weak)


def identity_morphism(monoid: InverseMonoid) -> MonoidMorphism:
    return MonoidMorphism(monoid, monoid, tuple(range(monoid.n)))


# -- the monoid-to-groupoid direction -----------------------------------------------


def stone_groupoid(monoid: InverseMonoid) -> StoneGroupoid:
    """The monoid-to-groupoid construction: the verified ultrafilter groupoid."""
    return ultrafilter_groupoid(monoid)


def basic_open(s: int, sg: StoneGroupoid) -> Bisection:
    """The bisection of all ultrafilters through s (empty at zero)."""
    members = frozenset(i for i, f in enumerate(sg.ultrafilters) if s in f)
    return Bisection(sg, members)


def union_bisection_probe(sg: StoneGroupoid, s: int, t: int):
    """Is basic_open(s) | basic_open(t) a bisection?  Returns (flag, witness)
    where the witness names two arrows sharing a domain or range fiber."""
    return _fiber_clash(sg, basic_open(s, sg).members | basic_open(t, sg).members)


def _fiber_clash(sg: StoneGroupoid, arrows) -> tuple[bool, tuple | None]:
    """(True, None) when the arrows form a bisection, else (False, witness)
    for the first pair, in ascending order, sharing a domain or range fiber."""
    members = sorted(arrows)
    for i, a in enumerate(members):
        for b in members[i + 1:]:
            if sg.d[a] == sg.d[b]:
                return False, ("domain-fiber", a, b)
            if sg.r[a] == sg.r[b]:
                return False, ("range-fiber", a, b)
    return True, None


def verify_basic_open_laws(monoid: InverseMonoid, sg: StoneGroupoid | None = None,
                           *, limits: Limits | None = None) -> LawReport:
    """Exhaustively check the nine laws of the basic-open map s -> K(s):
    bisection-ness, meet/intersection, inverse, product, order embedding,
    injectivity, join/union both ways, and surjectivity onto all bisections
    of the ultrafilter groupoid."""
    if sg is None:
        sg = stone_groupoid(monoid)
    report = LawReport(subject=f"basic-open laws on {monoid!r}")
    n = monoid.n
    opens = {s: basic_open(s, sg) for s in range(n)}
    masks = {s: opens[s].mask for s in range(n)}

    law = report.new("is-bisection")
    for s in range(n):
        law.tick()
        if not is_bisection_set(sg, opens[s].members):
            law.fail((s,))

    law = report.new("zero-is-empty")
    law.tick()
    if opens[monoid.zero].members:
        law.fail((monoid.zero,))

    law = report.new("meet-is-intersection")
    for s in range(n):
        for t in range(n):
            law.tick()
            if masks[monoid.meet(s, t)] != masks[s] & masks[t]:
                law.fail((s, t))

    law = report.new("inverse")
    for s in range(n):
        law.tick()
        if opens[monoid.inv[s]].members != opens[s].inverse().members:
            law.fail((s,))

    law = report.new("product")
    for s in range(n):
        for t in range(n):
            law.tick()
            prod = bisection_product(opens[s], opens[t])
            if prod.members != opens[int(monoid.mul[s, t])].members:
                law.fail((s, t))

    law = report.new("order-embedding")
    for s in range(n):
        for t in range(n):
            law.tick()
            if (masks[s] & masks[t] == masks[s]) != monoid.leq(s, t):
                law.fail((s, t))

    law = report.new("injective")
    for s in range(n):
        for t in range(s + 1, n):
            law.tick()
            if masks[s] == masks[t]:
                law.fail((s, t))

    law = report.new("join-is-union")
    for s in range(n):
        for t in range(n):
            j = monoid.join(s, t)
            if j is not None:
                law.tick()
                if masks[j] != masks[s] | masks[t]:
                    law.fail((s, t))

    law = report.new("union-bisection-iff-join")
    for s in range(n):
        for t in range(n):
            law.tick()
            flag, witness = _fiber_clash(sg, opens[s].members | opens[t].members)
            if flag != (monoid.join(s, t) is not None):
                law.fail((s, t, witness))

    law = report.new("surjective-on-bisections")
    all_masks = {mask_of(b) for b in
                 (bis.members for bis in enumerate_bisections(
                     sg, limits=limits or monoid.limits))}
    law.tick(len(all_masks))
    uncovered = all_masks - set(masks.values())
    if uncovered:
        law.fail(tuple(sorted(uncovered)))

    return report


# -- functors on morphisms ------------------------------------------------------------


def functor_on_morphism(theta: MonoidMorphism,
                        sg_source: StoneGroupoid | None = None,
                        sg_target: StoneGroupoid | None = None) -> CoveringFunctor:
    """The contravariant ultrafilter functor on a morphism theta: S -> T,
    i.e. the covering functor G(T) -> G(S) sending A to its preimage.

    Verifies the domain-preservation identity dom(preimage) =
    preimage(dom) explicitly; functoriality and the covering conditions are
    re-checked structurally.
    """
    sg_t = stone_groupoid(theta.target) if sg_target is None else sg_target
    sg_s = stone_groupoid(theta.source) if sg_source is None else sg_source
    arrow_map = []
    for a in sg_t.ultrafilters:
        pre = Filter(theta.source, theta.preimage_mask(a))
        if not pre.is_ultrafilter():
            raise MorphismError("M3", (sorted(iter_bits(a.members)),))
        arrow_map.append(sg_s.arrow_of(pre))
        # dom(theta^-1 A) = theta^-1(dom A)
        lhs = filter_dom(pre).members
        rhs = theta.preimage_mask(filter_dom(a))
        if lhs != rhs:
            raise StructureError("preimage does not intertwine dom")
    functor = CoveringFunctor(sg_t, sg_s, tuple(arrow_map))
    report = check_covering(functor)
    if not report.ok:
        raise StructureError(f"morphism preimage is not a covering: {report.witness}")
    return functor


def pullback_morphism(f: CoveringFunctor,
                      bm_source: BisectionMonoid,
                      bm_target: BisectionMonoid) -> MonoidMorphism:
    """The contravariant bisection functor on a covering functor f: G -> H:
    the preimage map A(H) -> A(G), where ``bm_source`` is A(G) and
    ``bm_target`` is A(H).  Each preimage is built as a Bisection, and the
    morphism axioms (homomorphism, boolean algebra map, meets, ultrafilter
    preimages) are verified by MonoidMorphism."""
    report = check_covering(f)
    if not report.ok:
        raise StructureError(f"pullback requires a covering functor: {report.witness}")
    src = f.source
    mapping = tuple(
        bm_source.index_of(Bisection(src, frozenset(
            g for g in range(src.m) if f.arrow_map[g] in b.members)))
        for b in bm_target.bisections)
    return MonoidMorphism(bm_target.monoid, bm_source.monoid, mapping)


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


def round_trip_monoid(monoid: InverseMonoid, sg: StoneGroupoid | None = None, *,
                      limits: Limits | None = None) -> IsoCertificate:
    """Certify that s -> basic_open(s) is an isomorphism onto the monoid of
    all bisections of the ultrafilter groupoid (``sg``, built when not
    given)."""
    start = time.perf_counter()
    n = monoid.n
    if sg is None:
        sg = stone_groupoid(monoid)
    bm = all_bisections_monoid(sg, limits=limits or monoid.limits)
    if len(bm) != n:
        raise StructureError(f"cardinality mismatch: |double dual| = {len(bm)} != {n}")
    laws = [("cardinality", 1)]

    forward = tuple(bm.index_of(basic_open(s, sg)) for s in range(n))
    if len(set(forward)) != n:
        raise StructureError("basic-open map is not injective")
    backward = [0] * n
    for s, i in enumerate(forward):
        backward[i] = s
    laws.append(("bijective", n))

    dual = bm.monoid
    count = 0
    for s in range(n):
        for t in range(n):
            if forward[int(monoid.mul[s, t])] != int(dual.mul[forward[s], forward[t]]):
                raise StructureError(f"not multiplicative at ({s}, {t})")
            count += 1
    laws.append(("multiplicative", count))

    for s in range(n):
        if forward[monoid.inv[s]] != dual.inv[forward[s]]:
            raise StructureError(f"does not preserve inversion at {s}")
    laws.append(("inverse-preserving", n))

    if forward[monoid.zero] != dual.zero or forward[monoid.one] != dual.one:
        raise StructureError("does not preserve zero/one")
    laws.append(("zero-one", 2))

    count = 0
    for s in range(n):
        for t in range(n):
            if forward[monoid.meet(s, t)] != dual.meet(forward[s], forward[t]):
                raise StructureError(f"does not preserve meets at ({s}, {t})")
            if monoid.leq(s, t) != dual.leq(forward[s], forward[t]):
                raise StructureError(f"does not preserve order at ({s}, {t})")
            count += 1
    laws.append(("meet-and-order", count))

    return IsoCertificate(forward, tuple(backward), laws, time.perf_counter() - start)


def round_trip_groupoid(groupoid: FiniteGroupoid, bm: BisectionMonoid | None = None, *,
                        limits: Limits = DEFAULT_LIMITS) -> IsoCertificate:
    """Certify that g -> point_ultrafilter(g) is an isomorphism onto the
    ultrafilter groupoid of the bisection monoid (``bm``, built when not
    given), and that it carries each bisection U onto basic_open(U)."""
    start = time.perf_counter()
    m = groupoid.m
    if bm is None:
        bm = all_bisections_monoid(groupoid, limits=limits)
    sg = stone_groupoid(bm.monoid)
    if len(sg) != m:
        raise StructureError(f"cardinality mismatch: |double dual| = {len(sg)} != {m}")
    laws = [("cardinality", 1)]

    # arrow_of rejects a point filter that is not an ultrafilter
    forward = tuple(sg.arrow_of(point_ultrafilter(bm, g)) for g in range(m))
    if len(set(forward)) != m:
        raise StructureError("point-ultrafilter map is not injective")
    backward = [0] * m
    for g, i in enumerate(forward):
        backward[i] = g
    laws.append(("bijective", m))

    for g in range(m):
        if sg.d[forward[g]] != forward[groupoid.d[g]]:
            raise StructureError(f"does not preserve dom at {g}")
        if sg.r[forward[g]] != forward[groupoid.r[g]]:
            raise StructureError(f"does not preserve ran at {g}")
        if sg.inv[forward[g]] != forward[groupoid.inv[g]]:
            raise StructureError(f"does not preserve inverse at {g}")
    laws.append(("dom-ran-inverse", 3 * m))

    count = 0
    for g in range(m):
        for h in range(m):
            lhs = groupoid.compose_maybe(g, h)
            rhs = sg.compose_maybe(forward[g], forward[h])
            if (lhs is None) != (rhs is None):
                raise StructureError(f"composability differs at ({g}, {h})")
            if lhs is not None and forward[lhs] != rhs:
                raise StructureError(f"does not preserve composition at ({g}, {h})")
            count += 1
    laws.append(("composition", count))

    if set(forward[e] for e in groupoid.identities) != set(sg.identities):
        raise StructureError("does not preserve identities")
    laws.append(("identities", len(groupoid.identities)))

    # each bisection U maps onto the basic open set of U's monoid element
    count = 0
    for i, u in enumerate(bm.bisections):
        image = frozenset(forward[g] for g in u.members)
        if image != basic_open(i, sg).members:
            raise StructureError(f"image of bisection {i} is not its basic open set")
        count += 1
    laws.append(("bisection-transport", count))

    return IsoCertificate(forward, tuple(backward), laws, time.perf_counter() - start)


# -- special structure ---------------------------------------------------------------------


@dataclass
class CliffordReport:
    is_clifford: bool
    witness: int | None            # element with dom != ran, when not Clifford
    loops_only: bool | None        # every groupoid arrow has dom == ran
    filters_balanced: bool | None  # dom(A) == ran(A) for every ultrafilter

    def to_json(self) -> dict:
        return {
            "is_clifford": self.is_clifford,
            "witness": self.witness,
            "loops_only": self.loops_only,
            "filters_balanced": self.filters_balanced,
        }


def clifford_check(monoid: InverseMonoid) -> CliffordReport:
    """If every element has dom == ran, the ultrafilter groupoid must be a
    disjoint union of groups: verified on both the filter and arrow level."""
    monoid.require_boolean()
    for s in range(monoid.n):
        if monoid.dom(s) != monoid.ran(s):
            return CliffordReport(False, s, None, None)
    sg = stone_groupoid(monoid)
    balanced = all(filter_dom(f) == filter_ran(f) for f in sg.ultrafilters)
    loops = all(sg.d[g] == sg.r[g] for g in range(sg.m))
    return CliffordReport(True, None, loops, balanced)


@dataclass
class WeakPullbackReport:
    """Behaviour of a weak morphism (no ultrafilter axiom) on ultrafilters:
    idempotent ones must pull back to idempotent ultrafilters, all others
    are classified."""

    idempotent_ok: bool
    idempotent_failures: list
    flagged: list  # (ultrafilter members, classification) for non-idempotent ones

    def to_json(self) -> dict:
        return {
            "idempotent_ok": self.idempotent_ok,
            "idempotent_failures": self.idempotent_failures,
            "flagged": [[list(m), c] for m, c in self.flagged],
        }


def weak_morphism_pullback(theta: MonoidMorphism) -> WeakPullbackReport:
    src = theta.source
    idem_failures = []
    flagged = []
    for u in enumerate_ultrafilters(theta.target):
        pre = theta.preimage_mask(u)
        if u.is_idempotent_filter:
            ok = False
            if pre:
                try:
                    f = Filter(src, pre)
                    ok = f.is_ultrafilter() and f.is_idempotent_filter
                except StructureError:
                    ok = False
            if not ok:
                idem_failures.append(sorted(iter_bits(u.members)))
        else:
            if pre == 0:
                kind = "empty"
            else:
                try:
                    f = Filter(src, pre)
                    kind = "ultrafilter" if f.is_ultrafilter() else "filter-not-ultra"
                except StructureError:
                    kind = "not-a-filter"
            if kind != "ultrafilter":
                flagged.append((sorted(iter_bits(u.members)), kind))
    return WeakPullbackReport(not idem_failures, idem_failures, flagged)
