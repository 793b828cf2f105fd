"""Finite groupoids, bisections, and the inverse monoid of all bisections.

A finite groupoid is a set of arrows ``0..m-1`` with total ``d``, ``r``
and inverse maps and a partial composition table, defined exactly on the
pairs with ``d(g) = r(h)``.  For finite carriers the topology is discrete,
so every subset is compact open and the boolean-groupoid conditions reduce
to finiteness; the certificate of that reduction lives in
:meth:`FiniteGroupoid.discrete_certificate`.

A bisection is a subset hitting each identity at most once on the domain
side and at most once on the range side.  The set of all bisections under
the arrow-wise product is a boolean inverse monoid, materialized by
:func:`all_bisections_monoid` (capped, since the candidate space is
exponential).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .config import DEFAULT_LIMITS, Limits
from .errors import BoundError, StructureError
from .inverse_core import InverseMonoid, as_indices, as_labels, mask_of


class FiniteGroupoid:
    """A finite groupoid on dense arrow indices, verified on construction."""

    def __init__(self, d, r, inv, compose, identities, labels=None):
        self.d = as_indices(d, "d")
        self.m = len(self.d)
        self.r = as_indices(r, "r")
        self.inv = as_indices(inv, "inv")
        try:
            triples = [as_indices((*key, k), "compose") for key, k in dict(compose).items()]
        except (TypeError, ValueError):
            raise StructureError("compose is not a map from arrow pairs to arrows") from None
        if any(len(t) != 3 for t in triples):
            raise StructureError("compose keys must be arrow pairs")
        self.compose = {(g, h): k for g, h, k in triples}
        self.identities = tuple(sorted(as_indices(identities, "identities")))
        self.labels = as_labels(labels, self.m)
        self._validate()

    def _validate(self) -> None:
        m, ids = self.m, set(self.identities)
        if len(self.r) != m or len(self.inv) != m:
            raise StructureError("d/r/inv length mismatch")
        # every index is range-checked before anything is looked up by it
        for name, values in (("d", self.d), ("r", self.r), ("inv", self.inv),
                             ("identities", self.identities),
                             ("compose", [x for key, k in self.compose.items()
                                          for x in (*key, k)])):
            if any(not 0 <= x < m for x in values):
                raise StructureError(f"{name} has an arrow index outside 0..{m - 1}")
        for g in range(m):
            if not (self.d[g] in ids and self.r[g] in ids):
                raise StructureError(f"dom/ran of {g} is not an identity")
        for e in ids:
            if not (self.d[e] == e and self.r[e] == e):
                raise StructureError(f"identity {e} has displaced dom/ran")
        for (g, h), k in self.compose.items():
            if self.d[g] != self.r[h]:
                raise StructureError(f"composition defined on non-composable ({g}, {h})")
            if self.d[k] != self.d[h] or self.r[k] != self.r[g]:
                raise StructureError(f"composite ({g}, {h}) has wrong dom/ran")
        for g in range(m):
            for h in range(m):
                if self.d[g] == self.r[h] and (g, h) not in self.compose:
                    raise StructureError(f"composable pair ({g}, {h}) left undefined")
        for g in range(m):
            if self.inv[self.inv[g]] != g:
                raise StructureError(f"inverse not involutive at {g}")
            if self.compose.get((g, self.inv[g])) != self.r[g]:
                raise StructureError(f"g g^-1 != ran(g) at {g}")
            if self.compose.get((self.inv[g], g)) != self.d[g]:
                raise StructureError(f"g^-1 g != dom(g) at {g}")
            if self.compose[(self.r[g], g)] != g or self.compose[(g, self.d[g])] != g:
                raise StructureError(f"identities do not act neutrally at {g}")
        for (g, h) in self.compose:
            gh = self.compose[(g, h)]
            for k in range(self.m):
                if (h, k) in self.compose:
                    if self.compose[(gh, k)] != self.compose[(g, self.compose[(h, k)])]:
                        raise StructureError(f"associativity fails at ({g}, {h}, {k})")

    def __len__(self) -> int:
        return self.m

    def __repr__(self) -> str:
        return f"FiniteGroupoid(arrows={self.m}, identities={len(self.identities)})"

    def label(self, g: int) -> str:
        return self.labels[g] if self.labels else str(g)

    def compose_maybe(self, g: int, h: int):
        return self.compose.get((g, h))

    def star(self, e: int) -> tuple[int, ...]:
        """Arrows with domain e."""
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
    m = points * points
    d = [idx(j, j) for i in range(points) for j in range(points)]
    r = [idx(i, i) for i in range(points) for j in range(points)]
    inv = [idx(j, i) for i in range(points) for j in range(points)]
    compose = {}
    for i in range(points):
        for j in range(points):
            for k in range(points):
                compose[(idx(i, j), idx(j, k))] = idx(i, k)
    labels = [f"({i + 1},{j + 1})" for i in range(points) for j in range(points)]
    return FiniteGroupoid(d, r, inv, compose, [idx(i, i) for i in range(points)], labels)


def group_groupoid(order: int) -> FiniteGroupoid:
    """A cyclic group of the given order as a one-object groupoid."""
    if order < 1:
        raise BoundError("group order must be positive")
    compose = {(g, h): (g + h) % order for g in range(order) for h in range(order)}
    inv = [(-g) % order for g in range(order)]
    labels = ["1"] + [f"g{i}" if i > 1 else "g" for i in range(1, order)]
    return FiniteGroupoid([0] * order, [0] * order, inv, compose, [0], labels)


def trivial_groupoid(points: int) -> FiniteGroupoid:
    """Identities only."""
    compose = {(e, e): e for e in range(points)}
    rng = list(range(points))
    return FiniteGroupoid(rng, rng, rng, compose, rng, [f"e{i + 1}" for i in rng])


def disjoint_union(a: FiniteGroupoid, b: FiniteGroupoid) -> FiniteGroupoid:
    shift = a.m
    d = list(a.d) + [x + shift for x in b.d]
    r = list(a.r) + [x + shift for x in b.r]
    inv = list(a.inv) + [x + shift for x in b.inv]
    compose = dict(a.compose)
    compose.update({(g + shift, h + shift): k + shift for (g, h), k in b.compose.items()})
    identities = list(a.identities) + [e + shift for e in b.identities]
    labels = None
    if a.labels and b.labels:
        labels = [f"L.{x}" for x in a.labels] + [f"R.{x}" for x in b.labels]
    return FiniteGroupoid(d, r, inv, compose, identities, labels)


# -- bisections ------------------------------------------------------------------


@dataclass(frozen=True)
class Bisection:
    """A subset meeting every domain fiber and every range fiber at most once."""

    groupoid: FiniteGroupoid = field(compare=False)
    members: frozenset = field(compare=True)

    def __post_init__(self):
        if not is_bisection_set(self.groupoid, self.members):
            raise StructureError("subset is not a bisection")

    @property
    def mask(self) -> int:
        return mask_of(self.members)

    def __iter__(self):
        return iter(sorted(self.members))

    def __len__(self):
        return len(self.members)

    def inverse(self) -> "Bisection":
        g = self.groupoid
        return Bisection(g, frozenset(g.inv[a] for a in self.members))


def is_bisection_set(groupoid: FiniteGroupoid, members) -> bool:
    """Does the arrow set meet every domain and every range fiber at most once?"""
    d, r = groupoid.d, groupoid.r
    doms, rans = set(), set()
    for a in members:
        da, ra = d[a], r[a]
        if da in doms or ra in rans:
            return False
        doms.add(da)
        rans.add(ra)
    return True


def bisection_product(a: Bisection, b: Bisection) -> Bisection:
    """Arrow-wise product {xy : composable}; the result is again a bisection
    (validated by the Bisection constructor, not assumed)."""
    if a.groupoid is not b.groupoid:
        raise StructureError("bisection product needs a common carrier")
    compose = a.groupoid.compose.get
    out = {compose((x, y)) for x in a.members for y in b.members}
    out.discard(None)
    return Bisection(a.groupoid, frozenset(out))


def enumerate_bisections(groupoid: FiniteGroupoid, *,
                         limits: Limits = DEFAULT_LIMITS) -> list[Bisection]:
    """All bisections, ordered by member bitmask value.

    Enumerates partial injections between identities together with an arrow
    choice in each hom-fiber, which is equivalent to subset filtering but
    never touches non-bisections.
    """
    if groupoid.m > limits.bisection_bound:
        raise BoundError(
            f"bisection monoid capped at {limits.bisection_bound} arrows; "
            "dualize the monoid side instead")
    ids = groupoid.identities
    hom: dict[tuple[int, int], list[int]] = {}
    for g in range(groupoid.m):
        hom.setdefault((groupoid.d[g], groupoid.r[g]), []).append(g)

    found: list[frozenset] = []

    def extend(i: int, used_ranges: set, chosen: list):
        if i == len(ids):
            found.append(frozenset(chosen))
            return
        e = ids[i]
        extend(i + 1, used_ranges, chosen)  # e outside the domain
        for f in ids:
            if f in used_ranges:
                continue
            for arrow in hom.get((e, f), ()):
                used_ranges.add(f)
                chosen.append(arrow)
                extend(i + 1, used_ranges, chosen)
                chosen.pop()
                used_ranges.remove(f)

    extend(0, set(), [])
    found.sort(key=mask_of)
    return [Bisection(groupoid, s) for s in found]


@dataclass
class BisectionMonoid:
    """The inverse monoid of all bisections of a finite groupoid, plus the
    index bookkeeping tying monoid elements back to arrow subsets."""

    groupoid: FiniteGroupoid
    bisections: list[Bisection]
    monoid: InverseMonoid
    index: dict[int, int]  # member bitmask -> element index

    def __len__(self) -> int:
        return len(self.bisections)

    def index_of(self, b: Bisection) -> int:
        return self.index[b.mask]


def all_bisections_monoid(groupoid: FiniteGroupoid, *,
                          limits: Limits = DEFAULT_LIMITS) -> BisectionMonoid:
    """Materialize the boolean inverse monoid of all bisections.

    Zero is the empty bisection, one is the identity set; the boolean
    certificate is asserted, since for this construction it is a theorem.
    """
    bisections = enumerate_bisections(groupoid, limits=limits)
    index = {b.mask: i for i, b in enumerate(bisections)}
    n = len(bisections)
    mul = [[0] * n for _ in range(n)]
    for i, a in enumerate(bisections):
        for j, b in enumerate(bisections):
            mul[i][j] = index[bisection_product(a, b).mask]
    inv = [index[b.inverse().mask] for b in bisections]
    zero = index[0]
    one = index[mask_of(groupoid.identities)]
    labels = ["{" + ",".join(groupoid.label(a) for a in b) + "}" for b in bisections]
    monoid = InverseMonoid(mul, inv, zero, one, labels, limits=limits)
    monoid.require_boolean()
    return BisectionMonoid(groupoid, bisections, monoid, index)


def point_ultrafilter(bm: BisectionMonoid, g: int):
    """The filter of all bisections through a fixed arrow g.  That it is an
    ultrafilter is the law ``point-filters-ultra``."""
    from .filters import Filter  # filters builds on FiniteGroupoid

    return Filter(bm.monoid, mask_of(i for i, b in enumerate(bm.bisections)
                                     if g in b.members))


# -- covering functors --------------------------------------------------------------


@dataclass(frozen=True)
class CoveringFunctor:
    """A functor between finite groupoids, stored as its arrow map.

    Construction checks functoriality (identities, dom/ran, composition);
    the covering conditions are decided by :func:`check_covering`.
    Continuity is vacuous for finite discrete groupoids.
    """

    source: FiniteGroupoid = field(compare=False)
    target: FiniteGroupoid = field(compare=False)
    arrow_map: tuple[int, ...] = field(compare=True)

    def __post_init__(self):
        src, tgt, f = self.source, self.target, self.arrow_map
        if len(f) != src.m:
            raise StructureError("arrow map length mismatch")
        if any(not 0 <= x < tgt.m for x in f):
            raise StructureError("arrow map leaves the target")
        for e in src.identities:
            if f[e] not in tgt.identities:
                raise StructureError(f"identity {e} not sent to an identity")
        for g in range(src.m):
            if tgt.d[f[g]] != f[src.d[g]] or tgt.r[f[g]] != f[src.r[g]]:
                raise StructureError(f"dom/ran not preserved at {g}")
        for (g, h), k in src.compose.items():
            if tgt.compose_maybe(f[g], f[h]) != f[k]:
                raise StructureError(f"composition not preserved at ({g}, {h})")

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

    def to_json(self) -> dict:
        return {"ok": self.ok, "witness": list(self.witness) if self.witness else None}


def check_covering(f: CoveringFunctor) -> CoveringReport:
    """Star bijectivity on every domain fiber, with the factorization
    lifting property verified directly as a cross-check."""
    src, tgt = f.source, f.target
    for e in src.identities:
        star = src.star(e)
        images = [f.arrow_map[g] for g in star]
        if len(set(images)) != len(images):
            seen: dict[int, int] = {}
            for g, img in zip(star, images):
                if img in seen:
                    return CoveringReport(False, ("star-injectivity", e, seen[img], g))
                seen[img] = g
        target_star = set(tgt.star(f.arrow_map[e]))
        missing = target_star - set(images)
        if missing:
            return CoveringReport(False, ("star-surjectivity", e, min(missing)))

    # lifting: every factorization of f(x) lifts to a factorization of x
    for x in range(src.m):
        fx = f.arrow_map[x]
        for (a, b), k in tgt.compose.items():
            if k != fx:
                continue
            lifts = [
                (u, v)
                for u in range(src.m)
                for v in range(src.m)
                if f.arrow_map[u] == a and f.arrow_map[v] == b
                and src.compose_maybe(u, v) == x
            ]
            if not lifts:
                return CoveringReport(False, ("lifting", x, a, b))
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
