"""Finite inverse monoids as dense multiplication tables.

An inverse monoid lives on indices ``0..n-1`` with a total product table,
a designated zero and one, and an involution ``s -> s^-1`` satisfying
``s s^-1 s = s``.  Construction verifies the axioms (associativity,
involution, uniqueness of inverses, commuting idempotents, absorbing zero,
neutral one) so that everything downstream can trust the table.  Richer
carriers such as partial bijections appear only as constructors and labels.

The natural partial order ``s <= t  iff  s = t e`` for some idempotent e
is computed definitionally.  Because the order is antisymmetric, an element
is determined by its down-set (and by its up-set), so a meet is one lookup:
the element whose down-set is the intersection of the two down-sets, if
any; joins use up-sets the same way.  ``meet`` and ``join`` return ``None``
when the bound does not exist, so diagnostics can run on non-boolean
monoids; ``check_boolean`` decides the three boolean-monoid axioms on dense
meet/join tables of the idempotents and reports the first witness (in
ascending index order) when one fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, permutations

import numpy as np

from .config import DEFAULT_LIMITS, Limits
from .errors import BoundError, NotBooleanError, StructureError


def iter_bits(mask: int):
    """Yield the set bit positions of an int bitmask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices) -> int:
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def popcount(mask: int) -> int:
    return bin(mask).count("1")


def as_indices(values, what: str) -> tuple[int, ...]:
    """The entries as a tuple of ints; a non-integer entry (float, bool,
    string) is a StructureError, never truncated."""
    try:
        out = tuple(values)
    except TypeError:
        raise StructureError(f"{what} is not a sequence") from None
    for x in out:
        if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
            raise StructureError(f"{what} has a non-integer entry {x!r}")
    return tuple(int(x) for x in out)


def as_labels(labels, count: int):
    """The labels as a tuple of ``count`` strings, or None when absent;
    anything else is a StructureError."""
    if labels is None:
        return None
    if (not isinstance(labels, (list, tuple)) or len(labels) != count
            or not all(isinstance(x, str) for x in labels)):
        raise StructureError(f"labels must be a list of {count} strings")
    return tuple(labels)


def bound_table(masks, by_mask: dict[int, int]) -> np.ndarray:
    """Dense table of greatest lower (or least upper) bounds: entry [i, j] is
    ``by_mask[masks[i] & masks[j]]``, or -1 where no element has that mask.
    With down-set masks and ``OrderData.by_down`` this is the meet table;
    with up-set masks and ``by_up``, the join table."""
    return np.array([[by_mask.get(a & b, -1) for b in masks] for a in masks],
                    dtype=np.int64)


@dataclass(frozen=True)
class OrderData:
    """The natural partial order, packed as up-set / down-set bitmasks."""

    up: tuple[int, ...]      # up[s] = bitmask of {t : s <= t}
    down: tuple[int, ...]    # down[t] = bitmask of {s : s <= t}
    idempotents: tuple[int, ...]
    atoms: tuple[int, ...]   # minimal non-zero elements
    # antisymmetry makes down- and up-sets unique: mask -> its element
    by_down: dict[int, int] = field(compare=False, repr=False)
    by_up: dict[int, int] = field(compare=False, repr=False)

    def leq(self, s: int, t: int) -> bool:
        return (self.up[s] >> t) & 1 == 1


@dataclass(frozen=True)
class BooleanCertificate:
    """Result of the three-axiom boolean decision procedure.

    On failure, ``axiom`` is one of ``"BM1"``, ``"BM2"``, ``"BM3"``,
    ``detail`` says which sub-check broke, and ``elements`` are the
    offending indices (deterministic: first hit of an ascending scan).
    """

    is_boolean: bool
    axiom: str | None = None
    detail: str | None = None
    elements: tuple[int, ...] = ()

    def to_json(self) -> dict:
        return {
            "is_boolean": self.is_boolean,
            "axiom": self.axiom,
            "detail": self.detail,
            "elements": list(self.elements),
        }


class InverseMonoid:
    """A finite inverse monoid with zero, held as a verified product table."""

    def __init__(self, mul, inv, zero: int, one: int, labels=None, *,
                 limits: Limits = DEFAULT_LIMITS):
        try:
            table = np.asarray(mul)
        except ValueError:
            raise StructureError("product table rows are ragged") from None
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise StructureError(f"product table must be square, got {table.shape}")
        n = table.shape[0]
        if n == 0:
            raise StructureError("empty carrier")
        if table.dtype.kind not in "iu":
            raise StructureError(f"product table has non-integer entries ({table.dtype})")
        table = table.astype(np.int64, copy=False)
        if table.min() < 0 or table.max() >= n:
            raise StructureError("product table entry out of range")
        inv = as_indices(inv, "inverse table")
        if len(inv) != n or any(not 0 <= i < n for i in inv):
            raise StructureError("inverse table malformed")
        zero, one = as_indices((zero, one), "zero/one")
        if not (0 <= zero < n and 0 <= one < n):
            raise StructureError("zero/one out of range")
        if zero == one and n > 1:
            raise StructureError("zero equals one in a non-trivial monoid")
        labels = as_labels(labels, n)

        table.setflags(write=False)
        self.n = n
        self.mul = table
        self.inv = inv
        self.zero = zero
        self.one = one
        self.labels = labels
        self.limits = limits
        self._order: OrderData | None = None
        self._certificate: BooleanCertificate | None = None
        self._complements: dict[int, int] | None = None
        self._validate()

    # -- construction-time axiom checks ------------------------------------

    def _validate(self) -> None:
        mul, n = self.mul, self.n
        rng = np.arange(n)

        if not (np.array_equal(mul[self.one], rng) and np.array_equal(mul[:, self.one], rng)):
            raise StructureError("designated one is not a two-sided identity")
        if not (np.all(mul[self.zero] == self.zero) and np.all(mul[:, self.zero] == self.zero)):
            raise StructureError("designated zero is not absorbing")

        self._check_associativity()

        inv_arr = np.asarray(self.inv)
        if not np.array_equal(inv_arr[inv_arr], rng):
            s = int(np.nonzero(inv_arr[inv_arr] != rng)[0][0])
            raise StructureError(f"inverse is not an involution at {s}")
        s_si = mul[rng, inv_arr]              # s * s^-1
        si_s = mul[inv_arr, rng]              # s^-1 * s
        if not np.array_equal(mul[s_si, rng], rng):
            s = int(np.nonzero(mul[s_si, rng] != rng)[0][0])
            raise StructureError(f"s s^-1 s != s at {s}")
        if not np.array_equal(mul[si_s, inv_arr], inv_arr):
            s = int(np.nonzero(mul[si_s, inv_arr] != inv_arr)[0][0])
            raise StructureError(f"s^-1 s s^-1 != s^-1 at {s}")

        # uniqueness of generalized inverses (with commuting idempotents this
        # is the inverse-semigroup characterization; both are verified).
        for s in range(n):
            row = mul[s]                      # s*t over t
            col = mul[:, s]                   # t*s over t
            sts = mul[row, s]                 # (s t) s
            tst = mul[col, rng]               # (t s) t
            witnesses = np.nonzero((sts == s) & (tst == rng))[0]
            if len(witnesses) != 1 or int(witnesses[0]) != self.inv[s]:
                raise StructureError(f"inverse of {s} is not unique: {witnesses.tolist()}")

        idem = self.idempotents
        sub = mul[np.ix_(idem, idem)]
        if not np.array_equal(sub, sub.T):
            i, j = map(int, np.argwhere(sub != sub.T)[0])
            raise StructureError(f"idempotents {idem[i]} and {idem[j]} do not commute")

    def _check_associativity(self) -> None:
        """Light's test, exact for any finite magma: the elements g with
        ``(x g) y == x (g y)`` for all x, y are closed under the product, so
        it suffices to test unreached elements until products of the passed
        ones reach all.  Rows with more distinct entries go first (speed only:
        3-6 tries on I(X), k+1 on 2^k); trying all n is an n^3 scan."""
        mul, n = self.mul, self.n
        distinct = np.zeros((n, n), dtype=bool)
        distinct[np.arange(n)[:, None], mul] = True
        reached = np.zeros(n, dtype=bool)
        passed: list[int] = []
        for g in np.argsort(-distinct.sum(axis=1), kind="stable").tolist():
            if reached[g]:
                continue
            left = np.take(mul, mul[:, g], axis=0)    # (x g) y
            right = np.take(mul, mul[g], axis=1)      # x (g y)
            if not np.array_equal(left, right):
                x, y = map(int, np.argwhere(left != right)[0])
                raise StructureError(f"associativity fails at ({x}, {g}, {y})")
            passed.append(g)
            # right-multiply what is reached by the passed elements
            new = np.append(mul[reached, g], g)
            while len(new):
                fresh = np.bincount(new, minlength=n).astype(bool) & ~reached
                reached |= fresh
                new = mul[np.ix_(np.flatnonzero(fresh), passed)].ravel()

    # -- elementary operations ----------------------------------------------

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"InverseMonoid(n={self.n}, zero={self.zero}, one={self.one})"

    def product(self, s: int, t: int) -> int:
        return int(self.mul[s, t])

    def dom(self, s: int) -> int:
        """s^-1 s, the domain idempotent of s."""
        return int(self.mul[self.inv[s], s])

    def ran(self, s: int) -> int:
        """s s^-1, the range idempotent of s."""
        return int(self.mul[s, self.inv[s]])

    def is_idempotent(self, s: int) -> bool:
        return int(self.mul[s, s]) == s

    @property
    def idempotents(self) -> tuple[int, ...]:
        rng = np.arange(self.n)
        return tuple(int(e) for e in np.nonzero(self.mul[rng, rng] == rng)[0])

    def label(self, s: int) -> str:
        return self.labels[s] if self.labels else str(s)

    # -- natural partial order ----------------------------------------------

    def order(self) -> OrderData:
        if self._order is None:
            if self.n > self.limits.order_bound:
                raise BoundError(f"order computation capped at {self.limits.order_bound}")
            self._order = self._compute_order()
        return self._order

    def _compute_order(self) -> OrderData:
        n, mul = self.n, self.mul
        idem = list(self.idempotents)
        leq = np.zeros((n, n), dtype=bool)    # leq[s, t]  iff  s <= t
        prods = mul[:, idem]                  # prods[t, j] = t * e_j
        for t in range(n):
            leq[prods[t], t] = True
        # sanity: a genuine partial order with zero at the bottom
        if not leq[self.zero].all():
            raise StructureError("zero is not the order bottom")
        if np.any(leq & leq.T & ~np.eye(n, dtype=bool)):
            raise StructureError("natural order is not antisymmetric")
        # float32 matmul (BLAS) is exact here: entries are 0/1, so every sum
        # counts paths and is at most n <= order_bound (4096) < 2^24
        square = leq.astype(np.float32)
        closure = (square @ square) > 0
        if np.any(closure & ~leq):
            raise StructureError("natural order is not transitive")

        up = tuple(mask_of(np.nonzero(leq[s])[0].tolist()) for s in range(n))
        down = tuple(mask_of(np.nonzero(leq[:, t])[0].tolist()) for t in range(n))
        bottom = (1 << self.zero)
        atoms = tuple(s for s in range(n)
                      if s != self.zero and down[s] == bottom | (1 << s))
        return OrderData(up=up, down=down, idempotents=tuple(idem), atoms=atoms,
                         by_down={mask: s for s, mask in enumerate(down)},
                         by_up={mask: s for s, mask in enumerate(up)})

    def leq(self, s: int, t: int) -> bool:
        return self.order().leq(s, t)

    def up_mask(self, s: int) -> int:
        return self.order().up[s]

    def down_mask(self, s: int) -> int:
        return self.order().down[s]

    @property
    def atoms(self) -> tuple[int, ...]:
        return self.order().atoms

    def upward_closure(self, mask: int) -> int:
        up = self.order().up
        out = 0
        for s in iter_bits(mask):
            out |= up[s]
        return out

    # -- meets, joins, compatibility ------------------------------------------

    def meet(self, s: int, t: int):
        """Greatest lower bound in the natural order, or None if absent:
        the element whose down-set is the common down-set."""
        order = self.order()
        return order.by_down.get(order.down[s] & order.down[t])

    def join(self, s: int, t: int):
        """Least upper bound in the natural order, or None if absent:
        the element whose up-set is the common up-set."""
        order = self.order()
        return order.by_up.get(order.up[s] & order.up[t])

    def compatible(self, s: int, t: int) -> bool:
        """True when s^-1 t and s t^-1 are both idempotent."""
        return (self.is_idempotent(int(self.mul[self.inv[s], t]))
                and self.is_idempotent(int(self.mul[s, self.inv[t]])))

    def orthogonal(self, s: int, t: int) -> bool:
        """True when s^-1 t and s t^-1 are both zero."""
        return (int(self.mul[self.inv[s], t]) == self.zero
                and int(self.mul[s, self.inv[t]]) == self.zero)

    # -- boolean structure -----------------------------------------------------

    def check_boolean(self) -> BooleanCertificate:
        """Decide BM1 (boolean idempotent algebra), BM2 (all binary meets),
        BM3 (orthogonal joins); cache the certificate."""
        if self._certificate is None:
            self._certificate = self._decide_boolean()
        return self._certificate

    def _idempotent_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Dense meet and join tables of (E, <=), as positions into
        ``order().idempotents`` with -1 where the bound is absent in E.

        The same lookup as :meth:`meet`, restricted to E: two idempotents
        with one down-set inside E are equal, so the mask names the element.
        """
        order = self.order()
        emask = mask_of(order.idempotents)
        down_e = [order.down[e] & emask for e in order.idempotents]
        up_e = [order.up[e] & emask for e in order.idempotents]
        return (bound_table(down_e, {mask: i for i, mask in enumerate(down_e)}),
                bound_table(up_e, {mask: i for i, mask in enumerate(up_e)}))

    def _decide_boolean(self) -> BooleanCertificate:
        order = self.order()
        idem = order.idempotents
        k = len(idem)
        meet, join = self._idempotent_tables()

        # BM1: (E, <=) is a lattice, distributive, complemented.
        absent = np.triu((meet < 0) | (join < 0), 1)
        if absent.any():
            i, j = map(int, np.argwhere(absent)[0])
            detail = "idempotent meet missing" if meet[i, j] < 0 else "idempotent join missing"
            return BooleanCertificate(False, "BM1", detail, (idem[i], idem[j]))
        for i in range(k):
            row = meet[i]
            lhs = row[join]                           # e ^ (f v g)
            rhs = join[row[:, None], row[None, :]]    # (e ^ f) v (e ^ g)
            if not np.array_equal(lhs, rhs):
                f, g = map(int, np.argwhere(lhs != rhs)[0])
                return BooleanCertificate(False, "BM1", "idempotent lattice not distributive",
                                          (idem[i], idem[f], idem[g]))
        zero, one = idem.index(self.zero), idem.index(self.one)
        complements: dict[int, int] = {}
        for i, e in enumerate(idem):
            hits = np.flatnonzero((meet[i] == zero) & (join[i] == one))
            if not len(hits):
                return BooleanCertificate(False, "BM1", "idempotent has no complement", (e,))
            complements[e] = idem[int(hits[0])]

        # BM2: every pair has a meet.
        n, down, up = self.n, order.down, order.up
        for s in range(n):
            ds = down[s]
            for t in range(s, n):
                if ds & down[t] not in order.by_down:
                    return BooleanCertificate(False, "BM2", "meet missing", (s, t))

        # BM3: orthogonal pairs have joins.
        mul, inv = self.mul, np.asarray(self.inv)
        for s in range(n):
            orthogonal = (mul[inv[s], s:] == self.zero) & (mul[s, inv[s:]] == self.zero)
            for t in (np.flatnonzero(orthogonal) + s).tolist():
                if up[s] & up[t] not in order.by_up:
                    return BooleanCertificate(False, "BM3", "orthogonal join missing", (s, t))

        self._complements = complements
        return BooleanCertificate(True)

    @property
    def is_boolean(self) -> bool:
        return self.check_boolean().is_boolean

    def require_boolean(self) -> None:
        cert = self.check_boolean()
        if not cert.is_boolean:
            raise NotBooleanError(
                f"monoid is not boolean: {cert.axiom} {cert.detail} at {cert.elements}",
                certificate=cert)

    def idempotent_complement(self, e: int) -> int:
        """Complement of an idempotent inside the boolean algebra E."""
        self.require_boolean()
        if not self.is_idempotent(e):
            raise StructureError(f"{e} is not idempotent")
        return self._complements[e]

    def relative_complement(self, s: int, t: int) -> int:
        """The unique r = t \\ s with r <= t, r orthogonal to s, s v r = t.

        Requires s <= t and a boolean idempotent algebra; built as t * e
        where e is the complement of dom(s) relative to dom(t).
        """
        if not self.leq(s, t):
            raise StructureError(f"relative complement needs {s} <= {t}")
        e = int(self.mul[self.dom(t), self.idempotent_complement(self.dom(s))])
        r = int(self.mul[t, e])
        if not (self.leq(r, t) and self.orthogonal(s, r) and self.join(s, r) == t):
            raise StructureError(f"relative complement construction broke at ({s}, {t})")
        return r

    # -- derived monoids ---------------------------------------------------------

    def restrict(self, elements) -> "InverseMonoid":
        """Submonoid on the given indices (must be closed, contain zero and one)."""
        sub = sorted(set(int(s) for s in elements))
        where = {s: i for i, s in enumerate(sub)}
        if self.zero not in where or self.one not in where:
            raise StructureError("restriction must contain zero and one")
        for s in sub:
            if self.inv[s] not in where:
                raise StructureError(f"restriction not closed under inverse at {s}")
            for t in sub:
                if int(self.mul[s, t]) not in where:
                    raise StructureError(f"restriction not closed at ({s}, {t})")
        mul = [[where[int(self.mul[s, t])] for t in sub] for s in sub]
        inv = [where[self.inv[s]] for s in sub]
        labels = [self.label(s) for s in sub] if self.labels else None
        return InverseMonoid(mul, inv, where[self.zero], where[self.one],
                             labels, limits=self.limits)


# -- partial-bijection constructors ------------------------------------------


def partial_bijections(x_size: int) -> list[tuple[tuple[int, int], ...]]:
    """All partial bijections of {0..x_size-1} as sorted pair tuples.

    Deterministic order: domain bitmask ascending, then image subset and
    assignment lexicographically.  The empty map comes first.
    """
    out = []
    points = range(x_size)
    for dom_mask in range(1 << x_size):
        dom = [p for p in points if dom_mask >> p & 1]
        for image in combinations(points, len(dom)):
            for assignment in permutations(image):
                out.append(tuple(zip(dom, assignment)))
    return out


def _map_label(pairs) -> str:
    if not pairs:
        return "{}"
    return "{" + ",".join(f"{x + 1}->{y + 1}" for x, y in pairs) + "}"


def symmetric_inverse_monoid(x_size: int, *, limits: Limits = DEFAULT_LIMITS) -> InverseMonoid:
    """The symmetric inverse monoid I(X) on |X| = x_size points.

    Elements are all partial bijections under composition; zero is the
    empty map and one the identity.  Labels use 1-based points.
    """
    if not 1 <= x_size <= limits.symmetric_bound:
        raise BoundError(f"symmetric inverse monoid capped at |X| <= {limits.symmetric_bound}")
    maps = partial_bijections(x_size)
    index = {m: i for i, m in enumerate(maps)}
    n = len(maps)
    # each map as its image array, x_size standing for "undefined", with an
    # extra column sending undefined to undefined: image[s][image[t]] is then
    # the image array of s t (t first), and a map's code reads its image
    # array as base-(x_size + 1) digits
    image = np.full((n, x_size + 1), x_size, dtype=np.int64)
    for i, m in enumerate(maps):
        for x, y in m:
            image[i, x] = y
    weights = np.append((x_size + 1) ** np.arange(x_size), 0)
    by_code = np.empty((x_size + 1) ** x_size, dtype=np.int64)
    by_code[image @ weights] = np.arange(n)
    mul = np.array([by_code[image[s][image] @ weights] for s in range(n)])
    inv = [index[tuple(sorted((y, x) for x, y in m))] for m in maps]
    identity = tuple((p, p) for p in range(x_size))
    return InverseMonoid(mul, inv, zero=index[()], one=index[identity],
                         labels=[_map_label(m) for m in maps], limits=limits)


# -- other stock monoids -------------------------------------------------------


def boolean_algebra_monoid(num_atoms: int, *, limits: Limits = DEFAULT_LIMITS) -> InverseMonoid:
    """The powerset of num_atoms atoms as an all-idempotent inverse monoid
    (product = intersection)."""
    if not 0 <= num_atoms <= 12:
        raise BoundError("boolean algebra monoid capped at 12 atoms")
    n = 1 << num_atoms
    mul = [[s & t for t in range(n)] for s in range(n)]
    labels = ["{" + ",".join(str(i + 1) for i in iter_bits(s)) + "}" for s in range(n)]
    return InverseMonoid(mul, list(range(n)), zero=0, one=n - 1, labels=labels, limits=limits)


def group_with_zero_monoid(order: int, *, limits: Limits = DEFAULT_LIMITS) -> InverseMonoid:
    """Cyclic group of the given order with an adjoined absorbing zero."""
    if order < 1:
        raise BoundError("group order must be positive")
    n = order + 1

    def prod(s, t):
        if s == 0 or t == 0:
            return 0
        return (s - 1 + t - 1) % order + 1

    mul = [[prod(s, t) for t in range(n)] for s in range(n)]
    inv = [0] + [(order - (s - 1)) % order + 1 for s in range(1, n)]
    labels = ["0", "1"] + [f"g{i}" if i > 1 else "g" for i in range(1, order)]
    return InverseMonoid(mul, inv, zero=0, one=1, labels=labels, limits=limits)


def chain_monoid(length: int, *, limits: Limits = DEFAULT_LIMITS) -> InverseMonoid:
    """A chain 0 < e_1 < ... < 1 of idempotents under min.

    For length >= 3 the idempotent algebra has no complements, so this is
    the stock non-boolean specimen.
    """
    if length < 2:
        raise BoundError("chain needs at least two elements")
    mul = [[min(s, t) for t in range(length)] for s in range(length)]
    labels = ["0"] + [f"e{i}" for i in range(1, length - 1)] + ["1"]
    return InverseMonoid(mul, list(range(length)), zero=0, one=length - 1,
                         labels=labels, limits=limits)


def product_monoid(a: InverseMonoid, b: InverseMonoid) -> InverseMonoid:
    """Direct product with componentwise operations; zero = (0,0), one = (1,1)."""
    nb = b.n
    n = a.n * nb

    def pair(s):
        return divmod(s, nb)

    mul = [[0] * n for _ in range(n)]
    for s in range(n):
        sa, sb = pair(s)
        for t in range(n):
            ta, tb = pair(t)
            mul[s][t] = int(a.mul[sa, ta]) * nb + int(b.mul[sb, tb])
    inv = [a.inv[pair(s)[0]] * nb + b.inv[pair(s)[1]] for s in range(n)]
    labels = None
    if a.labels and b.labels:
        labels = [f"({a.label(pair(s)[0])}|{b.label(pair(s)[1])})" for s in range(n)]
    return InverseMonoid(mul, inv, zero=a.zero * nb + b.zero,
                         one=a.one * nb + b.one, labels=labels, limits=a.limits)


def clifford_monoid(*, limits: Limits = DEFAULT_LIMITS) -> InverseMonoid:
    """A 9-element Clifford specimen: two copies of Z/2-with-zero glued over
    a 4-element idempotent algebra (the direct product of two group-with-zero
    monoids, where every element satisfies dom = ran)."""
    z2 = group_with_zero_monoid(2, limits=limits)
    return product_monoid(z2, z2)


def brandt_monoid(*, limits: Limits = DEFAULT_LIMITS) -> InverseMonoid:
    """The 5-element combinatorial Brandt semigroup with an adjoined identity,
    realized inside I({1,2}).  Inverse but not boolean: the two nilpotent
    partial maps are orthogonal yet have no join."""
    ix = symmetric_inverse_monoid(2, limits=limits)
    maps = partial_bijections(2)
    keep = [i for i, m in enumerate(maps) if m != ((0, 1), (1, 0))]
    return ix.restrict(keep)
