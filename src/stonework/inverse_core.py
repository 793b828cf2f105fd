"""Finite inverse monoids as dense multiplication tables.

An inverse monoid lives on indices ``0..n-1`` with a total product table, a
designated zero and one, and an involution ``s -> s^-1`` with s s^-1 s = s.
Construction verifies the defining axioms (neutral one, absorbing zero,
associativity by Light's test :func:`check_associativity`, which groupoids
share, the involution, commuting idempotents); their consequences (s^-1 s
s^-1 = s^-1, unique inverses, a partial natural order) are theorems, checked
by the tests.  Richer carriers such as partial bijections appear only as
constructors and labels.  A carrier of more than MAX_ELEMENTS elements (or a
groupoid of more arrows) is refused before its n x n tables are built.

Every index that enters the library (a table, a map, a generator) is read by
one gate, :func:`as_indices`, as given: its first entry that is not an int
fails as ``{what} has a non-integer entry {x!r}``, and one outside its bounds
as ``{what} {x} is outside {lo}..{hi}``.  The checked product table is held
as a read-only int16 array (n <= 2^12 < 2^15), so an n x n gather moves two
bytes a cell; code that combines entries into codes or sums widens them
first, and a hot gather indexed by entries reads them as intp (``take``, or
a widened index vector): numpy gathers by an int16 index array several times
slower.

The natural partial order ``s <= t  iff  s = t e`` for some idempotent e is
computed definitionally, as a dense matrix, with phi(s), the greatest
idempotent below s (-1 where there is none).  Its dense meet and join tables
(-1 where a bound is absent) are built when first read: meets as
phi(s t^-1) t when every element has phi (Leech 1995), else, like joins, by
:func:`bound_table`.  ``meet`` and ``join`` read one cell and return
``None`` when it is absent, so diagnostics run on non-boolean monoids.
``check_boolean`` decides the three boolean-monoid axioms and names the
first witness (in ascending index order) when one fails: BM1 by the atoms of
E (a finite poset with a bottom is a boolean lattice exactly when x ->
{atoms below x} is an order isomorphism onto the subsets of its atoms), the
literal lattice, distributivity and complement scans of E running only to
name a witness; BM2 by phi, the meet table naming the witness only when
phi is missing; BM3 by joins computed at the orthogonal pairs only
(:func:`bounds_at`).  Deciding a boolean monoid builds neither table.

A table of more than BLOCK_CELLS cells is worked in blocks of about that many
cells (:func:`row_blocks`, :func:`member_blocks`).  Reading and writing a
stored table share the independent blocks with one helper thread
(:func:`table_map`); nothing sets this."""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, combinations, permutations
from math import comb, factorial

import numpy as np

from .errors import BoundError, NotBooleanError, StructureError

MAX_ELEMENTS = 4096     # most elements of a monoid, or arrows of a groupoid: tables are n x n


def check_size(count: int, what: str, cap: int = MAX_ELEMENTS) -> None:
    """Refuse, before its n x n tables are allocated, an object of more
    than ``cap`` elements, arrows or bisections."""
    if count > cap:
        raise BoundError(f"{what}: sizes are capped at {cap}")


def as_indices(values, what: str, size: int, low: int = 0) -> np.ndarray:
    """The one gate for indices from outside: ``values`` (an int, a sequence,
    rows of one, or an array) as an array of ints in ``low..size-1``.  The
    first entry, in ascending position, that is not an int (a bool, float or
    string) or lies outside, even past int64, is a StructureError.  An integer
    array costs a min and a max; a list is scanned for bools row by row."""
    try:
        array = np.asarray(values)
    except ValueError:
        raise StructureError(f"{what} rows are ragged") from None
    rows = [values] if isinstance(values, (list, tuple)) else []    # innermost rows
    for _ in range(array.ndim - 1):
        rows = chain.from_iterable(rows)
    if (array.dtype.kind in "iu" and not any(bool in map(type, row) for row in rows)
            and (not array.size or low <= np.minimum.reduce(array, axis=None)
                 and np.maximum.reduce(array, axis=None) < size)):
        return array
    for x in np.asarray(values, dtype=object).flat:     # as given: numpy reads True as 1
        if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
            raise StructureError(f"{what} has a non-integer entry {x!r}")
        if not low <= x < size:
            raise StructureError(f"{what} {x} is outside {low}..{size - 1}")
    return array.astype(np.intp)        # no entry at all, or ints numpy read as floats


def as_index(value, size: int, what: str = "element") -> int:
    """One index through :func:`as_indices`, as a Python int; an int in
    range, the common case, skips the gate's numpy dispatch."""
    if type(value) is int and 0 <= value < size:
        return value
    index = as_indices(value, what, size)
    if index.ndim:
        raise StructureError(f"{what} has a non-integer entry {value!r}")
    return int(index)


def sequence_length(values, what: str) -> int:
    """The length of a table or map; a value without one is a StructureError."""
    try:
        return len(values)
    except TypeError:
        raise StructureError(f"{what} is not a sequence") from None


def as_map(values, what: str, size: int) -> tuple[int, ...]:
    """A sequence through :func:`as_indices`, as a tuple of Python ints."""
    sequence_length(values, what)
    indices = as_indices(values, what, size)
    if indices.ndim != 1:
        raise StructureError(f"{what} is not a sequence")
    return tuple(indices.tolist())


def as_labels(labels, count: int):
    """The labels as a tuple of ``count`` strings, or None when absent;
    anything else is a StructureError."""
    if labels is None:
        return None
    if (not isinstance(labels, (list, tuple)) or len(labels) != count
            or not all(isinstance(x, str) for x in labels)):
        raise StructureError(f"labels must be a list of {count} strings")
    return tuple(labels)


def first_failure(checks: dict[str, np.ndarray]) -> tuple[str, tuple[int, ...]] | None:
    """The first failing position, in ascending order, of same-shaped
    failure arrays, with the name of the first check that fails there; or
    None when none fails."""
    bad = reduce(np.logical_or, checks.values())
    if bad.any():
        at = tuple(int(x) for x in np.argwhere(bad)[0])
        return next(name for name, fails in checks.items() if fails[at]), at
    return None


def raise_first_failure(checks: dict[str, np.ndarray]) -> None:
    """Raise a StructureError at :func:`first_failure`, worded by its check
    (a template filled with the position)."""
    if hit := first_failure(checks):
        raise StructureError(hit[0].format(*hit[1]))


def check_associativity(table: np.ndarray, passed: list[int]) -> None:
    """Light's test, exact for any finite magma with this total n x n table:
    the g with ``(x g) y == x (g y)`` for all x, y are closed under the
    product, so it suffices to test unreached elements until products of
    ``passed`` (known to pass, and closed under the product) reach all.  Rows
    with more distinct entries go first (speed only: 3-6 tries on I(X), k+1 on
    2^k, about 2(p-1) on a pair groupoid of p points); trying all n is n^3."""
    n, blocks = len(table), row_blocks(len(table), len(table))
    distinct = np.empty(n, dtype=np.intp)
    for block in blocks:
        rows = table[block]
        marks = np.zeros(rows.shape, dtype=bool)
        marks.ravel()[np.arange(0, rows.size, n)[:, None] + rows] = True   # flat: 2x a 2-d one
        distinct[block] = np.count_nonzero(marks, axis=1)
    reached, columns = set(passed), [table[:, p].tolist() for p in passed]  # x -> x p
    for g in np.argsort(-distinct, kind="stable").tolist():
        if g in reached:
            continue
        for block in blocks:
            left = np.take(table, table[block, g], axis=0)    # (x g) y
            right = np.take(table[block], table[g], axis=1)   # x (g y)
            if (fails := left != right).any():
                x, y = map(int, np.argwhere(fails)[0])
                raise StructureError(f"associativity fails at ({block.start + x}, {g}, {y})")
        columns.append(column := table[:, g].tolist())
        fresh = {column[x] for x in reached} | {g}
        while fresh := fresh - reached:
            reached |= fresh
            fresh = {col[x] for x in fresh for col in columns}


BLOCK_CELLS = 1 << 18   # cells of one block of table work; a larger table uses two threads


def table_map(cells: int, fn, *items) -> list:
    """``list(map(fn, *items))`` over sequences, a helper thread taking the odd jobs
    when the table worked on has more than BLOCK_CELLS cells and this process may run on
    two CPUs: only numpy's large parses, gathers and reductions release the GIL, and on a
    smaller table the hand-off costs more than they gain.  The helper is joined before
    this returns, and what either thread raised is raised here.  ``fn`` must do nothing
    but such table work (no tracing, no I/O)."""
    if cells <= BLOCK_CELLS or len(os.sched_getaffinity(0)) < 2:
        return list(map(fn, *items))
    results, failed = [None] * len(items[0]), []

    def work(start):
        try:
            results[start::2] = map(fn, *(item[start::2] for item in items))
        except BaseException as error:     # raised on the calling thread: the helper prints nothing
            failed.append(error)
    helper = threading.Thread(target=work, args=(1,))
    helper.start()
    work(0)
    helper.join()
    if failed:
        raise failed[0]
    return results


def row_blocks(rows: int, width: int) -> list[slice]:
    """Slices of ``rows`` rows of ``width`` cells, of at most BLOCK_CELLS cells or one row."""
    step = max(1, BLOCK_CELLS // max(width, 1))
    return [slice(lo, lo + step) for lo in range(0, rows, step)]


def member_blocks(rows: np.ndarray, width, sizes=None):
    """The boolean ``rows`` with k members, k by k, in blocks of at most BLOCK_CELLS
    cells, a row taking ``width(k)``: pairs (at, members), members[i] the members
    of row at[i] in ascending order.  ``sizes``, when known, counts each row's."""
    sizes = np.count_nonzero(rows, axis=1) if sizes is None else sizes
    for size in np.flatnonzero(np.bincount(sizes)).tolist():    # np.unique imports numpy.ma
        same = np.flatnonzero(sizes == size)
        for block in row_blocks(len(same), width(size)):
            at = same[block]
            yield at, np.nonzero(rows[at])[1].reshape(len(at), size)


def bound_table(leq: np.ndarray) -> np.ndarray:
    """Greatest lower bounds in the partial order ``leq`` ([s, t]: s <= t),
    an int16 table with -1 where a bound is absent; ``bound_table(leq.T)``
    gives least upper bounds.  Of the members of down(s) below t, the one
    with the largest down-set (ties to the larger index) is the meet if its
    down-set is all of down(s) & down(t): exact for a transitive,
    antisymmetric order.  Elements are keyed by that rank 1..n, and members
    counted, in int16 (n <= 2^12).  An order with n^3 <= BLOCK_CELLS is one
    gather over every m; a larger one is worked in the :func:`member_blocks`
    of its down-sets, their members in chunks, so no temporary grows with n^2
    (on small orders such blocks made ``dualize`` and ``laws`` p50_s 15-18%
    slower).  The gathers read a C-contiguous copy of ``leq``: from a
    transposed view, ba12's join table takes 16.7 s against 1.4 s.
    ``OrderData`` builds the join table here when it is first read, and the
    meet table only when some element has no phi; deciding BM3 needs joins
    only at the orthogonal pairs (:func:`bounds_at`)."""
    leq = np.ascontiguousarray(leq)
    n = len(leq)
    sizes = np.count_nonzero(leq, axis=0)             # sizes[m] = |down(m)|
    ranked = np.argsort(sizes, kind="stable")         # by (|down(m)|, m)
    key = np.empty(n, dtype=np.int16)
    key[ranked] = np.arange(1, n + 1)
    # rank -> element and its down-set size; rank 0 (no member) matches no count
    element, down = np.concatenate(([-1], ranked)), np.concatenate(([-1], sizes[ranked]))
    if n ** 3 <= BLOCK_CELLS:                         # below[s, m, t]: m <= s and m <= t
        table = _greatest_below([(leq.T[:, :, None] & leq, key)], element, down).astype(np.int16)
    else:
        table = np.empty((n, n), dtype=np.int16)
        for block, members in member_blocks(leq.T, lambda size: size * n, sizes):
            width = max(1, BLOCK_CELLS // (len(block) * n))
            parts = (members[:, at:at + width] for at in range(0, members.shape[1], width))
            table[block] = _greatest_below(((leq[part], key[part]) for part in parts),
                                           element, down)
    table.setflags(write=False)
    return table


def _greatest_below(chunks, element: np.ndarray, down: np.ndarray) -> np.ndarray:
    """Rows of bound_table from chunks (below, keys) of their candidate
    members, below[r, i, t] saying that the i-th lies below row r and t: a
    running largest rank and count of the members below each t; the member
    of that rank is the bound when its down-set size is the count."""
    best = count = 0
    for below, keys in chunks:
        best = np.maximum(best, (below * keys[..., None]).max(axis=1))
        count = count + np.add.reduce(below, axis=1, dtype=np.int16)
    best = best.astype(np.intp)         # an intp index takes numpy's fast gather
    return np.where(down[best] == count, element[best], -1)


# [b]: the leading zero bits of byte b, its first member in packbits' order (0 for b = 0)
_LEADING_ZEROS = np.array([8 - b.bit_length() if b else 0 for b in range(256)], dtype=np.intp)


def bounds_at(leq: np.ndarray, s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``bound_table(leq)[s, t]`` at the pairs of index arrays s and t only,
    by its rule.  Down-sets are bit words, members in falling rank (down-set
    size, then index), so the first member of X = down(s) & down(t) is the
    candidate; it is the bound if its down-set is X (in a partial order it
    lies inside X) or, elsewhere, has X's size.  Only where that first test
    fails are members counted, so no popcount is needed.  Pairs go in blocks
    of BLOCK_CELLS words; ba12's 265,721 orthogonal pairs with s <= t take
    0.13 s, and its whole join table 1.4 s."""
    sizes = np.count_nonzero(leq, axis=0)
    falling = np.argsort(sizes, kind="stable")[::-1]
    words = bit_words(np.ascontiguousarray(leq.T).take(falling, axis=1))   # [m]: down(m)
    bounds = np.empty(len(s), dtype=np.int16)
    for block in row_blocks(len(s), words.shape[1]):
        both = words.take(s[block], axis=0)
        both &= words.take(t[block], axis=0)
        first = np.argmax(both != 0, axis=1)        # word 0 when X is empty
        word = np.take_along_axis(both, first[:, None], axis=1).view(np.uint8)
        octet = np.argmax(word != 0, axis=1)
        lead = np.take_along_axis(word, octet[:, None], axis=1)[:, 0]
        candidate = falling[64 * first + 8 * octet + _LEADING_ZEROS[lead]]
        bound = (both == words.take(candidate, axis=0)).all(axis=1)
        bound &= lead != 0
        if (rest := np.flatnonzero(~bound & (lead != 0))).size:
            bound[rest] = sizes[candidate[rest]] == np.count_nonzero(
                np.unpackbits(both[rest].view(np.uint8), axis=1), axis=1)
        bounds[block] = np.where(bound, candidate, -1)
    return bounds


def greatest_idempotents(leq: np.ndarray, idempotents, down: np.ndarray) -> np.ndarray:
    """phi(s), the greatest idempotent below s in the natural order ``leq``,
    for every s, or -1 where s has none (``down[m]`` = |down(m)|): of the
    idempotents below s, the one with the largest down-set (ties to the
    larger index) if its down-set, which holds only idempotents, holds them
    all.  The rule of :func:`bound_table`, in column blocks of the rows of E
    (phi(s) is s ^ s s^-1, but :func:`bounds_at` would transpose the order:
    0.17 s on ba12, against 0.03 s)."""
    idem = np.asarray(idempotents)
    ranked = np.argsort(down[idem], kind="stable")    # positions in idem by (|down(e)|, e)
    key = np.empty(len(idem), dtype=np.int16)
    key[ranked] = np.arange(1, len(idem) + 1)
    element = np.concatenate(([-1], idem[ranked]))
    size = np.concatenate(([-1], down[element[1:]]))
    phi = np.empty(len(leq), dtype=np.intp)
    for block in row_blocks(len(leq), len(idem)):     # blocks of columns, |E| cells each
        phi[block] = _greatest_below([(leq[None, idem, block], key)], element, size)[0]
    return phi


def _meet_table(order: "OrderData") -> np.ndarray:
    """The meet table: s ^ t = phi(s t^-1) t when every element has phi
    (Leech, Inverse monoids with a natural semilattice ordering, Proc. LMS
    70, 1995), in row blocks (ba12: 0.16 s, against 1.27 s by bound_table);
    else some meet is absent (were all present, s ^ s s^-1 would be phi(s))
    and :func:`bound_table` leaves -1 there."""
    mul, phi, n = order.mul, order.phi.astype(np.intp, copy=False), len(order.phi)
    if (phi < 0).any():
        return bound_table(order.matrix)
    table, cells = np.empty((n, n), dtype=np.int16), np.arange(n)
    for block in row_blocks(n, n):
        table[block] = mul.take(phi.take(mul[block].take(order.inv, axis=1)) * n + cells)
    table.setflags(write=False)
    return table


class _BuiltWhenRead:
    """A field of a frozen dataclass that, when not given, is ``build(instance)``
    on its first read, then kept.  (The dataclass passes this descriptor itself
    as the field's default, and ``dataclasses.replace`` reads every field.)"""

    def __init__(self, build):
        self.build = build

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        if (value := instance.__dict__[self.name]) is self:
            value = instance.__dict__[self.name] = self.build(instance)
        return value

    def __set__(self, instance, value):
        instance.__dict__[self.name] = value


def inclusions(rows: np.ndarray, others: np.ndarray) -> np.ndarray:
    """Entry [i, j] says whether boolean row i of ``rows`` lies inside row j
    of ``others``: an exact float32 product counts the misses (< 2^24)."""
    return (rows.astype(np.float32) @ (~others).T.astype(np.float32)) == 0


def bit_words(rows: np.ndarray) -> np.ndarray:
    """Boolean rows (the last axis) as bit sets of 64-bit words, zero past the row's end."""
    pad = np.zeros(rows.shape[:-1] + (-rows.shape[-1] % 64,), dtype=bool)
    return np.packbits(np.concatenate((rows, pad), axis=-1), axis=-1).view(np.uint64)


def bm1_by_atoms(in_e: np.ndarray) -> np.ndarray | None:
    """BM1 by the atom criterion on the order ``in_e`` of E ([x, y]: x <= y,
    the bottom in every down-set): E is a boolean lattice exactly when
    phi(x) = {atoms below x} is an order isomorphism onto the subsets of its
    a atoms, that is when k = 2^a, the codes of phi hit every subset once
    and x <= y iff phi(x) is inside phi(y).  Returns the position of each
    complement (the one whose code is the other atoms), or None when E is
    not boolean."""
    k = len(in_e)
    atoms = np.flatnonzero(np.count_nonzero(in_e, axis=0) == 2)    # down-set {0, a}
    if k != 1 << len(atoms):
        return None
    phi = in_e[atoms].T                               # [x, j]: atoms[j] <= x
    codes = phi @ (1 << np.arange(len(atoms)))
    if (np.count_nonzero(np.bincount(codes, minlength=k)) != k
            or not np.array_equal(in_e, inclusions(phi, phi))):
        return None
    by_code = np.empty(k, dtype=np.intp)
    by_code[codes] = np.arange(k)
    return by_code[(k - 1) ^ codes]


def bm1_by_scan(in_e: np.ndarray, zero: int, one: int) -> tuple:
    """BM1 by its literal definition on the order ``in_e`` of E, with bottom
    and top at positions ``zero`` and ``one``: E's meet and join tables from
    bound_table, then a lattice check, a k^3 distributivity scan and a
    complement check.  Returns (None, complement) when E is a boolean
    lattice, the complement as in bm1_by_atoms; otherwise ((detail,
    positions), None) at the first failure of an ascending scan."""
    # intp: the loops below index with them.  Bound tables are symmetric, so
    # a row-major first failing pair has s <= t, as in an upper triangle.
    meet, join = (bound_table(leq).astype(np.intp) for leq in (in_e, in_e.T))
    if hit := first_failure({"idempotent meet missing": meet < 0,
                             "idempotent join missing": join < 0}):
        return hit, None
    for i in range(len(in_e)):
        row = meet[i]
        lhs = row[join]                           # e ^ (f v g)
        rhs = join[row[:, None], row[None, :]]    # (e ^ f) v (e ^ g)
        if not np.array_equal(lhs, rhs):
            f, g = map(int, np.argwhere(lhs != rhs)[0])
            return ("idempotent lattice not distributive", (i, f, g)), None
    # [i, j]: j is a complement of i; the first one is kept
    complement = (meet == zero) & (join == one)
    if not (found := complement.any(axis=1)).all():
        return ("idempotent has no complement", (int(found.argmin()),)), None
    return None, complement.argmax(axis=1)


@dataclass(frozen=True)
class OrderData:
    """The natural partial order: a dense matrix, whose row s is the up-set
    of s (the filter it generates), phi, and its meet and join tables, each
    built on its first read unless given."""

    idempotents: tuple[int, ...]
    atoms: tuple[int, ...]   # minimal non-zero elements
    matrix: np.ndarray = field(compare=False, repr=False)     # read-only; [s, t]: s <= t
    up_sizes: np.ndarray = field(compare=False, repr=False)   # up_sizes[s] = |up(s)|
    phi: np.ndarray = field(compare=False, repr=False)        # [s]: greatest idempotent <= s, or -1
    mul: np.ndarray = field(compare=False, repr=False)        # the monoid's product table and
    inv: np.ndarray = field(compare=False, repr=False)        # inverses, which the meets read
    # read-only int16 tables: [s, t] the meet / join of s and t, -1 if absent
    meet: np.ndarray = field(default=_BuiltWhenRead(_meet_table), compare=False, repr=False)
    join: np.ndarray = field(default=_BuiltWhenRead(lambda order: bound_table(order.matrix.T)),
                             compare=False, repr=False)


@dataclass(frozen=True)
class BooleanCertificate:
    """Result of the three-axiom boolean decision procedure.

    On failure, ``axiom`` is one of ``"BM1"``, ``"BM2"``, ``"BM3"``,
    ``detail`` says which sub-check broke, and ``elements`` are the
    offending indices (deterministic: first hit of an ascending scan)."""

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

    def __init__(self, mul, inv, zero: int, one: int, labels=None):
        n = sequence_length(mul, "product table")
        table = as_indices(mul, "product table", n)
        if table.shape != (n, n):
            raise StructureError(f"product table must be square, got {table.shape}")
        if n == 0:
            raise StructureError("empty carrier")
        check_size(n, f"a monoid of {n} elements")
        table = table.astype(np.int16, copy=False)     # n <= MAX_ELEMENTS < 2^15
        inv = as_map(inv, "inverse table", n)
        if len(inv) != n:
            raise StructureError("inverse table malformed")
        zero, one = as_map((zero, one), "zero/one", n)
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
        self._order: OrderData | None = None
        self._certificate: BooleanCertificate | None = None
        self._complements: np.ndarray | None = None     # [e]: complement of e in E, -1 off E
        self._stone_groupoid = None     # duality.stone_groupoid, kept from its first call
        self._filter_products = None    # filters.filter_products, kept from its first call
        self._validate()

    # -- construction-time axiom checks ------------------------------------

    def _validate(self) -> None:
        mul, n = self.mul, self.n
        rng = np.arange(n)

        if not (np.array_equal(mul[self.one], rng) and np.array_equal(mul[:, self.one], rng)):
            raise StructureError("designated one is not a two-sided identity")
        if not (np.all(mul[self.zero] == self.zero) and np.all(mul[:, self.zero] == self.zero)):
            raise StructureError("designated zero is not absorbing")

        check_associativity(mul, [self.one])    # one passes: it is an identity

        inv_arr = np.asarray(self.inv)
        raise_first_failure({"inverse is not an involution at {}": inv_arr[inv_arr] != rng})
        # s s^-1 s = s at s^-1 is s^-1 s s^-1 = s^-1, as inv is an involution
        raise_first_failure({"s s^-1 s != s at {}": mul[mul[rng, inv_arr], rng] != rng})

        # A regular monoid whose idempotents commute is inverse: s^-1 is then
        # the only inverse of s (Howie, Fundamentals of Semigroup Theory,
        # Thm 5.1.1).  That theorem is not re-proved here; the tests keep the
        # uniqueness scan as a reference that accepts the same tables.
        idem = self.idempotents
        sub = mul[np.ix_(idem, idem)]
        if not np.array_equal(sub, sub.T):
            i, j = map(int, np.argwhere(sub != sub.T)[0])
            raise StructureError(f"idempotents {idem[i]} and {idem[j]} do not commute")

    # -- elementary operations ----------------------------------------------

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"InverseMonoid(n={self.n}, zero={self.zero}, one={self.one})"

    def product(self, s: int, t: int) -> int:
        return int(self.mul[as_index(s, self.n), as_index(t, self.n)])

    def dom(self, s: int) -> int:
        """s^-1 s, the domain idempotent of s."""
        s = as_index(s, self.n)
        return int(self.mul[self.inv[s], s])

    def ran(self, s: int) -> int:
        """s s^-1, the range idempotent of s."""
        s = as_index(s, self.n)
        return int(self.mul[s, self.inv[s]])

    def is_idempotent(self, s: int) -> bool:
        s = as_index(s, self.n)
        return int(self.mul[s, s]) == s

    @property
    def idempotents(self) -> tuple[int, ...]:
        rng = np.arange(self.n)
        return tuple(int(e) for e in np.nonzero(self.mul[rng, rng] == rng)[0])

    def label(self, s: int) -> str:
        s = as_index(s, self.n)
        return self.labels[s] if self.labels else str(s)

    # -- natural partial order ----------------------------------------------

    def order(self) -> OrderData:
        if self._order is None:
            self._order = self._compute_order()
        return self._order

    def _compute_order(self) -> OrderData:
        n, mul = self.n, self.mul
        idem = list(self.idempotents)
        leq = np.zeros((n, n), dtype=bool)    # leq[s, t]  iff  s <= t
        leq[mul.take(idem, axis=1), np.arange(n)[:, None]] = True     # t * e <= t
        # on a validated table this is a partial order with zero at the bottom
        leq.setflags(write=False)
        down = np.count_nonzero(leq, axis=0)    # down[s] = |down(s)|
        atoms = tuple(np.flatnonzero(down == 2).tolist())   # down(atom) = {zero, atom}
        return OrderData(idempotents=tuple(idem), atoms=atoms, matrix=leq,
                         up_sizes=np.count_nonzero(leq, axis=1),
                         phi=greatest_idempotents(leq, idem, down),
                         mul=mul, inv=np.asarray(self.inv))

    def leq(self, s: int, t: int) -> bool:
        return self.order().matrix.item(as_index(s, self.n), as_index(t, self.n))

    @property
    def atoms(self) -> tuple[int, ...]:
        return self.order().atoms

    # -- meets, joins, compatibility ------------------------------------------

    def meet(self, s: int, t: int):
        """Greatest lower bound in the natural order, or None if absent."""
        m = self.order().meet.item(as_index(s, self.n), as_index(t, self.n))
        return None if m < 0 else m

    def join(self, s: int, t: int):
        """Least upper bound in the natural order, or None if absent."""
        j = self.order().join.item(as_index(s, self.n), as_index(t, self.n))
        return None if j < 0 else j

    def compatibility(self) -> np.ndarray:
        """[s, t]: s^-1 t and s t^-1 are both idempotent."""
        inv, idempotent = np.asarray(self.inv), np.diagonal(self.mul) == np.arange(self.n)
        return idempotent.take(self.mul[inv]) & idempotent.take(self.mul[:, inv])

    def orthogonality(self) -> np.ndarray:
        """[s, t]: s^-1 t and s t^-1 are both zero.  (Columns are gathered by
        ``take``: ``mul[:, inv]`` took 136 ms on ba12, against 18 ms.)"""
        inv = np.asarray(self.inv)
        return (self.mul[inv] == self.zero) & (self.mul.take(inv, axis=1) == self.zero)

    # -- boolean structure -----------------------------------------------------

    def check_boolean(self) -> BooleanCertificate:
        """Decide BM1 (boolean idempotent algebra), BM2 (all binary meets),
        BM3 (orthogonal joins); cache the certificate."""
        if self._certificate is None:
            self._certificate = self._decide_boolean()
        return self._certificate

    def _decide_boolean(self) -> BooleanCertificate:
        order = self.order()
        idem = order.idempotents
        in_e = order.matrix[np.ix_(idem, idem)]       # the order of E, by position in idem
        # BM1: (E, <=) is a boolean lattice.  The atom criterion decides it;
        # the literal scans run only when it fails, to name the first witness.
        complement = bm1_by_atoms(in_e)
        if complement is None:
            hit, complement = bm1_by_scan(in_e, idem.index(self.zero), idem.index(self.one))
            if hit:
                return BooleanCertificate(False, "BM1", hit[0], tuple(idem[i] for i in hit[1]))

        # BM2: every pair has a meet, exactly when every element has phi; else
        # the meet table names the first pair without one.  BM3: orthogonal
        # pairs have joins, computed at those pairs only.  Joins and
        # orthogonality are symmetric: a first failing pair has s <= t.
        if (order.phi < 0).any() and (hit := first_failure({"meet missing": order.meet < 0})):
            return BooleanCertificate(False, "BM2", *hit)
        s, t = np.divmod(np.flatnonzero(self.orthogonality()), self.n)
        s, t = s[s <= t], t[s <= t]
        if (missing := bounds_at(order.matrix.T, s, t) < 0).any():
            at = int(missing.argmax())
            return BooleanCertificate(False, "BM3", "orthogonal join missing",
                                      (int(s[at]), int(t[at])))

        self._complements = np.full(self.n, -1, dtype=np.intp)
        self._complements[list(idem)] = np.asarray(idem)[complement]
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

    def relative_complements(self, s, t) -> np.ndarray:
        """t \\ s over index arrays: each r is the unique element with r <= t,
        r orthogonal to s and s v r = t, found as t * e, e the complement of
        dom(s) relative to dom(t), and checked against that definition.  The
        first pair that breaks s <= t or the check raises; an s of -1 (an
        absent meet) passes the gate, is below nothing and is never used as
        an index."""
        self.require_boolean()
        mul, inv, order = self.mul, np.asarray(self.inv), self.order()
        given = as_indices(s, "element", self.n, -1).astype(np.intp, copy=False)
        t = as_indices(t, "element", self.n).astype(np.intp, copy=False)
        s = np.where(given >= 0, given, self.zero)
        dom = mul[inv, np.arange(self.n)].astype(np.intp)
        complement = self._complements[dom[s]]
        e = mul[dom[t], np.maximum(complement, 0)].astype(np.intp)
        r = mul[t, e].astype(np.intp)
        if hit := first_failure({
                "relative complement needs {s} <= {t}": (given < 0) | ~order.matrix[s, t],
                "{e} is not idempotent": complement < 0,
                "relative complement construction broke at ({s}, {t})":
                    ~order.matrix[r, t] | (mul[inv[s], r] != self.zero)
                    | (mul[s, inv[r]] != self.zero) | (order.join[s, r] != t)}):
            i = hit[1][0]
            raise StructureError(hit[0].format(s=int(given[i]), t=int(t[i]), e=int(dom[s[i]])))
        return r

    # -- derived monoids ---------------------------------------------------------

    def restrict(self, elements) -> "InverseMonoid":
        """Submonoid on the given indices (must be closed, contain zero and one)."""
        sub = sorted(set(as_map(list(elements), "element", self.n)))
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
        labels = [self.labels[s] for s in sub] if self.labels else None
        return InverseMonoid(mul, inv, where[self.zero], where[self.one], labels)


# -- partial-bijection constructors ------------------------------------------


def partial_bijections(x_size: int) -> list[tuple[tuple[int, int], ...]]:
    """All partial bijections of {0..x_size-1} as sorted pair tuples.

    Deterministic order: domain bitmask ascending, then image subset and
    assignment lexicographically.  The empty map comes first."""
    out = []
    points = range(x_size)
    for dom_mask in range(1 << x_size):
        dom = [p for p in points if dom_mask >> p & 1]
        for image in combinations(points, len(dom)):
            for assignment in permutations(image):
                out.append(tuple(zip(dom, assignment)))
    return out


def _partial_bijection_count(points: int, limit: int, order: int = 1) -> int:
    """sum_j C(points, j)^2 j! order^j, summed only until past ``limit``: at
    order 1 |I(X)| on the points, and in general the bisections of a connected
    groupoid with that many identities and isotropy groups of that order."""
    count = j = 0
    while j <= points and count <= limit:
        count += comb(points, j) ** 2 * factorial(j) * order ** j
        j += 1
    return count


def _map_label(pairs) -> str:
    if not pairs:
        return "{}"
    return "{" + ",".join(f"{x + 1}->{y + 1}" for x, y in pairs) + "}"


def symmetric_inverse_monoid(x_size: int) -> InverseMonoid:
    """The symmetric inverse monoid I(X) on |X| = x_size points.

    Elements are all partial bijections under composition; zero is the
    empty map and one the identity.  Labels use 1-based points."""
    if x_size < 1:
        raise BoundError("symmetric inverse monoid needs at least one point")
    check_size(_partial_bijection_count(x_size, MAX_ELEMENTS),
               f"the symmetric inverse monoid on {x_size} points")
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
    by_code = np.empty((x_size + 1) ** x_size, dtype=np.int16)
    by_code[image @ weights] = np.arange(n)
    mul = np.empty((n, n), dtype=np.int16)
    for s in range(n):
        mul[s] = by_code[image[s][image] @ weights]
    inv = [index[tuple(sorted((y, x) for x, y in m))] for m in maps]
    identity = tuple((p, p) for p in range(x_size))
    return InverseMonoid(mul, inv, zero=index[()], one=index[identity],
                         labels=[_map_label(m) for m in maps])


# -- other stock monoids -------------------------------------------------------


def boolean_algebra_monoid(num_atoms: int) -> InverseMonoid:
    """The powerset of num_atoms atoms as an all-idempotent inverse monoid
    (product = intersection)."""
    if num_atoms < 0:
        raise BoundError("boolean algebra needs a non-negative number of atoms")
    # min() keeps a huge k from building a huge int: 2^64 is refused like 2^k
    check_size(1 << min(num_atoms, 64), f"the boolean algebra on {num_atoms} atoms")
    n = 1 << num_atoms
    mul = np.bitwise_and.outer(np.arange(n, dtype=np.int16), np.arange(n, dtype=np.int16))
    labels = ["{" + ",".join(str(i + 1) for i in range(num_atoms) if s >> i & 1) + "}"
              for s in range(n)]
    return InverseMonoid(mul, list(range(n)), zero=0, one=n - 1, labels=labels)


def group_with_zero_monoid(order: int) -> InverseMonoid:
    """Cyclic group of the given order with an adjoined absorbing zero."""
    if order < 1:
        raise BoundError("group order must be positive")
    check_size(order + 1, f"a group of order {order} with zero")
    mul = np.zeros((order + 1, order + 1), dtype=np.int16)     # element s + 1 is g^s
    mul[1:, 1:] = np.add.outer(np.arange(order), np.arange(order)) % order + 1
    inv = [0] + [(order - (s - 1)) % order + 1 for s in range(1, order + 1)]
    labels = ["0", "1"] + [f"g{i}" if i > 1 else "g" for i in range(1, order)]
    return InverseMonoid(mul, inv, zero=0, one=1, labels=labels)


def chain_monoid(length: int) -> InverseMonoid:
    """A chain 0 < e_1 < ... < 1 of idempotents under min.

    For length >= 3 the idempotent algebra has no complements, so this is
    the stock non-boolean specimen."""
    if length < 2:
        raise BoundError("chain needs at least two elements")
    check_size(length, f"a chain of {length} elements")
    mul = np.minimum.outer(np.arange(length, dtype=np.int16), np.arange(length, dtype=np.int16))
    labels = ["0"] + [f"e{i}" for i in range(1, length - 1)] + ["1"]
    return InverseMonoid(mul, list(range(length)), zero=0, one=length - 1, labels=labels)


def product_monoid(a: InverseMonoid, b: InverseMonoid) -> InverseMonoid:
    """Direct product with componentwise operations; element (s, t) is
    s * |b| + t, zero = (0,0), one = (1,1)."""
    nb, n = b.n, a.n * b.n
    check_size(n, f"a product of {a.n} by {b.n} elements")
    # codes s * |b| + t of int16 entries, widened on purpose (each is < n, checked above)
    mul = (a.mul.astype(np.int32)[:, None, :, None] * nb + b.mul[None, :, None, :]).reshape(n, n)
    inv = [a.inv[s // nb] * nb + b.inv[s % nb] for s in range(n)]
    labels = None
    if a.labels and b.labels:
        labels = [f"({a.label(s // nb)}|{b.label(s % nb)})" for s in range(n)]
    return InverseMonoid(mul, inv, zero=a.zero * nb + b.zero,
                         one=a.one * nb + b.one, labels=labels)


def clifford_monoid() -> InverseMonoid:
    """A 9-element Clifford specimen: two copies of Z/2-with-zero glued over
    a 4-element idempotent algebra (the direct product of two group-with-zero
    monoids, where every element satisfies dom = ran)."""
    z2 = group_with_zero_monoid(2)
    return product_monoid(z2, z2)


def brandt_monoid() -> InverseMonoid:
    """The 5-element combinatorial Brandt semigroup with an adjoined identity,
    realized inside I({1,2}).  Inverse but not boolean: the two nilpotent
    partial maps are orthogonal yet have no join."""
    ix = symmetric_inverse_monoid(2)
    maps = partial_bijections(2)
    keep = [i for i, m in enumerate(maps) if m != ((0, 1), (1, 0))]
    return ix.restrict(keep)
