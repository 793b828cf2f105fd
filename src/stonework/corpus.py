"""Named generators for the stock example objects.

``GENERATORS`` is the one table of them: each is a function of its
parameters giving (object, default name).  ``build`` checks the parameters
against the types of their defaults and reads the entry kind and the
summary off the object's type; the CLI persists the result as a corpus
entry and takes its build flags from the same signatures.
"""

from __future__ import annotations

import inspect
from functools import reduce

from .errors import StructureError
from .groupoids import (FiniteGroupoid, disjoint_union, group_groupoid, pair_groupoid,
                        trivial_groupoid)
from .inverse_core import (InverseMonoid, boolean_algebra_monoid, brandt_monoid, chain_monoid,
                           clifford_monoid, group_with_zero_monoid, symmetric_inverse_monoid)
from .polycyclic import CnElement, format_cn, is_unit, parse_cn


def _union_groupoid(orders: str = "2,3"):
    chunks = orders.split(",")
    if not all(chunk.strip().removeprefix("-").isdecimal() for chunk in chunks):
        raise StructureError("generator 'union-groupoid' takes 'orders' as decimal ints "
                             f"split by commas, not {orders!r}")
    if len(chunks) < 2:
        raise StructureError("union groupoid needs at least two orders")
    parts = [int(chunk) for chunk in chunks]
    return (reduce(disjoint_union, map(group_groupoid, parts)),
            "union-" + "-".join(f"z{p}" for p in parts))


# generator -> its function; the order of first appearance of the parameters
# is the order of the build flags: --size --atoms --order --orders --length ...
GENERATORS = {
    "ix": lambda size=2: (symmetric_inverse_monoid(size), f"ix{size}"),
    "bool-algebra": lambda atoms=2: (boolean_algebra_monoid(atoms),
                                     f"bool-algebra-{1 << atoms}"),
    "group-zero": lambda order=2: (group_with_zero_monoid(order), f"z{order}-zero"),
    "group-groupoid": lambda order=2: (group_groupoid(order), f"z{order}-group"),
    "union-groupoid": _union_groupoid,
    "chain": lambda length=3: (chain_monoid(length), f"chain{length}"),
    "pair-groupoid": lambda points=2: (pair_groupoid(points), f"pair{points}"),
    "trivial-groupoid": lambda points=1: (trivial_groupoid(points), f"trivial{points}"),
    "clifford": lambda: (clifford_monoid(), "clifford"),
    "brandt": lambda: (brandt_monoid(), "brandt"),
    "cn-element": lambda n=2, expr="{e/e}": (parse_cn(expr, n), f"cn{n}-element"),
}

# object type -> (entry kind, its summary)
SUMMARIES = {
    InverseMonoid: ("monoid", lambda monoid: {
        "elements": monoid.n, "idempotents": len(monoid.idempotents),
        "atoms": len(monoid.atoms), "boolean": monoid.check_boolean().to_json()}),
    FiniteGroupoid: ("groupoid", lambda groupoid: {
        "arrows": groupoid.m, "identities": len(groupoid.identities),
        "discrete": groupoid.discrete_certificate()}),
    CnElement: ("cn-element", lambda element: {
        "n": element.n, "pairs": len(element.pairs), "canonical": format_cn(element),
        "unit": is_unit(element)}),
}


def build(generator: str, **params):
    """Run a named generator: (name, kind, object, summary).  A parameter the
    generator does not take, or not of its default's type, is a
    StructureError: a bool or a float is no int, and a string no int."""
    if generator not in GENERATORS:
        raise StructureError(f"unknown generator {generator!r}; "
                             f"choose from {sorted(GENERATORS)}")
    func = GENERATORS[generator]
    accepted = inspect.signature(func).parameters
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise StructureError(f"generator {generator!r} takes no parameter {unknown[0]!r}")
    for key, value in params.items():
        wanted = type(accepted[key].default)
        if type(value) is not wanted:
            raise StructureError(f"generator {generator!r} takes {key!r} as "
                                 f"{wanted.__name__}, not {value!r}")
    obj, name = func(**params)
    kind, summary = SUMMARIES[type(obj)]
    return name, kind, obj, summary(obj)
