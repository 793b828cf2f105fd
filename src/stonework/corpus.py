"""Named generators for the stock example objects.

Each generator produces (default_name, kind, object, summary_dict);
the CLI persists them as corpus entries and the acceptance suite builds
the same objects directly.
"""

from __future__ import annotations

import inspect

from .config import DEFAULT_LIMITS, Limits
from .errors import StructureError
from .groupoids import (
    disjoint_union,
    group_groupoid,
    pair_groupoid,
    trivial_groupoid,
)
from .inverse_core import (
    boolean_algebra_monoid,
    brandt_monoid,
    chain_monoid,
    clifford_monoid,
    group_with_zero_monoid,
    symmetric_inverse_monoid,
)
from .polycyclic import format_cn, is_unit, parse_cn


def _monoid_summary(monoid):
    cert = monoid.check_boolean()
    return {
        "elements": monoid.n,
        "idempotents": len(monoid.idempotents),
        "atoms": len(monoid.atoms),
        "boolean": cert.to_json(),
    }


def _groupoid_summary(groupoid):
    return {
        "arrows": groupoid.m,
        "identities": len(groupoid.identities),
        "discrete": groupoid.discrete_certificate(),
    }


def build_ix(size: int = 2, *, limits: Limits = DEFAULT_LIMITS):
    monoid = symmetric_inverse_monoid(size, limits=limits)
    return f"ix{size}", "monoid", monoid, _monoid_summary(monoid)


def build_bool_algebra(atoms: int = 2, *, limits: Limits = DEFAULT_LIMITS):
    monoid = boolean_algebra_monoid(atoms, limits=limits)
    return f"bool-algebra-{1 << atoms}", "monoid", monoid, _monoid_summary(monoid)


def build_group_zero(order: int = 2, *, limits: Limits = DEFAULT_LIMITS):
    monoid = group_with_zero_monoid(order, limits=limits)
    return f"z{order}-zero", "monoid", monoid, _monoid_summary(monoid)


def build_clifford(*, limits: Limits = DEFAULT_LIMITS):
    monoid = clifford_monoid(limits=limits)
    return "clifford", "monoid", monoid, _monoid_summary(monoid)


def build_brandt(*, limits: Limits = DEFAULT_LIMITS):
    monoid = brandt_monoid(limits=limits)
    return "brandt", "monoid", monoid, _monoid_summary(monoid)


def build_chain(length: int = 3, *, limits: Limits = DEFAULT_LIMITS):
    monoid = chain_monoid(length, limits=limits)
    return f"chain{length}", "monoid", monoid, _monoid_summary(monoid)


def build_pair_groupoid(points: int = 2):
    g = pair_groupoid(points)
    return f"pair{points}", "groupoid", g, _groupoid_summary(g)


def build_group_groupoid(order: int = 2):
    g = group_groupoid(order)
    return f"z{order}-group", "groupoid", g, _groupoid_summary(g)


def build_union_groupoid(orders: str = "2,3"):
    parts = [int(x) for x in str(orders).split(",") if x.strip()]
    if len(parts) < 2:
        raise StructureError("union groupoid needs at least two orders")
    g = group_groupoid(parts[0])
    for order in parts[1:]:
        g = disjoint_union(g, group_groupoid(order))
    return "union-" + "-".join(f"z{p}" for p in parts), "groupoid", g, _groupoid_summary(g)


def build_trivial_groupoid(points: int = 1):
    g = trivial_groupoid(points)
    return f"trivial{points}", "groupoid", g, _groupoid_summary(g)


def build_cn_element(n: int = 2, expr: str = "{e/e}"):
    element = parse_cn(expr, int(n))
    summary = {
        "n": element.n,
        "pairs": len(element.pairs),
        "canonical": format_cn(element),
        "unit": is_unit(element),
    }
    return f"cn{n}-element", "cn-element", element, summary


GENERATORS = {
    "ix": build_ix,
    "bool-algebra": build_bool_algebra,
    "group-zero": build_group_zero,
    "clifford": build_clifford,
    "brandt": build_brandt,
    "chain": build_chain,
    "pair-groupoid": build_pair_groupoid,
    "group-groupoid": build_group_groupoid,
    "union-groupoid": build_union_groupoid,
    "trivial-groupoid": build_trivial_groupoid,
    "cn-element": build_cn_element,
}


def build(generator: str, *, limits: Limits = DEFAULT_LIMITS, **params):
    """Run a named generator.  A parameter the generator does not take is a
    StructureError; ``limits`` reaches only the generators that take it."""
    if generator not in GENERATORS:
        raise StructureError(f"unknown generator {generator!r}; "
                             f"choose from {sorted(GENERATORS)}")
    func = GENERATORS[generator]
    accepted = inspect.signature(func).parameters
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise StructureError(f"generator {generator!r} takes no parameter {unknown[0]!r}")
    if "limits" in accepted:
        params["limits"] = limits
    return func(**params)
