"""The verdict reference, written by hand.

Nothing in this module calls stonework.  Every expected value is a closed
form, an exit code from the CLI's documented contract, a witness pinned by
the acceptance tests, or an identity of the symbolic layer.  The benchmark
checks every request against it; a wrong or missing verdict is a failed
request.
"""

from __future__ import annotations

import json
from math import comb, factorial, prod

EXIT_OK, EXIT_LAW_FAILURE, EXIT_INPUT_ERROR = 0, 1, 2


# -- closed forms ----------------------------------------------------------------------


def ix_size(k: int) -> int:
    """|I_k|: choose a j-subset for the domain, one for the range, and a
    bijection between them."""
    return sum(comb(k, j) ** 2 * factorial(j) for j in range(k + 1))


def monoid_facts(family: str, k: int) -> dict:
    """Elements, idempotents and dual-groupoid arrows (= atoms = ultrafilters)
    of a stock boolean monoid."""
    if family == "ix":        # partial bijections of a k-set; atoms {i -> j}
        return {"elements": ix_size(k), "idempotents": 2 ** k, "arrows": k * k}
    if family == "ba":        # the boolean algebra of subsets of a k-set
        return {"elements": 2 ** k, "idempotents": 2 ** k, "arrows": k}
    if family == "zero":      # the cyclic group Z_k with a zero adjoined
        return {"elements": k + 1, "idempotents": 2, "arrows": k}
    if family == "clifford":  # (Z_2 with zero) x (Z_2 with zero)
        return {"elements": 9, "idempotents": 4, "arrows": 4}
    raise KeyError(family)


def groupoid_facts(family: str, params) -> dict:
    """Arrows, identities and bisections of a stock groupoid."""
    if family == "pair":      # the pair groupoid on p points
        p = params
        return {"arrows": p * p, "identities": p, "bisections": ix_size(p)}
    if family == "union":     # disjoint union of cyclic groups Z_{n_i}
        orders = list(params)
        return {"arrows": sum(orders), "identities": len(orders),
                "bisections": prod(n + 1 for n in orders)}
    raise KeyError(family)


def monoid_certificate(n: int) -> dict:
    return {"cardinality": 1, "bijective": n, "multiplicative": n * n,
            "inverse-preserving": n, "zero-one": 2, "meet-and-order": n * n}


def groupoid_certificate(m: int, identities: int, bisections: int) -> dict:
    return {"cardinality": 1, "bijective": m, "dom-ran-inverse": 3 * m,
            "composition": m * m, "identities": identities,
            "bisection-transport": bisections}


def full_suite_instances(n: int, arrows: int) -> dict:
    """Instance counts of ``check --laws all`` on a boolean monoid with n
    elements: one per element, pair or triple for the laws that sweep them,
    one per ultrafilter for primeness, one per nonzero element for the two
    ultrafilter-existence laws.  Laws whose count depends on the order
    structure are only required to be present and to pass."""
    counts = {
        "boolean-axioms": 1,
        "compatible-iff-meet-splits": n * n, "join-splits-dom-ran": None,
        "products-distribute-over-meets": n ** 3,
        "downset-boolean-via-dom": n, "relative-complement-unique": None,
        "separation-below": None, "compatible-join-formula": None,
        "filter-base-pairwise": None, "ultra-criteria-agree": n,
        "nonzero-in-some-ultrafilter": n - 1,
        "ultrafilter-intersection-principal": n - 1, "filters-are-cosets": n,
        "product-smallest-filter": n * n, "domain-inverse-submonoid": n,
        "idempotent-filter-iff-closed": n, "filter-rigidity": n * n,
        "ultrafilters-prime": arrows,
        "inverse-semigroup": n, "idempotents-are-idempotent-filters": n,
        "order-is-reverse-inclusion": n * n, "three-way-equivalence": n,
    }
    counts.update(basic_open_instances(n))
    return counts


ORDER_LAWS = ("compatible-iff-meet-splits", "join-splits-dom-ran",
              "products-distribute-over-meets", "downset-boolean-via-dom",
              "relative-complement-unique", "separation-below", "compatible-join-formula")
FILTER_LAWS = ("filter-base-pairwise", "ultra-criteria-agree", "nonzero-in-some-ultrafilter",
               "ultrafilter-intersection-principal", "filters-are-cosets",
               "product-smallest-filter", "domain-inverse-submonoid",
               "idempotent-filter-iff-closed", "filter-rigidity", "ultrafilters-prime")
FILTER_SEMIGROUP_LAWS = ("inverse-semigroup", "idempotents-are-idempotent-filters",
                         "order-is-reverse-inclusion")


def basic_open_instances(n: int) -> dict:
    return {"is-bisection": n, "zero-is-empty": 1, "meet-is-intersection": n * n,
            "inverse": n, "product": n * n, "order-embedding": n * n,
            "injective": None, "join-is-union": None,
            "union-bisection-iff-join": n * n, "surjective-on-bisections": n}


def point_filter_instances(m: int) -> dict:
    return {"point-filters-ultra": m, "point-filters-intertwine": m,
            "point-filters-injective": m, "point-filters-exhaust-ultrafilters": 1}


# -- expectations ----------------------------------------------------------------------
# An expectation is a JSON-able dict; ``check`` compares an outcome with it.


def expect_dualize_monoid(family: str, k: int, round_trip: bool) -> dict:
    facts = monoid_facts(family, k)
    out = {"exit": EXIT_OK, "json": {"kind": "groupoid", "arrows": facts["arrows"]}}
    if round_trip:
        out["json"]["preserved_size"] = facts["elements"]
        out["certificate"] = monoid_certificate(facts["elements"])
    return out


def expect_dualize_groupoid(family: str, params) -> dict:
    facts = groupoid_facts(family, params)
    return {"exit": EXIT_OK,
            "json": {"kind": "monoid", "elements": facts["bisections"],
                     "preserved_size": facts["arrows"]},
            "certificate": groupoid_certificate(facts["arrows"], facts["identities"],
                                                facts["bisections"])}


def expect_build_ix(k: int) -> dict:
    facts = monoid_facts("ix", k)
    return {"exit": EXIT_OK,
            "json": {"summary": {"elements": facts["elements"],
                                 "idempotents": facts["idempotents"],
                                 "atoms": facts["arrows"]}}}


def expect_laws_pass(instances: dict) -> dict:
    return {"exit": EXIT_OK, "json": {"ok": True, "failures": 0}, "laws": instances}


# The negative controls of the acceptance tests, with their pinned witnesses.
CHAIN3_BM = {"exit": EXIT_LAW_FAILURE, "json": {"ok": False},
             "witness": ["BM1", "idempotent has no complement", [1]]}
BRANDT_BM = {"exit": EXIT_LAW_FAILURE, "json": {"ok": False},
             "witness": ["BM3", "orthogonal join missing"]}
COLLAPSE_COVERING = {"exit": EXIT_LAW_FAILURE, "json": {"ok": False},
                     "witness": ["star-injectivity"]}
WEAK_MORPHISM_AXIOMS = {"exit": EXIT_LAW_FAILURE, "json": {"ok": False}, "witness": ["M3"]}
COVERING_OK = {"exit": EXIT_OK, "json": {"ok": True, "failures": 0}}
MORPHISM_OK = {"exit": EXIT_OK, "json": {"ok": True, "failures": 0}}

# Every corrupted stored entry is an input error: exit 2, one line on stderr.
CORRUPT_ENTRY = {"exit": EXIT_INPUT_ERROR, "stderr_prefix": "error:"}

# Identities of the symbolic layer; a task reports each as a boolean.
SYMBOLIC = {
    # units are closed under products, u u^-1 = 1, and the prefix-code
    # test of unithood agrees with the definitional A A^-1 = A^-1 A = 1
    "mul_chain": {"units_closed": True, "unit_inverse_is_one": True,
                  "unit_tests_agree": True},
    # the join is commutative and the zero family is its unit
    "join": {"commutative": True, "zero_is_unit": True},
    # products and joins agree with the finite-depth truncated-arrow oracle
    "oracle": {"product_agrees": True, "join_agrees": True},
    # g g^-1 is the identity at the target word; arrow -> filter -> arrow
    "cuntz": {"inverse_gives_identity": True, "filter_round_trip": True},
    # the printer emits the canonical form and the parser inverts it
    "parse_format": {"round_trip": True, "canonical": True},
}


# -- the check ---------------------------------------------------------------------------


def check(expect: dict, outcome: dict) -> str | None:
    """None when the outcome meets the expectation, else the first reason
    it does not.  A timeout, an uncaught exception and a missing field are
    all reasons."""
    if outcome.get("timeout"):
        return "deadline missed"
    if outcome.get("exception"):
        return f"uncaught {outcome['exception']}"
    if "symbolic" in expect:
        values = outcome.get("values") or {}
        for name, want in SYMBOLIC[expect["symbolic"]].items():
            if values.get(name) is not want:
                return f"identity {name} gave {values.get(name)!r}"
        return None
    if outcome.get("exit") != expect["exit"]:
        return f"exit {outcome.get('exit')} != {expect['exit']}"
    if "stderr_prefix" in expect:
        if not outcome.get("stderr", "").startswith(expect["stderr_prefix"]):
            return "no error line on stderr"
        return None
    try:
        data = json.loads(outcome.get("stdout", ""))
    except json.JSONDecodeError:
        return "stdout is not JSON"
    return _check_json(expect, data)


def _check_json(expect: dict, data: dict) -> str | None:
    for key, want in expect.get("json", {}).items():
        if isinstance(want, dict):
            got = data.get(key) or {}
            for sub, sub_want in want.items():
                if got.get(sub) != sub_want:
                    return f"{key}.{sub} = {got.get(sub)!r}, expected {sub_want!r}"
        elif data.get(key) != want:
            return f"{key} = {data.get(key)!r}, expected {want!r}"
    if "certificate" in expect:
        cert = data.get("certificate") or {}
        got = {law["law"]: law["instances"] for law in cert.get("checked_laws", [])}
        if got != expect["certificate"]:
            return f"certificate laws {got} != {expect['certificate']}"
        n = expect["certificate"]["bijective"]
        for side in ("forward", "backward"):
            if sorted(cert.get(side, [])) != list(range(n)):
                return f"certificate {side} map is not a permutation of {n}"
    if "laws" in expect:
        got = {law["name"]: law for law in data.get("laws", [])}
        if set(got) != set(expect["laws"]):
            return f"law names {sorted(set(got) ^ set(expect['laws']))} differ"
        for name, count in expect["laws"].items():
            if not got[name]["ok"]:
                return f"law {name} failed"
            if count is not None and got[name]["instances"] != count:
                return f"law {name} ran {got[name]['instances']} instances, expected {count}"
    if "witness" in expect:
        failures = [w for law in data.get("laws", []) for w in law.get("failures", [])]
        if not failures:
            return "no witness reported"
        pinned = expect["witness"]
        if failures[0][:len(pinned)] != pinned:
            return f"witness {failures[0]!r} != {pinned!r}"
    return None
