"""The law suites read shared tables: a table of every filter product,
computed from the definition under test, and a dense meet table.  These
tests show that a wrong product or a wrong meet still surfaces, with the
witnesses the per-instance loops give."""

from dataclasses import replace

import pytest

from stonework import clifford_monoid, laws, symmetric_inverse_monoid
from stonework.filters import all_filters


def test_law_suites_read_the_product_they_check(monkeypatch):
    """A product table that is wrong on one pair, up(1) * up(1), must be
    reported: the suites read the table they are given."""
    monoid = symmetric_inverse_monoid(3)
    one = monoid.one
    improper = all_filters(monoid)[monoid.zero]
    real = laws.filter_products

    def wrong(monoid):
        sets, prod, inverse = real(monoid)
        prod = prod.copy()
        prod[one, one] = improper.generator
        return sets, prod, inverse

    monkeypatch.setattr(laws, "filter_products", wrong)
    semigroup = laws.filter_semigroup_laws(monoid)
    assert semigroup.get("idempotents-are-idempotent-filters").failures == [(one,)]
    assert (one,) in semigroup.get("inverse-semigroup").failures
    filters = laws.filter_laws(monoid)
    assert filters.get("product-smallest-filter").failures
    assert (one, one, "coset-form") in filters.get("domain-inverse-submonoid").failures

    monkeypatch.setattr(laws, "filter_products", real)
    assert laws.filter_semigroup_laws(monoid).ok and laws.filter_laws(monoid).ok


def test_filter_laws_read_the_monoid_table():
    """A product table corrupted after validation, an idempotent atom that
    squares to zero, shows in the filter laws, which read the table."""
    monoid = symmetric_inverse_monoid(3)
    monoid.require_boolean()        # the order and certificate of the sound table
    atom = next(a for a in monoid.atoms if monoid.is_idempotent(a))
    mul = monoid.mul.copy()
    mul[atom, atom] = monoid.zero
    monoid.mul = mul
    filters = laws.filter_laws(monoid)
    assert filters.get("filters-are-cosets").failures == [(atom,)]
    assert (atom, atom, "coset-form") in filters.get("domain-inverse-submonoid").failures
    semigroup = laws.filter_semigroup_laws(monoid)
    assert semigroup.get("idempotents-are-idempotent-filters").failures == [(atom,)]


def _distribute_by_loops(monoid):
    """products-distribute-over-meets, one instance at a time."""
    count, failures = 0, []
    for s in range(monoid.n):
        for t in range(monoid.n):
            m = monoid.meet(s, t)
            if m is None:
                continue
            for u in range(monoid.n):
                count += 1
                left = monoid.meet(monoid.product(u, s), monoid.product(u, t))
                right = monoid.meet(monoid.product(s, u), monoid.product(t, u))
                if left != monoid.product(u, m) or right != monoid.product(m, u):
                    failures.append((s, t, u))
    return count, failures


@pytest.mark.parametrize("factory", [lambda: symmetric_inverse_monoid(3), clifford_monoid],
                         ids=["ix3", "clifford"])
def test_meet_table_law_matches_the_loops(factory):
    """The gathered products-distribute-over-meets gives the loop's count
    and failure list, in order, on a sound monoid and after one meet is
    corrupted."""
    monoid = factory()
    law = laws.order_meet_laws(monoid).get("products-distribute-over-meets")
    assert (law.instances, law.failures) == _distribute_by_loops(monoid)
    assert law.instances and law.ok

    order = monoid.order()
    atom = monoid.atoms[0]
    meet = order.meet.copy()
    meet[meet == atom] = monoid.zero                   # meets landing on atom now say 0
    monoid._order = replace(order, meet=meet)
    law = laws.order_meet_laws(monoid).get("products-distribute-over-meets")
    assert law.failures
    assert (law.instances, law.failures) == _distribute_by_loops(monoid)
