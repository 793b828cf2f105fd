"""The law suites read shared tables: a product table filled from the
definition under test, and a dense meet table.  These tests show that a
wrong product or a wrong meet still surfaces, with the witnesses the
per-instance loops give."""

import pytest

from stonework import clifford_monoid, laws, symmetric_inverse_monoid
from stonework.filters import all_filters


def test_law_suites_read_the_product_they_check(monkeypatch):
    """A filter_product that is wrong on one pair, up(1) * up(1), must be
    reported: the table is built from the product under test."""
    monoid = symmetric_inverse_monoid(3)
    one = monoid.one
    improper = all_filters(monoid)[monoid.zero]
    real = laws.filter_product

    def wrong(a, b):
        return improper if a.generator == b.generator == one else real(a, b)

    monkeypatch.setattr(laws, "filter_product", wrong)
    semigroup = laws.filter_semigroup_laws(monoid)
    assert semigroup.get("idempotents-are-idempotent-filters").failures == [(one,)]
    assert (one,) in semigroup.get("inverse-semigroup").failures
    filters = laws.filter_laws(monoid)
    assert filters.get("product-smallest-filter").failures
    assert (one, one, "coset-form") in filters.get("domain-inverse-submonoid").failures

    monkeypatch.setattr(laws, "filter_product", real)
    assert laws.filter_semigroup_laws(monoid).ok and laws.filter_laws(monoid).ok


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
    order.by_down[order.down[atom]] = monoid.zero      # meets landing on atom now say 0
    law = laws.order_meet_laws(monoid).get("products-distribute-over-meets")
    assert law.failures
    assert (law.instances, law.failures) == _distribute_by_loops(monoid)
